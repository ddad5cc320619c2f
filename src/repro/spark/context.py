"""SparkContext: wires the whole simulated stack together.

``SparkContext.create(config)`` builds one node: the machine (devices +
clock + energy), the placement policy, the managed heap, the collector,
and — when the policy is Panthera — the access monitor and the Panthera
runtime whose ``rdd_alloc`` instrumentation the scheduler invokes at
materialisation points.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.config import PolicyName, SystemConfig
from repro.core.monitor import AccessMonitor
from repro.core.runtime_api import PantheraRuntime
from repro.errors import SparkError
from repro.gc.collector import Collector
from repro.gc.policies import make_policy
from repro.heap.layout import HEAP_BASE, young_span_bytes
from repro.heap.managed_heap import ManagedHeap
from repro.memory.machine import Machine
from repro.spark.block_manager import BlockManager
from repro.spark.costmodel import MutatorCosts
from repro.spark.materialize import Materializer
from repro.spark.partition import Record, split_evenly
from repro.spark.rdd import RDD, SourceRDD
from repro.spark.scheduler import Scheduler
from repro.spark.shuffle import ShuffleManager


class SparkContext:
    """One simulated Spark driver + executor node."""

    def __init__(
        self,
        config: SystemConfig,
        machine: Machine,
        heap: ManagedHeap,
        collector: Collector,
        costs: Optional[MutatorCosts] = None,
        monitor: Optional[AccessMonitor] = None,
        runtime: Optional[PantheraRuntime] = None,
    ) -> None:
        self.config = config
        self.machine = machine
        self.heap = heap
        self.collector = collector
        self.policy = collector.policy
        self.costs = costs or MutatorCosts()
        self.monitor = monitor
        self.runtime = runtime
        self.shuffles = ShuffleManager()
        self.block_manager = BlockManager(heap, machine, self.costs)
        #: optional :class:`~repro.faults.injector.FaultInjector`; the
        #: scheduler consults it at stage/action boundaries (None = no
        #: fault injection, one ``is None`` check per boundary).
        self.faults = None
        #: optional cluster binding (see :mod:`repro.cluster.executor`);
        #: the scheduler consults it the same way it consults ``faults``
        #: — stage/action boundaries and shuffle fetches, one ``is
        #: None`` check each.  None = this context is a standalone node,
        #: and every code path is byte-identical to the pre-cluster
        #: simulator.
        self.cluster = None
        self.materializer = Materializer(heap, machine, self.costs, runtime)
        self.scheduler = Scheduler(self)
        self._rdd_ids = itertools.count(1)
        self._rdds: Dict[int, RDD] = {}
        self._sources: Dict[str, SourceRDD] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def create(
        cls,
        config: SystemConfig,
        costs: Optional[MutatorCosts] = None,
        bandwidth_window_ns: float = 1e9,
        policy=None,
    ) -> "SparkContext":
        """Build the full stack for one configuration.

        Args:
            policy: an optional custom
                :class:`~repro.gc.policies.PlacementPolicy` instance;
                defaults to the one named by ``config.policy``.  Passing
                a custom policy is the extension point for placement
                research (see ``examples/custom_policy.py``).
        """
        machine = Machine(config, bandwidth_window_ns=bandwidth_window_ns)
        policy = policy or make_policy(config)
        old_base = HEAP_BASE + young_span_bytes(config)
        old_spaces = policy.build_old_spaces(old_base)
        heap = ManagedHeap(
            config, machine, old_spaces, card_padding=policy.card_padding
        )
        monitor: Optional[AccessMonitor] = None
        runtime: Optional[PantheraRuntime] = None
        if config.policy is PolicyName.PANTHERA:
            monitor = AccessMonitor(machine)
            runtime = PantheraRuntime(heap, monitor)
        elif config.policy is PolicyName.DECA:
            # Deca replaces Panthera's tag machinery with lifetime
            # arenas: no monitor, no runtime — the region manager is
            # the whole placement mechanism.
            from repro.heap.regions import RegionManager

            RegionManager.attach(heap)
        collector = Collector(heap, machine, policy, monitor=monitor)
        return cls(
            config,
            machine,
            heap,
            collector,
            costs=costs,
            monitor=monitor,
            runtime=runtime,
        )

    @property
    def panthera_enabled(self) -> bool:
        """Whether Panthera's instrumentation and tag machinery are live."""
        return self.config.policy is PolicyName.PANTHERA

    # -- RDD registry ----------------------------------------------------------

    def new_rdd_id(self) -> int:
        """Fresh RDD id."""
        return next(self._rdd_ids)

    def register_rdd(self, rdd: RDD) -> None:
        """Track a logical RDD (for reports and tests)."""
        self._rdds[rdd.id] = rdd

    def rdd_by_id(self, rdd_id: int) -> RDD:
        """Look up a registered RDD."""
        try:
            return self._rdds[rdd_id]
        except KeyError:
            raise SparkError(f"unknown RDD id {rdd_id}") from None

    # -- sources -----------------------------------------------------------------

    def source_rdd(self, dataset) -> SourceRDD:
        """SourceRDD for a dataset spec (cached, like an HDFS file)."""
        cached = self._sources.get(dataset.name)
        if cached is not None:
            return cached
        source = self.parallelize(
            dataset.records,
            dataset.num_partitions,
            dataset.total_bytes,
            name=dataset.name,
        )
        self._sources[dataset.name] = source
        return source

    def text_file(
        self,
        path: str,
        total_bytes: Optional[float] = None,
        num_partitions: int = 4,
    ) -> SourceRDD:
        """Load a text file as ``(line_number, line)`` records — the
        ``ctx.textFile(...)`` entry point of Figure 2(a).

        Args:
            path: the file to read.
            total_bytes: in-memory byte weight; defaults to 8x the file
                size (the Java object-bloat factor; see DESIGN.md).
            num_partitions: input split count.
        """
        import os

        records: List[Record] = []
        with open(path) as fh:
            for idx, line in enumerate(fh):
                records.append((idx, line.rstrip("\n")))
        if not records:
            raise SparkError(f"empty input file: {path}")
        weight = total_bytes if total_bytes is not None else os.path.getsize(path) * 8
        return self.parallelize(
            records, num_partitions, weight, name=os.path.basename(path)
        )

    def parallelize(
        self,
        records: List[Record],
        num_partitions: int,
        total_bytes: float,
        name: str = "parallelize",
    ) -> SourceRDD:
        """Create a source RDD from records with a total byte weight."""
        if not records:
            raise SparkError("cannot parallelize an empty dataset")
        partitions = split_evenly(records, num_partitions)
        return SourceRDD(
            self,
            partitions,
            bytes_per_record=total_bytes / len(records),
            name=name,
        )

    # -- runtime hooks --------------------------------------------------------------

    def on_rdd_call(self, rdd: RDD) -> None:
        """A transformation/action was invoked on an RDD: under Panthera,
        calls on materialised RDDs are monitored (§4.2.2)."""
        if self.monitor is None:
            return
        if rdd.persist_level is not None or self.block_manager.contains(rdd.id):
            self.monitor.record_call(rdd.id)

    def unpersist(self, rdd: RDD) -> None:
        """Release an RDD's persisted block."""
        self.block_manager.unpersist(rdd.id)

    def release(self) -> None:
        """Break the context's reference cycles after a finished run.

        The scheduler, every registered RDD and an attached fault
        injector point back at the context, so without this a run's
        blocks, shuffle files and simulated heap wait for CPython's next
        full collection instead of dying when the last outside
        reference goes.  The context is unusable afterwards.
        """
        self._rdds.clear()
        self._sources.clear()
        self.scheduler.ctx = None
        self.faults = None
