"""The DAG scheduler and task-side cost charging.

Execution follows Spark's model (§2): an action walks the lineage, runs
every not-yet-written shuffle map stage bottom-up, then computes the
final pipeline.  Wide dependencies are memoised as shuffle files for the
application's lifetime (stage skipping), which keeps iterative jobs
linear.  ShuffledRDDs — the materialised stage inputs the paper's tag
propagation targets — are materialised into the heap when first fetched
and released when their consuming scope ends.

This module is also the mutator cost model: every transformation charges
CPU time, young-generation writes and ephemeral allocation; every data
*source* (persisted block, shuffle file, input file) charges its read at
the device it actually lives on.  That single rule is what makes the
unmanaged baseline pay for NVM-resident hot RDDs while Panthera does not.
"""

from __future__ import annotations

from itertools import chain as _chain
from typing import Dict, List, Optional, Set

from repro.config import DeviceKind
from repro.core.lineage_propagation import propagate_tags
from repro.core.tags import MemoryTag
from repro.errors import OutOfMemoryError, SparkError
from repro.gc import charging as _charging
from repro.heap.object_model import ObjKind
from repro.heap.regions import LifetimeClass
from repro.spark.materialize import MaterializedBlock
from repro.spark import columnar as _columnar
from repro.spark import partition as _partition
from repro.spark.partition import _MISSING, Record
from repro.spark.rdd import (
    RDD,
    ShuffleDependency,
    ShuffledRDD,
)
from repro.spark.serialized import pack_partitions
from repro.spark.storage import (
    expand_level,
    routes_to_serialized_tier,
    serialized_tier_active,
    warn_legacy_serialized_fallthrough,
)


class Scheduler:
    """Runs actions over the logical RDD graph, charging the machine."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        #: rdd_id -> runtime-propagated tag (ShuffledRDD inputs, §3)
        self.runtime_tags: Dict[int, Optional[MemoryTag]] = {}
        #: rdd_id -> transient ShuffledRDD block for the active scopes
        self._transients: Dict[int, MaterializedBlock] = {}
        self._scopes: List[List[MaterializedBlock]] = []
        self.transient_materializations = 0

    # ------------------------------------------------------------------
    # scopes: transient ShuffledRDD lifetime ("die when the stage ends")
    # ------------------------------------------------------------------

    def _push_scope(self) -> None:
        self._scopes.append([])

    def _pop_scope(self) -> None:
        for block in self._scopes.pop():
            self.ctx.materializer.release(block)
            # The stage is over: its buffers are garbage, and the stage's
            # final safepoint stops treating their card regions as
            # scannable (otherwise dead shuffle buffers would be
            # phantom-rescanned until the next full GC).
            for array in block.arrays:
                if self.ctx.heap.card_table.is_registered(array):
                    self.ctx.heap.card_table.unregister(array)
            self._transients.pop(block.rdd_id, None)
            if self.ctx.heap.regions is not None:
                # Transient stage blocks free their region the moment
                # their scope closes (job-arena overflow extents come
                # back here; stage-arena bytes at the reset below).
                self.ctx.heap.regions.free_block(block)
        if not self._scopes and self.ctx.heap.regions is not None:
            # The outermost scope closing is a stage/action boundary:
            # Deca frees the whole stage arena (and the ephemeral arena)
            # in one wholesale reset — no tracing, no per-object work.
            # Nested scopes share the arena, so only the outermost close
            # resets it.
            self.ctx.heap.regions.stage_boundary()

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------

    def run_action(self, rdd: RDD, action: str):
        """Execute an action, driving all upstream stages."""
        self._ensure_upstream_shuffles(rdd)
        if self.ctx.faults is not None:
            self.ctx.faults.action_boundary(rdd)
        if self.ctx.cluster is not None:
            self.ctx.cluster.action_boundary(rdd)
        self._push_scope()
        try:
            if self.ctx.panthera_enabled and rdd.memory_tag is not None:
                propagate_tags(rdd, rdd.memory_tag, self.runtime_tags)
            parts = [
                self.get_records(rdd, p) for p in range(rdd.num_partitions)
            ]
            if (
                self.ctx.panthera_enabled
                and rdd.memory_tag is not None
                and rdd.persist_level is None
                and not self.ctx.block_manager.contains(rdd.id)
            ):
                # The action is a materialisation point (§3): build the
                # transient structure so the tag machinery is exercised,
                # released when the action's scope closes.
                block = self.ctx.materializer.materialize(
                    rdd, parts, rdd.memory_tag
                )
                self._scopes[-1].append(block)
        finally:
            self._pop_scope()
        if action == "count":
            # Counted by length: column batches are never unpacked.
            return sum(len(part) for part in parts)
        records: List[Record] = list(_chain.from_iterable(parts))
        if action == "collect":
            return records
        if action == "sum":
            return sum(v for _, v in records)
        raise SparkError(f"unknown action {action!r}")

    def run_take(self, rdd: RDD, n: int) -> List[Record]:
        """Compute partitions in order until ``n`` records are available
        (Spark's incremental ``take``)."""
        self._ensure_upstream_shuffles(rdd)
        if self.ctx.faults is not None:
            self.ctx.faults.action_boundary(rdd)
        if self.ctx.cluster is not None:
            self.ctx.cluster.action_boundary(rdd)
        self._push_scope()
        taken: List[Record] = []
        try:
            for pidx in range(rdd.num_partitions):
                if len(taken) >= n:
                    break
                taken.extend(self.get_records(rdd, pidx))
        finally:
            self._pop_scope()
        return taken[:n]

    # ------------------------------------------------------------------
    # stage orchestration
    # ------------------------------------------------------------------

    def _ensure_upstream_shuffles(self, rdd: RDD) -> None:
        """Run every missing shuffle map stage below ``rdd``, parents
        first (iterative postorder, so deep lineages never overflow the
        Python stack)."""
        order: List[ShuffleDependency] = []
        seen: Set[int] = set()
        stack = [(rdd, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                for dep in node.deps:
                    if isinstance(dep, ShuffleDependency):
                        if not self.ctx.shuffles.has(dep.shuffle_id):
                            order.append(dep)
                continue
            if node.id in seen:
                continue
            seen.add(node.id)
            if self.ctx.block_manager.contains(node.id):
                continue  # cached: its upstream stages are skipped
            stack.append((node, True))
            for dep in node.deps:
                stack.append((dep.parent, False))
        for dep in order:
            self._run_shuffle_map(dep)

    def _run_shuffle_map(self, dep: ShuffleDependency, force: bool = False) -> None:
        """Execute one shuffle map stage and write its files.

        Args:
            force: re-run the stage even though its output exists and
                overwrite it — the lineage-recovery path after an
                injected executor kill destroyed a reduce partition.
        """
        if self.ctx.shuffles.has(dep.shuffle_id) and not force:
            return
        self._ensure_upstream_shuffles(dep.parent)
        costs = self.ctx.costs
        threads = self.ctx.config.mutator_threads
        n_out = dep.partitioner.num_partitions
        buckets: List[List[Record]] = [[] for _ in range(n_out)]
        # Under the columnar plane each bucket accumulates *ordered
        # segments* (sub-batches or record lists, one or more per map
        # partition) fused after the loop — the concatenation yields the
        # same per-bucket record sequence the per-record bucket_into
        # appends produce, because both preserve map-partition order and
        # within-partition record order.
        use_columnar = _columnar.columnar_active()
        segments: List[list] = [[] for _ in range(n_out)]
        # Under the vectorised cost plane each partition's machine
        # charges (the combine probe and the spill write) settle as one
        # run_rows wave; the rows replay access()'s arithmetic row by
        # row, and nothing between them touches the machine, so clocks,
        # counters and bandwidth windows stay byte-identical.
        vectorised = _charging.VECTORISED_COST_PLANE
        self._push_scope()
        try:
            for pidx in range(dep.parent.num_partitions):
                records = self.get_records(dep.parent, pidx)
                in_bytes = len(records) * dep.parent.bytes_per_record
                n_records = len(records)
                rows = []
                if dep.map_side_combine is not None or dep.map_side_aggregate is not None:
                    if dep.map_side_aggregate is not None:
                        records = dep.map_side_aggregate(records)
                        n_records = len(records)
                    else:
                        fn = dep.map_side_combine
                        folded = None
                        if use_columnar:
                            folded = self._columnar_combine(fn, records)
                        if folded is not None:
                            # The kernel's grouped fold: same groups in
                            # the same first-occurrence order, each
                            # accumulated in record order — the dict
                            # fold below, vectorised.
                            records = folded
                            n_records = len(folded)
                        elif _partition.LEGACY_DATA_PLANE:
                            combined = {}
                            for k, v in records:
                                combined[k] = (
                                    fn(combined[k], v) if k in combined else v
                                )
                            records = combined.items()
                            n_records = len(combined)
                        else:
                            # Single dict probe per record; fn sees the
                            # same (accumulator, value) order as before.
                            # Streaming combined.items() straight into
                            # the buckets skips the intermediate list
                            # the legacy plane built (identical tuples).
                            combined = {}
                            get = combined.get
                            for k, v in records:
                                prev = get(k, _MISSING)
                                combined[k] = (
                                    v if prev is _MISSING else fn(prev, v)
                                )
                            records = combined.items()
                            n_records = len(combined)
                    if vectorised:
                        rows.append(
                            (
                                DeviceKind.DRAM,
                                0.0,
                                0.0,
                                costs.hash_probes_for(in_bytes),
                                0,
                                in_bytes * costs.cpu_ns_per_byte / threads,
                            )
                        )
                    else:
                        self.ctx.machine.access(
                            DeviceKind.DRAM,
                            random_reads=costs.hash_probes_for(in_bytes),
                            threads=threads,
                            cpu_ns=in_bytes * costs.cpu_ns_per_byte / threads,
                        )
                if use_columnar:
                    _columnar.bucket_into_segments(
                        dep.partitioner, records, segments
                    )
                else:
                    dep.partitioner.bucket_into(records, buckets)
                out_bytes = (
                    n_records * dep.parent.bytes_per_record * dep.combine_factor
                )
                ser_bytes = out_bytes * costs.ser_factor
                if vectorised:
                    rows.append(
                        (
                            DeviceKind.DISK,
                            0.0,
                            ser_bytes,
                            0,
                            0,
                            out_bytes * costs.cpu_ns_per_byte / threads,
                        )
                    )
                    self.ctx.machine.run_rows(rows, threads=threads)
                else:
                    self.ctx.machine.access(
                        DeviceKind.DISK,
                        write_bytes=ser_bytes,
                        threads=threads,
                        cpu_ns=out_bytes * costs.cpu_ns_per_byte / threads,
                    )
        finally:
            self._pop_scope()
        if use_columnar:
            buckets = [_columnar.concat_segments(segs) for segs in segments]
        bpr = dep.parent.bytes_per_record * dep.combine_factor
        sizes = [len(b) * bpr * costs.ser_factor for b in buckets]
        self.ctx.shuffles.write(dep.shuffle_id, buckets, sizes, overwrite=force)
        if self.ctx.faults is not None:
            # A completed map stage is a stage boundary: pending kills
            # scheduled for it fire now (possibly re-losing the output
            # this very stage just wrote — recovery is bounded).
            self.ctx.faults.stage_boundary(dep)
        if self.ctx.cluster is not None:
            # The cluster binding registers the shuffle with the shared
            # service (reduce partitions get owners across executors)
            # and fires executor kills due at this boundary.
            self.ctx.cluster.stage_boundary(dep)

    def _columnar_combine(self, fn, records):
        """Map-side combine through ``fn``'s registered grouped-fold
        kernel, for data already in batch form (PageRank's contribs and
        the Pregel messages arrive as flat_map kernel output).  Plain
        record lists stay on the dict fold: the O(N) Python pack loop
        costs more than the vectorised fold saves, measured 0.84x on
        the PR cell when record lists were packed here."""
        if _columnar.reduce_kernel_for(fn) is None:
            return None
        if not _columnar.is_batch(records):
            return None
        return _columnar.apply_reduce_kernel(fn, records)

    # ------------------------------------------------------------------
    # record access (the task-side data plane)
    # ------------------------------------------------------------------

    def get_records(self, rdd: RDD, pidx: int) -> List[Record]:
        """One partition of ``rdd``, from cache, shuffle or recomputation."""
        block = self.ctx.block_manager.get(rdd.id)
        if block is not None:
            return self._read_block(rdd, block, pidx)
        transient = self._transients.get(rdd.id)
        if transient is not None:
            return self._read_block(rdd, transient, pidx)
        if rdd.persist_level is not None:
            if self.ctx.faults is not None:
                self.ctx.faults.materialize_persisted(self, rdd)
            else:
                self._materialize_persisted(rdd)
            block = self.ctx.block_manager.get(rdd.id)
            if block is None:
                raise SparkError(f"persist of {rdd!r} produced no block")
            return self._read_block(rdd, block, pidx)
        if isinstance(rdd, ShuffledRDD):
            block = self._materialize_shuffled(rdd)
            return self._read_block(rdd, block, pidx)
        return rdd.compute_partition(pidx, self)

    def _read_block(
        self, rdd: RDD, block: MaterializedBlock, pidx: int
    ) -> List[Record]:
        """Serve one partition from a block, charging its read wherever
        the block's objects currently live."""
        threads = self.ctx.config.mutator_threads
        if block.in_serialized_tier:
            return self._read_serialized_partition(rdd, block, pidx)
        records = block.records[pidx]
        if block.on_disk:
            part_bytes = len(records) * rdd.bytes_per_record
            self.ctx.machine.access(
                DeviceKind.DISK,
                read_bytes=part_bytes * self.ctx.costs.ser_factor,
                threads=threads,
                cpu_ns=part_bytes * self.ctx.costs.cpu_ns_per_byte / threads,
            )
        else:
            traffic: Dict[DeviceKind, float] = {}
            for device, nbytes in block.partition_traffic(pidx):
                traffic[device] = traffic.get(device, 0.0) + nbytes
            from repro.memory.machine import Traffic

            # Serialised blocks pay deserialisation CPU on every read.
            deser_cpu = 0.0
            if block.serialized:
                part_bytes = len(records) * rdd.bytes_per_record
                deser_cpu = (
                    part_bytes * self.ctx.costs.cpu_ns_per_byte / threads
                )
            self.ctx.machine.run_batch(
                {d: Traffic(read_bytes=b) for d, b in traffic.items()},
                threads=threads,
                cpu_ns=deser_cpu,
            )
            # Consuming a cached partition leaves reference writes (task
            # iterators, buffer handles) in its card region, so the next
            # minor GC re-scans the array — on whatever device it lives.
            if pidx < len(block.arrays):
                array = block.arrays[pidx]
                heap = self.ctx.heap
                if heap.in_old(array) and heap.card_table.is_registered(array):
                    heap.card_table.mark_dirty(array)
        # Runtime consumption counts towards the RDD's call frequency —
        # this is what keeps iteratively re-read RDDs "hot" across major
        # GCs (§4.2.2).
        self.ctx.on_rdd_call(rdd)
        # Served partitions are shared, not copied: consumers never
        # mutate record lists (the legacy data plane copies anyway).
        return list(records) if _partition.LEGACY_DATA_PLANE else records

    def _read_serialized_partition(
        self, rdd: RDD, block: MaterializedBlock, pidx: int
    ) -> List[Record]:
        """Serve one partition of a serialized-tier block.

        Deserialize-on-access: stream the packed batch off the native
        device, pay the unpack CPU, land the deserialised records in
        DRAM.  No cards are dirtied and nothing is re-scanned — the
        tier has no object-heap structure for the GC to see.
        """
        costs = self.ctx.costs
        threads = self.ctx.config.mutator_threads
        batch = block.ser_batches[pidx]
        part_bytes = batch.count * rdd.bytes_per_record
        packed_bytes = part_bytes * costs.ser_factor
        deser_cpu = part_bytes * costs.cpu_ns_per_byte / threads
        device = self.ctx.heap.native.device
        if _charging.VECTORISED_COST_PLANE:
            self.ctx.machine.run_rows(
                (
                    (device, packed_bytes, 0.0, 0, 0, deser_cpu),
                    (DeviceKind.DRAM, 0.0, part_bytes, 0, 0, 0.0),
                ),
                threads=threads,
            )
        else:
            self.ctx.machine.access(
                device,
                read_bytes=packed_bytes,
                threads=threads,
                cpu_ns=deser_cpu,
            )
            self.ctx.machine.access(
                DeviceKind.DRAM, write_bytes=part_bytes, threads=threads
            )
        if self.ctx.heap.trace is not None:
            self.ctx.heap.trace.deserialize(rdd.id, part_bytes)
        self.ctx.on_rdd_call(rdd)
        return batch.unpack()

    # ------------------------------------------------------------------
    # materialisation paths
    # ------------------------------------------------------------------

    def _materialize_persisted(self, rdd: RDD) -> None:
        """First computation of a persisted RDD: compute, then cache."""
        level = rdd.persist_level
        assert level is not None
        tag = rdd.memory_tag if self.ctx.panthera_enabled else None
        if self.ctx.panthera_enabled and tag is not None:
            propagate_tags(rdd, tag, self.runtime_tags)
        self._push_scope()
        try:
            parts = [
                rdd.compute_partition(p, self) for p in range(rdd.num_partitions)
            ]
        finally:
            self._pop_scope()
        total_bytes = sum(len(p) for p in parts) * rdd.bytes_per_record
        costs = self.ctx.costs
        threads = self.ctx.config.mutator_threads
        if serialized_tier_active(level):
            block = self._materialize_serialized_tier(rdd, parts)
        elif level.off_heap:
            warn_legacy_serialized_fallthrough(level)
            block = self._materialize_off_heap(rdd, parts)
        elif level.use_memory:
            if routes_to_serialized_tier(level):
                # MEMORY_ONLY_SER with the tier off: the pre-tier
                # object-heap serialised buffer, bit-for-bit — but no
                # longer silently.
                warn_legacy_serialized_fallthrough(level)
            in_heap_bytes = (
                total_bytes * costs.ser_factor if level.serialized else total_bytes
            )
            regions = self.ctx.heap.regions
            if regions is not None:
                # Deca: persisted data goes to a job-arena region, not
                # the traced old generation — pressure is relieved by
                # region-grained eviction, never by a full GC.
                regions.note_rdd(rdd.id, rdd.lifetime or LifetimeClass.JOB)
                regions.ensure_job_capacity(
                    in_heap_bytes, self.ctx.block_manager
                )
            else:
                self.ctx.block_manager.ensure_capacity(
                    in_heap_bytes,
                    self.ctx.collector,
                    extra_live=self._active_transient_bytes(),
                )
            block = self.ctx.materializer.materialize(
                rdd, parts, tag, serialized=level.serialized
            )
            block.serialized = level.serialized
        else:  # DISK_ONLY
            top = self.ctx.heap.new_object(ObjKind.CONTROL, 64, rdd.id)
            block = MaterializedBlock(
                rdd_id=rdd.id,
                top=top,
                arrays=[],
                slabs=[[] for _ in parts],
                records=(
                    [list(p) for p in parts]
                    if _partition.LEGACY_DATA_PLANE
                    else parts
                ),
                data_bytes=total_bytes,
                on_disk=True,
            )
            self.ctx.machine.access(
                DeviceKind.DISK,
                write_bytes=total_bytes * costs.ser_factor,
                threads=threads,
                cpu_ns=total_bytes * costs.cpu_ns_per_byte / threads,
            )
        expanded = expand_level(level, tag)
        self.ctx.block_manager.put(block, expanded)

    def _materialize_serialized_tier(
        self, rdd: RDD, parts: List[List[Record]]
    ) -> MaterializedBlock:
        """Serialized-tier persistence: pack each partition into a
        column batch in the native region (§4.1's off-heap NVM), charge
        serialize-on-persist rows, and leave *nothing* for the GC to
        trace — the tier's whole trade (arXiv 2111.10589) is paying
        deserialisation on every access instead of tracing cost on
        every collection.
        """
        heap = self.ctx.heap
        costs = self.ctx.costs
        threads = self.ctx.config.mutator_threads
        top = heap.new_object(ObjKind.CONTROL, 64, rdd.id)
        arrays = []
        total_packed = 0.0
        vectorised = _charging.VECTORISED_COST_PLANE
        for records in parts:
            part_bytes = len(records) * rdd.bytes_per_record
            packed_bytes = part_bytes * costs.ser_factor
            total_packed += packed_bytes
            try:
                native_obj = heap.allocate_native(packed_bytes, rdd.id)
            except OutOfMemoryError as exc:
                raise SparkError(str(exc)) from exc
            arrays.append(native_obj)
            # Row 1: stream the freshly computed records out of DRAM,
            # paying the serialisation CPU.  Row 2: land the packed
            # batch on the native device.
            ser_cpu = part_bytes * costs.cpu_ns_per_byte / threads
            if vectorised:
                self.ctx.machine.run_rows(
                    (
                        (DeviceKind.DRAM, part_bytes, 0.0, 0, 0, ser_cpu),
                        (heap.native.device, 0.0, packed_bytes, 0, 0, 0.0),
                    ),
                    threads=threads,
                )
            else:
                self.ctx.machine.access(
                    DeviceKind.DRAM,
                    read_bytes=part_bytes,
                    threads=threads,
                    cpu_ns=ser_cpu,
                )
                self.ctx.machine.access(
                    heap.native.device,
                    write_bytes=packed_bytes,
                    threads=threads,
                )
        if heap.trace is not None:
            heap.trace.serialize(rdd.id, total_packed)
        return MaterializedBlock(
            rdd_id=rdd.id,
            top=top,
            arrays=arrays,
            slabs=[[] for _ in parts],
            records=[[] for _ in parts],
            data_bytes=total_packed,
            serialized=True,
            ser_batches=pack_partitions(parts),
        )

    def _materialize_off_heap(self, rdd: RDD, parts: List[List[Record]]):
        """OFF_HEAP persistence: native NVM memory, outside the GC (§4.1)."""
        heap = self.ctx.heap

        top = heap.new_object(ObjKind.CONTROL, 64, rdd.id)
        arrays = []
        threads = self.ctx.config.mutator_threads
        total = 0.0
        for records in parts:
            part_bytes = len(records) * rdd.bytes_per_record
            total += part_bytes
            try:
                native_obj = heap.allocate_native(part_bytes, rdd.id)
            except OutOfMemoryError as exc:
                raise SparkError(str(exc)) from exc
            self.ctx.machine.access(
                heap.native.device,
                write_bytes=part_bytes,
                threads=threads,
                cpu_ns=part_bytes * self.ctx.costs.cpu_ns_per_byte / threads,
            )
            arrays.append(native_obj)
        return MaterializedBlock(
            rdd_id=rdd.id,
            top=top,
            arrays=arrays,
            slabs=[[] for _ in parts],
            records=(
                [list(p) for p in parts]
                if _partition.LEGACY_DATA_PLANE
                else parts
            ),
            data_bytes=total,
        )

    def _active_transient_bytes(self) -> float:
        """Live bytes held by in-flight transient blocks (invisible to the
        block manager's registry)."""
        return sum(b.data_bytes for b in self._transients.values())

    def _materialize_shuffled(self, rdd: ShuffledRDD) -> MaterializedBlock:
        """Materialise a ShuffledRDD stage input (always materialised, §2)
        with its runtime-propagated tag; it dies when the scope ends."""
        if not self._scopes:
            self._push_scope()  # defensive: an implicit outermost scope
        dep = rdd.shuffle_dep
        regions = self.ctx.heap.regions
        if regions is not None:
            # Stage inputs are the canonical stage-local class: freed by
            # the wholesale arena reset when the consuming scope closes.
            regions.note_rdd(rdd.id, LifetimeClass.STAGE)
        if self.ctx.shuffles.has(dep.shuffle_id):
            estimate = sum(
                self.ctx.shuffles.serialized_bytes(dep.shuffle_id, p)
                for p in range(rdd.num_partitions)
            ) / max(self.ctx.costs.ser_factor, 1e-9)
            if regions is not None:
                # Only the part the stage arena cannot take will fall
                # over into job-arena extents.
                overflow = estimate - regions.stage.free
                if overflow > 0:
                    regions.ensure_job_capacity(
                        overflow, self.ctx.block_manager
                    )
            else:
                self.ctx.block_manager.ensure_capacity(
                    estimate,
                    self.ctx.collector,
                    extra_live=self._active_transient_bytes(),
                )
        parts = [
            rdd.compute_partition(p, self) for p in range(rdd.num_partitions)
        ]
        tag = (
            self.runtime_tags.get(rdd.id)
            if self.ctx.panthera_enabled
            else None
        )
        block = self.ctx.materializer.materialize(rdd, parts, tag)
        self._transients[rdd.id] = block
        self._scopes[-1].append(block)
        self.transient_materializations += 1
        return block

    # ------------------------------------------------------------------
    # shuffle fetch + per-op cost charging (called from rdd.compute_partition)
    # ------------------------------------------------------------------

    def fetch_shuffle(self, dep: ShuffleDependency, pidx: int) -> List[Record]:
        """Read one reduce partition from shuffle files on disk."""
        if not self.ctx.shuffles.has(dep.shuffle_id):
            self._run_shuffle_map(dep)
        if self.ctx.faults is not None:
            self.ctx.faults.ensure_shuffle_partition(self, dep, pidx)
        if self.ctx.cluster is not None:
            # Partitions owned by a remote executor pay the network hop
            # (charged through Machine.run_rows on this machine) before
            # the local disk read below models the landing.
            self.ctx.cluster.shuffle_fetch(dep, pidx)
        records = self.ctx.shuffles.read(dep.shuffle_id, pidx)
        costs = self.ctx.costs
        threads = self.ctx.config.mutator_threads
        ser_bytes = self.ctx.shuffles.serialized_bytes(dep.shuffle_id, pidx)
        raw_bytes = ser_bytes / costs.ser_factor if costs.ser_factor else ser_bytes
        self._ephemeral(raw_bytes)
        if _charging.VECTORISED_COST_PLANE:
            # Disk read + DRAM landing settle as one two-row wave — the
            # rows are back-to-back accesses with nothing between them.
            self.ctx.machine.run_rows(
                (
                    (
                        DeviceKind.DISK,
                        ser_bytes,
                        0.0,
                        0,
                        0,
                        raw_bytes * costs.cpu_ns_per_byte / threads,
                    ),
                    (DeviceKind.DRAM, 0.0, raw_bytes, 0, 0, 0.0),
                ),
                threads=threads,
            )
            return records
        self.ctx.machine.access(
            DeviceKind.DISK,
            read_bytes=ser_bytes,
            threads=threads,
            cpu_ns=raw_bytes * costs.cpu_ns_per_byte / threads,
        )
        self.ctx.machine.access(
            DeviceKind.DRAM, write_bytes=raw_bytes, threads=threads
        )
        return records

    def _ephemeral(self, nbytes: float) -> None:
        """Allocate streaming bytes in eden, chunked below eden's size.

        The allocation-pressure factor models the JVM's temp-object churn
        (boxing, iterator wrappers): eden fills several times faster than
        the useful output volume.
        """
        remaining = int(nbytes * self.ctx.costs.alloc_factor)
        chunk = max(1, self.ctx.heap.eden.size // 4)
        while remaining > 0:
            take = min(remaining, chunk)
            self.ctx.heap.allocate_ephemeral(take)
            remaining -= take

    def _write_overhead_ns(self, nbytes: float) -> float:
        """Kingsguard-Writes' monitoring barrier cost for ``nbytes`` of
        mutator writes."""
        per_write = self.ctx.policy.mutator_write_barrier_ns()
        if per_write <= 0:
            return 0.0
        return per_write * (nbytes / 64.0)

    def _charge_op(
        self,
        in_bytes: float,
        out_bytes: float,
        n_in: int,
        n_out: int,
        probe_bytes: float = 0.0,
    ) -> None:
        """Common charging for one partition-level operator."""
        costs = self.ctx.costs
        threads = self.ctx.config.mutator_threads
        cpu = (
            in_bytes * costs.cpu_ns_per_byte
            + (n_in + n_out) * costs.cpu_ns_per_record
            + self._write_overhead_ns(out_bytes)
        ) / threads
        self._ephemeral(out_bytes)
        self.ctx.machine.access(
            DeviceKind.DRAM,
            write_bytes=out_bytes,
            random_reads=costs.hash_probes_for(probe_bytes),
            threads=threads,
            cpu_ns=cpu,
        )

    def charge_narrow_op(
        self, rdd: RDD, parent: RDD, in_records: List[Record], out_records: List[Record]
    ) -> None:
        """Cost of a pipelined narrow transformation."""
        self._charge_op(
            in_bytes=len(in_records) * parent.bytes_per_record,
            out_bytes=len(out_records) * rdd.bytes_per_record,
            n_in=len(in_records),
            n_out=len(out_records),
        )

    def charge_aggregation(
        self, rdd: ShuffledRDD, raw: List[Record], out: List[Record]
    ) -> None:
        """Cost of a reduce-side aggregation (hash build over raw input)."""
        in_bytes = len(raw) * rdd.deps[0].parent.bytes_per_record
        self._charge_op(
            in_bytes=in_bytes,
            out_bytes=len(out) * rdd.bytes_per_record,
            n_in=len(raw),
            n_out=len(out),
            probe_bytes=in_bytes,
        )

    def charge_cogroup(
        self, rdd: RDD, sides: List[List[Record]], out: List[Record]
    ) -> None:
        """Cost of a hash cogroup over all input sides."""
        in_bytes = sum(
            len(side) * dep.parent.bytes_per_record
            for side, dep in zip(sides, rdd.deps)
        )
        self._charge_op(
            in_bytes=in_bytes,
            out_bytes=len(out) * rdd.bytes_per_record,
            n_in=sum(len(s) for s in sides),
            n_out=len(out),
            probe_bytes=in_bytes,
        )

    def charge_source_read(self, rdd: RDD, records: List[Record]) -> None:
        """Cost of reading and parsing one input partition from disk."""
        costs = self.ctx.costs
        threads = self.ctx.config.mutator_threads
        nbytes = len(records) * rdd.bytes_per_record
        self._ephemeral(nbytes)
        if _charging.VECTORISED_COST_PLANE:
            self.ctx.machine.run_rows(
                (
                    (
                        DeviceKind.DISK,
                        nbytes,
                        0.0,
                        0,
                        0,
                        nbytes * costs.source_cpu_ns_per_byte / threads,
                    ),
                    (DeviceKind.DRAM, 0.0, nbytes, 0, 0, 0.0),
                ),
                threads=threads,
            )
            return
        self.ctx.machine.access(
            DeviceKind.DISK,
            read_bytes=nbytes,
            threads=threads,
            cpu_ns=nbytes * costs.source_cpu_ns_per_byte / threads,
        )
        self.ctx.machine.access(
            DeviceKind.DRAM, write_bytes=nbytes, threads=threads
        )
