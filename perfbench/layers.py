"""Per-layer wall-time attribution, wrapped from outside the program.

Each layer of the simulator is named after its modules and listed with
the public entry points the benchmark wraps.  A wrapper opens a span on
entry and closes it on exit; a span's *self time* is its duration minus
the spans it encloses, so every traced second lands in exactly one
layer, and the op wall no span covers is ``other``.  CPython's cyclic
collector is the ``pygc`` layer: a ``gc.callbacks`` span that is a child
of whatever span it interrupts.

Wrappers go on class attributes, and module functions are rebound under
every name a ``repro`` module imported them as, so call sites resolve
the wrapper at call time.  :func:`cprofile_mismatches` checks that claim
against cProfile: an alias bound before installation (a bound method
cached on an instance, say) would show as a call count the wrapper
missed.
"""

from __future__ import annotations

import cProfile
import contextlib
import fnmatch
import gc
import importlib
import pstats
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> wrapped entry points, as ``module:Class.attr`` or
#: ``module:function``.  ``Class`` and ``attr`` may be fnmatch patterns;
#: a pattern matches only callables a class defines itself, never
#: inherited ones, properties or private names.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "spark.dataplane": (
        "repro.spark.rdd:*RDD.compute_partition",
        "repro.spark.partition:HashPartitioner.bucket_into",
        "repro.spark.partition:HashPartitioner.partition_of",
        "repro.spark.columnar:apply_map_batch",
        "repro.spark.columnar:apply_reduce_kernel",
        "repro.spark.columnar:split_batch",
        "repro.spark.columnar:ColumnBatch.from_records",
    ),
    "spark.scheduler": (
        "repro.spark.scheduler:Scheduler.run_action",
        "repro.spark.scheduler:Scheduler.run_take",
        "repro.spark.scheduler:Scheduler.get_records",
        "repro.spark.scheduler:Scheduler.fetch_shuffle",
        "repro.spark.scheduler:Scheduler.charge_*",
        "repro.spark.shuffle:ShuffleManager.write",
        "repro.spark.shuffle:ShuffleManager.read",
        "repro.spark.materialize:Materializer.materialize",
    ),
    "spark.storage": (
        "repro.spark.block_manager:BlockManager.put",
        "repro.spark.block_manager:BlockManager.get",
        "repro.spark.block_manager:BlockManager.unpersist",
        "repro.spark.block_manager:BlockManager.ensure_capacity",
        "repro.spark.block_manager:BlockManager.kill",
        "repro.spark.block_manager:BlockManager.evict_region_victim",
    ),
    "heap": (
        "repro.heap.managed_heap:ManagedHeap.allocate_*",
        "repro.heap.managed_heap:ManagedHeap.new_object",
        "repro.heap.managed_heap:ManagedHeap.write_ref",
        "repro.heap.managed_heap:ManagedHeap.write_data",
        "repro.heap.regions:RegionManager.*",
    ),
    "gc": (
        "repro.gc.collector:Collector.collect_minor",
        "repro.gc.collector:Collector.collect_major",
        "repro.gc.charging:ChargeAccumulator.visit_all",
        "repro.gc.charging:ChargeAccumulator.flush",
    ),
    "memory": (
        "repro.memory.machine:Machine.run_batch",
        "repro.memory.machine:Machine.run_rows",
        "repro.memory.machine:Machine.access",
        "repro.memory.machine:Machine.transfer",
        "repro.memory.bandwidth:BandwidthTracker.record",
    ),
    "core": (
        "repro.core.static_analysis:analyze_program",
        "repro.core.static_analysis:classify_lifetimes",
        "repro.core.lineage_propagation:propagate_tags",
        "repro.core.monitor:AccessMonitor.record_call",
        "repro.core.runtime_api:PantheraRuntime.rdd_alloc",
        "repro.core.runtime_api:PantheraRuntime.place_array",
    ),
    "workloads": ("repro.workloads.registry:build_workload",),
    "harness": (
        "repro.harness.engine:ExperimentEngine.run",
        "repro.harness.experiment:run_experiment",
        "repro.spark.context:SparkContext.create",
    ),
    "cluster": (
        "repro.cluster.simulator:Cluster.run",
        "repro.cluster.executor:Executor.run_job",
        "repro.cluster.executor:ClusterBinding.*_boundary",
        "repro.cluster.executor:ClusterBinding.shuffle_fetch",
    ),
}

#: CPython's cyclic collector, timed through ``gc.callbacks``.
PYGC = "pygc"
#: Op wall that no span covers.
OTHER = "other"
#: Every layer a split reports, in report order.
REPORTED = tuple(LAYERS) + (PYGC, OTHER)


@dataclass
class Boundary:
    """One wrapped entry point and where it is installed."""

    layer: str
    label: str
    owner: object
    attr: str
    raw: object  # the attribute as found: function, classmethod, ...
    func: Callable  # the plain function behind it

    @property
    def profile_key(self) -> Tuple[str, int, str]:
        """The key cProfile files this function's calls under (that of
        the program's own function, behind any benchmark wrapper)."""
        code = getattr(self.func, "__wrapped__", self.func).__code__
        return (code.co_filename, code.co_firstlineno, code.co_name)


def _plain(raw) -> Optional[Callable]:
    if isinstance(raw, (classmethod, staticmethod)):
        return raw.__func__
    if callable(raw) and hasattr(raw, "__code__"):
        return raw
    return None


def _rewrap(raw, wrapper):
    if isinstance(raw, classmethod):
        return classmethod(wrapper)
    if isinstance(raw, staticmethod):
        return staticmethod(wrapper)
    return wrapper


def resolve_boundaries() -> List[Boundary]:
    """Expand :data:`LAYERS` into concrete boundaries.

    Raises ``LookupError`` when a pattern matches nothing, so a renamed
    entry point fails the traced run instead of silently dropping out of
    the split.
    """
    found: List[Boundary] = []
    for layer, specs in LAYERS.items():
        for spec in specs:
            module_name, path = spec.split(":")
            module = importlib.import_module(module_name)
            before = len(found)
            if "." not in path:
                func = getattr(module, path)
                found.append(Boundary(layer, f"{module_name}.{path}", module, path, func, func))
            else:
                cls_pat, attr_pat = path.split(".")
                for cls_name, cls in sorted(vars(module).items()):
                    if not (isinstance(cls, type) and fnmatch.fnmatchcase(cls_name, cls_pat)):
                        continue
                    if cls.__module__ != module_name:
                        continue
                    for attr, raw in sorted(vars(cls).items()):
                        func = _plain(raw)
                        if (
                            func is None
                            or attr.startswith("_")
                            or not fnmatch.fnmatchcase(attr, attr_pat)
                        ):
                            continue
                        found.append(
                            Boundary(layer, f"{cls_name}.{attr}", cls, attr, raw, func)
                        )
            if len(found) == before:
                raise LookupError(f"layer {layer}: {spec} matches no entry point")
    return found


class Tracer:
    """Span accounting over the wrapped boundaries.

    Attributes:
        self_s: per-layer self seconds (including ``pygc``).
        calls: per-boundary call counts, keyed by label.
        covered_s: summed duration of top-level spans (the op wall that
            some layer accounts for).
        collections / gen2_collections: CPython collections seen.
    """

    def __init__(self, boundaries: List[Boundary]) -> None:
        self.boundaries = boundaries
        self._stack: List[List[float]] = []
        self._gc_frames: List[Tuple[List[float], float]] = []
        self._installed: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Zero every accumulator."""
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in tuple(LAYERS) + (PYGC,)}
        self.calls: Dict[str, int] = {b.label: 0 for b in self.boundaries}
        self.covered_s = 0.0
        self.collections = 0
        self.gen2_collections = 0
        self._cache_before = _dataset_cache_totals()

    def snapshot(self, wall_s: float) -> Dict[str, object]:
        """The split of ``wall_s`` (the op wall timed since :meth:`reset`)."""
        self_s = dict(self.self_s)
        self_s[OTHER] = wall_s - self.covered_s
        calls = {layer: 0 for layer in LAYERS}
        for boundary in self.boundaries:
            calls[boundary.layer] += self.calls[boundary.label]
        calls[PYGC] = self.collections
        hits, misses = (
            after - before
            for after, before in zip(_dataset_cache_totals(), self._cache_before)
        )
        return {
            "wall": wall_s,
            "self": self_s,
            "calls": calls,
            "gen2": self.gen2_collections,
            "dataset_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        }

    def _close(self, frame: List[float], start: float, layer: str) -> None:
        dur = time.perf_counter() - start
        self.self_s[layer] += dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur
        else:
            self.covered_s += dur

    def _wrapper(self, boundary: Boundary) -> Callable:
        func, layer, label = boundary.func, boundary.layer, boundary.label
        stack, calls, clock, close = self._stack, self.calls, time.perf_counter, self._close

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                calls[label] += 1
                close(frame, start, layer)

        traced.__wrapped__ = func
        return traced

    def _on_gc(self, phase: str, info: Dict) -> None:
        if phase == "start":
            frame = [0.0]
            self._stack.append(frame)
            self._gc_frames.append((frame, time.perf_counter()))
            return
        frame, start = self._gc_frames.pop()
        self._stack.pop()
        self.collections += 1
        if info.get("generation") == 2:
            self.gen2_collections += 1
        self._close(frame, start, PYGC)

    @contextlib.contextmanager
    def timing_collector(self):
        """Time CPython's collector as the ``pygc`` layer inside the block."""
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    def install(self) -> None:
        """Wrap every boundary."""
        for boundary in self.boundaries:
            wrapped = self._wrapper(boundary)
            if isinstance(boundary.owner, type):
                self._set(boundary.owner, boundary.attr, _rewrap(boundary.raw, wrapped))
                continue
            # A module function: rebind it under every name a repro
            # module (or this benchmark) imported it as.
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "") or ""
                if not (name == "repro" or name.startswith(("repro.", "perfbench"))):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is boundary.func:
                        self._set(module, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every original attribute."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def _dataset_cache_totals() -> Tuple[int, int]:
    from repro.workloads.datasets import dataset_cache_info

    info = dataset_cache_info().values()
    return sum(h for h, _ in info), sum(m for _, m in info)


def cprofile_calls(boundaries: List[Boundary], op: Callable[[], object]) -> Dict[str, int]:
    """Per-boundary call counts cProfile sees for one run of ``op``."""
    profile = cProfile.Profile()
    profile.runcall(op)
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    return {b.label: stats.get(b.profile_key, (0, 0))[1] for b in boundaries}


def cprofile_mismatches(
    tracer: Tracer, op: Callable[[], object]
) -> List[str]:
    """Compare the wrappers' call counts on one op with cProfile's.

    Runs ``op`` once untraced under cProfile and once traced, and
    returns a line per boundary whose counts differ.
    """
    expected = cprofile_calls(tracer.boundaries, op)
    tracer.reset()
    tracer.install()
    try:
        op()
    finally:
        tracer.uninstall()
    return [
        f"{label}: traced {tracer.calls[label]} calls, cProfile {count}"
        for label, count in expected.items()
        if tracer.calls[label] != count
    ]
