"""The four benchmark workloads.

Every workload runs in this process with ``jobs=1`` under the paper
configuration (64 GB heap, one third DRAM).  A *pass* is one fixed round
of the workload's ops; :meth:`Workload.run_pass` returns the host wall
of each op, every op's answers and simulated figures, and the pass's
simulated totals.  Inputs come from the seed only, through
:meth:`Workload.prepare`.

Seeded inputs keep the amount of work fixed, so figures from different
seeds stay comparable:

* graph inputs are seeded vertex relabelings of the paper-shaped graphs
  (TC's closure size, and with it about three quarters of a
  policy-matrix pass, swings by about 12% between generator seeds);
* point inputs (KM, LR, BC) are generated from the seed;
* the cluster plan has a fixed job mix whose order, Poisson arrival
  times (conditioned on 40 jobs over the horizon) and executor kills
  come from the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, List, Optional, Tuple

from repro.cluster import Cluster, ClusterFaultPlan, JobSpec, TrafficPlan
from repro.cluster import executor as cluster_executor
from repro.cluster.simulator import percentile
from repro.cluster.traffic import tenant_scale
from repro.config import DeviceKind, PolicyName
from repro.faults import action_checksums
from repro.harness import engine as harness_engine
from repro.harness import experiment
from repro.harness.configs import paper_config
from repro.spark.context import SparkContext
from repro.workloads import datasets, registry

HEAP_GB = 64
DRAM_RATIO = 1 / 3
ALL_PROGRAMS = ("PR", "KM", "LR", "TC", "CC", "SSSP", "BC")
GRAPH_DATASETS = {
    "PR": datasets.pagerank_graph,
    "CC": datasets.wiki_en_graph,
    "SSSP": datasets.wiki_en_graph,
    "TC": datasets.notre_dame_graph,
}
GiB = 1024**3

#: Simulated per-layer counts of one pass, with their units.
PER_LAYER_SIM = {
    "gc.sim_minor_gcs": "count",
    "gc.sim_major_gcs": "count",
    "gc.sim_card_scanned_gb": "GB",
    "memory.sim_dram_gb": "GB",
    "memory.sim_nvm_read_gb": "GB",
    "memory.sim_nvm_write_gb": "GB",
    "core.sim_migrated_rdds": "count",
    "core.sim_monitored_calls": "count",
    "spark.storage.sim_spilled_blocks": "count",
    "spark.storage.sim_dropped_blocks": "count",
    "cluster.sim_makespan_s": "sim_s",
    "cluster.sim_job_latency_p50_s": "sim_s",
    "cluster.sim_job_latency_p75_s": "sim_s",
    "cluster.sim_remote_fetch_mb": "MB",
    "cluster.sim_wait_mean_s": "sim_s",
}

#: A scope wrapped around each timed region (the traced run times
#: CPython's collector inside it).
Scope = Callable[[], ContextManager[None]]


def derive_seed(seed: int, label: str) -> int:
    """A stable 31-bit seed for one input, independent of hash seeding."""
    return random.Random(f"{seed}:{label}").randrange(2**31)


def relabeled(dataset: datasets.DatasetSpec, seed: int) -> datasets.DatasetSpec:
    """``dataset`` with its vertex ids permuted by a seeded shuffle."""
    n = 1 + max(max(edge) for edge in dataset.records)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return datasets.DatasetSpec(
        name=f"{dataset.name}-relabel{seed}",
        records=tuple((perm[src], perm[dst]) for src, dst in dataset.records),
        num_partitions=dataset.num_partitions,
        total_bytes=dataset.total_bytes,
    )


def program_inputs(program: str, scale: float, seed: int) -> Dict[str, object]:
    """Workload-builder arguments carrying one program's seeded input."""
    label = f"{program}@{scale}"
    if program in GRAPH_DATASETS:
        base = GRAPH_DATASETS[program](scale=scale)
        return {"dataset": relabeled(base, derive_seed(seed, label))}
    return {"seed": derive_seed(seed, label)}


@dataclass
class OpRecord:
    """One op's outcome.

    Attributes:
        key: names the op within a pass (stable across passes).
        group: ops whose answers must agree (same program and input,
            any policy, executor or injected kill).
        checksums: :func:`repro.faults.action_checksums` of its answers.
        sim: its exact simulated figures, compared across repeats.
    """

    key: str
    group: str
    checksums: Dict[str, str]
    sim: object

    @property
    def digest(self) -> str:
        """One digest over the per-action checksums (what ``golden.json``
        records)."""
        canonical = json.dumps(self.checksums, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class PassResult:
    """One pass: host walls, op outcomes and simulated totals.

    Attributes:
        wall_s: wall of the whole timed region.
        op_walls: each op's own wall, in a fixed op order.
        op_refs: for each op, the index of the reference job run just
            before it (see :class:`RefJobs`).
    """

    wall_s: float
    op_walls: List[float]
    op_refs: List[int]
    ops: List[OpRecord]
    sim: Dict[str, float]
    fig4: Optional[Tuple[float, float]] = None
    extra: Dict[str, float] = field(default_factory=dict)


def _sim_totals(elapsed_s: float, gc_s: float, energy_j: float) -> Dict[str, float]:
    return {"sim_elapsed_s": elapsed_s, "sim_gc_s": gc_s, "sim_energy_j": energy_j}


def _result_sim(result) -> Tuple:
    return (
        result.elapsed_s,
        result.gc_s,
        result.energy_j,
        result.minor_gcs,
        result.major_gcs,
        result.spilled_blocks,
        result.dropped_blocks,
    )


class ContextCapture:
    """Collects every SparkContext created while installed, so the
    traced run can read device and collector counters that results do
    not carry.  :attr:`counts` sums them per pass."""

    def __init__(self) -> None:
        self.contexts: List[SparkContext] = []
        self.counts: Dict[str, float] = {}
        self._raw = vars(SparkContext)["create"]

    def reset(self) -> None:
        """Forget every context and count."""
        self.contexts.clear()
        self.counts = {}

    def install(self) -> None:
        original = self._raw.__func__
        contexts = self.contexts

        def create(cls, *args, **kwargs):
            ctx = original(cls, *args, **kwargs)
            contexts.append(ctx)
            return ctx

        create.__wrapped__ = original
        SparkContext.create = classmethod(create)

    def drain(self) -> None:
        """Add the captured contexts' counters to :attr:`counts` and
        forget the contexts."""
        for ctx in self.contexts:
            stats = ctx.collector.stats
            devices = ctx.machine.devices
            dram = devices[DeviceKind.DRAM].counters
            nvm = devices[DeviceKind.NVM].counters if DeviceKind.NVM in devices else None
            counts = {
                "gc.sim_minor_gcs": stats.minor_count,
                "gc.sim_major_gcs": stats.major_count,
                "gc.sim_card_scanned_gb": stats.card_scanned_bytes / GiB,
                "memory.sim_dram_gb": (dram.read_bytes + dram.write_bytes) / GiB,
                "memory.sim_nvm_read_gb": nvm.read_bytes / GiB if nvm else 0.0,
                "memory.sim_nvm_write_gb": nvm.write_bytes / GiB if nvm else 0.0,
                "core.sim_migrated_rdds": stats.migrated_rdd_count,
                "core.sim_monitored_calls": ctx.monitor.total_calls if ctx.monitor else 0,
                "spark.storage.sim_spilled_blocks": ctx.block_manager.spilled_count,
                "spark.storage.sim_dropped_blocks": ctx.block_manager.dropped_count,
            }
            for name, value in counts.items():
                self.counts[name] = self.counts.get(name, 0) + value
        self.contexts.clear()


class RefJobs:
    """Runs a fixed reference job between ops, at most every ``every_s``.

    Each op notes the index of the last job before it, so its wall can
    be set against jobs run right before and after it.
    """

    def __init__(self, job: Callable[[], float], every_s: float) -> None:
        self.job = job
        self.every_s = every_s
        self.seconds: List[float] = []
        self._last = float("-inf")

    def tick(self) -> int:
        """Run the job if it is due; return the index of the latest run."""
        now = time.perf_counter()
        if now - self._last >= self.every_s:
            self.seconds.append(self.job())
            self._last = time.perf_counter()
        return len(self.seconds) - 1

    def finish(self) -> None:
        """Run the job once more, after the last op."""
        self.seconds.append(self.job())

    def around(self, index: int) -> float:
        """Mean of the two job runs before and the two after an op.

        One 30 ms run is itself noisy, and the job runs right before
        some small ops and not others; four runs span about a second,
        still shorter than the host's speed phases.
        """
        return statistics.mean(self.seconds[max(0, index - 1) : index + 3])


class Workload:
    """A named op list with seeded inputs."""

    name = ""
    ops_per_pass = 0

    def __init__(self) -> None:
        self.capture: Optional[ContextCapture] = None
        self.ref: Optional[RefJobs] = None

    def _tick(self) -> int:
        return self.ref.tick() if self.ref is not None else 0

    def prepare(self, seed: int) -> None:
        """Generate every input for ``seed`` (datasets, plans)."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run one untimed op of each kind."""
        raise NotImplementedError

    def run_pass(self, scope: Scope = contextlib.nullcontext) -> PassResult:
        """Run one pass; ``scope`` wraps each timed region."""
        raise NotImplementedError

    def probe(self) -> None:
        """One op, for the call-count self-test."""
        raise NotImplementedError

    def _drain(self) -> None:
        if self.capture is not None:
            self.capture.drain()


class ExperimentOps(Workload):
    """Alternating single-node experiments under Panthera."""

    programs: Tuple[str, ...] = ()
    scale = 1.0

    @property
    def ops_per_pass(self) -> int:
        return len(self.programs)

    def prepare(self, seed: int) -> None:
        datasets.clear_dataset_caches()
        self.config = paper_config(HEAP_GB, DRAM_RATIO, PolicyName.PANTHERA, self.scale)
        self.inputs = {p: program_inputs(p, self.scale, seed) for p in self.programs}
        for program in self.programs:
            registry.build_workload(program, scale=self.scale, **self.inputs[program])

    def _op(self, program: str):
        return experiment.run_experiment(
            program, self.config, self.scale, workload_kwargs=self.inputs[program]
        )

    def warm_up(self) -> None:
        for program in self.programs:
            self._op(program)

    def probe(self) -> None:
        self._op(self.programs[0])

    def run_pass(self, scope: Scope = contextlib.nullcontext) -> PassResult:
        walls: List[float] = []
        refs: List[int] = []
        results = []
        for program in self.programs:
            refs.append(self._tick())
            with scope():
                start = time.perf_counter()
                result = self._op(program)
                walls.append(time.perf_counter() - start)
            self._drain()
            results.append(result)
        ops = [
            OpRecord(r.workload, r.workload, action_checksums(r.action_results), _result_sim(r))
            for r in results
        ]
        return PassResult(
            wall_s=sum(walls),
            op_walls=walls,
            op_refs=refs,
            ops=ops,
            sim=_sim_totals(
                sum(r.elapsed_s for r in results),
                sum(r.gc_s for r in results),
                sum(r.energy_j for r in results),
            ),
        )


class GraphOps(ExperimentOps):
    name = "graph"
    programs = ("PR", "CC")
    scale = 2.0


class NumericOps(ExperimentOps):
    name = "numeric"
    programs = ("KM", "LR")
    scale = 1.0


def read_fig4_paper() -> Dict[str, Tuple[float, ...]]:
    """Figure 4's bar values from ``benchmarks/test_fig4.py`` (parsed, not
    imported: importing it needs pytest)."""
    import ast
    import pathlib

    path = pathlib.Path(experiment.__file__).resolve().parents[3] / "benchmarks" / "test_fig4.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PAPER" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"no PAPER table in {path}")


class PolicyMatrix(Workload):
    """The Figure 4 matrix through the experiment engine, uncached."""

    name = "policy-matrix"
    scale = 0.1
    policies = (PolicyName.DRAM_ONLY, PolicyName.UNMANAGED, PolicyName.PANTHERA)
    ops_per_pass = len(ALL_PROGRAMS) * len(policies)

    def __init__(self) -> None:
        super().__init__()
        self.paper = read_fig4_paper()

    def prepare(self, seed: int) -> None:
        datasets.clear_dataset_caches()
        inputs = {p: program_inputs(p, self.scale, seed) for p in ALL_PROGRAMS}
        # The same points run_matrix builds, plus each program's input.
        self.points = [
            harness_engine.ExperimentPoint(
                program,
                paper_config(HEAP_GB, DRAM_RATIO, policy, self.scale),
                self.scale,
                workload_kwargs=inputs[program],
            )
            for program in ALL_PROGRAMS
            for policy in self.policies
        ]
        for program in ALL_PROGRAMS:
            registry.build_workload(program, scale=self.scale, **inputs[program])

    def _run(self, points, on_event=None):
        engine = harness_engine.ExperimentEngine(jobs=1, cache_dir=None, on_event=on_event)
        return engine.run(points)

    def warm_up(self) -> None:
        self._run([p for p in self.points if p.config.policy is PolicyName.PANTHERA])

    def probe(self) -> None:
        self._run(self.points[-1:])

    def run_pass(self, scope: Scope = contextlib.nullcontext) -> PassResult:
        walls: List[float] = []
        refs: List[int] = []

        def on_event(event) -> None:
            if event.kind == "start":
                refs.append(self._tick())
            elif event.kind == "done":
                walls.append(event.seconds)
                self._drain()

        with scope():
            start = time.perf_counter()
            results = self._run(self.points, on_event)
            wall = time.perf_counter() - start
        ops = [
            OpRecord(
                f"{r.workload}@{r.policy.value}",
                r.workload,
                action_checksums(r.action_results),
                _result_sim(r),
            )
            for r in results
        ]
        return PassResult(
            wall_s=wall,
            op_walls=walls,
            op_refs=refs,
            ops=ops,
            sim=_sim_totals(
                sum(r.elapsed_s for r in results),
                sum(r.gc_s for r in results),
                sum(r.energy_j for r in results),
            ),
            fig4=self._fig4(results),
        )

    def _fig4(self, results) -> Tuple[float, float]:
        """Mean absolute error of the normalised bars against the paper."""
        by_cell = {(r.workload, r.policy): r for r in results}
        time_err: List[float] = []
        energy_err: List[float] = []
        for program in ALL_PROGRAMS:
            base = by_cell[(program, PolicyName.DRAM_ONLY)]
            unmanaged = by_cell[(program, PolicyName.UNMANAGED)]
            panthera = by_cell[(program, PolicyName.PANTHERA)]
            paper = self.paper[program]
            time_err += [
                abs(unmanaged.elapsed_s / base.elapsed_s - paper[0]),
                abs(panthera.elapsed_s / base.elapsed_s - paper[1]),
            ]
            energy_err += [
                abs(unmanaged.energy_j / base.energy_j - paper[2]),
                abs(panthera.energy_j / base.energy_j - paper[3]),
            ]
        return sum(time_err) / len(time_err), sum(energy_err) / len(energy_err)


class ClusterMix(Workload):
    """A seeded multi-tenant plan replayed on two executors with kills."""

    name = "cluster-mix"
    jobs = ops_per_pass = 40
    rate_jobs_per_s = 0.03
    base_scale = 0.02
    tenants = 4
    executors = 2
    kills = 3

    def prepare(self, seed: int) -> None:
        rng = random.Random(f"{seed}:cluster-mix")
        # A fixed job sequence: program i % 7 for tenant i % 4, so every
        # (program, tenant) pair appears.  Drawing the mix or its order
        # from the seed swung the host wall (TC's share) and peak RSS
        # (which jobs follow which on an executor) by 15-25%.
        mix = [(ALL_PROGRAMS[i % 7], i % self.tenants) for i in range(self.jobs)]
        horizon = self.jobs / self.rate_jobs_per_s
        arrivals = sorted(rng.uniform(0.0, horizon) for _ in range(self.jobs))
        self.plan = TrafficPlan(
            jobs=tuple(
                JobSpec(i, arrivals[i], tenant, program, tenant_scale(tenant, self.base_scale))
                for i, (program, tenant) in enumerate(mix)
            ),
            seed=seed,
            process="poisson",
            rate_jobs_per_s=self.rate_jobs_per_s,
            duration_s=horizon,
            tenants=self.tenants,
            base_scale=self.base_scale,
        )
        self.faults = ClusterFaultPlan.random(
            derive_seed(seed, "cluster-kills"),
            executors=self.executors,
            max_boundary=4,
            kills=self.kills,
            jobs=self.jobs,
        )
        self.warm_plan = TrafficPlan(
            jobs=tuple(
                JobSpec(i, 0.0, 0, program, self.base_scale)
                for i, program in enumerate(ALL_PROGRAMS)
            ),
            seed=seed,
            tenants=1,
            base_scale=self.base_scale,
        )

    def warm_up(self) -> None:
        Cluster(self.executors).run(self.warm_plan)

    def probe(self) -> None:
        first = TrafficPlan(jobs=self.plan.jobs[:8], base_scale=self.base_scale)
        kills = [k for k in self.faults.kills if k.job_id is not None and k.job_id < 8]
        Cluster(self.executors).run(first, ClusterFaultPlan(kills=kills))

    def run_pass(self, scope: Scope = contextlib.nullcontext) -> PassResult:
        walls: Dict[int, float] = {}
        refs: Dict[int, int] = {}
        run_job = vars(cluster_executor.Executor)["run_job"]

        def timed(executor, job, *args, **kwargs):
            refs[job.job_id] = self._tick()
            start = time.perf_counter()
            try:
                return run_job(executor, job, *args, **kwargs)
            finally:
                walls[job.job_id] = time.perf_counter() - start

        cluster_executor.Executor.run_job = timed
        try:
            with scope():
                start = time.perf_counter()
                report, _ = Cluster(self.executors).run(self.plan, self.faults)
                wall = time.perf_counter() - start
        finally:
            cluster_executor.Executor.run_job = run_job
        self._drain()
        ops = [
            OpRecord(
                f"job{job.job_id}",
                f"{job.workload}@{job.scale}",
                job.checksums,
                job.to_dict(),
            )
            for job in report.jobs
        ]
        faults = report.faults
        lost = faults["partitions_lost"] + faults["blocks_lost"]
        latencies = [job.latency_s for job in report.jobs]
        return PassResult(
            wall_s=wall,
            op_walls=[walls[job.job_id] for job in report.jobs],
            op_refs=[refs[job.job_id] for job in report.jobs],
            ops=ops,
            # Executor busy time: the makespan is set mostly by the
            # arrival horizon, not by how fast the executors work.
            sim=_sim_totals(
                sum(job.exec_s for job in report.jobs), report.gc_s, report.energy_j
            ),
            extra={
                "cluster.sim_makespan_s": report.makespan_s,
                "cluster.sim_job_latency_p50_s": percentile(latencies, 50.0),
                "cluster.sim_job_latency_p75_s": percentile(latencies, 75.0),
                "cluster.sim_remote_fetch_mb": report.service["remote_bytes"] / 1024**2,
                "cluster.sim_wait_mean_s": report.wait_mean_s,
                "cluster.recomputed_per_lost": (
                    faults["partitions_recomputed"] / lost if lost else 0.0
                ),
            },
        )


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    cls.name: cls for cls in (GraphOps, NumericOps, PolicyMatrix, ClusterMix)
}
