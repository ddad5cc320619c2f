"""Repository benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload graph --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (host time measured with no
instrumentation, plus the exact simulated totals); ``--trace 1`` runs
the same workload with every layer's entry points wrapped and prints the
per-layer split.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the metrics and why each workload is
here.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import pathlib
import resource
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The seed whose answers ``golden.json`` pins.
DEFAULT_SEED = 1
#: Set-up repetitions; ``setup_s`` reports their median.
SETUP_REPEATS = 3
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden.json"
#: Table inserts in one run of the reference job (about 30 ms).
REF_JOB_N = 30_000
#: Seconds between reference jobs during the timed loop.
REF_EVERY_S = 0.25


def ref_job_s() -> float:
    """Time the reference job: a fixed pure-Python loop of dict inserts,
    a sort and a sum, with CPython's collector paused so that no
    collector setting of the program under test can move it.

    It runs between ops.  Host times divided by it (the ``*_ref``
    metrics) cancel the host's speed phases, which the job feels the
    way the simulator does.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(REF_JOB_N):
            table[(i * 7919) % 100_003] = (i, float(i))
        sum(value for _, (_, value) in sorted(table.items()))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def trimmed_mean(values) -> float:
    """Mean after dropping the lowest and highest tenth of the samples
    (one from each end for three to nineteen samples, so up to four
    samples this is the median).

    The host switches between two speeds for seconds at a time.  A
    median then jumps from one speed to the other as their shares of a
    run cross one half; a trimmed mean moves in proportion and still
    drops stray slow samples.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    cut = max(1, len(ordered) // 10) if len(ordered) >= 3 else 0
    return statistics.mean(ordered[cut : len(ordered) - cut])


class Checker:
    """Counts attempted and failed ops and remembers what failed.

    An op fails when it raises, when its answers differ from another op
    of its group (other policy, executor, kill or repeat), when its
    simulated figures differ from the same op in an earlier pass, or,
    for the default seed, when its answers differ from ``golden.json``.
    """

    def __init__(self, golden) -> None:
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.group_sums = {}
        self.first_sim = {}
        self.digests = {}

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)

    def check(self, result) -> None:
        self.attempted += len(result.ops)
        for op in result.ops:
            problems = []
            expected = self.group_sums.setdefault(op.group, op.checksums)
            if op.checksums != expected:
                problems.append(f"answers differ within group {op.group}")
            first = self.first_sim.setdefault(op.key, op.sim)
            if op.sim != first:
                problems.append("simulated figures differ from an earlier pass")
            self.digests[op.key] = op.digest
            if self.golden is not None and self.golden.get(op.key) != op.digest:
                problems.append("answers differ from golden.json")
            if problems:
                self.fail(1, f"{op.key}: " + "; ".join(problems))


def run(args) -> int:
    started = time.perf_counter()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    import_start = time.perf_counter()
    from perfbench import layers, workloads
    from repro.cluster.simulator import percentile

    import_s = time.perf_counter() - import_start

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.prepare(args.seed)
        workload.warm_up()
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    golden_all = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    checked = args.seed == DEFAULT_SEED and not args.write_golden
    checker = Checker(golden_all.get(workload.name, {}) if checked else None)

    untraced, traced, split = [], [], []
    tracer = capture = None
    if args.trace:
        capture = workloads.ContextCapture()
        capture.install()
        workload.capture = capture
        tracer = layers.Tracer(layers.resolve_boundaries())
        mismatches = layers.cprofile_mismatches(tracer, workload.probe)
        for line in mismatches:
            checker.problems.append(f"call count: {line}")

    def one_pass(trace_it: bool):
        if capture is not None:
            capture.reset()
        scope = contextlib.nullcontext
        if trace_it:
            tracer.reset()
            tracer.install()
            scope = tracer.timing_collector
        try:
            result = workload.run_pass(scope)
        except Exception as exc:  # an op that raises is a failed op
            checker.attempted += workload.ops_per_pass
            checker.fail(workload.ops_per_pass, f"pass raised {exc!r}")
            return None
        finally:
            if trace_it:
                tracer.uninstall()
        if capture is not None:
            result.extra.update(capture.counts)
        checker.check(result)
        if trace_it:
            split.append(tracer.snapshot(result.wall_s))
        return result

    # Untraced runs set every op against reference jobs run between ops;
    # traced runs only time the job before and after, to keep it out of
    # the layer split.
    ref = workloads.RefJobs(ref_job_s, REF_EVERY_S)
    if args.trace:
        ref.finish()
    else:
        workload.ref = ref
    loop_start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        if args.trace:
            # Alternate untraced and traced passes so the overhead
            # ratio compares neighbours.
            untraced.append(one_pass(False))
            traced.append(one_pass(True))
        else:
            untraced.append(one_pass(False))
        spent = time.perf_counter() - loop_start
        if spent + (time.perf_counter() - pass_start) > args.seconds:
            break
    ref.finish()

    if args.write_golden:
        golden_all[workload.name] = checker.digests
        GOLDEN.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n")

    for a, b in zip(untraced, traced):
        if a is not None and b is not None and (a.sim, a.fig4, a.extra) != (b.sim, b.fig4, b.extra):
            checker.problems.append("simulated figures differ between traced and untraced passes")
    good = [r for r in untraced if r is not None]
    if not good:
        print("no pass completed", file=sys.stderr)
        for line in checker.problems:
            print(f"  {line}", file=sys.stderr)
        return 1

    # Every pass runs the same ops in the same order: take each op's
    # trimmed mean over passes, then percentiles over ops.  Pooling
    # instead puts p50 of a two-op pass on the slowest sample of the
    # faster op.
    def host_metrics(op_walls):
        per_pass = [op_walls(r) for r in good]
        per_op = [trimmed_mean(walls) for walls in zip(*per_pass)]
        return (
            trimmed_mean([sum(walls) for walls in per_pass]),
            percentile(per_op, 50.0),
            percentile(per_op, 75.0),
        )

    host = dict(zip(("wall_s", "op_wall_p50_s", "op_wall_p75_s"), host_metrics(lambda r: r.op_walls)))
    if not args.trace:
        host.update(
            zip(
                ("wall_ref", "op_wall_p50_ref", "op_wall_p75_ref"),
                host_metrics(
                    lambda r: [w / ref.around(i) for w, i in zip(r.op_walls, r.op_refs)]
                ),
            )
        )
    walls = sorted(sum(r.op_walls) for r in good)
    first = good[0]
    print(f"workload {workload.name} seed {args.seed}: {len(good)} passes")
    print(f"set-up: import {import_s:.3f}s + median of {[round(s, 3) for s in setups]}")
    print(
        f"pass wall (sum of op walls): min {walls[0]:.4f}s, median {statistics.median(walls):.4f}s, "
        f"max {walls[-1]:.4f}s; trimmed mean {host['wall_s']:.4f}s"
    )
    print(
        f"op wall: p50 {host['op_wall_p50_s']:.4f}s p75 {host['op_wall_p75_s']:.4f}s "
        f"(nearest rank over {len(first.op_walls)} ops, each a trimmed mean of "
        f"{len(good)} passes)"
    )
    print(
        f"reference job: min {min(ref.seconds):.4f}s, median {statistics.median(ref.seconds):.4f}s, "
        f"max {max(ref.seconds):.4f}s over {len(ref.seconds)} runs"
    )

    if args.trace:
        metrics = per_layer_metrics(workload, first, good, traced, split, checker)
        metrics["host.ref_job_s"] = (trimmed_mean(ref.seconds), "s")
        for name in ("wall_s", "op_wall_p50_s", "op_wall_p75_s"):
            metrics[f"host.{name}"] = (host[name], "s")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_ref": (host["wall_ref"], "ref"),
            "op_wall_p50_ref": (host["op_wall_p50_ref"], "ref"),
            "op_wall_p75_ref": (host["op_wall_p75_ref"], "ref"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        for name, value in first.sim.items():
            metrics[name] = (value, "J" if name == "sim_energy_j" else "sim_s")
    for line in checker.problems:
        print(f"problem: {line}", file=sys.stderr)
    correct = checker.failed == 0 and not checker.problems
    print(f"total {time.perf_counter() - started:.1f}s")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def per_layer_metrics(workload, first, good, traced, split, checker):
    """The traced run's metrics: each layer's self time, share and calls
    per op, the simulated per-layer counts, and the self-test results."""
    from perfbench import layers, workloads

    metrics = {}
    ops = workload.ops_per_pass
    wall_total = sum(s["wall"] for s in split)
    for layer in layers.REPORTED:
        per_op = [s["self"][layer] / ops for s in split]
        metrics[f"{layer}.self_s"] = (trimmed_mean(per_op), "s")
        metrics[f"{layer}.share"] = (
            sum(s["self"][layer] for s in split) / wall_total if wall_total else 0.0,
            "ratio",
        )
        if layer != layers.OTHER:
            metrics[f"{layer}.calls"] = (trimmed_mean([s["calls"][layer] / ops for s in split]), "count")
    metrics["pygc.gen2_collections"] = (trimmed_mean([s["gen2"] / ops for s in split]), "count")
    metrics["workloads.dataset_cache_hit_ratio"] = (
        trimmed_mean([s["dataset_hit_ratio"] for s in split]),
        "ratio",
    )
    for s in split:
        # Self times plus `other` must give the op wall, and `other`
        # must not go negative: spans may not outlast the ops they time.
        total = sum(s["self"].values())
        if abs(total - s["wall"]) > 0.05 * s["wall"] or s["self"][layers.OTHER] < -0.05 * s["wall"]:
            checker.problems.append(
                f"layer split sums to {total:.4f}s with other "
                f"{s['self'][layers.OTHER]:.4f}s, op wall {s['wall']:.4f}s"
            )
    for name, unit in workloads.PER_LAYER_SIM.items():
        metrics[name] = (first.extra.get(name, 0.0), unit)
    metrics["cluster.recomputed_per_lost"] = (
        first.extra.get("cluster.recomputed_per_lost", 0.0),
        "ratio",
    )
    fig4 = first.fig4 or (0.0, 0.0)
    metrics["fig4_time_mae"] = (fig4[0], "ratio")
    metrics["fig4_energy_mae"] = (fig4[1], "ratio")
    untraced_walls = [r.wall_s for r in good]
    traced_walls = [r.wall_s for r in traced if r is not None]
    metrics["bench.trace_overhead_ratio"] = (
        trimmed_mean(traced_walls) / trimmed_mean(untraced_walls) if traced_walls else 0.0,
        "ratio",
    )
    metrics["op_fail_ratio"] = (checker.failed / max(1, checker.attempted), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-golden",
        action="store_true",
        help="record this run's answer digests in golden.json (default seed only)",
    )
    args = parser.parse_args(argv)
    if args.write_golden and args.seed != DEFAULT_SEED:
        parser.error(f"--write-golden needs --seed {DEFAULT_SEED}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
