"""Harness tests: experiment runner, configurations and reports."""

import gc
import weakref

import pytest

from repro.config import PolicyName
from repro.harness.configs import (
    fig2c_configs,
    fig4_configs,
    grid_configs,
    paper_config,
    write_rationing_configs,
)
from repro.harness.experiment import run_experiment
from repro.harness.report import (
    format_markdown_table,
    gc_breakdown,
    normalize_results,
    summarize,
)

SCALE = 0.03


def quick_run(workload="PR", policy=PolicyName.PANTHERA, **kwargs):
    config = paper_config(64, 1 / 3, policy, SCALE)
    return run_experiment(
        workload,
        config,
        scale=SCALE,
        workload_kwargs=kwargs or {"iterations": 3},
    )


class TestRunExperiment:
    def test_result_fields_populated(self):
        result = quick_run()
        assert result.workload == "PR"
        assert result.policy is PolicyName.PANTHERA
        assert result.elapsed_s > 0
        assert result.energy_j > 0
        assert result.gc_s >= 0
        assert result.mutator_s == pytest.approx(result.elapsed_s - result.gc_s)
        assert result.minor_gcs > 0

    def test_panthera_carries_analysis(self):
        result = quick_run()
        assert result.analysis is not None
        assert result.analysis.tags

    def test_non_panthera_has_no_analysis(self):
        result = quick_run(policy=PolicyName.DRAM_ONLY)
        assert result.analysis is None
        assert result.monitored_calls == 0

    def test_keep_context(self):
        config = paper_config(64, 1 / 3, PolicyName.PANTHERA, SCALE)
        result = run_experiment(
            "PR",
            config,
            scale=SCALE,
            workload_kwargs={"iterations": 2},
            keep_context=True,
        )
        assert result.context is not None
        assert result.context.machine.elapsed_s == pytest.approx(result.elapsed_s)

    @pytest.mark.parametrize(
        "workload,policy,traced_faulted",
        [
            ("PR", PolicyName.PANTHERA, False),
            ("CC", PolicyName.PANTHERA, True),
            ("KM", PolicyName.DECA, False),
            ("TC", PolicyName.UNMANAGED, True),
        ],
    )
    def test_finished_context_dies_by_refcount(
        self, monkeypatch, workload, policy, traced_faulted
    ):
        """Without keep_context a run's context (and with it every block,
        shuffle file and simulated heap object) is freed when
        run_experiment returns, with CPython's cyclic collector off."""
        from repro.faults import FaultPlan, KillSpec
        from repro.spark.context import SparkContext

        created = []
        create = SparkContext.create.__func__

        def recording_create(cls, *args, **kwargs):
            ctx = create(cls, *args, **kwargs)
            created.append(weakref.ref(ctx))
            return ctx

        monkeypatch.setattr(SparkContext, "create", classmethod(recording_create))
        config = paper_config(64, 1 / 3, policy, SCALE)
        plan = FaultPlan(kills=[KillSpec("shuffle", 1, 0)], seed=7)
        gc.collect()
        gc.disable()
        try:
            run_experiment(
                workload,
                config,
                scale=SCALE,
                trace=traced_faulted,
                faults=plan if traced_faulted else None,
            )
            assert len(created) == 1
            assert created[0]() is None
        finally:
            gc.enable()

    def test_energy_by_device_structure(self):
        result = quick_run()
        assert "dram" in result.energy_by_device
        assert "nvm" in result.energy_by_device
        assert result.energy_by_device["dram"]["static_j"] > 0

    def test_deterministic(self):
        a = quick_run()
        b = quick_run()
        assert a.elapsed_s == pytest.approx(b.elapsed_s)
        assert a.energy_j == pytest.approx(b.energy_j)
        assert a.minor_gcs == b.minor_gcs


class TestConfigs:
    def test_fig4_has_three_policies(self):
        configs = fig4_configs(SCALE)
        assert set(configs) == {"dram-only", "unmanaged", "panthera"}

    def test_fig2c_has_four_points(self):
        assert len(fig2c_configs(SCALE)) == 4

    def test_grid_covers_heaps_and_ratios(self):
        configs = grid_configs(SCALE)
        assert len(configs) == 2 + 2 * 2 * 2  # 2 baselines + 2x2x2 grid
        assert "64gb-third-panthera" in configs
        assert "120gb-quarter-unmanaged" in configs

    def test_write_rationing_set(self):
        configs = write_rationing_configs(SCALE)
        assert "kingsguard-nursery" in configs
        assert "kingsguard-writes" in configs

    def test_scale_shrinks_heap(self):
        big = paper_config(64, 1 / 3, PolicyName.PANTHERA, 1.0)
        small = paper_config(64, 1 / 3, PolicyName.PANTHERA, 0.1)
        assert small.heap_bytes == pytest.approx(big.heap_bytes * 0.1, rel=0.01)

    def test_scale_sets_static_energy_factor(self):
        cfg = paper_config(64, 1 / 3, PolicyName.PANTHERA, 0.1)
        assert cfg.static_energy_factor == pytest.approx(10.0)


class TestReports:
    def make_results(self):
        return {
            "dram-only": quick_run(policy=PolicyName.DRAM_ONLY),
            "panthera": quick_run(policy=PolicyName.PANTHERA),
        }

    def test_normalize_baseline_is_one(self):
        results = self.make_results()
        normalized = normalize_results(results, "dram-only")
        assert normalized["dram-only"]["time"] == pytest.approx(1.0)
        assert normalized["dram-only"]["energy"] == pytest.approx(1.0)

    def test_normalize_missing_baseline_rejected(self):
        with pytest.raises(KeyError):
            normalize_results({}, "nope")

    def test_gc_breakdown_fields(self):
        results = self.make_results()
        breakdown = gc_breakdown(results)
        for row in breakdown.values():
            assert row["computation_s"] > 0
            assert row["gc_s"] >= 0

    def test_markdown_table_renders(self):
        table = format_markdown_table(
            ["a", "b"], [["x", 1.23456], ["y", 2]]
        )
        assert "| a | b |" in table
        assert "1.235" in table

    def test_summarize_mentions_workload(self):
        line = summarize(quick_run())
        assert "PR" in line and "panthera" in line
