"""Tests for the columnar graph plane: PageRank and Pregel CC/SSSP in
CSR batch form.

Covers A/B byte-identity of traced and fault-injected PR, CC and SSSP
cells with ``COLUMNAR_DATA_PLANE`` forced either way (elapsed repr,
gclog, trace stream, bandwidth CSV, fault report and answers), a
hypothesis property over random graphs (duplicate edges, self-loops,
vertices without out-edges, empty partitions, unreachable SSSP vertices,
ids beyond int64), that the PR and CC iterations never unpack a batch,
and the kernels themselves: the CSR list column, adjacency grouping,
unique-key joins, the earliest-minimum fold and the vertex programs.
"""

import math
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import PolicyName
from repro.faults import FaultPlan, KillSpec, action_checksums
from repro.gc.gclog import render_log
from repro.harness.configs import paper_config
from repro.harness.experiment import run_experiment
from repro.harness.export import bandwidth_csv_from_machine
from repro.spark import columnar as _columnar
from repro.spark.columnar import (
    ColumnBatch,
    ListColumn,
    ScalarColumn,
    group_into_lists,
    join_unique,
    min_reduce_kernel,
)
from repro.spark.partition import _MISSING, HashPartitioner
from repro.spark.storage import StorageLevel
from repro.workloads import graphx, pagerank
from repro.workloads.datasets import DatasetSpec

np = pytest.importorskip("numpy")


@pytest.fixture
def crossover(monkeypatch):
    """Set GRAPH_MIN_ROWS for one test."""

    def set_rows(rows):
        monkeypatch.setattr(_columnar, "GRAPH_MIN_ROWS", rows)

    return set_rows


def _both_planes(monkeypatch, fn):
    """``fn()`` with the columnar plane on, then off."""
    out = []
    for enabled in (True, False):
        monkeypatch.setattr(_columnar, "COLUMNAR_DATA_PLANE", enabled)
        out.append(fn())
    return out


def _count_joins(monkeypatch):
    """Count unique-key batch joins that engaged (a non-None result)."""
    engaged = []
    join = _columnar.join_unique

    def counting(left, right):
        out = join(left, right)
        if out is not None:
            engaged.append(len(out))
        return out

    monkeypatch.setattr(_columnar, "join_unique", counting)
    return engaged


def _dict_group(records):
    grouped = {}
    for k, v in records:
        grouped.setdefault(k, []).append(v)
    return list(grouped.items())


def _dict_min(records):
    acc = {}
    for k, v in records:
        prev = acc.get(k, _MISSING)
        acc[k] = v if prev is _MISSING else min(prev, v)
    return list(acc.items())


def _batch(records):
    batch = ColumnBatch.from_records(list(records))
    assert batch is not None
    batch._records = None  # force a real unpack in to_records()
    return batch


# -- traced + faulted cells, either plane -----------------------------------


class TestGraphPlaneIdentity:
    def _cell(self, workload, scale, iterations):
        config = paper_config(64, 1 / 3, PolicyName.PANTHERA, scale)
        result = run_experiment(
            workload,
            config,
            scale=scale,
            workload_kwargs={"iterations": iterations},
            keep_context=True,
            trace=True,
            faults=FaultPlan(kills=[KillSpec("shuffle", 1, 0)], seed=7),
        )
        stats = result.context.collector.stats
        return {
            "elapsed": repr(result.elapsed_s),
            "gclog": render_log(stats, result.elapsed_s, tail=50),
            "events": [repr(e) for e in result.trace_events],
            "bandwidth": bandwidth_csv_from_machine(result.context.machine),
            "faults": repr(result.fault_report),
            "checksums": action_checksums(result.action_results),
            "answers": result.action_results,
        }

    @pytest.mark.parametrize("workload", ["PR", "CC", "SSSP"])
    def test_small_cell_with_every_kernel_engaged(
        self, monkeypatch, crossover, workload
    ):
        crossover(0)
        engaged = _count_joins(monkeypatch)
        on, off = _both_planes(
            monkeypatch, lambda: self._cell(workload, 0.02, 3)
        )
        assert engaged, "the graph plane never engaged"
        assert on == off

    @pytest.mark.parametrize("workload", ["PR", "CC", "SSSP"])
    def test_cell_above_the_measured_crossover(self, monkeypatch, workload):
        engaged = _count_joins(monkeypatch)
        on, off = _both_planes(monkeypatch, lambda: self._cell(workload, 0.5, 2))
        assert engaged, "the graph plane never engaged"
        assert on == off

    @pytest.mark.parametrize(
        "module,attr,forced",
        [
            ("repro.gc.charging", "BATCHED_DEPOSITS", False),
            ("repro.gc.charging", "VECTORISED_COST_PLANE", False),
            ("repro.spark.storage", "SERIALIZED_TIER", False),
            ("repro.spark.partition", "LEGACY_DATA_PLANE", True),
        ],
    )
    def test_composes_with_every_existing_flag(
        self, monkeypatch, module, attr, forced
    ):
        monkeypatch.setattr(f"{module}.{attr}", forced)
        on, off = _both_planes(monkeypatch, lambda: self._cell("CC", 0.5, 2))
        assert on == off

    def test_serialized_contribs_identical_either_plane(self, monkeypatch):
        """PageRank's contribs persisted into the serialized tier: the
        batches are unpacked into SerializedColumnBatch at persist."""

        def cell():
            result = run_experiment(
                "PR",
                paper_config(64, 1 / 3, PolicyName.PANTHERA, 0.5),
                scale=0.5,
                workload_kwargs={
                    "iterations": 2,
                    "persist_level": StorageLevel.MEMORY_ONLY_SER,
                },
            )
            return repr(result.elapsed_s), result.action_results

        on, off = _both_planes(monkeypatch, cell)
        assert on == off


# -- random graphs ----------------------------------------------------------

_VERTEX = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.sampled_from([2**31 - 1, 2**31, 2**62]),
)
_EDGES = st.lists(st.tuples(_VERTEX, _VERTEX), min_size=1, max_size=40)


class TestRandomGraphsAgree:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        edges=_EDGES,
        partitions=st.integers(min_value=1, max_value=6),
        huge_id=st.booleans(),
        source=st.sampled_from([0, 1, 5, 2**31]),
    )
    def test_answers_agree_across_planes(
        self, edges, partitions, huge_id, source
    ):
        if huge_id:
            edges = edges + [(2**64, edges[0][0])]
        ds = DatasetSpec(
            name=f"random-{partitions}",
            records=tuple(edges),
            num_partitions=partitions,
            total_bytes=64.0 * len(edges),
        )
        config = paper_config(64, 1 / 3, PolicyName.PANTHERA, 0.01)
        cells = {
            "PR": {"dataset": ds, "iterations": 2},
            "CC": {"dataset": ds, "iterations": 3},
            "SSSP": {"dataset": ds, "iterations": 3, "source_vertex": source},
        }

        def run_all():
            return {
                name: run_experiment(
                    name, config, scale=0.01, workload_kwargs=kwargs
                ).action_results
                for name, kwargs in cells.items()
            }

        saved = (_columnar.COLUMNAR_DATA_PLANE, _columnar.GRAPH_MIN_ROWS)
        try:
            _columnar.GRAPH_MIN_ROWS = 0
            _columnar.COLUMNAR_DATA_PLANE = True
            on = run_all()
            _columnar.COLUMNAR_DATA_PLANE = False
            off = run_all()
        finally:
            _columnar.COLUMNAR_DATA_PLANE, _columnar.GRAPH_MIN_ROWS = saved
        assert on == off
        assert action_checksums(on["SSSP"]) == action_checksums(off["SSSP"])


# -- the iterations stay in batch form --------------------------------------


class TestIterationsNeverUnpack:
    @pytest.mark.parametrize("workload", ["PR", "CC"])
    def test_only_the_final_collect_unpacks(self, monkeypatch, workload):
        """At scale 2 every ``to_records`` call comes from ``run_action``
        unpacking the collected partitions — none from the prologue or
        an iteration."""
        monkeypatch.setattr(_columnar, "COLUMNAR_DATA_PLANE", True)
        callers = []
        to_records = ColumnBatch.to_records

        def recording(batch):
            frame = sys._getframe(2)
            if frame.f_code.co_name == "compute_partition":
                callers.append(frame.f_locals["self"].name)
            else:
                callers.append(frame.f_code.co_name)
            return to_records(batch)

        monkeypatch.setattr(ColumnBatch, "to_records", recording)
        result = run_experiment(
            workload,
            paper_config(64, 1 / 3, PolicyName.PANTHERA, 2.0),
            scale=2.0,
        )
        assert result.action_results
        partitions = 4
        assert callers == ["run_action"] * partitions


# -- kernels ----------------------------------------------------------------


class TestListColumn:
    def _column(self, lists):
        lengths = [len(x) for x in lists]
        offsets = np.zeros(len(lists) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        flat = [v for x in lists for v in x]
        return ListColumn(offsets, np.asarray(flat, dtype=np.int64))

    def test_tolist_rebuilds_fresh_lists(self):
        lists = [[3, 1], [], [7], [2, 2, 9]]
        col = self._column(lists)
        out = col.tolist()
        assert out == lists
        assert all(type(x) is list and type(v) is int for x in out for v in x)
        assert list(col.degrees()) == [2, 0, 1, 3]

    def test_select_and_concat(self):
        lists = [[3, 1], [], [7], [2, 2, 9]]
        col = self._column(lists)
        assert col.select(np.asarray([3, 0, 1])).tolist() == [
            [2, 2, 9],
            [3, 1],
            [],
        ]
        merged = _columnar._concat_columns([col, self._column([[5], []])])
        assert merged.tolist() == lists + [[5], []]


class TestGroupIntoLists:
    def test_matches_dict_grouping(self, crossover):
        crossover(0)
        records = [(4, 1), (2, 9), (4, 1), (-1, 0), (2, 3), (4, 7)]
        packed = group_into_lists(_batch(records))
        assert type(packed.values) is ListColumn
        assert packed.to_records() == _dict_group(records)

    def test_packs_record_lists_only_when_active(self, monkeypatch, crossover):
        crossover(0)
        monkeypatch.setattr(_columnar, "COLUMNAR_DATA_PLANE", True)
        records = [(1, 2), (1, 3), (0, 1)]
        assert group_into_lists(records).to_records() == _dict_group(records)
        monkeypatch.setattr(_columnar, "COLUMNAR_DATA_PLANE", False)
        assert group_into_lists(records) is None

    def test_stays_per_record_below_the_crossover(self, crossover):
        crossover(4)
        assert group_into_lists(_batch([(1, 2), (1, 3), (0, 1)])) is None

    def test_declines_non_int_values_and_huge_ids(self, crossover):
        crossover(0)
        assert group_into_lists(_batch([(1, 2.0), (1, 3.0)])) is None
        assert group_into_lists([(2**63, 1), (1, 2)]) is None


class TestJoinUnique:
    def _dict_join(self, left, right):
        grouped = {}
        for k, v in left:
            grouped.setdefault(k, ([], []))[0].append(v)
        for k, v in right:
            grouped.setdefault(k, ([], []))[1].append(v)
        return [(k, v) for k, v in grouped.items() if all(v)]

    def test_side_zero_order_filtered_by_side_one(self):
        left = [(5, 1.0), (3, 2.0), (9, 3.0), (1, 4.0)]
        right = [(1, 10), (7, 11), (5, 12)]
        joined = join_unique(_batch(left), _batch(right))
        assert joined.to_records() == self._dict_join(left, right)

    def test_all_matched_and_none_matched(self):
        left = [(2, 1), (1, 2)]
        assert join_unique(_batch(left), _batch([(1, 0), (2, 0)])).to_records() == (
            self._dict_join(left, [(1, 0), (2, 0)])
        )
        assert join_unique(_batch(left), _batch([(3, 0)])).to_records() == []

    def test_duplicate_keys_fall_back(self):
        assert join_unique(_batch([(1, 1), (1, 2)]), _batch([(1, 0)])) is None
        assert join_unique(_batch([(1, 1)]), _batch([(1, 0), (1, 5)])) is None
        assert join_unique([(1, 1)], _batch([(1, 0)])) is None


class TestDistinctOfIntPairs:
    def _keyed(self, records):
        return _columnar.pair_key_kernel(_batch(records))

    def test_keep_first_matches_the_dict_fold(self, crossover):
        crossover(0)
        records = [(1, 2), (3, 4), (1, 2), (-5, 2**40), (3, 4), (1, 3)]
        deduped = _columnar.keep_first_kernel(self._keyed(records))
        assert deduped.to_records() == [
            ((1, 2), None),
            ((3, 4), None),
            ((-5, 2**40), None),
            ((1, 3), None),
        ]
        unkeyed = _columnar.pair_unkey_kernel(deduped)
        assert unkeyed.to_records() == [(1, 2), (3, 4), (-5, 2**40), (1, 3)]

    def test_pair_keys_bucket_like_bucket_into(self, crossover):
        crossover(0)
        records = [(i * 7919 - 300, i % 5) for i in range(60)] + [(2**62, -1)]
        keyed = self._keyed(records)
        partitioner = HashPartitioner(4)
        expected = partitioner.split(keyed.to_records())
        pieces = dict(_columnar.split_batch(keyed, partitioner))
        for bidx in range(4):
            got = pieces[bidx].to_records() if bidx in pieces else []
            assert got == expected[bidx]

    def test_spans_beyond_int64_decline(self, crossover):
        crossover(0)
        keyed = self._keyed([(-(2**62), -(2**62)), (2**62, 2**62)])
        assert _columnar.keep_first_kernel(keyed) is None


class TestMinFold:
    def test_ints_match_the_dict_fold(self):
        records = [(3, 5), (1, 2), (3, -4), (1, 9), (3, -4), (2, 0)]
        assert min_reduce_kernel(_batch(records)).to_records() == _dict_min(
            records
        )

    def test_earliest_minimum_keeps_the_zero_sign(self):
        records = [(1, 0.0), (2, -0.0), (1, -0.0), (2, 0.0), (1, math.inf)]
        out = min_reduce_kernel(_batch(records)).to_records()
        assert out == _dict_min(records)
        assert [math.copysign(1.0, v) for _, v in out] == [1.0, -1.0]

    def test_infinity_survives_and_nan_declines(self):
        records = [(1, math.inf), (2, 3.0), (1, math.inf)]
        assert min_reduce_kernel(_batch(records)).to_records() == [
            (1, math.inf),
            (2, 3.0),
        ]
        assert min_reduce_kernel(_batch([(1, math.nan), (1, 2.0)])) is None


class TestVertexPrograms:
    def _adjacency(self, state_of):
        grouped = group_into_lists(
            _batch([(1, 2), (1, 3), (2, 3), (3, 1), (4, 4), (1, 4)])
        )
        keys = grouped.keys
        states = ScalarColumn(state_of(keys.arr))
        return ColumnBatch(keys, _columnar.PairColumn(states, grouped.values))

    def _per_record(self, fn, batch):
        return [out for r in batch.to_records() for out in fn(r)]

    def test_messages_follow_emission_order(self, crossover):
        crossover(0)
        labels = self._adjacency(lambda vids: vids * 10)
        assert (
            graphx._send_labels_kernel(labels).to_records()
            == self._per_record(graphx.send_labels, labels)
        )
        dists = self._adjacency(
            lambda vids: np.where(vids == 1, 0.0, np.where(vids == 3, 2.0, math.inf))
        )
        assert (
            graphx._relax_kernel(dists).to_records()
            == self._per_record(graphx.relax, dists)
        )

    def test_contribs_divide_per_vertex(self, crossover):
        crossover(0)
        state = self._adjacency(lambda vids: vids / 3.0)
        ranks = ColumnBatch(
            state.keys,
            _columnar.PairColumn(state.values.second, state.values.first),
        )
        assert (
            pagerank._contribs_kernel(ranks).to_records()
            == self._per_record(pagerank._contribs_record, ranks)
        )

    def test_both_directions_and_crossover(self, crossover):
        edges = _batch([(1, 2), (3, 3), (5, 0)])
        crossover(0)
        assert graphx._both_directions_kernel(edges).to_records() == (
            self._per_record(graphx._both_directions, edges)
        )
        crossover(4)
        assert graphx._both_directions_kernel(edges) is None
