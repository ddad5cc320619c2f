"""GraphX-style Pregel programs: Connected Components and SSSP.

Each iteration builds a *new* graph RDD (vertices carry their state plus
their adjacency) and unpersists an old generation — the pattern §5.5
describes: the static analysis, lacking unpersist support, sees every
persisted variable defined-and-used in the loop, tags them all NVM, and
the all-NVM rule flips them all to DRAM.  Stale graph versions that
survive into a major GC with zero monitored calls are then dynamically
migrated to NVM — the one-RDD migrations of Table 5.

The vertex programs live at module level so each carries a batch kernel
for the columnar plane (:mod:`repro.spark.columnar`): with the
adjacency packed as a CSR column, a superstep's messages, its ``min``
fold and its state update run as whole-partition numpy passes.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

from repro.spark import columnar as _columnar
from repro.spark.program import Program
from repro.spark.storage import StorageLevel
from repro.workloads.datasets import DatasetSpec, wiki_en_graph
from repro.workloads.pagerank import WorkloadSpec, _edge

try:  # the kernels run only on column batches, which need numpy
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    _np = None

#: How many stale graph generations linger before unpersist — GraphX's
#: materialisation pattern keeps the previous graph alive while the new
#: one is built on top of it.
UNPERSIST_LAG = 2


# -- vertex programs --------------------------------------------------------


def _both_directions(record):
    """(src, dst) -> both directed copies of the edge."""
    return [(record[0], record[1]), (record[1], record[0])]


def _label_init(record):
    """(vid, nbrs) -> (vid, (vid, nbrs)): each vertex is its own component."""
    return (record[0], (record[0], record[1]))


def _dist_init(source_vertex, record):
    """(vid, nbrs) -> (vid, (dist, nbrs)): 0 at the source, inf elsewhere."""
    vid = record[0]
    return (vid, (0.0 if vid == source_vertex else math.inf, record[1]))


def send_labels(record):
    """CC superstep: the label to every neighbour, then to the vertex."""
    vid, (label, nbrs) = record
    out = [(nbr, label) for nbr in nbrs]
    out.append((vid, label))  # self-message keeps isolated paths alive
    return out


def relax(record):
    """SSSP superstep: the own distance, then ``dist + 1`` to every
    neighbour of a reached vertex."""
    vid, (dist, nbrs) = record
    out = [(vid, dist)]  # self-message: keep own distance in play
    if not math.isinf(dist):
        out.extend((nbr, dist + 1.0) for nbr in nbrs)
    return out


def update(value):
    """((state, nbrs), incoming) -> (min(state, incoming), nbrs)."""
    (state, nbrs), incoming = value
    return (min(state, incoming), nbrs)


# -- their batch kernels ----------------------------------------------------


def _both_directions_kernel(batch):
    src = _columnar.int_array(batch.keys)
    dst = _columnar.int_array(batch.values)
    if src is None or dst is None or len(batch) < _columnar.GRAPH_MIN_ROWS:
        return None
    keys = _np.empty(2 * len(src), dtype=_np.int64)
    values = _np.empty_like(keys)
    keys[0::2] = src
    keys[1::2] = dst
    values[0::2] = dst
    values[1::2] = src
    return _columnar.ColumnBatch(
        _columnar.int_column(keys), _columnar.int_column(values)
    )


def _label_init_kernel(batch):
    if _columnar.int_array(batch.keys) is None:
        return None
    return _columnar.ColumnBatch(
        batch.keys, _columnar.PairColumn(batch.keys, batch.values)
    )


def _dist_init_kernel(source_vertex, batch):
    vids = _columnar.int_array(batch.keys)
    if vids is None or type(source_vertex) is not int:
        return None
    dist = _np.where(vids == source_vertex, 0.0, math.inf)
    return _columnar.ColumnBatch(
        batch.keys,
        _columnar.PairColumn(_columnar.float_column(dist), batch.values),
    )


def _vertex_state(batch):
    """``(vids, state, nbrs)`` of a ``(vid, (state, nbrs))`` batch with
    scalar state and CSR adjacency, else None."""
    values = batch.values
    if type(values) is not _columnar.PairColumn:
        return None
    vids = _columnar.int_array(batch.keys)
    state, nbrs = values.first, values.second
    if (
        vids is None
        or type(state) is not _columnar.ScalarColumn
        or type(nbrs) is not _columnar.ListColumn
    ):
        return None
    return vids, state.arr, nbrs


def _messages(vids, own, deg, dst, to_nbrs, self_first):
    """Per vertex, ``deg[i]`` messages ``to_nbrs`` (one per ``dst``
    entry) plus the self-message ``own[i]``, first or last — the
    record plane's emission order, vertex after vertex."""
    n = len(vids)
    ends = _np.cumsum(deg + 1)
    self_pos = ends - deg - 1 if self_first else ends - 1
    nbr_pos = _np.arange(len(dst), dtype=_np.int64)
    nbr_pos += _np.repeat(_np.arange(n, dtype=_np.int64) + self_first, deg)
    keys = _np.empty(n + len(dst), dtype=_np.int64)
    values = _np.empty(len(keys), dtype=own.dtype)
    keys[self_pos] = vids
    values[self_pos] = own
    keys[nbr_pos] = dst
    values[nbr_pos] = to_nbrs
    return _columnar.ColumnBatch(
        _columnar.int_column(keys), _columnar.ScalarColumn(values)
    )


def _send_labels_kernel(batch):
    state = _vertex_state(batch)
    if state is None:
        return None
    vids, labels, nbrs = state
    deg = nbrs.degrees()
    return _messages(
        vids, labels, deg, nbrs.dst, _np.repeat(labels, deg), self_first=False
    )


def _relax_kernel(batch):
    state = _vertex_state(batch)
    if state is None or state[1].dtype.kind != "f":
        return None
    vids, dist, nbrs = state
    # Unreached (infinite) vertices send only their self-message.
    reached = ~_np.isinf(dist)
    deg = nbrs.degrees() * reached
    dst = nbrs.dst[_np.repeat(reached, nbrs.degrees())]
    return _messages(
        vids, dist, deg, dst, _np.repeat(dist + 1.0, deg), self_first=True
    )


def _update_kernel(batch):
    values = batch.values
    if (
        type(values) is not _columnar.PairColumn
        or type(values.first) is not _columnar.PairColumn
    ):
        return None
    state, incoming = values.first.first, values.second
    if (
        type(state) is not _columnar.ScalarColumn
        or type(incoming) is not _columnar.ScalarColumn
        or state.arr.dtype != incoming.arr.dtype
    ):
        return None
    # min(state, incoming) keeps ``state`` unless ``incoming < state``.
    lowest = _np.where(incoming.arr < state.arr, incoming.arr, state.arr)
    return _columnar.ColumnBatch(
        batch.keys,
        _columnar.PairColumn(_columnar.ScalarColumn(lowest), values.first.second),
    )


_columnar.register_flat_map_kernel(_both_directions, _both_directions_kernel)
_columnar.register_map_kernel(_label_init, _label_init_kernel)
_columnar.register_flat_map_kernel(send_labels, _send_labels_kernel)
_columnar.register_flat_map_kernel(relax, _relax_kernel)
_columnar.register_map_values_kernel(update, _update_kernel)


def _sssp_init(source_vertex: int):
    """The SSSP state initialiser for one source, with its kernel."""
    init = functools.partial(_dist_init, source_vertex)
    _columnar.register_map_kernel(
        init, functools.partial(_dist_init_kernel, source_vertex)
    )
    return init


def _adjacency_program(
    p: Program, ds: DatasetSpec, init_state, undirected: bool = False
):
    """Shared prologue: build the initial graph (vid, (state, neighbours)).

    Connected components works on the undirected view of the graph (as
    GraphX's ``connectedComponents`` does); SSSP follows edge direction.
    """
    n_vertices = len({v for edge in ds.records for v in edge})
    fanout = max(1.0, len(ds.records) / max(1, n_vertices))
    lines = p.let("lines", p.source(ds))
    if undirected:
        edges_expr = lines.flat_map(_both_directions, size_factor=0.5)
        fanout *= 2
    else:
        edges_expr = lines.map(_edge)
    g = p.let(
        "g",
        edges_expr.group_by_key(size_factor=fanout)
        .map(init_state, preserves_partitioning=True)
        .persist(StorageLevel.MEMORY_ONLY),
    )
    return g


def build_connected_components(
    scale: float = 1.0,
    iterations: int = 6,
    seed: int = 9,
    dataset: Optional[DatasetSpec] = None,
) -> WorkloadSpec:
    """GraphX-CC: label propagation of the minimum vertex id."""
    ds = dataset or wiki_en_graph(scale=scale, seed=seed)
    p = Program()
    g = _adjacency_program(p, ds, _label_init, undirected=True)
    with p.loop(iterations):
        msgs = p.let(
            "msgs",
            g.flat_map(send_labels, size_factor=0.1)
            .reduce_by_key(min)
            .persist(StorageLevel.MEMORY_ONLY),
        )
        g = p.let(
            "g",
            g.join(msgs)
            .map_values(update)
            .persist(StorageLevel.MEMORY_ONLY),
        )
        # Pregel checks the active-message count every superstep, which
        # is what actually drives per-iteration execution in GraphX.
        p.action(msgs, "count", result_key="active_messages")
        p.unpersist_prior(g, lag=UNPERSIST_LAG)
        p.unpersist_prior(msgs, lag=UNPERSIST_LAG)
    p.action(g, "collect", result_key="components")
    return WorkloadSpec(
        name="CC",
        program=p,
        dataset=ds,
        iterations=iterations,
        description="GraphX connected components (Pregel label propagation)",
    )


def build_sssp(
    scale: float = 1.0,
    iterations: int = 6,
    source_vertex: int = 0,
    seed: int = 9,
    dataset: Optional[DatasetSpec] = None,
) -> WorkloadSpec:
    """GraphX-SSSP: unit-weight shortest paths from one source."""
    ds = dataset or wiki_en_graph(scale=scale, seed=seed)
    p = Program()
    g = _adjacency_program(p, ds, _sssp_init(source_vertex))
    with p.loop(iterations):
        msgs = p.let(
            "msgs",
            g.flat_map(relax, size_factor=0.1)
            .reduce_by_key(min)
            .persist(StorageLevel.MEMORY_ONLY),
        )
        g = p.let(
            "g",
            g.join(msgs)
            .map_values(update)
            .persist(StorageLevel.MEMORY_ONLY),
        )
        p.action(msgs, "count", result_key="active_messages")
        p.unpersist_prior(g, lag=UNPERSIST_LAG)
        p.unpersist_prior(msgs, lag=UNPERSIST_LAG)
    p.action(g, "collect", result_key="distances")
    return WorkloadSpec(
        name="SSSP",
        program=p,
        dataset=ds,
        iterations=iterations,
        description="GraphX single-source shortest paths",
    )
