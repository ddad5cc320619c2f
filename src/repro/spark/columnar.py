"""Columnar whole-stage execution for the numeric and graph workloads.

This module is the home of the data plane's fifth A/B switch,
:data:`COLUMNAR_DATA_PLANE` (env ``REPRO_COLUMNAR_DATA_PLANE``, the
same family as ``BATCHED_DEPOSITS`` / ``LEGACY_DATA_PLANE`` /
``VECTORISED_COST_PLANE`` / ``SERIALIZED_TIER``).  With the flag on, a
partition of numeric records flows through the miniature Spark as one
:class:`ColumnBatch` — packed numpy columns extending the serialized
tier's representation (:mod:`repro.spark.serialized`) — and workload
UDFs with a registered kernel transform whole batches at once: the
K-Means assign step becomes one distance matrix + ``argmin``, the LR
gradient becomes matrix–vector products, and ``reduce_by_key`` becomes
a stable key grouping with per-segment ordered folds.  Shuffle
bucketing over int-key columns is one vectorised ``& 0x7FFFFFFF`` /
``% n`` pass instead of a per-record loop.

The graph workloads (PageRank, GraphX CC/SSSP) stay in batch form from
the source partition to ``collect``: ``group_by_key`` packs adjacency
into a CSR :class:`ListColumn` (offsets plus one flat int64 column),
joins of unique-key batches match keys by sorting instead of building
a dict, ``flat_map`` kernels expand vertex messages with
``np.repeat``, and ``min`` folds keep each group's earliest minimum.
These kernels engage above :data:`GRAPH_MIN_ROWS` rows, below which
numpy's per-call overhead outweighs the per-record loop.

The house rule is byte-identity: simulated time, GC logs, trace
streams, bandwidth CSVs, fault checksums *and computed workload
answers* are identical under both flag settings.  Three disciplines
make the float kernels reproduce the record plane exactly:

* **Sequential fold order.**  Every reduction replays the record
  plane's left fold: per-dimension ``acc += term`` loops and
  ``np.add.at`` (unbuffered, applied in index order) — never
  ``np.sum`` / ``ufunc.reduce``, whose pairwise summation reorders
  float additions.
* **First-value initialisation.**  Grouped folds seed each key's
  accumulator with the key's *first* value (the dict fold's
  ``acc[k] = v``), not zeros — ``0.0 + v`` is not always ``v``
  (``-0.0``), and the dict fold never adds a leading zero.
* **Scalar transcendentals.**  ``numpy``'s ``exp`` is not bit-identical
  to ``math.exp``; kernels that need it (LR) call ``math.exp`` per
  element and vectorise everything around it.

Unpacking is exact by the same argument as the serialized tier:
``tolist()`` on int64/float64 columns rebuilds the original Python
ints/floats bit-for-bit.  Records and UDFs with no registered kernel
fall back to the per-record path, so the plane is a pure optimisation.
"""

from __future__ import annotations

import os
import weakref
from typing import Any, Callable, List, Optional, Sequence

from repro.spark import partition as _partition
from repro.spark.serialized import _INT64_MAX, _INT64_MIN

try:  # numpy is optional, never required
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    _np = None

#: A/B switch for the columnar execution plane.  The default (True,
#: overridable per process with ``REPRO_COLUMNAR_DATA_PLANE=0``) packs
#: numeric partitions into column batches and runs registered kernels
#: over them; False restores the per-record data plane.  Results are
#: byte-identical either way — only wall-clock time differs.
COLUMNAR_DATA_PLANE = os.environ.get(
    "REPRO_COLUMNAR_DATA_PLANE", "1"
) not in ("0", "false", "off")

_MASK = 0x7FFFFFFF


def columnar_active() -> bool:
    """Whether batches should be built: flag on, numpy importable, and
    the legacy per-record plane not forced (the columnar plane is an
    optimisation *of* the optimised plane; under ``LEGACY_DATA_PLANE``
    it stands down entirely so the legacy oracle stays pristine)."""
    return (
        COLUMNAR_DATA_PLANE
        and _np is not None
        and not _partition.LEGACY_DATA_PLANE
    )


# ---------------------------------------------------------------------------
# columns
# ---------------------------------------------------------------------------


class ScalarColumn:
    """One numeric column: an int64 or float64 numpy array.

    ``tolist()`` rebuilds the exact Python ints/floats that were packed
    (the serialized tier's bit-exactness argument).
    """

    __slots__ = ("arr",)

    def __init__(self, arr) -> None:
        self.arr = arr

    def __len__(self) -> int:
        return len(self.arr)

    def tolist(self) -> list:
        """The exact Python ints/floats this column packs."""
        return self.arr.tolist()

    def select(self, idx) -> "ScalarColumn":
        """Row subset by fancy index (order-preserving)."""
        return ScalarColumn(self.arr[idx])

    @property
    def is_int(self) -> bool:
        return self.arr.dtype.kind == "i"


class ConstColumn:
    """A column whose every row is the same object (LR's ``"grad"`` key)."""

    __slots__ = ("value", "n")

    def __init__(self, value: Any, n: int) -> None:
        self.value = value
        self.n = n

    def __len__(self) -> int:
        return self.n

    def tolist(self) -> list:
        """The repeated value, one per row."""
        return [self.value] * self.n

    def select(self, idx) -> "ConstColumn":
        """Row subset: the same constant, fewer rows."""
        return ConstColumn(self.value, len(idx))


class VecColumn:
    """A tuple-of-floats column as one ``(N, D)`` float64 matrix."""

    __slots__ = ("mat",)

    def __init__(self, mat) -> None:
        self.mat = mat

    def __len__(self) -> int:
        return self.mat.shape[0]

    def tolist(self) -> list:
        """The exact float tuples this column packs."""
        return [tuple(row) for row in self.mat.tolist()]

    def select(self, idx) -> "VecColumn":
        """Row subset by fancy index (order-preserving)."""
        return VecColumn(self.mat[idx])


class PairColumn:
    """A 2-tuple value column built from two inner columns (the
    ``(vec_sum, count)`` shape of the ML aggregations)."""

    __slots__ = ("first", "second")

    def __init__(self, first, second) -> None:
        self.first = first
        self.second = second

    def __len__(self) -> int:
        return len(self.first)

    def tolist(self) -> list:
        """The exact 2-tuple values this column packs."""
        return list(zip(self.first.tolist(), self.second.tolist()))

    def select(self, idx) -> "PairColumn":
        """Row subset by fancy index (order-preserving)."""
        return PairColumn(self.first.select(idx), self.second.select(idx))


class ListColumn:
    """A column of int lists in CSR form: row ``i`` is
    ``dst[offsets[i]:offsets[i + 1]]`` (``group_by_key``'s adjacency
    lists).  ``offsets`` starts at 0 and ends at ``len(dst)``."""

    __slots__ = ("offsets", "dst")

    def __init__(self, offsets, dst) -> None:
        self.offsets = offsets
        self.dst = dst

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def tolist(self) -> list:
        """The exact int lists this column packs, one fresh list per row."""
        flat = self.dst.tolist()
        bounds = self.offsets.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    def degrees(self):
        """Each row's list length, as an int64 array."""
        return _np.diff(self.offsets)

    def select(self, idx) -> "ListColumn":
        """Row subset by fancy index (order-preserving)."""
        starts = self.offsets[:-1][idx]
        deg = self.offsets[1:][idx] - starts
        offsets = _np.zeros(len(deg) + 1, dtype=_np.int64)
        _np.cumsum(deg, out=offsets[1:])
        gather = _np.repeat(starts - offsets[:-1], deg)
        gather += _np.arange(len(gather), dtype=_np.int64)
        return ListColumn(offsets, self.dst[gather])


class CogroupColumn:
    """Unique-key cogroup output: row ``i`` is ``([first[i]],
    [second[i]])``, the value shape of a two-sided cogroup in which
    every key occurs once per side."""

    __slots__ = ("first", "second")

    def __init__(self, first, second) -> None:
        self.first = first
        self.second = second

    def __len__(self) -> int:
        return len(self.first)

    def tolist(self) -> list:
        """The exact ``([a], [b])`` values this column packs."""
        return [([a], [b]) for a, b in zip(self.first.tolist(), self.second.tolist())]

    def select(self, idx) -> "CogroupColumn":
        """Row subset by fancy index (order-preserving)."""
        return CogroupColumn(self.first.select(idx), self.second.select(idx))


def _concat_columns(cols: Sequence[Any]) -> Optional[Any]:
    """Concatenate compatible columns, or None when shapes/kinds mix."""
    head = cols[0]
    t = type(head)
    if any(type(c) is not t for c in cols):
        return None
    if t is ScalarColumn:
        if any(c.arr.dtype != head.arr.dtype for c in cols):
            return None
        return ScalarColumn(_np.concatenate([c.arr for c in cols]))
    if t is ConstColumn:
        if any(c.value != head.value for c in cols):
            return None
        return ConstColumn(head.value, sum(c.n for c in cols))
    if t is VecColumn:
        if any(c.mat.shape[1] != head.mat.shape[1] for c in cols):
            return None
        return VecColumn(_np.concatenate([c.mat for c in cols]))
    if t is PairColumn or t is CogroupColumn:
        first = _concat_columns([c.first for c in cols])
        second = _concat_columns([c.second for c in cols])
        if first is None or second is None:
            return None
        return t(first, second)
    if t is ListColumn:
        shifts = _np.cumsum([0] + [len(c.dst) for c in cols[:-1]])
        offsets = _np.concatenate(
            [c.offsets[:-1] + s for c, s in zip(cols, shifts)]
            + [_np.asarray([sum(len(c.dst) for c in cols)], dtype=_np.int64)]
        )
        return ListColumn(offsets, _np.concatenate([c.dst for c in cols]))
    return None


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------


class ColumnBatch:
    """One partition of ``(key, value)`` records in columnar form.

    Sequence-like on purpose: ``len``, iteration and indexing all work,
    so every per-record consumer (aggregation fallbacks, cogroup loops,
    actions) treats a batch exactly like the record list it unpacks to
    — the unpacked list is built lazily and cached.
    """

    __slots__ = ("keys", "values", "_records")

    def __init__(self, keys, values) -> None:
        self.keys = keys
        self.values = values
        self._records: Optional[list] = None

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        return iter(self.to_records())

    def __getitem__(self, idx):
        return self.to_records()[idx]

    def to_records(self) -> list:
        """The exact record list this batch packs (cached)."""
        if self._records is None:
            self._records = list(
                zip(self.keys.tolist(), self.values.tolist())
            )
        return self._records

    def select(self, idx) -> "ColumnBatch":
        """Row subset (order-preserving fancy index)."""
        return ColumnBatch(self.keys.select(idx), self.values.select(idx))

    # -- packing -----------------------------------------------------------

    @classmethod
    def from_records(cls, records) -> Optional["ColumnBatch"]:
        """Pack a record list, or None when the shape is not columnar.

        Supported shapes (everything the numeric workloads shuffle):
        int64 keys with int / float / tuple-of-float / ``(tuple, int)``
        values.  Exact-type checks (``type(v) is int``, excluding
        ``bool``) guarantee ``unpack`` rebuilds the original objects.
        """
        if _np is None or isinstance(records, ColumnBatch):
            return records if isinstance(records, ColumnBatch) else None
        records = records if isinstance(records, list) else list(records)
        if not records:
            return None
        for r in records:
            if type(r) is not tuple or len(r) != 2:
                return None
        keys = _pack_int_column([r[0] for r in records])
        if keys is None:
            return None
        values = _pack_value_column([r[1] for r in records])
        if values is None:
            return None
        batch = cls(keys, values)
        # The pack's exact-type checks guarantee tolist() rebuilds these
        # records bit-for-bit, so the input list *is* the unpack cache —
        # per-record fallbacks iterate it for free, never double-storing
        # a reconstruction (record lists are never mutated, repo-wide).
        batch._records = records
        return batch

    @staticmethod
    def concat(batches: Sequence["ColumnBatch"]) -> Optional["ColumnBatch"]:
        """Concatenate batches with compatible schemas, or None."""
        keys = _concat_columns([b.keys for b in batches])
        if keys is None:
            return None
        values = _concat_columns([b.values for b in batches])
        if values is None:
            return None
        return ColumnBatch(keys, values)


def is_batch(records: Any) -> bool:
    """Whether a partition payload is a column batch."""
    return type(records) is ColumnBatch


def _pack_int_column(values: list) -> Optional[ScalarColumn]:
    for v in values:
        if type(v) is not int or not (_INT64_MIN <= v <= _INT64_MAX):
            return None
    return ScalarColumn(_np.asarray(values, dtype=_np.int64))


def _pack_float_matrix(rows: list) -> Optional[VecColumn]:
    head = rows[0]
    if type(head) is not tuple:
        return None
    dim = len(head)
    if dim == 0:
        return None
    for row in rows:
        if type(row) is not tuple or len(row) != dim:
            return None
        for x in row:
            if type(x) is not float:
                return None
    return VecColumn(_np.asarray(rows, dtype=_np.float64))


def _pack_value_column(values: list):
    head = values[0]
    th = type(head)
    if th is int:
        return _pack_int_column(values)
    if th is float:
        for v in values:
            if type(v) is not float:
                return None
        return ScalarColumn(_np.asarray(values, dtype=_np.float64))
    if th is tuple and len(head) == 2 and type(head[0]) is tuple:
        # the (vec_sum, count) aggregation shape
        for v in values:
            if type(v) is not tuple or len(v) != 2:
                return None
        vecs = _pack_float_matrix([v[0] for v in values])
        if vecs is None:
            return None
        counts = _pack_int_column([v[1] for v in values])
        if counts is None:
            return None
        return PairColumn(vecs, counts)
    if th is tuple:
        return _pack_float_matrix(values)
    return None


# ---------------------------------------------------------------------------
# kernel registry
# ---------------------------------------------------------------------------

#: UDF -> batch kernel.  Weak keys: kernels registered on per-program
#: closures die with their program.  A kernel takes a ColumnBatch and
#: returns a ColumnBatch (or None to decline, falling back per-record).
_MAP_KERNELS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_MAP_VALUES_KERNELS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_FLAT_MAP_KERNELS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_REDUCE_KERNELS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def register_map_kernel(fn: Callable, kernel: Callable) -> Callable:
    """Register a whole-batch kernel for a ``map`` UDF."""
    _MAP_KERNELS[fn] = kernel
    return fn


def register_map_values_kernel(fn: Callable, kernel: Callable) -> Callable:
    """Register a whole-batch kernel for a ``map_values`` UDF."""
    _MAP_VALUES_KERNELS[fn] = kernel
    return fn


def register_flat_map_kernel(fn: Callable, kernel: Callable) -> Callable:
    """Register a whole-batch kernel for a ``flat_map`` UDF.  The kernel
    must emit the flattened rows in the record plane's order: each
    input row's outputs in the UDF's emission order, rows in turn."""
    _FLAT_MAP_KERNELS[fn] = kernel
    return fn


def register_reduce_kernel(fn: Callable, kernel: Callable) -> Callable:
    """Register a grouped-fold kernel for a ``reduce_by_key`` combiner
    (used both map-side and reduce-side)."""
    _REDUCE_KERNELS[fn] = kernel
    return fn


def map_kernel_for(fn: Callable) -> Optional[Callable]:
    """The batch kernel registered for a ``map`` UDF, or None."""
    return _MAP_KERNELS.get(fn)


def map_values_kernel_for(fn: Callable) -> Optional[Callable]:
    """The batch kernel registered for a ``map_values`` UDF, or None."""
    return _MAP_VALUES_KERNELS.get(fn)


def reduce_kernel_for(fn: Callable) -> Optional[Callable]:
    """The grouped-fold kernel registered for a combiner, or None."""
    return _REDUCE_KERNELS.get(fn)


def identity_kernel(batch: ColumnBatch) -> ColumnBatch:
    """Kernel for identity maps (``lambda r: r``): the batch unchanged.

    Valid because the record plane's output tuples are *equal* to its
    input tuples, and no consumer relies on tuple identity.
    """
    return batch


def apply_map_batch(fn: Callable, records: Any):
    """Run a registered map kernel over a batch, or None to fall back."""
    kern = _MAP_KERNELS.get(fn)
    if kern is None:
        return None
    return kern(records)


def apply_flat_map_batch(fn: Callable, records: Any):
    """Run a registered flat_map kernel over a batch, or None to fall back."""
    kern = _FLAT_MAP_KERNELS.get(fn)
    if kern is None:
        return None
    return kern(records)


# ---------------------------------------------------------------------------
# grouped ordered folds (the reduce_by_key engine)
# ---------------------------------------------------------------------------


def _group_structure(keys):
    """First-occurrence-ordered grouping of a key column.

    Returns ``(out_keys, seg, first_pos)`` where ``out_keys`` is the key
    column of the folded output (dict insertion order — first
    occurrence), ``seg[i]`` is the output row of input record ``i``, and
    ``first_pos`` are the input indices of each group's first record.
    None when the key column cannot group vectorised.
    """
    if type(keys) is ConstColumn:
        n = len(keys)
        return (
            ConstColumn(keys.value, 1),
            _np.zeros(n, dtype=_np.intp),
            _np.zeros(1, dtype=_np.intp),
        )
    pair = _int_pair(keys)
    if pair is not None:
        code = _pair_code(*pair)
        if code is None:
            return None
        _codes, seg, first_pos = _group_structure(ScalarColumn(code))
        return keys.select(first_pos), seg, first_pos
    if type(keys) is ScalarColumn and keys.is_int:
        arr = keys.arr
        order = _stable_argsort(arr)
        ordered = arr[order]
        starts = _np.ones(len(arr), dtype=bool)
        _np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
        # The stable sort puts each key's first occurrence at its run start.
        first_idx = order[starts]
        by_first = _np.argsort(first_idx)  # distinct values: any sort kind
        rank = _np.empty(len(by_first), dtype=_np.intp)
        rank[by_first] = _np.arange(len(by_first), dtype=_np.intp)
        seg = _np.empty(len(arr), dtype=_np.intp)
        seg[order] = rank[_np.cumsum(starts) - 1]
        first_pos = first_idx[by_first]
        return ScalarColumn(arr[first_pos]), seg, first_pos
    return None


def _int_pair(keys):
    """The two int64 arrays of a 2-int-tuple key column, else None."""
    if type(keys) is not PairColumn:
        return None
    first, second = int_array(keys.first), int_array(keys.second)
    if first is None or second is None:
        return None
    return first, second


def _pair_code(first, second):
    """One int64 per ``(first, second)`` row, equal exactly when both
    parts are (mixed radix over each part's span), or None when the
    spans overflow int64."""
    if len(first) == 0:
        return first
    lo1, lo2 = int(first.min()), int(second.min())
    span1 = int(first.max()) - lo1 + 1
    span2 = int(second.max()) - lo2 + 1
    if span1 * span2 > _INT64_MAX:
        return None
    return (first - lo1) * span2 + (second - lo2)


def _stable_argsort(arr):
    """``np.argsort(arr, kind="stable")`` of an int array, via one plain
    sort: ``(value - min) * n + position`` is unique per row, so any
    sort of it is the stable order (several times faster than numpy's
    stable sort on int64).  Spans too wide to pack take the stable sort.
    """
    n = len(arr)
    if n > 1:
        lo = int(arr.min())
        if (int(arr.max()) - lo + 1) * n <= _INT64_MAX:
            packed = (arr - lo) * n
            packed += _np.arange(n)
            packed.sort()
            return packed % n
    return _np.argsort(arr, kind="stable")


def _ordered_grouped_sum(arr, seg, first_pos):
    """Per-group left-fold sum of ``arr`` rows in record order.

    Seeds each group with its first row (the dict fold's ``acc[k] = v``)
    and adds the remaining rows via ``np.add.at`` — unbuffered,
    applied in index order, so each accumulator sees its rows in exactly
    the record order the per-record fold used.
    """
    out = arr[first_pos].copy()
    mask = _np.ones(arr.shape[0], dtype=bool)
    mask[first_pos] = False
    if mask.any():
        _np.add.at(out, seg[mask], arr[mask])
    return out


def make_scalar_add_reduce_kernel() -> Callable:
    """Grouped-fold kernel for ``fn(a, b) = a + b`` over scalar values
    (PageRank's rank summation)."""

    def kernel(batch: ColumnBatch) -> Optional[ColumnBatch]:
        if type(batch.values) is not ScalarColumn:
            return None
        if batch.values.is_int:
            # int64 sums can wrap where Python ints cannot — decline.
            return None
        grouping = _group_structure(batch.keys)
        if grouping is None:
            return None
        out_keys, seg, first_pos = grouping
        summed = _ordered_grouped_sum(batch.values.arr, seg, first_pos)
        return ColumnBatch(out_keys, ScalarColumn(summed))

    return kernel


def make_vec_count_merge_kernel() -> Callable:
    """Grouped-fold kernel for the ML merge shape
    ``fn((va, ca), (vb, cb)) = (va + vb elementwise, ca + cb)``
    (K-Means / LR / Naive Bayes aggregation)."""

    def kernel(batch: ColumnBatch) -> Optional[ColumnBatch]:
        values = batch.values
        if (
            type(values) is not PairColumn
            or type(values.first) is not VecColumn
            or type(values.second) is not ScalarColumn
        ):
            return None
        grouping = _group_structure(batch.keys)
        if grouping is None:
            return None
        out_keys, seg, first_pos = grouping
        vec_sums = _ordered_grouped_sum(values.first.mat, seg, first_pos)
        counts = _ordered_grouped_sum(values.second.arr, seg, first_pos)
        return ColumnBatch(
            out_keys, PairColumn(VecColumn(vec_sums), ScalarColumn(counts))
        )

    return kernel


def min_reduce_kernel(batch: ColumnBatch) -> Optional[ColumnBatch]:
    """Grouped-fold kernel for ``min`` over int or float scalar values.

    The dict fold keeps ``prev`` unless ``v < prev``, so each group ends
    on its *earliest* minimal value.  ``np.minimum.at`` finds each
    group's minimum, which is exact except for the sign of a zero
    (``0.0 == -0.0``); groups whose minimum is zero take their first
    zero instead, as the fold does.  NaN breaks the ``<`` order the
    fold relies on, so batches holding one decline.
    """
    values = batch.values
    if type(values) is not ScalarColumn:
        return None
    arr = values.arr
    if not values.is_int and _np.isnan(arr).any():
        return None
    grouping = _group_structure(batch.keys)
    if grouping is None:
        return None
    out_keys, seg, first_pos = grouping
    out = arr[first_pos]
    _np.minimum.at(out, seg, arr)
    if not values.is_int:
        zeros = _np.flatnonzero(arr == 0)
        if len(zeros):
            first_zero = _np.full(len(out), len(arr), dtype=_np.intp)
            _np.minimum.at(first_zero, seg[zeros], zeros)
            at_zero = out == 0
            out[at_zero] = arr[first_zero[at_zero]]
    return ColumnBatch(out_keys, ScalarColumn(out))


# ``min`` is a builtin, so its kernel is registered here, beside it.
register_reduce_kernel(min, min_reduce_kernel)


def apply_reduce_kernel(fn: Callable, records: Any):
    """Grouped fold of a batch through ``fn``'s registered kernel.

    Returns the folded ColumnBatch, or None to fall back per-record
    (no kernel, not a batch, or the kernel declined the schema).
    """
    if type(records) is not ColumnBatch:
        return None
    kern = _REDUCE_KERNELS.get(fn)
    if kern is None:
        return None
    return kern(records)


# ---------------------------------------------------------------------------
# graph plane: adjacency grouping and unique-key joins
# ---------------------------------------------------------------------------

#: Rows below which a partition stays on the per-record path instead of
#: entering the graph plane (``distinct``'s pair keying, adjacency
#: packing, the undirected-edge kernel).  Measured on CPython 3.11 /
#: numpy 2.4 with the plane forced on and off (PR, CC and SSSP at scales
#: 0.05-0.4, medians of 9-21 interleaved runs): CC breaks even near 200
#: edges per partition, PR near 300 and SSSP between 375 and 450; below
#: that the kernels' fixed per-call cost (a dozen numpy calls per
#: partition and superstep) loses to the record loop, by up to 22% at
#: 60-75 edges.  512 clears the slowest of the three and keeps the
#: scale-0.1 and scale-0.02 cells on the record plane.  Only wall time
#: depends on it.
GRAPH_MIN_ROWS = 512


def group_into_lists(records: Any) -> Optional[ColumnBatch]:
    """``group_by_key`` over int ``(key, value)`` records as one CSR
    batch, or None to fall back to the dict grouping.

    Keys come out in first-occurrence order and each list keeps its
    values in record order — a stable argsort of the group index —
    so ``to_records()`` rebuilds the dict grouping's output exactly.
    Plain record lists are packed only when the columnar plane is on
    and the partition reaches :data:`GRAPH_MIN_ROWS`.
    """
    if len(records) < GRAPH_MIN_ROWS:
        return None
    if type(records) is ColumnBatch:
        batch = records
    elif columnar_active():
        batch = ColumnBatch.from_records(records)
        if batch is None:
            return None
    else:
        return None
    values = int_array(batch.values)
    if values is None or int_array(batch.keys) is None:
        return None
    out_keys, seg, _first = _group_structure(batch.keys)
    offsets = _np.zeros(len(out_keys) + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(seg, minlength=len(out_keys)), out=offsets[1:])
    dst = values[_stable_argsort(seg)]
    return ColumnBatch(out_keys, ListColumn(offsets, dst))


def pair_key_kernel(batch: ColumnBatch) -> Optional[ColumnBatch]:
    """``distinct``'s keying ``r -> (r, None)`` over int records: the
    record becomes a 2-int tuple key column."""
    if (
        len(batch) < GRAPH_MIN_ROWS
        or int_array(batch.keys) is None
        or int_array(batch.values) is None
    ):
        return None
    return ColumnBatch(
        PairColumn(batch.keys, batch.values), ConstColumn(None, len(batch))
    )


def keep_first_kernel(batch: ColumnBatch) -> Optional[ColumnBatch]:
    """Grouped-fold kernel for ``fn(a, b) = a``: each group's first row."""
    grouping = _group_structure(batch.keys)
    if grouping is None:
        return None
    out_keys, _seg, first_pos = grouping
    return ColumnBatch(out_keys, batch.values.select(first_pos))


def pair_unkey_kernel(batch: ColumnBatch) -> Optional[ColumnBatch]:
    """``distinct``'s unkeying ``r -> r[0]`` of a tuple key column."""
    if type(batch.keys) is not PairColumn:
        return None
    return ColumnBatch(batch.keys.first, batch.keys.second)


def _has_duplicates(sorted_arr) -> bool:
    return bool(len(sorted_arr) > 1 and (sorted_arr[1:] == sorted_arr[:-1]).any())


def join_unique(left: Any, right: Any) -> Optional[ColumnBatch]:
    """Inner two-sided cogroup of batches whose int keys are unique on
    each side, or None to fall back to the dict cogroup.

    The dict cogroup inserts side 0's keys first, so with unique keys
    its inner output is side 0's rows, in order, that have a match on
    side 1 — each valued ``([left], [right])`` (a
    :class:`CogroupColumn`).  Matching is a sort of side 1's keys and
    one ``searchsorted``.
    """
    if type(left) is not ColumnBatch or type(right) is not ColumnBatch:
        return None
    lk = int_array(left.keys)
    rk = int_array(right.keys)
    if lk is None or rk is None:
        return None
    r_order = _np.argsort(rk)
    r_sorted = rk[r_order]
    if _has_duplicates(r_sorted) or _has_duplicates(_np.sort(lk)):
        return None
    if len(rk) == 0:
        idx_l = _np.zeros(0, dtype=_np.intp)
        idx_r = idx_l
    else:
        pos = _np.searchsorted(r_sorted, lk)
        pos[pos == len(rk)] = 0
        idx_l = _np.flatnonzero(r_sorted[pos] == lk)
        idx_r = r_order[pos[idx_l]]
    if len(idx_l) == len(lk):
        keys, lvals = left.keys, left.values
    else:
        keys, lvals = ScalarColumn(lk[idx_l]), left.values.select(idx_l)
    return ColumnBatch(keys, CogroupColumn(lvals, right.values.select(idx_r)))


def flatten_join(records: Any) -> Optional[ColumnBatch]:
    """``join``'s flatten of a unique-key cogroup batch: row ``i``
    becomes ``(key, (first[i], second[i]))``, or None to fall back."""
    if type(records) is not ColumnBatch or type(records.values) is not CogroupColumn:
        return None
    values = records.values
    return ColumnBatch(records.keys, PairColumn(values.first, values.second))


# ---------------------------------------------------------------------------
# vectorised shuffle bucketing
# ---------------------------------------------------------------------------


def split_batch(batch: ColumnBatch, partitioner) -> Optional[list]:
    """Partition a batch into ``(bucket_index, sub_batch)`` pieces.

    Int-key columns bucket in one vectorised pass — bulk
    ``& 0x7FFFFFFF`` then ``% n``, exactly the inline int path of
    ``HashPartitioner.bucket_into`` (identical for every int64 key:
    numpy's two's-complement ``&`` matches Python's) — with
    order-preserving row selection per bucket.  Constant keys hash
    once through ``partition_of``.  None when the key column needs the
    per-record path (non-int scalars).
    """
    keys = batch.keys
    n = partitioner.num_partitions
    if type(keys) is ConstColumn:
        return [(partitioner.partition_of(keys.value), batch)]
    pair = _int_pair(keys)
    if pair is not None:
        # distinct()'s 2-int tuple keys: bucket_into's inlined tuple hash.
        hashes = ((pair[0] & _MASK) * 1_000_003 + (pair[1] & _MASK)) & _MASK
    elif type(keys) is ScalarColumn and keys.is_int:
        hashes = keys.arr & _MASK
    else:
        return None
    if n == 1:
        return [(0, batch)]
    bucket_of = hashes % n
    pieces = []
    for bidx in _np.unique(bucket_of):
        idx = _np.flatnonzero(bucket_of == bidx)
        pieces.append((int(bidx), batch.select(idx)))
    return pieces


def bucket_into_segments(partitioner, records, segments: List[list]) -> None:
    """Bucket one map partition's output, batch-aware.

    ``segments[b]`` collects ordered per-partition pieces (sub-batches
    or record lists) for bucket ``b``; :func:`concat_segments` fuses
    them after the map stage.  The resulting per-bucket record sequence
    is identical to ``bucket_into`` over the unpacked records.
    """
    if type(records) is ColumnBatch:
        pieces = split_batch(records, partitioner)
        if pieces is not None:
            for bidx, sub in pieces:
                segments[bidx].append(sub)
            return
        records = records.to_records()
    # Per-record path: append into each bucket's trailing plain-list
    # segment, creating one only where a sub-batch (or nothing) is last.
    # When no batch ever lands in a bucket this degenerates to the
    # single shared bucket list bucket_into always used — no extra
    # copies, same peak memory.
    tails: List[list] = []
    for seg in segments:
        if seg and type(seg[-1]) is list:
            tails.append(seg[-1])
        else:
            tail: list = []
            seg.append(tail)
            tails.append(tail)
    partitioner.bucket_into(records, tails)


def concat_segments(segments: list):
    """Fuse one bucket's ordered pieces into its reduce partition:
    one concatenated batch when every piece is schema-compatible,
    else the flattened record list (identical contents either way).
    Empty trailing lists (tails no record landed in) drop out first."""
    segments = [p for p in segments if type(p) is ColumnBatch or p]
    if not segments:
        return []
    if len(segments) == 1:
        return segments[0]
    if all(type(p) is ColumnBatch for p in segments):
        merged = ColumnBatch.concat(segments)
        if merged is not None:
            return merged
    flat: list = []
    for piece in segments:
        flat.extend(
            piece.to_records() if type(piece) is ColumnBatch else piece
        )
    return flat


# ---------------------------------------------------------------------------
# workload kernel helpers
# ---------------------------------------------------------------------------


def kernels_available() -> bool:
    """Whether kernels can ever run (numpy importable).  Registration
    is harmless without numpy — batches simply never exist — but
    workloads use this to skip building kernel closures."""
    return _np is not None


def vec_matrix(column) -> Optional[Any]:
    """The ``(N, D)`` float64 matrix of a VecColumn, else None."""
    return column.mat if type(column) is VecColumn else None


def int_array(column) -> Optional[Any]:
    """The int64 array of an integer ScalarColumn, else None."""
    if type(column) is ScalarColumn and column.is_int:
        return column.arr
    return None


def float_array(column) -> Optional[Any]:
    """The float64 array of a float ScalarColumn, else None."""
    if type(column) is ScalarColumn and not column.is_int:
        return column.arr
    return None


def int_column(arr) -> ScalarColumn:
    """Wrap an int64 array as a key/value column."""
    return ScalarColumn(arr)


def float_column(arr) -> ScalarColumn:
    """Wrap a float64 array as a value column."""
    return ScalarColumn(arr)


def vec_count_column(mat, counts) -> PairColumn:
    """Build the ``(vec, count)`` value column of the ML aggregations."""
    return PairColumn(VecColumn(mat), ScalarColumn(counts))


def ones_int(n: int):
    """An int64 column of ones (the ``count = 1`` seed)."""
    return ScalarColumn(_np.ones(n, dtype=_np.int64))
