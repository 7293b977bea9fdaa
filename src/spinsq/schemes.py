"""Measurement patterns, collected datasets and the unbiased estimators.

Five sampling schemes reconstruct collective second moments of an N-qubit
state and the four squeezing parameters built from them:

* ``TS``  — repeated collective measurement of the total spin per direction
* ``AP1`` — joint two-qubit outcomes on every ordered distinct pair
* ``AP2`` — AP1 for second moments plus split single-qubit runs that estimate
  the squared first moment from two independent preparations per product
* ``RP1`` — AP1 with the measured pair drawn uniformly at random per slot
* ``RP2`` — AP2 with random slots (pairs uniform over distinct ordered pairs,
  split cells uniform over the full index square including the diagonal)

All outcomes are stored integer-encoded (``2m`` for collective outcomes,
``2s = ±1`` for single qubits) so estimator numerators and denominators are
exact integers with a single final division.

Each rule of a scheme is stated once, in the scheme table (``_KINDS`` per
dataset kind, ``_SCHEMES`` per scheme), which collection, estimation, cost,
the variance engine, the planner, the trial harness and the CLI all read.
A pair or split record's layout is stated in its ``_Kind`` row: its slots
are L drawn at random or its whole slot space (N(N-1) ordered pairs, or the
N^2 cells for split runs), each with K joint runs or K/2 + K/2 split runs.
An estimator sees a direction only through a few integer sums: those of a
record (``_Kind.sums``), or the same sums drawn without the record by the
kind's counts sampler (``_Kind.counts``), which is how trials run.

Draw-order contract of the collectors: directions are consumed in the order
listed by the dataset (x, y, z unless a subset is requested); within a
direction, slots in ascending order with all repetitions of a slot
consecutive; split patterns consume the first-member series then the
second-member series of a slot; random patterns consume the slot-index
uniforms of a direction as one block before any outcome draws.  Each
direction's outcome uniforms are drawn as one block, which yields the same
stream, and the same record, as drawing one slot at a time in that order;
the tests keep that slot-by-slot reference (``tests/oracles.py``).
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .states import (
    DIRECTIONS,
    Direction,
    _pair_classes,
    _pair_cut_columns,
    _single_cuts,
    _split_classes,
    _total_spin_cuts,
    _total_spin_probs,
    outcome_grid,
)

SCHEMA_VERSION = 1
# the largest budget K or L: the variance cores evaluate it as a float, the
# samplers as a C long, and the planner searches no further
_MAX_BUDGET = 1 << 62


class Scheme(Enum):
    """The five sampling schemes."""

    TS = "ts"
    AP1 = "ap1"
    AP2 = "ap2"
    RP1 = "rp1"
    RP2 = "rp2"


class ParameterKind(Enum):
    A = "a"
    B = "b"
    C = "c"
    D = "d"


_DEFAULT_AXES = (Direction.X, Direction.Y, Direction.Z)


@dataclass(frozen=True)
class Parameter:
    """A squeezing parameter: kind plus the (k, l, m) axis assignment.

    The axes matter only for kinds C and D; the default is k=x, l=y, m=z.
    """

    kind: ParameterKind
    axes: tuple = _DEFAULT_AXES

    def __post_init__(self):
        if not isinstance(self.kind, ParameterKind):
            object.__setattr__(self, "kind", ParameterKind(self.kind))
        axes = tuple(self.axes)
        if sorted(a.value for a in axes) != ["x", "y", "z"]:
            raise ValueError(f"axes must be a permutation of x,y,z, got {axes}")
        object.__setattr__(self, "axes", axes)

    @property
    def k_axis(self) -> Direction:
        return self.axes[0]

    @property
    def l_axis(self) -> Direction:
        return self.axes[1]

    @property
    def m_axis(self) -> Direction:
        return self.axes[2]

    @classmethod
    def parse(cls, text: str) -> "Parameter":
        """Parse ``"c"`` or ``"c:kxlymz"`` style parameter specs."""
        head, sep, tail = text.strip().lower().partition(":")
        try:
            kind = ParameterKind(head)
        except ValueError:
            raise ValueError(f"unknown parameter kind {head!r}") from None
        if not sep:
            return cls(kind)
        if len(tail) != 6 or tail[0] != "k" or tail[2] != "l" or tail[4] != "m":
            raise ValueError(
                f"axis spec must look like kxlymz (role/axis pairs), got {tail!r}"
            )
        axes = tuple(Direction(c) for c in (tail[1], tail[3], tail[5]))
        return cls(kind, axes)

    def label(self) -> str:
        roles = "".join(
            f"{r}{a.value}" for r, a in zip("klm", self.axes)
        )
        if self.axes == _DEFAULT_AXES:
            return self.kind.value
        return f"{self.kind.value}:{roles}"


def _as_parameter(parameter) -> Parameter:
    """``parameter``, parsed when it is given as a spec such as ``"c"``."""
    return Parameter.parse(parameter) if isinstance(parameter, str) else parameter


def _ordered_pair_slots(idx, n: int) -> np.ndarray:
    """The ``(i, j)`` rows of ordered distinct pair slots ``idx``."""
    i = idx // (n - 1)
    r = idx % (n - 1)
    j = r + (r >= i)
    return np.stack([i, j], axis=1).astype(np.int64, copy=False)


def _square_slots(idx, n: int) -> np.ndarray:
    """The ``(i, j)`` rows of full-square cell slots ``idx``."""
    return np.stack([idx // n, idx % n], axis=1).astype(np.int64, copy=False)


def ordered_pairs(n: int) -> np.ndarray:
    """All N(N-1) ordered distinct index pairs in slot (lexicographic) order."""
    return _ordered_pair_slots(np.arange(n * (n - 1)), n)


def square_pairs(n: int) -> np.ndarray:
    """All N^2 ordered index pairs (diagonal included) in slot order."""
    return _square_slots(np.arange(n * n), n)


def _parameter_blocks(parameter: Parameter) -> list:
    """The parameter's direction blocks as ``(axis, "j2" | "dj2", scaled)``.

    A ``j2`` block is the second moment of the axis, a ``dj2`` block its
    variance.  ``scaled`` blocks carry the factor N - 1 in the parameter, so
    (N - 1)^2 in its variance.
    """
    kind = parameter.kind
    if kind is ParameterKind.A:
        return [(ax, "j2", False) for ax in _DEFAULT_AXES]
    if kind is ParameterKind.B:
        return [(ax, "dj2", False) for ax in _DEFAULT_AXES]
    ka, la, ma = parameter.axes
    if kind is ParameterKind.C:
        return [(ka, "j2", False), (la, "j2", False), (ma, "dj2", True)]
    return [(ka, "dj2", True), (la, "dj2", True), (ma, "j2", False)]


def split_directions(parameter: Parameter) -> tuple:
    """Directions whose variance block needs split-run data (AP2/RP2)."""
    parameter = _as_parameter(parameter)
    return tuple([ax for ax, block, _ in _parameter_blocks(parameter) if block == "dj2"])


# --------------------------------------------------------------------------
# datasets
# --------------------------------------------------------------------------


def _freeze_blocks(blocks, *, dtype=np.int64):
    if not blocks:
        raise ValueError("dataset needs at least one direction block")
    out = {}
    seen = set()
    for axis, arr in blocks.items():
        axis = Direction(axis)
        arr = np.asarray(arr, dtype=dtype)
        if id(arr) in seen:
            raise ValueError(
                f"direction {axis.value} shares its outcome array with another "
                "direction; blocks must come from independent runs"
            )
        seen.add(id(arr))
        arr.setflags(write=False)
        out[axis] = arr
    return MappingProxyType(out)


@dataclass(frozen=True)
class TotalSpinDataset:
    """K encoded total-spin outcomes (2m) per collected direction."""

    n_qubits: int
    outcomes: Mapping[Direction, np.ndarray]
    k: int = field(default=0)

    def __post_init__(self):
        blocks = _freeze_blocks(self.outcomes)
        object.__setattr__(self, "outcomes", blocks)
        k = self.k or next(iter(blocks.values())).shape[0]
        object.__setattr__(self, "k", int(k))
        if self.k < 2:
            raise ValueError("total-spin data needs K >= 2 repetitions")
        n = self.n_qubits
        for axis, arr in blocks.items():
            if arr.shape != (self.k,):
                raise ValueError(f"direction {axis.value}: expected {self.k} outcomes")
            # min/max, not abs: abs(-2**63) overflows to a negative value
            if arr.size and (
                arr.min() < -n or arr.max() > n or ((arr + n) & 1).any()
            ):
                raise ValueError(
                    f"direction {axis.value}: outcomes must be 2m with |2m| <= N "
                    "and the parity of N"
                )


class _SlotRecord:
    """The validation of the pair and split records, by their ``_Kind`` row."""

    def __post_init__(self):
        name = _KIND_NAMES[type(self)]
        kind = _KINDS[name]
        names = ("slots", "first", "second") if kind.random else ("first", "second")
        blocks = {}
        for attr in names:
            blocks[attr] = _freeze_blocks(getattr(self, attr))
            object.__setattr__(self, attr, blocks[attr])
        if len({frozenset(b) for b in blocks.values()}) > 1:
            raise ValueError(f"{'/'.join(names)} blocks cover different directions")
        first, second = blocks["first"], blocks["second"]
        some = next(iter(first.values()))
        if some.ndim != 2:
            raise ValueError(f"{name} outcome blocks must be 2-D (slots, runs) arrays")
        k = int(self.k or some.shape[1] * (2 if kind.split else 1))
        l = int(self.l or some.shape[0]) if kind.random else None
        for key, value in _budget(kind.budget, k, l).items():
            object.__setattr__(self, key, value)
        kind.check_budget(f"{name} record", {"k": k, "l": l}, kind.minimum)
        n = self.n_qubits
        shape = (l if kind.random else kind.space(n), k // 2 if kind.split else k)
        for axis in first:
            if first[axis].shape != shape or second[axis].shape != shape:
                raise ValueError(f"direction {axis.value}: expected shape {shape}")
            if (np.abs(first[axis]) != 1).any() or (np.abs(second[axis]) != 1).any():
                raise ValueError(f"direction {axis.value}: {name} outcomes must be encoded ±1")
            if not kind.random:
                continue
            s = blocks["slots"][axis]
            if s.shape != (l, 2) or s.min() < 0 or s.max() >= n:
                raise ValueError(f"direction {axis.value}: slots must be (L, 2) pairs in [0, N)")
            if not kind.split and (s[:, 0] == s[:, 1]).any():
                raise ValueError(f"direction {axis.value}: slots must be distinct pairs")


@dataclass(frozen=True)
class PairDataset(_SlotRecord):
    """Joint ±1 outcomes for every ordered distinct pair, K repetitions."""

    n_qubits: int
    first: Mapping[Direction, np.ndarray]
    second: Mapping[Direction, np.ndarray]
    k: int = field(default=0)


@dataclass(frozen=True)
class SplitSingleDataset(_SlotRecord):
    """Per cell (i, j) of the full index square: K/2 outcomes of qubit i from
    one run series and K/2 outcomes of qubit j from a disjoint series."""

    n_qubits: int
    first: Mapping[Direction, np.ndarray]
    second: Mapping[Direction, np.ndarray]
    k: int


@dataclass(frozen=True)
class RandomPairDataset(_SlotRecord):
    """L random distinct ordered pairs per direction, K repetitions each."""

    n_qubits: int
    slots: Mapping[Direction, np.ndarray]
    first: Mapping[Direction, np.ndarray]
    second: Mapping[Direction, np.ndarray]
    l: int = field(default=0)
    k: int = field(default=0)


@dataclass(frozen=True)
class RandomSplitDataset(_SlotRecord):
    """L random cells of the full index square with split K/2 + K/2 runs."""

    n_qubits: int
    slots: Mapping[Direction, np.ndarray]
    first: Mapping[Direction, np.ndarray]
    second: Mapping[Direction, np.ndarray]
    l: int = field(default=0)
    k: int = field(default=0)


@dataclass(frozen=True)
class EstimateResult:
    scheme: Scheme
    parameter: Parameter
    value: float
    samples_used: int
    budget: Mapping[str, int]

    def as_dict(self) -> dict:
        return {
            "scheme": self.scheme.value,
            "parameter": self.parameter.label(),
            "value": self.value,
            "samples_used": self.samples_used,
            "budget": dict(self.budget),
        }


# --------------------------------------------------------------------------
# collection
# --------------------------------------------------------------------------


def _categories(cuts, u):
    """Inversion categories: how many of the ascending ``cuts`` are ``<= u``.

    Equal to ``np.searchsorted(cuts, u, side="right")``, and faster for the
    short cut tables of the total-spin distributions.
    """
    below = cuts[:, None] <= u
    return below.sum(axis=0, dtype=np.min_scalar_type(len(cuts)))


def _pair_outcomes(cuts, u):
    """Encoded joint outcomes of pair runs with uniforms ``u``.

    ``cuts`` holds the three joint cut points, each broadcastable against
    ``u``.  The category is the number of cuts ``<= u``, in the order
    ``(+,+), (+,-), (-,+), (-,-)``: the first member is -1 from the second
    cut on, the second member when an odd number of cuts are ``<= u``.
    """
    c0, c1, c2 = cuts
    first_minus = c1 <= u
    second_minus = (c0 <= u) ^ first_minus ^ (c2 <= u)
    return 1 - 2 * first_minus.astype(np.int64), 1 - 2 * second_minus.astype(np.int64)


def _single_outcomes(cut, u):
    """Encoded single-qubit outcomes: -1 where ``cut <= u``."""
    return 1 - 2 * (cut <= u).astype(np.int64)


def _random_slots(rng, l, cells):
    """L uniformly drawn slot indices in ``[0, cells)``, one uniform each."""
    return np.minimum((rng.random(l) * cells).astype(np.int64), cells - 1)


def collect_total_spin(state, k, rng) -> TotalSpinDataset:
    """K collective outcomes per direction (3K preparations in total)."""
    _check_collect("total_spin", k=k)
    n = state.n_qubits
    blocks = {}
    for axis in DIRECTIONS:
        g = _categories(_total_spin_cuts(state, axis), rng.random(k))
        blocks[axis] = 2 * g.astype(np.int64) - n  # category g encodes 2m = 2g - N
    return TotalSpinDataset(n, blocks, k=k)


def collect_all_pairs(state, k, rng) -> PairDataset:
    """K joint outcomes for each ordered distinct pair and direction."""
    return _collect_slots("pairs", state, rng, k)


def collect_split_single(state, k, rng, directions=DIRECTIONS) -> SplitSingleDataset:
    """Split single-qubit runs over the full index square (K even)."""
    return _collect_slots("split", state, rng, k, directions=directions)


def collect_random_pairs(state, l, k, rng) -> RandomPairDataset:
    """L uniformly random distinct ordered pairs per direction, K reps each.

    One uniform per slot indexes the N(N-1) ordered-pair cells directly, so
    the draw count is fixed and the cell distribution exactly uniform.
    """
    return _collect_slots("random_pairs", state, rng, k, l)


def collect_random_split(state, l, k, rng, directions=DIRECTIONS) -> RandomSplitDataset:
    """L uniformly random cells of the full N^2 square with split runs."""
    return _collect_slots("random_split", state, rng, k, l, directions)


def _collect_slots(name, state, rng, k, l=None, directions=DIRECTIONS):
    """A pair or split record of dataset kind ``name``, in the draw order of
    the module docstring: per direction, the L slot uniforms of a random
    kind, then one (slots, K) block of outcome uniforms, a split slot's
    first K/2 for its first member."""
    kind = _KINDS[name]
    _check_collect(name, k=k, l=l)
    n = state.n_qubits
    half = k // 2
    slots = {}
    first = {}
    second = {}
    for axis in map(Direction, directions):
        idx = _random_slots(rng, l, kind.space(n)) if kind.random else np.arange(kind.space(n))
        u = rng.random((len(idx), k))
        if kind.split:
            cuts = _single_cuts(state, axis)
            first[axis] = _single_outcomes(cuts[idx // n][:, None], u[:, :half])
            second[axis] = _single_outcomes(cuts[idx % n][:, None], u[:, half:])
        else:
            cuts = [c[idx][:, None] for c in _pair_cut_columns(state, axis)]
            first[axis], second[axis] = _pair_outcomes(cuts, u)
        if kind.random:
            slots[axis] = kind.cells(idx, n)
    return kind.record(n, slots, first, second, k, l)


def collect_datasets(state, scheme, parameter, rng, *, k=None, l=None) -> dict:
    """Collect exactly the datasets `estimate_parameter` needs for a scheme.

    Split-run data is collected only for the directions whose variance block
    the parameter uses, so the preparations consumed equal
    ``sample_cost(scheme, parameter, N, ...)``.
    """
    row = _SCHEMES[Scheme(scheme)]
    out = {row.record: _collect(row.record, state, rng, k, l)}
    dirs = split_directions(parameter) if row.split is not None else ()
    if dirs:
        out[row.split] = _collect(row.split, state, rng, k, l, directions=dirs)
    return out


def _collect(name, state, rng, k, l, **extra):
    kind = _KINDS[name]
    return kind.collect(state, rng=rng, **_budget(kind.budget, k, l), **extra)


# --------------------------------------------------------------------------
# estimator cores (exact integers, one final division)
# --------------------------------------------------------------------------
#
# Every core takes ``(n, k, l, *sums)``: the budget and one direction's
# integer sums, as ``_Kind.sums`` reduces them from a record and
# ``_Kind.counts`` draws them.  Total-spin sums are ``(sum 2m, sum (2m)^2)``;
# pair and split sums are the product sum, followed for a variance block by
# the cross sums of :func:`_cross_sums`, whose sum over distinct units is
# ``sum_{t != u} A_t B_u = (sum A)(sum B) - sum A_t B_t``.


def _ts_j2(n, k, l, s1_sum, s2_sum):
    return s2_sum / (4 * k)


def _ts_dj2(n, k, l, s1_sum, s2_sum):
    return (k * s2_sum - s1_sum * s1_sum) / (4 * k * (k - 1))


def _ap_j2(n, k, l, prod):
    return (n * k + prod) / (4 * k)


def _ap_dj2(n, k, l, prod, sa, sb, sab):
    d = (n - 1) * (n - 1)
    return ((n * k + prod) * (k - 1) * d - (sa * sb - sab)) / (4 * k * (k - 1) * d)


def _split_jsq(n, k, l, prod):
    return prod / (2 * k)


def _rp_j2(n, k, l, prod):
    return (n * k * l + n * (n - 1) * prod) / (4 * k * l)


def _rp_dj2(n, k, l, prod, sa, sb, sab):
    return (
        n * k * k * l * (l - 1)
        + n * (n - 1) * prod * k * (l - 1)
        - n * n * (sa * sb - sab)
    ) / (4 * k * k * l * (l - 1))


def _rsplit_jsq(n, k, l, prod):
    return n * n * prod / (2 * k * l)


def _axis_block(ds, blocks, axis, what):
    axis = Direction(axis)
    missing = [name for name in blocks if axis not in getattr(ds, name)]
    if missing:
        raise ValueError(
            f"{what} dataset is missing direction {axis.value!r} "
            f"(blocks: {', '.join(missing)})"
        )
    return axis


# --------------------------------------------------------------------------
# the sums of a record
# --------------------------------------------------------------------------


def _total_spin_sums(ds, axis, cross=False):
    """``(sum 2m, sum (2m)^2)`` of one direction."""
    axis = _axis_block(ds, ("outcomes",), axis, "total-spin")
    arr = ds.outcomes[axis]
    return int(arr.sum()), int((arr * arr).sum())


def _product_sum(ds, axis):
    """Sum of first*second member products over the whole block."""
    return int((ds.first[axis] * ds.second[axis]).sum())


def _cross_sums(ds, axis, over):
    """(product sum, sum A, sum B, sum A*B) with A/B the first/second member
    sums over array axis ``over``: per repetition over slots (0) or per slot
    over repetitions (1)."""
    a = ds.first[axis].sum(axis=over)
    b = ds.second[axis].sum(axis=over)
    return _product_sum(ds, axis), int(a.sum()), int(b.sum()), int((a * b).sum())


def _outcome_sums(ds, axis, cross=False):
    """The product sum of one direction of a pair or split record, and with
    ``cross`` its cross sums: over slots per repetition, or for a random kind
    over repetitions per slot."""
    name = _KIND_NAMES[type(ds)]
    axis = _axis_block(ds, ("first", "second"), axis, name)
    if not cross:
        return (_product_sum(ds, axis),)
    over = int(_KINDS[name].random)
    if ds.first[axis].shape[1 - over] < 2:  # the cross sum runs over distinct A/B
        raise ValueError(f"{name} variance estimate needs {'KL'[over]} >= 2")
    return _cross_sums(ds, axis, over)


# --------------------------------------------------------------------------
# counts samplers (a direction's sums, drawn without its record)
# --------------------------------------------------------------------------
#
# Each sampler draws the sums ``_Kind.sums`` reduces from the record the
# kind's collector would draw, with the same law: the shots of a slot class
# (``states._pair_classes``, ``states._split_classes``) are independent and
# identically distributed, so their category counts are multinomial and the
# number of products -1 among them binomial.

# rows: product, first member, second member of the categories
# (+,+), (+,-), (-,+), (-,-)
_SIGNS = np.array([[1, -1, -1, 1], [1, 1, -1, -1], [1, -1, 1, -1]])


def _count_total_spin(state, axis, rng, cross, k, l):
    counts = rng.multinomial(k, _total_spin_probs(state, axis))
    m2 = outcome_grid(state.n_qubits)  # the encoded outcome 2m of each category
    return int(counts @ m2), int(counts @ (m2 * m2))


def _product_count(rng, classes, runs):
    """The product sum of ``runs[c]`` runs of each class of ``classes``."""
    return sum(r - 2 * rng.binomial(r, p) for r, p in zip(runs, classes.disagree))


def _unit_sums(counts):
    """The cross sums of :func:`_cross_sums` from per-unit category counts,
    a unit being a repetition (all pairs) or a slot (random pairs)."""
    prod, a, b = _SIGNS @ counts.T
    return int(prod.sum()), int(a.sum()), int(b.sum()), int((a * b).sum())


def _class_slots(rng, l, sizes):
    """How many of L uniformly drawn slots fall in each class of ``sizes``."""
    if len(sizes) == 1:
        return [l]
    return rng.multinomial(l, np.array(sizes) / sum(sizes)).tolist()


def _count_pairs(state, axis, rng, cross, k, l):
    classes = _pair_classes(state, axis)
    if not cross:
        return (_product_count(rng, classes, [s * k for s in classes.sizes]),)
    # per repetition, the category counts of each class's slots
    counts = rng.multinomial(classes.sizes, classes.probs, size=(k, len(classes.sizes)))
    return _unit_sums(counts.sum(axis=1))


def _count_split(state, axis, rng, cross, k, l):
    classes = _split_classes(state, axis)
    return (_product_count(rng, classes, [s * (k // 2) for s in classes.sizes]),)


def _count_random_pairs(state, axis, rng, cross, k, l):
    classes = _pair_classes(state, axis)
    slots = _class_slots(rng, l, classes.sizes)
    if not cross:
        return (_product_count(rng, classes, [s * k for s in slots]),)
    if k == 1:  # a one-run slot's A*B is its product: the class totals suffice
        counts = sum(rng.multinomial(s, p) for s, p in zip(slots, classes.probs))
        prod, a, b = (_SIGNS @ counts).tolist()
        return prod, a, b, prod
    # per slot, the category counts of its K runs
    return _unit_sums(rng.multinomial(k, np.repeat(classes.probs, slots, axis=0)))


def _count_random_split(state, axis, rng, cross, k, l):
    classes = _split_classes(state, axis)
    slots = _class_slots(rng, l, classes.sizes)
    return (_product_count(rng, classes, [s * (k // 2) for s in slots]),)


# --------------------------------------------------------------------------
# variance cores (aggregates -> variance of one estimator)
# --------------------------------------------------------------------------
#
# Every core takes ``(n, aggs, k, l)`` so that the scheme table can call any
# of them; :mod:`spinsq.variance` composes them into parameter variances.


def _promote(n, aggs):
    """Match the numeric type of ``n`` to the aggregates (exact vs float)."""
    if any(isinstance(v, Fraction) for v in aggs.values()):
        return Fraction(n)
    return n


def _core_ts_j2(n, aggs, k, l):
    j2, j4 = aggs["j2"], aggs["j4"]
    return (j4 - j2 * j2) / k


def _core_ts_dj2(n, aggs, k, l):
    j1, j2, j3, j4 = aggs["j1"], aggs["j2"], aggs["j3"], aggs["j4"]
    return (
        (j4 - j2 * j2 - 4 * j3 * j1) * (k - 1)
        + 2 * j2 * j2
        + 2 * (2 * k - 3) * (2 * j2 * j1 * j1 - j1 ** 4)
    ) / (k * (k - 1))


def _core_ap_j2(n, aggs, k, l):
    n = _promote(n, aggs)
    return (n * (n - 1) - aggs["corr_sq_sum"]) / (16 * k)


def _core_ap_dj2(n, aggs, k, l):
    n = _promote(n, aggs)
    j1, j2 = aggs["j1"], aggs["j2"]
    s1sq = aggs["single_sq_sum"]
    smix = aggs["mixed_corr_sum"]
    w1 = (n - 1) * (n - 1)

    g = (n - 1) * j1 * j1 + n / 4 - s1sq / 4
    h = j2 + n * (n - 2) * j1 * j1 - n / 4 + s1sq / 4
    w = (
        k * (k - 1) * (k - 2) * (k - 3) * w1 * w1 * j1 ** 4
        + k * (k - 1) * (k - 2) * w1 * j1 * j1 * (2 * (n - 1) * g + 2 * h)
        + k * (k - 1) * (w1 * g * g + h * h)
        - k * k * (k - 1) * (k - 1) * w1 * w1 * j1 ** 4
    )
    cov = (
        k * (k - 1) * (k - 2) * (j2 - n / 4) * w1 * j1 * j1
        + k
        * (k - 1)
        * (n - 1)
        * j1
        * ((n - 1) / 2 * j1 + 2 * (n - 1) * j1 * (j2 - n / 4) - smix / 8)
        - k * k * (k - 1) * w1 * j1 * j1 * (j2 - n / 4)
    )
    return (
        _core_ap_j2(n, aggs, k, l)
        + w / (k * k * (k - 1) * (k - 1) * w1 * w1)
        - 2 * cov / (k * k * (k - 1) * w1)
    )


def _core_split_jsq(n, aggs, k, l):
    n = _promote(n, aggs)
    s1sq = aggs["single_sq_sum"]
    return (n * n - s1sq * s1sq) / (8 * k)


def _core_rp_j2(n, aggs, k, l):
    n = _promote(n, aggs)
    j2 = aggs["j2"]
    return (n ** 3 * (n - 2) - 16 * j2 * j2 + 8 * n * j2) / (16 * k * l)


def _core_rp_dj2(n, aggs, k, l):
    n = _promote(n, aggs)
    j1, j2 = aggs["j1"], aggs["j2"]
    w1 = (n - 1) * (n - 1)
    num = (
        -32 * j1 ** 4 * (2 * l - 3) * w1
        - 8
        * j1
        * j1
        * (n - 1)
        * (4 * j2 * (-3 * l * n + 2 * l + 4 * n - 2) + n * n * (l * n - 2))
        - 16 * j2 * j2 * (l * w1 - 2 * n * (n - 1) - 1)
        + 8 * j2 * n * (l * w1 - 2 * n * (n - 1) - 1)
        + n ** 3 * (l * (n - 2) * w1 + n * (2 * n - 3) + 2)
    )
    return num / (16 * l * (l - 1) * w1)


def _core_rsplit_jsq(n, aggs, k, l):
    n = _promote(n, aggs)
    j1 = aggs["j1"]
    return (n ** 4 - 16 * j1 ** 4) / (8 * k * l)


# --------------------------------------------------------------------------
# the scheme table
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Kind:
    """A dataset kind: the record one collector draws, its layout and its sums."""

    alias: str  # short name for ``spinsq sample --pattern``
    cls: type
    collect: Callable  # called as ``collect(state, rng=rng, **budget)``
    sums: Callable  # (record, axis, cross) -> one direction's integer sums
    counts: Callable  # (state, axis, rng, cross, k, l) -> the same sums, drawn
    minimum: Mapping  # the record's minimum per budget field
    random: bool = False  # L slots drawn at random, not the whole slot space
    split: bool = False  # K/2 + K/2 single-qubit runs on N^2 cells, not K pair runs
    collect_minimum: Mapping | None = None  # the collector's, where it is higher

    @property
    def budget(self) -> tuple:
        """The budget fields, in the order they are checked."""
        return ("l", "k") if self.random else ("k",)

    def check_budget(self, what, budget, minimum):
        """Reject a budget below ``minimum``, or an odd K for split runs."""
        for key in self.budget:
            value, least, even = budget[key], minimum[key], key == "k" and self.split
            if value is None or value < least or (even and value % 2):
                raise ValueError(
                    f"{what} needs {'an even ' if even else ''}{key.upper()} >= {least}"
                )
            if value > _MAX_BUDGET:
                raise ValueError(f"{what} needs {key.upper()} <= 2**62")

    def space(self, n) -> int:
        """The slot space: cells of the index square, or ordered distinct pairs."""
        return n * n if self.split else n * (n - 1)

    def cells(self, idx, n) -> np.ndarray:
        """The ``(i, j)`` rows of the slots ``idx`` of the slot space."""
        return _square_slots(idx, n) if self.split else _ordered_pair_slots(idx, n)

    def preparations(self, n, k, l) -> int:
        """State preparations per direction: K per slot; K for total spin."""
        if self.cls is TotalSpinDataset:
            return k
        return k * (l if self.random else self.space(n))

    def record(self, n, slots, first, second, k, l):
        """The record of this kind with these blocks."""
        blocks = (slots, first, second) if self.random else (first, second)
        return self.cls(n, *blocks, **_budget(self.budget, k, l))


_KINDS = {
    "total_spin": _Kind("ts", TotalSpinDataset, collect_total_spin, _total_spin_sums,
                        _count_total_spin, {"k": 2}),
    "pairs": _Kind("ap", PairDataset, collect_all_pairs, _outcome_sums, _count_pairs,
                   {"k": 1}, collect_minimum={"k": 2}),
    "split": _Kind("split", SplitSingleDataset, collect_split_single, _outcome_sums,
                   _count_split, {"k": 2}, split=True),
    "random_pairs": _Kind("rp", RandomPairDataset, collect_random_pairs, _outcome_sums,
                          _count_random_pairs, {"l": 2, "k": 1}, random=True),
    "random_split": _Kind("rsplit", RandomSplitDataset, collect_random_split, _outcome_sums,
                          _count_random_split, {"l": 1, "k": 2}, random=True, split=True),
}
_KIND_NAMES = {kind.cls: name for name, kind in _KINDS.items()}


@dataclass(frozen=True)
class _Block:
    """How a scheme estimates one direction block ("j2" or "dj2").

    The estimate is ``value(n, k, l, *sums)`` of the record's sums of the
    direction (with the cross sums when ``cross`` is set), less
    ``split_value`` of the split runs' sums for a block built with split
    runs; its variance is ``core``, plus ``split_core``, of
    ``(n, aggs, k, l)``.  The variance formula holds for K >= ``k_min`` (even
    if ``k_even``) and L >= ``l_min``, and, when ``k_only`` is set, for that
    K alone.
    """

    value: Callable
    core: Callable
    cross: bool = False
    k_min: int = 1
    k_even: bool = False
    l_min: int = 0
    k_only: int | None = None
    split_value: Callable | None = None
    split_core: Callable | None = None


@dataclass(frozen=True)
class _SchemeRow:
    """A scheme: its record, its split runs, its blocks and its planner grid.

    The planner's budget scalar starts at ``plan_min`` and moves in steps of
    ``plan_step``; it is K, or with ``plan_k`` set the product K*L at that K.
    """

    record: str  # dataset key of the second-moment record
    split: str | None  # dataset key of the split runs, if the scheme has them
    blocks: Mapping  # "j2" / "dj2" -> _Block
    plan_min: int
    plan_step: int
    plan_k: int | None

    @property
    def budget(self) -> tuple:
        return _KINDS[self.record].budget

    def plan_budget(self, b) -> dict:
        if self.plan_k is None:
            return {"k": b}
        return {"l": b // self.plan_k, "k": self.plan_k}


_AP_J2 = _Block(_ap_j2, _core_ap_j2)
_RP_J2 = _Block(_rp_j2, _core_rp_j2, l_min=1)

_SCHEMES = {
    Scheme.TS: _SchemeRow("total_spin", None, {
        "j2": _Block(_ts_j2, _core_ts_j2),
        "dj2": _Block(_ts_dj2, _core_ts_dj2, k_min=2),
    }, plan_min=2, plan_step=1, plan_k=None),
    Scheme.AP1: _SchemeRow("pairs", None, {
        "j2": _AP_J2,
        "dj2": _Block(_ap_dj2, _core_ap_dj2, cross=True, k_min=2),
    }, plan_min=2, plan_step=1, plan_k=None),
    Scheme.AP2: _SchemeRow("pairs", "split", {
        "j2": _AP_J2,
        "dj2": _Block(_ap_j2, _core_ap_j2, k_min=2, k_even=True,
                      split_value=_split_jsq, split_core=_core_split_jsq),
    }, plan_min=2, plan_step=2, plan_k=None),
    Scheme.RP1: _SchemeRow("random_pairs", None, {
        "j2": _RP_J2,
        "dj2": _Block(_rp_dj2, _core_rp_dj2, cross=True, l_min=2, k_only=1),
    }, plan_min=2, plan_step=1, plan_k=1),
    Scheme.RP2: _SchemeRow("random_pairs", "random_split", {
        "j2": _RP_J2,
        "dj2": _Block(_rp_j2, _core_rp_j2, k_min=2, k_even=True, l_min=1,
                      split_value=_rsplit_jsq, split_core=_core_rsplit_jsq),
    }, plan_min=4, plan_step=2, plan_k=2),
}


def _budget(fields, k, l) -> dict:
    """The budget ``fields`` with their values."""
    return {name: l if name == "l" else k for name in fields}


def _check_collect(name, **budget):
    """Reject a budget below the minimum of the dataset kind's collector."""
    kind = _KINDS[name]
    kind.check_budget(f"{name} collection", budget, kind.collect_minimum or kind.minimum)


# --------------------------------------------------------------------------
# parameter composition
# --------------------------------------------------------------------------


def compose_parameter(parameter: Parameter, n: int, j2: Mapping, dj2: Mapping):
    """Combine per-direction blocks into the parameter value."""
    parameter = _as_parameter(parameter)
    kind = parameter.kind
    if kind is ParameterKind.A:
        return j2[Direction.X] + j2[Direction.Y] + j2[Direction.Z]
    if kind is ParameterKind.B:
        return dj2[Direction.X] + dj2[Direction.Y] + dj2[Direction.Z]
    ka, la, ma = parameter.axes
    if kind is ParameterKind.C:
        return j2[ka] + j2[la] - (n - 1) * dj2[ma]
    return (n - 1) * (dj2[ka] + dj2[la]) - j2[ma]


def _require(datasets, key, scheme):
    cls = _KINDS[key].cls
    try:
        ds = datasets[key]
    except (KeyError, TypeError):
        raise ValueError(
            f"scheme {scheme.value} needs a {key!r} dataset"
        ) from None
    if not isinstance(ds, cls):
        raise ValueError(
            f"dataset under {key!r} must be a {cls.__name__}, got {type(ds).__name__}"
        )
    return ds


def _array_ids(ds):
    ids = set()
    for name in ("outcomes", "first", "second", "slots"):
        blocks = getattr(ds, name, None)
        if blocks:
            ids.update(id(a) for a in blocks.values())
    return ids


def _check_independent(ds_a, ds_b, row):
    if ds_a is ds_b or (_array_ids(ds_a) & _array_ids(ds_b)):
        raise ValueError(
            f"{row.record!r} and {row.split!r} blocks must come from independent "
            "datasets, but the supplied objects share outcome data"
        )


def estimate_parameter(scheme, parameter: Parameter, datasets) -> EstimateResult:
    """Compose the unbiased parameter estimate for a scheme from datasets.

    ``datasets`` maps block names to dataset objects: ``total_spin`` (TS),
    ``pairs`` (AP1/AP2), ``split`` (AP2), ``random_pairs`` (RP1/RP2),
    ``random_split`` (RP2).  Blocks that the formulas require to be
    independent must not share underlying arrays.
    """
    scheme = Scheme(scheme)
    parameter = _as_parameter(parameter)
    row = _SCHEMES[scheme]
    record = _require(datasets, row.record, scheme)
    n = record.n_qubits
    budget = {name: getattr(record, name) for name in row.budget}
    blocks = _parameter_blocks(parameter)
    split = None
    if row.split is not None and any(block == "dj2" for _, block, _ in blocks):
        split = _require(datasets, row.split, scheme)
        _check_independent(record, split, row)
        if split.n_qubits != n:
            raise ValueError(f"{row.record!r} and {row.split!r} datasets disagree on N")
        for name, size in budget.items():
            if getattr(split, name) != size:
                raise ValueError(
                    f"{row.record!r} and {row.split!r} datasets disagree on {name.upper()}"
                )

    records = {row.record: record, row.split: split}
    value = _compose(row, parameter, n, budget.get("k"), budget.get("l"),
                     lambda name, axis, cross: _KINDS[name].sums(records[name], axis, cross))
    cost = sample_cost(scheme, parameter, n, **budget)
    return EstimateResult(scheme, parameter, float(value), cost, budget)


def _compose(row, parameter, n, k, l, sums):
    """The parameter estimate of a scheme ``row`` from per-direction sums.

    ``sums(kind, axis, cross)`` gives the integer sums of one direction of
    the dataset kind, reduced from a record or drawn; each direction's
    record sums come before its split sums, in the order of the parameter's
    blocks.
    """
    j2 = {}
    dj2 = {}
    for axis, block, _ in _parameter_blocks(parameter):
        rule = row.blocks[block]
        value = rule.value(n, k, l, *sums(row.record, axis, rule.cross))
        if rule.split_value is not None:
            value = value - rule.split_value(n, k, l, *sums(row.split, axis, False))
        (j2 if block == "j2" else dj2)[axis] = value
    return compose_parameter(parameter, n, j2, dj2)


def _count_trial(state, scheme, parameter: Parameter, *, k=None, l=None) -> Callable:
    """``draw(rng)``: one end-to-end estimate drawn from counts, not shots.

    Each direction's sums are drawn by the dataset kind's counts sampler
    with the law of the record ``collect_datasets`` would collect, so
    ``draw(rng)`` has the distribution of ``estimate_parameter(...,
    collect_datasets(..., rng, k=k, l=l)).value``.  The budget is checked
    here, as the collectors check it.
    """
    row = _SCHEMES[Scheme(scheme)]
    _check_collect(row.record, k=k, l=l)
    if row.split is not None and split_directions(parameter):
        _check_collect(row.split, k=k, l=l)
    n = state.n_qubits

    def draw(rng) -> float:
        return _compose(row, parameter, n, k, l,
                        lambda name, axis, cross: _KINDS[name].counts(state, axis, rng, cross, k, l))
    return draw


def sample_cost(scheme, parameter: Parameter, n: int, *, k=None, l=None) -> int:
    """Total state preparations a scheme consumes for a parameter."""
    row = _SCHEMES[Scheme(scheme)]
    fields = row.budget
    for name, value in (("k", k), ("l", l)):
        if name in fields and (value is None or value < 1):
            raise ValueError(f"budget {name} must be a positive integer")
    cost = len(DIRECTIONS) * _KINDS[row.record].preparations(n, k, l)
    if row.split is not None:
        cost += len(split_directions(parameter)) * _KINDS[row.split].preparations(n, k, l)
    return cost


# --------------------------------------------------------------------------
# CSV serialization
# --------------------------------------------------------------------------


def _columns(name) -> list:
    """The CSV columns of a dataset kind, in file order."""
    if name == "total_spin":
        return ["direction", "rep", "outcome2m"]
    kind = _KINDS[name]
    return (["slot"] * kind.random + ["direction", "i", "j", "rep"]
            + (["who", "who_s2"] if kind.split else ["si2", "sj2"]))


_WHO = ("first", "second")
# A text column is one character wider than its longest valid token, so a
# longer token that loadtxt truncates to this width is never a valid one.
_TEXT_COLUMNS = {"direction": "U2", "who": "U7"}


def _format_rows(row, columns) -> str:
    """The rows of ``row % values``, one per row of the integer ``columns``.

    ``row`` is a ``%d`` template of the whole block or of one row, which is
    repeated over the rows.
    """
    values = np.column_stack(columns)
    template = row * (values.size // row.count("%d"))
    return template % tuple(values.ravel().tolist())


def write_dataset(ds, dest, meta=None) -> None:
    """Write a dataset as CSV with a schema-version comment header.

    The format is described in the README: ``#`` lines end in ``\\n``, the
    column header and the data rows in ``\\r\\n``, and no cell is quoted.
    """
    if isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__"):
        with open(dest, "w", newline="") as fh:
            write_dataset(ds, fh, meta)
        return
    name = _KIND_NAMES[type(ds)]
    tokens = [f"schema={SCHEMA_VERSION}", f"kind={name}", f"n_qubits={ds.n_qubits}"]
    tokens.append(f"k={ds.k}")
    if hasattr(ds, "l"):
        tokens.append(f"l={ds.l}")
    dest.write("# spinsq-dataset " + " ".join(tokens) + "\n")
    for key, value in (meta or {}).items():
        dest.write(f"# {key}={value}\n")
    dest.write(",".join(_columns(name)) + "\r\n")
    if name == "total_spin":
        for axis, arr in ds.outcomes.items():
            dest.write(_format_rows(f"{axis.value},%d,%d\r\n", [np.arange(ds.k), arr]))
        return
    # rows in slot order, the repetitions of a slot consecutive; a split slot
    # has its first-member series, then its second-member series
    kind = _KINDS[name]
    for axis in ds.first:
        f, s = ds.first[axis], ds.second[axis]
        slots, reps = f.shape
        cells = ds.slots[axis] if kind.random else kind.cells(np.arange(slots), ds.n_qubits)
        lead = "%d," * kind.random + axis.value + ",%d,%d,%d,"  # [slot,] direction, i, j, rep
        per_slot = [np.arange(slots)] * kind.random + [cells[:, 0], cells[:, 1]]
        if kind.split:
            row = (lead + _WHO[0] + ",%d\r\n") * reps + (lead + _WHO[1] + ",%d\r\n") * reps
            rep = np.tile(np.arange(reps), 2 * slots)
            columns = [np.repeat(c, 2 * reps) for c in per_slot] + [rep, np.hstack([f, s]).ravel()]
        else:
            row = lead + "%d,%d\r\n"
            rep = np.tile(np.arange(reps), slots)
            columns = [np.repeat(c, reps) for c in per_slot] + [rep, f.ravel(), s.ravel()]
        dest.write(_format_rows(row, columns))


def _cells(shape, index, values, what):
    """An array of ``shape`` with ``values`` at the cells of the ``index`` columns.

    Every cell must be written exactly once.
    """
    try:
        flat = np.ravel_multi_index(tuple(index), shape)
    except ValueError:
        raise ValueError(f"{what}: an index is out of range") from None
    # the row count bounds the size before bincount allocates it
    size = math.prod(shape)
    if len(flat) != size or (np.bincount(flat, minlength=size) != 1).any():
        raise ValueError(f"{what}: a cell is missing or written twice")
    out = np.empty(size, dtype=np.int64)
    out[flat] = values
    return out.reshape(shape)


def _parse_rows(text, columns):
    """The data rows of ``text`` as a structured array with the named ``columns``."""
    # loadtxt skips blank lines; a row ends in \r\n, \r or \n
    if text.startswith(("\r", "\n")) or "\n\n" in text or "\n\r" in text or "\r\r" in text:
        raise ValueError("a row has too few columns: the file has a blank line")
    dtype = np.dtype([(c, _TEXT_COLUMNS.get(c, np.int64)) for c in columns])
    if not text:
        return np.empty(0, dtype)
    try:
        # usecols: cells after the last column are ignored
        return np.loadtxt(io.StringIO(text, newline=""), dtype=dtype, delimiter=",", comments=None,
                          usecols=range(len(columns)), ndmin=1)
    except ValueError as err:
        message = str(err)
        if message.startswith("invalid column index"):
            raise ValueError("a row has too few columns") from None
        if re.search(r"string '\s*[+-]?\d+\s*' to int64", message):
            raise ValueError("a value does not fit in int64") from None
        raise


def _directions(column):
    """``(axis, row mask)`` per direction of ``column``, in order of first row."""
    masks = {axis: column == axis.value for axis in DIRECTIONS}
    if not np.logical_or.reduce(list(masks.values())).all():
        raise ValueError("a direction cell is not x, y or z")
    first = {axis: rows.argmax() for axis, rows in masks.items() if rows.any()}
    return [(axis, masks[axis]) for axis in sorted(first, key=first.get)]


def _slot_of(i, j, cells, n):
    """The slot of each ``(i, j)`` among ``cells``, or -1 for a pair that is none."""
    lookup = np.full(n * n, -1)
    lookup[cells[:, 0] * n + cells[:, 1]] = np.arange(len(cells))
    inside = (i >= 0) & (i < n) & (j >= 0) & (j < n)
    return np.where(inside, lookup[np.where(inside, i * n + j, 0)], -1)


def _header_int(header, key):
    """The integer header field ``key``."""
    if key not in header:
        raise ValueError(f"dataset header has no {key} field")
    try:
        return int(header[key])
    except ValueError:
        raise ValueError(
            f"dataset header field {key} must be an integer, got {header[key]!r}"
        ) from None


def read_dataset(src):
    """Read a dataset written by :func:`write_dataset`."""
    if isinstance(src, (str, bytes)) or hasattr(src, "__fspath__"):
        with open(src, "r", newline="") as fh:
            return read_dataset(fh)
    header = {}
    line = src.readline()
    while line.startswith("#"):
        body = line[1:].strip()
        if body.startswith("spinsq-dataset"):
            for token in body.split()[1:]:
                key, _, value = token.partition("=")
                header[key] = value
        line = src.readline()
    if not header:
        raise ValueError("missing spinsq-dataset schema line")
    if header.get("schema") != str(SCHEMA_VERSION):
        raise ValueError(f"unsupported dataset schema {header.get('schema')!r}")
    kind = header.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    n = _header_int(header, "n_qubits")
    if n < 2:
        raise ValueError(f"dataset header field n_qubits must be at least 2, got {n}")
    k = _header_int(header, "k")
    l = _header_int(header, "l") if "l" in header else None
    if not line.strip():  # the column header may follow one blank line
        src.readline()
    columns = _columns(kind)
    table = _parse_rows(src.read(), columns)
    directions = _directions(table["direction"])

    if kind == "total_spin":
        blocks = {}
        for axis, rows in directions:
            rep, value = table["rep"][rows], table["outcome2m"][rows]
            blocks[axis] = _cells((k,), (rep,), value, f"direction {axis.value}")
        return TotalSpinDataset(n, blocks, k=k)

    row = _KINDS[kind]
    if row.random and l is None:
        raise ValueError(f"{kind} header needs l")
    i, j = table["i"], table["j"]
    if row.random:
        slot = table["slot"]
        cells = l
    else:
        cells = row.space(n)
        # the row count bounds N before the pair tables are built
        if cells > len(table):
            raise ValueError("a cell is missing or written twice")
        slot = _slot_of(i, j, row.cells(np.arange(cells), n), n)
    slots = {}
    first = {}
    second = {}
    for axis, rows in directions:
        what = f"direction {axis.value}"
        index = (slot[rows], table["rep"][rows])
        if row.split:
            who = np.select([table["who"][rows] == w for w in _WHO], [0, 1], -1)
            first[axis], second[axis] = _cells(
                (2, cells, k // 2), (who, *index), table["who_s2"][rows], what)
        else:
            first[axis] = _cells((cells, k), index, table["si2"][rows], what)
            second[axis] = _cells((cells, k), index, table["sj2"][rows], what)
        if row.random:
            # every slot has rows now, and all of them must name the same pair
            pair = np.stack([i[rows], j[rows]], axis=1)
            slots[axis] = np.empty((l, 2), dtype=np.int64)
            slots[axis][index[0]] = pair
            if (slots[axis][index[0]] != pair).any():
                raise ValueError(f"{what}: the rows of a slot name different pairs")
    return row.record(n, slots, first, second, k, l)
