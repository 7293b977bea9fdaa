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

Draw-order contract of the collectors: directions are consumed in the order
listed by the dataset (x, y, z unless a subset is requested); within a
direction, slots in ascending order with all repetitions of a slot
consecutive; split patterns consume the first-member series then the
second-member series of a slot; random patterns consume the slot-index
uniforms of a direction as one block before any outcome draws.  Each
direction's outcome uniforms are drawn as one block, which yields the same
stream, and the same record, as calling ``sample_total_spin``,
``sample_pair`` or ``sample_single`` once per slot in that order.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .states import (
    DIRECTIONS,
    Direction,
    _pair_cut_columns,
    _single_cuts,
    _total_spin_cuts,
)

SCHEMA_VERSION = 1


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


def split_directions(parameter: Parameter) -> tuple:
    """Directions whose variance block needs split-run data (AP2/RP2)."""
    kind = parameter.kind
    if kind is ParameterKind.A:
        return ()
    if kind is ParameterKind.B:
        return _DEFAULT_AXES
    if kind is ParameterKind.C:
        return (parameter.m_axis,)
    return (parameter.k_axis, parameter.l_axis)


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


def _check_signs(blocks, what):
    for axis, arr in blocks.items():
        if arr.size and not np.all(np.abs(arr) == 1):
            raise ValueError(f"{what} outcomes must be encoded ±1 ({axis.value})")


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


@dataclass(frozen=True)
class PairDataset:
    """Joint ±1 outcomes for every ordered distinct pair, K repetitions."""

    n_qubits: int
    first: Mapping[Direction, np.ndarray]
    second: Mapping[Direction, np.ndarray]
    k: int = field(default=0)

    def __post_init__(self):
        first = _freeze_blocks(self.first)
        second = _freeze_blocks(self.second)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        if set(first) != set(second):
            raise ValueError("first/second blocks cover different directions")
        k = self.k or next(iter(first.values())).shape[1]
        object.__setattr__(self, "k", int(k))
        if self.k < 1:
            raise ValueError("pair data needs K >= 1")
        m = self.n_qubits * (self.n_qubits - 1)
        for axis in first:
            if first[axis].shape != (m, self.k) or second[axis].shape != (m, self.k):
                raise ValueError(
                    f"direction {axis.value}: expected shape ({m}, {self.k})"
                )
        _check_signs(first, "pair")
        _check_signs(second, "pair")


@dataclass(frozen=True)
class SplitSingleDataset:
    """Per cell (i, j) of the full index square: K/2 outcomes of qubit i from
    one run series and K/2 outcomes of qubit j from a disjoint series."""

    n_qubits: int
    first: Mapping[Direction, np.ndarray]
    second: Mapping[Direction, np.ndarray]
    k: int

    def __post_init__(self):
        if self.k < 2 or self.k % 2:
            raise ValueError("split data needs an even K >= 2")
        first = _freeze_blocks(self.first)
        second = _freeze_blocks(self.second)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        if set(first) != set(second):
            raise ValueError("first/second blocks cover different directions")
        cells = self.n_qubits * self.n_qubits
        half = self.k // 2
        for axis in first:
            if first[axis].shape != (cells, half) or second[axis].shape != (cells, half):
                raise ValueError(
                    f"direction {axis.value}: expected shape ({cells}, {half})"
                )
        _check_signs(first, "split")
        _check_signs(second, "split")


@dataclass(frozen=True)
class RandomPairDataset:
    """L random distinct ordered pairs per direction, K repetitions each."""

    n_qubits: int
    slots: Mapping[Direction, np.ndarray]
    first: Mapping[Direction, np.ndarray]
    second: Mapping[Direction, np.ndarray]
    l: int = field(default=0)
    k: int = field(default=0)

    def __post_init__(self):
        slots = _freeze_blocks(self.slots)
        first = _freeze_blocks(self.first)
        second = _freeze_blocks(self.second)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        if not (set(slots) == set(first) == set(second)):
            raise ValueError("slot/outcome blocks cover different directions")
        some = next(iter(first.values()))
        l = self.l or some.shape[0]
        k = self.k or some.shape[1]
        object.__setattr__(self, "l", int(l))
        object.__setattr__(self, "k", int(k))
        if self.l < 2:
            raise ValueError("random-pair data needs L >= 2 sampled slots")
        if self.k < 1:
            raise ValueError("random-pair data needs K >= 1")
        n = self.n_qubits
        for axis in slots:
            s = slots[axis]
            if s.shape != (self.l, 2):
                raise ValueError(f"direction {axis.value}: slots must be (L, 2)")
            if s.min() < 0 or s.max() >= n or (s[:, 0] == s[:, 1]).any():
                raise ValueError(
                    f"direction {axis.value}: slots must be distinct pairs in range"
                )
            if first[axis].shape != (self.l, self.k) or second[axis].shape != (
                self.l,
                self.k,
            ):
                raise ValueError(
                    f"direction {axis.value}: expected shape ({self.l}, {self.k})"
                )
        _check_signs(first, "random-pair")
        _check_signs(second, "random-pair")


@dataclass(frozen=True)
class RandomSplitDataset:
    """L random cells of the full index square with split K/2 + K/2 runs."""

    n_qubits: int
    slots: Mapping[Direction, np.ndarray]
    first: Mapping[Direction, np.ndarray]
    second: Mapping[Direction, np.ndarray]
    l: int = field(default=0)
    k: int = field(default=0)

    def __post_init__(self):
        slots = _freeze_blocks(self.slots)
        first = _freeze_blocks(self.first)
        second = _freeze_blocks(self.second)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        if not (set(slots) == set(first) == set(second)):
            raise ValueError("slot/outcome blocks cover different directions")
        some = next(iter(first.values()))
        l = self.l or some.shape[0]
        k = self.k or 2 * some.shape[1]
        object.__setattr__(self, "l", int(l))
        object.__setattr__(self, "k", int(k))
        if self.l < 1:
            raise ValueError("random-split data needs L >= 1")
        if self.k < 2 or self.k % 2:
            raise ValueError("random-split data needs an even K >= 2")
        n = self.n_qubits
        half = self.k // 2
        for axis in slots:
            s = slots[axis]
            if s.shape != (self.l, 2) or s.min() < 0 or s.max() >= n:
                raise ValueError(
                    f"direction {axis.value}: slots must be (L, 2) index pairs"
                )
            if first[axis].shape != (self.l, half) or second[axis].shape != (
                self.l,
                half,
            ):
                raise ValueError(
                    f"direction {axis.value}: expected shape ({self.l}, {half})"
                )
        _check_signs(first, "random-split")
        _check_signs(second, "random-split")


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
    if k is None or k < 2:
        raise ValueError("total-spin collection needs K >= 2")
    n = state.n_qubits
    blocks = {}
    for axis in DIRECTIONS:
        g = _categories(_total_spin_cuts(state, axis), rng.random(k))
        blocks[axis] = 2 * g.astype(np.int64) - n  # category g encodes 2m = 2g - N
    return TotalSpinDataset(n, blocks, k=k)


def collect_all_pairs(state, k, rng) -> PairDataset:
    """K joint outcomes for each ordered distinct pair and direction."""
    if k is None or k < 2:
        raise ValueError("all-pairs collection needs K >= 2")
    n = state.n_qubits
    first = {}
    second = {}
    for axis in DIRECTIONS:
        cuts = [c[:, None] for c in _pair_cut_columns(state, axis)]
        u = rng.random((n * (n - 1), k))
        first[axis], second[axis] = _pair_outcomes(cuts, u)
    return PairDataset(n, first, second, k=k)


def collect_split_single(state, k, rng, directions=DIRECTIONS) -> SplitSingleDataset:
    """Split single-qubit runs over the full index square (K even)."""
    if k is None or k < 2 or k % 2:
        raise ValueError("split collection needs an even K >= 2")
    n = state.n_qubits
    half = k // 2
    first = {}
    second = {}
    for axis in directions:
        axis = Direction(axis)
        cuts = _single_cuts(state, axis)
        u = rng.random((n, n, k))  # cell (i, j) is slot i * n + j
        f = _single_outcomes(cuts[:, None, None], u[:, :, :half])
        s = _single_outcomes(cuts[None, :, None], u[:, :, half:])
        first[axis], second[axis] = f.reshape(n * n, half), s.reshape(n * n, half)
    return SplitSingleDataset(n, first, second, k=k)


def collect_random_pairs(state, l, k, rng) -> RandomPairDataset:
    """L uniformly random distinct ordered pairs per direction, K reps each.

    One uniform per slot indexes the N(N-1) ordered-pair cells directly, so
    the draw count is fixed and the cell distribution exactly uniform.
    """
    if l is None or l < 2:
        raise ValueError("random-pair collection needs L >= 2")
    if k is None or k < 1:
        raise ValueError("random-pair collection needs K >= 1")
    n = state.n_qubits
    slots = {}
    first = {}
    second = {}
    for axis in DIRECTIONS:
        idx = _random_slots(rng, l, n * (n - 1))
        cuts = [c[idx][:, None] for c in _pair_cut_columns(state, axis)]
        first[axis], second[axis] = _pair_outcomes(cuts, rng.random((l, k)))
        slots[axis] = _ordered_pair_slots(idx, n)
    return RandomPairDataset(n, slots, first, second, l=l, k=k)


def collect_random_split(state, l, k, rng, directions=DIRECTIONS) -> RandomSplitDataset:
    """L uniformly random cells of the full N^2 square with split runs."""
    if l is None or l < 1:
        raise ValueError("random-split collection needs L >= 1")
    if k is None or k < 2 or k % 2:
        raise ValueError("random-split collection needs an even K >= 2")
    n = state.n_qubits
    half = k // 2
    slots = {}
    first = {}
    second = {}
    for axis in directions:
        axis = Direction(axis)
        idx = _random_slots(rng, l, n * n)
        cuts = _single_cuts(state, axis)
        u = rng.random((l, k))
        first[axis] = _single_outcomes(cuts[idx // n][:, None], u[:, :half])
        second[axis] = _single_outcomes(cuts[idx % n][:, None], u[:, half:])
        slots[axis] = _square_slots(idx, n)
    return RandomSplitDataset(n, slots, first, second, l=l, k=k)


def collect_datasets(state, scheme, parameter, rng, *, k=None, l=None) -> dict:
    """Collect exactly the datasets `estimate_parameter` needs for a scheme.

    Split-run data is collected only for the directions whose variance block
    the parameter uses, so the preparations consumed equal
    ``sample_cost(scheme, parameter, N, ...)``.
    """
    scheme = Scheme(scheme)
    if scheme is Scheme.TS:
        return {"total_spin": collect_total_spin(state, k, rng)}
    if scheme is Scheme.AP1:
        return {"pairs": collect_all_pairs(state, k, rng)}
    if scheme is Scheme.AP2:
        out = {"pairs": collect_all_pairs(state, k, rng)}
        dirs = split_directions(parameter)
        if dirs:
            out["split"] = collect_split_single(state, k, rng, directions=dirs)
        return out
    if scheme is Scheme.RP1:
        return {"random_pairs": collect_random_pairs(state, l, k, rng)}
    out = {"random_pairs": collect_random_pairs(state, l, k, rng)}
    dirs = split_directions(parameter)
    if dirs:
        out["random_split"] = collect_random_split(state, l, k, rng, directions=dirs)
    return out


# --------------------------------------------------------------------------
# estimator cores (exact integers, one final division)
# --------------------------------------------------------------------------


def _ts_j2(s2_sum, k):
    return s2_sum / (4 * k)


def _ts_dj2(s1_sum, s2_sum, k):
    return (k * s2_sum - s1_sum * s1_sum) / (4 * k * (k - 1))


def _ap_j2(prod, n, k):
    return (n * k + prod) / (4 * k)


def _ap_dj2(prod, sa, sb, sab, n, k):
    d = (n - 1) * (n - 1)
    return ((n * k + prod) * (k - 1) * d - (sa * sb - sab)) / (4 * k * (k - 1) * d)


def _split_jsq(prod, k):
    return prod / (2 * k)


def _rp_j2(prod, n, k, l):
    return (n * k * l + n * (n - 1) * prod) / (4 * k * l)


def _rp_dj2(prod, sa, sb, sab, n, k, l):
    return (
        n * k * k * l * (l - 1)
        + n * (n - 1) * prod * k * (l - 1)
        - n * n * (sa * sb - sab)
    ) / (4 * k * k * l * (l - 1))


def _rsplit_jsq(prod, n, k, l):
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
# estimator operations
# --------------------------------------------------------------------------


def est_J2_ts(ds: TotalSpinDataset, axis) -> float:
    """Sample mean of m^2 for one direction."""
    axis = _axis_block(ds, ("outcomes",), axis, "total-spin")
    arr = ds.outcomes[axis]
    return _ts_j2(int((arr * arr).sum()), ds.k)


def est_deltaJ2_ts(ds: TotalSpinDataset, axis) -> float:
    """Unbiased sample variance of m for one direction."""
    axis = _axis_block(ds, ("outcomes",), axis, "total-spin")
    if ds.k < 2:
        raise ValueError("sample variance needs K >= 2")
    arr = ds.outcomes[axis]
    return _ts_dj2(int(arr.sum()), int((arr * arr).sum()), ds.k)


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


def est_J2_ap(ds: PairDataset, axis) -> float:
    """Second-moment estimate from all ordered-pair products."""
    axis = _axis_block(ds, ("first", "second"), axis, "pair")
    return _ap_j2(_product_sum(ds, axis), ds.n_qubits, ds.k)


def est_deltaJ2_ap(ds: PairDataset, axis) -> float:
    """Variance estimate from pair products plus the factored cross term.

    The cross sum over slot pairs and distinct repetitions is evaluated via
    sum_{k!=l} A_k B_l = (sum A)(sum B) - sum A_k B_k with A_k/B_k the
    per-repetition slot sums of first/second members.
    """
    axis = _axis_block(ds, ("first", "second"), axis, "pair")
    if ds.k < 2:
        raise ValueError("pair variance estimate needs K >= 2")
    return _ap_dj2(*_cross_sums(ds, axis, 0), ds.n_qubits, ds.k)


def est_Jsq_split(ds: SplitSingleDataset, axis) -> float:
    """Squared-first-moment estimate from split single-qubit products."""
    axis = _axis_block(ds, ("first", "second"), axis, "split")
    return _split_jsq(_product_sum(ds, axis), ds.k)


def est_J2_rp(ds: RandomPairDataset, axis) -> float:
    """Second-moment estimate from randomly sampled pair slots."""
    axis = _axis_block(ds, ("first", "second"), axis, "random-pair")
    return _rp_j2(_product_sum(ds, axis), ds.n_qubits, ds.k, ds.l)


def est_deltaJ2_rp(ds: RandomPairDataset, axis) -> float:
    """Variance estimate for random pairs; cross term factored per slot."""
    axis = _axis_block(ds, ("first", "second"), axis, "random-pair")
    if ds.l < 2:
        raise ValueError("random-pair variance estimate needs L >= 2")
    return _rp_dj2(*_cross_sums(ds, axis, 1), ds.n_qubits, ds.k, ds.l)


def est_Jsq_rsplit(ds: RandomSplitDataset, axis) -> float:
    """Squared-first-moment estimate from random split cells."""
    axis = _axis_block(ds, ("first", "second"), axis, "random-split")
    return _rsplit_jsq(_product_sum(ds, axis), ds.n_qubits, ds.k, ds.l)


# --------------------------------------------------------------------------
# parameter composition
# --------------------------------------------------------------------------


def compose_parameter(parameter: Parameter, n: int, j2: Mapping, dj2: Mapping):
    """Combine per-direction blocks into the parameter value."""
    kind = parameter.kind
    if kind is ParameterKind.A:
        return j2[Direction.X] + j2[Direction.Y] + j2[Direction.Z]
    if kind is ParameterKind.B:
        return dj2[Direction.X] + dj2[Direction.Y] + dj2[Direction.Z]
    ka, la, ma = parameter.axes
    if kind is ParameterKind.C:
        return j2[ka] + j2[la] - (n - 1) * dj2[ma]
    return (n - 1) * (dj2[ka] + dj2[la]) - j2[ma]


def _needed_blocks(parameter: Parameter):
    kind = parameter.kind
    if kind is ParameterKind.A:
        return list(_DEFAULT_AXES), []
    if kind is ParameterKind.B:
        return [], list(_DEFAULT_AXES)
    if kind is ParameterKind.C:
        return [parameter.k_axis, parameter.l_axis], [parameter.m_axis]
    return [parameter.m_axis], [parameter.k_axis, parameter.l_axis]


def _require(datasets, key, cls, scheme):
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


def _check_independent(ds_a, ds_b, label):
    if ds_a is ds_b or (_array_ids(ds_a) & _array_ids(ds_b)):
        raise ValueError(
            f"{label} must come from independent datasets, but the supplied "
            "objects share outcome data"
        )


def estimate_parameter(scheme, parameter: Parameter, datasets) -> EstimateResult:
    """Compose the unbiased parameter estimate for a scheme from datasets.

    ``datasets`` maps block names to dataset objects: ``total_spin`` (TS),
    ``pairs`` (AP1/AP2), ``split`` (AP2), ``random_pairs`` (RP1/RP2),
    ``random_split`` (RP2).  Blocks that the formulas require to be
    independent must not share underlying arrays.
    """
    scheme = Scheme(scheme)
    j2_axes, dj2_axes = _needed_blocks(parameter)
    j2 = {}
    dj2 = {}

    if scheme is Scheme.TS:
        ds = _require(datasets, "total_spin", TotalSpinDataset, scheme)
        n = ds.n_qubits
        for axis in j2_axes:
            j2[axis] = est_J2_ts(ds, axis)
        for axis in dj2_axes:
            dj2[axis] = est_deltaJ2_ts(ds, axis)
        budget = {"k": ds.k}
    elif scheme in (Scheme.AP1, Scheme.AP2):
        pairs = _require(datasets, "pairs", PairDataset, scheme)
        n = pairs.n_qubits
        for axis in j2_axes:
            j2[axis] = est_J2_ap(pairs, axis)
        if scheme is Scheme.AP1:
            for axis in dj2_axes:
                dj2[axis] = est_deltaJ2_ap(pairs, axis)
        elif dj2_axes:
            split = _require(datasets, "split", SplitSingleDataset, scheme)
            _check_independent(pairs, split, "pair and split blocks")
            if split.n_qubits != n:
                raise ValueError("pair and split datasets disagree on N")
            if split.k != pairs.k:
                raise ValueError("pair and split datasets disagree on K")
            for axis in dj2_axes:
                dj2[axis] = est_J2_ap(pairs, axis) - est_Jsq_split(split, axis)
        budget = {"k": pairs.k}
    elif scheme in (Scheme.RP1, Scheme.RP2):
        pairs = _require(datasets, "random_pairs", RandomPairDataset, scheme)
        n = pairs.n_qubits
        for axis in j2_axes:
            j2[axis] = est_J2_rp(pairs, axis)
        if scheme is Scheme.RP1:
            for axis in dj2_axes:
                dj2[axis] = est_deltaJ2_rp(pairs, axis)
        elif dj2_axes:
            split = _require(datasets, "random_split", RandomSplitDataset, scheme)
            _check_independent(pairs, split, "random pair and split blocks")
            if split.n_qubits != n:
                raise ValueError("random pair and split datasets disagree on N")
            if (split.l, split.k) != (pairs.l, pairs.k):
                raise ValueError("random pair and split datasets disagree on (L, K)")
            for axis in dj2_axes:
                dj2[axis] = est_J2_rp(pairs, axis) - est_Jsq_rsplit(split, axis)
        budget = {"l": pairs.l, "k": pairs.k}
    else:  # pragma: no cover
        raise ValueError(f"unknown scheme {scheme}")

    value = compose_parameter(parameter, n, j2, dj2)
    cost = sample_cost(scheme, parameter, n, **budget)
    return EstimateResult(scheme, parameter, float(value), cost, budget)


_SPLIT_DIRECTION_COUNT = {
    ParameterKind.A: 0,
    ParameterKind.B: 3,
    ParameterKind.C: 1,
    ParameterKind.D: 2,
}


def sample_cost(scheme, parameter: Parameter, n: int, *, k=None, l=None) -> int:
    """Total state preparations a scheme consumes for a parameter."""
    scheme = Scheme(scheme)
    n_split = _SPLIT_DIRECTION_COUNT[parameter.kind]
    if scheme is Scheme.TS:
        _need_budget(k=k)
        return 3 * k
    if scheme is Scheme.AP1:
        _need_budget(k=k)
        return 3 * n * (n - 1) * k
    if scheme is Scheme.AP2:
        _need_budget(k=k)
        return 3 * n * (n - 1) * k + n_split * n * n * k
    if scheme is Scheme.RP1:
        _need_budget(k=k, l=l)
        return 3 * l * k
    _need_budget(k=k, l=l)
    return 3 * l * k + n_split * l * k


def _need_budget(**kwargs):
    for name, value in kwargs.items():
        if value is None or value < 1:
            raise ValueError(f"budget {name} must be a positive integer")


# --------------------------------------------------------------------------
# CSV serialization
# --------------------------------------------------------------------------

_KIND_NAMES = {
    TotalSpinDataset: "total_spin",
    PairDataset: "pairs",
    SplitSingleDataset: "split",
    RandomPairDataset: "random_pairs",
    RandomSplitDataset: "random_split",
}


def write_dataset(ds, dest, meta=None) -> None:
    """Write a dataset as CSV with a schema-version comment header."""
    if isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__"):
        with open(dest, "w", newline="") as fh:
            write_dataset(ds, fh, meta)
        return
    kind = _KIND_NAMES[type(ds)]
    tokens = [f"schema={SCHEMA_VERSION}", f"kind={kind}", f"n_qubits={ds.n_qubits}"]
    tokens.append(f"k={ds.k}")
    if hasattr(ds, "l"):
        tokens.append(f"l={ds.l}")
    dest.write("# spinsq-dataset " + " ".join(tokens) + "\n")
    for key, value in (meta or {}).items():
        dest.write(f"# {key}={value}\n")
    writer = csv.writer(dest)
    if isinstance(ds, TotalSpinDataset):
        writer.writerow(["direction", "rep", "outcome2m"])
        for axis, arr in ds.outcomes.items():
            for rep, v in enumerate(arr):
                writer.writerow([axis.value, rep, int(v)])
    elif isinstance(ds, PairDataset):
        writer.writerow(["direction", "i", "j", "rep", "si2", "sj2"])
        pairs = ordered_pairs(ds.n_qubits)
        for axis in ds.first:
            f, s = ds.first[axis], ds.second[axis]
            for slot, (i, j) in enumerate(pairs):
                for rep in range(ds.k):
                    writer.writerow(
                        [axis.value, int(i), int(j), rep, int(f[slot, rep]), int(s[slot, rep])]
                    )
    elif isinstance(ds, SplitSingleDataset):
        writer.writerow(["direction", "i", "j", "rep", "who", "who_s2"])
        cells = square_pairs(ds.n_qubits)
        for axis in ds.first:
            f, s = ds.first[axis], ds.second[axis]
            for slot, (i, j) in enumerate(cells):
                for rep in range(ds.k // 2):
                    writer.writerow([axis.value, int(i), int(j), rep, "first", int(f[slot, rep])])
                for rep in range(ds.k // 2):
                    writer.writerow([axis.value, int(i), int(j), rep, "second", int(s[slot, rep])])
    elif isinstance(ds, RandomPairDataset):
        writer.writerow(["slot", "direction", "i", "j", "rep", "si2", "sj2"])
        for axis in ds.first:
            f, s = ds.first[axis], ds.second[axis]
            for slot, (i, j) in enumerate(ds.slots[axis]):
                for rep in range(ds.k):
                    writer.writerow(
                        [slot, axis.value, int(i), int(j), rep, int(f[slot, rep]), int(s[slot, rep])]
                    )
    elif isinstance(ds, RandomSplitDataset):
        writer.writerow(["slot", "direction", "i", "j", "rep", "who", "who_s2"])
        for axis in ds.first:
            f, s = ds.first[axis], ds.second[axis]
            for slot, (i, j) in enumerate(ds.slots[axis]):
                for rep in range(ds.k // 2):
                    writer.writerow([slot, axis.value, int(i), int(j), rep, "first", int(f[slot, rep])])
                for rep in range(ds.k // 2):
                    writer.writerow([slot, axis.value, int(i), int(j), rep, "second", int(s[slot, rep])])
    else:  # pragma: no cover
        raise ValueError(f"cannot serialize {type(ds).__name__}")


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
    n = int(header["n_qubits"])
    k = int(header.get("k", 0))
    l = int(header["l"]) if "l" in header else None
    rows = list(csv.reader(io.StringIO(line)))[0] if line.strip() else []
    reader = csv.reader(src)
    table = [rows] if rows else []
    header_row, *data = table + list(reader)

    def _by_direction():
        out = {}
        for row in data:
            out.setdefault(row[0], []).append(row[1:])
        return out

    if kind == "total_spin":
        blocks = {}
        for axis, items in _by_direction().items():
            arr = np.empty(k, dtype=np.int64)
            for rep, value in ((int(r[0]), int(r[1])) for r in items):
                arr[rep] = value
            blocks[axis] = arr
        return TotalSpinDataset(n, {Direction(a): v for a, v in blocks.items()}, k=k)

    if kind in ("pairs", "split"):
        slot_of = {
            (int(i), int(j)): s
            for s, (i, j) in enumerate(
                ordered_pairs(n) if kind == "pairs" else square_pairs(n)
            )
        }
        cols = len(slot_of)
        width = k if kind == "pairs" else k // 2
        first = {}
        second = {}
        for axis, items in _by_direction().items():
            f = np.empty((cols, width), dtype=np.int64)
            s = np.empty((cols, width), dtype=np.int64)
            for row in items:
                slot = slot_of[(int(row[0]), int(row[1]))]
                rep = int(row[2])
                if kind == "pairs":
                    f[slot, rep] = int(row[3])
                    s[slot, rep] = int(row[4])
                elif row[3] == "first":
                    f[slot, rep] = int(row[4])
                else:
                    s[slot, rep] = int(row[4])
            first[Direction(axis)] = f
            second[Direction(axis)] = s
        if kind == "pairs":
            return PairDataset(n, first, second, k=k)
        return SplitSingleDataset(n, first, second, k=k)

    if kind in ("random_pairs", "random_split"):
        width = k if kind == "random_pairs" else k // 2
        per_dir = {}
        for row in data:
            slot, axis = int(row[0]), row[1]
            per_dir.setdefault(axis, {}).setdefault(slot, []).append(row[2:])
        slots = {}
        first = {}
        second = {}
        for axis, by_slot in per_dir.items():
            sl = np.empty((l, 2), dtype=np.int64)
            f = np.empty((l, width), dtype=np.int64)
            s = np.empty((l, width), dtype=np.int64)
            for slot, items in by_slot.items():
                sl[slot] = (int(items[0][0]), int(items[0][1]))
                for row in items:
                    rep = int(row[2])
                    if kind == "random_pairs":
                        f[slot, rep] = int(row[3])
                        s[slot, rep] = int(row[4])
                    elif row[3] == "first":
                        f[slot, rep] = int(row[4])
                    else:
                        s[slot, rep] = int(row[4])
            slots[Direction(axis)] = sl
            first[Direction(axis)] = f
            second[Direction(axis)] = s
        if kind == "random_pairs":
            return RandomPairDataset(n, slots, first, second, l=l, k=k)
        return RandomSplitDataset(n, slots, first, second, l=l, k=k)

    raise ValueError(f"unknown dataset kind {kind!r}")
