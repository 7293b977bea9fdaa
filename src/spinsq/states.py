"""Benchmark quantum states with exact moments and measurement samplers.

The models here provide everything the estimator schemes and the analytic
variance engine consume:

* collective moments ``<J_a^n>`` up to fourth order,
* single-qubit expectations ``<sigma_a^(i)>``,
* two-qubit correlations ``<sigma_a^(i) sigma_a^(j)>``,
* the exact outcome distribution of a collective ``J_a`` measurement,
* the cached cut tables and slot classes the collectors and counts
  samplers of :mod:`spinsq.schemes` draw from.

Outcomes are integer encoded: a collective result ``m`` is stored as ``2m``
and a single-qubit result ``s = +-1/2`` as ``2s`` in ``{-1, +1}``, so that
estimator arithmetic downstream stays exact until the final division.

The analytic models (Dicke, many-body singlet, depolarized mixtures of
them) keep their moment data as exact rationals.  The dense state-vector
backend works in float64 and doubles as an independent oracle for the
analytic ones; it is capped at ``N_MAX_DENSE`` qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "Direction",
    "DIRECTIONS",
    "N_MAX_DENSE",
    "StateModel",
    "DickeState",
    "ManyBodySinglet",
    "DepolarizedMixture",
    "DenseState",
    "MomentTable",
    "moment",
    "single_expectation",
    "pair_correlation",
    "total_spin_distribution",
    "moment_table",
    "outcome_grid",
    "joint_pair_cuts",
]

N_MAX_DENSE = 14


class Direction(Enum):
    """Measurement axis; used wherever a formula ranges over x, y, z."""

    X = "x"
    Y = "y"
    Z = "z"


DIRECTIONS = (Direction.X, Direction.Y, Direction.Z)


def outcome_grid(n_qubits: int) -> np.ndarray:
    """Encoded collective outcomes ``2m`` for ``n_qubits``, ascending."""
    return np.arange(-n_qubits, n_qubits + 1, 2, dtype=np.int64)


def _check_axis(axis) -> Direction:
    if not isinstance(axis, Direction):
        raise ValueError(f"axis must be a Direction, got {axis!r}")
    return axis


# ---------------------------------------------------------------------------
# state models
# ---------------------------------------------------------------------------


class StateModel:
    """Common interface of all benchmark states.

    Subclasses implement ``_moments``, ``_singles``, ``_pairs`` and
    ``_distribution``; the exact-rational models return Fractions/ints in
    the first three, the dense backend returns float64.  Instances are
    immutable after construction and safe for concurrent reads.
    """

    n_qubits: int

    def _moments(self, axis: Direction):
        raise NotImplementedError

    def _singles(self, axis: Direction) -> np.ndarray:
        raise NotImplementedError

    def _pairs(self, axis: Direction) -> np.ndarray:
        raise NotImplementedError

    def _distribution(self, axis: Direction) -> np.ndarray:
        raise NotImplementedError


def _const_object_array(n: int, value) -> np.ndarray:
    out = np.empty(n, dtype=object)
    out[:] = value
    return out


def _pair_object_matrix(n: int, off_value) -> np.ndarray:
    out = np.empty((n, n), dtype=object)
    out[:] = off_value
    for i in range(n):
        out[i, i] = 1
    return out


@lru_cache(maxsize=None)
def _dicke_transverse_probs(n: int, m: int) -> tuple[float, ...]:
    """Outcome distribution of a transverse collective measurement.

    The state lives in the (n+1)-dimensional symmetric subspace, where the
    transverse component is a tridiagonal matrix; its eigenbasis gives the
    exact Born weights at any n without touching the 2^n space.  The x and
    y distributions coincide because the state is invariant (up to phase)
    under rotations about z.
    """
    j = 0.5 * n
    mu = 0.5 * np.arange(-n, n + 1, 2, dtype=np.float64)
    off = 0.5 * np.sqrt(j * (j + 1) - mu[:-1] * (mu[:-1] + 1.0))
    w, vec = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    if not np.allclose(w, mu, atol=1e-8):
        raise AssertionError("transverse spectrum drifted off the half-integer grid")
    probs = np.clip(vec[n - m, :] ** 2, 0.0, None)
    return tuple(probs / probs.sum())


@dataclass(frozen=True)
class DickeState(StateModel):
    """Symmetric state of ``n_qubits`` with a fixed number of excitations."""

    n_qubits: int
    excitations: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if not 0 <= self.excitations <= self.n_qubits:
            raise ValueError(
                f"excitations must lie in [0, {self.n_qubits}], got {self.excitations}"
            )

    def _moments(self, axis):
        n, m = self.n_qubits, self.excitations
        if axis is Direction.Z:
            jz = Fraction(n, 2) - m
            return (jz, jz**2, jz**3, jz**4)
        j2 = Fraction(n, 4) + Fraction(m * (n - m), 2)
        j4 = Fraction(
            n * (3 * n - 2)
            + 4 * (3 * n - 4) * m * (n - m)
            + 6 * m * (m - 1) * (n - m - 1) * (n - m),
            16,
        )
        return (0, j2, 0, j4)

    def _singles(self, axis):
        n, m = self.n_qubits, self.excitations
        if axis is Direction.Z:
            # permutation symmetry: every qubit carries 2<J_z>/N
            return _const_object_array(n, Fraction(n - 2 * m, n))
        return _const_object_array(n, 0)

    def _pairs(self, axis):
        n, m = self.n_qubits, self.excitations
        if n == 1:
            return _pair_object_matrix(1, 0)
        if axis is Direction.Z:
            off = Fraction((n - 2 * m) ** 2 - n, n * (n - 1))
        else:
            off = Fraction(2 * m * (n - m), n * (n - 1))
        return _pair_object_matrix(n, off)

    def _distribution(self, axis):
        n, m = self.n_qubits, self.excitations
        if axis is Direction.Z:
            probs = np.zeros(n + 1)
            probs[n - m] = 1.0  # eigenstate: encoded outcome n - 2m
            return probs
        return np.array(_dicke_transverse_probs(n, m))


@dataclass(frozen=True)
class ManyBodySinglet(StateModel):
    """Tensor product of two-qubit singlets on pairs (0,1), (2,3), ...

    All collective angular-momentum moments vanish; qubits bonded in a pair
    are perfectly anticorrelated along every axis.
    """

    n_qubits: int

    def __post_init__(self):
        if self.n_qubits < 2 or self.n_qubits % 2:
            raise ValueError("the many-body singlet needs an even number of qubits >= 2")

    def _moments(self, axis):
        return (0, 0, 0, 0)

    def _singles(self, axis):
        return _const_object_array(self.n_qubits, 0)

    def _pairs(self, axis):
        out = _pair_object_matrix(self.n_qubits, 0)
        for a in range(0, self.n_qubits, 2):
            out[a, a + 1] = out[a + 1, a] = -1
        return out

    def _distribution(self, axis):
        probs = np.zeros(self.n_qubits + 1)
        probs[self.n_qubits // 2] = 1.0  # point mass at outcome 0
        return probs


def _mm_moments(n: int):
    # maximally mixed state: n independent fair-coin spins
    return (0, Fraction(n, 4), 0, Fraction(n * (3 * n - 2), 16))


@lru_cache(maxsize=None)
def _mm_distribution(n: int) -> tuple[float, ...]:
    return tuple(math.comb(n, g) / 2**n for g in range(n + 1))


class DepolarizedMixture(StateModel):
    """Convex mixture of a pure benchmark state with the maximally mixed state.

    Every linear functional interpolates:
    ``f(rho) = visibility * f(base) + (1 - visibility) * f(mixed)``.
    """

    def __init__(self, base: StateModel, visibility):
        if isinstance(base, DepolarizedMixture):
            raise ValueError("base state must be pure; nest the visibility instead")
        if not isinstance(base, StateModel):
            raise ValueError("base must be a StateModel")
        if not 0 <= visibility <= 1:
            raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
        self.base = base
        self.visibility = visibility

    @property
    def n_qubits(self) -> int:
        return self.base.n_qubits

    def __repr__(self):
        return f"DepolarizedMixture({self.base!r}, {self.visibility})"

    def _moments(self, axis):
        p = self.visibility
        mm = _mm_moments(self.n_qubits)
        return tuple(p * b + (1 - p) * m for b, m in zip(self.base._moments(axis), mm))

    def _singles(self, axis):
        return self.base._singles(axis) * self.visibility

    def _pairs(self, axis):
        out = self.base._pairs(axis) * self.visibility
        for i in range(self.n_qubits):
            out[i, i] = 1  # sigma^2 = 1 survives any mixing
        return out

    def _distribution(self, axis):
        p = float(self.visibility)
        mm = np.array(_mm_distribution(self.n_qubits))
        return p * self.base._distribution(axis) + (1.0 - p) * mm


# single-qubit rotations taking the measurement eigenbasis to the
# computational one (rows are the eigenbras, + outcome first)
_SQRT2 = 1.0 / math.sqrt(2.0)
_ROTATIONS = {
    Direction.X: np.array([[_SQRT2, _SQRT2], [_SQRT2, -_SQRT2]], dtype=np.complex128),
    Direction.Y: np.array([[_SQRT2, -1j * _SQRT2], [_SQRT2, 1j * _SQRT2]]),
    Direction.Z: None,
}


@lru_cache(maxsize=None)
def _bit_signs(n: int, qubit: int) -> np.ndarray:
    idx = np.arange(1 << n)
    return (1 - 2 * ((idx >> (n - 1 - qubit)) & 1)).astype(np.int64)


@lru_cache(maxsize=None)
def _popcounts(n: int) -> np.ndarray:
    idx = np.arange(1 << n)
    h = np.zeros(1 << n, dtype=np.int64)
    for q in range(n):
        h += (idx >> q) & 1
    return h


class DenseState(StateModel):
    """Explicit 2^n state vector; the independent numeric oracle backend."""

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        n = amps.size.bit_length() - 1
        if amps.size != 1 << n or n < 1:
            raise ValueError(f"amplitude count must be 2^n with n >= 1, got {amps.size}")
        if n > N_MAX_DENSE:
            raise ValueError(f"dense backend supports at most {N_MAX_DENSE} qubits, got {n}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"amplitudes must be normalized, |norm - 1| = {abs(norm - 1.0):.3e}")
        self.amplitudes = amps.copy()
        self.amplitudes.setflags(write=False)
        self.n_qubits = n
        self._probs = {}

    @classmethod
    def dicke(cls, n_qubits: int, excitations: int) -> "DenseState":
        if not 0 <= excitations <= n_qubits:
            raise ValueError("excitations out of range")
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        mask = _popcounts(n_qubits) == excitations
        amps[mask] = 1.0 / math.sqrt(math.comb(n_qubits, excitations))
        return cls(amps)

    @classmethod
    def singlet(cls, n_qubits: int) -> "DenseState":
        if n_qubits < 2 or n_qubits % 2:
            raise ValueError("singlet construction needs an even number of qubits >= 2")
        bond = np.array([0.0, 1.0, -1.0, 0.0], dtype=np.complex128) / math.sqrt(2.0)
        amps = np.array([1.0], dtype=np.complex128)
        for _ in range(n_qubits // 2):
            amps = np.kron(amps, bond)
        return cls(amps)

    def _axis_probs(self, axis: Direction) -> np.ndarray:
        if axis not in self._probs:
            u = _ROTATIONS[axis]
            if u is None:
                psi = self.amplitudes
            else:
                psi = self.amplitudes.reshape((2,) * self.n_qubits)
                for q in range(self.n_qubits):
                    psi = np.moveaxis(np.tensordot(u, psi, axes=(1, q)), 0, q)
                psi = psi.reshape(-1)
            self._probs[axis] = np.abs(psi) ** 2
        return self._probs[axis]

    def _distribution(self, axis):
        probs = self._axis_probs(axis)
        by_ones = np.bincount(_popcounts(self.n_qubits), weights=probs,
                              minlength=self.n_qubits + 1)
        return by_ones[::-1]  # grid index g <-> n - g set bits

    def _moments(self, axis):
        m_vals = 0.5 * outcome_grid(self.n_qubits).astype(np.float64)
        probs = self._distribution(axis)
        return tuple(float(np.dot(probs, m_vals**k)) for k in (1, 2, 3, 4))

    def _singles(self, axis):
        probs = self._axis_probs(axis)
        n = self.n_qubits
        return np.array([float(np.dot(probs, _bit_signs(n, q))) for q in range(n)])

    def _pairs(self, axis):
        probs = self._axis_probs(axis)
        n = self.n_qubits
        out = np.eye(n)
        for i in range(n):
            si = _bit_signs(n, i)
            for j in range(i + 1, n):
                out[i, j] = out[j, i] = float(np.dot(probs, si * _bit_signs(n, j)))
        return out


# ---------------------------------------------------------------------------
# moment table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentTable:
    """Complete set of state functionals used by the variance engine.

    ``moments[axis]`` holds ``(<J>, <J^2>, <J^3>, <J^4>)``; ``singles[axis]``
    the length-N vector of ``<sigma^(i)>``; ``pairs[axis]`` the symmetric
    correlation matrix with unit diagonal.  Entries are exact rationals for
    the analytic states and float64 for the dense backend.
    """

    n_qubits: int
    moments: dict
    singles: dict
    pairs: dict

    def moment(self, axis: Direction, n: int):
        return self.moments[axis][n - 1]

    def corr_sq_sum(self, axis: Direction):
        """Sum over ordered distinct pairs of the squared correlator."""
        c = self.pairs[axis]
        return (c * c).sum() - self.n_qubits

    def single_sq_sum(self, axis: Direction):
        a = self.singles[axis]
        return (a * a).sum()

    def mixed_corr_sum(self, axis: Direction):
        """Sum over ordered distinct pairs of ``c_ij (a_i + a_j)``."""
        c = self.pairs[axis]
        a = self.singles[axis]
        row = c.sum(axis=1) - 1  # strip the unit diagonal
        return 2 * (row * a).sum()

    def aggregates(self, axis: Direction, exact: bool = False) -> dict:
        """Scalar snapshot consumed by the variance formulas.

        Values are floats by default; with ``exact=True`` they are returned
        as :class:`fractions.Fraction` (exact for the analytic state models,
        whose tables are rational).
        """
        cast = Fraction if exact else float
        j1, j2, j3, j4 = self.moments[axis]
        return {
            "j1": cast(j1),
            "j2": cast(j2),
            "j3": cast(j3),
            "j4": cast(j4),
            "corr_sq_sum": cast(self.corr_sq_sum(axis)),
            "single_sq_sum": cast(self.single_sq_sum(axis)),
            "mixed_corr_sum": cast(self.mixed_corr_sum(axis)),
        }


def moment_table(state: StateModel) -> MomentTable:
    """Populate the full table for ``state`` (all axes)."""
    return MomentTable(
        n_qubits=state.n_qubits,
        moments={axis: state._moments(axis) for axis in DIRECTIONS},
        singles={axis: state._singles(axis) for axis in DIRECTIONS},
        pairs={axis: state._pairs(axis) for axis in DIRECTIONS},
    )


# ---------------------------------------------------------------------------
# scalar accessors
# ---------------------------------------------------------------------------


def moment(state: StateModel, axis: Direction, n: int) -> float:
    """Collective moment ``<J_axis^n>`` for ``n`` in 1..4."""
    _check_axis(axis)
    if n not in (1, 2, 3, 4):
        raise ValueError(f"moment order must be between 1 and 4, got {n}")
    return float(state._moments(axis)[n - 1])


def _check_qubit(state: StateModel, i: int):
    if not 0 <= i < state.n_qubits:
        raise ValueError(f"qubit index {i} out of range for {state.n_qubits} qubits")


def single_expectation(state: StateModel, axis: Direction, i: int) -> float:
    """Single-qubit expectation ``<sigma_axis^(i)>``."""
    _check_axis(axis)
    _check_qubit(state, i)
    return float(state._singles(axis)[i])


def pair_correlation(state: StateModel, axis: Direction, i: int, j: int) -> float:
    """Two-point correlator ``<sigma_axis^(i) sigma_axis^(j)>`` for i != j."""
    _check_axis(axis)
    _check_qubit(state, i)
    _check_qubit(state, j)
    if i == j:
        raise ValueError("pair correlation needs two distinct qubits")
    return float(state._pairs(axis)[i, j])


def total_spin_distribution(state: StateModel, axis: Direction):
    """Exact Born distribution of a collective measurement along ``axis``.

    Returns ``(outcomes, probabilities)`` where outcomes is the full encoded
    grid ``-N, -N+2, ..., N`` and probabilities is float64 summing to one.
    """
    _check_axis(axis)
    return outcome_grid(state.n_qubits), state._distribution(axis)


# ---------------------------------------------------------------------------
# sampling tables
# ---------------------------------------------------------------------------
#
# Every draw shares one inversion convention: draw u in [0, 1) and select the
# category index equal to the number of cumulative cut points <= u.  The
# collectors in ``schemes`` apply this rule to whole blocks of uniforms over
# the cut tables below, built once per (state, axis).  States are immutable,
# so the state object is a safe cache key; the arrays are shared and
# read-only.


def joint_pair_cuts(a_i, a_j, c) -> np.ndarray:
    """Cumulative cuts of the joint pair-outcome distribution.

    Categories are ordered ``(+,+), (+,-), (-,+), (-,-)``; the three cut
    points returned are the partial sums of the first three probabilities.
    Accepts scalars or broadcastable arrays.
    """
    a_i = np.asarray(a_i, dtype=np.float64)
    a_j = np.asarray(a_j, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    p_pp = np.clip(0.25 * (1.0 + a_i + a_j + c), 0.0, None)
    p_pm = np.clip(0.25 * (1.0 + a_i - a_j - c), 0.0, None)
    p_mp = np.clip(0.25 * (1.0 - a_i + a_j - c), 0.0, None)
    return np.stack([p_pp, p_pp + p_pm, p_pp + p_pm + p_mp], axis=-1)


_CUT_CACHE_SIZE = 48


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=_CUT_CACHE_SIZE)
def _total_spin_cuts(state: StateModel, axis: Direction) -> np.ndarray:
    """Cumulative cut points of the collective outcomes of :func:`outcome_grid`."""
    return _read_only(np.cumsum(total_spin_distribution(state, axis)[1])[:-1])


@lru_cache(maxsize=_CUT_CACHE_SIZE)
def _pair_cut_columns(state: StateModel, axis: Direction) -> tuple:
    """The three joint cut points of every ordered distinct pair.

    One array per cut point, indexed by slot: the pairs ``(i, j)``, ``i != j``,
    in lexicographic order.
    """
    _check_axis(axis)
    a = np.asarray(state._singles(axis), dtype=np.float64)
    c = np.asarray(state._pairs(axis), dtype=np.float64)
    off_diagonal = ~np.eye(state.n_qubits, dtype=bool)
    cuts = joint_pair_cuts(a[:, None], a[None, :], c)[off_diagonal]
    return tuple(_read_only(np.ascontiguousarray(cuts[:, q])) for q in range(3))


@lru_cache(maxsize=_CUT_CACHE_SIZE)
def _single_cuts(state: StateModel, axis: Direction) -> np.ndarray:
    """Per-qubit cut points ``P(+1) = (1 + <sigma>) / 2`` along ``axis``."""
    _check_axis(axis)
    return _read_only(0.5 * (1.0 + state._singles(axis).astype(np.float64)))


# Category probabilities of the counts samplers, taken from the same cut
# tables: a uniform u in [0, 1) falls in category g when g cuts are <= u, so
# category g has the width of the g-th interval between the clipped cuts.


def _interval_widths(cuts: np.ndarray) -> np.ndarray:
    """The category probabilities of ascending ``cuts`` (along the last axis)."""
    return np.diff(np.clip(cuts, 0.0, 1.0), prepend=0.0, append=1.0)


@lru_cache(maxsize=_CUT_CACHE_SIZE)
def _total_spin_probs(state: StateModel, axis: Direction) -> np.ndarray:
    """The probability of each encoded outcome of :func:`outcome_grid`."""
    return _read_only(_interval_widths(_total_spin_cuts(state, axis)))


class _Classes(NamedTuple):
    """Classes of slots whose runs follow one joint-outcome law."""

    probs: np.ndarray  # per class: P of (+,+), (+,-), (-,+), (-,-)
    sizes: tuple  # per class: its number of slots
    disagree: tuple  # per class: P(first * second = -1)


def _classes(probs, sizes) -> _Classes:
    return _Classes(_read_only(probs), tuple(sizes.tolist()),
                    tuple((probs[:, 1] + probs[:, 2]).tolist()))


@lru_cache(maxsize=_CUT_CACHE_SIZE)
def _pair_classes(state: StateModel, axis: Direction) -> _Classes:
    """The classes of ordered distinct pair slots: slots with identical rows
    of cut points in :func:`_pair_cut_columns`."""
    rows = np.stack(_pair_cut_columns(state, axis), axis=1)
    rows, sizes = np.unique(rows, axis=0, return_counts=True)
    return _classes(_interval_widths(rows), sizes)


@lru_cache(maxsize=_CUT_CACHE_SIZE)
def _split_classes(state: StateModel, axis: Direction) -> _Classes:
    """The classes of cells ``(i, j)`` of the full index square: cells with
    identical cut points of qubits i and j in :func:`_single_cuts`.  The
    outcome pair of a cell is a run of qubit i and an independent run of
    qubit j."""
    q = np.clip(_single_cuts(state, axis), 0.0, 1.0)  # P(+1) of each qubit
    n = len(q)
    rows, sizes = np.unique(np.stack([np.repeat(q, n), np.tile(q, n)], axis=1),
                            axis=0, return_counts=True)
    qi, qj = rows[:, :1], rows[:, 1:]
    return _classes(np.hstack([qi * qj, qi * (1.0 - qj), (1.0 - qi) * qj,
                               (1.0 - qi) * (1.0 - qj)]), sizes)
