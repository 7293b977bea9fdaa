"""Reference implementations the tests check the package against.

* ``slot_*``: the measurement record of each collector, built with one
  ``sample_total_spin``/``sample_pair``/``sample_single`` call per slot in
  the draw order documented in :mod:`spinsq.schemes`.
* ``_est_deltaJ2_*_naive``: the variance estimators as direct multiple sums
  in exact rational arithmetic.
"""

from fractions import Fraction

import numpy as np

from spinsq.schemes import (
    PairDataset,
    RandomPairDataset,
    RandomSplitDataset,
    Scheme,
    SplitSingleDataset,
    TotalSpinDataset,
    ordered_pairs,
    split_directions,
    square_pairs,
)
from spinsq.states import (
    DIRECTIONS,
    Direction,
    sample_pair,
    sample_single,
    sample_total_spin,
)

# ---------------------------------------------------------------- records


def slot_total_spin(state, k, rng):
    blocks = {axis: sample_total_spin(state, axis, rng, size=k) for axis in DIRECTIONS}
    return TotalSpinDataset(state.n_qubits, blocks, k=k)


def _pair_runs(state, axis, cells, k, rng):
    first = np.empty((len(cells), k), dtype=np.int64)
    second = np.empty((len(cells), k), dtype=np.int64)
    for slot, (i, j) in enumerate(cells):
        first[slot], second[slot] = sample_pair(state, axis, int(i), int(j), rng, size=k)
    return first, second


def _split_runs(state, axis, cells, half, rng):
    first = np.empty((len(cells), half), dtype=np.int64)
    second = np.empty((len(cells), half), dtype=np.int64)
    for slot, (i, j) in enumerate(cells):
        first[slot] = sample_single(state, axis, int(i), rng, size=half)
        second[slot] = sample_single(state, axis, int(j), rng, size=half)
    return first, second


def _random_cells(table, l, rng):
    # one uniform per slot indexes the cell table directly
    idx = np.minimum((rng.random(l) * len(table)).astype(np.int64), len(table) - 1)
    return table[idx]


def slot_all_pairs(state, k, rng):
    first, second = {}, {}
    for axis in DIRECTIONS:
        first[axis], second[axis] = _pair_runs(
            state, axis, ordered_pairs(state.n_qubits), k, rng)
    return PairDataset(state.n_qubits, first, second, k=k)


def slot_split_single(state, k, rng, directions=DIRECTIONS):
    first, second = {}, {}
    for axis in map(Direction, directions):
        first[axis], second[axis] = _split_runs(
            state, axis, square_pairs(state.n_qubits), k // 2, rng)
    return SplitSingleDataset(state.n_qubits, first, second, k=k)


def slot_random_pairs(state, l, k, rng):
    slots, first, second = {}, {}, {}
    for axis in DIRECTIONS:
        slots[axis] = _random_cells(ordered_pairs(state.n_qubits), l, rng)
        first[axis], second[axis] = _pair_runs(state, axis, slots[axis], k, rng)
    return RandomPairDataset(state.n_qubits, slots, first, second, l=l, k=k)


def slot_random_split(state, l, k, rng, directions=DIRECTIONS):
    slots, first, second = {}, {}, {}
    for axis in map(Direction, directions):
        slots[axis] = _random_cells(square_pairs(state.n_qubits), l, rng)
        first[axis], second[axis] = _split_runs(state, axis, slots[axis], k // 2, rng)
    return RandomSplitDataset(state.n_qubits, slots, first, second, l=l, k=k)


def slot_datasets(state, scheme, parameter, rng, *, k=None, l=None):
    """The datasets ``collect_datasets`` returns, built slot by slot."""
    scheme = Scheme(scheme)
    dirs = split_directions(parameter)
    if scheme is Scheme.TS:
        return {"total_spin": slot_total_spin(state, k, rng)}
    if scheme in (Scheme.AP1, Scheme.AP2):
        out = {"pairs": slot_all_pairs(state, k, rng)}
        if scheme is Scheme.AP2 and dirs:
            out["split"] = slot_split_single(state, k, rng, dirs)
        return out
    out = {"random_pairs": slot_random_pairs(state, l, k, rng)}
    if scheme is Scheme.RP2 and dirs:
        out["random_split"] = slot_random_split(state, l, k, rng, dirs)
    return out


# ---------------------------------------------------------------- estimators
# naive reference implementations (exact rational, direct multiple sums)


def _est_deltaJ2_ap_naive(ds: PairDataset, axis) -> float:
    axis = Direction(axis)
    f = ds.first[axis]
    s = ds.second[axis]
    n, k = ds.n_qubits, ds.k
    m = n * (n - 1)
    prod = Fraction(0)
    for p in range(m):
        for t in range(k):
            prod += Fraction(int(f[p, t]) * int(s[p, t]), 4)
    cross = Fraction(0)
    for p in range(m):
        for q in range(m):
            for t in range(k):
                for u in range(k):
                    if t != u:
                        cross += Fraction(int(f[p, t]) * int(s[q, u]), 4)
    est = Fraction(n, 4) + prod / k - cross / (k * (k - 1) * (n - 1) ** 2)
    return float(est)


def _est_deltaJ2_rp_naive(ds: RandomPairDataset, axis) -> float:
    axis = Direction(axis)
    f = ds.first[axis]
    s = ds.second[axis]
    n, k, l = ds.n_qubits, ds.k, ds.l
    prod = Fraction(0)
    for a in range(l):
        for t in range(k):
            prod += Fraction(int(f[a, t]) * int(s[a, t]), 4)
    cross = Fraction(0)
    for a in range(l):
        for b in range(l):
            if a == b:
                continue
            for t in range(k):
                for u in range(k):
                    cross += Fraction(int(f[a, t]) * int(s[b, u]), 4)
    est = (
        Fraction(n, 4)
        + Fraction(n * (n - 1), k * l) * prod
        - Fraction(n * n, l * (l - 1) * k * k) * cross
    )
    return float(est)
