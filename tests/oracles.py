"""Reference implementations the tests check the package against.

* ``slot_*``: the measurement record of each collector, built with one
  ``sample_total_spin``/``sample_pair``/``sample_single`` call per slot in
  the draw order documented in :mod:`spinsq.schemes`.
* ``shot_trials``: ``run_trials`` on the shot-level path, each trial
  estimating from the record ``collect_datasets`` draws.
* ``exact_sums_pmf``: the exact law of one direction's integer sums over
  all shot records, the statistics the counts samplers draw.
* ``_est_deltaJ2_*_naive``: the variance estimators as direct multiple sums
  in exact rational arithmetic.
"""

from collections import defaultdict
from fractions import Fraction
from functools import reduce

import numpy as np

from spinsq.montecarlo import _trial_stats, child_generator
from spinsq.schemes import (
    _SCHEMES,
    PairDataset,
    Parameter,
    RandomPairDataset,
    RandomSplitDataset,
    Scheme,
    SplitSingleDataset,
    TotalSpinDataset,
    _budget,
    collect_datasets,
    estimate_parameter,
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
    total_spin_distribution,
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


# ---------------------------------------------------------------- trials


def shot_trials(state, scheme, parameter, *, k=None, l=None, trials, master_seed=0,
                bins=99, bin_width=None, anchor=None):
    """``run_trials`` drawing shots: trial ``t`` estimates from the record
    ``collect_datasets`` draws from ``child_generator(master_seed, t)``."""
    scheme = Scheme(scheme)
    if isinstance(parameter, str):
        parameter = Parameter.parse(parameter)
    values = np.array([
        estimate_parameter(scheme, parameter, collect_datasets(
            state, scheme, parameter, child_generator(master_seed, t), k=k, l=l)).value
        for t in range(trials)
    ])
    return _trial_stats(values, state, scheme, parameter, _budget(_SCHEMES[scheme].budget, k, l),
                        master_seed, bins, bin_width, anchor)


# ---------------------------------------------------------------- exact laws
# A law is a dict from an integer vector (a tuple) to its probability.  The
# shots of a record are independent, so the law of a sum of shots is the
# convolution of their laws; each shot's law is read from the state's
# correlators, slot by slot, as the per-slot samplers draw it.


def _add(law_a, law_b):
    """The law of the sum of two independent vectors."""
    out = defaultdict(float)
    for x, p in law_a.items():
        for y, q in law_b.items():
            out[tuple(a + b for a, b in zip(x, y))] += p * q
    return dict(out)


def _total(laws):
    return reduce(_add, laws)


def _mixture(laws):
    """The law of one of ``laws``, picked uniformly."""
    out = defaultdict(float)
    for law in laws:
        for x, p in law.items():
            out[x] += p / len(laws)
    return dict(out)


def _product_only(law):
    """``(prod, A, B)`` -> ``(prod,)``."""
    out = defaultdict(float)
    for x, p in law.items():
        out[x[:1]] += p
    return dict(out)


def _with_cross(law):
    """``(prod, A, B)`` of a unit -> ``(prod, A, B, A*B)``."""
    return {(prod, a, b, a * b): p for (prod, a, b), p in law.items()}


def _pair_shot(state, axis, i, j, split):
    """The law of ``(first*second, first, second)`` of one run of cell (i, j):
    a joint pair run, or with ``split`` two independent single runs."""
    a = np.asarray(state._singles(axis), dtype=float)
    # independent members (split runs) have the correlation <s_i><s_j>
    c = a[i] * a[j] if split else float(np.asarray(state._pairs(axis), dtype=float)[i, j])
    law = {}
    for s1 in (1, -1):
        for s2 in (1, -1):
            p = (1 + s1 * a[i] + s2 * a[j] + s1 * s2 * c) / 4
            if p > 0:
                law[(s1 * s2, s1, s2)] = p
    return law


def exact_sums_pmf(kind, state, axis, cross, k, l=None):
    """The exact law of the sums ``_KINDS[kind].counts`` draws for one direction."""
    n = state.n_qubits
    if kind == "total_spin":
        outcomes, probs = total_spin_distribution(state, axis)
        shot = {(int(m), int(m) * int(m)): float(p) for m, p in zip(outcomes, probs) if p > 0}
        return _total([shot] * k)
    split = kind.endswith("split")
    cells = square_pairs(n) if split else ordered_pairs(n)
    runs = k // 2 if split else k
    laws = [_pair_shot(state, axis, int(i), int(j), split) for i, j in cells]
    if not kind.startswith("random_"):
        if cross:  # the unit is a repetition: one run of every slot
            return _total([_with_cross(_total(laws))] * runs)
        return _total([_product_only(_total([law] * runs)) for law in laws])
    # the unit is a slot: a uniformly drawn cell and its runs
    slot = _mixture([_total([law] * runs) for law in laws])
    slot = _with_cross(slot) if cross else _product_only(slot)
    return _total([slot] * l)


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
