"""Reference implementations the tests check the package against.

Nothing in ``spinsq`` calls these; they are the independent answers the
collectors, the estimator and variance cores and the counts samplers are
checked against.

* ``sample_total_spin``/``sample_pair``/``sample_single``: one slot's
  measurement runs, drawn by inversion of the state's correlators.
* ``slot_*``: the measurement record of each collector, built with one
  per-slot sampler call per slot in the draw order documented in
  :mod:`spinsq.schemes`.
* ``est_*``: the estimator of one direction block applied to a record,
  and ``var_*``: its exact variance on a moment table; both read the
  scheme table, and ``var_*`` check the budget by the rules of
  :mod:`spinsq.variance`.
* ``closed_form``: the paper's closed-form parameter variances of the
  reference states, an oracle for ``var_parameter``.
* ``shot_trials``: ``run_trials`` on the shot-level path, each trial
  estimating from the record ``collect_datasets`` draws.
* ``exact_sums_pmf``: the exact law of one direction's integer sums over
  all shot records, the statistics the counts samplers draw.
* ``_est_deltaJ2_*_naive``: the variance estimators as direct multiple sums
  in exact rational arithmetic.
* ``bisect_budget``: ``required_budget`` by exponential search and
  bisection over the grid bound, then a one-step-at-a-time walk over the
  refined bound.
"""

import math
from collections import defaultdict
from fractions import Fraction
from functools import reduce

import numpy as np

from spinsq.hypothesis import (
    _GRID,
    SampleSizeResult,
    _family_tables,
    _variance_at,
    _worst_case,
    cantelli_bound,
)
from spinsq.montecarlo import _trial_stats, child_generator
from spinsq.schemes import (
    _KINDS,
    _SCHEMES,
    PairDataset,
    Parameter,
    ParameterKind,
    RandomPairDataset,
    RandomSplitDataset,
    Scheme,
    SplitSingleDataset,
    TotalSpinDataset,
    _budget,
    _parameter_blocks,
    collect_datasets,
    estimate_parameter,
    ordered_pairs,
    sample_cost,
    split_directions,
    square_pairs,
)
from spinsq.states import (
    DIRECTIONS,
    Direction,
    _check_axis,
    _check_qubit,
    joint_pair_cuts,
    total_spin_distribution,
)
from spinsq.variance import _check_budget, _rule, _table

# ---------------------------------------------------------------- per-slot samplers
# Each draws u in [0, 1) and selects the category index equal to the number
# of cumulative cut points <= u, the inversion rule of the collectors.

_PAIR_FIRST = np.array([1, 1, -1, -1], dtype=np.int64)
_PAIR_SECOND = np.array([1, -1, 1, -1], dtype=np.int64)


def sample_total_spin(state, axis, rng, size=None):
    """Draw encoded collective outcomes ``2m``; scalar when size is None."""
    outcomes, probs = total_spin_distribution(state, axis)
    cuts = np.cumsum(probs)[:-1]
    u = rng.random(1 if size is None else size)
    picked = outcomes[np.searchsorted(cuts, u, side="right")]
    return int(picked[0]) if size is None else picked


def sample_pair(state, axis, i, j, rng, size=None):
    """Draw joint encoded outcomes ``(2s_i, 2s_j)`` of two distinct qubits."""
    _check_axis(axis)
    _check_qubit(state, i)
    _check_qubit(state, j)
    if i == j:
        raise ValueError("pair sampling needs two distinct qubits")
    a = state._singles(axis)
    cuts = joint_pair_cuts(float(a[i]), float(a[j]), float(state._pairs(axis)[i, j]))
    u = rng.random(1 if size is None else size)
    cat = np.searchsorted(cuts, u, side="right")
    first, second = _PAIR_FIRST[cat], _PAIR_SECOND[cat]
    if size is None:
        return int(first[0]), int(second[0])
    return first, second


def sample_single(state, axis, i, rng, size=None):
    """Draw encoded outcomes ``2s`` of one qubit."""
    _check_axis(axis)
    _check_qubit(state, i)
    cut = 0.5 * (1.0 + float(state._singles(axis)[i]))  # P(+1)
    u = rng.random(1 if size is None else size)
    out = 1 - 2 * (u >= cut).astype(np.int64)
    return int(out[0]) if size is None else out


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


# ---------------------------------------------------------------- blocks


def _estimator(scheme, block, split=False):
    """``estimate(record, axis)``: one direction block of ``scheme``, the
    block's ``value`` (with ``split``, its ``split_value``) of the record's
    sums, as ``estimate_parameter`` applies it."""
    row = _SCHEMES[scheme]
    rule = row.blocks[block]
    sums = _KINDS[row.split if split else row.record].sums
    value, cross = (rule.split_value, False) if split else (rule.value, rule.cross)

    def estimate(ds, axis):
        return value(ds.n_qubits, ds.k, getattr(ds, "l", None), *sums(ds, axis, cross))
    return estimate


def _variance(scheme, block, split=False, **defaults):
    """``variance(mt, axis, *budget, exact=False)``: the exact variance of
    ``_estimator(scheme, block, split)``, the block's ``core`` (with
    ``split``, its ``split_core``) of one direction's aggregates.  The budget
    comes in the order of the scheme's budget fields (K, or L then K) and is
    checked as ``block_variance`` checks it."""
    rule = _rule(scheme, block)
    core = rule.split_core if split else rule.core
    fields = _SCHEMES[scheme].budget

    def variance(mt, axis, *budget, exact=False, **named):
        b = {"k": None, "l": None, **defaults, **dict(zip(fields, budget)), **named}
        _check_budget(rule, b["k"], b["l"])
        mt = _table(mt)
        return core(mt.n_qubits, mt.aggregates(Direction(axis), exact), b["k"], b["l"])
    return variance


est_J2_ts = _estimator(Scheme.TS, "j2")
est_deltaJ2_ts = _estimator(Scheme.TS, "dj2")
est_J2_ap = _estimator(Scheme.AP1, "j2")
est_deltaJ2_ap = _estimator(Scheme.AP1, "dj2")
est_Jsq_split = _estimator(Scheme.AP2, "dj2", split=True)
est_J2_rp = _estimator(Scheme.RP1, "j2")
est_deltaJ2_rp = _estimator(Scheme.RP1, "dj2")
est_Jsq_rsplit = _estimator(Scheme.RP2, "dj2", split=True)

var_J2_ts = _variance(Scheme.TS, "j2")
var_deltaJ2_ts = _variance(Scheme.TS, "dj2")
var_J2_ap = _variance(Scheme.AP1, "j2")
var_deltaJ2_ap = _variance(Scheme.AP1, "dj2")
var_Jsq_split = _variance(Scheme.AP2, "dj2", split=True)
var_J2_rp = _variance(Scheme.RP1, "j2")
var_deltaJ2_rp = _variance(Scheme.RP1, "dj2", k=1)  # analytic for K = 1 only
var_Jsq_rsplit = _variance(Scheme.RP2, "dj2", split=True)


# ---------------------------------------------------------------- closed forms

_CF_KEYS = {
    (ParameterKind.B, "singlet"),
    (ParameterKind.D, "singlet"),
    (ParameterKind.C, "dicke_half"),
}


def closed_form(scheme, parameter, family, n, *, k=None, l=None, exact=False):
    """Reference-state closed form of `var_parameter`.

    Supported: sum-of-variances (kind B) and planar-variance (kind D)
    parameters of the bonded-singlet state, and the planar-moment parameter
    (kind C, m = z) of the half-excited symmetric state (even N).  Budgets
    are checked by the rules `var_parameter` applies.
    """
    scheme = Scheme(scheme)
    if isinstance(parameter, str):
        parameter = Parameter.parse(parameter)
    key = (parameter.kind, family)
    if key not in _CF_KEYS:
        raise ValueError(f"no closed form for parameter {parameter.kind.value!r} "
                         f"with family {family!r}")
    if family == "singlet":
        if n < 2 or n % 2:
            raise ValueError("bonded-singlet closed forms need even N >= 2")
    else:
        if n < 2 or n % 2:
            raise ValueError("half-excited closed forms need even N >= 2")
        if parameter.m_axis is not Direction.Z:
            raise ValueError("the half-excited closed form fixes m = z")

    for _, block, _ in _parameter_blocks(parameter):
        _check_budget(_rule(scheme, block), k, l)

    value = _closed_form_value(scheme, parameter.kind, family, n, k, l)
    return value if exact else float(value)


def _closed_form_value(scheme, kind, family, n, k, l) -> Fraction:
    n = Fraction(n)
    if family == "singlet" and kind is ParameterKind.B:
        if scheme is Scheme.TS:
            return Fraction(0)
        if scheme is Scheme.AP1:
            num = 3 * n * (
                k * (n - 2) * (n - 1) ** 4
                - n ** 5 + 6 * n ** 4 - 13 * n ** 3 + 14 * n * n - 7 * n + 2
            )
            return num / (16 * (k - 1) * k * (n - 1) ** 4)
        if scheme is Scheme.AP2:
            return 3 * n * (3 * n - 2) / (16 * k)
        if scheme is Scheme.RP1:
            num = 3 * n ** 3 * (l * (n - 2) * (n - 1) ** 2 + 2 * n * n - 3 * n + 2)
            return num / (16 * (l - 1) * l * (n - 1) ** 2)
        return 3 * n ** 3 * (3 * n - 2) / (16 * k * l)
    if family == "singlet":  # kind D
        if scheme is Scheme.TS:
            return Fraction(0)
        if scheme is Scheme.AP1:
            num = n * (
                k * (n - 1) ** 2 * (2 * n ** 3 - 8 * n * n + 11 * n - 6)
                - 2 * n ** 5 + 12 * n ** 4 - 27 * n ** 3 + 32 * n * n - 19 * n + 6
            )
            return num / (16 * (k - 1) * k * (n - 1) ** 2)
        if scheme is Scheme.AP2:
            return n * (6 * n ** 3 - 16 * n * n + 15 * n - 6) / (16 * k)
        if scheme is Scheme.RP1:
            num = n ** 3 * (l * (2 * n ** 3 - 8 * n * n + 11 * n - 6) + 4 * n * n - 7 * n + 6)
            return num / (16 * (l - 1) * l)
        return n ** 3 * (6 * n ** 3 - 16 * n * n + 15 * n - 6) / (16 * k * l)
    # half-excited symmetric state, kind C
    if scheme is Scheme.TS:
        return n * (n ** 3 + 4 * n * n - 4 * n - 16) / (64 * k)
    if scheme is Scheme.AP1:
        num = n * (
            k * (2 * n ** 5 - 10 * n ** 4 + 21 * n ** 3 - 25 * n * n + 16 * n - 4)
            - 2 * n ** 5 + 10 * n ** 4 - 19 * n ** 3 + 21 * n * n - 12 * n + 4
        )
        return num / (32 * (k - 1) * k * (n - 1) ** 2)
    if scheme is Scheme.AP2:
        return n * (6 * n ** 4 - 20 * n ** 3 + 25 * n * n - 16 * n + 4) / (
            32 * k * (n - 1)
        )
    if scheme is Scheme.RP1:
        num = n * n * (
            l * (2 * n ** 4 - 8 * n ** 3 + 13 * n * n - 12 * n + 4)
            + 4 * n ** 3 - 9 * n * n + 12 * n - 4
        )
        return num / (32 * (l - 1) * l)
    return n * n * (6 * n ** 4 - 16 * n ** 3 + 17 * n * n - 12 * n + 4) / (32 * k * l)


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


# ---------------------------------------------------------------- planner


def bisect_budget(scheme, parameter, n, *, t=None, gamma=0.95) -> SampleSizeResult:
    """``required_budget`` searching the budget steps blindly: an
    exponential search for a passing step and a bisection, each step judged
    by the grid bound, then one step at a time until the refined bound
    passes."""
    scheme = Scheme(scheme)
    if isinstance(parameter, str):
        parameter = Parameter.parse(parameter)
    if t is None:
        t = 0.1 * (n / 2)
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"the margin t must be positive and finite, got {t}")
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie strictly between 0 and 1")
    target = 1 - gamma
    tables = _family_tables(n)
    row = _SCHEMES[scheme]

    def grid_bound(b):
        var = _variance_at(scheme, parameter, n, tables, _GRID, **row.plan_budget(b))
        return cantelli_bound(var.max(), t)

    def refined(b):
        p, var = _worst_case(scheme, parameter, n, tables, row.plan_budget(b))
        return p, var, cantelli_bound(var, t)

    # exponential search for a passing budget, then bisection (index space:
    # budget = plan_min + plan_step * i); valid because the worst-case
    # variance is pointwise non-increasing in the budget scalar
    def b_of(i):
        return row.plan_min + row.plan_step * i

    b = row.plan_min
    if grid_bound(b) > target:
        hi = 1
        while grid_bound(b_of(hi)) > target:
            hi *= 2
            if b_of(hi) > 1 << 62:  # pragma: no cover - variance vanishes
                raise AssertionError("budget search failed to converge")
        lo = hi // 2  # fails; hi passes
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if grid_bound(b_of(mid)) > target:
                lo = mid
            else:
                hi = mid
        b = b_of(hi)

    # confirm against the refined (sub-grid) worst case
    p_max, var_max, bound = refined(b)
    while bound > target:
        b += row.plan_step
        p_max, var_max, bound = refined(b)

    cost = sample_cost(scheme, parameter, n, **row.plan_budget(b))
    return SampleSizeResult(scheme, parameter, n, float(t), float(gamma),
                            p_max, int(b), cost)
