"""Entanglement hypothesis tests and sample-size planning.

The separable bounds on the four parameters turn an estimate into a one-sided
test; Cantelli's inequality converts the estimator variance into a p-value
bound.  Because the separability hypothesis fixes only the *set* of states,
the test must assume the worst case: the variance is maximized over the
depolarized half-excited Dicke family before the bound is applied.  The
planner inverts the resulting bound to find the smallest measurement budget
that certifies a violation margin ``t`` at confidence ``gamma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .schemes import (
    _MAX_BUDGET,
    _SCHEMES,
    Parameter,
    ParameterKind,
    Scheme,
    _as_parameter,
    _parameter_blocks,
    sample_cost,
)
from .states import DIRECTIONS, DepolarizedMixture, DickeState, moment_table
from .variance import block_variance

__all__ = [
    "SampleSizeResult",
    "SeparableBound",
    "cantelli_bound",
    "critical_noise",
    "max_variance_over_noise",
    "p_value_bound",
    "required_budget",
    "separable_bound",
]

_GRID_STEP = 1e-3
_REFINE_TOL = 1e-6
_GRID = np.arange(0.0, 1.0 + _GRID_STEP / 2, _GRID_STEP)


@dataclass(frozen=True)
class SeparableBound:
    parameter: Parameter
    n_qubits: int
    bound: float
    violation_side: str  # "above" or "below"


@dataclass(frozen=True)
class SampleSizeResult:
    scheme: Scheme
    parameter: Parameter
    n_qubits: int
    t: float
    gamma: float
    worst_case_p: float
    budget: int
    total_preparations: int

    def to_json(self) -> dict:
        return {
            "scheme": self.scheme.value,
            "parameter": self.parameter.label(),
            "n_qubits": self.n_qubits,
            "t": self.t,
            "gamma": self.gamma,
            "worst_case_p": self.worst_case_p,
            "budget": self.budget,
            "total_preparations": self.total_preparations,
        }


def separable_bound(parameter, n: int) -> SeparableBound:
    """The separable-state bound a violation must cross, and its side."""
    parameter = _as_parameter(parameter)
    if n < 2:
        raise ValueError("bounds are defined for N >= 2")
    kind = parameter.kind
    if kind is ParameterKind.A:
        return SeparableBound(parameter, n, n * (n + 2) / 4, "above")
    if kind is ParameterKind.B:
        return SeparableBound(parameter, n, n / 2, "below")
    if kind is ParameterKind.C:
        return SeparableBound(parameter, n, n / 2, "above")
    return SeparableBound(parameter, n, n * (n - 2) / 4, "below")


def _check_variance(variance) -> None:
    if not (math.isfinite(variance) and variance >= 0):
        raise ValueError(f"variance must be finite and non-negative, got {variance}")


def cantelli_bound(variance: float, t: float) -> float:
    """One-sided tail bound on a deviation of at least ``t``."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"the deviation t must be positive and finite, got {t}")
    _check_variance(variance)
    if variance == 0:  # no spread, no deviation; 0 / 0 once t * t underflows
        return 0.0
    return variance / (variance + t * t)


def p_value_bound(estimate: float, bound: SeparableBound, variance: float) -> float:
    """Upper bound on the p-value of the one-sided separability test.

    Returns 1.0 when the estimate does not violate the bound (no evidence).
    """
    _check_variance(variance)
    if bound.violation_side == "above":
        t = estimate - bound.bound
    else:
        t = bound.bound - estimate
    if t <= 0:
        return 1.0
    if variance == 0:
        return 0.0
    return cantelli_bound(variance, t)


def critical_noise(n: int) -> float:
    """White-noise threshold below which the noisy half-excited Dicke state
    stays detectable as entangled."""
    if n < 2:
        raise ValueError("N >= 2 required")
    return (n - 1) / (2 * n - 1)


# --------------------------------------------------------------------------
# worst-case variance over the depolarized-Dicke family
# --------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _family_tables(n: int):
    """Per-axis (pure-state, fully-mixed) aggregate pairs for the family.

    Built once per N, since the exact moment tables cost far more than a
    planner search; every caller shares the read-only result.
    """
    if n < 2:
        raise ValueError("the depolarized-Dicke family needs N >= 2")
    base = moment_table(DickeState(n, n // 2))
    mixed = moment_table(DepolarizedMixture(DickeState(n, n // 2), 0))
    return MappingProxyType({
        ax: (MappingProxyType(base.aggregates(ax)), MappingProxyType(mixed.aggregates(ax)))
        for ax in DIRECTIONS
    })


def _aggs_at(base: dict, mixed: dict, p) -> dict:
    """Aggregates of the depolarized state at noise parameter p.

    ``p`` may be a scalar or an array of noise values.  Collective moments
    are linear in p; the pair/single aggregate sums are quadratic (they are
    sums of squared/bilinear single-state functionals, and the fully mixed
    component has none).
    """
    out = {key: p * base[key] + (1 - p) * mixed[key] for key in ("j1", "j2", "j3", "j4")}
    pp = p * p
    for key in ("corr_sq_sum", "single_sq_sum", "mixed_corr_sum"):
        out[key] = pp * base[key]
    return out


@lru_cache(maxsize=32)
def _grid_aggs(n: int):
    """Per-axis aggregates over the whole planner grid, read-only.

    They do not depend on the budget, so they are built on first use per N
    instead of at every grid evaluation.
    """
    out = {}
    for ax, pair in _family_tables(n).items():
        aggs = _aggs_at(*pair, _GRID)
        for value in aggs.values():
            value.setflags(write=False)
        out[ax] = MappingProxyType(aggs)
    return MappingProxyType(out)


def _variance_at(scheme, parameter, n, tables, p, *, k=None, l=None):
    """Parameter variance over the family at noise ``p``, a value or an
    array; at ``_GRID`` itself the cached grid aggregates are used."""
    grid = _grid_aggs(n) if p is _GRID else None
    total = 0.0
    w2 = (n - 1) * (n - 1)
    for ax, block, scaled in _parameter_blocks(parameter):
        aggs = _aggs_at(*tables[ax], p) if grid is None else grid[ax]
        v = block_variance(scheme, block, n, aggs, k=k, l=l)
        total += w2 * v if scaled else v
    return total


def _golden_max(fn, lo: float, hi: float, tol: float = _REFINE_TOL):
    """Golden-section maximization on [lo, hi] to absolute tolerance tol."""
    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    p = c if fc >= fd else d
    return p, max(fc, fd)


def _maximize_over_grid(fn, grid, values=None):
    """Dense-grid argmax plus golden refinement in the bracketing cells.

    ``fn`` takes the whole grid as one array and single points as floats;
    ``values`` is ``fn(grid)`` when the caller already has it.
    """
    if values is None:
        values = fn(grid)
    i = int(values.argmax())
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    if hi <= lo:
        return float(grid[i]), float(values[i])
    p, v = _golden_max(fn, float(lo), float(hi))
    if values[i] >= v:
        return float(grid[i]), float(values[i])
    return p, v


def _worst_case(scheme, parameter, n, tables, budget, values=None):
    """``(p_max, var_max)`` of the parameter variance over the family;
    ``values`` is the variance over ``_GRID`` at this budget, if known."""
    return _maximize_over_grid(
        lambda p: _variance_at(scheme, parameter, n, tables, p, **budget), _GRID, values
    )


def max_variance_over_noise(scheme, parameter, n, *, k=None, l=None):
    """Worst-case parameter variance over depolarization p in [0, 1].

    Returns ``(p_max, var_max)`` from a step-1e-3 grid scan refined by
    golden-section search to 1e-6.
    """
    scheme = Scheme(scheme)
    parameter = _as_parameter(parameter)
    return _worst_case(scheme, parameter, n, _family_tables(n), {"k": k, "l": l})


# --------------------------------------------------------------------------
# sample-size planning
# --------------------------------------------------------------------------


def _aimed_search(judge, lo, i, top):
    """Smallest step above ``lo`` that passes, with ``judge``'s payload there.

    ``judge(i)`` returns ``(passes, aim, payload)`` for budget step ``i``:
    whether it passes, and the fractional step at which the 1/budget rule,
    seen from ``i``, puts the crossing.  Step ``lo`` is taken to fail, ``i``
    is tried first and no step beyond ``top`` is tried.  Each next step is
    the aim rounded up and kept strictly inside the bracket of the highest
    failing and lowest passing step; two aims in a row that do not halve
    the bracket are followed by its midpoint, and until a step passes the
    distance from the first step at least doubles.  Like the bisection it
    replaces, this assumes pass/fail is monotone in the step.
    """
    first, hi, best, misses = i, None, None, 0
    while True:
        width = None if hi is None else hi - lo
        passes, aim, payload = judge(i)
        if passes:
            hi, best = i, payload
        else:
            lo = i
        if hi is None:
            if lo >= top:
                raise ValueError("no budget up to 2**62 passes: the margin t is too small")
            i = min(max(math.ceil(min(aim, top)), 2 * lo - first + 1), top)
            continue
        if hi - lo == 1:
            return hi, best
        misses = misses + 1 if width is not None and 2 * (hi - lo) > width else 0
        if misses >= 2:
            i, misses = (lo + hi) // 2, 0
        else:
            i = min(max(math.ceil(min(aim, hi)), lo + 1), hi - 1)


def required_budget(scheme, parameter, n, *, t=None, gamma=0.95) -> SampleSizeResult:
    """Smallest budget whose worst-case Cantelli bound reaches 1 - gamma.

    Defaults: margin t = 0.1 * (N/2), confidence gamma = 0.95.  The budget
    scalar is K (direct and all-pairs schemes), L (random pairs, one
    repetition), or the product K*L realized as K = 2 (random with split).
    """
    scheme = Scheme(scheme)
    parameter = _as_parameter(parameter)
    if t is None:
        t = 0.1 * (n / 2)
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"the margin t must be positive and finite, got {t}")
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie strictly between 0 and 1")
    target = 1 - gamma
    # the largest variance that passes; it only aims the search
    v_star = target * t * t / gamma
    if v_star == 0:
        raise ValueError(f"the margin t is too small: (1 - gamma) * t * t underflows to 0, "
                         f"got t={t}")
    tables = _family_tables(n)
    row = _SCHEMES[scheme]

    # budget = plan_min + plan_step * i; the worst-case variance falls like
    # 1/budget, so b * v(b) / v_star aims at the budget where v reaches v_star
    def b_of(i):
        return row.plan_min + row.plan_step * i

    def judge(i, var, payload):
        aim = (b_of(i) * var / v_star - row.plan_min) / row.plan_step
        return cantelli_bound(var, t) <= target, aim, payload

    def grid(i):
        curve = _variance_at(scheme, parameter, n, tables, _GRID, **row.plan_budget(b_of(i)))
        return judge(i, curve.max(), curve)

    top = (_MAX_BUDGET - row.plan_min) // row.plan_step
    found, curve = _aimed_search(grid, -1, 0, top)

    def refined(i):
        p, var = _worst_case(scheme, parameter, n, tables, row.plan_budget(b_of(i)),
                             curve if i == found else None)
        return judge(i, var, p)

    # confirm against the refined (sub-grid) worst case, which is never
    # below the grid's, so the step below still fails
    i, p_max = _aimed_search(refined, found - 1, found, top)
    b = b_of(i)
    cost = sample_cost(scheme, parameter, n, **row.plan_budget(b))
    return SampleSizeResult(scheme, parameter, n, float(t), float(gamma),
                            p_max, int(b), cost)
