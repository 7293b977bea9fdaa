"""Exact sampling variances of the scheme estimators.

Every estimator in :mod:`spinsq.schemes` is unbiased, and the scheme table
there pairs each with the core of its closed-form variance, a functional of
the state's moment table (collective moments plus the pair/single aggregate
sums).  This module checks budgets against the table, evaluates the cores on
moment tables and composes them into the variance of a full parameter
estimate.

All formulas are polynomial in the aggregates with a single final division,
so they evaluate exactly when fed rational aggregates (``exact=True``) and in
float64 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .schemes import (
    _SCHEMES,
    Parameter,
    ParameterKind,
    Scheme,
    _budget,
    _parameter_blocks,
    compose_parameter,
    sample_cost,
)
from .states import Direction, MomentTable, moment_table

__all__ = [
    "UnsupportedAnalyticCaseError",
    "VarianceReport",
    "block_variance",
    "closed_form",
    "parameter_value",
    "var_J2_ap",
    "var_J2_rp",
    "var_J2_ts",
    "var_Jsq_rsplit",
    "var_Jsq_split",
    "var_deltaJ2_ap",
    "var_deltaJ2_rp",
    "var_deltaJ2_ts",
    "var_parameter",
]


class UnsupportedAnalyticCaseError(ValueError):
    """A variance formula was requested outside its analytic validity range."""


def _table(obj) -> MomentTable:
    if isinstance(obj, MomentTable):
        return obj
    return moment_table(obj)


def _rule(scheme, block):
    """The table's rule for one block of a scheme."""
    try:
        return _SCHEMES[Scheme(scheme)].blocks[block]
    except KeyError:
        raise ValueError(f"unknown block {block!r}") from None


def _check_budget(rule, k, l):
    """Reject a budget outside the block's variance formula."""
    if rule.k_only is not None and k != rule.k_only:
        raise UnsupportedAnalyticCaseError(
            f"this variance formula is derived for K = {rule.k_only} only"
        )
    if rule.l_min and (l is None or l < rule.l_min):
        raise ValueError(f"budget L must be an integer >= {rule.l_min}")
    if k is None or k < rule.k_min:
        raise ValueError(f"budget K must be an integer >= {rule.k_min}")
    if rule.k_even and k % 2:
        raise ValueError("budget K must be even")


def _estimator_variance(mt, scheme, block, axis, k, l, exact, split=False):
    """One estimator's variance: a block's core, or its split-run core."""
    rule = _rule(scheme, block)
    _check_budget(rule, k, l)
    mt = _table(mt)
    core = rule.split_core if split else rule.core
    return core(mt.n_qubits, mt.aggregates(Direction(axis), exact), k, l)


# --------------------------------------------------------------------------
# per-estimator operations
# --------------------------------------------------------------------------


def var_J2_ts(mt, axis, k, *, exact=False):
    """Variance of the direct second-moment estimator."""
    return _estimator_variance(mt, Scheme.TS, "j2", axis, k, None, exact)


def var_deltaJ2_ts(mt, axis, k, *, exact=False):
    """Variance of the direct sample-variance estimator (K >= 2)."""
    return _estimator_variance(mt, Scheme.TS, "dj2", axis, k, None, exact)


def var_J2_ap(mt, axis, k, *, exact=False):
    """Variance of the all-pairs second-moment estimator."""
    return _estimator_variance(mt, Scheme.AP1, "j2", axis, k, None, exact)


def var_deltaJ2_ap(mt, axis, k, *, exact=False):
    """Variance of the all-pairs variance estimator (K >= 2)."""
    return _estimator_variance(mt, Scheme.AP1, "dj2", axis, k, None, exact)


def var_Jsq_split(mt, axis, k, *, exact=False):
    """Variance of the split squared-first-moment estimator (even K)."""
    return _estimator_variance(mt, Scheme.AP2, "dj2", axis, k, None, exact, split=True)


def var_J2_rp(mt, axis, l, k, *, exact=False):
    """Variance of the random-pair second-moment estimator."""
    return _estimator_variance(mt, Scheme.RP1, "j2", axis, k, l, exact)


def var_deltaJ2_rp(mt, axis, l, k=1, *, exact=False):
    """Variance of the random-pair variance estimator.

    Analytic only for one repetition per sampled slot (K = 1); other K raise
    :class:`UnsupportedAnalyticCaseError`.
    """
    return _estimator_variance(mt, Scheme.RP1, "dj2", axis, k, l, exact)


def var_Jsq_rsplit(mt, axis, l, k, *, exact=False):
    """Variance of the random split squared-first-moment estimator."""
    return _estimator_variance(mt, Scheme.RP2, "dj2", axis, k, l, exact, split=True)


# --------------------------------------------------------------------------
# composition
# --------------------------------------------------------------------------


def block_variance(scheme, block, n, aggs, *, k=None, l=None):
    """Variance of one direction block ("j2" or "dj2") from raw aggregates.

    This is the seam the noise/budget sweeps drive directly with rescaled
    aggregate dictionaries, bypassing moment-table construction.
    """
    rule = _rule(scheme, block)
    _check_budget(rule, k, l)
    v = rule.core(n, aggs, k, l)
    if rule.split_core is None:
        return v
    return v + rule.split_core(n, aggs, k, l)


@dataclass(frozen=True)
class VarianceReport:
    scheme: Scheme
    parameter: Parameter
    n_qubits: int
    budget: Mapping[str, int]
    value: object
    contributions: Mapping[str, object]
    aggregates: Mapping[str, Mapping[str, object]]
    samples_used: int

    def to_json(self) -> dict:
        return {
            "scheme": self.scheme.value,
            "parameter": self.parameter.label(),
            "n_qubits": self.n_qubits,
            "budget": dict(self.budget),
            "value": float(self.value),
            "contributions": {k: float(v) for k, v in self.contributions.items()},
            "aggregates": {
                ax: {k: float(v) for k, v in d.items()}
                for ax, d in self.aggregates.items()
            },
            "samples_used": self.samples_used,
        }


def parameter_value(mt, parameter: Parameter, *, exact=False):
    """The parameter itself (not an estimate) from the moment table."""
    mt = _table(mt)
    number = Fraction if exact else float
    j2 = {}
    dj2 = {}
    for ax, block, _ in _parameter_blocks(parameter):
        if block == "j2":
            j2[ax] = number(mt.moment(ax, 2))
        else:
            dj2[ax] = number(mt.moment(ax, 2) - mt.moment(ax, 1) ** 2)
    return compose_parameter(parameter, mt.n_qubits, j2, dj2)


def var_parameter(mt, scheme, parameter: Parameter, *, k=None, l=None, exact=False):
    """Exact variance of the composed parameter estimate for one scheme.

    The parameter estimate is a weighted sum of independent per-direction
    blocks, so its variance is the matching weighted sum of block variances
    (variance-block weights enter squared).
    """
    mt = _table(mt)
    scheme = Scheme(scheme)
    n = mt.n_qubits
    w2 = (n - 1) * (n - 1)
    contributions = {}
    aggregates = {}
    for ax, block, scaled in _parameter_blocks(parameter):
        aggs = mt.aggregates(ax, exact)
        aggregates.setdefault(ax.value, aggs)
        v = block_variance(scheme, block, n, aggs, k=k, l=l)
        if scaled:
            v = w2 * v
        contributions[f"{block}_{ax.value}"] = v
    value = sum(contributions.values())
    budget = _budget(_SCHEMES[scheme].budget, k, l)
    cost = sample_cost(scheme, parameter, n, **budget)
    return VarianceReport(
        scheme, parameter, n, budget, value, contributions, aggregates, cost
    )


# --------------------------------------------------------------------------
# closed forms for the reference states
# --------------------------------------------------------------------------

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
