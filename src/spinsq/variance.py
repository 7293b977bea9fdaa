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
    _MAX_BUDGET,
    _SCHEMES,
    Parameter,
    Scheme,
    _as_parameter,
    _budget,
    _parameter_blocks,
    compose_parameter,
    sample_cost,
)
from .states import MomentTable, moment_table

__all__ = [
    "UnsupportedAnalyticCaseError",
    "VarianceReport",
    "block_variance",
    "parameter_value",
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
    if k > _MAX_BUDGET or (l or 0) > _MAX_BUDGET:
        raise ValueError("budget K and L must be at most 2**62")


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
    parameter = _as_parameter(parameter)
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
    parameter = _as_parameter(parameter)
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
