"""Separable bounds, Cantelli machinery, worst-case noise, sample planning."""

import numpy as np
import pytest
from oracles import bisect_budget

from spinsq.hypothesis import (
    _GRID,
    SampleSizeResult,
    _aggs_at,
    _family_tables,
    _maximize_over_grid,
    _variance_at,
    _worst_case,
    cantelli_bound,
    critical_noise,
    max_variance_over_noise,
    p_value_bound,
    required_budget,
    separable_bound,
)
from spinsq.schemes import _SCHEMES, Parameter, Scheme
from spinsq.states import DIRECTIONS, DepolarizedMixture, DickeState, moment_table
from spinsq.variance import var_parameter


# ---------------------------------------------------------------- bounds


def test_separable_bounds():
    b = separable_bound("c", 10)
    assert (b.bound, b.violation_side) == (5.0, "above")
    assert separable_bound("d", 2).bound == 0.0
    assert separable_bound("d", 2).violation_side == "below"
    assert separable_bound("a", 10).bound == 30.0
    assert separable_bound(Parameter("b"), 6) == separable_bound("b", 6)
    assert separable_bound("b", 6).violation_side == "below"


def test_separable_bound_requires_two_qubits():
    with pytest.raises(ValueError):
        separable_bound("a", 1)


def test_cantelli_values():
    assert cantelli_bound(0.25, 0.5) == 0.5
    assert cantelli_bound(0.0, 2.0) == 0.0
    # t * t underflows to 0: a zero variance still bounds the tail by 0
    assert cantelli_bound(0.0, 1e-200) == 0.0
    assert cantelli_bound(1e-300, 1e-200) == 1.0
    assert cantelli_bound(0.0284, 0.5) == pytest.approx(0.10204, abs=5e-5)


def test_cantelli_monotonicity():
    vs = np.linspace(0, 5, 50)
    bounds = [cantelli_bound(v, 0.7) for v in vs]
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    ts = np.linspace(0.1, 5, 50)
    bounds = [cantelli_bound(1.3, t) for t in ts]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    assert all(0 <= b < 1 for b in bounds)


def test_cantelli_validation():
    with pytest.raises(ValueError):
        cantelli_bound(1.0, 0)
    with pytest.raises(ValueError):
        cantelli_bound(-0.1, 1.0)
    for variance in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="variance must be finite and non-negative"):
            cantelli_bound(variance, 1.0)
    for t in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="t must be positive and finite"):
            cantelli_bound(1.0, t)


def test_p_value_bound():
    b = separable_bound("c", 10)
    assert p_value_bound(30, b, 0.0284) == pytest.approx(4.54e-5, rel=1e-2)
    assert p_value_bound(4, b, 0.0284) == 1.0
    assert p_value_bound(0.0, separable_bound("b", 8), 0.0) == 0.0
    # below-side violation distance: estimate 2 against bound 4
    below = separable_bound("b", 8)
    assert p_value_bound(2.0, below, 1.0) == cantelli_bound(1.0, 2.0)
    # exactly at the bound: no violation
    assert p_value_bound(5.0, b, 1.0) == 1.0
    # a bad variance is refused even where the estimate violates nothing
    for variance in (-5.0, float("nan"), float("inf")):
        for estimate in (4, 30):
            with pytest.raises(ValueError, match="variance must be finite and non-negative"):
                p_value_bound(estimate, b, variance)


def test_critical_noise():
    assert critical_noise(10) == pytest.approx(0.47368, abs=5e-6)
    assert critical_noise(2) == pytest.approx(1 / 3)
    values = [critical_noise(n) for n in range(2, 60)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(v < 0.5 for v in values)


# ---------------------------------------------------------------- noise family


def test_family_aggregate_scaling_matches_true_mixture():
    n = 6
    tables = _family_tables(n)
    for p in (0.0, 0.3, 1.0):
        true = moment_table(DepolarizedMixture(DickeState(n, 3), p))
        for ax in DIRECTIONS:
            scaled = _aggs_at(*tables[ax], p)
            expect = true.aggregates(ax)
            for key, v in expect.items():
                assert scaled[key] == pytest.approx(v, abs=1e-12), (p, ax, key)


def test_variance_at_matches_var_parameter():
    n = 8
    tables = _family_tables(n)
    for scheme, kw in [("ts", dict(k=50)), ("ap1", dict(k=9)),
                       ("ap2", dict(k=8)), ("rp1", dict(l=30, k=1)),
                       ("rp2", dict(l=20, k=2))]:
        for p in (0.0, 0.25, 1.0):
            state = DepolarizedMixture(DickeState(n, 4), p)
            direct = var_parameter(state, scheme, Parameter("c"), **kw).value
            seam = _variance_at(scheme, Parameter("c"), n, tables, p, **kw)
            assert seam == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("n", [4, 10, 20])
def test_grid_evaluation_matches_pointwise(n):
    # one array evaluation of the grid is bit for bit the per-point loop
    tables = _family_tables(n)
    grid = np.arange(0.0, 1.0005, 1e-3)
    for name, budgets in [("ts", (5, 71176)), ("ap1", (4, 35483)),
                          ("ap2", (6, 112434)), ("rp1", (7, 3193427)),
                          ("rp2", (8, 10888426))]:
        scheme = Scheme(name)
        for b in budgets:
            args = _SCHEMES[scheme].plan_budget(b)
            curve = _variance_at(scheme, Parameter("c"), n, tables, grid, **args)
            points = np.array(
                [_variance_at(scheme, Parameter("c"), n, tables, p, **args) for p in grid]
            )
            assert np.array_equal(curve, points), (name, b)


@pytest.mark.parametrize("scheme,kw", [
    ("ts", dict(k=100)), ("ap2", dict(k=10)), ("rp1", dict(l=100, k=1)),
])
def test_cached_grid_aggregates_match_a_fresh_grid(scheme, kw):
    # _GRID itself reads the aggregates cached per N; a copy computes them
    tables = _family_tables(8)
    cached = _variance_at(scheme, Parameter("c"), 8, tables, _GRID, **kw)
    fresh = _variance_at(scheme, Parameter("c"), 8, tables, _GRID.copy(), **kw)
    assert cached.tobytes() == fresh.tobytes()


def test_family_requires_two_qubits():
    with pytest.raises(ValueError):
        _family_tables(1)
    with pytest.raises(ValueError):
        required_budget("ap1", "c", 1)
    with pytest.raises(ValueError):
        required_budget("ts", "c", 1)
    with pytest.raises(ValueError):
        max_variance_over_noise("ts", "c", 1, k=10)


def test_maximize_constant_curve():
    grid = np.linspace(0, 1, 101)
    p, v = _maximize_over_grid(lambda p: np.full(np.shape(p), 3.0), grid)
    assert v == 3.0
    assert 0 <= p <= 1


def test_max_variance_location_and_value():
    p_max, v_max = max_variance_over_noise("ts", "c", 10, k=7400)
    pure = var_parameter(DickeState(10, 5), "ts", Parameter("c"), k=7400).value
    assert v_max >= pure
    assert pure == pytest.approx(0.02837838, abs=1e-6)
    assert p_max <= critical_noise(10)


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
@pytest.mark.parametrize("scheme,kw", [
    ("ts", dict(k=100)),
    ("ap1", dict(k=10)),
    ("ap2", dict(k=10)),
    ("rp1", dict(l=100, k=1)),
    ("rp2", dict(l=50, k=2)),
])
def test_worst_case_inside_separable_region(n, scheme, kw):
    p_max, _ = max_variance_over_noise(scheme, "c", n, **kw)
    assert 0 <= p_max <= critical_noise(n) + 1e-9


def test_refinement_consistent_with_grid():
    # the refined maximum can only improve on the dense grid, and only barely
    p_max, v_max = max_variance_over_noise("ts", "c", 10, k=500)
    grid = np.arange(0.0, 1.0005, 1e-3)
    tables = _family_tables(10)
    grid_max = max(_variance_at("ts", Parameter("c"), 10, tables, p, k=500) for p in grid)
    assert v_max >= grid_max - 1e-15
    assert v_max == pytest.approx(grid_max, rel=1e-6)


# ---------------------------------------------------------------- planner


def _bound_at(scheme, budget, t):
    kw = _SCHEMES[Scheme(scheme)].plan_budget(budget)
    _, v = max_variance_over_noise(scheme, "c", 10, **kw)
    return cantelli_bound(v, t)


def test_required_budget_minimality():
    for scheme, step in [("ts", 1), ("ap1", 1), ("ap2", 2), ("rp1", 1), ("rp2", 2)]:
        r = required_budget(scheme, "c", 10)
        assert _bound_at(scheme, r.budget, r.t) <= 0.05
        assert _bound_at(scheme, r.budget - step, r.t) > 0.05
        assert 0 <= r.worst_case_p <= 1


def test_required_budget_reference_values():
    # regression pins at the default margin/confidence; each is certified
    # minimal by the invariant test above
    budgets = {s: required_budget(s, "c", 10).budget
               for s in ("ts", "ap1", "ap2", "rp1", "rp2")}
    assert budgets == {
        "ts": 71176,
        "ap1": 35483,
        "ap2": 112434,
        "rp1": 3193427,
        "rp2": 10888426,
    }


def test_required_budget_defaults():
    r = required_budget("ts", "c", 10)
    assert r.t == pytest.approx(0.5)
    assert r.gamma == 0.95
    assert r.n_qubits == 10


def test_tiny_gamma_returns_grid_minimum():
    assert required_budget("ts", "c", 10, gamma=1e-9).budget == 2
    assert required_budget("ap2", "c", 10, gamma=1e-9).budget == 2
    assert required_budget("rp2", "c", 10, gamma=1e-9).budget == 4


def test_budget_respects_scheme_grid():
    assert required_budget("ap2", "c", 10).budget % 2 == 0
    r = required_budget("rp2", "c", 10)
    assert r.budget % 2 == 0 and r.budget >= 4


def test_scheme_cost_ordering():
    res = {s: required_budget(s, "c", 10).total_preparations
           for s in ("ts", "ap1", "ap2", "rp1", "rp2")}
    assert res["ts"] < res["ap1"]
    assert res["ts"] < res["rp1"]
    # the all-pairs and random-pair single-dataset schemes land essentially
    # on top of each other
    assert abs(res["ap1"] - res["rp1"]) / res["ap1"] < 0.01
    assert max(res["ap1"], res["rp1"]) < res["ap2"]
    assert res["ap2"] <= res["rp2"]


def test_planner_validation():
    for t in (0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="t must be positive and finite"):
            required_budget("ts", "c", 10, t=t)
    with pytest.raises(ValueError):
        required_budget("ts", "c", 10, gamma=1.0)
    with pytest.raises(ValueError):
        required_budget("ts", "c", 10, gamma=0.0)
    # (1 - gamma) * t * t underflows to 0: no variance passes at any budget
    for t, gamma in ((1e-200, 0.95), (1e-155, 1 - 1e-16)):
        with pytest.raises(ValueError, match="the margin t is too small"):
            required_budget("ts", "c", 4, t=t, gamma=gamma)
    # a variance of about 5e-202 would pass, far beyond any budget
    with pytest.raises(ValueError, match="no budget up to 2\\*\\*62 passes"):
        required_budget("ts", "c", 4, t=1e-100)


# (budget, total preparations) of the fig9 sweep: parameter c, N = 4, 6, ..., 20
# (the budgets are those perfbench/fig9_budgets.json checks)
_FIG9 = {
    "ts": [
        (8134, 24402), (21731, 65193), (42693, 128079),
        (71176, 213528), (107237, 321711), (150903, 452709),
        (202186, 606558), (261093, 783279), (327609, 982827),
    ],
    "ap1": [
        (3919, 141084), (10688, 961920), (21197, 3561096),
        (35483, 9580410), (53557, 21208572), (75424, 41181504),
        (101086, 72781920), (130546, 119841228), (163804, 186736560),
    ],
    "ap2": [
        (12470, 648440), (34438, 4339188), (67748, 15717536),
        (112434, 41600580), (168508, 90994320), (235974, 175092708),
        (314836, 307279936), (405096, 503129232), (506754, 780401160),
    ],
    "rp1": [
        (47027, 141081), (320627, 961881), (1187027, 3561081),
        (3193427, 9580281), (7069427, 21208281), (13727027, 41181081),
        (24260627, 72781881), (39947027, 119841081), (62245427, 186736281),
    ],
    "rp2": [
        (183826, 735304), (1175626, 4702504), (4166226, 16664904),
        (10888426, 43553704), (23622226, 94488904), (45194826, 180779304),
        (78980626, 315922504), (128901226, 515604904), (199425426, 797701704),
    ],
}


# worst-case visibility of the same calls, as float.hex: bit-exact pins
_FIG9_WORST_P = {
    "ts": [
        "0x1.875046a9afd71p-3", "0x1.0dcbddcff5873p-3", "0x1.6830ca284ca5dp-4",
        "0x1.db208d768a3eep-5", "0x1.2c906ac9c75e7p-5", "0x1.55bf2baab9d23p-6",
        "0x1.1c1355dcfb502p-7", "0x0.0p+0", "0x0.0p+0",
    ],
    **{scheme: ["0x0.0p+0"] * 9 for scheme in ("ap1", "ap2", "rp1", "rp2")},
}


def test_planner_growth_and_scheme_minimum():
    ns = range(4, 21, 2)
    by_scheme = {}
    for scheme in ("ts", "ap1", "ap2", "rp1", "rp2"):
        results = [required_budget(scheme, "c", n) for n in ns]
        assert [(r.budget, r.total_preparations) for r in results] == _FIG9[scheme]
        assert [r.worst_case_p.hex() for r in results] == _FIG9_WORST_P[scheme]
        totals = [r.total_preparations for r in results]
        assert all(a <= b for a, b in zip(totals, totals[1:])), scheme
        by_scheme[scheme] = totals
    for i in range(len(list(ns))):
        others = [by_scheme[s][i] for s in ("ap1", "ap2", "rp1", "rp2")]
        assert by_scheme["ts"][i] == min([by_scheme["ts"][i]] + others)


def test_result_serialization():
    r = required_budget("rp2", "c", 10)
    assert isinstance(r, SampleSizeResult)
    data = r.to_json()
    assert data["scheme"] == "rp2"
    assert data["parameter"] == "c"
    assert data["budget"] == r.budget
    assert data["total_preparations"] == r.total_preparations


# ---------------------------------------------------------------- budget search


def _key(r):
    return (r.budget, r.total_preparations, r.worst_case_p.hex())


# ts walks of more than 1000 refined steps (2-15 s each in the oracle):
# checked by the adjacent pair of refined bounds the walk ends on instead
_LONG_WALKS = {
    ("d", 9, 0.003), ("d", 10, 0.003), ("d", 11, 0.003), ("d", 12, 0.003),
    ("d", 12, 0.01), ("d:kzlxmy", 9, 0.003), ("d:kzlxmy", 10, 0.003),
}


@pytest.mark.parametrize("scheme", ["ts", "ap1", "ap2", "rp1", "rp2"])
def test_required_budget_matches_the_bisection_oracle(scheme):
    row = _SCHEMES[Scheme(scheme)]
    for parameter in ("a", "b", "c", "d", "d:kzlxmy"):
        for n in range(2, 13):
            for t in (None, 0.01, 0.003):
                r = required_budget(scheme, parameter, n, t=t)
                if scheme == "ts" and (parameter, n, t) in _LONG_WALKS:
                    tables = _family_tables(n)
                    bounds = [
                        cantelli_bound(_worst_case(Scheme(scheme), Parameter.parse(parameter),
                                                   n, tables, row.plan_budget(b))[1], t)
                        for b in (r.budget - row.plan_step, r.budget)
                    ]
                    assert bounds[0] > 0.05 >= bounds[1], (parameter, n, t)
                    continue
                assert _key(r) == _key(bisect_budget(scheme, parameter, n, t=t)), (parameter, n, t)
            if n in (4, 12):
                for gamma in (0.9, 0.99):
                    r = required_budget(scheme, parameter, n, gamma=gamma)
                    assert _key(r) == _key(bisect_budget(scheme, parameter, n, gamma=gamma))


def test_refined_confirmation_is_aimed(monkeypatch):
    # the refined bound passes far above the grid's answer here: walking
    # one budget step at a time called _worst_case 1,007 times
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[4])
        return _worst_case(*args, **kwargs)

    monkeypatch.setattr("spinsq.hypothesis._worst_case", counted)
    r = required_budget("ts", "c", 4, t=1e-4)
    assert r.budget == 32530514707
    assert r.worst_case_p.hex() == "0x1.8787746649f20p-3"
    assert len(calls) <= 20


def test_fig9_calls_evaluate_few_grids(monkeypatch):
    # the 1/budget aim lands next to the crossing: 3-4 whole-grid
    # evaluations per call, where exponential search and bisection took ~40
    grids = []

    def counted(*args, **kwargs):
        if np.ndim(args[4]):
            grids.append(args[:3])
        return _variance_at(*args, **kwargs)

    monkeypatch.setattr("spinsq.hypothesis._variance_at", counted)
    for scheme in ("ts", "ap1", "ap2", "rp1", "rp2"):
        for n in range(4, 21, 2):
            grids.clear()
            required_budget(scheme, "c", n)
            assert 1 <= len(grids) <= 8, (scheme, n, len(grids))
