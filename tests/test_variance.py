"""Analytic variance engine: worked values, enumeration oracles, closed forms.

The enumeration helpers below recompute estimator variances by exhausting all
outcome configurations (exactly, via per-slot convolution with rational
probabilities, or in float64 for the collective-outcome distribution) and are
the independent check on every analytic formula.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from spinsq.schemes import (
    Parameter,
    _ts_dj2,
    _ts_j2,
    ordered_pairs,
    square_pairs,
)
from spinsq.states import (
    DepolarizedMixture,
    DickeState,
    Direction,
    ManyBodySinglet,
    moment_table,
    total_spin_distribution,
)
from spinsq.hypothesis import max_variance_over_noise
from spinsq.variance import UnsupportedAnalyticCaseError, parameter_value, var_parameter

from oracles import (
    closed_form,
    var_deltaJ2_ap,
    var_deltaJ2_rp,
    var_deltaJ2_ts,
    var_J2_ap,
    var_J2_rp,
    var_J2_ts,
    var_Jsq_rsplit,
    var_Jsq_split,
)

X, Y, Z = Direction.X, Direction.Y, Direction.Z

D105 = DickeState(10, 5)
SINGLET8 = ManyBodySinglet(8)


# ---------------------------------------------------------------- worked values


def test_var_j2_ts_values():
    assert var_J2_ts(ManyBodySinglet(6), X, 5) == 0
    assert var_J2_ts(D105, X, 7400, exact=True) == Fraction(105, 7400)
    assert var_J2_ts(D105, Z, 17) == 0


def test_var_dj2_ts_values():
    assert var_deltaJ2_ts(ManyBodySinglet(6), Y, 10) == 0
    assert var_deltaJ2_ts(D105, Z, 12) == 0


def test_var_j2_ap_values():
    assert var_J2_ap(SINGLET8, X, 1) == pytest.approx(3.0)
    # fully correlated pairs: all-excited state along z saturates to zero
    assert var_J2_ap(DickeState(10, 0), Z, 4) == 0
    value = var_J2_ap(D105, X, 82, exact=True)
    # (90 - 90*(5/9)^2) / (16*82)
    assert value == (90 - 90 * Fraction(5, 9) ** 2) / Fraction(16 * 82)
    assert value == Fraction(35, 738)


def test_var_jsq_split_values():
    assert var_Jsq_split(SINGLET8, X, 10) == pytest.approx(0.8)
    assert var_Jsq_split(DickeState(6, 0), Z, 4) == 0
    assert var_Jsq_split(D105, Z, 60, exact=True) == Fraction(100, 480)


def test_var_j2_rp_values():
    assert var_J2_rp(D105, X, 7400, 1, exact=True) == Fraction(350, 7400)
    assert var_J2_rp(D105, X, 7400, 1) == pytest.approx(0.0472973, abs=1e-7)


def test_var_jsq_rsplit_values():
    assert var_Jsq_rsplit(SINGLET8, X, 10, 2) == pytest.approx(25.6)


def test_var_dj2_rp_matches_closed_form_share():
    # isotropic state: one direction carries a third of the three-direction sum
    per_dir = var_deltaJ2_rp(SINGLET8, X, 5, exact=True)
    total = closed_form("rp1", "b", "singlet", 8, l=5, k=1, exact=True)
    assert 3 * per_dir == total


def test_var_dj2_rp_rejects_repetitions():
    with pytest.raises(UnsupportedAnalyticCaseError):
        var_deltaJ2_rp(SINGLET8, X, 5, k=2)


def test_budget_validation():
    with pytest.raises(ValueError):
        var_deltaJ2_ts(D105, X, 1)
    with pytest.raises(ValueError):
        var_deltaJ2_ap(D105, X, 1)
    with pytest.raises(ValueError, match="even"):
        var_Jsq_split(D105, X, 5)
    with pytest.raises(ValueError, match="L"):
        var_deltaJ2_rp(D105, X, 1)


def test_budget_beyond_2_62_is_refused():
    huge = 10 ** 400  # too large for a float
    with pytest.raises(ValueError, match=r"at most 2\*\*62"):
        var_parameter(D105, "ts", Parameter("c"), k=huge)
    with pytest.raises(ValueError, match=r"at most 2\*\*62"):
        var_parameter(D105, "rp2", Parameter("c"), l=2 ** 62 + 1, k=2)
    with pytest.raises(ValueError, match=r"at most 2\*\*62"):
        max_variance_over_noise("ts", Parameter("c"), 10, k=huge)
    assert var_parameter(D105, "ts", Parameter("c"), k=2 ** 62).value > 0


# ---------------------------------------------------------------- reference table


def test_reference_budget_variances():
    c = Parameter("c")
    ts = var_parameter(D105, "ts", c, k=7400, exact=True)
    assert ts.value == Fraction(210, 7400)
    assert float(ts.value) == pytest.approx(0.02837838, abs=5e-8)

    ap1 = var_parameter(D105, "ap1", c, k=82, exact=True)
    assert ap1.value == Fraction(96127760, 17216064)
    assert float(ap1.value) == pytest.approx(5.5836, abs=5e-5)

    ap2 = var_parameter(D105, "ap2", c, k=60, exact=True)
    assert ap2.value == Fraction(423440, 17280)
    assert float(ap2.value) == pytest.approx(24.5046, abs=5e-5)

    rp1 = var_parameter(D105, "rp1", c, l=7400, k=1, exact=True)
    assert float(rp1.value) == pytest.approx(5.5685, abs=5e-5)

    rp2 = var_parameter(D105, "rp2", c, l=2775, k=2, exact=True)
    assert rp2.value == Fraction(4558400, 177600)
    assert float(rp2.value) == pytest.approx(25.6667, abs=5e-5)


def test_ap1_variance_near_equal_sample_budget():
    # at K = 83 (22,140-sample parity point plus one repetition) the published
    # four-digit value 5.5163 is reproduced; kept as an exact regression pin
    v = var_parameter(D105, "ap1", Parameter("c"), k=83, exact=True).value
    assert v == Fraction(148345, 26892)
    assert float(v) == pytest.approx(5.5163, abs=5e-5)


# ---------------------------------------------------------------- closed forms


def test_closed_form_examples():
    assert closed_form("ts", "c", "dicke_half", 10, k=7400, exact=True) == Fraction(
        13440, 64 * 7400
    )
    assert closed_form("ts", "b", "singlet", 8, k=100) == 0
    assert closed_form("ap2", "d", "singlet", 8, k=10) == pytest.approx(108.1)


def test_closed_form_takes_the_budgets_var_parameter_takes():
    with pytest.raises(ValueError, match="K must be an integer >= 2"):
        closed_form("ts", "c", "dicke_half", 10, k=1)
    with pytest.raises(UnsupportedAnalyticCaseError):
        closed_form("rp1", "b", "singlet", 4, l=5)  # K omitted
    states = {"singlet": ManyBodySinglet(4), "dicke_half": DickeState(4, 2)}

    def accepts(call):
        try:
            call()
        except ValueError:
            return False
        return True

    for scheme in ("ts", "ap1", "ap2", "rp1", "rp2"):
        for kind, family in (("b", "singlet"), ("d", "singlet"), ("c", "dicke_half")):
            for k, l in itertools.product((None, 1, 2, 3, 4), (None, 1, 2, 3)):
                engine = accepts(lambda: var_parameter(
                    states[family], scheme, Parameter(kind), k=k, l=l))
                closed = accepts(lambda: closed_form(scheme, kind, family, 4, k=k, l=l))
                assert engine == closed, (scheme, kind, k, l)


def test_closed_form_rejects_unsupported():
    with pytest.raises(ValueError, match="closed form"):
        closed_form("ts", "a", "singlet", 8, k=10)
    with pytest.raises(ValueError, match="closed form"):
        closed_form("ts", "c", "singlet", 8, k=10)
    with pytest.raises(ValueError, match="even"):
        closed_form("ts", "b", "singlet", 7, k=10)
    with pytest.raises(ValueError, match="m = z"):
        closed_form("ts", Parameter.parse("c:kzlymx"), "dicke_half", 8, k=10)
    with pytest.raises(UnsupportedAnalyticCaseError):
        closed_form("rp1", "b", "singlet", 8, l=10, k=3)


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
@pytest.mark.parametrize(
    "scheme,budgets",
    [
        ("ts", [dict(k=2), dict(k=9), dict(k=100)]),
        ("ap1", [dict(k=2), dict(k=9), dict(k=100)]),
        ("ap2", [dict(k=2), dict(k=10), dict(k=100)]),
        ("rp1", [dict(l=2, k=1), dict(l=9, k=1), dict(l=100, k=1)]),
        ("rp2", [dict(l=2, k=2), dict(l=9, k=2), dict(l=50, k=4)]),
    ],
)
def test_closed_form_equals_engine(n, scheme, budgets):
    singlet = ManyBodySinglet(n)
    dicke = DickeState(n, n // 2)
    for budget in budgets:
        for par, family, state in [
            (Parameter("b"), "singlet", singlet),
            (Parameter("d"), "singlet", singlet),
            (Parameter("c"), "dicke_half", dicke),
        ]:
            engine = var_parameter(state, scheme, par, exact=True, **budget).value
            assert engine == closed_form(scheme, par, family, n, exact=True, **budget)


# ---------------------------------------------------------------- enumeration


def _weighted_variance(values_probs):
    mean = sum(v * p for v, p in values_probs)
    second = sum(v * v * p for v, p in values_probs)
    return second - mean * mean


def _enum_ts(state, axis, k, stat):
    """Exhaust all K-tuples of collective outcomes (float probabilities)."""
    outcomes, probs = total_spin_distribution(state, axis)
    keep = probs > 0
    outcomes, probs = outcomes[keep], probs[keep]
    acc = []
    for combo in itertools.product(range(len(outcomes)), repeat=k):
        p = 1.0
        s1 = s2 = 0
        for c in combo:
            p *= probs[c]
            v = int(outcomes[c])
            s1 += v
            s2 += v * v
        est = (_ts_j2 if stat == "j2" else _ts_dj2)(state.n_qubits, k, None, s1, s2)
        acc.append((est, p))
    return _weighted_variance(acc)


def _joint_pair_cats(mt, axis, i, j):
    """Joint outcome categories with integer weights over a common denom."""
    a1 = mt.singles[axis][i]
    a2 = mt.singles[axis][j]
    c = mt.pairs[axis][i, j]
    probs = {
        (s1, s2): Fraction(1 + s1 * a1 + s2 * a2 + s1 * s2 * c, 4)
        for s1, s2 in itertools.product((1, -1), repeat=2)
    }
    den = math.lcm(*(p.denominator for p in probs.values()))
    cats = [(key, int(p * den)) for key, p in probs.items() if p]
    return den, cats


def _enum_ap(state, axis, k, stat):
    """Exact distribution of the all-pairs sums via per-slot convolution."""
    mt = moment_table(state)
    n = state.n_qubits
    # state key: (per-rep first sums, per-rep second sums, product total);
    # values are integer weights over the accumulated denominator
    dist = {((0,) * k, (0,) * k, 0): 1}
    denom = 1
    for i, j in ordered_pairs(n):
        den, cats = _joint_pair_cats(mt, axis, int(i), int(j))
        denom *= den ** k
        deltas = []
        for reps in itertools.product(cats, repeat=k):
            w = 1
            da = [0] * k
            db = [0] * k
            dp = 0
            for r, ((s1, s2), wr) in enumerate(reps):
                w *= wr
                da[r] += s1
                db[r] += s2
                dp += s1 * s2
            deltas.append((tuple(da), tuple(db), dp, w))
        new = {}
        for (a, b, tot), q in dist.items():
            for da, db, dp, w in deltas:
                key = (
                    tuple(x + y for x, y in zip(a, da)),
                    tuple(x + y for x, y in zip(b, db)),
                    tot + dp,
                )
                new[key] = new.get(key, 0) + q * w
        dist = new
    acc = []
    for (a, b, tot), q in dist.items():
        sa, sb = sum(a), sum(b)
        sab = sum(x * y for x, y in zip(a, b))
        if stat == "j2":
            est = Fraction(n * k + tot, 4 * k)
        else:
            est = Fraction(
                (n * k + tot) * (k - 1) * (n - 1) ** 2 - (sa * sb - sab),
                4 * k * (k - 1) * (n - 1) ** 2,
            )
        acc.append((est, Fraction(q, denom)))
    return _weighted_variance(acc)


def _enum_rp(state, axis, l, stat):
    """Exact distribution over random slot choices and outcomes (K = 1)."""
    mt = moment_table(state)
    n = state.n_qubits
    pairs = [(int(i), int(j)) for i, j in ordered_pairs(n)]
    m = len(pairs)
    acc = []
    per_slot = []
    for i, j in pairs:
        den, cats = _joint_pair_cats(mt, axis, i, j)
        per_slot.append([(s1, s2, Fraction(w, den)) for (s1, s2), w in cats])
    for slots in itertools.product(range(m), repeat=l):
        for outs in itertools.product(*(per_slot[s] for s in slots)):
            p = Fraction(1, m ** l)
            prod = 0
            a = []
            b = []
            for s1, s2, pr in outs:
                p *= pr
                prod += s1 * s2
                a.append(s1)
                b.append(s2)
            if stat == "j2":
                est = Fraction(n * l + n * (n - 1) * prod, 4 * l)
            else:
                sa, sb = sum(a), sum(b)
                sab = sum(x * y for x, y in zip(a, b))
                est = Fraction(
                    n * l * (l - 1)
                    + n * (n - 1) * prod * (l - 1)
                    - n * n * (sa * sb - sab),
                    4 * l * (l - 1),
                )
            acc.append((est, p))
    return _weighted_variance(acc)


def _enum_rsplit(state, axis, l, k):
    """Exact distribution over random split cells (first/second series)."""
    mt = moment_table(state)
    n = state.n_qubits
    cells = [(int(i), int(j)) for i, j in square_pairs(n)]
    half = k // 2

    def single_probs(i):
        a = mt.singles[axis][i]
        return [(1, Fraction(1 + a, 2)), (-1, Fraction(1 - a, 2))]

    acc = []
    for slots in itertools.product(range(len(cells)), repeat=l):
        firsts = [single_probs(cells[s][0]) for s in slots for _ in range(half)]
        seconds = [single_probs(cells[s][1]) for s in slots for _ in range(half)]
        for fo in itertools.product(*firsts):
            for so in itertools.product(*seconds):
                p = Fraction(1, len(cells) ** l)
                prod = 0
                for (sf, pf), (ss, ps) in zip(fo, so):
                    p *= pf * ps
                    prod += sf * ss
                est = Fraction(n * n * prod, 2 * k * l)
                acc.append((est, p))
    return _weighted_variance(acc)


def test_enum_ts_mixture_exact_pin():
    state = DepolarizedMixture(DickeState(3, 1), Fraction(3, 5))
    enum = _enum_ts(state, Z, 3, "dj2")
    engine = var_deltaJ2_ts(state, Z, 3, exact=True)
    assert engine == Fraction(144, 625)
    assert enum == pytest.approx(float(engine), abs=1e-12)
    assert _enum_ts(state, Z, 3, "j2") == pytest.approx(
        float(var_J2_ts(state, Z, 3, exact=True)), abs=1e-12
    )


def test_enum_ts_dicke_x():
    for stat, op in [("j2", var_J2_ts), ("dj2", var_deltaJ2_ts)]:
        enum = _enum_ts(D105, X, 3, stat)
        assert enum == pytest.approx(op(D105, X, 3), rel=1e-9)


def test_enum_ap_dicke_z():
    state = DickeState(3, 1)
    assert _enum_ap(state, Z, 2, "j2") == Fraction(1, 6)
    assert var_J2_ap(state, Z, 2, exact=True) == Fraction(1, 6)
    assert _enum_ap(state, Z, 2, "dj2") == Fraction(1, 9)
    assert var_deltaJ2_ap(state, Z, 2, exact=True) == Fraction(1, 9)


def test_enum_ap_uncorrelated_state():
    # fully mixed three-qubit state: every correlator vanishes
    state = DepolarizedMixture(DickeState(3, 1), Fraction(0))
    for stat, op in [("j2", var_J2_ap), ("dj2", var_deltaJ2_ap)]:
        assert _enum_ap(state, Z, 2, stat) == op(state, Z, 2, exact=True)


def test_enum_ap_dicke_x():
    state = DickeState(3, 1)
    for stat, op in [("j2", var_J2_ap), ("dj2", var_deltaJ2_ap)]:
        assert _enum_ap(state, X, 2, stat) == op(state, X, 2, exact=True)


def test_enum_rp_dicke_z():
    state = DickeState(3, 1)
    assert _enum_rp(state, Z, 2, "j2") == Fraction(1)
    assert var_J2_rp(state, Z, 2, 1, exact=True) == Fraction(1)
    assert _enum_rp(state, Z, 2, "dj2") == Fraction(11, 4)
    assert var_deltaJ2_rp(state, Z, 2, exact=True) == Fraction(11, 4)


def test_enum_rsplit_dicke_z():
    state = DickeState(3, 1)
    enum = _enum_rsplit(state, Z, 2, 2)
    assert enum == Fraction(5, 2)
    assert var_Jsq_rsplit(state, Z, 2, 2, exact=True) == Fraction(5, 2)


# ---------------------------------------------------------------- parameter values


def test_parameter_values():
    assert parameter_value(D105, Parameter("c")) == 30.0
    assert parameter_value(ManyBodySinglet(6), Parameter("b")) == 0.0
    mm = DepolarizedMixture(DickeState(4, 1), 0)
    assert parameter_value(mm, Parameter("a")) == 3.0  # 3N/4 at N=4
    assert parameter_value(ManyBodySinglet(8), Parameter("d"), exact=True) == 0


def test_parameter_value_custom_axes():
    # swapping k/l axes leaves C unchanged for x-y symmetric states
    assert parameter_value(D105, Parameter.parse("c:kylxmz")) == parameter_value(
        D105, Parameter("c")
    )


# ---------------------------------------------------------------- report shape


def test_report_contributions_sum():
    for scheme, budget in [
        ("ts", dict(k=11)),
        ("ap1", dict(k=5)),
        ("ap2", dict(k=6)),
        ("rp1", dict(l=9, k=1)),
        ("rp2", dict(l=8, k=2)),
    ]:
        for kind in "abcd":
            rep = var_parameter(D105, scheme, Parameter(kind), **budget)
            assert rep.value == sum(rep.contributions.values())
            assert rep.value >= 0
            assert len(rep.contributions) == 3
            assert rep.n_qubits == 10


def test_report_weights_enter_squared():
    rep = var_parameter(D105, "ts", Parameter("c"), k=100, exact=True)
    direct = var_deltaJ2_ts(D105, Z, 100, exact=True)
    assert rep.contributions["dj2_z"] == 81 * direct


def test_report_json():
    rep = var_parameter(D105, "rp2", Parameter("d"), l=10, k=2)
    blob = json.dumps(rep.to_json())
    data = json.loads(blob)
    assert data["scheme"] == "rp2"
    assert data["budget"] == {"l": 10, "k": 2}
    assert data["value"] == pytest.approx(float(rep.value))
    assert set(data["aggregates"]) == {"x", "y", "z"}
    assert data["samples_used"] == rep.samples_used


def test_rp1_variance_requires_single_repetition():
    with pytest.raises(UnsupportedAnalyticCaseError):
        var_parameter(D105, "rp1", Parameter("b"), l=10, k=2)
    # second-moment-only parameter is fine at any K
    rep = var_parameter(D105, "rp1", Parameter("a"), l=10, k=3)
    assert rep.value > 0


# ---------------------------------------------------------------- properties


@pytest.mark.parametrize("scheme,budgets", [
    ("ts", [dict(k=k) for k in (2, 3, 5, 9, 20, 100)]),
    ("ap1", [dict(k=k) for k in (2, 3, 5, 9, 20, 100)]),
    ("ap2", [dict(k=k) for k in (2, 4, 6, 10, 20, 100)]),
    ("rp1", [dict(l=l, k=1) for l in (2, 3, 5, 9, 20, 100)]),
    ("rp2", [dict(l=l, k=2) for l in (2, 3, 5, 9, 20, 100)]),
])
def test_variance_monotone_in_budget(scheme, budgets):
    state = DepolarizedMixture(DickeState(6, 3), Fraction(4, 5))
    for kind in "bcd":
        values = [
            var_parameter(state, scheme, Parameter(kind), **b).value for b in budgets
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v >= 0 for v in values)


def _loglog_slope(ns, values):
    return np.polyfit(np.log(ns), np.log(values), 1)[0]


def test_variance_scaling_exponents():
    ns = np.arange(8, 65, 2)
    cases = [
        ("ap1", Parameter("b"), "singlet", dict(k=10), 2),
        ("ap2", Parameter("b"), "singlet", dict(k=10), 2),
        ("rp1", Parameter("b"), "singlet", dict(l=100, k=1), 4),
        ("rp2", Parameter("b"), "singlet", dict(l=100, k=2), 4),
        ("ap2", Parameter("d"), "singlet", dict(k=10), 4),
        ("rp2", Parameter("d"), "singlet", dict(l=100, k=2), 6),
        ("ts", Parameter("c"), "dicke_half", dict(k=100), 4),
        ("ap1", Parameter("c"), "dicke_half", dict(k=10), 4),
        ("ap2", Parameter("c"), "dicke_half", dict(k=10), 4),
        ("rp2", Parameter("c"), "dicke_half", dict(l=100, k=2), 6),
    ]
    for scheme, par, family, budget, expo in cases:
        values = [
            float(closed_form(scheme, par, family, int(n), **budget)) for n in ns
        ]
        assert _loglog_slope(ns, values) == pytest.approx(expo, abs=0.15)


def test_variance_scaling_asymptotic_regime():
    # the three combinations with the fattest subleading terms reach their
    # leading order only deeper in N; confirmed on the upper half of the range
    ns = np.arange(32, 65, 2)
    cases = [
        ("ap1", Parameter("d"), "singlet", dict(k=10), 4),
        ("rp1", Parameter("d"), "singlet", dict(l=100, k=1), 6),
        ("rp1", Parameter("c"), "dicke_half", dict(l=100, k=1), 6),
    ]
    for scheme, par, family, budget, expo in cases:
        values = [
            float(closed_form(scheme, par, family, int(n), **budget)) for n in ns
        ]
        assert _loglog_slope(ns, values) == pytest.approx(expo, abs=0.15)


def test_exact_flag_controls_types():
    v = var_J2_ts(D105, X, 3)
    assert isinstance(v, float)
    v = var_J2_ts(D105, X, 3, exact=True)
    assert isinstance(v, Fraction)
    rep = var_parameter(D105, "ap1", Parameter("b"), k=5, exact=True)
    assert isinstance(rep.value, Fraction)
