"""Release acceptance checks, one test per checklist item.

Each test prints a single ``[i/10] label: PASS|FAIL`` verdict line (run
with ``pytest -s`` to see the lines of passing tests too) and asserts the
same condition, so the pytest outcome always matches the printed line.

Frozen numbers were fixed by exact rational arithmetic before the engine
was written; the module tests hold their derivations.  The Monte-Carlo
checks run 10^4 trials per configuration: check 4 on the shot-level
reference path (``oracles.shot_trials``), check 5 through ``run_trials``,
which draws counts.  Checks 9 and 10
state separation/scaling targets that the exact formulas miss on part of
the stated range; rather than being weakened silently they fail with the
measured values in the assertion message.
"""

import math
import time
from fractions import Fraction

import numpy as np

from spinsq.hypothesis import critical_noise, max_variance_over_noise
from spinsq.montecarlo import compare_analytic, run_trials, sweep_sample_size
from spinsq.schemes import (
    PairDataset,
    Parameter,
    RandomPairDataset,
    ordered_pairs,
)
from spinsq.states import (
    DenseState,
    DepolarizedMixture,
    DickeState,
    Direction,
    ManyBodySinglet,
    moment_table,
)
from spinsq.variance import parameter_value, var_parameter

from oracles import (
    _est_deltaJ2_ap_naive,
    _est_deltaJ2_rp_naive,
    closed_form,
    est_deltaJ2_ap,
    est_deltaJ2_rp,
    shot_trials,
    var_deltaJ2_ap,
    var_deltaJ2_ts,
    var_J2_ap,
    var_J2_ts,
)

X, Y, Z = Direction.X, Direction.Y, Direction.Z

D105 = DickeState(10, 5)
SINGLET8 = ManyBodySinglet(8)

_SCHEME_ORDER = ("ts", "ap1", "ap2", "rp1", "rp2")

# the bundled reference configuration: one budget per scheme, sized so all
# five variance cells land near their frozen 4-decimal values below
_REFERENCE_BUDGETS = {
    "ts": dict(k=7400),
    "ap1": dict(k=82),
    "ap2": dict(k=60),
    "rp1": dict(l=7400, k=1),
    "rp2": dict(l=2775, k=2),
}
_REFERENCE_VARIANCES = {
    "ts": 0.0284,
    "ap1": 5.5836,
    "ap2": 24.5046,
    "rp1": 5.5685,
    "rp2": 25.6667,
}


def _verdict(num, label, ok, detail=""):
    """Print the one-line verdict and hand back the assert message."""
    tail = f" - {detail}" if detail else ""
    print(f"[{num:2d}/10] {label}: {'PASS' if ok else 'FAIL'}{tail}")
    return f"{label}: {detail}" if detail else label


# ------------------------------------------------------------- 1: variances


def test_01_reference_variance_table():
    start = time.perf_counter()
    got = {
        name: float(var_parameter(D105, name, Parameter("c"), **budget).value)
        for name, budget in _REFERENCE_BUDGETS.items()
    }
    elapsed = time.perf_counter() - start
    off = [n for n in got if abs(got[n] - _REFERENCE_VARIANCES[n]) > 5e-5]
    ok = not off and elapsed < 1.0
    msg = _verdict(
        1,
        "analytic reference variances",
        ok,
        ", ".join(f"{n}={v:.4f}" for n, v in got.items())
        + f"; {elapsed * 1e3:.0f} ms",
    )
    assert ok, msg


def test_02_all_pairs_spot_value():
    # one extra repetition on the 82-repetition all-pairs reference budget
    exact = var_parameter(D105, "ap1", Parameter("c"), k=83, exact=True).value
    ok = exact == Fraction(148345, 26892) and abs(float(exact) - 5.5163) <= 5e-5
    msg = _verdict(2, "all-pairs spot value at K=83", ok, f"{float(exact):.7f}")
    assert ok, msg


# ---------------------------------------------------------- 3: closed forms


_SUPPORTED_FAMILIES = [("b", "singlet"), ("d", "singlet"), ("c", "dicke_half")]
_SPOT_BUDGETS = {
    "ts": dict(k=9),
    "ap1": dict(k=9),
    "ap2": dict(k=10),
    "rp1": dict(l=9, k=1),
    "rp2": dict(l=9, k=2),
}


def test_03_closed_forms_match_engine():
    start = time.perf_counter()
    worst = 0.0
    zeros_ok = True
    for n in (4, 6, 8, 10, 12):
        states = {"singlet": ManyBodySinglet(n), "dicke_half": DickeState(n, n // 2)}
        for scheme, budget in _SPOT_BUDGETS.items():
            for kind, family in _SUPPORTED_FAMILIES:
                engine = float(
                    var_parameter(states[family], scheme, Parameter(kind), **budget).value
                )
                closed = float(closed_form(scheme, kind, family, n, **budget))
                if closed == 0.0:
                    zeros_ok = zeros_ok and engine == 0.0
                else:
                    worst = max(worst, abs(engine / closed - 1.0))
    pinned = closed_form("ts", "c", "dicke_half", 10, k=7400, exact=True)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and zeros_ok and pinned == Fraction(21, 740) and elapsed < 5.0
    msg = _verdict(
        3,
        "closed forms vs moment engine",
        ok,
        f"75 cells, worst rel dev {worst:.1e}, pinned cell {pinned}, {elapsed:.2f} s",
    )
    assert ok, msg


# ------------------------------------------------- 4 + 5: Monte-Carlo suite


_TRIAL_COUNT = 10_000
_MC_STATES = {"dicke": D105, "singlet": SINGLET8}
_MC_CACHE = {}


def _mc_stats(scheme, kind, which, run=run_trials):
    """10^4 end-to-end trials at the reference budget, cached across tests."""
    key = (scheme, kind, which, run)
    if key not in _MC_CACHE:
        index = (_SCHEME_ORDER.index(scheme) * 3 + "bcd".index(kind)) * 2
        index += ("dicke", "singlet").index(which)
        _MC_CACHE[key] = run(
            _MC_STATES[which],
            scheme,
            Parameter(kind),
            trials=_TRIAL_COUNT,
            master_seed=41_000 + index,
            **_REFERENCE_BUDGETS[scheme],
        )
    return _MC_CACHE[key]


def test_04_monte_carlo_variance_match():
    start = time.perf_counter()
    records = {}
    for scheme in _SCHEME_ORDER:
        stats = _mc_stats(scheme, "c", "dicke", shot_trials)
        report = var_parameter(
            D105, scheme, Parameter("c"), **_REFERENCE_BUDGETS[scheme]
        )
        records[scheme] = compare_analytic(stats, report, tolerance=0.10)
    # frozen two-sigma spreads of the collective and single-random schemes
    spread = {
        name: 2.0 * math.sqrt(_mc_stats(name, "c", "dicke", shot_trials).empirical_variance)
        for name in ("ts", "rp1")
    }
    spread_ok = (
        abs(spread["ts"] / 0.3369 - 1.0) <= 0.05
        and abs(spread["rp1"] / 4.7195 - 1.0) <= 0.05
    )
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in records.values()) and spread_ok and elapsed < 1800
    msg = _verdict(
        4,
        "Monte-Carlo variance match",
        ok,
        ", ".join(
            f"{s} dev {records[s].relative_deviation * 100:.1f}%"
            for s in _SCHEME_ORDER
        )
        + f"; 2-sigma ts {spread['ts']:.4f} rp1 {spread['rp1']:.4f}; {elapsed:.0f} s",
    )
    assert ok, msg


def test_05_estimator_unbiasedness():
    start = time.perf_counter()
    failures = []
    worst = 0.0  # largest |mean error| in units of the 5-sigma tolerance
    for scheme in _SCHEME_ORDER:
        for kind in "bcd":
            for which, state in _MC_STATES.items():
                stats = _mc_stats(scheme, kind, which)
                target = float(parameter_value(state, Parameter(kind)))
                var = float(
                    var_parameter(
                        state, scheme, Parameter(kind), **_REFERENCE_BUDGETS[scheme]
                    ).value
                )
                tol = 5.0 * math.sqrt(var / stats.trials)
                err = abs(stats.mean - target)
                if tol > 0:
                    worst = max(worst, err / tol)
                if err > tol:
                    failures.append(
                        f"{scheme}/{kind}/{which}: |{stats.mean:.6g} - {target:g}|"
                        f" > {tol:.3g}"
                    )
    elapsed = time.perf_counter() - start
    ok = not failures
    detail = (
        "; ".join(failures)
        if failures
        else f"30 configurations, worst at {worst * 5:.2f} sigma, {elapsed:.0f} s"
    )
    msg = _verdict(5, "estimator unbiasedness", ok, detail)
    assert ok, msg


# --------------------------------------------------------------- 6: oracles


def _table_gap(t1, t2):
    worst = 0.0
    for axis in (X, Y, Z):
        for order in (1, 2, 3, 4):
            worst = max(
                worst, abs(float(t1.moment(axis, order)) - float(t2.moment(axis, order)))
            )
        worst = max(
            worst,
            np.abs(t1.singles[axis].astype(float) - t2.singles[axis].astype(float)).max(),
            np.abs(t1.pairs[axis].astype(float) - t2.pairs[axis].astype(float)).max(),
        )
    return worst


def test_06_independent_oracles():
    # dense statevector backend vs the symmetric-subspace formulas
    table_gap = 0.0
    for n in range(2, 11):
        for m in range(n + 1):
            table_gap = max(
                table_gap,
                _table_gap(
                    moment_table(DickeState(n, m)),
                    moment_table(DenseState.dicke(n, m)),
                ),
            )
    for n in range(2, 11, 2):
        table_gap = max(
            table_gap,
            _table_gap(
                moment_table(ManyBodySinglet(n)),
                moment_table(DenseState.singlet(n)),
            ),
        )
    # exhaustive-enumeration variances vs the analytic formulas
    from test_variance import _enum_ap, _enum_ts

    state = DickeState(3, 1)
    enum_gap = 0.0
    for axis in (X, Z):
        enum_gap = max(
            enum_gap,
            abs(_enum_ts(state, axis, 3, "j2") - var_J2_ts(state, axis, 3)),
            abs(_enum_ts(state, axis, 3, "dj2") - var_deltaJ2_ts(state, axis, 3)),
            abs(_enum_ap(state, axis, 2, "j2") - var_J2_ap(state, axis, 2)),
            abs(_enum_ap(state, axis, 2, "dj2") - var_deltaJ2_ap(state, axis, 2)),
        )
    ok = table_gap <= 1e-10 and enum_gap <= 1e-9
    msg = _verdict(
        6,
        "independent oracles",
        ok,
        f"68 dense tables gap {table_gap:.1e}, enumeration gap {enum_gap:.1e}",
    )
    assert ok, msg


def test_07_factored_estimator_identity():
    mismatches = []
    for seed in range(100):
        rng = np.random.default_rng(70_000 + seed)
        n = 2 + seed % 3
        slots = ordered_pairs(n)
        k_ap = 2 + seed % 2
        signs = lambda shape: rng.integers(0, 2, size=shape) * 2 - 1
        ap = PairDataset(
            n,
            {ax: signs((len(slots), k_ap)) for ax in (X, Y, Z)},
            {ax: signs((len(slots), k_ap)) for ax in (X, Y, Z)},
            k=k_ap,
        )
        l, k_rp = 2 + seed % 3, 1 + seed % 3
        rp = RandomPairDataset(
            n,
            {ax: slots[rng.integers(0, len(slots), size=l)] for ax in (X, Y, Z)},
            {ax: signs((l, k_rp)) for ax in (X, Y, Z)},
            {ax: signs((l, k_rp)) for ax in (X, Y, Z)},
            l=l,
            k=k_rp,
        )
        for ax in (X, Y, Z):
            if est_deltaJ2_ap(ap, ax) != _est_deltaJ2_ap_naive(ap, ax):
                mismatches.append(f"pairs seed {seed} axis {ax.value}")
            if est_deltaJ2_rp(rp, ax) != _est_deltaJ2_rp_naive(rp, ax):
                mismatches.append(f"random seed {seed} axis {ax.value}")
    ok = not mismatches
    msg = _verdict(
        7,
        "factored estimators equal naive sums",
        ok,
        "; ".join(mismatches) if mismatches else "600 bit-exact comparisons",
    )
    assert ok, msg


# --------------------------------------------------------------- 8: planner


def test_08_planner_and_worst_case_properties():
    p_star = critical_noise(10)
    crit_ok = abs(p_star - 9 / 19) <= 1e-12 and f"{p_star:.5f}" == "0.47368"
    problems = [] if crit_ok else [f"critical visibility {p_star!r}"]
    for scheme in _SCHEME_ORDER:
        p_max, _ = max_variance_over_noise(
            scheme, "c", 10, **_REFERENCE_BUDGETS[scheme]
        )
        if p_max > p_star + 1e-9:
            problems.append(f"{scheme}: worst case at p={p_max:.4f} > p*")
    curves = sweep_sample_size(Parameter("c"), list(range(4, 21, 2)))
    totals = {s: [row["total_preparations"] for row in rows] for s, rows in curves.items()}
    ns = [row["n"] for row in curves["ts"]]
    at10 = ns.index(10)
    for i, n in enumerate(ns):
        if totals["ts"][i] != min(t[i] for t in totals.values()):
            problems.append(f"ts not cheapest at N={n}")
    for s, t in totals.items():
        if any(a > b for a, b in zip(t, t[1:])):
            problems.append(f"{s} totals not non-decreasing in N")
    if abs(totals["ap1"][at10] / totals["rp1"][at10] - 1.0) > 0.05:
        problems.append("ap1 and rp1 totals differ by more than 5% at N=10")
    if totals["rp2"][at10] < totals["ap2"][at10]:
        problems.append("rp2 total below ap2 at N=10")
    ok = not problems
    msg = _verdict(
        8,
        "planner and worst-case properties",
        ok,
        "; ".join(problems)
        if problems
        else f"p*={p_star:.5f}, N=10 totals "
        + ", ".join(f"{s}={totals[s][at10]}" for s in _SCHEME_ORDER),
    )
    assert ok, msg


# ------------------------------------------------- 9 + 10: stated targets


def test_09_variance_separation_ratios():
    """Pair schemes >= 100x and split schemes >= 1000x the collective
    variance on the whole visibility grid.  The exact ratios sink well
    below these round targets near p=0; the assertion message carries the
    measured minima."""
    floors = {"ap1": 100.0, "rp1": 100.0, "ap2": 1000.0, "rp2": 1000.0}
    worst = {name: (math.inf, 0.0) for name in floors}
    shortfalls = 0
    for i in range(11):
        state = DepolarizedMixture(D105, Fraction(i, 10))
        v = {
            name: float(
                var_parameter(
                    state, name, Parameter("c"), **_REFERENCE_BUDGETS[name]
                ).value
            )
            for name in _SCHEME_ORDER
        }
        for name, floor in floors.items():
            ratio = v[name] / v["ts"]
            if ratio < worst[name][0]:
                worst[name] = (ratio, i / 10)
            if ratio < floor:
                shortfalls += 1
    ok = shortfalls == 0
    msg = _verdict(
        9,
        "variance separation ratios",
        ok,
        f"{shortfalls} of 44 grid checks below target; "
        + "; ".join(
            f"min {n}/ts {worst[n][0]:.1f} (target {floors[n]:g}) at p={worst[n][1]:.1f}"
            for n in floors
        ),
    )
    assert ok, msg


_SLOPE_CASES = [
    ("ap1", "b", "singlet", dict(k=10), 2.0),
    ("ap2", "b", "singlet", dict(k=10), 2.0),
    ("rp1", "b", "singlet", dict(l=100, k=1), 4.0),
    ("rp2", "b", "singlet", dict(l=100, k=2), 4.0),
    ("ap1", "d", "singlet", dict(k=10), 4.0),
    ("ap2", "d", "singlet", dict(k=10), 4.0),
    ("rp1", "d", "singlet", dict(l=100, k=1), 6.0),
    ("rp2", "d", "singlet", dict(l=100, k=2), 6.0),
    ("ts", "c", "dicke_half", dict(k=100), 4.0),
    ("ap1", "c", "dicke_half", dict(k=10), 4.0),
    ("ap2", "c", "dicke_half", dict(k=10), 4.0),
    ("rp1", "c", "dicke_half", dict(l=100, k=1), 6.0),
    ("rp2", "c", "dicke_half", dict(l=100, k=2), 6.0),
]


def test_10_variance_scaling_exponents():
    """Log-log slopes over even N in [8, 64] within 0.15 of the leading
    orders.  Three closed forms carry subleading terms fat enough to bend
    the fit on this range (they do reach the leading order deeper in N);
    the assertion message lists them."""
    ns = np.arange(8, 65, 2)
    log_ns = np.log(ns.astype(float))
    misses = []
    for scheme, kind, family, budget, target in _SLOPE_CASES:
        values = [float(closed_form(scheme, kind, family, int(n), **budget)) for n in ns]
        slope = float(np.polyfit(log_ns, np.log(values), 1)[0])
        if abs(slope - target) > 0.15:
            misses.append(f"{scheme}/{kind}/{family}: fit {slope:.4f} vs {target:g}")
    ok = not misses
    msg = _verdict(
        10,
        "variance scaling exponents",
        ok,
        f"{len(_SLOPE_CASES) - len(misses)} of {len(_SLOPE_CASES)} within 0.15"
        + ("; " + "; ".join(misses) if misses else ""),
    )
    assert ok, msg
