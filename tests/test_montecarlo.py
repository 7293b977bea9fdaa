"""Trial runner: determinism, frozen outputs, empirical statistics."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from spinsq.montecarlo import (
    ComparisonRecord,
    TrialStats,
    child_generator,
    child_seed,
    compare_analytic,
    config_hash,
    histogram,
    run_trials,
    state_spec,
    sweep_noise,
    sweep_sample_size,
    write_histogram,
    write_sweep,
    write_trial_stats,
)
from spinsq.schemes import Parameter, estimate_parameter
from spinsq.states import DepolarizedMixture, DickeState, ManyBodySinglet
from spinsq.variance import var_parameter

from oracles import shot_trials, slot_datasets

DICKE = DickeState(10, 5)
FROZEN_TRIALS = Path(__file__).with_name("frozen_trials.json")
FROZEN_COUNTS = Path(__file__).with_name("frozen_counts.json")


# ---------------------------------------------------------------- seeding


def test_child_seeds_are_distinct():
    seeds = {child_seed(123, t) for t in range(2000)}
    assert len(seeds) == 2000
    assert all(0 <= s < 2**64 for s in seeds)


def test_child_seed_depends_on_master():
    assert child_seed(1, 5) != child_seed(2, 5)


def test_child_generator_reproducible():
    a = child_generator(9, 4).random(3)
    b = child_generator(9, 4).random(3)
    assert np.array_equal(a, b)


# ---------------------------------- shot-level trial == slot-by-slot record


@pytest.mark.parametrize("scheme,kw", [
    ("ts", dict(k=30)),
    ("ap1", dict(k=4)),
    ("ap2", dict(k=6)),
    ("rp1", dict(l=10, k=1)),
    ("rp2", dict(l=8, k=4)),
])
@pytest.mark.parametrize("label", ["a", "b", "c", "d", "c:kzlxmy"])
def test_trial_matches_dataset_path(scheme, kw, label):
    # a shot-level trial t estimates from the record one sample_* call per
    # slot draws from child_generator(seed, t), in the documented order
    param = Parameter.parse(label)
    for state in (DickeState(5, 2), DepolarizedMixture(DickeState(4, 2), 0.6)):
        stats = shot_trials(state, scheme, param, trials=4, master_seed=42, **kw)
        values = np.array([
            estimate_parameter(
                scheme, param, slot_datasets(state, scheme, param, child_generator(42, t), **kw)
            ).value
            for t in range(4)
        ])
        assert stats.mean == values.mean()  # bit-exact, not approx
        assert stats.empirical_variance == values.var(ddof=1)


def test_plan_validates_budgets():
    with pytest.raises(ValueError, match="K >= 2"):
        run_trials(DICKE, "ts", "c", k=1, trials=2)
    with pytest.raises(ValueError, match="K >= 2"):
        run_trials(DICKE, "ts", "c", trials=2)
    with pytest.raises(ValueError, match="even"):
        run_trials(DICKE, "ap2", "c", k=3, trials=2)
    with pytest.raises(ValueError, match="L >= 2"):
        run_trials(DICKE, "rp1", "c", k=1, l=1, trials=2)
    # an odd K is fine for AP2 when no split block is needed
    stats = run_trials(DICKE, "ap2", "a", k=3, trials=2)
    assert stats.config["budget"] == {"k": 3}


def _frozen_cases(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["cases"]


_FROZEN_STATES = {
    "dicke:6:3:0.8": DepolarizedMixture(DickeState(6, 3), 0.8),
    "singlet:4": ManyBodySinglet(4),
    "dicke:10:5": DICKE,
}


@pytest.mark.parametrize("case", _frozen_cases(FROZEN_TRIALS), ids=lambda c: c["id"])
def test_run_trials_frozen_outputs(case):
    # the shot-level path, recorded with an independent implementation of
    # it; any difference means the random stream or an estimator changed
    stats = shot_trials(_FROZEN_STATES[case["state"]], case["scheme"], case["parameter"],
                        master_seed=case["seed"], **case["run"])
    _assert_frozen(stats, case)


@pytest.mark.parametrize("case", _frozen_cases(FROZEN_COUNTS), ids=lambda c: c["id"])
def test_run_trials_frozen_counts(case):
    # run_trials draws counts: any difference means a counts sampler's
    # draws, an estimator or the trial seeding changed
    stats = run_trials(_FROZEN_STATES[case["state"]], case["scheme"], case["parameter"],
                       master_seed=case["seed"], threads=1, **case["run"])
    _assert_frozen(stats, case)


def _assert_frozen(stats, case):
    assert stats.mean == float.fromhex(case["mean"])
    assert stats.empirical_variance == float.fromhex(case["empirical_variance"])
    hist = stats.histogram
    assert [hist["counts"], hist["underflow"], hist["overflow"]] == \
        [case["counts"], case["underflow"], case["overflow"]]
    assert config_hash(stats.config) == case["config_hash"]


# ---------------------------------------------------------------- run_trials


def test_thread_count_does_not_change_results():
    one = run_trials(DICKE, "ts", "c", k=150, trials=97, master_seed=5, threads=1)
    many = run_trials(DICKE, "ts", "c", k=150, trials=97, master_seed=5, threads=4)
    assert one == many


def test_singlet_trials_all_exactly_zero():
    stats = run_trials(ManyBodySinglet(8), "ts", "b", k=100, trials=100,
                       master_seed=3)
    assert stats.mean == 0.0
    assert stats.empirical_variance == 0.0
    assert max(stats.histogram["counts"]) == 100


def test_reference_spread_total_spin():
    # frozen-seed spot check against the analytic 2-sigma value 0.3369
    stats = run_trials(DICKE, "ts", "c", k=7400, trials=2000, master_seed=11)
    assert 2 * math.sqrt(stats.empirical_variance) == pytest.approx(0.3369, rel=0.05)
    sigma = math.sqrt(var_parameter(DICKE, "ts", Parameter("c"), k=7400).value)
    assert abs(stats.mean - 30.0) <= 5 * sigma / math.sqrt(2000)


def test_trials_validation():
    with pytest.raises(ValueError, match="two trials"):
        run_trials(DICKE, "ts", "c", k=100, trials=1, master_seed=0)


def test_config_echo():
    stats = run_trials(DICKE, "rp2", "c", l=20, k=2, trials=10, master_seed=1)
    assert stats.config["state"] == "dicke:10:5"
    assert stats.config["scheme"] == "rp2"
    assert stats.config["parameter"] == "c"
    assert stats.config["budget"] == {"l": 20, "k": 2}
    assert stats.config["trials"] == 10
    assert stats.seed == 1


def test_histogram_accounting_and_anchor():
    stats = run_trials(DICKE, "ts", "c", k=300, trials=500, master_seed=7,
                       bins=99, bin_width=0.02)
    h = stats.histogram
    assert len(h["edges"]) == 100
    assert sum(h["counts"]) + h["underflow"] + h["overflow"] == 500
    # bins centred on the analytic value 30
    assert h["edges"][0] == pytest.approx(30 - 49.5 * 0.02)


# ---------------------------------------------------------------- histogram


def test_histogram_single_bin_at_anchor():
    h = histogram([2.5, 2.5, 2.5, 2.5], 7, 0.1, 2.5)
    assert h["counts"][0] == 4
    assert sum(h["counts"][1:]) == 0
    assert h["underflow"] == h["overflow"] == 0


def test_histogram_preserves_mass():
    rng = np.random.default_rng(0)
    values = rng.normal(size=1000)
    for bins, width, anchor in [(5, 0.1, 0.0), (99, 0.02, -1.0), (1, 10.0, -5.0)]:
        h = histogram(values, bins, width, anchor)
        assert sum(h["counts"]) + h["underflow"] + h["overflow"] == 1000


def test_histogram_left_closed():
    h = histogram([0.0, 0.1, 0.2], 2, 0.1, 0.0)
    assert h["counts"] == [1, 1]
    assert h["overflow"] == 1  # 0.2 sits at the last edge


def test_histogram_validation():
    with pytest.raises(ValueError):
        histogram([1.0], 0, 0.1, 0.0)
    with pytest.raises(ValueError):
        histogram([1.0], 5, 0.0, 0.0)


def test_trialstats_accounting_check():
    bad = {"edges": [0.0, 1.0], "counts": [1], "underflow": 0, "overflow": 0}
    with pytest.raises(ValueError, match="accounts for"):
        TrialStats(5, 0.0, 0.0, bad, 0, {"budget": {}})


# ---------------------------------------------------------------- comparison


def test_compare_analytic_pass():
    stats = run_trials(DICKE, "ts", "c", k=7400, trials=2000, master_seed=11)
    report = var_parameter(DICKE, "ts", Parameter("c"), k=7400)
    rec = compare_analytic(stats, report)
    assert isinstance(rec, ComparisonRecord)
    assert rec.passed
    assert rec.relative_deviation <= 0.10
    assert rec.analytic_variance == pytest.approx(0.0284, abs=5e-5)


def test_compare_analytic_zero_variance():
    stats = run_trials(ManyBodySinglet(8), "ts", "b", k=50, trials=50, master_seed=0)
    report = var_parameter(ManyBodySinglet(8), "ts", Parameter("b"), k=50)
    rec = compare_analytic(stats, report)
    assert rec.analytic_variance == 0.0
    assert rec.relative_deviation == 0.0
    assert rec.passed


def test_compare_analytic_mismatch():
    stats = run_trials(DICKE, "ts", "c", k=100, trials=10, master_seed=0)
    with pytest.raises(ValueError, match="budget"):
        compare_analytic(stats, var_parameter(DICKE, "ts", Parameter("c"), k=200))
    with pytest.raises(ValueError, match="scheme"):
        compare_analytic(stats, var_parameter(DICKE, "ap1", Parameter("c"), k=100))


def test_compare_analytic_tolerance_override():
    stats = run_trials(DICKE, "ts", "c", k=500, trials=100, master_seed=1)
    report = var_parameter(DICKE, "ts", Parameter("c"), k=500)
    loose = compare_analytic(stats, report, tolerance=5.0)
    assert loose.passed
    strict = compare_analytic(stats, report, tolerance=1e-12)
    assert not strict.passed


# ---------------------------------------------------------------- sweeps


def test_sweep_noise_endpoints():
    rows = sweep_noise("ts", "c", 10, [0.0, 0.5, 1.0], k=7400)
    assert [r["p"] for r in rows] == [0.0, 0.5, 1.0]
    assert rows[-1]["analytic_variance"] == pytest.approx(0.02837838, abs=1e-7)
    assert all(r["analytic_variance"] >= rows[-1]["analytic_variance"] for r in rows)
    assert "empirical_variance" not in rows[0]


def test_sweep_noise_with_trials():
    rows = sweep_noise("ts", "c", 10, [0.0, 1.0], k=400, trials=200, master_seed=4)
    for row in rows:
        assert row["empirical_variance"] == pytest.approx(
            row["analytic_variance"], rel=0.5
        )


def test_sweep_noise_validation():
    with pytest.raises(ValueError, match="even"):
        sweep_noise("ts", "c", 5, [0.0], k=10)
    with pytest.raises(ValueError, match="0, 1"):
        sweep_noise("ts", "c", 10, [1.5], k=10)


def test_sweep_sample_size_shape():
    table = sweep_sample_size("c", [4])
    assert sorted(table) == ["ap1", "ap2", "rp1", "rp2", "ts"]
    for scheme, rows in table.items():
        assert rows[0]["n"] == 4
        assert rows[0]["budget"] >= 2
        assert rows[0]["total_preparations"] > 0


def test_sweep_sample_size_custom_rule():
    loose = sweep_sample_size("c", [4], t_rule=lambda n: 10.0 * n)
    default = sweep_sample_size("c", [4])
    assert loose["ts"][0]["budget"] < default["ts"][0]["budget"]


def test_sweep_sample_size_validation():
    with pytest.raises(ValueError, match="even"):
        sweep_sample_size("c", [5])
    with pytest.raises(ValueError, match="even"):
        sweep_sample_size("c", [2])
    with pytest.raises(ValueError, match="margin rule"):
        sweep_sample_size("c", [4], t_rule="bogus")


# ---------------------------------------------------------------- artifacts


def test_state_spec_strings():
    assert state_spec(DICKE) == "dicke:10:5"
    assert state_spec(ManyBodySinglet(6)) == "singlet:6"
    assert state_spec(DepolarizedMixture(DickeState(4, 2), 0.25)) == "dicke:4:2:0.25"


def test_config_hash_stable():
    a = config_hash({"x": 1, "y": {"z": 2}})
    b = config_hash({"y": {"z": 2}, "x": 1})
    assert a == b
    assert len(a) == 64
    assert a != config_hash({"x": 1, "y": {"z": 3}})


def test_write_trial_stats(tmp_path):
    stats = run_trials(DICKE, "ts", "c", k=100, trials=20, master_seed=6)
    dest = tmp_path / "stats.json"
    write_trial_stats(stats, dest)
    doc = json.loads(dest.read_text())
    assert doc["schema"] == "spinsq-trialstats"
    assert doc["schema_version"] == 1
    assert doc["config_hash"] == config_hash(stats.config)
    assert doc["seed"] == 6
    assert doc["trials"] == 20
    assert sum(doc["histogram"]["counts"]) + doc["histogram"]["underflow"] \
        + doc["histogram"]["overflow"] == 20


def test_write_histogram(tmp_path):
    stats = run_trials(DICKE, "ts", "c", k=100, trials=20, master_seed=6, bins=10)
    dest = tmp_path / "hist.csv"
    write_histogram(stats, dest)
    lines = dest.read_text().splitlines()
    assert lines[0].startswith("# spinsq-histogram schema=1")
    assert "config_hash=" in lines[1]
    assert lines[3] == "bin_lo,bin_hi,count"
    assert len(lines) == 4 + 10
    total = sum(int(line.rsplit(",", 1)[1]) for line in lines[4:])
    assert total == sum(stats.histogram["counts"])


def test_write_sweep(tmp_path):
    rows = [
        {"p": 0.0, "analytic_variance": 1.5},
        {"p": 1.0, "analytic_variance": 0.5, "empirical_variance": 0.51},
    ]
    dest = tmp_path / "sweep.csv"
    write_sweep(rows, dest, kind="fig8", seed=3, config={"n": 10})
    lines = dest.read_text().splitlines()
    assert lines[0] == "# spinsq-sweep schema=1 kind=fig8"
    assert lines[3] == "p,analytic_variance,empirical_variance"
    assert lines[4].endswith(",")  # missing optional column stays empty
    with pytest.raises(ValueError):
        write_sweep([], dest, kind="x")
