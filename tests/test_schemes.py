"""Datasets, collectors, estimators and their exact-arithmetic twins."""

import io

import numpy as np
import pytest

from spinsq.schemes import (
    EstimateResult,
    PairDataset,
    Parameter,
    ParameterKind,
    RandomPairDataset,
    RandomSplitDataset,
    Scheme,
    SplitSingleDataset,
    TotalSpinDataset,
    collect_all_pairs,
    collect_datasets,
    collect_random_pairs,
    collect_random_split,
    collect_split_single,
    collect_total_spin,
    compose_parameter,
    est_deltaJ2_ap,
    est_deltaJ2_rp,
    est_deltaJ2_ts,
    est_J2_ap,
    est_J2_rp,
    est_J2_ts,
    est_Jsq_rsplit,
    est_Jsq_split,
    estimate_parameter,
    ordered_pairs,
    read_dataset,
    sample_cost,
    split_directions,
    square_pairs,
    write_dataset,
)
from spinsq.montecarlo import run_trials
from spinsq.states import DickeState, DepolarizedMixture, Direction, ManyBodySinglet
from spinsq.variance import var_parameter

from oracles import (
    _est_deltaJ2_ap_naive,
    _est_deltaJ2_rp_naive,
    slot_all_pairs,
    slot_random_pairs,
    slot_random_split,
    slot_split_single,
    slot_total_spin,
)

X, Y, Z = Direction.X, Direction.Y, Direction.Z


# ---------------------------------------------------------------- parameters


def test_parameter_defaults():
    p = Parameter("c")
    assert p.kind is ParameterKind.C
    assert (p.k_axis, p.l_axis, p.m_axis) == (X, Y, Z)
    assert p.label() == "c"


def test_parameter_parse_axes():
    p = Parameter.parse("c:kzlxmy")
    assert p.axes == (Z, X, Y)
    assert p.label() == "c:kzlxmy"
    assert Parameter.parse("d") == Parameter("d")


@pytest.mark.parametrize("bad", ["e", "c:kxkylz", "c:xyz", "c:kxlxmz", "c:kxlymx"])
def test_parameter_parse_rejects(bad):
    with pytest.raises(ValueError):
        Parameter.parse(bad)


def test_split_directions():
    assert split_directions(Parameter("a")) == ()
    assert split_directions(Parameter("b")) == (X, Y, Z)
    assert split_directions(Parameter.parse("c:kzlxmy")) == (Y,)
    assert split_directions(Parameter.parse("d:kzlxmy")) == (Z, X)


def test_pair_tables():
    assert ordered_pairs(3).tolist() == [
        [0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1],
    ]
    assert square_pairs(2).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


# ---------------------------------------------------------------- worked examples


def test_ts_estimators_constant_run():
    ds = TotalSpinDataset(4, {Z: np.array([0, 0, 0])})
    assert est_J2_ts(ds, Z) == 0.0
    assert est_deltaJ2_ts(ds, Z) == 0.0


def test_ts_estimators_two_outcomes():
    ds = TotalSpinDataset(2, {Z: np.array([2, -2])})
    assert est_J2_ts(ds, Z) == 1.0
    assert est_deltaJ2_ts(ds, Z) == 2.0


def test_ap_all_up_single_rep():
    one = np.ones((2, 1), dtype=np.int64)
    ds = PairDataset(2, {Z: one}, {Z: one.copy()}, k=1)
    assert est_J2_ap(ds, Z) == 1.0


def test_ap_anticorrelated_pair_vanishes():
    f = np.array([[1], [-1]], dtype=np.int64)
    ds = PairDataset(2, {Z: f}, {Z: -f}, k=1)
    assert est_J2_ap(ds, Z) == 0.0


def test_split_all_up_gives_squared_mean():
    n = 3
    ones = np.ones((n * n, 1), dtype=np.int64)
    ds = SplitSingleDataset(n, {Z: ones}, {Z: ones.copy()}, k=2)
    assert est_Jsq_split(ds, Z) == n * n / 4


def test_compose_uncorrelated_pairs_gives_3n_over_4():
    # pair products balanced +1/-1 per slot sum to zero, so each direction
    # contributes N/4 and the sum-of-second-moments parameter is 3N/4
    n = 3
    m = n * (n - 1)
    f = np.tile(np.array([[1, 1]], dtype=np.int64), (m, 1))
    s = np.tile(np.array([[1, -1]], dtype=np.int64), (m, 1))
    blocks_f = {ax: f.copy() for ax in (X, Y, Z)}
    blocks_s = {ax: s.copy() for ax in (X, Y, Z)}
    ds = PairDataset(n, blocks_f, blocks_s, k=2)
    res = estimate = {ax: est_J2_ap(ds, ax) for ax in (X, Y, Z)}
    assert all(v == n / 4 for v in estimate.values())
    assert compose_parameter(Parameter("a"), n, res, {}) == 3 * n / 4


def test_rp_estimator_matches_ap_when_all_slots_present():
    # random-pair estimator with every ordered pair once (L = M, K = k)
    # reduces to the all-pairs second-moment estimator
    n, k = 3, 2
    rng = np.random.default_rng(5)
    ap = collect_all_pairs(DickeState(n, 1), k, rng)
    slots = ordered_pairs(n)
    ds = RandomPairDataset(
        n,
        {ax: slots.copy() for ax in (X, Y, Z)},
        {ax: ap.first[ax].copy() for ax in (X, Y, Z)},
        {ax: ap.second[ax].copy() for ax in (X, Y, Z)},
        l=len(slots),
        k=k,
    )
    for ax in (X, Y, Z):
        assert est_J2_rp(ds, ax) == pytest.approx(est_J2_ap(ap, ax), abs=1e-12)


# ---------------------------------------------------------------- exact twins


@pytest.mark.parametrize("seed", range(12))
def test_ap_variance_factored_equals_naive(seed):
    rng = np.random.default_rng(100 + seed)
    state = DickeState(4, seed % 4)
    ds = collect_all_pairs(state, 3 + seed % 2, rng)
    for ax in (X, Y, Z):
        assert est_deltaJ2_ap(ds, ax) == _est_deltaJ2_ap_naive(ds, ax)


@pytest.mark.parametrize("seed", range(12))
def test_rp_variance_factored_equals_naive(seed):
    rng = np.random.default_rng(200 + seed)
    state = ManyBodySinglet(4) if seed % 2 else DickeState(5, 2)
    ds = collect_random_pairs(state, 5 + seed % 3, 1 + seed % 2, rng)
    for ax in (X, Y, Z):
        assert est_deltaJ2_rp(ds, ax) == _est_deltaJ2_rp_naive(ds, ax)


def test_ap_estimates_invariant_under_slot_permutation():
    rng = np.random.default_rng(9)
    ds = collect_all_pairs(DickeState(4, 2), 4, rng)
    perm = np.random.default_rng(1).permutation(12)
    shuffled = PairDataset(
        4,
        {ax: ds.first[ax][perm].copy() for ax in ds.first},
        {ax: ds.second[ax][perm].copy() for ax in ds.second},
        k=4,
    )
    for ax in (X, Y, Z):
        assert est_J2_ap(shuffled, ax) == est_J2_ap(ds, ax)
        assert est_deltaJ2_ap(shuffled, ax) == est_deltaJ2_ap(ds, ax)


# ---------------------------------------------------------------- validation


def test_dataset_rejects_shared_direction_arrays():
    arr = np.array([0, 0, 2])
    with pytest.raises(ValueError, match="independent"):
        TotalSpinDataset(2, {X: arr, Y: arr})


def test_total_spin_outcome_grid_checked():
    with pytest.raises(ValueError, match="2m"):
        TotalSpinDataset(2, {Z: np.array([1, -1])})  # odd parity for N=2
    with pytest.raises(ValueError, match="2m"):
        TotalSpinDataset(2, {Z: np.array([4, 0])})  # out of range


def test_pair_dataset_rejects_bad_signs():
    f = np.array([[2], [0]], dtype=np.int64)
    with pytest.raises(ValueError, match="±1"):
        PairDataset(2, {Z: f}, {Z: -f}, k=1)


def test_split_requires_even_k():
    ones = np.ones((4, 1), dtype=np.int64)
    with pytest.raises(ValueError, match="even"):
        SplitSingleDataset(2, {Z: ones}, {Z: ones.copy()}, k=3)


def test_variance_estimators_need_repetitions():
    one = np.ones((2, 1), dtype=np.int64)
    ds = PairDataset(2, {Z: one}, {Z: one.copy()}, k=1)
    with pytest.raises(ValueError, match="K >= 2"):
        est_deltaJ2_ap(ds, Z)


def test_random_pairs_need_two_slots():
    slots = np.array([[0, 1]])
    one = np.ones((1, 2), dtype=np.int64)
    with pytest.raises(ValueError, match="L >= 2"):
        RandomPairDataset(2, {Z: slots}, {Z: one}, {Z: one.copy()}, l=1, k=2)


def test_random_pairs_reject_diagonal_slots():
    slots = np.array([[0, 0], [0, 1]])
    one = np.ones((2, 1), dtype=np.int64)
    with pytest.raises(ValueError, match="distinct"):
        RandomPairDataset(2, {Z: slots}, {Z: one}, {Z: one.copy()}, l=2, k=1)


def test_missing_direction_is_named():
    ds = TotalSpinDataset(2, {Z: np.array([2, -2])})
    with pytest.raises(ValueError, match="direction 'x'"):
        est_J2_ts(ds, X)


def test_estimate_requires_matching_budgets():
    rng = np.random.default_rng(3)
    state = DickeState(3, 1)
    pairs = collect_all_pairs(state, 4, rng)
    split = collect_split_single(state, 2, rng, directions=(Z,))
    with pytest.raises(ValueError, match="disagree on K"):
        estimate_parameter("ap2", Parameter("c"), {"pairs": pairs, "split": split})


def test_estimate_rejects_shared_slot_arrays():
    rng = np.random.default_rng(4)
    state = DickeState(3, 1)
    rp = collect_random_pairs(state, 4, 2, rng)
    shared = {ax: rp.slots[ax] for ax in rp.slots}  # same slot array objects
    rs = RandomSplitDataset(
        3,
        shared,
        {ax: np.ones((4, 1), dtype=np.int64) for ax in (X, Y, Z)},
        {ax: np.ones((4, 1), dtype=np.int64) for ax in (X, Y, Z)},
        l=4,
        k=2,
    )
    with pytest.raises(ValueError, match="independent"):
        estimate_parameter("rp2", Parameter("c"),
                           {"random_pairs": rp, "random_split": rs})


def test_estimate_names_missing_dataset():
    with pytest.raises(ValueError, match="'total_spin'"):
        estimate_parameter("ts", Parameter("a"), {})
    with pytest.raises(ValueError, match="'split'"):
        pairs = collect_all_pairs(DickeState(3, 1), 4, np.random.default_rng(0))
        estimate_parameter("ap2", Parameter("b"), {"pairs": pairs})


def test_ap2_parameter_a_needs_no_split_data():
    pairs = collect_all_pairs(DickeState(3, 1), 4, np.random.default_rng(0))
    res = estimate_parameter("ap2", Parameter("a"), {"pairs": pairs})
    assert res.samples_used == sample_cost("ap2", Parameter("a"), 3, k=4)


# ---------------------------------------------------------------- composition


def test_estimate_parameter_matches_manual_composition():
    rng = np.random.default_rng(21)
    state = DepolarizedMixture(DickeState(4, 2), 0.8)
    ds = collect_total_spin(state, 40, rng)
    res = estimate_parameter("ts", Parameter("c"), {"total_spin": ds})
    manual = (
        est_J2_ts(ds, X)
        + est_J2_ts(ds, Y)
        - 3 * est_deltaJ2_ts(ds, Z)
    )
    assert res.value == manual
    assert res.samples_used == 120
    assert res.budget == {"k": 40}


def test_ap2_variance_block_is_difference_of_estimates():
    rng = np.random.default_rng(22)
    state = DickeState(3, 1)
    data = collect_datasets(state, "ap2", Parameter("c"), rng, k=6)
    res = estimate_parameter("ap2", Parameter("c"), data)
    manual = (
        est_J2_ap(data["pairs"], X)
        + est_J2_ap(data["pairs"], Y)
        - 2 * (est_J2_ap(data["pairs"], Z) - est_Jsq_split(data["split"], Z))
    )
    assert res.value == manual


def test_rp2_variance_block_is_difference_of_estimates():
    rng = np.random.default_rng(23)
    state = ManyBodySinglet(4)
    data = collect_datasets(state, "rp2", Parameter("d"), rng, l=10, k=2)
    res = estimate_parameter("rp2", Parameter("d"), data)
    rp, rs = data["random_pairs"], data["random_split"]
    manual = 3 * (
        (est_J2_rp(rp, X) - est_Jsq_rsplit(rs, X))
        + (est_J2_rp(rp, Y) - est_Jsq_rsplit(rs, Y))
    ) - est_J2_rp(rp, Z)
    assert res.value == manual


def test_collect_datasets_matches_manual_collection_order():
    par = Parameter("c")
    state = DickeState(3, 1)
    auto = collect_datasets(state, "ap2", par, np.random.default_rng(77), k=4)
    rng = np.random.default_rng(77)
    pairs = collect_all_pairs(state, 4, rng)
    split = collect_split_single(state, 4, rng, directions=(Z,))
    for ax in (X, Y, Z):
        assert np.array_equal(auto["pairs"].first[ax], pairs.first[ax])
    assert np.array_equal(auto["split"].second[Z], split.second[Z])


_RECORD_STATES = [
    DickeState(5, 2),
    DepolarizedMixture(DickeState(4, 2), 0.6),
    ManyBodySinglet(4),
]


def _blocks(ds):
    names = ("outcomes", "first", "second", "slots")
    return {name: dict(getattr(ds, name)) for name in names if hasattr(ds, name)}


@pytest.mark.parametrize("state", _RECORD_STATES, ids=["dicke", "depolarized", "singlet"])
@pytest.mark.parametrize("collect,reference,kwargs", [
    (collect_total_spin, slot_total_spin, dict(k=9)),
    (collect_all_pairs, slot_all_pairs, dict(k=3)),
    (collect_split_single, slot_split_single, dict(k=4)),
    (collect_split_single, slot_split_single, dict(k=6, directions=(Z, X))),
    (collect_random_pairs, slot_random_pairs, dict(l=7, k=1)),
    (collect_random_pairs, slot_random_pairs, dict(l=6, k=3)),
    (collect_random_split, slot_random_split, dict(l=5, k=2)),
    (collect_random_split, slot_random_split, dict(l=6, k=4, directions=(Y,))),
], ids=["ts", "ap", "split", "split-zx", "rp-k1", "rp-k3", "rsplit", "rsplit-y"])
def test_collectors_match_slot_by_slot_record(state, collect, reference, kwargs):
    # the block draws yield the record of one sample_* call per slot, in the
    # documented order, and leave the generator in the same state
    fast_rng = np.random.default_rng(31)
    slow_rng = np.random.default_rng(31)
    fast = collect(state, rng=fast_rng, **kwargs)
    slow = reference(state, rng=slow_rng, **kwargs)
    assert type(fast) is type(slow)
    fast_blocks, slow_blocks = _blocks(fast), _blocks(slow)
    assert {n: list(b) for n, b in fast_blocks.items()} == \
        {n: list(b) for n, b in slow_blocks.items()}
    for name, blocks in slow_blocks.items():
        for axis, arr in blocks.items():
            assert fast_blocks[name][axis].dtype == arr.dtype
            assert np.array_equal(fast_blocks[name][axis], arr), (name, axis)
    assert fast_rng.random() == slow_rng.random()


def test_collect_shapes():
    rng = np.random.default_rng(0)
    pairs = collect_all_pairs(DickeState(3, 1), 2, rng)
    assert set(pairs.first) == {X, Y, Z}
    assert all(v.shape == (6, 2) for v in pairs.first.values())
    split = collect_split_single(DickeState(3, 1), 4, rng, directions=(Y,))
    assert set(split.first) == {Y}
    assert split.first[Y].shape == (9, 2)
    rs = collect_random_split(DickeState(3, 1), 5, 2, rng)
    assert rs.slots[X].shape == (5, 2)
    assert rs.first[X].shape == (5, 1)


# ---------------------------------------------------------------- sample cost


def test_sample_costs_at_reference_budgets():
    c = Parameter("c")
    assert sample_cost("ts", c, 10, k=7400) == 22200
    assert sample_cost("ap1", c, 10, k=82) == 22140
    assert sample_cost("ap2", c, 10, k=60) == 22200
    assert sample_cost("rp1", c, 10, l=7400, k=1) == 22200
    assert sample_cost("rp2", c, 10, l=2775, k=2) == 22200


def test_sample_cost_split_direction_counts():
    n, k = 6, 10
    base = 3 * n * (n - 1) * k
    assert sample_cost("ap2", Parameter("a"), n, k=k) == base
    assert sample_cost("ap2", Parameter("c"), n, k=k) == base + n * n * k
    assert sample_cost("ap2", Parameter("d"), n, k=k) == base + 2 * n * n * k
    assert sample_cost("ap2", Parameter("b"), n, k=k) == base + 3 * n * n * k
    assert sample_cost("rp2", Parameter("b"), n, l=50, k=2) == 3 * 100 + 3 * 100


def _preparations(ds):
    """State preparations behind a dataset: one per recorded run."""
    if isinstance(ds, TotalSpinDataset):
        return sum(a.size for a in ds.outcomes.values())
    if isinstance(ds, (PairDataset, RandomPairDataset)):  # one run per joint outcome
        return sum(a.size for a in ds.first.values())
    return sum(a.size for a in (*ds.first.values(), *ds.second.values()))


@pytest.mark.parametrize("scheme,budget", [
    ("ts", dict(k=3)),
    ("ap1", dict(k=2)),
    ("ap2", dict(k=2)),
    ("rp1", dict(l=3, k=1)),
    ("rp2", dict(l=3, k=2)),
])
@pytest.mark.parametrize("spec", ["a", "b", "c", "d:kzlxmy"])
def test_scheme_table_is_consistent(scheme, budget, spec):
    # the collectors, the cost, the trial harness and the variance engine all
    # read the scheme table; they must agree on preparations and budgets
    state = DickeState(4, 2)
    parameter = Parameter.parse(spec)
    datasets = collect_datasets(state, scheme, parameter, np.random.default_rng(5), **budget)
    result = estimate_parameter(scheme, parameter, datasets)
    cost = sample_cost(scheme, parameter, 4, **budget)
    assert sum(_preparations(ds) for ds in datasets.values()) == cost == result.samples_used
    stats = run_trials(state, scheme, parameter, trials=2, threads=1, **budget)
    report = var_parameter(state, scheme, parameter, **budget)
    assert stats.config["budget"] == dict(report.budget) == dict(result.budget) == budget


def test_sample_cost_ts_ignores_parameter_kind():
    costs = {sample_cost("ts", Parameter(kind), 10, k=5) for kind in "abcd"}
    assert costs == {15}


def test_sample_cost_monotone_in_budget():
    c = Parameter("c")
    costs = [sample_cost("ap1", c, 8, k=k) for k in (2, 3, 4, 10)]
    assert costs == sorted(costs) and len(set(costs)) == 4


def test_sample_cost_requires_budget():
    with pytest.raises(ValueError, match="budget"):
        sample_cost("rp1", Parameter("a"), 10, k=5)


# ---------------------------------------------------------------- serialization


@pytest.mark.parametrize(
    "maker,kwargs",
    [
        (collect_total_spin, dict(k=4)),
        (collect_all_pairs, dict(k=3)),
        (collect_split_single, dict(k=4)),
        (collect_random_pairs, dict(l=5, k=2)),
        (collect_random_split, dict(l=4, k=4)),
    ],
)
def test_csv_roundtrip_bit_exact(maker, kwargs):
    rng = np.random.default_rng(7)
    ds = maker(DickeState(3, 1), rng=rng, **kwargs)
    buf = io.StringIO()
    write_dataset(ds, buf, meta={"seed": 7})
    buf.seek(0)
    assert buf.readline().startswith("# spinsq-dataset schema=1 ")
    buf.seek(0)
    back = read_dataset(buf)
    assert type(back) is type(ds)
    for name in ("outcomes", "first", "second", "slots"):
        orig = getattr(ds, name, None)
        if orig is None:
            continue
        copy = getattr(back, name)
        assert set(orig) == set(copy)
        for ax in orig:
            assert np.array_equal(orig[ax], copy[ax])


def test_csv_roundtrip_preserves_estimates():
    rng = np.random.default_rng(13)
    ds = collect_all_pairs(DickeState(4, 1), 3, rng)
    buf = io.StringIO()
    write_dataset(ds, buf)
    buf.seek(0)
    back = read_dataset(buf)
    for ax in (X, Y, Z):
        assert est_deltaJ2_ap(back, ax) == est_deltaJ2_ap(ds, ax)


def test_csv_rejects_unknown_schema():
    buf = io.StringIO("# spinsq-dataset schema=99 kind=pairs n_qubits=2 k=1\n")
    with pytest.raises(ValueError, match="schema"):
        read_dataset(buf)


def test_csv_rejects_missing_header():
    buf = io.StringIO("direction,rep,outcome2m\nz,0,0\n")
    with pytest.raises(ValueError, match="schema line"):
        read_dataset(buf)


# ---------------------------------------------------------------- statistics


def test_total_spin_collector_unbiased():
    # second moment along x for the half-excited four-qubit symmetric state
    state = DickeState(4, 2)
    rng = np.random.default_rng(2024)
    ds = collect_total_spin(state, 4000, rng)
    assert est_J2_ts(ds, X) == pytest.approx(3.0, abs=0.15)
    assert est_deltaJ2_ts(ds, X) == pytest.approx(3.0, abs=0.2)


def test_pair_collector_unbiased():
    state = ManyBodySinglet(4)
    rng = np.random.default_rng(31)
    ds = collect_all_pairs(state, 800, rng)
    # every direction of the paired-singlet state has vanishing second moment
    for ax in (X, Y, Z):
        assert est_J2_ap(ds, ax) == pytest.approx(0.0, abs=0.1)


def test_random_pair_slots_uniform():
    from scipy import stats

    state = DickeState(3, 1)
    rng = np.random.default_rng(5)
    ds = collect_random_pairs(state, 3000, 1, rng)
    table = ordered_pairs(3)
    for ax in (X, Y, Z):
        # count occupancy of each of the six ordered-pair cells
        cells = {tuple(p): 0 for p in table.tolist()}
        for i, j in ds.slots[ax].tolist():
            cells[(i, j)] += 1
        counts = np.array(list(cells.values()))
        chi2 = ((counts - 500) ** 2 / 500).sum()
        assert chi2 < stats.chi2.ppf(0.999, df=5)


def test_random_split_hits_diagonal():
    state = DickeState(3, 1)
    rng = np.random.default_rng(6)
    ds = collect_random_split(state, 3000, 2, rng)
    frac = np.mean(ds.slots[X][:, 0] == ds.slots[X][:, 1])
    assert frac == pytest.approx(1 / 3, abs=0.05)


def test_collectors_deterministic_given_seed():
    state = DickeState(3, 1)
    a = collect_datasets(state, "rp2", Parameter("b"), np.random.default_rng(99), l=8, k=2)
    b = collect_datasets(state, "rp2", Parameter("b"), np.random.default_rng(99), l=8, k=2)
    for key in a:
        for ax in a[key].first:
            assert np.array_equal(a[key].first[ax], b[key].first[ax])


def test_estimate_result_shape():
    ds = collect_total_spin(DickeState(3, 1), 10, np.random.default_rng(1))
    res = estimate_parameter(Scheme.TS, Parameter("b"), {"total_spin": ds})
    assert isinstance(res, EstimateResult)
    d = res.as_dict()
    assert d["scheme"] == "ts" and d["parameter"] == "b"
    assert d["samples_used"] == 30 and d["budget"] == {"k": 10}
