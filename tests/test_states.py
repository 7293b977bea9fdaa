import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from spinsq.states import (
    DIRECTIONS,
    DenseState,
    DepolarizedMixture,
    DickeState,
    Direction,
    ManyBodySinglet,
    joint_pair_cuts,
    moment,
    moment_table,
    pair_correlation,
    single_expectation,
    total_spin_distribution,
)

from oracles import sample_pair, sample_single, sample_total_spin

X, Y, Z = Direction.X, Direction.Y, Direction.Z


def test_dicke_second_moment_transverse():
    assert moment(DickeState(10, 5), X, 2) == 15


def test_singlet_moments_vanish():
    s = ManyBodySinglet(8)
    for axis in DIRECTIONS:
        for n in (1, 2, 3, 4):
            assert moment(s, axis, n) == 0


def test_dicke_fourth_moment_matches_dense_oracle():
    assert moment(DickeState(10, 5), X, 4) == 330
    dense = DenseState.dicke(10, 5)
    assert moment(dense, X, 4) == pytest.approx(330, abs=1e-9)


def test_fully_mixed_second_moment():
    mix = DepolarizedMixture(DickeState(10, 5), 0)
    assert moment(mix, X, 2) == pytest.approx(2.5)


def test_moment_order_validation():
    with pytest.raises(ValueError):
        moment(DickeState(4, 2), X, 5)
    with pytest.raises(ValueError):
        moment(DickeState(4, 2), X, 0)


def test_single_expectations():
    assert single_expectation(ManyBodySinglet(8), X, 3) == 0
    assert single_expectation(DickeState(10, 5), Z, 0) == 0
    assert single_expectation(DickeState(6, 2), Z, 4) == pytest.approx(1 / 3)
    dense = DenseState.dicke(6, 2)
    assert single_expectation(dense, Z, 4) == pytest.approx(1 / 3, abs=1e-12)
    with pytest.raises(ValueError):
        single_expectation(DickeState(6, 2), Z, 6)


def test_pair_correlations():
    assert pair_correlation(DickeState(10, 5), X, 0, 7) == pytest.approx(5 / 9)
    # bonded singlet qubits are anticorrelated along every axis; the dense
    # two-qubit computation is the oracle for the y sign
    s = ManyBodySinglet(8)
    for axis in DIRECTIONS:
        assert pair_correlation(s, axis, 0, 1) == -1
        assert pair_correlation(s, axis, 4, 5) == -1
    assert pair_correlation(DenseState.singlet(2), Y, 0, 1) == pytest.approx(-1, abs=1e-12)
    assert pair_correlation(s, X, 0, 2) == 0
    with pytest.raises(ValueError):
        pair_correlation(s, X, 3, 3)


def test_distribution_point_masses():
    for axis in DIRECTIONS:
        outcomes, probs = total_spin_distribution(ManyBodySinglet(6), axis)
        assert probs[outcomes == 0] == 1.0
        assert probs.sum() == pytest.approx(1, abs=1e-12)
    outcomes, probs = total_spin_distribution(DickeState(10, 3), Z)
    assert probs[outcomes == 4] == 1.0  # encoded 2m = N - 2*excitations


def test_triplet_transverse_distribution():
    outcomes, probs = total_spin_distribution(DickeState(2, 1), X)
    assert outcomes.tolist() == [-2, 0, 2]
    assert probs == pytest.approx([0.5, 0.0, 0.5], abs=1e-12)


@pytest.mark.parametrize("state", [
    DickeState(10, 5),
    DickeState(7, 2),
    DickeState(6, 0),
    ManyBodySinglet(8),
    DepolarizedMixture(DickeState(9, 4), 0.37),
    DenseState.dicke(8, 3),
    DenseState.singlet(6),
])
def test_distribution_matches_moments(state):
    for axis in DIRECTIONS:
        outcomes, probs = total_spin_distribution(state, axis)
        assert np.all(probs >= 0)
        assert probs.sum() == pytest.approx(1, abs=1e-12)
        m_vals = outcomes / 2.0
        for n in (1, 2, 3, 4):
            assert np.dot(probs, m_vals**n) == pytest.approx(
                moment(state, axis, n), abs=1e-9
            )


def test_dicke_transverse_symmetry():
    d = DickeState(11, 4)
    for n in (1, 2, 3, 4):
        assert moment(d, X, n) == moment(d, Y, n)
    ox, px = total_spin_distribution(d, X)
    oy, py = total_spin_distribution(d, Y)
    assert np.array_equal(ox, oy) and np.allclose(px, py)


def _tables_close(t1, t2, tol):
    assert t1.n_qubits == t2.n_qubits
    for axis in DIRECTIONS:
        for n in (1, 2, 3, 4):
            assert abs(float(t1.moment(axis, n)) - float(t2.moment(axis, n))) <= tol
        assert np.allclose(t1.singles[axis].astype(float),
                           t2.singles[axis].astype(float), atol=tol)
        assert np.allclose(t1.pairs[axis].astype(float),
                           t2.pairs[axis].astype(float), atol=tol)


@pytest.mark.parametrize("n,m", [(2, 1), (4, 2), (6, 2), (8, 3), (9, 0), (10, 5)])
def test_dense_backend_matches_analytic_dicke(n, m):
    _tables_close(moment_table(DickeState(n, m)), moment_table(DenseState.dicke(n, m)), 1e-10)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_dense_backend_matches_analytic_singlet(n):
    _tables_close(moment_table(ManyBodySinglet(n)), moment_table(DenseState.singlet(n)), 1e-10)


def test_moment_table_invariants():
    for state in (DickeState(10, 5), DickeState(9, 2), ManyBodySinglet(8),
                  DepolarizedMixture(DickeState(10, 5), 0.6)):
        mt = moment_table(state)
        n = mt.n_qubits
        total_j2 = 0.0
        for axis in DIRECTIONS:
            singles = mt.singles[axis].astype(float)
            pairs = mt.pairs[axis].astype(float)
            assert np.all(np.abs(singles) <= 1)
            assert np.all(np.abs(pairs) <= 1)
            assert np.allclose(np.diag(pairs), 1.0)
            assert np.allclose(pairs, pairs.T)
            j1 = float(mt.moment(axis, 1))
            j2 = float(mt.moment(axis, 2))
            off_sum = pairs.sum() - n
            assert j2 == pytest.approx(n / 4 + off_sum / 4, abs=1e-10)
            assert j2 >= j1**2 - 1e-12
            total_j2 += j2
        assert total_j2 <= n * (n + 2) / 4 + 1e-9


def test_mixture_linearity():
    base = DickeState(8, 3)
    p = Fraction(3, 10)
    mix = moment_table(DepolarizedMixture(base, p))
    pure = moment_table(base)
    mixed = moment_table(DepolarizedMixture(base, 0))
    for axis in DIRECTIONS:
        for n in (1, 2, 3, 4):
            want = float(p * pure.moment(axis, n) + (1 - p) * mixed.moment(axis, n))
            assert float(mix.moment(axis, n)) == pytest.approx(want, abs=1e-12)
        want_pairs = (float(p) * pure.pairs[axis].astype(float)
                      + float(1 - p) * mixed.pairs[axis].astype(float))
        assert np.allclose(mix.pairs[axis].astype(float), want_pairs, atol=1e-12)
        want_singles = float(p) * pure.singles[axis].astype(float)
        assert np.allclose(mix.singles[axis].astype(float), want_singles, atol=1e-12)


def test_singlet_correlation_square_sum():
    mt = moment_table(ManyBodySinglet(8))
    for axis in DIRECTIONS:
        assert mt.corr_sq_sum(axis) == 8


def test_dicke_half_reference_table():
    mt = moment_table(DickeState(10, 5))
    assert mt.moment(X, 2) == 15 and mt.moment(Y, 2) == 15
    for n in (1, 2, 3, 4):
        assert mt.moment(Z, n) == 0


# --- samplers ---------------------------------------------------------------


def test_sampler_scalars_deterministic_cases():
    rng = np.random.default_rng(11)
    assert sample_total_spin(ManyBodySinglet(6), X, rng) == 0
    assert sample_total_spin(DickeState(10, 5), Z, rng) == 0
    s1, s2 = sample_pair(ManyBodySinglet(4), Z, 0, 1, rng)
    assert s1 * s2 == -1


def test_total_spin_sampler_chi_square():
    rng = np.random.default_rng(2024)
    outcomes, probs = total_spin_distribution(DickeState(2, 1), X)
    draws = sample_total_spin(DickeState(2, 1), X, rng, size=100_000)
    counts = np.array([(draws == o).sum() for o in outcomes])
    keep = probs > 0
    _, p_value = stats.chisquare(counts[keep], 100_000 * probs[keep])
    assert p_value > 1e-3
    assert counts[~keep].sum() == 0


def test_pair_sampler_statistics():
    rng = np.random.default_rng(7)
    s1, s2 = sample_pair(DickeState(10, 5), X, 0, 7, rng, size=100_000)
    # E[4 s_i s_j] with s = encoded/2 -> mean of the encoded product
    est = np.mean(s1 * s2)
    se = np.std(s1 * s2) / math.sqrt(s1.size)
    assert abs(est - 5 / 9) <= 5 * se
    mixed = DepolarizedMixture(DickeState(4, 1), 0)
    a, b = sample_pair(mixed, Y, 1, 3, rng, size=40_000)
    joint = np.array([((a == u) & (b == v)).sum() for u in (1, -1) for v in (1, -1)])
    _, p_value = stats.chisquare(joint, 10_000 * np.ones(4))
    assert p_value > 1e-3


def test_single_sampler_statistics():
    rng = np.random.default_rng(5)
    draws = sample_single(DickeState(6, 2), Z, 0, rng, size=90_000)
    frac_plus = np.mean(draws == 1)
    assert abs(frac_plus - 2 / 3) <= 5 * math.sqrt((2 / 3) * (1 / 3) / draws.size)
    fair = sample_single(ManyBodySinglet(4), X, 0, rng, size=50_000)
    assert abs(np.mean(fair)) <= 5 / math.sqrt(fair.size)


def test_joint_cuts_singlet_anticorrelated():
    cuts = joint_pair_cuts(0.0, 0.0, -1.0)
    assert cuts == pytest.approx([0.0, 0.5, 1.0])


# --- construction errors ----------------------------------------------------


def test_constructor_validation():
    with pytest.raises(ValueError):
        DickeState(5, 6)
    with pytest.raises(ValueError):
        ManyBodySinglet(7)
    with pytest.raises(ValueError):
        DepolarizedMixture(DickeState(4, 2), 1.2)
    with pytest.raises(ValueError):
        DepolarizedMixture(DepolarizedMixture(DickeState(4, 2), 0.5), 0.5)
    with pytest.raises(ValueError):
        DenseState(np.ones(8))  # not normalized
    with pytest.raises(ValueError):
        DenseState(np.ones(2**15) / 2**7.5)  # beyond the dense cap
