import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from tracemix import synth
from tracemix.models import (Hyperparams, SMVPParams, log_marginal,
                             log_poisson, mu_from_params, sample_smvp)

import oracles


def test_hyperparams_validated():
    with pytest.raises(ValueError):
        Hyperparams(a_bar=0.0)
    with pytest.raises(ValueError):
        Hyperparams(gamma=-1.0)


def all_active(lam):
    """The full MVP: the sparse parameters with every dimension active."""
    M = len(lam)
    return SMVPParams(lam, np.zeros(M), np.ones(M, dtype=np.int8))


def test_smvp_params_all_active_validated():
    with pytest.raises(ValueError):
        all_active(np.array([[1.0, 2.0], [0.5, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        all_active(np.array([[1.0, -0.1], [-0.1, 1.0]]))


def test_sample_smvp_all_active_zero_rates():
    rng = np.random.default_rng(0)
    params = all_active(np.zeros((3, 3)))
    for _ in range(50):
        assert np.array_equal(sample_smvp(params, rng), np.zeros(3, dtype=np.int64))


def test_sample_smvp_all_active_diagonal_is_independent():
    rng = np.random.default_rng(1)
    params = all_active(np.diag([2.0, 5.0]))
    draws = sample_smvp(params, rng, size=20000)
    cov = np.cov(draws.T)
    assert abs(cov[0, 1]) < 4 * np.sqrt(2.0 * 5.0 / 20000) * 3


def test_sample_smvp_all_active_moments():
    # E(X) is the rate row sums; Cov(X_j, X_l) is the shared off-diagonal rate
    rng = np.random.default_rng(2)
    lam = np.array([[1.0, 2.0], [2.0, 3.0]])
    params = all_active(lam)
    n = 100_000
    draws = sample_smvp(params, rng, size=n)
    mean = draws.mean(axis=0)
    expect = lam.sum(axis=1)  # (3, 5)
    se_mean = np.sqrt(draws.var(axis=0) / n)
    assert np.all(np.abs(mean - expect) < 3 * se_mean)
    prods = (draws[:, 0] - mean[0]) * (draws[:, 1] - mean[1])
    cov01 = prods.mean()
    se_cov = prods.std() / np.sqrt(n)
    assert abs(cov01 - 2.0) < 3 * se_cov


@pytest.mark.parametrize("b", [[1, 1, 0], [0, 1, 0], [1, 1, 1], [0, 0, 0]])
def test_batched_draws_equal_sequential_draws(b):
    lam = np.array([[1.0, 0.5, 0.2], [0.5, 2.0, 0.0], [0.2, 0.0, 3.0]])
    params = SMVPParams(lam, np.array([0.1, 0.0, 0.4]), np.array(b, dtype=np.int8))
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    one_by_one = np.array([sample_smvp(params, rng_a) for _ in range(50)])
    batch = sample_smvp(params, rng_b, size=50)
    assert batch.dtype == one_by_one.dtype == np.int64
    assert np.array_equal(batch, one_by_one)
    # the generators are left in the same state
    assert rng_a.random() == rng_b.random()


def test_sample_smvp_all_inactive_zero_noise():
    rng = np.random.default_rng(5)
    params = SMVPParams(np.zeros((3, 3)), np.zeros(3), np.zeros(3, dtype=np.int8))
    for _ in range(20):
        assert np.array_equal(sample_smvp(params, rng), np.zeros(3, dtype=np.int64))


def test_sample_smvp_inactive_dim_is_noise():
    rng = np.random.default_rng(6)
    lam = np.zeros((3, 3))
    lam[:2, :2] = np.array([[1.0, 0.5], [0.5, 1.0]])
    params = SMVPParams(lam, np.array([0.0, 0.0, 0.1]),
                        np.array([1, 1, 0], dtype=np.int8))
    n = 100_000
    draws = sample_smvp(params, rng, size=n)
    m3 = draws[:, 2].mean()
    se = draws[:, 2].std() / np.sqrt(n)
    assert abs(m3 - 0.1) < 3 * se
    for j in (0, 1):
        prods = ((draws[:, j] - draws[:, j].mean())
                 * (draws[:, 2] - m3))
        assert abs(prods.mean()) < 3 * prods.std() / np.sqrt(n)


@pytest.mark.parametrize("seed", [0, 1])
def test_ordering_spec_gives_each_state_its_own_correlated_pair(seed):
    # what synth.default_ordering_spec promises, on its own draws: state k's
    # dimensions 2k and 2k + 1 share a rate-4 latent over rate-1 diagonals
    # (mean 5 each, correlation 4 / 5), and its other six dimensions are
    # noise at rate 0.3.  Each bound is about 3.5 standard errors at 41
    # slices, the fewest a state had on these seeds.
    spec = synth.default_ordering_spec(seed=seed)
    seq, Z = synth.gen_count_sequence(spec)
    assert (spec.K_true, spec.M) == (4, 8)
    for k in range(spec.K_true):
        X = seq.X[Z == k]
        pair = X[:, [2 * k, 2 * k + 1]]
        rest = np.delete(X, [2 * k, 2 * k + 1], axis=1)
        assert len(X) >= 30, k
        assert np.corrcoef(pair.T)[0, 1] >= 0.6, k
        assert np.all(np.abs(pair.mean(axis=0) - 5.0) < 1.25), k
        assert abs(rest.mean() - 0.3) < 0.12, k


# ---------------------------------------------------------------------------
# collapsed kernels: log_marginal is the paper's F, normalised so that an
# empty factor scores 0; the test names keep the F notation

def test_log_F_empty_cluster():
    assert log_marginal(0, 0, 0.0, 1.0, 1.0) == pytest.approx(0.0)
    assert log_marginal(0, 0, 0.0, 2.5, 1.5) == pytest.approx(0.0)
    # the normaliser is the unnormalised kernel of the empty factor
    assert log_marginal(1, 1, 0.0, 2.5, 1.5) == pytest.approx(
        gammaln(3.5) - 3.5 * np.log(2.5) - (gammaln(2.5) - 2.5 * np.log(1.5)))


def test_log_F_closed_form():
    # two pooled observations {1, 2}: Gamma(4) / 3^4 / (1! 2!)
    hp = Hyperparams(a_bar=1.0, b_bar=1.0)
    got = log_marginal(3, 2, float(gammaln(2) + gammaln(3)), hp.a_bar, hp.b_bar)
    assert got == pytest.approx(np.log(6.0 / 81.0 / 2.0))


def test_log_F_matches_grid_integration():
    hp = Hyperparams(a_bar=1.0, b_bar=1.0)
    ys = [1, 2]
    grid = oracles.grid_poisson_gamma_marginal(ys, 1.0, 1.0)
    lf = log_marginal(3, 2, float(gammaln(np.array(ys) + 1.0).sum()),
                      hp.a_bar, hp.b_bar)
    assert np.exp(lf) == pytest.approx(grid, rel=1e-5)


def test_log_F_monotone_in_n():
    hp = Hyperparams()
    vals = [log_marginal(3, n, 0.0, hp.a_bar, hp.b_bar) for n in range(5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_log_F_hat_matches_log_F_with_same_prior():
    hp = Hyperparams(a_bar=1.3, b_bar=2.0, a_hat=1.3, b_hat=2.0)
    assert log_marginal(4, 3, 1.7, hp.a_hat, hp.b_hat) == pytest.approx(
        log_marginal(4, 3, 1.7, hp.a_bar, hp.b_bar))


def test_log_F_hat_closed_form():
    hp = Hyperparams(a_hat=1.0, b_hat=1.0)
    got = log_marginal(2, 3, float(gammaln(3.0)), hp.a_hat, hp.b_hat)
    assert got == pytest.approx(np.log(np.exp(gammaln(3.0)) / 4.0 ** 3 / 2.0))


def test_log_F_hat_grid():
    hp = Hyperparams(a_hat=1.0, b_hat=1.0)
    ys = [2]
    grid = oracles.grid_poisson_gamma_marginal(ys, 1.0, 1.0)
    lf = log_marginal(2, 1, float(gammaln(3.0)), hp.a_hat, hp.b_hat)
    assert np.exp(lf) == pytest.approx(grid, rel=1e-5)


# ---------------------------------------------------------------------------
# means and pmfs

def test_mu_all_active_is_row_sums():
    lam = np.array([[1.0, 2.0], [2.0, 3.0]])
    params = SMVPParams(lam, np.zeros(2), np.ones(2, dtype=np.int8))
    assert np.allclose(mu_from_params(params), lam.sum(axis=1))


def test_mu_all_inactive_is_noise():
    lhat = np.array([0.3, 0.7])
    params = SMVPParams(np.zeros((2, 2)), lhat, np.zeros(2, dtype=np.int8))
    assert np.allclose(mu_from_params(params), lhat)


def test_mu_mixed():
    lam = np.zeros((2, 2))
    lam[0, 0] = 2.0
    params = SMVPParams(lam, np.array([0.0, 0.5]),
                        np.array([1, 0], dtype=np.int8))
    assert np.allclose(mu_from_params(params), [2.0, 0.5])


def test_log_poisson_zero():
    assert log_poisson([0], [0.0]) == pytest.approx(0.0)


def test_log_poisson_unit():
    assert log_poisson([1], [1.0]) == pytest.approx(-1.0)


def test_log_poisson_general():
    got = log_poisson([2, 3], [1.0, 2.0])
    expect = -3.0 + 2 * np.log(1.0) + 3 * np.log(2.0) - np.log(2.0) - np.log(6.0)
    assert got == pytest.approx(expect)


def test_log_poisson_impossible():
    assert log_poisson([1, 0], [0.0, 1.0]) == -np.inf


def test_log_poisson_over_a_table_matches_scipy():
    rng = np.random.default_rng(7)
    X = rng.integers(0, 6, size=(4, 3))
    mu = rng.uniform(0.1, 5.0, size=(2, 3))
    mu[1, 0] = 0.0  # a zero mean is legal
    table = log_poisson(X[:, None], mu)
    assert table.shape == (4, 2)
    for t in range(4):
        for k in range(2):
            want = stats.poisson.logpmf(X[t], mu[k]).sum()
            assert table[t, k] == pytest.approx(want)
