"""The one Poisson-Gamma predictive: _log_gain against differences of the
normalised marginal, and the marginal against the closed form."""

import numpy as np
import pytest
from scipy.special import gammaln

from tracemix import gibbs
from tracemix.models import Hyperparams, log_marginal

import oracles

HP = Hyperparams(a_bar=0.7, b_bar=1.3, a_hat=1.5, b_hat=10.0)
PRIORS = {"active": (HP.a_bar, HP.b_bar), "noise": (HP.a_hat, HP.b_hat)}


@pytest.mark.parametrize("prior", sorted(PRIORS))
def test_log_gain_is_a_difference_of_marginals(prior):
    shape, rate = PRIORS[prior]
    rng = np.random.default_rng(11)
    S = rng.integers(0, 60, size=300)
    n = rng.integers(0, 12, size=300)
    y = rng.integers(0, 15, size=300)
    S[:20], n[:20] = 0, 0                      # empty factors
    y[20:40] = 0                               # nothing added
    lf = rng.uniform(0.0, 30.0, size=300)      # any accumulated log(Y!) sum
    want = (log_marginal(S + y, n + 1, lf + gammaln(y + 1.0), shape, rate)
            - log_marginal(S, n, lf, shape, rate))
    np.testing.assert_allclose(gibbs._log_gain(S, n, y, shape, rate), want,
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("prior", sorted(PRIORS))
def test_log_marginal_matches_closed_form(prior):
    shape, rate = PRIORS[prior]
    rng = np.random.default_rng(5)
    for size in (0, 1, 2, 5, 9):
        ys = rng.integers(0, 25, size=size)
        S, n, lf = int(ys.sum()), size, float(gammaln(ys + 1.0).sum())
        assert log_marginal(S, n, lf, shape, rate) == pytest.approx(
            oracles.log_marginal_factor(S, n, lf, shape, rate), abs=1e-9)
