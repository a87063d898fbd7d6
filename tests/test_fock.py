import math
import warnings

import numpy as np
import pytest
from scipy.stats import poisson

from rydstats import (
    FockDistribution,
    NumericalError,
    SourceModel,
    ValidationError,
    coherent,
    conditional_read_state,
    fock_state,
    infer_p_from_g2,
    loss_matrix,
    perfect_filter_matrix,
)
from rydstats._roots import bisect_bracket
from rydstats.fock import (
    NEGATIVE_TOLERANCE,
    TAIL_TOLERANCE,
    _coherent_rows,
    _normalized,
    _poisson_rows,
    _poisson_tail,
    _poisson_terms,
    coherent_mu_upper_bound,
)

# scipy is the independent oracle; entries below this are underflow dust
_SIGNIFICANT = 1e-290


@pytest.mark.parametrize("n_max", [-1, 2.5, float("nan"), "3"])
@pytest.mark.parametrize("build", [
    lambda n_max: loss_matrix(0.5, n_max),
    lambda n_max: perfect_filter_matrix(n_max),
    lambda n_max: fock_state(0, n_max),
    lambda n_max: coherent(0.1, n_max),
    lambda n_max: conditional_read_state(SourceModel(0.1), n_max),
    lambda n_max: infer_p_from_g2(0.3, 0.21, n_max),
], ids=["loss_matrix", "perfect_filter_matrix", "fock_state", "coherent",
        "conditional_read_state", "infer_p_from_g2"])
def test_truncation_must_be_a_non_negative_integer(build, n_max):
    with pytest.raises(ValidationError, match="n_max must be an integer >= "):
        build(n_max)


@pytest.mark.parametrize("build", [
    perfect_filter_matrix,
    lambda n_max: conditional_read_state(SourceModel(0.1), n_max),
    lambda n_max: infer_p_from_g2(0.3, 0.21, n_max),
], ids=["perfect_filter_matrix", "conditional_read_state", "infer_p_from_g2"])
def test_truncation_needs_one_photon(build):
    with pytest.raises(ValidationError, match="n_max must be an integer >= 1, got 0"):
        build(0)


class TestConstruction:
    def test_normalizes(self):
        d = FockDistribution(np.array([2.0, 2.0]))
        np.testing.assert_allclose(d.probs, [0.5, 0.5])

    def test_rejects_large_negative(self):
        with pytest.raises(ValidationError):
            FockDistribution(np.array([0.5, -0.1, 0.6]))

    def test_clips_negative_dust(self):
        d = FockDistribution(np.array([1.0, -1e-12]))
        assert d.probs[1] == 0.0
        # the tolerance itself is still dust
        d = FockDistribution(np.array([1.0, -NEGATIVE_TOLERANCE]))
        assert d.probs.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("probs, message", [
        (np.full((2, 2), 0.25), "probability vector must be 1-D and non-empty"),
        (np.zeros(0), "probability vector must be 1-D and non-empty"),
        (np.array([0.5, np.nan]), "probability vector contains non-finite entries"),
    ], ids=["2-d", "empty", "nan"])
    def test_rejects_malformed_vector(self, probs, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            FockDistribution(probs)

    def test_number_state_beyond_truncation(self):
        with pytest.raises(ValidationError, match=r"^photon number 5 outside 0\.\.3$"):
            fock_state(5, 3)

    def test_rejects_zero_sum(self):
        with pytest.raises(ValidationError):
            FockDistribution(np.zeros(3))

    def test_immutable(self):
        d = fock_state(0, 4)
        with pytest.raises(ValueError):
            d.probs[0] = 0.5


class TestCoherent:
    def test_vacuum_limit(self):
        d = coherent(0.0, 10)
        np.testing.assert_allclose(d.probs, fock_state(0, 10).probs)

    def test_single_photon_weight(self):
        # closed-form Poisson: p_1 = e^{-1} at mu = 1
        assert coherent(1.0, 30).probs[1] == pytest.approx(0.36787944117144233, abs=1e-12)

    def test_poissonian_g2(self):
        assert coherent(0.5, 25).g2() == pytest.approx(1.0, abs=1e-9)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValidationError):
            coherent(-0.1)

    def test_truncation_guard(self):
        with pytest.raises(NumericalError):
            coherent(5.0, 5)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_non_finite_mean_rejected(self, mu):
        with pytest.raises(ValidationError, match=f"got {mu}"):
            coherent(mu)

    def test_huge_mean_is_a_tail_failure(self):
        # exp(-1e6) underflows; that must not read as an empty tail
        with pytest.raises(NumericalError, match="tail beyond n_max=20 is 1.00e\\+00"):
            coherent(1e6, 20)

    def test_mean_beyond_exp_underflow(self):
        d = coherent(800.0, 1200)
        assert d.mean_photons() == pytest.approx(800.0, rel=1e-12)
        assert d.g2() == pytest.approx(1.0, abs=1e-12)


class TestPoissonAgainstScipy:
    @pytest.mark.parametrize("mu", [0.0, 1e-6, 0.5, 5.0, 50.0, 140.0])
    @pytest.mark.parametrize("n_max", [1, 20, 150, 300])
    def test_terms_and_tail(self, mu, n_max):
        pmf, tail = _poisson_terms(mu, n_max)
        expected = poisson.pmf(np.arange(n_max + 1), mu)
        keep = expected > _SIGNIFICANT
        np.testing.assert_allclose(pmf[keep], expected[keep], rtol=1e-12, atol=0)
        assert np.all(pmf[~keep] <= 1e-280)
        expected_tail = poisson.sf(n_max, mu)
        if expected_tail > _SIGNIFICANT:
            assert tail == pytest.approx(expected_tail, rel=1e-12)
        else:
            assert tail <= 1e-280

    @pytest.mark.parametrize("mu", [0.0, 1e-6, 0.5, 5.0, 50.0, 140.0])
    def test_coherent_pmf(self, mu):
        k = np.arange(301)
        expected = poisson.pmf(k, mu) / poisson.cdf(300, mu)
        keep = expected > _SIGNIFICANT
        np.testing.assert_allclose(coherent(mu, 300).probs[keep], expected[keep],
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n_max", [1, 3, 20, 100, 150])
    def test_mu_upper_bound(self, n_max):
        expected = bisect_bracket(lambda mu: poisson.sf(n_max, mu) < TAIL_TOLERANCE,
                                  np.zeros(1), np.array([float(n_max)]))[0].item()
        assert coherent_mu_upper_bound(n_max) == pytest.approx(expected, rel=1e-12)


def one_mean(mu, n_max):
    # the Poisson pmf and tail of one mean, as a scalar recurrence: the
    # reference that each batched row must equal bit for bit
    if not 0.0 <= mu < math.inf:
        raise ValidationError(f"mean photon number must be finite and >= 0, got {mu}")
    a = min(math.floor(mu), n_max)
    log_p = -mu if a == 0 else a * math.log(mu) - mu - math.lgamma(a + 1)
    ratios = np.empty(n_max + 1)
    ratios[a] = 1.0
    np.divide(np.arange(1, a + 1), mu, out=ratios[:a])
    np.divide(mu, np.arange(a + 1, n_max + 1), out=ratios[a + 1:])
    pmf = np.empty(n_max + 1)
    pmf[a::-1] = math.exp(log_p) * np.cumprod(ratios[a::-1])
    pmf[a:] = pmf[a] * np.cumprod(ratios[a:])
    if math.floor(mu) > n_max:
        return pmf, max(0.0, 1.0 - float(pmf.sum()))
    beyond = pmf[-1] * np.cumprod(mu / np.arange(n_max + 1, 2 * n_max + 102))
    return pmf, float(beyond[::-1].sum())


def edge_means(n_max, rng):
    """Means at the edges of the recurrence: zero, the smallest double, the
    integers around n_max and the doubles beside them, a mode beyond exp's
    range, and random draws below and above n_max."""
    edges = [0.0, 5e-324, 1.0, 0.5 * n_max]
    for j in {max(n_max - 1, 0), n_max, n_max + 1}:
        edges += [math.nextafter(float(j), 0.0), float(j), math.nextafter(float(j), math.inf)]
    draws = np.concatenate([rng.uniform(0.0, 2.0 * n_max + 2.0, 40),
                            10.0 ** rng.uniform(-12.0, 3.0, 40)])
    return np.array(edges + [1e6] + draws.tolist())


class TestPoissonRows:
    @pytest.mark.parametrize("n_max", [0, 1, 12, 100, 130])
    def test_each_row_is_the_scalar_recurrence(self, n_max):
        mu = edge_means(n_max, np.random.default_rng(n_max))
        pmf, tail = _poisson_rows(mu, n_max)
        for i, m in enumerate(mu.tolist()):
            expected_pmf, expected_tail = one_mean(m, n_max)
            assert np.array_equal(pmf[i], expected_pmf), m
            assert tail[i] == expected_tail, m
            assert _poisson_terms(m, n_max)[1] == expected_tail
        fits = tail < TAIL_TOLERANCE
        rows = _normalized(_coherent_rows(mu[fits], n_max))
        for row, m in zip(rows, mu[fits].tolist()):
            assert np.array_equal(row, FockDistribution(one_mean(m, n_max)[0]).probs)

    @pytest.mark.parametrize("n_max", [12, 40, 100, 130])
    def test_tail_alone_is_the_tail_of_the_pmf(self, n_max):
        # the bound's predicate builds pmf[n_max] alone; every mean whose
        # mode lies within 0..n_max
        mu = np.random.default_rng(n_max).uniform(0.0, n_max + 1.0, 2000)
        tails = _poisson_tail(mu, n_max)
        for m, tail in zip(mu.tolist(), tails.tolist()):
            assert tail == _poisson_terms(m, n_max)[1] == one_mean(m, n_max)[1], m

    def test_zero_mean_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pmf, tail = _poisson_rows(np.array([0.0, 0.5, 0.0]), 12)
            assert _poisson_tail(np.array([0.0]), 12).tolist() == [0.0]
            assert coherent(0.0, 12).probs[0] == 1.0
        assert pmf[0].tolist() == [1.0] + [0.0] * 12 and tail[0] == 0.0

    @pytest.mark.parametrize("n_max, message", [
        (12, "Poisson tail beyond n_max=12 is 4.24e-01 >= 1e-09 for mu=12.0; increase n_max"),
        (100, "Poisson tail beyond n_max=100 is 4.73e-01 >= 1e-09 for mu=100.0; increase n_max"),
    ])
    def test_failing_row_raises_its_own_error(self, n_max, message):
        with pytest.raises(NumericalError) as alone:
            coherent(float(n_max), n_max)
        with pytest.raises(NumericalError) as batch:
            _coherent_rows(np.array([0.5, float(n_max), float(2 * n_max)]), n_max)
        assert str(batch.value) == str(alone.value) == message

    @pytest.mark.parametrize("bad, shown", [(-0.1, "-0.1"), (math.nan, "nan"), (math.inf, "inf")])
    def test_bad_mean_raises_its_own_error(self, bad, shown):
        with pytest.raises(ValidationError) as alone:
            coherent(bad, 12)
        with pytest.raises(ValidationError) as batch:
            _coherent_rows(np.array([0.5, bad]), 12)
        assert str(batch.value) == str(alone.value) == \
            f"mean photon number must be finite and >= 0, got {shown}"


class TestStatistics:
    def test_g2_single_photon(self):
        assert fock_state(1, 10).g2() == 0.0

    def test_g2_two_photon(self):
        assert fock_state(2, 10).g2() == pytest.approx(0.5)

    def test_g2_vacuum_error(self):
        with pytest.raises(ValidationError):
            fock_state(0, 5).g2()

    def test_g2_of_an_underflowing_mean_is_numerical_error(self):
        # the mean is positive but its square is 0
        with pytest.raises(NumericalError, match="mean photon number 1e-200"):
            FockDistribution(np.array([1.0, 1e-200])).g2()

    def test_zeta_single_photon(self):
        assert fock_state(1, 10).zeta() == 0.0

    def test_zeta_two_photon(self):
        assert fock_state(2, 10).zeta() == 1.0

    def test_zeta_vacuum_error(self):
        with pytest.raises(ValidationError):
            fock_state(0, 5).zeta()

    def test_zeta_coherent(self):
        # (1 - e^-mu - mu e^-mu) / (1 - e^-mu) at mu = 0.1
        assert coherent(0.1, 20).zeta() == pytest.approx(0.04916680552249556, abs=1e-5)

    def test_zeta_increases_with_mu(self):
        values = [coherent(mu, 40).zeta() for mu in np.linspace(0.05, 3.0, 25)]
        assert np.all(np.diff(values) > 0)

    def test_mean_vacuum(self):
        assert fock_state(0, 5).mean_photons() == 0.0

    def test_mean_half(self):
        assert FockDistribution(np.array([0.5, 0.5])).mean_photons() == pytest.approx(0.5)

    def test_mean_coherent(self):
        assert coherent(0.7, 25).mean_photons() == pytest.approx(0.7, abs=1e-9)


class TestLossInvariance:
    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
    def test_g2_invariant_under_loss(self, t):
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = FockDistribution(rng.random(13) * np.exp(-np.arange(13)))
            lossy = loss_matrix(t, 12).apply(d)
            assert lossy.g2() == pytest.approx(d.g2(), abs=1e-7)

    @pytest.mark.parametrize("t", [0.25, 0.8])
    def test_mean_scales_with_loss(self, t):
        d = coherent(0.9, 25)
        assert loss_matrix(t, 25).apply(d).mean_photons() == pytest.approx(
            t * d.mean_photons(), abs=1e-9
        )
