import numpy as np
import pytest

from rydstats import (
    BlockadeConfig,
    ValidationError,
    blockade_matrix,
    exact_pair_survival,
    perfect_filter_matrix,
    simulate_fock,
    slow_light_matrix,
)
from rydstats.blockade import _histograms


def small_cfg(**kwargs):
    defaults = dict(trials_per_fock=20_000, rng_seed=99, n_max=8)
    defaults.update(kwargs)
    return BlockadeConfig(**defaults)


class TestConfig:
    def test_rejects_bad_lengths(self):
        with pytest.raises(ValidationError):
            BlockadeConfig(cloud_length=0.0)
        with pytest.raises(ValidationError):
            BlockadeConfig(blockade_radius=-1.0)
        with pytest.raises(ValidationError):
            BlockadeConfig(trials_per_fock=0)

    @pytest.mark.parametrize("field", ["cloud_length", "blockade_radius"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_lengths(self, field, value):
        with pytest.raises(ValidationError, match="finite"):
            BlockadeConfig(**{field: value})


class TestExactPairSurvival:
    def test_no_blockade(self):
        assert exact_pair_survival(0.0, 15.0) == 1.0

    def test_full_blockade(self):
        assert exact_pair_survival(15.0, 15.0) == 0.0
        assert exact_pair_survival(20.0, 15.0) == 0.0

    def test_default_geometry(self):
        # order-statistics integral: P(|x1 - x2| > d) = (1 - d/L)^2
        assert exact_pair_survival(10.5, 15.0) == pytest.approx(0.09)

    def test_rejects_bad_cloud(self):
        with pytest.raises(ValidationError):
            exact_pair_survival(1.0, 0.0)

    @pytest.mark.parametrize(
        "r_b, cloud_length",
        [(float("nan"), 15.0), (1.0, float("nan")), (1.0, float("inf")),
         (float("inf"), 15.0), (-1.0, 15.0), (1.0, -15.0)],
        ids=["nan-radius", "nan-cloud", "inf-cloud", "inf-radius", "negative-radius",
             "negative-cloud"],
    )
    def test_rejects_what_the_config_rejects(self, r_b, cloud_length):
        with pytest.raises(ValidationError, match="finite"):
            exact_pair_survival(r_b, cloud_length)
        with pytest.raises(ValidationError, match="finite"):
            BlockadeConfig(cloud_length=cloud_length, blockade_radius=r_b)


class TestSimulateFock:
    def test_vacuum_input(self):
        d = simulate_fock(small_cfg(), 0)
        np.testing.assert_array_equal(d.probs, [1.0])

    def test_single_photon_always_survives(self):
        d = simulate_fock(small_cfg(), 1)
        np.testing.assert_array_equal(d.probs, [0.0, 1.0])

    def test_pair_survival_within_3_sigma(self):
        cfg = small_cfg(trials_per_fock=100_000)
        d = simulate_fock(cfg, 2)
        expected = exact_pair_survival(10.5, 15.0)
        sigma = np.sqrt(expected * (1 - expected) / cfg.trials_per_fock)
        assert abs(d.probs[2] - expected) < 3 * sigma

    def test_full_blockade_single_survivor(self):
        d = simulate_fock(small_cfg(blockade_radius=15.0), 4)
        np.testing.assert_array_equal(d.probs, [0, 1, 0, 0, 0])

    def test_at_least_one_survivor(self):
        for n in range(1, 9):
            d = simulate_fock(small_cfg(), n)
            assert d.probs[0] == 0.0
            assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        a = simulate_fock(small_cfg(), 5)
        b = simulate_fock(small_cfg(), 5)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_thread_count_does_not_change_result(self):
        cfg = small_cfg(trials_per_fock=35_000)
        a = simulate_fock(cfg, 4, threads=1)
        b = simulate_fock(cfg, 4, threads=4)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_two_threads_give_identical_histograms(self):
        cfg = small_cfg(trials_per_fock=25_000, cloud_length=37.5)
        for n in (2, 6):
            a = simulate_fock(cfg, n, threads=1)
            b = simulate_fock(cfg, n, threads=2)
            np.testing.assert_array_equal(a.probs * a.trials, b.probs * b.trials)

    def test_flat_task_list_keeps_each_column_apart(self):
        cfg = small_cfg(trials_per_fock=25_000)
        together = _histograms(cfg, [2, 5], threads=2)
        apart = [_histograms(cfg, [n], threads=1)[0] for n in (2, 5)]
        for got, want in zip(together, apart):
            assert got.dtype == np.int64 and got.sum() == 25_000
            np.testing.assert_array_equal(got, want)

    def test_n_out_of_range(self):
        with pytest.raises(ValidationError):
            simulate_fock(small_cfg(), 9)
        with pytest.raises(ValidationError):
            simulate_fock(small_cfg(), -1)

    def test_monotone_in_radius(self):
        # pair survival cannot increase with the blockade radius
        values = []
        for r_b in (2.0, 5.0, 8.0, 11.0, 14.0):
            d = simulate_fock(small_cfg(blockade_radius=r_b, trials_per_fock=50_000), 2)
            values.append(d.probs[2])
        sigma = np.sqrt(0.25 / 50_000)
        assert np.all(np.diff(values) < 3 * sigma)

    def test_convergence_rate(self):
        # standard error shrinks ~1/sqrt(trials): the 1e4-trial estimate may
        # sit farther from the oracle, both within their own 3 sigma
        expected = exact_pair_survival(10.5, 15.0)
        for trials in (10_000, 100_000):
            d = simulate_fock(small_cfg(trials_per_fock=trials), 2)
            sigma = np.sqrt(expected * (1 - expected) / trials)
            assert abs(d.probs[2] - expected) < 3 * sigma

    def test_standard_errors(self):
        d = simulate_fock(small_cfg(trials_per_fock=10_000), 2)
        assert d.standard_errors[2] == pytest.approx(
            np.sqrt(d.probs[2] * (1 - d.probs[2]) / 10_000)
        )


class TestBlockadeMatrix:
    def test_zero_radius_is_identity(self):
        m = blockade_matrix(small_cfg(blockade_radius=0.0))
        np.testing.assert_array_equal(m.matrix, np.eye(9))

    def test_full_blockade_is_perfect_filter(self):
        m = blockade_matrix(small_cfg(blockade_radius=15.0))
        np.testing.assert_array_equal(m.matrix, perfect_filter_matrix(8).matrix)

    def test_exact_low_columns(self):
        m = blockade_matrix(small_cfg())
        np.testing.assert_array_equal(m.matrix[:, 0], np.eye(9)[0])
        np.testing.assert_array_equal(m.matrix[:, 1], np.eye(9)[1])

    def test_column_stochastic(self):
        m = blockade_matrix(small_cfg())
        np.testing.assert_allclose(m.matrix.sum(axis=0), 1.0, atol=1e-12)

    def test_threaded_matches_sequential(self):
        cfg = small_cfg(trials_per_fock=25_000, n_max=6)
        a = blockade_matrix(cfg, threads=1)
        b = blockade_matrix(cfg, threads=3)
        np.testing.assert_array_equal(a.matrix, b.matrix)


class TestSlowLight:
    def test_scale_one_matches_blockade(self):
        cfg = small_cfg()
        np.testing.assert_array_equal(
            slow_light_matrix(cfg, 1.0).matrix, blockade_matrix(cfg).matrix
        )

    def test_pair_survival_grows_with_scale(self):
        cfg = small_cfg(trials_per_fock=100_000)
        m = slow_light_matrix(cfg, 2.5)
        expected = exact_pair_survival(10.5, 2.5 * 15.0)
        assert expected == pytest.approx(0.5184)
        sigma = np.sqrt(expected * (1 - expected) / cfg.trials_per_fock)
        assert abs(m.matrix[2, 2] - expected) < 3 * sigma
        assert m.matrix[2, 2] > blockade_matrix(cfg).matrix[2, 2]

    def test_rejects_shrinking(self):
        with pytest.raises(ValidationError):
            slow_light_matrix(small_cfg(), 0.5)
