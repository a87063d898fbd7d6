import concurrent.futures
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydstats import (
    BlockadeConfig,
    PipelineConfig,
    ValidationError,
    blockade_matrix,
    exact_matrix,
    exact_pair_survival,
    loss_matrix,
    medium_matrix,
    perfect_filter_matrix,
)
from rydstats.blockade import (
    CHUNK_TRIALS,
    EXACT_MAX_RADII,
    _histograms,
    _max_survivors,
    _quadrature_nodes,
    _simulate_chunk,
    _survivors,
    simulate_fock,
    slow_light_matrix,
)


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

    @pytest.mark.parametrize(
        "field, value",
        [("rng_seed", -1), ("rng_seed", 1.5), ("trials_per_fock", float("nan")),
         ("trials_per_fock", 2.5), ("n_max", 2.5)],
    )
    def test_rejects_non_integer_or_small_counts(self, field, value):
        # each of these used to reach the Monte Carlo and fail there with a
        # bare TypeError or ValueError
        with pytest.raises(ValidationError, match=field):
            BlockadeConfig(**{field: value})

    def test_largest_indexable_n_max(self):
        # (n_max + 1)^2 doubles must fit np.intp's bytes; the config only
        # records the truncation, so taking the largest allocates nothing
        tracemalloc.start()
        try:
            assert BlockadeConfig(n_max=1_073_741_822).n_max == 1_073_741_822
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
        with pytest.raises(ValidationError,
                           match="^n_max must be at most 1073741822, got 1073741823$"):
            BlockadeConfig(n_max=1_073_741_823)

    @pytest.mark.parametrize("build", [
        lambda n: BlockadeConfig(n_max=n),
        lambda n: exact_matrix(15.0, 10.5, n),
        lambda n: exact_matrix(15.0, 0.0, n),
        lambda n: loss_matrix(0.5, n),
        lambda n: perfect_filter_matrix(n),
    ], ids=["BlockadeConfig", "exact_matrix", "exact_matrix-rb0", "loss_matrix",
            "perfect_filter_matrix"])
    def test_huge_n_max_names_the_key(self, build):
        # each builds an (n_max + 1)^2 array: numpy would fail with its own
        # MemoryError or "array is too big" ValueError
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError,
                               match="^n_max must be at most 1073741822, got 1099511627776$"):
                build(2**40)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("threads", [0, -3, 1.5])
    def test_rejects_bad_thread_count(self, threads):
        with pytest.raises(ValidationError, match="threads"):
            blockade_matrix(small_cfg(trials_per_fock=100), threads=threads)


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
        np.testing.assert_array_equal(simulate_fock(small_cfg(), 0), [1.0])

    def test_single_photon_always_survives(self):
        np.testing.assert_array_equal(simulate_fock(small_cfg(), 1), [0.0, 1.0])

    def test_pair_survival_within_3_sigma(self):
        cfg = small_cfg(trials_per_fock=100_000)
        probs = simulate_fock(cfg, 2)
        expected = exact_pair_survival(10.5, 15.0)
        sigma = np.sqrt(expected * (1 - expected) / cfg.trials_per_fock)
        assert abs(probs[2] - expected) < 3 * sigma

    def test_full_blockade_single_survivor(self):
        probs = simulate_fock(small_cfg(blockade_radius=15.0), 4)
        np.testing.assert_array_equal(probs, [0, 1, 0, 0, 0])

    def test_at_least_one_survivor(self):
        for n in range(1, 9):
            probs = simulate_fock(small_cfg(), n)
            assert probs[0] == 0.0
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        a = simulate_fock(small_cfg(), 5)
        b = simulate_fock(small_cfg(), 5)
        np.testing.assert_array_equal(a, b)

    def test_thread_count_does_not_change_result(self):
        cfg = small_cfg(trials_per_fock=35_000)
        a = simulate_fock(cfg, 4)
        b = blockade_matrix(cfg, threads=4).matrix[:5, 4]
        np.testing.assert_array_equal(a, b)

    def test_two_threads_give_identical_histograms(self):
        cfg = small_cfg(trials_per_fock=25_000, cloud_length=37.5)
        for n in (2, 6):
            a = _histograms(replace(cfg, n_max=n), threads=1)
            b = _histograms(replace(cfg, n_max=n), threads=2)
            np.testing.assert_array_equal(a, b)

    def test_equals_matrix_column(self):
        # column n does not depend on n_max: the n-arrival run gives the
        # same bits as the full matrix
        cfg = small_cfg(trials_per_fock=25_000, cloud_length=37.5)
        m = blockade_matrix(cfg, threads=2).matrix
        for n in range(cfg.n_max + 1):
            probs = simulate_fock(cfg, n)
            assert isinstance(probs, np.ndarray) and probs.shape == (n + 1,)
            np.testing.assert_array_equal(probs, m[: n + 1, n])

    def test_n_out_of_range(self):
        with pytest.raises(ValidationError):
            simulate_fock(small_cfg(), 9)
        with pytest.raises(ValidationError):
            simulate_fock(small_cfg(), -1)

    def test_monotone_in_radius(self):
        # pair survival cannot increase with the blockade radius
        values = []
        for r_b in (2.0, 5.0, 8.0, 11.0, 14.0):
            probs = simulate_fock(small_cfg(blockade_radius=r_b, trials_per_fock=50_000), 2)
            values.append(probs[2])
        sigma = np.sqrt(0.25 / 50_000)
        assert np.all(np.diff(values) < 3 * sigma)

    def test_convergence_rate(self):
        # standard error shrinks ~1/sqrt(trials): the 1e4-trial estimate may
        # sit farther from the oracle, both within their own 3 sigma
        expected = exact_pair_survival(10.5, 15.0)
        for trials in (10_000, 100_000):
            probs = simulate_fock(small_cfg(trials_per_fock=trials), 2)
            sigma = np.sqrt(expected * (1 - expected) / trials)
            assert abs(probs[2] - expected) < 3 * sigma


def sequential_adsorption_p1(n, r_b, cloud_length):
    """P(1 survivor | n arrivals) for r_b <= L <= 2 r_b, where a second
    survivor blocks the whole cloud: 2 rho - 1 + 2 (1 - rho^n) / n with
    rho = r_b / L.  P(2 | n) = 1 - P(1 | n) for n >= 2."""
    rho = r_b / cloud_length
    return 2 * rho - 1 + 2 * (1 - rho**n) / n


def reference_fock(n, trials, seed, cloud_length, r_b):
    """Literal per-column sampler: n arrivals per trial, survivors kept
    in a list, independent of the prefix sampler's streams and buffers."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, cloud_length, (trials, n))
    counts = np.zeros(n + 1, dtype=np.int64)
    for row in x:
        survivors = []
        for pos in row:
            if all(abs(pos - s) > r_b for s in survivors):
                survivors.append(pos)
        counts[len(survivors)] += 1
    return counts


def chunk_stream(n_max, size, seed, chunk, cloud_length):
    """The arrivals of one chunk, in the order the contract fixes: one
    uniform(0, L, size) vector per arrival from the chunk's own stream."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))
    return [rng.uniform(0.0, cloud_length, size).tolist() for _ in range(n_max)]


def literal_chunk(n_max, size, seed, chunk, cloud_length, r_b):
    """Per-trial reading of :func:`_simulate_chunk`'s stream: trial i keeps
    arrival x[i] unless abs(s - x[i]) <= r_b for one of its survivors s."""
    arrivals = chunk_stream(n_max, size, seed, chunk, cloud_length)
    hist = np.zeros((n_max + 1, n_max + 1), dtype=np.int64)
    hist[0, 0] = size
    for i in range(size):
        survivors = []
        for n, x in enumerate(arrivals, start=1):
            if not any(abs(s - x[i]) <= r_b for s in survivors):
                survivors.append(x[i])
            hist[len(survivors), n] += 1
    return hist


def tied_radius(size, seed, chunk, cloud_length, width):
    """A radius near cloud_length / (width - 0.5), so that the survivor
    buffer is ``width`` wide, taken as the exact distance between some
    trial's first two arrivals: that trial tells <= from <."""
    first, second = np.array(chunk_stream(2, size, seed, chunk, cloud_length))
    gaps = np.abs(first - second)
    return float(gaps[np.argmin(np.abs(gaps - cloud_length / (width - 0.5)))])


class TestPrefixSampler:
    @pytest.mark.parametrize("r_b", [10.5, 8.0])
    def test_columns_match_closed_form(self, r_b):
        trials = 100_000
        cfg = BlockadeConfig(cloud_length=15.0, blockade_radius=r_b,
                             trials_per_fock=trials, rng_seed=707, n_max=60)
        m = blockade_matrix(cfg).matrix
        assert m[3:].sum() == 0.0  # a second survivor blocks the whole cloud
        np.testing.assert_array_equal(m[:2, :2], np.eye(2))
        n = np.arange(2, cfg.n_max + 1)
        p1 = sequential_adsorption_p1(n, r_b, 15.0)
        z = (m[1, 2:] - p1) / np.sqrt(p1 * (1 - p1) / trials)
        assert np.abs(z).max() < 4.5
        np.testing.assert_allclose(m[2, 2:], 1.0 - m[1, 2:], atol=1e-12)

    def test_closed_form_gives_pair_survival(self):
        for r_b in (7.5, 10.5, 15.0):
            assert 1 - sequential_adsorption_p1(2, r_b, 15.0) == pytest.approx(
                exact_pair_survival(r_b, 15.0), abs=1e-15)

    def test_tail_probabilities_never_fall_with_n(self):
        # a trial's survivor count never falls, so neither can P(K >= k | n)
        cfg = small_cfg(trials_per_fock=25_000, cloud_length=37.5, n_max=30)
        hist = _histograms(cfg, threads=1)
        tail = np.cumsum(hist[::-1], axis=0)[::-1]
        assert np.all(np.diff(tail, axis=1) >= 0)
        assert tail[4, -1] > 0  # slow light reaches 4 survivors

    def test_slow_light_matches_per_column_reference(self):
        # two-sample z of every entry against independent n-photon runs;
        # bound fixed at 4.5 for the 33 entries with nonzero variance
        trials, cloud_length, r_b = 20_000, 37.5, 10.5
        cfg = small_cfg(trials_per_fock=trials, cloud_length=cloud_length, n_max=10)
        m = blockade_matrix(cfg).matrix
        worst = 0.0
        for n in range(2, cfg.n_max + 1):
            ref = reference_fock(n, trials, 1000 + n, cloud_length, r_b) / trials
            got = m[: n + 1, n]
            var = (got * (1 - got) + ref * (1 - ref)) / trials
            nonzero = var > 0
            z = (got - ref)[nonzero] / np.sqrt(var[nonzero])
            worst = max(worst, np.abs(z).max())
        assert worst < 4.5

    @pytest.mark.parametrize("seed, chunk", [(99, 0), (12345, 3)])
    @pytest.mark.parametrize("size, width, cloud_length, r_b", [
        (997, 1, 0.5, 1.0),  # L < r_b: every arrival after the first is blocked
        (997, 2, 1.0, 1.0),  # L = r_b: the buffer has room for two, one survives
        *((997, w, 10.0, None) for w in range(2, 7)),  # r_b from a tie in the stream
        (7, 6, 5.5, 1.0),  # few trials: one trial alone sets each new largest count
    ])
    def test_chunk_matches_literal_loop(self, seed, chunk, size, width, cloud_length, r_b):
        n_max = 12
        if r_b is None:
            r_b = tied_radius(size, seed, chunk, cloud_length, width)
        assert _max_survivors(n_max, cloud_length, r_b) == width
        got = _simulate_chunk(n_max, size, seed, chunk, cloud_length, r_b)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(
            got, literal_chunk(n_max, size, seed, chunk, cloud_length, r_b))

    def test_chunk_sum_is_thread_independent(self):
        trials = 2 * CHUNK_TRIALS + 5_000
        cfg = small_cfg(trials_per_fock=trials, cloud_length=37.5)
        by_threads = [_histograms(cfg, threads=t) for t in (1, 2, 3)]
        chunks = [_simulate_chunk(cfg.n_max, size, cfg.rng_seed, c, 37.5, 10.5)
                  for c, size in enumerate((CHUNK_TRIALS, CHUNK_TRIALS, 5_000))]
        want = np.sum(chunks, axis=0)
        for got in by_threads:
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(want.sum(axis=0), trials)


class TestBlockadeMatrix:
    def test_zero_radius_is_identity(self):
        m = blockade_matrix(small_cfg(blockade_radius=0.0))
        np.testing.assert_array_equal(m.matrix, np.eye(9))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n_max", [1, 6, 100])
    def test_zero_radius_is_eye_at_any_size(self, n_max, threads):
        m = blockade_matrix(small_cfg(blockade_radius=0.0, n_max=n_max), threads=threads)
        np.testing.assert_array_equal(m.matrix, np.eye(n_max + 1))

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

    def test_one_chunk_starts_no_pool(self, monkeypatch):
        # a second thread would have no chunk to run
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a thread pool was started")

        cfg = small_cfg(trials_per_fock=CHUNK_TRIALS, n_max=6)
        expected = blockade_matrix(cfg, threads=1)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoPool)
        np.testing.assert_array_equal(blockade_matrix(cfg, threads=2).matrix, expected.matrix)


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

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_rejects_non_finite_scale(self, scale):
        # named as the scale, not as the stretched cloud length it implies
        with pytest.raises(ValidationError, match="medium scale"):
            slow_light_matrix(small_cfg(), scale)


#: Cloud lengths in blockade radii: the default geometry (15 / 10.5), the
#: slow-light one (37.5 / 10.5), and either side of each closed-form edge.
RADII = [15.0 / 10.5, 1.9, 2.0, 2.5, 3.0, 37.5 / 10.5, EXACT_MAX_RADII]


def tails(probs):
    """P(K >= k | n) for every k (rows) and n (columns)."""
    return np.cumsum(probs[::-1], axis=0)[::-1]


class TestExactMatrix:
    @pytest.mark.parametrize("radii", RADII)
    @pytest.mark.parametrize("n_max", [100, 130])
    def test_columns_sum_to_one(self, radii, n_max):
        m = exact_matrix(10.5 * radii, 10.5, n_max).matrix
        np.testing.assert_allclose(m.sum(axis=0), 1.0, rtol=0, atol=1e-14)

    def test_limits(self):
        np.testing.assert_array_equal(exact_matrix(15.0, 0.0, 8).matrix, np.eye(9))
        for r_b in (15.0, 20.0):
            np.testing.assert_array_equal(exact_matrix(15.0, r_b, 8).matrix,
                                          perfect_filter_matrix(8).matrix)

    @pytest.mark.parametrize("radii", RADII)
    def test_one_photon_truncation(self, radii):
        # n_max = 1 keeps only the vacuum and the always-surviving photon
        m = exact_matrix(10.5 * radii, 10.5, 1).matrix
        np.testing.assert_allclose(m, np.eye(2), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("r_b", [10.5, 8.0])
    def test_closed_form(self, r_b):
        m = exact_matrix(15.0, r_b, 60).matrix
        n = np.arange(2, 61)
        np.testing.assert_allclose(m[1, 2:], sequential_adsorption_p1(n, r_b, 15.0),
                                   rtol=0, atol=1e-15)
        assert m[2, 2] == pytest.approx(exact_pair_survival(r_b, 15.0), abs=1e-15)
        assert not m[3:].any()

    @pytest.mark.parametrize("radii", [1.2, 15.0 / 10.5, 1.9, 2.0])
    @pytest.mark.parametrize("n_max", [12, 100, 130])
    def test_recursion_gives_closed_form(self, radii, n_max, monkeypatch):
        # forced one level down: the cloud itself goes through the
        # quadrature, with segments of up to one radius as the leaves
        closed = _survivors(radii, n_max)
        monkeypatch.setattr("rydstats.blockade._LEAF_RADII", 1.0)
        recursed = _survivors(radii, n_max)
        np.testing.assert_allclose(recursed, closed, rtol=0, atol=1e-14)
        assert not recursed[3:].any()

    @pytest.mark.parametrize("n_max", [100, 130])
    def test_nodes_are_converged(self, n_max, monkeypatch):
        radii = 37.5 / 10.5
        nodes = _quadrature_nodes(n_max)
        default = _survivors(radii, n_max)
        monkeypatch.setattr("rydstats.blockade._quadrature_nodes", lambda n: 2 * nodes)
        np.testing.assert_allclose(default, _survivors(radii, n_max), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n_max", [4, 7, 12])
    def test_small_truncations_are_exact(self, n_max, monkeypatch):
        # the integrand is a polynomial of degree < n_max on each piece,
        # so ceil(n_max / 2) nodes and any more give the same numbers
        assert _quadrature_nodes(n_max) == math.ceil(n_max / 2)
        radii = (37.5 / 10.5, EXACT_MAX_RADII)
        default = [_survivors(r, n_max) for r in radii]
        monkeypatch.setattr("rydstats.blockade._quadrature_nodes", lambda n: n + 5)
        for r, table in zip(radii, default):
            np.testing.assert_allclose(table, _survivors(r, n_max), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("cloud_length", [15.0, 37.5])
    def test_every_cell_against_the_monte_carlo(self, cloud_length):
        trials = 100_000
        cfg = BlockadeConfig(cloud_length=cloud_length, trials_per_fock=trials,
                             rng_seed=4242, n_max=40)
        sampled = blockade_matrix(cfg).matrix
        exact = exact_matrix(cloud_length, 10.5, 40).matrix
        assert not sampled[exact == 0.0].any()
        tested = (exact * trials >= 5) & ((1 - exact) * trials >= 5)
        z = (sampled - exact)[tested] / np.sqrt(exact * (1 - exact) / trials)[tested]
        assert tested.sum() >= 78  # both rows of the 39 columns n >= 2 at 15 um
        assert np.abs(z).max() < 4.5

    def test_longer_clouds_are_rejected(self):
        with pytest.raises(ValidationError,
                           match=r"covers clouds up to 4 blockade radii, got 4\.04$"):
            exact_matrix(10.5 * EXACT_MAX_RADII * 1.01, 10.5, 10)

    @pytest.mark.parametrize("r_b, cloud_length", [(float("nan"), 15.0), (1.0, float("inf")),
                                                   (-1.0, 15.0), (1.0, 0.0)])
    def test_rejects_what_the_config_rejects(self, r_b, cloud_length):
        with pytest.raises(ValidationError, match="finite"):
            exact_matrix(cloud_length, r_b, 10)

    def test_medium_is_exact_where_covered(self):
        # neither the trial count nor the seed reaches an exact medium;
        # a longer cloud is the Monte Carlo
        for cloud_length in (15.0, 37.5):
            media = [medium_matrix(PipelineConfig(blockade=BlockadeConfig(
                cloud_length=cloud_length, trials_per_fock=trials, rng_seed=seed, n_max=12)))
                for trials, seed in ((10, 1), (1000, 2))]
            np.testing.assert_array_equal(media[0].matrix, media[1].matrix)
        long = BlockadeConfig(cloud_length=10.5 * 5, trials_per_fock=1000, n_max=12)
        np.testing.assert_array_equal(medium_matrix(PipelineConfig(blockade=long)).matrix,
                                      blockade_matrix(long).matrix)


@settings(max_examples=40, deadline=None)
@given(radii=st.floats(0.05, EXACT_MAX_RADII), shrink=st.floats(0.5, 1.0),
       n_max=st.integers(1, 12))
def test_exact_matrix_properties(radii, shrink, n_max):
    m = exact_matrix(10.5 * radii, 10.5, n_max).matrix
    np.testing.assert_allclose(m.sum(axis=0), 1.0, rtol=0, atol=1e-14)
    # k survivors need (k - 1) gaps wider than r_b, and k <= n
    assert not m[math.ceil(radii) + 1:].any()
    assert not np.tril(m, -1).any()
    tail = tails(m)
    assert np.all(np.diff(tail, axis=1) >= -1e-14)
    # a smaller blockade radius in the same cloud never lowers a tail
    shrink = max(shrink, radii / EXACT_MAX_RADII)
    wider = tails(exact_matrix(10.5 * radii, 10.5 * shrink, n_max).matrix)
    assert np.all(wider >= tail - 1e-14)
