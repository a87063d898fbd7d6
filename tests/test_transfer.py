import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from rydstats import (
    FockDistribution,
    ValidationError,
    coherent,
    loss_matrix,
    perfect_filter_matrix,
)
from rydstats.transfer import TransferMatrix, _loss_stack


def column_loop(t, n_max):
    # loss_matrix as one matrix built column by column, the reference that
    # the stacked Pascal step must equal bit for bit
    m = np.zeros((n_max + 1, n_max + 1))
    m[0, 0] = 1.0
    for l in range(1, n_max + 1):
        m[:, l] = (1.0 - t) * m[:, l - 1]
        m[1:, l] += t * m[:-1, l - 1]
    return m


#: Transmissions from 0 through the smallest double and a band-edge
#: thinning (sqrt(eta_eit) * eta_compression) to 1.
STACK_TS = [0.0, 5e-324, 0.15, math.sqrt(0.6) * 0.45, 1.0]


class TestConstruction:
    def test_rejects_negative_entries(self):
        m = np.eye(3)
        m[0, 1] = -0.5
        m[1, 1] = 1.5
        with pytest.raises(ValidationError):
            TransferMatrix(m)

    @pytest.mark.parametrize("m, message", [
        (np.full((2, 3), 0.5), "transfer matrix must be square and non-empty"),
        (np.full((2, 2), np.nan), "transfer matrix contains non-finite entries"),
    ], ids=["2x3", "nan"])
    def test_rejects_malformed_matrix(self, m, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            TransferMatrix(m)

    def test_keeps_its_own_read_only_matrix(self):
        m = np.eye(3)
        tm = TransferMatrix(m)
        m[:] = 0.0
        np.testing.assert_array_equal(tm.matrix, np.eye(3))
        assert not tm.matrix.flags.writeable

    def test_rejects_bad_column_sum(self):
        m = np.eye(3) * 0.99
        with pytest.raises(ValidationError):
            TransferMatrix(m)


class TestLossMatrix:
    def test_unit_transmission_is_identity(self):
        np.testing.assert_array_equal(loss_matrix(1.0, 8).matrix, np.eye(9))

    def test_zero_transmission_maps_to_vacuum(self):
        m = loss_matrix(0.0, 8).matrix
        expected = np.zeros((9, 9))
        expected[0, :] = 1.0
        np.testing.assert_array_equal(m, expected)

    def test_half_transmission_column_two(self):
        # binomial pmf B(2, 0.5)
        col = loss_matrix(0.5, 5).matrix[:, 2]
        np.testing.assert_allclose(col, [0.25, 0.5, 0.25, 0, 0, 0], atol=1e-15)

    def test_upper_triangular(self):
        m = loss_matrix(0.3, 10).matrix
        assert np.all(np.tril(m, k=-1) == 0.0)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            loss_matrix(1.2, 5)
        with pytest.raises(ValidationError):
            loss_matrix(-0.1, 5)

    def test_semigroup(self):
        # loss(t1) after loss(t2) == loss(t1 t2)
        rng = np.random.default_rng(1)
        for _ in range(100):
            t1, t2 = rng.random(2)
            combined = loss_matrix(t1, 12).compose(loss_matrix(t2, 12))
            np.testing.assert_allclose(
                combined.matrix, loss_matrix(t1 * t2, 12).matrix, atol=1e-12
            )


    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.0465, 0.3, 0.999, 1.0])
    @pytest.mark.parametrize("n_max", [1, 20, 100, 150])
    def test_against_scipy_binomial(self, t, n_max):
        k = np.arange(n_max + 1)
        expected = binom.pmf(k[:, None], k[None, :], t)
        m = loss_matrix(t, n_max).matrix
        keep = expected > 1e-290  # below that, underflow dust
        np.testing.assert_allclose(m[keep], expected[keep], rtol=1e-12, atol=0)
        assert np.all(m[~keep] <= 1e-280)
        if t in (0.0, 1.0):
            np.testing.assert_array_equal(m, expected)


class TestLossStack:
    @pytest.mark.parametrize("n_max", [0, 1, 12, 100, 130])
    def test_each_slice_is_the_column_loop(self, n_max):
        stack = _loss_stack(STACK_TS, n_max)
        assert stack.shape == (len(STACK_TS), n_max + 1, n_max + 1)
        assert stack.flags.c_contiguous
        for t, m in zip(STACK_TS, stack):
            expected = column_loop(t, n_max)
            assert np.array_equal(m, expected)
            assert np.array_equal(_loss_stack([t], n_max)[0], expected)
            assert np.array_equal(loss_matrix(t, n_max).matrix, expected)

    def test_loss_matrix_is_c_ordered(self):
        # a transposed matrix sends M @ p down another matrix-vector kernel
        assert loss_matrix(0.3, 40).matrix.flags.c_contiguous


class TestPerfectFilter:
    def test_displayed_matrix(self):
        m = perfect_filter_matrix(3).matrix
        expected = np.array(
            [
                [1, 0, 0, 0],
                [0, 1, 1, 1],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
            ],
            dtype=float,
        )
        np.testing.assert_array_equal(m, expected)

    def test_two_photon_input(self):
        d = FockDistribution(np.array([0.0, 0.0, 1.0]))
        out = perfect_filter_matrix(2).apply(d)
        np.testing.assert_allclose(out.probs, [0, 1, 0])

    def test_vacuum_passes(self):
        d = FockDistribution(np.array([1.0, 0.0, 0.0]))
        out = perfect_filter_matrix(2).apply(d)
        np.testing.assert_allclose(out.probs, [1, 0, 0])

    def test_mixed_input(self):
        d = FockDistribution(np.array([0.5, 0.3, 0.2]))
        out = perfect_filter_matrix(2).apply(d)
        np.testing.assert_allclose(out.probs, [0.5, 0.5, 0.0])

    def test_idempotent(self):
        f = perfect_filter_matrix(6)
        np.testing.assert_allclose(f.compose(f).matrix, f.matrix, atol=1e-15)


class TestApplyCompose:
    def test_identity_apply(self):
        d = coherent(0.6, 15)
        np.testing.assert_allclose(TransferMatrix(np.eye(16)).apply(d).probs, d.probs)

    def test_poisson_thinning(self):
        out = loss_matrix(0.3, 20).apply(coherent(1.0, 20))
        np.testing.assert_allclose(out.probs, coherent(0.3, 20).probs, atol=1e-9)

    def test_total_loss_gives_vacuum(self):
        out = loss_matrix(0.0, 12).apply(coherent(0.8, 12))
        np.testing.assert_allclose(out.probs, np.eye(13)[0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            loss_matrix(0.5, 5).apply(coherent(0.1, 8))
        with pytest.raises(ValidationError):
            loss_matrix(0.5, 5).compose(loss_matrix(0.5, 6))

    def test_identity_compose(self):
        m = loss_matrix(0.4, 9)
        np.testing.assert_array_equal(TransferMatrix(np.eye(10)).compose(m).matrix, m.matrix)

    def test_compose_preserves_column_sums(self):
        m = loss_matrix(0.7, 14).compose(perfect_filter_matrix(14))
        np.testing.assert_allclose(m.matrix.sum(axis=0), 1.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n_max=st.integers(1, 40),
           stages=st.lists(st.one_of(st.floats(0.0, 1.0), st.none()), min_size=1, max_size=6))
    def test_random_chain_stays_column_stochastic(self, n_max, stages):
        # a float is loss_matrix(t), None the perfect filter
        chain = [perfect_filter_matrix(n_max) if t is None else loss_matrix(t, n_max)
                 for t in stages]
        m = chain[0]
        for inner in chain[1:]:
            m = m.compose(inner)
        assert m.matrix.min() >= 0.0
        np.testing.assert_allclose(m.matrix.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(weights=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=31).filter(
               lambda w: max(w[1:]) > 1e-3),
           t=st.floats(1e-3, 1.0))
    def test_g2_invariant_under_loss(self, weights, t):
        d = FockDistribution(np.array(weights))
        out = loss_matrix(t, d.n_max).apply(d)
        assert out.g2() == pytest.approx(d.g2(), rel=1e-9, abs=1e-12)


class TestCsvDump:
    def test_header_and_shape(self, tmp_path):
        path = tmp_path / "m.csv"
        loss_matrix(0.5, 3).to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k\\l,0,1,2,3"
        assert len(lines) == 5
        row0 = lines[1].split(",")
        assert row0[0] == "0"
        assert float(row0[2]) == pytest.approx(0.5, abs=1e-15)
