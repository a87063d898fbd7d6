import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydstats import (
    NumericalError,
    SourceModel,
    ValidationError,
    conditional_read_state,
    infer_p_from_g2,
    loss_matrix,
)
from rydstats.source import _herald_weights, _read_state_terms, read_state_p_upper_bound

#: Normal write transmissions, from the smallest normal double to 1.
NORMAL_T_W = [sys.float_info.min, 1e-300, 1e-12, 0.21, 1 - 2**-53, 1.0]


def brute_force_read_state(p, t_w, n_max):
    """Independent construction: two-mode joint diagonal, write-mode POVM
    weight 1 - (1-t_w)^n, trace out and normalize."""
    n = np.arange(n_max + 1, dtype=float)
    joint_diag = (1 - p) * p**n
    povm = 1.0 - (1.0 - t_w) ** n
    unnorm = joint_diag * povm
    return unnorm / unnorm.sum()


class TestSourceModel:
    def test_rejects_p_out_of_range(self):
        with pytest.raises(ValidationError):
            SourceModel(1.0)
        with pytest.raises(ValidationError):
            SourceModel(-0.01)

    def test_rejects_bad_transmission(self):
        with pytest.raises(ValidationError):
            SourceModel(0.1, t_w=0.0)
        with pytest.raises(ValidationError):
            SourceModel(0.1, t_w=1.2)


class TestConditionalReadState:
    def test_no_vacuum_component(self):
        assert conditional_read_state(SourceModel(0.2), 30).probs[0] == 0.0

    def test_single_photon_limit(self):
        d = conditional_read_state(SourceModel(1e-9), 20)
        expected = np.zeros(21)
        expected[1] = 1.0
        np.testing.assert_allclose(d.probs, expected, atol=1e-6)

    @pytest.mark.parametrize("p", [0.01, 0.1, 0.3])
    @pytest.mark.parametrize("t_w", [0.05, 0.21, 0.9, 1.0])
    def test_matches_brute_force_povm(self, p, t_w):
        d = conditional_read_state(SourceModel(p, t_w), 40)
        np.testing.assert_allclose(
            d.probs, brute_force_read_state(p, t_w, 40), atol=1e-12
        )

    @settings(max_examples=300, deadline=None)
    @given(t_w=st.one_of(st.sampled_from(NORMAL_T_W), st.floats(sys.float_info.min, 1.0)),
           p=st.one_of(st.sampled_from([0.0, 1e-12, 0.05, 0.5, 0.99]),
                       st.floats(0.0, 1.0, exclude_max=True)),
           n_max=st.sampled_from([1, 2, 40, 300]))
    def test_terms_are_the_unscaled_formula_to_the_bit(self, t_w, p, n_max):
        # scaling the herald weights by 2^k and dividing the prefactor by it
        # is exact while the partial product prefactor p^(n-1) stays normal.
        # The scaled weight is below 2n, so that holds for every entry of at
        # least 2n times the smallest normal double; below, the partial
        # product can be subnormal in one formula and normal in the other.
        n = np.arange(1, n_max + 1, dtype=float)
        with np.errstate(divide="ignore"):
            weights = -np.expm1(n * np.log1p(-t_w))
        unscaled = (1.0 - p) * (1.0 - p * (1.0 - t_w)) / t_w * p ** (n - 1.0) * weights
        kept = unscaled >= 2 * n * sys.float_info.min
        terms = _read_state_terms(np.array([p]), t_w, _herald_weights(t_w, n_max))[0]
        assert np.array_equal(terms[1:][kept], unscaled[kept])

    def test_component_ratio(self):
        # p_{n+1}/p_n = p [1-(1-t_w)^{n+1}] / [1-(1-t_w)^n]; 0.179 at
        # p=0.1, t_w=0.21, n=1
        d = conditional_read_state(SourceModel(0.1, 0.21), 30)
        assert d.probs[2] / d.probs[1] == pytest.approx(0.179, abs=1e-12)

    def test_unit_write_transmission_is_shifted_geometric(self):
        d = conditional_read_state(SourceModel(0.3, 1.0), 60)
        n = np.arange(1, 61, dtype=float)
        expected = np.zeros(61)
        expected[1:] = 0.7 * 0.3 ** (n - 1)
        np.testing.assert_allclose(d.probs, expected, atol=1e-10)

    def test_truncation_guard(self):
        with pytest.raises(NumericalError):
            conditional_read_state(SourceModel(0.6), 20)

    def test_g2_loss_invariance(self):
        d = conditional_read_state(SourceModel(0.15), 40)
        lossy = loss_matrix(0.15, 40).apply(d)
        assert lossy.g2() == pytest.approx(d.g2(), abs=1e-9)


class TestInferP:
    @pytest.mark.parametrize("p", [0.005, 0.05, 0.2, 0.33])
    def test_round_trip(self, p):
        g2 = conditional_read_state(SourceModel(p, 0.21), 20).g2()
        assert infer_p_from_g2(g2, 0.21, 20) == pytest.approx(p, abs=1e-8)

    def test_round_trip_grid(self):
        t_w, n_max = 0.21, 40
        p_hi = read_state_p_upper_bound(t_w, n_max)
        for p in np.linspace(1e-4, p_hi * 0.999, 50):
            g2 = conditional_read_state(SourceModel(p, t_w), n_max).g2()
            assert infer_p_from_g2(g2, t_w, n_max) == pytest.approx(p, abs=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(t_w=st.floats(0.05, 1.0), n_max=st.sampled_from([20, 60]),
           frac=st.floats(0.0, 0.999))
    def test_round_trip_property(self, t_w, n_max, frac):
        p = 1e-4 + frac * (read_state_p_upper_bound(t_w, n_max) - 1e-4)
        g2 = conditional_read_state(SourceModel(p, t_w), n_max).g2()
        assert infer_p_from_g2(g2, t_w, n_max) == pytest.approx(p, abs=1e-8)

    def test_monotone_in_p(self):
        t_w, n_max = 0.21, 80
        grid = np.linspace(1e-4, read_state_p_upper_bound(t_w, n_max), 60)
        g2s = [conditional_read_state(SourceModel(p, t_w), n_max).g2() for p in grid]
        assert np.all(np.diff(g2s) > 0)

    def test_target_below_range(self):
        with pytest.raises(ValidationError):
            infer_p_from_g2(-0.05, 0.21, 20)

    def test_target_above_range(self):
        # attainable sup is 2 (and lower at finite n_max)
        with pytest.raises(ValidationError):
            infer_p_from_g2(2.5, 0.21, 20)

    @pytest.mark.parametrize("g2", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_target(self, g2):
        # the message reports the attainable range, not [nan, nan]
        with pytest.raises(ValidationError, match="outside the attainable range") as info:
            infer_p_from_g2(g2, 0.21, 20)
        assert "[nan" not in str(info.value)
