import numpy as np
import pytest

from rydstats import (
    EfficiencyTable,
    NumericalError,
    RateModelParams,
    ValidationError,
    fit_p_eg,
    predict_cross_correlation,
    predict_probabilities,
    with_storage,
)

PAPER = dict(t_w=0.21, t_r=0.09, eta_a=0.32, p_eg=0.20, p_nw=1e-4, p_nr=1.5e-3)


def ideal_cross_correlation(p):
    """Write/read cross-correlation of the lossless, noise-free two-mode
    squeezed state: 1 + 1/p (oracle)."""
    return 1.0 + 1.0 / p


class TestParams:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            RateModelParams(p=-0.1)
        with pytest.raises(ValidationError):
            RateModelParams(p=0.1, t_r=1.5)
        with pytest.raises(ValidationError):
            RateModelParams(p=1.0)

    @pytest.mark.parametrize("t_w", [0.0, -0.1, 1.5, float("nan")])
    def test_write_transmission_in_half_open_unit_interval(self, t_w):
        with pytest.raises(ValidationError, match=r"write transmission must be in \(0, 1\]"):
            RateModelParams(p=0.1, t_w=t_w)


class TestPredictProbabilities:
    def test_noise_only(self):
        out = predict_probabilities(
            RateModelParams(p=0.0, p_nw=1e-4, p_nr=1.5e-3, **{k: v for k, v in PAPER.items() if k not in ("p_nw", "p_nr")})
        )
        assert out.p_w == pytest.approx(1e-4)
        assert out.p_r == pytest.approx(1.5e-3)

    def test_paper_point_direct_evaluation(self):
        q = RateModelParams(p=0.1, **PAPER)
        out = predict_probabilities(q)
        # direct evaluation of the three equations
        assert out.p_w == pytest.approx(0.1 * 0.21 + 1e-4, rel=1e-12)
        p_r = 0.1 * 0.32 * 0.09 + 0.1 * 0.68 * 0.20 * 0.09 + 1.5e-3
        assert out.p_r == pytest.approx(p_r, rel=1e-12)
        p_wr = out.p_w * 0.32 * 0.09 + out.p_w * 0.1 * 0.68 * 0.20 * 0.09 + out.p_w * 1.5e-3
        assert out.p_wr == pytest.approx(p_wr, rel=1e-12)
        assert out.p_r_given_w == pytest.approx(p_wr / out.p_w, rel=1e-12)

    def test_clean_conditional_reduces_to_retrieval(self):
        for p in (0.01, 0.2, 0.5):
            q = RateModelParams(p=p, t_w=0.21, t_r=0.09, eta_a=0.32, p_eg=0.0, p_nw=0.0, p_nr=0.0)
            out = predict_probabilities(q)
            assert out.p_r_given_w == pytest.approx(0.32 * 0.09, rel=1e-12)
            assert out.p_wr == pytest.approx(out.p_w * 0.32 * 0.09, rel=1e-12)

    def test_outputs_are_probabilities(self):
        out = predict_probabilities(RateModelParams(p=0.5, **PAPER))
        for value in (out.p_w, out.p_r, out.p_wr, out.p_r_given_w):
            assert 0.0 <= value <= 1.0


class TestCrossCorrelation:
    def test_noise_free_matches_ideal_at_small_p(self):
        # the rate model linearizes the source; it approaches 1 + 1/p from
        # below with relative error ~p
        for p in (0.005, 0.02, 0.05):
            q = RateModelParams(p=p, t_w=0.21, t_r=0.09, eta_a=0.32,
                                p_eg=0.0, p_nw=0.0, p_nr=0.0)
            model = predict_cross_correlation(q)
            ideal = ideal_cross_correlation(p)
            assert model == pytest.approx(ideal, rel=0.05)

    def test_noise_dominated_is_uncorrelated(self):
        # all source terms off (p = 0 and no read-out path): only
        # accidentals remain and the correlation is exactly 1
        q = RateModelParams(p=0.0, t_w=0.21, t_r=0.09, eta_a=0.0,
                            p_eg=0.0, p_nw=1e-4, p_nr=1.5e-3)
        assert predict_cross_correlation(q) == pytest.approx(1.0, rel=1e-9)

    def test_storage_improves_g2wr(self):
        table = EfficiencyTable.constant(0.2)
        for p in (0.01, 0.05, 0.1):
            plain = RateModelParams(p=p, **PAPER)
            stored = with_storage(plain, table)
            assert predict_cross_correlation(stored) > predict_cross_correlation(plain)

    def test_underflowing_singles_product_is_numerical_error(self):
        # p_w and p_r are positive but their product is 0
        params = RateModelParams(p=4.8e-300, t_w=0.21, p_nw=5e-324, p_nr=0.0)
        with pytest.raises(NumericalError, match="overflows"):
            predict_cross_correlation(params)

    def test_invariant_under_read_loss_scaling_without_noise(self):
        base = RateModelParams(p=0.07, t_w=0.21, t_r=0.09, eta_a=0.32,
                               p_eg=0.2, p_nw=1e-4, p_nr=0.0)
        scaled = RateModelParams(p=0.07, t_w=0.21, t_r=0.009, eta_a=0.32,
                                 p_eg=0.2, p_nw=1e-4, p_nr=0.0)
        assert predict_cross_correlation(base) == pytest.approx(
            predict_cross_correlation(scaled), abs=1e-12
        )


class TestEfficiencyTable:
    def test_interpolates(self):
        table = EfficiencyTable(np.array([0.01, 0.03]), np.array([0.3, 0.1]))
        assert table(0.02) == pytest.approx(0.2)

    def test_clamps_at_endpoints(self):
        table = EfficiencyTable(np.array([0.01, 0.03]), np.array([0.3, 0.1]))
        assert table(0.001) == pytest.approx(0.3)
        assert table(0.5) == pytest.approx(0.1)

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            EfficiencyTable(np.array([0.03, 0.01]), np.array([0.1, 0.3]))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            EfficiencyTable(np.array([]), np.array([]))

    @pytest.mark.parametrize("p_w, eta", [
        ([0.0, 1.0], [np.nan, 0.5]),
        ([0.0, 1.0], [0.2, np.inf]),
        ([0.0, np.inf], [0.2, 0.5]),
        ([np.nan, 1.0], [0.2, 0.5]),
    ])
    def test_rejects_non_finite(self, p_w, eta):
        with pytest.raises(ValidationError, match="finite"):
            EfficiencyTable(np.array(p_w), np.array(eta))

    def test_from_csv(self, tmp_path):
        path = tmp_path / "eff.csv"
        path.write_text("p_w,eta\n0.01,0.3\n0.03,0.1\n")
        table = EfficiencyTable.from_csv(path)
        assert table(0.02) == pytest.approx(0.2)

    def test_from_csv_bad_header(self, tmp_path):
        path = tmp_path / "eff.csv"
        path.write_text("a,b\n0.01,0.3\n")
        with pytest.raises(ValidationError):
            EfficiencyTable.from_csv(path)


class TestWithStorage:
    def test_constant_unit_table_keeps_t_r(self):
        q = RateModelParams(p=0.1, **PAPER)
        stored = with_storage(q, EfficiencyTable.constant(1.0))
        assert stored.t_r == pytest.approx(0.09)
        assert stored.p_nr == pytest.approx(1.3e-4)

    def test_scales_t_r(self):
        q = RateModelParams(p=0.1, **PAPER)
        stored = with_storage(q, EfficiencyTable.constant(0.15))
        assert stored.t_r == pytest.approx(0.0135)


class TestFitPeg:
    def make_data(self, p_eg, n=12, noise=0.0, seed=5):
        base = RateModelParams(p=0.0, **{**PAPER, "p_eg": p_eg})
        p_w = np.linspace(0.002, 0.05, n)
        rows = []
        for pw in p_w:
            p = (pw - base.p_nw) / base.t_w
            q = RateModelParams(p=p, **{**PAPER, "p_eg": p_eg})
            rows.append(predict_probabilities(q).p_r_given_w)
        data = np.array(rows)
        if noise:
            data = data + np.random.default_rng(seed).normal(0, noise, n)
        return p_w, data, base

    def test_recovers_exactly_on_clean_data(self):
        p_w, data, base = self.make_data(0.20)
        p_eg, residual = fit_p_eg(p_w, data, base)
        assert p_eg == pytest.approx(0.20, abs=1e-6)
        assert residual < 1e-10

    def test_recovers_within_tolerance_on_noisy_data(self):
        p_w, data, base = self.make_data(0.20, noise=2e-5)
        p_eg, _ = fit_p_eg(p_w, data, base)
        assert p_eg == pytest.approx(0.20, abs=0.01)

    def test_degenerate_data_pegs_at_boundary(self):
        p_w = np.linspace(0.002, 0.05, 8)
        base = RateModelParams(p=0.0, t_w=0.21, t_r=0.09, eta_a=0.32,
                               p_eg=0.2, p_nw=1e-4, p_nr=0.0)
        with pytest.warns(UserWarning):
            p_eg, _ = fit_p_eg(p_w, np.zeros(8), base)
        assert p_eg == pytest.approx(0.0, abs=1e-6)

    @staticmethod
    def lstsq_reference(p_w, data, base):
        # unconstrained least squares on the affine model, then the bound
        p = (p_w - base.p_nw) / base.t_w
        a = p * (1.0 - base.eta_a) * base.t_r
        c0 = base.eta_a * base.t_r + base.p_nr
        (slope,), *_ = np.linalg.lstsq(a[:, None], data - c0, rcond=None)
        p_eg = min(max(slope, 0.0), 1.0)
        return p_eg, float(np.linalg.norm(c0 + a * p_eg - data))

    @pytest.mark.parametrize("p_eg_true, shift", [(0.35, 0.0), (0.0, -2e-3), (1.0, 2e-3)],
                             ids=["inside", "clipped-low", "clipped-high"])
    def test_matches_lstsq_reference(self, p_eg_true, shift):
        p_w, data, base = self.make_data(p_eg_true, noise=1e-5)
        # a sloped shift pushes the unconstrained optimum past the bound
        data = data + shift * p_w / p_w.max()
        want, want_norm = self.lstsq_reference(p_w, data, base)
        if shift:
            with pytest.warns(UserWarning, match="pegged"):
                got, norm = fit_p_eg(p_w, data, base)
            assert got == p_eg_true
        else:
            got, norm = fit_p_eg(p_w, data, base)
            assert 0.0 < got < 1.0
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert norm == pytest.approx(want_norm, rel=1e-12)

    def test_unconstrained_data_is_rejected(self):
        base = RateModelParams(p=0.0, **{**PAPER, "eta_a": 1.0})
        p_w = np.linspace(0.002, 0.05, 6)
        with pytest.raises(ValidationError, match="cannot constrain p_eg"):
            fit_p_eg(p_w, np.full(6, 0.1), base)

    def test_non_finite_data_is_rejected(self):
        p_w, data, base = self.make_data(0.20)
        data[3] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            fit_p_eg(p_w, data, base)

    def test_insufficient_data(self):
        base = RateModelParams(p=0.0, **PAPER)
        with pytest.raises(ValidationError):
            fit_p_eg(np.array([0.01, 0.02]), np.array([0.1, 0.1]), base)
