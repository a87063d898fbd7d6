import itertools
import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rydstats import (
    BlockadeConfig,
    FockDistribution,
    PipelineConfig,
    SourceModel,
    ValidationError,
    cloud_input_distribution,
    coherent,
    conditional_read_state,
    efficiency,
    exact_pair_survival,
    fock_state,
    g2_after_storage,
    loss_matrix,
    medium_matrix,
    post_blockade_distribution,
    source_distribution,
    sweep,
    zeta_to_param,
)
from rydstats import pipeline
from rydstats._roots import X_TOL, BracketError, bisect_bracket, bisect_monotone
from rydstats.blockade import _stretched
from rydstats.errors import NumericalError
from rydstats.fock import _poisson_terms
from rydstats.pipeline import (
    INPUT_KINDS,
    SweepPoint,
    _pre_blockade_matrix,
    _zeta_curve,
)
from rydstats.source import _P_FLOOR, _herald_weights, _read_state_terms
from rydstats.transfer import TransferMatrix


#: Write transmissions below where 1 - t_w rounds to 1: one normal, then
#: subnormal ones down to the smallest double.
TINY_T_W = [1e-300, 1e-310, 2e-320, 1.5e-323, 5e-324]
#: Transmissions from the smallest double to 1, across the subnormal band.
TRANSMISSIONS = [5e-324, 1.5e-323, 2e-320, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-12,
                 0.21, 1.0]


def at(f, x):
    # a zeta curve at one parameter, as a batch of one
    return f(np.array([x])).item()


def make_cfg(kind="dlcz", n_max=24, trials=20_000, **kwargs):
    blockade = BlockadeConfig(
        trials_per_fock=trials, rng_seed=314, n_max=n_max,
        **{k: kwargs.pop(k) for k in ("cloud_length", "blockade_radius") if k in kwargs},
    )
    return PipelineConfig(input_kind=kind, blockade=blockade, **kwargs)


class TestConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            make_cfg(kind="laser")

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValidationError):
            make_cfg(eta_r=0.0)
        with pytest.raises(ValidationError):
            make_cfg(eta_eit=1.5)



class TestPostBlockade:
    def test_identity_chain_passes_input_through(self):
        cfg = make_cfg(
            kind="wcs", blockade_radius=0.0, t_losses=1.0,
            eta_compression=1.0, eta_eit=1.0,
        )
        d = coherent(0.4, 24)
        out = post_blockade_distribution(cfg, d, medium_matrix(cfg))
        np.testing.assert_allclose(out.probs, d.probs, atol=1e-12)

    def test_full_blockade_caps_at_one_photon(self):
        cfg = make_cfg(kind="wcs", blockade_radius=20.0)
        out = post_blockade_distribution(cfg, coherent(0.8, 24), medium_matrix(cfg))
        assert out.probs[2:].sum() == 0.0

    def test_wcs_prechain_is_poisson_thinning(self):
        # losses before the medium keep a Poissonian Poissonian: mean
        # mu * eta_compression * sqrt(eta_eit); no setup losses for wcs
        cfg = make_cfg(kind="wcs")
        pre = _pre_blockade_matrix(cfg, cfg.eta_compression)
        out = pre.apply(coherent(0.3, 24))
        expected = coherent(0.3 * 0.6 * np.sqrt(0.6), 24)
        np.testing.assert_allclose(out.probs, expected.probs, atol=1e-9)

    def test_dlcz_prechain_includes_setup_losses(self):
        cfg = make_cfg(kind="dlcz")
        pre = _pre_blockade_matrix(cfg, cfg.eta_compression)
        out = pre.apply(coherent(0.3, 24))
        expected = coherent(0.3 * 0.15 * 0.6 * np.sqrt(0.6), 24)
        np.testing.assert_allclose(out.probs, expected.probs, atol=1e-9)

    @pytest.mark.parametrize("kind", ["dlcz", "wcs"])
    @pytest.mark.parametrize("ec", [0.6, 0.45, 0.75])
    def test_single_thinning_matches_composed_chain(self, kind, ec):
        cfg = make_cfg(kind=kind, n_max=100)
        stages = [loss_matrix(cfg.t_losses, 100)] if kind == "dlcz" else []
        stages += [loss_matrix(ec, 100), loss_matrix(np.sqrt(cfg.eta_eit), 100)]
        chain = stages[0]
        for stage in stages[1:]:
            chain = stage.compose(chain)
        single = _pre_blockade_matrix(cfg, ec)
        np.testing.assert_allclose(single.matrix, chain.matrix, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("input_n_max, medium_n_max, culprit", [
        (24, 10, "input n_max=24"),
        (10, 24, "medium n_max=24"),
    ], ids=["input", "medium"])
    def test_input_and_medium_must_match_config(self, input_n_max, medium_n_max, culprit):
        cfg = make_cfg(kind="wcs", n_max=10, trials=1_000)
        medium = medium_matrix(make_cfg(kind="wcs", n_max=medium_n_max, trials=1_000))
        with pytest.raises(ValidationError, match=f"{culprit} does not match config n_max=10"):
            post_blockade_distribution(cfg, coherent(0.1, input_n_max), medium)
        if medium_n_max != 10:
            with pytest.raises(ValidationError, match=culprit):
                sweep(cfg, [0.1], medium)


class TestG2AfterStorage:
    def test_wcs_small_mu_plateau(self):
        cfg = make_cfg(kind="wcs", trials=100_000)
        mu = zeta_to_param(cfg, 1e-4)
        g2_out = g2_after_storage(cfg, coherent(mu, 24), medium_matrix(cfg))
        expected = exact_pair_survival(10.5, 15.0)
        sigma = np.sqrt(expected * (1 - expected) / 100_000)
        assert abs(g2_out - expected) < 3 * sigma + 1e-3

    def test_heralded_single_photon_limit(self):
        cfg = make_cfg()
        g2_out = g2_after_storage(cfg, source_distribution(cfg, 1e-8), medium_matrix(cfg))
        assert g2_out == pytest.approx(0.0, abs=1e-6)

    def test_no_blockade_keeps_input_g2(self):
        cfg = make_cfg(kind="wcs", blockade_radius=0.0)
        d = coherent(0.5, 24)
        assert g2_after_storage(cfg, d, medium_matrix(cfg)) == pytest.approx(d.g2(), abs=1e-7)

    def test_invariant_under_post_blockade_losses(self):
        # applying the retrieval-leg losses after the medium must not move g2
        cfg = make_cfg()
        d = source_distribution(cfg, 0.1)
        out = post_blockade_distribution(cfg, d, medium_matrix(cfg))
        retrieval = loss_matrix(cfg.eta_r * np.sqrt(cfg.eta_eit), 24)
        assert retrieval.apply(out).g2() == pytest.approx(out.g2(), abs=1e-9)

    def test_order_of_blockade_and_losses_matters(self):
        cfg = make_cfg(n_max=64, trials=20_000)
        p = zeta_to_param(cfg, 0.3)
        d = source_distribution(cfg, p)
        medium = medium_matrix(cfg)
        correct = medium.compose(_pre_blockade_matrix(cfg, 0.6)).apply(d)
        swapped = _pre_blockade_matrix(cfg, 0.6).compose(medium).apply(d)
        assert abs(correct.g2() - swapped.g2()) > 1e-3


class TestEfficiency:
    def test_vacuum_input_is_rejected(self):
        cfg = make_cfg(kind="wcs")
        with pytest.raises(ValidationError, match="^efficiency undefined for a vacuum input$"):
            efficiency(cfg, fock_state(0, 24), medium_matrix(cfg))

    def test_low_zeta_limit_is_constant_product(self):
        for kind in ("dlcz", "wcs"):
            cfg = make_cfg(kind=kind)
            param = zeta_to_param(cfg, 1e-8)
            eta = efficiency(cfg, source_distribution(cfg, param), medium_matrix(cfg))
            assert eta == pytest.approx(0.41 * 0.6 * 0.6, abs=1e-6)

    def test_no_blockade_keeps_efficiency_flat(self):
        cfg = make_cfg(kind="wcs", blockade_radius=0.0)
        medium = medium_matrix(cfg)
        etas = [
            efficiency(cfg, coherent(mu, 24), medium) for mu in (0.01, 0.3, 1.0)
        ]
        np.testing.assert_allclose(etas, 0.41 * 0.6 * 0.6, atol=1e-9)

    def test_decreases_with_zeta(self):
        cfg = make_cfg(kind="wcs", trials=50_000)
        medium = medium_matrix(cfg)
        etas = []
        for zeta in (0.01, 0.1, 0.3):
            mu = zeta_to_param(cfg, zeta)
            etas.append(efficiency(cfg, coherent(mu, 24), medium))
        assert np.all(np.diff(etas) < 0)

    def test_ratio_independent_of_linear_calibrations(self):
        # eta(zeta)/eta(zeta->0) reduces to the medium's mean-survival
        # factor on the pre-medium state: eta_r cancels exactly, and
        # t_losses only enters through that state's shape
        cfg_a = make_cfg(eta_r=0.41, trials=20_000)
        cfg_b = make_cfg(eta_r=0.17, trials=20_000)
        medium = medium_matrix(cfg_a)
        p = zeta_to_param(cfg_a, 0.05)
        ratios = []
        for cfg in (cfg_a, cfg_b):
            num = efficiency(cfg, source_distribution(cfg, p), medium)
            den = efficiency(cfg, source_distribution(cfg, 1e-9), medium)
            ratios.append(num / den)
        assert ratios[0] == pytest.approx(ratios[1], abs=1e-9)
        # the ratio equals mean(B q)/mean(q) for the pre-medium state q
        q = _pre_blockade_matrix(cfg_a, 0.6).apply(source_distribution(cfg_a, p))
        survival = medium.apply(q).mean_photons() / q.mean_photons()
        assert ratios[0] == pytest.approx(survival, abs=1e-9)


class TestZetaInversion:
    @pytest.mark.parametrize("kind", ["dlcz", "wcs"])
    @pytest.mark.parametrize("zeta", [0.01, 0.05, 0.2])
    def test_round_trip(self, kind, zeta):
        cfg = make_cfg(kind=kind, n_max=64)
        param = zeta_to_param(cfg, zeta)
        d = cloud_input_distribution(cfg, param)
        assert d.zeta() == pytest.approx(zeta, abs=1e-9)

    def test_unattainable_zeta(self):
        cfg = make_cfg(n_max=12)
        with pytest.raises(ValidationError, match="not attainable"):
            zeta_to_param(cfg, 0.9)

    @pytest.mark.parametrize("zeta", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_zeta(self, zeta):
        # the message reports the attainable range, not [nan, nan]
        cfg = make_cfg(n_max=12)
        with pytest.raises(ValidationError, match="not attainable") as info:
            zeta_to_param(cfg, zeta)
        assert "[nan" not in str(info.value)

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(INPUT_KINDS), n_max=st.sampled_from([2, 20, 100, 400]),
           frac=st.floats(0.0, 1.0))
    @example(kind="dlcz", n_max=2, frac=0.0).via("the floor")
    @example(kind="wcs", n_max=2, frac=0.0).via("the floor")
    @example(kind="dlcz", n_max=400, frac=0.0).via("the floor")
    @example(kind="wcs", n_max=400, frac=0.0).via("the floor")
    @example(kind="dlcz", n_max=2, frac=1.0).via("the upper bound")
    @example(kind="wcs", n_max=2, frac=1.0).via("the upper bound")
    @example(kind="dlcz", n_max=400, frac=1.0).via("the upper bound")
    @example(kind="wcs", n_max=400, frac=1.0).via("the upper bound")
    @example(kind="wcs", n_max=1200, frac=1.0).via("terms beyond exp's range")
    def test_curve_is_the_distribution_zeta(self, kind, n_max, frac):
        # the bisection's zeta is FockDistribution.zeta of the truncated
        # state, built here by the matrix product and the pmf it avoids
        cfg = make_cfg(kind=kind, n_max=n_max)
        f, hi = _zeta_curve(cfg)
        x = hi if frac == 1.0 else _P_FLOOR + frac * (hi - _P_FLOOR)
        if kind == "dlcz":
            weights = _herald_weights(cfg.t_w, n_max)
            src = _read_state_terms(np.array([x]), cfg.t_w, weights)[0]
            terms = loss_matrix(cfg.t_losses, n_max).matrix @ src
        else:
            terms = _poisson_terms(x, n_max)[0]
        assert at(f, x) == pytest.approx(FockDistribution(terms).zeta(), rel=1e-14, abs=0.0)

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(INPUT_KINDS), frac=st.floats(0.0, 1.0))
    def test_zeta_param_zeta_round_trip(self, kind, frac):
        cfg = make_cfg(kind=kind, n_max=64)
        f, hi = _zeta_curve(cfg)
        zeta = at(f, _P_FLOOR) + frac * (at(f, hi) - at(f, _P_FLOOR))
        param = zeta_to_param(cfg, zeta)
        assert abs(cloud_input_distribution(cfg, param).zeta() - zeta) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(INPUT_KINDS), frac=st.floats(1e-3, 1.0))
    def test_param_zeta_param_round_trip(self, kind, frac):
        # up to p = 0.3 and mu = 3, where zeta still rises steeply enough
        # to pin the parameter
        cfg = make_cfg(kind=kind, n_max=64)
        param = frac * (0.3 if kind == "dlcz" else 3.0)
        zeta = cloud_input_distribution(cfg, param).zeta()
        assert zeta_to_param(cfg, zeta) == pytest.approx(param, rel=1e-9)

    def test_curve_built_once_per_config(self, monkeypatch):
        built = []

        def counted(cfg):
            built.append(cfg)
            return _zeta_curve(cfg)

        monkeypatch.setattr(pipeline, "_zeta_curve", counted)
        cfg = make_cfg(kind="wcs", n_max=40, trials=1_000)
        zeta_to_param(cfg, 0.1)
        sweep(cfg, [0.01, 0.2], medium_matrix(cfg))
        zeta_to_param(cfg, 0.05)
        assert built == [cfg]
        zeta_to_param(replace(cfg, t_losses=0.5), 0.1)
        assert len(built) == 2

    def test_cloud_state_reuses_the_setup_losses(self, monkeypatch):
        # the dlcz curve built the setup-loss matrix; the state reads it
        cfg = make_cfg(n_max=40, trials=1_000)
        param = zeta_to_param(cfg, 0.1)
        monkeypatch.setattr(pipeline, "loss_matrix", None)
        assert cloud_input_distribution(cfg, param).zeta() == pytest.approx(0.1, abs=1e-9)

    def test_config_pickles_after_inversion(self, monkeypatch):
        # the cached curve pickles with the config; the copy does not rebuild it
        for kind in INPUT_KINDS:
            cfg = make_cfg(kind=kind, n_max=40, trials=1_000)
            param = zeta_to_param(cfg, 0.1)
            copy = pickle.loads(pickle.dumps(cfg))
            assert copy == cfg
            assert "_zeta_inverse" in vars(copy)
            with monkeypatch.context() as patch:
                patch.setattr(pipeline, "_zeta_curve", None)
                assert zeta_to_param(copy, 0.1) == param

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    @pytest.mark.parametrize("n_max", [1, 2, 40, 130, 300])
    def test_curve_is_finite_and_non_decreasing(self, kind, n_max):
        # bisection needs no scan: the herald weights' power-of-two scale
        # keeps the curve's denominator at least t_losses, and W2[n]/W1[n]
        # rises with n, so the curve rises with the source parameter
        for t_w, t_losses in itertools.product(TRANSMISSIONS, repeat=2):
            cfg = make_cfg(kind=kind, n_max=n_max, t_w=t_w, t_losses=t_losses)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                f, hi = _zeta_curve(cfg)
                values = np.array([at(f, x) for x in np.linspace(_P_FLOOR, hi, 200)])
            assert np.all(np.isfinite(values)), (t_w, t_losses)
            assert np.diff(values).min() >= -1e-12, (t_w, t_losses)

    def test_tiny_loss_transmission_names_it(self):
        # at the smallest double the curve stays below ~1e-100: the message
        # names the zeta that no source parameter reaches, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="strength 0.01 not attainable for dlcz"):
                zeta_to_param(PipelineConfig(t_losses=5e-324), 0.01)

    def test_tiny_write_transmission_is_its_small_t_w_limit(self):
        # the heralded state tends to n (1 - p)^2 p^(n - 1) as t_w -> 0, so
        # a t_w where 1 - t_w rounds to 1, down to the subnormal ones, inverts
        # like t_w = 1e-12
        limit = zeta_to_param(PipelineConfig(t_w=1e-12), 0.01)
        for t_w in TINY_T_W:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                tiny = zeta_to_param(PipelineConfig(t_w=t_w), 0.01)
            assert tiny == pytest.approx(limit, rel=1e-9), t_w

    def test_wcs_zeta_matches_closed_form(self):
        # independent oracle: zeta(mu) = 1 - mu e^-mu / (1 - e^-mu)
        cfg = make_cfg(kind="wcs", n_max=40)
        mu = zeta_to_param(cfg, 0.1)
        closed = 1 - mu * np.exp(-mu) / (1 - np.exp(-mu))
        assert closed == pytest.approx(0.1, abs=1e-9)


class TestSweep:
    def test_columns_and_csv(self, tmp_path):
        cfg = make_cfg(kind="wcs", trials=10_000)
        result = sweep(cfg, [0.01, 0.05, 0.2], medium_matrix(cfg))
        assert len(result.points) == 3
        np.testing.assert_allclose([pt.g2_in for pt in result.points], 1.0, atol=1e-9)
        assert all(pt.g2_out_lo <= pt.g2_out_hi for pt in result.points)
        path = tmp_path / "sweep.csv"
        result.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "zeta,param,g2_in,g2_out,eta,g2_out_lo,g2_out_hi"
        assert len(lines) == 4

    def test_band_brackets_default(self):
        cfg = make_cfg(kind="wcs", trials=10_000)
        result = sweep(cfg, [0.1], medium_matrix(cfg))
        pt = result.points[0]
        assert pt.g2_out_lo <= pt.g2_out + 1e-12
        assert pt.g2_out <= pt.g2_out_hi + 1e-12

    def test_dlcz_g2_in_increases(self):
        cfg = make_cfg(n_max=64, trials=10_000)
        result = sweep(cfg, [0.01, 0.05, 0.15, 0.3], medium_matrix(cfg))
        assert np.all(np.diff([pt.g2_in for pt in result.points]) > 0)

    def test_wcs_g2_out_non_decreasing(self):
        # for a fixed medium matrix the Poissonian-input curve only rises
        cfg = make_cfg(kind="wcs", trials=50_000)
        result = sweep(cfg, np.geomspace(0.002, 0.35, 10), medium_matrix(cfg))
        assert np.all(np.diff([pt.g2_out for pt in result.points]) > -1e-12)

    @pytest.mark.parametrize("kind", ["dlcz", "wcs"])
    def test_columns_equal_per_point_public_path(self, kind):
        # the grid, evaluated as arrays, gives bit for bit what the public
        # functions give point by point, the curve's end values (which
        # the bisection returns without a step) included
        for n_max in (12, 40, 100):
            cfg = make_cfg(kind=kind, n_max=n_max, trials=2_000)
            lo, hi = cfg.compression_band
            assert lo != hi
            medium = medium_matrix(cfg)
            f, p_hi = _zeta_curve(cfg)
            grid = [at(f, _P_FLOOR), *np.geomspace(1e-3, 0.9 * at(f, p_hi), 6).tolist(),
                    at(f, p_hi)]
            result = sweep(cfg, grid, medium)
            assert [pt.param for pt in result.points[::len(grid) - 1]] == [_P_FLOOR, p_hi]
            for pt, zeta in zip(result.points, grid, strict=True):
                param = zeta_to_param(cfg, zeta)
                src = source_distribution(cfg, param)
                band = sorted(post_blockade_distribution(replace(cfg, eta_compression=ec), src,
                                                         medium).g2() for ec in (lo, hi))
                expected = SweepPoint(
                    zeta, param, src.g2(), post_blockade_distribution(cfg, src, medium).g2(),
                    efficiency(cfg, src, medium), *band,
                )
                assert pt == expected, n_max
                assert pt.g2_out_lo < pt.g2_out_hi

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    @pytest.mark.parametrize("n_max", [12, 40, 100])
    def test_curve_of_an_array_is_the_curve_of_each_element(self, kind, n_max):
        f, hi = _zeta_curve(make_cfg(kind=kind, n_max=n_max))
        dense = np.geomspace(_P_FLOOR, hi, 200_000)
        # with the parameters whose np.log differs from math.log, if any here
        odd = dense[np.log(dense) != [math.log(v) for v in dense.tolist()]]
        x = np.concatenate([dense[::100], odd])
        assert f(x).tolist() == [at(f, v) for v in x.tolist()]

    def test_empty_grid(self):
        cfg = make_cfg(kind="wcs", n_max=12, trials=1_000)
        assert sweep(cfg, [], medium_matrix(cfg)).points == []

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    @pytest.mark.parametrize("bad", [float("nan"), 1.5], ids=["nan", "unattainable"])
    def test_failing_point_raises_its_per_point_error(self, kind, bad):
        cfg = make_cfg(kind=kind, n_max=40, trials=1_000)
        with pytest.raises(ValidationError) as alone:
            zeta_to_param(cfg, bad)
        with pytest.raises(ValidationError) as swept:
            sweep(cfg, [0.01, 0.05, bad, 0.1], medium_matrix(cfg))
        assert str(swept.value) == str(alone.value)
        assert "not attainable" in str(alone.value)

    def test_first_failing_point_decides_the_error(self):
        # g2 underflows at every point, a later stage than the inversion,
        # so the point before the NaN raises first, as when alone
        cfg = make_cfg(kind="wcs", n_max=40, trials=1_000, eta_eit=5e-324)
        medium = medium_matrix(cfg)
        with pytest.raises(NumericalError, match="square underflows"):
            sweep(cfg, [0.01, float("nan")], medium)
        with pytest.raises(ValidationError, match="strength nan not attainable"):
            sweep(cfg, [float("nan"), 0.01], medium)

    @pytest.mark.parametrize("x_tol", [0.0, X_TOL, 1e-3])
    def test_batched_bisection_steps_each_element_as_alone(self, x_tol):
        # elements stop at different steps: at the width, at the fixed
        # point or at MAX_ITER; each takes the midpoints it takes alone
        below = [lambda x, c=c: x < c for c in (0.3, 1e-300, 0.75, 0.0, 1.0, 0.5 + 1e-16)]
        lo, hi = np.zeros(len(below)), np.ones(len(below))
        a, b = bisect_bracket(lambda x: np.array([f(v) for f, v in zip(below, x)]), lo, hi,
                              x_tol=x_tol)
        ends = [bisect_bracket(f, np.zeros(1), np.ones(1), x_tol=x_tol) for f in below]
        alone = [(a1.item(), b1.item()) for a1, b1 in ends]
        assert list(zip(a.tolist(), b.tolist())) == alone

    def test_batched_inversion_equals_each_target_alone(self):
        targets = [0.0, 0.3, 8.0, 1e-20, 2.0 ** (1 / 3), 5.0]
        roots = bisect_monotone(lambda x: x**3, 0.0, 2.0, np.array(targets))
        assert roots.tolist() == [bisect_monotone(lambda x: x**3, 0.0, 2.0, np.array([t])).item()
                                  for t in targets]
        with pytest.raises(BracketError, match=r"target 9\.0 outside"):
            bisect_monotone(lambda x: x**3, 0.0, 2.0, np.array([0.3, 9.0, -1.0]))

    @pytest.mark.parametrize("kind", ["dlcz", "wcs"])
    def test_no_matrix_products(self, kind, monkeypatch):
        # the sweep and the public per-point path use matrix-vector
        # products only
        cfg = make_cfg(kind=kind, n_max=24, trials=2_000)
        medium = medium_matrix(cfg)

        def refuse(self, inner):
            raise AssertionError("TransferMatrix.compose called")

        monkeypatch.setattr(TransferMatrix, "compose", refuse)
        sweep(cfg, [0.01, 0.1], medium)
        src = source_distribution(cfg, 0.1)
        post_blockade_distribution(cfg, src, medium)
        g2_after_storage(replace(cfg, eta_compression=0.45), src, medium)
        efficiency(cfg, src, medium)


class TestEventOracle:
    """A virtual experiment for the sweep: photon counts drawn from the
    input state, thinned on the way to the cloud and placed one by one in
    it, written apart from the blockade module."""

    @staticmethod
    def survivors(n, length, radius, rng):
        """Survivor counts of pulses of ``n`` photons, each photon placed
        uniformly on [0, ``length``] in arrival order and kept when it lies
        more than ``radius`` from every earlier survivor."""
        trials = n.size
        placed = np.full((trials, max(int(n.max()), 1)), np.nan)  # NaN: no survivor
        kept = np.zeros(trials, dtype=np.int64)
        for j in range(int(n.max())):
            x = rng.uniform(0.0, length, trials)
            blocked = (np.abs(placed - x[:, None]) <= radius).any(axis=1)
            keep = (n > j) & ~blocked
            placed[keep, kept[keep]] = x[keep]
            kept += keep
        return kept

    def assert_g2_out(self, cfg, pt, n, rng):
        """The g2 of the survivors of ``n`` photons at the cloud lies within
        4 standard errors of ``pt.g2_out``, and that error below 2% of it."""
        b = cfg.blockade
        k = self.survivors(n, b.cloud_length, b.blockade_radius, rng).astype(float)
        pairs = k * (k - 1)
        g2 = pairs.mean() / k.mean() ** 2
        # delta method on (mean of k(k-1), mean of k)
        grad = np.array([1.0 / k.mean() ** 2, -2.0 * pairs.mean() / k.mean() ** 3])
        se = np.sqrt(grad @ np.cov(np.stack([pairs, k])) @ grad / k.size)
        assert abs(g2 - pt.g2_out) < 4 * se
        assert se < 0.02 * pt.g2_out

    def test_wcs_g2_out_at_high_zeta(self):
        cfg = PipelineConfig(input_kind="wcs")
        pt = sweep(cfg, [0.4], medium_matrix(cfg)).points[0]
        # the photons that reach the cloud: compression and half the EIT loss
        mean = pt.param * np.sqrt(cfg.eta_eit) * cfg.eta_compression
        rng = np.random.default_rng(2024)
        # 4 se is well below the rise of g2_out from its low-zeta plateau
        # (0.092 at zeta = 0.05, 11 se below this estimate)
        self.assert_g2_out(cfg, pt, rng.poisson(mean, 600_000), rng)

    def test_dlcz_g2_out(self):
        cfg = PipelineConfig(blockade=BlockadeConfig(n_max=100))
        pt = sweep(cfg, [0.3], medium_matrix(cfg)).points[0]
        probs = conditional_read_state(SourceModel(pt.param, cfg.t_w), 100).probs
        rng = np.random.default_rng(2025)
        # each heralded photon survives the setup losses, compression and
        # half the EIT loss
        t = cfg.t_losses * cfg.eta_compression * np.sqrt(cfg.eta_eit)
        n = rng.binomial(rng.choice(probs.size, 1_000_000, p=probs), t)
        self.assert_g2_out(cfg, pt, n, rng)

    def test_wcs_g2_out_in_the_slow_light_cloud(self):
        # 3.6 blockade radii: the medium is the exact recursion
        cfg = PipelineConfig(input_kind="wcs", blockade=_stretched(BlockadeConfig(), 2.5))
        pt = sweep(cfg, [0.4], medium_matrix(cfg)).points[0]
        mean = pt.param * np.sqrt(cfg.eta_eit) * cfg.eta_compression
        rng = np.random.default_rng(2026)
        self.assert_g2_out(cfg, pt, rng.poisson(mean, 300_000), rng)
