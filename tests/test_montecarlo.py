"""Monte Carlo engine: reproducibility, statistical agreement, SER experiments."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import norm

from pdlsic import capacity, montecarlo
from pdlsic.channel import Model, SampleMode, SnrSpec, lattice
from pdlsic.equalize import StreamScheme, closed_form_stream_snr
from pdlsic.montecarlo import (
    Scheme,
    SimConfig,
    _block_params,
    pam_order,
    run,
    ser_pam_awgn,
)


def config(**overrides):
    base = dict(
        model=Model.REAL,
        alpha=0.599,
        snr=SnrSpec(20.0),
        param_mode=SampleMode.WORST_CASE_EDGE,
        scheme=Scheme.LMMSE_SIC,
        trials=50_000,
        seed=42,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            config(trials=0)
        with pytest.raises(ValueError):
            config(alpha=1.0)
        with pytest.raises(ValueError):
            config(constellation="PAM(3)")
        with pytest.raises(ValueError):
            config(constellation="QAM(4)")

    def test_pam_order_parse(self):
        assert pam_order("Gaussian") is None
        assert pam_order("PAM(4)") == 4

    def test_dict_round_trip(self):
        cfg = config(model=Model.COMPLEX, scheme=Scheme.ZF, constellation="PAM(8)")
        assert SimConfig.from_dict(cfg.as_dict()) == cfg

    @given(
        snr=st.floats(1e-12, 1e12),
        alpha=st.floats(0.0, 1.0, exclude_max=True),
        scheme=st.sampled_from(Scheme),
        mode=st.sampled_from(SampleMode),
        model=st.sampled_from(Model),
    )
    def test_dict_round_trip_is_exact(self, snr, alpha, scheme, mode, model):
        cfg = config(snr=SnrSpec(snr), alpha=alpha, scheme=scheme, param_mode=mode, model=model)
        assert SimConfig.from_dict(cfg.as_dict()) == cfg
        assert SimConfig.from_dict(json.loads(json.dumps(cfg.as_dict()))) == cfg

    def test_from_dict_prefers_snr_linear(self):
        data = config().as_dict()
        assert data["snr"] == {"snr_linear": 20.0, "snr_db": 10 * math.log10(20.0)}
        assert SimConfig.from_dict(data).snr.snr_linear == 20.0
        data["snr"]["snr_db"] += 1e-6
        with pytest.raises(ValueError, match="snr_db"):
            SimConfig.from_dict(data)

    @pytest.mark.parametrize("snr", [
        {"snr_db": 13.0, "snr_lineer": 5},
        {"snr_linear": 5, "SNR_DB": 7.0},
        {"snr_db": 13.0, "": 1},
    ])
    def test_from_dict_rejects_unknown_snr_keys(self, snr):
        data = config().as_dict()
        data["snr"] = snr
        with pytest.raises(ValueError, match="'snr' has unknown keys"):
            SimConfig.from_dict(data)

    def test_from_dict_accepts_db(self):
        cfg = SimConfig.from_dict(
            {
                "model": "ComplexEquivalent",
                "alpha": 0.3,
                "snr": {"snr_db": 13.0103},
                "param_mode": "UniformInterior",
                "scheme": "ZF-SIC",
                "trials": 10,
                "seed": 1,
            }
        )
        assert cfg.model is Model.COMPLEX
        assert cfg.snr.snr_linear == pytest.approx(20.0, abs=1e-3)

    def test_from_dict_accepts_integral_floats(self):
        data = config(trials=10).as_dict()
        data["trials"] = 2000.0
        assert SimConfig.from_dict(data).trials == 2000

    def test_from_dict_missing_field(self):
        with pytest.raises(ValueError, match="scheme"):
            SimConfig.from_dict(
                {"model": "Real", "alpha": 0.1, "snr": 2.0, "param_mode": "Grid",
                 "trials": 10, "seed": 0}
            )


class TestGridBlocks:
    @pytest.mark.parametrize("model", list(Model))
    def test_block_b_gets_lattice_point_b_mod_size(self, model):
        grid = lattice(0.599, model)  # the default sizes, 41 x 64 (x 64 for phi)
        points = np.stack([f.ravel() for f in np.broadcast_arrays(
            grid.gamma, grid.theta, *([] if grid.phi is None else [grid.phi]))])
        size = points.shape[1]
        n_blocks = 2 * size + 5  # wraps around the lattice twice
        cfg = config(model=model, param_mode=SampleMode.GRID, trials=n_blocks, block_size=1)
        params = _block_params(cfg, seed=None)
        expect = points[:, np.arange(n_blocks) % size]
        assert params.gamma.shape == (n_blocks,)
        assert np.array_equal(params.gamma, expect[0])
        assert np.array_equal(params.theta, expect[1])
        if model is Model.REAL:
            assert params.phi is None
        else:
            assert np.array_equal(params.phi, expect[2])


class TestReproducibility:
    def test_byte_identical_reports(self):
        cfg = config(trials=10_000)
        assert run(cfg).to_json() == run(cfg).to_json()

    def test_different_seeds_differ(self):
        a = run(config(trials=5_000, seed=1))
        b = run(config(trials=5_000, seed=2))
        assert not np.allclose(a.snr_per_stream, b.snr_per_stream)

    def test_single_trial_has_null_stderr(self):
        rep = run(config(trials=1, block_size=1000))
        assert rep.snr_stderr is None
        payload = json.loads(rep.to_json())
        assert payload["snr_stderr"] is None


class TestChunking:
    @pytest.mark.parametrize("overrides", [
        dict(model=Model.COMPLEX, trials=2003, block_size=10),  # ragged last block
        dict(model=Model.COMPLEX, scheme=Scheme.ZF_SIC, constellation="PAM(4)", snr=SnrSpec(8.0),
             trials=2003, block_size=10),  # decision-directed errors
        dict(scheme=Scheme.NOPRECODE_ZF, param_mode=SampleMode.UNIFORM_INTERIOR,
             trials=3000, block_size=7),
        dict(param_mode=SampleMode.GRID, constellation="PAM(8)", trials=1000, block_size=3),
        dict(model=Model.COMPLEX, trials=700, block_size=1000),  # a single block
    ])
    @pytest.mark.parametrize("bound", [1, 300, 2**30])
    def test_chunk_bound_does_not_change_the_report(self, monkeypatch, overrides, bound):
        cfg = config(report_blocks=True, **overrides)
        default = run(cfg).to_json()
        monkeypatch.setattr(montecarlo, "CHUNK_ELEMENTS", bound)
        assert run(cfg).to_json() == default


class TestGaussianRuns:
    def test_pdl_free_zf(self):
        rep = run(config(alpha=0.0, scheme=Scheme.ZF, trials=100_000))
        for snr, se in zip(rep.snr_per_stream, rep.snr_stderr):
            assert abs(snr - 20.0) < 3.0 * se

    def test_lmmse_sic_matches_closed_forms(self):
        cfg = config(trials=200_000)
        rep = run(cfg)
        s, a = 20.0, 0.599
        first = ((1 - a * a) * s * s + s) / (s + 1)
        expect = np.array([first, first, s, s])
        z = (rep.snr_per_stream - expect) / rep.snr_stderr
        assert np.abs(z).max() < 3.0

    def test_zf_sic_matches_closed_forms(self):
        rep = run(config(scheme=Scheme.ZF_SIC, trials=200_000))
        expect = np.array([12.82398, 12.82398, 20.0, 20.0])
        z = (rep.snr_per_stream - expect) / rep.snr_stderr
        assert np.abs(z).max() < 3.0

    def test_complex_model(self):
        rep = run(config(model=Model.COMPLEX, trials=100_000))
        s, a = 20.0, 0.599
        first = ((1 - a * a) * s * s + s) / (s + 1)
        expect = np.array([first] * 4 + [s] * 4)
        z = (rep.snr_per_stream - expect) / rep.snr_stderr
        assert np.abs(z).max() < 3.5

    def test_diag_cross_covariance_zero(self):
        rep = run(config(trials=100_000))
        for stage in rep.stages:
            z = np.abs(np.diag(stage.k_uz)) / np.diag(stage.k_uz_stderr)
            assert z.max() < 3.5

    def test_theta_invariance_across_blocks(self):
        # edge sampling randomizes theta per block; per-stream SNRs stay put
        rep = run(config(trials=100_000, report_blocks=True))
        s, a = 20.0, 0.599
        first = ((1 - a * a) * s * s + s) / (s + 1)
        block_means = rep.block_snrs.mean(axis=0)
        expect = np.array([first, first, s, s])
        assert np.abs(block_means / expect - 1.0).max() < 0.05

    def test_unprecoded_worst_stream(self):
        # grid walk over theta at gamma = -alpha: worst stream approaches (1-a)*SNR
        cfg = config(
            scheme=Scheme.NOPRECODE_ZF,
            param_mode=SampleMode.GRID,
            trials=64_000,
            block_size=1000,
            report_blocks=True,
        )
        rep = run(cfg)
        worst = rep.block_snrs.min()
        floor = (1 - 0.599) * 20.0
        assert worst == pytest.approx(floor, rel=0.2)
        assert rep.snr_per_stream.min() > floor * 0.8

    def test_convergence_rate(self):
        # error against analytic covariances shrinks like 1/sqrt(trials):
        # doubling trials gives an average error ratio near 0.707
        s, g2 = 20.0, 0.599**2
        analytic_diag = 1.0 / (1.0 - g2)

        def err(trials, seed):
            rep = run(config(scheme=Scheme.ZF, trials=trials, seed=seed))
            st = rep.stages[0]
            e1 = np.abs(st.k_uu - s * np.eye(4)).mean()
            e2 = np.abs(st.k_uz).mean()
            e3 = np.abs(np.diag(st.k_zz) - analytic_diag).mean()
            return (e1 + e2 + e3) / 3.0

        ratios = []
        for seed in range(6):
            errs = [err(n, 1000 + seed) for n in (25_000, 50_000, 100_000, 200_000, 400_000)]
            ratios += [b / a for a, b in zip(errs, errs[1:])]
        assert 0.6 < np.mean(ratios) < 0.85


class TestEstimateMi:
    def test_pdl_free(self):
        rep = run(config(alpha=0.0, scheme=Scheme.ZF, trials=200_000))
        assert rep.rate_bits_per_real_dim == pytest.approx(capacity.c_awgn(20.0), rel=0.01)

    def test_lmmse_sic_estimates_compound_capacity(self):
        rep = run(config(trials=200_000))
        assert rep.rate_bits_per_real_dim == pytest.approx(
            float(capacity.c_compound(0.599, 20.0)), rel=0.01
        )

    def test_lmmse_estimates_parallel_capacity(self):
        rep = run(config(scheme=Scheme.LMMSE, trials=200_000))
        assert rep.rate_bits_per_real_dim == pytest.approx(
            float(capacity.c_parallel(0.599, 20.0)), rel=0.01
        )

    def test_requires_gaussian(self):
        rep = run(config(constellation="PAM(4)", trials=2_000))
        assert json.loads(rep.to_json())["rate_bits_per_real_dim"] is None


class TestSerExperiments:
    def test_theory_formula_against_scipy(self):
        # independent evaluation of the PAM SER expression
        for order in (2, 4, 8):
            for snr in (5.0, 20.0, 60.0):
                d = math.sqrt(3.0 * snr / (order**2 - 1))
                expect = 2.0 * (1.0 - 1.0 / order) * norm.sf(d)
                assert ser_pam_awgn(order, snr) == pytest.approx(expect, rel=1e-12)

    def test_pdl_free_bpsk(self):
        # PAM(2) at SER ~ 1e-2: SNR = (Q^-1(1e-2))^2
        target_snr = norm.isf(1e-2) ** 2
        cfg = config(
            alpha=0.0,
            scheme=Scheme.ZF_SIC,
            snr=SnrSpec(target_snr),
            constellation="PAM(2)",
            trials=200_000,
        )
        rep = run(cfg)
        theory = ser_pam_awgn(2, target_snr)
        assert theory == pytest.approx(1e-2, rel=1e-6)
        for p, se in zip(rep.ser.ser_genie, rep.ser.ser_genie_stderr):
            assert abs(p - theory) < 3.0 * se

    def test_post_sic_streams_match_awgn_theory(self):
        cfg = config(constellation="PAM(4)", trials=300_000)
        rep = run(cfg)
        theory_second = ser_pam_awgn(4, 20.0)
        for p, se in zip(rep.ser.ser_genie[2:], rep.ser.ser_genie_stderr[2:]):
            assert abs(p - theory_second) < 3.0 * se
        assert np.allclose(rep.ser.theory[2:], theory_second, rtol=1e-12)

    def test_first_stage_matches_lmmse_theory(self):
        cfg = config(constellation="PAM(4)", trials=300_000)
        rep = run(cfg)
        snr1 = closed_form_stream_snr(StreamScheme.LMMSE, 0.599, SnrSpec(20.0))
        theory_first = ser_pam_awgn(4, snr1)
        for p, se in zip(rep.ser.ser_genie[:2], rep.ser.ser_genie_stderr[:2]):
            assert abs(p - theory_first) < 3.5 * se

    def test_decision_directed_near_genie_at_low_first_stage_ser(self):
        # with mild coupling and first-stage SER < 1e-3, error propagation is
        # a small perturbation: dd/genie stays within 10%
        cfg = config(
            alpha=0.2,
            snr=SnrSpec(61.0),
            scheme=Scheme.ZF_SIC,
            constellation="PAM(4)",
            trials=1_000_000,
            seed=11,
        )
        rep = run(cfg)
        assert rep.ser.ser_genie[:2].max() < 1e-3
        assert np.all(rep.ser.dd_over_genie > 0.9)
        assert np.all(rep.ser.dd_over_genie < 1.1)

    def test_decision_directed_degrades_at_high_coupling(self):
        cfg = config(constellation="PAM(4)", trials=100_000)
        rep = run(cfg)
        dd = rep.ser.ser_decision_directed[2:]
        genie = rep.ser.ser_genie[2:]
        assert np.all(dd >= genie)

    def test_requires_pam(self):
        assert run(config(trials=2_000)).ser is None

    def test_rate_is_none_for_pam(self):
        rep = run(config(constellation="PAM(4)", trials=2_000))
        assert rep.rate_bits_per_real_dim is None
        assert rep.ser is not None
