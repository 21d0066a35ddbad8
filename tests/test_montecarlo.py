"""Monte Carlo engine: reproducibility, statistical agreement, SER experiments."""

import json
import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from pdlsic import capacity, montecarlo
from pdlsic.channel import Model, SampleMode, SnrSpec, channel_matrix, lattice
from pdlsic.equalize import StreamScheme, closed_form_stream_snr
from pdlsic.montecarlo import (
    Scheme,
    SimConfig,
    _block_draws,
    _block_params,
    _chunks,
    _jackknife_ratio,
    _StageSums,
    pam_order,
    run,
    ser_pam_awgn,
)
from pdlsic.precode import universal_precoder


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

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            config(seed=-1)
        data = config().as_dict()
        data["seed"] = -3
        with pytest.raises(ValueError, match="seed"):
            SimConfig.from_dict(data)

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
    # 2500 leaves a short last chunk of full blocks on every multi-chunk config
    # (14 of 200, 72 of 428, 125 of 333 blocks), so only the front of the
    # workspace holds it; 2**14 is the default
    @pytest.mark.parametrize("bound", [1, 300, 2500, 2**14, 2**30])
    def test_chunk_bound_does_not_change_the_report(self, monkeypatch, overrides, bound):
        cfg = config(report_blocks=True, **overrides)
        default = run(cfg).to_json()
        monkeypatch.setattr(montecarlo, "CHUNK_ELEMENTS", bound)
        assert run(cfg).to_json() == default

    def test_long_blocks_share_channel_builds(self, monkeypatch):
        # 1000-trial blocks are one to a chunk; their channels are built for
        # as many chunks as CHUNK_ELEMENTS holds (n x n entries each), the
        # ragged last block included
        cfg = config(model=Model.COMPLEX, trials=5500, block_size=1000, report_blocks=True)
        built = []
        channels = montecarlo._channels
        monkeypatch.setattr(montecarlo, "_channels",
                            lambda *args: built.append(args[-1]) or channels(*args))
        default = run(cfg).to_json()
        assert built == [range(0, 6)]
        built.clear()
        monkeypatch.setattr(montecarlo, "CHUNK_ELEMENTS", 4 * 64)
        assert run(cfg).to_json() == default
        assert built == [range(0, 4), range(4, 6)]


class TestMemory:
    def test_peak_grows_by_the_per_block_arrays_alone(self):
        # complex fast-fading LMMSE-SIC: a run keeps 2n floats per stage and
        # block (n = 8, then 4) and 3 parameter floats per block; its chunk
        # arrays share one workspace sized by CHUNK_ELEMENTS, not by the run,
        # and 800 blocks already fill four chunks
        per_block = 8 * (2 * 8 + 2 * 4 + 3)

        def peak(blocks):
            cfg = config(model=Model.COMPLEX, trials=10 * blocks, block_size=10)
            run(cfg)  # one-off caches are not the run's
            tracemalloc.start()
            try:
                run(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(800), peak(8000)
        assert large - small <= 7200 * per_block + 32 * 1024
        # the fixed part: the workspace, about 7 chunk arrays, and the channels
        # of the chunks built at once with their temporaries (1.6 MB at 2**14)
        assert small - 800 * per_block <= 16 * 8 * montecarlo.CHUNK_ELEMENTS


class TestChannels:
    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("scheme", [Scheme.ZF, Scheme.ZF_SIC, Scheme.NOPRECODE_ZF])
    def test_zf_schemes_equalize_by_the_bare_inverse(self, model, scheme):
        # with or without a precoder, a ZF first stage is np.linalg.inv of the block channels
        cfg = config(model=model, scheme=scheme, alpha=0.999999,
                     param_mode=SampleMode.UNIFORM_INTERIOR, trials=60, block_size=1)
        params = _block_params(cfg, 7)
        precoder = universal_precoder(model) if scheme.uses_precoder else None
        h, e, lam = montecarlo._channels(cfg, params, precoder, range(5, 60))
        n = model.dim * (2 if scheme.uses_precoder else 1)
        assert h.shape == e.shape == (55, n, n)
        if precoder is None:
            assert h.tobytes() == channel_matrix(params)[5:].tobytes()
        assert e.tobytes() == np.linalg.inv(h).tobytes()
        assert lam.tobytes() == np.diagonal(e @ h, axis1=-2, axis2=-1)[..., None].tobytes()


def per_block_jackknife(num, den):
    """The textbook leave-one-block-out estimate and standard error of sum(num)/sum(den)."""
    b = num.shape[0]
    estimate = num.sum(axis=0) / den.sum(axis=0)
    if b < 2:
        return estimate, None
    loo = (num.sum(axis=0) - num) / (den.sum(axis=0) - den)
    return estimate, np.sqrt((b - 1) / b * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))


def feed(sums, u, z, sizes):
    """Add the first blocks of ``u``/``z`` to ``sums`` in chunks of ``sizes``; return their count."""
    start = 0
    for size in sizes:
        sums.add(start, u[start:start + size], z[start:start + size])
        start += size
    return start


class TestStreamedSums:
    @staticmethod
    def blocks(seed, full, block, ragged, n):
        """Per-block signals and noise with nonzero means, the ragged block last."""
        rng = np.random.default_rng(seed)
        full_blocks = [1.5 + rng.standard_normal((full, n, block)),
                       -0.5 + 2.0 * rng.standard_normal((full, n, block))]
        ragged_blocks = [1.5 + rng.standard_normal((1, n, ragged)),
                         -0.5 + 2.0 * rng.standard_normal((1, n, ragged))]
        return full_blocks, ragged_blocks

    @settings(deadline=None, max_examples=60)
    @given(full=st.integers(0, 12), block=st.integers(1, 6), ragged=st.integers(0, 5),
           n=st.sampled_from([2, 4]), seed=st.integers(0, 2**32 - 1), data=st.data())
    @example(full=2, block=3, ragged=0, n=2, seed=1, data=None)  # B = 2
    @example(full=3, block=4, ragged=2, n=4, seed=2, data=None)  # a ragged last block
    @example(full=1, block=4, ragged=0, n=2, seed=3, data=None)  # a single block
    @example(full=0, block=4, ragged=3, n=2, seed=4, data=None)  # a single, ragged block
    def test_matches_the_per_block_formula(self, full, block, ragged, n, seed, data):
        ragged %= block
        if full == 0 and ragged == 0:  # at least one block
            full = 1
        cfg = config(trials=full * block + ragged, block_size=block)
        (u, z), (ur, zr) = self.blocks(seed, full, block, ragged, n)
        sizes = []
        while sum(sizes) < full:
            draw = data.draw(st.integers(1, full)) if data is not None else 2
            sizes.append(min(draw, full - sum(sizes)))
        sums = _StageSums(cfg, n, np.empty((max(full, 1) + 1) * 3 * n * n))
        feed(sums, u, z, sizes)
        if ragged:
            sums.add(full, ur, zr)
        stats = sums.stats()

        per_block = [np.concatenate((u, z), axis=1)] + [np.concatenate((ur, zr), axis=1)] * bool(ragged)
        grams = np.concatenate([x @ x.swapaxes(1, 2) for x in per_block])
        counts = np.array([block] * full + [ragged] * bool(ragged), dtype=float)
        mean, se = per_block_jackknife(grams, counts[:, None, None])
        diag = np.diagonal(grams, axis1=1, axis2=2)
        snr, snr_se = per_block_jackknife(diag[:, :n], diag[:, n:])
        for name, q in (("uu", np.s_[:n, :n]), ("uz", np.s_[:n, n:]), ("zz", np.s_[n:, n:])):
            np.testing.assert_allclose(getattr(stats, f"k_{name}"), mean[q], rtol=1e-12)
            got = getattr(stats, f"k_{name}_stderr")
            if se is None:
                assert got is None
            else:
                np.testing.assert_allclose(got, se[q], rtol=1e-12)
        np.testing.assert_allclose(stats.snr_per_stream, snr, rtol=1e-12)
        if snr_se is None:
            assert stats.snr_stderr is None
        else:
            np.testing.assert_allclose(stats.snr_stderr, snr_se, rtol=1e-12)
            np.testing.assert_allclose(_jackknife_ratio(diag[:, :n], diag[:, n:])[1], snr_se,
                                       rtol=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(full=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_chunking_changes_no_bit(self, full, seed, data):
        cfg = config(trials=5 * full, block_size=5)
        (u, z), _ = self.blocks(seed, full, 5, 0, 4)

        def stats(sizes):
            sums = _StageSums(cfg, 4, np.empty((full + 1) * 3 * 4 * 4))
            assert feed(sums, u, z, sizes) == full
            return sums.stats()

        cuts = sorted(data.draw(st.sets(st.integers(1, full - 1), max_size=full - 1)))
        split = stats(np.diff([0, *cuts, full]))
        whole = stats([full])
        for field in ("k_uu", "k_uz", "k_zz", "k_uu_stderr", "k_uz_stderr", "k_zz_stderr",
                      "snr_per_stream", "snr_stderr"):
            assert np.array_equal(getattr(split, field), getattr(whole, field))

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("offset", [-1, 0, 1, 5])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_jackknife_row_blocks_change_no_bit(self, n, offset, blocks):
        # B below, at and above whole row blocks of the leave-one-out division
        b = blocks * (montecarlo.CHUNK_ELEMENTS // n) + offset
        rng = np.random.default_rng(b * n)
        num, den = rng.exponential(size=(b, n)), rng.exponential(size=(b, n))
        total_num, total_den = num.sum(axis=0), den.sum(axis=0)
        estimate, se = _jackknife_ratio(num, den)
        assert np.array_equal(estimate, total_num / total_den)
        dev = (total_num - num) / (total_den - den)  # the one-array division
        dev -= dev.mean(axis=0)
        scale = np.maximum(dev.max(axis=0), -dev.min(axis=0))
        dev /= scale
        assert np.array_equal(se, scale * np.sqrt((b - 1) / b * np.square(dev).sum(axis=0)))


class TestStreams:
    @pytest.mark.parametrize("constellation", ["Gaussian", "PAM(4)"])
    @pytest.mark.parametrize("trials, block_size", [(2003, 10), (700, 1000), (60, 3)])
    def test_block_b_reads_segment_b_of_each_stream(self, monkeypatch, constellation,
                                                    trials, block_size):
        monkeypatch.setattr(montecarlo, "CHUNK_ELEMENTS", 300)
        cfg = config(model=Model.COMPLEX, trials=trials, block_size=block_size,
                     constellation=constellation)
        n = 8

        def blocks_root():  # spawn counts its children, so each use needs a fresh one
            return np.random.SeedSequence(cfg.seed).spawn(2)[1]

        noise_seed, symbol_seed = blocks_root().spawn(2)
        noise = np.random.default_rng(noise_seed)
        if constellation == "Gaussian":
            stream = noise.standard_normal(2 * n * trials)
        else:
            stream = noise.standard_normal(n * trials)
            symbols = np.random.default_rng(symbol_seed).integers(0, 4, n * trials)
        _, first, t = next(_chunks(cfg, n))
        workspace = np.empty(2 * n * first * t)  # as a run's: room for the first, largest chunk
        offset = 0
        blocks = 0
        for start, stop, u, idx, z in _block_draws(cfg, blocks_root(), n, workspace):
            for c in range(stop - start):
                t = u.shape[-1]
                if constellation == "Gaussian":
                    segment = stream[2 * n * offset:2 * n * (offset + t)].reshape(2 * n, t)
                    assert np.array_equal(u[c], math.sqrt(cfg.snr.snr_linear) * segment[:n])
                    assert np.array_equal(z[c], segment[n:])
                    assert idx is None
                else:
                    assert np.array_equal(z[c], stream[n * offset:n * (offset + t)].reshape(n, t))
                    assert np.array_equal(idx[c], symbols[n * offset:n * (offset + t)].reshape(n, t))
                offset += t
                blocks += 1
        assert offset == trials and blocks == cfg.n_blocks


class TestExtremeSnr:
    @pytest.mark.parametrize("scheme, snr", [
        *((scheme, snr) for scheme in (Scheme.ZF, Scheme.ZF_SIC, Scheme.NOPRECODE_ZF)
          for snr in (1e-300, 1e300)),
        (Scheme.LMMSE_SIC, 1e300),
    ])
    def test_standard_errors_are_finite_and_positive(self, scheme, snr):
        rep = run(config(model=Model.COMPLEX, scheme=scheme, snr=SnrSpec(snr),
                         trials=200, block_size=10))

        def refuse(token):
            raise ValueError(f"report holds the non-standard JSON constant {token}")

        payload = json.loads(rep.to_json(), parse_constant=refuse)
        stderrs = [payload["snr_stderr"]] + [
            stage[f"{name}_stderr"] for stage in payload["stages"]
            for name in ("k_uu", "k_uz", "k_zz", "snr")
        ]
        values = np.concatenate([np.ravel(x) for x in stderrs])
        assert np.all(np.isfinite(values)) and np.all(values > 0)


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

    def test_theory_within_two_eps_of_mpmath(self):
        # 50-digit erfc at the float argument ser_pam_awgn forms, wherever
        # the float SER is normal; the scale 2(1 - 1/order) is exact
        eps = np.finfo(float).eps
        checked = 0
        for order in (2, 4, 8):
            for snr in np.geomspace(0.1, 1e4, 400).tolist():
                got = ser_pam_awgn(order, snr)
                if got < sys.float_info.min:
                    continue
                x = math.sqrt(3.0 * snr / (order**2 - 1.0)) / math.sqrt(2.0)
                with mpmath.workdps(50):
                    expect = (1 - mpmath.mpf(1) / order) * mpmath.erfc(mpmath.mpf(x))
                    rel = float(abs(mpmath.mpf(got) - expect) / expect)
                assert rel <= 2.0 * eps, (order, snr, rel / eps)
                checked += 1
        assert checked > 1000

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
