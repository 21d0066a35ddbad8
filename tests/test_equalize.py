"""Equalizer constructions, exact stream statistics, and the two SIC stages."""

import math

import numpy as np
import pytest

from pdlsic.capacity import c_awgn, c_compound
from pdlsic.channel import ChannelParams, Model, SnrSpec
from pdlsic.equalize import (
    StreamScheme,
    cancel_first_group,
    closed_form_stream_snr,
    first_stage_equalizer,
    lmmse_equalizer,
    post_sic_streams,
    second_stage_statistics,
    stream_statistics,
    zf_equalizer,
)
from pdlsic.precode import (
    EffectiveChannel,
    effective_channel,
    identity_precoder,
    precoder_complex,
    precoder_real,
)

SNR = SnrSpec(20.0)


def random_params(rng, model):
    phi = rng.uniform(0, 2 * math.pi) if model is Model.COMPLEX else None
    return ChannelParams(rng.uniform(-0.95, 0.95), rng.uniform(0, 2 * math.pi), phi)


def universal_precoder(model):
    return precoder_real() if model is Model.REAL else precoder_complex()


class TestZf:
    def test_inverts_channel(self):
        eff = effective_channel(ChannelParams(0.4, 1.3), precoder_real(), SNR)
        e = zf_equalizer(eff)
        assert np.abs(e @ eff.matrix - np.eye(4)).max() < 1e-10

    def test_identity_channel_identity_equalizer(self):
        eff = effective_channel(ChannelParams(0.0, 0.0), identity_precoder(Model.REAL), SNR)
        assert np.allclose(zf_equalizer(eff), np.eye(4), atol=1e-14)

    def test_noise_covariance_closed_form(self):
        # with the built-in real-model precoder: diagonal 1/(1-g^2), coupling in the
        # off-diagonal blocks from gamma*cos/sin(2 theta)
        g, t = 0.437, 1.234
        eff = effective_channel(ChannelParams(g, t), precoder_real(), SNR)
        stats = stream_statistics(eff, zf_equalizer(eff))
        c2, s2 = g * math.cos(2 * t), g * math.sin(2 * t)
        expect = (
            np.array(
                [
                    [1, 0, -c2, s2],
                    [0, 1, s2, c2],
                    [-c2, s2, 1, 0],
                    [s2, c2, 0, 1],
                ]
            )
            / (1 - g * g)
        )
        assert np.abs(stats.k_zz - expect).max() < 1e-12

    def test_unprecoded_stream_snrs(self):
        # blockdiag channel: each use shows the theta-dependent single-use SNRs
        g, t, s = 0.5, 0.9, 20.0
        eff = effective_channel(ChannelParams(g, t), identity_precoder(Model.REAL), SnrSpec(s))
        stats = stream_statistics(eff, zf_equalizer(eff))
        s1 = (1 - g * g) * s / (1 - g * math.cos(2 * t))
        s2 = (1 - g * g) * s / (1 + g * math.cos(2 * t))
        assert np.allclose(stats.snr_per_stream, [s1, s2, s1, s2], rtol=1e-12)

    def test_singularity_guard(self):
        singular = np.eye(4)
        singular[3, 3] = 0.0
        eff = EffectiveChannel(singular, SNR)
        with pytest.raises(np.linalg.LinAlgError):  # no channel of the class is singular
            zf_equalizer(eff)


class TestLmmse:
    def test_high_snr_limit_is_zf(self):
        params = ChannelParams(0.4, 0.7)
        big = SnrSpec(1e8)
        eff = effective_channel(params, precoder_real(), big)
        e_lmmse = lmmse_equalizer(eff)
        e_zf = zf_equalizer(eff)
        assert np.abs(e_lmmse - e_zf).max() < 1e-6

    def test_signal_covariance_closed_form(self):
        g, s = 0.437, 20.0
        eff = effective_channel(ChannelParams(g, 1.234), precoder_real(), SnrSpec(s))
        stats = stream_statistics(eff, lmmse_equalizer(eff))
        scale = s**3 * (s * (1 - g * g) + 1) ** 2 / (s**2 * (1 - g * g) + 2 * s + 1) ** 2
        assert np.abs(stats.k_uu - scale * np.eye(4)).max() < 1e-12

    def test_cross_covariance_block_antidiagonal(self):
        g, t, s = 0.437, 1.234, 20.0
        eff = effective_channel(ChannelParams(g, t), precoder_real(), SnrSpec(s))
        stats = stream_statistics(eff, lmmse_equalizer(eff))
        scale = s**3 * (s * (1 - g * g) + 1) / (s**2 * (1 - g * g) + 2 * s + 1) ** 2
        c2, s2 = g * math.cos(2 * t), g * math.sin(2 * t)
        coupling = np.array([[-c2, s2], [s2, c2]])
        expect = np.zeros((4, 4))
        expect[:2, 2:] = -coupling * scale
        expect[2:, :2] = -coupling * scale
        assert np.abs(stats.k_uz - expect).max() < 1e-12

    def test_per_stream_snr_reference_point(self):
        g = 0.599
        eff = effective_channel(ChannelParams(g, 0.3), precoder_real(), SNR)
        stats = stream_statistics(eff, lmmse_equalizer(eff))
        expect = ((1 - g * g) * 400.0 + 20.0) / 21.0
        assert np.allclose(stats.snr_per_stream, expect, rtol=1e-12)


class TestStreamStatistics:
    def test_zf_whitens_signal(self):
        rng = np.random.default_rng(0)
        for model in (Model.REAL, Model.COMPLEX):
            eff = effective_channel(random_params(rng, model), universal_precoder(model), SNR)
            stats = stream_statistics(eff, zf_equalizer(eff))
            n = eff.n_streams
            assert np.abs(stats.k_uz).max() < 1e-10  # SNR * F^T: zero iff E @ H is diagonal
            assert np.abs(stats.k_uu - SNR.snr_linear * np.eye(n)).max() < 1e-9

    def test_diag_cross_covariance_vanishes(self):
        # zero per-stream signal-noise correlation holds for ANY equalizer
        rng = np.random.default_rng(1)
        for _ in range(100):
            h = rng.normal(size=(4, 4))
            e = rng.normal(size=(4, 4))
            eff = EffectiveChannel(h, SNR)
            stats = stream_statistics(eff, lmmse_equalizer(eff))
            assert np.abs(np.diag(stats.k_uz)).max() < 1e-12
            stats2 = stream_statistics(eff, e)
            assert np.abs(np.diag(stats2.k_uz)).max() < 1e-12

    def test_psd_and_snr_ratio(self):
        rng = np.random.default_rng(2)
        eff = effective_channel(random_params(rng, Model.COMPLEX), precoder_complex(), SNR)
        stats = stream_statistics(eff, lmmse_equalizer(eff))
        eigs = np.linalg.eigvalsh((stats.k_zz + stats.k_zz.T) / 2)
        assert eigs.min() > -1e-10
        assert np.allclose(
            stats.snr_per_stream, np.diag(stats.k_uu) / np.diag(stats.k_zz), rtol=1e-15
        )

    def test_monte_carlo_oracle_random_equalizer(self):
        # empirical covariances from brute-force transmission must confirm the
        # closed-form statistics for an arbitrary (H, E) pair
        rng = np.random.default_rng(3)
        h = rng.normal(size=(4, 4))
        e = rng.normal(size=(4, 4)) * 0.5
        s = 4.0
        eff = EffectiveChannel(h, SnrSpec(s))
        stats = stream_statistics(eff, e)
        n_trials = 1_000_000
        u = math.sqrt(s) * rng.standard_normal((4, n_trials))
        z = rng.standard_normal((4, n_trials))
        y = h @ u + z
        u_tilde = np.diag(np.diag(e @ h)) @ u
        z_tilde = e @ y - u_tilde
        k_zz_emp = z_tilde @ z_tilde.T / n_trials
        # standard error of a covariance entry ~ sqrt((Kii*Kjj + Kij^2)/N)
        se = np.sqrt(
            (np.outer(np.diag(stats.k_zz), np.diag(stats.k_zz)) + stats.k_zz**2)
            / n_trials
        )
        assert np.all(np.abs(k_zz_emp - stats.k_zz) < 3.5 * se)

    def test_dimension_mismatch(self):
        eff = effective_channel(ChannelParams(0.2, 0.1), precoder_real(), SNR)
        with pytest.raises(ValueError):
            stream_statistics(eff, np.eye(6))


class TestSic:
    def test_cancellation_algebra(self):
        # with explicit symbols and noise, the second stage output must be
        # exactly U_second + H2^T Z, for one channel and for a stack of them
        rng = np.random.default_rng(4)
        effs = [effective_channel(random_params(rng, Model.COMPLEX), precoder_complex(), SNR)
                for _ in range(3)]
        h = np.stack([eff.matrix for eff in effs])
        u = math.sqrt(SNR.snr_linear) * rng.standard_normal((3, 8, 16))
        z = rng.standard_normal((3, 8, 16))
        y = h @ u + z
        expect = u[:, 4:] + h[:, :, 4:].swapaxes(1, 2) @ z
        assert np.abs(cancel_first_group(h, u[:, :4], y) - expect).max() < 1e-10
        for b, eff in enumerate(effs):
            single = cancel_first_group(eff.matrix, u[b, :4], y[b])
            assert np.abs(single - (u[b, 4:] + eff.h2.T @ z[b])).max() < 1e-10

    def test_second_stage_exactly_white(self):
        rng = np.random.default_rng(5)
        for model in (Model.REAL, Model.COMPLEX):
            for _ in range(200):
                eff = effective_channel(random_params(rng, model), universal_precoder(model), SNR)
                k = eff.n_streams // 2
                second = second_stage_statistics(eff)
                assert np.abs(second.k_zz - np.eye(k)).max() < 1e-10
                assert np.abs(second.k_uz).max() < 1e-12
                assert np.allclose(second.snr_per_stream, SNR.snr_linear, rtol=1e-10)

    def test_no_pdl_means_no_loss(self):
        eff = effective_channel(ChannelParams(0.0, 0.7), precoder_real(), SNR)
        stats = stream_statistics(eff, zf_equalizer(eff))
        assert np.allclose(stats.snr_per_stream, SNR.snr_linear, rtol=1e-10)

    def test_first_stage_zf_worst_case(self):
        alpha = 0.599
        eff = effective_channel(ChannelParams(alpha, 1.1), precoder_real(), SNR)
        stats = stream_statistics(eff, zf_equalizer(eff))
        floor = (1 - alpha**2) * 20.0
        assert np.allclose(stats.snr_per_stream, floor, rtol=1e-10)
        assert floor == pytest.approx(12.824, abs=1e-3)

    def test_lmmse_sic_rate_equals_compound_capacity(self):
        for alpha in (0.0, 0.3, 0.599, 0.9):
            for s in (1.0, 20.0, 100.0):
                eff = effective_channel(
                    ChannelParams(alpha, 0.77), precoder_real(), SnrSpec(s)
                )
                first = stream_statistics(eff, first_stage_equalizer(eff, StreamScheme.LMMSE))
                snrs = post_sic_streams(
                    first.snr_per_stream, second_stage_statistics(eff).snr_per_stream
                )
                assert float(np.mean(c_awgn(snrs))) == pytest.approx(
                    float(c_compound(alpha, s)), abs=1e-12
                )

    def test_post_sic_is_not_a_first_stage(self):
        eff = effective_channel(ChannelParams(0.2, 0.1), precoder_real(), SNR)
        with pytest.raises(ValueError, match="ZF or LMMSE"):
            first_stage_equalizer(eff, StreamScheme.POST_SIC)

    def test_matched_filter_second_stage_is_lmmse(self):
        # the post-cancellation channel has orthonormal columns, so H2^T and
        # the LMMSE equalizer of H2 give the same per-stream SNRs
        rng = np.random.default_rng(6)
        for _ in range(50):
            eff = effective_channel(random_params(rng, Model.REAL), precoder_real(), SNR)
            h2 = eff.h2
            s = SNR.snr_linear
            e_lmmse = h2.T @ np.linalg.inv(h2 @ h2.T + np.eye(4) / s)
            from pdlsic.equalize import _statistics

            mf = second_stage_statistics(eff)
            lm = _statistics(h2, e_lmmse, s)
            assert np.allclose(mf.snr_per_stream, lm.snr_per_stream, rtol=1e-10)


class TestClosedForms:
    def test_reference_values(self):
        assert closed_form_stream_snr(StreamScheme.ZF, 0.599, SNR) == pytest.approx(
            12.824, abs=1e-3
        )
        assert 10 * math.log10(
            closed_form_stream_snr(StreamScheme.ZF, 0.599, SNR)
        ) == pytest.approx(11.08, abs=1e-3)
        assert closed_form_stream_snr(StreamScheme.LMMSE, 0.0, SnrSpec(7.7)) == pytest.approx(
            7.7, rel=1e-15
        )
        assert closed_form_stream_snr(StreamScheme.POST_SIC, 0.42, SNR) == 20.0

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            closed_form_stream_snr(StreamScheme.ZF, 1.0, SNR)

    @pytest.mark.parametrize("model", [Model.REAL, Model.COMPLEX])
    def test_theta_phi_invariance(self, model):
        # fixed gamma: per-stream SNRs constant over theta (and phi)
        pre = universal_precoder(model)
        gathered = {StreamScheme.ZF: [], StreamScheme.LMMSE: [], StreamScheme.POST_SIC: []}
        for t in np.linspace(0, 2 * math.pi, 16, endpoint=False):
            for f in np.linspace(0, 2 * math.pi, 8, endpoint=False):
                phi = f if model is Model.COMPLEX else None
                eff = effective_channel(ChannelParams(0.45, t, phi), pre, SNR)
                gathered[StreamScheme.ZF].append(
                    stream_statistics(eff, zf_equalizer(eff)).snr_per_stream
                )
                gathered[StreamScheme.LMMSE].append(
                    stream_statistics(eff, lmmse_equalizer(eff)).snr_per_stream
                )
                gathered[StreamScheme.POST_SIC].append(
                    second_stage_statistics(eff).snr_per_stream
                )
                if model is Model.REAL:
                    break
        for scheme, rows in gathered.items():
            arr = np.stack(rows)
            expect = closed_form_stream_snr(scheme, 0.45, SNR)
            assert np.abs(arr / expect - 1.0).max() < 1e-10

    def test_numeric_matches_closed_form_on_grid(self):
        rng = np.random.default_rng(7)
        for model in (Model.REAL, Model.COMPLEX):
            pre = universal_precoder(model)
            for _ in range(200):
                params = random_params(rng, model)
                eff = effective_channel(params, pre, SNR)
                for scheme, stats in (
                    (StreamScheme.ZF, stream_statistics(eff, zf_equalizer(eff))),
                    (StreamScheme.LMMSE, stream_statistics(eff, lmmse_equalizer(eff))),
                    (StreamScheme.POST_SIC, second_stage_statistics(eff)),
                ):
                    expect = closed_form_stream_snr(scheme, params.gamma, SNR)
                    assert np.abs(stats.snr_per_stream / expect - 1.0).max() < 1e-9

    def test_full_capacity_identity(self):
        for alpha in (0.0, 0.3, 0.599, 0.9):
            for s in (1.0, 20.0, 100.0):
                lhs = c_awgn(
                    closed_form_stream_snr(StreamScheme.LMMSE, alpha, SnrSpec(s))
                ) + c_awgn(s)
                rhs = c_awgn((1 + alpha) * s) + c_awgn((1 - alpha) * s)
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestGroupCorrelations:
    @pytest.mark.parametrize("model", [Model.REAL, Model.COMPLEX])
    def test_no_correlations_within_groups(self, model):
        # codeword spreading within a group needs zero noise-noise and
        # signal-noise correlations inside each half
        rng = np.random.default_rng(8)
        k = 2 if model is Model.REAL else 4
        for _ in range(100):
            eff = effective_channel(random_params(rng, model), universal_precoder(model), SNR)
            stats = stream_statistics(eff, lmmse_equalizer(eff))
            for blk in (slice(0, k), slice(k, 2 * k)):
                kzz = stats.k_zz[blk, blk]
                kuz = stats.k_uz[blk, blk]
                assert np.abs(kzz - np.diag(np.diag(kzz))).max() < 1e-10
                assert np.abs(kuz).max() < 1e-10
            second = second_stage_statistics(eff)
            assert np.abs(second.k_zz - np.eye(k)).max() < 1e-10
