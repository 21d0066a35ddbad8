"""Capacity closed forms against their brute-force and grid oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdlsic import capacity
from pdlsic.channel import ChannelParams, Model, SnrSpec
from pdlsic.equalize import _statistics, lmmse_equalizer, stream_statistics
from pdlsic.precode import (
    Precoder,
    effective_channel,
    identity_precoder,
    permute_columns,
    precoder_complex,
    precoder_real,
)

ALPHAS = (0.0, 0.1, 0.3, 0.599, 0.9)
SNRS = (0.5, 1.0, 5.0, 20.0, 100.0, 1000.0)
UNIVERSAL = {Model.REAL: precoder_real(), Model.COMPLEX: precoder_complex()}


def inverse_stream_snrs(gram, snr):
    """Reference SIC SNRs, stream i from its own inverse: 1/[(I + snr * Gram[i:, i:])^-1]_00 - 1."""
    n = gram.shape[-1]
    return np.stack(
        [1.0 / np.linalg.inv(np.eye(n - i) + snr * gram[..., i:, i:])[..., 0, 0] - 1.0
         for i in range(n)],
        axis=-1,
    )


def cholesky_stream_snrs(gram, snr):
    """Reference SIC SNRs as LAPACK pivots: Cholesky of the index-reversed I + snr * Gram, pivot^2 - 1."""
    n = gram.shape[-1]
    a = np.eye(n) + snr * gram
    pivots = np.diagonal(np.linalg.cholesky(a[..., ::-1, ::-1]), axis1=-2, axis2=-1)[..., ::-1]
    return pivots**2 - 1.0


def exact_stream_snrs(gram, snr):
    """1/[(I + snr * Gram)[i:, i:]^-1]_00 - 1 in 50-digit arithmetic, for one float Gram taken as exact."""
    n = gram.shape[-1]
    with mpmath.workdps(50):
        a = mpmath.eye(n) + mpmath.mpf(snr) * mpmath.matrix(gram.tolist())
        return np.array([float(1 / mpmath.inverse(a[i:n, i:n])[0, 0] - 1) for i in range(n)])


def grams(params: ChannelParams, precoder: Precoder) -> np.ndarray:
    h = effective_channel(params, precoder, SnrSpec(1.0)).matrix
    return np.swapaxes(h, -1, -2) @ h


@st.composite
def random_grams(draw):
    """Gram stacks H^T H of a random orthogonal precoder (QR) over random members."""
    model = draw(st.sampled_from(Model))
    n, b = 2 * model.dim, draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    gamma = draw(st.lists(st.floats(-0.999999, 0.999999), min_size=b, max_size=b))
    theta = rng.uniform(0.0, 2 * math.pi, b)
    phi = rng.uniform(0.0, 2 * math.pi, b) if model is Model.COMPLEX else None
    return grams(ChannelParams(np.array(gamma), theta, phi), Precoder(q, model))


class TestAwgn:
    def test_values(self):
        assert capacity.c_awgn(0.0) == 0.0
        assert capacity.c_awgn(3.0) == pytest.approx(1.0, abs=1e-15)
        assert capacity.c_awgn(20.0) == pytest.approx(0.5 * math.log2(21.0), rel=1e-15)
        assert capacity.c_awgn(20.0) == pytest.approx(2.196, abs=1e-3)

    def test_array_input(self):
        out = capacity.c_awgn(np.array([0.0, 3.0, 15.0]))
        assert np.allclose(out, [0.0, 1.0, 2.0])

    def test_domain(self):
        with pytest.raises(ValueError):
            capacity.c_awgn(-0.5)
        with pytest.raises(ValueError):
            capacity.c_awgn(np.array([1.0, -1.0]))


class TestCompound:
    def test_alpha_zero_is_awgn(self):
        for s in SNRS:
            assert capacity.c_compound(0.0, s) == pytest.approx(capacity.c_awgn(s), rel=1e-15)

    def test_reference_point(self):
        # direct evaluation of [C(31.98) + C(8.02)] / 2
        direct = (0.5 * math.log2(1 + 31.98) + 0.5 * math.log2(1 + 8.02)) / 2.0
        assert capacity.c_compound(0.599, 20.0) == pytest.approx(direct, rel=1e-12)
        assert capacity.c_compound(0.599, 20.0) == pytest.approx(2.05416173178585, rel=1e-12)

    def test_high_snr_gap_approaches_sic_penalty(self):
        # horizontal distance between the compound and AWGN curves
        alpha = 0.599
        s = 1e7
        y = float(capacity.c_compound(alpha, s))
        s_awgn = 2.0 ** (2.0 * y) - 1.0
        gap_db = 10.0 * math.log10(s / s_awgn)
        assert gap_db == pytest.approx(capacity.penalties_db(alpha).sic_db, abs=1e-5)
        assert gap_db == pytest.approx(0.965, abs=1e-3)

    def test_approximation_error_is_one_over_snr(self):
        # dyadic sweep: error decreases monotonically (once past the low-SNR
        # knee at high alpha) and halves per octave
        for alpha in (0.3, 0.599, 0.9):
            snrs = 2.0 ** np.arange(0, 15)
            err = np.array(
                [
                    float(capacity.c_compound(alpha, s) - capacity.c_compound_approx(alpha, s))
                    for s in snrs
                ]
            )
            assert np.all(err > 0)
            assert np.all(np.diff(err[1:]) < 0)
            ratios = err[8:] / err[7:-1]
            assert np.all(np.abs(ratios - 0.5) < 0.05)

    def test_ordering_invariant(self):
        for alpha in ALPHAS:
            for s in SNRS:
                nj = float(capacity.c_nonjoint(alpha, s))
                par = float(capacity.c_parallel(alpha, s))
                comp = float(capacity.c_compound(alpha, s))
                awgn = capacity.c_awgn(s)
                assert nj <= par + 1e-15
                assert par <= comp + 1e-15
                assert comp <= awgn + 1e-15

    def test_parallel_identity(self):
        for alpha in ALPHAS:
            for s in SNRS:
                lhs = float(capacity.c_parallel(alpha, s))
                rhs = 2.0 * float(capacity.c_compound(alpha, s)) - capacity.c_awgn(s)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_inverse_round_trip(self):
        for alpha in ALPHAS:
            for s in SNRS:
                rate = float(capacity.c_compound(alpha, s))
                assert capacity.inverse_c_compound(alpha, rate) == pytest.approx(s, rel=1e-10)


class TestPenalties:
    def test_reference_triple(self):
        pen = capacity.penalties_db(0.599)
        assert pen.nonjoint_db == pytest.approx(3.968, abs=1e-3)
        assert pen.parallel_db == pytest.approx(1.931, abs=1e-3)
        assert pen.sic_db == pytest.approx(0.965, abs=1e-3)

    def test_alpha_zero(self):
        pen = capacity.penalties_db(0.0)
        assert pen.nonjoint_db == pen.parallel_db == pen.sic_db == 0.0

    def test_sic_is_half_parallel(self):
        for alpha in (0.1, 0.3, 0.599, 0.9, 0.99):
            pen = capacity.penalties_db(alpha)
            assert pen.sic_db == pytest.approx(pen.parallel_db / 2.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            capacity.penalties_db(1.0)


class TestWorstCaseSearch:
    def test_recovers_symmetric_split_and_extremal_gamma(self):
        search = capacity.worst_case_search(0.599, 20.0)
        assert search.beta_star == pytest.approx(0.5, abs=1.0 / 200)
        assert search.all_extremal
        assert search.defect_bits < 1e-9

    def test_gamma_star_signs(self):
        search = capacity.worst_case_search(0.599, 20.0)
        betas = search.beta_grid
        g_at = lambda b: search.gamma_star[int(np.argmin(np.abs(betas - b)))]
        assert g_at(0.3) == pytest.approx(+0.599, rel=1e-12)
        assert g_at(0.7) == pytest.approx(-0.599, rel=1e-12)

    def test_alpha_zero_objective_constant(self):
        search = capacity.worst_case_search(0.0, 20.0, n_beta=51, n_gamma=11)
        # the min over gamma is the same function of beta; at alpha=0 the
        # adversary has no freedom, so only beta moves the objective
        assert search.min_value.max() == pytest.approx(search.max_min_bits, rel=1e-15)
        assert search.defect_bits < 1e-12

    def test_matches_closed_form_across_alphas(self):
        for alpha in (0.1, 0.3, 0.599, 0.9):
            search = capacity.worst_case_search(alpha, 20.0)
            assert search.all_extremal
            assert search.defect_bits < 1e-9


class TestStarProperty:
    def test_universal_precoder_real(self):
        rep = capacity.verify_star_property(
            precoder_real(), 0.599, 20.0, n_gamma=41, n_theta=32
        )
        assert rep.passed
        assert rep.gap_bits < 1e-9
        # the min-sum side is the compound capacity for any orthogonal precoder
        assert rep.lhs_bits == pytest.approx(float(capacity.c_compound(0.599, 20.0)), abs=1e-12)

    def test_universal_precoder_complex_small_grid(self):
        rep = capacity.verify_star_property(
            precoder_complex(), 0.599, 20.0, n_gamma=21, n_theta=16, n_phi=8
        )
        assert rep.passed
        assert rep.lhs_bits == pytest.approx(float(capacity.c_compound(0.599, 20.0)), abs=1e-12)
        for p in (rep.lhs_point, *rep.min_stream_points):
            assert p.phi in np.linspace(0.0, 2 * math.pi, 8, endpoint=False)

    def test_column_swap_fails(self):
        swapped = permute_columns(precoder_real(), (0, 2, 1, 3))
        rep = capacity.verify_star_property(swapped, 0.5, 20.0, n_gamma=41, n_theta=32)
        assert not rep.passed
        assert rep.gap_bits > 0.01
        # chain rule still pins the min-sum side
        assert rep.lhs_bits == pytest.approx(float(capacity.c_compound(0.5, 20.0)), abs=1e-12)

    def test_identity_precoder_fails(self):
        rep = capacity.verify_star_property(
            identity_precoder(Model.REAL), 0.599, 20.0, n_gamma=41, n_theta=32
        )
        assert not rep.passed
        assert rep.gap_bits > 0.01

    def test_gap_nonnegative(self):
        rng = np.random.default_rng(0)
        # random orthogonal precoders: gap can be anything >= 0
        for _ in range(5):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            rep = capacity.verify_star_property(
                Precoder(q, Model.REAL), 0.4, 10.0, n_gamma=11, n_theta=8
            )
            assert rep.gap_bits >= -1e-12

    def test_column_swap_reports_lattice_points(self):
        swapped = permute_columns(precoder_real(), (0, 2, 1, 3))
        rep = capacity.verify_star_property(swapped, 0.5, 20.0, n_gamma=41, n_theta=32)
        points = (rep.lhs_point, *rep.min_stream_points)
        assert len(points) == 1 + swapped.n_streams
        for p in points:
            assert p.gamma in np.linspace(-0.5, 0.5, 41)
            assert p.theta in np.linspace(0.0, 2 * math.pi, 32, endpoint=False)
            assert p.phi is None

        def snrs_at(p):
            return capacity.successive_stream_snrs(grams(p, swapped), 20.0)

        # each point is where its minimum is attained
        rate_sum = float(np.sum(capacity.c_awgn(snrs_at(rep.lhs_point))))
        assert rate_sum / swapped.n_streams == pytest.approx(rep.lhs_bits, rel=1e-12)
        for i, p in enumerate(rep.min_stream_points):
            assert snrs_at(p)[i] == pytest.approx(rep.min_stream_snrs[i], rel=1e-12)

    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("alpha", [1e-6, 0.999999, 1.0 - 1e-9])
    @pytest.mark.parametrize("snr", [1e-3, 1e6])
    def test_universal_precoder_at_numerical_edges(self, model, alpha, snr):
        rep = capacity.verify_star_property(
            UNIVERSAL[model], alpha, snr, n_gamma=5, n_theta=16, n_phi=4
        )
        assert rep.passed
        want = float(capacity.c_compound(alpha, snr))
        assert abs(rep.lhs_bits - want) < capacity.STAR_TOL_BITS

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_invalid_snr(self, bad):
        with pytest.raises(ValueError):
            capacity.verify_star_property(precoder_real(), 0.5, bad, n_gamma=3, n_theta=4)

    @pytest.mark.parametrize("grid", [{"n_gamma": 0}, {"n_theta": 0}, {"n_phi": 0}])
    def test_rejects_empty_grid(self, grid):
        with pytest.raises(ValueError, match="at least 1"):
            capacity.verify_star_property(precoder_complex(), 0.5, 20.0, **{"n_gamma": 3, **grid})

    def test_successive_snrs_match_equalizer_route(self):
        # stage engine vs explicit LMMSE equalizer statistics on the
        # interference channel with leading streams removed
        rng = np.random.default_rng(1)
        snr = SnrSpec(20.0)
        for model, pre in ((Model.REAL, precoder_real()), (Model.COMPLEX, precoder_complex())):
            phi = rng.uniform(0, 2 * math.pi) if model is Model.COMPLEX else None
            params = ChannelParams(rng.uniform(-0.9, 0.9), rng.uniform(0, 2 * math.pi), phi)
            eff = effective_channel(params, pre, snr)
            h = eff.matrix
            gram = h.T @ h
            succ = capacity.successive_stream_snrs(gram, 20.0)
            first = stream_statistics(eff, lmmse_equalizer(eff)).snr_per_stream[0]
            assert succ[0] == pytest.approx(first, rel=1e-10)
            for i in range(1, h.shape[1]):
                sub = h[:, i:]
                e = sub.T @ np.linalg.inv(sub @ sub.T + np.eye(h.shape[0]) / 20.0)
                ref = _statistics(sub, e, 20.0).snr_per_stream[0]
                assert succ[i] == pytest.approx(ref, rel=1e-10)


class TestSuccessiveStreamSnrs:
    @settings(max_examples=200, deadline=None)
    @given(random_grams(), st.floats(1e-3, 1e6))
    def test_cholesky_pivots_match_inverses(self, gram, snr):
        # Both references form I + snr * Gram and subtract 1 at the end, so
        # each of their stream SNRs carries an absolute rounding error of about
        # one ulp of 1: at a stream SNR near 1e-7 (snr 1e-3, |gamma| 0.999999)
        # that alone is ~1e-9 relative.  Hence the absolute floor.
        floor = 16 * np.finfo(float).eps
        got = capacity.successive_stream_snrs(gram, snr)
        single = capacity.successive_stream_snrs(gram[0], snr)
        assert single.shape == (gram.shape[-1],)
        for ref in (inverse_stream_snrs(gram, snr), cholesky_stream_snrs(gram, snr)):
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=floor)
            np.testing.assert_allclose(single, ref[0], rtol=1e-9, atol=floor)

    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("snr", [1e-6, 1e-3, 1.0, 1e6])
    def test_schur_form_is_accurate_at_tiny_stream_snrs(self, model, snr):
        # The Schur form snr * G_kk - sum_j U_kj^2 never adds and removes the 1
        # of I + snr * Gram, so its only loss is that subtraction's
        # cancellation: relative error within 8 eps * snr * G_kk / SNR_k of
        # the exact SNRs of the same float Gram, for stream SNRs from 1e-6 up.
        gamma, theta, phi = np.meshgrid(
            [-(1.0 - 1e-6), -0.6, 0.0, 0.3, 1.0 - 1e-6], [0.0, 1.0, 2.9], [0.4, 5.0])
        if model is Model.REAL:
            gamma, theta, phi = gamma[..., 0], theta[..., 0], None
        else:
            phi = phi.ravel()
        stack = grams(ChannelParams(gamma.ravel(), theta.ravel(), phi), UNIVERSAL[model])
        eps = np.finfo(float).eps
        for gram, got in zip(stack, capacity.successive_stream_snrs(stack, snr)):
            exact = exact_stream_snrs(gram, snr)
            assert np.all(np.abs(got / exact - 1.0) <= 8 * eps * snr * np.diagonal(gram) / exact)

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.inf, -math.inf, math.nan])
    def test_rejects_invalid_snr(self, bad):
        gram = grams(ChannelParams(0.5, 1.0), precoder_real())
        with pytest.raises(ValueError):
            capacity.successive_stream_snrs(gram, bad)

    def test_reads_only_the_upper_triangle(self):
        # why the Gram must be symmetric: the factorization of the reversed
        # matrix never looks below the Gram's diagonal
        gram = grams(ChannelParams(0.5, 1.0, 2.0), precoder_complex())
        lower_changed = gram + np.tril(np.ones_like(gram), k=-1)
        assert np.array_equal(
            capacity.successive_stream_snrs(lower_changed, 20.0),
            capacity.successive_stream_snrs(gram, 20.0),
        )


class TestMeanIdentity:
    def test_pdl_pair(self):
        rep = capacity.mean_identity_check(1.599, 0.401)
        assert rep.arithmetic == pytest.approx(1.0, abs=1e-15)
        assert rep.product_defect < 1e-15

    def test_equal_inputs(self):
        rep = capacity.mean_identity_check(3.0, 3.0)
        assert rep.arithmetic == rep.geometric == rep.harmonic == 3.0
        assert rep.product_defect == 0.0

    def test_textbook_values(self):
        rep = capacity.mean_identity_check(2.0, 8.0)
        assert rep.arithmetic == 5.0
        assert rep.geometric == pytest.approx(4.0, rel=1e-15)
        assert rep.harmonic == pytest.approx(3.2, rel=1e-15)
        assert rep.product_defect < 1e-14

    def test_chain_defect_small(self):
        for g in np.linspace(-0.99, 0.99, 67):
            for s in (1.0, 20.0, 1000.0):
                rep = capacity.mean_identity_check(1.0 + g, 1.0 - g, snr=s)
                assert rep.chain_defect_bits < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            capacity.mean_identity_check(0.0, 1.0)
        with pytest.raises(ValueError):
            capacity.mean_identity_check(1.0, -2.0)
