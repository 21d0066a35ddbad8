"""Capacity closed forms against their brute-force and grid oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdlsic import capacity
from pdlsic.channel import ChannelParams, Model, SnrSpec, channel_matrix, lattice, lattice_axes
from pdlsic.equalize import _statistics, lmmse_equalizer, stream_statistics
from pdlsic.precode import (
    Precoder,
    effective_channel,
    gram,
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


def dense_stream_snrs(gram, snr):
    """The kernel's Schur-form reverse Cholesky with every entry formed: its bitwise reference."""
    n = gram.shape[-1]
    u = [[None] * n for _ in range(n)]
    out = np.empty((n,) + gram.shape[:-2])
    for i in range(n - 1, -1, -1):
        schur = np.multiply(snr, gram[..., i, i], out=out[i, ...])
        for j in range(i + 1, n):
            schur -= u[i][j] ** 2
        pivot = np.sqrt(schur + 1.0)
        for k in range(i):
            x = snr * gram[..., k, i]
            for j in range(i + 1, n):
                x -= u[k][j] * u[i][j]
            x /= pivot
            u[k][i] = x
    return np.moveaxis(out, 0, -1)


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


def sheet_gram(precoder: Precoder, gamma, theta, phi) -> np.ndarray:
    """The star oracle's Gram over (gamma, theta) rows x the phi axis as an ``(S, n, n)`` stack.

    The entries the plan leaves out, and the lower triangle, are 0.0.
    """
    n, n_phi = precoder.n_streams, 1 if phi is None else len(phi)
    plan = capacity._gram_plan(precoder, phi)
    rows = capacity._gram(gamma, theta, plan, np.empty((len(plan[1]), len(theta) * n_phi)))
    stack = np.zeros((rows.shape[1], n, n))
    for (a, b), row in zip(plan[1], rows):
        stack[:, a, b] = row
    return stack


@st.composite
def sheet_grams(draw):
    """Oracle Gram stacks with 0-2 leading axes, of a universal, identity, column-permuted,
    signed-permutation or random (QR) orthogonal precoder.

    All but the random one have Gram entries that are 0.0 at every point, and
    all but it and the real identity and signed-permutation ones have kernel
    entries that fill in; theta 0 adds entries that are 0.0 at some points only.
    """
    model = draw(st.sampled_from(Model))
    n = 2 * model.dim
    kind = draw(st.sampled_from(["universal", "identity", "permuted", "signed", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "universal":
        pre = UNIVERSAL[model]
    elif kind == "identity":
        pre = identity_precoder(model)
    elif kind == "permuted":
        pre = permute_columns(UNIVERSAL[model], tuple(rng.permutation(n)))
    elif kind == "signed":
        pre = Precoder(np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], n), model)
    else:
        pre = Precoder(np.linalg.qr(rng.normal(size=(n, n)))[0], model)
    rows = draw(st.integers(1, 4))
    gamma = np.array(draw(st.lists(st.floats(-0.999999, 0.999999), min_size=rows, max_size=rows)))
    theta = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2 * math.pi)),
                                   min_size=rows, max_size=rows)))
    phi = None if model is Model.REAL else rng.uniform(0.0, 2 * math.pi, draw(st.integers(1, 3)))
    g = sheet_gram(pre, gamma, theta, phi)
    axes = draw(st.sampled_from([(), (len(g),), (rows, len(g) // rows)]))
    return g[0] if axes == () else g.reshape(*axes, n, n)


class TestAwgn:
    def test_values(self):
        assert capacity.c_awgn(0.0) == 0.0
        assert capacity.c_awgn(3.0) == pytest.approx(1.0, abs=1e-15)
        assert capacity.c_awgn(20.0) == pytest.approx(0.5 * math.log2(21.0), rel=1e-15)
        assert capacity.c_awgn(20.0) == pytest.approx(2.196, abs=1e-3)

    def test_array_input(self):
        out = capacity.c_awgn(np.array([0.0, 3.0, 15.0]))
        assert np.allclose(out, [0.0, 1.0, 2.0])

    def test_within_an_ulp_of_50_digits(self):
        # 0.5*log2(1 + s) rounds 1 + s first: 6.1e-9 off at s = 1e-8, 11% off at 1e-15
        s = np.concatenate([np.logspace(-300, 300, 601), [1e-8, 1e-12, 1e-15, 0.5, 3.0]])
        with mpmath.workdps(50):
            want = np.array([float(mpmath.log1p(mpmath.mpf(x)) / (2 * mpmath.ln2)) for x in s])
        got = capacity.c_awgn(s)
        assert np.all(np.abs(got - want) <= np.spacing(want))
        assert [capacity.c_awgn(float(x)) for x in s] == got.tolist()

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
        assert gap_db == pytest.approx(capacity.penalties_db(alpha).sic, abs=1e-5)
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
        assert pen.nonjoint == pytest.approx(3.968, abs=1e-3)
        assert pen.parallel == pytest.approx(1.931, abs=1e-3)
        assert pen.sic == pytest.approx(0.965, abs=1e-3)

    def test_alpha_zero(self):
        pen = capacity.penalties_db(0.0)
        assert pen.nonjoint == pen.parallel == pen.sic == 0.0

    def test_sic_is_half_parallel(self):
        for alpha in (0.1, 0.3, 0.599, 0.9, 0.99):
            pen = capacity.penalties_db(alpha)
            assert pen.sic == pytest.approx(pen.parallel / 2.0, rel=1e-12)

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

    def test_overflow_is_refused_not_failed(self):
        # (1 + alpha) * snr overflows: the defect would read nan, a failed proof
        with pytest.raises(ValueError, match="float range"):
            capacity.worst_case_search(0.9, 1e308, n_beta=5, n_gamma=5)


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

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(list(Model)),
        st.sampled_from(["universal", "identity", "permuted", "random"]),
        st.floats(0.0, 0.999999),
        st.floats(-14.0, 6.0).map(lambda e: 10.0**e),
        st.integers(1, 5), st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**32 - 1),
    )
    def test_gap_nonnegative(self, model, control, alpha, snr, n_gamma, n_theta, n_phi, seed):
        # both sides sum log1p in the same order, so rhs <= lhs holds in floats
        pre = identity_precoder(model) if control == "identity" else UNIVERSAL[model]
        n = pre.n_streams
        if control == "permuted":
            pre = permute_columns(pre, (0, 2, 1, 3) + tuple(range(4, n)))
        if control == "random":  # gap can be anything >= 0
            pre = Precoder(np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))[0], model)
        rep = capacity.verify_star_property(pre, alpha, snr, n_gamma, n_theta, n_phi)
        assert rep.gap_bits >= 0.0

    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("snr_db", [-100.0, -140.0])
    def test_both_sides_within_1e12_of_50_digits(self, model, snr_db):
        # summing log2(1 + SNR) rounds 1 + SNR first: 8.3e-8 relative off at -100 dB
        snr = SnrSpec.from_db(snr_db).snr_linear
        rep = capacity.verify_star_property(UNIVERSAL[model], 0.9, snr, n_gamma=5)
        with mpmath.workdps(50):
            s, a = mpmath.mpf(snr), mpmath.mpf(0.9)
            want = float((mpmath.log1p((1 + a) * s) + mpmath.log1p((1 - a) * s)) / (4 * mpmath.ln2))
        assert abs(rep.lhs_bits / want - 1.0) <= 1e-12
        assert abs(rep.rhs_bits / want - 1.0) <= 1e-12

    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("control", ["universal", "identity", "permuted"])
    @pytest.mark.parametrize(("alpha", "snr"), [(0.7, 20.0), (0.3, 1e-2), (0.95, 1e4)])
    def test_matches_the_lattice_reference(self, model, control, alpha, snr):
        # the sheet Gram of theta and phi factors against H^T H of every lattice point
        pre = identity_precoder(model) if control == "identity" else UNIVERSAL[model]
        n = pre.n_streams
        if control == "permuted":
            pre = permute_columns(pre, (0, 2, 1, 3) + tuple(range(4, n)))
        grid = lattice(alpha, model, 5, 16, 8)
        g = gram(effective_channel(grid, pre, SnrSpec(snr)).matrix).reshape(-1, n, n)
        snrs = capacity.successive_stream_snrs(g, snr)
        mins = snrs.min(axis=0)
        lhs = float((0.5 * np.log2(1.0 + snrs)).sum(axis=1).min()) / n
        rhs = float(np.sum(0.5 * np.log2(1.0 + mins))) / n
        rep = capacity.verify_star_property(pre, alpha, snr, n_gamma=5, n_theta=16, n_phi=8)
        eps = np.finfo(float).eps
        assert abs(rep.lhs_bits - lhs) <= 4 * eps * max(1.0, lhs)
        assert abs(rep.rhs_bits - rhs) <= 4 * eps * max(1.0, rhs)
        # each side within the kernel's bound, 8 eps * snr * Gram_ii / SNR_i, of the same SNRs
        bound = 16 * eps * snr * np.diagonal(g, axis1=1, axis2=2).max(axis=0) / mins
        assert np.all(np.abs(rep.min_stream_snrs / mins - 1.0) <= bound)

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


class TestSlabs:
    """Where the slab bound falls moves neither the report nor the lattice points it names."""

    # 112 rows in sheets of 16; 65 rows in sheets of 13, which plain runs of 2, 4 or 32
    # rows would end with a one-row run
    GRIDS = {"sheets": {"n_gamma": 7, "n_theta": 16, "n_phi": 8},
             "tail": {"n_gamma": 5, "n_theta": 13, "n_phi": 8}}

    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("control", ["universal", "identity", "permuted", "random"])
    @pytest.mark.parametrize("slab", ["theta-row", "in-sheet", "mid-run", "default"])
    @pytest.mark.parametrize("grid", ["sheets", "tail"])
    def test_slab_bound_keeps_the_report(self, model, control, slab, grid, monkeypatch):
        grid = self.GRIDS[grid]
        pre = identity_precoder(model) if control == "identity" else UNIVERSAL[model]
        n = pre.n_streams
        if control == "permuted":
            pre = permute_columns(pre, (0, 2, 1, 3) + tuple(range(4, n)))
        if control == "random":  # minima off |gamma| = alpha, in later slabs
            pre = Precoder(np.linalg.qr(np.random.default_rng(3).normal(size=(n, n)))[0], model)
        alpha, snr = 0.7, 20.0
        ref = capacity.verify_star_property(pre, alpha, snr, **grid)  # one slab
        gammas, theta, phi = lattice_axes(alpha, model, **grid)
        n_phi = 1 if phi is None else len(phi)
        sheet = len(theta) * n_phi
        # one theta row (runs of two), four rows, or 2.5 sheets: each ends inside a sheet
        bound = {"theta-row": n_phi, "in-sheet": 4 * n_phi, "mid-run": 5 * sheet // 2,
                 "default": capacity.SLAB}[slab]
        monkeypatch.setattr(capacity, "SLAB", bound)
        rep = capacity.verify_star_property(pre, alpha, snr, **grid)
        eps = np.finfo(float).eps
        assert abs(rep.lhs_bits - ref.lhs_bits) <= 4 * eps * max(1.0, ref.lhs_bits)
        assert abs(rep.rhs_bits - ref.rhs_bits) <= 4 * eps * max(1.0, ref.rhs_bits)
        assert np.all(np.abs(rep.min_stream_snrs / ref.min_stream_snrs - 1.0) <= 4 * eps)

        # each named point is a lattice point, and the lattice reference attains the
        # reported minimum there: the rate sum within 4 eps, a stream within the kernel bound
        points = lattice(alpha, model, **grid)
        g = gram(effective_channel(points, pre, SnrSpec(snr)).matrix).reshape(-1, n, n)
        snrs = capacity.successive_stream_snrs(g, snr)
        rates = (0.5 * np.log2(1.0 + snrs)).sum(axis=1) / n
        tol = 16 * eps * snr * np.diagonal(g, axis1=1, axis2=2).max(axis=0) / snrs.min(axis=0)

        def index(p):
            (gi,), (ti,) = np.flatnonzero(gammas == p.gamma), np.flatnonzero(theta == p.theta)
            (pi,) = [0] if phi is None else np.flatnonzero(phi == p.phi)
            return (gi * len(theta) + ti) * n_phi + pi

        assert abs(rates[index(rep.lhs_point)] - rep.lhs_bits) <= 4 * eps * max(1.0, rep.lhs_bits)
        for i, p in enumerate(rep.min_stream_points):
            assert abs(snrs[index(p), i] / rep.min_stream_snrs[i] - 1.0) <= tol[i]

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(list(Model)), st.integers(1, 6), st.integers(1, 20),
           st.integers(1, 40), st.integers(1, 200))
    def test_slabs_are_runs_of_whole_rows(self, model, n_gamma, n_theta, n_phi, bound):
        gammas, theta, phi = lattice_axes(0.7, model, n_gamma, n_theta, n_phi)
        n_phi = 1 if phi is None else n_phi
        rows, per = n_gamma * n_theta, max(2, bound // n_phi)
        seen, sizes = [], []
        gram_of, kernel = capacity._gram, capacity.successive_stream_snrs

        def recording_gram(gamma, theta, plan, out):
            seen.append(np.stack([gamma, theta]))
            return gram_of(gamma, theta, plan, out)

        def recording_kernel(gram, snr):
            sizes.append(len(gram[0, 0]))
            return kernel(gram, snr)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(capacity, "SLAB", bound)
            mp.setattr(capacity, "_gram", recording_gram)
            mp.setattr(capacity, "successive_stream_snrs", recording_kernel)
            capacity.verify_star_property(UNIVERSAL[model], 0.7, 20.0, n_gamma, n_theta, n_phi)
        # the slabs are the lattice's (gamma, theta) rows in order, each x the whole phi axis
        want = np.stack([np.repeat(gammas, n_theta), np.tile(theta, n_gamma)])
        assert np.array_equal(np.concatenate(seen, axis=1), want)
        assert sizes == [s.shape[1] * n_phi for s in seen]
        assert sum(sizes) == rows * n_phi
        for s in seen:  # per to 2 * per - 1 rows, or one slab of fewer rows than per
            assert per <= s.shape[1] <= 2 * per - 1 or len(seen) == 1 and rows < per
            assert s.shape[1] >= 2 or rows == 1

    @pytest.mark.parametrize(("model", "calls"), [
        (Model.REAL, 12),  # 201 * 256 rows of one point: 12 runs of 4288
        (Model.COMPLEX, 804),  # rows of 64 points: 804 runs of 64 rows
    ])
    def test_default_grid_kernel_calls(self, model, calls, monkeypatch):
        sizes = []
        kernel = capacity.successive_stream_snrs

        def counting(gram, snr):
            sizes.append(len(gram[0, 0]))
            return kernel(gram, snr)

        monkeypatch.setattr(capacity, "successive_stream_snrs", counting)
        rep = capacity.verify_star_property(UNIVERSAL[model], 0.599, 20.0)
        assert rep.passed
        assert len(sizes) == calls
        assert sum(sizes) == 201 * 256 * (64 if model is Model.COMPLEX else 1)

    @pytest.mark.parametrize("model", list(Model))
    def test_plan_leaves_out_exactly_the_entries_zero_on_every_slab(self, model, monkeypatch):
        # on every slab of the default grid each entry a plan keeps is nonzero somewhere, and
        # each it leaves out is 0 in H^T H = sum_j G_j^T (M^T M) G_j, G_j the rows of stream block j
        n, d = 2 * model.dim, model.dim
        pres = [UNIVERSAL[model], identity_precoder(model),
                permute_columns(UNIVERSAL[model], (0, 2, 1, 3) + tuple(range(4, n)))]
        phi = lattice_axes(0.599, model, n_phi=capacity.GRID_N_PHI)[2]  # the oracle's default
        plans = [capacity._gram_plan(pre, phi) for pre in pres]
        assert [len(plan[1]) for plan in plans] == ([20, 16, 20] if n == 8 else [8, 6, 8])
        left_out = []
        for pre, plan in zip(pres, plans):
            g = pre.entries.reshape(2, d, n)
            w = np.einsum("jka,jlb->klab", g, g).reshape(d * d, n, n)
            left = [(a, b) for a, b in zip(*np.triu_indices(n)) if (a, b) not in plan[1]]
            left_out.append(w[:, [a for a, _ in left], [b for _, b in left]])
        slabs, gram_of = [], capacity._gram

        def recording_gram(gamma, theta, plan, out):
            slabs.append((gamma.copy(), theta.copy()))
            return gram_of(gamma, theta, plan, out)

        monkeypatch.setattr(capacity, "_gram", recording_gram)
        monkeypatch.setattr(capacity, "successive_stream_snrs", lambda gram, snr: np.diagonal(gram))
        capacity.verify_star_property(pres[0], 0.599, 20.0)
        for gamma, theta in slabs:
            n_phi = 1 if phi is None else len(phi)
            j = np.arange(len(theta) * n_phi)
            m = channel_matrix(ChannelParams(gamma[j // n_phi], theta[j // n_phi],
                                             None if phi is None else phi[j % n_phi]))
            mtm = (np.swapaxes(m, -1, -2) @ m).reshape(len(j), d * d)
            for plan, w in zip(plans, left_out):
                rows = gram_of(gamma, theta, plan, np.empty((len(plan[1]), len(j))))
                assert (rows != 0.0).any(axis=1).all()
                assert np.abs(mtm @ w).max(initial=0.0) < 1e-12


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

    @settings(max_examples=200, deadline=None)
    @given(sheet_grams(), st.floats(1e-6, 1e8))
    def test_skipping_zeros_keeps_every_bit(self, gram, snr):
        assert np.array_equal(capacity.successive_stream_snrs(gram, snr),
                              dense_stream_snrs(gram, snr))

    @settings(max_examples=200, deadline=None)
    @given(sheet_grams(), st.floats(1e-6, 1e8), st.booleans())
    def test_entry_form_keeps_every_bit(self, gram, snr, none_for_zeros):
        # the oracle's form: one row per upper-triangle entry, None for an entry that is 0.0
        # throughout (or, when drawn so, its row of zeros), stream i's SNRs written over row (i, i)
        stack = gram.reshape(-1, *gram.shape[-2:])
        n = stack.shape[-1]
        entries = np.empty((n, n), object)
        for a, b in zip(*np.triu_indices(n)):
            if a == b or stack[:, a, b].any() or not none_for_zeros:
                entries[a, b] = stack[:, a, b].copy()
        off = {(a, b): row.copy() for (a, b), row in np.ndenumerate(entries)
               if a < b and row is not None}
        got = capacity.successive_stream_snrs(entries, snr)
        assert all(row is entries[i, i] for i, row in enumerate(got))
        got = np.stack(list(got), axis=-1)
        assert np.array_equal(got, capacity.successive_stream_snrs(stack, snr))
        assert np.array_equal(got, dense_stream_snrs(stack, snr))
        for (a, b), row in off.items():
            assert np.array_equal(entries[a, b], row)

    @pytest.mark.parametrize("model", list(Model))
    def test_keeps_an_entry_that_is_zero_at_some_points_only(self, model):
        # identity precoder: the sheet Gram has zeros at theta 0 that it lacks at theta 1
        phi = None if model is Model.REAL else np.array([0.3, 2.0])
        gram = sheet_gram(identity_precoder(model), np.array([0.5, 0.5]), np.array([0.0, 1.0]), phi)
        n = gram.shape[-1]
        partly = [(k, i) for k, i in zip(*np.triu_indices(n, 1))
                  if gram[0, k, i] == 0.0 and gram[:, k, i].any()]
        assert partly
        assert np.array_equal(capacity.successive_stream_snrs(gram, 20.0),
                              dense_stream_snrs(gram, 20.0))

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

    def test_overflow_is_refused_not_failed(self):
        # a * b * snr * snr overflows above snr 1.34e154: the chain defect would read inf
        assert capacity.mean_identity_check(1.5, 0.5, 1e154).chain_defect_bits < 1e-12
        with pytest.raises(ValueError, match="float range"):
            capacity.mean_identity_check(1.5, 0.5, 1e155)
