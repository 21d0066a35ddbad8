"""Channel class: conversions, matrices, sampling, energy preservation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdlsic.channel import (
    FACTOR_LAYOUT,
    TWO_PI,
    ChannelParams,
    Model,
    SampleMode,
    SnrSpec,
    alpha_from_pdl_db,
    channel_factors,
    channel_matrix,
    draw_params,
    lattice,
    lattice_axes,
    pdl_db_from_alpha,
    sample_params,
)


class TestDbConversions:
    def test_reference_value(self):
        # 0.599 is the standard worst case quoted as 6 dB
        assert pdl_db_from_alpha(0.599) == pytest.approx(6.007, abs=1e-3)

    def test_zero_alpha_is_zero_db(self):
        assert pdl_db_from_alpha(0.0) == 0.0
        assert alpha_from_pdl_db(0.0) == 0.0

    def test_one_third_gives_log_two(self):
        # (1 + 1/3)/(1 - 1/3) = 2 exactly
        assert pdl_db_from_alpha(1.0 / 3.0) == pytest.approx(
            10.0 * math.log10(2.0), rel=1e-12
        )

    def test_six_db_inverse(self):
        assert alpha_from_pdl_db(6.0) == pytest.approx(0.5985, abs=1e-4)

    def test_mutual_inverses_over_grid(self):
        for alpha in np.linspace(0.0, 0.99, 199):
            db = pdl_db_from_alpha(alpha)
            back = alpha_from_pdl_db(db)
            assert back == pytest.approx(alpha, rel=1e-12, abs=1e-12)
            if alpha > 0:
                assert pdl_db_from_alpha(back) == pytest.approx(db, rel=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
    def test_alpha_domain(self, bad):
        with pytest.raises(ValueError):
            pdl_db_from_alpha(bad)

    def test_negative_db_rejected(self):
        with pytest.raises(ValueError):
            alpha_from_pdl_db(-1.0)


class TestTypes:
    def test_snr_spec_roundtrip(self):
        spec = SnrSpec.from_db(13.0103)
        assert spec.snr_linear == pytest.approx(20.0, abs=1e-3)
        assert SnrSpec(20.0).snr_db == pytest.approx(10.0 * math.log10(20.0), rel=1e-12)
        with pytest.raises(ValueError):
            SnrSpec(0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_snr_spec_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            SnrSpec(bad)
        with pytest.raises(ValueError):
            SnrSpec.from_db(bad)

    def test_snr_spec_rejects_overflowing_db(self):
        with pytest.raises(ValueError):
            SnrSpec.from_db(1e4)

    def test_params_normalize_angles(self):
        p = ChannelParams(0.1, -math.pi, 4.0 * math.pi + 0.5)
        assert 0.0 <= p.theta < 2.0 * math.pi
        assert 0.0 <= p.phi < 2.0 * math.pi
        assert p.model is Model.COMPLEX
        assert ChannelParams(0.1, 0.3).model is Model.REAL
        # a tiny negative angle rounds to exactly 2*pi under % 2*pi; it must land on 0
        tiny = ChannelParams(0.1, -1e-17, -1e-17)
        assert tiny.theta == tiny.phi == 0.0
        stack = ChannelParams(np.array([0.1, 0.2]), np.array([-1e-17, 1.0]), np.array([0.5, -1e-17]))
        assert np.array_equal(stack.theta, [0.0, 1.0])
        assert np.array_equal(stack.phi, [0.5, 0.0])

    def test_params_gamma_domain(self):
        with pytest.raises(ValueError):
            ChannelParams(1.0, 0.0)


class TestMatrices:
    def test_real_identity(self):
        m = channel_matrix(ChannelParams(0.0, 0.0))
        assert np.allclose(m, np.eye(2))
        assert m.shape == (2, 2)

    def test_real_pure_attenuation(self):
        alpha = 0.599
        m = channel_matrix(ChannelParams(alpha, 0.0))
        expect = np.diag([math.sqrt(1 + alpha), math.sqrt(1 - alpha)])
        assert np.allclose(m, expect, atol=1e-15)

    def test_real_squared_singular_values(self):
        m = channel_matrix(ChannelParams(0.5, math.pi / 4))
        sv2 = np.linalg.svd(m, compute_uv=False) ** 2
        assert np.allclose(sorted(sv2), [0.5, 1.5], atol=1e-12)

    def test_complex_identity(self):
        m = channel_matrix(ChannelParams(0.0, 0.0, 0.0))
        assert np.allclose(m, np.eye(4))

    def test_complex_phi_zero_is_block_real(self):
        p = ChannelParams(0.4, 1.1, 0.0)
        m4 = channel_matrix(p)
        m2 = channel_matrix(ChannelParams(0.4, 1.1))
        assert np.allclose(m4[:2, :2], m2, atol=1e-15)
        assert np.allclose(m4[2:, 2:], m2, atol=1e-15)
        assert np.allclose(m4[:2, 2:], 0.0)
        assert np.allclose(m4[2:, :2], 0.0)

    def test_complex_squared_singular_values(self):
        m = channel_matrix(ChannelParams(0.3, 1.0, 2.0))
        sv2 = np.linalg.svd(m, compute_uv=False) ** 2
        assert np.allclose(sorted(sv2), [0.7, 0.7, 1.3, 1.3], atol=1e-10)

    def test_singular_values_across_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            g = rng.uniform(-0.95, 0.95)
            p = ChannelParams(g, rng.uniform(0, 7), rng.uniform(0, 7))
            sv2 = np.linalg.svd(channel_matrix(p), compute_uv=False) ** 2
            assert np.allclose(sorted(sv2), sorted([1 - g, 1 - g, 1 + g, 1 + g]), atol=1e-10)

    def test_real_representation_pairing(self):
        # complex model matrix must be the real representation [[A,-B],[B,A]]
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = ChannelParams(rng.uniform(-0.9, 0.9), rng.uniform(0, 7), rng.uniform(0, 7))
            m = channel_matrix(p)
            assert np.abs(m[:2, :2] - m[2:, 2:]).max() < 1e-12
            assert np.abs(m[:2, 2:] + m[2:, :2]).max() < 1e-12

    def test_energy_preservation(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = ChannelParams(rng.uniform(-0.99, 0.99), rng.uniform(0, 7), rng.uniform(0, 7))
            h = channel_matrix(p)
            assert np.trace(h.T @ h) == pytest.approx(h.shape[0], abs=1e-12)

    def test_energy_preservation_on_stacks(self):
        # trace(H^T H) = d for every member of a (gamma, theta, phi) lattice stack
        g, t, f = np.meshgrid(np.linspace(-0.9, 0.9, 10), np.linspace(0, 6.2, 10),
                              np.linspace(0, 6.2, 10), indexing="ij")
        for h in (channel_matrix(ChannelParams(g, t, f)), channel_matrix(ChannelParams(g, t))):
            assert h.shape == g.shape + (h.shape[-1],) * 2
            energy = np.trace(np.swapaxes(h, -1, -2) @ h, axis1=-2, axis2=-1)
            assert np.abs(energy / h.shape[-1] - 1.0).max() < 1e-10


def written_out_entries(gamma, theta, phi):
    """D_gamma @ R_theta (@ B_phi) written out by hand, each entry one rounded product."""
    c, s = np.cos(theta), np.sin(theta)
    rp, rm = np.sqrt(1.0 + gamma), np.sqrt(1.0 - gamma)
    a, b, e, f = rp * c, rp * s, rm * s, rm * c
    if phi is None:
        return [[a, -b], [e, f]]
    cp, sp = np.cos(phi), np.sin(phi)
    return [
        [a * cp, -(b * cp), -(a * sp), -(b * sp)],
        [e * cp, f * cp, -(e * sp), f * sp],
        [a * sp, b * sp, a * cp, -(b * cp)],
        [e * sp, -(f * sp), e * cp, f * cp],
    ]


class TestFactors:
    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
    def test_entries_are_the_products_of_their_factors(self, model, shape):
        # bit for bit, so channel_matrix and every Monte Carlo report keep their bytes
        rng = np.random.default_rng(len(shape))
        gamma = rng.uniform(-0.99, 0.99, shape)
        theta, phi = rng.uniform(-20.0, 20.0, (2,) + shape)
        if shape == (7,):  # signed zeros, and theta = pi
            gamma[:3] = [0.0, -0.0, 0.5]
            theta[:3], phi[:3] = [0.0, -0.0, math.pi], [-0.0, 0.0, 0.0]
        params = ChannelParams(gamma, theta, phi if model is Model.COMPLEX else None)
        t, p = channel_factors(params.gamma, params.theta, params.phi)
        want = written_out_entries(params.gamma, params.theta, params.phi)
        matrix = channel_matrix(params)
        assert matrix.shape == shape + (model.dim, model.dim)
        assert len(FACTOR_LAYOUT[model]) == model.dim
        for i, (want_row, layout_row) in enumerate(zip(want, FACTOR_LAYOUT[model])):
            for j, (expect, (sign, u, v)) in enumerate(zip(want_row, layout_row)):
                product = np.asarray(sign * t[u] * p[v])
                got, expect = matrix[..., i, j].tobytes(), np.asarray(expect).tobytes()
                assert got == product.tobytes() == expect


class TestSampling:
    def test_alpha_zero_all_gamma_zero(self):
        for mode in (SampleMode.WORST_CASE_EDGE, SampleMode.UNIFORM_INTERIOR):
            assert all(p.gamma == 0.0 for p in sample_params(0.0, mode, Model.REAL, seed=1, count=50))
        for model in Model:
            assert np.all(lattice(0.0, model, 5, 4, 3).gamma == 0.0)

    def test_edge_mode_is_extremal(self):
        both_signs = set()
        for p in sample_params(0.599, SampleMode.WORST_CASE_EDGE, Model.COMPLEX, seed=2, count=200):
            assert abs(p.gamma) == pytest.approx(0.599, rel=1e-15)
            assert p.phi is not None
            both_signs.add(np.sign(p.gamma))
        assert both_signs == {-1.0, 1.0}

    def test_interior_mode_within_bounds(self):
        for p in sample_params(0.4, SampleMode.UNIFORM_INTERIOR, Model.REAL, seed=3, count=500):
            assert abs(p.gamma) <= 0.4
            assert p.phi is None

    def test_deterministic_for_seed(self):
        a = list(sample_params(0.3, SampleMode.UNIFORM_INTERIOR, Model.COMPLEX, seed=9, count=20))
        b = list(sample_params(0.3, SampleMode.UNIFORM_INTERIOR, Model.COMPLEX, seed=9, count=20))
        assert a == b

    def test_random_modes_require_count(self):
        with pytest.raises(ValueError):
            list(sample_params(0.3, SampleMode.WORST_CASE_EDGE, Model.REAL))


def reference_lattice(alpha, model, n_gamma, n_theta, n_phi):
    """The lattice points in order, gamma outermost and phi innermost, from a triple loop."""
    points = []
    for i in range(n_gamma):
        g = alpha * (2.0 * i / (n_gamma - 1) - 1.0) if n_gamma > 1 else -alpha
        for j in range(n_theta):
            for k in range(n_phi if model is Model.COMPLEX else 1):
                p = TWO_PI * k / n_phi if model is Model.COMPLEX else None
                points.append((g, TWO_PI * j / n_theta, p))
    return points


class TestLattice:
    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0, exclude_max=True),
        model=st.sampled_from(list(Model)),
        n_gamma=st.integers(1, 9),
        n_theta=st.integers(1, 9),
        n_phi=st.integers(1, 9),
    )
    def test_matches_the_triple_loop(self, alpha, model, n_gamma, n_theta, n_phi):
        grid = lattice(alpha, model, n_gamma, n_theta, n_phi)
        expect = reference_lattice(alpha, model, n_gamma, n_theta, n_phi)
        sheet = len(expect) // n_gamma
        assert grid.model is model
        assert grid.gamma.shape == (n_gamma, 1) and grid.theta.shape == (1, sheet)
        fields = [grid.gamma, grid.theta] + ([] if grid.phi is None else [grid.phi])
        got = np.stack([f.ravel() for f in np.broadcast_arrays(*fields)], axis=1)
        want = np.array([point[:len(fields)] for point in expect])
        assert np.abs(got - want).max() < 1e-14  # the same points in the same order
        assert grid.gamma[0, 0] == -alpha and grid.gamma[-1, 0] == (alpha if n_gamma > 1 else -alpha)
        assert grid.theta[0, 0] == 0.0 and grid.theta.max() < TWO_PI
        if model is Model.COMPLEX:
            assert grid.phi.shape == (1, sheet) and grid.phi.max() < TWO_PI
        # sheet point j is theta j // n_phi and phi j % n_phi of the axes
        gammas, theta, phi = lattice_axes(alpha, model, n_gamma, n_theta, n_phi)
        j = np.arange(sheet)
        assert np.array_equal(grid.gamma[:, 0], gammas)
        assert np.array_equal(grid.theta[0], theta[j // (1 if phi is None else n_phi)])
        assert phi is None if model is Model.REAL else np.array_equal(grid.phi[0], phi[j % n_phi])
        # the broadcast fields give the matrices of the whole lattice, point k at [k // S, k % S]
        h = channel_matrix(grid)
        assert h.shape == (n_gamma, sheet, model.dim, model.dim)
        per_point = np.array([channel_matrix(ChannelParams(*point)) for point in expect])
        assert np.abs(h.reshape(per_point.shape) - per_point).max() < 1e-14


def scalar_draws(alpha, mode, model, seed, count):
    """Reference stream: one point at a time from default_rng(seed), gamma then theta then phi."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        if mode is SampleMode.WORST_CASE_EDGE:
            g = -alpha if rng.random() < 0.5 else alpha
        else:
            g = rng.uniform(-alpha, alpha)
        t = rng.uniform(0.0, TWO_PI)
        p = rng.uniform(0.0, TWO_PI) if model is Model.COMPLEX else None
        points.append((g, t, p))
    gamma, theta, phi = (np.array(x) for x in zip(*points))
    return ChannelParams(gamma, theta, phi if model is Model.COMPLEX else None)


class TestDrawParams:
    @settings(max_examples=200, deadline=None)
    @given(
        mode=st.sampled_from([SampleMode.WORST_CASE_EDGE, SampleMode.UNIFORM_INTERIOR]),
        model=st.sampled_from(list(Model)),
        seed=st.integers(0, 2**128),
        alpha=st.floats(0.0, 1.0, exclude_max=True),
        count=st.integers(1, 41),
    )
    def test_matches_the_scalar_stream(self, mode, model, seed, alpha, count):
        drawn = draw_params(alpha, mode, model, seed, count)
        expect = scalar_draws(alpha, mode, model, seed, count)
        assert np.array_equal(drawn.gamma, expect.gamma)
        assert np.array_equal(drawn.theta, expect.theta)
        if model is Model.REAL:
            assert drawn.phi is None
        else:
            assert np.array_equal(drawn.phi, expect.phi)

    def test_takes_a_seed_sequence(self):
        seq = np.random.SeedSequence(7).spawn(2)[0]
        drawn = draw_params(0.6, SampleMode.WORST_CASE_EDGE, Model.COMPLEX, seq, 9)
        expect = scalar_draws(0.6, SampleMode.WORST_CASE_EDGE, Model.COMPLEX, seq, 9)
        assert np.array_equal(drawn.gamma, expect.gamma)
        assert np.array_equal(drawn.phi, expect.phi)

    def test_grid_is_not_random(self):
        with pytest.raises(ValueError):
            draw_params(0.3, SampleMode.GRID, Model.REAL, 0, 5)

    @pytest.mark.parametrize("mode", [SampleMode.WORST_CASE_EDGE, SampleMode.UNIFORM_INTERIOR])
    @pytest.mark.parametrize("alpha", [-0.1, 1.0, 1.5, math.nan])
    def test_rejects_alpha_outside_unit_interval(self, alpha, mode):
        with pytest.raises(ValueError, match="alpha"):
            draw_params(alpha, mode, Model.REAL, 0, 5)
