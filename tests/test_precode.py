"""Precoders and the orthogonal-design structure of the effective channel."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdlsic.channel import TWO_PI, ChannelParams, Model, SnrSpec, lattice_axes, lattice_points
from pdlsic.precode import (
    Precoder,
    effective_channel,
    gram,
    identity_precoder,
    permute_columns,
    precoder_complex,
    precoder_real,
    universal_precoder,
    verify_orthogonal_design,
)

SNR = SnrSpec(20.0)
EPS = np.finfo(float).eps


def random_params(rng, model):
    phi = rng.uniform(0, 2 * math.pi) if model is Model.COMPLEX else None
    return ChannelParams(rng.uniform(-0.95, 0.95), rng.uniform(0, 2 * math.pi), phi)


class TestPrecoderMatrices:
    def test_real_first_row(self):
        g = precoder_real().entries
        assert np.allclose(g[0], np.array([1, 0, 1, 0]) / math.sqrt(2))

    def test_complex_first_row(self):
        g = precoder_complex().entries
        assert np.allclose(g[0], np.array([1, 0, 0, 0, 1, 0, 0, 0]) / math.sqrt(2))

    @pytest.mark.parametrize("pre", [precoder_real(), precoder_complex()])
    def test_orthogonality(self, pre):
        g = pre.entries
        n = g.shape[0]
        assert np.abs(g @ g.T - np.eye(n)).max() < 1e-12
        assert np.abs(g.T @ g - np.eye(n)).max() < 1e-12

    @pytest.mark.parametrize("pre", [precoder_real(), precoder_complex()])
    def test_entries_are_signed_half_permutations(self, pre):
        mags = np.abs(pre.entries)
        nonzero = mags[mags > 0]
        assert np.allclose(nonzero, 1.0 / math.sqrt(2))
        # exactly two nonzeros per row and per column
        assert np.all((mags > 0).sum(axis=0) == 2)
        assert np.all((mags > 0).sum(axis=1) == 2)

    def test_constructor_rejects_non_orthogonal(self):
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            Precoder(bad, Model.REAL)

    def test_constructor_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            Precoder(np.eye(4), Model.COMPLEX)

    def test_permute_columns(self):
        pre = precoder_real()
        swapped = permute_columns(pre, (0, 2, 1, 3))
        assert np.allclose(swapped.entries[:, 1], pre.entries[:, 2])
        with pytest.raises(ValueError):
            permute_columns(pre, (0, 1, 2, 2))


class TestEffectiveChannel:
    def test_identity_channel_returns_precoder(self):
        pre = precoder_real()
        eff = effective_channel(ChannelParams(0.0, 0.0), pre, SNR)
        assert np.allclose(eff.matrix, pre.entries, atol=1e-15)

    def test_model_mismatch(self):
        with pytest.raises(ValueError):
            effective_channel(ChannelParams(0.1, 0.0, 0.0), precoder_real(), SNR)

    def test_real_gram_entries(self):
        # H^T H must be [[I, -S], [-S, I]] with S entries from gamma*cos/sin(2 theta)
        g, t = 0.437, 1.234
        eff = effective_channel(ChannelParams(g, t), precoder_real(), SNR)
        hth = eff.matrix.T @ eff.matrix
        c2, s2 = g * math.cos(2 * t), g * math.sin(2 * t)
        s_expect = np.array([[-c2, s2], [s2, c2]])
        assert np.abs(hth[:2, :2] - np.eye(2)).max() < 1e-12
        assert np.abs(hth[2:, 2:] - np.eye(2)).max() < 1e-12
        assert np.abs(hth[:2, 2:] + s_expect).max() < 1e-12
        off = np.abs(hth[:2, 2:]).ravel()
        for entry in off:
            assert min(abs(entry - abs(c2)), abs(entry - abs(s2)), entry) < 1e-12

    def test_h1_singular_values_are_one(self):
        eff = effective_channel(
            ChannelParams(0.599, 0.3, 2.1), precoder_complex(), SNR
        )
        sv = np.linalg.svd(eff.matrix[..., :4], compute_uv=False)
        assert np.allclose(sv, 1.0, atol=1e-12)

    def test_energy_preservation(self):
        rng = np.random.default_rng(0)
        for model, pre in ((Model.REAL, precoder_real()), (Model.COMPLEX, precoder_complex())):
            for _ in range(50):
                eff = effective_channel(random_params(rng, model), pre, SNR)
                h = eff.matrix
                assert np.trace(h.T @ h) == pytest.approx(h.shape[0], abs=1e-12)


def design_defect(rep) -> float:
    """The largest of the H1, H2 and symmetry defects of an orthogonal-design report."""
    return max(rep.max_dev_h1, rep.max_dev_h2, rep.symmetry_defect)


class TestOrthogonalDesign:
    @pytest.mark.parametrize(
        "model,pre",
        [(Model.REAL, precoder_real()), (Model.COMPLEX, precoder_complex())],
    )
    def test_random_draws_certify(self, model, pre):
        rng = np.random.default_rng(1)
        k = pre.n_streams // 2
        for _ in range(2000):
            eff = effective_channel(random_params(rng, model), pre, SNR)
            rep = verify_orthogonal_design(eff)
            assert design_defect(rep) < 1e-10
            # the blocks of the one Gram give the column halves' own defects
            for dev, half in ((rep.max_dev_h1, eff.matrix[..., :k]), (rep.max_dev_h2, eff.h2)):
                assert abs(dev - np.abs(gram(half) - np.eye(k)).max()) <= 4 * EPS

    def test_default_grid_certifies(self):
        for model, pre in ((Model.REAL, precoder_real()), (Model.COMPLEX, precoder_complex())):
            size = 11 * 16 * (8 if model is Model.COMPLEX else 1)
            # the whole lattice as one stack
            grid = lattice_points(lattice_axes(0.95, model, 11, 16, 8), np.arange(size))
            rep = verify_orthogonal_design(effective_channel(grid, pre, SNR))
            assert rep.coupling.shape[:1] == (size,)
            assert design_defect(rep) < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(
        model=st.sampled_from(list(Model)),
        sign=st.sampled_from([-1.0, 1.0]),
        magnitude=st.floats(1.0 - 1e-12, 1.0, exclude_max=True),
        theta=st.floats(0.0, TWO_PI, exclude_max=True),
        phi=st.floats(0.0, TWO_PI, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(Model.REAL, 1.0, np.nextafter(1.0, 0.0), 1.0, 0.0, 0)
    @example(Model.COMPLEX, -1.0, np.nextafter(1.0, 0.0), 2.0, 3.0, 1)
    def test_certifies_as_gamma_nears_one(self, model, sign, magnitude, theta, phi, seed):
        # the design must hold to 1e-10 all the way; any orthogonal precoder keeps the
        # channel's condition number sqrt((1+|gamma|)/(1-|gamma|)), at most 1.4e8 at the
        # largest float below 1, so the ZF inverse of every channel of the class exists
        params = ChannelParams(sign * magnitude, theta, phi if model is Model.COMPLEX else None)
        universal = universal_precoder(model)
        eff = effective_channel(params, universal, SNR)
        assert design_defect(verify_orthogonal_design(eff)) < 1e-10
        rng = np.random.default_rng(seed)
        n = 2 * model.dim
        precoders = (universal, identity_precoder(model),
                     permute_columns(universal, rng.permutation(n)),
                     Precoder(np.linalg.qr(rng.normal(size=(n, n)))[0], model))
        cond = math.sqrt((1.0 + magnitude) / (1.0 - magnitude))
        for pre in precoders:
            got = np.linalg.cond(effective_channel(params, pre, SNR).matrix)
            assert got == pytest.approx(cond, rel=1e-6)

    def test_identity_precoder_fails(self):
        eff = effective_channel(
            ChannelParams(0.5, math.pi / 4), identity_precoder(Model.REAL), SNR
        )
        assert design_defect(verify_orthogonal_design(eff)) >= 1e-10

    def test_coupling_eigenvalues_are_gamma_squared(self):
        rng = np.random.default_rng(2)
        for model, pre in ((Model.REAL, precoder_real()), (Model.COMPLEX, precoder_complex())):
            for _ in range(300):
                params = random_params(rng, model)
                s = verify_orthogonal_design(effective_channel(params, pre, SNR)).coupling
                k = s.shape[0]
                assert np.abs(s - s.T).max() < 1e-12
                assert np.abs(s.T @ s - params.gamma**2 * np.eye(k)).max() < 1e-10
