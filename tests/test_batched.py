"""Batched core: a stack of channel parameters gives exactly the stack of per-draw results."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pdlsic.capacity import _gram, _gram_plan, _phi_factor
from pdlsic.channel import ChannelParams, Model, SnrSpec, channel_matrix
from pdlsic.equalize import (
    StreamScheme,
    closed_form_stream_snr,
    lmmse_equalizer,
    second_stage_statistics,
    stream_statistics,
    zf_equalizer,
)
from pdlsic.precode import (
    Precoder,
    effective_channel,
    identity_precoder,
    permute_columns,
    precoder_complex,
    precoder_real,
    verify_orthogonal_design,
)

PRECODERS = {Model.REAL: precoder_real(), Model.COMPLEX: precoder_complex()}
SNR = SnrSpec(20.0)


@st.composite
def raw_stacks(draw):
    """(gamma, theta, phi) arrays over 0 to 2 leading axes; phi is None for the real model."""
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=5))
    gamma = draw(hnp.arrays(float, shape, elements=st.floats(-0.99, 0.99)))
    angles = hnp.arrays(float, shape, elements=st.floats(-20.0, 20.0))
    theta = draw(angles)
    phi = draw(angles) if draw(st.booleans()) else None
    return gamma, theta, phi


def per_draw(raw, fn) -> np.ndarray:
    """``fn`` of each member as scalar params, stacked back into the members' shape.

    Members are built from the raw angles: normalizing an already normalized
    angle is not always the identity (an angle can round up to 2*pi).
    """
    gamma, theta, phi = raw
    results = []
    for i in np.ndindex(gamma.shape):
        p = None if phi is None else float(phi[i])
        results.append(fn(ChannelParams(float(gamma[i]), float(theta[i]), p)))
    results = np.array(results)
    return results.reshape(gamma.shape + results.shape[1:])


def effective(params: ChannelParams):
    return effective_channel(params, PRECODERS[params.model], SNR)


def stream_snrs(eff) -> dict:
    return {
        StreamScheme.ZF: stream_statistics(eff, zf_equalizer(eff)).snr_per_stream,
        StreamScheme.LMMSE: stream_statistics(eff, lmmse_equalizer(eff)).snr_per_stream,
        StreamScheme.POST_SIC: second_stage_statistics(eff).snr_per_stream,
    }


@settings(max_examples=60, deadline=None)
@given(raw_stacks())
def test_channel_and_effective_channel_match_per_draw(raw):
    params = ChannelParams(*raw)
    assert np.array_equal(channel_matrix(params), per_draw(raw, channel_matrix))
    assert np.array_equal(effective(params).matrix, per_draw(raw, lambda p: effective(p).matrix))


@settings(max_examples=60, deadline=None)
@given(raw_stacks())
def test_stream_snrs_match_per_draw_and_closed_forms(raw):
    params = ChannelParams(*raw)
    for scheme, snrs in stream_snrs(effective(params)).items():
        assert np.array_equal(snrs, per_draw(raw, lambda p: stream_snrs(effective(p))[scheme]))
        expect = closed_form_stream_snr(scheme, params.gamma, SNR)
        assert np.all(np.abs(snrs / np.expand_dims(expect, -1) - 1.0) < 1e-9)


# (H, E) builds of the Monte Carlo schemes; the unprecoded ZF baseline inverts the single-use channel
EQUALIZED = (
    lambda p: (effective(p).matrix, zf_equalizer(effective(p))),
    lambda p: (effective(p).matrix, lmmse_equalizer(effective(p))),
    lambda p: (channel_matrix(p), np.linalg.inv(channel_matrix(p))),
)


def diag_eh(build, params) -> np.ndarray:
    h, e = build(params)
    return np.diagonal(e @ h, axis1=-2, axis2=-1)


@settings(max_examples=60, deadline=None)
@given(raw_stacks())
def test_equalizers_and_diag_eh_match_per_draw(raw):
    """The Monte Carlo engine builds every block's E in one call; its reports stay
    byte-identical only while each E and diag(E @ H) equals the single build."""
    params = ChannelParams(*raw)
    for build in EQUALIZED:
        assert np.array_equal(build(params)[1], per_draw(raw, lambda p: build(p)[1]))
        assert np.array_equal(diag_eh(build, params), per_draw(raw, lambda p: diag_eh(build, p)))


@settings(max_examples=60, deadline=None)
@given(raw_stacks())
def test_orthogonal_design_maxima_match_per_draw(raw):
    rep = verify_orthogonal_design(effective(ChannelParams(*raw)))

    def defects(p):
        single = verify_orthogonal_design(effective(p))
        return [single.max_dev_h1, single.max_dev_h2, single.symmetry_defect]

    worst = per_draw(raw, defects).reshape(-1, 3).max(axis=0)
    assert np.array_equal([rep.max_dev_h1, rep.max_dev_h2, rep.symmetry_defect], worst)
    assert np.array_equal(
        rep.coupling, per_draw(raw, lambda p: verify_orthogonal_design(effective(p)).coupling)
    )
    assert max(rep.max_dev_h1, rep.max_dev_h2, rep.symmetry_defect) < 1e-10


@st.composite
def sheet_precoders(draw):
    """A star oracle precoder: universal, identity, a column permutation or random orthogonal."""
    model = draw(st.sampled_from(list(Model)))
    n = 2 * model.dim
    kind = draw(st.sampled_from(["universal", "identity", "permuted", "random"]))
    if kind == "universal":
        return PRECODERS[model]
    if kind == "identity":
        return identity_precoder(model)
    if kind == "permuted":
        return permute_columns(PRECODERS[model], tuple(draw(st.permutations(range(n)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Precoder(np.linalg.qr(rng.normal(size=(n, n)))[0], model)


@settings(max_examples=60, deadline=None)
@given(
    sheet_precoders(),
    st.floats(-0.99, 0.99),
    hnp.arrays(float, st.integers(1, 6), elements=st.floats(-20.0, 20.0)),
    hnp.arrays(float, st.integers(1, 5), elements=st.floats(-20.0, 20.0)),
)
def test_gram_from_single_use_blocks_is_hth(precoder, gamma, theta, phi):
    """The star oracle's Gram over a theta x phi sheet, against H^T H of the effective channel."""
    phi = None if precoder.model is Model.REAL else phi
    n, n_phi = precoder.n_streams, 1 if phi is None else len(phi)
    plan = _gram_plan(precoder)
    entries = plan[2]
    out = np.full((len(entries), len(theta) * n_phi), np.nan)
    gram = _gram(gamma, theta, _phi_factor(plan, phi), plan, out)
    j = np.arange(len(theta) * n_phi)  # sheet point j is theta j // n_phi and phi j % n_phi
    params = ChannelParams(gamma, theta[j // n_phi], None if phi is None else phi[j % n_phi])
    h = effective_channel(params, precoder, SNR).matrix
    hth = np.swapaxes(h, -1, -2) @ h
    assert gram.shape == out.shape and np.shares_memory(gram, out)
    assert entries[:n] == [(a, a) for a in range(n)]  # the diagonal first, then the upper triangle
    assert all(a < b for a, b in entries[n:])
    rows, cols = np.array(entries).T
    assert np.abs(gram - hth[:, rows, cols].T).max() < 1e-12
    upper = set(zip(*np.triu_indices(n)))
    for a, b in upper - set(entries):  # an entry the plan leaves out is 0 in H^T H
        assert np.abs(hth[:, a, b]).max() < 1e-12
