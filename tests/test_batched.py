"""Batched core: a stack of channel parameters gives exactly the stack of per-draw results."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pdlsic.capacity import _gram, _gram_terms
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
    effective_channel,
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


@settings(max_examples=60, deadline=None)
@given(raw_stacks())
def test_gram_from_single_use_blocks_is_hth(raw):
    """The star oracle's entry-major Gram, sum_j G_j^T (M^T M) G_j, against H^T H of the effective channel."""
    params = ChannelParams(*raw)
    h = effective(params).matrix
    terms = _gram_terms(PRECODERS[params.model])
    gram = np.moveaxis(_gram(params.gamma, params.theta, params.phi, terms), (0, 1), (-2, -1))
    assert gram.shape == h.shape
    assert np.abs(gram - np.swapaxes(h, -1, -2) @ h).max() < 1e-12
