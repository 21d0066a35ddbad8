"""Linear equalization statistics and the two stages of interference cancellation (SIC).

For an effective channel Y = H U + Z with E[U U^T] = SNR*I and Z white unit
Gaussian, any equalizer E splits E@H into its diagonal Lambda plus remainder
F, giving the exact second-order statistics

    K_UU = SNR * Lambda^2
    K_UZ = SNR * Lambda @ F^T
    K_ZZ = SNR * F @ F^T + E @ E^T

with zero per-stream signal-noise correlation by construction, so stream i
is an additive-noise channel of SNR (K_UU)_ii / (K_ZZ)_ii.

SIC has a ZF or LMMSE first stage (:func:`first_stage_equalizer`), a plain
inverse that exists for every |gamma| < 1; then :func:`cancel_first_group`
subtracts the first stream group through H1 and matched-filters the rest
with H2^T.  Under the universal precoders H2 has orthonormal columns, so
this stage (:func:`second_stage_statistics`) is exactly white at the channel
SNR; :func:`post_sic_streams` joins the two stages' streams.  Rate claims
assume correct first-group decoding (genie cancellation); the Monte Carlo
runs also cancel decided symbols.

Equalizers, statistics and closed forms act on the last two axes, so a
stacked effective channel gives stacked results.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .channel import SnrSpec
from .precode import EffectiveChannel


class StreamScheme(enum.Enum):
    """First-stage ZF or LMMSE, or matched filtering after SIC; each has a closed-form SNR."""

    ZF = "ZF"
    LMMSE = "LMMSE"
    POST_SIC = "PostSIC"


def _transpose(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def zf_equalizer(effective: EffectiveChannel) -> np.ndarray:
    """E = H^-1, which exists for every |gamma| < 1.

    H is M = D_gamma R_theta [B_phi] or blockdiag(M, M) @ G with R_theta, B_phi
    and the precoder G orthogonal, so H has the singular values sqrt(1 +- gamma)
    of D_gamma and cond(H) = sqrt((1+|gamma|)/(1-|gamma|)), below 1.4e8.
    """
    return np.linalg.inv(effective.matrix)


def lmmse_equalizer(effective: EffectiveChannel) -> np.ndarray:
    """E = H^T (H H^T + I/SNR)^-1 for the channel's SNR context."""
    h = effective.matrix
    ht = _transpose(h)
    return ht @ np.linalg.inv(h @ ht + np.eye(h.shape[-2]) / effective.snr.snr_linear)


def first_stage_equalizer(effective: EffectiveChannel, scheme: StreamScheme) -> np.ndarray:
    """The linear equalizer that ``scheme`` names; only ZF and LMMSE are first stages."""
    if scheme is StreamScheme.ZF:
        return zf_equalizer(effective)
    if scheme is StreamScheme.LMMSE:
        return lmmse_equalizer(effective)
    raise ValueError(f"first stage must be ZF or LMMSE, got {scheme}")


@dataclass(frozen=True)
class StreamStats:
    """Exact post-equalization second-order statistics and per-stream SNRs."""

    k_uu: np.ndarray
    k_uz: np.ndarray
    k_zz: np.ndarray
    snr_per_stream: np.ndarray


def _statistics(h: np.ndarray, e: np.ndarray, snr_linear: float) -> StreamStats:
    eh = e @ h
    lam = np.diagonal(eh, axis1=-2, axis2=-1)[..., None]
    eye = np.eye(eh.shape[-1])
    f = eh - lam * eye
    k_uu = snr_linear * lam**2 * eye
    k_uz = snr_linear * lam * _transpose(f)
    k_zz = snr_linear * (f @ _transpose(f)) + e @ _transpose(e)
    snrs = np.diagonal(k_uu, axis1=-2, axis2=-1) / np.diagonal(k_zz, axis1=-2, axis2=-1)
    return StreamStats(k_uu, k_uz, k_zz, snrs)


def stream_statistics(effective: EffectiveChannel, e: np.ndarray) -> StreamStats:
    """Statistics of the equalized channel E @ Y for the equalizer matrix ``e``."""
    h = effective.matrix
    if e.shape[-1] != h.shape[-2]:
        raise ValueError(
            f"equalizer expects {e.shape[-1]} observations, channel provides {h.shape[-2]}"
        )
    return _statistics(h, e, effective.snr.snr_linear)


def second_stage_statistics(effective: EffectiveChannel) -> StreamStats:
    """Statistics of the post-cancellation channel H2 under its matched filter H2^T."""
    return _statistics(effective.h2, _transpose(effective.h2), effective.snr.snr_linear)


def cancel_first_group(
    h: np.ndarray, first_half_symbols: np.ndarray, received: np.ndarray,
    out: np.ndarray | None = None, residual: np.ndarray | None = None,
) -> np.ndarray:
    """H2^T (Y - H1 @ u_first) for the effective channel matrix ``h`` = [H1, H2].

    ``first_half_symbols`` are the true (genie) or decoded values of the
    first group; both may carry a trailing batch axis.  ``out`` and
    ``residual``, if given, receive the result and Y - H1 @ u_first.
    """
    k = h.shape[-1] // 2
    residual = np.matmul(h[..., :k], first_half_symbols, out=residual)
    np.subtract(received, residual, out=residual)
    return np.matmul(_transpose(h[..., k:]), residual, out=out)


def post_sic_streams(first_stage: np.ndarray, second_stage: np.ndarray) -> np.ndarray:
    """Per-stream values under SIC: the first group from stage 1, the rest from stage 2."""
    k = np.shape(second_stage)[-1]
    return np.concatenate([first_stage[..., :k], second_stage], axis=-1)


def closed_form_stream_snr(scheme: StreamScheme, gamma, snr: SnrSpec):
    """Per-stream SNR under the universal precoders, independent of theta and phi.

    ZF: (1-g^2)*s;  LMMSE: ((1-g^2)*s^2 + s)/(s+1);  post-SIC: s.  A float
    for scalar ``gamma``, an array of its shape otherwise.
    """
    g = np.asarray(gamma, float)
    if not np.all(np.abs(g) < 1.0):
        raise ValueError(f"|gamma| must be < 1, got {gamma}")
    s = snr.snr_linear
    if scheme is StreamScheme.ZF:
        out = (1.0 - g**2) * s
    elif scheme is StreamScheme.LMMSE:
        out = ((1.0 - g**2) * s**2 + s) / (s + 1.0)
    elif scheme is StreamScheme.POST_SIC:
        out = np.full(g.shape, s)
    else:
        raise ValueError(f"unknown scheme {scheme}")
    return float(out) if out.ndim == 0 else out
