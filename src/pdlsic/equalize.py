"""Linear equalization statistics and the two-stage interference cancellation pipeline.

For an effective channel Y = H U + Z with E[U U^T] = SNR*I and Z white unit
Gaussian, any equalizer E splits E@H into its diagonal Lambda plus remainder
F, giving the exact second-order statistics

    K_UU = SNR * Lambda^2
    K_UZ = SNR * Lambda @ F^T
    K_ZZ = SNR * F @ F^T + E @ E^T

with zero per-stream signal-noise correlation by construction, so stream i
is an additive-noise channel of SNR (K_UU)_ii / (K_ZZ)_ii.

The SIC pipeline decodes the first stream group, subtracts its contribution
through H1, and matched-filters the remainder with H2^T.  Because H2 has
orthonormal columns for every channel realization under the universal
precoders, the second stage is exactly white with per-stream SNR equal to
the channel SNR.  Cancellation here is genie-aided (the rate claims are
conditioned on correct first-group decoding); the Monte Carlo experiments
reuse :func:`cancel_first_group` for decision-directed cancellation too.

Equalizers, statistics and closed forms act on the last two axes, so a
stacked effective channel gives stacked results.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .capacity import c_awgn
from .channel import SnrSpec
from .precode import EffectiveChannel

#: Conditioning guard for the direct inverses; |gamma| near 1 degrades the
#: effective channel as 1/(1-gamma^2).
CONDITION_LIMIT = 1e12


class SingularChannelError(ValueError):
    """Channel too ill-conditioned to invert (|gamma| at or beyond 1)."""


class StreamScheme(enum.Enum):
    """First-stage ZF or LMMSE, or matched filtering after SIC; each has a closed-form SNR."""

    ZF = "ZF"
    LMMSE = "LMMSE"
    POST_SIC = "PostSIC"


def _transpose(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def _diag(v: np.ndarray) -> np.ndarray:
    """Diagonal matrices with ``v`` on the diagonal, over the leading axes of ``v``."""
    out = np.zeros(v.shape + v.shape[-1:])
    i = np.arange(v.shape[-1])
    out[..., i, i] = v
    return out


def zf_equalizer(effective: EffectiveChannel) -> np.ndarray:
    """E = H^-1; exists whenever |gamma| < 1."""
    h = effective.matrix
    if (np.linalg.cond(h) > CONDITION_LIMIT).any():
        raise SingularChannelError(
            f"effective channel condition number exceeds {CONDITION_LIMIT:g}"
        )
    return np.linalg.inv(h)


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
    lam = np.diagonal(eh, axis1=-2, axis2=-1).copy()
    f = eh - _diag(lam)
    k_uu = snr_linear * _diag(lam**2)
    k_uz = snr_linear * _diag(lam) @ _transpose(f)
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
    h: np.ndarray, first_half_symbols: np.ndarray, received: np.ndarray
) -> np.ndarray:
    """H2^T (Y - H1 @ u_first) for the effective channel matrix ``h`` = [H1, H2].

    ``first_half_symbols`` are the true (genie) or decoded values of the
    first group; both may carry a trailing batch axis.
    """
    k = h.shape[-1] // 2
    return _transpose(h[..., k:]) @ (received - h[..., :k] @ first_half_symbols)


def post_sic_streams(first_stage: np.ndarray, second_stage: np.ndarray) -> np.ndarray:
    """Per-stream values under SIC: the first group from stage 1, the rest from stage 2."""
    k = np.shape(second_stage)[-1]
    return np.concatenate([first_stage[..., :k], second_stage], axis=-1)


@dataclass(frozen=True)
class SicResult:
    """Two-stage pipeline output: statistics per stage plus the equalized remainder."""

    first_stage: StreamStats
    second_stage: StreamStats
    second_stage_output: np.ndarray
    achievable_rate_bits_per_real_dim: float


def sic_pipeline(
    effective: EffectiveChannel,
    first_stage: StreamScheme,
    first_half_symbols: np.ndarray,
    received: np.ndarray,
) -> SicResult:
    """Cancel the first stream group and matched-filter the remainder.

    ``first_half_symbols`` are the true (genie) or decoded values of the
    first group; ``received`` is Y.  Both may carry a trailing batch axis.
    Returns H2^T (Y - H1 @ u_first) along with exact statistics for both
    stages; the achievable rate averages C(SNR_i) over all streams.
    """
    first_stats = stream_statistics(effective, first_stage_equalizer(effective, first_stage))

    k = effective.n_streams // 2
    u_first = np.asarray(first_half_symbols, float)
    y = np.asarray(received, float)
    if u_first.shape[0] != k:
        raise ValueError(f"first_half_symbols must have {k} rows, got {u_first.shape[0]}")
    if y.shape[0] != effective.matrix.shape[0]:
        raise ValueError(
            f"received must have {effective.matrix.shape[0]} rows, got {y.shape[0]}"
        )
    y_hat = cancel_first_group(effective.matrix, u_first, y)

    second_stats = second_stage_statistics(effective)
    snrs = post_sic_streams(first_stats.snr_per_stream, second_stats.snr_per_stream)
    rate = float(np.mean(c_awgn(snrs)))
    return SicResult(first_stats, second_stats, y_hat, rate)


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
