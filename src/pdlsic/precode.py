"""Universal orthogonal precoders and the two-channel-use effective channel.

Both precoders are fixed, channel-independent orthogonal matrices whose
nonzero entries all have magnitude 1/sqrt(2).  Applied across two channel
uses, they turn the effective channel H = blockdiag(M, M) @ G into an
orthogonal design in the channel parameters: the column halves H1, H2
satisfy H1^T H1 = H2^T H2 = I for every (gamma, theta, phi), and
H^T H = [[I, -S], [-S, I]] with S symmetric and S^T S = gamma^2 I.

The constructors return the fixed column order these properties need.  It is
load-bearing (it fixes the interference cancellation order), so
:func:`permute_columns` exists for negative tests only.

Array-valued :class:`~pdlsic.channel.ChannelParams` give a stacked effective
channel; every function here acts on the last two axes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, Model, SnrSpec, channel_matrix

_ORTHOGONALITY_TOL = 1e-12

_G_REAL = np.array(
    [
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [0, 1, 0, -1],
        [-1, 0, 1, 0],
    ],
    dtype=float,
) / math.sqrt(2.0)

_G_COMPLEX = np.array(
    [
        [1, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 1, 0],
        [0, -1, 0, 0, 0, -1, 0, 0],
        [0, 0, 0, -1, 0, 0, 0, -1],
        [0, 0, 1, 0, 0, 0, -1, 0],
        [-1, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, -1],
        [0, -1, 0, 0, 0, 1, 0, 0],
    ],
    dtype=float,
) / math.sqrt(2.0)


@dataclass(frozen=True)
class Precoder:
    """Orthogonal precoding matrix with its model tag."""

    entries: np.ndarray
    model: Model

    def __post_init__(self):
        g = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", g)
        n = 2 * self.model.dim
        if g.shape != (n, n):
            raise ValueError(f"precoder for {self.model.value} model must be {n}x{n}")
        eye = np.eye(n)
        if (
            np.abs(g @ g.T - eye).max() > _ORTHOGONALITY_TOL
            or np.abs(g.T @ g - eye).max() > _ORTHOGONALITY_TOL
        ):
            raise ValueError("precoder must be orthogonal")

    @property
    def n_streams(self) -> int:
        return self.entries.shape[1]


def precoder_real() -> Precoder:
    """The universal 4x4 precoder for the real model."""
    return Precoder(_G_REAL.copy(), Model.REAL)


def precoder_complex() -> Precoder:
    """The universal 8x8 precoder for the complex (real-equivalent) model."""
    return Precoder(_G_COMPLEX.copy(), Model.COMPLEX)


def universal_precoder(model: Model) -> Precoder:
    """The universal precoder of the given model."""
    return precoder_real() if model is Model.REAL else precoder_complex()


def identity_precoder(model: Model) -> Precoder:
    """No precoding.  Negative control: the result is not an orthogonal design."""
    return Precoder(np.eye(2 * model.dim), model)


def permute_columns(precoder: Precoder, order: list[int] | tuple[int, ...]) -> Precoder:
    """Column-permuted variant, for negative tests only.

    The sum-of-minima side of the capacity split is not invariant under
    stream permutations, so even swapping two columns breaks optimality.
    """
    n = precoder.n_streams
    if sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}")
    return Precoder(precoder.entries[:, list(order)], precoder.model)


@dataclass(frozen=True)
class EffectiveChannel:
    """Channel H with its SNR: the two-use blockdiag(M, M) @ G, or a bare M without precoding."""

    matrix: np.ndarray
    snr: SnrSpec

    @property
    def n_streams(self) -> int:
        return self.matrix.shape[-1]

    @property
    def h2(self) -> np.ndarray:
        """Right column half (group decoded after cancellation)."""
        return self.matrix[..., self.n_streams // 2 :]


def effective_channel(
    params: ChannelParams, precoder: Precoder, snr: SnrSpec
) -> EffectiveChannel:
    """Build the precoded two-channel-use effective channel."""
    if params.model is not precoder.model:
        raise ValueError(
            f"model mismatch: params are {params.model.value}, "
            f"precoder is {precoder.model.value}"
        )
    m = channel_matrix(params)
    d = m.shape[-1]
    # H = [M @ G[:d]; M @ G[d:]], both halves in one matmul
    h = m[..., None, :, :] @ precoder.entries.reshape(2, d, 2 * d)
    return EffectiveChannel(h.reshape(m.shape[:-2] + (2 * d, 2 * d)), snr)


def gram(x: np.ndarray) -> np.ndarray:
    """x^T x over the last two axes.

    The transpose is copied to a contiguous array first: numpy's batched
    matmul of a small transposed view takes a slower loop, and the products
    are the same.
    """
    return np.ascontiguousarray(np.swapaxes(x, -1, -2)) @ x


@dataclass(frozen=True)
class OrthogonalDesignReport:
    """Numeric defects of the orthogonal-design structure of an effective channel."""

    max_dev_h1: float
    max_dev_h2: float
    coupling: np.ndarray
    symmetry_defect: float


def verify_orthogonal_design(effective: EffectiveChannel) -> OrthogonalDesignReport:
    """Defects of H1^T H1 = H2^T H2 = I and of the symmetry of the recovered coupling S.

    All three come from the blocks of the one Gram H^T H.  On a stack the
    defects are maxima over all members; S is kept per member.
    """
    k = effective.n_streams // 2
    eye = np.eye(k)
    hth = gram(effective.matrix)
    dev1 = float(np.abs(hth[..., :k, :k] - eye).max())
    dev2 = float(np.abs(hth[..., k:, k:] - eye).max())
    s = -hth[..., :k, k:]
    sym = float(np.abs(s - np.swapaxes(s, -1, -2)).max())
    return OrthogonalDesignReport(dev1, dev2, s, sym)
