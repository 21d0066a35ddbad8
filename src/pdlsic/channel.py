"""Compound channel class for dual-polarization links with polarization-dependent loss.

A channel realization is a point (gamma, theta) or (gamma, theta, phi) picked
by nature from the compound set: gamma is the PDL parameter bounded by the
worst case alpha, theta rotates the polarizations, and phi (complex model
only) is a differential phase.  The 2x2 real model is D_gamma @ R_theta; the
complex model is handled through its 4x4 real-equivalent matrix
D_gamma @ R_theta @ B_phi, where vector entries 1-2 carry real parts and 3-4
imaginary parts.

Noise variance is fixed at 1 per real dimension everywhere; the SNR carries
all scaling.  All dB values are power dB (10*log10).  Every type here is an
immutable value and every operation a pure function.

:class:`ChannelParams` fields may be arrays that broadcast together instead
of scalars; :func:`channel_matrix` then returns the stack of matrices over
their broadcast shape, and a scalar point is simply a batch of one.
:func:`lattice` relies on this: its gamma column and theta/phi row stand for
the whole Grid lattice without storing it.
"""

import enum
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

TWO_PI = 2.0 * math.pi


class Model(enum.Enum):
    """Channel model family."""

    REAL = "real"
    COMPLEX = "complex"  # real-equivalent form of the complex 2x2 channel

    @property
    def dim(self) -> int:
        """Single-use matrix dimension (2 real, 4 complex-equivalent)."""
        return 2 if self is Model.REAL else 4

    @classmethod
    def parse(cls, name: str) -> "Model":
        key = str(name).strip().lower()
        if key in ("real",):
            return cls.REAL
        if key in ("complex", "complexequivalent"):
            return cls.COMPLEX
        raise ValueError(f"unknown channel model {name!r}")


class SampleMode(enum.Enum):
    """How channel parameters are drawn from the compound set."""

    WORST_CASE_EDGE = "WorstCaseEdge"
    UNIFORM_INTERIOR = "UniformInterior"
    GRID = "Grid"

    @classmethod
    def parse(cls, name: str) -> "SampleMode":
        for mode in cls:
            if mode.value.lower() == str(name).strip().lower():
                return mode
        raise ValueError(f"unknown sample mode {name!r}")


def validate_alpha(alpha: float) -> None:
    """Raise ValueError unless ``alpha`` is a worst-case PDL parameter in [0, 1)."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")


def pdl_db_from_alpha(alpha: float) -> float:
    """Worst-case PDL in dB, 10*log10((1+alpha)/(1-alpha))."""
    validate_alpha(alpha)
    return 10.0 * math.log10((1.0 + alpha) / (1.0 - alpha))


def alpha_from_pdl_db(pdl_db: float) -> float:
    """Inverse of :func:`pdl_db_from_alpha`: alpha = (r-1)/(r+1), r = 10^(dB/10)."""
    if pdl_db < 0.0:
        raise ValueError(f"pdl_db must be non-negative, got {pdl_db}")
    try:
        r = 10.0 ** (pdl_db / 10.0)
    except OverflowError:
        raise ValueError(f"pdl_db {pdl_db:g} overflows the float range") from None
    return (r - 1.0) / (r + 1.0)


@dataclass(frozen=True)
class SnrSpec:
    """Per-real-dimension signal-to-noise ratio (noise variance 1)."""

    snr_linear: float

    def __post_init__(self):
        if not 0.0 < self.snr_linear < math.inf:
            raise ValueError(f"snr_linear must be positive and finite, got {self.snr_linear}")

    @property
    def snr_db(self) -> float:
        return 10.0 * math.log10(self.snr_linear)

    @classmethod
    def from_db(cls, snr_db: float) -> "SnrSpec":
        try:
            return cls(10.0 ** (snr_db / 10.0))
        except OverflowError:
            raise ValueError(f"snr_db must be finite, got {snr_db}") from None


def _wrap_angle(x):
    """``x`` mod 2*pi in [0, 2*pi); a tiny negative ``x`` rounds to exactly 2*pi, taken as 0."""
    r = x % TWO_PI
    if isinstance(r, np.ndarray):
        r[r == TWO_PI] = 0.0  # in place: a sheet-sized temporary raised the grid oracle peak RSS by 4.5 MiB
        return r
    return 0.0 if r == TWO_PI else r


@dataclass(frozen=True)
class ChannelParams:
    """One member of the compound class, or a stack of members.

    ``theta`` and ``phi`` are normalized into [0, 2*pi); ``phi`` is present
    only for the complex model.  Fields are scalars or arrays that broadcast
    together.
    """

    gamma: float | np.ndarray
    theta: float | np.ndarray
    phi: float | np.ndarray | None = None

    def __post_init__(self):
        if not (np.abs(self.gamma) < 1.0).all():
            raise ValueError(f"|gamma| must be < 1, got {self.gamma}")
        object.__setattr__(self, "theta", _wrap_angle(self.theta))
        if self.phi is not None:
            object.__setattr__(self, "phi", _wrap_angle(self.phi))

    @property
    def model(self) -> Model:
        return Model.REAL if self.phi is None else Model.COMPLEX


#: Entry (i, j) of :func:`channel_matrix` as ``(sign, u, v)``: it is sign * t[u] * p[v]
#: over the factors ``(t, p)`` of :func:`channel_factors`.
FACTOR_LAYOUT = {
    Model.REAL: (
        ((1, 0, 0), (-1, 1, 0)),
        ((1, 2, 0), (1, 3, 0)),
    ),
    Model.COMPLEX: (
        ((1, 0, 0), (-1, 1, 0), (-1, 0, 1), (-1, 1, 1)),
        ((1, 2, 0), (1, 3, 0), (-1, 2, 1), (1, 3, 1)),
        ((1, 0, 1), (1, 1, 1), (1, 0, 0), (-1, 1, 0)),
        ((1, 2, 1), (-1, 3, 1), (1, 2, 0), (1, 3, 0)),
    ),
}


def channel_factors(gamma, theta, phi=None) -> tuple[tuple, tuple]:
    """The (gamma, theta)-factors ``t`` and phi-factors ``p`` of every channel entry.

    ``t = (a, b, e, f)`` are the entries of D_gamma @ R_theta, whose rows are
    [a, -b] and [e, f]; ``p = (cos phi, sin phi)``, or ``(1.0,)`` for the real
    model.  :data:`FACTOR_LAYOUT` places their signed products in the matrix.
    """
    c, s = np.cos(theta), np.sin(theta)
    rp, rm = np.sqrt(1.0 + gamma), np.sqrt(1.0 - gamma)
    t = (rp * c, rp * s, rm * s, rm * c)
    return t, (1.0,) if phi is None else (np.cos(phi), np.sin(phi))


def channel_matrix(params: ChannelParams) -> np.ndarray:
    """Single-use matrix D_gamma @ R_theta (real) or D_gamma @ R_theta @ B_phi (complex).

    Written entry by entry, each the product of its :func:`channel_factors`
    negated after rounding, so array-valued params give a ``(..., d, d)``
    stack over the broadcast shape of the fields.  The complex layout puts
    real parts in entries 1-2 and imaginary parts in 3-4, so the matrix is
    the real representation [[A, -B], [B, A]] of the complex 2x2 channel A + iB.
    """
    t, p = channel_factors(params.gamma, params.theta, params.phi)
    # (d, d, *batch); move the matrix axes last
    entries = np.array([[t[u] * p[v] if sign > 0 else -(t[u] * p[v]) for sign, u, v in row]
                        for row in FACTOR_LAYOUT[params.model]])
    entries = entries.transpose(tuple(range(2, entries.ndim)) + (0, 1))
    return np.ascontiguousarray(entries)


def draw_params(alpha: float, mode: SampleMode, model: Model, seed, count: int) -> ChannelParams:
    """``count`` random points with |gamma| <= alpha, as one array-valued ChannelParams.

    Both modes read one table ``u = default_rng(seed).random((count, 1 + A))``
    with A = 1 angle (real) or 2 (complex), row i for point i.  Column 0 gives
    gamma: ``-alpha`` where ``u < 0.5`` and ``+alpha`` elsewhere (WorstCaseEdge),
    or ``-alpha + 2*alpha*u``, as ``uniform(-alpha, alpha)`` (UniformInterior).
    Columns 1 and 2 give theta and phi as ``2*pi*u``.  ``seed`` is an int or a
    SeedSequence; the generator is private, so drawing past the end is harmless.
    """
    validate_alpha(alpha)
    if mode is SampleMode.GRID:
        raise ValueError(f"{mode.value} is not a random sampling mode")
    n_angles = 2 if model is Model.COMPLEX else 1
    u = np.random.default_rng(seed).random((count, 1 + n_angles))
    if mode is SampleMode.UNIFORM_INTERIOR:
        gamma = -alpha + 2.0 * alpha * u[:, 0]
    else:
        gamma = np.where(u[:, 0] < 0.5, -alpha, alpha)
    theta = TWO_PI * u[:, 1]  # uniform(0, 2*pi); adding the 0.0 changes no bit
    return ChannelParams(gamma, theta, TWO_PI * u[:, 2] if n_angles == 2 else None)


def lattice_axes(alpha: float, model: Model, n_gamma=41, n_theta=64, n_phi=64) -> tuple:
    """The gamma, theta and phi axes of :func:`lattice`; phi is None for the real model."""
    validate_alpha(alpha)
    if min(n_gamma, n_theta, n_phi) < 1:
        raise ValueError("grid sizes must be at least 1")
    theta = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    phi = None if model is Model.REAL else np.linspace(0.0, TWO_PI, n_phi, endpoint=False)
    return np.linspace(-alpha, alpha, n_gamma), theta, phi


def lattice(alpha: float, model: Model, n_gamma=41, n_theta=64, n_phi=64) -> ChannelParams:
    """The (gamma, theta[, phi]) Grid lattice, gamma outermost and phi innermost.

    gamma spans [-alpha, alpha] with both endpoints (provably the worst
    case); theta and phi are periodic, so their grids exclude 2*pi.  The real
    model ignores ``n_phi``.  ``gamma`` has shape ``(n_gamma, 1)`` and
    ``theta``/``phi`` shape ``(1, S)`` over the S-point sheet, the theta axis
    x the phi axis of :func:`lattice_axes`: sheet point j is theta ``j //
    n_phi`` and phi ``j % n_phi`` (n_phi 1 for the real model).  The fields
    broadcast to the lattice without storing it, point k at ``[k // S, k %
    S]``.  The default sizes are those of Grid simulation runs.
    """
    gamma, theta, phi = lattice_axes(alpha, model, n_gamma, n_theta, n_phi)
    if phi is None:
        return ChannelParams(gamma[:, None], theta[None, :])
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    return ChannelParams(gamma[:, None], tt.reshape(1, -1), pp.reshape(1, -1))


def sample_params(
    alpha: float,
    mode: SampleMode,
    model: Model = Model.REAL,
    *,
    seed=None,
    count: int | None = None,
) -> Iterator[ChannelParams]:
    """Yield the ``count`` points of :func:`draw_params` one by one, as scalar ChannelParams."""
    if count is None:
        raise ValueError(f"{mode.value} sampling requires count")
    params = draw_params(alpha, mode, model, seed, count)
    phis = [None] * count if params.phi is None else params.phi.tolist()
    for g, t, p in zip(params.gamma.tolist(), params.theta.tolist(), phis):
        yield ChannelParams(g, t, p)
