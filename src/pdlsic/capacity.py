"""Closed-form capacities, penalties, and independent max-min grid oracles.

Capacities are reported in bits per real dimension (matching the curve
normalization); the underlying two-real-dimension forms are simply twice
these values.  With C(s) = 0.5*log2(1+s):

* compound:      [C((1+a)s) + C((1-a)s)] / 2
* high-SNR form: [C((1-a^2)s) + C(s)] / 2, within O(1/s) of compound
* parallel:      2*compound - awgn  (no cancellation across polarizations)
* non-joint:     C((1-a)s)          (each polarization coded alone)

The grid searches here are deliberately brute force: they are the
independent oracles against which the closed forms are checked.  Grid
reductions run in a fixed iteration order so reports are bit-reproducible.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, SnrSpec, channel_entries, lattice, validate_alpha
from .precode import Precoder

#: Default grid resolutions for the max-min searches.  201 points in beta
#: and gamma resolve the quadratic flatness near beta* = 1/2 at the 1e-9-bit
#: scale; theta and phi are periodic.
GRID_N_BETA = 201
GRID_N_GAMMA = 201
GRID_N_THETA = 256
GRID_N_PHI = 64

STAR_TOL_BITS = 1e-9


def c_awgn(snr):
    """Real scalar AWGN capacity C(snr) = 0.5*log2(1+snr), bits per real dimension."""
    s = np.asarray(snr, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("snr must be non-negative")
    out = 0.5 * np.log2(1.0 + s)
    return float(out) if np.isscalar(snr) or s.ndim == 0 else out


def c_compound(alpha: float, snr):
    """Worst-case (compound) capacity per real dimension."""
    validate_alpha(alpha)
    s = np.asarray(snr, float)
    return (c_awgn((1.0 + alpha) * s) + c_awgn((1.0 - alpha) * s)) / 2.0


def c_compound_approx(alpha: float, snr):
    """High-SNR approximation to the compound capacity, per real dimension."""
    validate_alpha(alpha)
    return (c_awgn((1.0 - alpha**2) * np.asarray(snr, float)) + c_awgn(snr)) / 2.0


def c_parallel(alpha: float, snr):
    """Capacity under joint coding with parallel decoding, per real dimension."""
    return 2.0 * c_compound(alpha, snr) - c_awgn(snr)


def c_parallel_approx(alpha: float, snr):
    """High-SNR approximation to the parallel capacity, per real dimension."""
    validate_alpha(alpha)
    return c_awgn((1.0 - alpha**2) * np.asarray(snr, float))


def c_nonjoint(alpha: float, snr):
    """Guaranteed rate with fully separate per-polarization coding, per real dimension."""
    validate_alpha(alpha)
    return c_awgn((1.0 - alpha) * np.asarray(snr, float))


def inverse_c_compound(alpha: float, rate: float) -> float:
    """SNR at which the compound capacity (per real dimension) equals ``rate``.

    Closed form from (1+(1+a)s)(1+(1-a)s) = 2^(4*rate).
    """
    validate_alpha(alpha)
    if rate < 0.0:
        raise ValueError("rate must be non-negative")
    q = 2.0 ** (4.0 * rate) - 1.0
    a2 = 1.0 - alpha**2
    return (-1.0 + math.sqrt(1.0 + a2 * q)) / a2


@dataclass(frozen=True)
class PdlPenalties:
    """Asymptotic SNR penalties in dB relative to a PDL-free channel."""

    nonjoint_db: float
    parallel_db: float
    sic_db: float

    def as_dict(self) -> dict:
        return {
            "nonjoint": self.nonjoint_db,
            "parallel": self.parallel_db,
            "sic": self.sic_db,
        }


def penalties_db(alpha: float) -> PdlPenalties:
    """The three high-SNR penalties: 1/(1-a), 1/(1-a^2), 1/sqrt(1-a^2) in dB."""
    validate_alpha(alpha)
    return PdlPenalties(
        nonjoint_db=10.0 * math.log10(1.0 / (1.0 - alpha)),
        parallel_db=10.0 * math.log10(1.0 / (1.0 - alpha**2)),
        sic_db=10.0 * math.log10(1.0 / math.sqrt(1.0 - alpha**2)),
    )


@dataclass(frozen=True)
class WorstCaseSearch:
    """Brute-force max-min over (beta, gamma) of the two-stream rate sum."""

    alpha: float
    snr: float
    beta_grid: np.ndarray
    gamma_star: np.ndarray  # worst gamma for each beta
    min_value: np.ndarray  # worst-case rate sum for each beta, bits per 2 real dims
    beta_star: float
    max_min_bits: float  # bits per two real dimensions
    closed_form_bits: float  # 2 * c_compound(alpha, snr)

    @property
    def all_extremal(self) -> bool:
        """True when the worst gamma sits at +-alpha for every beta."""
        if self.alpha == 0.0:
            return True
        return bool(np.all(np.isclose(np.abs(self.gamma_star), self.alpha)))

    @property
    def defect_bits(self) -> float:
        return abs(self.max_min_bits - self.closed_form_bits)


def worst_case_search(
    alpha: float,
    snr: float,
    n_beta: int = GRID_N_BETA,
    n_gamma: int = GRID_N_GAMMA,
) -> WorstCaseSearch:
    """Confirm beta* = 1/2 and extremal worst-case gamma by exhaustive search.

    The objective is C(2(1+g)*b*s) + C(2(1-g)*(1-b)*s) over the power split
    b in [0,1] and g in [-alpha, alpha]; theta drops out of the mutual
    information sum.  Runs on an inclusive lattice in fixed order.
    """
    validate_alpha(alpha)
    betas = np.linspace(0.0, 1.0, n_beta)
    gammas = np.linspace(-alpha, alpha, n_gamma)
    bb = betas[:, None]
    gg = gammas[None, :]
    objective = c_awgn(2.0 * (1.0 + gg) * bb * snr) + c_awgn(
        2.0 * (1.0 - gg) * (1.0 - bb) * snr
    )
    idx = np.argmin(objective, axis=1)
    min_value = objective[np.arange(n_beta), idx]
    gamma_star = gammas[idx]
    k = int(np.argmax(min_value))
    return WorstCaseSearch(
        alpha=alpha,
        snr=snr,
        beta_grid=betas,
        gamma_star=gamma_star,
        min_value=min_value,
        beta_star=float(betas[k]),
        max_min_bits=float(min_value[k]),
        closed_form_bits=2.0 * float(c_compound(alpha, snr)),
    )


def successive_stream_snrs(gram: np.ndarray, snr: float) -> np.ndarray:
    """LMMSE-SIC per-stream SNRs from stacked Gram matrices H^T H.

    Stream i sees streams 1..i-1 cancelled and i+1..n as Gaussian
    interference; its SNR is the unbiased LMMSE SNR
    1/[(A[i:, i:])^-1]_00 - 1 with A = I + snr * Gram.  With Gaussian
    inputs, C of these SNRs are exactly the chain-rule mutual information
    terms, so their sum is the full mutual information.

    1/[(A[i:, i:])^-1]_00 is the Schur complement of A[i+1:, i+1:] in
    A[i:, i:].  One reverse Cholesky A = U U^T, U upper triangular and
    unrolled from the last pivot down, gives all n in the Schur form
    snr * Gram_ii - sum_{j>i} U_ij^2, which never adds the 1 only to take it
    away.  It reads only the upper triangle ``gram[..., a, b]``, a <= b, each
    entry as one array over the stack (contiguous for an entry-major stack),
    so ``gram`` must be symmetric positive semidefinite.

    Error: the only loss is the cancellation in that subtraction, so each
    SNR is within 8*eps*snr*Gram_ii/SNR_i relative of the exact SNRs of the
    same float Gram when the trailing blocks A[i+1:, i+1:] are well
    conditioned, as under the universal precoders (at most 2x eps*snr*Gram_ii
    /SNR_i against 50-digit mpmath).  Ill-conditioned trailing blocks break
    the bound: near |gamma| = 1 (1 - 1e-6) the ``--permute 0,2,1,3`` negative
    control reached 5.2e3x eps*snr*Gram_ii/SNR_i, so its reported stream
    minimum there carries that much error.
    """
    SnrSpec(snr)  # rejects snr <= 0 and non-finite snr
    gram = np.asarray(gram, float)
    n = gram.shape[-1]
    u = [[None] * n for _ in range(n)]  # u[k][i] = U_ki for k < i
    out = np.empty(gram.shape[:-1])
    for i in range(n - 1, -1, -1):
        schur = snr * gram[..., i, i]
        for j in range(i + 1, n):
            schur -= u[i][j] ** 2
        out[..., i] = schur
        pivot = np.sqrt(schur + 1.0)
        for k in range(i):
            x = snr * gram[..., k, i]
            for j in range(i + 1, n):
                x -= u[k][j] * u[i][j]
            x /= pivot
            u[k][i] = x
    return out


@dataclass(frozen=True)
class StarPropertyReport:
    """Both sides of the min-sum vs sum-min capacity split, per real dimension."""

    lhs_bits: float  # min over the grid of the rate sum
    rhs_bits: float  # sum over streams of the per-stream minima
    gap_bits: float
    min_stream_snrs: np.ndarray
    lhs_point: ChannelParams  # first lattice point (in grid order) of the rate-sum minimum
    min_stream_points: tuple[ChannelParams, ...]  # first lattice point of each stream's minimum

    @property
    def passed(self) -> bool:
        return self.gap_bits < STAR_TOL_BITS


def _gram_terms(precoder: Precoder) -> list:
    """``((a, b), [(c, k, l), ...])`` with Gram[a, b] = sum c * K[k, l], k <= l, for a <= b.

    H = blockdiag(M, M) @ G gives H^T H = sum_j G_j^T K G_j over the row
    blocks G_j of G, linear in the symmetric K = M^T M; only nonzero c are kept.
    """
    n = precoder.n_streams
    blocks = precoder.entries.reshape(2, n // 2, n)
    t = np.einsum("jka,jlb->klab", blocks, blocks)
    t = t + t.transpose(1, 0, 2, 3)  # K[l, k] = K[k, l]: one term per pair, the doubled diagonal halved below
    kl = list(zip(*np.triu_indices(n // 2)))
    return [((a, b), [(t[k, l, a, b] / (1 + (k == l)), k, l) for k, l in kl if t[k, l, a, b]])
            for a, b in zip(*np.triu_indices(n))]


def _gram(gamma, theta, phi, terms: list) -> np.ndarray:
    """The entry-major Gram stack ``(n, n, *batch)`` of H^T H, built entrywise from :func:`_gram_terms`."""
    m = channel_entries(gamma, theta, phi)
    d = len(m)
    mtm = {}  # the distinct entries of K = M^T M
    for i in range(d):
        for j in range(i, d):
            mtm[i, j] = m[0][i] * m[0][j]
            for r in range(1, d):
                mtm[i, j] += m[r][i] * m[r][j]
    gram = np.empty((2 * d, 2 * d) + np.shape(m[0][0]))
    for (a, b), entry_terms in terms:
        gram[a, b] = gram[b, a] = sum(c * mtm[k, l] for c, k, l in entry_terms)
    return gram


def verify_star_property(
    precoder: Precoder,
    alpha: float,
    snr: float,
    n_gamma: int = GRID_N_GAMMA,
    n_theta: int = GRID_N_THETA,
    n_phi: int = GRID_N_PHI,
) -> StarPropertyReport:
    """Grid oracle for the precoder property that SIC order does not lose rate.

    Evaluates, over :func:`~pdlsic.channel.lattice` one theta x phi sheet
    per gamma, the minimum of the sum of successive per-stream capacities
    against the sum of the per-stream minima.  The left side equals twice
    the compound capacity for any orthogonal precoder (chain rule); the
    right side reaches it only for a correct precoder and stream order.
    gap >= 0 always, and a pass means the two sides agree to
    ``STAR_TOL_BITS`` bits per real dimension.  The report names the lattice
    point of the left side's minimum and of each stream's minimum.
    """
    SnrSpec(snr)  # rejects snr <= 0 and non-finite snr before any grid work
    grid = lattice(alpha, precoder.model, n_gamma, n_theta, n_phi)
    n = precoder.n_streams
    terms = _gram_terms(precoder)
    theta = grid.theta[0]
    phi = None if grid.phi is None else grid.phi[0]

    def point(g, j) -> ChannelParams:
        return ChannelParams(float(g), float(theta[j]), None if phi is None else float(phi[j]))

    lhs = np.inf
    lhs_at = None
    min_snrs = np.full(n, np.inf)
    min_at = [None] * n
    streams = np.arange(n)
    for g in grid.gamma[:, 0]:  # one theta x phi sheet per gamma
        # unnamed Gram: keeping one sheet's alive while the next is built raised peak RSS 6 MiB
        snrs = successive_stream_snrs(np.moveaxis(_gram(g, theta, phi, terms), -1, 0), snr)
        sums = (0.5 * np.log2(1.0 + snrs)).sum(axis=1)
        j = int(sums.argmin())
        if sums[j] < lhs:
            lhs, lhs_at = float(sums[j]), point(g, j)
        rows = snrs.argmin(axis=0)
        for i in np.flatnonzero(snrs[rows, streams] < min_snrs):
            min_snrs[i], min_at[i] = snrs[rows[i], i], point(g, rows[i])
    rhs = float(np.sum(0.5 * np.log2(1.0 + min_snrs)))
    return StarPropertyReport(
        lhs_bits=lhs / n,
        rhs_bits=rhs / n,
        gap_bits=(lhs - rhs) / n,
        min_stream_snrs=min_snrs,
        lhs_point=lhs_at,
        min_stream_points=tuple(min_at),
    )


@dataclass(frozen=True)
class MeanIdentityReport:
    """Arithmetic/geometric/harmonic means of two positives and their identity defects."""

    arithmetic: float
    geometric: float
    harmonic: float
    product_defect: float  # |G^2 - A*H|
    chain_defect_bits: float  # capacity decomposition chain at the given SNR


def mean_identity_check(a: float, b: float, snr: float = 100.0) -> MeanIdentityReport:
    """Check G^2 = A*H and the high-SNR capacity decomposition it underwrites.

    The chain compares 0.5*log2(a s) + 0.5*log2(b s) against the product,
    geometric-mean, and arithmetic/harmonic-mean splits; the last equality is
    exactly the G^2 = A*H identity, which is what makes a channel-independent
    precoder possible when a + b is constant.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("both inputs must be positive")
    am = (a + b) / 2.0
    gm = math.sqrt(a * b)
    hm = 2.0 * a * b / (a + b)
    product_defect = abs(gm**2 - am * hm)
    t_sum = 0.5 * math.log2(a * snr) + 0.5 * math.log2(b * snr)
    t_product = 0.5 * math.log2(a * b * snr * snr)
    t_geometric = 2.0 * (0.5 * math.log2(gm * snr))
    t_mean_split = 0.5 * math.log2(am * snr) + 0.5 * math.log2(hm * snr)
    terms = (t_sum, t_product, t_geometric, t_mean_split)
    chain_defect = max(abs(x - t_sum) for x in terms)
    return MeanIdentityReport(am, gm, hm, product_defect, chain_defect)

