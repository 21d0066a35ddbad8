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

from .channel import (
    FACTOR_LAYOUT,
    ChannelParams,
    SnrSpec,
    channel_factors,
    lattice_axes,
    validate_alpha,
)
from .precode import Precoder

#: Default grid resolutions for the max-min searches.  201 points in beta
#: and gamma resolve the quadratic flatness near beta* = 1/2 at the 1e-9-bit
#: scale; theta and phi are periodic.
GRID_N_BETA = 201
GRID_N_GAMMA = 201
GRID_N_THETA = 256
GRID_N_PHI = 64

STAR_TOL_BITS = 1e-9

# Bits per real dimension in one nat of ln(1 + snr): C(snr) = _BITS_PER_NAT * log1p(snr).
_BITS_PER_NAT = 0.5 / math.log(2.0)

#: Lattice points a slab of :func:`verify_star_property` aims at: 64 complex theta rows of the
#: default grid.  With n_phi <= SLAB // 2 a slab has under 2 * SLAB points, so each kernel row
#: (8 B a point) stays on the heap, under glibc's 128 KiB mmap threshold.
SLAB = 4096


def c_awgn(snr):
    """Real scalar AWGN capacity C(snr) = 0.5*log2(1+snr), bits per real dimension.

    Taken through log1p, within an ulp; rounding 1+snr first loses eps/snr relative.
    """
    s = np.asarray(snr, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("snr must be non-negative")
    out = _BITS_PER_NAT * np.log1p(s)
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

    nonjoint: float
    parallel: float
    sic: float


def penalties_db(alpha: float) -> PdlPenalties:
    """The three high-SNR penalties: 1/(1-a), 1/(1-a^2), 1/sqrt(1-a^2) in dB."""
    validate_alpha(alpha)
    return PdlPenalties(
        nonjoint=10.0 * math.log10(1.0 / (1.0 - alpha)),
        parallel=10.0 * math.log10(1.0 / (1.0 - alpha**2)),
        sic=10.0 * math.log10(1.0 / math.sqrt(1.0 - alpha**2)),
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
    with np.errstate(over="ignore"):  # an overflow is refused below
        objective = c_awgn(2.0 * (1.0 + gg) * bb * snr) + c_awgn(
            2.0 * (1.0 - gg) * (1.0 - bb) * snr
        )
        closed_form_bits = 2.0 * float(c_compound(alpha, snr))
    idx = np.argmin(objective, axis=1)
    min_value = objective[np.arange(n_beta), idx]
    gamma_star = gammas[idx]
    k = int(np.argmax(min_value))
    if not math.isfinite(min_value[k] - closed_form_bits):
        raise ValueError(f"the worst-case rate sums overflow the float range at snr {snr:g}")
    return WorstCaseSearch(
        alpha=alpha,
        snr=snr,
        beta_grid=betas,
        gamma_star=gamma_star,
        min_value=min_value,
        beta_star=float(betas[k]),
        max_min_bits=float(min_value[k]),
        closed_form_bits=closed_form_bits,
    )


def successive_stream_snrs(gram: np.ndarray, snr: float) -> np.ndarray:
    """LMMSE-SIC per-stream SNRs from Gram matrices H^T H.

    Stream i sees streams 1..i-1 cancelled and i+1..n as Gaussian
    interference; its SNR is the unbiased LMMSE SNR
    1/[(A[i:, i:])^-1]_00 - 1 with A = I + snr * Gram.  With Gaussian
    inputs, C of these SNRs are exactly the chain-rule mutual information
    terms, so their sum is the full mutual information.

    1/[(A[i:, i:])^-1]_00 is the Schur complement of A[i+1:, i+1:] in
    A[i:, i:].  One reverse Cholesky A = U U^T, U upper triangular and
    unrolled from the last pivot down, gives all n in the Schur form
    snr * Gram_ii - sum_{j>i} U_ij^2, which never adds the 1 only to take it
    away.  It reads only the upper triangle, each entry Gram_ab, a <= b, as
    one array over the batch, so the Gram must be symmetric positive
    semidefinite.  ``gram`` is a ``(*batch, n, n)`` stack, whose SNRs come
    back as the ``(*batch, n)`` view of a fresh entry-major array, or the
    entry form: an ``(n, n)`` object array of Gram_ab rows, None where the
    caller leaves out a Gram_ab that is 0.0 throughout.  The entry form is
    consumed: stream i's SNRs overwrite row ``[i, i]``, read once as step i
    starts, and the ``(n,)`` object array of those rows comes back; no other
    row is written.

    Error: the only loss is the cancellation in that subtraction, so each
    SNR is within 8*eps*snr*Gram_ii/SNR_i relative of the exact SNRs of the
    same float Gram when the trailing blocks A[i+1:, i+1:] are well
    conditioned, as under the universal precoders (at most 2x eps*snr*Gram_ii
    /SNR_i against 50-digit mpmath).  Ill-conditioned trailing blocks break
    the bound: near |gamma| = 1 (1 - 1e-6) the ``--permute 0,2,1,3`` negative
    control reached 5.2e3x eps*snr*Gram_ii/SNR_i, so its reported stream
    minimum there carries that much error.

    Zeros: U_ki is kept as None, never formed, when Gram_ki is None and none
    of its product terms has two formed factors, and every product term with
    a None factor is skipped; a stack forms every entry.  The complex
    universal precoder leaves 16 of the 36 upper-triangle Gram entries 0.0
    everywhere, and 10 of the 28 U_ki stay None.  The SNRs keep every bit of
    the dense recurrence: x - 0*y = x for finite y, and a zero whose sign
    could differ only ever reaches a square.
    """
    SnrSpec(snr)  # rejects snr <= 0 and non-finite snr
    entry = np.asarray(gram)
    if entry.dtype != object:  # a stack: its entry form, the diagonal copied entry major
        gram = entry.astype(float, copy=False)
        out = np.ascontiguousarray(np.moveaxis(np.diagonal(gram, 0, -2, -1), -1, 0))
        entry = [[out[a, ...] if a == b else gram[..., a, b] for b in range(len(out))]
                 for a in range(len(out))]
    n = len(entry)
    u = [[None] * n for _ in range(n)]  # u[k][i] = U_ki for k < i; None: 0.0 throughout
    for i in range(n - 1, -1, -1):
        schur = np.multiply(snr, entry[i][i], out=entry[i][i])
        for j in range(i + 1, n):
            if u[i][j] is not None:
                schur -= u[i][j] ** 2
        pivot = np.sqrt(schur + 1.0)
        for k in range(i):
            terms = [(u[k][j], u[i][j]) for j in range(i + 1, n)
                     if u[k][j] is not None and u[i][j] is not None]
            if not terms and entry[k][i] is None:
                continue
            x = 0.0 if entry[k][i] is None else snr * entry[k][i]
            for a, b in terms:
                x -= a * b
            x /= pivot
            u[k][i] = x
    return np.moveaxis(out, 0, -1) if isinstance(entry, list) else np.diagonal(entry)


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


def _layout_tables(layout) -> tuple:
    """``(signs, fold, t_pairs, p_pairs)`` of a :data:`FACTOR_LAYOUT`, for :func:`_gram_plan`.

    M_rk = sum_uv signs[r, k, u, v] * t[u] * p[v], and ``fold`` sums the ordered factor pairs
    (u, v, x, y) into the unordered ``t_pairs`` u <= x and ``p_pairs`` v <= y.
    """
    n_t, n_p = (1 + max(f[i] for row in layout for f in row) for i in (1, 2))
    signs = np.zeros((len(layout), len(layout), n_t, n_p))
    for r, row in enumerate(layout):
        for k, (sign, u, v) in enumerate(row):
            signs[r, k, u, v] = sign
    t_pairs, p_pairs = ([(u, x) for u in range(m) for x in range(u, m)] for m in (n_t, n_p))
    fold = np.zeros((n_t, n_p, n_t, n_p, len(t_pairs), len(p_pairs)))
    for k, (u, x) in enumerate(t_pairs):
        for j, (v, y) in enumerate(p_pairs):
            fold[[u, u, x, x], [v, y, v, y], [x, x, u, u], [y, v, y, v], k, j] = 1.0
    return signs, fold.reshape((n_t * n_p) ** 2, -1), t_pairs, p_pairs


_LAYOUT_TABLES = {model: _layout_tables(layout) for model, layout in FACTOR_LAYOUT.items()}


def _gram_plan(precoder: Precoder, phi) -> tuple:
    """``(t_pairs, entries, side)``: Gram[e] = sum_U T_U * side[e, U] along the ``phi`` axis.

    Row (j, r) of H = blockdiag(M, M) @ G is sum_k M_rk G[(j, k), :], and by
    :data:`FACTOR_LAYOUT` each M_rk is a sign times t[u] * p[v] of the
    :func:`~pdlsic.channel.channel_factors` ``(t, p)``.  So H = N (t x p)
    for a fixed N, and H^T H is N^T N over the products T_U = t[u] * t[x]
    and P_V = p[v] * p[y], taken over unordered pairs u <= x and v <= y;
    the ``(E, T, n_phi)`` ``side`` is sum_V coef[e, U, V] * P_V at each phi (None: real).
    Only the T pairs and upper-triangle ``entries`` (a, b) with a nonzero coefficient are kept,
    the diagonal first: 20 of 36 for the complex universal precoder, 16 for the complex identity.
    """
    signs, fold, t_pairs, p_pairs = _LAYOUT_TABLES[precoder.model]
    (d, _, n_t, n_p), n = signs.shape, precoder.n_streams
    rows = np.einsum("rkuv,jka->jrauv", signs, precoder.entries.reshape(2, d, n)).reshape(n, -1)
    c = (rows.T @ rows).reshape(n, n_t * n_p, n, -1).swapaxes(1, 2).reshape(n * n, -1) @ fold
    keep = np.flatnonzero((c != 0.0).any(axis=0).reshape(len(t_pairs), -1).any(axis=1))
    ka, kb = np.nonzero(np.triu((c != 0.0).any(axis=1).reshape(n, n), 1))
    entries = [(a, a) for a in range(n)] + list(zip(ka, kb))
    coef = c.reshape(n, n, len(t_pairs), -1)[tuple(np.array(entries).T)][:, keep]
    p = channel_factors(0.0, 0.0, phi)[1]
    side = coef @ np.array([np.atleast_1d(p[v] * p[y]) for v, y in p_pairs])
    return [t_pairs[k] for k in keep], entries, side


def _gram(gamma, theta, plan: tuple, out: np.ndarray) -> np.ndarray:
    """The plan's Gram entries over a slab: R (gamma, theta) rows x the phi axis of its side.

    ``gamma`` and ``theta`` are paired ``(R,)`` arrays, row r at ``(gamma[r],
    theta[r])``.  Each entry is the rank-T product of an ``(R, T)`` row factor
    and its ``(T, n_phi)`` slice of the plan's ``side``, all in one
    batched matmul into row e of the contiguous ``out`` of shape ``(E, S)``,
    S = R * n_phi, slab point j at row ``j // n_phi`` and phi ``j % n_phi``.
    """
    t_pairs, _, side = plan
    t = channel_factors(gamma, theta)[0]
    tt = np.stack([t[u] * t[x] for u, x in t_pairs], axis=-1)
    np.matmul(tt, side, out=out.reshape(len(side), len(theta), side.shape[2]))
    return out


def verify_star_property(
    precoder: Precoder,
    alpha: float,
    snr: float,
    n_gamma: int = GRID_N_GAMMA,
    n_theta: int = GRID_N_THETA,
    n_phi: int = GRID_N_PHI,
) -> StarPropertyReport:
    """Grid oracle for the precoder property that SIC order does not lose rate.

    Evaluates, over :func:`~pdlsic.channel.lattice`, the minimum of the sum of
    successive per-stream capacities against the sum of the per-stream
    minima.  Every lattice point gets its own Gram and
    :func:`successive_stream_snrs`, a slab at a time.  Row r of the lattice
    is gamma ``r // n_theta`` and theta ``r % n_theta``; a slab is a run of
    consecutive rows x the phi axis, and may end inside a gamma sheet.  The
    rows are split into ``max(1, rows // per)`` balanced runs, per = ``max(2,
    SLAB // n_phi)``: per to 2 * per - 1 rows each, or all rows when fewer,
    804 complex slabs of 64 rows or 12 real slabs of 4288 at the default
    sizes.  Two rows at least, unless the lattice has one: a one-row slab
    sends :func:`_gram`'s product down matmul's matrix-vector path, which
    moves ulps and so the tie-first points.  A slab's Gram holds only the
    entries of :func:`_gram_plan`, in one entry-major buffer made per call,
    and goes to the kernel in its entry form, which writes the SNRs over the
    diagonal rows; the rate sums reuse one per-call row too.  The running
    minima keep the first point in grid order.  The left side equals
    twice the compound capacity for any orthogonal precoder (chain rule); the
    right side reaches it only for a correct precoder and stream order.
    Both sides sum log1p of the stream SNRs in stream order and scale by
    0.5/ln 2 once, so no side loses eps/SNR relative at low SNR as
    log2(1 + SNR) would.  As log1p, float addition and the scaling are
    monotone, gap >= 0 always, in floats too.  A pass means the two sides
    agree to ``STAR_TOL_BITS`` bits per real dimension.  The report names the
    lattice point of the left side's minimum and of each stream's minimum.
    """
    SnrSpec(snr)  # rejects snr <= 0 and non-finite snr before any grid work
    gammas, theta, phi = lattice_axes(alpha, precoder.model, n_gamma, n_theta, n_phi)
    n_theta, n_phi = len(theta), 1 if phi is None else len(phi)
    rows = len(gammas) * n_theta
    per = max(2, SLAB // n_phi)  # two rows at least: see above
    runs = max(1, rows // per)
    ends = [rows * k // runs for k in range(runs + 1)]  # per to 2 * per - 1 rows each
    plan = _gram_plan(precoder, phi)  # the same for every slab
    n, entries = precoder.n_streams, plan[1]
    width = -(-rows // runs) * n_phi  # points in the largest slab
    buf, sums = np.empty(len(entries) * width), np.empty(width)  # one of each for every slab
    gram = np.empty((n, n), object)  # the kernel's entry form: None where the plan has no entry

    def point(at) -> ChannelParams:  # point j of the slab from row r0: row r0 + j // n_phi
        r, f = divmod(at, n_phi)
        return ChannelParams(float(gammas[r // n_theta]), float(theta[r % n_theta]),
                             None if phi is None else float(phi[f]))

    lhs, lhs_at = np.inf, None  # nats: the minimum over the grid of sum_i log1p(SNR_i)
    min_snrs, min_at = np.full(n, np.inf), [None] * n  # min_at, lhs_at: r0 * n_phi + j
    for r0, r1 in zip(ends, ends[1:]):
        r = np.arange(r0, r1)
        size = len(r) * n_phi
        slab = _gram(gammas[r // n_theta], theta[r % n_theta], plan,
                     buf[: len(entries) * size].reshape(-1, size))
        for (a, b), row in zip(entries, slab):
            gram[a, b] = row
        total = sums[:size]  # 0.0 + log1p(SNR_0) + ..., as a sum from zeros would be
        for i, row in enumerate(successive_stream_snrs(gram, snr)):
            k = int(row.argmin())
            if row[k] < min_snrs[i]:
                min_snrs[i], min_at[i] = row[k], r0 * n_phi + k
            np.add(0.0 if i == 0 else total, np.log1p(row, out=row), out=total)
        j = int(total.argmin())
        if total[j] < lhs:
            lhs, lhs_at = float(total[j]), r0 * n_phi + j
    rhs = 0.0  # the same sum in the same order, of the minima: rhs <= lhs
    for v in np.log1p(min_snrs):
        rhs += float(v)
    lhs, rhs = _BITS_PER_NAT * lhs, _BITS_PER_NAT * rhs
    return StarPropertyReport(
        lhs_bits=lhs / n,
        rhs_bits=rhs / n,
        gap_bits=(lhs - rhs) / n,
        min_stream_snrs=min_snrs,
        lhs_point=point(lhs_at),
        min_stream_points=tuple(map(point, min_at)),
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
    if not math.isfinite(chain_defect):
        raise ValueError(f"the capacity chain overflows the float range at snr {snr:g}")
    return MeanIdentityReport(am, gm, hm, product_defect, chain_defect)

