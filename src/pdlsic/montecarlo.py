"""Stochastic oracle: end-to-end transmission through precode, channel, equalize, SIC.

Execution is block fading: channel parameters are drawn once per block of
symbols (the physical parameters vary slowly relative to the baud rate) and
estimators stratify by block.  The master seed spawns two children: one
draws the parameters of all blocks at once, the other spawns the two
streams of the run, noise (child 0) and PAM symbols (child 1).  Each stream
is drawn block-major, one call per chunk of blocks, so block b reads the
b-th segment of each stream whatever the chunk size; Gaussian symbols share
the noise stream, the first n rows of each block's ``(2n, trials)`` segment.
The channels and equalizers are built for runs of whole chunks, the
arithmetic runs stacked over each chunk in one workspace per run, and each
stage's moments are reduced to running sums in block order, so a report is
byte-identical for a fixed config and independent of the chunk size.
Reports for a given seed have changed twice: when this layout replaced one
seed per block, and when WorstCaseEdge block parameters moved to the one
uniform table of ``draw_params`` (UniformInterior and Grid parameters did
not change).
Standard errors come from a per-block jackknife, which respects block
correlation without distributional assumptions; the jackknife of the
second moments runs on the sums, and only the stream signal and noise of
each block are kept for the SNR jackknife.

Gaussian inputs are the default oracle; PAM exists solely to certify that
the synthesized streams behave as scalar AWGN channels under a standard
symbol-by-symbol decision metric, including the cost of decision-directed
(rather than genie) cancellation.
"""

import enum
import json
import math
import re
from dataclasses import dataclass, fields

import numpy as np

from .capacity import c_awgn
from .channel import (
    ChannelParams,
    Model,
    SampleMode,
    SnrSpec,
    channel_matrix,
    draw_params,
    lattice_axes,
    lattice_points,
    validate_alpha,
)
from .equalize import (
    StreamScheme,
    cancel_first_group,
    closed_form_stream_snr,
    first_stage_equalizer,
    post_sic_streams,
)
from .precode import EffectiveChannel, effective_channel, universal_precoder

#: Elements per chunk array of the per-block symbols or noise (a Gaussian
#: draw of both is twice that): blocks of equal length are simulated C at a
#: time, with C the largest count within this bound (at least one).  A run
#: allocates one workspace for its largest chunk: four such arrays (six for
#: PAM) and each stage's ``(C + 1, 3, n, n)`` moment rows, 0.9 MB for the
#: complex fast-fading config.  The channels of as many whole chunks as keep
#: their ``(blocks, n, n)`` arrays within the bound are built in one call.
#: The report does not depend on the bound; at 2**15 the fast-fading
#: benchmark was within timing noise and the workspace doubled.
CHUNK_ELEMENTS = 2**14

_PAM_PATTERN = re.compile(r"^PAM\((\d+)\)$")
_PAM_ORDERS = (2, 4, 8)


class Scheme(enum.Enum):
    ZF = "ZF"
    LMMSE = "LMMSE"
    ZF_SIC = "ZF-SIC"
    LMMSE_SIC = "LMMSE-SIC"
    NOPRECODE_ZF = "NoPrecode-ZF"

    @property
    def is_sic(self) -> bool:
        return self in (Scheme.ZF_SIC, Scheme.LMMSE_SIC)

    @property
    def uses_precoder(self) -> bool:
        return self is not Scheme.NOPRECODE_ZF

    @property
    def first_stage(self) -> StreamScheme:
        """The linear equalizer of the first (or only) stage."""
        return StreamScheme.LMMSE if self in (Scheme.LMMSE, Scheme.LMMSE_SIC) else StreamScheme.ZF

    @classmethod
    def parse(cls, name: str) -> "Scheme":
        for scheme in cls:
            if scheme.value.lower() == str(name).strip().lower():
                return scheme
        raise ValueError(f"unknown scheme {name!r}")


def pam_order(constellation: str) -> int | None:
    """PAM order from a constellation string, or None for Gaussian."""
    if constellation == "Gaussian":
        return None
    match = _PAM_PATTERN.match(constellation)
    if match and int(match.group(1)) in _PAM_ORDERS:
        return int(match.group(1))
    raise ValueError(
        f"constellation must be 'Gaussian' or 'PAM(m)' with m in {_PAM_ORDERS}, "
        f"got {constellation!r}"
    )


def ser_pam_awgn(order: int, snr: float) -> float:
    """Symbol error rate of uniform PAM on a unit-noise AWGN channel at the given SNR.

    The Gaussian tail comes from the standard library's ``math.erfc``.
    """
    arg = math.sqrt(3.0 * snr / (order**2 - 1.0))
    q = 0.5 * math.erfc(arg / math.sqrt(2.0))
    return 2.0 * (1.0 - 1.0 / order) * q


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation; equal configs produce identical reports."""

    model: Model
    alpha: float
    snr: SnrSpec
    param_mode: SampleMode
    scheme: Scheme
    trials: int
    seed: int
    constellation: str = "Gaussian"
    block_size: int = 1000
    report_blocks: bool = False

    def __post_init__(self):
        validate_alpha(self.alpha)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.block_size < 1:
            raise ValueError("block_size must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        pam_order(self.constellation)

    @property
    def n_blocks(self) -> int:
        return -(-self.trials // self.block_size)

    def as_dict(self) -> dict:
        return {
            "model": "Real" if self.model is Model.REAL else "ComplexEquivalent",
            "alpha": self.alpha,
            "snr": {"snr_linear": self.snr.snr_linear, "snr_db": self.snr.snr_db},
            "param_mode": self.param_mode.value,
            "scheme": self.scheme.value,
            "trials": self.trials,
            "seed": self.seed,
            "constellation": self.constellation,
            "block_size": self.block_size,
            "report_blocks": self.report_blocks,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {data!r:.40}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"config has unknown fields {unknown}")

        def take(field, default=None, required=True):
            if field in data:
                return data[field]
            if required:
                raise ValueError(f"config is missing required field {field!r}")
            return default

        def number(field, value) -> float:
            # float() would take JSON true/false as 1/0 and parse strings
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"field {field!r} must be a number, got {value!r}")
            try:
                return float(value)
            except OverflowError:
                raise ValueError(f"field {field!r} is too large for a float") from None

        def integer(field, default=None):
            value = take(field, default, required=default is None)
            if number(field, value) % 1:
                raise ValueError(f"field {field!r} must be an integer, got {value!r}")
            return int(value)

        report_blocks = take("report_blocks", False, required=False)
        if not isinstance(report_blocks, bool):
            raise ValueError(f"field 'report_blocks' must be true or false, got {report_blocks!r}")

        snr_raw = take("snr")
        if not isinstance(snr_raw, dict):
            snr = SnrSpec(number("snr", snr_raw))
        elif unknown := sorted(set(snr_raw) - {"snr_db", "snr_linear"}):
            raise ValueError(f"field 'snr' has unknown keys {unknown}")
        elif "snr_linear" in snr_raw:
            # the exact value; an echoed snr_db is derived from it and only cross-checked
            snr = SnrSpec(number("snr_linear", snr_raw["snr_linear"]))
            snr_db = number("snr_db", snr_raw.get("snr_db", snr.snr_db))
            if not abs(snr_db - snr.snr_db) <= 1e-9:
                raise ValueError(f"field 'snr' has snr_db {snr_raw['snr_db']}, but snr_linear "
                                 f"{snr.snr_linear} is {snr.snr_db} dB")
        elif "snr_db" in snr_raw:
            snr = SnrSpec.from_db(number("snr_db", snr_raw["snr_db"]))
        else:
            raise ValueError("field 'snr' must contain 'snr_db' or 'snr_linear'")
        try:
            return cls(
                model=Model.parse(take("model")),
                alpha=number("alpha", take("alpha")),
                snr=snr,
                param_mode=SampleMode.parse(take("param_mode")),
                scheme=Scheme.parse(take("scheme")),
                trials=integer("trials"),
                seed=integer("seed"),
                constellation=str(take("constellation", "Gaussian", required=False)),
                block_size=integer("block_size", 1000),
                report_blocks=report_blocks,
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"invalid simulation config: {exc}") from exc


@dataclass(frozen=True)
class EmpiricalStats:
    """Empirical second-order statistics for one equalization stage."""

    k_uu: np.ndarray
    k_uz: np.ndarray
    k_zz: np.ndarray
    k_uu_stderr: np.ndarray | None
    k_uz_stderr: np.ndarray | None
    k_zz_stderr: np.ndarray | None
    snr_per_stream: np.ndarray
    snr_stderr: np.ndarray | None


@dataclass(frozen=True)
class SerStats:
    """Uncoded PAM symbol error rates against the scalar AWGN prediction."""

    pam_order: int
    ser_genie: np.ndarray
    ser_genie_stderr: np.ndarray
    ser_decision_directed: np.ndarray | None
    ser_decision_directed_stderr: np.ndarray | None
    theory: np.ndarray | None
    abs_deviation: np.ndarray | None
    dd_over_genie: np.ndarray | None


@dataclass(frozen=True)
class SimReport:
    config: SimConfig
    stages: tuple[EmpiricalStats, ...]
    snr_per_stream: np.ndarray
    snr_stderr: np.ndarray | None
    rate_bits_per_real_dim: float | None
    ser: SerStats | None
    block_snrs: np.ndarray | None

    def as_dict(self) -> dict:
        def arr(x):
            return None if x is None else np.asarray(x).tolist()

        def fields_of(obj):
            return {f.name: arr(getattr(obj, f.name)) for f in fields(obj)}

        ser = None if self.ser is None else fields_of(self.ser)
        if ser and ser["dd_over_genie"]:  # undefined, so null, where there are no genie errors
            ser["dd_over_genie"] = [None if math.isnan(r) else r for r in ser["dd_over_genie"]]
        return {
            "config": self.config.as_dict(),
            "stages": [fields_of(st) for st in self.stages],
            "snr_per_stream": arr(self.snr_per_stream),
            "snr_stderr": arr(self.snr_stderr),
            "rate_bits_per_real_dim": self.rate_bits_per_real_dim,
            "ser": ser,
            "block_snrs": arr(self.block_snrs),
        }

    def to_json(self) -> str:
        try:  # strict JSON: NaN and infinity raise
            return json.dumps(self.as_dict(), indent=2, allow_nan=False)
        except ValueError:
            raise _out_of_range(self.config) from None


def _out_of_range(config: SimConfig) -> ValueError:
    """The refusal of a run whose statistics leave the range of normal floats."""
    return ValueError(f"the report at SNR {config.snr.snr_linear:g} would hold a non-finite "
                      "or underflowed number: its statistics over- or underflow")


def _block_params(config: SimConfig, seed) -> ChannelParams:
    """The block parameters, stacked; Grid block b gets :func:`lattice_points` point b."""
    if config.param_mode is SampleMode.GRID:
        return lattice_points(lattice_axes(config.alpha, config.model), np.arange(config.n_blocks))
    return draw_params(config.alpha, config.param_mode, config.model, seed, config.n_blocks)


def _pam_slice(estimates: np.ndarray, delta: float, order: int) -> np.ndarray:
    """``estimates`` overwritten with their nearest PAM indices, as floats."""
    estimates /= delta
    estimates += order - 1
    estimates /= 2.0
    np.rint(estimates, out=estimates)
    return np.clip(estimates, 0, order - 1, out=estimates)


def _pam_delta(config: SimConfig, order: int) -> float:
    """Half the spacing of PAM symbols whose mean energy is the SNR."""
    return math.sqrt(3.0 * config.snr.snr_linear / (order**2 - 1.0))


def _chunks(config: SimConfig, n: int):
    """``(start, stop, trials)`` runs of blocks of equal length, each within CHUNK_ELEMENTS.

    Every block holds ``block_size`` trials but the last, which holds the
    remainder when there is one and is then a chunk of its own.  A chunk
    holds at most CHUNK_ELEMENTS // (n * trials) blocks, and at least one;
    the first chunk is the largest.
    """
    full, last = divmod(config.trials, config.block_size)
    size = max(1, CHUNK_ELEMENTS // (n * config.block_size))
    for start in range(0, full, size):
        yield start, min(start + size, full), config.block_size
    if last:
        yield full, full + 1, last


def _take(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    """The front of the flat buffer ``buffer`` as an array of ``shape``."""
    return buffer[:math.prod(shape)].reshape(shape)


def _block_draws(config: SimConfig, blocks_root, n: int, workspace: np.ndarray):
    """Per chunk, ``(start, stop, u, idx, z)``: symbols, PAM indices (None if Gaussian), noise.

    Child 0 of ``blocks_root`` seeds the noise stream and child 1 the PAM
    symbol stream.  Each is drawn block-major, one call per chunk, so block
    b reads the b-th segment of each stream whatever the chunk size.
    Gaussian symbols share the noise stream: block b's ``(2n, trials)``
    segment holds its symbols in the first n rows and its noise in the rest.
    The chunks are drawn into ``workspace``, a flat buffer with room for
    two ``(C, n, T)`` arrays of the largest chunk, so a chunk's arrays hold
    only until the next chunk is drawn.
    """
    noise, symbols = (np.random.default_rng(child) for child in blocks_root.spawn(2))
    order = pam_order(config.constellation)
    scale = math.sqrt(config.snr.snr_linear) if order is None else _pam_delta(config, order)
    u_buf, z_buf = np.split(workspace, 2)  # PAM symbols and noise
    for start, stop, t in _chunks(config, n):
        shape = (stop - start, n, t)
        if order is None:
            w = noise.standard_normal(out=_take(workspace, (stop - start, 2 * n, t)))
            u = w[:, :n]
            u *= scale
            yield start, stop, u, None, w[:, n:]
        else:
            idx = symbols.integers(0, order, shape)
            u = np.multiply(2.0, idx, out=_take(u_buf, shape))
            u -= order - 1
            u *= scale
            yield start, stop, u, idx, noise.standard_normal(out=_take(z_buf, shape))


class _StageSums:
    """Running sums of one stage's second moments over its blocks.

    A block's moments are ``u u^T``, ``u z^T`` and ``z z^T`` of its signal u
    and noise z.  Over the full blocks (``block_size`` trials) three sums
    run: the moments, their deviations d from block 0's, and d squared; the
    ragged last block is kept as a term of its own.  With equal trial counts
    a full block's leave-one-out mean is linear in its own moments, so these
    sums give the jackknife of k_uu, k_uz and k_zz exactly, and Chan's
    pairwise update adds the ragged block.  Deviations of an entry of
    ``a b^T`` are divided before squaring by block 0's Cauchy-Schwarz bound
    sqrt(a_i a_i^T b_j b_j^T), so the standard errors neither overflow nor
    underflow at extreme SNRs.  Each chunk is added row by row in block
    order, so the sums do not depend on the chunking.  Only the stream
    signal and noise, the diagonals of u u^T and z z^T, are kept per block:
    the SNR jackknife is a ratio of block sums and needs them.
    """

    def __init__(self, config: SimConfig, n: int, rows: np.ndarray):
        self.block_size = config.block_size
        self.full = 0
        self.sums = np.zeros((3, 3, n, n))  # (moments, deviations, squares) of (uu, uz, zz)
        self.shift = self.scale = self.ragged = None
        self.ragged_trials = 0
        self.signal = np.empty((config.n_blocks, n))
        self.noise = np.empty((config.n_blocks, n))
        self.rows = rows  # for the largest chunk: a running sum, then its moments, row by row

    def add(self, start: int, u: np.ndarray, z: np.ndarray) -> None:
        """Add blocks ``start, start + 1, ...`` of signal ``u`` and noise ``z``, each ``(C, n, T)``."""
        count, n, trials = u.shape
        rows = _take(self.rows, (count + 1, 3, n, n))
        moments = rows[1:]
        np.matmul(u, u.swapaxes(1, 2), out=moments[:, 0])
        np.matmul(u, z.swapaxes(1, 2), out=moments[:, 1])
        np.matmul(z, z.swapaxes(1, 2), out=moments[:, 2])
        signal = np.diagonal(moments[:, 0], axis1=1, axis2=2)
        noise = np.diagonal(moments[:, 2], axis1=1, axis2=2)
        self.signal[start:start + count] = signal
        self.noise[start:start + count] = noise
        if trials < self.block_size:  # the ragged last block, a chunk of its own
            self.ragged, self.ragged_trials = moments[0].copy(), trials
            return
        if self.shift is None:
            root = np.sqrt(np.concatenate((signal[0], noise[0])))
            root[root == 0.0] = 1.0
            su, sz = root[:n], root[n:]
            self.shift = moments[0].copy()
            self.scale = np.array([np.outer(su, su), np.outer(su, sz), np.outer(sz, sz)])
        # each sum is reduced along the slow axis: row by row, in block order
        rows[0] = self.sums[0]
        np.add.reduce(rows, axis=0, out=self.sums[0])
        moments -= self.shift
        moments /= self.scale
        rows[0] = self.sums[1]
        np.add.reduce(rows, axis=0, out=self.sums[1])
        np.square(moments, out=moments)
        rows[0] = self.sums[2]
        np.add.reduce(rows, axis=0, out=self.sums[2])
        self.full += count

    def stats(self) -> EmpiricalStats:
        """Jackknifed statistics of the stage."""
        f, t = self.full, self.block_size
        total, n_trials = self.sums[0], f * t
        if self.ragged is not None:
            total, n_trials = total + self.ragged, n_trials + self.ragged_trials
        blocks = f + (self.ragged is not None)
        stderr = (None,) * 3
        if blocks > 1:
            # the full blocks' leave-one-out means deviate from their mean
            # by -(M_b - mean M)/(N - t)
            _, dev, dev2 = self.sums
            m2 = np.maximum(dev2 - dev * dev / f, 0.0) / float(n_trials - t) ** 2
            if self.ragged is not None:
                gap = ((total - self.sums[0] / f) / (n_trials - t)
                       - (total - self.ragged) / (n_trials - self.ragged_trials))
                m2 += f / (f + 1.0) * (gap / self.scale) ** 2
            stderr = self.scale * np.sqrt((blocks - 1) / blocks * m2)
        snr, snr_se = _jackknife_ratio(self.signal, self.noise)
        return EmpiricalStats(*(total / n_trials), *stderr, snr, snr_se)


def _channels(config: SimConfig, params: ChannelParams, precoder, blocks: range):
    """The channel H, first-stage equalizer E and diag(E @ H) of the given blocks.

    H is the channel matrix (NoPrecode-ZF) or the precoded effective channel;
    every scheme takes E from :func:`~pdlsic.equalize.first_stage_equalizer`.
    """
    phi = None if params.phi is None else params.phi[blocks.start:blocks.stop]
    chunk = ChannelParams(params.gamma[blocks.start:blocks.stop],
                          params.theta[blocks.start:blocks.stop], phi)
    eff = (EffectiveChannel(channel_matrix(chunk), config.snr) if precoder is None
           else effective_channel(chunk, precoder, config.snr))
    h, e = eff.matrix, first_stage_equalizer(eff, config.scheme.first_stage)
    return h, e, np.diagonal(e @ h, axis1=-2, axis2=-1)[..., None]


def _simulate_blocks(config: SimConfig, params: ChannelParams, blocks_root):
    """The running sums of each stage and, for PAM, the symbol error totals.

    The precoder is built once.  The channels and equalizers are built by
    :func:`_channels` for runs of whole chunks of blocks, as many chunks as
    keep the ``(blocks, n, n)`` arrays within CHUNK_ELEMENTS (at least one),
    so that long blocks, one to a chunk, do not cost one build each.  Per
    chunk, the symbols and noise come from :func:`_block_draws`, and the
    channel output, equalization, moment products, cancellation and PAM
    slicing are stacked calls, bitwise equal to the same call per block,
    that write into one workspace per run.  Only the stage sums of
    :class:`_StageSums` outlive a chunk.  A stage has n streams (n/2 in
    stage 2).  Errors are None or ``(2, n)`` totals: genie, then
    decision-directed cancellation (the same without SIC).
    """
    scheme = config.scheme
    precoder = universal_precoder(config.model) if scheme.uses_precoder else None
    n = config.model.dim * (1 if precoder is None else 2)
    k = n // 2
    order = pam_order(config.constellation)
    delta = None if order is None else _pam_delta(config, order)
    errors = None if order is None else np.zeros((2, n), dtype=np.int64)
    # One allocation per run holds every chunk array: the draws, whose noise
    # becomes y; H u, then E y and the stage-0 noise, then the stage-1
    # estimate; Lambda u, then the cancellation residual; for PAM, the
    # first-stage decisions and the stage-1 noise; the rows of each stage.
    # Freed, one buffer this large lifts glibc's mmap and trim thresholds
    # past a run's working set, so later runs take no page faults; apart,
    # the same arrays took about 350 faults a run.
    _, blocks, trials = next(_chunks(config, n))
    chunk = n * blocks * trials
    sizes = [2 * chunk] + [chunk] * (2 if order is None else 4) + [(blocks + 1) * 3 * n * n]
    if scheme.is_sic:
        sizes.append((blocks + 1) * 3 * k * k)
    draws, e_buf, v_buf, *bufs = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
    if order is not None:
        decided_buf, x_buf, *bufs = bufs
    stages = [_StageSums(config, m, rows) for m, rows in zip((n, k), bufs)]

    def errors_of(estimates, idx):  # slices ``estimates`` in place
        return (_pam_slice(estimates, delta, order) != idx).sum(axis=(0, 2))

    built, channels = range(0), None
    for start, stop, u, idx, z in _block_draws(config, blocks_root, n, draws):
        if stop > built.stop:
            span = (stop - start) * max(1, CHUNK_ELEMENTS // (n * n * (stop - start)))
            built = range(start, min(start + span, config.n_blocks))
            channels = _channels(config, params, precoder, built)
        h, e, lam = (a[start - built.start:stop - built.start] for a in channels)
        c, _, t = u.shape
        y = np.add(z, np.matmul(h, u, out=_take(e_buf, u.shape)), out=z)  # y = H u + z
        ey = np.matmul(e, y, out=_take(e_buf, u.shape))
        u_tilde = np.multiply(lam, u, out=_take(v_buf, u.shape))
        if order is not None:
            idx1_hat = np.divide(ey, lam, out=_take(decided_buf, u.shape))
            first = errors_of(idx1_hat, idx)
            errors[:, :k] += first[:k]
            if not scheme.is_sic:
                errors[:, k:] += first[k:]
        stages[0].add(start, u_tilde, np.subtract(ey, u_tilde, out=ey))

        if scheme.is_sic:
            second = (c, k, t)
            residual = _take(v_buf, u.shape)
            y_hat = cancel_first_group(h, u[:, :k], y, _take(e_buf, second), residual)
            noise = _take(x_buf, second) if order is not None else y_hat
            stages[1].add(start, u[:, k:], np.subtract(y_hat, u[:, k:], out=noise))
            if order is not None:
                errors[0, k:] += errors_of(y_hat, idx[:, k:])
                u_dd = idx1_hat[:, :k]  # decided first-group symbols, in place
                u_dd *= 2.0
                u_dd -= order - 1
                u_dd *= delta
                y_dd = cancel_first_group(h, u_dd, y, _take(x_buf, second), residual)
                errors[1, k:] += errors_of(y_dd, idx[:, k:])
    return stages, errors


def _jackknife_ratio(num: np.ndarray, den: np.ndarray):
    """Estimate and leave-one-block-out standard error of sum(num)/sum(den).

    The deviations are divided by their largest magnitude before squaring,
    so the standard error neither overflows nor underflows at extreme scales.
    """
    b = num.shape[0]
    total_num = num.sum(axis=0)
    total_den = den.sum(axis=0)
    estimate = total_num / total_den
    if b < 2:
        return estimate, None
    dev = total_num - num  # in place from here on: B may be 10**6 blocks
    rows = max(1, CHUNK_ELEMENTS // dev.shape[1])  # divisors a row block at a time
    for r in range(0, b, rows):
        dev[r:r + rows] /= total_den - den[r:r + rows]
    dev -= dev.mean(axis=0)
    scale = np.maximum(dev.max(axis=0), -dev.min(axis=0))
    scale[scale == 0.0] = 1.0
    dev /= scale
    return estimate, scale * np.sqrt((b - 1) / b * np.square(dev, out=dev).sum(axis=0))


def _ser_stats(config: SimConfig, errors: np.ndarray) -> SerStats:
    order = pam_order(config.constellation)
    n_total = config.trials
    err_genie, err_dd = errors
    n_streams = err_genie.shape[0]
    k = n_streams // 2
    ser_genie = err_genie / n_total
    ser_dd = err_dd / n_total if config.scheme.is_sic else None
    binom_se = lambda p: np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / n_total)

    theory = None
    deviation = None
    if config.scheme.uses_precoder and config.param_mode is SampleMode.WORST_CASE_EDGE:
        snrs = np.full(n_streams, closed_form_stream_snr(config.scheme.first_stage, config.alpha, config.snr))
        if config.scheme.is_sic:
            snrs[k:] = closed_form_stream_snr(StreamScheme.POST_SIC, config.alpha, config.snr)
        theory = np.array([ser_pam_awgn(order, v) for v in snrs])
        deviation = np.abs(ser_genie - theory)

    ratio = None
    if ser_dd is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(ser_genie[k:] > 0, ser_dd[k:] / ser_genie[k:], np.nan)
    return SerStats(
        pam_order=order,
        ser_genie=ser_genie,
        ser_genie_stderr=binom_se(ser_genie),
        ser_decision_directed=ser_dd,
        ser_decision_directed_stderr=None if ser_dd is None else binom_se(ser_dd),
        theory=theory,
        abs_deviation=deviation,
        dd_over_genie=ratio,
    )


def run(config: SimConfig) -> SimReport:
    """Simulate the configured chain and estimate stream statistics.

    Parameters are redrawn once per block; genie-aided cancellation is used
    for the SIC schemes.  The report aggregates exact per-block second-moment
    sums in block order, so a fixed config gives a byte-identical report.
    """
    params_seed, blocks_root = np.random.SeedSequence(config.seed).spawn(2)
    params = _block_params(config, params_seed)
    sums, errors = _simulate_blocks(config, params, blocks_root)
    # below the normal range (LMMSE stage 1 scales as SNR^3), SNRs read 0, 0/0 or drift
    tiny = np.finfo(float).tiny
    if any(min(stage.signal.min(), stage.noise.min()) < tiny for stage in sums):
        raise _out_of_range(config)

    stages = tuple(stage.stats() for stage in sums)
    snr, snr_se = stages[0].snr_per_stream, stages[0].snr_stderr
    block_snrs = sums[0].signal / sums[0].noise if config.report_blocks else None
    if config.scheme.is_sic:
        snr = post_sic_streams(snr, stages[1].snr_per_stream)
        if snr_se is not None:
            snr_se = post_sic_streams(snr_se, stages[1].snr_stderr)
        if block_snrs is not None:
            block_snrs = post_sic_streams(block_snrs, sums[1].signal / sums[1].noise)

    rate = float(np.mean(c_awgn(snr))) if errors is None else None
    return SimReport(
        config=config,
        stages=stages,
        snr_per_stream=snr,
        snr_stderr=snr_se,
        rate_bits_per_real_dim=rate,
        ser=None if errors is None else _ser_stats(config, errors),
        block_snrs=block_snrs,
    )
