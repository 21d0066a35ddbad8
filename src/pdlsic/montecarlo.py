"""Stochastic oracle: end-to-end transmission through precode, channel, equalize, SIC.

Execution is block fading: channel parameters are drawn once per block of
symbols (the physical parameters vary slowly relative to the baud rate) and
estimators stratify by block.  The channels and equalizers of all blocks
are built in one batched call; each block then draws its symbols and noise
from its own seed, derived up front from the master seed, the arithmetic
runs stacked over chunks of blocks, and per-block results are summed in
block order, so a report is byte-identical for a fixed config.  Standard
errors come from a per-block jackknife, which respects block correlation
without distributional assumptions.

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
from itertools import groupby

import numpy as np
from scipy.special import erfc

from .capacity import c_awgn
from .channel import (
    ChannelParams,
    Model,
    SampleMode,
    SnrSpec,
    channel_matrix,
    draw_params,
    lattice,
    validate_alpha,
)
from .equalize import (
    StreamScheme,
    cancel_first_group,
    closed_form_stream_snr,
    first_stage_equalizer,
    post_sic_streams,
)
from .precode import effective_channel, universal_precoder

#: Elements per chunk array of the per-block symbols, noise and their
#: products: blocks of equal length are simulated C at a time, with C the
#: largest count within this bound (at least one).  The bound keeps the
#: arrays small; the report does not depend on it.
CHUNK_ELEMENTS = 2**12

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
    """Symbol error rate of uniform PAM on a unit-noise AWGN channel at the given SNR."""
    arg = math.sqrt(3.0 * snr / (order**2 - 1.0))
    q = 0.5 * erfc(arg / math.sqrt(2.0))
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

        return {
            "config": self.config.as_dict(),
            "stages": [fields_of(st) for st in self.stages],
            "snr_per_stream": arr(self.snr_per_stream),
            "snr_stderr": arr(self.snr_stderr),
            "rate_bits_per_real_dim": self.rate_bits_per_real_dim,
            "ser": None if self.ser is None else fields_of(self.ser),
            "block_snrs": arr(self.block_snrs),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


def _block_params(config: SimConfig, seed) -> ChannelParams:
    """The block parameters, stacked; Grid block b gets lattice point b mod the lattice size."""
    if config.param_mode is SampleMode.GRID:
        grid = lattice(config.alpha, config.model)
        sheet = grid.theta.size
        g, j = np.divmod(np.arange(config.n_blocks) % (grid.gamma.size * sheet), sheet)
        phi = None if grid.phi is None else grid.phi[0, j]
        return ChannelParams(grid.gamma[g, 0], grid.theta[0, j], phi)
    return draw_params(config.alpha, config.param_mode, config.model, seed, config.n_blocks)


def _pam_slice(estimates: np.ndarray, delta: float, order: int) -> np.ndarray:
    idx = np.rint((estimates / delta + (order - 1)) / 2.0)
    return np.clip(idx, 0, order - 1).astype(np.int64)


def _chunks(trial_counts: list[int], n: int):
    """``(start, stop)`` runs of blocks with equal trial counts, each within CHUNK_ELEMENTS.

    A chunk holds at most CHUNK_ELEMENTS // (n * trials) blocks, and at least one.
    """
    start = 0
    for n_trials, group in groupby(trial_counts):
        stop = start + len(list(group))
        size = max(1, CHUNK_ELEMENTS // (n * n_trials))
        for b in range(start, stop, size):
            yield b, min(b + size, stop)
        start = stop


def _simulate_blocks(config: SimConfig, params: ChannelParams, blocks_root, trial_counts):
    """Per-block sums of each stage and, for PAM, per-block symbol errors.

    The channel H, first-stage equalizer E and diag(E @ H) of every block
    are built in one call.  Each block then only draws its symbols and noise,
    from its own seed, into the arrays of its chunk; everything else is one
    stacked call per chunk, bitwise equal to the same call per block.  Block
    b's seed is child b of ``blocks_root``, spawned chunk by chunk.
    A stage's sums are ``(3, B, n, n)``: u u^T, u z^T and z z^T (n/2 streams
    in stage 2).  Errors are None or ``(2, B, n)``: genie, then
    decision-directed cancellation (the same without SIC).
    """
    if config.scheme.uses_precoder:
        eff = effective_channel(params, universal_precoder(config.model), config.snr)
        h, e = eff.matrix, first_stage_equalizer(eff, config.scheme.first_stage)
    else:
        h = channel_matrix(params)
        e = np.linalg.inv(h)
    lam = np.diagonal(e @ h, axis1=-2, axis2=-1).copy()
    n_blocks, m, n = h.shape
    k = n // 2
    s = config.snr.snr_linear
    order = pam_order(config.constellation)
    delta = None if order is None else math.sqrt(3.0 * s / (order**2 - 1.0))
    moments = [np.empty((3, n_blocks, n, n))]
    if config.scheme.is_sic:
        moments.append(np.empty((3, n_blocks, k, k)))
    errors = None if order is None else np.empty((2, n_blocks, n), dtype=np.int64)

    def products(a, b):  # a a^T, a b^T, b b^T over the chunk
        return a @ a.swapaxes(1, 2), a @ b.swapaxes(1, 2), b @ b.swapaxes(1, 2)

    for start, stop in _chunks(trial_counts, n):  # H is square: n == m
        chunk = slice(start, stop)
        shape = (stop - start, n, trial_counts[start])
        u = np.empty(shape)
        idx = None if order is None else np.empty(shape, dtype=np.int64)
        z = np.empty((stop - start, m, shape[2]))
        for c, seed in enumerate(blocks_root.spawn(stop - start)):
            rng = np.random.default_rng(seed)
            if order is None:
                rng.standard_normal(out=u[c])
            else:
                idx[c] = rng.integers(0, order, size=shape[1:])
            rng.standard_normal(out=z[c])
        if order is None:
            u *= math.sqrt(s)
        else:
            u = delta * (2.0 * idx - (order - 1))

        h_c, lam_c = h[chunk], lam[chunk, :, None]
        y = h_c @ u + z
        ey = e[chunk] @ y
        u_tilde = lam_c * u
        moments[0][:, chunk] = products(u_tilde, ey - u_tilde)
        if order is not None:
            idx1_hat = _pam_slice(ey / lam_c, delta, order)
            errors[:, chunk] = (idx1_hat != idx).sum(axis=2)

        if config.scheme.is_sic:
            y_hat = cancel_first_group(h_c, u[:, :k], y)
            moments[1][:, chunk] = products(u[:, k:], y_hat - u[:, k:])
            if order is not None:
                u_dd = delta * (2.0 * idx1_hat[:, :k] - (order - 1))
                y_hat_dd = cancel_first_group(h_c, u_dd, y)
                errors[0, chunk, k:] = (_pam_slice(y_hat, delta, order) != idx[:, k:]).sum(axis=2)
                errors[1, chunk, k:] = (_pam_slice(y_hat_dd, delta, order) != idx[:, k:]).sum(axis=2)
    return moments, errors


def _jackknife_ratio(num: np.ndarray, den: np.ndarray):
    """Estimate and leave-one-block-out standard error of sum(num)/sum(den)."""
    b = num.shape[0]
    total_num = num.sum(axis=0)
    total_den = den.sum(axis=0)
    estimate = total_num / total_den
    if b < 2:
        return estimate, None
    loo = (total_num - num) / (total_den - den)
    se = np.sqrt((b - 1) / b * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))
    return estimate, se


def _stage_stats(moments: np.ndarray, counts: np.ndarray) -> tuple[EmpiricalStats, np.ndarray]:
    """Jackknifed statistics of one stage from its block sums, and its stream SNRs per block."""
    denom = counts[:, None, None]
    means, stderrs = zip(*(_jackknife_ratio(x, denom) for x in moments))  # uu, uz, zz
    diag = np.arange(moments.shape[-1])
    # fancy indexing copies; summing a diagonal view would change the order of the sums
    signal, noise = moments[0][:, diag, diag], moments[2][:, diag, diag]
    snr, snr_se = _jackknife_ratio(signal, noise)
    return EmpiricalStats(*means, *stderrs, snr, snr_se), signal / noise


def _ser_stats(config: SimConfig, errors: np.ndarray, n_total: int) -> SerStats:
    order = pam_order(config.constellation)
    err_genie, err_dd = errors.sum(axis=1)
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
    sums, so a fixed config gives a byte-identical report.
    """
    master = np.random.SeedSequence(config.seed)
    params_seed, blocks_root = master.spawn(2)
    params = _block_params(config, params_seed)
    trial_counts = [
        min(config.block_size, config.trials - b * config.block_size)
        for b in range(config.n_blocks)
    ]

    moments, errors = _simulate_blocks(config, params, blocks_root, trial_counts)

    counts = np.array(trial_counts, dtype=float)
    stage1, block_snrs = _stage_stats(moments[0], counts)
    stages = (stage1,)
    snr, snr_se = stage1.snr_per_stream, stage1.snr_stderr
    if config.scheme.is_sic:
        stage2, second_block_snrs = _stage_stats(moments[1], counts)
        stages += (stage2,)
        snr = post_sic_streams(snr, stage2.snr_per_stream)
        if snr_se is not None:
            snr_se = post_sic_streams(snr_se, stage2.snr_stderr)
        block_snrs = post_sic_streams(block_snrs, second_block_snrs)

    rate = float(np.mean(c_awgn(snr))) if errors is None else None
    ser = None if errors is None else _ser_stats(config, errors, sum(trial_counts))
    return SimReport(
        config=config,
        stages=stages,
        snr_per_stream=snr,
        snr_stderr=snr_se,
        rate_bits_per_real_dim=rate,
        ser=ser,
        block_snrs=block_snrs if config.report_blocks else None,
    )

