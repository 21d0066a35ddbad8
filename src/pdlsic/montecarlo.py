"""Stochastic oracle: end-to-end transmission through precode, channel, equalize, SIC.

Execution is block fading: channel parameters are drawn once per block of
symbols (the physical parameters vary slowly relative to the baud rate) and
estimators stratify by block.  Per-block seeds are derived up front from the
master seed and per-block results are summed in block order, so a report is
byte-identical for a fixed config.  Standard errors come from a per-block
jackknife, which respects block correlation without distributional
assumptions.

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
from itertools import cycle, islice

import numpy as np
from scipy.special import erfc

from .capacity import c_awgn
from .channel import (
    ChannelParams,
    Model,
    PdlClass,
    SampleMode,
    SnrSpec,
    channel_matrix,
    sample_params,
    validate_alpha,
)
from .equalize import (
    StreamScheme,
    cancel_first_group,
    closed_form_stream_snr,
    first_stage_equalizer,
    post_sic_streams,
)
from .precode import Precoder, effective_channel, universal_precoder

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

        def integer(field, default=None):
            value = take(field, default, required=default is None)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
                raise ValueError(f"field {field!r} must be an integer, got {value!r}")
            return int(value)

        report_blocks = take("report_blocks", False, required=False)
        if not isinstance(report_blocks, bool):
            raise ValueError(f"field 'report_blocks' must be true or false, got {report_blocks!r}")

        snr_raw = take("snr")
        if not isinstance(snr_raw, dict):
            snr = SnrSpec(float(snr_raw))
        elif "snr_linear" in snr_raw:
            # the exact value; an echoed snr_db is derived from it and only cross-checked
            snr = SnrSpec(float(snr_raw["snr_linear"]))
            if "snr_db" in snr_raw and not abs(float(snr_raw["snr_db"]) - snr.snr_db) <= 1e-9:
                raise ValueError(f"field 'snr' has snr_db {snr_raw['snr_db']}, but snr_linear "
                                 f"{snr.snr_linear} is {snr.snr_db} dB")
        elif "snr_db" in snr_raw:
            snr = SnrSpec.from_db(float(snr_raw["snr_db"]))
        else:
            raise ValueError("field 'snr' must contain 'snr_db' or 'snr_linear'")
        try:
            return cls(
                model=Model.parse(take("model")),
                alpha=float(take("alpha")),
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


def _block_params(config: SimConfig, seed) -> list[ChannelParams]:
    """One parameter point per block; Grid runs cycle the lattice, drawing only what they use."""
    pdl = PdlClass(config.alpha)
    if config.param_mode is SampleMode.GRID:
        lattice = sample_params(pdl, SampleMode.GRID, config.model)
        return list(islice(cycle(lattice), config.n_blocks))
    return list(
        sample_params(
            pdl, config.param_mode, config.model, seed=seed, count=config.n_blocks
        )
    )


def _pam_slice(estimates: np.ndarray, delta: float, order: int) -> np.ndarray:
    idx = np.rint((estimates / delta + (order - 1)) / 2.0)
    return np.clip(idx, 0, order - 1).astype(np.int64)


def _simulate_block(
    config: SimConfig, precoder: Precoder | None, params: ChannelParams, seed, n_trials: int
) -> dict:
    """One block: fixed channel realization, n_trials independent symbol vectors."""
    rng = np.random.default_rng(seed)
    s = config.snr.snr_linear
    order = pam_order(config.constellation)

    if config.scheme.uses_precoder:
        eff = effective_channel(params, precoder, config.snr)
        h = eff.matrix
        e = first_stage_equalizer(eff, config.scheme.first_stage)
    else:
        h = channel_matrix(params)
        e = np.linalg.inv(h)
    m, n = h.shape
    k = n // 2

    if order is None:
        u = math.sqrt(s) * rng.standard_normal((n, n_trials))
        idx = None
        delta = None
    else:
        delta = math.sqrt(3.0 * s / (order**2 - 1.0))
        idx = rng.integers(0, order, size=(n, n_trials))
        u = delta * (2.0 * idx - (order - 1))
    z = rng.standard_normal((m, n_trials))
    y = h @ u + z

    lam = np.diag(e @ h).copy()
    u_tilde = lam[:, None] * u
    z_tilde = e @ y - u_tilde
    out = {
        "trials": n_trials,
        "s1_uu": u_tilde @ u_tilde.T,
        "s1_uz": u_tilde @ z_tilde.T,
        "s1_zz": z_tilde @ z_tilde.T,
    }

    if order is not None:
        estimates = (e @ y) / lam[:, None]
        idx1_hat = _pam_slice(estimates, delta, order)
        out["err1"] = (idx1_hat != idx).sum(axis=1)

    if config.scheme.is_sic:
        y_hat = cancel_first_group(eff, u[:k], y)
        u_hat = u[k:]
        z_hat = y_hat - u_hat
        out["s2_uu"] = u_hat @ u_hat.T
        out["s2_uz"] = u_hat @ z_hat.T
        out["s2_zz"] = z_hat @ z_hat.T
        if order is not None:
            out["err2_genie"] = (_pam_slice(y_hat, delta, order) != idx[k:]).sum(axis=1)
            u_dd = delta * (2.0 * idx1_hat[:k] - (order - 1))
            y_hat_dd = cancel_first_group(eff, u_dd, y)
            out["err2_dd"] = (_pam_slice(y_hat_dd, delta, order) != idx[k:]).sum(axis=1)
    return out


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


def _stage_stats(blocks: list[dict], prefix: str) -> tuple[EmpiricalStats, np.ndarray]:
    """Jackknifed statistics of one stage, and its per-stream SNR in each block."""
    counts = np.array([blk["trials"] for blk in blocks], dtype=float)
    sums = {
        key: np.stack([blk[f"{prefix}_{key}"] for blk in blocks]) for key in ("uu", "uz", "zz")
    }
    denom = counts[:, None, None]
    means, stderr = {}, {}
    for key in sums:
        means[key], stderr[key] = _jackknife_ratio(sums[key], denom)
    diag = np.arange(means["uu"].shape[0])
    signal, noise = sums["uu"][:, diag, diag], sums["zz"][:, diag, diag]
    snr, snr_se = _jackknife_ratio(signal, noise)
    return EmpiricalStats(
        k_uu=means["uu"],
        k_uz=means["uz"],
        k_zz=means["zz"],
        k_uu_stderr=stderr["uu"],
        k_uz_stderr=stderr["uz"],
        k_zz_stderr=stderr["zz"],
        snr_per_stream=snr,
        snr_stderr=snr_se,
    ), signal / noise


def _ser_stats(config: SimConfig, blocks: list[dict], n_total: int) -> SerStats:
    order = pam_order(config.constellation)

    def errors(key):
        return np.stack([blk[key] for blk in blocks]).sum(axis=0)

    err1 = errors("err1")
    n_streams = err1.shape[0]
    k = n_streams // 2
    ser_genie = err1 / n_total
    ser_dd = None
    if config.scheme.is_sic:
        ser_genie = post_sic_streams(err1, errors("err2_genie")) / n_total
        ser_dd = post_sic_streams(err1, errors("err2_dd")) / n_total
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
    block_seeds = blocks_root.spawn(config.n_blocks)
    trial_counts = [
        min(config.block_size, config.trials - b * config.block_size)
        for b in range(config.n_blocks)
    ]

    precoder = universal_precoder(config.model) if config.scheme.uses_precoder else None
    blocks = [
        _simulate_block(config, precoder, p, sd, t)
        for p, sd, t in zip(params, block_seeds, trial_counts)
    ]

    n_total = sum(trial_counts)
    stage1, block_snrs = _stage_stats(blocks, "s1")
    stages = (stage1,)
    snr, snr_se = stage1.snr_per_stream, stage1.snr_stderr
    if config.scheme.is_sic:
        stage2, second_block_snrs = _stage_stats(blocks, "s2")
        stages += (stage2,)
        snr = post_sic_streams(snr, stage2.snr_per_stream)
        if snr_se is not None:
            snr_se = post_sic_streams(snr_se, stage2.snr_stderr)
        block_snrs = post_sic_streams(block_snrs, second_block_snrs)

    is_gaussian = pam_order(config.constellation) is None
    rate = float(np.mean(c_awgn(snr))) if is_gaussian else None
    ser = None if is_gaussian else _ser_stats(config, blocks, n_total)
    return SimReport(
        config=config,
        stages=stages,
        snr_per_stream=snr,
        snr_stderr=snr_se,
        rate_bits_per_real_dim=rate,
        ser=ser,
        block_snrs=block_snrs if config.report_blocks else None,
    )

