"""The benchmark workloads: the CLI calls each one makes and the checks on their outputs.

A workload is a fixed list of ``pdlsic`` CLI calls (a *round*).  Every input
that varies (alphas, SNRs, RNG seeds) is derived from the benchmark seed with
the standard-library ``random`` module, so the program receives only the
generated argv and config files.  Every check compares an output against a
closed form or a statistical bound computed here, never against a recorded
RNG stream, so a change to how the program draws its random numbers keeps
the checks valid.
"""

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Tolerances of the checks.  K_SE is the number of standard errors a Monte
# Carlo estimate may sit from its closed form; at 6 a false alarm over all
# streams, configs and rounds of a run has probability below 1e-6.
K_SE = 6.0
STAR_TOL_BITS = 1e-9  # mirrors pdlsic.capacity.STAR_TOL_BITS
CONTROL_MIN_GAP_BITS = 1e-3
REL_TOL_CSV = 1e-10  # the CLI prints 12 significant digits
MAX_REL_STDERR = 0.05  # a Monte Carlo SNR whose stderr exceeds this is too coarse to check

# The reference simulation config of the repository (configs/lmmse_sic_6db.json),
# restated here so that the benchmark's input does not move when that file does.
REFERENCE_CONFIG = {
    "model": "Real",
    "alpha": 0.599,
    "snr": {"snr_linear": 20},
    "param_mode": "WorstCaseEdge",
    "scheme": "LMMSE-SIC",
    "trials": 1000000,
    "constellation": "Gaussian",
    "block_size": 1000,
}
SIX_DB_ALPHA = 0.599
DEFAULT_SNR_DB = 10.0 * math.log10(20.0)
THETA_PHI_SHEET = {"real": 256, "complex": 256 * 64}  # default grid of the star oracle
# verify_sweep runs each per-draw suite as this many short calls at distinct
# seeds rather than one long call: wall_s sums each call's fastest time, and
# on a shared host a short call more often runs wholly while nothing contends.
DRAW_SUITE_CALLS = 5

CURVE_COLUMNS = [
    "snr_db", "c_awgn", "c_compound", "c_compound_approx",
    "c_parallel", "c_parallel_approx", "c_nonjoint",
]


@dataclass
class Step:
    """One CLI call: its argv, the exit code it must return and how to check its output."""

    argv: list[str]
    expect_rc: int
    work: int
    check: Callable[[str], str | None]  # output text -> failure reason, or None
    out: Path | None = None  # file the call writes with --out, read back as its output


@dataclass
class Workload:
    name: str
    work_unit: str
    steps: list[Step]

    @property
    def work_per_round(self) -> int:
        return sum(step.work for step in self.steps)


# -- independent references --------------------------------------------------


def c_awgn(snr: float) -> float:
    return 0.5 * math.log2(1.0 + snr)


def c_compound(alpha: float, snr: float) -> float:
    return 0.5 * (c_awgn((1.0 + alpha) * snr) + c_awgn((1.0 - alpha) * snr))


def ser_pam(order: int, snr: float) -> float:
    """Symbol error rate of uniform PAM on a unit-noise AWGN channel."""
    q = 0.5 * math.erfc(math.sqrt(3.0 * snr / (order**2 - 1.0)) / math.sqrt(2.0))
    return 2.0 * (1.0 - 1.0 / order) * q


def expected_stream_snrs(config: dict) -> list[float]:
    """Per-stream SNRs a WorstCaseEdge config must reproduce.

    SIC schemes: the first half follows the ZF or LMMSE closed form at
    |gamma| = alpha and the second half sees exactly SNR.  NoPrecode-ZF: the
    ZF noise enhancement averaged over uniform theta (and phi) is
    1/(1-alpha^2) on every stream, so the pooled estimate tends to (1-a^2)*SNR.
    """
    s = float(config["snr"]["snr_linear"])
    a2 = config["alpha"] ** 2
    n = 2 if config["model"] == "Real" else 4
    zf = (1.0 - a2) * s
    lmmse = ((1.0 - a2) * s**2 + s) / (s + 1.0)
    if config["scheme"] == "NoPrecode-ZF":
        return [zf] * n
    first = {"ZF-SIC": zf, "LMMSE-SIC": lmmse}[config["scheme"]]
    return [first] * n + [s] * n


# -- checks --------------------------------------------------------------------


def _json(text: str):
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def _check_star(alpha: float | None, snr_db: float, universal: bool, models: list[str]):
    def check(text: str) -> str | None:
        report, err = _json(text)
        if err:
            return err
        a = report["alpha"] if alpha is None else alpha
        want = c_compound(a, 10.0 ** (snr_db / 10.0))
        if sorted(report["detail"]) != sorted(models):
            return f"models {sorted(report['detail'])}, expected {models}"
        for model, rep in report["detail"].items():
            if abs(rep["lhs_bits"] - want) > STAR_TOL_BITS:
                return f"{model}: lhs_bits {rep['lhs_bits']!r} != c_compound {want!r}"
            if universal and not (rep["passed"] and rep["gap_bits"] < STAR_TOL_BITS):
                return f"{model}: universal precoder failed, gap {rep['gap_bits']!r}"
            if not universal and (rep["passed"] or rep["gap_bits"] < CONTROL_MIN_GAP_BITS):
                return f"{model}: negative control passed, gap {rep['gap_bits']!r}"
        return None

    return check


def _check_simulation(config: dict):
    expect = expected_stream_snrs(config)

    def check(text: str) -> str | None:
        report, err = _json(text)
        if err:
            return err
        if report["config"]["seed"] != config["seed"] or report["config"]["trials"] != config["trials"]:
            return "report echoes a different seed or trial count"
        snrs, ses = report["snr_per_stream"], report["snr_stderr"]
        if len(snrs) != len(expect) or ses is None:
            return f"expected {len(expect)} stream SNRs with standard errors"
        for i, (got, se, want) in enumerate(zip(snrs, ses, expect)):
            if not 0.0 < se < MAX_REL_STDERR * want:
                return f"stream {i}: stderr {se!r} is not usable"
            if abs(got - want) > K_SE * se:
                return f"stream {i}: SNR {got!r} is {abs(got - want) / se:.1f} se from {want!r}"
        if config.get("constellation", "Gaussian").startswith("PAM"):
            order = int(config["constellation"][4:-1])
            n = config["trials"]
            for i, (got, snr) in enumerate(zip(report["ser"]["ser_genie"], expect)):
                p = ser_pam(order, snr)
                if abs(got - p) > K_SE * math.sqrt(p * (1.0 - p) / n):
                    return f"stream {i}: SER {got!r} is outside the binomial error of {p!r}"
        return None

    return check


def _check_suite_lines(n_lines: int):
    def check(text: str) -> str | None:
        lines = text.splitlines()
        if len(lines) != n_lines or not all(line.startswith("PASS ") for line in lines):
            return f"expected {n_lines} PASS lines, got {lines!r}"
        return None

    return check


def _check_curves(alpha: float, n_rows: int):
    def check(text: str) -> str | None:
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != CURVE_COLUMNS or len(rows) != n_rows + 1:
            return f"expected header {CURVE_COLUMNS} and {n_rows} rows, got {len(rows) - 1}"
        table = [[float(v) for v in row] for row in rows[1:]]
        for row in table:
            s = 10.0 ** (row[0] / 10.0)
            for got, want in ((row[1], c_awgn(s)), (row[2], c_compound(alpha, s))):
                if abs(got - want) > REL_TOL_CSV * max(abs(want), 1.0):
                    return f"row at {row[0]} dB: {got!r} != {want!r}"
        # c_compound at linear SNR 20, interpolated between the two bracketing rows.
        k = next(i for i, row in enumerate(table) if row[0] > DEFAULT_SNR_DB)
        (x0, y0), (x1, y1) = (table[k - 1][0], table[k - 1][2]), (table[k][0], table[k][2])
        at20 = y0 + (y1 - y0) * (DEFAULT_SNR_DB - x0) / (x1 - x0)
        if round(at20, 4) != 2.0542:
            return f"c_compound at SNR 20 reads {at20!r}, expected 2.0542"
        return None

    return check


def _check_penalties(pdl_db: float):
    r = 10.0 ** (pdl_db / 10.0)
    a = (r - 1.0) / (r + 1.0)
    want = {
        "nonjoint": 10.0 * math.log10(1.0 / (1.0 - a)),
        "parallel": 10.0 * math.log10(1.0 / (1.0 - a * a)),
        "sic": 10.0 * math.log10(1.0 / math.sqrt(1.0 - a * a)),
    }

    def check(text: str) -> str | None:
        report, err = _json(text)
        if err:
            return err
        for key, value in want.items():
            if abs(report["penalties_db"][key] - value) > 1e-9:
                return f"penalty {key} {report['penalties_db'][key]!r} != {value!r}"
        return None

    return check


def _check_fer(text: str) -> str | None:
    point, err = _json(text)
    if err:
        return err
    if abs(point["total_rate_bits_per_real_dim"] - 1.95) > 1e-9:
        return f"total rate {point['total_rate_bits_per_real_dim']!r} != 1.95"
    if abs(point["fer_bound"] - 2.5e-3) > 1e-5:
        return f"FER bound {point['fer_bound']!r} != 2.5e-3"
    return None


# -- workload builders ---------------------------------------------------------


def _star(workdir: Path, tag: str, model: str, alpha_flags: list[str], n_gamma: int,
          universal: bool, alpha: float | None, snr_db: float, extra=()) -> Step:
    """A star-property call; ``alpha`` is None when it comes from --pdl-db and is read back."""
    out = workdir / f"star_{tag}.json"
    models = ["real", "complex"] if model == "both" else [model]
    argv = ["verify", "--suite", "star-property", "--model", model, *alpha_flags,
            "--snr-db", repr(snr_db), "--n-gamma", str(n_gamma), *extra, "--out", str(out)]
    work = n_gamma * sum(THETA_PHI_SHEET[m] for m in models)
    return Step(argv, 0 if universal else 1, work,
                _check_star(alpha, snr_db, universal, models), out)


def oracle(rng: random.Random, workdir: Path, data_dir: Path, smoke: bool) -> Workload:
    """Star-property certification on the full 256x64 theta-phi sheet."""
    alpha = round(rng.uniform(0.2, 0.9), 6)
    snr_db = round(rng.uniform(5.0, 25.0), 6)
    steps = [
        _star(workdir, "6db", "both", ["--alpha", repr(SIX_DB_ALPHA)], 1, True,
              SIX_DB_ALPHA, DEFAULT_SNR_DB),
        _star(workdir, "seeded", "both", ["--alpha", repr(alpha)], 1, True, alpha, snr_db),
        _star(workdir, "3db", "real", ["--pdl-db", "3"], 21, True, None, DEFAULT_SNR_DB),
        _star(workdir, "permuted", "real", ["--alpha", repr(SIX_DB_ALPHA)], 3, False,
              SIX_DB_ALPHA, DEFAULT_SNR_DB, ["--permute", "0,2,1,3"]),
        _star(workdir, "identity", "complex", ["--alpha", repr(SIX_DB_ALPHA)], 1, False,
              SIX_DB_ALPHA, DEFAULT_SNR_DB, ["--precoder", "identity"]),
    ]
    if smoke:
        steps = [steps[0], steps[3], steps[4]]
    return Workload("oracle", "lattice point", steps)


def _simulate(workdir: Path, tag: str, config: dict) -> Step:
    path = workdir / f"sim_{tag}.json"
    path.write_text(json.dumps(config))
    return Step(["simulate", "--config", str(path)], 0, config["trials"],
                _check_simulation(config))


def mc_fastfade(rng: random.Random, workdir: Path, data_dir: Path, smoke: bool) -> Workload:
    """Complex LMMSE-SIC with 10-symbol blocks over an SNR sweep."""
    alpha = round(rng.uniform(0.3, 0.8), 6)
    trials = 2000 if smoke else 8000
    steps = []
    for snr in (5.0, 20.0, 100.0):
        config = {
            "model": "ComplexEquivalent", "alpha": alpha, "snr": {"snr_linear": snr},
            "param_mode": "WorstCaseEdge", "scheme": "LMMSE-SIC", "trials": trials,
            "seed": rng.randrange(2**31), "constellation": "Gaussian", "block_size": 10,
        }
        steps.append(_simulate(workdir, f"snr{snr:g}", config))
    return Workload("mc_fastfade", "trial", steps)


def mc_bigblock(rng: random.Random, workdir: Path, data_dir: Path, smoke: bool) -> Workload:
    """The reference config (real and complex) plus PAM(4) ZF-SIC and NoPrecode-ZF."""
    variants = {
        "ref_real": {},
        "ref_complex": {"model": "ComplexEquivalent"},
        "pam4_zf_sic": {"model": "ComplexEquivalent", "scheme": "ZF-SIC",
                        "constellation": "PAM(4)"},
        "noprecode_zf": {"scheme": "NoPrecode-ZF"},
    }
    steps = []
    for tag, change in variants.items():
        config = {**REFERENCE_CONFIG, **change, "seed": rng.randrange(2**31)}
        if smoke:
            config["trials"] = 200 * config["block_size"]
        steps.append(_simulate(workdir, tag, config))
    return Workload("mc_bigblock", "trial", steps)


def verify_sweep(rng: random.Random, workdir: Path, data_dir: Path, smoke: bool) -> Workload:
    """The per-draw verify suites, curves, penalties and the link budget."""
    alpha = round(rng.uniform(0.2, 0.9), 6)
    seeds = [str(rng.randrange(2**31)) for _ in range(DRAW_SUITE_CALLS)]
    draws = 10 if smoke else 200
    step_db = 0.01 if smoke else 0.001
    n_rows = int(round(30.0 / step_db)) + 1
    curves_out = workdir / "curves.csv"
    common = ["--alpha", repr(alpha)]
    steps = [
        Step(["verify", "--suite", suite, *common, "--draws", str(draws), "--seed", seed],
             0, 2 * draws, _check_suite_lines(2))
        for suite in ("orthogonality", "snr-closed-forms") for seed in seeds
    ] + [
        Step(["verify", "--suite", "worst-case", *common], 0, 0, _check_suite_lines(1)),
        Step(["verify", "--suite", "means", *common], 0, 0, _check_suite_lines(1)),
        Step(["curves", "--alpha", repr(SIX_DB_ALPHA), "--snr-db-step", repr(step_db),
              "--out", str(curves_out)], 0, 0, _check_curves(SIX_DB_ALPHA, n_rows), curves_out),
        Step(["penalties", "--pdl-db", "6"], 0, 0, _check_penalties(6.0)),
        Step(["fer", "--alpha", repr(SIX_DB_ALPHA), "--snr-db", "13.01",
              "--table1", str(data_dir / "fer_code1_8ask_pas.csv"),
              "--table2", str(data_dir / "fer_code2_16ask_pas.csv")], 0, 0, _check_fer),
    ]
    return Workload("verify_sweep", "parameter draw", steps)


BUILDERS = {
    "oracle": oracle,
    "mc_fastfade": mc_fastfade,
    "mc_bigblock": mc_bigblock,
    "verify_sweep": verify_sweep,
}


def build(name: str, seed: int, workdir: Path, data_dir: Path, smoke: bool = False) -> Workload:
    """Generate the workload's argv and config files under ``workdir`` from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, workdir, data_dir, smoke)
