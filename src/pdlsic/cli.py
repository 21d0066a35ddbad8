"""Command-line surface: capacity curves, verification suites, simulation, link budget.

Subcommands: ``curves``, ``penalties``, ``verify``, ``simulate``, ``fer``.
Each ``verify`` suite is a generator of verdicts ``(model or None, passed,
detail, summary)``, one per model checked, or one with None for a suite that
has no model, and prints nothing; :func:`cmd_verify` prints each as
``PASS|FAIL <suite>[<model>] <summary>``, combines the exit code and writes
the ``--out`` detail: flat for a model-free suite, keyed by model otherwise.
All outputs are deterministic for fixed flags and seed.  The CSV and JSON of
``curves``, ``penalties``, ``verify --out`` and ``fer`` carry numbers at 12
significant digits; ``simulate`` writes full float precision, so the config
its report echoes reloads exactly.  Exit codes: 0 success, 1 verification
failure, 2 usage or format error.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import capacity, linkbudget, montecarlo
from .channel import (
    ChannelParams,
    Model,
    SampleMode,
    SnrSpec,
    alpha_from_pdl_db,
    draw_params,
    lattice_axes,
    pdl_db_from_alpha,
    validate_alpha,
)
from .equalize import (
    StreamScheme,
    closed_form_stream_snr,
    lmmse_equalizer,
    second_stage_statistics,
    stream_statistics,
    zf_equalizer,
)
from .precode import (
    effective_channel,
    gram,
    identity_precoder,
    permute_columns,
    universal_precoder,
    verify_orthogonal_design,
)

CURVE_COLUMNS = (
    "snr_db",
    "c_awgn",
    "c_compound",
    "c_compound_approx",
    "c_parallel",
    "c_parallel_approx",
    "c_nonjoint",
)

#: Row limit of ``curves``: 33 times the 30001 rows of 0-30 dB at 0.001 dB.
MAX_CURVE_ROWS = 10**6

#: Rows that ``curves`` computes, formats and writes at a time.
CURVE_CHUNK_ROWS = 4096

#: Relative tolerance of the numeric stream SNRs against their closed forms.
CLOSED_FORM_TOL = 1e-9

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _round_floats(obj):
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(chunks, out_path):
    """Write the text chunks, as the iterable makes them, to ``out_path`` or stdout."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_json(payload: dict, out_path):
    try:  # strict JSON: NaN and infinity raise before any file is opened
        text = json.dumps(_round_floats(payload), indent=2, allow_nan=False)
    except ValueError:
        raise ValueError("the JSON output would hold NaN or Infinity: a number overflows") from None
    _emit([text + "\n"], out_path)


def _add_alpha_flags(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=float, help="Worst-case PDL parameter in [0, 1).")
    group.add_argument(
        "--pdl-db", type=float, help="Worst-case PDL in dB (alternative to --alpha)."
    )


def _count(minimum: int):
    """argparse type for an integer flag of at least ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return count


def _order(text: str) -> tuple[int, ...]:
    """argparse type for ``--permute``: a non-empty comma-separated list of integers."""
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers: {text!r}") from None


def cmd_curves(args) -> int:
    step = args.snr_db_step
    # a finite, non-negative step count also rules out NaN or infinite bounds
    steps = (args.snr_db_max - args.snr_db_min) / step if 0 < step < math.inf else math.nan
    if not 0 <= steps < math.inf:
        raise ValueError("curves needs finite snr-db-min <= snr-db-max and a finite positive step")
    # the slack keeps a last step that lands on snr-db-max up to rounding
    n = math.floor(steps + 1e-9)
    if n + 1 > MAX_CURVE_ROWS:
        raise ValueError(f"curves would have {n + 1} rows; at most {MAX_CURVE_ROWS} are allowed")
    with np.errstate(over="ignore"):  # (1+alpha)*SNR is the largest number a row computes
        if not np.isfinite((1.0 + args.alpha) * 10.0 ** (np.float64(args.snr_db_max) / 10.0)):
            raise ValueError(f"curves at snr-db-max {args.snr_db_max:g} overflow the float range")
    _emit(_curve_chunks(args.alpha, args.snr_db_min, args.snr_db_max, step, n + 1), args.out)
    return EXIT_OK


def _curve_chunks(alpha: float, snr_db_min: float, snr_db_max: float, step: float, rows: int):
    """The ``curves`` CSV: its header, then the rows in chunks of ``CURVE_CHUNK_ROWS``.

    Each chunk computes its own slice of the SNR grid (the columns are
    elementwise in it) and :func:`_format_rows` prints each value as
    ``"%.12g" % x``, which is exactly what ``format(x, ".12g")`` prints.
    """
    yield ",".join(CURVE_COLUMNS) + "\n"
    for start in range(0, rows, CURVE_CHUNK_ROWS):
        k = np.arange(start, min(start + CURVE_CHUNK_ROWS, rows))
        snr_db = np.minimum(snr_db_min + step * k, snr_db_max)
        snr = 10.0 ** (snr_db / 10.0)
        block = np.column_stack([
            snr_db,
            capacity.c_awgn(snr),
            capacity.c_compound(alpha, snr),
            capacity.c_compound_approx(alpha, snr),
            capacity.c_parallel(alpha, snr),
            capacity.c_parallel_approx(alpha, snr),
            capacity.c_nonjoint(alpha, snr),
        ])
        yield _format_rows(block)


@functools.cache
def _digit_tables() -> tuple:
    """``(words, last, runs, p10)``, the tables of :func:`_format_rows`, built on first use.

    ``words``: the four ASCII digits of 0-9999 as one uint32 each, then ``.ddd`` for
    0-999.  ``last[j, g]``: the place after the point of the last nonzero digit of
    fraction group j when it is g (0 for g = 0).  ``runs[32 * a + b]``: the mask of
    columns a to b of a 32-byte row.  ``p10[k]``: 10**k, exact.
    """
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    chars = (48 + digits).astype(np.uint8)
    dots = chars[:1000].copy()
    dots[:, 0] = ord(".")
    place = 3 - np.argmax(digits[:, ::-1] != 0, axis=1) + 4 * np.arange(4)[:, None]
    col = np.arange(32)
    runs = (col >= col[:, None, None]) & (col <= col[:, None])
    return (np.concatenate([chars, dots]).view(np.uint32).ravel(),
            np.where(g > 0, place, 0).astype(np.int8),
            runs.reshape(-1, 32).view(np.uint64),
            np.array([float(10**k) for k in range(18)]))


def _format_rows(block: np.ndarray) -> str:
    """The rows of ``block`` as CSV lines, each value exactly as ``"%.12g" % v`` prints it.

    The values that ``%.12g`` prints in fixed notation (finite, nonzero, decimal
    exponent X in [-4, 11] after rounding to 12 digits) are formatted in numpy.
    One multiply by an exact 10**k gives the 12-digit mantissa m within 0.5 ulp,
    under 6.2e-5, so ``rint(m)`` is the correctly rounded digits r unless m is
    within 1e-3 of a half-integer.  Each value has a 32-byte row: the integer
    part of r / 10**k right-aligned in columns 4-15, the point in 16 and 15
    fraction places in 17-31, written as 4-digit table words; its separator
    (and sign) goes just before its first digit, and one compress keeps each
    row's run.  Every other value (zeros, exponent notation, near-ties,
    non-finite) is printed by ``%`` in one pass, right-aligned in its row; a
    block of which they are two fifths or more is printed by ``%`` whole.
    """
    rows, cols = block.shape
    flat = block.ravel()
    n = flat.size
    m = np.abs(flat)
    fast = (m >= 9.9999999999e-5) & (m < 1e12)  # all of X in [-4, 11], and a few more
    if 5 * np.count_nonzero(fast) <= 3 * n:  # % is faster on the whole block
        return ((",".join(["%.12g"] * cols) + "\n") * rows) % tuple(flat.tolist())
    words, last, runs, p10 = _digit_tables()
    np.copyto(m, 1.0, where=~fast)
    k = (11.0 - np.floor(np.log10(m))).astype(np.intp)  # m * 10**k in [1e11, 1e12)
    m *= p10[k]
    off = np.flatnonzero((m < 1e11) | (m >= 1e12))  # log10 was one off
    k[off] += (m[off] < 1e11).astype(np.intp) - (m[off] >= 1e12)
    np.clip(k, 0, 17, out=k)
    m[off] = np.abs(flat[off]) * p10[k[off]]
    r = np.rint(m)
    fast &= (np.abs(m - r) < 0.499) & (r >= 1e11)
    carry = r >= 1e12  # rounds up to 10**12: one digit more
    r[carry] = 1e11
    k -= carry
    fast &= (k >= 0) & (k <= 15)  # X = 11 - k
    np.clip(k, 0, 15, out=k)
    np.copyto(r, 1e11, where=~fast)
    np.floor(np.divide(r, p10[k], out=m), out=m)
    ip = m.astype(np.int64)  # the integer part, then 15 fraction places, both exact
    frac = ((r - m * p10[k]) * p10[15 - k]).astype(np.int64)
    start = (14 - np.maximum(11 - k, 0) - (flat < 0)).astype(np.int16)  # separator column
    del m, r, k  # freed before the row buffers are made: a lower peak of memory
    buf = np.empty((n, 8), np.uint32)  # per value: 4 spare bytes, 3 integer words, 4 fraction
    top = ip.max()
    for w, scale in ((1, 10**8), (2, 10**4)):  # integer words past the last never print
        if top >= scale:
            q = ip // scale
            ip -= q * scale
            buf[:, w] = np.take(words, q)
    buf[:, 3] = np.take(words, ip)
    hi = frac // 10**8
    hi, lo = hi.astype(np.int32), (frac - hi * 10**8).astype(np.int32)  # 7 and 8 places
    q_hi, q_lo = hi // 10**4, lo // 10**4
    nf = np.zeros(n, np.int8)  # the places after the point that print
    for j, g in enumerate((q_hi, hi - q_hi * 10**4, q_lo, lo - q_lo * 10**4)):
        np.maximum(nf, np.take(last[j], g), out=nf)
        buf[:, 4 + j] = np.take(words[10000:] if j == 0 else words, g)
    del ip, frac, hi, lo, q_hi, q_lo
    end = 15 + nf.astype(np.int16) + (nf > 0)
    buf8 = buf.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:  # at most 19 characters, "-1.23456789012e-308"
        text = np.frombuffer((("%20.12g" * slow.size) % tuple(flat[slow].tolist())).encode(),
                             np.uint8).reshape(-1, 20)
        buf8[slow, 12:] = text
        start[slow], end[slow] = 31 - np.count_nonzero(text != 32, axis=1), 31
    at = np.arange(0, 32 * n, 32) + start
    buf8.ravel()[at] = ord(",")
    buf8.ravel()[at[::cols]] = ord("\n")
    buf8.ravel()[at[fast & (flat < 0)] + 1] = ord("-")
    start[0] += 1  # the block starts with its first value
    text = buf8[np.take(runs, 32 * start + end, axis=0).view(bool)]
    del buf, buf8
    return text.tobytes().decode() + "\n"


def cmd_penalties(args) -> int:
    _emit_json(
        {
            "alpha": args.alpha,
            "pdl_db": pdl_db_from_alpha(args.alpha),
            "penalties_db": asdict(capacity.penalties_db(args.alpha)),
        },
        args.out,
    )
    return EXIT_OK


def _precoders(args) -> list:
    """Each ``--model``'s ``--precoder``, in ``--permute`` column order: all before any output."""
    make = identity_precoder if args.precoder == "identity" else universal_precoder
    both = args.model in (None, "both")
    models = [Model.REAL, Model.COMPLEX] if both else [Model.parse(args.model)]
    return [permute_columns(make(m), args.permute) if args.permute else make(m) for m in models]


def _sampled_channels(args, snr: SnrSpec):
    """Each model with its random draws and their precoded effective channels, as stacks."""
    for pre in _precoders(args):
        params = draw_params(args.alpha, SampleMode.UNIFORM_INTERIOR, pre.model, args.seed,
                             args.draws)
        yield pre.model, params, effective_channel(params, pre, snr)


def _suite_orthogonality(args, snr: SnrSpec):
    for model, params, eff in _sampled_channels(args, snr):
        rep = verify_orthogonal_design(eff)
        s = rep.coupling
        gamma_sq = (params.gamma**2)[:, None, None] * np.eye(s.shape[-1])
        worst = {
            "h1": rep.max_dev_h1,
            "h2": rep.max_dev_h2,
            "symmetry": rep.symmetry_defect,
            "coupling_eigs": float(np.abs(gram(s) - gamma_sq).max()),
        }
        passed = max(worst.values()) < 1e-10
        yield (model, passed, {"max_defects": worst, "passed": passed},
               f"max_defect={max(worst.values()):.3e} (tol 1e-10)")


def _suite_snr_closed_forms(args, snr: SnrSpec):
    verdicts = []  # every model is checked, or refused, before any verdict prints
    for model, params, eff in _sampled_channels(args, snr):
        expect = {scheme: closed_form_stream_snr(scheme, params.gamma, snr)
                  for scheme in StreamScheme}
        # Each entry of the residual F = EH - Lambda is an n-term sum, off by about n*eps; the
        # interference s*F*F^T of the numeric SNRs squares it: their relative deviation
        # has a floor of about n^2*eps^2*s, which from some SNR reaches the tolerance.
        n = eff.matrix.shape[-1]
        floor = (n * np.finfo(float).eps) ** 2
        if floor * snr.snr_linear >= CLOSED_FORM_TOL:
            onset_db = 10.0 * math.log10(CLOSED_FORM_TOL / floor)
            raise ValueError(
                f"snr-closed-forms cannot resolve its {CLOSED_FORM_TOL:g} tolerance at "
                f"{snr.snr_db:g} dB: on the {n}-stream {model.value} model the rounding floor "
                f"n^2*eps^2*SNR reaches it from {onset_db:.1f} dB")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # refused below
            numeric = {
                StreamScheme.ZF: stream_statistics(eff, zf_equalizer(eff)),
                StreamScheme.LMMSE: stream_statistics(eff, lmmse_equalizer(eff)),
                StreamScheme.POST_SIC: second_stage_statistics(eff),
            }
        # below the normal range (the LMMSE signal scales as SNR^3) the SNRs read 0, 0/0 or drift
        tiny = np.finfo(float).tiny
        if not all(np.diagonal(k, 0, -2, -1).min() >= tiny
                   for stats in numeric.values() for k in (stats.k_uu, stats.k_zz)):
            raise ValueError(
                f"snr-closed-forms cannot resolve the {model.value} model at {snr.snr_db:g} dB: a "
                f"stream's signal or noise power falls below the normal float range ({tiny:.3g})")
        worst = {}
        for scheme, stats in numeric.items():
            dev = np.abs(stats.snr_per_stream - expect[scheme][:, None]).max(axis=1)
            worst[scheme.value] = float((dev / expect[scheme]).max())
        dev = float(np.max(list(worst.values())))  # unlike max(), keeps a NaN, which fails
        passed = dev < CLOSED_FORM_TOL
        verdicts.append((model, passed, {"max_rel_dev": worst, "passed": passed},
                         f"max_rel_dev={dev:.3e} (tol {CLOSED_FORM_TOL:.0e})"))
    yield from verdicts


def _point_text(point: ChannelParams) -> str:
    text = f"gamma={point.gamma:.6g} theta={point.theta:.6g}"
    return text if point.phi is None else f"{text} phi={point.phi:.6g}"


def _suite_star_property(args, snr: SnrSpec):
    for pre in _precoders(args):
        rep = capacity.verify_star_property(
            pre,
            args.alpha,
            snr.snr_linear,
            n_gamma=args.n_gamma,
            n_theta=args.n_theta,
            n_phi=args.n_phi,
        )
        detail = {
            "lhs_bits": rep.lhs_bits,
            "rhs_bits": rep.rhs_bits,
            "gap_bits": rep.gap_bits,
            "passed": rep.passed,
            "lhs_point": dict(vars(rep.lhs_point)),  # asdict would deep-copy the floats
            "min_stream_points": [
                {"snr": float(v), **vars(p)}
                for v, p in zip(rep.min_stream_snrs, rep.min_stream_points)
            ],
        }
        where = "" if rep.passed else f"; rate-sum minimum at {_point_text(rep.lhs_point)}"
        yield (pre.model, rep.passed, detail, f"gap={rep.gap_bits:.3e} bits/real-dim "
               f"(tol {capacity.STAR_TOL_BITS:g}){where}")


def _suite_worst_case(args, snr: SnrSpec):
    # a grid without beta = 1/2 or without both gamma = +-alpha fails by construction
    if args.n_beta % 2 == 0:
        raise ValueError(f"worst-case needs an odd --n-beta, so that beta = 1/2 is a grid "
                         f"point: got {args.n_beta}")
    if args.n_gamma < 2:
        raise ValueError(f"worst-case needs --n-gamma 2 or more, so that gamma = -alpha and "
                         f"+alpha are grid points: got {args.n_gamma}")
    search = capacity.worst_case_search(
        args.alpha, snr.snr_linear, n_beta=args.n_beta, n_gamma=args.n_gamma
    )
    beta_step = 1.0 / (args.n_beta - 1)
    beta_ok = abs(search.beta_star - 0.5) <= beta_step + 1e-12
    value_ok = search.defect_bits < 1e-9
    passed = beta_ok and search.all_extremal and value_ok
    detail = {
        "beta_star": search.beta_star,
        "max_min_bits": search.max_min_bits,
        "closed_form_bits": search.closed_form_bits,
        "defect_bits": search.defect_bits,
        "all_extremal": search.all_extremal,
        "passed": passed,
    }
    yield (None, passed, detail, f"beta*={search.beta_star:.6g} "
           f"extremal={search.all_extremal} defect={search.defect_bits:.3e} bits")


def _suite_means(args, snr: SnrSpec):
    # Python floats overflow to inf with no RuntimeWarning; mean_identity_check refuses an SNR
    # at which its capacity chain over- or underflows
    gammas = lattice_axes(args.alpha, Model.REAL, args.n_gamma)[0].tolist()
    worst_product = 0.0
    worst_chain = 0.0
    worst_arith = 0.0
    for g in gammas:
        rep = capacity.mean_identity_check(1.0 + g, 1.0 - g, snr.snr_linear)
        worst_product = max(worst_product, rep.product_defect)
        worst_chain = max(worst_chain, rep.chain_defect_bits)
        worst_arith = max(worst_arith, abs(rep.arithmetic - 1.0))
    passed = worst_product < 1e-15 and worst_chain < 1e-12 and worst_arith < 1e-15
    detail = {
        "max_product_defect": worst_product,
        "max_chain_defect_bits": worst_chain,
        "max_arithmetic_dev_from_one": worst_arith,
        "passed": passed,
    }
    yield (None, passed, detail,
           f"product_defect={worst_product:.3e} chain_defect={worst_chain:.3e} bits")


_SUITES = {
    "orthogonality": _suite_orthogonality,
    "snr-closed-forms": _suite_snr_closed_forms,
    "star-property": _suite_star_property,
    "worst-case": _suite_worst_case,
    "means": _suite_means,
}


def cmd_verify(args) -> int:
    """Print each verdict of the suite as it comes; then write ``--out`` and give the exit code."""
    snr = SnrSpec.from_db(args.snr_db)
    if args.suite in ("worst-case", "means") and (
            args.precoder == "identity" or args.permute or args.model is not None):
        raise ValueError(f"{args.suite} has no precoder and no model: "
                         "drop --precoder identity, --permute and --model")
    passed, detail = True, {}
    for model, ok, part, summary in _SUITES[args.suite](args, snr):
        name = args.suite if model is None else f"{args.suite}[{model.value}]"
        print(f"{'PASS' if ok else 'FAIL'} {name} {summary}")
        passed &= ok
        if model is None:
            detail = part
        else:
            detail[model.value] = part
    if args.out:
        _emit_json(
            {"suite": args.suite, "alpha": args.alpha, "snr_db": snr.snr_db,
             "passed": passed, "detail": detail},
            args.out,
        )
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def cmd_simulate(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.config}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if args.seed is not None and isinstance(raw, dict):  # from_dict refuses a non-object
        raw["seed"] = args.seed
    report = montecarlo.run(montecarlo.SimConfig.from_dict(raw))
    _emit([report.to_json() + "\n"], args.out)
    return EXIT_OK


def cmd_fer(args) -> int:
    table1 = linkbudget.FerTable.from_csv(args.table1)
    table2 = linkbudget.FerTable.from_csv(args.table2)
    point = linkbudget.evaluate_operating_point(
        args.alpha, SnrSpec.from_db(args.snr_db), table1, table2
    )
    _emit_json(asdict(point), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdlsic",
        description="Worst-case capacity analysis and simulation of PDL-impaired "
        "dual-polarization channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curves", help="Emit capacity curves as CSV.")
    _add_alpha_flags(p)
    p.add_argument("--snr-db-min", type=float, default=0.0)
    p.add_argument("--snr-db-max", type=float, default=30.0)
    p.add_argument("--snr-db-step", type=float, default=0.25)
    p.add_argument("--out", help="Output CSV path (default stdout).")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("penalties", help="Print the three asymptotic SNR penalties.")
    _add_alpha_flags(p)
    p.add_argument("--out", help="Output JSON path (default stdout).")
    p.set_defaults(func=cmd_penalties)

    p = sub.add_parser("verify", help="Run a named verification suite.")
    p.add_argument("--suite", required=True, choices=_SUITES)
    _add_alpha_flags(p)
    p.add_argument("--snr-db", type=float, default=13.010299956639813,
                   help="SNR in dB (default: linear SNR 20).")
    p.add_argument("--model", choices=("real", "complex", "both"), default=None,
                   help="Model that orthogonality, snr-closed-forms and star-property check "
                        "(default both); worst-case and means refuse it.")
    p.add_argument("--precoder", choices=("universal", "identity"), default="universal",
                   help="Precoder that orthogonality, snr-closed-forms and star-property "
                        "test; worst-case and means refuse identity.")
    p.add_argument("--permute", type=_order, default=None,
                   help="Comma-separated column order of that precoder for a negative "
                        "test, e.g. 0,2,1,3; worst-case and means refuse it.")
    p.add_argument("--n-beta", type=_count(2), default=capacity.GRID_N_BETA,
                   help="Power-split points of worst-case; odd, so that beta = 1/2 is one.")
    p.add_argument("--n-gamma", type=_count(1), default=capacity.GRID_N_GAMMA)
    p.add_argument("--n-theta", type=_count(1), default=capacity.GRID_N_THETA)
    p.add_argument("--n-phi", type=_count(1), default=capacity.GRID_N_PHI)
    p.add_argument("--draws", type=_count(1), default=10000,
                   help="Random parameter draws for the sampling suites.")
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("--out", help="Write JSON detail to this path.")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Run a Monte Carlo simulation from a JSON config.")
    p.add_argument("--config", required=True, help="JSON file mirroring SimConfig fields.")
    p.add_argument("--seed", type=_count(0), default=None, help="Override the config's seed.")
    p.add_argument("--out", help="Output JSON path (default stdout).")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fer", help="Compose the end-to-end operating point from FER tables.")
    _add_alpha_flags(p)
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--table1", required=True, help="CSV for the code at the derated SNR.")
    p.add_argument("--table2", required=True, help="CSV for the code at the channel SNR.")
    p.add_argument("--out", help="Output JSON path (default stdout).")
    p.set_defaults(func=cmd_fer)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The :func:`build_parser` parser, built on first use and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    """Run one ``pdlsic`` command line and return its exit code.

    Every call in a process parses with one parser, built by the first; a
    parse leaves no state in it, so each call sees only its own ``argv``.
    """
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "pdl_db", None) is not None:
            args.alpha = alpha_from_pdl_db(args.pdl_db)
        if hasattr(args, "alpha"):
            validate_alpha(args.alpha)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        what = "float overflow: " if isinstance(exc, OverflowError) else ""
        print(f"error: {what}{exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
