"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from pdlsic import capacity
from pdlsic.channel import (
    ChannelParams,
    Model,
    SampleMode,
    SnrSpec,
    draw_params,
)
from pdlsic.cli import main
from pdlsic.equalize import (
    StreamScheme,
    closed_form_stream_snr,
    lmmse_equalizer,
    second_stage_statistics,
    stream_statistics,
    zf_equalizer,
)
from pdlsic.montecarlo import Scheme, SimConfig, ser_pam_awgn, run
from pdlsic.precode import (
    effective_channel,
    identity_precoder,
    permute_columns,
    precoder_complex,
    precoder_real,
    verify_orthogonal_design,
)

REPO = pathlib.Path(__file__).resolve().parent.parent


def interior_draws(alpha: float, model: Model, seed: int, count: int) -> ChannelParams:
    """The seeded UniformInterior draws as one array-valued ChannelParams."""
    return draw_params(alpha, SampleMode.UNIFORM_INTERIOR, model, seed, count)


def report(criterion: int, name: str, ok: bool, detail: str):
    print(f"[acceptance] criterion {criterion:2d} ({name}): "
          f"{'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


def test_criterion_01_penalty_triple(tmp_path, capsys):
    out = tmp_path / "penalties.json"
    assert main(["penalties", "--alpha", "0.599", "--out", str(out)]) == 0
    pen = json.loads(out.read_text())["penalties_db"]
    closed = {
        "nonjoint": 10 * math.log10(1 / (1 - 0.599)),
        "parallel": 10 * math.log10(1 / (1 - 0.599**2)),
        "sic": 10 * math.log10(1 / math.sqrt(1 - 0.599**2)),
    }
    rounded = {"nonjoint": 3.968, "parallel": 1.931, "sic": 0.965}
    # JSON output carries 12 significant digits, so agreement with the exact
    # closed forms is limited only by that formatting
    dev_closed = max(abs(pen[k] - closed[k]) for k in pen)
    dev_round = max(abs(pen[k] - rounded[k]) for k in pen)
    with capsys.disabled():
        report(1, "penalty triple", dev_closed < 1e-3 and dev_closed < 1e-8 and dev_round < 1e-3,
               f"{{{pen['nonjoint']:.4f}, {pen['parallel']:.4f}, {pen['sic']:.4f}}} dB, "
               f"max dev from rounded triple {dev_round:.2e} dB")


def test_criterion_02_curve_reproduction(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    assert main(["curves", "--alpha", "0.599", "--snr-db-min", "0",
                 "--snr-db-max", "30", "--snr-db-step", "0.25", "--out", str(out)]) == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    # horizontal gap at 30 dB: dB distance between the curves at the height
    # of c_compound(30 dB), read back off the emitted CSV
    height = data["c_compound"][-1]
    snr_at_height = float(np.interp(height, data["c_awgn"], data["snr_db"]))
    gap = 30.0 - snr_at_height
    with capsys.disabled():
        report(2, "curve reproduction", abs(gap - 0.965) <= 0.02,
               f"horizontal awgn-to-compound gap at 30 dB = {gap:.4f} dB (want 0.965 +- 0.02)")


def test_criterion_03_operating_point(tmp_path, capsys):
    out = tmp_path / "operating_point.json"
    code = main([
        "fer", "--alpha", "0.599", "--snr-db", "13.01",
        "--table1", str(REPO / "data" / "fer_code1_8ask_pas.csv"),
        "--table2", str(REPO / "data" / "fer_code2_16ask_pas.csv"),
        "--out", str(out),
    ])
    assert code == 0
    point = json.loads(out.read_text())
    rate_ok = abs(point["total_rate_bits_per_real_dim"] - 1.95) < 1e-9
    bound_ok = abs(point["fer_bound"] - 2.5e-3) <= 1e-5
    gap_ok = point["gap_to_capacity_db"] < 0.7 and point["composed_gap_db"] < 0.7
    with capsys.disabled():
        report(3, "operating point", rate_ok and bound_ok and gap_ok,
               f"rate={point['total_rate_bits_per_real_dim']}, "
               f"fer_bound={point['fer_bound']:.4e}, "
               f"gap={point['gap_to_capacity_db']:.3f} dB "
               f"(composed {point['composed_gap_db']:.3f} dB)")


def test_criterion_04_closed_form_oracle_agreement(capsys):
    total_draws = 10_000
    combos = [(a, s) for a in (0.3, 0.599, 0.9) for s in (1.0, 20.0, 100.0)]
    per_combo = -(-total_draws // len(combos))
    worst = 0.0
    for model, pre in ((Model.REAL, precoder_real()), (Model.COMPLEX, precoder_complex())):
        for alpha, s in combos:
            snr = SnrSpec(s)
            params = interior_draws(alpha, model, seed=1234, count=per_combo)
            eff = effective_channel(params, pre, snr)
            numeric = (
                (StreamScheme.ZF, stream_statistics(eff, zf_equalizer(eff))),
                (StreamScheme.LMMSE, stream_statistics(eff, lmmse_equalizer(eff))),
                (StreamScheme.POST_SIC, second_stage_statistics(eff)),
            )
            for scheme, stats in numeric:
                want = closed_form_stream_snr(scheme, params.gamma, snr)
                rel = np.abs(stats.snr_per_stream - want[:, None]).max(axis=1) / want
                worst = max(worst, float(rel.max()))
    with capsys.disabled():
        report(4, "closed-form agreement", worst < 1e-9,
               f"{total_draws} draws x 9 lattice points x both precoders, "
               f"max relative deviation {worst:.2e} (tol 1e-9)")


def test_criterion_05_full_capacity_identity(capsys):
    worst = 0.0
    for alpha in (0.0, 0.3, 0.599, 0.9):
        for s in (1.0, 20.0, 100.0):
            lmmse = ((1 - alpha**2) * s**2 + s) / (s + 1)
            lhs = capacity.c_awgn(lmmse) + capacity.c_awgn(s)
            rhs = capacity.c_awgn((1 + alpha) * s) + capacity.c_awgn((1 - alpha) * s)
            worst = max(worst, abs(lhs - rhs))
    with capsys.disabled():
        report(5, "full-capacity identity", worst < 1e-12,
               f"max |C(lmmse)+C(S) - C((1+a)S)-C((1-a)S)| = {worst:.2e} bits (tol 1e-12)")


def test_criterion_06_star_property_oracle(capsys):
    results = {}
    for name, pre in (
        ("real", precoder_real()),
        ("complex", precoder_complex()),
    ):
        rep = capacity.verify_star_property(pre, 0.599, 20.0)
        results[name] = rep.gap_bits
        assert rep.passed, f"universal precoder ({name}) gap {rep.gap_bits}"
    swapped = permute_columns(precoder_real(), (0, 2, 1, 3))
    gap_swap = capacity.verify_star_property(swapped, 0.599, 20.0).gap_bits
    gap_identity = capacity.verify_star_property(
        identity_precoder(Model.REAL), 0.599, 20.0
    ).gap_bits
    ok = (
        max(results.values()) < 1e-9
        and gap_swap > 0.01
        and gap_identity > 0.01
    )
    with capsys.disabled():
        report(6, "star property", ok,
               f"universal gaps real={results['real']:.2e} complex={results['complex']:.2e} "
               f"(tol 1e-9); negative controls swap={gap_swap:.3f}, "
               f"identity={gap_identity:.3f} (> 0.01)")


def test_criterion_07_worst_case_search(capsys):
    worst_defect = 0.0
    all_ok = True
    for alpha in (0.1, 0.3, 0.599, 0.9):
        search = capacity.worst_case_search(alpha, 20.0)
        step = 1.0 / (len(search.beta_grid) - 1)
        all_ok &= abs(search.beta_star - 0.5) <= step + 1e-12
        all_ok &= search.all_extremal
        worst_defect = max(worst_defect, search.defect_bits)
    with capsys.disabled():
        report(7, "worst-case search", all_ok and worst_defect < 1e-9,
               f"beta*=0.5 within one step, gamma* extremal for every beta, "
               f"max optimum defect {worst_defect:.2e} bits (tol 1e-9)")


def test_criterion_08_monte_carlo_certification(capsys):
    cfg = SimConfig.from_dict(json.loads((REPO / "configs" / "lmmse_sic_6db.json").read_text()))
    assert cfg.trials == 1_000_000 and cfg.scheme is Scheme.LMMSE_SIC
    rep = run(cfg)
    s, a = cfg.snr.snr_linear, cfg.alpha
    first = ((1 - a**2) * s**2 + s) / (s + 1)
    expect = np.array([first, first, s, s])
    z_snr = np.abs((rep.snr_per_stream - expect) / rep.snr_stderr).max()

    st1, st2 = rep.stages
    z_list = [np.abs(np.diag(st1.k_uz) / np.diag(st1.k_uz_stderr)).max()]
    k = 2
    for blk in (slice(0, k), slice(k, 2 * k)):
        off = ~np.eye(k, dtype=bool)
        z_list.append(np.abs(st1.k_uz[blk, blk][off] / st1.k_uz_stderr[blk, blk][off]).max())
        z_list.append(np.abs(st1.k_zz[blk, blk][off] / st1.k_zz_stderr[blk, blk][off]).max())
    z_list.append(np.abs((st2.k_zz - np.eye(k)) / st2.k_zz_stderr).max())
    z_list.append(np.abs(st2.k_uz / st2.k_uz_stderr).max())
    z_corr = max(z_list)

    c_target = float(capacity.c_compound(a, s))
    rate_rel = abs(rep.rate_bits_per_real_dim - c_target) / c_target
    ok = z_snr < 3.0 and z_corr < 3.0 and rate_rel < 0.01
    with capsys.disabled():
        report(8, "Monte Carlo certification", ok,
               f"1e6 trials: max SNR z={z_snr:.2f}, max correlation z={z_corr:.2f} "
               f"(< 3 SE); rate {rep.rate_bits_per_real_dim:.4f} vs c_compound "
               f"{c_target:.4f} (rel err {rate_rel:.2e} < 1%)")


def test_criterion_09_awgn_equivalence(capsys):
    checks = []
    for scheme, s, seed in ((Scheme.LMMSE_SIC, 20.0, 101), (Scheme.ZF_SIC, 40.0, 202)):
        cfg = SimConfig(
            model=Model.REAL, alpha=0.599, snr=SnrSpec(s),
            param_mode=SampleMode.WORST_CASE_EDGE, scheme=scheme,
            trials=400_000, seed=seed, constellation="PAM(4)",
        )
        rep = run(cfg)
        theory = ser_pam_awgn(4, s)
        assert 1e-3 <= theory <= 1e-1
        post = rep.ser.ser_genie[2:]
        se = rep.ser.ser_genie_stderr[2:]
        z = np.abs((post - theory) / se).max()
        checks.append((scheme.value, s, theory, z))
    ok = all(z < 3.0 for _, _, _, z in checks)
    with capsys.disabled():
        detail = "; ".join(
            f"{name} @ SNR {s:g}: theory SER {t:.3e}, max z={z:.2f}" for name, s, t, z in checks
        )
        report(9, "AWGN equivalence", ok, detail + " (< 3 binomial SE)")


def test_criterion_10_appendix_identities(capsys):
    worst_mean = 0.0
    for g in np.linspace(-0.99, 0.99, 199):
        rep = capacity.mean_identity_check(1.0 + g, 1.0 - g)
        worst_mean = max(worst_mean, rep.product_defect)

    worst_design = 0.0
    snr = SnrSpec(20.0)
    for model, pre in ((Model.REAL, precoder_real()), (Model.COMPLEX, precoder_complex())):
        eff = effective_channel(interior_draws(0.99, model, seed=777, count=10_000), pre, snr)
        des = verify_orthogonal_design(eff)
        worst_design = max(worst_design, des.max_dev_h1, des.max_dev_h2)
    ok = worst_mean < 1e-15 and worst_design < 1e-10
    with capsys.disabled():
        report(10, "appendix identities", ok,
               f"G^2=A*H defect {worst_mean:.2e} (tol 1e-15); orthogonal-design "
               f"defect over 2x10^4 draws {worst_design:.2e} (tol 1e-10)")
