"""Command-line interface: output formats, determinism, exit codes."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pdlsic import capacity, cli
from pdlsic.cli import CURVE_CHUNK_ROWS, CURVE_COLUMNS, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def per_value_curves(alpha, snr_db_min, snr_db_max, step):
    """The curves CSV built whole, one format(v, ".12g") call per value."""
    n = math.floor((snr_db_max - snr_db_min) / step + 1e-9)
    snr_db = np.minimum(snr_db_min + step * np.arange(n + 1), snr_db_max)
    snr = 10.0 ** (snr_db / 10.0)
    columns = [
        snr_db,
        capacity.c_awgn(snr),
        capacity.c_compound(alpha, snr),
        capacity.c_compound_approx(alpha, snr),
        capacity.c_parallel(alpha, snr),
        capacity.c_parallel_approx(alpha, snr),
        capacity.c_nonjoint(alpha, snr),
    ]
    lines = [",".join(CURVE_COLUMNS)]
    lines += [",".join(format(float(v), ".12g") for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def assert_curves_match_per_value(alpha, snr_db_min, snr_db_max, step, tmp_path, capsys):
    argv = ["curves", "--alpha", repr(alpha), f"--snr-db-min={snr_db_min!r}",
            f"--snr-db-max={snr_db_max!r}", f"--snr-db-step={step!r}"]
    code, printed, _ = run_cli(argv, capsys)
    assert code == 0
    out = tmp_path / "curves.csv"
    assert run_cli([*argv, "--out", str(out)], capsys) == (0, "", "")
    expect = per_value_curves(alpha, snr_db_min, snr_db_max, step)
    assert out.read_bytes() == printed.encode() == expect.encode()


class TestCurves:
    def test_csv_structure(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        code, _, _ = run_cli(
            ["curves", "--alpha", "0.599", "--snr-db-min", "0", "--snr-db-max", "10",
             "--snr-db-step", "0.5", "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(CURVE_COLUMNS)
        assert len(lines) == 22  # header + 21 rows

    def test_row_wise_ordering(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        run_cli(["curves", "--alpha", "0.7", "--out", str(out)], capsys)
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert np.all(data["c_nonjoint"] <= data["c_parallel"] + 1e-12)
        assert np.all(data["c_parallel"] <= data["c_compound"] + 1e-12)
        assert np.all(data["c_compound"] <= data["c_awgn"] + 1e-12)

    def test_alpha_zero_columns_collapse(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        run_cli(["curves", "--alpha", "0", "--snr-db-max", "5", "--out", str(out)], capsys)
        data = np.genfromtxt(out, delimiter=",", names=True)
        for col in ("c_compound", "c_compound_approx", "c_parallel",
                    "c_parallel_approx", "c_nonjoint"):
            assert np.allclose(data[col], data["c_awgn"], rtol=1e-11)

    def test_approx_close_at_high_snr(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        run_cli(["curves", "--alpha", "0.599", "--out", str(out)], capsys)
        data = np.genfromtxt(out, delimiter=",", names=True)
        last = data[-1]
        assert abs(last["c_compound"] - last["c_compound_approx"]) < 0.01
        assert abs(last["c_parallel"] - last["c_parallel_approx"]) < 0.01

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["curves", "--pdl-db", "6", "--out", str(a)], capsys)
        run_cli(["curves", "--pdl-db", "6", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_range_is_usage_error(self, capsys):
        for bounds in (
            ["--snr-db-min", "10", "--snr-db-max", "0"],
            ["--snr-db-max", "inf"],  # was an uncaught OverflowError, exit 1
            ["--snr-db-step", "inf"],  # was exit 0 with a NaN row
            ["--snr-db-min=-inf"],
            ["--snr-db-min", "nan"],
            ["--snr-db-step", "nan"],
            ["--snr-db-min=-1e308", "--snr-db-max", "1e308"],  # the span overflows
            ["--snr-db-max", "1e12", "--snr-db-step", "1e-3"],  # was a MemoryError, exit 1
        ):
            code, out, err = run_cli(["curves", "--alpha", "0.5", *bounds], capsys)
            assert code == 2, bounds
            assert out == "" and "error" in err, bounds

    def test_overflowing_snr_is_usage_error(self, capsys):
        # (1+alpha)*SNR past the float range once wrote inf and nan cells and exited 0
        argv = ["curves", "--alpha", "0.9", "--snr-db-min", "3079", "--snr-db-step", "1"]
        code, out, err = run_cli([*argv, "--snr-db-max", "3082"], capsys)
        assert code == 2
        assert out == "" and err.startswith("error: ")
        code, out, _ = run_cli([*argv, "--snr-db-max", "3079"], capsys)
        assert code == 0
        assert np.isfinite(np.genfromtxt(out.splitlines(), delimiter=",", skip_header=1)).all()

    def test_rows_never_pass_max(self, capsys):
        code, out, _ = run_cli(
            ["curves", "--alpha", "0.5", "--snr-db-max", "1", "--snr-db-step", "0.6"], capsys
        )
        assert code == 0
        data = np.genfromtxt(out.splitlines(), delimiter=",", names=True)
        assert list(data["snr_db"]) == [0.0, 0.6]

    @pytest.mark.parametrize("step, rows", [("0.25", 121), ("0.001", 30001)])
    def test_grid_ends_at_max(self, tmp_path, capsys, step, rows):
        out = tmp_path / "curves.csv"
        run_cli(["curves", "--alpha", "0.5", "--snr-db-step", step, "--out", str(out)], capsys)
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert len(data) == rows
        assert data["snr_db"][-1] == 30.0

    # Below about -10 dB the capacities print in e-0x notation.
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        alpha=st.floats(0.0, 1.0, exclude_max=True),
        snr_db_min=st.floats(-120.0, 80.0),
        span=st.floats(0.0, 150.0),
        step=st.floats(0.01, 10.0),
    )
    @example(alpha=0.3, snr_db_min=-50.0, span=0.0, step=1.0)  # a single row
    def test_bytes_match_per_value_formatting(self, alpha, snr_db_min, span, step,
                                              tmp_path, capsys):
        assert_curves_match_per_value(alpha, snr_db_min, snr_db_min + span, step,
                                      tmp_path, capsys)

    @pytest.mark.parametrize("rows", [1, CURVE_CHUNK_ROWS - 1, CURVE_CHUNK_ROWS,
                                      CURVE_CHUNK_ROWS + 1, 2 * CURVE_CHUNK_ROWS + 1])
    def test_bytes_match_per_value_formatting_at_chunk_edges(self, rows, tmp_path, capsys):
        # a 0.25 dB step from -40 dB keeps every grid point exact in binary
        assert_curves_match_per_value(0.599, -40.0, -40.0 + 0.25 * (rows - 1), 0.25,
                                      tmp_path, capsys)
        assert len((tmp_path / "curves.csv").read_text().splitlines()) == rows + 1

    def test_alpha_flags_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["curves", "--alpha", "0.5", "--pdl-db", "6"])
        assert exc.value.code == 2

    def test_alpha_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["curves"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["curves"], ["penalties"], ["verify", "--suite", "means"],
        ["fer", "--snr-db", "10", "--table1", "t1.csv", "--table2", "t2.csv"],
    ], ids=["curves", "penalties", "verify", "fer"])
    def test_overflowing_pdl_db_is_usage_error(self, argv, capsys):
        # 10 ** (3100 / 10) raised an OverflowError past the flag check: a traceback, exit 1
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--pdl-db", "3100"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: " in err and "pdl_db 3100 overflows" in err


class TestPenalties:
    def test_reference_values(self, capsys):
        code, out, _ = run_cli(["penalties", "--alpha", "0.599"], capsys)
        assert code == 0
        payload = json.loads(out)
        pen = payload["penalties_db"]
        assert abs(pen["nonjoint"] - 3.968) < 1e-3
        assert abs(pen["parallel"] - 1.931) < 1e-3
        assert abs(pen["sic"] - 0.965) < 1e-3

    def test_pdl_db_flag(self, capsys):
        code, out, _ = run_cli(["penalties", "--pdl-db", "6.007040911260524"], capsys)
        payload = json.loads(out)
        assert abs(payload["alpha"] - 0.599) < 1e-12

    def test_alpha_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["penalties", "--alpha", "1.5"])
        assert exc.value.code == 2


class TestVerify:
    def test_means_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "detail.json"
        code, stdout, _ = run_cli(
            ["verify", "--suite", "means", "--alpha", "0.599", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "PASS" in stdout
        detail = json.loads(out.read_text())
        assert detail["passed"] is True

    def test_worst_case_suite(self, capsys):
        code, stdout, _ = run_cli(
            ["verify", "--suite", "worst-case", "--alpha", "0.599",
             "--n-beta", "101", "--n-gamma", "101"],
            capsys,
        )
        assert code == 0
        assert stdout.startswith("PASS")

    @pytest.mark.parametrize("snr_db", ["-80", "-100", "-160"])
    def test_worst_case_suite_at_low_snr(self, snr_db, capsys):
        # rates here are below 1e-8 bits, so rounding 1 + s would read extremal=False or beta*=0
        code, stdout, _ = run_cli(
            ["verify", "--suite", "worst-case", "--alpha", "0.9", "--snr-db", snr_db], capsys
        )
        assert code == 0
        assert stdout.startswith("PASS worst-case beta*=0.5 extremal=True ")

    def test_star_property_universal_precoder(self, capsys):
        code, stdout, _ = run_cli(
            ["verify", "--suite", "star-property", "--alpha", "0.599", "--model", "real",
             "--n-gamma", "41", "--n-theta", "32"],
            capsys,
        )
        assert code == 0

    def test_star_property_permuted_fails(self, capsys):
        code, stdout, _ = run_cli(
            ["verify", "--suite", "star-property", "--alpha", "0.599", "--model", "real",
             "--n-gamma", "41", "--n-theta", "32", "--permute", "0,2,1,3"],
            capsys,
        )
        assert code == 1
        assert "FAIL" in stdout

    def test_star_property_failure_names_grid_points(self, capsys, tmp_path):
        out = tmp_path / "star.json"
        code, stdout, _ = run_cli(
            ["verify", "--suite", "star-property", "--alpha", "0.599", "--model", "real",
             "--n-gamma", "41", "--n-theta", "32", "--permute", "0,2,1,3", "--out", str(out)],
            capsys,
        )
        assert code == 1
        detail = json.loads(out.read_text())["detail"]["real"]
        lhs = detail["lhs_point"]
        assert set(lhs) == {"gamma", "theta", "phi"} and lhs["phi"] is None
        assert f"rate-sum minimum at gamma={lhs['gamma']:.6g} theta={lhs['theta']:.6g}" in stdout
        streams = detail["min_stream_points"]
        assert len(streams) == 4
        assert all(set(p) == {"snr", "gamma", "theta", "phi"} for p in streams)
        # the last stream's SNR is the full SNR at every lattice point, so the
        # point named for its minimum is a rounding tie; the others sit at |gamma| = alpha
        *dependent, last = streams
        assert all(abs(p["gamma"]) == pytest.approx(0.599) for p in dependent)
        assert last["snr"] == pytest.approx(20.0, rel=1e-12)

    def test_star_property_pass_line_names_no_point(self, capsys, tmp_path):
        out = tmp_path / "star.json"
        code, stdout, _ = run_cli(
            ["verify", "--suite", "star-property", "--alpha", "0.599", "--model", "complex",
             "--n-gamma", "3", "--n-theta", "8", "--n-phi", "4", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "minimum at" not in stdout
        detail = json.loads(out.read_text())["detail"]["complex"]
        assert detail["lhs_point"]["phi"] is not None
        assert len(detail["min_stream_points"]) == 8

    def test_star_property_reads_snrs_through_the_public_kernel(self, capsys, tmp_path, monkeypatch):
        # the oracle's SNRs come back through capacity.successive_stream_snrs(gram, snr), so
        # a two-argument wrapper that scales them moves lhs_bits on both models
        argv = ["verify", "--suite", "star-property", "--model", "both", "--alpha", "0.599",
                "--n-gamma", "1", "--n-theta", "8", "--n-phi", "4", "--out"]
        code, _, _ = run_cli([*argv, str(tmp_path / "plain.json")], capsys)
        assert code == 0
        kernel = capacity.successive_stream_snrs
        monkeypatch.setattr(capacity, "successive_stream_snrs",
                            lambda gram, snr: kernel(gram, snr) * 1.001)
        code, _, _ = run_cli([*argv, str(tmp_path / "scaled.json")], capsys)
        assert code == 0
        plain, scaled = (json.loads((tmp_path / f"{name}.json").read_text())["detail"]
                         for name in ("plain", "scaled"))
        for model in ("real", "complex"):
            assert scaled[model]["lhs_bits"] > plain[model]["lhs_bits"]

    def test_star_property_identity_fails(self, capsys):
        code, _, _ = run_cli(
            ["verify", "--suite", "star-property", "--alpha", "0.599", "--model", "real",
             "--precoder", "identity", "--n-gamma", "21", "--n-theta", "16"],
            capsys,
        )
        assert code == 1

    def test_orthogonality_suite_small(self, capsys):
        code, stdout, _ = run_cli(
            ["verify", "--suite", "orthogonality", "--alpha", "0.9", "--draws", "200"],
            capsys,
        )
        assert code == 0
        assert stdout.count("PASS") == 2  # both models

    def test_snr_closed_forms_suite_small(self, capsys):
        code, _, _ = run_cli(
            ["verify", "--suite", "snr-closed-forms", "--alpha", "0.9",
             "--draws", "200", "--model", "real"],
            capsys,
        )
        assert code == 0

    def test_alpha_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "means"])
        assert exc.value.code == 2
        assert "--alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "worst-case", "--n-beta", "1"],
            ["--suite", "star-property", "--n-theta", "0"],
            ["--suite", "star-property", "--n-phi", "0"],
            ["--suite", "means", "--n-gamma", "0"],
            ["--suite", "orthogonality", "--draws", "0"],
            ["--suite", "snr-closed-forms", "--draws", "-3"],
            # an empty order once ran the universal precoder and passed
            ["--suite", "star-property", "--permute", ""],
            ["--suite", "star-property", "--permute", "0,,1"],
            ["--suite", "star-property", "--permute", "a,b"],
            ["--suite", "orthogonality", "--permute", ""],
            ["--suite", "snr-closed-forms", "--permute", "0,,1"],
        ],
    )
    def test_empty_grid_or_sample_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--alpha", "0.599", *argv])
        assert exc.value.code == 2
        message = "comma-separated integers" if "--permute" in argv else "must be at least"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["star-property", "orthogonality", "snr-closed-forms"])
    def test_permute_must_fit_every_model_before_any_output(self, suite, capsys, tmp_path):
        # 4 columns fit the real precoder but not the complex one: nothing runs, nothing is written
        out = tmp_path / "detail.json"
        code, stdout, err = run_cli(
            ["verify", "--suite", suite, "--alpha", "0.599", "--n-gamma", "3", "--draws", "20",
             "--permute", "0,2,1,3", "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert stdout == ""
        assert "order must be a permutation of 0..7" in err
        assert not out.exists()

    @pytest.mark.parametrize("control", [["--precoder", "identity"], ["--permute", "0,2,1,3"]],
                             ids=["identity", "permuted"])
    @pytest.mark.parametrize("suite", ["orthogonality", "snr-closed-forms"])
    def test_sampling_suite_fails_negative_control(self, suite, control, capsys, tmp_path):
        # these suites once tested the universal precoder whatever the flags, and passed
        out = tmp_path / "detail.json"
        code, stdout, _ = run_cli(
            ["verify", "--suite", suite, "--alpha", "0.9", "--draws", "200", "--model", "real",
             *control, "--out", str(out)],
            capsys,
        )
        assert code == 1
        assert stdout.startswith(f"FAIL {suite}[real] ")
        detail = json.loads(out.read_text())["detail"]["real"]
        assert detail["passed"] is False
        if suite == "orthogonality":
            assert detail["max_defects"]["h1"] > 0.5
        else:
            dev = detail["max_rel_dev"]
            assert dev["PostSIC"] > 0.5
            if "--permute" in control:  # the swap keeps both stream groups: only the SIC order breaks
                assert dev["ZF"] < 1e-9 and dev["LMMSE"] < 1e-9

    @pytest.mark.parametrize("control", [["--precoder", "identity"], ["--permute", "0,2,1,3"],
                                         ["--model", "real"], ["--model", "both"]],
                             ids=["identity", "permuted", "model", "both-models"])
    @pytest.mark.parametrize("suite", ["worst-case", "means"])
    def test_model_free_suite_refuses_controls(self, suite, control, capsys, tmp_path):
        # worst-case and means build no precoder and take no model, so a control
        # would pass unrun and a --model would be ignored
        out = tmp_path / "detail.json"
        code, stdout, err = run_cli(
            ["verify", "--suite", suite, "--alpha", "0.599", *control, "--out", str(out)], capsys
        )
        assert code == 2
        assert stdout == "" and not out.exists()
        assert err.startswith("error: ") and "no precoder" in err

    def test_model_free_suite_takes_the_default_precoder_flag(self, capsys):
        code, stdout, _ = run_cli(
            ["verify", "--suite", "means", "--alpha", "0.599", "--precoder", "universal"], capsys
        )
        assert code == 0 and stdout.startswith("PASS means ")

    @pytest.mark.parametrize("with_out", [True, False], ids=["out", "stdout"])
    @pytest.mark.parametrize("argv", [
        ["--suite", "means", "--alpha", "0.5", "--snr-db", "1550"],  # snr * snr overflows
        ["--suite", "worst-case", "--alpha", "0.9", "--snr-db", "3080"],  # (1+alpha) * snr does
    ], ids=["means", "worst-case"])
    def test_non_finite_detail_is_usage_error(self, argv, with_out, capsys, tmp_path):
        # the --out file once held the non-standard JSON constant Infinity, and
        # without --out the overflow printed FAIL and exited 1
        out = tmp_path / "detail.json"
        code, stdout, err = run_cli(["verify", *argv, *(["--out", str(out)] if with_out else [])],
                                    capsys)
        assert code == 2
        assert stdout == "" and not out.exists()
        assert err.startswith("error: ") and "float range" in err
        assert "Warning" not in err

    def test_closed_form_overflow_is_usage_error(self, capsys, tmp_path):
        # snr**2 in the LMMSE closed form raised an uncaught OverflowError, exit 1
        out = tmp_path / "detail.json"
        code, stdout, err = run_cli(
            ["verify", "--suite", "snr-closed-forms", "--alpha", "0.5", "--snr-db", "1550",
             "--draws", "20", "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert stdout == "" and not out.exists()
        assert err.startswith("error: float overflow")

    @pytest.mark.parametrize("alpha", ["0", "0.5", "0.9", "0.999999"])
    @pytest.mark.parametrize("model, onset_db", [("real", 211.03), ("complex", 205.01),
                                                 ("both", 205.01)])
    def test_closed_forms_refuse_from_their_rounding_floor(self, model, onset_db, alpha,
                                                           capsys, tmp_path):
        # the numeric SNRs' relative rounding grows as SNR * eps^2; from about 215 dB it
        # read as FAIL, exit 1, on the universal precoder.  Now the suite refuses (exit 2,
        # before any verdict) where n^2 * eps^2 * SNR reaches its 1e-9 tolerance: n = 4
        # real and 8 complex streams.
        out = tmp_path / "detail.json"
        for snr_db in (200.0, onset_db - 0.1, onset_db + 0.1, 215.0, 230.0, 500.0, 1000.0,
                       1541.0, 1549.0):
            code, stdout, err = run_cli(
                ["verify", "--suite", "snr-closed-forms", "--model", model, "--alpha", alpha,
                 "--snr-db", repr(snr_db), "--draws", "50", "--out", str(out)],
                capsys,
            )
            if snr_db < onset_db:
                assert code == 0 and stdout.startswith("PASS snr-closed-forms[")
                assert "FAIL" not in stdout
                out.unlink()
            else:
                assert code == 2, (snr_db, stdout)
                assert stdout == "" and not out.exists()
                assert err.startswith("error: ")

    @pytest.mark.parametrize("model", ["real", "complex", "both"])
    @pytest.mark.parametrize(
        "suite", ["orthogonality", "snr-closed-forms", "star-property", "worst-case", "means"]
    )
    def test_driver_prints_one_verdict_per_model(self, suite, model, capsys, tmp_path):
        out = tmp_path / "detail.json"
        code, stdout, _ = run_cli(
            ["verify", "--suite", suite, "--alpha", "0.599", "--model", model,
             "--draws", "50", "--n-gamma", "5", "--n-theta", "8", "--n-phi", "4",
             "--n-beta", "21", "--out", str(out)],
            capsys,
        )
        if suite in ("worst-case", "means"):  # model-free: refuses --model, else one flat verdict
            assert code == 2 and stdout == "" and not out.exists()
            code, stdout, _ = run_cli(
                ["verify", "--suite", suite, "--alpha", "0.599", "--n-gamma", "5",
                 "--n-beta", "21", "--out", str(out)],
                capsys,
            )
            payload = json.loads(out.read_text())
            names, verdicts = [suite], [payload["detail"]["passed"]]
        else:
            payload = json.loads(out.read_text())
            models = ["real", "complex"] if model == "both" else [model]
            names = [f"{suite}[{m}]" for m in models]
            assert list(payload["detail"]) == models
            verdicts = [payload["detail"][m]["passed"] for m in models]
        lines = stdout.splitlines()
        assert len(lines) == len(names)
        for line, name, passed in zip(lines, names, verdicts):
            assert line.startswith(f"{'PASS' if passed else 'FAIL'} {name} ")
        assert payload["passed"] is all(verdicts)
        assert code == (0 if payload["passed"] else 1)

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2


class TestSimulate:
    def test_report_round_trip(self, tmp_path, capsys):
        cfg = {
            "model": "Real",
            "alpha": 0.599,
            "snr": {"snr_linear": 20},
            "param_mode": "WorstCaseEdge",
            "scheme": "LMMSE-SIC",
            "trials": 5000,
            "seed": 42,
        }
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        code, _, _ = run_cli(["simulate", "--config", str(cfg_path), "--out", str(out)], capsys)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["scheme"] == "LMMSE-SIC"
        assert len(report["snr_per_stream"]) == 4
        assert len(report["stages"]) == 2

    def test_deterministic(self, tmp_path, capsys):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "model": "ComplexEquivalent",
                    "alpha": 0.3,
                    "snr": {"snr_db": 10.0},
                    "param_mode": "UniformInterior",
                    "scheme": "ZF",
                    "trials": 3000,
                    "seed": 7,
                }
            )
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["simulate", "--config", str(cfg_path), "--out", str(a)], capsys)
        run_cli(["simulate", "--config", str(cfg_path), "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_single_trial_null_stderr(self, tmp_path, capsys):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "model": "Real", "alpha": 0.1, "snr": {"snr_linear": 5},
                    "param_mode": "WorstCaseEdge", "scheme": "ZF",
                    "trials": 1, "seed": 0,
                }
            )
        )
        code, out, _ = run_cli(["simulate", "--config", str(cfg_path)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["snr_stderr"] is None

    def test_missing_field_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps({"model": "Real", "alpha": 0.1}))
        code, _, err = run_cli(["simulate", "--config", str(cfg_path)], capsys)
        assert code == 2
        assert "snr" in err

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text("{\n  broken\n}")
        code, _, err = run_cli(["simulate", "--config", str(cfg_path)], capsys)
        assert code == 2
        assert "2" in err  # line number of the defect

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "unread.json", "--seed", "-3"],
        ["verify", "--suite", "orthogonality", "--alpha", "0.599", "--seed", "-1"],
    ])
    def test_negative_seed_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "must be at least 0" in err

    @pytest.mark.parametrize(
        "override, named",
        [
            ({"blocksize": 10}, "blocksize"),
            ({"report_blocks": "false"}, "report_blocks"),
            ({"trials": 1.7}, "trials"),
            ({"trials": True}, "trials"),
            ({"seed": 0.5}, "seed"),
            ({"seed": -3}, "seed"),
            ({"block_size": "10"}, "block_size"),
            ({"snr": {"snr_linear": float("inf")}}, "snr_linear"),
            ({"snr": {"snr_db": float("nan")}}, "snr_linear"),
            ({"snr": {"snr_linear": 5, "snr_db": 7.0}}, "snr_db"),
            ({"alpha": False}, "alpha"),
            ({"alpha": "0.5"}, "alpha"),
            ({"snr": True}, "snr"),
            ({"snr": "20"}, "snr"),
            ({"snr": None}, "snr"),
            ({"snr": {"snr_linear": True}}, "snr_linear"),
            ({"snr": {"snr_db": "13"}}, "snr_db"),
            ({"snr": {"snr_linear": 5, "snr_db": False}}, "snr_db"),
            ({"snr": {"snr_db": 13.0, "snr_lineer": 5}}, "snr_lineer"),
            ({"alpha": 10**400}, "alpha"),
        ],
    )
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, override, named):
        cfg = {
            "model": "Real", "alpha": 0.1, "snr": {"snr_linear": 5},
            "param_mode": "WorstCaseEdge", "scheme": "ZF", "trials": 10, "seed": 0,
        }
        cfg.update(override)
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(["simulate", "--config", str(cfg_path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("seed", [[], ["--seed", "3"]], ids=["no-flag", "seed-flag"])
    @pytest.mark.parametrize("body", ["null", "42", "[1, 2]", '"abc"'])
    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path, capsys, body, seed):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(body)
        code, out, err = run_cli(["simulate", "--config", str(cfg_path), *seed], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "JSON object" in err

    def test_pam_stream_without_genie_errors_writes_null_ratio(self, tmp_path, capsys):
        # at SNR 1000 the second-stage PAM(2) streams make no genie errors, so
        # their decision-directed over genie ratio is undefined
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps({
            "model": "Real", "alpha": 0.599, "snr": {"snr_linear": 1000},
            "param_mode": "WorstCaseEdge", "scheme": "ZF-SIC", "trials": 2000, "seed": 42,
            "constellation": "PAM(2)", "block_size": 10,
        }))
        code, out, _ = run_cli(["simulate", "--config", str(cfg_path)], capsys)
        assert code == 0

        def refuse(token):
            raise ValueError(f"report holds the non-standard JSON constant {token}")

        ser = json.loads(out, parse_constant=refuse)["ser"]
        assert ser["ser_genie"][2:] == [0.0, 0.0]
        assert ser["dd_over_genie"] == [None, None]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("model, scheme, snr, trials, block_size, shown", [
        ("ComplexEquivalent", "LMMSE-SIC", 1e-200, 200, 10, "1e-200"),
        ("ComplexEquivalent", "LMMSE-SIC", 1e-110, 200, 10, "1e-110"),
        ("Real", "ZF-SIC", 1e306, 2000, 1000, "1e+306"),
    ], ids=["underflow", "underflow-to-zero", "overflow"])
    def test_non_finite_report_is_usage_error(
        self, tmp_path, capsys, model, scheme, snr, trials, block_size, shown
    ):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps({
            "model": model, "alpha": 0.599, "snr": {"snr_linear": snr},
            "param_mode": "WorstCaseEdge", "scheme": scheme, "trials": trials, "seed": 42,
            "block_size": block_size,
        }))
        out_path = tmp_path / "report.json"
        code, out, err = run_cli(
            ["simulate", "--config", str(cfg_path), "--out", str(out_path)], capsys
        )
        assert code == 2
        assert out == "" and not out_path.exists()
        assert err.startswith("error: ") and "non-finite" in err and f"SNR {shown}" in err

    def test_closed_form_overflow_is_usage_error(self, tmp_path, capsys):
        # the PAM SER theory squares snr_linear 1e160 in Python floats; that raised an
        # uncaught OverflowError, exit 1
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps({
            "model": "Real", "alpha": 0.599, "snr": {"snr_linear": 1e160},
            "param_mode": "WorstCaseEdge", "scheme": "LMMSE-SIC", "trials": 20, "seed": 42,
            "constellation": "PAM(4)", "block_size": 10,
        }))
        out_path = tmp_path / "report.json"
        code, out, err = run_cli(
            ["simulate", "--config", str(cfg_path), "--out", str(out_path)], capsys
        )
        assert code == 2
        assert out == "" and not out_path.exists()
        assert err.startswith("error: float overflow")

    def test_out_of_memory_is_usage_error(self, tmp_path, capsys):
        # 10**15 one-trial blocks need 14 PiB of block parameters, more than
        # the 128 TiB user address space, so the allocation fails at once
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps({
            "model": "Real", "alpha": 0.599, "snr": {"snr_linear": 20},
            "param_mode": "WorstCaseEdge", "scheme": "ZF", "trials": 10**15, "seed": 0,
            "block_size": 1,
        }))
        out_path = tmp_path / "report.json"
        code, out, err = run_cli(
            ["simulate", "--config", str(cfg_path), "--out", str(out_path)], capsys
        )
        assert code == 2
        assert out == "" and not out_path.exists()
        assert err.startswith("error: ") and "allocate" in err

    def test_bundled_example_config_parses(self, tmp_path, capsys):
        # the shipped config at configs/lmmse_sic_6db.json, scaled down
        import pathlib

        bundled = pathlib.Path(__file__).resolve().parent.parent / "configs" / "lmmse_sic_6db.json"
        cfg = json.loads(bundled.read_text())
        assert cfg["trials"] == 1_000_000
        assert cfg["seed"] == 42
        cfg["trials"] = 2000
        cfg_path = tmp_path / "small.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(["simulate", "--config", str(cfg_path)], capsys)
        assert code == 0
        assert json.loads(out)["config"]["alpha"] == 0.599


STAR = ["verify", "--suite", "star-property", "--alpha", "0.599", "--n-gamma", "3"]


class TestParserReuse:
    """Every main call in a process parses with one parser, and no call leaves state in it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Count the parsers built; the first main call afterwards builds one."""
        count = []
        build = cli.build_parser

        def counting():
            count.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        yield count
        cli._parser.cache_clear()

    @staticmethod
    def outcome(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize(("first", "first_code", "second"), [
        (["curves", "--alpha", "0.5", "--pdl-db", "6"], 2, ["penalties", "--alpha", "0.599"]),
        (["penalties", "--alpha", "1.5"], 2, ["penalties", "--alpha", "0.599"]),
        ([*STAR, "--model", "real", "--permute", "0,2,1,3"], 1, STAR),
        (["penalties", "--pdl-db", "6"], 0, ["penalties", "--alpha", "0.3"]),
        (["curves", "--alpha", "0.5", "--snr-db-max", "1"], 0,
         ["verify", "--suite", "means", "--alpha", "0.5"]),
    ], ids=["usage-error", "bad-alpha", "control", "pdl-db", "curves-then-verify"])
    def test_a_call_sees_only_its_own_flags(self, first, first_code, second, builds, capsys):
        alone = self.outcome(second, capsys)  # the first call on a fresh parser
        assert self.outcome(first, capsys)[0] == first_code
        assert self.outcome(second, capsys) == alone
        assert alone[0] == 0
        assert len(builds) == 1  # three calls, one parser

    def test_control_flags_do_not_outlive_their_call(self, builds, capsys):
        self.outcome([*STAR, "--model", "real", "--permute", "0,2,1,3"], capsys)
        code, out, _ = self.outcome(STAR, capsys)
        # the universal precoder, on both models
        assert code == 0
        assert [line.split()[:2] for line in out.splitlines()] == [
            ["PASS", "star-property[real]"], ["PASS", "star-property[complex]"]]


class TestFer:
    @pytest.fixture
    def tables(self, tmp_path):
        t1 = tmp_path / "t1.csv"
        t1.write_text(
            "snr_db,fer,rate_bits_per_real_dim,label\n11.08,1.2e-3,1.8,8ASK-R3/4-PAS\n"
        )
        t2 = tmp_path / "t2.csv"
        t2.write_text(
            "snr_db,fer,rate_bits_per_real_dim,label\n13.01,1.3e-3,2.1,16ASK-R5/6-PAS\n"
        )
        return str(t1), str(t2)

    def test_reference_point(self, tables, capsys):
        t1, t2 = tables
        code, out, _ = run_cli(
            ["fer", "--alpha", "0.599", "--snr-db", "13.01", "--table1", t1, "--table2", t2],
            capsys,
        )
        assert code == 0
        point = json.loads(out)
        assert abs(point["total_rate_bits_per_real_dim"] - 1.95) < 1e-9
        assert abs(point["fer_bound"] - 2.5e-3) < 1e-5
        assert point["composed_gap_db"] < 0.7
        assert point["gap_to_capacity_db"] < 0.7

    def test_out_of_range_names_snr(self, tables, capsys):
        t1, t2 = tables
        code, _, err = run_cli(
            ["fer", "--alpha", "0.599", "--snr-db", "10.0", "--table1", t1, "--table2", t2],
            capsys,
        )
        assert code == 2
        assert "8.0699" in err  # the derated lookup SNR that failed

    def test_empty_table_is_format_error(self, tmp_path, tables, capsys):
        t1, t2 = tables
        empty = tmp_path / "empty.csv"
        empty.write_text("snr_db,fer,rate_bits_per_real_dim,label\n")
        code, _, err = run_cli(
            ["fer", "--alpha", "0.599", "--snr-db", "13.01",
             "--table1", str(empty), "--table2", t2],
            capsys,
        )
        assert code == 2
