"""Self-tests of the benchmark, at smoke size.  Run with ``python -m pytest perfbench``.

They check that every workload passes on the current program, that a
corrupted result counts as a failed call, that the traced run's spans are
consistent, and that the benchmark refuses to run without the program.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

CLI = run.import_program()
import pdlsic.capacity  # noqa: E402  (importable once run.import_program put src/ on the path)
import pdlsic.montecarlo  # noqa: E402


def smoke_runner(name: str, tmp_path: Path, seed: int = 1) -> run.Runner:
    workload = workloads.build(name, seed, tmp_path, run.ROOT / "data", smoke=True)
    return run.Runner(CLI, workload)


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_workload_passes_at_smoke_size(name, tmp_path):
    runner = smoke_runner(name, tmp_path)
    runner.round()
    runner.round()
    assert runner.failures == []
    assert runner.attempted == 2 * len(runner.workload.steps)
    assert runner.workload.work_per_round > 0


def test_inputs_follow_the_seed(tmp_path):
    def inputs(seed, sub):
        path = tmp_path / sub
        path.mkdir()
        steps = workloads.build("mc_fastfade", seed, path, run.ROOT / "data").steps
        return [json.loads(Path(step.argv[-1]).read_text()) for step in steps]

    first = inputs(1, "a")
    assert first == inputs(1, "b")
    assert first != inputs(2, "c")


def test_perturbed_oracle_fails_every_call(tmp_path, monkeypatch):
    original = pdlsic.capacity.successive_stream_snrs
    monkeypatch.setattr(pdlsic.capacity, "successive_stream_snrs",
                        lambda gram, snr: original(gram, snr) * 1.001)
    runner = smoke_runner("oracle", tmp_path)
    runner.round()
    assert len(runner.failures) == runner.attempted


def test_wrong_channel_fails_the_simulation_checks(tmp_path, monkeypatch):
    original = pdlsic.montecarlo.effective_channel

    def halved_gamma(params, precoder, snr):
        return original(dataclasses.replace(params, gamma=params.gamma / 2), precoder, snr)

    monkeypatch.setattr(pdlsic.montecarlo, "effective_channel", halved_gamma)
    runner = smoke_runner("mc_fastfade", tmp_path)
    runner.round()
    assert len(runner.failures) == runner.attempted


def test_wrong_closed_form_fails_the_curves_check(tmp_path, monkeypatch):
    original = pdlsic.capacity.c_compound
    monkeypatch.setattr(pdlsic.capacity, "c_compound", lambda a, s: original(a, s) + 1e-6)
    runner = smoke_runner("verify_sweep", tmp_path)
    runner.round()
    assert any(f.startswith("curves ") for f in runner.failures)


def test_output_that_changes_between_rounds_fails(tmp_path, monkeypatch):
    runner = smoke_runner("mc_fastfade", tmp_path)
    runner.round()
    original = pdlsic.montecarlo.run
    monkeypatch.setattr(pdlsic.montecarlo, "run",
                        lambda config: original(dataclasses.replace(config, seed=config.seed + 1)))
    runner.round()
    assert len(runner.failures) == len(runner.workload.steps)
    assert all("differs" in f for f in runner.failures)


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_trace_self_time_within_total(name, tmp_path):
    runner = smoke_runner(name, tmp_path)
    runner.round()
    spans = tracer.Tracer()
    originals = {key: getattr(pdlsic.capacity, key) for key in ("c_awgn", "verify_star_property")}
    spans.install()
    try:
        wall = sum(runner.round())
    finally:
        spans.uninstall()
    assert {key: getattr(pdlsic.capacity, key) for key in originals} == originals
    assert runner.failures == []
    assert spans.calls["cli.main"] == len(runner.workload.steps)
    for name_ in spans.calls:
        assert 0.0 <= spans.self_s[name_] <= spans.total_s[name_] + 1e-9, name_
    metrics = spans.metrics(1, wall, 1.0, runner.bytes_out)
    assert set(metrics) == set(tracer.METRICS)
    assert 0.9 < metrics["trace.accounted_ratio"]["value"] <= 1.0 + 1e-9


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    outcome = run.run_workload("mc_fastfade", 1, 0.0, trace=True, smoke=True,
                               workdir_root=tmp_path / "work")
    result = outcome["result"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(tracer.METRICS)
    assert result["metrics"]["montecarlo.precoder_builds_per_block"]["value"] == 1.0
    assert not (tmp_path / "work").exists()


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 19) is None
    assert run.tail_percentile([float(i) for i in range(20)])[0] == 50
    assert run.tail_percentile([float(i) for i in range(40)])[0] == 75
    assert run.tail_percentile([float(i) for i in range(101)]) == (90, 90.0)


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "checkout"
    shutil.copytree(run.ROOT / "perfbench", bench / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bench / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bench, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fastest_round_sums_each_calls_fastest_time():
    assert run.fastest_round([[1.0, 5.0], [2.0, 3.0], [4.0, 4.0]]) == 4.0
