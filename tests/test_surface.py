"""The documented and traced surface of pdlsic: README examples run, tracer names resolve,
the benchmark's call contracts hold, the command line starts without scipy, a module loads
only what it imports."""

import importlib
import importlib.util
import os
import pathlib
import re
import subprocess
import sys

from pdlsic import capacity, cli, montecarlo
from pdlsic.channel import Model, SampleMode, SnrSpec

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run():
    # later blocks reuse the names of earlier ones, as a reader pasting them in order would
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_tracer_spans_resolve():
    # the benchmark tracer wraps these (module, attribute) pairs; a name that
    # is gone would make every traced benchmark run fail
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SPANS
    for module_name, attr, _ in tracer.SPANS:
        owner = importlib.import_module(f"pdlsic.{module_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"pdlsic.{module_name} has no {attr}"
            owner = getattr(owner, part)
        assert callable(owner)


def test_run_builds_channels_through_montecarlo_effective_channel(monkeypatch):
    # the benchmark's wrong-channel check swaps in a three-argument wrapper of this
    # attribute; a run that built its channels another way would pass that check unseen
    original, built = montecarlo.effective_channel, []

    def recording(params, precoder, snr):
        built.append(len(params.gamma))
        return original(params, precoder, snr)

    monkeypatch.setattr(montecarlo, "effective_channel", recording)
    config = montecarlo.SimConfig(Model.COMPLEX, 0.599, SnrSpec(20.0),
                                  SampleMode.UNIFORM_INTERIOR, montecarlo.Scheme.LMMSE_SIC,
                                  trials=203, seed=1, block_size=10)
    montecarlo.run(config)
    assert sum(built) == config.n_blocks


def test_curves_reads_c_compound_through_capacity(monkeypatch, capsys):
    # the benchmark's curves check shifts capacity.c_compound by 1e-6 and must see the
    # c_compound column move
    argv = ["curves", "--alpha", "0.599", "--snr-db-step", "5"]

    def columns():
        assert cli.main(argv) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        return dict(zip(header.split(","), zip(*(map(float, r.split(",")) for r in rows))))

    before = columns()
    original = capacity.c_compound
    monkeypatch.setattr(capacity, "c_compound", lambda a, s: original(a, s) + 1e-6)
    after = columns()
    assert after["snr_db"] == before["snr_db"] and after["c_awgn"] == before["c_awgn"]
    for old, new in zip(before["c_compound"], after["c_compound"]):
        assert abs(new - old - 1e-6) < 1e-9


def test_cli_cold_start_loads_no_scipy():
    # scipy is a test dependency only; a fresh interpreter that builds the
    # command-line parser must not import any of it
    probe = (
        "import sys, pdlsic, pdlsic.cli; pdlsic.cli.build_parser(); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_modules_load_only_what_they_import():
    # pdlsic/__init__.py once re-exported 49 names, so importing any one module
    # loaded all six library modules; each name now has one home
    probe = (
        "import sys, importlib; importlib.import_module(sys.argv[1]); "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('pdlsic.'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def loaded(module):
        out = subprocess.run([sys.executable, "-c", probe, module], env=env, check=True,
                             capture_output=True, text=True).stdout
        return set(out.split())

    assert loaded("pdlsic") == set()
    assert loaded("pdlsic.channel") == {"pdlsic.channel"}
    assert not loaded("pdlsic.capacity") & {"pdlsic.montecarlo", "pdlsic.linkbudget"}
