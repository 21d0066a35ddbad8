"""Benchmark of the pdlsic command line: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload is a closed loop with one client: a fixed list of CLI calls
(a round) made through ``pdlsic.cli.main`` in this process, the next call
starting when the previous one returns, repeated for ``--seconds``.  With
``--trace 0`` the last line of stdout is a JSON object whose metrics are the
end-to-end ones (wall_s, throughput, setup_s, peak_rss_mb); with
``--trace 1`` they are the per-layer ones from ``tracer.py``.  ``--workload
all`` runs every workload, each in a fresh process, and prints a table.
The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

# One OpenBLAS thread, set before numpy loads here or in a fresh interpreter.
# With two threads on a host whose other vCPU is shared, every GEMM waits for
# the slower vCPU: in alternating 12 s windows, mc_bigblock's fastest round
# moved by 40% with two threads and by 6% with one.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
DEFAULT_SEED = 1
SETUP_SAMPLES = 7
MIN_ROUNDS = 3
SETUP_SNIPPET = (
    "import time, pdlsic, pdlsic.cli; pdlsic.cli.build_parser(); "
    "print(time.monotonic(), pdlsic.__file__)"
)
EXIT_INCORRECT = 1
EXIT_NO_PROGRAM = 2


class ProgramMissing(Exception):
    pass


def _under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def import_program():
    """Import pdlsic.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "pdlsic" / "cli.py").is_file():
        raise ProgramMissing(f"no pdlsic sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pdlsic.cli

    if not _under_src(pdlsic.cli.__file__):
        raise ProgramMissing(f"imported pdlsic from {pdlsic.cli.__file__}, not from {SRC}")
    return pdlsic.cli


def measure_setup(samples: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to pdlsic.cli imported and its parser built.

    One unmeasured spawn first fills the bytecode cache, which a user pays once.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for i in range(samples + 1):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        ready, path = proc.stdout.split()
        if not _under_src(path):
            raise ProgramMissing(f"fresh interpreter imported pdlsic from {path}")
        if i:
            times.append(float(ready) - start)
    return times


# -- provenance ---------------------------------------------------------------


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    out = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                out[Path(path).name] = getattr(lib, symbol)()
                break
    return out


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(pdlsic_threads: str | None) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "git_commit": _git_commit(),
        "PDLSIC_THREADS": "unset" if pdlsic_threads is None
        else f"was {pdlsic_threads!r}; unset for the run",
    }


# -- running a workload -------------------------------------------------------


class Runner:
    """Makes the rounds of one workload and checks every call's output.

    The first output of a call that passes its check becomes the reference;
    later rounds of the same call must reproduce it byte for byte.
    """

    def __init__(self, cli, workload: workloads.Workload):
        self.cli = cli
        self.workload = workload
        self.reference = {}
        self.attempted = 0
        self.failures = []
        self.bytes_out = 0

    def _call(self, step: workloads.Step):
        if step.out:
            step.out.unlink(missing_ok=True)
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(step.argv)
        except Exception as exc:  # a crash of the program is a failed call, not a crash here
            return None, time.perf_counter() - start, f"raised {exc!r}"
        seconds = time.perf_counter() - start
        text = buf.getvalue()
        self.bytes_out += len(text.encode())
        if step.out:
            if not step.out.is_file():
                return rc, seconds, None
            text = step.out.read_text()
            self.bytes_out += step.out.stat().st_size
        return rc, seconds, text

    def _verify(self, index: int, step: workloads.Step, rc, text) -> str | None:
        if rc != step.expect_rc:
            return f"exit code {rc}, expected {step.expect_rc}"
        if text is None:
            return f"no output written to {step.out.name}"
        if index in self.reference:
            if text != self.reference[index]:
                return "output differs from an earlier run of the same call"
            return None
        try:
            reason = step.check(text)
        except (KeyError, IndexError, TypeError, ValueError, StopIteration) as exc:
            reason = f"malformed output: {exc!r}"
        if reason is None:
            self.reference[index] = text
        return reason

    def round(self) -> list[float]:
        """Make every call of the workload once; return the seconds each call took."""
        call_seconds = []
        for index, step in enumerate(self.workload.steps):
            rc, seconds, text = self._call(step)
            call_seconds.append(seconds)
            self.attempted += 1
            # rc is None when the call raised; text then holds the exception
            reason = text if rc is None else self._verify(index, step, rc, text)
            if reason:
                self.failures.append(f"{' '.join(step.argv[:3])}: {reason}")
        return call_seconds

    def measure(self, seconds: float) -> list[list[float]]:
        """Rounds for ``seconds`` (at least MIN_ROUNDS); the per-call seconds of each."""
        deadline = time.monotonic() + seconds
        rounds = [self.round()]
        while len(rounds) < MIN_ROUNDS or time.monotonic() < deadline:
            rounds.append(self.round())
        return rounds


def fastest_round(rounds: list[list[float]]) -> float:
    """The fastest time of each call over the rounds, summed over the calls of a round.

    On a shared host, other tenants slow every call, at times to half its
    speed, in regimes that last from seconds to minutes; a run of tens of
    seconds can sit wholly in one.  The mean or median of the round times follows the
    regime, while each call's fastest time is what the program needs when it
    is not held back, and it repeats from run to run (the reason ``timeit``
    reports a minimum).
    """
    return sum(min(call) for call in zip(*rounds))


def tail_percentile(samples: list[float]):
    """The highest whole percentile with at least ten samples beyond it, as (p, value).

    None when there are fewer than 20 samples, where that percentile would
    lie below the median.
    """
    n = len(samples)
    if n < 20:
        return None
    p = int(100 - 1000 / n)
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def _timing_note(samples: list[float], what: str) -> str:
    tail = tail_percentile(samples)
    spread = f"p{tail[0]} {tail[1]:.4f}" if tail else "no tail percentile (under 20 samples)"
    return f"{len(samples)} {what}: median {statistics.median(samples):.4f}, {spread}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 workdir_root: Path = WORK_ROOT) -> dict:
    """Run one workload in this process and return its result and a report for humans."""
    pdlsic_threads = os.environ.pop("PDLSIC_THREADS", None)
    cli = import_program()
    setup = [] if trace else measure_setup(SETUP_SAMPLES)
    workdir_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workdir_root))
    lines = []
    try:
        workload = workloads.build(name, seed, workdir, ROOT / "data", smoke)
        runner = Runner(cli, workload)
        runner.round()  # warm-up: lazy imports and caches, and the reference outputs
        if trace:
            untraced = [sum(r) for r in runner.measure(seconds / 2)]
            spans = tracer.Tracer()
            bytes_before = runner.bytes_out
            spans.install()
            try:
                traced = [sum(r) for r in runner.measure(seconds / 2)]
            finally:
                spans.uninstall()
            overhead = statistics.median(traced) / statistics.median(untraced)
            metrics = spans.metrics(len(traced), sum(traced), overhead,
                                    runner.bytes_out - bytes_before)
            lines.append(f"traced {len(traced)} rounds after {len(untraced)} untraced ones; "
                         "values per round")
            lines += [f"{k:<46} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        else:
            rounds = runner.measure(seconds)
            walls = [sum(r) for r in rounds]
            wall = fastest_round(rounds)
            metrics = {
                "wall_s": {"value": wall, "unit": "s"},
                "throughput": {"value": workload.work_per_round / wall, "unit": "units/s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MiB"},
            }
            lines += [
                f"wall_s       {wall:.4f} s   fastest time of each call, summed; "
                f"{_timing_note(walls, 'rounds')}",
                f"throughput   {metrics['throughput']['value']:.6g} units/s   "
                f"({workload.work_unit}s per second, {workload.work_per_round} per round)",
                f"setup_s      {metrics['setup_s']['value']:.4f} s   "
                f"{_timing_note(setup, 'fresh interpreters')}",
                f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MiB",
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir_root.rmdir()
    failed = len(runner.failures)
    lines.append(f"fail_ratio   {failed / runner.attempted:.6g} ratio   "
                 f"({failed} of {runner.attempted} calls failed)")
    return {
        "lines": lines,
        "failures": runner.failures,
        "provenance": provenance(pdlsic_threads),
        "result": {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                   "metrics": metrics},
    }


def run_all(args) -> int:
    """Every workload in its own fresh process, one after the other."""
    results = {}
    code = 0
    for name in workloads.BUILDERS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, EXIT_INCORRECT) or not proc.stdout.strip():
            print(f"{name}: benchmark exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(proc.stdout.splitlines()[-1])
        code = max(code, proc.returncode)
    print("workload      " + "  ".join(f"{m:>22}" for m in _all_columns(results)))
    for name, result in results.items():
        cells = []
        for metric in _all_columns(results):
            if metric == "fail_ratio":
                cells.append(f"{result['failed'] / result['attempted']:>16.4g} ratio")
            else:
                m = result["metrics"][metric]
                cells.append(f"{m['value']:>14.6g} {m['unit']:<7}")
        print(f"{name:<13} " + "  ".join(cells))
    print(json.dumps(results))
    return code


def _all_columns(results: dict) -> list[str]:
    first = next(iter(results.values()))
    return [*first["metrics"], "fail_ratio"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; 7919 is held out for confirming a claimed gain")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    print(f"{args.workload} seed {args.seed} trace {args.trace}")
    for line in run["lines"]:
        print("  " + line)
    for failure in run["failures"][:10]:
        print(f"FAIL {failure}", file=sys.stderr)
    print("provenance " + json.dumps(run["provenance"]))
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else EXIT_INCORRECT


if __name__ == "__main__":
    sys.exit(main())
