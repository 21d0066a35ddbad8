"""In-memory span recorder wrapped around the public functions of each pdlsic layer.

The package imports with ``from .x import f``, so one function object can be
bound in several module namespaces; :meth:`Tracer.install` replaces it in
every ``pdlsic`` module that holds it and :meth:`Tracer.uninstall` puts the
originals back.  Spans nest on one stack (the benchmark is single-threaded).
A span's self time is its duration minus the durations of its child spans.
Only aggregates per span name are kept: calls, total time (outermost
occurrence only, so a span that calls itself is not counted twice) and self
time, plus a few counts taken at the same boundaries.
"""

import functools
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("channel", "precode", "equalize", "capacity", "montecarlo", "linkbudget", "cli")

# (module, attribute, span name).  Several functions may share a span name.
SPANS = [
    ("channel", "sample_params", "channel.sample_params"),
    ("channel", "channel_matrix", "channel.channel_matrix"),
    ("precode", "precoder_real", "precode.precoder_build"),
    ("precode", "precoder_complex", "precode.precoder_build"),
    ("precode", "identity_precoder", "precode.precoder_build"),
    ("precode", "permute_columns", "precode.precoder_build"),
    ("precode", "effective_channel", "precode.effective_channel"),
    ("precode", "verify_orthogonal_design", "precode.verify_orthogonal_design"),
    ("equalize", "zf_equalizer", "equalize.zf_equalizer"),
    ("equalize", "lmmse_equalizer", "equalize.lmmse_equalizer"),
    ("equalize", "stream_statistics", "equalize.stream_statistics"),
    ("equalize", "second_stage_statistics", "equalize.second_stage_statistics"),
    ("capacity", "verify_star_property", "capacity.verify_star_property"),
    ("capacity", "successive_stream_snrs", "capacity.successive_stream_snrs"),
    ("capacity", "worst_case_search", "capacity.worst_case_search"),
    *(("capacity", f, "capacity.closed_form") for f in (
        "c_awgn", "c_compound", "c_compound_approx", "c_parallel", "c_parallel_approx",
        "c_nonjoint", "inverse_c_compound", "penalties_db", "mean_identity_check")),
    ("montecarlo", "run", "montecarlo.run"),
    ("linkbudget", "FerTable.from_csv", "linkbudget.from_csv"),
    ("linkbudget", "evaluate_operating_point", "linkbudget.evaluate_operating_point"),
    ("cli", "main", "cli.main"),
]

# Per-layer metric name -> unit.  Values are per round of the workload.
METRICS = {
    "channel.sample_params.draws": "count",
    "channel.sample_params.s": "s",
    "channel.channel_matrix.calls": "count",
    "channel.channel_matrix.s": "s",
    "channel.self_s": "s",
    "precode.precoder_build.calls": "count",
    "precode.effective_channel.calls": "count",
    "precode.effective_channel.self_s": "s",
    "precode.verify_orthogonal_design.calls": "count",
    "precode.verify_orthogonal_design.s": "s",
    "precode.self_s": "s",
    "equalize.zf_equalizer.calls": "count",
    "equalize.zf_equalizer.s": "s",
    "equalize.lmmse_equalizer.calls": "count",
    "equalize.lmmse_equalizer.s": "s",
    "equalize.stream_statistics.calls": "count",
    "equalize.stream_statistics.s": "s",
    "equalize.second_stage_statistics.calls": "count",
    "equalize.second_stage_statistics.s": "s",
    "equalize.self_s": "s",
    "capacity.verify_star_property.calls": "count",
    "capacity.verify_star_property.self_s": "s",
    "capacity.successive_stream_snrs.calls": "count",
    "capacity.successive_stream_snrs.matrices": "count",
    "capacity.successive_stream_snrs.s": "s",
    "capacity.successive_stream_snrs.us_per_matrix": "us",
    "capacity.worst_case_search.s": "s",
    "capacity.closed_form.s": "s",
    "capacity.self_s": "s",
    "montecarlo.run.calls": "count",
    "montecarlo.run.self_s": "s",
    "montecarlo.blocks": "count",
    "montecarlo.self_us_per_block": "us",
    "montecarlo.precoder_builds_per_block": "ratio",
    "linkbudget.from_csv.s": "s",
    "linkbudget.evaluate_operating_point.s": "s",
    "linkbudget.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.wall_s": "s",
    "trace.accounted_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # [name, start, child seconds]
        self._active = Counter()  # spans of each name currently open
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str):
        self._active[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self._active[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if not self._active[name]:
            self.total_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        on_return = _ON_RETURN.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_return:
                on_return(self, args, result)
            return result

        return wrapper

    def _wrap_iteration(self, name: str, fn):
        """Time a generator function over each ``next``, not over the call that creates it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit()
                self.counts[f"{name}.draws"] += 1
                yield item

        return wrapper

    def install(self):
        """Wrap every function in SPANS in each pdlsic namespace that binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "pdlsic" or key.startswith("pdlsic."))]
        for module_name, attr, name in SPANS:
            module = sys.modules[f"pdlsic.{module_name}"]
            if "." in attr:  # a classmethod
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                cls_wrapped = classmethod(self._wrap(name, original.__func__))
                setattr(cls, meth, cls_wrapped)
                self._restore.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrap = self._wrap_iteration if name == "channel.sample_params" else self._wrap
            wrapped = wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- metrics -------------------------------------------------------------

    def metrics(self, rounds: int, traced_s: float, overhead_ratio: float,
                bytes_out: int) -> dict:
        """Per-layer metrics per round, given the rounds traced and their total wall time."""
        per = 1.0 / rounds
        wall_s = traced_s * per
        calls = {k: v * per for k, v in self.calls.items()}
        total = {k: v * per for k, v in self.total_s.items()}
        own = {k: v * per for k, v in self.self_s.items()}
        counts = {k: v * per for k, v in self.counts.items()}
        layer_self = {layer: sum(v for k, v in own.items() if k.split(".")[0] == layer)
                      for layer in LAYERS}
        blocks = counts.get("montecarlo.blocks", 0.0)
        matrices = counts.get("capacity.successive_stream_snrs.matrices", 0.0)
        values = {
            "channel.sample_params.draws": counts.get("channel.sample_params.draws", 0.0),
            "capacity.successive_stream_snrs.matrices": matrices,
            "capacity.successive_stream_snrs.us_per_matrix":
                1e6 * total.get("capacity.successive_stream_snrs", 0.0) / matrices if matrices else 0.0,
            "montecarlo.blocks": blocks,
            "montecarlo.self_us_per_block":
                1e6 * own.get("montecarlo.run", 0.0) / blocks if blocks else 0.0,
            "montecarlo.precoder_builds_per_block":
                counts.get("montecarlo.precoder_builds", 0.0) / blocks if blocks else 0.0,
            "cli.bytes_out": bytes_out * per,
            "trace.wall_s": wall_s,
            "trace.accounted_ratio": sum(layer_self.values()) / wall_s,
            "trace.overhead_ratio": overhead_ratio,
        }
        for metric in METRICS:
            if metric in values:
                continue
            span, _, kind = metric.rpartition(".")
            if span in LAYERS and kind == "self_s":
                values[metric] = layer_self[span]
            elif kind == "calls":
                values[metric] = calls.get(span, 0.0)
            elif kind == "self_s":
                values[metric] = own.get(span, 0.0)
            else:
                values[metric] = total.get(span, 0.0)
        return {m: {"value": values[m], "unit": METRICS[m]} for m in METRICS}


def _count_run(tracer, args, result):
    tracer.counts["montecarlo.blocks"] += args[0].n_blocks


def _count_build(tracer, args, result):
    if tracer.active("montecarlo.run"):
        tracer.counts["montecarlo.precoder_builds"] += 1


def _count_matrices(tracer, args, result):
    tracer.counts["capacity.successive_stream_snrs.matrices"] += (
        args[0].shape[0] if args[0].ndim == 3 else 1)


_ON_RETURN = {
    "montecarlo.run": _count_run,
    "precode.precoder_build": _count_build,
    "capacity.successive_stream_snrs": _count_matrices,
}
