"""Per-layer metrics: spans around calls into the package's public
functions, plus one-off blockade probes.

The package is not modified.  ``Tracer.install`` replaces each traced
function with a timing wrapper in every ``rydstats`` module that holds it,
so names bound with ``from .x import y`` (``rydstats.pipeline.loss_matrix``,
``rydstats.cli.sweep``, ...) are traced too; methods are replaced on their
class.  ``Tracer.uninstall`` puts the originals back.  Spans are kept in
memory and written out by the runner when the run ends.
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from rydstats import (_roots, blockade, cli, clicks, config, fock, pipeline, ratemodel,
                      source, transfer)

#: Commands and figures whose ``cli.main`` time is reported.
CLI_COMMANDS = ("blockade", "g2", "fig3", "fig4", "figS3", "figS5", "fit-peg")

#: Spans that happen while the inputs are built, reported from the set-up
#: of the traced run rather than from its operations.
SETUP_SPANS = ("clicks.synthesize", "clicks.ClickStream.write_csv")

#: (span, stats) reported per operation: ``calls`` is a count, ``s``
#: inclusive seconds, ``self_s`` seconds minus the traced callees.
SPAN_STATS = (
    ("blockade.blockade_matrix", ("calls", "self_s")),
    ("pipeline.medium_matrix", ("calls", "self_s")),
    ("pipeline.sweep", ("calls", "self_s")),
    ("pipeline.zeta_to_param", ("calls", "self_s")),
    ("pipeline.post_blockade_distribution", ("calls", "self_s")),
    ("transfer.loss_matrix", ("calls", "s")),
    ("transfer.TransferMatrix.compose", ("calls", "s")),
    ("transfer.TransferMatrix.apply", ("calls", "s")),
    ("source.read_state_p_upper_bound", ("calls", "s")),
    ("source.conditional_read_state", ("calls", "s")),
    ("fock.coherent_mu_upper_bound", ("calls", "s")),
    ("fock.coherent", ("calls", "s")),
    ("roots.bisect_monotone", ("calls", "self_s")),
    ("ratemodel.fit_p_eg", ("s",)),
    ("ratemodel.predict_cross_correlation", ("calls", "s")),
    ("config.parse_config_file", ("s",)),
    ("clicks.ClickStream.read_csv", ("s",)),
    ("clicks.count_trials", ("s",)),
    ("clicks.bootstrap_error", ("s",)),
    ("clicks.synthesize", ("s",)),
    ("clicks.ClickStream.write_csv", ("s",)),
) + tuple((f"cli.main.{c}", ("s",)) for c in CLI_COMMANDS)

#: Exact counts kept by the wrappers (and the runner, for output bytes).
COUNTS = (
    ("blockade.trials", "count"),
    ("pipeline.sweep.points", "count"),
    ("transfer.TransferMatrix.to_csv.bytes", "bytes"),
    ("roots.bisect_monotone.f_evals", "count"),
    ("clicks.records", "count"),
    ("cli.output_bytes", "bytes"),
)

#: (metric, count, span): the count over the span's inclusive seconds.
RATES = (
    ("blockade.trials_per_s", "blockade.trials", "blockade.blockade_matrix", "1/s"),
    ("pipeline.points_per_s", "pipeline.sweep.points", "pipeline.sweep", "1/s"),
    ("clicks.ClickStream.read_csv.bytes_per_s", "clicks.ClickStream.read_csv.bytes",
     "clicks.ClickStream.read_csv", "bytes/s"),
    ("clicks.bootstrap_error.resamples_per_s", "clicks.bootstrap_error.resamples",
     "clicks.bootstrap_error", "1/s"),
    ("clicks.ClickStream.write_csv.bytes_per_s", "clicks.ClickStream.write_csv.bytes",
     "clicks.ClickStream.write_csv", "bytes/s"),
)

PROBE_NS = (2, 20, 100)
PROBE_GEOMETRIES = ("default", "slow")
#: Timings of each probe; the median is reported.
PROBE_REPEATS = 3

_UNITS = {"calls": ("count", "lower"), "s": ("s", "lower"), "self_s": ("s", "lower")}


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    specs = [(f"{span}.{stat}", *_UNITS[stat]) for span, stats in SPAN_STATS for stat in stats]
    specs += [(name, unit, "lower") for name, unit in COUNTS]
    specs += [(name, unit, "higher") for name, _, _, unit in RATES]
    specs += [(f"blockade.simulate_fock.{g}.n{n}.s", "s", "lower")
              for g in PROBE_GEOMETRIES for n in PROBE_NS]
    specs += [("blockade.speedup_2t", "ratio", "higher"),
              ("blockade.speedup_2t.t1_s", "s", "lower"),
              ("blockade.speedup_2t.t2_s", "s", "lower"),
              ("trace.overhead_s", "s", "lower")]
    return specs


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str


def cli_command(argv) -> str:
    """The command (or figure, for ``reproduce``) in a CLI argument list."""
    argv = list(argv)
    for i, word in enumerate(argv):
        if word == "reproduce":
            return argv[i + 1]
        if word in ("blockade", "g2", "fit-peg"):
            return word
    return "unknown"


class Tracer:
    """Records spans and counts for the operation named by ``op``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.op = "setup"
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float) -> None:
        self.counts[self.op][name] += amount

    def _wrap(self, name, fn, before=None, after=None, name_of=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            if before is not None:
                args, kwargs = before(args, kwargs)
            span = Span(name_of(args) if name_of else name, 0.0, 0.0,
                        stack[-1] if stack else None, tracer.op)
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _targets(self):
        count = self.count

        def blockade_trials(args, kwargs, result):
            cfg = args[0]
            count("blockade.trials", (cfg.n_max - 1) * cfg.trials_per_fock)

        def sweep_points(args, kwargs, result):
            count("pipeline.sweep.points", len(args[1]))

        def counted_f(args, kwargs):
            f = args[0]

            def g(x):
                count("roots.bisect_monotone.f_evals", 1)
                return f(x)
            return (g,) + tuple(args[1:]), kwargs

        def resamples(args, kwargs, result):
            count("clicks.bootstrap_error.resamples", kwargs.get("resamples", 1000))

        def bytes_of(counter, index):
            def after(args, kwargs, result):
                count(counter, os.path.getsize(args[index]))
            return after

        def read_csv(args, kwargs, result):
            count("clicks.ClickStream.read_csv.bytes", os.path.getsize(args[0]))
            count("clicks.records", result.n_records)

        functions = [
            (blockade, "blockade_matrix", {"after": blockade_trials}),
            (pipeline, "medium_matrix", {}),
            (pipeline, "sweep", {"after": sweep_points}),
            (pipeline, "zeta_to_param", {}),
            (pipeline, "post_blockade_distribution", {}),
            (transfer, "loss_matrix", {}),
            (source, "read_state_p_upper_bound", {}),
            (source, "conditional_read_state", {}),
            (fock, "coherent_mu_upper_bound", {}),
            (fock, "coherent", {}),
            (_roots, "bisect_monotone", {"before": counted_f}),
            (ratemodel, "fit_p_eg", {}),
            (ratemodel, "predict_cross_correlation", {}),
            (config, "parse_config_file", {}),
            (clicks, "count_trials", {}),
            (clicks, "bootstrap_error", {"after": resamples}),
            (clicks, "synthesize", {}),
            (cli, "main", {"name_of": lambda args: f"cli.main.{cli_command(args[0])}"}),
        ]
        methods = [
            (transfer.TransferMatrix, "compose", {}),
            (transfer.TransferMatrix, "apply", {}),
            (transfer.TransferMatrix, "to_csv",
             {"after": bytes_of("transfer.TransferMatrix.to_csv.bytes", 1)}),
            (clicks.ClickStream, "read_csv", {"after": read_csv}),
            (clicks.ClickStream, "write_csv",
             {"after": bytes_of("clicks.ClickStream.write_csv.bytes", 1)}),
        ]
        return functions, methods

    def install(self) -> None:
        """Replace every traced function and method with its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "rydstats" or name.startswith("rydstats.")]
        functions, methods = self._targets()
        for module, attr, hooks in functions:
            original = getattr(module, attr)
            short = module.__name__.rsplit(".", 1)[-1].lstrip("_")
            wrapper = self._wrap(f"{short}.{attr}", original, **hooks)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)
        for cls, attr, hooks in methods:
            original = cls.__dict__[attr]
            short = cls.__module__.rsplit(".", 1)[-1]
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(original, staticmethod):
                wrapper = staticmethod(self._wrap(name, original.__func__, **hooks))
            else:
                wrapper = self._wrap(name, original, **hooks)
            self._patches.append((cls, attr, original))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def op_stats(self) -> dict[str, dict[str, dict[str, float]]]:
        """op -> span name -> {calls, s, self_s}."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        stats: dict = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "s": 0.0,
                                                               "self_s": 0.0}))
        for span, children in zip(self.spans, child_time):
            entry = stats[span.op][span.name]
            entry["calls"] += 1
            entry["s"] += span.end - span.start
            entry["self_s"] += span.end - span.start - children
        return stats

    def metrics(self, ops: list[str]) -> dict[str, float]:
        """Per-layer metrics: the median over ``ops`` of each per-operation
        value; set-up spans come from the ``setup`` pseudo-operation."""
        stats = self.op_stats()

        def per_op(op: str) -> dict[str, float]:
            values = {}
            for span, names in SPAN_STATS:
                for stat in names:
                    values[f"{span}.{stat}"] = stats[op][span][stat]
            for name, _ in COUNTS:
                values[name] = self.counts[op][name]
            for name, counter, span, _ in RATES:
                seconds = stats[op][span]["s"]
                values[name] = self.counts[op][counter] / seconds if seconds > 0 else 0.0
            return values

        samples = [per_op(op) for op in ops]
        setup = per_op("setup")
        result = {}
        for name in samples[0]:
            if name.startswith(SETUP_SPANS):
                result[name] = setup[name]
            else:
                result[name] = statistics.median(s[name] for s in samples)
        return result

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op": s.op} for s in self.spans]


def blockade_probes(seed: int, trials: int, medium_scale: float,
                    n_max: int) -> tuple[dict[str, float], list[str]]:
    """Timings outside the operations, each the median of ``PROBE_REPEATS``:
    ``simulate_fock`` for a few n in the default and stretched geometry,
    and the stretched ``slow_light_matrix`` on one and two threads, taken
    in turn (the matrices must agree bit for bit)."""
    times = defaultdict(list)
    fock_cfgs = [(geometry, blockade.BlockadeConfig(
        cloud_length=15.0 * scale, trials_per_fock=trials, rng_seed=seed, n_max=max(PROBE_NS)))
        for geometry, scale in zip(PROBE_GEOMETRIES, (1.0, medium_scale))]
    cfg = blockade.BlockadeConfig(trials_per_fock=trials, rng_seed=seed, n_max=n_max)
    problems = []
    for _ in range(PROBE_REPEATS):
        for geometry, fock_cfg in fock_cfgs:
            for n in PROBE_NS:
                start = time.perf_counter()
                blockade.simulate_fock(fock_cfg, n)
                times[f"blockade.simulate_fock.{geometry}.n{n}.s"].append(
                    time.perf_counter() - start)
        matrices = []
        for threads in (1, 2):
            start = time.perf_counter()
            matrices.append(blockade.slow_light_matrix(cfg, medium_scale,
                                                       threads=threads).matrix)
            times[f"blockade.speedup_2t.t{threads}_s"].append(time.perf_counter() - start)
        if not np.array_equal(*matrices) and not problems:
            problems.append("slow_light_matrix differs between 1 and 2 threads")
    metrics = {name: statistics.median(values) for name, values in times.items()}
    metrics["blockade.speedup_2t"] = (metrics["blockade.speedup_2t.t1_s"]
                                      / metrics["blockade.speedup_2t.t2_s"])
    return metrics, problems
