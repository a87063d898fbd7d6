#!/usr/bin/env python3
"""rydstats benchmark: one workload per process, run as a closed loop.

Run from the repository root::

    python3 perfbench/run.py --workload fig-pair --seed 1 --seconds 20 --trace 0

One client issues operations back to back (the next starts when the
previous one returns) for ``--seconds``.  Every operation is checked
against the workload's oracles.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: median wall and CPU seconds
per operation, peak resident memory, median set-up time (fresh
interpreter, imports and input generation, repeated in child processes)
and the share of operations that passed.  The inputs are built by the
first of those child processes, so the measuring process holds only what
the operations themselves allocate.  ``--trace 1`` builds the inputs in
process under the tracer, alternates plain and traced operations, checks
that both write byte-identical files, and reports the per-layer metrics
of ``layers.py``.

Machine facts go to a line before the result and, with the metrics and
per-operation samples, to ``.bench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from oracles import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Fresh-interpreter set-ups per measured run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Traced operations at least in a traced run, each between two plain ones.
MIN_TRACED = 3

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def machine_facts(seed: int) -> dict:
    """What produced a result.  BLAS settings are recorded, never changed."""
    import numpy
    import scipy

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    sha = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "git_sha": sha.strip() if sha else None,
        "git_dirty": None if status is None else bool(status.strip()),
        "seed": seed,
    }


def measure_setup(workload: str, seed: int, target: Path,
                  keep: bool = False) -> tuple[float, dict | None]:
    """Seconds from starting a fresh interpreter until it has imported the
    package and built the workload's inputs into ``target``.  With ``keep``
    the inputs stay and are returned, expected values added; otherwise
    they are removed and ``None`` is returned in their place."""
    pickled = target.with_suffix(".pickle")
    argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(target)]
    start = time.monotonic()
    proc = subprocess.run(argv + [str(pickled)] * keep, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    seconds = float(proc.stdout.split()[-1]) - start
    if not keep:
        shutil.rmtree(target)
        return seconds, None
    with open(pickled, "rb") as fh:
        return seconds, pickle.load(fh)


def snapshot(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file()}


class Runner:
    """Runs and checks operations of one workload, keeping their samples."""

    def __init__(self, workload, inputs: dict, workdir: Path):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.samples: list[dict] = []
        self.failures: list[str] = []
        self.setup_samples: list[float] = []
        #: Peak resident memory before the first operation, after it, and
        #: at the end of the run.
        self.peak_rss_mb: dict[str, float] = {}

    def operation(self, traced: bool = False) -> Path:
        """One timed operation; its output directory is returned."""
        out = self.workdir / f"op{len(self.samples)}"
        out.mkdir()
        start, cpu = time.perf_counter(), time.process_time()
        problem = None
        try:
            self.workload.operation(self.inputs, out)
        except CheckFailed as exc:
            problem = str(exc)
        except Exception:  # a crash inside the program fails this operation only
            problem = traceback.format_exc(limit=3)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        if problem is None:
            try:
                self.workload.check(self.inputs, out)
            except CheckFailed as exc:
                problem = str(exc)
        if problem is not None:
            self.failures.append(f"op{len(self.samples)}: {problem}")
        self.samples.append({"wall_s": wall, "cpu_s": cpu, "traced": traced,
                             "ok": problem is None})
        return out

    def measured(self) -> float:
        return sum(s["wall_s"] for s in self.samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(runner: Runner, probe_setup, seconds: float) -> dict:
    """Operations until their summed wall time reaches ``seconds``.  The
    calls of ``probe_setup`` that bring ``runner.setup_samples`` up to
    ``SETUP_REPEATS`` run between operations, so that they sample the whole
    run rather than one moment of it.

    ``peak_rss_mb`` is the peak up to the end of the first operation: what
    one command holds at most in a process that runs only it, as the CLI
    does.  Later operations in the same process can reach higher, by an
    amount that depends on how the allocator reuses the freed memory of
    the previous ones and that differs from run to run."""
    setup = runner.setup_samples
    runner.peak_rss_mb["before_ops"] = peak_rss_mb()
    while not runner.samples or runner.measured() < seconds:
        shutil.rmtree(runner.operation())
        runner.peak_rss_mb.setdefault("first_op", peak_rss_mb())
        if len(setup) < SETUP_REPEATS:
            setup.append(probe_setup())
    while len(setup) < SETUP_REPEATS:
        setup.append(probe_setup())
    ok = sum(s["ok"] for s in runner.samples)
    runner.peak_rss_mb["all_ops"] = peak_rss_mb()
    return {
        "wall_s": (statistics.median(s["wall_s"] for s in runner.samples), "s"),
        "cpu_s": (statistics.median(s["cpu_s"] for s in runner.samples), "s"),
        "peak_rss_mb": (runner.peak_rss_mb["first_op"], "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "pass_ratio": (ok / len(runner.samples), "ratio"),
    }


def per_layer(runner: Runner, tracer, seconds: float, seed: int, probe) -> dict:
    """Plain and traced operations in turn until ``seconds`` are measured
    and at least ``MIN_TRACED`` traced ones are done, then the blockade
    probes on the problem of the ``probe`` workload."""
    import layers

    # Operation 0 is plain: it pays the package's lazy first-call costs,
    # gives the reference outputs and is left out of the overhead.  From
    # operation 2 on every other one is traced, so that each traced
    # operation lies between two plain ones; ``trace.overhead_s`` is the
    # mean excess of a traced operation over its neighbours' mean, which
    # cancels a steady drift of the machine.
    reference = None
    traced_ops = []
    while True:
        index = len(runner.samples)
        traced = index >= 2 and index % 2 == 0
        if traced:
            tracer.op = f"op{len(runner.samples)}"
            traced_ops.append(tracer.op)
            tracer.install()
        try:
            out = runner.operation(traced)
        finally:
            tracer.uninstall()
        files = snapshot(out)
        if traced:
            tracer.counts[tracer.op]["cli.output_bytes"] = sum(map(len, files.values()))
            if files != reference:
                runner.failures.append(f"{tracer.op}: traced outputs differ from untraced")
                runner.samples[-1]["ok"] = False
        elif reference is None:
            reference = files
        shutil.rmtree(out)
        if index > 2 * MIN_TRACED and not traced and runner.measured() >= seconds:
            break
    metrics = tracer.metrics(traced_ops)
    walls = [s["wall_s"] for s in runner.samples]
    metrics["trace.overhead_s"] = statistics.mean(
        walls[i] - (walls[i - 1] + walls[i + 1]) / 2 for i in range(2, len(walls), 2))
    probes, problems = layers.blockade_probes(seed % 2**32, probe.trials, probe.medium_scale,
                                              probe.n_max)
    metrics.update(probes)
    runner.failures.extend(problems)
    units = {name: unit for name, unit, _ in layers.metric_specs()}
    return {name: (metrics[name], units[name]) for name in units}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rydstats" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    facts = machine_facts(args.seed)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            tracer = layers.Tracer()
            tracer.install()
            try:
                inputs = workload.setup(args.seed, workdir)
            finally:
                tracer.uninstall()
            runner = Runner(workload, workload.expect(inputs), workdir)
            metrics = per_layer(runner, tracer, args.seconds, args.seed,
                                WORKLOADS["slowlight-2t"])
            (WORK / f"spans-{stem}.json").write_text(json.dumps(tracer.dump()))
        else:
            seconds, inputs = measure_setup(args.workload, args.seed, workdir / "inputs",
                                            keep=True)
            runner = Runner(workload, inputs, workdir)
            runner.setup_samples.append(seconds)
            probes = (workdir / f"setup-{i}" for i in itertools.count(1))
            metrics = end_to_end(
                runner, lambda: measure_setup(args.workload, args.seed, next(probes))[0],
                args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not runner.failures,
        "attempted": len(runner.samples),
        "failed": sum(not s["ok"] for s in runner.samples),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (WORK / f"result-{stem}.json").write_text(json.dumps(
        {"facts": facts, "failures": runner.failures, "samples": runner.samples,
         "setup_samples": runner.setup_samples,
         "peak_rss_mb": runner.peak_rss_mb, **result}, indent=1))
    for failure in runner.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(f"operations: {len(runner.samples)}; facts: {json.dumps(facts)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
