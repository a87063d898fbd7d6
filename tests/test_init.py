import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rydstats
from rydstats import (
    BlockadeConfig,
    ValidationError,
    WindowSpec,
    bootstrap_error,
    coherent,
    count_trials,
    fock_state,
    synthesize,
)
from rydstats.blockade import simulate_fock


def _imported_names():
    tree = ast.parse(inspect.getsource(rydstats))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_every_imported_public_name_is_exported():
    public = {name for name in _imported_names() if not name.startswith("_")}
    assert public - set(rydstats.__all__) == set()


def test_every_export_resolves():
    namespace = {}
    exec("from rydstats import *", namespace)
    for name in rydstats.__all__:
        assert getattr(rydstats, name) is namespace[name]
    assert "zeta_to_param" in namespace


def _trial_data():
    stream = synthesize(coherent(0.3, 10), 1000, WindowSpec(), (1e4, 1e4), seed=1)
    return count_trials(stream, WindowSpec())


@pytest.mark.parametrize("call, name", [
    (lambda: WindowSpec(noise=(500, float("nan"))), "noise window end"),
    (lambda: WindowSpec(signal_1=(0, 299.9)), "signal_1 window end"),
    (lambda: bootstrap_error(_trial_data(), resamples=100.5), "resamples"),
    (lambda: bootstrap_error(_trial_data(), resamples=float("nan")), "resamples"),
    (lambda: bootstrap_error(_trial_data(), seed=-1), "seed"),
    (lambda: synthesize(coherent(0.3, 10), 100, WindowSpec(), seed=-1), "seed"),
    (lambda: simulate_fock(BlockadeConfig(trials_per_fock=100, n_max=4), 2.5), "n"),
    (lambda: fock_state(1.5, 3), "n"),
], ids=["window-nan", "window-fraction", "resamples-fraction", "resamples-nan",
        "bootstrap-seed", "synthesize-seed", "simulate_fock-n", "fock_state-n"])
def test_integer_arguments_are_checked_at_the_boundary(call, name):
    # numpy would truncate these or fail with its own TypeError or ValueError
    with pytest.raises(ValidationError, match=f"^{name} must be an integer >= "):
        call()


def test_cli_import_leaves_scipy_out():
    # scipy is a test oracle only; the runtime is numpy alone
    env = dict(os.environ, PYTHONPATH=str(Path(rydstats.__file__).parents[1]))
    code = "import rydstats.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the documented API must be the one the package has
    readme = Path(__file__).parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md, Library example", "exec"), {})
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "zeta,param,g2_in,g2_out,eta,g2_out_lo,g2_out_hi"
    assert len(lines) == 22
