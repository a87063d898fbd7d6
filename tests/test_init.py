import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import rydstats


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


def test_cli_import_leaves_scipy_out():
    # scipy is a test oracle only; the runtime is numpy alone
    env = dict(os.environ, PYTHONPATH=str(Path(rydstats.__file__).parents[1]))
    code = "import rydstats.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
