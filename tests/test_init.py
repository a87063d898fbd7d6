import ast
import inspect

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
