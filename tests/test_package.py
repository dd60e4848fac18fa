import ast
from pathlib import Path

import hiercert


def test_public_names_resolve():
    for name in hiercert.__all__:
        assert hasattr(hiercert, name), name


def test_star_import():
    namespace = {}
    exec("from hiercert import *", namespace)
    assert set(hiercert.__all__) <= set(namespace)


def test_helpers_import_no_private_library_names():
    # the oracles in helpers.py must not share the library's private code
    tree = ast.parse((Path(__file__).parent / "helpers.py").read_text())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hiercert")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
