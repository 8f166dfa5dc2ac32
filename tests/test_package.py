"""The package loads each library module on first use: ``import
heckespecht`` loads none, a name loads the module that defines it, and the
command line loads every module at start."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heckespecht

SRC = Path(__file__).resolve().parent.parent / "src"
LIBRARY = {"carter_payne", "cli", "criteria", "hecke", "homs", "memo", "partitions",
           "qfield", "reducibility", "tableaux"}


def loaded_after(code):
    """The heckespecht modules a fresh interpreter holds after running code."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    return {name for name in json.loads(out.splitlines()[-1]) if name.startswith("heckespecht")}


@pytest.mark.parametrize("code, modules", [
    ("import heckespecht", set()),
    ("from heckespecht import parse_field", {"qfield"}),
    ("import heckespecht; heckespecht.clear_caches()", set()),
    ("from heckespecht import cli", LIBRARY),
])
def test_modules_load_on_first_use(code, modules):
    assert loaded_after(code) == {"heckespecht"} | {f"heckespecht.{m}" for m in modules}


def test_every_export_is_the_object_of_its_defining_module():
    names = heckespecht.__all__
    assert len(names) == len(set(names))
    for name in names:
        obj = getattr(heckespecht, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    defining = {getattr(heckespecht, name).__module__ for name in names}
    assert defining == {"heckespecht"} | {f"heckespecht.{m}" for m in LIBRARY - {"cli", "memo"}}


def test_dir_and_star_import_list_every_export():
    assert set(heckespecht.__all__) <= set(dir(heckespecht))
    namespace = {}
    exec("from heckespecht import *", namespace)
    assert set(heckespecht.__all__) <= set(namespace)


def test_an_unknown_name_names_the_package():
    with pytest.raises(AttributeError, match="module 'heckespecht' has no attribute 'nope'"):
        heckespecht.nope  # noqa: B018


def test_submodules_resolve_after_a_bare_import():
    assert loaded_after("import heckespecht; heckespecht.homs.hom_space_dim") >= {
        "heckespecht.homs", "heckespecht.hecke"}
    assert heckespecht.homs is sys.modules["heckespecht.homs"]


def test_no_function_imports_a_module():
    # every import statement of the package is at module level, so once the
    # command line is loaded no query imports or compiles anything; the
    # package's __getattr__ imports by a call, on a name's first read
    for path in sorted(Path(heckespecht.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not inner, (path.name, node.name)
