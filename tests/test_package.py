"""The package namespace: every public name resolves lazily to its home module."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdzkp
import sdzkp.protocol

SUBMODULES = ("analysis", "cli", "crypto", "group", "instance", "net", "perm", "protocol")


def test_each_public_name_is_its_home_modules_object():
    for name in sdzkp.__all__:
        obj = getattr(sdzkp, name)
        assert obj.__module__.startswith("sdzkp.")
        assert vars(sys.modules[obj.__module__])[name] is obj, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sdzkp import *", namespace)
    for name in sdzkp.__all__:
        assert namespace[name] is getattr(sdzkp, name), name
    assert set(sdzkp.__all__) <= set(dir(sdzkp))


def test_bare_import_reaches_every_submodule():
    script = (
        "import json, sys, sdzkp\n"
        f"names = {SUBMODULES!r}\n"
        "print(json.dumps([getattr(sdzkp, m) is sys.modules['sdzkp.' + m] for m in names]))\n"
    )
    src = str(Path(sdzkp.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [True] * len(SUBMODULES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sdzkp.no_such_name
    assert not hasattr(sdzkp, "require_witness")  # public in protocol, not in the package


def test_package_names_follow_a_rebinding(monkeypatch):
    # The benchmark's tracer rebinds a function in its home module and later
    # restores it; the package must return whatever is bound there now.
    original = sdzkp.protocol.verify_round

    def stand_in(*args):
        return original(*args)

    monkeypatch.setattr(sdzkp.protocol, "verify_round", stand_in)
    assert sdzkp.verify_round is stand_in
    monkeypatch.undo()
    assert sdzkp.verify_round is original


def test_every_traced_name_is_a_callable_of_its_home_module():
    # The benchmark's tracer (sdzbench/spans.py, standard library only) wraps
    # each TRACED name where it lives, and raises KeyError on one that is gone.
    spec = importlib.util.spec_from_file_location("spans", Path(__file__).parents[1] / "sdzbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module_name, path, _ in spans.TRACED:
        owner, attr = spans._resolve(importlib.import_module(module_name), path)
        assert callable(vars(owner).get(attr)), f"{module_name}.{path}"


def test_every_module_level_import_is_used():
    # No linter runs in CI, so an import left behind by a refactor is caught
    # here: each name a module binds by a top-level import (from __future__
    # excepted) must be read somewhere in that module.
    for path in sorted((Path(sdzkp.__file__).parent).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} imports {sorted(imported - used)} and never uses them"
