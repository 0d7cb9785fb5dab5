"""The package namespace: every public name resolves lazily to its home module."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sdzkp
import sdzkp.protocol

ROOT = Path(__file__).parents[1]

SUBMODULES = ("analysis", "cli", "crypto", "group", "instance", "net", "perm", "protocol")

# Names each module keeps that the package does not export.
OFF_THE_LIST = {
    "perm": ("identity", "random_perm", "random_support_perm"),
    "instance": ("instance_digest",),
    "crypto": ("commit", "expand_mask", "tuple_add", "tuple_sub", "verify_commitment"),
    "protocol": ("ProverState", "decode_proof", "prover_commit", "prover_respond", "verifier_challenge"),
    "analysis": ("ExtractionError", "Transcript", "extract_witness", "honest_rewindable_prover", "honest_verifier",
                 "make_cheating_prover", "simulate"),
}


def readme_api_table() -> dict[str, str]:
    """Each name in README's API table, mapped to its row's module."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for row in section.splitlines():
        cells = row.split("|")
        if row.startswith("| `sdzkp."):
            module = cells[1].strip().strip("`").removeprefix("sdzkp.")
            table.update(dict.fromkeys(re.findall(r"`(\w+)`", cells[2]), module))
    return table


def test_public_names_are_readmes_api_table():
    table = readme_api_table()
    assert sdzkp.__all__ == list(table)
    assert all(sdzkp._HOME[name] == module for name, module in table.items())


def test_each_public_name_is_its_home_modules_object():
    for name in sdzkp.__all__:
        obj = getattr(sdzkp, name)
        home = importlib.import_module(f"sdzkp.{sdzkp._HOME[name]}")
        assert vars(home)[name] is obj, name


def test_names_off_the_list_stay_at_their_modules():
    for module_name, names in OFF_THE_LIST.items():
        module = importlib.import_module(f"sdzkp.{module_name}")
        for name in names:
            assert hasattr(module, name), f"{module_name}.{name}"
            assert name not in sdzkp.__all__ and not hasattr(sdzkp, name), name


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


def load_spans():
    """The benchmark's tracer module, sdzbench/spans.py (standard library only)."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "sdzbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_is_a_callable_of_its_home_module():
    # The benchmark's tracer wraps each TRACED name where it lives, and
    # raises KeyError on one that is gone.
    spans = load_spans()
    assert spans.TRACED
    for module_name, path, _ in spans.TRACED:
        owner, attr = spans._resolve(importlib.import_module(module_name), path)
        assert callable(vars(owner).get(attr)), f"{module_name}.{path}"


def benchmark_reads():
    """The (module, name) pairs sdzbench/workloads.py reads: it binds sdzkp's
    modules by `from sdzkp import X as Y` inside its workloads and reads
    their attributes."""
    tree = ast.parse((ROOT / "sdzbench" / "workloads.py").read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "sdzkp"
        for alias in node.names
    }
    assert {"sdi", "sda", "protocol"} <= set(modules)
    return {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }


def test_every_name_the_benchmark_reads_resolves():
    # a name gone from its module would otherwise fail only in the
    # benchmark's own tests
    read = benchmark_reads()
    assert {("analysis", "transcript_for"), ("analysis", "honest_rewindable_prover")} <= read
    for module_name, attr in sorted(read):
        assert hasattr(importlib.import_module(f"sdzkp.{module_name}"), attr), f"{module_name}.{attr}"


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


def _package_imports(tree):
    """The sdzkp modules a module's imports name, at any depth of its tree."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update([node.module] if node.module else (alias.name for alias in node.names))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sdzkp":
            imported.add(node.module.removeprefix("sdzkp").lstrip(".") or "sdzkp")
        elif isinstance(node, ast.Import):
            imported.update(a.name.removeprefix("sdzkp.") for a in node.names if a.name.split(".")[0] == "sdzkp")
    return imported


def test_each_format_decision_has_one_home():
    # perm owns the permutation file codec and crypto only hashes and masks
    # bytes, so neither reads another sdzkp module; group owns the word form
    # of an element (ops.words, from_words, differing_words) and reads perm
    # only.  The codec and word helpers crypto once held stay gone.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(Path(sdzkp.__file__).parent.glob("*.py"))}
    assert _package_imports(trees["perm"]) == set()
    assert _package_imports(trees["crypto"]) == set()
    assert _package_imports(trees["group"]) == {"perm"}
    gone = re.compile(r"_unmask|encode_words|encode_tuple|decode_tuple\w*")
    for module, tree in trees.items():
        named = {
            name
            for node in ast.walk(tree)
            for name in (
                getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None),
                getattr(node, "asname", None),
            )
            if isinstance(name, str)
        }
        assert not {name for name in named if gone.fullmatch(name)}, module


def test_crypto_draws_no_coin():
    # protocol draws every coin of a round and crypto hashes and masks the
    # bytes it is given, so crypto imports no random number generator and
    # no sdzkp module.
    tree = ast.parse((Path(sdzkp.__file__).parent / "crypto.py").read_text(encoding="utf-8"))
    imported = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module and not node.level}
    assert "random" not in imported
    assert _package_imports(tree) == set()


# Names kept only for the benchmark's tracer (sdzbench/spans.py): the
# program reads none of them, and of the tests only their own unit tests in
# tests/test_kept_for_the_tracer.py do, so they can go together with the
# tracer's list and that file.
KEPT_FOR_THE_TRACER = (
    "decode_response", "decode_proof", "encode_response", "verify_commitment", "expand_mask", "tuple_add", "tuple_sub",
)


def reads_by_definition(tree):
    """Each top-level function or class of a module's tree mapped to the
    names read in it (the ids, attributes, and names of definitions and
    imports its nodes carry), and None to those read outside all of them."""
    reads = {}
    for statement in tree.body:
        definition = statement.name if isinstance(statement, (ast.FunctionDef, ast.ClassDef)) else None
        reads.setdefault(definition, set()).update(
            name
            for node in ast.walk(statement)
            for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
            if isinstance(name, str)
        )
    return reads


def source_trees(directory=Path(sdzkp.__file__).parent):
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(directory.glob("*.py"))}


def test_no_module_reads_a_name_kept_for_the_tracer():
    # tuple_sub calls tuple_add: a read inside one of these names' own definitions is allowed
    for module, tree in source_trees().items():
        read = set().union(*(names for definition, names in reads_by_definition(tree).items()
                             if definition not in KEPT_FOR_THE_TRACER))
        assert not read & set(KEPT_FOR_THE_TRACER), f"{module} reads {sorted(read & set(KEPT_FOR_THE_TRACER))}"
    # Of the tests, only the names' own unit tests read them, all in one
    # file, so that the names and tests/test_kept_for_the_tracer.py go together.
    for module, tree in source_trees(ROOT / "tests").items():
        read = set().union(*reads_by_definition(tree).values()) & set(KEPT_FOR_THE_TRACER)
        assert read == (set(KEPT_FOR_THE_TRACER) if module == "test_kept_for_the_tracer" else set()), (module, read)


# Module-level functions and classes that no code in src/ reads, that the
# package does not export and that neither the tracer nor the benchmark's
# workloads name, each with the reason it stays.
KEPT_UNREAD = {
    ("__init__", "__getattr__"): "the package's lazy names: the interpreter calls it (PEP 562)",
    ("__init__", "__dir__"): "the package's lazy names: the interpreter calls it (PEP 562)",
}


def test_every_module_level_name_is_read_or_kept():
    # A function or class counts as read when some code in src/ reads its
    # name outside its own definition and outside the definitions kept for
    # the tracer; a helper only a reference or a test calls is not.
    trees = source_trees()
    reads = {module: reads_by_definition(tree) for module, tree in trees.items()}
    named = {(sdzkp._HOME[name], name) for name in sdzkp.__all__} | benchmark_reads() | set(KEPT_UNREAD)
    named |= {(module.removeprefix("sdzkp."), path.split(".")[0]) for module, path, _ in load_spans().TRACED}
    unread = []
    for module, tree in trees.items():
        for statement in tree.body:
            if not isinstance(statement, (ast.FunctionDef, ast.ClassDef)) or (module, statement.name) in named:
                continue
            readers = (
                names
                for other, by_definition in reads.items()
                for definition, names in by_definition.items()
                if definition not in KEPT_FOR_THE_TRACER and (other, definition) != (module, statement.name)
            )
            if not any(statement.name in names for names in readers):
                unread.append(f"{module}.{statement.name}")
    assert not unread, f"read by no code in src/: {unread}"


def test_no_test_module_imports_another():
    # What two test modules share lives in tests/reference.py, which pytest
    # does not collect, so no test is collected twice or under two names.
    trees = source_trees(ROOT / "tests")
    assert {"reference", "test_kept_for_the_tracer"} <= set(trees)
    for module, tree in trees.items():
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert not {name for name in imported if name in trees and name.startswith("test_")}, module


def test_the_workflow_states_no_format_of_its_own():
    # CI smoke-tests the installed script by its commands and verdicts alone;
    # the format's constants, offsets and magic are the tier-1 tests' to
    # check, where a format change fails before a push.
    for path in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"\b(?:from|import)\s+sdzkp\.", text), path.name
        assert not re.search(r"SDP\d", text), path.name
        for module_name in SUBMODULES:
            private = {name for name in vars(importlib.import_module(f"sdzkp.{module_name}"))
                       if name.startswith("_") and not name.startswith("__")}
            assert not {name for name in private if re.search(rf"\b{name}\b", text)}, (path.name, module_name)
