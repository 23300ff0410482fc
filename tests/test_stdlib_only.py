"""The package imports nothing outside the standard library, uses every
name it imports, and starting it generates no code."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "chartab").glob("*.py"))


def imported_modules(path: Path) -> set[str]:
    """The top-level name of every module the file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("chartab" if node.level else node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    outside = imported_modules(path) - set(sys.stdlib_module_names) - {"chartab"}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def unused_imports(source: str) -> set[str]:
    """Names an import binds that the module never reads nor lists in `__all__`."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return bound - read - exported


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def test_the_import_check_sees_a_leftover():
    source = (
        "from __future__ import annotations\n"
        "import os.path as osp, sys\n"
        "from functools import cache, lru_cache\n"
        "from chartab.exactnum import factorize, canonicalize\n"
        "__all__ = ['canonicalize']\n"
        "@lru_cache\n"
        "def f(x: osp.PathLike) -> None: ...\n"
    )
    assert unused_imports(source) == {"sys", "cache", "factorize"}


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "tables.py", "exactnum.py"}


# `dataclasses` imports `inspect`, which imports `ast`, `dis` and
# `tokenize`; with the class decorations they took most of
# `import chartab.cli`, which every command pays.
CODE_GENERATORS = ("dataclasses", "inspect", "ast")


def test_starting_the_command_line_loads_no_code_generator():
    script = "import sys, json, chartab.cli; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SOURCES[0].parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "chartab.cli" in loaded
    assert loaded.isdisjoint(CODE_GENERATORS), sorted(loaded & set(CODE_GENERATORS))
