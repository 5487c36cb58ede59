"""The runtime stays stdlib-only: every absolute import in the package
names a standard-library module or medlatin itself."""

import ast
import glob
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "medlatin")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))


def absolute_imports(path):
    """(line, top-level name) of every absolute import in the file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_modules_are_found():
    assert os.path.join(SRC, "conllu.py") in MODULES


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_imports_are_stdlib_or_medlatin(path):
    outside = [f"line {line_no}: {name}" for line_no, name in absolute_imports(path)
               if name != "medlatin" and name not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_logging_channel(path):
    """The CLI reports through stdout, stderr and its exit code only."""
    assert [line_no for line_no, name in absolute_imports(path) if name == "logging"] == []
