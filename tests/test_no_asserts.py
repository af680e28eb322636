"""The package's soundness checks raise; none is an assert statement,
which python -O strips."""

import ast
from pathlib import Path

import knotplumb

SOURCES = sorted(Path(knotplumb.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {"plumbing.py", "lattice.py", "classify.py"} <= {p.name for p in SOURCES}


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
