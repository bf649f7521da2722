"""Module layout: no pe2ford module reaches into a sibling's private names."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pe2ford"


def test_no_private_name_is_imported_from_a_sibling():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    private = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                source = "." * node.level + (node.module or "")
                private += [
                    f"{path.name}:{node.lineno} from {source} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not private, "private names imported across modules:\n" + "\n".join(private)
