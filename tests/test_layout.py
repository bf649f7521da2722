"""Module layout: no pe2ford module reaches into a sibling's private names, and no float leaves the SVG emitter."""

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


def _pe2ford_imports(name: str) -> list[str]:
    tree = ast.parse((SRC / name).read_text(), name)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("pe2ford")):
            out.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            out += [alias.name for alias in node.names if alias.name.startswith("pe2ford")]
    return sorted(set(out))


def test_the_arithmetic_and_the_cell_kernel_import_nothing_above_them():
    for name, allowed in (("orders.py", [".errors"]), ("cells.py", [])):
        found = _pe2ford_imports(name)
        assert found == allowed, f"{name} imports {found}"


def test_floats_appear_only_in_the_svg_emitter():
    # no float(...) call and no math.sqrt outside arrangement.svg_topview
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "arrangement.py":
            svg = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "svg_topview"]
            assert len(svg) == 1
            allowed = {id(n) for n in ast.walk(svg[0])}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                found.append(f"{path.name}:{node.lineno} float(...)")
            elif isinstance(node, ast.Attribute) and node.attr == "sqrt":
                found.append(f"{path.name}:{node.lineno} .sqrt")
            elif isinstance(node, ast.ImportFrom) and any(a.name == "sqrt" for a in node.names):
                found.append(f"{path.name}:{node.lineno} import sqrt")
    assert not found, "floats outside svg_topview:\n" + "\n".join(found)
