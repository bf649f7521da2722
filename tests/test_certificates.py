"""The benchmark's independent checker, run on gap-points and cosets outputs.

perfbench/check.py imports nothing from pe2ford and re-derives every
verdict with its own integer and Fraction arithmetic: each completion
has determinant 1 and first column (lam, mu), each ratio is lam/mu
(in the half-open band, for gap-points) and lies past distance 1 from
every lattice point, with the printed min_dist_sq, and the ratios are
distinct.  Its
Checker first validates the payload against docs/schemas.  The cases
are every gap-points and cosets JSON command pinned in
test_cli.OUTPUT_DIGESTS, and odd discriminants that no digest pins.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from pathlib import Path
from types import SimpleNamespace

import pytest
from test_cli import OUTPUT_DIGESTS

from pe2ford.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _load_check():
    # perfbench is no package: load its checker by path, under a name of its own
    spec = importlib.util.spec_from_file_location("perfbench_check", ROOT / "perfbench" / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECKER = _load_check().Checker(ROOT / "docs" / "schemas")

PINNED = [c for c in OUTPUT_DIGESTS if c.split(" ")[0] in ("gap-points", "cosets") and c.endswith("--format json")]
UNPINNED = [f"{command} --disc {delta} --count {count} --format json" for command, count in (("gap-points", 50), ("cosets", 20)) for delta in (-15, -19, -163)]


def _run(command: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split(" "))
    return code, out.getvalue()


def _problems(command: str, code: int, text: str) -> dict[str, str]:
    """What the checker finds wrong with the exit code and stdout of command, by job key."""
    argv = command.split(" ")
    spec = {"delta": int(argv[argv.index("--disc") + 1]), "count": int(argv[argv.index("--count") + 1])}
    job = SimpleNamespace(key=command, kind=argv[0], spec=spec)
    return CHECKER.check_round([job], {command: {"exit": code, "text": text}})


def test_the_pinned_cases_cover_both_commands():
    assert {c.split(" ")[0] for c in PINNED} == {"gap-points", "cosets"}


@pytest.mark.parametrize("command", PINNED + UNPINNED)
def test_outputs_pass_the_independent_checker(command):
    assert _problems(command, *_run(command)) == {}


@pytest.mark.parametrize(
    "command, key, entries, problem",
    [
        ("gap-points", "points", "completion", "completion is not a determinant-one lift of (lam, mu)"),
        ("cosets", "members", "matrix", "member matrix is not a completion of (lam, mu)"),
    ],
)
def test_the_checker_refuses_a_completion_with_x_and_y_swapped(command, key, entries, problem):
    # [[lam, -y], [mu, x]] written as [[lam, -x], [mu, y]] keeps the first column but not the determinant
    command = f"{command} --disc -15 --count 5 --format json"
    code, out = _run(command)
    payload = json.loads(out)
    m = payload[key][0][entries]["entries"]
    m[1], m[3] = [-a for a in m[3]], [-a for a in m[1]]
    assert _problems(command, code, json.dumps(payload)) == {command: problem}
