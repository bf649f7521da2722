"""The benchmark's independent checker, run on the record-list outputs.

perfbench/check.py imports nothing from pe2ford and re-derives every
verdict with its own integer and Fraction arithmetic.  For gap-points
and cosets: each completion has determinant 1 and first column (lam,
mu), each ratio is lam/mu (in the half-open band, for gap-points) and
lies past distance 1 from every lattice point, with the printed
min_dist_sq, and the ratios are distinct.  For arrangement: each
hemisphere's center is lam/mu with radius 1/N(mu), each contributing
witness lies strictly above every other hemisphere, and the totals
agree.  For amalgam: the flags and lists agree, every pairing has
determinant 1, and the hemisphere faces are the contributing window
hemispheres of the arrangement of the same delta and bound.  For SVG:
one circle per hemisphere of that arrangement, white exactly when it
contributes.  Its Checker first validates each JSON payload against
docs/schemas.  The cases are every gap-points, cosets, arrangement and
amalgam JSON command and every SVG command pinned in
test_cli.OUTPUT_DIGESTS, and odd discriminants that no digest pins.
The word commands and the text-format digests stay byte-checked only.
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
UNPINNED = [
    c
    for command, count in (("gap-points", 50), ("cosets", 20))
    for c in (f"{command} --disc {delta} --count {count} --format json" for delta in (-15, -19, -163))
    if c not in OUTPUT_DIGESTS
]
# arrangement and amalgam JSON, and every SVG (each checked against the arrangement of its delta and bound)
PINNED_FORD = [
    c for c in OUTPUT_DIGESTS if c.split(" ")[0] in ("arrangement", "amalgam") and c.endswith(("--format json", "--format svg"))
]
UNPINNED_FORD = [
    c
    for c in (f"arrangement --disc {delta} --bound {bound} --format json" for delta, bound in ((-15, 8), (-19, 16), (-163, 16)))
    if c not in OUTPUT_DIGESTS
]


def _run(command: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split(" "))
    return code, out.getvalue()


def _job(command: str) -> SimpleNamespace:
    # the checker's job kind: the command, or "svg" for an SVG of either ford command
    argv = command.split(" ")
    size = "--count" if "--count" in argv else "--bound"
    spec = {"delta": int(argv[argv.index("--disc") + 1]), size[2:]: int(argv[argv.index(size) + 1])}
    kind = "svg" if argv[-1] == "svg" else argv[0]
    return SimpleNamespace(key=command, kind=kind, spec=spec)


def _problems(command: str, code: int, text: str) -> dict[str, str]:
    """What the checker finds wrong with the exit code and stdout of command, by job key.

    An amalgam or an SVG is checked against the arrangement JSON of its
    delta and bound, which the same round checks first.
    """
    jobs = [_job(command)]
    outputs = {command: {"exit": code, "text": text}}
    if jobs[0].kind in ("amalgam", "svg"):
        spec = jobs[0].spec
        arrangement = f"arrangement --disc {spec['delta']} --bound {spec['bound']} --format json"
        jobs.append(_job(arrangement))
        outputs[arrangement] = dict(zip(("exit", "text"), _run(arrangement)))
    return CHECKER.check_round(jobs, outputs)


def test_the_pinned_cases_cover_both_commands():
    assert {c.split(" ")[0] for c in PINNED} == {"gap-points", "cosets"}


def test_the_ford_cases_cover_every_ford_kind():
    assert {_job(c).kind for c in PINNED_FORD} == {"arrangement", "amalgam", "svg"}
    assert {_job(c).kind for c in UNPINNED_FORD} == {"arrangement"}


@pytest.mark.parametrize("command", PINNED + UNPINNED + PINNED_FORD + UNPINNED_FORD)
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


def test_the_checker_refuses_a_covered_face_marked_contributes():
    # a Covered hemisphere's own center lies inside its disc, but a rival is at
    # least as high there: as a Contributes witness it must fail
    command = "arrangement --disc -15 --bound 8 --format json"
    code, out = _run(command)
    payload = json.loads(out)
    rec = next(r for r in payload["hemispheres"] if r["status"]["kind"] == "covered")
    rec["status"] = {"kind": "contributes", "witness": rec["center"]}
    payload["contributing"] += 1
    payload["covered"] -= 1
    (problem,) = _problems(command, code, json.dumps(payload)).values()
    assert problem.startswith(f"hemisphere {payload['hemispheres'].index(rec)}: witness not strictly above hemisphere ")
