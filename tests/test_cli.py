from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import jsonschema
import pytest

from pe2ford.cli import main

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def validate(command: str, payload: dict) -> None:
    schema = json.loads((SCHEMA_DIR / f"{command}.schema.json").read_text())
    jsonschema.Draft202012Validator.check_schema(schema)
    jsonschema.Draft202012Validator(schema).validate(payload)


# fast argument vectors covering every command's JSON output
JSON_CASES = [
    ("order-info", ["order-info", "--disc", "-40"]),
    ("order-info", ["order-info", "--disc", "-15"]),
    ("normal-form", ["normal-form", "--disc", "-40", "--seed", "3"]),
    ("normal-form", ["normal-form", "--disc", "-19", "--word", "r*s(2-t)*r*s(4)"]),
    ("membership", ["membership", "--disc", "-40", "--word", "r*s(5+0*t)*r"]),
    ("pe2-ford", ["pe2-ford", "--disc", "-40"]),
    ("pe2-ford", ["pe2-ford", "--disc", "-15"]),
    ("presentation", ["presentation", "--disc", "-40"]),
    ("cosets", ["cosets", "--disc", "-40", "--count", "3"]),
    ("arrangement", ["arrangement", "--disc", "-40", "--bound", "4"]),
    ("amalgam", ["amalgam", "--disc", "-40", "--bound", "4"]),
    ("gap-points", ["gap-points", "--disc", "-40", "--count", "2"]),
]


@pytest.mark.parametrize("command,argv", JSON_CASES, ids=lambda c: str(c))
def test_json_output_matches_schema(command, argv):
    code, out, err = run(argv + ["--format", "json"])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["command"] == command
    validate(command, payload)


@pytest.mark.parametrize("command,argv", JSON_CASES, ids=lambda c: str(c))
def test_text_renders_the_json_payload(command, argv):
    code, text, _ = run(argv)
    assert code == 0
    lines = text.splitlines()
    payload = json.loads(run(argv + ["--format", "json"])[1])
    for key, value in payload.items():
        if key == "command" or isinstance(value, (list, dict)):
            continue
        shown = "yes" if value is True else "no" if value is False else str(value)
        assert f"{key.replace('_', ' ')}: {shown}" in lines


def test_inconclusive_json_matches_schema_and_exits_4():
    code, out, _ = run(
        ["membership", "--disc", "-40", "--seed", "5", "--depth", "1", "--format", "json"]
    )
    assert code == 4
    payload = json.loads(out)
    assert payload["verdict"] == "inconclusive"
    validate("membership", payload)


def test_byte_determinism():
    for _, argv in JSON_CASES:
        first = run(argv)
        second = run(argv)
        assert first == second
        third = run(argv + ["--format", "json"])
        fourth = run(argv + ["--format", "json"])
        assert third == fourth


def test_svg_output_and_out_flag(tmp_path):
    argv = ["amalgam", "--disc", "-40", "--bound", "4", "--format", "svg"]
    code, out, _ = run(argv)
    assert code == 0
    assert out.startswith("<svg ") and out.rstrip().endswith("</svg>")

    target = tmp_path / "fig.svg"
    code2, out2, _ = run(argv + ["--out", str(target)])
    assert code2 == 0
    assert out2 == ""  # payload goes to the file, not stdout
    assert target.read_text(encoding="utf-8") == out

    target2 = tmp_path / "fig2.svg"
    run(argv + ["--out", str(target2)])
    assert target2.read_bytes() == target.read_bytes()


def test_arrangement_svg_runs():
    code, out, _ = run(["arrangement", "--disc", "-40", "--bound", "4", "--format", "svg"])
    assert code == 0
    assert out.count("<circle") == 12


def test_usage_errors_exit_2():
    cases = [
        ["membership", "--disc", "-40", "--word", "q"],  # malformed word
        ["membership", "--disc", "-13", "--word", "r"],  # -13 is 3 mod 4
        ["membership", "--disc", "-14", "--word", "r"],  # -14 is 2 mod 4
        ["membership", "--disc", "-40"],  # neither --word nor --seed
        ["order-info", "--disc", "-40", "--format", "svg"],  # no svg here
        ["no-such-command"],
        ["membership", "--word", "r"],  # --disc is required
    ]
    for argv in cases:
        code, _, _ = run(argv)
        assert code == 2, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["cosets", "--disc", "-40", "--count", "0"],
        ["cosets", "--disc", "-40", "--depth", "-1"],
        ["gap-points", "--disc", "-40", "--count", "-1"],
        ["arrangement", "--disc", "-40", "--bound", "0"],
        ["amalgam", "--disc", "-40", "--bound", "0"],
        ["amalgam", "--disc", "-40", "--plane", "0"],
        ["amalgam", "--disc", "-40", "--plane", "-1/2"],
        ["membership", "--disc", "-40", "--word", "r", "--depth", "-1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_out_of_range_numbers_exit_2(argv):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


def test_out_of_scope_exits_3():
    cases = [
        ["gap-points", "--disc", "-12", "--count", "1"],
        ["amalgam", "--disc", "-11"],
        ["pe2-ford", "--disc", "-8"],
        ["cosets", "--disc", "-4", "--count", "1"],
    ]
    for argv in cases:
        code, _, err = run(argv)
        assert code == 3, argv
        assert "error:" in err


def test_order_info_works_below_group_scope():
    code, out, _ = run(["order-info", "--disc", "-3"])
    assert code == 0
    assert "group scope: no" in out
    code, out, _ = run(["order-info", "--disc", "-4", "--format", "json"])
    assert code == 0
    assert json.loads(out)["group_scope"] is False


def test_membership_member_text():
    code, out, _ = run(["membership", "--disc", "-40", "--word", "r*s(5+0*t)*r"])
    assert code == 0
    assert "verdict: member" in out
    assert "round trip exact: yes" in out


def test_presentation_reports_cycle_flag():
    code, out, _ = run(["presentation", "--disc", "-40", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert all(rel["verified"] for rel in payload["relations"])
    assert any("order 3" in note for note in payload["notes"])
    lengths = sorted(c["length"] for c in payload["cycles"])
    assert lengths == [2, 4]


def test_amalgam_json_cross_references():
    code, out, _ = run(["amalgam", "--disc", "-40", "--bound", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    labels = {f["label"] for f in payload["faces"]}
    for key in ("above", "below", "overlap"):
        assert set(payload[key]) <= labels
    assert payload["overlap_matches_n"] and payload["hom_check"]
    assert payload["plane"] == "2/3"
    assert sorted(payload["n_generators"]) == sorted(["r", "s(1)", "s(t)*r*s(-t)"])


def test_plane_flag_parses_exactly():
    code, out, _ = run(
        ["amalgam", "--disc", "-40", "--bound", "4", "--plane", "1/2", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["plane"] == "1/2"
