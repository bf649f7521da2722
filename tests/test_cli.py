from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import jsonschema
import pytest

from pe2ford import cli
from pe2ford.cli import main
from pe2ford.errors import CycleNotClosed, SearchExhausted, WitnessNotFound

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


# sha256 of stdout for every JSON case in --format json and a few larger runs
OUTPUT_DIGESTS = {
    "order-info --disc -40 --format json":
        "e5fe51848c0d91231c3634eca044bdf2385509f2501805ef7f750893a5f3ff5d",
    "order-info --disc -15 --format json":
        "14e03c529123e56db337dd9baf04f812f3b2ee1af28d2aab32124732de57d155",
    "normal-form --disc -40 --seed 3 --format json":
        "dd0b9ee2900963dfe1f419a18a48ae0e5b1276c35916bef4dc9d77d7bcaac401",
    "normal-form --disc -19 --word r*s(2-t)*r*s(4) --format json":
        "0fa60e0d26db8529e4201b9932c06aa87d0f340d7b0f654bb3b35cebd9540172",
    "membership --disc -40 --word r*s(5+0*t)*r --format json":
        "7e24c2a0ad9c92fa3daffd16087dd88a2975b290076385edc87b146ca5d03dbb",
    "pe2-ford --disc -40 --format json":
        "a2541bfc696ad3ae1baa55695ef9f574aa6e0cdb05916fd616765f8f0fa8847d",
    "pe2-ford --disc -15 --format json":
        "08fb904279c9be0dfda67d02e827197cb899454f97af3404c119d0496028fcb2",
    "presentation --disc -40 --format json":
        "ea833822268a62eda49e9f2fd628a8664c39dd12a917a7726070079399311891",
    "cosets --disc -40 --count 3 --format json":
        "8d925764077dadb2b213ed204992f18b8964e1bb24a61b0fe1ef068997686f7c",
    "arrangement --disc -40 --bound 4 --format json":
        "f621d5ab62c4d0cd3fcbd55fb810302b6f2ffd5c82291c03ee78d1264cc7709b",
    "amalgam --disc -40 --bound 4 --format json":
        "e8a71f786cf6f11509d892e2f18ec61eaef44078d8fc4991d90d3be3c1dea25b",
    "gap-points --disc -40 --count 2 --format json":
        "d32825a05641295ddea1414be329fc83d542de4e301b504e84a890e54056c658",
    "cosets --disc -40 --count 100":
        "9fb5aad6ac7c0348eb6d4be16d9c4d66228033994b3698324ff21d8ba5b4a3ce",
    "gap-points --disc -40 --count 200":
        "763dfded8a621ea01bb6e2a8c79658a83f2ea1ba57de1511aebed4b79dd1fb8a",
    "membership --disc -40 --seed 9":
        "90adc122ce10808f48739dd509896c838698a1d07e3a7cc17691b774e39ee75e",
    "arrangement --disc -40 --bound 16 --format svg":
        "7710245f1fd7aa9bc5f2b96c7c3555980645578bd9eeab49e7367df48f28421c",
    "amalgam --disc -40 --bound 16":
        "4bfea3efbe0dd8361ad1debfdf3842699e4db0345b9d7ae03063057ceac82a68",
}


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


def test_unwritable_out_exits_2(tmp_path):
    target = tmp_path / "missing" / "x"
    code, out, err = run(["membership", "--disc", "-40", "--word", "r", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not target.exists()


def test_arrangement_svg_runs():
    code, out, _ = run(["arrangement", "--disc", "-40", "--bound", "4", "--format", "svg"])
    assert code == 0
    assert out.count("<circle") == 12


def test_usage_errors_exit_2():
    cases = [
        ["membership", "--disc", "-40", "--word", "q"],  # malformed word
        ["membership", "--disc", "-40", "--word", "s(²)"],  # a digit, but not ASCII 0-9
        ["membership", "--disc", "-13", "--word", "r"],  # -13 is 3 mod 4
        ["membership", "--disc", "-14", "--word", "r"],  # -14 is 2 mod 4
        ["membership", "--disc", "-40"],  # neither --word nor --seed
        ["normal-form", "--disc", "-40", "--word", "s(1)", "--seed", "3"],  # both
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
        ["gap-points", "--disc", "-40", "--count", "-1"],
        ["arrangement", "--disc", "-40", "--bound", "0"],
        ["amalgam", "--disc", "-40", "--bound", "0"],
        ["amalgam", "--disc", "-40", "--plane", "0"],
        ["amalgam", "--disc", "-40", "--plane", "-1/2"],
        ["amalgam", "--disc", "-40", "--plane", "1/0"],
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


# every scoped subcommand just outside its scope, with its exact stderr line
SCOPE_ERRORS = [
    (["normal-form", "--disc", "-4", "--word", "r"], "normal forms need |delta| > 4"),
    (["membership", "--disc", "-12", "--word", "r"], "membership certificates need |delta| > 12"),
    (["pe2-ford", "--disc", "-11"], "the one-hemisphere face list needs |delta| > 12"),
    (["presentation", "--disc", "-8"], "the three-relation presentation needs |delta| > 12"),
    (["cosets", "--disc", "-4", "--count", "1"], "coset families need |delta| > 12"),
    (["arrangement", "--disc", "-12"], "amalgam rectangle needs |delta| > 12"),
    (["amalgam", "--disc", "-11"], "amalgam rectangle needs |delta| > 12"),
    (["gap-points", "--disc", "-12", "--count", "1"], "gap points need |delta| > 12"),
]


@pytest.mark.parametrize("argv,message", SCOPE_ERRORS, ids=[" ".join(argv) for argv, _ in SCOPE_ERRORS])
def test_out_of_scope_message_is_exact(argv, message):
    for fmt in ("text", "json"):
        assert run(argv + ["--format", fmt]) == (3, "", f"error: {message}\n")


def test_order_info_group_scope_boundary():
    for disc, scope in (("-12", False), ("-15", True), ("-16", True)):
        code, out, _ = run(["order-info", "--disc", disc, "--format", "json"])
        assert code == 0
        assert json.loads(out)["group_scope"] is scope


def test_one_parser_serves_every_call(monkeypatch):
    # main never builds a parser of its own, and the shared one carries
    # nothing from a call to the next: a failed parse that set --word and
    # --seed comes first, then pinned runs that set neither, one or the other
    monkeypatch.setattr(cli, "_build_parser", None)
    assert run(["normal-form", "--disc", "-40", "--word", "s(1)", "--seed", "3"])[0] == 2
    for command in (
        "membership --disc -40 --word r*s(5+0*t)*r --format json",
        "membership --disc -40 --seed 9",
        "cosets --disc -40 --count 3 --format json",
        "amalgam --disc -40 --bound 16",
    ):
        code, out, err = run(command.split(" "))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGESTS[command], command


@pytest.mark.parametrize("error", [SearchExhausted, WitnessNotFound, CycleNotClosed])
def test_bounded_search_errors_exit_4(monkeypatch, error):
    def give_up(args, order):
        raise error("gave up after 3 tries")

    monkeypatch.setitem(cli._HANDLERS, "cosets", give_up)
    code, out, err = run(["cosets", "--disc", "-40", "--count", "1"])
    assert code == 4
    assert out == ""
    assert err == "error: gave up after 3 tries\n"
    assert "Traceback" not in err


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


def test_output_digests():
    for _, argv in JSON_CASES:
        assert " ".join(argv + ["--format", "json"]) in OUTPUT_DIGESTS
    for command, digest in OUTPUT_DIGESTS.items():
        code, out, err = run(command.split(" "))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command
