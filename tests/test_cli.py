from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
from collections import Counter
from decimal import Decimal
from pathlib import Path

import jsonschema
import pytest

from pe2ford import arrangement, cli, ford, words
from pe2ford.arrangement import Contributes, UnimodularPair, enumerate_hemispheres, face_statuses
from pe2ford.cli import main
from pe2ford.errors import CycleNotClosed, SearchExhausted
from pe2ford.ford import amalgam_rectangle
from pe2ford.moebius import Hemisphere
from pe2ford.orders import KElem, make_order
from pe2ford.subgroups import gap_points
from pe2ford.words import R, S, word_to_matrix

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
        "8476a385df20a2e4cdfcee017a4f92b2e87898d017a19e7f05f9cb412758838e",
    "pe2-ford --disc -40 --format json":
        "a2541bfc696ad3ae1baa55695ef9f574aa6e0cdb05916fd616765f8f0fa8847d",
    "pe2-ford --disc -15 --format json":
        "08fb904279c9be0dfda67d02e827197cb899454f97af3404c119d0496028fcb2",
    "presentation --disc -40 --format json":
        "ea833822268a62eda49e9f2fd628a8664c39dd12a917a7726070079399311891",
    "cosets --disc -40 --count 3 --format json":
        "c38fa87c19858e8b7579924afc67834192fb790b11b18fe3311b786edfc79afa",
    "arrangement --disc -40 --bound 4 --format json":
        "f621d5ab62c4d0cd3fcbd55fb810302b6f2ffd5c82291c03ee78d1264cc7709b",
    "amalgam --disc -40 --bound 4 --format json":
        "e8a71f786cf6f11509d892e2f18ec61eaef44078d8fc4991d90d3be3c1dea25b",
    "gap-points --disc -40 --count 2 --format json":
        "d32825a05641295ddea1414be329fc83d542de4e301b504e84a890e54056c658",
    "cosets --disc -40 --count 100":
        "e10f4d900a037c66c3d55d0ddbf865593dfc1fe1fc8d6d6ca09fc290d4fea1f2",
    "gap-points --disc -40 --count 200":
        "763dfded8a621ea01bb6e2a8c79658a83f2ea1ba57de1511aebed4b79dd1fb8a",
    "membership --disc -40 --seed 9":
        "60e3f4d30b301c0bced4f41087f546a7334ad7d4abd00dcbd1763c4ee15a6b6e",
    "arrangement --disc -40 --bound 16 --format svg":
        "7710245f1fd7aa9bc5f2b96c7c3555980645578bd9eeab49e7367df48f28421c",
    "amalgam --disc -40 --bound 16":
        "4bfea3efbe0dd8361ad1debfdf3842699e4db0345b9d7ae03063057ceac82a68",
    "arrangement --disc -40 --bound 64 --format json":
        "f5ad9a22928f875fc58a03e84c42d6ebb82c6961f6c694652e9b296290dae585",
    "amalgam --disc -67 --bound 48 --format json":
        "a503086ee6fcd9a05325d504f8e4f39f17cb1883c21386c4b1ac6bd45d117bd5",
    # the split strokes: below-only, both and none here, above-only, both and none at -19
    "amalgam --disc -40 --bound 16 --format svg":
        "29a4c6ba1167bc279aa04f52b230f3b71e5e9acef0e0753b82fc8c87fd354106",
    "amalgam --disc -19 --bound 16 --plane 1/5 --format svg":
        "598bdf9b3382e9c755d13a49b1bcfc593d31807d40d558f7fd9f9c3101fe4918",
    # long rows: the third checked list holds 117,851 pairs, and the gap strip is the whole band (lo = 0)
    "gap-points --disc -100000000003 --count 3 --format json":
        "2c7bba7998c300f3cd423041fcf9704a72a74a3d6e182c043c49e2f45b27311b",
    # odd delta: the hexagon cell, with six walls and two wall cycles
    "presentation --disc -15 --format json":
        "494785ed1924fc54e5465e5a8641b6c9035dedc1a41ef5f02e8209a5bbac6ea4",
    "presentation --disc -163 --format json":
        "d028ab644407b4211ff11a4aa137149e0b880caa42a222f75de3fbbeb54f6ac3",
    "amalgam --disc -163 --bound 16 --format svg":
        "0076428184622efef5f3447a846047da95e9ef74ea55b7b030e4ae99b5bdb6d7",
}


def test_every_command_has_a_handler_a_schema_and_a_json_case():
    # the parser is the command table: a command added there without its
    # handler, schema or JSON case fails here, as does a schema without a command
    (sub,) = [a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)]
    assert all(callable(p.get_default("handler")) for p in sub.choices.values())
    schemas = {p.name.removesuffix(".schema.json") for p in SCHEMA_DIR.glob("*.schema.json")}
    assert set(sub.choices) == schemas == {command for command, _ in JSON_CASES}


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
        # one past MAX_COUNT: refused while parsing, so nothing runs
        ["cosets", "--disc", "-40", "--count", str(cli.MAX_COUNT + 1)],
        ["gap-points", "--disc", "-40", "--count", str(cli.MAX_COUNT + 1)],
        ["gap-points", "--disc", "-40", "--count", "99999999999999999999"],
        ["arrangement", "--disc", "-40", "--bound", "0"],
        ["amalgam", "--disc", "-40", "--bound", "0"],
        # one past MAX_BOUND, and a bound that would run until killed
        ["arrangement", "--disc", "-40", "--bound", str(cli.MAX_BOUND + 1)],
        ["amalgam", "--disc", "-40", "--bound", str(cli.MAX_BOUND + 1)],
        ["amalgam", "--disc", "-40", "--bound", "99999999999999999999"],
        ["amalgam", "--disc", "-40", "--plane", "0"],
        # split off, argparse reads -1/2 as an option and refuses it
        ["amalgam", "--disc", "-40", "--plane", "-1/2"],
        # "=" hands -1/2 to the plane's parser, which reaches the positivity check
        ["amalgam", "--disc", "-40", "--plane=-1/2"],
        ["amalgam", "--disc", "-40", "--plane", "1/0"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_out_of_range_numbers_exit_2(argv):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    if "--plane=-1/2" in argv:
        assert err.endswith("error: argument --plane: -1/2 is not positive\n")
    if "--bound" in argv:
        assert err.endswith(f"error: argument --bound: {argv[-1]} is not a bound from 1 to {cli.MAX_BOUND}\n")


def test_max_bound_itself_parses():
    # parsed only, nothing runs: MAX_BOUND is the last bound accepted
    args = cli._PARSER.parse_args(["amalgam", "--disc", "-40", "--bound", str(cli.MAX_BOUND)])
    assert args.bound == cli.MAX_BOUND


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


@pytest.mark.parametrize("error", [SearchExhausted, CycleNotClosed])
def test_bounded_search_errors_exit_4(monkeypatch, error):
    def give_up(order, count):
        raise error("gave up after 3 tries")

    monkeypatch.setattr(cli, "coset_family", give_up)
    code, out, err = run(["cosets", "--disc", "-40", "--count", "1"])
    assert code == 4
    assert out == ""
    assert err == "error: gave up after 3 tries\n"
    assert "Traceback" not in err


def test_cosets_count_one():
    # one member: no pair to separate, one coset point, and the digest of its key
    code, out, err = run(["cosets", "--disc", "-40", "--count", "1", "--format", "json"])
    assert code == 0, err
    payload = json.loads(out)
    validate("cosets", payload)
    assert (payload["count"], payload["pairs_checked"], payload["all_non_member"]) == (1, 0, True)
    (member,) = payload["members"]
    point = member["coset_point"]
    s, (p, q) = point["s"], point["num"]
    assert s > 1 and 0 <= p < s and 0 <= q < s
    assert payload["certificates_sha256"] == hashlib.sha256(f"{s}:{p},{q}\n".encode()).hexdigest()


@pytest.mark.parametrize(
    "argv",
    [["arrangement", "--bound", "1"], ["amalgam", "--bound", "16"], ["cosets", "--count", "1"], ["gap-points", "--count", "1"]],
    ids=" ".join,
)
def test_huge_discriminant_runs_in_seconds(argv):
    # the pair scans read only the rows of their boxes, so the cost does not grow
    # with sqrt(|delta|); a disc scan took 8-15 s CPU and about 1 GB here
    start = time.process_time()
    code, out, err = run([argv[0], "--disc", "-100000000000003", *argv[1:], "--format", "json"])
    assert code == 0, err
    validate(argv[0], json.loads(out))
    assert time.process_time() - start < 5


@pytest.mark.parametrize("count", ["3", "10", str(cli.MAX_COUNT)])
def test_gap_points_past_the_checked_cap_exit_3(count):
    # at this order the third gap point, (1t)/3, has 3,726,780 lattice points within
    # covering radius^2 + 1; the sizes are counted from the rows, before any list is built
    start = time.process_time()
    code, out, err = run(["gap-points", "--disc", "-100000000000003", "--count", count])
    assert (code, out) == (3, "")
    assert err == f"error: the checked lists of {count} gap points would hold more than 1000000 lattice points\n"
    assert cli.MAX_CHECKED == 1_000_000
    assert time.process_time() - start < 5
    # the first two points have 4 each, well under the cap
    code, out, err = run(["gap-points", "--disc", "-100000000000003", "--count", "2", "--format", "json"])
    assert code == 0, err
    payload = json.loads(out)
    validate("gap-points", payload)
    assert [len(p["checked"]) for p in payload["points"]] == [4, 4]


@pytest.mark.parametrize(
    "delta, count", [(-15, 200), (-20, 200), (-23, 200), (-40, 200), (-163, 200), (-1003, 200), (-100000000003, 3)]
)
def test_gap_points_carry_the_stored_ratio(delta, count):
    # each gap point's ratio is built once, by the stream, from the scan's integers:
    # it is lam/mu, and the printed ratio and uv are that ratio
    order = make_order(delta)
    pts = gap_points(order, count)
    for gp in pts:
        assert gp.z == KElem.of(gp.pair.lam, gp.pair.mu)
        assert gp.ratio() is gp.z
    code, out, err = run(["gap-points", "--disc", str(delta), "--count", str(count), "--format", "json"])
    assert code == 0, err
    printed = json.loads(out)["points"]
    assert [(p["ratio"], p["uv"]) for p in printed] == [
        ({"num": [gp.z.num.a, gp.z.num.b], "den": gp.z.den}, [str(c) for c in gp.z.planar()]) for gp in pts
    ]


@pytest.mark.parametrize("delta", [-40, -163])
@pytest.mark.parametrize(
    "argv", [["arrangement", "--format", "json"], ["amalgam", "--format", "json"], ["amalgam", "--format", "svg"]], ids=" ".join
)
def test_arrangement_builds_no_object_per_enumerated_pair(monkeypatch, argv, delta):
    # the payload, the plane split and the SVG read the HemiSet's integer rows: a
    # Hemisphere is built at most once per contributor, and no UnimodularPair at all
    order = make_order(delta)
    hs = enumerate_hemispheres(order, 16, amalgam_rectangle(order))
    contributors = sum(isinstance(s, Contributes) for s in face_statuses(hs))
    assert contributors < len(hs.hemispheres)
    built: Counter = Counter()
    for cls in (Hemisphere, UnimodularPair):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, _i=init, _c=cls, **k: built.update([_c]) or _i(self, *a, **k))
    code, out, err = run(argv + ["--disc", str(delta), "--bound", "16"])
    assert code == 0, err
    assert built[Hemisphere] <= contributors and built[UnimodularPair] == 0


@pytest.mark.parametrize("command, count, key", [("gap-points", 200, "points"), ("cosets", 50, "members")])
def test_gap_stream_builds_no_pair_object(monkeypatch, command, count, key):
    # gap points hold the scan's integers, and the payload is written from
    # them: no UnimodularPair is built for the stream, the ratio or the completion
    built: Counter = Counter()
    init = UnimodularPair.__init__
    monkeypatch.setattr(UnimodularPair, "__init__", lambda self, *a, **k: built.update(["pair"]) or init(self, *a, **k))
    code, out, err = run([command, "--disc", "-40", "--count", str(count), "--format", "json"])
    assert code == 0, err
    assert len(json.loads(out)[key]) == count
    assert built["pair"] == 0


def _unit_ideal_callers(monkeypatch, argv):
    # (the names of the functions that call arrangement.unit_ideal while argv runs, stdout)
    callers: Counter = Counter()
    unit_ideal = arrangement.unit_ideal
    monkeypatch.setattr(arrangement, "unit_ideal", lambda *a: callers.update([sys._getframe(1).f_code.co_name]) or unit_ideal(*a))
    code, out, err = run(argv)
    assert code == 0, err
    return callers, out


@pytest.mark.parametrize("command, count, key", [("gap-points", 200, "points"), ("cosets", 50, "members")])
def test_gap_point_completions_run_no_second_unit_test(monkeypatch, command, count, key):
    # pair_scan accepted every gap point's pair with unit_ideal, and the
    # completions go straight to completion_entries: no other caller tests again
    callers, out = _unit_ideal_callers(monkeypatch, [command, "--disc", "-40", "--count", str(count), "--format", "json"])
    assert len(json.loads(out)[key]) == count
    assert set(callers) == {"pair_scan"} and callers["pair_scan"] >= count


@pytest.mark.parametrize("fmt", ["json", "svg"])
def test_amalgam_records_run_no_second_unit_test(monkeypatch, fmt):
    # the hemisphere records complete their owner rows, which pair_scan accepted, with
    # completion_entries alone; -40/16 has records of radius below one
    callers, out = _unit_ideal_callers(monkeypatch, ["amalgam", "--disc", "-40", "--bound", "16", "--format", fmt])
    assert set(callers) == {"pair_scan"}
    if fmt == "json":
        assert any(r["kind"] == "hemisphere" and r["pairing_word"] is None for r in json.loads(out)["faces"])


@pytest.mark.parametrize("delta", [-15, -19, -20, -40, -43, -163])
def test_arrangement_records_read_as_the_hemisphere_views(delta):
    # the records are written from the integer rows, and read as the Hemisphere view and
    # the owner rows of the same HemiSet do, at odd and even delta
    order = make_order(delta)
    hs = enumerate_hemispheres(order, 8, amalgam_rectangle(order))
    want = [
        {
            "center": {"num": [h.center.num.a, h.center.num.b], "den": h.center.den},
            "uv": [str(c) for c in h.center.planar()],
            "radius_sq": str(h.radius_sq),
            "owner": [[la, lb], [ma, mb]],
        }
        for h, (la, lb, ma, mb) in zip(hs.hemispheres, hs.owners)
    ]
    recs = _payload(["arrangement", "--disc", str(delta), "--bound", "8"])["hemispheres"]
    assert [{key: r[key] for key in want[0]} for r in recs] == want


def test_order_info_works_below_group_scope():
    code, out, _ = run(["order-info", "--disc", "-3"])
    assert code == 0
    assert "group scope: no" in out
    code, out, _ = run(["order-info", "--disc", "-4", "--format", "json"])
    assert code == 0
    assert json.loads(out)["group_scope"] is False


def test_non_member_json_prints_the_certificate(monkeypatch):
    # a word is always a member, so the outsider of criterion 4 stands in for the word's matrix
    outsider = [[1, 1], [5, 0], [2, 0], [1, -1]]
    monkeypatch.setattr(cli, "word_to_matrix", lambda word, order: cli.Mat(*(order.elt(*e) for e in outsider)))
    code, out, _ = run(["membership", "--disc", "-40", "--word", "r", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    validate("membership", payload)
    assert payload["verdict"] == "non_member"
    assert (payload["s"], payload["point"]) == (15, {"num": [-7, 7], "den": 15})
    assert payload["path"] == "1"


def test_membership_member_text():
    code, out, _ = run(["membership", "--disc", "-40", "--word", "r*s(5+0*t)*r"])
    assert code == 0
    assert "verdict: member" in out
    assert "round trip exact: yes" in out


def _digit_limit():
    # the interpreter's int/str digit limit, None on Pythons that have none
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_huge_integers_print_in_full(fmt):
    # a 5,000-digit shift, and 30 shifts of 200 digits whose product has
    # 6,000-digit entries: both pass the int/str digit limit, exit 0 with
    # every digit, and main leaves the limit as it found it
    d = make_order(-40)
    big = d.elt(10**200 - 1)
    cases = {
        f"s({'9' * 5000})": (S(d.elt(10**5000 - 1)),),
        f"s({'9' * 200})*r*" * 30 + "s(1)": (S(big), R()) * 30 + (S(d.one),),
    }
    for text, word in cases.items():
        limit = _digit_limit()
        code, out, err = run(["normal-form", "--disc", "-40", "--word", text, "--format", fmt])
        assert (code, err, _digit_limit()) == (0, "", limit)
        # str(Decimal(x)) writes every digit of x without reading the limit
        entries = [[str(Decimal(x)) for x in e] for e in word_to_matrix(word, d).coords()]
        if fmt == "json":
            payload = json.loads(out, parse_int=str)
            assert payload["input"] == payload["normal"] == text
            assert payload["matrix"]["entries"] == entries
        else:
            assert f"input: {text}\n" in out and f"normal: {text}\n" in out
            assert all(x in out for e in entries for x in e)


def test_presentation_reports_cycle_flag():
    code, out, _ = run(["presentation", "--disc", "-40", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert all(rel["verified"] for rel in payload["relations"])
    assert any("order 3" in note for note in payload["notes"])
    lengths = sorted(c["length"] for c in payload["cycles"])
    assert lengths == [2, 4]


def test_presentation_flags_come_from_its_own_check(monkeypatch):
    # presentation() checks each of the three relations once; the payload
    # prints that check's result and multiplies no relation out again
    calls = []

    def spy(word, order):
        calls.append(word)
        return word_to_matrix(word, order)

    for module in (cli, ford, words):
        monkeypatch.setattr(module, "word_to_matrix", spy)
    payload = json.loads(run(["presentation", "--disc", "-40", "--format", "json"])[1])
    assert [rel["verified"] for rel in payload["relations"]] == [True] * 3
    assert len(calls) == 3


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


def _payload(argv):
    # the dict that main prints for argv, built as main builds it
    args = cli._PARSER.parse_args(argv)
    order = make_order(args.disc)
    body, _ = args.handler(args, order)
    return {"command": args.command, "discriminant": order.delta, **body}


@contextlib.contextmanager
def _no_digit_limit():
    limit = _digit_limit()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


WRITER_VALUES = [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[{}]]], {"b": {"c": []}, "a": [{}]},
    "", "caf\u00e9 \u2203 \U0001d53b \ufeff", "\x00\x01\x1f\x7f\t\n\r\b\f \" \\ / </script>",
    {"\u00e9": 1, "\n": "\u2028", "": None},
    [True, 1, False, 0, None], {"true": True, "one": 1, "false": False, "zero": 0, "null": None},
    0, -1, -(10**5999), 10**6000 - 1, [10**5999, [-(10**5999)]],
    ("a", (1, ("b", [])), ()), {"z": 1, "a": 2, "m": {"y": [3, (4,)], "b": "x"}},
]


@pytest.mark.parametrize("argv", [argv for _, argv in JSON_CASES], ids=" ".join)
def test_json_writer_is_the_stdlib_encoder_on_payloads(argv):
    payload = _payload(argv)
    assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", WRITER_VALUES, ids=lambda v: type(v).__name__)
def test_json_writer_is_the_stdlib_encoder_on_edge_values(value):
    with _no_digit_limit():
        assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, [0.0], {"a": float("nan")}, {1: "a"}, {"a": {None: 1}}, {"a", "b"}, b"x"])
def test_json_writer_refuses_what_payloads_never_hold(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


def test_json_writer_refuses_int_keys_that_sort():
    # all-int keys sort without error, so the key test in the item loop must refuse them
    for value in ({2: "a", 1: "b"}, {0: None}, {"a": {3: 1, 1: 2}}, [{1: []}]):
        with pytest.raises(TypeError, match="payload keys must be str"):
            cli._json_text(value)


class _IntSubclass(int):
    pass


# int pairs at depths 0 to 3, as list items and as dict values, with
# negative and long ints, and the shapes beside them that keep the general path
PAIR_VALUES = [
    [1, 2], [-3, 0],
    [[1, 2]], [[-1, -2], [0, 10**40]], {"a": [1, -2]}, {"a": [0, 0], "b": [5, 6], "c": "x"},
    [[[1, 2]]], [{"a": [3, 4]}], {"a": [[5, -6]]}, {"a": {"b": [-7, 8]}},
    [[[[1, 2], [3, 4]]]], {"a": {"b": {"c": [9, -9]}}}, [{"a": [[1, 2]]}], {"a": [{"b": [3, 4]}]},
    {"m": {"entries": [[1, 0], [-(10**20), 1], [0, 0], [1, 0]], "sign_canonical": True}},
    [True, 1], [1, False], [0, None], (1, 2), [1, 2, 3], [[True, 1], [1, False], [0, None]],
    {"a": (1, 2), "b": [1, 2, 3], "c": [1], "d": [[1, 2]], "e": ["1", 2]},
    [[10**5000, -(10**4400)]], {"a": [-(10**4301), 10**4301]},
]


@pytest.mark.parametrize("value", PAIR_VALUES, ids=lambda v: type(v).__name__)
def test_json_writer_writes_int_pairs_as_the_stdlib(value):
    with _no_digit_limit():
        assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [[1.0, 2], [_IntSubclass(1), 2], [[1.0, 2]], {"a": [_IntSubclass(1), 2]}, {"a": [1, 2.5]}])
def test_json_writer_refuses_pairs_that_are_not_two_ints(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


@pytest.mark.parametrize("sign", ["", "-"])
def test_json_writer_writes_long_int_pairs_through_main(sign):
    # a shift of 5,000 digits puts a pair past the int/str digit limit in the matrix entries
    argv = ["normal-form", "--disc", "-40", "--word", f"s({sign}{'9' * 5000})*r", "--format", "json"]
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    with _no_digit_limit():
        assert out == json.dumps(_payload(argv), indent=2, sort_keys=True) + "\n"


class _StrSubclass(str):
    pass


# dict shapes met more than once in one call: the writer orders each
# (keys in insertion order, depth) once and reuses it within the call
SHAPE_VALUES = [
    # the same key set in two insertion orders
    [{"b": 1, "a": [1, 2]}, {"a": [3, 4], "b": 2}, {"b": 3, "a": [5, 6]}],
    {"y": {"b": 1, "a": 2}, "x": {"a": 3, "b": 4}},
    # one shape at two and at three depths
    {"a": 1, "b": {"a": 2, "b": {"a": 3, "b": [4, 5]}}},
    [{"k": "v"}, [{"k": "w"}, [{"k": [1, 2]}]], {"k": {"k": None}}],
    # same-shaped dicts mixed with an empty dict and non-dicts
    [{"n": 1, "m": [1, 2]}, {}, {"n": 2, "m": [3, 4]}, "s", {"n": 3, "m": None}, [5, 6], {}, {"n": 4, "m": True}],
    # keys that change between siblings
    [{"a": 1, "b": 2}, {"a": 1, "c": 2}, {"a": 1}, {"b": 2, "a": 1, "c": 3}, {"c": {"a": 1}}, {"a": {"c": 1}}],
    {"p": [{"entries": [[1, 0], [0, 1]], "sign_canonical": True}, {"entries": [], "other": False}]},
]


@pytest.mark.parametrize("value", SHAPE_VALUES, ids=lambda v: type(v).__name__)
def test_json_writer_orders_each_shape_once_per_call(value):
    assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_writer_keeps_no_shape_across_calls():
    # a dict rewritten in place between two calls is written afresh by each
    value = {"b": {"y": 1, "x": 2}, "a": [1, 2]}
    first = cli._json_text(value)
    assert first == json.dumps(value, indent=2, sort_keys=True)
    del value["b"]["y"]
    value["b"]["z"] = [3, 4]
    assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True) != first


@pytest.mark.parametrize(
    "value",
    [[{"a": 1}, {_StrSubclass("a"): 1}], [{"a": 1}, {"a": {1: 2}}], {"a": {"b": 1}, "c": [{"b": 2}, {True: 3}]}],
    ids=["str subclass", "int key", "bool key"],
)
def test_json_writer_refuses_a_non_str_key_of_a_known_shape(value):
    # a key equal to a str of a shape met before is still checked
    with pytest.raises(TypeError, match="payload keys must be str"):
        cli._json_text(value)


def test_output_digests():
    for _, argv in JSON_CASES:
        assert " ".join(argv + ["--format", "json"]) in OUTPUT_DIGESTS
    for command, digest in OUTPUT_DIGESTS.items():
        code, out, err = run(command.split(" "))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command
