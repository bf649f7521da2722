"""Tests of the benchmark's checker and tracer.

Run from the repository root:

    python3 -m pytest perfbench

Each check is fed one real output, which must pass, and corrupted
copies of it, which must fail.
"""

from __future__ import annotations

import copy
import json

import pytest

import check
import run
import tracer
import workloads

LETTERS = [(2, 1), None, (3, -1), None, None, (-4, 2), None, (1, 0), None, (0, 5)]


@pytest.fixture(scope="module")
def pe():
    return run.load_program()


@pytest.fixture(scope="module")
def checker():
    return check.Checker(run.ROOT / "docs" / "schemas")


def _output(job):
    return job.collect(job.call())


def _fails(checker, job, out) -> bool:
    return job.key in checker.check_round([job], {job.key: out})


def _cli_output(pe, tmp_path, kind, argv, spec):
    job = workloads._cli_job(pe, kind, kind, spec, argv, tmp_path)
    return job, _output(job)


def _edit_json(out, edit):
    payload = json.loads(out["text"])
    edit(payload)
    return {"exit": out["exit"], "text": json.dumps(payload)}


def test_normal_form_corruptions_fail(pe, checker):
    order = pe.orders.make_order(-40)
    job = workloads._normal_form_job(pe, "nf", order, LETTERS)
    out = _output(job)
    assert not _fails(checker, job, out)
    assert len(out["alphas"]) > 2
    small = copy.deepcopy(out)
    small["alphas"][1] = [1, 0]
    assert _fails(checker, job, small)
    moved = copy.deepcopy(out)
    moved["alphas"][0][0] += 1
    assert _fails(checker, job, moved)
    wrong = copy.deepcopy(out)
    wrong["round_trip"][1][0] += 1
    assert _fails(checker, job, wrong)


def test_membership_corruptions_fail(pe, checker):
    order = pe.orders.make_order(-163)
    job = workloads._membership_job(pe, "m", order, LETTERS)
    out = _output(job)
    assert not _fails(checker, job, out)
    bad = copy.deepcopy(out)
    bad["alphas"][-1][1] += 1
    assert _fails(checker, job, bad)
    assert _fails(checker, job, dict(out, kind="inconclusive"))


def test_cosets_corruptions_fail(pe, checker, tmp_path):
    argv = ["cosets", "--disc", "-40", "--count", "6", "--format", "json"]
    job, out = _cli_output(pe, tmp_path, "cosets", argv, {"delta": -40, "count": 6})
    assert not _fails(checker, job, out)
    assert _fails(checker, job, _edit_json(out, lambda p: p.update(pairs_checked=14)))
    assert _fails(checker, job, _edit_json(out, lambda p: p["members"][2].update(min_dist_sq="1")))
    # a lattice point as member ratio: its own completion, but no gap
    lattice = {"lam": [3, 1], "mu": [1, 0], "ratio": {"num": [3, 1], "den": 1}, "uv": ["3", "1/2"]}
    lattice["matrix"] = {"entries": [[3, 1], [-1, 0], [1, 0], [0, 0]], "sign_canonical": True}
    assert _fails(checker, job, _edit_json(out, lambda p: p["members"][0].update(lattice)))
    assert _fails(checker, job, {"exit": 2, "text": ""})


def test_gap_points_corruptions_fail(pe, checker, tmp_path):
    argv = ["gap-points", "--disc", "-31", "--count", "8", "--format", "json"]
    job, out = _cli_output(pe, tmp_path, "gap-points", argv, {"delta": -31, "count": 8})
    assert not _fails(checker, job, out)
    assert _fails(checker, job, _edit_json(out, lambda p: p["points"].pop()))
    assert _fails(checker, job, _edit_json(out, lambda p: p["points"][3]["completion"]["entries"][1].__setitem__(0, 99)))
    assert _fails(checker, job, _edit_json(out, lambda p: p["points"][0].pop("checked")))


def test_normalizer_corruption_fails(pe, checker):
    order = pe.orders.make_order(-40)
    gp = pe.subgroups.gap_points(order, 3)[2]
    job = workloads._normalizer_job(pe, "w", gp)
    out = _output(job)
    assert not _fails(checker, job, out)
    # s(0) is the identity, which conjugates to itself inside the subgroup
    assert _fails(checker, job, [0, 0])
    assert _fails(checker, job, {"error": "WitnessNotFound: no witness"})


@pytest.fixture(scope="module")
def split_outputs(pe, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("split")
    spec = {"delta": -43, "bound": 4}
    base = ["--disc", "-43", "--bound", "4"]
    return {
        kind: _cli_output(pe, tmp, kind, [cmd] + base + ["--format", fmt], spec)
        for kind, cmd, fmt in (("arrangement", "arrangement", "json"), ("amalgam", "amalgam", "json"), ("svg", "amalgam", "svg"))
    }


def _round_fails(checker, split_outputs, kind, corrupted) -> bool:
    jobs = [job for job, _ in split_outputs.values()]
    outputs = {job.key: out for job, out in split_outputs.values()}
    outputs[kind] = corrupted
    return kind in checker.check_round(jobs, outputs)


def test_ford_split_outputs_pass(checker, split_outputs):
    jobs = [job for job, _ in split_outputs.values()]
    assert checker.check_round(jobs, {job.key: out for job, out in split_outputs.values()}) == {}


def test_arrangement_corruptions_fail(checker, split_outputs):
    _, out = split_outputs["arrangement"]
    payload = json.loads(out["text"])
    hemis = payload["hemispheres"]
    i = next(k for k, h in enumerate(hemis) if h["status"]["kind"] == "contributes")
    j = next(k for k, h in enumerate(hemis) if k != i and h["status"]["kind"] == "contributes")

    def steal_witness(p):
        p["hemispheres"][i]["status"]["witness"] = p["hemispheres"][j]["status"]["witness"]

    assert _round_fails(checker, split_outputs, "arrangement", _edit_json(out, steal_witness))
    assert _round_fails(checker, split_outputs, "arrangement", _edit_json(out, lambda p: p.update(covered=0)))
    assert _round_fails(checker, split_outputs, "arrangement", _edit_json(out, lambda p: p.update(bound=0)))


def test_amalgam_corruptions_fail(checker, split_outputs):
    _, out = split_outputs["amalgam"]
    assert _round_fails(checker, split_outputs, "amalgam", _edit_json(out, lambda p: p.update(hom_check=False)))
    assert _round_fails(checker, split_outputs, "amalgam", _edit_json(out, lambda p: p["overlap"].clear()))
    hemi = next(k for k, f in enumerate(json.loads(out["text"])["faces"]) if f["kind"] == "hemisphere")
    assert _round_fails(checker, split_outputs, "amalgam", _edit_json(out, lambda p: p["faces"].pop(hemi)))


def test_svg_corruptions_fail(checker, split_outputs):
    _, out = split_outputs["svg"]
    lines = out["text"].splitlines()
    circle = next(k for k, line in enumerate(lines) if line.startswith("<circle"))
    dropped = "\n".join(lines[:circle] + lines[circle + 1 :])
    assert _round_fails(checker, split_outputs, "svg", dict(out, text=dropped))
    shifted = out["text"].replace('cx="', 'cx="1', 1)
    assert _round_fails(checker, split_outputs, "svg", dict(out, text=shifted))
    assert _round_fails(checker, split_outputs, "svg", dict(out, text=out["text"][:-10]))


def test_tracer_counts_membership_called_through_subgroups(pe):
    order = pe.orders.make_order(-40)
    g = pe.subgroups.gap_points(order, 1)[0].pair.completion
    original = pe.words.membership
    tr = tracer.Tracer()
    tr.install()
    try:
        assert pe.subgroups.membership is not original
        pe.subgroups.membership(g)
        pe.subgroups.normalizer_witness(g)  # calls membership through its own import
    finally:
        tr.uninstall()
    assert pe.subgroups.membership is original and pe.words.membership is original
    counts, self_s, total_s = tr.summary()
    assert counts["words.membership.calls"] >= 3
    verdicts = counts.get("words.membership.non_member", 0) + counts.get("words.membership.member", 0)
    assert counts["words.membership.calls"] == verdicts
    assert counts["subgroups.normalizer_witness.calls"] == 1
    assert self_s["subgroups.normalizer_witness"] < total_s["subgroups.normalizer_witness"]


def test_tracer_reports_every_per_layer_metric(pe):
    names = run.expected_metrics(True)
    values = tracer.layer_metrics(names, *tracer.Tracer().summary(), overhead=1.0)
    assert list(values) == list(names)
    with pytest.raises(KeyError):
        tracer.layer_metrics(["nowhere.calls"], *tracer.Tracer().summary(), overhead=1.0)
