"""Benchmark workloads: the inputs each one generates and the jobs it runs.

A job is one timed call into pe2ford (``call``) plus an untimed step
that turns the result into plain data for the checker (``collect``).
Jobs look pe2ford functions up on their modules at call time, so a
tracer that rebinds those attributes sees every call.

Why these three workloads:

* ``ford-split`` spends nearly all of its time in the arrangement grid
  scans (``face_status``/``plane_split``) and bypasses membership; the
  hemisphere count runs from 16 to 116 over dense, README and sparse
  orders, so a change cannot speed up only one density.
* ``words`` runs normal forms, matrix products and deep Member descents
  with no arrangement code; its long-product tail exposes the
  superlinear descent without moving the median.
* ``cosets`` uses membership mostly for NonMember refutations that end
  after one ``lattice_points_within`` scan, so a change that speeds
  descents at the cost of refutations shows up here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

NAMES = ("ford-split", "words", "cosets")

# (job kind, discriminant, norm bound); "svg" is `amalgam --format svg`.
# Dense: -20; the README arguments: -40 at bound 16, which is also the
# densest arrangement (116 hemispheres); sparse: -43, -163.  `amalgam`
# at -40/16 alone takes about half of a round; the other cases run
# `arrangement` only, and the SVG, which re-runs the whole amalgam
# pipeline, sits on the cheaper -163 case.
FORD_SPLIT_JOBS = (
    ("arrangement", -20, 8),
    ("arrangement", -40, 16),
    ("amalgam", -40, 16),
    ("arrangement", -43, 8),
    ("arrangement", -163, 16),
    ("svg", -163, 16),
)

WORD_DISCS = (-15, -19, -24, -40, -163)
NORMAL_FORMS_PER_DISC = 300  # criterion-2 distribution: length 1-30, coefficients up to 10
MEMBERSHIPS_PER_DISC = 150  # criterion-4 distribution: length 1-24, coefficients up to 10
COEFF_BOUND = 10
# The long-product tail, one word per round for each (letters, discriminant).
LONG_WORDS = ((400, -15), (800, -24), (1600, -163), (3200, -40))

# -23 is left out: 12 of its first 20 gap-point completions certify
# Member, which normalizer_witness rejects by contract.
COSET_DISCS = (-20, -31, -40, -163)
README_COSETS = (-40, 100)
COSETS_PER_DISC = 50
GAP_POINTS = 200
NORMALIZER_POINTS = 20


@dataclass(frozen=True)
class Job:
    key: str
    kind: str  # selects the check applied to the output
    spec: dict  # the benchmark's own description of the input
    call: Callable[[], Any]
    collect: Callable[[Any], Any]


def build(name: str, seed: int, pe, workdir: Path) -> list[Job]:
    """Jobs of one round, in a seed-shuffled order.

    ``pe`` holds the pe2ford modules; CLI jobs write under ``workdir``.
    """
    rng = random.Random(seed)
    if name == "ford-split":
        jobs = _ford_split(pe, workdir)
    elif name == "words":
        jobs = _words(pe, rng)
    elif name == "cosets":
        jobs = _cosets(pe, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(jobs)
    return jobs


def _cli_job(pe, key: str, kind: str, spec: dict, argv: list[str], workdir: Path) -> Job:
    out = workdir / (key.replace("/", "_") + ".out")
    argv = argv + ["--out", str(out)]

    def call() -> int:
        return pe.cli.main(argv)

    def collect(code: int) -> dict:
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        out.unlink(missing_ok=True)
        return {"exit": code, "text": text}

    return Job(key, kind, spec, call, collect)


def _ford_split(pe, workdir: Path) -> list[Job]:
    jobs = []
    for kind, delta, bound in FORD_SPLIT_JOBS:
        command, fmt = ("amalgam", "svg") if kind == "svg" else (kind, "json")
        argv = [command, "--disc", str(delta), "--bound", str(bound), "--format", fmt]
        spec = {"delta": delta, "bound": bound}
        jobs.append(_cli_job(pe, f"{kind}/{delta}/{bound}", kind, spec, argv, workdir))
    return jobs


def _coeff_text(c: tuple[int, int]) -> str:
    a, b = c
    if b == 0:
        return str(a)
    return f"{a}{'+' if b > 0 else '-'}{abs(b)}*t"


def _random_letters(rng: random.Random, length: int) -> list:
    """Letters as None (r) or (a, b) for s(a + b*t), r with probability 0.45."""
    return [
        None if rng.random() < 0.45 else (rng.randint(-COEFF_BOUND, COEFF_BOUND), rng.randint(-COEFF_BOUND, COEFF_BOUND))
        for _ in range(length)
    ]


def _word_text(letters: list) -> str:
    return "*".join("r" if c is None else f"s({_coeff_text(c)})" for c in letters)


def _alphas(sf) -> list[list[int]]:
    return [[a.a, a.b] for a in sf.alphas]


def _normal_form_job(pe, key: str, order, letters: list) -> Job:
    word = pe.words.parse_word(_word_text(letters), order)

    def call():
        sf = pe.words.normal_form(word, order)
        return sf, pe.words.word_to_matrix(word, order), pe.words.word_to_matrix(sf.to_word(), order)

    def collect(result) -> dict:
        sf, mat, round_trip = result
        return {"alphas": _alphas(sf), "matrix": mat.coords(), "round_trip": round_trip.coords()}

    return Job(key, "normal-form", {"delta": order.delta, "letters": letters}, call, collect)


def _membership_job(pe, key: str, order, letters: list) -> Job:
    word = pe.words.parse_word(_word_text(letters), order)
    # a standard form has at most one r per letter, so this cap never cuts a Member
    depth_cap = max(64, len(letters))

    def call():
        return pe.words.membership(pe.words.word_to_matrix(word, order), depth_cap)

    def collect(res) -> dict:
        alphas = _alphas(res.certificate) if res.kind == "member" else None
        return {"kind": res.kind, "alphas": alphas, "nodes": res.stats.nodes_explored}

    return Job(key, "membership", {"delta": order.delta, "letters": letters}, call, collect)


def _words(pe, rng: random.Random) -> list[Job]:
    orders = {d: pe.orders.make_order(d) for d in WORD_DISCS}
    jobs = []
    for delta, order in orders.items():
        for i in range(NORMAL_FORMS_PER_DISC):
            letters = _random_letters(rng, rng.randint(1, 30))
            jobs.append(_normal_form_job(pe, f"normal-form/{delta}/{i}", order, letters))
        for i in range(MEMBERSHIPS_PER_DISC):
            letters = _random_letters(rng, rng.randint(1, 24))
            jobs.append(_membership_job(pe, f"membership/{delta}/{i}", order, letters))
    for length, delta in LONG_WORDS:
        letters = _random_letters(rng, length)
        jobs.append(_membership_job(pe, f"long/{delta}/{length}", orders[delta], letters))
    return jobs


def _normalizer_job(pe, key: str, gp) -> Job:
    g = gp.pair.completion
    spec = {
        "delta": g.order.delta,
        "lam": [gp.pair.lam.a, gp.pair.lam.b],
        "mu": [gp.pair.mu.a, gp.pair.mu.b],
        "g": g.coords(),
    }

    def call():
        return pe.subgroups.normalizer_witness(g)

    def collect(alpha) -> list[int]:
        return [alpha.a, alpha.b]

    return Job(key, "normalizer", spec, call, collect)


def _cosets(pe, workdir: Path) -> list[Job]:
    jobs = []
    for delta in COSET_DISCS:
        count = README_COSETS[1] if delta == README_COSETS[0] else COSETS_PER_DISC
        argv = ["cosets", "--disc", str(delta), "--count", str(count), "--format", "json"]
        jobs.append(_cli_job(pe, f"cosets/{delta}/{count}", "cosets", {"delta": delta, "count": count}, argv, workdir))
        argv = ["gap-points", "--disc", str(delta), "--count", str(GAP_POINTS), "--format", "json"]
        spec = {"delta": delta, "count": GAP_POINTS}
        jobs.append(_cli_job(pe, f"gap-points/{delta}/{GAP_POINTS}", "gap-points", spec, argv, workdir))
        order = pe.orders.make_order(delta)
        for i, gp in enumerate(pe.subgroups.gap_points(order, NORMALIZER_POINTS)):
            jobs.append(_normalizer_job(pe, f"normalizer/{delta}/{i}", gp))
    return jobs
