"""Command-line front end for the package: one payload per command.

`main` parses the arguments with one parser built at import, makes the
order once, and hands both to the subcommand's handler.  The handler
computes its result once and returns the body of one payload, its own
fields only; `main` puts the `command` and `discriminant` header in
front.  The payload is the dict that `--format json` prints and that the
schemas under docs/schemas describe.  `--format text` renders the same
payload one `key: value` line at a time, and `--format svg` (arrangement
and amalgam) draws the arrangement the command already computed.

Exit codes: 0 success, 2 usage error (including malformed words,
invalid discriminants and an `--out` file that cannot be written),
3 out-of-scope request, 4 inconclusive: a membership search, whose
payload is still printed, or a bounded search that ran out (an
enumeration short of verified items, a witness search or an edge cycle
that did not close), which prints only the error.  Identical argument vectors produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from .arrangement import Contributes, enumerate_hemispheres, face_statuses, svg_topview
from .errors import (
    CycleNotClosed,
    InvalidDiscriminant,
    OutOfScope,
    SearchExhausted,
    WitnessNotFound,
    WordSyntaxError,
)
from .ford import HemiFace, amalgam_rectangle, pe2_ford_faces, presentation, voronoi_cell
from .moebius import Mat
from .orders import KElem, OInt, Order, make_order
from .subgroups import PLANE, GapPoint, amalgam_report, coset_family, gap_points
from .words import (
    DEPTH_CAP,
    Inconclusive,
    Member,
    NonMember,
    Word,
    format_word,
    membership,
    normal_form,
    parse_word,
    random_pe2_word,
    word_to_matrix,
)

# exit code, payload body, and the svg_topview arguments of the commands that offer --format svg
_Result = tuple[int, dict[str, Any], tuple | None]


def _checked(kind: Callable[[str], Any], ok: Callable[[Any], bool], need: str) -> Callable[[str], Any]:
    def parse(text: str) -> Any:
        try:
            value = kind(text)
        except ZeroDivisionError:  # Fraction("1/0"); argparse reports only ValueError and TypeError
            raise ValueError(text) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {need}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type when the text does not parse
    return parse


_POSITIVE_INT = _checked(int, lambda x: x > 0, "positive")
_NON_NEGATIVE_INT = _checked(int, lambda x: x >= 0, "non-negative")
_POSITIVE_FRACTION = _checked(Fraction, lambda x: x > 0, "positive")


def _oint_json(x: OInt) -> list[int]:
    return [x.a, x.b]


def _mat_json(m: Mat) -> dict[str, Any]:
    return {"entries": m.coords(), "sign_canonical": True}


def _kelem_json(z: KElem) -> dict[str, Any]:
    return {"num": _oint_json(z.num), "den": z.den}


def _uv_json(p: tuple[Fraction, Fraction]) -> list[str]:
    return [str(p[0]), str(p[1])]


def _polygon_json(poly) -> dict[str, Any]:
    return {
        "kind": poly.kind,
        "center": _uv_json(poly.center),
        "vertices": [_uv_json(v) for v in poly.vertices],
    }


def _text_value(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return "(" + ", ".join(_text_value(v) for v in value) + ")"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}={_text_value(v)}" for k, v in value.items()) + "}"
    return "none" if value is None else str(value)


def _render_text(payload: dict[str, Any]) -> str:
    """One `key: value` line per field, in payload order, and one per list item.

    Underscores in keys read as spaces; an empty list reads `none`; the
    `command` field is left out.
    """
    lines = []
    for key, value in payload.items():
        if key == "command":
            continue
        items = value if isinstance(value, list) else [value]
        lines += [f"{key.replace('_', ' ')}: {_text_value(item)}" for item in items or [None]]
    return "\n".join(lines) + "\n"


def _input_word(args: argparse.Namespace, order: Order) -> Word:
    if args.word is not None:
        return parse_word(args.word, order)
    return random_pe2_word(order, args.seed)


def _gap_point_json(gp: GapPoint) -> dict[str, Any]:
    z = gp.ratio()
    return {
        "lam": _oint_json(gp.pair.lam),
        "mu": _oint_json(gp.pair.mu),
        "ratio": _kelem_json(z),
        "uv": _uv_json(z.planar()),
        "min_dist_sq": str(gp.min_dist_sq),
    }


def _cmd_order_info(args: argparse.Namespace, order: Order) -> _Result:
    body = {
        "even": order.even,
        "tau_trace": 0 if order.even else 1,
        "tau_norm": order.tau_norm,
        "covering_radius_sq": str(order.covering_radius_sq()),
        "group_scope": order.group_scope,
    }
    return 0, body, None


def _cmd_normal_form(args: argparse.Namespace, order: Order) -> _Result:
    word = _input_word(args, order)
    sf = normal_form(word, order)
    mat = word_to_matrix(word, order)
    body = {
        "input": format_word(word),
        "normal": str(sf),
        "n": sf.n,
        "matrix": _mat_json(mat),
        "preserved": word_to_matrix(sf.to_word(), order) == mat,
        "interior_ok": all(not a.is_small() for a in sf.alphas[1:-1]),
    }
    return 0, body, None


def _cmd_membership(args: argparse.Namespace, order: Order) -> _Result:
    word = _input_word(args, order)
    mat = word_to_matrix(word, order)
    res = membership(mat, args.depth)
    body: dict[str, Any] = {
        "word": format_word(word),
        "verdict": res.kind,
        "nodes_explored": res.stats.nodes_explored,
        "plateau_edges": res.stats.plateau_edges,
    }
    if isinstance(res, Member):
        cert = res.certificate
        round_trip = word_to_matrix(cert.to_word(), order) == mat
        body.update(certificate=str(cert), n=cert.n, round_trip_exact=round_trip)
    elif isinstance(res, NonMember):
        body.update(
            witness_ratio=_kelem_json(res.ratio),
            uv=_uv_json(res.ratio.planar()),
            nearby=[{"point": _oint_json(g), "dist_sq": str(d)} for g, d in res.nearby],
            path=format_word(res.path_word),
        )
    else:
        body.update(depth_reached=res.depth_reached)
    return (4 if isinstance(res, Inconclusive) else 0), body, None


def _cmd_pe2_ford(args: argparse.Namespace, order: Order) -> _Result:
    recs = []
    for f in pe2_ford_faces(order):
        rec: dict[str, Any]
        if isinstance(f, HemiFace):
            rec = {"kind": "hemi", "center": _oint_json(f.center)}
        else:
            rec = {"kind": "wall", "start": _uv_json(f.start), "end": _uv_json(f.end), "toward": _oint_json(f.toward)}
        rec.update(pairing=_mat_json(f.pairing), pairing_word=format_word(f.pairing_word))
        recs.append(rec)
    return 0, {"cell": _polygon_json(voronoi_cell(order)), "faces": recs}, None


def _cmd_presentation(args: argparse.Namespace, order: Order) -> _Result:
    pres = presentation(order)
    body = {
        "generators": [{"name": name, "word": format_word(w)} for name, w in pres.generators],
        # re-verified here, independently of the checks inside presentation()
        "relations": [
            {"word": format_word(rel), "verified": word_to_matrix(rel, order).is_identity()}
            for rel in pres.relations
        ],
        "cycles": [
            {
                "length": len(c.edges),
                "exponent": c.exponent,
                "word": format_word(c.word),
                "relation": format_word(c.relation),
                "derived_relation": format_word(c.derived_relation),
                "note": c.note,
            }
            for c in pres.cycles
        ],
        "notes": list(pres.notes),
    }
    return 0, body, None


def _cmd_cosets(args: argparse.Namespace, order: Order) -> _Result:
    fam = coset_family(order, args.count)
    keys = sorted(fam.distinctness_matrix)
    digest = hashlib.sha256()
    for i, j in keys:
        res = fam.distinctness_matrix[(i, j)]
        digest.update(f"{i},{j}:{res.ratio}:{format_word(res.path_word)}\n".encode())
    body = {
        "count": len(fam.members),
        "depth_cap": DEPTH_CAP,
        "members": [{"matrix": _mat_json(m), **_gap_point_json(gp)} for m, gp in zip(fam.members, fam.points)],
        "pairs_checked": len(keys),
        "all_non_member": all(isinstance(fam.distinctness_matrix[k], NonMember) for k in keys),
        "replaced": [_kelem_json(z) for z in fam.replaced],
        "certificates_sha256": digest.hexdigest(),
    }
    return 0, body, None


def _cmd_arrangement(args: argparse.Namespace, order: Order) -> _Result:
    hs = enumerate_hemispheres(order, args.bound, amalgam_rectangle(order))
    statuses = face_statuses(hs)
    recs = []
    for h, pair, s in zip(hs.hemispheres, hs.pairs, statuses):
        status: dict[str, Any] = {"kind": "covered"}
        if isinstance(s, Contributes):
            status = {"kind": "contributes", "witness": _kelem_json(s.witness)}
        recs.append(
            {
                "center": _kelem_json(h.center),
                "uv": _uv_json(h.center.planar()),
                "radius_sq": str(h.radius_sq),
                "owner": [_oint_json(pair.lam), _oint_json(pair.mu)],
                "status": status,
            }
        )
    contributing = sum(isinstance(s, Contributes) for s in statuses)
    body = {
        "bound": hs.norm_bound,
        "window": _polygon_json(hs.window),
        "hemispheres": recs,
        "contributing": contributing,
        "covered": len(recs) - contributing,
    }
    return 0, body, (hs, statuses, ((), ()))


def _cmd_amalgam(args: argparse.Namespace, order: Order) -> _Result:
    rep = amalgam_report(order, args.bound, args.plane)
    body = {
        "bound": rep.norm_bound,
        "plane": str(rep.plane),
        "n_generators": [format_word(w) for w in rep.n_generators],
        "overlap_matches_n": rep.overlap_matches_n,
        "hom_check": rep.hom_check,
        "faces": [
            {
                "kind": r.kind,
                "label": r.label,
                "center": None if r.center is None else _kelem_json(r.center),
                "pairing_word": None if r.pairing_word is None else format_word(r.pairing_word),
                "pairing": _mat_json(r.pairing),
                "above": r.above,
                "below": r.below,
            }
            for r in rep.faces
        ],
        "above": [r.label for r in rep.above_generators],
        "below": [r.label for r in rep.below_generators],
        "overlap": [r.label for r in rep.overlap],
        "notes": list(rep.notes),
    }
    return 0, body, (rep.arrangement, rep.statuses, rep.split)


def _cmd_gap_points(args: argparse.Namespace, order: Order) -> _Result:
    pts = gap_points(order, args.count)
    points = [
        {
            **_gap_point_json(gp),
            "checked": [_oint_json(g) for g in gp.checked_lattice_points],
            "completion": _mat_json(gp.pair.completion),
        }
        for gp in pts
    ]
    return 0, {"count": len(pts), "points": points}, None


_HANDLERS: dict[str, Callable[[argparse.Namespace, Order], _Result]] = {
    "order-info": _cmd_order_info,
    "normal-form": _cmd_normal_form,
    "membership": _cmd_membership,
    "pe2-ford": _cmd_pe2_ford,
    "presentation": _cmd_presentation,
    "cosets": _cmd_cosets,
    "arrangement": _cmd_arrangement,
    "amalgam": _cmd_amalgam,
    "gap-points": _cmd_gap_points,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pe2ford",
        description="Exact elementary-subgroup geometry over imaginary quadratic orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, formats: tuple[str, ...]) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--disc", type=int, required=True, help="order discriminant (negative)")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", type=Path, default=None, help="write output to this file")
        return p

    add("order-info", "basic invariants of the order", ("text", "json"))

    def add_word(p: argparse.ArgumentParser) -> None:
        given = p.add_mutually_exclusive_group(required=True)
        given.add_argument("--word", default=None, help="word such as 'r*s(2-t)'")
        given.add_argument("--seed", type=int, default=None, help="generate a random word instead")

    add_word(add("normal-form", "rewrite a word into standard form", ("text", "json")))

    p = add("membership", "search for an elementary-subgroup certificate", ("text", "json"))
    add_word(p)
    p.add_argument("--depth", type=_NON_NEGATIVE_INT, default=DEPTH_CAP, help="search depth cap")

    add("pe2-ford", "faces of the one-hemisphere Ford domain", ("text", "json"))
    add("presentation", "edge cycles and defining relations", ("text", "json"))

    p = add("cosets", "pairwise-distinct right-coset family", ("text", "json"))
    p.add_argument("--count", type=_POSITIVE_INT, default=100)

    p = add("arrangement", "hemisphere arrangement over the straddling rectangle", ("text", "json", "svg"))
    p.add_argument("--bound", type=_POSITIVE_INT, default=16, help="owner norm bound")

    p = add("amalgam", "plane split of the arrangement and generator pools", ("text", "json", "svg"))
    p.add_argument("--bound", type=_POSITIVE_INT, default=16)
    p.add_argument("--plane", type=_POSITIVE_FRACTION, default=PLANE, help="height, as p/q > 0")

    p = add("gap-points", "unimodular ratios outside all unit discs", ("text", "json"))
    p.add_argument("--count", type=_POSITIVE_INT, default=100)

    return parser


# argparse keeps no state between parse_args calls, so one parser serves every call
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        order = make_order(args.disc)
        code, body, view = _HANDLERS[args.command](args, order)
    except (WordSyntaxError, InvalidDiscriminant) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OutOfScope as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SearchExhausted, WitnessNotFound, CycleNotClosed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    payload = {"command": args.command, "discriminant": order.delta, **body}
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "svg":  # offered only by the commands that return a view
        text = svg_topview(*view)
    else:
        text = _render_text(payload)
    if args.out is None:
        sys.stdout.write(text)
        return code
    try:
        args.out.write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
