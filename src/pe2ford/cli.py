"""Command-line front end for the package; deterministic text, JSON, and SVG.

Exit codes: 0 success, 2 usage error (including malformed words and
invalid discriminants), 3 out-of-scope request, 4 inconclusive
membership search.  Identical argument vectors produce byte-identical
output; JSON payloads follow the schemas shipped under docs/schemas.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from .arrangement import (
    Contributes,
    enumerate_hemispheres,
    face_statuses,
    plane_split,
    svg_topview,
)
from .errors import InvalidDiscriminant, OutOfScope, WordSyntaxError
from .ford import (
    HemiFace,
    amalgam_rectangle,
    edge_cycles,
    pe2_ford_faces,
    presentation,
    voronoi_cell,
)
from .moebius import Mat
from .orders import KElem, OInt, Order, make_order
from .subgroups import amalgam_report, coset_family, gap_points
from .words import (
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


class UsageError(ValueError):
    """Raised for flag combinations argparse cannot express."""


def _checked(kind: Callable[[str], Any], ok: Callable[[Any], bool], need: str) -> Callable[[str], Any]:
    def parse(text: str) -> Any:
        value = kind(text)
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


def _dump(payload: dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _input_word(args: argparse.Namespace, order: Order) -> Word:
    if args.word is not None:
        return parse_word(args.word, order)
    if args.seed is not None:
        return random_pe2_word(order, args.seed)
    raise UsageError("provide --word or --seed")


def _cmd_order_info(args: argparse.Namespace) -> tuple[int, str]:
    order = make_order(args.disc)
    scope = order.abs_delta > 12
    if args.format == "json":
        return 0, _dump(
            {
                "command": "order-info",
                "discriminant": order.delta,
                "even": order.even,
                "tau_trace": 0 if order.even else 1,
                "tau_norm": order.tau_norm,
                "covering_radius_sq": str(order.covering_radius_sq()),
                "group_scope": scope,
            }
        )
    lines = [
        f"discriminant: {order.delta}",
        f"parity: {'even' if order.even else 'odd'}",
        f"tau trace: {0 if order.even else 1}",
        f"tau norm: {order.tau_norm}",
        f"covering radius squared: {order.covering_radius_sq()}",
        f"group commands in scope: {'yes' if scope else 'no'}",
    ]
    return 0, "\n".join(lines) + "\n"


def _cmd_normal_form(args: argparse.Namespace) -> tuple[int, str]:
    order = make_order(args.disc)
    word = _input_word(args, order)
    sf = normal_form(word, order)
    mat = word_to_matrix(word, order)
    preserved = word_to_matrix(sf.to_word(), order) == mat
    interior_ok = all(not a.is_small() for a in sf.alphas[1:-1])
    if args.format == "json":
        return 0, _dump(
            {
                "command": "normal-form",
                "discriminant": order.delta,
                "input": format_word(word),
                "normal": str(sf),
                "n": sf.n,
                "matrix": _mat_json(mat),
                "preserved": preserved,
                "interior_ok": interior_ok,
            }
        )
    lines = [
        f"input: {format_word(word)}",
        f"normal: {sf}",
        f"rotation letters: {sf.n}",
        f"matrix: {mat!r}",
        f"matrix preserved: {'yes' if preserved else 'no'}",
        f"interior coefficients valid: {'yes' if interior_ok else 'no'}",
    ]
    return 0, "\n".join(lines) + "\n"


def _cmd_membership(args: argparse.Namespace) -> tuple[int, str]:
    order = make_order(args.disc)
    word = _input_word(args, order)
    mat = word_to_matrix(word, order)
    res = membership(mat, args.depth)
    base: dict[str, Any] = {
        "command": "membership",
        "discriminant": order.delta,
        "word": format_word(word),
        "verdict": res.kind,
        "nodes_explored": res.stats.nodes_explored,
        "plateau_edges": res.stats.plateau_edges,
    }
    if isinstance(res, Member):
        cert = res.certificate
        round_trip = word_to_matrix(cert.to_word(), order) == mat
        if args.format == "json":
            base.update(certificate=str(cert), n=cert.n, round_trip_exact=round_trip)
            return 0, _dump(base)
        lines = [
            "verdict: member",
            f"certificate: {cert}",
            f"rotation letters: {cert.n}",
            f"round trip exact: {'yes' if round_trip else 'no'}",
            f"nodes explored: {res.stats.nodes_explored}",
        ]
        return 0, "\n".join(lines) + "\n"
    if isinstance(res, NonMember):
        if args.format == "json":
            base.update(
                witness_ratio=_kelem_json(res.ratio),
                uv=_uv_json(res.ratio.planar()),
                nearby=[
                    {"point": _oint_json(g), "dist_sq": str(d)} for g, d in res.nearby
                ],
                path=format_word(res.path_word),
            )
            return 0, _dump(base)
        lines = [
            "verdict: non-member",
            f"witness ratio: {res.ratio}",
            f"path: {format_word(res.path_word)}",
            f"nodes explored: {res.stats.nodes_explored}",
        ]
        return 0, "\n".join(lines) + "\n"
    if args.format == "json":
        base.update(depth_reached=res.depth_reached)
        return 4, _dump(base)
    lines = [
        "verdict: inconclusive",
        f"depth reached: {res.depth_reached}",
        f"nodes explored: {res.stats.nodes_explored}",
    ]
    return 4, "\n".join(lines) + "\n"


def _cmd_pe2_ford(args: argparse.Namespace) -> tuple[int, str]:
    order = make_order(args.disc)
    faces = pe2_ford_faces(order)
    cell = voronoi_cell(order)
    if args.format == "json":
        recs = []
        for f in faces:
            if isinstance(f, HemiFace):
                recs.append(
                    {
                        "kind": "hemi",
                        "center": _oint_json(f.center),
                        "pairing": _mat_json(f.pairing),
                        "pairing_word": format_word(f.pairing_word),
                    }
                )
            else:
                recs.append(
                    {
                        "kind": "wall",
                        "start": _uv_json(f.start),
                        "end": _uv_json(f.end),
                        "toward": _oint_json(f.toward),
                        "pairing": _mat_json(f.pairing),
                        "pairing_word": format_word(f.pairing_word),
                    }
                )
        return 0, _dump(
            {
                "command": "pe2-ford",
                "discriminant": order.delta,
                "cell": _polygon_json(cell),
                "faces": recs,
            }
        )
    lines = [f"cell: {cell.kind} with {len(cell.vertices)} vertices"]
    for u, v in cell.vertices:
        lines.append(f"  vertex ({u}, {v})")
    for f in faces:
        if isinstance(f, HemiFace):
            lines.append(f"face: hemisphere at {f.center}, pairing {format_word(f.pairing_word)}")
        else:
            lines.append(
                f"face: wall ({f.start[0]}, {f.start[1]}) to ({f.end[0]}, {f.end[1]})"
                f" toward {f.toward}, pairing {format_word(f.pairing_word)}"
            )
    return 0, "\n".join(lines) + "\n"


def _cmd_presentation(args: argparse.Namespace) -> tuple[int, str]:
    order = make_order(args.disc)
    pres = presentation(order)
    cycles = edge_cycles(pe2_ford_faces(order))
    verified = [word_to_matrix(rel, order).is_identity() for rel in pres.relations]
    if args.format == "json":
        return 0, _dump(
            {
                "command": "presentation",
                "discriminant": order.delta,
                "generators": [{"name": name, "word": format_word(w)} for name, w in pres.generators],
                "relations": [
                    {"word": format_word(rel), "verified": ok}
                    for rel, ok in zip(pres.relations, verified)
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
                    for c in cycles
                ],
                "notes": list(pres.notes),
            }
        )
    lines = ["generators: " + ", ".join(name for name, _ in pres.generators)]
    for rel, ok in zip(pres.relations, verified):
        lines.append(f"relation: {format_word(rel)}  verified: {'yes' if ok else 'no'}")
    for c in cycles:
        lines.append(
            f"cycle: length {len(c.edges)}, transformation order {c.exponent},"
            f" word {format_word(c.word)}"
        )
    for note in pres.notes:
        lines.append(f"note: {note}")
    return 0, "\n".join(lines) + "\n"


def _cmd_cosets(args: argparse.Namespace) -> tuple[int, str]:
    order = make_order(args.disc)
    fam = coset_family(order, args.count, args.depth)
    keys = sorted(fam.distinctness_matrix)
    all_non_member = all(
        isinstance(fam.distinctness_matrix[k], NonMember) for k in keys
    )
    digest = hashlib.sha256()
    for i, j in keys:
        res = fam.distinctness_matrix[(i, j)]
        digest.update(f"{i},{j}:{res.ratio}:{format_word(res.path_word)}\n".encode())
    if args.format == "json":
        return 0, _dump(
            {
                "command": "cosets",
                "discriminant": order.delta,
                "count": len(fam.members),
                "depth_cap": fam.depth_cap,
                "members": [
                    {
                        "matrix": _mat_json(m),
                        "lam": _oint_json(gp.pair.lam),
                        "mu": _oint_json(gp.pair.mu),
                        "ratio": _kelem_json(gp.ratio()),
                        "uv": _uv_json(gp.ratio().planar()),
                        "min_dist_sq": str(gp.min_dist_sq),
                    }
                    for m, gp in zip(fam.members, fam.points)
                ],
                "pairs_checked": len(keys),
                "all_non_member": all_non_member,
                "replaced": [_kelem_json(z) for z in fam.replaced],
                "certificates_sha256": digest.hexdigest(),
            }
        )
    lines = [
        f"members: {len(fam.members)}",
        f"pairs checked: {len(keys)}",
        f"all pairwise non-member: {'yes' if all_non_member else 'no'}",
        f"replaced candidates: {len(fam.replaced)}",
        f"certificates sha256: {digest.hexdigest()}",
    ]
    for m, gp in zip(fam.members, fam.points):
        lines.append(f"member: ratio {gp.ratio()} min_dist_sq {gp.min_dist_sq} matrix {m!r}")
    return 0, "\n".join(lines) + "\n"


def _cmd_arrangement(args: argparse.Namespace) -> tuple[int, str]:
    order = make_order(args.disc)
    window = amalgam_rectangle(order)
    hs = enumerate_hemispheres(order, args.bound, window)
    statuses = face_statuses(hs)
    if args.format == "svg":
        return 0, svg_topview(hs, statuses, ((), ()))
    contributing = sum(1 for s in statuses if isinstance(s, Contributes))
    if args.format == "json":
        recs = []
        for h, s in zip(hs.hemispheres, statuses):
            status: dict[str, Any]
            if isinstance(s, Contributes):
                status = {"kind": "contributes", "witness": _kelem_json(s.witness)}
            else:
                status = {"kind": "covered"}
            recs.append(
                {
                    "center": _kelem_json(h.center),
                    "uv": _uv_json(h.center.planar()),
                    "radius_sq": str(h.radius_sq),
                    "owner": [_oint_json(h.owner[0]), _oint_json(h.owner[1])],
                    "status": status,
                }
            )
        return 0, _dump(
            {
                "command": "arrangement",
                "discriminant": order.delta,
                "bound": hs.norm_bound,
                "window": _polygon_json(window),
                "hemispheres": recs,
                "contributing": contributing,
                "covered": len(recs) - contributing,
            }
        )
    lines = [
        f"hemispheres: {len(hs.hemispheres)}",
        f"contributing: {contributing}",
        f"covered: {len(hs.hemispheres) - contributing}",
    ]
    for h, s in zip(hs.hemispheres, statuses):
        tag = f"contributes (witness {s.witness})" if isinstance(s, Contributes) else "covered"
        lines.append(f"hemisphere at {h.center}, radius_sq {h.radius_sq}: {tag}")
    return 0, "\n".join(lines) + "\n"


def _cmd_amalgam(args: argparse.Namespace) -> tuple[int, str]:
    order = make_order(args.disc)
    if args.format == "svg":
        window = amalgam_rectangle(order)
        hs = enumerate_hemispheres(order, args.bound, window)
        statuses = face_statuses(hs)
        split = plane_split(hs, statuses, args.plane)
        return 0, svg_topview(hs, statuses, split)
    rep = amalgam_report(order, args.bound, args.plane)
    if args.format == "json":
        return 0, _dump(
            {
                "command": "amalgam",
                "discriminant": order.delta,
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
                        "pairing_word": None
                        if r.pairing_word is None
                        else format_word(r.pairing_word),
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
        )
    lines = [
        f"plane: t = {rep.plane}",
        "subgroup generators: " + ", ".join(format_word(w) for w in rep.n_generators),
        f"overlap matches subgroup generators: {'yes' if rep.overlap_matches_n else 'no'}",
        f"collapse homomorphism check: {'yes' if rep.hom_check else 'no'}",
    ]
    for r in rep.faces:
        side = "both" if r.above and r.below else ("above" if r.above else "below")
        word = format_word(r.pairing_word) if r.pairing_word is not None else "(completion)"
        lines.append(f"face: {r.label}  side: {side}  pairing: {word}")
    for note in rep.notes:
        lines.append(f"note: {note}")
    return 0, "\n".join(lines) + "\n"


def _cmd_gap_points(args: argparse.Namespace) -> tuple[int, str]:
    order = make_order(args.disc)
    pts = gap_points(order, args.count)
    if args.format == "json":
        return 0, _dump(
            {
                "command": "gap-points",
                "discriminant": order.delta,
                "count": len(pts),
                "points": [
                    {
                        "lam": _oint_json(gp.pair.lam),
                        "mu": _oint_json(gp.pair.mu),
                        "ratio": _kelem_json(gp.ratio()),
                        "uv": _uv_json(gp.ratio().planar()),
                        "min_dist_sq": str(gp.min_dist_sq),
                        "checked": [_oint_json(g) for g in gp.checked_lattice_points],
                        "completion": _mat_json(gp.pair.completion),
                    }
                    for gp in pts
                ],
            }
        )
    lines = []
    for gp in pts:
        lines.append(
            f"gap point: ratio {gp.ratio()} = ({gp.pair.lam})/({gp.pair.mu}),"
            f" min_dist_sq {gp.min_dist_sq}, checked {len(gp.checked_lattice_points)} points"
        )
    return 0, "\n".join(lines) + "\n"


_HANDLERS: dict[str, Callable[[argparse.Namespace], tuple[int, str]]] = {
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

    p = add("normal-form", "rewrite a word into standard form", ("text", "json"))
    p.add_argument("--word", default=None, help="word such as 'r*s(2-t)'")
    p.add_argument("--seed", type=int, default=None, help="generate a random word instead")

    p = add("membership", "search for an elementary-subgroup certificate", ("text", "json"))
    p.add_argument("--word", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--depth", type=_NON_NEGATIVE_INT, default=64, help="search depth cap")

    add("pe2-ford", "faces of the one-hemisphere Ford domain", ("text", "json"))
    add("presentation", "edge cycles and defining relations", ("text", "json"))

    p = add("cosets", "pairwise-distinct right-coset family", ("text", "json"))
    p.add_argument("--count", type=_POSITIVE_INT, default=100)
    p.add_argument("--depth", type=_NON_NEGATIVE_INT, default=64)

    p = add("arrangement", "hemisphere arrangement over the straddling rectangle", ("text", "json", "svg"))
    p.add_argument("--bound", type=_POSITIVE_INT, default=16, help="owner norm bound")

    p = add("amalgam", "plane split of the arrangement and generator pools", ("text", "json", "svg"))
    p.add_argument("--bound", type=_POSITIVE_INT, default=16)
    p.add_argument("--plane", type=_POSITIVE_FRACTION, default=Fraction(2, 3), help="height, as p/q > 0")

    p = add("gap-points", "unimodular ratios outside all unit discs", ("text", "json"))
    p.add_argument("--count", type=_POSITIVE_INT, default=100)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, text = _HANDLERS[args.command](args)
    except (WordSyntaxError, InvalidDiscriminant, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OutOfScope as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
