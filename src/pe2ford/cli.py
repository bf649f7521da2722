"""Command-line front end for the package: one payload per command.

`main` parses the arguments with one parser built at import, makes the
order once, and hands both to the subcommand's handler.  The parser is
the one command table: each subcommand names its handler there.  The
handler computes its result once and returns the body of one payload,
its own fields only; `main` puts the `command` and `discriminant` header
in front.  The payload is the dict that `--format json` prints and that
the schemas under docs/schemas describe; `_json_text` prints it with the
bytes of `json.dumps(payload, indent=2, sort_keys=True)`, through the C
string escaper instead of the stdlib's pure-Python indenting encoder,
writes each int pair [a, b] in place from one template per depth, and
sorts and escapes the keys of each dict shape once per call.  Gap
points are written from the integers the gap stream holds, with no
ratio, pair or Fraction built for the payload.
`--format text` renders the same payload one `key: value` line at a
time, and `--format svg` (arrangement and amalgam) draws the
arrangement the command already computed.

Exit codes: 0 success (a membership verdict, Member or NonMember,
included), 2 usage error (including malformed words, invalid
discriminants, a `--count` past MAX_COUNT, a `--bound` past MAX_BOUND
and an `--out` file that cannot be written), 3 out-of-scope request
(including gap points whose `checked` lists would hold more than
MAX_CHECKED lattice points in all),
4 a bounded search that ran out (an enumeration short of verified items
or an edge cycle that did not close), which prints only the error.
Identical argument vectors produce byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable

from .arrangement import Contributes, enumerate_hemispheres, face_statuses, svg_topview
from .errors import (
    CycleNotClosed,
    InvalidDiscriminant,
    OutOfScope,
    SearchExhausted,
    WordSyntaxError,
)
from .ford import HemiFace, amalgam_rectangle, pe2_ford_faces, presentation, voronoi_cell
from .moebius import Mat
from .orders import KElem, OInt, Order, lattice_rows, make_order
from .subgroups import PLANE, GapPoint, amalgam_report, coset_family, gap_points
from .words import (
    Member,
    Word,
    format_word,
    membership,
    normal_form,
    parse_word,
    random_pe2_word,
    word_to_matrix,
)

# payload body, and the svg_topview arguments of the commands that offer --format svg
_Result = tuple[dict[str, Any], tuple | None]
_Handler = Callable[[argparse.Namespace, Order], _Result]


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


# --count of cosets and gap-points; the streams have no end, so a count past
# this is refused (coset_family(-40, 10000) takes about a second)
MAX_COUNT = 10_000
_COUNT = _checked(int, lambda x: 0 < x <= MAX_COUNT, f"a count from 1 to {MAX_COUNT}")
# --bound of arrangement and amalgam.  At 1024 the costliest calls measured,
# at -15, take 3.6 s CPU and 161 MB (amalgam) and 9.6 s and 663 MB
# (arrangement --format json, whose payload lists all 229,082 hemispheres and
# is most of that) on a shared 2-vCPU VM (Python 3.11.7); before the face
# walks drew their rivals lazily, amalgam at -15 and bound 512 took 74 s and
# 1.2 GB.  The hemisphere count grows as bound^2
MAX_BOUND = 1024
_BOUND = _checked(int, lambda x: 0 < x <= MAX_BOUND, f"a bound from 1 to {MAX_BOUND}")
# lattice points that one gap-points payload may list under `checked`, summed
# over its points; each list grows with sqrt(|delta|), so a request past this
# exits 3.  Each point's lattice_rows are read once: their widths give the
# list's size in O(rows) before any list is built, and the same rows are then
# expanded into it.  At -100000000003, --count 10 --format json lists 980,977
# points in 1.7-1.8 s CPU and 293 MB on a shared 2-vCPU VM; at
# -100000000000003 the third point alone has 3.7 million
MAX_CHECKED = 1_000_000
_POSITIVE_FRACTION = _checked(Fraction, lambda x: x > 0, "positive")


def _oint_json(x: OInt) -> list[int]:
    return [x.a, x.b]


def _mat_json(m: Mat) -> dict[str, Any]:
    return {"entries": m.coords(), "sign_canonical": True}


def _kelem_json(z: KElem) -> dict[str, Any]:
    return {"num": _oint_json(z.num), "den": z.den}


def _uv_json(p: tuple[Fraction, Fraction]) -> list[str]:
    return [str(p[0]), str(p[1])]


def _ratio_text(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0, from the integers."""
    g = math.gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


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


# the JSON text of each leaf type, looked up by exact type, so a subclass is no leaf
_JSON_LEAF: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json_text(value: Any) -> str:
    """json.dumps(value, indent=2, sort_keys=True) for payload values, without its pure-Python encoder.

    Strings and keys go through the stdlib's C escaper, ints through
    int.__repr__, lists and tuples become arrays.  A str, int, bool or None
    item is rendered in place by its _JSON_LEAF entry, and a list of exactly
    two exact ints, such as an order element [a, b], by the pair template
    of its depth, whose %d writes an int as int.__repr__ does; only any
    other list, tuple or dict item costs a recursive call.

    A payload repeats a few dict shapes many times, so the call keeps one
    small dict from (a dict's keys in insertion order, its depth) to its
    sorted keys, each with the text in front of its value: the separator,
    the indentation and the escaped "key": .  A shape is sorted, checked
    and escaped on its first meeting, and the newline-and-indent strings
    and the pair template of each depth are built once.  Both live for the
    one call.  Any other type, floats and subclasses included, and a key
    that is no exact str (a str subclass too, even where an equal str key
    made the shape) raise TypeError.
    """
    shapes: dict[tuple[tuple, int], list[tuple[str, str]]] = {}
    # per depth: the newline and indent of a container's closing bracket and
    # of its items, and the template of an int pair among its items
    pads: list[tuple[str, str, str]] = []

    def write(value: Any, depth: int) -> str:
        kind = type(value)
        leaf = _JSON_LEAF.get(kind)
        if leaf is not None:
            return leaf(value)
        while len(pads) <= depth:
            nl = "\n" + "  " * len(pads)
            inner = nl + "  "
            pads.append((nl, inner, "[" + inner + "  %d," + inner + "  %d" + inner + "]"))
        nl, inner, pair = pads[depth]
        texts = []
        if kind is list or kind is tuple:
            for v in value:
                leaf = _JSON_LEAF.get(type(v))
                if leaf is not None:
                    texts.append(leaf(v))
                elif type(v) is list and len(v) == 2 and type(v[0]) is int and type(v[1]) is int:
                    texts.append(pair % (v[0], v[1]))
                else:
                    texts.append(write(v, depth + 1))
            return "[" + inner + ("," + inner).join(texts) + nl + "]" if texts else "[]"
        if kind is not dict:
            raise TypeError(f"{kind.__name__} is not a payload value")
        if not value:
            return "{}"
        keys = tuple(value)
        for k in keys:
            if type(k) is not str:
                raise TypeError("payload keys must be str")
        shape = shapes.get((keys, depth))
        if shape is None:
            # the first key's text opens the object, each later one follows a comma
            shape = [(k, "," + inner + encode_basestring_ascii(k) + ": ") for k in sorted(keys)]
            shape[0] = (shape[0][0], "{" + shape[0][1][1:])
            shapes[keys, depth] = shape
        for k, head in shape:
            v = value[k]
            texts.append(head)
            leaf = _JSON_LEAF.get(type(v))
            if leaf is not None:
                texts.append(leaf(v))
            elif type(v) is list and len(v) == 2 and type(v[0]) is int and type(v[1]) is int:
                texts.append(pair % (v[0], v[1]))
            else:
                texts.append(write(v, depth + 1))
        texts.append(nl + "}")
        return "".join(texts)

    return write(value, 0)


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
    # written from the point's integers: the ratio (xa + xb*t)/N in lowest
    # terms, as KElem.of reduces it, at planar ((2xa + trace*xb)/2N, xb/2N)
    xa, xb, n = gp.xa, gp.xb, gp.norm
    g, l = math.gcd(xa, xb, n), 2 * n
    return {
        "lam": [gp.a, gp.b],
        "mu": [gp.c, gp.d],
        "ratio": {"num": [xa // g, xb // g], "den": n // g},
        "uv": [_ratio_text(2 * xa + gp.order.trace * xb, l), _ratio_text(xb, l)],
        "min_dist_sq": _ratio_text(gp.dist, n * n),
    }


def _cmd_order_info(args: argparse.Namespace, order: Order) -> _Result:
    body = {
        "even": order.even,
        "tau_trace": order.trace,
        "tau_norm": order.tau_norm,
        "covering_radius_sq": str(order.covering_radius_sq()),
        "group_scope": order.group_scope,
    }
    return body, None


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
    return body, None


def _cmd_membership(args: argparse.Namespace, order: Order) -> _Result:
    word = _input_word(args, order)
    mat = word_to_matrix(word, order)
    res = membership(mat)
    body: dict[str, Any] = {
        "word": format_word(word),
        "verdict": res.kind,
        "nodes_explored": res.stats.nodes_explored,
    }
    if isinstance(res, Member):
        cert = res.certificate
        round_trip = word_to_matrix(cert.to_word(), order) == mat
        body.update(certificate=str(cert), n=cert.n, round_trip_exact=round_trip)
    else:
        body.update(
            s=res.s,
            point=_kelem_json(res.point),
            witness_ratio=_kelem_json(res.ratio),
            uv=_uv_json(res.ratio.planar()),
            nearby=[{"point": _oint_json(g), "dist_sq": str(d)} for g, d in res.nearby],
            path=format_word(res.path_word),
        )
    return body, None


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
    return {"cell": _polygon_json(voronoi_cell(order)), "faces": recs}, None


def _cmd_presentation(args: argparse.Namespace, order: Order) -> _Result:
    pres = presentation(order)
    body = {
        "generators": [{"name": name, "word": format_word(w)} for name, w in pres.generators],
        # presentation() checked word_to_matrix(rel).is_identity() for every
        # relation and raises CycleNotClosed on a failure, so a returned
        # presentation has every flag true
        "relations": [{"word": format_word(rel), "verified": True} for rel in pres.relations],
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
    return body, None


def _cmd_cosets(args: argparse.Namespace, order: Order) -> _Result:
    fam = coset_family(order, args.count)
    n = len(fam.members)
    digest = hashlib.sha256()
    for s, p, q in fam.keys:
        digest.update(f"{s}:{p},{q}\n".encode())
    body = {
        "count": n,
        "members": [
            {"matrix": _mat_json(m), **_gap_point_json(gp), "coset_point": {"s": s, "num": [p, q]}}
            for m, gp, (s, p, q) in zip(fam.members, fam.points, fam.keys)
        ],
        # distinct keys separate every pair of members
        "pairs_checked": n * (n - 1) // 2,
        "all_non_member": len(set(fam.keys)) == n,
        "replaced": [_kelem_json(z) for z in fam.replaced],
        "certificates_sha256": digest.hexdigest(),
    }
    return body, None


def _cmd_arrangement(args: argparse.Namespace, order: Order) -> _Result:
    hs = enumerate_hemispheres(order, args.bound, amalgam_rectangle(order))
    statuses = face_statuses(hs)
    e = order.trace
    recs = []
    # each record is written from the HemiSet's integers: a disc's center (U/L, V/L) is
    # (a + b*t)/den in lowest terms with b = V, 2a = U - trace*V and 2*den = L
    for (u, v, l, p, q), (la, lb, ma, mb), s in zip(hs.discs, hs.owners, statuses):
        status: dict[str, Any] = {"kind": "covered"}
        if isinstance(s, Contributes):
            status = {"kind": "contributes", "witness": _kelem_json(s.witness)}
        recs.append(
            {
                "center": {"num": [(u - e * v) // 2, v], "den": l // 2},
                "uv": [_ratio_text(u, l), _ratio_text(v, l)],
                "radius_sq": _ratio_text(p, q),
                "owner": [[la, lb], [ma, mb]],
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
    return body, (hs, statuses, ((), ()))


def _cmd_amalgam(args: argparse.Namespace, order: Order) -> _Result:
    rep = amalgam_report(order, args.bound, args.plane)
    body = {
        "bound": rep.arrangement.norm_bound,
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
    return body, (rep.arrangement, rep.statuses, rep.split)


def _cmd_gap_points(args: argparse.Namespace, order: Order) -> _Result:
    pts = gap_points(order, args.count)
    reach = order.gap_reach()
    rows = [list(lattice_rows(gp.z, reach)) for gp in pts]
    # counted from the rows before any list is built
    if sum(hi - lo + 1 for point_rows in rows for _, lo, hi in point_rows) > MAX_CHECKED:
        raise OutOfScope(f"the checked lists of {args.count} gap points would hold more than {MAX_CHECKED} lattice points")
    points = [
        {
            **_gap_point_json(gp),
            # b ascending, then a ascending: key() order
            "checked": [[a, b] for b, lo, hi in point_rows for a in range(lo, hi + 1)],
            "completion": _mat_json(gp.completion),
        }
        for gp, point_rows in zip(pts, rows)
    ]
    return {"count": len(pts), "points": points}, None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pe2ford",
        description="Exact elementary-subgroup geometry over imaginary quadratic orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, formats: tuple[str, ...], handler: _Handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--disc", type=int, required=True, help="order discriminant (negative)")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", type=Path, default=None, help="write output to this file")
        return p

    add("order-info", "basic invariants of the order", ("text", "json"), _cmd_order_info)

    def add_word(p: argparse.ArgumentParser) -> None:
        given = p.add_mutually_exclusive_group(required=True)
        given.add_argument("--word", default=None, help="word such as 'r*s(2-t)'")
        given.add_argument("--seed", type=int, default=None, help="generate a random word instead")

    add_word(add("normal-form", "rewrite a word into standard form", ("text", "json"), _cmd_normal_form))

    p = add("membership", "decide elementary-subgroup membership, with a certificate", ("text", "json"), _cmd_membership)
    add_word(p)

    add("pe2-ford", "faces of the one-hemisphere Ford domain", ("text", "json"), _cmd_pe2_ford)
    add("presentation", "edge cycles and defining relations", ("text", "json"), _cmd_presentation)

    p = add("cosets", "pairwise-distinct right-coset family", ("text", "json"), _cmd_cosets)
    p.add_argument("--count", type=_COUNT, default=100, help=f"how many, at most {MAX_COUNT}")

    p = add("arrangement", "hemisphere arrangement over the straddling rectangle", ("text", "json", "svg"), _cmd_arrangement)
    p.add_argument("--bound", type=_BOUND, default=16, help=f"owner norm bound, at most {MAX_BOUND}")

    p = add("amalgam", "plane split of the arrangement and generator pools", ("text", "json", "svg"), _cmd_amalgam)
    p.add_argument("--bound", type=_BOUND, default=16, help=f"owner norm bound, at most {MAX_BOUND}")
    p.add_argument("--plane", type=_POSITIVE_FRACTION, default=PLANE, help="height, as p/q > 0")

    p = add("gap-points", "unimodular ratios outside all unit discs", ("text", "json"), _cmd_gap_points)
    p.add_argument("--count", type=_COUNT, default=100, help=f"how many, at most {MAX_COUNT}")

    return parser


# argparse keeps no state between parse_args calls, so one parser serves every call
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    # integers are arbitrary-precision, so they parse and print in full: lift
    # the int/str digit limit for this call (Pythons without one have no limit)
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv: list[str] | None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        order = make_order(args.disc)
        body, view = args.handler(args, order)
    except (WordSyntaxError, InvalidDiscriminant) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OutOfScope as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SearchExhausted, CycleNotClosed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    payload = {"command": args.command, "discriminant": order.delta, **body}
    if args.format == "json":
        text = _json_text(payload) + "\n"
    elif args.format == "svg":  # offered only by the commands that return a view
        text = svg_topview(*view)
    else:
        text = _render_text(payload)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        args.out.write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
