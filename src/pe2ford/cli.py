"""Command-line front end for the package: one payload per command.

`main` parses the arguments with one parser built at import, makes the
order once, and hands both to the subcommand's handler.  The parser is
the one command table: each subcommand names its handler there, and
`arrangement` and `amalgam` also name a draw function.  The
handler computes its result once and returns the body of one payload,
its own fields only; `main` puts the `command` and `discriminant` header
in front.  The payload is the dict that `--format json` prints and that
the schemas under docs/schemas describe.  Its three long record lists,
the `gap-points` points, the `cosets` members and the `arrangement`
hemispheres, are each one _Records value: the record kind's layout
function, which builds one record's dict from its leaves, and one tuple
of leaves per record.  `_json_text` prints the payload with the bytes
of `json.dumps(payload, indent=2, sort_keys=True)` (each record list
read as its dicts), through the C string escaper instead of the
stdlib's pure-Python indenting encoder: it writes each int pair [a, b]
in place from one template per depth, sorts and escapes the keys of
each dict shape once per call, and writes each record with one
`template % leaves`, from a % template that it derives once per call
from the layout itself.  Gap points are written from the integers the
gap stream holds: `checked` from lattice_rows on the unreduced ratio
(xa + xb*t)/N, and the `gap-points` completion from the eight ints of
completion_entries, signed by moebius.entry_sign, the rule Mat stores
by.  No KElem, OInt, Mat, pair or Fraction is built for a printed
point, and no dict: per point there is its GapPoint, its list of row
triples, the completion's int tuple (and the int rows of its column
echelon), its `checked` list, its three ratio strings and its tuple of
leaves.  A cosets member is printed from the eight ints of the Mat that
coset_family built for it.
`--format text` renders the same payload one `key: value` line at a
time, a record list as one line per dict its layout builds.  A command
offers `--format svg` exactly when it has a draw function, which `main`
runs in place of the handler: it draws from the HemiSet, its face
statuses and its plane split alone (`arrangement` has no split), so no
payload, record row, face record, wall, generator word or hom check is
built for an SVG.

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
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterator

from .arrangement import Contributes, FaceStatus, HemiSet, completion_entries, enumerate_hemispheres, face_statuses, svg_topview
from .errors import (
    CycleNotClosed,
    InvalidDiscriminant,
    OutOfScope,
    SearchExhausted,
    WordSyntaxError,
)
from .ford import HemiFace, amalgam_rectangle, pe2_ford_faces, presentation, voronoi_cell
from .moebius import Mat, entry_sign
from .orders import KElem, OInt, Order, lattice_rows, make_order
from .subgroups import PLANE, GapPoint, amalgam_report, amalgam_split, coset_family, gap_points
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

# a handler returns its payload body, and a draw function the text of --format svg
_Handler = Callable[[argparse.Namespace, Order], dict[str, Any]]
_Draw = Callable[[argparse.Namespace, Order], str]


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
# at -15, take 4.1 s CPU and 161 MiB (amalgam) and 4.9-6.7 s and 530 MiB
# (arrangement --format json, whose payload lists all 229,082 hemispheres in
# 86 MB of text; enumerating and classifying them takes 4.0 s and 157 MiB) on
# a shared 2-vCPU VM (Python 3.11.7); before the face walks drew their rivals
# lazily, amalgam at -15 and bound 512 took 74 s and 1.2 GB.  The hemisphere
# count grows as bound^2
MAX_BOUND = 1024
_BOUND = _checked(int, lambda x: 0 < x <= MAX_BOUND, f"a bound from 1 to {MAX_BOUND}")
# lattice points that one gap-points payload may list under `checked`, summed
# over its points; each list grows with sqrt(|delta|), so a request past this
# exits 3.  Each point's lattice_rows are read once: their widths give the
# list's size in O(rows) before any list is built, and the same rows are then
# expanded into it.  At -100000000003, --count 10 --format json lists 980,977
# points in 1.6 s CPU and 294 MiB on a shared 2-vCPU VM; at
# -100000000000003 the third point alone has 3.7 million
MAX_CHECKED = 1_000_000
_POSITIVE_FRACTION = _checked(Fraction, lambda x: x > 0, "positive")


def _oint_json(x: OInt) -> list[int]:
    return [x.a, x.b]


def _mat_layout(a11: int, b11: int, a12: int, b12: int, a21: int, b21: int, a22: int, b22: int) -> dict[str, Any]:
    return {"entries": [[a11, b11], [a12, b12], [a21, b21], [a22, b22]], "sign_canonical": True}


def _mat_leaves(m: Mat) -> tuple[int, ...]:
    return (m.m11.a, m.m11.b, m.m12.a, m.m12.b, m.m21.a, m.m21.b, m.m22.a, m.m22.b)


def _mat_json(m: Mat) -> dict[str, Any]:
    return _mat_layout(*_mat_leaves(m))


def _entries_leaves(e: tuple[int, ...]) -> tuple[int, ...]:
    """_mat_leaves of the Mat with entry ints e, from the ints: entry_sign is the sign Mat stores by."""
    return e if entry_sign(e) > 0 else tuple(-x for x in e)


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


class _Records:
    """A payload list of records of one kind: the dicts layout(*row), one per row.

    Each row is the record's leaves in the layout's argument order; the
    layout only places them, so it runs on any leaves.  Iterating yields
    the dicts (what `--format text` and json.dumps(default=list) read);
    _json_text writes the rows through one template derived from the
    layout.
    """

    __slots__ = ("layout", "rows")

    def __init__(self, layout: Callable[..., dict[str, Any]], rows: list[tuple]) -> None:
        self.layout = layout
        self.rows = rows

    def __iter__(self) -> Iterator[dict[str, Any]]:
        layout = self.layout
        return (layout(*row) for row in self.rows)

    def __len__(self) -> int:
        return len(self.rows)


def _text_value(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return "(" + ", ".join(_text_value(v) for v in value) + ")"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}={_text_value(v)}" for k, v in value.items()) + "}"
    return "none" if value is None else str(value)


class _Slot:
    """Leaf i of a record, placed by its layout while _json_text derives the record's template."""

    __slots__ = ("i",)

    def __init__(self, i: int) -> None:
        self.i = i


# the JSON text of each leaf type, looked up by exact type, so a subclass is no leaf;
# a _Slot is written as its number between two NULs, which the escaper writes as \u0000
_JSON_LEAF: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
    _Slot: lambda s: f"\x00{s.i}\x00",
}


def _json_text(value: Any) -> str:
    """json.dumps(value, indent=2, sort_keys=True) for payload values, without its pure-Python encoder.

    Strings and keys go through the stdlib's C escaper, ints through
    int.__repr__, lists and tuples become arrays, and a _Records value
    becomes the array of its records.  A str, int, bool or None item is
    rendered in place by its _JSON_LEAF entry, and a list of exactly two
    exact ints, such as an order element [a, b], by the pair template of
    its depth, whose %d writes an int as int.__repr__ does; only any
    other list, tuple or dict item costs a recursive call.

    A payload repeats a few dict shapes many times, so the call keeps one
    small dict from (a dict's keys in insertion order, its depth) to its
    sorted keys, each with the text in front of its value: the separator,
    the indentation and the escaped "key": .  A shape is sorted, checked
    and escaped on its first meeting, and the newline-and-indent strings
    and the pair template of each depth are built once.

    A record list is written from one % template per (layout, depth).
    On its first meeting the call writes the layout run on numbered
    _Slot leaves with this same code, so the template holds the layout's
    text exactly, with a %s where each slot was.  Each record is then
    one `template % leaves`: an exact int leaf as %s writes it, which is
    int.__repr__, and any other leaf as this code writes it at the depth
    of its slot (a str through the escaper, a list or dict such as
    `checked` or a status recursively).  The shapes, pads and templates
    live for the one call.  Any other type, floats and subclasses
    included, and a key that is no exact str (a str subclass too, even
    where an equal str key made the shape) raise TypeError.
    """
    shapes: dict[tuple[tuple, int], list[tuple[str, str]]] = {}
    # per depth: the newline and indent of a container's closing bracket and
    # of its items, and the template of an int pair among its items
    pads: list[tuple[str, str, str]] = []
    # per (layout, depth): the template, the leaves in template order, and the depth of each
    forms: dict[tuple[Callable, int], tuple[str, Callable[[tuple], tuple], list[int]]] = {}

    def form(layout: Callable[..., dict[str, Any]], n: int, depth: int) -> tuple[str, Callable[[tuple], tuple], list[int]]:
        # the text, its first line indented for depth as the caller writes it, splits
        # at the NULs into literal, slot number, literal, ..., literal
        parts = ("  " * depth + write(layout(*map(_Slot, range(n))), depth)).split("\x00")
        slots = [int(i) for i in parts[1::2]]
        # each slot opens its own line, indented two spaces per depth
        lines = [p[p.rfind("\n") + 1 :] for p in parts[0:-1:2]]
        depths = [(len(line) - len(line.lstrip(" "))) // 2 for line in lines]
        pick = itemgetter(*slots) if len(slots) > 1 else lambda row: tuple(row[i] for i in slots)
        return "%s".join(p.replace("%", "%%") for p in parts[0::2])[2 * depth :], pick, depths

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
        if kind is _Records:
            rows = value.rows
            if not rows:
                return "[]"
            key = (value.layout, depth + 1)
            if key not in forms:
                forms[key] = form(value.layout, len(rows[0]), depth + 1)
            template, pick, depths = forms[key]
            for row in rows:
                leaves = [
                    x if type(x) is int else encode_basestring_ascii(x) if type(x) is str else write(x, d)
                    for x, d in zip(pick(row), depths)
                ]
                texts.append(template % tuple(leaves))
            return "[" + inner + ("," + inner).join(texts) + nl + "]"
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
        items = value if isinstance(value, (list, _Records)) else [value]
        lines += [f"{key.replace('_', ' ')}: {_text_value(item)}" for item in items or [None]]
    return "\n".join(lines) + "\n"


def _input_word(args: argparse.Namespace, order: Order) -> Word:
    if args.word is not None:
        return parse_word(args.word, order)
    return random_pe2_word(order, args.seed)


def _gap_point_layout(a: int, b: int, c: int, d: int, xa: int, xb: int, den: int, u: str, v: str, dist_sq: str) -> dict[str, Any]:
    return {"lam": [a, b], "mu": [c, d], "ratio": {"num": [xa, xb], "den": den}, "uv": [u, v], "min_dist_sq": dist_sq}


def _gap_point_leaves(gp: GapPoint) -> tuple:
    # written from the point's integers: the ratio (xa + xb*t)/N in lowest
    # terms, as KElem.of reduces it, at planar ((2xa + trace*xb)/2N, xb/2N)
    xa, xb, n = gp.xa, gp.xb, gp.norm
    g, l = math.gcd(xa, xb, n), 2 * n
    return (
        gp.a, gp.b, gp.c, gp.d, xa // g, xb // g, n // g,
        _ratio_text(2 * xa + gp.order.trace * xb, l), _ratio_text(xb, l), _ratio_text(gp.dist, n * n),
    )


def _cmd_order_info(args: argparse.Namespace, order: Order) -> dict[str, Any]:
    body = {
        "even": order.even,
        "tau_trace": order.trace,
        "tau_norm": order.tau_norm,
        "covering_radius_sq": str(order.covering_radius_sq()),
        "group_scope": order.group_scope,
    }
    return body


def _cmd_normal_form(args: argparse.Namespace, order: Order) -> dict[str, Any]:
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
    return body


def _cmd_membership(args: argparse.Namespace, order: Order) -> dict[str, Any]:
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
    return body


def _cmd_pe2_ford(args: argparse.Namespace, order: Order) -> dict[str, Any]:
    recs = []
    for f in pe2_ford_faces(order):
        rec: dict[str, Any]
        if isinstance(f, HemiFace):
            rec = {"kind": "hemi", "center": _oint_json(f.center)}
        else:
            rec = {"kind": "wall", "start": _uv_json(f.start), "end": _uv_json(f.end), "toward": _oint_json(f.toward)}
        rec.update(pairing=_mat_json(f.pairing), pairing_word=format_word(f.pairing_word))
        recs.append(rec)
    return {"cell": _polygon_json(voronoi_cell(order)), "faces": recs}


def _cmd_presentation(args: argparse.Namespace, order: Order) -> dict[str, Any]:
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
    return body


def _member_layout(*leaves: Any) -> dict[str, Any]:
    # the member Mat's eight ints, its gap point's ten leaves, then its coset key (s, p, q)
    s, p, q = leaves[18:]
    return {"matrix": _mat_layout(*leaves[:8]), **_gap_point_layout(*leaves[8:18]), "coset_point": {"s": s, "num": [p, q]}}


def _cmd_cosets(args: argparse.Namespace, order: Order) -> dict[str, Any]:
    fam = coset_family(order, args.count)
    n = len(fam.members)
    digest = hashlib.sha256()
    for s, p, q in fam.keys:
        digest.update(f"{s}:{p},{q}\n".encode())
    body = {
        "count": n,
        "members": _Records(
            _member_layout,
            [_mat_leaves(m) + _gap_point_leaves(gp) + key for m, gp, key in zip(fam.members, fam.points, fam.keys)],
        ),
        # distinct keys separate every pair of members
        "pairs_checked": n * (n - 1) // 2,
        "all_non_member": len(set(fam.keys)) == n,
        "replaced": [_kelem_json(z) for z in fam.replaced],
        "certificates_sha256": digest.hexdigest(),
    }
    return body


def _hemisphere_layout(
    a: int, b: int, den: int, u: str, v: str, radius_sq: str, la: int, lb: int, ma: int, mb: int, status: dict[str, Any]
) -> dict[str, Any]:
    return {
        "center": {"num": [a, b], "den": den},
        "uv": [u, v],
        "radius_sq": radius_sq,
        "owner": [[la, lb], [ma, mb]],
        "status": status,
    }


def _arrangement(args: argparse.Namespace, order: Order) -> tuple[HemiSet, tuple[FaceStatus, ...]]:
    hs = enumerate_hemispheres(order, args.bound, amalgam_rectangle(order))
    return hs, face_statuses(hs)


def _cmd_arrangement(args: argparse.Namespace, order: Order) -> dict[str, Any]:
    hs, statuses = _arrangement(args, order)
    e = order.trace
    rows = []
    # each record is written from the HemiSet's integers: a disc's center (U/L, V/L) is
    # (a + b*t)/den in lowest terms with b = V, 2a = U - trace*V and 2*den = L
    for (u, v, l, p, q), owner, s in zip(hs.discs, hs.owners, statuses):
        status = {"kind": "contributes", "witness": _kelem_json(s.witness)} if isinstance(s, Contributes) else {"kind": "covered"}
        rows.append(((u - e * v) // 2, v, l // 2, _ratio_text(u, l), _ratio_text(v, l), _ratio_text(p, q), *owner, status))
    contributing = sum(isinstance(s, Contributes) for s in statuses)
    body = {
        "bound": hs.norm_bound,
        "window": _polygon_json(hs.window),
        "hemispheres": _Records(_hemisphere_layout, rows),
        "contributing": contributing,
        "covered": len(rows) - contributing,
    }
    return body


def _draw_arrangement(args: argparse.Namespace, order: Order) -> str:
    # no plane split, so every circle has the neutral stroke
    return svg_topview(*_arrangement(args, order), ((), ()))


def _cmd_amalgam(args: argparse.Namespace, order: Order) -> dict[str, Any]:
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
    return body


def _draw_amalgam(args: argparse.Namespace, order: Order) -> str:
    return svg_topview(*amalgam_split(order, args.bound, args.plane))


def _gap_points_layout(*leaves: Any) -> dict[str, Any]:
    # the gap point's ten leaves, its checked list, then its completion's eight ints
    return {**_gap_point_layout(*leaves[:10]), "checked": leaves[10], "completion": _mat_layout(*leaves[11:])}


def _cmd_gap_points(args: argparse.Namespace, order: Order) -> dict[str, Any]:
    pts = gap_points(order, args.count)
    reach = order.gap_reach()
    # the rows of the unreduced ratio (xa + xb*t)/N are those of the reduced one
    rows = [list(lattice_rows(order, gp.xa, gp.xb, gp.norm, reach)) for gp in pts]
    # counted from the rows before any list is built
    if sum(hi - lo + 1 for point_rows in rows for _, lo, hi in point_rows) > MAX_CHECKED:
        raise OutOfScope(f"the checked lists of {args.count} gap points would hold more than {MAX_CHECKED} lattice points")
    points = [
        # b ascending, then a ascending: key() order; pair_scan already ran the unit test
        _gap_point_leaves(gp)
        + ([[a, b] for b, lo, hi in point_rows for a in range(lo, hi + 1)],)
        + _entries_leaves(completion_entries(order, gp.a, gp.b, gp.c, gp.d))
        for gp, point_rows in zip(pts, rows)
    ]
    return {"count": len(pts), "points": _Records(_gap_points_layout, points)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pe2ford",
        description="Exact elementary-subgroup geometry over imaginary quadratic orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler: _Handler, draw: _Draw | None = None) -> argparse.ArgumentParser:
        # a command offers --format svg exactly when it has a draw function
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, draw=draw)
        p.add_argument("--disc", type=int, required=True, help="order discriminant (negative)")
        p.add_argument("--format", choices=("text", "json", "svg") if draw else ("text", "json"), default="text")
        p.add_argument("--out", type=Path, default=None, help="write output to this file")
        return p

    add("order-info", "basic invariants of the order", _cmd_order_info)

    def add_word(p: argparse.ArgumentParser) -> None:
        given = p.add_mutually_exclusive_group(required=True)
        given.add_argument("--word", default=None, help="word such as 'r*s(2-t)'")
        given.add_argument("--seed", type=int, default=None, help="generate a random word instead")

    add_word(add("normal-form", "rewrite a word into standard form", _cmd_normal_form))

    p = add("membership", "decide elementary-subgroup membership, with a certificate", _cmd_membership)
    add_word(p)

    add("pe2-ford", "faces of the one-hemisphere Ford domain", _cmd_pe2_ford)
    add("presentation", "edge cycles and defining relations", _cmd_presentation)

    p = add("cosets", "pairwise-distinct right-coset family", _cmd_cosets)
    p.add_argument("--count", type=_COUNT, default=100, help=f"how many, at most {MAX_COUNT}")

    p = add("arrangement", "hemisphere arrangement over the straddling rectangle", _cmd_arrangement, _draw_arrangement)
    p.add_argument("--bound", type=_BOUND, default=16, help=f"owner norm bound, at most {MAX_BOUND}")

    p = add("amalgam", "plane split of the arrangement and generator pools", _cmd_amalgam, _draw_amalgam)
    p.add_argument("--bound", type=_BOUND, default=16, help=f"owner norm bound, at most {MAX_BOUND}")
    p.add_argument("--plane", type=_POSITIVE_FRACTION, default=PLANE, help="height, as p/q > 0")

    p = add("gap-points", "unimodular ratios outside all unit discs", _cmd_gap_points)
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
        if args.format == "svg":  # offered only by the commands that have a draw function
            text = args.draw(args, order)
        else:
            payload = {"command": args.command, "discriminant": order.delta, **args.handler(args, order)}
            text = _json_text(payload) + "\n" if args.format == "json" else _render_text(payload)
    except (WordSyntaxError, InvalidDiscriminant) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OutOfScope as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SearchExhausted, CycleNotClosed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
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
