"""Independent output checks for the benchmark workloads.

Nothing here imports pe2ford: every verdict is re-derived with this
module's own integer and ``Fraction`` arithmetic, so a defect in the
code under test cannot also hide in the check.  Ring elements are
pairs (a, b) standing for a + b*t, with t = sqrt(delta)/2 for even
delta and t = (1 + sqrt(delta))/2 for odd delta; matrices are 4-tuples
(m11, m12, m21, m22) of such pairs and are compared up to sign.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

ONE = (1, 0)
ZERO = (0, 0)


class Ring:
    """Arithmetic in the order of discriminant delta."""

    def __init__(self, delta: int) -> None:
        self.n = -delta
        self.even = delta % 2 == 0
        # t*t = -m (even) or t - m (odd)
        self.m = self.n // 4 if self.even else (self.n + 1) // 4

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def neg(self, x):
        return (-x[0], -x[1])

    def mul(self, x, y):
        a, b = x
        c, d = y
        if self.even:
            return (a * c - self.m * b * d, a * d + b * c)
        return (a * c - self.m * b * d, a * d + b * c + b * d)

    def norm(self, x) -> int:
        a, b = x
        if self.even:
            return a * a + self.m * b * b
        return a * a + a * b + self.m * b * b

    def planar(self, x, den: int = 1) -> tuple[Fraction, Fraction]:
        """(u, v) with x/den = u + v*sqrt(n)*i."""
        a, b = x
        v = Fraction(b, 2 * den)
        return (Fraction(a, den) if self.even else Fraction(2 * a + b, 2 * den), v)

    def dist_sq(self, p: tuple[Fraction, Fraction], q: tuple[Fraction, Fraction]) -> Fraction:
        du, dv = p[0] - q[0], p[1] - q[1]
        return du * du + self.n * dv * dv

    def lattice_min_dist_sq(self, z: tuple[Fraction, Fraction]) -> Fraction:
        """Squared distance from z to the nearest lattice point, by a box scan.

        Each lattice row b has its nearest point within 1/2 in u, and the
        nearest row is within one row of 2v, so a box of +-3 around z
        holds the minimiser.
        """
        u, v = z
        b0 = math.floor(2 * v)
        best = None
        for b in range(b0 - 3, b0 + 4):
            shift = Fraction(0) if self.even else Fraction(b, 2)
            a0 = math.floor(u - shift)
            for a in range(a0 - 3, a0 + 4):
                d = self.dist_sq(z, self.planar((a, b)))
                if best is None or d < best:
                    best = d
        return best

    # matrices -------------------------------------------------------

    def matmul(self, x, y):
        a, b, c, d = x
        e, f, g, h = y
        mul, add = self.mul, self.add
        return (
            add(mul(a, e), mul(b, g)),
            add(mul(a, f), mul(b, h)),
            add(mul(c, e), mul(d, g)),
            add(mul(c, f), mul(d, h)),
        )

    def det(self, x):
        a, b, c, d = x
        return self.add(self.mul(a, d), self.neg(self.mul(b, c)))

    def word_matrix(self, letters):
        """Product of letters, leftmost first; a letter is None for r or a pair for s(pair)."""
        m = (ONE, ZERO, ZERO, ONE)
        for letter in letters:
            if letter is None:
                m = (m[1], self.neg(m[0]), m[3], self.neg(m[2]))  # m * r
            else:
                m = (m[0], self.add(m[1], self.mul(m[0], letter)), m[2], self.add(m[3], self.mul(m[2], letter)))
        return m


def same_up_to_sign(ring: Ring, x, y) -> bool:
    x = tuple(tuple(e) for e in x)
    y = tuple(tuple(e) for e in y)
    return x == y or x == tuple(ring.neg(e) for e in y)


def standard_form_letters(alphas):
    """Letters of s(a_n) r ... r s(a_0) for alphas = (a_0, ..., a_n)."""
    out = []
    for i in range(len(alphas) - 1, -1, -1):
        out.append(tuple(alphas[i]))
        if i > 0:
            out.append(None)
    return out


def interior_ok(alphas) -> bool:
    return all(not (b == 0 and a in (-1, 0, 1)) for a, b in alphas[1:-1])


# words -----------------------------------------------------------------


def check_normal_form(spec: dict, out: dict) -> str | None:
    """Normal-form round trip: interior valid, every matrix equals the word's."""
    ring = Ring(spec["delta"])
    want = ring.word_matrix(spec["letters"])
    if not interior_ok(out["alphas"]):
        return "interior coefficient is 0 or a unit"
    if not same_up_to_sign(ring, ring.word_matrix(standard_form_letters(out["alphas"])), want):
        return "normal form does not rebuild the word's matrix"
    if not (same_up_to_sign(ring, out["matrix"], want) and same_up_to_sign(ring, out["round_trip"], want)):
        return "reported matrix differs from the word's product"
    return None


def check_membership(spec: dict, out: dict) -> str | None:
    """Every input is a product of generators, so the verdict must be a rebuilding Member."""
    ring = Ring(spec["delta"])
    if out["kind"] != "member":
        return f"verdict {out['kind']} for a product of generators"
    if not interior_ok(out["alphas"]):
        return "certificate interior coefficient is 0 or a unit"
    if not same_up_to_sign(ring, ring.word_matrix(standard_form_letters(out["alphas"])), ring.word_matrix(spec["letters"])):
        return "certificate does not rebuild the matrix"
    return None


# cosets ----------------------------------------------------------------


def _kelem(ring: Ring, obj) -> tuple[Fraction, Fraction]:
    return ring.planar(tuple(obj["num"]), obj["den"])


def _ratio_matches(ring: Ring, ratio_obj, lam, mu) -> bool:
    # num/den == lam/mu  <=>  num*mu == lam*den
    return ring.mul(tuple(ratio_obj["num"]), tuple(mu)) == ring.mul(tuple(lam), (ratio_obj["den"], 0))


def _completion_ok(ring: Ring, entries, lam, mu) -> bool:
    m = tuple(tuple(e) for e in entries)
    col = (tuple(lam), tuple(mu))
    return ring.det(m) == ONE and (
        (m[0], m[2]) == col or (m[0], m[2]) == (ring.neg(col[0]), ring.neg(col[1]))
    )


def _gap_problem(ring: Ring, z, reported: str | None = None) -> str | None:
    d = ring.lattice_min_dist_sq(z)
    if d <= 1:
        return f"ratio {z} lies within distance 1 of a lattice point"
    if reported is not None and Fraction(reported) != d:
        return f"min_dist_sq {reported} differs from the box scan {d}"
    return None


def check_cosets(spec: dict, payload: dict) -> str | None:
    ring = Ring(spec["delta"])
    n = spec["count"]
    if payload["discriminant"] != spec["delta"] or payload["count"] != n or len(payload["members"]) != n:
        return "wrong discriminant or member count"
    if payload["pairs_checked"] != n * (n - 1) // 2 or payload["all_non_member"] is not True:
        return "pairwise refutations incomplete"
    seen = set()
    for rec in payload["members"]:
        if not _completion_ok(ring, rec["matrix"]["entries"], rec["lam"], rec["mu"]):
            return "member matrix is not a completion of (lam, mu)"
        if not _ratio_matches(ring, rec["ratio"], rec["lam"], rec["mu"]):
            return "member ratio is not lam/mu"
        z = _kelem(ring, rec["ratio"])
        if [str(c) for c in z] != rec["uv"]:
            return "member uv differs from its ratio"
        problem = _gap_problem(ring, z, rec["min_dist_sq"])
        if problem:
            return problem
        seen.add(z)
    if len(seen) != n:
        return "member ratios repeat"
    for obj in payload["replaced"]:
        problem = _gap_problem(ring, _kelem(ring, obj))
        if problem:
            return "replaced " + problem
    return None


def check_gap_points(spec: dict, payload: dict) -> str | None:
    ring = Ring(spec["delta"])
    n = spec["count"]
    if payload["discriminant"] != spec["delta"] or payload["count"] != n or len(payload["points"]) != n:
        return "wrong discriminant or point count"
    seen = set()
    for rec in payload["points"]:
        if not _completion_ok(ring, rec["completion"]["entries"], rec["lam"], rec["mu"]):
            return "completion is not a determinant-one lift of (lam, mu)"
        if not _ratio_matches(ring, rec["ratio"], rec["lam"], rec["mu"]):
            return "ratio is not lam/mu"
        z = _kelem(ring, rec["ratio"])
        if not (0 <= z[0] < 1 and 0 <= z[1] < Fraction(1, 2)):
            return f"ratio {z} outside the half-open band"
        problem = _gap_problem(ring, z, rec["min_dist_sq"])
        if problem:
            return problem
        seen.add(z)
    if len(seen) != n:
        return "gap ratios repeat"
    return None


def check_normalizer(spec: dict, alpha) -> str | None:
    """g*s(alpha)*g^-1 matches its closed form and the shifted ratio is a gap point."""
    ring = Ring(spec["delta"])
    lam, mu, g = tuple(spec["lam"]), tuple(spec["mu"]), tuple(tuple(e) for e in spec["g"])
    alpha = tuple(alpha)
    if alpha == ZERO:
        return "zero shift"
    if not _completion_ok(ring, g, lam, mu):
        return "input is not a completion of its gap pair"
    problem = _gap_problem(ring, _ratio_uv(ring, lam, mu))
    if problem:
        return "input " + problem
    g_inv = (g[3], ring.neg(g[1]), ring.neg(g[2]), g[0])
    conj = ring.matmul(ring.matmul(g, (ONE, alpha, ZERO, ONE)), g_inv)
    a_lm = ring.mul(alpha, ring.mul(lam, mu))
    closed = (
        ring.add(ONE, ring.neg(a_lm)),
        ring.mul(alpha, ring.mul(lam, lam)),
        ring.neg(ring.mul(alpha, ring.mul(mu, mu))),
        ring.add(ONE, a_lm),
    )
    if not same_up_to_sign(ring, conj, closed):
        return "conjugate differs from the closed-form entries"
    # lam/mu - 1/(alpha*mu^2) = (lam*alpha*mu - 1) / (alpha*mu^2)
    shifted = _ratio_uv(ring, ring.add(ring.mul(lam, ring.mul(alpha, mu)), ring.neg(ONE)), ring.mul(alpha, ring.mul(mu, mu)))
    problem = _gap_problem(ring, shifted)
    return "shifted " + problem if problem else None


def _ratio_uv(ring: Ring, num, den) -> tuple[Fraction, Fraction]:
    """Planar coordinates of num/den, rationalised by the conjugate of den."""
    a, b = den
    conj = (a, -b) if ring.even else (a + b, -b)
    top = ring.mul(num, conj)
    return ring.planar(top, ring.norm(den))


# ford-split ------------------------------------------------------------


def _hemispheres(ring: Ring, payload: dict):
    out = []
    for rec in payload["hemispheres"]:
        out.append((_kelem(ring, rec["center"]), Fraction(rec["radius_sq"]), rec))
    return out


def check_arrangement(spec: dict, payload: dict) -> str | None:
    ring = Ring(spec["delta"])
    if payload["discriminant"] != spec["delta"] or payload["bound"] != spec["bound"]:
        return "wrong discriminant or bound"
    hemis = _hemispheres(ring, payload)
    contributing = 0
    for i, (c, rsq, rec) in enumerate(hemis):
        lam, mu = (tuple(x) for x in rec["owner"])
        if ring.norm(mu) > spec["bound"] or rsq != Fraction(1, ring.norm(mu)):
            return f"hemisphere {i}: radius does not match its owner"
        if not _ratio_matches(ring, rec["center"], lam, mu):
            return f"hemisphere {i}: center is not lam/mu"
        if [str(x) for x in c] != rec["uv"]:
            return f"hemisphere {i}: uv differs from its center"
        status = rec["status"]
        if status["kind"] != "contributes":
            continue
        contributing += 1
        w = _kelem(ring, status["witness"])
        own = rsq - ring.dist_sq(w, c)
        if own <= 0:
            return f"hemisphere {i}: witness outside its disc"
        for j, (c2, r2, _) in enumerate(hemis):
            if j != i and r2 - ring.dist_sq(w, c2) >= own:
                return f"hemisphere {i}: witness not strictly above hemisphere {j}"
    if payload["contributing"] != contributing or payload["covered"] != len(hemis) - contributing:
        return "contributing/covered totals disagree with the statuses"
    return None


def check_amalgam(spec: dict, payload: dict, arrangement: dict | None) -> str | None:
    """Flags consistent, both certificates true, faces = contributing window hemispheres."""
    ring = Ring(spec["delta"])
    if payload["discriminant"] != spec["delta"] or payload["bound"] != spec["bound"]:
        return "wrong discriminant or bound"
    if payload["overlap_matches_n"] is not True or payload["hom_check"] is not True:
        return "overlap_matches_n or hom_check is not true"
    faces = payload["faces"]
    if payload["above"] != [f["label"] for f in faces if f["above"]]:
        return "above list disagrees with the face flags"
    if payload["below"] != [f["label"] for f in faces if f["below"]]:
        return "below list disagrees with the face flags"
    if payload["overlap"] != [f["label"] for f in faces if f["above"] and f["below"]]:
        return "overlap list disagrees with the face flags"
    for f in faces:
        if ring.det(tuple(tuple(e) for e in f["pairing"]["entries"])) != ONE:
            return f"face {f['label']}: pairing determinant is not 1"
    if arrangement is None:
        return "no arrangement payload to compare against"
    half = Fraction(1, 2)
    want = set()
    for c, _, rec in _hemispheres(ring, arrangement):
        if rec["status"]["kind"] == "contributes" and -half <= c[0] < half and 0 <= c[1] <= half:
            want.add(c)
    got = {_kelem(ring, f["center"]) for f in faces if f["kind"] == "hemisphere"}
    if got != want:
        return "hemisphere faces differ from the contributing window hemispheres"
    return None


def check_svg(spec: dict, text: str, arrangement: dict | None) -> str | None:
    """One circle per hemisphere, at its place and size, white exactly when contributing."""
    ring = Ring(spec["delta"])
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return f"svg does not parse: {exc}"
    circles = [el.attrib for el in root.iter("{http://www.w3.org/2000/svg}circle")]
    if arrangement is None:
        return "no arrangement payload to compare against"
    hemis = _hemispheres(ring, arrangement)
    if len(circles) != len(hemis):
        return f"{len(circles)} circles for {len(hemis)} hemispheres"
    white = sum(1 for a in circles if a.get("fill") == "#ffffff")
    if white != arrangement["contributing"]:
        return f"{white} white circles for {arrangement['contributing']} contributing hemispheres"
    sqrt_n = math.sqrt(ring.n)
    pool = [(float(a["cx"]), float(a["cy"]), float(a["r"])) for a in circles]
    for (u, v), rsq, _ in hemis:
        want = (float(v) * sqrt_n * 100, float(u) * 100, math.sqrt(rsq) * 100)
        hit = next((k for k, p in enumerate(pool) if all(abs(x - y) < 0.002 for x, y in zip(p, want))), None)
        if hit is None:
            return f"no circle for the hemisphere at ({u}, {v})"
        pool.pop(hit)
    return None


# dispatch ----------------------------------------------------------------


class Checker:
    """Checks one round of outputs; JSON payloads are validated against docs/schemas."""

    def __init__(self, schema_dir: Path) -> None:
        self.schema_dir = schema_dir
        self._validators: dict = {}

    def _schema_problem(self, command: str, payload: dict) -> str | None:
        # imported here so that timed set-up processes do not load it
        import jsonschema

        if command not in self._validators:
            schema = json.loads((self.schema_dir / f"{command}.schema.json").read_text(encoding="utf-8"))
            self._validators[command] = jsonschema.Draft202012Validator(schema)
        err = jsonschema.exceptions.best_match(self._validators[command].iter_errors(payload))
        return None if err is None else f"schema: {err.message}"

    def check_round(self, jobs, outputs: dict) -> dict[str, str]:
        """Map job key -> reason for every output of this round that fails."""
        failed: dict[str, str] = {}
        payloads: dict[str, dict] = {}
        # JSON first, so the SVG and amalgam checks can see the arrangements
        ordered = sorted(jobs, key=lambda j: j.kind in ("amalgam", "svg"))
        for job in ordered:
            out = outputs[job.key]
            try:
                problem = self._check_one(job, out, payloads)
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                problem = f"malformed output: {exc!r}"
            if problem:
                failed[job.key] = problem
        return failed

    def _check_one(self, job, out, payloads: dict) -> str | None:
        spec, kind = job.spec, job.kind
        if isinstance(out, dict) and "error" in out:
            return out["error"]
        if kind == "normal-form":
            return check_normal_form(spec, out)
        if kind == "membership":
            return check_membership(spec, out)
        if kind == "normalizer":
            return check_normalizer(spec, out)
        if out["exit"] != 0:
            return f"exit code {out['exit']}"
        if kind == "svg":
            return check_svg(spec, out["text"], payloads.get(("arrangement", spec["delta"], spec["bound"])))
        payload = json.loads(out["text"])
        problem = self._schema_problem(kind, payload)
        if problem:
            return problem
        if kind == "arrangement":
            payloads[("arrangement", spec["delta"], spec["bound"])] = payload
            return check_arrangement(spec, payload)
        if kind == "amalgam":
            return check_amalgam(spec, payload, payloads.get(("arrangement", spec["delta"], spec["bound"])))
        if kind == "cosets":
            return check_cosets(spec, payload)
        if kind == "gap-points":
            return check_gap_points(spec, payload)
        raise ValueError(f"no check for job kind {kind}")
