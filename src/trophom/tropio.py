"""Parsing and serialization of tropical polynomials and fans.

Polynomials are max-plus: f(x) = max over terms of (coefficient + <exponent, x>).
The .trop grammar:

    poly  := "max" "(" term ("," term)* ")"
    term  := part ("+" part)*
    part  := coeff | mono
    mono  := int "*" var | var
    var   := "x" int            (the variable index, from 1)
    coeff := int | int "/" int
    int   := [+-]?[0-9]+

Digits are ASCII.  Whitespace (space, tab, CR or LF) may sit between parts,
around "max", "(", ",", ")", "+", "*" and "/", and between "x" and its
index, but not between a sign and its digits.  A term's parts come in any
order: its constants sum to its coefficient and its monomials to its
exponent vector.

The .fan format is line oriented: "dim D", then "ray I: a1 ... aD" lines,
then "cone: i j k" lines listing maximal cones by ray index, each ray once.
Keywords are whole words, and integers are read by the .trop rule above.
All faces of the listed cones are implied.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .exactla import basis_completion, int_rows, primitive_vector
from .polyhedra import QPolyhedron, convex_hull


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = " at line %d" % line
            if col is not None:
                loc += ", column %d" % col
        super().__init__(message + loc)
        self.line = line
        self.col = col


class FanError(ValueError):
    pass


@dataclass(frozen=True)
class TropicalPolynomial:
    n_vars: int
    terms: tuple  # ((exponent tuple, Fraction coefficient), ...) sorted

    def __post_init__(self):
        first = {}
        for i, (e, c) in enumerate(self.terms):
            if len(e) != self.n_vars:
                raise ValueError("exponent %d %r has %d coordinates, not %d"
                                 % (i, e, len(e), self.n_vars))
            if first.setdefault(e, i) != i:
                raise ValueError("exponents %d and %d are both %r" % (first[e], i, e))

    @classmethod
    def make(cls, terms, n_vars):
        terms = list(terms)
        norm = tuple(sorted(zip(int_rows((e for e, c in terms), "exponent"),
                                (Fraction(c) for e, c in terms))))
        return cls(n_vars, norm)

    def padded(self, n_vars):
        """Embed into a larger variable set by zero-padding exponents."""
        if n_vars < self.n_vars:
            raise ValueError("cannot shrink the variable count")
        if n_vars == self.n_vars:
            return self
        return TropicalPolynomial.make(
            [(e + (0,) * (n_vars - self.n_vars), c) for e, c in self.terms], n_vars)


def _fail(text, message, pos):
    """Raise ParseError at offset pos of text, as line and column from 1."""
    raise ParseError(message, text.count("\n", 0, pos) + 1,
                     pos - text.rfind("\n", 0, pos))


# Both readers take integers by this one rule.  Not \d or str.isdigit: they
# take digits of other scripts, which int() then reads or rejects.
_INT = r"[+-]?[0-9]+"
_INTEGER = re.compile(_INT)
_WS = r"[ \t\r\n]*"
# a token of the frame, between whitespace; empty at anything else
_TOKEN = re.compile("%s(max|[(),+]|)%s" % (_WS, _WS))
# one part of a term, at an offset past whitespace.  The last group the
# match reaches names the part read, or the place where it stops short
_PART = re.compile(r"""
    (?P<x>x) {W} (?P<index>{I})?
  | (?P<n>{I}) (?: {W} (?P<slash>/) {W} (?P<den>{I})?
                 | {W} (?P<star>\*) {W} (?: (?P<kx>x) {W} (?P<kindex>{I})? )? )?
""".format(W=_WS, I=_INT), re.X)
_SHORT = {"x": "expected an integer", "kx": "expected an integer",
          "slash": "expected an integer", "star": "expected 'x'"}


def _expect(text, pos, token):
    """The offset past token and the whitespace around it, at pos."""
    m = _TOKEN.match(text, pos)
    if m[1] != token:
        _fail(text, "expected %r" % token, m.start(1))
    return m.end()


def parse_polynomial(text) -> TropicalPolynomial:
    """Parse a .trop document into a normalized tropical polynomial, in as
    many variables as the largest index the text names (`padded` embeds it
    in more)."""
    pos = _expect(text, _expect(text, 0, "max"), "(")
    raw_terms = []   # (start offset, coefficient, monomials)
    token = ","
    while token == ",":
        start, coeff, monos = pos, Fraction(0), []
        token = "+"
        while token == "+":
            m = _PART.match(text, pos)
            if m is None:
                _fail(text, "expected an integer" if text.startswith(("+", "-"), pos)
                      else "expected a coefficient or monomial", pos)
            part, pos = m.lastgroup, m.end()
            if part in _SHORT:
                _fail(text, _SHORT[part], pos)
            if part == "n":
                coeff += int(m["n"])
            elif part == "den":
                if int(m["den"]) == 0:
                    _fail(text, "zero denominator", pos)
                coeff += Fraction(int(m["n"]), int(m["den"]))
            else:
                if int(m[part]) < 1:
                    _fail(text, "variable indices start at 1", pos)
                monos.append((int(m["n"] or 1), int(m[part])))
            t = _TOKEN.match(text, pos)
            token, pos = t[1], t.end()
        raw_terms.append((start, coeff, monos))
    if token != ")":
        _fail(text, "expected ')'", t.start(1))
    if pos != len(text):
        _fail(text, "trailing input after polynomial", pos)
    n_vars = max((i for _, _, monos in raw_terms for _, i in monos), default=0)
    terms = []
    seen = set()
    for start, coeff, monos in raw_terms:
        exp = [0] * n_vars
        for e, i in monos:
            exp[i - 1] += e
        key = tuple(exp)
        if key in seen:
            _fail(text, "duplicate exponent vector %r" % (key,), start)
        seen.add(key)
        terms.append((key, coeff))
    return TropicalPolynomial.make(terms, n_vars)


def polynomial_text(f: TropicalPolynomial) -> str:
    parts = []
    for e, c in f.terms:
        bits = []
        if c != 0 or not any(e):
            bits.append(str(c.numerator) if c.denominator == 1
                        else "%d/%d" % (c.numerator, c.denominator))
        for i, ei in enumerate(e):
            if ei == 1:
                bits.append("x%d" % (i + 1))
            elif ei != 0:
                bits.append("%d*x%d" % (ei, i + 1))
        parts.append(" + ".join(bits))
    return "max(%s)" % ", ".join(parts)


def newton_polytope(f: TropicalPolynomial) -> QPolyhedron:
    """The convex hull of the exponent vectors."""
    return convex_hull([e for e, c in f.terms])


@dataclass(frozen=True)
class FanSpec:
    """A simplicial unimodular rational polyhedral fan given by rays and
    maximal cones; every subset of a listed cone is a cone of the fan.
    Build it with `make`, which validates it."""

    dim: int
    rays: tuple            # primitive integer vectors
    max_cones: tuple       # frozensets of ray indices

    @classmethod
    def make(cls, dim, rays, max_cones):
        rays = tuple(int_rows(rays, "ray"))
        # the apex is a face of every fan, so listing it adds nothing
        cones = set(frozenset(c) for c in max_cones if c)
        # drop cones that are faces of other listed cones
        maximal = tuple(sorted((c for c in cones
                                if not any(c < d for d in cones)),
                               key=lambda c: (len(c), sorted(c))))
        return cls(dim, rays, maximal).validate()

    def cones(self):
        """All cones as sorted frozensets of ray indices, apex included."""
        out = set()
        for c in self.max_cones:
            members = sorted(c)
            for mask in range(1 << len(members)):
                out.add(frozenset(members[i] for i in range(len(members))
                                  if mask >> i & 1))
        out.add(frozenset())
        return sorted(out, key=lambda c: (len(c), sorted(c)))

    def cone_geometry(self, cone) -> QPolyhedron:
        return QPolyhedron.cone([self.rays[i] for i in sorted(cone)], self.dim)

    def is_complete(self):
        """Does the fan cover R^dim?  On a valid simplicial fan it does exactly
        when every maximal cone has dim rays and every (dim-1)-subset of one
        lies in exactly two maximal cones: the link is then a closed
        pseudomanifold, which carries a mod-2 fundamental class."""
        if not self.max_cones:
            return self.dim == 0
        if any(len(c) != self.dim for c in self.max_cones):
            return False
        facets = Counter(c - {i} for c in self.max_cones for i in c)
        return all(n == 2 for n in facets.values())

    def is_trivial(self):
        return not self.max_cones

    def validate(self):
        """Check that the rays have dim coordinates and are primitive and
        distinct, that every maximal cone names rays by their index in
        `rays`, that it is unimodular simplicial, and that every two maximal
        cones meet in their common face; raise FanError naming the first
        failure."""
        first = {}
        for i, r in enumerate(self.rays):
            if len(r) != self.dim:
                raise FanError("ray %d = %r has %d coordinates, not %d"
                               % (i, r, len(r), self.dim))
            if not any(r):
                raise FanError("ray %d is zero" % i)
            if r != primitive_vector(r):
                raise FanError("ray %d = %r is not primitive" % (i, r))
            if first.setdefault(r, i) != i:
                raise FanError("rays %d and %d are both %r" % (first[r], i, r))
        for c in self.max_cones:
            idx = sorted(c)
            for i in idx:
                if i not in range(len(self.rays)):
                    raise FanError("cone %r names ray %r, but the fan has %d rays, "
                                   "numbered from 0" % (idx, i, len(self.rays)))
            rays = [self.rays[i] for i in idx]
            if basis_completion(rays, self.dim) is None:
                raise FanError("cone %r with rays %r is not unimodular simplicial "
                               "(its rays do not extend to a lattice basis)"
                               % (idx, rays))
        # the cones are simplicial, so when two maximal cones A, B meet in
        # cone(A & B), all faces a of A and b of B meet in cone(a & b).  A and
        # B are pointed, so their meet is a pointed cone (never None), and it
        # is cone(A & B) exactly when its canonical rays are those of A & B
        geoms = {c: self.cone_geometry(c) for c in self.max_cones}
        for a, b in combinations(self.max_cones, 2):
            meet = geoms[a].intersect(geoms[b])
            if meet.rays != tuple(sorted(self.rays[i] for i in a & b)):
                raise FanError("cones %r and %r do not intersect in a common face"
                               % (sorted(a), sorted(b)))
        return self


def normal_fan(P: QPolyhedron) -> FanSpec:
    """Complete fan of normal cones of a full-dimensional lattice polytope.

    Cones are dual to faces: the cone at a vertex is spanned by the outer
    normals of the facets through it (max-plus convention).
    """
    if P.affine_dim != P.dim:
        raise FanError("normal fan needs a full-dimensional polytope")
    rays = [primitive_vector(a) for a, b in P.facets]
    max_cones = []
    for v in P.vertices:
        tight = frozenset(i for i, (a, b) in enumerate(P.facets)
                          if sum(x * y for x, y in zip(a, v)) == b)
        max_cones.append(tight)
    return FanSpec.make(P.dim, rays, max_cones)


def _int(word):
    """An integer by the rule of both readers; ValueError for any other word."""
    if not _INTEGER.fullmatch(word):
        raise ValueError("not an integer: %r" % word)
    return int(word)


def load_fan(text) -> FanSpec:
    """Parse and validate a .fan document.  Its integers are ASCII digits
    after an optional sign, as in .trop: `int` alone would also take "1_0"
    and digits of other scripts."""
    dim = None
    rays = []
    cones = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # the keyword is the first whole word before any ':'
        head, _, body = line.partition(":")
        words = head.split()
        word = words[0] if words else ""
        if word == "dim":
            if dim is not None:
                raise ParseError("second dim line", ln)
            try:
                (dim,) = (_int(x) for x in line.split()[1:])
            except ValueError:
                raise ParseError("malformed dim line: expected 'dim D'", ln)
            if dim < 0:
                raise ParseError("negative dimension %d" % dim, ln)
        elif word == "ray":
            try:
                (idx,) = (_int(x) for x in words[1:])
                vec = tuple(_int(x) for x in body.split())
            except ValueError:
                raise ParseError("malformed ray line", ln)
            if dim is None:
                raise ParseError("ray line before the dim line", ln)
            if len(vec) != dim:
                raise ParseError("ray has %d coordinates, expected dim %d"
                                 % (len(vec), dim), ln)
            if idx != len(rays):
                raise ParseError("ray indices must be consecutive from 0", ln)
            rays.append(vec)
        elif word == "cone":
            if words != ["cone"]:
                raise ParseError("malformed cone line: expected 'cone: i j ...'", ln)
            try:
                members = [_int(x) for x in body.split()]
            except ValueError:
                raise ParseError("malformed cone line", ln)
            if any(i < 0 or i >= len(rays) for i in members):
                raise ParseError("cone refers to an unknown ray", ln)
            if len(set(members)) != len(members):
                raise ParseError("cone lists ray %d twice"
                                 % next(i for i in members if members.count(i) > 1), ln)
            cones.append(frozenset(members))
        else:
            raise ParseError("unrecognized line %r" % line, ln)
    if dim is None:
        raise ParseError("missing dim line", 1)
    return FanSpec.make(dim, rays, cones)


def fan_text(fan: FanSpec) -> str:
    lines = ["dim %d" % fan.dim]
    for i, r in enumerate(fan.rays):
        lines.append("ray %d: %s" % (i, " ".join(str(x) for x in r)))
    for c in fan.max_cones:
        if c:
            lines.append("cone: %s" % " ".join(str(i) for i in sorted(c)))
    return "\n".join(lines) + "\n"
