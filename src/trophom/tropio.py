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
All faces of the listed cones are implied.  A line ends at LF, and "#"
starts a comment that runs to the end of its line.  Within a line the
whitespace is space, tab or CR, the whitespace of .trop less LF; it may sit
at either end of the line and around ":".  A line's first word, up to
whitespace, ":" or "#", is its keyword:

    line  := "dim" ws int | "ray" ws int [":" ints] | "cone" [":" ints]
    ints  := [int (ws int)*]      (ws: one or more whitespace characters)

with int as in .trop.  A line of whitespace and comment alone is skipped.
The ":" may be left out when nothing follows it: the ray then has no
coordinates, and "cone" lists the apex.

Both value types check themselves where they are built.
`TropicalPolynomial(n_vars, terms)` takes the terms in any order, as pairs of
an integer exponent vector and a coefficient that `Fraction` reads, and
keeps them sorted with int exponents and Fraction coefficients.
`FanSpec(dim, rays, max_cones)` keeps the rays as tuples of ints and the
maximal cones among those listed, and raises FanError if the result is not
a simplicial unimodular fan.  Every ParseError has a line and a column, both
from 1, with lines counted by LF; a .fan error names the line's first word.
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
    def __init__(self, message, line, col):
        super().__init__("%s at line %d, column %d" % (message, line, col))
        self.line = line
        self.col = col


class FanError(ValueError):
    pass


@dataclass(frozen=True)
class TropicalPolynomial:
    """A max-plus polynomial in n_vars variables.  The constructor takes the
    terms in any order, as (exponent, coefficient) pairs, reads exponents by
    the rule of `exactla.int_rows` and coefficients by `Fraction`, and keeps
    them sorted.  An exponent of the wrong length, or one given twice,
    raises ValueError naming the terms by their position."""

    n_vars: int
    terms: tuple  # ((exponent tuple, Fraction coefficient), ...) sorted

    def __post_init__(self):
        terms = list(self.terms)
        exponents = int_rows((e for e, c in terms), "exponent")
        first = {}
        for i, e in enumerate(exponents):
            if len(e) != self.n_vars:
                raise ValueError("exponent %d %r has %d coordinates, not %d"
                                 % (i, e, len(e), self.n_vars))
            if first.setdefault(e, i) != i:
                raise ValueError("exponents %d and %d are both %r" % (first[e], i, e))
        object.__setattr__(self, "terms", tuple(sorted(
            zip(exponents, (Fraction(c) for e, c in terms)))))

    def padded(self, n_vars):
        """Embed into a larger variable set by zero-padding exponents."""
        if n_vars < self.n_vars:
            raise ValueError("cannot shrink the variable count")
        if n_vars == self.n_vars:
            return self
        return TropicalPolynomial(
            n_vars, [(e + (0,) * (n_vars - self.n_vars), c) for e, c in self.terms])


def _fail(text, message, pos):
    """Raise ParseError at offset pos of text, as line and column from 1."""
    raise ParseError(message, text.count("\n", 0, pos) + 1,
                     pos - text.rfind("\n", 0, pos))


# Both readers take integers by this one rule.  Not \d or str.isdigit: they
# take digits of other scripts, which int() then reads or rejects.
_INT = r"[+-]?[0-9]+"
_INTEGER = re.compile(_INT)
# whitespace: space, tab, CR and LF, which also ends a .fan line
_BLANK = r"[ \t\r]"
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
    return TropicalPolynomial(n_vars, terms)


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

    The constructor keeps the listed cones that are maximal among them, as
    frozensets sorted by size, and checks that the rays have dim
    coordinates and are primitive and distinct, that every cone names rays
    by their index in `rays`, that it is unimodular simplicial, and that
    every two maximal cones meet in their common face.  It raises FanError
    naming the first failure."""

    dim: int
    rays: tuple            # primitive integer vectors
    max_cones: tuple       # frozensets of ray indices

    def __post_init__(self):
        # the apex is a face of every fan, so listing it adds nothing
        cones = set(frozenset(c) for c in self.max_cones if c)
        # drop cones that are faces of other listed cones
        maximal = tuple(sorted((c for c in cones
                                if not any(c < d for d in cones)),
                               key=lambda c: (len(c), sorted(c))))
        object.__setattr__(self, "rays", tuple(int_rows(self.rays, "ray")))
        object.__setattr__(self, "max_cones", maximal)
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
    return FanSpec(P.dim, rays, max_cones)


# a .fan line: "content" runs from its first word to the last character
# before the whitespace, comment and LF that end it
_FAN_LINE = re.compile(r"{S}*(?P<content>(?P<word>[^ \t\r\n:#]*)(?:[^\n#]*[^ \t\r\n#])?)"
                       r"{S}*(?:\#[^\n]*)?(?:\n|\Z)".format(S=_BLANK))
# the line's head, matched from its first word to its end or its ':'
_DIM = re.compile(r"dim{S}+({I})".format(S=_BLANK, I=_INT))
_RAY = re.compile(r"ray{S}+({I}){S}*(?::|\Z)".format(S=_BLANK, I=_INT))
_CONE = re.compile(r"cone{S}*(?::|\Z)".format(S=_BLANK))
# the integers after the ':', up to the line's end
_INTS = re.compile(r"{S}*(?:{I}(?:{S}+{I})*)?".format(S=_BLANK, I=_INT))


def _ints(text, head, end):
    """The integers between the end of the head match and end, or None when
    the head did not match or anything else stands there."""
    if head and _INTS.fullmatch(text, head.end(), end):
        return [int(x) for x in _INTEGER.findall(text, head.end(), end)]
    return None


def load_fan(text) -> FanSpec:
    """Parse a .fan document into the FanSpec it lists, which checks it.
    The text is read line by line at offsets, with the whitespace and the
    integer rule of .trop: str.split and str.splitlines would also take
    Unicode whitespace and line breaks, and `int` alone "1_0" and digits of
    other scripts."""
    dim = None
    rays = []
    cones = []
    pos = 0
    while pos < len(text):
        line = _FAN_LINE.match(text, pos)
        pos, (start, end), word = line.end(), line.span("content"), line["word"]
        if start == end:
            continue
        if word == "dim":
            if dim is not None:
                _fail(text, "second dim line", start)
            m = _DIM.fullmatch(text, start, end)
            if m is None:
                _fail(text, "malformed dim line: expected 'dim D'", start)
            dim = int(m[1])
            if dim < 0:
                _fail(text, "negative dimension %d" % dim, start)
        elif word == "ray":
            m = _RAY.match(text, start, end)
            vec = _ints(text, m, end)
            if vec is None:
                _fail(text, "malformed ray line", start)
            if dim is None:
                _fail(text, "ray line before the dim line", start)
            if len(vec) != dim:
                _fail(text, "ray has %d coordinates, expected dim %d" % (len(vec), dim), start)
            if int(m[1]) != len(rays):
                _fail(text, "ray indices must be consecutive from 0", start)
            rays.append(vec)
        elif word == "cone":
            m = _CONE.match(text, start, end)
            if m is None:
                _fail(text, "malformed cone line: expected 'cone: i j ...'", start)
            members = _ints(text, m, end)
            if members is None:
                _fail(text, "malformed cone line", start)
            if any(i < 0 or i >= len(rays) for i in members):
                _fail(text, "cone refers to an unknown ray", start)
            if len(set(members)) != len(members):
                _fail(text, "cone lists ray %d twice"
                      % next(i for i in members if members.count(i) > 1), start)
            cones.append(members)
        else:
            _fail(text, "unrecognized line %r" % text[start:end], start)
    if dim is None:
        _fail(text, "missing dim line", 0)
    return FanSpec(dim, rays, cones)


def fan_text(fan: FanSpec) -> str:
    lines = ["dim %d" % fan.dim]
    for i, r in enumerate(fan.rays):
        lines.append("ray %d: %s" % (i, " ".join(str(x) for x in r)))
    for c in fan.max_cones:
        lines.append("cone: %s" % " ".join(str(i) for i in sorted(c)))
    return "\n".join(lines) + "\n"
