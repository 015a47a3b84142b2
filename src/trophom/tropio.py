"""Parsing and serialization of tropical polynomials and fans.

Polynomials are max-plus: f(x) = max over terms of (coefficient + <exponent, x>).
The .trop grammar:

    poly  := "max(" term ("," term)* ")"
    term  := part ("+" part)*
    part  := coeff | mono
    mono  := int "*" var | var
    var   := "x" index
    coeff := int | int "/" int

A term's parts come in any order: its constants sum to its coefficient and
its monomials to its exponent vector.

The .fan format is line oriented: "dim D", then "ray I: a1 ... aD" lines,
then "cone: i j k" lines listing maximal cones by ray index, each ray once.
Keywords are whole words.  All faces of the listed cones are implied.
"""

from __future__ import annotations

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
        exps = [e for e, c in self.terms]
        if len(set(exps)) != len(exps):
            raise ParseError("duplicate exponent vectors")
        for e in exps:
            if len(e) != self.n_vars:
                raise ParseError("exponent length does not match variable count")

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


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _lc(self, pos):
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def error(self, msg, pos=None):
        line, col = self._lc(self.pos if pos is None else pos)
        raise ParseError(msg, line, col)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, s):
        self.skip_ws()
        if not self.text.startswith(s, self.pos):
            self.error("expected %r" % s)
        self.pos += len(s)

    def try_take(self, s):
        self.skip_ws()
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def integer(self):
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        if self.pos >= len(self.text) or not self.text[self.pos].isdigit():
            self.error("expected an integer", start)
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])


def parse_polynomial(text) -> TropicalPolynomial:
    """Parse a .trop document into a normalized tropical polynomial, in as
    many variables as the largest index the text names (`padded` embeds it
    in more)."""
    t = _Tokens(text)
    t.expect("max")
    t.expect("(")
    raw_terms = []   # (start offset, coefficient, monomials)
    while True:
        t.skip_ws()
        raw_terms.append((t.pos, *_parse_term(t)))
        if t.try_take(","):
            continue
        t.expect(")")
        break
    t.skip_ws()
    if t.pos != len(t.text):
        t.error("trailing input after polynomial")
    n_vars = max((i for _, _, monos in raw_terms for _, i in monos), default=0)
    terms = []
    seen = set()
    for start, coeff, monos in raw_terms:
        exp = [0] * n_vars
        for e, i in monos:
            exp[i - 1] += e
        key = tuple(exp)
        if key in seen:
            t.error("duplicate exponent vector %r" % (key,), start)
        seen.add(key)
        terms.append((key, coeff))
    return TropicalPolynomial.make(terms, n_vars)


def _parse_term(t: _Tokens):
    """One term: optional rational constant plus '+'-separated monomials,
    each as (exponent, variable index)."""
    coeff = Fraction(0)
    monos = []
    while True:
        t.skip_ws()
        ch = t.peek()
        if ch == "x":
            monos.append((1, _parse_var(t)))
        elif ch and ch in "+-0123456789":
            n = t.integer()
            if t.try_take("/"):
                d = t.integer()
                if d == 0:
                    t.error("zero denominator")
                coeff += Fraction(n, d)
            elif t.try_take("*"):
                monos.append((n, _parse_var(t)))
            else:
                coeff += n
        else:
            t.error("expected a coefficient or monomial")
        if not t.try_take("+"):
            break
    return coeff, monos


def _parse_var(t: _Tokens):
    """A variable xN: its index N."""
    t.expect("x")
    idx = t.integer()
    if idx < 1:
        t.error("variable indices start at 1")
    return idx


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
        # cone(A & B), all faces a of A and b of B meet in cone(a & b)
        geoms = {c: self.cone_geometry(c) for c in self.max_cones}
        for a, b in combinations(self.max_cones, 2):
            meet = geoms[a].intersect(geoms[b])
            if meet is None or meet.geometry_key() != \
                    self.cone_geometry(a & b).geometry_key():
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


def load_fan(text) -> FanSpec:
    """Parse and validate a .fan document."""
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
                (dim,) = (int(x) for x in line.split()[1:])
            except ValueError:
                raise ParseError("malformed dim line: expected 'dim D'", ln)
            if dim < 0:
                raise ParseError("negative dimension %d" % dim, ln)
        elif word == "ray":
            try:
                (idx,) = (int(x) for x in words[1:])
                vec = tuple(int(x) for x in body.split())
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
                members = [int(x) for x in body.split()]
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
