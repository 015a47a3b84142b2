"""Exact rational polyhedral geometry.

Convex hulls, H/V-representation conversion by the double description method,
face lattices, recession cones, and regular subdivisions of lattice point
configurations induced by lifting heights.  A subdivision is computed in the
pivot coordinates of its points' affine hull (an affine bijection, so faces
and affine ranks are unchanged); lattice volumes are read in the saturated
lattice of a cell's own affine hull, as gcds of maximal minors of its edge
vectors.  All coordinates are Fractions or ints; no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .exactla import (
    IntMatrix,
    LatticeSubspace,
    exterior_power,
    kernel_lattice,
    primitive_vector,
    rref,
)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _scaled(x):
    """A rational vector as (integer numerators, common denominator D > 0)."""
    x = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in x]
    D = lcm(*(v.denominator for v in x))
    return [v.numerator * (D // v.denominator) for v in x], D


def dd_cone(constraints, dim):
    """Generators of the cone {x in R^dim : <c, x> <= 0 for all c}.

    `constraints` is a list of integer row vectors.  Returns (lineality, rays)
    as lists of primitive integer tuples; the rays are the extreme rays modulo
    the lineality space.
    """
    lin = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays = []  # list of vectors
    processed = []

    def zeroset(v):
        return frozenset(k for k, c in enumerate(processed) if _dot(c, v) == 0)

    for c in constraints:
        vals_lin = [_dot(c, l) for l in lin]
        if any(vals_lin):
            k = next(i for i, v in enumerate(vals_lin) if v)
            l0, a0 = lin[k], vals_lin[k]
            if a0 > 0:
                l0 = tuple(-x for x in l0)
                a0 = -a0
            new_lin = []
            for i, l in enumerate(lin):
                if i == k:
                    continue
                v = _dot(c, l)
                new_lin.append(primitive_vector(tuple(a0 * x - v * y for x, y in zip(l, l0)))
                               if v else l)
            new_rays = []
            for r in rays:
                v = _dot(c, r)
                if v:
                    r = primitive_vector(tuple(-a0 * x + v * y for x, y in zip(r, l0)))
                new_rays.append(r)
            new_rays.append(l0)
            lin, rays = new_lin, new_rays
            processed.append(c)
            continue
        processed.append(c)
        vals = [(_dot(c, r), r) for r in rays]
        neg = [r for v, r in vals if v < 0]
        zero = [r for v, r in vals if v == 0]
        pos = [r for v, r in vals if v > 0]
        if not pos:
            rays = neg + zero
            continue
        zs = {r: zeroset(r) for r in rays}
        combos = []
        seen = set(neg) | set(zero)
        for p in pos:
            vp = _dot(c, p)
            for q in neg:
                common = zs[p] & zs[q]
                adjacent = True
                for r in rays:
                    if r is p or r is q:
                        continue
                    if zs[r] >= common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                vq = _dot(c, q)
                w = primitive_vector(tuple(vp * x - vq * y for x, y in zip(q, p)))
                if w not in seen and any(w):
                    seen.add(w)
                    combos.append(w)
        rays = neg + zero + combos
    return lin, rays


def _homogenize_hrep(ineqs, eqs, dim):
    rows = [(-1,) + (0,) * dim]  # t >= 0
    for a, b in ineqs:
        rows.append(primitive_vector((-Fraction(b),) + tuple(Fraction(x) for x in a)))
    for a, b in eqs:
        r = primitive_vector((-Fraction(b),) + tuple(Fraction(x) for x in a))
        rows.append(r)
        rows.append(tuple(-x for x in r))
    return rows


def generators_from_hrep(ineqs, eqs, dim):
    """V-representation (vertices, rays, lineality) of {Ax <= b, Ex = f}."""
    lin, rays = dd_cone(_homogenize_hrep(ineqs, eqs, dim), dim + 1)
    verts, recrays, lins = [], [], []
    for v in lin:
        assert v[0] == 0
        if any(v[1:]):
            lins.append(primitive_vector(v[1:]))
    for r in rays:
        t = r[0]
        if t > 0:
            verts.append(tuple(Fraction(x, t) for x in r[1:]))
        elif any(r[1:]):
            recrays.append(primitive_vector(r[1:]))
    return sorted(set(verts)), sorted(set(recrays)), lins


def hrep_from_generators(points, rays, lins, dim):
    """Minimal H-representation (facets, equations) of conv(points)+cone."""
    rows = []
    for p in points:
        rows.append(primitive_vector((-1,) + tuple(Fraction(x) for x in p)))
    for r in rays:
        rows.append((0,) + tuple(int(x) for x in r))
    for l in lins:
        row = (0,) + tuple(int(x) for x in l)
        rows.append(row)
        rows.append(tuple(-x for x in row))
    lin, drays = dd_cone(rows, dim + 1)
    facets, eqs = [], []
    for v in lin:
        if any(v[1:]):
            eqs.append((tuple(v[1:]), Fraction(v[0])))
    for r in drays:
        if any(r[1:]):
            facets.append((tuple(r[1:]), Fraction(r[0])))
    return facets, eqs


def _canonical_equations(eqs, dim):
    """Reduced, primitive row echelon form of a system, sorted.  Primitive
    scaling keeps each RREF pivot of 1 positive."""
    R, pivots = rref([list(a) + [b] for a, b in eqs], dim + 1)
    rows = (primitive_vector(row) for row in R[:len(pivots)])
    return tuple(sorted((tuple(v[:-1]), Fraction(v[-1])) for v in rows))


class QPolyhedron:
    """A rational polyhedron carrying both V- and H-representations."""

    __slots__ = ("dim", "vertices", "rays", "lin", "facets", "equations", "_key")

    def __init__(self, dim, vertices, rays, lin, facets, equations):
        self.dim = dim
        self.vertices = tuple(sorted(tuple(Fraction(x) for x in v) for v in vertices))
        self.rays = tuple(sorted(tuple(int(x) for x in r) for r in rays))
        if lin:
            # canonical: the saturated lattice of the lineality space
            normals = [list(a) for a, b in facets] + [list(a) for a, b in equations]
            sat = kernel_lattice(IntMatrix(normals, ncols=dim))
            self.lin = tuple(sat.basis.columns())
        else:
            self.lin = ()
        self.facets = tuple(sorted(
            (tuple(int(x) for x in a), Fraction(b)) for a, b in facets))
        self.equations = _canonical_equations(equations, dim)
        self._key = None

    @classmethod
    def from_generators(cls, points, rays=(), lins=(), dim=None):
        if not points:
            raise ValueError("a nonempty polyhedron needs at least one point")
        if dim is None:
            dim = len(points[0])
        facets, eqs = hrep_from_generators(points, rays, lins, dim)
        verts, recrays, lins2 = generators_from_hrep(facets, eqs, dim)
        return cls(dim, verts, recrays, lins2, facets, eqs)

    @classmethod
    def from_hrep(cls, ineqs, eqs, dim):
        verts, rays, lins = generators_from_hrep(ineqs, eqs, dim)
        if not verts:
            return None  # empty
        facets, eqs2 = hrep_from_generators(verts, rays, lins, dim)
        return cls(dim, verts, rays, lins, facets, eqs2)

    @classmethod
    def cone(cls, rays, dim, lins=()):
        return cls.from_generators([(0,) * dim], rays, lins, dim)

    # ---- basic queries ----

    @property
    def affine_dim(self):
        return self.dim - len(self.equations)

    def is_bounded(self):
        return not self.rays and not self.lin

    def contains(self, x, strict=False):
        """Is the rational point x in the polyhedron (strictly inside every
        facet, with `strict`)?  Decided in integers: x is scaled to integer
        numerators over a common denominator D, and each facet <a, x> <= b
        becomes <a, num> * b.den <= b.num * D, each equation the same with
        equality."""
        num, D = _scaled(x)
        for a, b in self.equations:
            if _dot(a, num) * b.denominator != b.numerator * D:
                return False
        for a, b in self.facets:
            v, w = _dot(a, num) * b.denominator, b.numerator * D
            if v > w or (strict and v == w):
                return False
        return True

    def contains_polyhedron(self, other):
        """Does other lie in self?  Its vertices pass the integer membership
        test of `contains`, its rays and lineality the recession test."""
        for v in other.vertices:
            if not self.contains(v):
                return False
        for r in other.rays:
            if not self._contains_direction(r):
                return False
        for l in other.lin:
            if not (self._contains_direction(l) and self._contains_direction([-x for x in l])):
                return False
        return True

    def _contains_direction(self, r):
        return (all(_dot(a, r) == 0 for a, b in self.equations)
                and all(_dot(a, r) <= 0 for a, b in self.facets))

    def recession(self):
        """The recession cone, built from this polyhedron's own data with no
        double description: its rays and lineality, its facets moved to
        offset 0, and as equations the integer annihilator of the rays and
        lineality.  That annihilator cuts out the exact linear hull of the
        cone, so `affine_dim` is the cone's dimension even where facets of
        the polyhedron turn into implicit equations (two parallel facets of
        [0, 1] x [0, oo) give x = 0).  The facets may be redundant."""
        gens = list(self.rays) + list(self.lin)
        hull = kernel_lattice(IntMatrix(gens, ncols=self.dim)).basis.columns()
        return QPolyhedron(self.dim, [(0,) * self.dim], self.rays, self.lin,
                           [(a, 0) for a, b in self.facets], [(u, 0) for u in hull])

    def geometry_key(self):
        """Canonical hashable identity of the underlying point set."""
        if self._key is None:
            if not self.lin:
                self._key = ("pt", self.dim, self.vertices, self.rays)
            else:
                L = IntMatrix.from_columns(self.lin, self.dim)
                # canonical coordinates transverse to the lineality: kill the
                # pivot rows of the HNF basis, keep the remaining coordinates
                piv_rows = []
                for j in range(L.ncols):
                    col = L.column(j)
                    piv_rows.append(next(i for i in range(self.dim) if col[i]))
                keep = [i for i in range(self.dim) if i not in piv_rows]

                def project(x):
                    x = [Fraction(v) for v in x]
                    for j, pr in enumerate(piv_rows):
                        f = x[pr] / L.rows[pr][j]
                        if f:
                            colj = L.column(j)
                            x = [xv - f * cv for xv, cv in zip(x, colj)]
                    return tuple(x[i] for i in keep)

                verts = tuple(sorted(set(project(v) for v in self.vertices)))
                rays = tuple(sorted(set(
                    primitive_vector(project(r)) for r in self.rays
                    if any(project(r)))))
                self._key = ("lin", self.dim, tuple(self.lin), verts, rays)
        return self._key

    def __eq__(self, other):
        return isinstance(other, QPolyhedron) and self.geometry_key() == other.geometry_key()

    def __hash__(self):
        return hash(self.geometry_key())

    def __repr__(self):
        return ("QPolyhedron(dim=%d, adim=%d, verts=%d, rays=%d, lin=%d)"
                % (self.dim, self.affine_dim, len(self.vertices), len(self.rays),
                   len(self.lin)))

    # ---- constructions ----

    def intersect_hrep(self, ineqs=(), eqs=()):
        """Intersection with extra halfspaces/hyperplanes; None if empty."""
        return QPolyhedron.from_hrep(list(self.facets) + list(ineqs),
                                     list(self.equations) + list(eqs), self.dim)

    def intersect(self, other):
        return self.intersect_hrep(other.facets, other.equations)

    def linear_image(self, M: IntMatrix):
        """Image under an integer linear map (rows of M give the new coords).

        Two double descriptions; the pipeline reads its projected pieces off
        the subdivision instead (`complexes.stratum_pieces`), and this stays
        as their LP reference."""
        pts = [tuple(_dot(r, v) for r in M.rows) for v in self.vertices]
        rays = []
        for r in self.rays:
            w = tuple(_dot(row, r) for row in M.rows)
            if any(w):
                rays.append(primitive_vector(w))
        lins = []
        for l in self.lin:
            w = tuple(_dot(row, l) for row in M.rows)
            if any(w):
                lins.append(primitive_vector(w))
        return QPolyhedron.from_generators(pts, rays, lins, M.nrows)

    def tangent_lattice(self) -> LatticeSubspace:
        """Saturated integral tangent lattice of the affine hull."""
        if not self.equations:
            # the kernel of no equations is all of Z^dim; this skips its HNF
            return LatticeSubspace.full(self.dim)
        A = IntMatrix([list(a) for a, b in self.equations], ncols=self.dim)
        return kernel_lattice(A)

    def face_lattice(self):
        """All nonempty faces, including the polyhedron itself.

        Returns a list of (face: QPolyhedron, active: frozenset of facet
        indices); containment is reverse inclusion of active sets.  A test
        reference: the pipeline reads faces off the subdivision.
        """
        faces = {}
        todo = [frozenset()]
        seen = set()
        while todo:
            act = todo.pop()
            if act in seen:
                continue
            seen.add(act)
            eqs = list(self.equations) + [self.facets[i] for i in act]
            F = QPolyhedron.from_hrep(self.facets, eqs, self.dim)
            if F is None:
                continue
            full_act = frozenset(
                i for i, (a, b) in enumerate(self.facets)
                if all(_dot(a, v) == b for v in F.vertices)
                and all(_dot(a, r) == 0 for r in F.rays)
                and all(_dot(a, l) == 0 for l in F.lin))
            if full_act not in faces:
                faces[full_act] = F
                for i in range(len(self.facets)):
                    if i not in full_act:
                        todo.append(full_act | {i})
        return [(F, act) for act, F in sorted(faces.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))]

    def lattice_points(self, cap=10 ** 6):
        """All integer points of a bounded polyhedron (box enumeration)."""
        if not self.is_bounded():
            raise ValueError("lattice point enumeration needs a bounded polyhedron")
        import math
        lo = [math.ceil(min(v[i] for v in self.vertices)) for i in range(self.dim)]
        hi = [math.floor(max(v[i] for v in self.vertices)) for i in range(self.dim)]
        total = 1
        for a, b in zip(lo, hi):
            total *= max(0, b - a + 1)
        if total > cap:
            raise ValueError("lattice point scale cap exceeded: %d candidates" % total)
        pts = []
        def rec(i, prefix):
            if i == self.dim:
                if self.contains(prefix):
                    pts.append(tuple(prefix))
                return
            for x in range(lo[i], hi[i] + 1):
                rec(i + 1, prefix + [x])
        rec(0, [])
        return pts

    def interior_lattice_points(self, cap=10 ** 6):
        return [p for p in self.lattice_points(cap) if self.contains(p, strict=True)]


def convex_hull(points, dim=None) -> QPolyhedron:
    """Convex hull of rational points; redundant points are removed."""
    if not points:
        raise ValueError("empty point list")
    return QPolyhedron.from_generators(points, dim=dim)


@dataclass(frozen=True)
class LatticePolytope:
    """Convex hull of integer vectors; vertices are the extreme points."""

    ambient_dim: int
    vertices: tuple
    poly: QPolyhedron = field(compare=False, repr=False)

    @classmethod
    def from_points(cls, points):
        P = convex_hull(points)
        verts = tuple(sorted(tuple(int(x) for x in v) for v in P.vertices))
        return cls(P.dim, verts, P)

    @property
    def dim(self):
        return self.poly.affine_dim


# ---------------------------------------------------------------------------
# cones in fans

def cone_hull(rays, dim) -> QPolyhedron:
    return QPolyhedron.cone(rays, dim)


def cone_meets_relint(C: QPolyhedron, rho: QPolyhedron) -> bool:
    """Does the cone C intersect the relative interior of the cone rho?

    For the apex cone (rho = {0}) this is always true.  A test reference,
    through `ToricVariety.reached_cones`.
    """
    if rho.affine_dim == 0:
        return True
    K = C.intersect(rho)
    if K is None:
        return False
    gens = list(K.rays) + list(K.lin) + [tuple(-x for x in l) for l in K.lin]
    if not gens:
        return False  # K = {0}
    for a, b in rho.facets:
        if all(_dot(a, g) == 0 for g in gens):
            return False
    return True


def cone_covered_by(C: QPolyhedron, cones) -> bool:
    """Is the cone C contained in the union of the given cones?

    Works by peeling: regions of C not yet covered are tracked as closed
    cones; only full-dimensional-in-C residues matter since the union of
    closed cones is closed, so C's equations must cut out its exact linear
    hull.  The pipeline reaches it only through
    `ToricVariety.closure_is_compact`, for an unbounded cell that reaches a
    boundary stratum of a fan that is not complete; only the tests read the
    flag that sets.
    """
    target_dim = C.affine_dim
    regions = [C]
    for D in cones:
        walls = [a for a, b in D.facets]
        for a, b in D.equations:
            walls.append(a)
            walls.append(tuple(-x for x in a))
        new_regions = []
        for R in regions:
            if D.contains_polyhedron(R):
                continue
            prefix = []
            for a in walls:
                flipped = (tuple(-x for x in a), Fraction(0))
                piece = R.intersect_hrep(ineqs=prefix + [flipped])
                if piece is not None and piece.affine_dim == target_dim:
                    gens = list(piece.vertices) + list(piece.rays) + list(piece.lin) + \
                        [tuple(-x for x in l) for l in piece.lin]
                    if any(_dot(a, g) > 0 for g in gens):
                        new_regions.append(piece)
                prefix.append((a, Fraction(0)))
        regions = new_regions
        if not regions:
            return True
    return not regions


# ---------------------------------------------------------------------------
# regular subdivisions

@dataclass
class RegularSubdivision:
    """Polytopal subdivision induced by lifting heights (upper faces).

    `faces` maps a frozenset of support-point indices to its dimension, the
    affine rank of its points; the maximal cells are those of top dimension,
    `dimension`, the affine rank of the support.  Point sets include every
    support point lying on the face, not only its vertices.  `covered_by`
    maps every face to the faces one dimension up that contain it.  The
    support points are kept as given; the coordinates the cells were found
    in are not kept.
    """

    support_points: tuple
    heights: tuple
    dimension: int
    maximal_cells: tuple        # tuple of frozensets
    faces: dict                 # frozenset -> dim
    used: tuple                 # bool per support point
    covered_by: dict            # frozenset -> list of frozensets, one dim up


def _add_cell_faces(members, coords, faces, covered_by):
    """Record every face of the cell conv(coords[i] : i in members) in `faces`,
    as its set of member points mapped to its dimension, and each face's
    covering faces in `covered_by`.

    A proper face is the intersection of the facets through it, so the faces
    are the cell plus the non-empty intersections of its walls' member sets
    (vertex-facet incidence closure, Kaibel-Pfetsch), and the facets of a
    face are among its intersections with the walls.  The walls of a
    simplex cell are its d-subsets, and a subset's dimension is its size
    less one; any other cell's walls are read off its hull, and a face's
    dimension is the affine rank of its points.  A face already in `faces`
    came from a neighbouring cell of the same subdivision, together with
    all of its own faces and their covers.  The cell must span the
    coordinate space.
    """
    dim = len(coords[0])
    if len(members) == dim + 1:
        walls = [frozenset(w) for w in combinations(sorted(members), dim)]

        def rank(sub):
            return len(sub) - 1
    else:
        cell = convex_hull([coords[i] for i in sorted(members)], dim=dim)
        walls = [frozenset(i for i in members if _dot(a, coords[i]) == b)
                 for a, b in cell.facets]

        def rank(sub):
            i0, *rest = sorted(sub)
            diffs = [tuple(x - y for x, y in zip(coords[i], coords[i0])) for i in rest]
            return LatticeSubspace.from_columns(diffs, dim).rank
    faces[members] = dim
    covered_by[members] = []
    todo = [members]
    while todo:
        face = todo.pop()
        for sub in dict.fromkeys(face & wall for wall in walls):
            if not sub:
                continue
            if sub not in faces:
                faces[sub] = rank(sub)
                covered_by[sub] = []
                todo.append(sub)
            if faces[sub] == faces[face] - 1:
                covered_by[sub].append(face)


def regular_subdivision(points, heights) -> RegularSubdivision:
    """Subdivision of conv(points) from the upper faces of the lifted hull.

    The points are read in the pivot coordinates of the reduced row echelon
    form of their differences: an affine bijection of their affine hull
    onto R^d, so upper faces and affine ranks are those of the points
    themselves.  The lift is integral, the heights taken over their common
    denominator (a positive scaling of the last coordinate, which keeps the
    upper faces).  The maximal cells are the projections of the upper
    facets (one convex hull of the lift), and their faces are read off each
    cell's vertex-facet incidences.  With affine heights the single cell is
    conv(points) itself.
    """
    points = [tuple(int(x) for x in p) for p in points]
    heights = [Fraction(h) for h in heights]
    if len(set(points)) != len(points):
        raise ValueError("duplicate support points")
    if len(heights) != len(points):
        raise ValueError("one height per point required")
    base = points[0]
    _, pivots = rref([[x - y for x, y in zip(p, base)] for p in points], len(base))
    coords = [tuple(p[c] for c in pivots) for p in points]
    d = len(pivots)
    if d == 0:
        f = frozenset({0})
        return RegularSubdivision(tuple(points), tuple(heights), 0, (f,),
                                  {f: 0}, (True,), {f: []})
    num, _ = _scaled(heights)
    lifted = [y + (h,) for y, h in zip(coords, num)]
    facets, eqs = hrep_from_generators(lifted, [], [], d + 1)
    faces, covered_by = {}, {}
    degenerate = any(a[d] != 0 for a, b in eqs)
    if degenerate:
        # affine heights: the subdivision is the face complex of the polytope
        whole = frozenset(range(len(points)))
        _add_cell_faces(whole, coords, faces, covered_by)
        used = tuple(True for _ in points)
        return RegularSubdivision(tuple(points), tuple(heights), d, (whole,),
                                  faces, used, covered_by)
    maximal = sorted({frozenset(i for i, lp in enumerate(lifted) if _dot(a, lp) == b)
                      for a, b in facets if a[d] > 0})
    for members in maximal:
        _add_cell_faces(members, coords, faces, covered_by)
    used = tuple(any(i in m for m in maximal) for i in range(len(points)))
    return RegularSubdivision(tuple(points), tuple(heights), d, tuple(maximal),
                              faces, used, covered_by)


def normalized_simplex_volume(sub: RegularSubdivision, cell) -> int:
    """Normalized lattice volume of a simplex cell (d! times euclidean),
    taken in the saturated lattice of the cell's own affine hull: the gcd of
    the maximal minors of its edge vectors, which is the index of their
    span in its saturation.  Affinely dependent points read 0."""
    p0, *rest = (sub.support_points[i] for i in sorted(cell))
    edges = [tuple(x - y for x, y in zip(p, p0)) for p in rest]
    minors = exterior_power(IntMatrix.from_columns(edges, len(p0)), len(edges))
    return gcd(*(m for row in minors.rows for m in row))


def is_unimodular_simplex(sub: RegularSubdivision, cell, dim) -> bool:
    """Is the cell a dim-simplex of normalized volume 1?"""
    return len(cell) == dim + 1 and normalized_simplex_volume(sub, cell) == 1


def is_primitive(sub: RegularSubdivision) -> bool:
    """True iff every maximal cell is a unimodular simplex."""
    return all(is_unimodular_simplex(sub, cell, sub.dimension)
               for cell in sub.maximal_cells)
