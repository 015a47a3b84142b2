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

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul

from .exactla import (
    IntMatrix,
    exterior_power,
    gauss_jordan,
    int_rows,
    kernel_lattice,
    lattice_basis,
    primitive_vector,
)


def _dot(a, b):
    return sum(map(mul, a, b))


def _check_lengths(dim, *named):
    """For each (kind, vectors) pair, raise ValueError naming the first
    vector, as `kind` i, whose length is not dim: `zip` would truncate it."""
    for kind, vectors in named:
        for i, v in enumerate(vectors):
            if len(v) != dim:
                raise ValueError("%s %d has %d coordinates, not %d" % (kind, i, len(v), dim))


def _scaled(x):
    """A rational vector as (integer numerators, common denominator D > 0)."""
    x = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in x]
    D = lcm(*(v.denominator for v in x))
    return [v.numerator * (D // v.denominator) for v in x], D


def _primitive(v):
    """The integer vector v divided by the gcd of its entries, as a tuple;
    the zero vector comes back as it is."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def dd_cone(constraints, dim):
    """Generators of the cone {x in R^dim : <c, x> <= 0 for all c}.

    `constraints` is a list of integer row vectors.  Returns (lineality, rays)
    as lists of primitive integer tuples; the rays are the extreme rays modulo
    the lineality space.

    Each ray carries its tight set, the processed constraints it lies on, as
    a bitmask (bit i for the i-th constraint), and the combinatorial
    adjacency test reads these sets.  They are inherited, never recomputed
    (Fukuda-Prodon, "Double description method revisited", 1996).  Every
    ray r satisfies <c', r> <= 0 on each processed c', and every lineality
    vector l satisfies <c', l> = 0:
    - the new ray l0 of a lineality step, with <c, l0> < 0, is tight
      exactly on every earlier constraint, since it was lineality;
    - a ray moved by that step, r' = -a0 r + v l0 with a0 = <c, l0> < 0 and
      v = <c, r>, has <c, r'> = 0 and <c', r'> = -a0 <c', r> on earlier c',
      so it keeps its set and gains c (as does an unmoved ray, with v = 0);
    - a new ray w = vp q - vq p of a pair with vp = <c, p> > 0 > vq =
      <c, q> has <c, w> = 0, and <c', w> = vp <c', q> + |vq| <c', p> is a
      sum of two terms <= 0, so w is tight exactly where p and q both are,
      plus on c.
    Primitive scaling keeps every set, since it divides by a positive gcd.
    So a pair is adjacent exactly when p and q are the only rays whose sets
    contain their common set, and one `count` over the masked sets decides
    it.

    The arithmetic is integer-only: every vector built here is an integer
    combination of integer vectors, made primitive by dividing by the gcd
    of its entries (`_primitive`), with no rational scaling.
    """
    lin = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays = []       # list of vectors
    tight = []      # the tight set of each ray, as a bitmask
    for i, c in enumerate(constraints):
        bit = 1 << i
        vals_lin = [_dot(c, l) for l in lin]
        if any(vals_lin):
            k = next(j for j, v in enumerate(vals_lin) if v)
            l0, a0 = lin[k], vals_lin[k]
            if a0 > 0:
                l0 = tuple(-x for x in l0)
                a0 = -a0
            new_lin = []
            for j, l in enumerate(lin):
                if j == k:
                    continue
                v = vals_lin[j]
                new_lin.append(_primitive([a0 * x - v * y for x, y in zip(l, l0)])
                               if v else l)
            new_rays = []
            for r in rays:
                v = _dot(c, r)
                if v:
                    r = _primitive([-a0 * x + v * y for x, y in zip(r, l0)])
                new_rays.append(r)
            new_rays.append(l0)
            lin, rays = new_lin, new_rays
            tight = [z | bit for z in tight] + [bit - 1]
            continue
        vals = [_dot(c, r) for r in rays]
        neg = [j for j, v in enumerate(vals) if v < 0]
        zero = [j for j, v in enumerate(vals) if v == 0]
        combos, combo_tight = [], []
        seen = {rays[j] for j in neg + zero}
        # adjacent rays span a 2-face mod the lineality, whose tight
        # constraints have rank dim - len(lin) - 2: a pair with fewer in
        # common is not adjacent, and the test below would say so too
        least = dim - len(lin) - 2
        for jp in (j for j, v in enumerate(vals) if v > 0):
            p, vp, zp = rays[jp], vals[jp], tight[jp]
            for jq in neg:
                common = zp & tight[jq]
                # adjacent iff no third ray is tight on all of `common`: p
                # and q are two of the rays counted
                if common.bit_count() < least or \
                        [z & common for z in tight].count(common) > 2:
                    continue
                q, vq = rays[jq], vals[jq]
                w = _primitive([vp * x - vq * y for x, y in zip(q, p)])
                if w not in seen and any(w):
                    seen.add(w)
                    combos.append(w)
                    combo_tight.append(common | bit)
        rays = [rays[j] for j in neg + zero] + combos
        tight = [tight[j] for j in neg] + [tight[j] | bit for j in zero] + combo_tight
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
    _check_lengths(dim, ("facet normal", [a for a, b in ineqs]),
                   ("equation normal", [a for a, b in eqs]))
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
    _check_lengths(dim, ("point", points), ("ray", rays), ("lineality vector", lins))
    rows = []
    for p in points:
        # an integer point homogenizes as it is: the -1 makes it primitive
        rows.append((-1, *p) if all(type(x) is int for x in p)
                    else primitive_vector((-1,) + tuple(Fraction(x) for x in p)))
    for r in int_rows(rays, "ray"):
        rows.append((0,) + r)
    for l in int_rows(lins, "lineality vector"):
        row = (0,) + l
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
    """Reduced, primitive row echelon form of a system, sorted: its rows
    made primitive integer rows, then `_canonical_systems` of the one
    system they form."""
    rows = [primitive_vector(tuple(a) + (b,)) for a, b in eqs]
    return _canonical_systems([v[:-1] for v in rows], [tuple(v[-1] for v in rows)], dim)[0]


def _canonical_systems(normals, offsets, dim):
    """The canonical equations of the systems {<a_i, x> = b_i} that share
    the integer normals a_i, one per tuple b of Fraction or int offsets in
    `offsets`: the primitive rows of each system's reduced row echelon
    form, sorted, from one `gauss_jordan` on the normals.  Each b rides
    along as one more column, scaled by the lcm L of its denominators.
    Pivot row k holds d times the normal part r of row k of the reduced row
    echelon form of [a | b] that pivots on the normals only, and d * L
    times its column s of b.  The primitive multiple of (L * normal part,
    column of b), with the sign of d, is then that of (r, s).  The rows
    past the rank vanish on the normals.  When b is zero in all of them,
    these are the system's rows.  Otherwise the system is inconsistent: b
    pivots and clears every other row, so its rows are the pivot rows with
    offset 0, plus ((0, ..., 0), 1).
    """
    scales = [lcm(*(b.denominator for b in bs)) for bs in offsets]
    rows = [list(a) + [bs[i].numerator * (L // bs[i].denominator)
                       for bs, L in zip(offsets, scales)]
            for i, a in enumerate(normals)]
    A, pivots, d = gauss_jordan(rows, dim)
    rank = len(pivots)
    sign = 1 if d > 0 else -1
    out = []
    for j, L in enumerate(scales, start=dim):
        consistent = not any(row[j] for row in A[rank:])
        eqs = [] if consistent else [((0,) * dim, Fraction(1))]
        for row in A[:rank]:
            a, b = row[:dim], row[j] if consistent else 0
            g = gcd(L * gcd(*a), b) * sign
            eqs.append((tuple(L * x // g for x in a), Fraction(b // g)))
        out.append(tuple(sorted(eqs)))
    return out


class QPolyhedron:
    """A rational polyhedron carrying both V- and H-representations.

    The fields are canonical: vertices, rays and facets sorted, lineality
    as the HNF basis of its saturated lattice, equations as
    `_canonical_equations` gives them: the primitive rows of the reduced
    row echelon form, from one elimination.  The constructors
    (`from_generators`, `from_hrep`, `cone`, `intersect`) and `recession`
    compute one representation from the other and put every field into that
    form by `_from_fields`.  `_trusted`, the one place that sets the fields,
    puts none: its caller hands over fields already canonical, as
    `complexes.stratum_pieces` does.
    Membership has one evaluator, `_satisfied_by`, which
    `contains_polyhedron` calls.
    """

    __slots__ = ("dim", "vertices", "rays", "lin", "facets", "equations", "_sound")

    @classmethod
    def _from_fields(cls, dim, vertices, rays, lin, facets, equations):
        """The polyhedron with both representations, its caller having
        computed one from the other: checked and put into canonical form,
        never tested for agreement.  `lin` only signals a nonzero lineality,
        whose basis is read off the facet and equation normals."""
        _check_lengths(dim, ("vertex", vertices), ("ray", rays), ("lineality vector", lin),
                       ("facet normal", [a for a, b in facets]),
                       ("equation normal", [a for a, b in equations]))
        return cls._trusted(
            dim,
            tuple(sorted(tuple(Fraction(x) for x in v) for v in vertices)),
            tuple(sorted(int_rows(rays, "ray"))),
            tuple(kernel_lattice(IntMatrix([a for a, b in (*facets, *equations)],
                                           ncols=dim)).columns()) if lin else (),
            tuple(sorted(zip(int_rows((a for a, b in facets), "facet normal"),
                             (Fraction(b) for a, b in facets)))),
            _canonical_equations(equations, dim))

    @classmethod
    def _trusted(cls, dim, vertices, rays, lin, facets, equations):
        """A polyhedron from canonical fields, unchecked: sorted tuples of
        Fraction vertices, of int rays and of (int normal, Fraction offset)
        facets, the lineality's HNF basis columns, and canonical
        equations."""
        P = object.__new__(cls)
        P.dim = dim
        P.vertices = vertices
        P.rays = rays
        P.lin = lin
        P.facets = facets
        P.equations = equations
        P._sound = None
        return P

    @classmethod
    def from_generators(cls, points, rays=(), lins=(), dim=None):
        if not points:
            raise ValueError("a nonempty polyhedron needs at least one point")
        if dim is None:
            dim = len(points[0])
        facets, eqs = hrep_from_generators(points, rays, lins, dim)
        verts, recrays, lins2 = generators_from_hrep(facets, eqs, dim)
        return cls._from_fields(dim, verts, recrays, lins2, facets, eqs)

    @classmethod
    def from_hrep(cls, ineqs, eqs, dim):
        verts, rays, lins = generators_from_hrep(ineqs, eqs, dim)
        if not verts:
            return None  # empty
        facets, eqs2 = hrep_from_generators(verts, rays, lins, dim)
        return cls._from_fields(dim, verts, rays, lins, facets, eqs2)

    @classmethod
    def cone(cls, rays, dim):
        return cls.from_generators([(0,) * dim], rays, (), dim)

    # ---- basic queries ----

    @property
    def affine_dim(self):
        return self.dim - len(self.equations)

    def is_bounded(self):
        return not self.rays and not self.lin

    def contains_polyhedron(self, other):
        """Does other lie in self?  That is: do other's vertices, rays and
        lineality satisfy self's stored equations and facets, the vertices
        as points and the rest as directions (`_satisfied_by`)?

        The arithmetic is done once per polyhedron, not once per call: on
        its first call self runs that same test on its own vertices and
        rays and keeps the verdict (`_sound`), True whenever the two
        representations describe one polyhedron, as every constructor here
        makes them.  When it holds, other has no lineality, and every
        vertex of other is one of self's vertex objects and every ray one of
        its ray objects, the answer is True with no arithmetic.  The pieces
        of one stratum share their vertex and ray objects
        (`complexes.stratum_pieces`), so this is the case for every
        incidence `build_pair` certifies.  Membership is by identity, a set
        of ids: `in` on a tuple of Fraction tuples would call
        Fraction.__eq__ on every vertex it passes over.  Both objects are
        alive, so equal ids are the same object.

        The verdict is the full test's.  The full test asks that each vertex
        of other pass self's rows as a point, each ray as a direction, and
        each lineality vector as a direction both ways.  Other has no
        lineality, and each of its vertices and rays is a vertex or ray of
        self, which has already passed exactly those rows.  In every other
        case, `_sound` False included, the full test runs."""
        if self._sound is None:
            self._sound = self._satisfied_by(self.vertices, self.rays, ())
        if self._sound and not other.lin \
                and set(map(id, self.vertices)).issuperset(map(id, other.vertices)) \
                and set(map(id, self.rays)).issuperset(map(id, other.rays)):
            return True
        return self._satisfied_by(other.vertices, other.rays, other.lin)

    def _satisfied_by(self, vertices, rays, lin):
        """Do these rational vertices pass every stored equation and facet
        as points, and these rays, and these lineality vectors both ways,
        as directions?  Decided in integers: each row is read once as
        (a, b.numerator, b.denominator), and a vertex is scaled to integer
        numerators num over a common denominator D, so each facet
        <a, v> <= b becomes <a, num> * b.den <= b.num * D, each equation
        the same with equality."""
        eqs = [(a, b.numerator, b.denominator) for a, b in self.equations]
        facets = [(a, b.numerator, b.denominator) for a, b in self.facets]
        for v in vertices:
            D = lcm(*(x.denominator for x in v))
            num = [x.numerator * (D // x.denominator) for x in v]
            for a, bn, den in eqs:
                if sum(map(mul, a, num)) * den != bn * D:
                    return False
            for a, bn, den in facets:
                if sum(map(mul, a, num)) * den > bn * D:
                    return False
        for r in (*rays, *lin, *([-x for x in l] for l in lin)):
            for a, b in self.equations:
                if sum(map(mul, a, r)):
                    return False
            for a, b in self.facets:
                if sum(map(mul, a, r)) > 0:
                    return False
        return True

    def recession(self):
        """The recession cone, built from this polyhedron's own data with no
        double description: its rays and lineality, its facets moved to
        offset 0, and as equations the integer annihilator of the rays and
        lineality.  That annihilator cuts out the exact linear hull of the
        cone, so `affine_dim` is the cone's dimension even where facets of
        the polyhedron turn into implicit equations (two parallel facets of
        [0, 1] x [0, oo) give x = 0).  The facets may be redundant."""
        hull = kernel_lattice(IntMatrix._trusted(self.rays + self.lin, self.dim)).columns()
        return self._from_fields(self.dim, [(0,) * self.dim], self.rays, self.lin,
                                 [(a, 0) for a, b in self.facets], [(u, 0) for u in hull])

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

    def tangent_lattice(self) -> IntMatrix:
        """The basis (`lattice_basis`) of the saturated integral tangent
        lattice of the affine hull."""
        if not self.equations:
            # the kernel of no equations is all of Z^dim; this skips its HNF
            return IntMatrix.identity(self.dim)
        if len(self.equations) == self.dim:
            # canonical equations are independent, so a point's kernel is 0
            return lattice_basis((), self.dim)
        A = IntMatrix._trusted(tuple(a for a, b in self.equations), self.dim)
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


def convex_hull(points) -> QPolyhedron:
    """Convex hull of rational points; redundant points are removed."""
    return QPolyhedron.from_generators(points)


# ---------------------------------------------------------------------------
# cones in fans

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
    support point lying on the face, not only its vertices; a point lifted
    below the upper faces lies in none.  `covered_by` maps every face to the
    faces one dimension up that contain it.  `ties` maps every maximal cell
    M to its tie point v_M, read off the lift (see `regular_subdivision`).
    The support points are kept as given; the heights, and the coordinates
    the cells were found in, are not kept.
    """

    support_points: tuple
    dimension: int
    maximal_cells: tuple        # tuple of frozensets
    faces: dict                 # frozenset -> dim
    covered_by: dict            # frozenset -> list of frozensets, one dim up
    ties: dict                  # maximal cell M -> its tie point v_M


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
        cell = convex_hull([coords[i] for i in sorted(members)])
        walls = [frozenset(i for i in members if _dot(a, coords[i]) == b)
                 for a, b in cell.facets]

        def rank(sub):
            i0, *rest = sorted(sub)
            diffs = [tuple(x - y for x, y in zip(coords[i], coords[i0])) for i in rest]
            return lattice_basis(diffs, dim).ncols
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
    denominator D (a positive scaling of the last coordinate, which keeps
    the upper faces).  The maximal cells are the projections of the upper
    facets (one convex hull of the lift), and their faces are read off each
    cell's vertex-facet incidences.  With affine heights the lift spans a
    hyperplane, and the single cell is conv(points) itself.

    The tie point v_M of a maximal cell M, where the terms c_i + <a_i, x>
    of M tie, is read off the upper facet or hyperplane (a', a_d) of the
    lift through M: <a', y_i> + a_d D c_i is constant on M, so v_M is
    a' / (a_d D) on the pivot columns and 0 elsewhere.

    An empty point list, or points of unequal length, raise ValueError.
    """
    points = int_rows(points, "support point")
    heights = [Fraction(h) for h in heights]
    if not points:
        raise ValueError("a subdivision needs at least one support point")
    n = len(points[0])
    for i, p in enumerate(points):
        if len(p) != n:
            raise ValueError("support point %d %r has %d coordinates, point 0 has %d"
                             % (i, p, len(p), n))
    if len(set(points)) != len(points):
        raise ValueError("duplicate support points")
    if len(heights) != len(points):
        raise ValueError("one height per point required")
    base = points[0]
    _, pivots, _ = gauss_jordan([[x - y for x, y in zip(p, base)] for p in points], n)
    coords = [tuple(p[c] for c in pivots) for p in points]
    d = len(pivots)
    num, D = _scaled(heights)
    lifted = [y + (h,) for y, h in zip(coords, num)]
    facets, eqs = hrep_from_generators(lifted, [], [], d + 1)

    def tie(a):
        v = [Fraction(0)] * n
        for k, x in zip(pivots, a):
            v[k] = Fraction(x, a[d] * D)
        return tuple(v)

    if eqs:
        # affine heights: the subdivision is the face complex of the polytope
        (a, _), = eqs
        ties = {frozenset(range(len(points))): tie(a)}
    else:
        # the offsets of a lift of integer points are integers
        ties = {frozenset(i for i, lp in enumerate(lifted) if _dot(a, lp) == b.numerator): tie(a)
                for a, b in facets if a[d] > 0}
    maximal = tuple(sorted(ties, key=sorted))
    faces, covered_by = {}, {}
    for members in maximal:
        _add_cell_faces(members, coords, faces, covered_by)
    return RegularSubdivision(tuple(points), d, maximal, faces, covered_by, ties)


def normalized_simplex_volume(sub: RegularSubdivision, cell) -> int:
    """Normalized lattice volume of a simplex cell (d! times euclidean),
    taken in the saturated lattice of the cell's own affine hull: the gcd of
    the maximal minors of its edge vectors, which is the index of their
    span in its saturation.  Affinely dependent points read 0."""
    p0, *rest = (sub.support_points[i] for i in sorted(cell))
    edges = tuple(tuple(x - y for x, y in zip(p, p0)) for p in rest)
    # the edges as rows: the transpose has the same maximal minors
    minors = exterior_power(IntMatrix._trusted(edges, len(p0)), len(edges))
    return gcd(*(m for row in minors.rows for m in row))


def is_unimodular_simplex(sub: RegularSubdivision, cell, dim) -> bool:
    """Is the cell a dim-simplex of normalized volume 1?"""
    return len(cell) == dim + 1 and normalized_simplex_volume(sub, cell) == 1


def is_primitive(sub: RegularSubdivision) -> bool:
    """True iff every maximal cell is a unimodular simplex."""
    return all(is_unimodular_simplex(sub, cell, sub.dimension)
               for cell in sub.maximal_cells)
