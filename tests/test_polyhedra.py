import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geometric_reference as reference
from geometric_reference import contains, geometry_key
from trophom import polyhedra
from trophom.polyhedra import (
    QPolyhedron,
    _canonical_equations,
    _canonical_systems,
    cone_covered_by,
    cone_meets_relint,
    convex_hull,
    dd_cone,
    hrep_from_generators,
    is_primitive,
    normalized_simplex_volume,
    regular_subdivision,
)
from trophom.exactla import (
    IntMatrix,
    det,
    kernel_lattice,
    lattice_basis,
    solve_int,
)


def in_hull_bruteforce(p, points, dim):
    """Caratheodory oracle: p in conv(points) iff some (dim+1)-subset works."""
    for T in combinations(points, dim + 1):
        # solve sum l_i t_i = p, sum l_i = 1
        A = [[t[j] for t in T] + [p[j]] for j in range(dim)] + [[1] * (len(T) + 1)]
        R, pivots = reference.fraction_rref(A, len(T))
        if any(row[-1] for row in R[len(pivots):]):
            continue
        # one solution, the free coefficients 0; a nonneg witness is enough
        lam = [Fraction(0)] * len(T)
        for row, c in zip(R, pivots):
            lam[c] = row[-1]
        if all(l >= 0 for l in lam):
            return True
    return False


class TestVectorLengths:
    """A vector of the wrong length is named where it enters: `zip` would
    read it cut to the shorter length."""

    def test_hull_point(self):
        # (1,) would be read as (1, 0), and the hull a triangle
        with pytest.raises(ValueError, match="point 1 has 1 coordinates, not 2"):
            convex_hull([(0, 0), (1,), (0, 1)])

    def test_hrep_normal(self):
        # the 5 would be dropped
        with pytest.raises(ValueError, match="facet normal 0 has 3 coordinates, not 2"):
            QPolyhedron.from_hrep([((1, 0, 5), 1)], [], 2)
        with pytest.raises(ValueError, match="equation normal 0 has 1 coordinates, not 2"):
            QPolyhedron.from_hrep([], [((1,), 1)], 2)

    def test_generators(self):
        # the rays would come out as ((0, 1), (1, 0))
        with pytest.raises(ValueError, match="ray 1 has 3 coordinates, not 2"):
            QPolyhedron.cone([(1, 0), (0, 1, 1)], 2)
        with pytest.raises(ValueError, match="lineality vector 0 has 1 coordinates, not 2"):
            QPolyhedron.from_generators([(0, 0)], lins=[(1,)])
        with pytest.raises(ValueError, match="vertex 0 has 3 coordinates, not 2"):
            QPolyhedron._from_fields(2, [(0, 0, 0)], [], [], [], [])

    def test_contains_point(self):
        # (5,) would be judged by its first coordinate alone
        with pytest.raises(ValueError, match="point 0 has 1 coordinates, not 2"):
            contains(convex_hull([(0, 0), (1, 0), (0, 1)]), (5,))


class TestConvexHull:
    def test_unit_square(self):
        P = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1), (Fraction(1, 2), Fraction(1, 2))])
        assert len(P.vertices) == 4
        assert len(P.facets) == 4
        assert P.affine_dim == 2

    def test_standard_simplex(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        P = convex_hull(pts)
        assert len(P.vertices) == 4
        assert len(P.facets) == 4

    def test_random_points_match_bruteforce(self):
        rng = random.Random(5)
        pts = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(10)]
        pts = list(dict.fromkeys(pts))
        P = convex_hull(pts)
        hull_verts = set(P.vertices)
        for p in pts:
            others = [q for q in pts if q != p]
            inside = in_hull_bruteforce(p, others, 3)
            frac_p = tuple(Fraction(x) for x in p)
            if inside:
                assert frac_p not in hull_verts
            else:
                assert frac_p in hull_verts
        # all points must lie inside the hull
        for p in pts:
            assert contains(P, p)


def fraction_contains(P, x):
    """Reference: membership in Fraction arithmetic, as `contains` was."""
    x = tuple(Fraction(v) for v in x)
    for a, b in P.equations:
        if sum(u * v for u, v in zip(a, x)) != b:
            return False
    for a, b in P.facets:
        if sum(u * w for u, w in zip(a, x)) > b:
            return False
    return True


def fraction_direction(P, r):
    """Reference: is r a recession direction of P?"""
    return (all(sum(u * v for u, v in zip(a, r)) == 0 for a, b in P.equations)
            and all(sum(u * v for u, v in zip(a, r)) <= 0 for a, b in P.facets))


def fraction_contains_polyhedron(P, Q):
    """Reference: Q in P with vertices tested by `fraction_contains`."""
    return (all(fraction_contains(P, v) for v in Q.vertices)
            and all(fraction_direction(P, r) for r in Q.rays)
            and all(fraction_direction(P, l) and fraction_direction(P, [-x for x in l])
                    for l in Q.lin))


def random_rational(rng):
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4)))


def random_polyhedron(rng, d):
    """Fractional vertices or offsets; some with rays, lineality, or an
    equation."""
    if rng.random() < 0.5:
        pts = [tuple(random_rational(rng) for _ in range(d))
               for _ in range(rng.randint(1, d + 2))]
        rays = [tuple(rng.randint(-1, 1) for _ in range(d)) for _ in range(rng.randint(0, 2))]
        lins = [tuple(rng.randint(-1, 1) for _ in range(d))] if rng.random() < 0.3 else []
        return QPolyhedron.from_generators(pts, [r for r in rays if any(r)],
                                           [l for l in lins if any(l)], d)
    ineqs = [(tuple(rng.randint(-2, 2) for _ in range(d)), random_rational(rng) + 3)
             for _ in range(rng.randint(1, d + 2))]
    eqs = [(tuple(rng.randint(-2, 2) for _ in range(d)), random_rational(rng))
           for _ in range(rng.random() < 0.3)]
    return QPolyhedron.from_hrep([(a, b) for a, b in ineqs if any(a)],
                                 [(a, b) for a, b in eqs if any(a)], d)


def primitive_normals(P):
    """P with each facet <a, x> <= b divided by gcd(a): the same set, with
    fractional offsets where a was not primitive.  The constructors keep
    (b, a) primitive instead, so their offsets are integers."""
    facets = []
    for a, b in P.facets:
        g = gcd(*a)
        facets.append((tuple(x // g for x in a), b / g))
    return QPolyhedron._from_fields(P.dim, P.vertices, P.rays, P.lin, facets, P.equations)


class TestIntegerMembership:
    def test_contains_matches_fraction_reference(self):
        """Vertices and midpoints (tight on facets), shifts along rays and
        lineality, integer and fractional points, and fractional facet
        offsets."""
        rng = random.Random(31)
        seen = {"in": 0, "out": 0, "lin": 0, "frac_offset": 0}
        for _ in range(120):
            d = rng.choice((1, 2, 3))
            P = random_polyhedron(rng, d)
            if P is None:
                continue
            seen["lin"] += bool(P.lin)
            Pf = primitive_normals(P)
            seen["frac_offset"] += any(b.denominator > 1 for a, b in Pf.facets)
            pts = list(P.vertices)
            pts += [tuple((x + y) / 2 for x, y in zip(u, v))
                    for u, v in combinations(P.vertices, 2)]
            pts += [tuple(x + t * y for x, y in zip(v, r))
                    for v in P.vertices for r in P.rays + P.lin for t in (-1, 2)]
            pts += [tuple(random_rational(rng) for _ in range(d)) for _ in range(8)]
            pts += [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(4)]
            for x in pts:
                want = fraction_contains(P, x)
                assert contains(P, x) == want, (P.facets, P.equations, x)
                assert contains(Pf, x) == want
                seen["in" if want else "out"] += 1
        assert min(seen.values()) >= 20, seen

    def test_contains_polyhedron_matches_fraction_reference(self):
        """Random sub- and non-sub-polyhedra; sub-polyhedra that share their
        generator objects with P, as the pieces of one stratum do, with and
        without lineality; and `_trusted` polyhedra whose stored vertices or
        rays break their own facets, so their cached own-generator verdict
        reads False and every answer comes from the full test."""
        rng = random.Random(37)
        seen = Counter()

        def shared(P):
            """Polyhedra made of P's own vertex and ray objects, with no
            lineality, P's, or the first coordinate axis."""
            verts = tuple(sorted(rng.sample(P.vertices, rng.randint(1, len(P.vertices)))))
            rays = tuple(sorted(rng.sample(P.rays, rng.randint(0, len(P.rays)))))
            axis = ((1,) + (0,) * (P.dim - 1),)
            return [QPolyhedron._trusted(P.dim, verts, rays, lin, (), ())
                    for lin in ((), P.lin, axis)]

        def check(P, Q):
            want = fraction_contains_polyhedron(P, Q)
            assert P.contains_polyhedron(Q) == want
            return want

        for _ in range(80):
            d = rng.choice((2, 3))
            P = random_polyhedron(rng, d)
            if P is None:
                continue
            subs = [random_polyhedron(rng, d)]
            verts = rng.sample(P.vertices, rng.randint(1, len(P.vertices)))
            mids = [tuple((x + y) / 2 for x, y in zip(u, v))
                    for u, v in zip(verts, P.vertices)]
            subs.append(QPolyhedron.from_generators(
                verts + mids, rng.sample(P.rays, rng.randint(0, len(P.rays))),
                list(P.lin) if rng.random() < 0.5 else [], d))
            shifted = [tuple(x + Fraction(1, 3) for x in v) for v in P.vertices]
            subs.append(QPolyhedron.from_generators(shifted, P.rays, P.lin, d))
            subs += shared(P)
            for Q in subs:
                if Q is not None:
                    seen[check(P, Q)] += 1
            assert P._sound is True
            seen["shared, sound"] += 1
            # a stored vertex outside P, or a stored ray that is no recession
            # direction of P
            outside = [x for x in (tuple(random_rational(rng) for _ in range(d))
                                   for _ in range(8)) if not fraction_contains(P, x)]
            bad_rays = [tuple(-x for x in r) for r in P.rays
                        if tuple(-x for x in r) not in P.rays + P.lin
                        and not fraction_direction(P, [-x for x in r])]
            broken = []
            if outside:
                verts = tuple(sorted(P.vertices + (outside[0],)))
                broken.append(QPolyhedron._trusted(d, verts, P.rays, P.lin,
                                                   P.facets, P.equations))
            if bad_rays:
                rays = tuple(sorted(P.rays + (bad_rays[0],)))
                broken.append(QPolyhedron._trusted(d, P.vertices, rays, P.lin,
                                                   P.facets, P.equations))
            for B in broken:
                for Q in subs + shared(B) + shared(B):
                    if Q is not None:
                        seen["broken", check(B, Q)] += 1
                assert B._sound is False
        assert min(seen[k] for k in (True, False, "shared, sound",
                                     ("broken", True), ("broken", False))) >= 30, seen


class TestFaceLattice:
    def test_segment(self):
        P = convex_hull([(0,), (2,)])
        faces = P.face_lattice()
        dims = sorted(F.affine_dim for F, _ in faces)
        assert dims == [0, 0, 1]

    def test_triangle(self):
        P = convex_hull([(0, 0), (1, 0), (0, 1)])
        faces = P.face_lattice()
        count = {}
        for F, _ in faces:
            count[F.affine_dim] = count.get(F.affine_dim, 0) + 1
        assert count == {0: 3, 1: 3, 2: 1}

    def test_cube_f_vector(self):
        P = convex_hull(list(product((0, 1), repeat=3)))
        count = {}
        for F, _ in P.face_lattice():
            count[F.affine_dim] = count.get(F.affine_dim, 0) + 1
        assert count == {0: 8, 1: 12, 2: 6, 3: 1}


class TestRecession:
    def test_polytope_recession_trivial(self):
        P = convex_hull([(0, 0), (1, 0), (0, 1)])
        R = P.recession()
        assert R.affine_dim == 0

    def test_from_no_points_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            QPolyhedron.from_generators([])

    def test_non_integral_ray_or_facet_normal_rejected(self):
        # int() would truncate the ray (1/2, 1) to (0, 1)
        with pytest.raises(ValueError, match=r"Fraction\(1, 2\) at ray 0, column 0"):
            QPolyhedron._from_fields(2, [(0, 0)], [(Fraction(1, 2), 1)], [], [((0, -1), 0)], [])
        with pytest.raises(ValueError, match="0.5 at facet normal 1, column 1"):
            QPolyhedron._from_fields(2, [(0, 0)], [], [], [((0, -1), 0), ((-1, 0.5), 0)], [])
        with pytest.raises(ValueError, match=r"Fraction\(1, 2\) at ray 0, column 0"):
            QPolyhedron.from_generators([(0, 0)], rays=[(Fraction(1, 2), 1)])
        with pytest.raises(ValueError, match="1.5 at lineality vector 0, column 1"):
            QPolyhedron.from_generators([(0, 0)], lins=[(1, 1.5)])
        P = QPolyhedron._from_fields(2, [(0, 0)], [(Fraction(2, 2), 1.0)], [],
                                     [((True, -1), 0)], [])
        assert P.rays == ((1, 1),) and P.facets == (((1, -1), 0),)
        assert {type(x) for r in P.rays + tuple(a for a, b in P.facets) for x in r} == {int}

    def test_no_public_constructor_takes_both_representations(self):
        """A V- and an H-representation of two different sets build no
        polyhedron: a line with no equations, and a ray with a facet that
        cuts it off.  The public constructors take one representation and
        compute the other."""
        for fields in ((2, [(0, 0)], [], [(1, 0)], [], []),
                       (2, [(0, 0)], [(0, 1)], [], [((0, -1), 0)], [])):
            with pytest.raises(TypeError, match="takes no arguments"):
                QPolyhedron(*fields)

    def test_point_plus_ray(self):
        P = QPolyhedron.from_generators([(0, 0)], rays=[(1, 0)])
        R = P.recession()
        assert R.rays == ((1, 0),)

    def test_intersection_commutes_with_recession(self):
        rng = random.Random(9)
        for _ in range(10):
            p1 = QPolyhedron.from_generators(
                [(rng.randint(-2, 2), rng.randint(-2, 2))],
                rays=[(1, 0), (rng.randint(0, 2), 1)])
            p2 = QPolyhedron.from_generators(
                [(rng.randint(-2, 2), rng.randint(-2, 2))],
                rays=[(1, rng.randint(0, 1)), (0, 1)])
            both = p1.intersect(p2)
            if both is None:
                continue
            lhs = both.recession()
            rhs = p1.recession().intersect(p2.recession())
            assert geometry_key(lhs) == geometry_key(rhs)

    def test_parallel_facets_become_an_equation(self):
        # [0, 1] x [0, oo): the facets x <= 1 and -x <= 0 both move to
        # offset 0, and together cut out the line x = 0
        P = QPolyhedron.from_hrep([((1, 0), Fraction(1)), ((-1, 0), Fraction(0)),
                                   ((0, -1), Fraction(0))], [], 2)
        R = P.recession()
        assert R.affine_dim == 1
        assert R.equations == (((1, 0), Fraction(0)),)
        assert R.rays == ((0, 1),)
        assert geometry_key(R) == geometry_key(QPolyhedron.cone([(0, 1)], 2))

    def test_matches_double_description_reference(self):
        """`recession` against the double-description route, the cone on the
        polyhedron's rays and lineality, on seeded random polyhedra: the same
        geometry key, dimension and equations, each contains the other,
        and their facets and equations admit the same small integer
        points."""
        rng = random.Random(43)
        seen = Counter()
        for _ in range(150):
            d = rng.randint(1, 4)
            P = random_polyhedron(rng, d)
            if P is None:
                continue
            got = P.recession()
            want = QPolyhedron.from_generators([(0,) * d], P.rays, P.lin, d)
            assert geometry_key(got) == geometry_key(want), P
            assert got.affine_dim == want.affine_dim, P
            assert got.equations == want.equations, P
            assert got.contains_polyhedron(want) and want.contains_polyhedron(got), P
            for x in product(range(-2, 3), repeat=d):
                assert contains(got, x) == contains(want, x), (P, x)
            seen["bounded"] += P.is_bounded()
            seen["rays"] += bool(P.rays)
            seen["lineality"] += bool(P.lin)
            seen["lower-dimensional"] += P.affine_dim < P.dim
            seen["lower-dimensional cone"] += 0 < got.affine_dim < P.dim
        assert min(seen[k] for k in ("bounded", "rays", "lineality", "lower-dimensional",
                                     "lower-dimensional cone")) >= 5, seen


class TestHrepVrepConsistency:
    def test_halfplane(self):
        P = QPolyhedron.from_hrep([((1, 0), Fraction(0))], [], 2)
        assert P is not None
        assert len(P.lin) == 1
        assert contains(P, (-3, 5))
        assert not contains(P, (1, 0))

    def test_empty(self):
        P = QPolyhedron.from_hrep([((1,), Fraction(0)), ((-1,), Fraction(-1))], [], 1)
        assert P is None

    def test_strip(self):
        # R x [0,1]: one lineality direction, two facets
        P = QPolyhedron.from_hrep(
            [((0, 1), Fraction(1)), ((0, -1), Fraction(0))], [], 2)
        assert len(P.lin) == 1
        assert P.lin[0] in ((1, 0), (-1, 0))
        assert len(P.facets) == 2


def face_lattice_faces(points, maximal_cells):
    """Reference faces of a subdivision: each maximal cell's face lattice by
    double description, every face read as the support points on it."""
    faces = {}
    for cell in maximal_cells:
        hull = convex_hull([points[i] for i in sorted(cell)])
        for F, _ in hull.face_lattice():
            faces[frozenset(i for i in cell if contains(F, points[i]))] = F.affine_dim
    return faces


def saturated_volume(points):
    """Reference normalized volume: the determinant of the edge vectors in
    coordinates of the saturated lattice of the affine hull (the kernel of
    the edges' annihilator); 0 for affinely dependent points."""
    n = len(points[0])
    edges = [tuple(x - y for x, y in zip(p, points[0])) for p in points[1:]]
    span = lattice_basis(edges, n)
    if span.ncols < len(edges):
        return 0
    if not edges:
        return 1
    normals = kernel_lattice(span.transpose()).columns()
    sat = kernel_lattice(IntMatrix(normals, ncols=n)) if normals else IntMatrix.identity(n)
    return abs(det(solve_int(sat, IntMatrix.from_columns(edges, n))))


def _simplex(n, d):
    return [p for p in product(range(d + 1), repeat=n) if sum(p) <= d]


def _random_heights(seed):
    rng = random.Random(seed)
    n = rng.choice((1, 2, 3))
    pts = _simplex(n, 2 if n == 3 else rng.choice((2, 3)))
    return pts, [rng.randint(-2, 2) for _ in pts]


SUBDIVISION_CASES = {
    "square-zero-heights": lambda: ([(0, 0), (1, 0), (0, 1), (1, 1)], [0] * 4),
    "2d2-zero-heights": lambda: (_simplex(2, 2), [0] * 6),
    "2d3-zero-heights": lambda: (_simplex(3, 2), [0] * 10),
    # the A_3 form leaves octahedra: non-simplicial maximal cells
    "2d3-a3-octahedra": lambda: (_simplex(3, 2), [
        -(sum(x * x for x in a) + a[0] * a[1] + a[0] * a[2] + a[1] * a[2])
        for a in _simplex(3, 2)]),
    "3d2-concave": lambda: (_simplex(2, 3), [-(a * a + a * b + b * b)
                                              for a, b in _simplex(2, 3)]),
    "segment-unused-point": lambda: ([(0,), (1,), (2,)], [0, -5, 0]),
    # a lower-dimensional configuration: a triangle in the plane z = 1 of R^3
    "planar-in-r3": lambda: ([(a, b, 1) for a, b in _simplex(2, 2)],
                             [0, 1, 0, 1, 1, 0]),
    # 3*Delta_2 on the plane x + y = 2z, in the saturated basis (1, -1, 0),
    # (1, 1, 1), with heights that triangulate it unimodularly; the (x, y)
    # pivot coordinates span an index-2 sublattice of Z^2
    "plane-x+y=2z": lambda: ([(a + b, b - a, b) for a, b in _simplex(2, 3)],
                             [-(a * a + a * b + b * b) for a, b in _simplex(2, 3)]),
    # the plane x = 2y contains e3, so its pivot columns are x and z
    "plane-x=2y": lambda: ([(2 * a, a, b) for a, b in _simplex(2, 2)],
                           [0, 1, 0, 1, 1, 0]),
    **{"random-%d" % seed: (lambda seed=seed: _random_heights(seed)) for seed in range(8)},
}


class TestRegularSubdivision:
    def test_all_zero_heights_single_cell(self):
        pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
        S = regular_subdivision(pts, [0, 0, 0, 0])
        assert len(S.maximal_cells) == 1
        assert S.maximal_cells[0] == frozenset({0, 1, 2, 3})

    def test_square_broken_diagonal(self):
        pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
        S = regular_subdivision(pts, [0, 0, 0, 1])
        assert len(S.maximal_cells) == 2
        assert all(len(c) == 3 for c in S.maximal_cells)
        # the diagonal through (1,0),(0,1) is not broken; both cells see (1,1)
        assert all(3 in c for c in S.maximal_cells) or all(0 in c for c in S.maximal_cells)

    def test_concave_lift_triangulates_2d2(self):
        pts = [(a, b) for a in range(3) for b in range(3 - a)]
        heights = [-(a * a + a * b + b * b) for a, b in pts]
        S = regular_subdivision(pts, heights)
        assert is_primitive(S)
        assert len(S.maximal_cells) == 4  # normalized area of 2*simplex
        # cells cover: total volume equals that of the polytope
        assert sum(normalized_simplex_volume(S, c) for c in S.maximal_cells) == 4

    def test_pairwise_intersections_are_common_faces(self):
        pts = [(a, b) for a in range(4) for b in range(4 - a)]
        heights = [-(a * a + a * b + b * b) for a, b in pts]
        S = regular_subdivision(pts, heights)
        for c1, c2 in combinations(S.maximal_cells, 2):
            meet = c1 & c2
            if meet:
                assert meet in S.faces

    def test_trivial_2d2_not_primitive(self):
        pts = [(a, b) for a in range(3) for b in range(3 - a)]
        S = regular_subdivision(pts, [0] * len(pts))
        assert not is_primitive(S)

    def test_double_interval_not_primitive(self):
        S = regular_subdivision([(0,), (2,)], [0, 0])
        assert not is_primitive(S)

    def test_unused_point(self):
        # midpoint lifted strictly below the segment's lift is in no cell
        S = regular_subdivision([(0,), (1,), (2,)], [0, -5, 0])
        assert frozenset().union(*S.maximal_cells) == {0, 2}
        assert frozenset({1}) not in S.faces
        # lifted on the segment: in the cell, which is not primitive
        S2 = regular_subdivision([(0,), (1,), (2,)], [0, 0, 0])
        assert S2.maximal_cells == (frozenset({0, 1, 2}),)
        assert not is_primitive(S2)
        # strictly concave: two unit cells
        S3 = regular_subdivision([(0,), (1,), (2,)], [0, 1, 0])
        assert is_primitive(S3)
        assert len(S3.maximal_cells) == 2

    def test_one_height_per_point(self):
        with pytest.raises(ValueError, match="one height per point required"):
            regular_subdivision([(0,), (1,)], [0, 0, 0])

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            regular_subdivision([(0, 0), (0, 0)], [0, 0])

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="at least one support point"):
            regular_subdivision([], [])

    def test_non_integral_support_point_rejected(self):
        # int() would truncate (3/2, 0) to (1, 0)
        with pytest.raises(ValueError, match=r"Fraction\(3, 2\) at support point 0, column 0"):
            regular_subdivision([(Fraction(3, 2), 0), (0, 1), (1, 1)], [0, 0, 0])
        with pytest.raises(ValueError, match="2.5 at support point 2, column 1"):
            regular_subdivision([(0, 0), (0, 1), (1, 2.5)], [0, 0, 0])
        S = regular_subdivision([(Fraction(4, 2), 0), (0, 1.0), (True, 1)], [0, 0, 0])
        assert S.support_points == ((2, 0), (0, 1), (1, 1))
        assert {type(x) for p in S.support_points for x in p} == {int}

    def test_unequal_point_lengths_rejected(self):
        # zip would cut (1, 0) to (1,) and give two cells of dimension 1
        with pytest.raises(ValueError, match=r"support point 1 \(1, 0\) has 2 coordinates"):
            regular_subdivision([(0,), (1, 0), (2, 5)], [0, 0, 0])

    @pytest.mark.parametrize("name", sorted(SUBDIVISION_CASES))
    def test_faces_match_face_lattice_reference(self, name):
        points, heights = SUBDIVISION_CASES[name]()
        S = regular_subdivision(points, heights)
        assert S.faces == face_lattice_faces(points, S.maximal_cells)

    @pytest.mark.parametrize("name", sorted(SUBDIVISION_CASES))
    def test_is_primitive_matches_volume_reference(self, name):
        points, heights = SUBDIVISION_CASES[name]()
        S = regular_subdivision(points, heights)
        assert is_primitive(S) == all(
            len(c) == S.dimension + 1
            and saturated_volume([points[i] for i in sorted(c)]) == 1
            for c in S.maximal_cells)

    def test_primitive_in_index_two_pivot_coordinates(self):
        points, heights = SUBDIVISION_CASES["plane-x+y=2z"]()
        S = regular_subdivision(points, heights)
        assert is_primitive(S) and len(S.maximal_cells) == 9
        for cell in S.maximal_cells:
            p0, p1, p2 = (points[i] for i in sorted(cell))
            xy = IntMatrix([[p1[0] - p0[0], p2[0] - p0[0]],
                            [p1[1] - p0[1], p2[1] - p0[1]]])
            assert abs(det(xy)) == 2


@pytest.mark.parametrize("n", (3, 4))
def test_normalized_volume_matches_saturated_reference(n):
    """Simplices of every dimension k in R^n from random edges, among them
    edges whose span is not saturated (two edges u, v replaced by u + v and
    u - v, or one edge scaled by 3), and affinely dependent sets, among them
    every set of n + 2 points."""
    rng = random.Random(n)
    seen = set()
    for k in range(n + 2):
        for trial in range(12):
            p0 = tuple(rng.randint(-3, 3) for _ in range(n))
            edges = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(k)]
            if k >= 2 and trial % 3 == 1:
                edges[0] = tuple(x + y for x, y in zip(edges[0], edges[1]))
                edges[1] = tuple(x - 2 * y for x, y in zip(edges[0], edges[1]))
            elif k >= 1 and trial % 3 == 2:
                edges[-1] = tuple(3 * x for x in edges[-1])
            points = [p0] + [tuple(x + y for x, y in zip(p0, e)) for e in edges]
            if len(set(points)) != len(points):
                continue
            S = regular_subdivision(points, [0] * len(points))
            got = normalized_simplex_volume(S, frozenset(range(len(points))))
            assert got == saturated_volume(points), points
            seen.add(min(got, 2))
    assert seen == {0, 1, 2}


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def hull_subdivision(points, heights):
    """Reference subdivision by the hull-based route: the upper facets of
    the lift with Fraction heights, and every cell's walls from its own
    convex hull, faces closed under intersection with them and each face's
    dimension the affine rank of its points.  Returns (maximal cells,
    faces); affine heights give the one cell conv(points)."""
    base = points[0]
    _, pivots = reference.fraction_rref([[x - y for x, y in zip(p, base)] for p in points],
                                        len(base))
    coords = [tuple(p[c] for c in pivots) for p in points]
    d = len(pivots)
    lifted = [tuple(Fraction(c) for c in y) + (Fraction(h),) for y, h in zip(coords, heights)]
    lift = convex_hull(lifted)
    if any(a[d] != 0 for a, b in lift.equations):
        maximal = [frozenset(range(len(points)))]
    else:
        maximal = sorted({frozenset(i for i, lp in enumerate(lifted) if dot(a, lp) == b)
                          for a, b in lift.facets if a[d] > 0}, key=sorted)
    faces = {}
    for members in maximal:
        cell = convex_hull([coords[i] for i in sorted(members)])
        walls = {frozenset(i for i in members if dot(a, coords[i]) == b)
                 for a, b in cell.facets}
        faces[members] = d
        todo = [members]
        while todo:
            face = todo.pop()
            for wall in walls:
                sub = face & wall
                if sub and sub not in faces:
                    i0, *rest = sorted(sub)
                    diffs = [tuple(x - y for x, y in zip(coords[i], coords[i0])) for i in rest]
                    faces[sub] = lattice_basis(diffs, d).ncols
                    todo.append(sub)
    return maximal, faces


def _fraction_heights(seed):
    rng = random.Random(seed)
    pts = _simplex(3, 2) if seed % 2 else _simplex(2, 3)
    return pts, [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in pts]


HULL_REFERENCE_CASES = {
    **SUBDIVISION_CASES,
    **{"fraction-%d" % seed: (lambda seed=seed: _fraction_heights(seed)) for seed in range(6)},
    # affine heights, the degenerate branch: the one cell is conv(points)
    "affine-2d3": lambda: (_simplex(3, 2), [Fraction(2 * a - b + 3 * c, 3) + Fraction(1, 7)
                                            for a, b, c in _simplex(3, 2)]),
    "affine-square": lambda: ([(0, 0), (1, 0), (0, 1), (1, 1)], [1, 3, -2, 0]),
    # padded supports: not full-dimensional in R^4
    "padded-3d2": lambda: ([(a, b, 0, 0) for a, b in _simplex(2, 3)],
                           [Fraction(-(a * a + a * b + b * b), 2) for a, b in _simplex(2, 3)]),
    "padded-octahedra": lambda: ([a + (0,) for a in _simplex(3, 2)], [
        -(sum(x * x for x in a) + a[0] * a[1] + a[0] * a[2] + a[1] * a[2])
        for a in _simplex(3, 2)]),
}


@pytest.mark.parametrize("name", sorted(HULL_REFERENCE_CASES))
def test_faces_match_hull_reference(name):
    """Cells, faces and dimensions against the hull-based route, face for
    face; and `covered_by` against a scan of every pair of faces."""
    points, heights = HULL_REFERENCE_CASES[name]()
    S = regular_subdivision(points, heights)
    maximal, faces = hull_subdivision(points, heights)
    assert sorted(S.maximal_cells, key=sorted) == maximal
    assert S.faces == faces
    assert set(S.covered_by) == set(faces)
    for F, covers in S.covered_by.items():
        assert len(covers) == len(set(covers)), sorted(F)
        assert set(covers) == {C for C, d in faces.items() if F < C and d == faces[F] + 1}


def test_hull_reference_reaches_every_branch():
    """The reference cases reach simplex cells, non-simplex cells and the
    affine-heights branch."""
    S = regular_subdivision(*HULL_REFERENCE_CASES["2d3-a3-octahedra"]())
    assert {len(M) == S.dimension + 1 for M in S.maximal_cells} == {True, False}
    points, heights = HULL_REFERENCE_CASES["affine-2d3"]()
    assert regular_subdivision(points, heights).maximal_cells == \
        (frozenset(range(len(points))),)



def _random_configuration(rng):
    """Distinct lattice points of R^n, sometimes only one, on an affine
    lattice of random rank k <= n, with random Fraction heights or, one
    time in three, affine ones."""
    n = rng.randint(1, 4)
    k = rng.randint(1, n)
    basis = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(k)]
    shift = tuple(rng.randint(-3, 3) for _ in range(n))
    points = sorted({tuple(s + sum(c * b[j] for c, b in zip(coeffs, basis))
                           for j, s in enumerate(shift))
                     for coeffs in ([rng.randint(-2, 2) for _ in range(k)]
                                    for _ in range(rng.randint(1, k + 6)))})
    if rng.random() < 1 / 3:
        w, c = [random_rational(rng) for _ in range(n)], random_rational(rng)
        return points, [c + sum(x * y for x, y in zip(w, p)) for p in points], True
    return points, [random_rational(rng) for _ in points], False


def fraction_tie_point(points, heights, M):
    """The reference tie point of a maximal cell M: the Fraction solution of
    <a_i - a_0, x> = c_0 - c_i over i in M, 0 off the pivot columns."""
    i0, *rest = sorted(M)
    n = len(points[i0])
    rows = [[x - y for x, y in zip(points[i], points[i0])] + [heights[i0] - heights[i]]
            for i in rest]
    R, pivots = reference.fraction_rref(rows, n)
    assert not any(row[n] for row in R[len(pivots):])
    v = [Fraction(0)] * n
    for row, k in zip(R, pivots):
        v[k] = row[n]
    return tuple(v)


def test_ties_match_fraction_solve():
    """Every maximal cell's tie point, read off the lifted hull, is the
    Fraction solution of its tie equations with zeros off the pivot
    columns; there the terms of the cell tie and every other term is
    smaller.  On random full- and lower-dimensional supports, single
    points among them, with Fraction heights and with affine ones (one
    cell)."""
    rng = random.Random(47)
    kinds = Counter()
    for _ in range(600):
        points, heights, affine = _random_configuration(rng)
        S = regular_subdivision(points, heights)
        assert set(S.ties) == set(S.maximal_cells)
        for M, v in S.ties.items():
            assert v == fraction_tie_point(points, heights, M), (points, heights, sorted(M))
            assert all(type(x) is Fraction for x in v)
            values = [c + sum(x * y for x, y in zip(a, v)) for a, c in zip(points, heights)]
            top = max(values)
            assert {i for i, y in enumerate(values) if y == top} == M
        n = len(points[0])
        kinds["affine"] += affine
        kinds["fraction heights"] += any(h.denominator > 1 for h in heights)
        kinds["full-dimensional"] += S.dimension == n
        kinds["lower-dimensional"] += 0 < S.dimension < n
        kinds["single point"] += S.dimension == 0
        kinds["several cells"] += len(S.maximal_cells) > 1
    assert min(kinds.values()) >= 40, kinds


class TestConePredicates:
    def test_meets_relint(self):
        quad = QPolyhedron.cone([(1, 0), (0, 1)], 2)
        ray = QPolyhedron.cone([(1, 0)], 2)
        assert cone_meets_relint(QPolyhedron.cone([(1, 1)], 2), quad)
        assert not cone_meets_relint(ray, quad)
        assert cone_meets_relint(ray, ray)
        # the apex cone is met by anything
        apex = convex_hull([(0, 0)])
        assert cone_meets_relint(ray, apex)

    def test_covered_by(self):
        quad_pp = QPolyhedron.cone([(1, 0), (0, 1)], 2)
        quad_pm = QPolyhedron.cone([(1, 0), (0, -1)], 2)
        right = QPolyhedron.cone([(0, 1), (0, -1), (1, 0)], 2)
        assert cone_covered_by(quad_pp, [right])
        assert cone_covered_by(right, [quad_pp, quad_pm])
        assert not cone_covered_by(right, [quad_pp])
        full = QPolyhedron.from_generators([(0, 0)], lins=[(1, 0), (0, 1)])
        assert not cone_covered_by(full, [quad_pp, quad_pm])


def _random_dd_systems(seed, count):
    """`count` constraint systems in dimensions 1-5, and `count` more that
    `hrep_from_generators` hands to `dd_cone` for random points, rays and
    lineality: small integer entries, so that ties, repeated rows and
    degenerate hulls are common."""
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        d = rng.randint(1, 5)
        systems.append(([tuple(rng.randint(-3, 3) for _ in range(d))
                         for _ in range(rng.randint(0, d + 5))], d))

    def hulls():
        for _ in range(count):
            d = rng.randint(1, 5)
            pts = [tuple(rng.choice((rng.randint(-2, 2), random_rational(rng)))
                         for _ in range(d)) for _ in range(rng.randint(1, d + 4))]
            gens = [tuple(rng.randint(-1, 1) for _ in range(d)) for _ in range(3)]
            rays = [r for r in gens[:rng.randint(0, 2)] if any(r)]
            lins = [l for l in gens[2:] if any(l) and rng.random() < 0.2]
            hrep_from_generators(pts, rays, lins, d)

    return systems, reference.recorded_dd_cone_calls(hulls)


def test_dd_cone_matches_recomputing_reference():
    """Inherited tight sets give the same lineality and rays, in the same
    order, as tight sets recomputed at every step: on 1,600 constraint
    cones and the 1,600 homogenised hulls of random generators."""
    cones, hulls = _random_dd_systems(31, 1600)
    assert len(hulls) == 1600
    for constraints, d in cones + hulls:
        assert dd_cone(constraints, d) == reference.dd_cone(constraints, d), (constraints, d)


# A 4-dimensional cone over the cube [-1, 1]^3 (at t = 1) with the facet
# x1 <= t given twice, then cut by x2 + x3 <= t.  On the facet x1 = t the
# cut leaves (1, 1, 1) positive and (1, -1, -1) negative; they share the
# doubled facet, two tight constraints, as many as an adjacent pair needs,
# but (1, 1, -1) and (1, -1, 1) are tight there too, so the pair is no edge.
_CUBE_THIRD_RAY = ([(1, 0, 0, -1), (-1, 0, 0, -1), (0, 1, 0, -1), (0, -1, 0, -1),
                    (0, 0, 1, -1), (0, 0, -1, -1), (1, 0, 0, -1), (0, 1, 1, -1)], 4)
# the second constraint is a lineality step that moves the ray the first
# one made, and one lineality vector is left
_MOVED_BY_LINEALITY = ([(1, 0, 0), (1, 1, 0)], 3)


def _constraint_systems():
    return st.integers(1, 5).flatmap(lambda d: st.tuples(
        st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=d + 5), st.just(d)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_constraint_systems())
@example(_CUBE_THIRD_RAY)
@example(_MOVED_BY_LINEALITY)
def test_dd_cone_property_matches_reference(system):
    """The integer-only double description, with its inherited tight sets
    and one `count` per pair, gives the lineality and rays, in the same
    order, of the reference that recomputes every tight set."""
    constraints, d = system
    assert dd_cone(constraints, d) == reference.dd_cone(constraints, d)


def test_dd_cone_pinned_examples_by_hand():
    """The pinned examples of the property test, worked by hand: the cut
    cube keeps the six vertices with x2 + x3 <= 1 and the four points where
    the cut meets the edges from (x1, 1, 1), and nothing on the diagonal of
    the facet x1 = t; the lineality example keeps one lineality vector, and
    the ray (-1, 0, 0) of the first step moves to (-1, 1, 0)."""
    lin, rays = dd_cone(*_CUBE_THIRD_RAY)
    assert lin == []
    assert (1, 1, 1, 1) not in rays and (1, 0, 0, 1) not in rays
    assert sorted(rays) == sorted(
        [(x, y, z, 1) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1) if y + z <= 1]
        + [(x, 0, 1, 1) for x in (-1, 1)] + [(x, 1, 0, 1) for x in (-1, 1)])
    lin, rays = dd_cone(*_MOVED_BY_LINEALITY)
    assert lin == [(0, 0, 1)] and sorted(rays) == [(-1, 1, 0), (0, -1, 0)]


def _int_generators():
    return st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=d + 4),
        st.lists(st.tuples(*[st.integers(-1, 1)] * d), max_size=2),
        st.lists(st.tuples(*[st.integers(-1, 1)] * d), max_size=1),
        st.just(d)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_int_generators())
def test_hrep_of_int_points_equals_hrep_of_fraction_points(gens):
    """Integer points homogenize as they are, with no Fraction round-trip,
    and give the facets and equations of the same points as Fractions."""
    points, rays, lins, d = gens
    as_fractions = [tuple(map(Fraction, p)) for p in points]
    assert hrep_from_generators(points, rays, lins, d) == \
        hrep_from_generators(as_fractions, rays, lins, d)


def _random_equation_system(rng, dim):
    """Rows with Fraction offsets, integer or Fraction normals, some rows
    combinations of earlier ones; sometimes an inconsistent row."""
    rows = []
    for _ in range(rng.randint(0, dim + 2)):
        if rows and rng.random() < 0.4:
            (a, b), (c, e) = rng.choice(rows), rng.choice(rows)
            k, m = random_rational(rng), rng.randint(-2, 2)
            rows.append((tuple(k * x + m * y for x, y in zip(a, c)), k * b + m * e))
        else:
            rows.append((tuple(rng.choice((rng.randint(-4, 4), random_rational(rng)))
                               for _ in range(dim)), random_rational(rng)))
    if rows and rng.random() < 0.15:
        a, b = rng.choice(rows)
        rows.append((a, b + 1))
    return rows


def test_canonical_equations_match_fraction_reference():
    """The integer elimination gives the primitive rows of the Fraction
    reduced row echelon form, sorted: on random systems with dependent rows,
    Fraction offsets and entries, inconsistent rows, and the empty
    system."""
    rng = random.Random(41)
    kinds = Counter()
    for _ in range(1500):
        dim = rng.randint(1, 5)
        eqs = _random_equation_system(rng, dim)
        got = _canonical_equations(eqs, dim)
        assert got == reference.canonical_equations(eqs, dim), (eqs, dim)
        assert all(type(x) is int for a, b in got for x in a)
        assert all(type(b) is Fraction for a, b in got)
        kinds["dependent"] += len(got) < len(eqs)
        kinds["inconsistent"] += any(not any(a) for a, b in got)
        kinds["fraction offset"] += any(b.denominator > 1 for a, b in eqs)
    assert min(kinds.values()) >= 50, kinds
    for dim in range(4):
        assert _canonical_equations([], dim) == reference.canonical_equations([], dim) == ()


def test_canonical_systems_match_fraction_reference(monkeypatch):
    """One elimination of shared integer normals, with each system's
    offsets riding along, gives every system's canonical equations, and is
    the only `gauss_jordan` a call takes: on random normals (negative
    pivots among them) with offsets of different denominators; on
    dependent normals, consistent or not; and on the empty system."""
    rng = random.Random(43)
    calls = Counter()
    real = polyhedra.gauss_jordan

    def counted(rows, ncols):
        calls["gauss_jordan"] += 1
        return real(rows, ncols)

    monkeypatch.setattr(polyhedra, "gauss_jordan", counted)
    kinds = Counter()
    for _ in range(800):
        dim = rng.randint(1, 5)
        normals = [tuple(rng.randint(-4, 4) for _ in range(dim))
                   for _ in range(rng.randint(0, dim))]
        if normals and rng.random() < 0.3:
            a, c = rng.choice(normals), rng.choice(normals)
            k, m = rng.randint(-2, 2), rng.randint(-2, 2)
            normals.append(tuple(k * x + m * y for x, y in zip(a, c)))
        offsets = [tuple(random_rational(rng) for _ in normals)
                   for _ in range(rng.randint(1, 4))]
        independent = lattice_basis(normals, dim).ncols == len(normals)
        calls.clear()
        got = _canonical_systems(normals, offsets, dim)
        assert calls["gauss_jordan"] == 1
        assert len(got) == len(offsets)
        for bs, eqs in zip(offsets, got):
            assert eqs == reference.canonical_equations(list(zip(normals, bs)), dim), \
                (normals, bs, dim)
            assert all(type(x) is int for a, b in eqs for x in a)
            assert all(type(b) is Fraction for a, b in eqs)
            kinds["inconsistent"] += any(not any(a) for a, b in eqs)
        kinds["dependent"] += not independent
        kinds["negative pivot"] += any(next((x for x in a if x), 0) < 0 for a in normals)
        kinds["denominators differ"] += len({lcm(*(b.denominator for b in bs))
                                             for bs in offsets}) > 1
    assert min(kinds.values()) >= 40, kinds
    for dim in range(4):
        assert _canonical_systems([], [(), ()], dim) == [(), ()]


def test_point_tangent_lattice_takes_no_hnf(monkeypatch):
    """A point has as many canonical equations as its dimension, and its
    tangent lattice is the zero lattice with no `kernel_lattice`
    elimination: the same basis as the saturated kernel of its equations.
    Other polyhedra still take one."""
    rng = random.Random(53)
    points = [QPolyhedron.from_generators([tuple(random_rational(rng) for _ in range(d))])
              for d in range(1, 6) for _ in range(5)]
    want = [kernel_lattice(IntMatrix([a for a, b in P.equations], ncols=P.dim))
            for P in points]
    calls = Counter()
    real = polyhedra.kernel_lattice

    def counted(M):
        calls["kernel_lattice"] += 1
        return real(M)

    monkeypatch.setattr(polyhedra, "kernel_lattice", counted)
    for P, L in zip(points, want):
        assert len(P.equations) == P.dim and P.affine_dim == 0
        T = P.tangent_lattice()
        assert T == L and T.rows == ((),) * P.dim and T.ncols == 0
    assert calls["kernel_lattice"] == 0
    segment = convex_hull([(0, 0, 1), (2, 1, 1)])
    assert segment.tangent_lattice().columns() == [(2, 1, 0)]
    assert calls["kernel_lattice"] == 1


def test_own_generators_checked_once_per_build(monkeypatch):
    """Across one `build_pair`, each polyhedron runs `_satisfied_by` on its
    own vertices and rays at most once, though many are tested against
    several of their facets' pieces, and each verdict reads True."""
    from trophom.complexes import build_pair
    from trophom.tropio import normal_fan, newton_polytope, TropicalPolynomial

    checked = []    # every polyhedron checked, kept alive so no id is reused
    tests = []
    real_check = QPolyhedron._satisfied_by
    real_contains = QPolyhedron.contains_polyhedron

    def counted_check(self, vertices, rays, lin):
        if vertices is self.vertices:
            checked.append(self)
        return real_check(self, vertices, rays, lin)

    def counted_contains(self, other):
        tests.append(self)
        return real_contains(self, other)

    monkeypatch.setattr(QPolyhedron, "_satisfied_by", counted_check)
    monkeypatch.setattr(QPolyhedron, "contains_polyhedron", counted_contains)
    pts = [(a, b, c) for a in range(3) for b in range(3 - a) for c in range(3 - a - b)]
    f = TropicalPolynomial(3, [(p, -(p[0] ** 2 + p[1] ** 2 + p[2] ** 2 + p[0] * p[1]))
                               for p in pts])
    build_pair(f, normal_fan(newton_polytope(f)))
    checks = Counter(map(id, checked))
    assert checks and max(checks.values()) == 1
    assert len(tests) > 2 * len(checks)
    assert {P._sound for P in checked} == {True}
