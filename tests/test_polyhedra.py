import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from trophom.polyhedra import (
    QPolyhedron,
    cone_covered_by,
    cone_hull,
    cone_meets_relint,
    convex_hull,
    is_primitive,
    normalized_simplex_volume,
    regular_subdivision,
)
from trophom.exactla import (
    IntMatrix,
    LatticeSubspace,
    det,
    kernel_lattice,
    solve_int,
    solve_rational,
)


def in_hull_bruteforce(p, points, dim):
    """Caratheodory oracle: p in conv(points) iff some (dim+1)-subset works."""
    for T in combinations(points, dim + 1):
        # solve sum l_i t_i = p, sum l_i = 1
        A = [[Fraction(t[j]) for t in T] for j in range(dim)] + [[Fraction(1)] * len(T)]
        b = [Fraction(x) for x in p] + [Fraction(1)]
        lam = solve_rational(A, b)
        if lam is not None and all(l >= 0 for l in lam):
            # solve_rational returns one solution; nonneg witness is enough
            return True
    return False


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
            assert P.contains(p)


def fraction_contains(P, x, strict=False):
    """Reference: membership in Fraction arithmetic, as `contains` was."""
    x = tuple(Fraction(v) for v in x)
    for a, b in P.equations:
        if sum(u * v for u, v in zip(a, x)) != b:
            return False
    for a, b in P.facets:
        v = sum(u * w for u, w in zip(a, x))
        if v > b or (strict and v == b):
            return False
    return True


def fraction_contains_polyhedron(P, Q):
    """Reference: Q in P with vertices tested by `fraction_contains`."""
    def direction(r):
        return (all(sum(u * v for u, v in zip(a, r)) == 0 for a, b in P.equations)
                and all(sum(u * v for u, v in zip(a, r)) <= 0 for a, b in P.facets))
    return (all(fraction_contains(P, v) for v in Q.vertices)
            and all(direction(r) for r in Q.rays)
            and all(direction(l) and direction([-x for x in l]) for l in Q.lin))


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
    return QPolyhedron(P.dim, P.vertices, P.rays, P.lin, facets, P.equations)


class TestIntegerMembership:
    def test_contains_matches_fraction_reference(self):
        """Vertices and midpoints (tight on facets), shifts along rays and
        lineality, integer and fractional points, strict and not, and
        fractional facet offsets."""
        rng = random.Random(31)
        seen = {"in": 0, "out": 0, "tight": 0, "lin": 0, "frac_offset": 0}
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
                assert P.contains(x) == want, (P.facets, P.equations, x)
                assert P.contains(x, strict=True) == fraction_contains(P, x, strict=True)
                assert Pf.contains(x) == want
                assert Pf.contains(x, strict=True) == fraction_contains(Pf, x, strict=True)
                seen["in" if want else "out"] += 1
                seen["tight"] += want and not fraction_contains(P, x, strict=True)
        assert min(seen.values()) >= 20, seen

    def test_contains_polyhedron_matches_fraction_reference(self):
        rng = random.Random(37)
        seen = {True: 0, False: 0}
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
            for Q in subs:
                if Q is None:
                    continue
                want = fraction_contains_polyhedron(P, Q)
                assert P.contains_polyhedron(Q) == want
                seen[want] += 1
        assert min(seen.values()) >= 30, seen


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
            assert lhs == rhs


class TestHrepVrepConsistency:
    def test_halfplane(self):
        P = QPolyhedron.from_hrep([((1, 0), Fraction(0))], [], 2)
        assert P is not None
        assert len(P.lin) == 1
        assert P.contains((-3, 5))
        assert not P.contains((1, 0))

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
            faces[frozenset(i for i in cell if F.contains(points[i]))] = F.affine_dim
    return faces


def saturated_volume(points):
    """Reference normalized volume: the determinant of the edge vectors in
    coordinates of the saturated lattice of the affine hull (the kernel of
    the edges' annihilator); 0 for affinely dependent points."""
    n = len(points[0])
    edges = [tuple(x - y for x, y in zip(p, points[0])) for p in points[1:]]
    span = LatticeSubspace.from_columns(edges, n)
    if span.rank < len(edges):
        return 0
    if not edges:
        return 1
    normals = kernel_lattice(span.basis.transpose()).basis.columns()
    sat = kernel_lattice(IntMatrix(normals, ncols=n)) if normals \
        else LatticeSubspace.full(n)
    return abs(det(solve_int(sat.basis, IntMatrix.from_columns(edges, n))))


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
        assert all(S.used)

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
        # midpoint lifted strictly below the segment's lift is unused
        S = regular_subdivision([(0,), (1,), (2,)], [0, -5, 0])
        assert S.used == (True, False, True)
        # lifted on the segment: used, cell is not primitive
        S2 = regular_subdivision([(0,), (1,), (2,)], [0, 0, 0])
        assert S2.used == (True, True, True)
        assert not is_primitive(S2)
        # strictly concave: two unit cells
        S3 = regular_subdivision([(0,), (1,), (2,)], [0, 1, 0])
        assert is_primitive(S3)
        assert len(S3.maximal_cells) == 2

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            regular_subdivision([(0, 0), (0, 0)], [0, 0])

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



class TestConePredicates:
    def test_meets_relint(self):
        quad = cone_hull([(1, 0), (0, 1)], 2)
        assert cone_meets_relint(cone_hull([(1, 1)], 2), quad)
        assert not cone_meets_relint(cone_hull([(1, 0)], 2), quad)
        assert cone_meets_relint(cone_hull([(1, 0)], 2), cone_hull([(1, 0)], 2))
        # the apex cone is met by anything
        apex = convex_hull([(0, 0)])
        assert cone_meets_relint(cone_hull([(1, 0)], 2), apex)

    def test_covered_by(self):
        quad_pp = cone_hull([(1, 0), (0, 1)], 2)
        quad_pm = cone_hull([(1, 0), (0, -1)], 2)
        right = cone_hull([(0, 1), (0, -1), (1, 0)], 2)
        assert cone_covered_by(quad_pp, [right])
        assert cone_covered_by(right, [quad_pp, quad_pm])
        assert not cone_covered_by(right, [quad_pp])
        full = QPolyhedron.cone([], 2, lins=[(1, 0), (0, 1)])
        assert not cone_covered_by(full, [quad_pp, quad_pm])

    def test_lattice_points(self):
        P = convex_hull([(0, 0), (3, 0), (0, 3)])
        assert len(P.lattice_points()) == 10
        assert P.interior_lattice_points() == [(1, 1)]
