import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

import geometric_reference as reference
from geometric_reference import (
    cells_of_dim,
    closure,
    closure_is_compact,
    containment_incidences,
    facets_of,
    geometry_key,
    slice_pair,
    toric_complex,
    validate,
    with_geometry,
)
from trophom import complexes
from trophom.complexes import (
    BuildError,
    build_pair,
    dual_cell_geometry,
    is_cellular_pair,
    is_combinatorially_ample,
    is_nonsingular,
    is_proper,
)
from trophom.polyhedra import QPolyhedron, dd_cone, regular_subdivision
from trophom.tropio import (
    TropicalPolynomial,
    load_fan,
    newton_polytope,
    normal_fan,
    parse_polynomial,
)
from trophom.toric import ToricVariety

TP3_BLOWUP_FAN = """dim 3
ray 0: -1 0 0
ray 1: 0 -1 0
ray 2: 0 0 -1
ray 3: 1 1 1
ray 4: -1 -1 -1
cone: 0 1 3
cone: 0 2 3
cone: 1 2 3
cone: 0 1 4
cone: 0 2 4
cone: 1 2 4
"""
HALF_TORIC_FAN = "dim 3\nray 0: 0 0 -1\ncone: 0\n"
TP3_MINUS_CONE_FAN = """dim 3
ray 0: -1 0 0
ray 1: 0 -1 0
ray 2: 0 0 -1
ray 3: 1 1 1
cone: 0 1 3
cone: 0 2 3
cone: 1 2 3
"""
# inside the normal cone of the edge of 2*Delta_3 on the x1-axis
ONE_RAY_FAN = "dim 3\nray 0: 0 -1 -1\ncone: 0\n"


def pair_line_tp2():
    f = parse_polynomial("max(0, x1, x2)")
    return build_pair(f, normal_fan(newton_polytope(f)))


def pair_hyperplane_rn(n):
    f = parse_polynomial("max(0, %s)" % ", ".join("x%d" % i for i in range(1, n + 2)))
    return build_pair(f, load_fan("dim %d\n" % (n + 1)))


def pair_blowup():
    f = parse_polynomial("max(0, x1, x2, x3)")
    return build_pair(f, load_fan(TP3_BLOWUP_FAN))


def pair_degenerate(n):
    f = parse_polynomial("max(0, x1)").padded(n + 1)
    return build_pair(f, load_fan("dim %d\n" % (n + 1)))


def freudenthal_poly(n, d):
    """A hypersurface on d*Delta_n whose Freudenthal heights triangulate it
    unimodularly: with suffix sums y_i, -(sum y_i^2 + sum (y_i - y_j)^2)."""
    terms = []
    for a in product(range(d + 1), repeat=n):
        if sum(a) <= d:
            y = [sum(a[i:]) for i in range(n)]
            h = sum(v * v for v in y) + sum((y[i] - y[j]) ** 2
                                            for i, j in combinations(range(n), 2))
            terms.append((a, -h))
    return TropicalPolynomial(n, terms)


def quadric_poly():
    return freudenthal_poly(3, 2)


def curve_poly(d):
    pts = [(a, b) for a in range(d + 1) for b in range(d + 1 - a)]
    from trophom.tropio import TropicalPolynomial
    return TropicalPolynomial(
        2, [(p, -(p[0] * p[0] + p[0] * p[1] + p[1] * p[1])) for p in pts])


class TestDualComplex:
    def test_hyperplane_rn_structure(self):
        for n in (1, 2):
            pair = pair_hyperplane_rn(n)
            X = pair.X
            # one vertex, n+2 rays, and generally C(n+2, k) cells of codim k-1
            fv = X.f_vector()
            assert fv[0] == 1
            from math import comb
            for q in range(n + 1):
                assert fv[q] == comb(n + 2, n + 2 - q), (n, q, fv)

    def test_duality_counts(self):
        for f, fan in [
            (curve_poly(2), None),
            (parse_polynomial("max(0, x1, x2)"), None),
        ]:
            fan = fan or load_fan("dim 2\n")
            pair = build_pair(f, fan)
            S = pair.subdivision
            n1 = pair.Y.dim
            for q in range(n1):
                want = len([1 for F, d in S.faces.items() if d == n1 - q])
                got = len([c for c in pair.X.cells if c.sed == pair.Y.apex
                           and c.dim == q])
                assert got == want

    def test_cubic_curve_cycle(self):
        pair = build_pair(curve_poly(3), load_fan("dim 2\n"))
        X = pair.X
        # first Betti number of the compact part (rays retract onto their
        # endpoints) = interior lattice points of 3*simplex = 1
        v = len(cells_of_dim(X, 0))
        e = len([c for c in cells_of_dim(X, 1) if c.compact])
        comps = _graph_components(X)
        assert e - v + comps == 1
        assert validate(with_geometry(pair).X, full=True)

    def test_degenerate_input_rejected(self):
        with pytest.raises(BuildError):
            build_pair(parse_polynomial("max(0)"), load_fan("dim 1\n"))

    def test_cone_in_no_normal_cone_rejected(self):
        # the cone spanned by e1, e2 has no common maximiser on {0, e1, e2}
        f = parse_polynomial("max(0, x1, x2)")
        fan = load_fan("dim 2\nray 0: 1 0\nray 1: 0 1\ncone: 0 1\n")
        with pytest.raises(BuildError) as err:
            build_pair(f, fan)
        assert "cone [0, 1]" in str(err.value)
        assert "rays (1, 0), (0, 1)" in str(err.value)

    def test_more_variables_than_the_fan_names_both_counts(self):
        with pytest.raises(BuildError, match="3 variables, more than the fan dimension 2"):
            build_pair(parse_polynomial("max(0, x3)"), load_fan("dim 2\n"))

    def test_dimension_cap(self):
        f = parse_polynomial("max(0, x1, x2, x3, x4, x5)")
        with pytest.raises(BuildError):
            build_pair(f, load_fan("dim 5\n"))
        build_pair(f, load_fan("dim 5\n"), max_dim=5)


def _graph_components(X):
    verts = [i for i, c in enumerate(X.cells) if c.dim == 0]
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    facets = facets_of(X)
    for i, c in enumerate(X.cells):
        if c.dim != 1 or not c.compact:
            continue
        vs = facets[i]
        for a in vs[1:]:
            ra, rb = find(a), find(vs[0])
            if ra != rb:
                parent[ra] = rb
    return len({find(v) for v in verts})


class TestCompactified:
    def test_line_in_tp2_counts(self):
        pair = pair_line_tp2()
        assert pair.Yref.f_vector() == [7, 9, 3]
        assert pair.X.f_vector() == [4, 3]
        geo = with_geometry(pair)
        assert validate(geo.Yref, full=True)
        assert validate(geo.X, full=True)
        # X has one mobile vertex and three sedentary ones
        sed0 = [c for c in cells_of_dim(pair.X, 0) if c.sed == pair.Y.apex]
        assert len(sed0) == 1
        # every X cell is a Yref cell
        for i, c in enumerate(pair.X.cells):
            assert pair.Yref.cells[pair.embed[i]] is c

    def test_line_compactness_flags(self):
        pair = pair_line_tp2()
        assert all(c.compact for c in pair.Yref.cells)

    def test_blowup_structure(self):
        pair = pair_blowup()
        geo = with_geometry(pair)
        assert validate(geo.Yref)
        assert validate(geo.X)
        # X misses the exceptional stratum entirely
        exc_ray = pair.Y.fan.rays.index((-1, -1, -1))
        exc_cone = pair.Y.cone_index[frozenset([exc_ray])]
        assert not any(c.sed == exc_cone for c in pair.X.cells)
        assert any(c.sed == exc_cone for c in pair.Yref.cells)

    def test_degenerate_newton_polytope(self):
        pair = pair_degenerate(2)
        # X is a classical plane: one 2-cell, nothing else
        assert pair.X.f_vector() == [0, 0, 1]
        assert pair.Yref.f_vector() == [0, 0, 1, 2]

    def test_sedentary_face_has_unique_mobile_coface(self):
        # at most one sedentarity-0 face of X projects onto a given sedentary
        # face (its dimension is forced to dim + sed by properness)
        for pair in (pair_line_tp2(), pair_blowup()):
            X = with_geometry(pair).X
            facets = facets_of(X)
            for i, c in enumerate(X.cells):
                if c.sed == pair.Y.apex:
                    continue
                witnesses = []
                for j, s in enumerate(X.cells):
                    if s.sed != pair.Y.apex or i not in closure(facets, j):
                        continue
                    if c.sed in pair.Y.reached_cones(s.geom, s.sed):
                        img = s.geom.linear_image(pair.Y.projection(s.sed, c.sed))
                        if geometry_key(img) == geometry_key(c.geom):
                            witnesses.append(j)
                assert len(witnesses) == 1
                assert X.cells[witnesses[0]].dim == c.dim + pair.Y.cone_dim(c.sed)


class TestPredicates:
    def test_line_tp2_predicates(self):
        pair = pair_line_tp2()
        assert is_proper(pair)
        assert is_nonsingular(pair)
        ample, failing = is_combinatorially_ample(pair)
        assert ample and not failing
        assert is_cellular_pair(pair) == "yes"

    def test_blowup_fails_ampleness_at_exceptional_component(self):
        pair = pair_blowup()
        assert is_proper(pair)
        assert is_nonsingular(pair)
        ample, failing = is_combinatorially_ample(pair)
        assert not ample
        assert len(failing) == 1
        gamma = pair.Yref.cells[failing[0]]
        # the failing component is the one dual to the constant term, whose
        # gamma^o contains the exceptional stratum
        exc_ray = pair.Y.fan.rays.index((-1, -1, -1))
        exc_cone = pair.Y.cone_index[frozenset([exc_ray])]
        assert (exc_cone, gamma.face) in pair.Yref.by_key

    def test_conic_trivial_subdivision_singular(self):
        from trophom.tropio import TropicalPolynomial
        pts = [(a, b) for a in range(3) for b in range(3 - a)]
        f = TropicalPolynomial(2, [(p, 0) for p in pts])
        pair = build_pair(f, normal_fan(newton_polytope(f)))
        assert not is_nonsingular(pair)

    def test_degenerate_cellular(self):
        assert is_cellular_pair(pair_degenerate(1)) == "no"
        assert is_cellular_pair(pair_hyperplane_rn(1)) == "yes"

    def test_missing_boundary_curve_not_cellular(self):
        # three rays (-2,1), (1,-2), (1,1) from Newton triangle (0,0),(1,2),(2,1)
        from trophom.tropio import TropicalPolynomial
        f = TropicalPolynomial(2, [((0, 0), 0), ((1, 2), 0), ((2, 1), 0)])
        fan = load_fan("dim 2\nray 0: -1 0\nray 1: 0 -1\ncone: 0 1\n")
        pair = build_pair(f, fan)
        assert not any(c.sed != pair.Y.apex for c in pair.X.cells)
        assert is_cellular_pair(pair) == "no"

    def test_line_in_half_toric_proper_but_not_cellular(self):
        f = parse_polynomial("max(0, x1)").padded(2)
        fan = load_fan("dim 2\nray 0: 0 -1\ncone: 0\n")
        pair = build_pair(f, fan)
        assert is_proper(pair)
        assert is_cellular_pair(pair) == "no"


def piece_cones(Z, c):
    """gamma^o of the sedentarity-0 cell c of Z, as the cones eta whose
    strata hold a piece (eta, F) of c, scanned off `Z.by_key`."""
    return {eta for eta in range(len(Z.Y.cones)) if (eta, c.face) in Z.by_key}


def maximal_cones(Y, ids):
    return [a for a in ids if not any(Y.cones[a] < Y.cones[b] for b in ids)]


def is_face_lattice(Y, ids):
    """Are the cones `ids` the full face lattice of one fan cone?"""
    cones = {Y.cones[a] for a in ids}
    top = maximal_cones(Y, ids)
    return len(top) == 1 and cones == {
        frozenset(s) for k in range(len(Y.cones[top[0]]) + 1)
        for s in combinations(Y.cones[top[0]], k)}


class TestGammaOpen:
    def test_bounded_cell_is_alone(self):
        pair = pair_line_tp2()
        x = next(i for i, c in enumerate(pair.X.cells) if c.dim == 0 and c.sed == pair.Y.apex)
        assert piece_cones(pair.Yref, pair.Yref.cells[pair.embed[x]]) == {pair.Y.apex}

    def test_edge_hitting_one_stratum(self):
        pair = pair_line_tp2()
        edges = [c for c in pair.X.cells if c.dim == 1]
        for e in edges:
            ids = piece_cones(pair.X, e)
            assert len(ids) == 2  # poset of T
            assert len(maximal_cones(pair.Y, ids)) == 1

    def test_two_face_through_one_dim_stratum_is_t2(self):
        # 2-face of the hyperplane in TP^3 reaching a 1-dimensional stratum
        f = parse_polynomial("max(0, x1, x2, x3)")
        pair = build_pair(f, normal_fan(newton_polytope(f)))
        two_faces = [c for c in pair.X.cells
                     if c.dim == 2 and c.sed == pair.Y.apex]
        # each 2-face of the hyperplane meets a 1-dim stratum: poset of T^2
        assert {len(piece_cones(pair.X, c)) for c in two_faces} == {4}
        for c in two_faces:
            assert is_face_lattice(pair.Y, piece_cones(pair.X, c))

    def test_unique_minimal_face_everywhere(self):
        for pair in (pair_line_tp2(),):
            assert is_combinatorially_ample(pair)[0]
            for c in pair.X.cells:
                if c.sed == pair.Y.apex:
                    assert len(maximal_cones(pair.Y, piece_cones(pair.X, c))) == 1

    def test_ray_in_no_cone_is_ample(self):
        """A listed ray that lies in no cone of the fan takes no part in
        gamma^o: it is no stratum."""
        pair = LP_FIXTURES["line-ray-in-no-cone"]()
        assert len(pair.Y.fan.rays) == 2 and len(pair.Y.cones) == 2
        assert is_combinatorially_ample(pair) == (True, [])


def _normal(text):
    f = parse_polynomial(text)
    return build_pair(f, normal_fan(newton_polytope(f)))


# every build_pair input of this module, plus a quadric on partial fans
LP_FIXTURES = {
    "line-tp2": pair_line_tp2,
    "hyperplane-r2": lambda: pair_hyperplane_rn(1),
    "hyperplane-r3": lambda: pair_hyperplane_rn(2),
    "hyperplane-tp3": lambda: _normal("max(0, x1, x2, x3)"),
    "hyperplane-r5": lambda: build_pair(parse_polynomial("max(0, x1, x2, x3, x4, x5)"),
                                        load_fan("dim 5\n"), max_dim=5),
    "hyperplane-blowup": pair_blowup,
    "degenerate-r2": lambda: pair_degenerate(1),
    "degenerate-r3": lambda: pair_degenerate(2),
    "conic-r2": lambda: build_pair(curve_poly(2), load_fan("dim 2\n")),
    "cubic-r2": lambda: build_pair(curve_poly(3), load_fan("dim 2\n")),
    "line-r2": lambda: build_pair(parse_polynomial("max(0, x1, x2)"), load_fan("dim 2\n")),
    "conic-trivial-tp2": lambda: _normal("max(0, x1, x2, 2*x1, x1 + x2, 2*x2)"),
    "triangle-one-cone": lambda: build_pair(
        parse_polynomial("max(0, x1 + 2*x2, 2*x1 + x2)"),
        load_fan("dim 2\nray 0: -1 0\nray 1: 0 -1\ncone: 0 1\n")),
    "line-half-toric": lambda: build_pair(parse_polynomial("max(0, x1)").padded(2),
                                          load_fan("dim 2\nray 0: 0 -1\ncone: 0\n")),
    "quadric-blowup": lambda: build_pair(quadric_poly(), load_fan(TP3_BLOWUP_FAN)),
    "quadric-half-toric": lambda: build_pair(quadric_poly(), load_fan(HALF_TORIC_FAN)),
    # ray 1 is listed but lies in no cone
    "line-ray-in-no-cone": lambda: build_pair(
        parse_polynomial("max(0, x1, x2)"),
        load_fan("dim 2\nray 0: 0 -1\nray 1: -1 0\ncone: 0\n")),
}


@pytest.mark.parametrize("name", sorted(LP_FIXTURES))
def test_face_table_matches_lp_reference(name):
    """The face table agrees with the double-description closure: (eta, F) is
    in the table exactly when the closure of the cell reaches the eta-stratum,
    and its piece is the projection of the cell there."""
    pair = with_geometry(LP_FIXTURES[name]())
    Y, table = pair.Y, pair.Yref.by_key
    for i, c in enumerate(pair.Yref.cells):
        reached = Y.reached_cones(c.geom, c.sed)
        for eta in Y.cofaces(c.sed):
            assert (eta in reached) == ((eta, c.face) in table), (i, eta)
            if eta in reached:
                img = c.geom.linear_image(Y.projection(c.sed, eta))
                piece = pair.Yref.cells[table[(eta, c.face)]]
                assert geometry_key(piece.geom) == geometry_key(img)


@pytest.mark.parametrize("name", sorted(LP_FIXTURES))
def test_is_boolean_matches_face_lattice_reference(name):
    """`is_combinatorially_ample`, which reads each region's gamma^o off the
    fan, fails exactly the region cells of Yref whose piece cones, scanned
    off `Yref.by_key`, are not the full face lattice of one cone."""
    pair = LP_FIXTURES[name]()
    Y = pair.Y
    regions = [i for i, c in enumerate(pair.Yref.cells) if c.sed == Y.apex and c.dim == Y.dim]
    assert regions
    want = [i for i in regions
            if not is_face_lattice(Y, piece_cones(pair.Yref, pair.Yref.cells[i]))]
    assert is_combinatorially_ample(pair) == (not want, want)


@pytest.mark.parametrize("name", sorted(LP_FIXTURES))
def test_x_is_the_subcomplex_of_yref_on_the_same_cells(name):
    """X holds Yref's own cell objects, those with dim F >= 1, at positions
    the tuple `embed` carries strictly increasingly into Yref's; its
    incidences are exactly Yref's whose sigma lies in X, read back through
    `embed`, and in the same order."""
    pair = LP_FIXTURES[name]()
    X, Yref, embed = pair.X, pair.Yref, pair.embed
    assert type(embed) is tuple and len(embed) == len(X.cells)
    assert all(embed[i] < embed[i + 1] for i in range(len(X.cells) - 1))
    assert all(X.cells[i] is Yref.cells[j] for i, j in enumerate(embed))
    assert [j for j, c in enumerate(Yref.cells) if c.in_x] == list(embed)
    back = {j: i for i, j in enumerate(embed)}
    assert X.incidence == tuple((back[t], back[s]) for t, s in Yref.incidence if s in back)
    assert all(X.by_key[key] == back[j] for key, j in Yref.by_key.items() if j in back)


def hrep_dual_cell(f, face):
    """Reference dual cell by double description: the terms of F tie, and
    every other term is at most theirs."""
    idx = sorted(face)
    a0, c0 = f.terms[idx[0]]
    eqs = [(tuple(x - y for x, y in zip(a, a0)), Fraction(c0 - c))
           for a, c in (f.terms[i] for i in idx[1:])]
    ineqs = [(tuple(x - y for x, y in zip(b, a0)), Fraction(c0 - cb))
             for j, (b, cb) in enumerate(f.terms) if j not in face]
    return QPolyhedron.from_hrep(ineqs, eqs, f.n_vars)


def from_generators_dual_cell(f, face, ties, newton):
    """Reference dual cell from the same generators by
    `QPolyhedron.from_generators`, whose second double description
    re-derives the vertices and rays from the facets."""
    pts = [f.terms[i][0] for i in face]
    rays = [a for a, b in newton.facets
            if all(sum(x * y for x, y in zip(a, p)) == b for p in pts)]
    verts = [v for M, v in ties.items() if face <= M]
    return QPolyhedron.from_generators(sorted(verts), sorted(rays),
                                       [a for a, b in newton.equations], newton.dim)


def assert_dual_cells_match_hrep(pair):
    """Against both references: the H-representation, and the V-
    representation of `from_generators`, vertex for vertex and ray for ray
    when there is no lineality (with lineality its representatives may
    differ, so the geometry keys are compared).  The open-stratum cells that
    `build_pair` reads off the subdivision match `dual_cell_geometry`: the
    same geometry key, equations, lineality and tangent lattice, and each
    contains the other.  The same-stratum incidences of X and Yref, read off
    the covering relation of the subdivision, are those of the containment
    scan over every pair of cells."""
    pair = with_geometry(pair)
    f, S, newton = pair.f, pair.subdivision, newton_polytope(pair.f)
    for face in S.faces:
        got, want = dual_cell_geometry(f, face, S.ties, newton), hrep_dual_cell(f, face)
        assert geometry_key(got) == geometry_key(want), sorted(face)
        assert got.facets == want.facets, sorted(face)
        assert got.equations == want.equations, sorted(face)
        ref = from_generators_dual_cell(f, face, S.ties, newton)
        assert got.lin == ref.lin, sorted(face)
        if got.lin:
            assert geometry_key(got) == geometry_key(ref), sorted(face)
        else:
            assert (got.vertices, got.rays) == (ref.vertices, ref.rays), sorted(face)
        built = pair.Yref.cells[pair.Yref.by_key[(pair.Y.apex, face)]]
        assert geometry_key(built.geom) == geometry_key(got), sorted(face)
        assert built.geom.equations == got.equations, sorted(face)
        assert built.geom.lin == got.lin, sorted(face)
        assert built.geom.contains_polyhedron(got) and got.contains_polyhedron(built.geom), \
            sorted(face)
        assert built.tangent.columns() == got.tangent_lattice().columns(), \
            sorted(face)
    for Z in (pair.X, pair.Yref):
        same = {(t, s) for t, s in Z.incidence if Z.cells[t].sed == Z.cells[s].sed}
        assert same == containment_incidences(Z.cells)


@pytest.mark.parametrize("name", sorted(LP_FIXTURES))
def test_dual_cells_match_hrep_reference(name):
    assert_dual_cells_match_hrep(LP_FIXTURES[name]())


def _random_poly(seed):
    rng = random.Random(seed)
    n = rng.choice((2, 3))
    d = 2 if n == 3 else rng.choice((2, 3))
    pts = [p for p in product(range(d + 1), repeat=n) if sum(p) <= d]
    return TropicalPolynomial(n, [(p, rng.randint(-2, 2)) for p in pts])


def _random_fraction_poly(seed):
    """`_random_poly` with a proper fraction added to every coefficient, so
    the tie points have denominators of their own."""
    f = _random_poly(seed)
    rng = random.Random(seed)
    return TropicalPolynomial(
        f.n_vars, [(a, c + Fraction(rng.randint(1, 5), rng.randint(6, 9))) for a, c in f.terms])


DUAL_CELL_CASES = {
    **{"random-%d" % seed: (lambda seed=seed: _random_poly(seed)) for seed in range(6)},
    **{"random-fractions-%d" % seed: (lambda seed=seed: _random_fraction_poly(seed))
       for seed in range(2)},
    # A_3-form heights on 2*Delta_3 leave octahedra: non-simplicial cells
    "quadric-a3-octahedra": lambda: TropicalPolynomial(
        3, [(a, -(sum(x * x for x in a) + a[0] * a[1] + a[0] * a[2] + a[1] * a[2]))
            for a in product(range(3), repeat=3) if sum(a) <= 2]),
    # a conic padded into R^3: the support is not full-dimensional
    "conic-padded-r3": lambda: curve_poly(2).padded(3),
    "random-padded-r4": lambda: _random_poly(1).padded(4),
}


@pytest.mark.parametrize("name", sorted(DUAL_CELL_CASES))
def test_dual_cells_match_hrep_reference_random(name):
    f = DUAL_CELL_CASES[name]()
    assert_dual_cells_match_hrep(build_pair(f, load_fan("dim %d\n" % f.n_vars)))


def test_failed_incidence_certificate_is_an_error(monkeypatch):
    """A covering pair whose containment certificate fails stops the build
    with a BuildError naming both faces and the stratum's cone; it is not
    dropped from the incidences."""
    pair = pair_line_tp2()
    cells = pair.Yref.cells
    t, s = next((t, s) for t, s in sorted(pair.Yref.incidence)
                if cells[t].sed == cells[s].sed != pair.Y.apex)
    tau, sig = cells[t], cells[s]
    target = ((sig.sed, sig.face), (tau.sed, tau.face))
    pieces = {}
    real_pieces = complexes.stratum_pieces

    def recorded_pieces(*args):
        out = real_pieces(*args)
        for face, piece in out.items():
            pieces[id(piece)] = (args[4], face)
        return out

    real_contains = QPolyhedron.contains_polyhedron

    def contains(self, other):
        if (pieces.get(id(self)), pieces.get(id(other))) == target:
            return False
        return real_contains(self, other)

    monkeypatch.setattr(complexes, "stratum_pieces", recorded_pieces)
    monkeypatch.setattr(QPolyhedron, "contains_polyhedron", contains)
    with pytest.raises(BuildError) as err:
        pair_line_tp2()
    message = str(err.value)
    assert "face %r does not lie in the piece of face %r" % (sorted(tau.face), sorted(sig.face)) \
        in message
    assert "fan cone %r" % sorted(pair.Y.cones[sig.sed]) in message


def test_moved_facet_fails_the_real_certificate(monkeypatch):
    """One bounded edge of a cubic curve, rebuilt by `_trusted` with the
    facet at one endpoint moved inward, no longer holds that endpoint:
    the real `contains_polyhedron` (its own-generator verdict now False)
    refuses the incidence, and `build_pair` raises the BuildError naming
    both faces and the stratum's cone.  The facet moves by half the least
    positive slack of the edge's vertices, so the other endpoint still
    passes."""
    f = curve_poly(3)
    fan = normal_fan(newton_polytope(f))
    pair = with_geometry(build_pair(f, fan))
    cells = pair.Yref.cells
    t, s = next((t, s) for t, s in sorted(pair.Yref.incidence)
                if cells[t].sed == cells[s].sed == pair.Y.apex
                and len(cells[s].geom.vertices) == 2)
    tau, sig = cells[t], cells[s]
    P = sig.geom
    (point,) = tau.geom.vertices

    def slack(a, b, v):
        return b - sum(x * y for x, y in zip(a, v))

    k = next(k for k, (a, b) in enumerate(P.facets) if slack(a, b, point) == 0)
    a, b = P.facets[k]
    shift = min(slack(a, b, v) for v in P.vertices if slack(a, b, v)) / 2
    moved = QPolyhedron._trusted(P.dim, P.vertices, P.rays, P.lin,
                                 P.facets[:k] + ((a, b - shift),) + P.facets[k + 1:],
                                 P.equations)
    real_pieces = complexes.stratum_pieces

    def pieces(f, S, newton, Y, eta, G):
        out = real_pieces(f, S, newton, Y, eta, G)
        if eta == sig.sed:
            out[sig.face] = moved
        return out

    monkeypatch.setattr(complexes, "stratum_pieces", pieces)
    with pytest.raises(BuildError) as err:
        build_pair(f, fan)
    message = str(err.value)
    assert "face %r does not lie in the piece of face %r" % (sorted(tau.face), sorted(sig.face)) \
        in message
    assert "fan cone %r" % sorted(pair.Y.cones[sig.sed]) in message
    assert moved._sound is False


def assert_pieces_match_linear_image(pair):
    """Every piece (eta, F) off the open stratum against the LP reference,
    the projection of its open cell by `linear_image`: the same geometry
    key, lineality and equations, and each contains the other.  Returns how
    many pieces were checked and how many of them have lineality."""
    pair = with_geometry(pair)
    Y, table, cells = pair.Y, pair.Yref.by_key, pair.Yref.cells
    checked = with_lin = 0
    for (eta, face), i in table.items():
        if eta == Y.apex:
            continue
        got = cells[i].geom
        want = cells[table[(Y.apex, face)]].geom.linear_image(Y.projection(Y.apex, eta))
        where = (eta, sorted(face))
        assert geometry_key(got) == geometry_key(want), where
        assert got.lin == want.lin, where
        assert got.equations == want.equations, where
        assert got.contains_polyhedron(want) and want.contains_polyhedron(got), where
        checked += 1
        with_lin += bool(got.lin)
    return checked, with_lin


@pytest.mark.parametrize("name", sorted(LP_FIXTURES))
def test_pieces_match_linear_image(name):
    pair = LP_FIXTURES[name]()
    assert_pieces_match_linear_image(pair)


@pytest.mark.parametrize("fan", ("normal", "blowup"))
def test_equal_equations_share_one_tangent_lattice(fan):
    """On the cubic surface, the cells whose pieces have the same stratum
    dimension and the same equation normals hold one tangent lattice object,
    and each cell's lattice still equals the one its piece computes.  X's
    cells are Yref's own objects."""
    f = freudenthal_poly(3, 3)
    pair = with_geometry(build_pair(f, load_fan(TP3_BLOWUP_FAN) if fan == "blowup"
                                    else normal_fan(newton_polytope(f))))
    held = {}
    for i, c in enumerate(pair.Yref.cells):
        assert c.tangent == c.geom.tangent_lattice(), i
        key = (c.geom.dim, tuple(a for a, b in c.geom.equations))
        assert held.setdefault(key, c.tangent) is c.tangent, i
    assert len({id(c.tangent) for c in pair.Yref.cells}) == len(held)
    assert 10 * len(held) < len(pair.Yref.cells)
    for i, c in enumerate(pair.X.cells):
        assert pair.Yref.cells[pair.embed[i]] is c


def _random_quadric(seed):
    rng = random.Random(seed)
    return TropicalPolynomial(3, [(p, rng.randint(-2, 2)) for p in product(range(3), repeat=3)
                                  if sum(p) <= 2])


@pytest.mark.parametrize("fan", ("normal", "half-toric", "blowup"))
@pytest.mark.parametrize("seed", range(3))
def test_pieces_match_linear_image_random(fan, seed):
    """Random heights on 2*Delta_3 (often not a triangulation), and random
    curves and surfaces of _random_poly on their normal fans."""
    f = _random_quadric(seed)
    text = {"half-toric": HALF_TORIC_FAN, "blowup": TP3_BLOWUP_FAN}.get(fan)
    pair = build_pair(f, load_fan(text)) if text else build_pair(f, normal_fan(newton_polytope(f)))
    checked, _ = assert_pieces_match_linear_image(pair)
    assert checked
    if fan == "normal":
        g = _random_poly(seed)
        assert assert_pieces_match_linear_image(build_pair(g, normal_fan(newton_polytope(g))))[0]


def test_pieces_with_lineality_match_linear_image():
    """The ray (0, -1, -1) lies strictly inside the normal cone of the edge
    of 2*Delta_3 on the x1-axis, so its stratum meets that edge's dual
    cells with one direction of lineality."""
    pair = build_pair(quadric_poly(), load_fan("dim 3\nray 0: 0 -1 -1\ncone: 0\n"))
    ray = pair.Y.cone_index[frozenset({0})]
    assert len(pair.face_points[ray]) == 3
    checked, with_lin = assert_pieces_match_linear_image(pair)
    assert checked and with_lin == checked


@pytest.mark.parametrize("n", (2, 3))
def test_pieces_over_a_single_point_match_linear_image(n):
    """The ray (-1, ..., -1) lies strictly inside the normal cone of the
    vertex 0 of 2*Delta_n, so G_eta is one point and its piece is the whole
    stratum."""
    f = curve_poly(2) if n == 2 else quadric_poly()
    pair = build_pair(f, load_fan("dim %d\nray 0: %s\ncone: 0\n" % (n, " ".join(["-1"] * n))))
    ray = pair.Y.cone_index[frozenset({0})]
    assert len(pair.face_points[ray]) == 1
    assert assert_pieces_match_linear_image(pair) == (1, 1)
    (piece,) = (c for c in with_geometry(pair).Yref.cells if c.sed == ray)
    assert piece.dim == n - 1 and len(piece.geom.lin) == n - 1


def assert_compact_flags_match_reference(pair):
    """Every cell's compactness flag against the all-cofaces reference,
    which ignores the cones `build_pair` says the cell reaches.  Returns the
    count of compact and of non-compact cells."""
    counts = Counter()
    for c in with_geometry(pair).Yref.cells:
        assert c.compact == closure_is_compact(pair.Y, c.geom, c.sed), (c.sed, sorted(c.face))
        counts[c.compact] += 1
    return counts


@pytest.mark.parametrize("name", sorted(LP_FIXTURES))
def test_compact_flags_match_all_cofaces_reference(name):
    assert_compact_flags_match_reference(LP_FIXTURES[name]())


COMPACTNESS_FANS = {
    "blowup": TP3_BLOWUP_FAN,
    "tp3-minus-cone": TP3_MINUS_CONE_FAN,
    "one-ray": ONE_RAY_FAN,
    "half-toric": HALF_TORIC_FAN,
    "trivial": "dim 3\n",
}


def test_compact_flags_match_all_cofaces_reference_random():
    """Random heights on 2*Delta_3 (often not a triangulation) on a complete
    fan, three partial fans and the trivial fan; enough cells of either
    kind that a flag stuck at one value fails."""
    counts = Counter()
    for text in COMPACTNESS_FANS.values():
        for seed in range(3):
            counts += assert_compact_flags_match_reference(
                build_pair(_random_quadric(seed), load_fan(text)))
    assert counts[True] >= 50 and counts[False] >= 50, counts


@pytest.mark.parametrize("name", sorted(LP_FIXTURES))
def test_is_proper_on_every_fixture(name):
    assert is_proper(LP_FIXTURES[name]())


@pytest.mark.parametrize("seed", range(3))
def test_is_proper_on_random_inputs(seed):
    """Random quadrics on every fan of the compactness check, and random
    curves and surfaces on their normal fans and on the trivial fan."""
    f = _random_quadric(seed)
    for text in COMPACTNESS_FANS.values():
        assert is_proper(build_pair(f, load_fan(text))), text
    g = _random_poly(seed)
    assert is_proper(build_pair(g, normal_fan(newton_polytope(g))))
    assert is_proper(build_pair(g, load_fan("dim %d\n" % g.n_vars)))


def test_is_nonsingular_matches_per_stratum_reference():
    """The open stratum's check against the check on every stratum: on every
    fixture, random quadrics on every fan of the compactness check, and
    random curves and surfaces on their normal fans and on the trivial fan.
    Both verdicts occur."""
    pairs = [make() for make in LP_FIXTURES.values()]
    for seed in range(6):
        f = _random_quadric(seed)
        pairs += [build_pair(f, load_fan(text)) for text in COMPACTNESS_FANS.values()]
    for seed in range(20):
        g = _random_poly(seed)
        pairs += [build_pair(g, normal_fan(newton_polytope(g))),
                  build_pair(g, load_fan("dim %d\n" % g.n_vars))]
    verdicts = Counter()
    for pair in pairs:
        got = is_nonsingular(pair)
        assert got == reference.is_nonsingular(pair)
        verdicts[got] += 1
    assert verdicts[True] >= 10 and verdicts[False] >= 10, verdicts


class TestOtherStructures:
    def test_toric_complex_tp2(self):
        Y = ToricVariety(normal_fan(newton_polytope(parse_polynomial("max(0, x1, x2)"))))
        T = toric_complex(Y)
        assert T.f_vector() == [3, 3, 1]
        assert validate(T)

    def test_slice_pair_degenerate(self):
        pair = pair_degenerate(1)
        refined = slice_pair(pair, [((0, 1), Fraction(0))])
        # X = the line x1 = 0 refined into two rays and a vertex
        assert refined.X.f_vector() == [1, 2]
        assert refined.Yref.f_vector() == [1, 4, 4]
        assert validate(refined.X, full=True)
        assert validate(refined.Yref, full=True)


@pytest.mark.parametrize("name", sorted(LP_FIXTURES))
def test_dd_cone_matches_recomputing_reference_on_fixtures(name):
    """The double descriptions of every fixture's lifted support and Newton
    polytope give the same lineality and rays, in the same order, as the
    reference that recomputes every tight set."""
    f = LP_FIXTURES[name]().f
    calls = reference.recorded_dd_cone_calls(lambda: (
        regular_subdivision([e for e, c in f.terms], [c for e, c in f.terms]),
        newton_polytope(f)))
    assert len(calls) >= 2  # the Newton polytope takes two, and a lift one
    for constraints, d in calls:
        assert dd_cone(constraints, d) == reference.dd_cone(constraints, d)


def assert_pieces_match_checked_reference(pair):
    """Every stratum's pieces equal, field by field and in type, those the
    checked constructor builds from the same data.  Returns the number of
    pieces, and of those built by the trusted constructor, the ones without
    lineality."""
    f, S, Y, newton = pair.f, pair.subdivision, pair.Y, newton_polytope(pair.f)
    pieces = trusted = 0
    for eta, G in enumerate(pair.face_points):
        got = complexes.stratum_pieces(f, S, newton, Y, eta, G)
        want = reference.stratum_pieces(f, S, newton, Y, eta, G)
        assert list(got) == list(want)
        for F, P in got.items():
            Q = want[F]
            for field in QPolyhedron.__slots__:
                assert getattr(P, field) == getattr(Q, field), (sorted(F), field)
            assert all(type(x) is Fraction for v in P.vertices for x in v)
            assert all(type(x) is int for r in P.rays + P.lin for x in r)
            for a, b in P.facets + P.equations:
                assert type(b) is Fraction and all(type(x) is int for x in a)
            pieces += 1
            trusted += not P.lin
    return pieces, trusted


@pytest.mark.parametrize("name", sorted(LP_FIXTURES))
def test_pieces_match_checked_reference(name):
    pieces, trusted = assert_pieces_match_checked_reference(LP_FIXTURES[name]())
    # a support that is not full-dimensional on the trivial fan gives every
    # piece lineality, and so does a stratum whose G_eta is one point
    assert pieces and (trusted > 0) != name.startswith("degenerate")


@pytest.mark.parametrize("fan", sorted(COMPACTNESS_FANS))
def test_pieces_match_checked_reference_random(fan):
    """Random quadrics, often not triangulations, on complete, partial and
    trivial fans.  On the blow-up and one-ray fans some strata have
    lineality, so both constructors are compared."""
    for seed in range(3):
        pair = build_pair(_random_quadric(seed), load_fan(COMPACTNESS_FANS[fan]))
        pieces, trusted = assert_pieces_match_checked_reference(pair)
        assert 0 < trusted <= pieces
        assert (trusted < pieces) == (fan in ("blowup", "one-ray"))
