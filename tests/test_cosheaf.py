import sys
from collections import Counter
from itertools import combinations, product
from math import comb

import pytest

import geometric_reference as reference
from test_complexes import (
    COMPACTNESS_FANS,
    HALF_TORIC_FAN,
    LP_FIXTURES,
    TP3_BLOWUP_FAN,
    _random_quadric,
    curve_poly,
    freudenthal_poly,
    quadric_poly,
)
from trophom import complexes, cosheaf, exactla, polyhedra, toric
from trophom.complexes import build_pair, is_nonsingular
from trophom.cosheaf import CosheafError, ambient_on_cells, multitangent
from trophom.exactla import IntMatrix, exterior_power, lattice_basis, smith_diagonal
from trophom.tropio import (
    TropicalPolynomial,
    load_fan,
    newton_polytope,
    normal_fan,
    parse_polynomial,
)


def _normal(f):
    return build_pair(f, normal_fan(newton_polytope(f)))


# non-singular hypersurfaces, compact and not
PAIRS = {
    "line-tp2": lambda: _normal(parse_polynomial("max(0, x1, x2)")),
    "plane-tp3": lambda: _normal(parse_polynomial("max(0, x1, x2, x3)")),
    "quadric-tp3": lambda: _normal(quadric_poly()),
    "quadric-blowup": lambda: build_pair(quadric_poly(), load_fan(TP3_BLOWUP_FAN)),
    "quadric-half-toric": lambda: build_pair(quadric_poly(), load_fan(HALF_TORIC_FAN)),
}


@pytest.fixture(scope="module", params=sorted(PAIRS))
def pair(request):
    out = PAIRS[request.param]()
    assert is_nonsingular(out)
    return out


# ---------------------------------------------------------------------------
# stalk identities: predictions the tests hold the cosheaves to

def check_functorial(F):
    """Path independence of composed incidence maps on codim-2 intervals."""
    Z = F.base
    for t, s in Z.incidence:
        for g in Z.facets_of[t]:
            paths = [tt for tt in Z.facets_of[s] if (g, tt) in Z.incidence]
            mats = [F.maps[(g, tt)] * F.maps[(tt, s)] for tt in paths]
            for m in mats[1:]:
                if m != mats[0]:
                    return False
    return True


def stalk_rank_polynomial(family, cell_index):
    """Alternating-rank polynomial sum_p (-1)^p rank F_p(cell) * t^p as a
    coefficient list, from a list of cosheaves indexed by p."""
    return [(-1) ** p * F.ranks[cell_index] for p, F in enumerate(family)]


def expected_stalk_polynomial(q, m):
    """Coefficients of (1-t)^m - (1-t)^q (-t)^(m-q) for a q-cell in an
    m-dimensional stratum."""
    out = [0] * (m + 1)
    for i in range(m + 1):
        out[i] += comb(m, i) * (-1) ** i
    # (1-t)^q * (-t)^(m-q): coefficient of t^(m-q+j) is C(q, j)(-1)^j (-1)^(m-q)
    for j in range(q + 1):
        k = m - q + j
        if k <= m:
            out[k] -= comb(q, j) * (-1) ** j * (-1) ** (m - q)
    return out


def hyperplane_vertex_rank(s, j):
    """rank of the j-th multi-tangent stalk at the vertex of the standard
    tropical hyperplane of dimension s."""
    if 0 <= j <= s:
        return comb(s + 1, j)
    return 0


def kunneth_stalk_rank(pair, cell, p):
    """Predicted stalk rank via the product decomposition along the cell."""
    q = cell.dim
    m = pair.Y.stratum_dim(cell.sed)
    return sum(hyperplane_vertex_rank(m - q - 1, p - l) * comb(q, l)
               for l in range(p + 1))


def alcoved_poly(box):
    """The polynomial on the lattice box prod [0, b_i] with the alcoved
    height -(sum x_i^2 + sum_{i<j} (x_i - x_j)^2); the normal fan of the
    box is that of (TP^1)^n."""
    terms = []
    for x in product(*(range(b + 1) for b in box)):
        h = sum(v * v for v in x) + sum((x[i] - x[j]) ** 2
                                        for i, j in combinations(range(len(x)), 2))
        terms.append((x, -h))
    return TropicalPolynomial.make(terms, len(box))


def h_vector(Y):
    """h_p of the fan: the coefficients of sum_i f_i t^i (1 - t)^(n - i),
    f_i the number of i-dimensional cones."""
    n = Y.dim
    f = Counter(len(c) for c in Y.cones)
    return [sum(f[i] * comb(n - i, p - i) * (-1) ** (p - i) for i in range(p + 1))
            for p in range(n + 1)]


# complete fans, with the h-vector each should have
AMBIENT = {
    "tp2": (lambda: _normal(curve_poly(3)), [1, 1, 1]),
    "tp3": (lambda: _normal(quadric_poly()), [1, 1, 1, 1]),
    "blowup": (lambda: build_pair(freudenthal_poly(3, 3), load_fan(TP3_BLOWUP_FAN)), [1, 2, 2, 1]),
    "tp1^2": (lambda: _normal(alcoved_poly((2, 2))), [1, 2, 1]),
    "tp1^3": (lambda: _normal(alcoved_poly((2, 2, 2))), [1, 3, 3, 1]),
}


@pytest.mark.parametrize("name", sorted(AMBIENT))
def test_ambient_euler_characteristic_is_h_vector(name):
    """On a complete unimodular fan, H_q(Y; F_p) is Z^{h_p} for q = p and
    0 otherwise, so the cellular Euler characteristic of the ambient
    cosheaf on Yref, sum over cells of (-1)^dim rank F_p^Y, is
    (-1)^p h_p."""
    build, h = AMBIENT[name]
    pair = build()
    assert pair.Y.compact and h_vector(pair.Y) == h
    for p in range(pair.Y.dim + 1):
        F = ambient_on_cells(pair.Yref, p)
        chi = sum((-1) ** c.dim * r for c, r in zip(pair.Yref.cells, F.ranks))
        assert chi == (-1) ** p * h[p], (name, p)


def test_functorial(pair):
    n = pair.Y.dim
    for p in range(n):
        assert check_functorial(multitangent(pair.X, p))
    for p in range(n + 1):
        assert check_functorial(ambient_on_cells(pair.Yref, p))


def test_kunneth_stalk_rank(pair):
    for p in range(pair.Y.dim):
        F = multitangent(pair.X, p)
        for c in pair.X.cells:
            assert kunneth_stalk_rank(pair, c, p) == F.ranks[c.index], (c.index, p)


def test_stalk_rank_polynomial(pair):
    """sum_p (-1)^p rank F_p(sigma) t^p = (1-t)^m - (1-t)^q (-t)^(m-q) for a
    q-cell in an m-dimensional stratum; F_p is only built for p < n, and the
    coefficient there is 0 anyway."""
    n = pair.Y.dim
    family = [multitangent(pair.X, p) for p in range(n)]

    def padded(coeffs):
        return list(coeffs) + [0] * (n + 1 - len(coeffs))

    for c in pair.X.cells:
        want = expected_stalk_polynomial(c.dim, pair.Y.stratum_dim(c.sed))
        assert padded(stalk_rank_polynomial(family, c.index)) == padded(want), c.index


def test_maps_carry_each_stalk_basis_into_the_next(pair):
    """Every incidence map A of F_p solves bases[t] * A = image of bases[s],
    so the back-substituted coordinates are the image's coordinates."""
    Y = pair.Y
    for p in range(Y.dim):
        F = multitangent(pair.X, p)
        for (t, s), A in F.maps.items():
            tau, sig = pair.X.cells[t], pair.X.cells[s]
            image = F.bases[s]
            if tau.sed != sig.sed:
                image = exterior_power(Y.projection(sig.sed, tau.sed), p) * image
            assert F.bases[t] * A == image, (t, s, p)


# ---------------------------------------------------------------------------
# the maximal-cell rule against the full-star definition

def assert_matches_full_star(Z, top):
    """Ranks, bases and maps of F_0 ... F_top equal the full-star reference's.
    Returns the number of stalks that are not saturated."""
    unsaturated = 0
    for p in range(top + 1):
        got, want = multitangent(Z, p), reference.multitangent(Z, p)
        assert got.ranks == want.ranks, p
        assert got.bases == want.bases, p
        assert got.maps == want.maps, p
        for B in got.bases:
            unsaturated += smith_diagonal(B.sparse_rows(), B.nrows, B.ncols) != [1] * B.ncols
    return unsaturated


def test_matches_full_star_reference(pair):
    assert assert_matches_full_star(pair.X, pair.Y.dim - 1) == 0


@pytest.mark.parametrize("name", sorted(LP_FIXTURES))
def test_matches_full_star_reference_on_fixtures(name):
    """X for every p it has, and Yref, whose stalks are whole wedge spaces."""
    pair = LP_FIXTURES[name]()
    assert_matches_full_star(pair.X, pair.Y.dim)
    assert_matches_full_star(pair.Yref, pair.Y.dim)


@pytest.mark.parametrize("name", sorted(LP_FIXTURES))
def test_ambient_is_multitangent_on_yref(name):
    """Every Yref cell is a face of a full-dimensional piece of its stratum,
    so its multi-tangent stalk is the whole wedge space: the two cosheaves
    on Yref agree in ranks, bases and maps for every p."""
    pair = LP_FIXTURES[name]()
    for p in range(pair.Y.dim + 1):
        got, want = ambient_on_cells(pair.Yref, p), multitangent(pair.Yref, p)
        assert got.ranks == want.ranks, p
        assert got.bases == want.bases, p
        assert got.maps == want.maps, p


def test_matches_full_star_reference_random():
    """Random quadrics, mostly singular, on every fan of the compactness
    check."""
    for text in COMPACTNESS_FANS.values():
        for seed in range(3):
            pair = build_pair(_random_quadric(seed), load_fan(text))
            assert_matches_full_star(pair.X, pair.Y.dim - 1)


def test_matches_full_star_reference_unsaturated():
    """Singular inputs whose stalks the verbatim sum leaves unsaturated, so
    the maximal-cell rule must reproduce the sum, not its saturation.
    - The triangle conv{0, (1, 2), (2, 1)} has no interior subdivision, so X
      is a tropical line whose primitive edge directions (1, -2), (2, -1) and
      (1, 1) span a sublattice of index 3: F_1 at the vertex.
    - The tetrahedron conv{0, e1, e2, (1, 1, 2)} likewise: the wedges of the
      six 2-cells at the vertex are the edge vectors of the tetrahedron up to
      the Hodge star, and they span the index-2 sublattice of even last
      coordinate: F_2 at the vertex."""
    pair = LP_FIXTURES["triangle-one-cone"]()
    assert not is_nonsingular(pair)
    assert assert_matches_full_star(pair.X, pair.Y.dim - 1) >= 1
    pair = build_pair(parse_polynomial("max(0, x1, x2, x1 + x2 + 2*x3)"), load_fan("dim 3\n"))
    assert not is_nonsingular(pair)
    assert assert_matches_full_star(pair.X, pair.Y.dim - 1) >= 1


def test_equal_rank_stalks_of_different_lattices():
    """A region of Yref for the line in TP^2 given the index-2 tangent
    lattice 2Z x Z: its F_1 stalk and that of an edge in its closure have
    equal rank, but the edge's is Z^2, so the map between them is no
    identity.  Every stalk and map still equals the full-star reference."""
    pair = _normal(parse_polynomial("max(0, x1, x2)"))
    Z = pair.Yref
    region = next(c for c in Z.cells if c.dim == 2 and c.sed == pair.Y.apex)
    region.tangent = lattice_basis([(2, 0), (0, 1)], 2)
    F, want = multitangent(Z, 1), reference.multitangent(Z, 1)
    assert (F.ranks, F.bases, F.maps) == (want.ranks, want.bases, want.maps)
    assert any(s == region.index and F.ranks[t] == F.ranks[s] and F.bases[t] != F.bases[s]
               for t, s in Z.incidence)


# ---------------------------------------------------------------------------
# a stalk the incidence images leave

def _doubled(u):
    """2u: the pivot of the stalk basis no longer divides the image."""
    return tuple(2 * x for x in u)


def _tilted(u):
    """A vector off the line of the primitive u with a leading 1: the pivot
    divides everything, and the image leaves a remainder."""
    return (1,) + tuple(x + 1 for x in u[1:])


@pytest.mark.parametrize("corrupt", [_doubled, _tilted])
def test_image_outside_target_stalk_raises(corrupt):
    """The plane in TP^3 meets each boundary divisor in a tropical line.  An
    edge tau of that line carries F_1(tau) = T_tau, and the 2-cell of the
    open stratum over it maps onto T_tau.  Corrupting T_tau makes that
    image leave the stalk, and the error names the incidence and p."""
    pair = _normal(parse_polynomial("max(0, x1, x2, x3)"))
    X, Y = pair.X, pair.Y
    tau = next(c for c in X.cells if c.dim == 1 and Y.cone_dim(c.sed) == 1)
    (u,) = tau.tangent.columns()
    tau.tangent = lattice_basis([corrupt(u)], len(u))
    assert tau.tangent.columns() != [u]
    multitangent(X, 0)  # F_0 does not see tangents
    with pytest.raises(CosheafError, match=r"cells \d+ -> %d, p=1\)" % tau.index) as err:
        multitangent(X, 1)
    s = int(str(err.value).split("cells ")[1].split(" ->")[0])
    assert (tau.index, s) in X.incidence and X.cells[s].sed == Y.apex
    with pytest.raises(CosheafError) as ref:
        reference.multitangent(X, 1)
    assert str(ref.value) == str(err.value)


# ---------------------------------------------------------------------------
# work counts

def _equation_normal_systems(pair):
    """The (stratum, ordered equation normals) of the Yref cells: the ties
    w_b - w_a0 of each face F, for a0 = min F and the other b in F in
    order, where w_a = a^T section_eta."""
    f, Y = pair.f, pair.Y
    out = set()
    for c in pair.Yref.cells:
        section = Y.strata[c.sed].section.columns()
        a0, *rest = sorted(c.face)
        out.add((c.sed, tuple(
            tuple(sum((x - y) * s for x, y, s in zip(f.terms[b][0], f.terms[a0][0], col))
                  for col in section)
            for b in rest)))
    return out


def test_no_redundant_exact_work(monkeypatch):
    """One build_pair plus every cosheaf on the quadric in TP^3: the cells,
    the open-stratum ones included, and the simplex cells of the subdivision
    cost no double description, and no `dual_cell_geometry` or
    `linear_image` runs; `stratum_pieces` builds every piece without the
    checked `QPolyhedron._from_fields`; and multitangent back-substitutes on its stalk
    bases, which are in column HNF already: its only Hermite eliminations
    (`_hermite`) are its lattice sums, one per `lattice_basis`.  The build
    takes one tangent lattice per (stratum dimension, equation normals),
    and multitangent one lattice sum per set of maximal-cell tangent
    lattices, at most one pivot reading per target stalk and one
    back-substitution per (sigma stratum, tau stratum, source stalk,
    target stalk) that is no identity.  On the
    trivial fan no cell reaches a boundary stratum, so the compactness
    flags cost no `cone_covered_by` and no double description either.  On
    the half-toric fan only the unbounded cells whose closure reaches the
    boundary ask `cone_covered_by`, once per (stratum, recession rays,
    reached cones), fewer times than there are such cells; and every cell's
    `recession` is read off its own data.  `stratum_pieces` takes at most
    one `gauss_jordan` per stratum and ordered tuple of equation normals,
    fewer than it has pieces.

    The cosheaves take no wedge or lattice sum for F_0, which is constant;
    for p >= 1 one wedge per distinct tangent basis of a cell that is
    maximal in its stratum and one per pair of strata an incidence crosses.
    The ambient cosheaf goes through the same builder, with one identity
    basis per stratum dimension as its stars and one identity map per
    stratum whose stalks an incidence keeps: its identities are bounded by
    the ranks and the strata, not one per cell."""
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(exactla, "_hermite")
    count(polyhedra, "dd_cone")
    count(polyhedra.QPolyhedron, "linear_image")
    count(complexes, "dual_cell_geometry")
    count(toric, "cone_covered_by")
    count(cosheaf, "exterior_power")
    count(cosheaf, "hnf_pivots")
    count(cosheaf, "back_substitute")
    count(polyhedra.QPolyhedron, "tangent_lattice")
    for module in (exactla, polyhedra, complexes, cosheaf):
        count(module, "lattice_basis")
    # every elimination, by the module whose code takes it
    takers = Counter()
    for module in (exactla, polyhedra, complexes, cosheaf, toric):
        if hasattr(module, "gauss_jordan"):
            def recorded(rows, ncols, real=getattr(module, "gauss_jordan")):
                calls["gauss_jordan"] += 1
                takers[sys._getframe(1).f_globals["__name__"]] += 1
                return real(rows, ncols)

            monkeypatch.setattr(module, "gauss_jordan", recorded)
    real_identity = IntMatrix.identity

    def counted_identity(_cls, *args):
        calls["identity"] += 1
        return real_identity(*args)

    monkeypatch.setattr(IntMatrix, "identity", classmethod(counted_identity))
    # the checked QPolyhedron constructor, counted apart inside
    # stratum_pieces
    real_fields, real_pieces = polyhedra.QPolyhedron._from_fields, complexes.stratum_pieces

    def counted_fields(_cls, *args):
        calls["QPolyhedron"] += 1
        return real_fields(*args)

    def counted_pieces(*args):
        before = calls["QPolyhedron"], calls["gauss_jordan"]
        out = real_pieces(*args)
        calls["QPolyhedron in stratum_pieces"] += calls["QPolyhedron"] - before[0]
        calls["gauss_jordan in stratum_pieces"] += calls["gauss_jordan"] - before[1]
        return out

    monkeypatch.setattr(polyhedra.QPolyhedron, "_from_fields", classmethod(counted_fields))
    monkeypatch.setattr(complexes, "stratum_pieces", counted_pieces)
    f = quadric_poly()
    fan = normal_fan(newton_polytope(f))
    before = calls["dd_cone"], calls["gauss_jordan"], calls["QPolyhedron"]
    takers.clear()
    pair = build_pair(f, fan)
    # the hull of the lift, and the two double descriptions of the Newton
    # polytope's hull
    assert calls["dd_cone"] - before[0] == 3
    # the build's eliminations: the subdivision's pivot columns, one per
    # checked polyhedron and one per normal system; none in complexes
    assert calls["gauss_jordan"] - before[1] == \
        1 + calls["QPolyhedron"] - before[2] + calls["gauss_jordan in stratum_pieces"]
    assert set(takers) == {"trophom.polyhedra"}
    # no stratum of the normal fan has lineality, so every piece is built
    # canonical by the trusted constructor
    assert calls["QPolyhedron in stratum_pieces"] == 0
    assert len(pair.Yref.cells) > 100
    assert calls["dual_cell_geometry"] == 0
    assert calls["linear_image"] == 0
    assert calls["_hermite"] > 0  # the build's tangent lattices pass the counter
    equations = {(c.geom.dim, tuple(a for a, b in c.geom.equations)) for c in pair.Yref.cells}
    assert calls["tangent_lattice"] == len(equations) < len(pair.Yref.cells) / 4
    systems = _equation_normal_systems(pair)
    assert 0 < calls["gauss_jordan in stratum_pieces"] <= len(systems) < len(pair.Yref.cells) / 2
    before = calls["_hermite"]
    X, Y = pair.X, pair.Y
    for name in ("exterior_power", "lattice_basis"):
        calls[name] = 0
    multitangent(X, 0)
    assert calls["exterior_power"] == calls["lattice_basis"] == 0
    same = {t for t, s in X.incidence if X.cells[t].sed == X.cells[s].sed}
    maximal = len(X.cells) - len(same)
    tangents = len({c.tangent for c in X.cells if c.index not in same})
    crossings = len({(X.cells[s].sed, X.cells[t].sed) for t, s in X.incidence
                     if X.cells[t].sed != X.cells[s].sed})
    assert tangents < maximal < len(X.cells) and crossings > 0
    star = reference._same_stratum_star(X)
    lattices = [frozenset(X.cells[j].tangent for j in star[i] if j not in same)
                for i in range(len(X.cells))]
    assert len(set(lattices)) < maximal
    for p in range(1, Y.dim):
        for name in ("exterior_power", "hnf_pivots", "back_substitute"):
            calls[name] = 0
        sums = calls["lattice_basis"]
        F = multitangent(X, p)
        assert calls["exterior_power"] == tangents + crossings, p
        assert calls["lattice_basis"] - sums == len(set(lattices)), p
        moved = [(t, s) for t, s in X.incidence
                 if X.cells[t].sed != X.cells[s].sed or F.bases[t] != F.bases[s]]
        keys = {(X.cells[s].sed, X.cells[t].sed, lattices[s], lattices[t]) for t, s in moved}
        assert 0 < calls["back_substitute"] <= len(keys) < len(moved), p
        assert calls["hnf_pivots"] <= len({F.bases[t] for t, s in moved}), p
    strata = {c.sed for c in pair.Yref.cells}
    for p in range(Y.dim + 1):
        calls["identity"] = 0
        F = ambient_on_cells(pair.Yref, p)
        assert calls["identity"] <= Y.dim + 1 + len(strata) < len(F.ranks) / 4, p
    assert calls["_hermite"] - before == calls["lattice_basis"] > 0

    before = calls["dd_cone"]
    pair = build_pair(f, load_fan("dim 3\n"))
    assert not pair.Y.compact and not all(c.compact for c in pair.Yref.cells)
    assert calls["dd_cone"] - before == 3
    assert calls["cone_covered_by"] == 0

    pair = build_pair(f, load_fan(HALF_TORIC_FAN))
    Y = pair.Y
    asked = [c for c in pair.Yref.cells if not c.geom.is_bounded()
             and len(Y.reached_cones(c.geom, c.sed)) > 1]
    classes = {(c.sed, c.geom.rays, tuple(Y.reached_cones(c.geom, c.sed))) for c in asked}
    assert calls["cone_covered_by"] == len(classes) < len(asked)
    assert (len(classes), len(asked)) == (7, 19)
    before = calls["dd_cone"]
    cones = [c.geom.recession() for c in pair.Yref.cells]
    assert calls["dd_cone"] == before
    assert any(R.affine_dim for R in cones)
