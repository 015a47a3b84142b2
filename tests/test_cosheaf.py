import re
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
    _random_poly,
    _random_quadric,
    curve_poly,
    freudenthal_poly,
    quadric_poly,
)
from trophom import complexes, cosheaf, exactla, polyhedra, toric
from trophom.complexes import CellComplex, build_pair, is_nonsingular
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
    facets = reference.facets_of(Z)
    maps = dict(zip(Z.incidence, F.maps))
    for t, s in Z.incidence:
        for g in facets[t]:
            paths = [tt for tt in facets[s] if (g, tt) in maps]
            mats = [maps[(g, tt)] * maps[(tt, s)] for tt in paths]
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
    return TropicalPolynomial(len(box), terms)


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
        for i, c in enumerate(pair.X.cells):
            assert kunneth_stalk_rank(pair, c, p) == F.ranks[i], (i, p)


def test_stalk_rank_polynomial(pair):
    """sum_p (-1)^p rank F_p(sigma) t^p = (1-t)^m - (1-t)^q (-t)^(m-q) for a
    q-cell in an m-dimensional stratum; F_p is only built for p < n, and the
    coefficient there is 0 anyway."""
    n = pair.Y.dim
    family = [multitangent(pair.X, p) for p in range(n)]

    def padded(coeffs):
        return list(coeffs) + [0] * (n + 1 - len(coeffs))

    for i, c in enumerate(pair.X.cells):
        want = expected_stalk_polynomial(c.dim, pair.Y.stratum_dim(c.sed))
        assert padded(stalk_rank_polynomial(family, i)) == padded(want), i


def test_maps_carry_each_stalk_basis_into_the_next(pair):
    """Every incidence map A of F_p solves bases[t] * A = image of bases[s],
    so the back-substituted coordinates are the image's coordinates."""
    Y = pair.Y
    for p in range(Y.dim):
        F = multitangent(pair.X, p)
        assert type(F.maps) is tuple and len(F.maps) == len(pair.X.incidence)
        for (t, s), A in zip(pair.X.incidence, F.maps):
            tau, sig = pair.X.cells[t], pair.X.cells[s]
            image = F.bases[s]
            if tau.sed != sig.sed:
                image = exterior_power(Y.projection(sig.sed, tau.sed), p) * image
            assert F.bases[t] * A == image, (t, s, p)


# ---------------------------------------------------------------------------
# the combinatorics and lattices that signed incidences read: a boundary
# with one sign per incidence squares to zero only where every
# codimension-2 interval is a diamond, and a cell is oriented by its
# tangent basis, which a cross-stratum incidence projects onto the facet's

# both tables of inputs, keyed by table and name
ALL_FIXTURES = {**{"pairs/" + name: build for name, build in PAIRS.items()},
                **{"lp/" + name: build for name, build in LP_FIXTURES.items()}}


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_codimension_two_intervals_have_two_middle_cells(name):
    """For every cell sigma of X and Yref and every cell rho two dimensions
    below it in its closure, exactly two cells tau lie between them: rho is
    a facet of tau and tau a facet of sigma."""
    pair = ALL_FIXTURES[name]()
    intervals = 0
    for Z in (pair.X, pair.Yref):
        facets = reference.facets_of(Z)
        for s in range(len(Z.cells)):
            middles = Counter(r for t in facets[s] for r in facets[t])
            assert set(middles.values()) <= {2}, (s, middles)
            intervals += len(middles)
    # only a Newton polytope of lower dimension leaves Yref with no vertex
    assert intervals > 0 or not any(c.dim == 0 for c in pair.Yref.cells)


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_tangent_bases_project_onto_cross_stratum_facets(name):
    """Every cell's tangent basis B_sigma has dim sigma columns, and for
    every incidence (tau, sigma) across strata, the lattice that the
    projection to tau's stratum carries B_sigma onto has the basis
    B_tau."""
    pair = ALL_FIXTURES[name]()
    Y = pair.Y
    crossings = 0
    for Z in (pair.X, pair.Yref):
        for c in Z.cells:
            assert c.tangent.ncols == c.dim, c
        for t, s in Z.incidence:
            tau, sig = Z.cells[t], Z.cells[s]
            if tau.sed != sig.sed:
                image = Y.projection(sig.sed, tau.sed) * sig.tangent
                assert lattice_basis(image.columns(), image.nrows) == tau.tangent, (t, s)
                crossings += 1
    assert crossings > 0 or len(Y.cones) == 1


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_strata_without_vertices_are_the_lineal_strata(name):
    """A stratum of Yref holds no 0-cell exactly when its reference pieces
    have lineality, and `is_cellular_pair`, which reads that off the cells,
    gives the verdict the geometric reference gives."""
    pair = ALL_FIXTURES[name]()
    vertexless = set(range(len(pair.Y.cones))) - {c.sed for c in pair.Yref.cells if c.dim == 0}
    assert vertexless == reference.lineal_strata(pair)
    assert complexes.is_cellular_pair(pair) == reference.is_cellular_pair(pair)


def test_cellular_verdicts_match_reference_random():
    """Random quadrics, often not triangulations, on complete, partial and
    trivial fans, and random curves and surfaces on their normal fans and on
    the trivial fan: the same verdicts as the geometric reference, and
    every verdict occurs, over these and the fixtures."""
    pairs = [make() for make in ALL_FIXTURES.values()]
    for seed in range(3):
        f = _random_quadric(seed)
        pairs += [build_pair(f, load_fan(text)) for text in COMPACTNESS_FANS.values()]
        g = _random_poly(seed)
        pairs += [build_pair(g, normal_fan(newton_polytope(g))),
                  build_pair(g, load_fan("dim %d\n" % g.n_vars))]
    verdicts = Counter()
    for pair in pairs:
        got = complexes.is_cellular_pair(pair)
        assert got == reference.is_cellular_pair(pair)
        verdicts[got] += 1
    assert set(verdicts) == {"yes", "no", "unknown"}, verdicts


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
    r = next(i for i, c in enumerate(Z.cells) if c.dim == 2 and c.sed == pair.Y.apex)
    Z.cells[r].tangent = lattice_basis([(2, 0), (0, 1)], 2)
    F, want = multitangent(Z, 1), reference.multitangent(Z, 1)
    assert (F.ranks, F.bases, F.maps) == (want.ranks, want.bases, want.maps)
    assert any(s == r and F.ranks[t] == F.ranks[s] and F.bases[t] != F.bases[s]
               for t, s in Z.incidence)


# ---------------------------------------------------------------------------
# the planned builders against the per-incidence builder

# the Freudenthal rungs from the cubic curve up to the K3, on the normal
# fan, and two fans with a boundary that is not the whole toric boundary
PLANNED = {
    "cubic-curve": lambda: _normal(freudenthal_poly(2, 3)),
    "quartic-curve": lambda: _normal(freudenthal_poly(2, 4)),
    "quadric": lambda: _normal(freudenthal_poly(3, 2)),
    "cubic-surface": lambda: _normal(freudenthal_poly(3, 3)),
    "quartic-k3": lambda: _normal(freudenthal_poly(3, 4)),
    "quadric-half-toric": lambda: build_pair(quadric_poly(), load_fan(HALF_TORIC_FAN)),
    "cubic-blowup": lambda: build_pair(freudenthal_poly(3, 3), load_fan(TP3_BLOWUP_FAN)),
}


@pytest.mark.parametrize("name", sorted(PLANNED))
def test_planned_builders_match_per_incidence_builder(name):
    """The stars and incidence classes planned once per complex give the
    ranks, bases and maps, in the same incidence order, that keying every
    incidence anew for each p gives: the multi-tangent cosheaf on X and
    Yref and the ambient cosheaf on Yref, for every p up to the dimension."""
    pair = PLANNED[name]()
    X, Yref = pair.X, pair.Yref
    for Z, build, stars in ((X, multitangent, cosheaf._star_tangents(X)),
                            (Yref, multitangent, cosheaf._star_tangents(Yref)),
                            (Yref, ambient_on_cells, reference.ambient_stars(Yref))):
        for p in range(pair.Y.dim + 1):
            got, want = build(Z, p), reference.per_incidence_cosheaf(Z, p, stars)
            assert got.ranks == want.ranks, (build.__name__, p)
            assert got.bases == want.bases, (build.__name__, p)
            assert got.maps == want.maps, (build.__name__, p)


def test_plan_is_built_once_per_complex(monkeypatch):
    """`_star_tangents` runs once per complex, not once per p, and the
    ambient cosheaf takes no lattice sum and no back-substitution: its
    stalks are identities and its maps the wedged projections."""
    calls = Counter()

    def count(name):
        real = getattr(cosheaf, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cosheaf, name, counted)

    for name in ("_star_tangents", "back_substitute", "lattice_basis"):
        count(name)
    pair = _normal(quadric_poly())
    n = pair.Y.dim
    for p in range(n):
        multitangent(pair.X, p)
    assert calls["_star_tangents"] == 1
    assert calls["back_substitute"] > 0 and calls["lattice_basis"] > 0
    multitangent(pair.X, 1)
    assert calls["_star_tangents"] == 1
    calls.clear()
    for p in range(n + 1):
        F = ambient_on_cells(pair.Yref, p)
        assert all(B == IntMatrix.identity(B.nrows) for B in F.bases), p
    assert calls["back_substitute"] == calls["lattice_basis"] == 0
    assert calls["_star_tangents"] == 0
    assert len(pair.Yref.cosheaf_plans) == 1 and len(pair.X.cosheaf_plans) == 1


# ---------------------------------------------------------------------------
# a stalk the incidence images leave

def _doubled(u):
    """2u: the pivot of the stalk basis no longer divides the image."""
    return tuple(2 * x for x in u)


def _tilted(u):
    """A vector off the line of the primitive u with a leading 1: the pivot
    divides everything, and the image leaves a remainder."""
    return (1,) + tuple(x + 1 for x in u[1:])


def _corrupted_plane(corrupt):
    """The plane in TP^3, and the position t in X of an edge tau of the
    tropical line it cuts on a boundary divisor, whose tangent basis, the
    primitive u, is replaced by that of corrupt(u)."""
    pair = _normal(parse_polynomial("max(0, x1, x2, x3)"))
    X, Y = pair.X, pair.Y
    t = next(i for i, c in enumerate(X.cells) if c.dim == 1 and Y.cone_dim(c.sed) == 1)
    tau = X.cells[t]
    (u,) = tau.tangent.columns()
    tau.tangent = lattice_basis([corrupt(u)], len(u))
    assert tau.tangent.columns() != [u]
    return pair, t


@pytest.mark.parametrize("corrupt", [_doubled, _tilted])
def test_image_outside_target_stalk_raises(corrupt):
    """The plane in TP^3 meets each boundary divisor in a tropical line.  An
    edge tau of that line carries F_1(tau) = T_tau, and the 2-cell of the
    open stratum over it maps onto T_tau.  Doubling T_tau makes that image
    leave the stalk at tau.  Tilting it keeps that image inside, but its
    projection to the stratum of a vertex of tau leaves the stalk at that
    vertex; that incidence comes first, since incidences run by sigma and
    tau comes before the 2-cell.  The error names the first incidence, in
    `X.incidence`, whose image leaves its target stalk, and p; the
    reference, which walks the incidences in the same order, names the
    same one."""
    pair, t = _corrupted_plane(corrupt)
    X, Y = pair.X, pair.Y
    multitangent(X, 0)  # F_0 does not see tangents
    with pytest.raises(CosheafError, match=r"p=1\)$") as err:
        multitangent(X, 1)
    s, r = map(int, re.search(r"cells (\d+) -> (\d+)", str(err.value)).groups())
    assert (r, s) in X.incidence
    if corrupt is _doubled:
        assert r == t and X.cells[s].sed == Y.apex
    else:
        assert s == t and X.cells[r].dim == 0 and X.cells[r].sed != X.cells[t].sed
    with pytest.raises(CosheafError) as ref:
        reference.multitangent(X, 1)
    assert str(ref.value) == str(err.value)


def _rebuilt_in_reverse(Z):
    """Z rebuilt by `CellComplex` from its own cells and incidence keys, both
    given in reverse order."""
    keys = [(c.sed, c.face) for c in Z.cells]
    return CellComplex(Z.Y, Z.cells[::-1], [(keys[t], keys[s]) for t, s in reversed(Z.incidence)])


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_incidence_order_belongs_to_the_complex(name):
    """`incidence` is a tuple sorted by (sigma, tau), so a complex rebuilt
    from the same cells and incidences, both given in reverse order, has the
    same incidence tuple, the same plan classes for each incidence, and the
    same cosheaf maps, a tuple with one map per incidence."""
    pair = ALL_FIXTURES[name]()
    for Z, build, rule in ((pair.X, multitangent, cosheaf._star_tangents),
                           (pair.Yref, ambient_on_cells, cosheaf._stratum_stars)):
        W = _rebuilt_in_reverse(Z)
        assert type(W.incidence) is tuple and W.cells == Z.cells
        assert W.incidence == Z.incidence == tuple(sorted(Z.incidence, key=lambda ts: ts[::-1]))
        for p in range(pair.Y.dim + 1):
            F = build(Z, p)
            assert type(F.maps) is tuple and len(F.maps) == len(Z.incidence)
            assert build(W, p).maps == F.maps, p
        assert cosheaf._plan(W, rule).class_of == cosheaf._plan(Z, rule).class_of


def test_incidence_order_fixes_the_error_message():
    """The error names the same incidence when the complex is rebuilt from
    its cells and incidences given in reverse order."""
    pair, t = _corrupted_plane(_tilted)
    messages = []
    for Z in (pair.X, _rebuilt_in_reverse(pair.X)):
        with pytest.raises(CosheafError) as err:
            multitangent(Z, 1)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "-> %d, p=1)" % t not in messages[0]


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
    cost no double description (the lift's hull takes one and the Newton
    polytope's facets one), and no `dual_cell_geometry` or
    `linear_image` runs; `stratum_pieces` builds every piece without the
    checked `QPolyhedron._from_fields`; and multitangent back-substitutes on its stalk
    bases, which are in column HNF already: its only Hermite eliminations
    (`_hermite`) are its lattice sums, one per `lattice_basis`.  The build
    takes one `kernel_lattice` per stratum for its lineality and one tangent
    lattice per (stratum dimension, equation normals),
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
    count(complexes, "kernel_lattice")
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
    # stratum_pieces; the pieces it makes, which no cell keeps, by (eta, F)
    real_fields, real_pieces = polyhedra.QPolyhedron._from_fields, complexes.stratum_pieces
    made = {}

    def counted_fields(_cls, *args):
        calls["QPolyhedron"] += 1
        return real_fields(*args)

    def counted_pieces(*args):
        before = calls["QPolyhedron"], calls["gauss_jordan"]
        out = real_pieces(*args)
        made.update(((args[4], F), P) for F, P in out.items())
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
    # the hull of the lift, and the Newton polytope's facets
    assert calls["dd_cone"] - before[0] == 2
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
    assert made.keys() == pair.Yref.by_key.keys()
    equations = {(P.dim, tuple(a for a, b in P.equations)) for P in made.values()}
    # one kernel per stratum for its lineality (`stratum_pieces`), and one
    # per equation system for its tangent lattice
    assert calls["kernel_lattice"] == len(pair.Y.cones) + len(equations)
    assert len(equations) < len(pair.Yref.cells) / 4
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
    tangents = len({c.tangent for i, c in enumerate(X.cells) if i not in same})
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
    assert calls["dd_cone"] - before == 2
    assert calls["cone_covered_by"] == 0

    made.clear()
    pair = build_pair(f, load_fan(HALF_TORIC_FAN))
    Y = pair.Y
    assert made.keys() == pair.Yref.by_key.keys()
    asked = [(eta, P) for (eta, F), P in made.items() if not P.is_bounded()
             and len(Y.reached_cones(P, eta)) > 1]
    classes = {(eta, P.rays, tuple(Y.reached_cones(P, eta))) for eta, P in asked}
    assert calls["cone_covered_by"] == len(classes) < len(asked)
    assert (len(classes), len(asked)) == (7, 19)
    before = calls["dd_cone"]
    cones = [P.recession() for P in made.values()]
    assert calls["dd_cone"] == before
    assert any(R.affine_dim for R in cones)
