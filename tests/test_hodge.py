"""The Hodge oracle up to n = 5: Euler characteristics of the cosheaves of
Freudenthal-height hypersurfaces in TP^n against Griffiths' Hodge numbers.

For a compact non-singular X in TP^n, rank H_q(X; F_p) = h^{p,q}(X)
(Itenberg-Katzarkov-Mikhalkin-Zharkov), so the cellular Euler
characteristic sum_sigma (-1)^dim(sigma) rank F_p(sigma) is
sum_q (-1)^q h^{p,q}.  On TP^n the ambient cosheaf has H_q(F_p) = Z for
q = p and 0 otherwise, so its Euler characteristic is (-1)^p.  The same
hypersurfaces in R^n, on the trivial fan, are checked against the paper's
chi_y relation, and so are the elliptic curves of the 16 reflexive
polygons in their toric surfaces.  Last, the whole fingerprint the
benchmark checks is unchanged when the input is moved by GL_n(Z).
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import atan2, comb

import pytest

from test_complexes import freudenthal_poly
from trophom.complexes import (
    build_pair,
    is_cellular_pair,
    is_combinatorially_ample,
    is_nonsingular,
    is_proper,
)
from trophom.cosheaf import ambient_on_cells, multitangent
from trophom.polyhedra import QPolyhedron
from trophom.tropio import FanSpec, TropicalPolynomial, load_fan, newton_polytope, normal_fan


def hodge_numbers(n, d):
    """h^{p,q}, p, q = 0 .. n-1, of a smooth degree-d hypersurface in CP^n,
    by Griffiths' count: delta_pq, plus, when p + q = n - 1, the
    coefficient of t^((n-p)d-n-1) in (1 + t + ... + t^(d-2))^(n+1)."""
    power = [1]
    for _ in range(n + 1):
        power = [sum(power[k - j] for j in range(d - 1) if 0 <= k - j < len(power))
                 for k in range(len(power) + d - 2)]
    h = [[int(p == q) for q in range(n)] for p in range(n)]
    for p in range(n):
        k = (n - p) * d - n - 1
        if 0 <= k < len(power):
            h[p][n - 1 - p] += power[k]
    return h


def test_griffiths_classical_values():
    for d in range(2, 8):
        assert hodge_numbers(2, d)[1][0] == comb(d - 1, 2)
        assert 3 * hodge_numbers(3, d)[1][1] == 2 * d ** 3 - 6 * d ** 2 + 7 * d
    quintic = hodge_numbers(4, 5)
    assert (quintic[3][0], quintic[2][1], quintic[1][1]) == (1, 101, 1)
    cubic_fourfold = hodge_numbers(5, 3)
    assert (cubic_fourfold[4][0], cubic_fourfold[3][1], cubic_fourfold[2][2]) == (0, 1, 21)
    for n, d in ((3, 4), (4, 5), (5, 3), (5, 4)):
        h = hodge_numbers(n, d)
        assert all(h[p][q] == h[q][p] == h[n - 1 - p][n - 1 - q]
                   for p in range(n) for q in range(n))


# f-vectors of X for the Freudenthal triangulation of d*Delta_n in TP^n
X_F_VECTORS = {
    (2, 3): [18, 18],
    (2, 4): [28, 30],
    (3, 2): [36, 60, 25],
    (3, 3): [81, 144, 64],
    (4, 2): [116, 270, 210, 55],
    (4, 3): [336, 810, 650, 175],
    (5, 2): [358, 1044, 1143, 561, 105],
}


def euler(Z, F):
    return sum(r if c.dim % 2 == 0 else -r for c, r in zip(Z.cells, F.ranks))


@pytest.mark.parametrize("n, d", sorted(X_F_VECTORS))
def test_euler_characteristics_match_griffiths(n, d):
    f = freudenthal_poly(n, d)
    pair = build_pair(f, normal_fan(newton_polytope(f)), max_dim=5)
    assert is_nonsingular(pair)
    assert pair.X.f_vector() == X_F_VECTORS[(n, d)]
    h = hodge_numbers(n, d)
    assert [euler(pair.X, multitangent(pair.X, p)) for p in range(n)] == \
        [sum((-1) ** q * h[p][q] for q in range(n)) for p in range(n)]
    assert [euler(pair.Yref, ambient_on_cells(pair.Yref, p)) for p in range(n + 1)] == \
        [(-1) ** p for p in range(n + 1)]


# The chi_y relation of the paper on X in R^n: for a non-singular X in the
# torus, the Euler characteristic over all cells (Borel-Moore) of F_p is
# (-1)^p e^p, with chi_y = sum_p e^p y^p of the complex hypersurface.  For a
# curve of degree d in (C*)^2, Khovanskii's e^0 = 1 - m - g and e^1 = 1 - g,
# with g = (d-1)(d-2)/2 interior and m = 3d boundary lattice points of
# d Delta_2.  Summed over p with signs they give the Euler characteristic,
# (-1)^(n-1) n! Vol(d Delta_n) = (-1)^(n-1) d^n (Kouchnirenko).

@pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (2, 4), (2, 5),
                                  (3, 2), (3, 3), (3, 4)])
def test_affine_euler_characteristics_match_chi_y(n, d):
    pair = build_pair(freudenthal_poly(n, d), load_fan("dim %d\n" % n))
    assert is_nonsingular(pair)
    chi = [euler(pair.X, multitangent(pair.X, p)) for p in range(n)]
    if n == 2:
        g, m = (d - 1) * (d - 2) // 2, 3 * d
        assert chi == [1 - m - g, g - 1]
    assert sum((-1) ** p * c for p, c in enumerate(chi)) == (-1) ** (n - 1) * d ** n


# The 16 reflexive polygons up to GL_2(Z), by their vertices, in the order
# of their boundary lattice point counts 3, 4, 4, 4, 5, 5, 6, ..., 9.
REFLEXIVE_POLYGONS = [
    [(1, 0), (0, 1), (-1, -1)],
    [(1, 0), (0, 1), (-1, 0), (0, -1)],
    [(1, 0), (0, 1), (-1, 0), (-1, -1)],
    [(1, 0), (-1, 1), (-1, -1)],
    [(1, 0), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    [(1, -1), (0, 1), (-1, 0), (-1, -1)],
    [(1, -1), (1, 0), (0, 1), (-1, 0), (-1, -1)],
    [(1, -1), (1, 1), (-1, 0), (-1, -1)],
    [(1, -1), (0, 1), (-2, -1)],
    [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    [(1, -1), (1, 1), (0, 1), (-1, 0), (-1, -1)],
    [(1, -1), (1, 0), (0, 1), (-2, -1)],
    [(1, -1), (1, 1), (-1, 1), (-1, -1)],
    [(1, -1), (1, 1), (0, 1), (-2, -1)],
    [(2, -1), (0, 1), (-2, -1)],
    [(1, -1), (1, 2), (-2, -1)],
]


def lattice_points(P):
    """The lattice points of the polygon P, and those on its boundary in
    counterclockwise order from the negative x-axis."""
    points = [p for p in product(range(-5, 6), repeat=2)
              if all(a[0] * p[0] + a[1] * p[1] <= b for a, b in P.facets)]
    boundary = [p for p in points
                if any(a[0] * p[0] + a[1] * p[1] == b for a, b in P.facets)]
    return points, sorted(boundary, key=lambda p: atan2(p[1], p[0]))


def polar(P):
    """{y : <x, y> <= 1 for x in P}, for a polygon with the origin inside;
    its vertices x / b are Fractions, integral when P is reflexive."""
    return QPolyhedron.from_generators([tuple(Fraction(x, b) for x in a) for a, b in P.facets])


def test_reflexive_polygon_list():
    """The list holds 16 polygons, with the origin their only interior
    lattice point, in dual pairs of boundary counts l + l* = 12 (Poonen and
    Rodriguez-Villegas), and with the known number of each count."""
    counts = Counter()
    for vertices in REFLEXIVE_POLYGONS:
        delta = QPolyhedron.from_generators(vertices)
        points, boundary = lattice_points(delta)
        assert sorted(delta.vertices) == sorted(vertices)
        assert set(points) - set(boundary) == {(0, 0)}
        assert len(boundary) + len(lattice_points(polar(delta))[1]) == 12
        counts[len(boundary)] += 1
    assert counts == {3: 1, 4: 3, 5: 2, 6: 4, 7: 2, 8: 3, 9: 1}


@pytest.mark.parametrize("vertices", REFLEXIVE_POLYGONS,
                         ids=["-".join("%d,%d" % v for v in vs) for vs in REFLEXIVE_POLYGONS])
def test_reflexive_polygon_curves_are_elliptic(vertices):
    """A curve whose Newton polygon has one interior lattice point has genus
    1, so chi_y = 0 and (chi(X; F_0), chi(X; F_1)) = (0, 0).  It lies in the
    compact toric surface of the fan over consecutive boundary points of
    the polar polygon, which refines the normal fan, with r rays and h-vector
    (1, r - 2, 1); so the ambient cosheaf's Euler characteristics are
    (1, -(r - 2), 1), as in `test_ambient_euler_characteristic_is_h_vector`.
    The heights, 1 at the origin and -|a|^2 elsewhere, triangulate each of
    these polygons unimodularly, so X is non-singular."""
    delta = QPolyhedron.from_generators(vertices)
    points, _ = lattice_points(delta)
    rays = lattice_points(polar(delta))[1]
    r = len(rays)
    f = TropicalPolynomial(2, [(a, 1 if a == (0, 0) else -(a[0] ** 2 + a[1] ** 2))
                               for a in points])
    pair = build_pair(f, FanSpec(2, rays, [(i, (i + 1) % r) for i in range(r)]))
    assert is_nonsingular(pair) and pair.Y.compact
    assert [euler(pair.X, multitangent(pair.X, p)) for p in range(2)] == [0, 0]
    assert [euler(pair.Yref, ambient_on_cells(pair.Yref, p)) for p in range(3)] == \
        [1, -(r - 2), 1]


def fingerprint(pair):
    """What the benchmark checks of a solve: the f-vectors of X and Yref,
    Yref's incidence count, the four predicates with the number of cells
    failing ampleness, and for every p the rank sum and Euler
    characteristic of F_p on X and of the ambient cosheaf on Yref."""
    ample, failing = is_combinatorially_ample(pair)
    out = [pair.X.f_vector(), pair.Yref.f_vector(), len(pair.Yref.incidence),
           is_proper(pair), is_nonsingular(pair), ample, len(failing),
           is_cellular_pair(pair)]
    n = pair.Y.dim
    for Z, build, top in ((pair.X, multitangent, n - 1), (pair.Yref, ambient_on_cells, n)):
        for p in range(top + 1):
            F = build(Z, p)
            out.append((sum(F.ranks), euler(Z, F)))
    return out


def moved(f, seed):
    """f with a product of four elementary operations of GL_n(Z) applied to
    its exponents, as `fans()` in test_tropio.py applies them to rays, and
    an affine function of the exponent added to its heights: the same
    hypersurface in other lattice coordinates, shifted."""
    rng = random.Random(seed)
    n = f.n_vars
    steps = [(*rng.sample(range(n), 2), rng.choice((-2, -1, 1, 2))) for _ in range(4)]
    w = [rng.randint(-3, 3) for _ in range(n)]
    shift = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    terms = []
    for e, c in f.terms:
        e = list(e)
        for i, j, k in steps:
            e[i] += k * e[j]
        terms.append((e, c + shift + sum(x * y for x, y in zip(w, e))))
    return TropicalPolynomial(n, terms)


@pytest.mark.parametrize("fan", ["normal", "trivial"])
@pytest.mark.parametrize("n, d", [(2, 3), (3, 2), (3, 3)])
def test_fingerprint_is_invariant_under_lattice_moves(n, d, fan):
    """The Freudenthal cubic curve, quadric and cubic surface, on the normal
    fan of their Newton polytope and on the trivial fan, keep the whole
    fingerprint when moved by two seeded matrices of GL_n(Z)."""
    def solve(f):
        return fingerprint(build_pair(f, normal_fan(newton_polytope(f)) if fan == "normal"
                                      else load_fan("dim %d\n" % n)))

    f = freudenthal_poly(n, d)
    want = solve(f)
    for seed in (1, 2):
        g = moved(f, seed)
        assert {e for e, c in g.terms} != {e for e, c in f.terms}
        assert solve(g) == want, seed
