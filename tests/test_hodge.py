"""The Hodge oracle up to n = 5: Euler characteristics of the cosheaves of
Freudenthal-height hypersurfaces in TP^n against Griffiths' Hodge numbers.

For a compact non-singular X in TP^n, rank H_q(X; F_p) = h^{p,q}(X)
(Itenberg-Katzarkov-Mikhalkin-Zharkov), so the cellular Euler
characteristic sum_sigma (-1)^dim(sigma) rank F_p(sigma) is
sum_q (-1)^q h^{p,q}.  On TP^n the ambient cosheaf has H_q(F_p) = Z for
q = p and 0 otherwise, so its Euler characteristic is (-1)^p.  The same
hypersurfaces in R^n, on the trivial fan, are checked against the paper's
chi_y relation.
"""

from math import comb

import pytest

from test_complexes import freudenthal_poly
from trophom.complexes import build_pair, is_nonsingular
from trophom.cosheaf import ambient_on_cells, multitangent
from trophom.tropio import load_fan, newton_polytope, normal_fan


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
