from collections import Counter
from math import comb

import pytest

from test_complexes import HALF_TORIC_FAN, TP3_BLOWUP_FAN, quadric_poly
from trophom import complexes, exactla, polyhedra, toric
from trophom.complexes import build_pair, is_nonsingular
from trophom.cosheaf import CosheafError, ambient_on_cells, multitangent
from trophom.exactla import LatticeSubspace, exterior_power
from trophom.tropio import load_fan, newton_polytope, normal_fan, parse_polynomial


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
    (u,) = tau.tangent.basis.columns()
    tau.tangent = LatticeSubspace.from_columns([corrupt(u)], len(u))
    assert tau.tangent.basis.columns() != [u]
    multitangent(X, 0)  # F_0 does not see tangents
    with pytest.raises(CosheafError, match=r"cells \d+ -> %d, p=1\)" % tau.index) as err:
        multitangent(X, 1)
    s = int(str(err.value).split("cells ")[1].split(" ->")[0])
    assert (tau.index, s) in X.incidence and X.cells[s].sed == Y.apex


# ---------------------------------------------------------------------------
# work counts

def test_no_redundant_exact_work(monkeypatch):
    """One build_pair plus every cosheaf on the quadric in TP^3: the cells,
    the open-stratum ones included, and the simplex cells of the subdivision
    cost no double description, and no `dual_cell_geometry` or
    `linear_image` runs; and multitangent back-substitutes on its stalk
    bases, which are in column HNF already, with no `hnf` call.  On the
    trivial fan no cell reaches a boundary stratum, so the compactness
    flags cost no `cone_covered_by` and no double description either.  On
    the half-toric fan only the unbounded cells whose closure reaches the
    boundary ask `cone_covered_by`, and every cell's `recession` is read
    off its own data."""
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(exactla, "hnf")
    count(polyhedra, "dd_cone")
    count(polyhedra.QPolyhedron, "linear_image")
    count(complexes, "dual_cell_geometry")
    count(toric, "cone_covered_by")
    f = quadric_poly()
    fan = normal_fan(newton_polytope(f))
    before = calls["dd_cone"]
    pair = build_pair(f, fan)
    # the hull of the lift, and the two double descriptions of the Newton
    # polytope's hull
    assert calls["dd_cone"] - before == 3
    assert calls["dual_cell_geometry"] == 0
    assert calls["linear_image"] == 0
    assert calls["hnf"] > 0  # the build's tangent lattices pass the counter
    before = calls["hnf"]
    for p in range(pair.Y.dim):
        multitangent(pair.X, p)
    for p in range(pair.Y.dim + 1):
        ambient_on_cells(pair.Yref, p)
    assert calls["hnf"] == before

    before = calls["dd_cone"]
    pair = build_pair(f, load_fan("dim 3\n"))
    assert not pair.Y.compact and not all(c.compact for c in pair.Yref.cells)
    assert calls["dd_cone"] - before == 3
    assert calls["cone_covered_by"] == 0

    pair = build_pair(f, load_fan(HALF_TORIC_FAN))
    Y = pair.Y
    asked = [c for c in pair.Yref.cells if not c.geom.is_bounded()
             and len(Y.reached_cones(c.geom, c.sed)) > 1]
    assert calls["cone_covered_by"] == len(asked) > 0
    before = calls["dd_cone"]
    cones = [c.geom.recession() for c in pair.Yref.cells]
    assert calls["dd_cone"] == before
    assert any(R.affine_dim for R in cones)
