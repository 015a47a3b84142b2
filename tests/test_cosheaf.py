import pytest

from test_complexes import HALF_TORIC_FAN, TP3_BLOWUP_FAN, quadric_poly
from trophom.complexes import build_pair, is_nonsingular
from trophom.cosheaf import (
    ambient_on_cells,
    expected_stalk_polynomial,
    kunneth_stalk_rank,
    multitangent,
    stalk_rank_polynomial,
)
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


def test_functorial(pair):
    n = pair.Y.dim
    for p in range(n):
        assert multitangent(pair.X, p).check_functorial()
    for p in range(n + 1):
        assert ambient_on_cells(pair.Yref, p).check_functorial()


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
