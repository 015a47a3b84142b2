"""Seeded input generators for the benchmark workloads.

Every geometric input is emitted as text (a ``.trop`` polynomial and, where
the fan is not the normal fan, a ``.fan`` document), so the parsers are part
of each measured pass.  The seed moves only what cannot change the answer:
the polynomial's heights get a random affine-linear function added (which
translates X and keeps its dual subdivision), and the term order in the text
is shuffled.  The chain complexes of the Smith kernel get random orientation
signs per cell, which changes no homology group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations


def simplex_points(n, d):
    """Lattice points of the dilated standard simplex d*Delta_n in Z^n."""
    if n == 0:
        return [()]
    return [(a,) + rest for a in range(d + 1) for rest in simplex_points(n - 1, d - a)]


def freudenthal_height(a):
    """Height whose regular subdivision of d*Delta_n is the Freudenthal
    (Kuhn) triangulation, hence unimodular.

    With suffix sums y_i = a_i + ... + a_n the height is
    -(sum y_i^2 + sum_{i<j} (y_i - y_j)^2).  The plain A_n form
    -(sum a_i^2 + sum_{i<j} a_i a_j) is not a substitute: on 2*Delta_3 it
    leaves octahedra, so X would be singular.
    """
    n = len(a)
    y = [sum(a[i:]) for i in range(n)]
    return -(sum(v * v for v in y)
             + sum((y[i] - y[j]) ** 2 for i, j in combinations(range(n), 2)))


def _term_text(coeff, exp):
    bits = [str(coeff)]
    for i, e in enumerate(exp, start=1):
        if e == 1:
            bits.append("x%d" % i)
        elif e:
            bits.append("%d*x%d" % (e, i))
    return " + ".join(bits)


def polynomial_text(n, d, rng):
    """``.trop`` text of a degree-d polynomial in n variables with full
    support d*Delta_n and Freudenthal heights, shifted and shuffled by rng."""
    shift = [rng.randint(-3, 3) for _ in range(n)]
    const = rng.randint(-5, 5)
    terms = []
    for a in simplex_points(n, d):
        c = freudenthal_height(a) + const + sum(s * x for s, x in zip(shift, a))
        terms.append(_term_text(c, a))
    rng.shuffle(terms)
    return "max(%s)\n" % ", ".join(terms)


def fan_text(dim, rays, cones):
    lines = ["dim %d" % dim]
    lines += ["ray %d: %s" % (i, " ".join(map(str, r))) for i, r in enumerate(rays)]
    lines += ["cone: %s" % " ".join(map(str, c)) for c in cones]
    return "\n".join(lines) + "\n"


# TP^3 in the max-plus convention: outer normals of the facets of Delta_3.
_TP3_RAYS = [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1)]
_TP3_CONES = [c for c in combinations(range(4), 3)]

# TP^3 blown up along the torus-fixed point of the cone (-e1, -e2, -e3);
# complete, but not the normal fan of any Newton polytope used here.
BLOWUP_FAN = fan_text(3, _TP3_RAYS + [(-1, -1, -1)],
                      [(0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4), (0, 2, 4), (1, 2, 4)])
# TP^3 with the maximal cone (-e1, -e2, -e3) removed; not complete.
TP3_MINUS_CONE_FAN = fan_text(3, _TP3_RAYS, [c for c in _TP3_CONES if c != (0, 1, 2)])
# One boundary divisor only: the half-toric space R^2 x T.
HALF_TORIC_FAN = fan_text(3, [(0, 0, -1)], [(0,)])


@dataclass(frozen=True)
class GeometricInput:
    """One (f, fan) problem.  `fan` is None for the normal fan of the Newton
    polytope; otherwise it is ``.fan`` text."""

    name: str
    n: int
    degree: int
    poly: str
    fan: str | None
    compact_tp: bool     # X in TP^n on the normal fan: the Hodge oracle applies


LADDER = (("quartic-curve", 2, 4), ("quadric", 3, 2), ("cubic", 3, 3), ("quartic-k3", 3, 4))
PARTIAL = (("cubic-blowup", BLOWUP_FAN), ("cubic-tp3-minus-cone", TP3_MINUS_CONE_FAN),
           ("cubic-half-toric", HALF_TORIC_FAN))


def tp_ladder(seed):
    rng = random.Random(seed)
    return [GeometricInput(name, n, d, polynomial_text(n, d, rng), None, True)
            for name, n, d in LADDER]


def affine_ladder(seed):
    rng = random.Random(seed)
    return [GeometricInput(name, n, d, polynomial_text(n, d, rng), "dim %d\n" % n, False)
            for name, n, d in LADDER]


def partial_fans(seed):
    rng = random.Random(seed)
    return [GeometricInput(name, 3, 3, polynomial_text(3, 3, rng), fan, False)
            for name, fan in PARTIAL]


# ---------------------------------------------------------------------------
# simplicial grid surfaces for the Smith kernel


@dataclass(frozen=True)
class GridSurface:
    """Boundary matrices of a triangulated N x N grid surface, as sparse
    rows ``{row: {col: value}}`` with their shapes."""

    name: str
    size: int
    n_vertices: int
    n_edges: int
    n_triangles: int
    d1: dict             # vertices x edges
    d2: dict             # edges x triangles
    expected: tuple      # ((rank, torsion), ...) for H_0, H_1, H_2


def grid_surface(kind, size, rng):
    """The N x N grid on the torus or Klein bottle, each square split along
    its diagonal.  Gluing the top edge back with a flip gives the Klein
    bottle.  Every cell gets a random orientation sign from rng."""
    N = size

    def vertex(i, j):
        # i wraps plainly; wrapping j across the seam flips i for the bottle
        if j >= N:
            j -= N
            if kind == "klein":
                i = -i
        return (i % N) * N + j

    edges = {}
    triangles = []
    for i in range(N):
        for j in range(N):
            a, b = vertex(i, j), vertex(i + 1, j)
            c, d = vertex(i, j + 1), vertex(i + 1, j + 1)
            triangles.append((a, b, d))
            triangles.append((a, c, d))
    for t in triangles:
        for u, v in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            edges.setdefault((min(u, v), max(u, v)), len(edges))
    esign = [rng.choice((1, -1)) for _ in edges]
    tsign = [rng.choice((1, -1)) for _ in triangles]
    d1 = {}
    for (u, v), e in edges.items():
        d1.setdefault(v, {})[e] = esign[e]
        d1.setdefault(u, {})[e] = -esign[e]
    d2 = {}
    for k, (a, b, c) in enumerate(triangles):
        # oriented boundary [b, c] - [a, c] + [a, b]; edge keys run low to high
        for u, v, s in ((b, c, 1), (a, c, -1), (a, b, 1)):
            e = edges[(min(u, v), max(u, v))]
            d2.setdefault(e, {})[k] = s * (1 if u < v else -1) * esign[e] * tsign[k]
    if kind == "torus":
        expected = ((1, ()), (2, ()), (1, ()))
    else:
        expected = ((1, ()), (1, (2,)), (0, ()))
    return GridSurface(kind, N, N * N, len(edges), len(triangles), d1, d2, expected)


def smith_kernel(seed, size=20):
    rng = random.Random(seed)
    return [grid_surface("torus", size, rng), grid_surface("klein", size, rng)]


def selftest(seed):
    """The smallest rung of each kind, for the benchmark's own tests."""
    rng = random.Random(seed)
    return [GeometricInput("cubic-curve", 2, 3, polynomial_text(2, 3, rng), None, True),
            GeometricInput("quartic-curve-affine", 2, 4, polynomial_text(2, 4, rng),
                           "dim 2\n", False),
            GeometricInput("quadric-half-toric", 3, 2, polynomial_text(3, 2, rng),
                           HALF_TORIC_FAN, False),
            grid_surface("klein", 6, rng)]
