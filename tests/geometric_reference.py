"""Geometric reference for the cell complexes of `trophom.complexes`.

The pipeline knows a cell only by its key (eta, F), and reads the cells and
their incidences off the subdivision.  This module checks them by geometry
instead: cells are keyed by (sed, geometry key), same-stratum incidences are
found by a containment scan over every pair of cells, and cross-stratum ones
are certified by projection.  The refinements by hyperplanes and the coarse
toric structure live here too, since the tests are their only callers and a
refined cell is no longer an (eta, F) pair.  So do the all-cofaces
reference for the compactness flag, the full-star reference for the
multi-tangent cosheaf, and the stratum-by-stratum reference for
non-singularity.  Exact kernels that the pipeline runs in a cheaper
form keep their plain forms here as references: the double description
that recomputes every ray's tight set at each step, the reduced row echelon
form in Fraction arithmetic, and the stratum pieces built by the checked
`QPolyhedron` constructor.
"""

from fractions import Fraction
from math import comb

from trophom.complexes import Cell, CellComplex, HypersurfacePair
from trophom.cosheaf import Cosheaf, CosheafError
from trophom.exactla import (
    IntMatrix,
    back_substitute,
    exterior_power,
    hnf_pivots,
    kernel_lattice,
    lattice_basis,
    primitive_vector,
)
from trophom import polyhedra
from trophom.polyhedra import QPolyhedron, cone_covered_by
from trophom.toric import ToricVariety


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def dd_cone(constraints, dim):
    """The reference for `trophom.polyhedra.dd_cone`, with the same output in
    the same order: the tight set of every ray is recomputed from scratch,
    against every processed constraint, at each step that needs the
    adjacency test, instead of being inherited."""
    lin = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays = []
    processed = []

    def zeroset(v):
        return frozenset(k for k, c in enumerate(processed) if _dot(c, v) == 0)

    for c in constraints:
        vals_lin = [_dot(c, l) for l in lin]
        if any(vals_lin):
            k = next(i for i, v in enumerate(vals_lin) if v)
            l0, a0 = lin[k], vals_lin[k]
            if a0 > 0:
                l0 = tuple(-x for x in l0)
                a0 = -a0
            new_lin = []
            for i, l in enumerate(lin):
                if i == k:
                    continue
                v = _dot(c, l)
                new_lin.append(primitive_vector(tuple(a0 * x - v * y for x, y in zip(l, l0)))
                               if v else l)
            new_rays = []
            for r in rays:
                v = _dot(c, r)
                if v:
                    r = primitive_vector(tuple(-a0 * x + v * y for x, y in zip(r, l0)))
                new_rays.append(r)
            new_rays.append(l0)
            lin, rays = new_lin, new_rays
            processed.append(c)
            continue
        processed.append(c)
        vals = [(_dot(c, r), r) for r in rays]
        neg = [r for v, r in vals if v < 0]
        zero = [r for v, r in vals if v == 0]
        pos = [r for v, r in vals if v > 0]
        if not pos:
            rays = neg + zero
            continue
        zs = {r: zeroset(r) for r in rays}
        combos = []
        seen = set(neg) | set(zero)
        for p in pos:
            vp = _dot(c, p)
            for q in neg:
                common = zs[p] & zs[q]
                adjacent = True
                for r in rays:
                    if r is p or r is q:
                        continue
                    if zs[r] >= common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                vq = _dot(c, q)
                w = primitive_vector(tuple(vp * x - vq * y for x, y in zip(q, p)))
                if w not in seen and any(w):
                    seen.add(w)
                    combos.append(w)
        rays = neg + zero + combos
    return lin, rays


def recorded_dd_cone_calls(run):
    """The (constraints, dim) of every `polyhedra.dd_cone` call that `run()`
    makes, in order."""
    calls = []
    real = polyhedra.dd_cone

    def recording(constraints, dim):
        calls.append((list(constraints), dim))
        return real(constraints, dim)

    polyhedra.dd_cone = recording
    try:
        run()
    finally:
        polyhedra.dd_cone = real
    return calls


def fraction_rref(rows, ncols):
    """The reference for `trophom.exactla.gauss_jordan`: Gauss-Jordan
    elimination in Fraction arithmetic, each pivot row divided by its pivot.
    Returns (R, pivots), R the reduced rows, row k with its pivot at
    pivots[k]."""
    R = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(R)) if R[i][c] != 0), None)
        if sel is None:
            continue
        R[r], R[sel] = R[sel], R[r]
        pv = R[r][c]
        R[r] = [x / pv for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
    return R, pivots


def canonical_equations(eqs, dim):
    """The reference for `trophom.polyhedra._canonical_equations`: the
    primitive multiple of each row of the Fraction reduced row echelon
    form, sorted."""
    R, pivots = fraction_rref([list(a) + [b] for a, b in eqs], dim + 1)
    rows = (primitive_vector(row) for row in R[:len(pivots)])
    return tuple(sorted((tuple(v[:-1]), Fraction(v[-1])) for v in rows))


def stratum_pieces(f, S, newton, Y, eta, G):
    """The reference for `trophom.complexes.stratum_pieces`, from the same
    data: every piece is built by the checked `QPolyhedron._from_fields`,
    which sorts its vertices, rays and facets and puts its equations into
    canonical form."""
    k = Y.stratum_dim(eta)
    proj = Y.projection(Y.apex, eta)
    section = Y.strata[eta].section.columns()
    w = {i: tuple(_dot(f.terms[i][0], col) for col in section) for i in G}

    def diffs(pts, a0):
        return [tuple(x - y for x, y in zip(w[i], w[a0])) for i in sorted(pts) if i != a0]

    lin = kernel_lattice(IntMatrix(diffs(G, min(G)), ncols=k)).columns()
    dim_g = k - len(lin)
    vertex_of = {}
    for M in S.maximal_cells:
        cell = M & G
        if cell not in vertex_of and S.faces.get(cell) == dim_g:
            vertex_of[cell] = tuple(_dot(r, S.ties[M]) for r in proj.rows)
    walls = {}
    for a, b in newton.facets:
        on = frozenset(i for i in G if _dot(a, f.terms[i][0]) == b)
        if on and on not in walls and \
                lattice_basis(diffs(on, min(on)), k).ncols == dim_g - 1:
            walls[on] = primitive_vector(proj.apply(a))
    pieces = {}
    for F in S.faces:
        if not F <= G:
            continue
        a0 = min(F)
        c0 = f.terms[a0][1]

        def tie(b):
            return (tuple(x - y for x, y in zip(w[b], w[a0])), c0 - f.terms[b][1])

        pieces[F] = QPolyhedron._from_fields(
            k,
            [v for cell, v in vertex_of.items() if F <= cell],
            [r for on, r in walls.items() if F <= on],
            lin,
            [tie(min(C - F)) for C in S.covered_by[F] if C <= G],
            [tie(b) for b in sorted(F) if b != a0])
    return pieces


def geometric_keys(Z):
    """(sed, geometry key) -> cell index."""
    return {(c.sed, c.geom.geometry_key()): c.index for c in Z.cells}


def containment_incidences(cells):
    """Pairs (t, s) of positions in `cells` with tau one dimension below
    sigma, in its stratum and inside it: the quadratic scan over every pair.
    In a polyhedral complex such a tau is a facet of sigma."""
    groups = {}
    for i, c in enumerate(cells):
        groups.setdefault((c.sed, c.dim), []).append(i)
    out = set()
    for (sed, d), sigmas in groups.items():
        for s in sigmas:
            for t in groups.get((sed, d - 1), []):
                if cells[s].geom.contains_polyhedron(cells[t].geom):
                    out.add((t, s))
    return out


class GeometricComplex(CellComplex):
    """A complex whose cells need not be (eta, F) pieces, as after a
    refinement, where several cells share a face: cells are ordered and
    `by_key` is keyed by geometry, and `incidence` holds pairs of positions
    in `cells`."""

    def __init__(self, Y, cells, incidence):
        self.Y = Y
        order = sorted(range(len(cells)),
                       key=lambda i: (cells[i].dim, cells[i].sed,
                                      cells[i].geom.geometry_key()))
        remap = {old: new for new, old in enumerate(order)}
        self.cells = [cells[i] for i in order]
        for i, c in enumerate(self.cells):
            c.index = i
        self.incidence = {(remap[t], remap[s]) for t, s in incidence}
        self.facets_of = {i: [] for i in range(len(self.cells))}
        for t, s in sorted(self.incidence):
            self.facets_of[s].append(t)
        self.dim = max((c.dim for c in self.cells), default=-1)
        self.by_key = geometric_keys(self)


def validate(Z, full=False):
    """Check closure and incidence certificates; `full` adds the pairwise
    common-face test (quadratic, for small fixtures)."""
    keys = geometric_keys(Z)
    for t, s in Z.incidence:
        tau, sig = Z.cells[t], Z.cells[s]
        assert tau.dim == sig.dim - 1, "incidence dimensions"
        if tau.sed == sig.sed:
            assert sig.geom.contains_polyhedron(tau.geom), \
                "incidence containment certificate"
        else:
            assert Z.Y.cones[sig.sed] <= Z.Y.cones[tau.sed]
            img = sig.geom.linear_image(Z.Y.projection(sig.sed, tau.sed))
            assert img.geometry_key() == tau.geom.geometry_key(), \
                "cross-stratum incidence certificate"
    # boundary closure: geometric facets of every cell are cells
    for c in Z.cells:
        if c.dim == 0:
            continue
        for F, _ in c.geom.face_lattice():
            if F.affine_dim != c.dim - 1:
                continue
            key = (c.sed, F.geometry_key())
            assert key in keys, "missing boundary cell"
            assert (keys[key], c.index) in Z.incidence
    if full:
        for a in Z.cells:
            for b in Z.cells:
                if b.index <= a.index or a.sed != b.sed:
                    continue
                meet = a.geom.intersect(b.geom)
                if meet is None:
                    continue
                key = (a.sed, meet.geometry_key())
                assert key in keys, "intersection is not a cell"
                m = keys[key]
                assert m in Z.closure(a.index) and m in Z.closure(b.index)
    return True


def closure_is_compact(Y: ToricVariety, P: QPolyhedron, cid):
    """Is the closure of P (in the rho-stratum) compact in Y?  The reference
    for `ToricVariety.closure_is_compact`, which knows nothing of the cones
    the closure reaches: the recession cone of P, by double description, must
    lie in the star cones of every maximal coface of rho."""
    if Y.compact or P.is_bounded():
        return True
    rec = QPolyhedron.from_generators([(0,) * P.dim], P.rays, P.lin, P.dim)
    cofaces = Y.cofaces(cid)
    maxcones = [d for d in cofaces
                if not any(Y.cones[d] < Y.cones[e] for e in cofaces)]
    return cone_covered_by(rec, [Y.star_cone_geometry(cid, d)
                                 for d in maxcones if d != cid])


def toric_complex(Y: ToricVariety) -> CellComplex:
    """The coarse structure on Y whose cells are the stratum closures: the
    piece (eta, {}) of each stratum."""
    cells = []
    for cid in range(len(Y.cones)):
        k = Y.stratum_dim(cid)
        geom = QPolyhedron.from_generators([(0,) * k], [], IntMatrix.identity(k).rows, k)
        cells.append(Cell(cid, k, geom, IntMatrix.identity(k), Y.compact,
                          frozenset(), False))
    incidence = {((t, frozenset()), (s, frozenset()))
                 for s, cs in enumerate(Y.cones) for t, ct in enumerate(Y.cones)
                 if cs < ct and len(ct) == len(cs) + 1}
    return CellComplex(Y, cells, incidence)


def slice_complex(Z, normal, offset) -> GeometricComplex:
    """Refine a complex in R^n by the hyperplane <normal, x> = offset.

    Only complexes whose cells all sit in the open stratum are supported; a
    slicing hyperplane has no canonical closure behaviour at the toric
    boundary.
    """
    apex = Z.Y.apex
    if any(c.sed != apex for c in Z.cells):
        raise ValueError("hyperplane slicing needs a boundary-free complex")
    a = tuple(int(x) for x in normal)
    b = Fraction(offset)
    na = tuple(-x for x in a)
    pieces = {}
    for c in Z.cells:
        for Q in (c.geom.intersect_hrep(ineqs=[(a, b)]),
                  c.geom.intersect_hrep(ineqs=[(na, -b)]),
                  c.geom.intersect_hrep(eqs=[(a, b)])):
            if Q is None:
                continue
            key = Q.geometry_key()
            # cells run by dimension, so the first cell a piece is cut from
            # is the smallest one containing it, and lends its face
            if key not in pieces:
                compact = Z.Y.closure_is_compact(Q, apex, Z.Y.reached_cones(Q, apex))
                pieces[key] = Cell(apex, Q.affine_dim, Q, Q.tangent_lattice(), compact,
                                   c.face, c.in_x)
            else:
                pieces[key].in_x = pieces[key].in_x or c.in_x
    cells = list(pieces.values())
    return GeometricComplex(Z.Y, cells, containment_incidences(cells))


def slice_pair(pair: HypersurfacePair, slices) -> HypersurfacePair:
    """Apply a sequence of hyperplane slices to both X and Yref."""
    X, Yref = pair.X, pair.Yref
    for normal, offset in slices:
        X = slice_complex(X, normal, offset)
        Yref = slice_complex(Yref, normal, offset)
    embed = {c.index: Yref.by_key[(c.sed, c.geom.geometry_key())] for c in X.cells}
    return HypersurfacePair(pair.f, pair.Y, pair.subdivision, pair.newton,
                            X, Yref, embed, pair.face_points)


def _same_stratum_star(Z):
    """For each cell, the cells of the same stratum whose closure contains it."""
    star = {i: {i} for i in range(len(Z.cells))}
    for s in range(len(Z.cells)):
        for t in Z.closure(s):
            star[t].add(s)
    out = {}
    for i, members in star.items():
        sed = Z.cells[i].sed
        out[i] = [j for j in members if Z.cells[j].sed == sed]
    return out


def multitangent(Z, p):
    """The integral p-multi-tangent cosheaf by its definition: the reference
    for `trophom.cosheaf.multitangent`, which sums over the maximal cells of
    each star only.  The stalk at a cell is the verbatim sum of the p-th
    wedges of the tangent lattices of every same-stratum cell whose closure
    contains it, found by walking the closure of every cell; every incidence
    map is back-substituted, and F_0 is built like any other p."""
    Y = Z.Y
    star = _same_stratum_star(Z)
    wedges = [exterior_power(c.tangent, p).columns() for c in Z.cells]
    ranks, bases = [], []
    for i, c in enumerate(Z.cells):
        gens = []
        for j in star[i]:
            gens += wedges[j]
        total = lattice_basis(gens, comb(Y.stratum_dim(c.sed), p))
        ranks.append(total.ncols)
        bases.append(total)
    pivots = {}
    wedge_projection = {}
    maps = {}
    for t, s in Z.incidence:
        tau, sig = Z.cells[t], Z.cells[s]
        image = bases[s]
        if tau.sed != sig.sed:
            key = (sig.sed, tau.sed)
            if key not in wedge_projection:
                wedge_projection[key] = exterior_power(Y.projection(*key), p)
            image = wedge_projection[key] * image
        if t not in pivots:
            pivots[t] = hnf_pivots(bases[t])
        A = back_substitute(pivots[t], ranks[t], image)
        if A is None:
            raise CosheafError(
                "incidence image does not land in the target stalk "
                "(cells %d -> %d, p=%d)" % (s, t, p))
        maps[(t, s)] = A
    return Cosheaf(Z, p, ranks, bases, maps)


def is_nonsingular(pair: HypersurfacePair) -> bool:
    """Non-singularity stratum by stratum: the reference for
    `trophom.complexes.is_nonsingular`, which checks the open stratum's
    subdivision alone.  The faces of the subdivision on every stratum's
    Newton polytope face G_eta are collected, and every one of top
    dimension must be a unimodular simplex."""
    S = pair.subdivision
    for live in pair.face_points:
        sub_faces = {F: d for F, d in S.faces.items() if F <= live}
        if not sub_faces:
            return False
        top = max(sub_faces.values())
        if not all(polyhedra.is_unimodular_simplex(S, F, top)
                   for F, d in sub_faces.items() if d == top):
            return False
    return True
