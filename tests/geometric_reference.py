"""Geometric reference for the cell complexes of `trophom.complexes`.

The pipeline knows a cell only by its key (eta, F) and its integer data,
and reads the cells and their incidences off the subdivision.  This module
checks them by geometry instead.  A `GeomCell` is a pipeline `Cell` that
also carries its piece, and `with_geometry` rebuilds a pair's complexes on
them from the pieces `stratum_pieces` makes again.  Cells are keyed by
(sed, `geometry_key`), the identity of their point set, same-stratum
incidences are found by a containment scan over every pair of cells, and
cross-stratum ones are certified by projection.  The refinements by
hyperplanes and the coarse toric structure live here too, on `GeomCell`s,
since the tests are their only callers and a refined cell is no longer an
(eta, F) pair.  So do the all-cofaces reference for the compactness flag,
the full-star reference for the multi-tangent cosheaf, and the
stratum-by-stratum reference for non-singularity.  Exact kernels that the
pipeline runs in a cheaper form keep their plain forms here as references:
the double description that recomputes every ray's tight set at each step,
the reduced row echelon form in Fraction arithmetic, the stratum pieces
built by the checked `QPolyhedron` constructor, and the cosheaf built
incidence by incidence for each p, where the pipeline plans its stars and
incidence classes once per complex.  The walks over a complex that only the
tests take live here as well: each cell's facets (`facets_of`), which a
complex does not keep, the closure of a cell, the cells of one dimension,
and the membership test of a single point.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import itemgetter

from trophom import complexes
from trophom.complexes import Cell, CellComplex, HypersurfacePair
from trophom.cosheaf import Cosheaf, CosheafError
from trophom.exactla import (
    IntMatrix,
    back_substitute,
    dot,
    exterior_power,
    hnf_pivots,
    kernel_lattice,
    lattice_basis,
    primitive_vector,
    scaled,
)
from trophom import polyhedra
from trophom.polyhedra import QPolyhedron, cone_covered_by
from trophom.toric import ToricVariety
from trophom.tropio import newton_polytope


def assert_exact(x):
    """x follows the number rule of `trophom.exactla`: an int when it is
    integral and a Fraction otherwise, never a float."""
    assert type(x) in (int, Fraction) and \
        type(x) is (int if x.denominator == 1 else Fraction), (x, type(x))


def heights(f):
    """The coefficients of f as `build_pair` hands them to
    `trophom.complexes.stratum_pieces`: integer numerators over one
    denominator."""
    return scaled([c for e, c in f.terms])


def dd_cone(constraints, dim):
    """The reference for `trophom.polyhedra.dd_cone`, with the same output in
    the same order: the tight set of every ray is recomputed from scratch,
    against every processed constraint, at each step that needs the
    adjacency test, instead of being inherited."""
    lin = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays = []
    processed = []

    def zeroset(v):
        return frozenset(k for k, c in enumerate(processed) if dot(c, v) == 0)

    for c in constraints:
        vals_lin = [dot(c, l) for l in lin]
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
                v = dot(c, l)
                new_lin.append(primitive_vector(tuple(a0 * x - v * y for x, y in zip(l, l0)))
                               if v else l)
            new_rays = []
            for r in rays:
                v = dot(c, r)
                if v:
                    r = primitive_vector(tuple(-a0 * x + v * y for x, y in zip(r, l0)))
                new_rays.append(r)
            new_rays.append(l0)
            lin, rays = new_lin, new_rays
            processed.append(c)
            continue
        processed.append(c)
        vals = [(dot(c, r), r) for r in rays]
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
            vp = dot(c, p)
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
                vq = dot(c, q)
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


def stratum_pieces(f, S, newton_facets, Y, eta, G):
    """The reference for `trophom.complexes.stratum_pieces`, from the same
    data: every piece is built by the checked `QPolyhedron._from_fields`,
    which sorts its vertices, rays and facets and puts its equations into
    canonical form."""
    k = Y.stratum_dim(eta)
    proj = Y.projection(Y.apex, eta)
    section = Y.strata[eta].section.columns()
    w = {i: tuple(dot(f.terms[i][0], col) for col in section) for i in G}

    def diffs(pts, a0):
        return [tuple(x - y for x, y in zip(w[i], w[a0])) for i in sorted(pts) if i != a0]

    lin = kernel_lattice(IntMatrix(diffs(G, min(G)), ncols=k)).columns()
    dim_g = k - len(lin)
    vertex_of = {}
    for M in S.maximal_cells:
        cell = M & G
        if cell not in vertex_of and S.faces.get(cell) == dim_g:
            vertex_of[cell] = tuple(dot(r, S.ties[M]) for r in proj.rows)
    walls = {}
    for a, b in newton_facets:
        on = frozenset(i for i in G if dot(a, f.terms[i][0]) == b)
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


def contains(P: QPolyhedron, x):
    """Is the rational point x in P?  Decided by P's one membership test,
    `QPolyhedron._satisfied_by`; a point of the wrong length raises
    ValueError instead of being judged by a prefix of its coordinates."""
    polyhedra._check_lengths(P.dim, ("point", (x,)))
    return P._satisfied_by((tuple(map(Fraction, x)),), (), ())


def meet(P: QPolyhedron, Q: QPolyhedron):
    """P intersected with Q, by Q's facets and equations; None if empty."""
    return P.intersect_hrep(Q.facets, Q.equations)


def tangent_lattice(P: QPolyhedron) -> IntMatrix:
    """The basis of the saturated integral tangent lattice of P's affine
    hull: the kernel of its equation normals, as `build_pair` reads it."""
    return kernel_lattice(IntMatrix([a for a, b in P.equations], ncols=P.dim))


def fan_cone(fan, cone) -> QPolyhedron:
    """The cone of the fan with these ray indices, as a polyhedron."""
    return QPolyhedron.cone([fan.rays[i] for i in sorted(cone)], fan.dim)


def geometry_key(P: QPolyhedron):
    """Canonical hashable identity of the point set of P: two polyhedra
    are the same set exactly when their keys are equal.  Without lineality
    the sorted vertices and rays are canonical already; with it, they are
    read in the coordinates transverse to the lineality, whose HNF basis
    columns kill their pivot rows."""
    if not P.lin:
        return ("pt", P.dim, P.vertices, P.rays)
    piv_rows = [next(i for i, x in enumerate(col) if x) for col in P.lin]
    keep = [i for i in range(P.dim) if i not in piv_rows]

    def project(x):
        x = [Fraction(v) for v in x]
        for col, pr in zip(P.lin, piv_rows):
            f = x[pr] / col[pr]
            if f:
                x = [xv - f * cv for xv, cv in zip(x, col)]
        return tuple(x[i] for i in keep)

    verts = tuple(sorted(set(project(v) for v in P.vertices)))
    rays = tuple(sorted(set(
        primitive_vector(project(r)) for r in P.rays
        if any(project(r)))))
    return ("lin", P.dim, tuple(P.lin), verts, rays)


@dataclass
class GeomCell(Cell):
    """A `Cell` that carries its polyhedron, in stratum-local coordinates:
    a piece (eta, F) with the geometry the pipeline does not keep, or a cell
    of a refined complex, which is no (eta, F) pair."""

    geom: QPolyhedron


def with_geometry(pair) -> HypersurfacePair:
    """The pair with X and Yref rebuilt on `GeomCell`s carrying their
    pieces, which `trophom.complexes.stratum_pieces` makes again from the
    pair's own data: the same cells, positions, incidences and `embed`, and
    X still holds Yref's own cell objects."""
    newton = newton_polytope(pair.f)
    pieces = {}
    for eta, G in enumerate(pair.face_points):
        for F, P in complexes.stratum_pieces(pair.f, pair.subdivision, newton.facets,
                                             pair.Y, eta, G, heights(pair.f)).items():
            pieces[(eta, F)] = P
    cells = {id(c): GeomCell(**vars(c), geom=pieces[(c.sed, c.face)])
             for c in pair.Yref.cells}

    def rebuilt(Z):
        keys = [(c.sed, c.face) for c in Z.cells]
        return CellComplex(Z.Y, [cells[id(c)] for c in Z.cells],
                           [(keys[t], keys[s]) for t, s in Z.incidence])

    return HypersurfacePair(pair.f, pair.Y, pair.subdivision, rebuilt(pair.X),
                            rebuilt(pair.Yref), pair.embed, pair.face_points)


def geometric_keys(Z):
    """(sed, geometry key) -> cell position."""
    return {(c.sed, geometry_key(c.geom)): i for i, c in enumerate(Z.cells)}


def cells_of_dim(Z, q):
    """The cells of Z of dimension q, in order."""
    return [c for c in Z.cells if c.dim == q]


def facets_of(Z):
    """Each cell's facets, as sorted positions, keyed by the cell's
    position."""
    out = {i: [] for i in range(len(Z.cells))}
    for t, s in sorted(Z.incidence):
        out[s].append(t)
    return out


def closure(facets, idx):
    """The positions of all cells in the closure of the cell at `idx`,
    itself included, walking each cell's facets (`facets_of`)."""
    seen = {idx}
    todo = [idx]
    while todo:
        for t in facets[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


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
                                      geometry_key(cells[i].geom)))
        remap = {old: new for new, old in enumerate(order)}
        self.cells = [cells[i] for i in order]
        self.incidence = tuple(sorted(((remap[t], remap[s]) for t, s in incidence),
                                      key=itemgetter(1, 0)))
        self.dim = max((c.dim for c in self.cells), default=-1)
        self.by_key = geometric_keys(self)
        self.cosheaf_plans = {}


def validate(Z, full=False):
    """Check closure and incidence certificates; `full` adds the pairwise
    common-face test (quadratic, for small fixtures)."""
    keys = geometric_keys(Z)
    incidence = set(Z.incidence)
    for t, s in Z.incidence:
        tau, sig = Z.cells[t], Z.cells[s]
        assert tau.dim == sig.dim - 1, "incidence dimensions"
        if tau.sed == sig.sed:
            assert sig.geom.contains_polyhedron(tau.geom), \
                "incidence containment certificate"
        else:
            assert Z.Y.cones[sig.sed] <= Z.Y.cones[tau.sed]
            img = sig.geom.linear_image(Z.Y.projection(sig.sed, tau.sed))
            assert geometry_key(img) == geometry_key(tau.geom), \
                "cross-stratum incidence certificate"
    # boundary closure: geometric facets of every cell are cells
    for i, c in enumerate(Z.cells):
        if c.dim == 0:
            continue
        for F, _ in c.geom.face_lattice():
            if F.affine_dim != c.dim - 1:
                continue
            key = (c.sed, geometry_key(F))
            assert key in keys, "missing boundary cell"
            assert (keys[key], i) in incidence
    if full:
        facets = facets_of(Z)
        for i, a in enumerate(Z.cells):
            for j, b in enumerate(Z.cells):
                if j <= i or a.sed != b.sed:
                    continue
                both = meet(a.geom, b.geom)
                if both is None:
                    continue
                key = (a.sed, geometry_key(both))
                assert key in keys, "intersection is not a cell"
                m = keys[key]
                assert m in closure(facets, i) and m in closure(facets, j)
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
        cells.append(GeomCell(cid, k, IntMatrix.identity(k), Y.compact,
                              frozenset(), False, geom))
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
            key = geometry_key(Q)
            # cells run by dimension, so the first cell a piece is cut from
            # is the smallest one containing it, and lends its face
            if key not in pieces:
                compact = Z.Y.closure_is_compact(Q, apex, Z.Y.reached_cones(Q, apex))
                pieces[key] = GeomCell(apex, Q.affine_dim, tangent_lattice(Q), compact,
                                       c.face, c.in_x, Q)
            else:
                pieces[key].in_x = pieces[key].in_x or c.in_x
    cells = list(pieces.values())
    return GeometricComplex(Z.Y, cells, containment_incidences(cells))


def slice_pair(pair: HypersurfacePair, slices) -> HypersurfacePair:
    """Apply a sequence of hyperplane slices to both X and Yref of a pair
    that `build_pair` returns, on their pieces (`with_geometry`)."""
    geo = with_geometry(pair)
    X, Yref = geo.X, geo.Yref
    for normal, offset in slices:
        X = slice_complex(X, normal, offset)
        Yref = slice_complex(Yref, normal, offset)
    embed = tuple(Yref.by_key[(c.sed, geometry_key(c.geom))] for c in X.cells)
    return HypersurfacePair(pair.f, pair.Y, pair.subdivision, X, Yref, embed,
                            pair.face_points)


def _same_stratum_star(Z):
    """For each cell, the cells of the same stratum whose closure contains it."""
    star = {i: {i} for i in range(len(Z.cells))}
    facets = facets_of(Z)
    for s in range(len(Z.cells)):
        for t in closure(facets, s):
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
    maps = []
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
        maps.append(A)
    return Cosheaf(Z, p, ranks, bases, tuple(maps))


def per_incidence_cosheaf(Z, p, stars):
    """The reference for the planned builders of `trophom.cosheaf`, which
    sort the incidences into classes once per complex: the same cosheaf,
    its keys and their hashing redone for each p and each incidence.

    The cosheaf whose stalk at cell i is the sum of the p-th wedges of
    the lattice bases in the star `stars[i]`.  One lattice sum is taken per
    star, every cell with that star shares its stalk basis, and each
    distinct basis is wedged once.  F_0 is the constant cosheaf: every
    stalk is Z and every map is [1].

    Maps are inclusions within a stratum and wedge powers of the quotient
    projections across strata, each written in the target stalk's basis by
    back-substitution: that basis is in column Hermite form already, and
    its pivots are read once per distinct basis.  An inclusion between
    equal stalks is the identity.  A map depends only on the two strata and
    the two stars, so it is computed once per (sigma stratum, tau stratum,
    source star, target star) and shared by every incidence with that key.
    An image that leaves the target stalk raises CosheafError naming the
    first such incidence and p.
    """
    if p == 0:
        one = IntMatrix.identity(1)
        n = len(Z.cells)
        return Cosheaf(Z, p, [1] * n, [one] * n, (one,) * len(Z.incidence))
    Y = Z.Y
    wedges = {}     # lattice basis -> columns of its wedge
    stalks = {}     # star -> stalk basis
    for c, key in zip(Z.cells, stars):
        if key not in stalks:
            gens = []
            for T in key:
                if T not in wedges:
                    wedges[T] = exterior_power(T, p).columns()
                gens += wedges[T]
            ambient = comb(Y.stratum_dim(c.sed), p)
            stalks[key] = lattice_basis(gens, ambient)
    bases = [stalks[key] for key in stars]
    ranks = [B.ncols for B in bases]
    pivots = {}     # target stalk basis -> its pivots
    wedge_projection = {}
    shared = {}     # (sigma stratum, tau stratum, source, target star) -> map
    maps = []
    for t, s in Z.incidence:
        tau, sig = Z.cells[t], Z.cells[s]
        key = (sig.sed, tau.sed, stars[s], stars[t])
        A = shared.get(key)
        if A is None:
            image, target = bases[s], bases[t]
            if tau.sed == sig.sed:
                if image == target:
                    A = IntMatrix.identity(ranks[t])
            else:
                strata = (sig.sed, tau.sed)
                if strata not in wedge_projection:
                    wedge_projection[strata] = exterior_power(Y.projection(*strata), p)
                image = wedge_projection[strata] * image
            if A is None:
                if target not in pivots:
                    pivots[target] = hnf_pivots(target)
                A = back_substitute(pivots[target], ranks[t], image)
                if A is None:
                    raise CosheafError(
                        "incidence image does not land in the target stalk "
                        "(cells %d -> %d, p=%d)" % (s, t, p))
            shared[key] = A
        maps.append(A)
    return Cosheaf(Z, p, ranks, bases, tuple(maps))


def ambient_stars(Z):
    """The star of each cell under the ambient cosheaf, as the
    per-incidence builder reads it: the identity basis of its stratum
    lattice, one per stratum dimension."""
    Y = Z.Y
    full = [frozenset((IntMatrix.identity(k),)) for k in range(Y.dim + 1)]
    return [full[Y.stratum_dim(c.sed)] for c in Z.cells]


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


def lineal_strata(pair):
    """The cones eta whose pieces, built by the reference `stratum_pieces`,
    have nonzero lineality."""
    newton = newton_polytope(pair.f)
    return {eta for eta, G in enumerate(pair.face_points)
            if any(P.lin for P in stratum_pieces(pair.f, pair.subdivision, newton.facets,
                                                 pair.Y, eta, G).values())}


def is_cellular_pair(pair: HypersurfacePair) -> str:
    """The cellular verdict read off the geometry: the reference for
    `trophom.complexes.is_cellular_pair`, which reads it off the cell
    dimensions.  On the trivial fan, 'yes' iff the Newton polytope is
    full-dimensional; on a complete fan, 'yes'; on any other, 'no' if some
    stratum's pieces have lineality (`lineal_strata`), else 'unknown'."""
    Y = pair.Y
    if Y.fan.is_trivial():
        return "yes" if newton_polytope(pair.f).affine_dim == Y.dim else "no"
    if Y.compact:
        return "yes"
    return "no" if lineal_strata(pair) else "unknown"
