"""Geometric reference for the cell complexes of `trophom.complexes`.

The pipeline knows a cell only by its key (eta, F), and reads the cells and
their incidences off the subdivision.  This module checks them by geometry
instead: cells are keyed by (sed, geometry key), same-stratum incidences are
found by a containment scan over every pair of cells, and cross-stratum ones
are certified by projection.  The refinements by hyperplanes and the coarse
toric structure live here too, since the tests are their only callers and a
refined cell is no longer an (eta, F) pair.  So do the all-cofaces
reference for the compactness flag and the full-star reference for the
multi-tangent cosheaf.
"""

from fractions import Fraction
from math import comb

from trophom.complexes import Cell, CellComplex, HypersurfacePair
from trophom.cosheaf import Cosheaf, CosheafError
from trophom.exactla import LatticeSubspace, back_substitute, exterior_power, hnf_pivots
from trophom.polyhedra import QPolyhedron, cone_covered_by
from trophom.toric import ToricVariety


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
            assert Z.Y.is_face(sig.sed, tau.sed)
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
    rec = QPolyhedron.cone(P.rays, P.dim, P.lin)
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
        geom = QPolyhedron.cone([], k, lins=[tuple(1 if i == j else 0 for j in range(k))
                                             for i in range(k)]) if k else \
            QPolyhedron.from_generators([()], dim=0)
        cells.append(Cell(cid, k, geom, LatticeSubspace.full(k), Y.compact,
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
    wedges = [exterior_power(c.tangent.basis, p).columns() for c in Z.cells]
    ranks, bases = [], []
    for i, c in enumerate(Z.cells):
        gens = []
        for j in star[i]:
            gens += wedges[j]
        total = LatticeSubspace.from_columns(gens, comb(Y.stratum_dim(c.sed), p))
        ranks.append(total.rank)
        bases.append(total.basis)
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
