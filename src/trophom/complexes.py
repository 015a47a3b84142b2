"""Tropical hypersurfaces as cell complexes in tropical toric varieties.

Builds the hypersurface X dual to the regular subdivision of the Newton
polytope, its compactification, and the ambient polyhedral structure obtained
by refining the toric variety by X.  Every cell is a pair (eta, F) of a fan
cone eta and a subdivision face F with F inside G_eta, the support points on
the Newton polytope face dual to eta: the piece, in the eta-stratum, of the
closure of the dual cell of F.  Its dimension is dim Y - dim eta - dim F.
Cells are stored in stratum-local coordinates together with their
sedentarity cone, integral tangent lattice, and compactness flag.  Also home
to the predicate battery (properness, non-singularity, combinatorial
ampleness, cellular pair) and to the complex refinements used for invariance
checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .exactla import LatticeSubspace, solve_rational
from .polyhedra import (
    QPolyhedron,
    hrep_from_generators,
    is_unimodular_simplex,
    regular_subdivision,
)
from .toric import ToricVariety
from .tropio import FanSpec, TropicalPolynomial, newton_polytope

DEFAULT_MAX_DIM = 4


class BuildError(ValueError):
    pass


@dataclass
class Cell:
    sed: int                    # cone id eta of the stratum holding the interior
    dim: int
    geom: QPolyhedron           # stratum-local coordinates
    tangent: LatticeSubspace
    compact: bool
    face: frozenset             # the subdivision face F this cell is dual to
    in_x: bool
    index: int = -1

    def key(self):
        return (self.sed, self.geom.geometry_key())


class CellComplex:
    """A finite polyhedral complex in a tropical toric variety."""

    def __init__(self, Y: ToricVariety, cells, incidence):
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
        self.by_key = {c.key(): c.index for c in self.cells}

    def cells_of_dim(self, q):
        return [c for c in self.cells if c.dim == q]

    def closure(self, idx):
        """All cells in the closure of the given cell, itself included."""
        seen = {idx}
        todo = [idx]
        while todo:
            s = todo.pop()
            for t in self.facets_of[s]:
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return seen

    def f_vector(self):
        out = [0] * (self.dim + 1)
        for c in self.cells:
            out[c.dim] += 1
        return out

    def validate(self, full=False):
        """Check closure and incidence certificates; `full` adds the pairwise
        common-face test (quadratic, for small fixtures)."""
        for t, s in self.incidence:
            tau, sig = self.cells[t], self.cells[s]
            assert tau.dim == sig.dim - 1, "incidence dimensions"
            if tau.sed == sig.sed:
                assert sig.geom.contains_polyhedron(tau.geom), \
                    "incidence containment certificate"
            else:
                assert self.Y.is_face(sig.sed, tau.sed)
                img = sig.geom.linear_image(self.Y.projection(sig.sed, tau.sed))
                assert img.geometry_key() == tau.geom.geometry_key(), \
                    "cross-stratum incidence certificate"
        # boundary closure: geometric facets of every cell are cells
        for c in self.cells:
            if c.dim == 0:
                continue
            for F, _ in c.geom.face_lattice():
                if F.affine_dim != c.dim - 1:
                    continue
                key = (c.sed, F.geometry_key())
                assert key in self.by_key, "missing boundary cell"
                assert (self.by_key[key], c.index) in self.incidence
        if full:
            for a in self.cells:
                for b in self.cells:
                    if b.index <= a.index or a.sed != b.sed:
                        continue
                    meet = a.geom.intersect(b.geom)
                    if meet is None:
                        continue
                    key = (a.sed, meet.geometry_key())
                    assert key in self.by_key, "intersection is not a cell"
                    m = self.by_key[key]
                    assert m in self.closure(a.index) and m in self.closure(b.index)
        return True


@dataclass
class HypersurfacePair:
    """The hypersurface X with the ambient structure Y refined by it."""

    f: TropicalPolynomial
    Y: ToricVariety
    subdivision: object
    newton: object
    X: CellComplex
    Yref: CellComplex
    embed: dict                  # X cell index -> Yref cell index
    face_points: list            # cone id eta -> G_eta
    face_table: dict | None      # (eta, F) -> Yref cell index; None once sliced

    def region_cells(self):
        return [c for c in self.Yref.cells
                if c.sed == self.Y.apex and c.dim == self.Y.dim]


def tie_points(f: TropicalPolynomial, S) -> dict:
    """v_M for every maximal cell M of the subdivision: the point where all
    terms of M tie, i.e. a solution of <a_i - a_0, x> = c_0 - c_i over M.
    Unique modulo the lineality of a support that is not full-dimensional."""
    out = {}
    for M in S.maximal_cells:
        (a0, c0), *rest = (f.terms[i] for i in sorted(M))
        out[M] = tuple(solve_rational([[x - y for x, y in zip(a, a0)] for a, c in rest],
                                      [c0 - c for a, c in rest]))
    return out


def dual_cell_geometry(f: TropicalPolynomial, face, ties, newton) -> QPolyhedron:
    """The closed dual cell of a subdivision face F: the locus where the terms
    of F tie and attain the maximum.

    It is conv{v_M : M maximal, M contains F} + N(F), read off the
    subdivision: `ties` maps each maximal cell M to v_M (`tie_points`), and
    N(F), the normal cone of the Newton polytope `newton` at F, is spanned by
    the outer normals of its facets through every point of F plus the
    normals of its equations.

    These generators are already irredundant, so one double description
    (generators to facets) builds the cell, and its V-representation is the
    generators themselves:
    - distinct maximal cells M containing F have distinct tie points v_M,
      also modulo lineality, since the terms that attain the maximum at v_M
      are exactly those of M; each v_M is a vertex of the complex inside the
      cell, hence a vertex of the cell;
    - each facet normal of the Newton polytope through F is an extreme ray
      of N(F).
    With lineality the vertices and rays are these representatives, not the
    ones a second double description would pick; `geometry_key` is the same.
    """
    verts = sorted(v for M, v in ties.items() if face <= M)
    P = newton.poly
    pts = [f.terms[i][0] for i in face]
    rays = sorted(a for a, b in P.facets
                  if all(sum(x * y for x, y in zip(a, p)) == b for p in pts))
    lins = [a for a, b in P.equations]
    facets, eqs = hrep_from_generators(verts, rays, lins, P.dim)
    return QPolyhedron(P.dim, verts, rays, lins, facets, eqs)


def dual_face_points(f: TropicalPolynomial, Y: ToricVariety):
    """G_eta for every cone eta: the support points on the Newton polytope
    face dual to eta, i.e. those maximising every ray of eta at once."""
    pts = [e for e, c in f.terms]
    tops = []
    for r in Y.fan.rays:
        vals = [sum(x * y for x, y in zip(a, r)) for a in pts]
        top = max(vals)
        tops.append(frozenset(j for j, v in enumerate(vals) if v == top))
    out = []
    for cone in Y.cones:
        G = frozenset(range(len(pts))).intersection(*(tops[i] for i in cone))
        if not G:
            raise BuildError(
                "fan cone %r with rays %s lies in no normal cone of the Newton "
                "polytope: its rays have no common maximiser on the support"
                % (sorted(cone), ", ".join(str(Y.fan.rays[i]) for i in sorted(cone))))
        out.append(G)
    return out


def build_pair(f: TropicalPolynomial, fan: FanSpec, max_dim=DEFAULT_MAX_DIM
               ) -> HypersurfacePair:
    """Build X and the refined ambient structure inside the toric variety.

    Precondition: every cone of the fan lies in a normal cone of the Newton
    polytope, i.e. its rays have a common maximiser on the support of f;
    otherwise a BuildError names the first cone that does not.  Under it the
    cells are the pairs (eta, F) with F inside G_eta, read off the face table.
    """
    Y = ToricVariety(fan)
    if Y.dim > max_dim:
        raise BuildError("ambient dimension %d exceeds the cap %d "
                         "(raise max_dim to override)" % (Y.dim, max_dim))
    if f.n_vars > Y.dim:
        raise BuildError("polynomial has more variables than the fan dimension")
    f = f.padded(Y.dim)
    if len(f.terms) < 2:
        raise BuildError("a tropical hypersurface needs at least two terms")
    G = dual_face_points(f, Y)
    S = regular_subdivision([e for e, c in f.terms], [c for e, c in f.terms])
    newton = newton_polytope(f)
    ties = tie_points(f, S)
    cells = []
    for face, fd in sorted(S.faces.items(), key=lambda kv: (kv[1], sorted(kv[0]))):
        Q = dual_cell_geometry(f, face, ties, newton)
        if Q.affine_dim != Y.dim - fd:
            raise BuildError("dual cell of %r has dimension %d, expected %d"
                             % (sorted(face), Q.affine_dim, Y.dim - fd))
        for eta in range(len(Y.cones)):
            if not face <= G[eta]:
                continue
            piece = Q if eta == Y.apex else Q.linear_image(Y.projection(Y.apex, eta))
            cells.append(Cell(eta, piece.affine_dim, piece, piece.tangent_lattice(),
                              Y.closure_is_compact(piece, eta), face, fd >= 1))

    incidence = set()
    # same-stratum incidences, prefiltered by dual-face containment
    by_sed_dim = {}
    for i, c in enumerate(cells):
        by_sed_dim.setdefault((c.sed, c.dim), []).append(i)
    for (sed, d), sigmas in by_sed_dim.items():
        taus = by_sed_dim.get((sed, d - 1), [])
        for si in sigmas:
            sig = cells[si]
            for ti in taus:
                tau = cells[ti]
                if sig.face < tau.face and sig.geom.contains_polyhedron(tau.geom):
                    incidence.add((ti, si))
    # cross-stratum incidences: (eta, F) is a facet of (rho, F) one cone step up
    index = {(c.sed, c.face): i for i, c in enumerate(cells)}
    for (rho, face), si in index.items():
        for eta in Y.cofaces(rho):
            ti = index.get((eta, face))
            if ti is not None and Y.cone_dim(eta) == Y.cone_dim(rho) + 1:
                incidence.add((ti, si))

    Yref = CellComplex(Y, cells, incidence)
    x_old_indices = [c.index for c in Yref.cells if c.in_x]
    old_to_tmp = {old: i for i, old in enumerate(x_old_indices)}
    x_inc = {(old_to_tmp[t], old_to_tmp[s]) for t, s in Yref.incidence
             if t in old_to_tmp and s in old_to_tmp}
    X = CellComplex(Y, [replace(Yref.cells[i]) for i in x_old_indices], x_inc)
    table = {(c.sed, c.face): c.index for c in Yref.cells}
    embed = {c.index: table[(c.sed, c.face)] for c in X.cells}
    return HypersurfacePair(f, Y, S, newton, X, Yref, embed, G, table)


# ---------------------------------------------------------------------------
# predicates

def _face_table(pair: HypersurfacePair):
    if pair.face_table is None:
        raise ValueError("a sliced pair has no face table; use the pair from "
                         "build_pair")
    return pair.face_table


def is_proper(pair: HypersurfacePair) -> bool:
    """Every cell meets every deeper stratum in the expected dimension: each
    piece (eta, F) of the face table has dimension dim Y - dim eta - dim F."""
    Y, cells = pair.Y, pair.Yref.cells
    return all(cells[i].dim == Y.dim - Y.cone_dim(eta) - pair.subdivision.faces[F]
               for (eta, F), i in _face_table(pair).items())


def is_nonsingular(pair: HypersurfacePair) -> bool:
    """The induced subdivision on every stratum's Newton polytope face is a
    primitive triangulation."""
    S = pair.subdivision
    for live in pair.face_points:
        sub_faces = {F: d for F, d in S.faces.items() if F <= live}
        if not sub_faces:
            return False
        top = max(sub_faces.values())
        if not all(is_unimodular_simplex(S, F, top)
                   for F, d in sub_faces.items() if d == top):
            return False
    return True


@dataclass
class GammaOpen:
    """The pieces of a sedentarity-0 cell across the strata it meets."""

    base_cell: int
    pieces: dict          # cone id -> cell index in the host complex
    host: CellComplex

    def cone_ids(self):
        return sorted(self.pieces)

    def minimal_face(self):
        """The piece at the unique maximal cone, when there is one."""
        Y = self.host.Y
        ids = self.cone_ids()
        maxima = [a for a in ids
                  if not any(Y.cones[a] < Y.cones[b] for b in ids)]
        if len(maxima) == 1:
            return self.pieces[maxima[0]]
        return None

    def is_boolean(self):
        """Cone set equals the full face lattice of a single fan cone.

        The pieces are closed under taking faces (G_eta lies in G_rho for
        rho a face of eta), and every subset of a fan cone is a cone, so
        this holds exactly when there is a unique maximal cone."""
        return self.minimal_face() is not None


def gamma_open(pair: HypersurfacePair, cell_index, host=None) -> GammaOpen:
    """The sub-poset gamma^o of a sedentarity-0 cell of Yref (or X)."""
    host = host or pair.Yref
    c = host.cells[cell_index]
    if c.sed != pair.Y.apex:
        raise ValueError("gamma_open needs a sedentarity-0 cell")
    table = _face_table(pair)
    pieces = {}
    for eta in range(len(pair.Y.cones)):
        i = table.get((eta, c.face))
        if i is not None:
            pieces[eta] = host.by_key[pair.Yref.cells[i].key()]
    return GammaOpen(cell_index, pieces, host)


def is_combinatorially_ample(pair: HypersurfacePair):
    """True iff every top-dimensional region's gamma^o is a T/R product.

    Returns (flag, failing) where failing lists the offending region cells.
    """
    failing = [c.index for c in pair.region_cells()
               if not gamma_open(pair, c.index).is_boolean()]
    return not failing, failing


def is_cellular_pair(pair: HypersurfacePair) -> str:
    """Tri-state 'yes' / 'no' / 'unknown', by certified sufficient conditions."""
    Y = pair.Y
    if Y.fan.is_trivial():
        full = pair.newton.dim == Y.dim
        result = "yes" if full else "no"
    elif Y.compact:
        result = "yes" if is_proper(pair) else "unknown"
    else:
        # non-compact with boundary: a cell whose stratum geometry has a
        # lineality direction pinches at the point at infinity
        if any(c.geom.lin for c in pair.Yref.cells):
            result = "no"
        else:
            result = "unknown"
    return result


# ---------------------------------------------------------------------------
# other cell structures

def toric_complex(Y: ToricVariety) -> CellComplex:
    """The coarse structure on Y whose cells are the stratum closures."""
    cells = []
    for cid in range(len(Y.cones)):
        k = Y.stratum_dim(cid)
        geom = QPolyhedron.cone([], k, lins=[tuple(1 if i == j else 0 for j in range(k))
                                             for i in range(k)]) if k else \
            QPolyhedron.from_generators([()], dim=0)
        cells.append(Cell(cid, k, geom, LatticeSubspace.full(k), Y.compact,
                          frozenset(), False))
    incidence = set()
    for s, cs in enumerate(Y.cones):
        for t, ct in enumerate(Y.cones):
            if cs < ct and len(ct) == len(cs) + 1:
                incidence.add((t, s))
    return CellComplex(Y, cells, incidence)


def slice_complex(Z: CellComplex, normal, offset) -> CellComplex:
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
                pieces[key] = Cell(apex, Q.affine_dim, Q, Q.tangent_lattice(),
                                   Z.Y.closure_is_compact(Q, apex),
                                   c.face, c.in_x)
            else:
                pieces[key].in_x = pieces[key].in_x or c.in_x
    cell_list = list(pieces.values())
    by_dim = {}
    for i, c in enumerate(cell_list):
        by_dim.setdefault(c.dim, []).append(i)
    incidence = set()
    for d, sigmas in by_dim.items():
        for si in sigmas:
            for ti in by_dim.get(d - 1, []):
                if cell_list[si].geom.contains_polyhedron(cell_list[ti].geom):
                    incidence.add((ti, si))
    return CellComplex(Z.Y, cell_list, incidence)


def slice_pair(pair: HypersurfacePair, slices) -> HypersurfacePair:
    """Apply a sequence of hyperplane slices to both X and Yref.

    The sliced cells are no longer (eta, F) pairs, so the result carries no
    face table and the predicates that read it raise ValueError on it.
    """
    X, Yref = pair.X, pair.Yref
    for normal, offset in slices:
        X = slice_complex(X, normal, offset)
        Yref = slice_complex(Yref, normal, offset)
    embed = {c.index: Yref.by_key[c.key()] for c in X.cells}
    return HypersurfacePair(pair.f, pair.Y, pair.subdivision, pair.newton,
                            X, Yref, embed, pair.face_points, None)
