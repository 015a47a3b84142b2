"""Tropical hypersurfaces as cell complexes in tropical toric varieties.

Builds the hypersurface X dual to the regular subdivision of the Newton
polytope, its compactification, and the ambient polyhedral structure obtained
by refining the toric variety by X.  Every cell is a pair (eta, F) of a fan
cone eta and a subdivision face F with F inside G_eta, the support points on
the Newton polytope face dual to eta: the piece, in the eta-stratum, of the
closure of the dual cell of F.  Its dimension is dim Y - dim eta - dim F.
The piece is the dual cell of F for the terms on G_eta, so every piece, the
open-stratum cells included, is read off the subdivision induced on G_eta
(`stratum_pieces`), and the key (eta, F) orders the cells and looks them up.
Incidences are the covering relation of the subdivision within a stratum and
one cone step across strata.  Cells are stored in stratum-local coordinates
together with their sedentarity cone, integral tangent lattice, and
compactness flag.  Also home to the predicate battery (properness,
non-singularity, combinatorial ampleness, cellular pair).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .exactla import (
    IntMatrix,
    LatticeSubspace,
    gauss_jordan,
    kernel_lattice,
    primitive_vector,
)
from .polyhedra import (
    QPolyhedron,
    _canonical_equations,
    _dot,
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


class CellComplex:
    """A finite polyhedral complex in a tropical toric variety, whose cells
    are the pieces (eta, F), each known by its key (sed, face), and ordered
    by dimension first."""

    def __init__(self, Y: ToricVariety, cells, incidence):
        """`incidence` holds the keys (tau, sigma) of every cell tau that is a
        facet of a cell sigma."""
        self.Y = Y
        self.cells = sorted(cells, key=lambda c: (c.dim, c.sed, sorted(c.face)))
        for i, c in enumerate(self.cells):
            c.index = i
        self.by_key = {(c.sed, c.face): c.index for c in self.cells}
        self.incidence = {(self.by_key[t], self.by_key[s]) for t, s in incidence}
        self.facets_of = {i: [] for i in range(len(self.cells))}
        for t, s in sorted(self.incidence):
            self.facets_of[s].append(t)
        self.dim = max((c.dim for c in self.cells), default=-1)

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

    def region_cells(self):
        return [c for c in self.Yref.cells
                if c.sed == self.Y.apex and c.dim == self.Y.dim]


def tie_points(f: TropicalPolynomial, S) -> dict:
    """v_M for every maximal cell M of the subdivision: the point where all
    terms of M tie, i.e. a solution of <a_i - a_0, x> = c_0 - c_i over M.
    Unique modulo the lineality of a support that is not full-dimensional:
    the coordinates off the pivot columns are 0.  Each row is scaled by the
    denominator of its right-hand side and reduced by `gauss_jordan`, whose
    pivot rows are d times the reduced row echelon rows, so the coordinate
    at pivots[k] is the last entry of row k over d.  The lifted terms of
    M lie on one hyperplane, so the system is consistent."""
    out = {}
    for M in S.maximal_cells:
        (a0, c0), *rest = (f.terms[i] for i in sorted(M))
        n = len(a0)
        rows = [[(x - y) * (c0 - c).denominator for x, y in zip(a, a0)] + [(c0 - c).numerator]
                for a, c in rest]
        A, pivots, d = gauss_jordan(rows, n)
        v = [Fraction(0)] * n
        for row, k in zip(A, pivots):
            v[k] = Fraction(row[n], d)
        out[M] = tuple(v)
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

    A test reference: `build_pair` reads the open-stratum cells off the
    subdivision by `stratum_pieces`, and the tests compare them with this.
    """
    verts = sorted(v for M, v in ties.items() if face <= M)
    P = newton.poly
    pts = [f.terms[i][0] for i in face]
    rays = sorted(a for a, b in P.facets
                  if all(_dot(a, p) == b for p in pts))
    lins = [a for a, b in P.equations]
    facets, eqs = hrep_from_generators(verts, rays, lins, P.dim)
    return QPolyhedron(P.dim, verts, rays, lins, facets, eqs)


def stratum_pieces(f: TropicalPolynomial, S, newton, ties, Y: ToricVariety,
                   eta, G) -> dict:
    """The piece (eta, F) of every face F of S inside G = G_eta, in
    eta-stratum coordinates, read off the subdivision that S induces on G.

    A term a pairs with a stratum vector y as w_a(y) = a^T section_eta y.
    The rays of eta vanish on the differences of G, so the piece is the dual
    cell of F for the terms on G: the y where the terms of F tie and attain
    the maximum over G.  At the apex G holds every term and the piece is the
    dual cell of F itself.  Points and rays come from the open stratum by
    `Y.projection(apex, eta)`:
    - vertices: the projected tie point v_M, one M for each maximal cell
      M' = M & G of the induced subdivision that contains F;
    - rays: the projected normals of the Newton facets through F that cut
      a facet of conv(G), one per facet of conv(G);
    - lineality: the saturated kernel of the w_a - w_a0, a in G (the whole
      stratum when G is one point);
    - equations: the terms of F tie;
    - facets: one per face F' of S covering F inside G, where one more term
      b in F' - F ties.
    The per-stratum data is computed once for all the pieces, and its
    vertices and rays are sorted once.  Every piece is then built by
    `QPolyhedron._trusted`: its vertices and rays are sorted subsequences,
    its lineality is the stratum's, already the HNF basis of a saturated
    lattice, its facets are sorted and its equations made canonical here.
    """
    k = Y.stratum_dim(eta)
    proj = Y.projection(Y.apex, eta)
    section = Y.strata[eta].section.columns()
    w = {i: tuple(_dot(f.terms[i][0], col) for col in section) for i in G}

    def diffs(pts, a0):
        return [tuple(x - y for x, y in zip(w[i], w[a0])) for i in sorted(pts) if i != a0]

    lin = tuple(kernel_lattice(IntMatrix(diffs(G, min(G)), ncols=k)).basis.columns())
    dim_g = k - len(lin)        # affine rank of G: w is injective on its differences
    vertex_of = {}
    for M in S.maximal_cells:
        cell = M & G
        if cell not in vertex_of and S.faces.get(cell) == dim_g:
            vertex_of[cell] = tuple(_dot(r, ties[M]) for r in proj.rows)
    walls = {}
    for a, b in newton.poly.facets:
        on = frozenset(i for i in G if _dot(a, f.terms[i][0]) == b)
        if on and on not in walls and \
                LatticeSubspace.from_columns(diffs(on, min(on)), k).rank == dim_g - 1:
            walls[on] = primitive_vector(proj.apply(a))
    vertex_of = sorted(vertex_of.items(), key=lambda item: item[1])
    walls = sorted(walls.items(), key=lambda item: item[1])
    pieces = {}
    for F in S.faces:
        if not F <= G:
            continue
        a0 = min(F)
        c0 = f.terms[a0][1]

        def tie(b):
            return (tuple(x - y for x, y in zip(w[b], w[a0])), c0 - f.terms[b][1])

        verts = [v for cell, v in vertex_of if F <= cell]
        rays = [r for on, r in walls if F <= on]
        facets = [tie(min(C - F)) for C in S.covered_by[F] if C <= G]
        eqs = [tie(b) for b in sorted(F) if b != a0]
        pieces[F] = QPolyhedron._trusted(k, tuple(verts), tuple(rays), lin,
                                         tuple(sorted(facets)), _canonical_equations(eqs, k))
    return pieces


def dual_face_points(f: TropicalPolynomial, Y: ToricVariety):
    """G_eta for every cone eta: the support points on the Newton polytope
    face dual to eta, i.e. those maximising every ray of eta at once."""
    pts = [e for e, c in f.terms]
    tops = []
    for r in Y.fan.rays:
        vals = [_dot(a, r) for a in pts]
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
    cells are the pairs (eta, F) with F inside G_eta, and every one of them,
    the open-stratum cells included, is read off the subdivision that S
    induces on G_eta (`stratum_pieces`).  The incidences come from the
    subdivision and the fan as well:
    - in a stratum, (eta, F') is a facet of (eta, F) for each face F' of S
      covering F inside G_eta; each is certified by containment, and a failed
      certificate raises a BuildError naming both faces and eta;
    - across strata, (eta, F) is a facet of (rho, F) one cone step up.
    The closure of (eta, F) meets the strata of the cones theta >= eta with
    F inside G_theta, so `closure_is_compact` gets those as the cones the
    cell reaches, and reruns no geometry to find them.
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
    cells = {}
    for eta in range(len(Y.cones)):
        for face, piece in stratum_pieces(f, S, newton, ties, Y, eta, G[eta]).items():
            fd = S.faces[face]
            if eta == Y.apex and piece.affine_dim != Y.dim - fd:
                raise BuildError("dual cell of %r has dimension %d, expected %d"
                                 % (sorted(face), piece.affine_dim, Y.dim - fd))
            reached = [theta for theta in Y.cofaces(eta) if face <= G[theta]]
            cells[(eta, face)] = Cell(eta, piece.affine_dim, piece, piece.tangent_lattice(),
                                      Y.closure_is_compact(piece, eta, reached), face, fd >= 1)

    incidence = set()
    for (eta, face), sig in cells.items():
        for cover in S.covered_by[face]:
            tau = cells.get((eta, cover))
            if tau is None:
                continue
            if not sig.geom.contains_polyhedron(tau.geom):
                raise BuildError(
                    "the piece of face %r does not lie in the piece of face %r "
                    "in the stratum of fan cone %r"
                    % (sorted(cover), sorted(face), sorted(Y.cones[eta])))
            incidence.add(((eta, cover), (eta, face)))
        for rho in Y.cofaces(eta):
            if Y.cone_dim(rho) == Y.cone_dim(eta) + 1 and (rho, face) in cells:
                incidence.add(((rho, face), (eta, face)))

    Yref = CellComplex(Y, cells.values(), incidence)
    # a facet of a cell of X is in X: its face contains the cell's face
    X = CellComplex(Y, [replace(c) for c in Yref.cells if c.in_x],
                    {(t, s) for t, s in incidence if cells[s].in_x})
    embed = {c.index: Yref.by_key[(c.sed, c.face)] for c in X.cells}
    return HypersurfacePair(f, Y, S, newton, X, Yref, embed, G)


# ---------------------------------------------------------------------------
# predicates

def is_proper(pair: HypersurfacePair) -> bool:
    """Every cell meets every deeper stratum in the expected dimension: each
    piece (eta, F) has dimension dim Y - dim eta - dim F.

    `build_pair` guarantees this, so it holds on every pair the build
    returns.  The piece is cut out of the eta-stratum, of dimension
    dim Y - dim eta, by the ties w_a = w_a0 for a in F, where
    w_a = a^T section_eta.  The points of F lie in G_eta, so a difference d
    of two of them vanishes on the rays of eta; then d = projection_eta^T w
    for w = d^T section_eta, so d -> w is injective and the ties have rank
    dim F.  It is kept: the benchmark's workloads call it, and
    `bench/spans.py` times it as a layer."""
    Y, S = pair.Y, pair.subdivision
    return all(c.dim == Y.dim - Y.cone_dim(c.sed) - S.faces[c.face]
               for c in pair.Yref.cells)


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
    pieces = {eta: host.by_key[(eta, c.face)] for eta in range(len(pair.Y.cones))
              if (eta, c.face) in host.by_key}
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
        # every pair the build returns is proper (see `is_proper`)
        result = "yes"
    else:
        # non-compact with boundary: a cell whose stratum geometry has a
        # lineality direction pinches at the point at infinity
        if any(c.geom.lin for c in pair.Yref.cells):
            result = "no"
        else:
            result = "unknown"
    return result
