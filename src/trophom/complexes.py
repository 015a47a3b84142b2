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
together with their sedentarity cone, the HNF basis B_sigma of their
integral tangent lattice, and compactness flag.  Also home to the predicate
battery (properness, non-singularity, combinatorial ampleness, cellular
pair), which read the subdivision and the fan: ampleness asks of each
region's vertex whether the rays maximised there span a cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactla import (
    IntMatrix,
    kernel_lattice,
    lattice_basis,
    primitive_vector,
)
from .polyhedra import (
    QPolyhedron,
    _canonical_systems,
    _dot,
    _scaled,
    hrep_from_generators,
    is_primitive,
    regular_subdivision,
)
from .toric import ToricVariety
from .tropio import FanSpec, TropicalPolynomial, newton_polytope

DEFAULT_MAX_DIM = 4


class BuildError(ValueError):
    pass


@dataclass
class Cell:
    """The piece (eta, F); `tangent` is B_sigma, its tangent lattice's basis."""

    sed: int                    # cone id eta of the stratum holding the interior
    dim: int
    geom: QPolyhedron           # stratum-local coordinates
    tangent: IntMatrix
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
    newton: QPolyhedron
    X: CellComplex
    Yref: CellComplex
    embed: dict                  # X cell index -> Yref cell index
    face_points: list            # cone id eta -> G_eta


def dual_cell_geometry(f: TropicalPolynomial, face, ties, newton) -> QPolyhedron:
    """The closed dual cell of a subdivision face F: the locus where the terms
    of F tie and attain the maximum.

    It is conv{v_M : M maximal, M contains F} + N(F), read off the
    subdivision: `ties` maps each maximal cell M to v_M (the subdivision's
    `ties`, read off its lifted hull), and N(F), the normal cone of the
    Newton polytope `newton` at F, is spanned by the outer normals of its
    facets through every point of F plus the normals of its equations.

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
    pts = [f.terms[i][0] for i in face]
    rays = sorted(a for a, b in newton.facets
                  if all(_dot(a, p) == b for p in pts))
    lins = [a for a, b in newton.equations]
    facets, eqs = hrep_from_generators(verts, rays, lins, newton.dim)
    return QPolyhedron._from_fields(newton.dim, verts, rays, lins, facets, eqs)


def _picked(mask, items):
    """The values of the (key, value) items whose bits are set in mask, in
    order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(items[low.bit_length() - 1][1])
        mask ^= low
    return tuple(out)


def stratum_pieces(f: TropicalPolynomial, S, newton, Y: ToricVariety, eta, G) -> dict:
    """The piece (eta, F) of every face F of S inside G = G_eta, in
    eta-stratum coordinates, read off the subdivision that S induces on G.

    A term a pairs with a stratum vector y as w_a(y) = a^T section_eta y.
    The rays of eta vanish on the differences of G, so the piece is the dual
    cell of F for the terms on G: the y where the terms of F tie and attain
    the maximum over G.  At the apex G holds every term and the piece is the
    dual cell of F itself.  Points and rays come from the open stratum by
    `Y.projection(apex, eta)`:
    - vertices: the projected tie point v_M (`S.ties`), one M for each
      maximal cell M' = M & G of the induced subdivision that contains F,
      with v_M scaled once to integer numerators over one denominator, so
      the projection is integer dot products;
    - rays: the projected normals of the Newton facets through F that cut
      a facet of conv(G), one per facet of conv(G);
    - lineality: the saturated kernel of the w_a - w_a0, a in G (the whole
      stratum when G is one point);
    - equations: the terms of F tie;
    - facets: one per face F' of S covering F inside G, where one more term
      b in F' - F ties.
    The per-stratum data is computed once for all the pieces, and its
    vertices and rays are sorted once.  The maximal faces above each F are
    found by walking the covers of the subdivision down from the top faces
    inside G, not by scanning every maximal face for each F, and the walls
    through F as the AND over its terms of the walls through each term, not
    by scanning every wall.  Every piece takes its vertex and ray objects
    from these shared lists, so a piece and the pieces of the faces
    covering F share them, which `QPolyhedron.contains_polyhedron` reads
    with no arithmetic.  The tie of a
    term pair (a0, b), its normal w_b - w_a0 and offset c_a0 - c_b, is
    computed once for the facets and equations that name it.  The pieces
    whose ordered tuples of equation normals agree form one system, and
    `_canonical_systems` makes all their equations canonical with one
    elimination of those normals.  Every piece is then built by
    `QPolyhedron._trusted`: its vertices and rays are sorted subsequences,
    its lineality is the stratum's, already the HNF basis of a saturated
    lattice, its facets are sorted and its equations canonical.
    """
    k = Y.stratum_dim(eta)
    proj = Y.projection(Y.apex, eta)
    section = Y.strata[eta].section.columns()
    w = {i: tuple(_dot(f.terms[i][0], col) for col in section) for i in G}

    def diffs(pts, a0):
        return [tuple(x - y for x, y in zip(w[i], w[a0])) for i in sorted(pts) if i != a0]

    lin = tuple(kernel_lattice(IntMatrix._trusted(tuple(diffs(G, min(G))), k)).columns())
    dim_g = k - len(lin)        # affine rank of G: w is injective on its differences
    vertex_of = {}
    for M in S.maximal_cells:
        cell = M & G
        if cell not in vertex_of and S.faces.get(cell) == dim_g:
            num, D = _scaled(S.ties[M])
            vertex_of[cell] = tuple(Fraction(_dot(r, num), D) for r in proj.rows)
    walls = {}
    for a, b in newton.facets:
        on = frozenset(i for i in G if _dot(a, f.terms[i][0]) == b)
        if on and on not in walls and \
                lattice_basis(diffs(on, min(on)), k).ncols == dim_g - 1:
            walls[on] = primitive_vector(proj.apply(a))
    vertex_of = sorted(vertex_of.items(), key=lambda item: item[1])
    walls = sorted(walls.items(), key=lambda item: item[1])
    # the walls through each term, as a bit mask over walls: a face lies on
    # the walls through all of its terms
    on_walls = dict.fromkeys(G, 0)
    for j, (on, r) in enumerate(walls):
        for i in on:
            on_walls[i] |= 1 << j
    inside = [F for F in S.faces if F <= G]
    # the maximal faces of the induced subdivision that contain each face,
    # as a bit mask over vertex_of: OR the masks of its covers inside G,
    # top faces first
    above = {cell: 1 << i for i, (cell, v) in enumerate(vertex_of)}
    for F in sorted(inside, key=S.faces.get, reverse=True):
        if F not in above:
            mask = 0
            for C in S.covered_by[F]:
                mask |= above.get(C, 0)
            above[F] = mask
    offsets = {}    # (a0, b) -> (w_b - w_a0, c_a0 - c_b), once per term pair

    def tie(a0, b):
        t = offsets.get((a0, b))
        if t is None:
            t = offsets[(a0, b)] = (tuple(x - y for x, y in zip(w[b], w[a0])),
                                    f.terms[a0][1] - f.terms[b][1])
        return t

    systems = {}    # equation normals -> [(F, right-hand sides)]
    parts = {}
    for F in inside:
        a0 = min(F)
        on = -1
        for i in F:
            on &= on_walls[i]
        facets = tuple(sorted(tie(a0, min(C - F)) for C in S.covered_by[F] if C <= G))
        eqs = [tie(a0, b) for b in sorted(F) if b != a0]
        systems.setdefault(tuple(a for a, b in eqs), []).append((F, tuple(b for a, b in eqs)))
        parts[F] = (_picked(above[F], vertex_of), _picked(on, walls), facets)
    equations = {}
    for normals, group in systems.items():
        equations.update(zip((F for F, b in group),
                             _canonical_systems(normals, [b for F, b in group], k)))
    return {F: QPolyhedron._trusted(k, verts, rays, lin, facets, equations[F])
            for F, (verts, rays, facets) in parts.items()}


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
      certificate raises a BuildError naming both faces and eta.  The
      certificate's arithmetic runs once per piece (eta, F), on its own
      vertices and rays; each incidence then checks that the vertices and
      rays of (eta, F') are objects of (eta, F) (see `contains_polyhedron`);
    - across strata, (eta, F) is a facet of (rho, F) one cone step up.
    The closure of (eta, F) meets the strata of the cones theta >= eta with
    F inside G_theta, so `closure_is_compact` gets those as the cones the
    cell reaches, and reruns no geometry to find them.

    A tangent lattice is the kernel of its piece's equation normals, which
    are canonical, so one lattice is computed per equation system: the
    cells with the same stratum dimension and equation normals share one
    basis matrix.  Likewise one compactness flag is computed
    per (eta, piece rays, reached cones), and the cells with that key share
    it.  The flag is exact per class: `closure_is_compact` reads the piece
    only through its recession cone, cone(rays) + lineality, and every
    piece of the eta-stratum has the stratum's lineality.
    """
    Y = ToricVariety(fan)
    if Y.dim > max_dim:
        raise BuildError("ambient dimension %d exceeds the cap %d "
                         "(raise max_dim to override)" % (Y.dim, max_dim))
    if f.n_vars > Y.dim:
        raise BuildError("polynomial has %d variables, more than the fan dimension %d"
                         % (f.n_vars, Y.dim))
    f = f.padded(Y.dim)
    if len(f.terms) < 2:
        raise BuildError("a tropical hypersurface needs at least two terms")
    G = dual_face_points(f, Y)
    S = regular_subdivision([e for e, c in f.terms], [c for e, c in f.terms])
    newton = newton_polytope(f)
    cells = {}
    tangents = {}   # (stratum dim, equation normals) -> tangent lattice
    compact = {}    # (stratum, recession rays, reached cones) -> compactness
    for eta in range(len(Y.cones)):
        for face, piece in stratum_pieces(f, S, newton, Y, eta, G[eta]).items():
            fd = S.faces[face]
            if eta == Y.apex and piece.affine_dim != Y.dim - fd:
                raise BuildError("dual cell of %r has dimension %d, expected %d"
                                 % (sorted(face), piece.affine_dim, Y.dim - fd))
            system = (piece.dim, tuple(a for a, b in piece.equations))
            if system not in tangents:
                tangents[system] = piece.tangent_lattice()
            reached = tuple(theta for theta in Y.cofaces(eta) if face <= G[theta])
            recession = (eta, piece.rays, reached)
            if recession not in compact:
                compact[recession] = Y.closure_is_compact(piece, eta, reached)
            cells[(eta, face)] = Cell(eta, piece.affine_dim, piece, tangents[system],
                                      compact[recession], face, fd >= 1)

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
        for rho in Y.cofacets(eta):
            if (rho, face) in cells:
                incidence.add(((rho, face), (eta, face)))

    Yref = CellComplex(Y, cells.values(), incidence)
    # a facet of a cell of X is in X: its face contains the cell's face
    X = CellComplex(Y, [Cell(c.sed, c.dim, c.geom, c.tangent, c.compact, c.face, c.in_x)
                        for c in Yref.cells if c.in_x],
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
    primitive triangulation.

    That is the subdivision being primitive: G_eta of the open stratum holds
    every support point, so its maximal faces are the maximal cells, and the
    induced subdivision on any other G_eta is made of faces of those cells.
    A face of a unimodular simplex is a unimodular simplex in the lattice of
    its own affine hull, so no other stratum can fail once the open one
    passes."""
    return is_primitive(pair.subdivision)


def is_combinatorially_ample(pair: HypersurfacePair):
    """True iff every top-dimensional region's gamma^o is a T/R product.

    Returns (flag, failing) where failing lists the offending region cells.
    The region (apex, {a}) has a piece in the eta-stratum exactly when a is
    in G_eta, when every ray of eta is maximised at a.  Its gamma^o is
    Boolean iff R_a, the rays of one-ray cones maximised at a, is a cone:
    then R_a is the unique maximal cone, and a unique maximal cone would
    have to hold every ray of R_a.  A ray in no cone is in no R_a.
    """
    Y, G = pair.Y, pair.face_points
    rays = [eta for eta, cone in enumerate(Y.cones) if len(cone) == 1]
    failing = []
    for c in pair.Yref.cells:
        if c.sed == Y.apex and c.dim == Y.dim:
            a, = c.face
            R = frozenset().union(*(Y.cones[eta] for eta in rays if a in G[eta]))
            if R not in Y.cone_index:
                failing.append(c.index)
    return not failing, failing


def is_cellular_pair(pair: HypersurfacePair) -> str:
    """Tri-state 'yes' / 'no' / 'unknown', by certified sufficient conditions."""
    Y = pair.Y
    if Y.fan.is_trivial():
        return "yes" if pair.newton.affine_dim == Y.dim else "no"
    if Y.compact:
        # every pair the build returns is proper (see `is_proper`)
        return "yes"
    # non-compact with boundary: a cell whose stratum geometry has a
    # lineality direction pinches at the point at infinity
    return "no" if any(c.geom.lin for c in pair.Yref.cells) else "unknown"
