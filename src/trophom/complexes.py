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
one cone step across strata.  `build_pair` makes the cells and every
incidence in one pass over the strata; a stratum's pieces live only in that
pass, where they certify its incidences and compactness.  A cell is an
integer record: its key (eta, F), its dimension, the HNF basis B_sigma of
its integral tangent lattice, and its compactness flag.  It carries neither
geometry nor position: each complex orders its cells and its incidences and
keeps their positions, so X holds the very `Cell` objects of Yref.  Also
home to the predicate battery (properness, non-singularity, combinatorial
ampleness, cellular pair), which read the subdivision, the fan and the
cells: ampleness asks of each region's vertex whether the rays maximised
there span a cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .exactla import (
    IntMatrix,
    dot,
    kernel_lattice,
    lattice_basis,
    primitive_vector,
    rational,
    scaled,
)
from .polyhedra import (
    QPolyhedron,
    canonical_systems,
    hrep_from_generators,
    is_primitive,
    regular_subdivision,
)
from .toric import ToricVariety
from .tropio import FanSpec, TropicalPolynomial

DEFAULT_MAX_DIM = 4


class BuildError(ValueError):
    pass


@dataclass
class Cell:
    """The piece (eta, F) as integer data: `tangent` is B_sigma, the HNF
    basis of its tangent lattice in eta-stratum coordinates.  The piece's
    polyhedron is not kept; `build_pair` reads it while it builds the
    stratum."""

    sed: int                    # cone id eta of the stratum holding the interior
    dim: int
    tangent: IntMatrix
    compact: bool
    face: frozenset             # the subdivision face F this cell is dual to
    in_x: bool


class CellComplex:
    """A finite polyhedral complex in a tropical toric variety, whose cells
    are the pieces (eta, F), each known by its key (sed, face), and ordered
    by dimension first.  Positions belong to the complex, not to the cells:
    a cell's position is `by_key[(sed, face)]`, or its place in `cells`, so
    one `Cell` object can sit in several complexes, as each cell of X sits
    in Yref.  `incidence` is the tuple of pairs (tau, sigma) of positions,
    tau a facet of sigma, sorted by (sigma, tau): its order depends on the
    cells and incidences alone, not on the order they were given in, and
    per-incidence values (`Cosheaf.maps`) are tuples aligned with it."""

    def __init__(self, Y: ToricVariety, cells, incidence):
        """`incidence` holds, once each, the keys (tau, sigma) of every cell
        tau that is a facet of a cell sigma, in any order."""
        self._fill(Y, sorted(cells, key=lambda c: (c.dim, c.sed, sorted(c.face))))
        by_key = self.by_key
        self.incidence = tuple(sorted(((by_key[t], by_key[s]) for t, s in incidence),
                                      key=itemgetter(1, 0)))

    def _fill(self, Y, cells):
        """Set the cells, already in order, and what is read off them; the
        caller sets `incidence`."""
        self.Y = Y
        self.cells = cells
        self.by_key = {(c.sed, c.face): i for i, c in enumerate(cells)}
        self.dim = max((c.dim for c in cells), default=-1)
        # the cosheaf plans of this complex, one per star rule
        # (`cosheaf._plan`), built on first use
        self.cosheaf_plans = {}

    def subcomplex(self, positions):
        """The subcomplex on the cells at these positions, which must
        increase strictly and hold every facet of each of their cells.  Its
        cells and incidences are this complex's, read off in order and
        renumbered through the increasing `positions`, so they come in the
        order `CellComplex` would sort them into, with no second sort."""
        back = {j: i for i, j in enumerate(positions)}
        Z = object.__new__(CellComplex)
        Z._fill(self.Y, [self.cells[j] for j in positions])
        Z.incidence = tuple((back[t], back[s]) for t, s in self.incidence if s in back)
        return Z

    def f_vector(self):
        out = [0] * (self.dim + 1)
        for c in self.cells:
            out[c.dim] += 1
        return out


@dataclass
class HypersurfacePair:
    """The hypersurface X with the ambient structure Y refined by it.

    X is a subcomplex of Yref made of Yref's own `Cell` objects.  `embed`
    is the inclusion on cells: the tuple of the Yref positions of X's cells,
    so X.cells[i] is Yref.cells[embed[i]], and it is strictly increasing,
    since both complexes order cells alike."""

    f: TropicalPolynomial
    Y: ToricVariety
    subdivision: object
    X: CellComplex
    Yref: CellComplex
    embed: tuple                 # X position -> Yref position
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
    ones a second double description would pick; the point set is the same.

    A test reference: `build_pair` reads the open-stratum cells off the
    subdivision by `stratum_pieces`, and the tests compare them with this.
    """
    verts = sorted(v for M, v in ties.items() if face <= M)
    pts = [f.terms[i][0] for i in face]
    rays = sorted(a for a, b in newton.facets
                  if all(dot(a, p) == b for p in pts))
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


def stratum_pieces(f: TropicalPolynomial, S, newton_facets, Y: ToricVariety, eta, G,
                   heights) -> dict:
    """The piece (eta, F) of every face F of S inside G = G_eta, in
    eta-stratum coordinates, read off the subdivision that S induces on G.
    `heights` is (h, D): the coefficients c_i of f as integer numerators
    h_i over one positive denominator D (`exactla.scaled`), which
    `build_pair` computes once for all the strata.

    A term a pairs with a stratum vector y as w_a(y) = a^T section_eta y.
    The rays of eta vanish on the differences of G, so the piece is the dual
    cell of F for the terms on G: the y where the terms of F tie and attain
    the maximum over G.  At the apex G holds every term and the piece is the
    dual cell of F itself.  Points and rays come from the open stratum by
    `Y.projection(apex, eta)`:
    - vertices: the projected tie point v_M (`S.ties`), one M for each
      maximal cell M' = M & G of the induced subdivision that contains F,
      with v_M scaled once to integer numerators over one denominator, so
      the projection is integer dot products, each divided by `rational`;
    - rays: the projected normals of the Newton facets through F that cut
      a facet of conv(G), one per facet of conv(G), read from
      `newton_facets`, the sorted (normal, offset) facets of the Newton
      polytope;
    - lineality: the saturated kernel of the w_a - w_a0, a in G (the whole
      stratum when G is one point);
    - equations: the terms of F tie;
    - facets: one per face F' of S covering F inside G, where one more term
      b in F' - F ties.
    Vertex coordinates and offsets follow the number rule of `exactla`,
    ints when integral and Fractions otherwise, so integer heights with
    integral tie points make no Fraction.
    The per-stratum data is computed once for all the pieces, and its
    vertices and rays are sorted once.  The maximal faces above each F are
    found by walking the covers of the subdivision down from the top faces
    inside G, not by scanning every maximal face for each F, and the walls
    through F as the AND over its terms of the walls through each term, not
    by scanning every wall.  Every piece takes its vertex and ray objects
    from these shared lists, so a piece and the pieces of the faces
    covering F share them, which `QPolyhedron.contains_polyhedron` reads
    with no arithmetic.  The tie of a term pair (a0, b), its normal
    w_b - w_a0 and offset c_a0 - c_b = (h_a0 - h_b) / D, is computed once
    for the facets and equations that name it.  The pieces whose ordered
    tuples of equation normals agree form one system, and
    `polyhedra.canonical_systems` makes all their equations canonical with
    one elimination of those normals.  Every piece is then built by
    `QPolyhedron._trusted`: its vertices and rays are sorted subsequences,
    its lineality is the stratum's, already the HNF basis of a saturated
    lattice, its facets are sorted and its equations canonical.
    """
    k = Y.stratum_dim(eta)
    proj = Y.projection(Y.apex, eta)
    section = Y.strata[eta].section.columns()
    w = {i: tuple(dot(f.terms[i][0], col) for col in section) for i in G}

    def diffs(pts, a0):
        return [tuple(x - y for x, y in zip(w[i], w[a0])) for i in sorted(pts) if i != a0]

    lin = tuple(kernel_lattice(IntMatrix._trusted(tuple(diffs(G, min(G))), k)).columns())
    dim_g = k - len(lin)        # affine rank of G: w is injective on its differences
    vertex_of = {}
    for M in S.maximal_cells:
        cell = M & G
        if cell not in vertex_of and S.faces.get(cell) == dim_g:
            num, D = scaled(S.ties[M])
            vertex_of[cell] = tuple(rational(dot(r, num), D) for r in proj.rows)
    walls = {}
    for a, b in newton_facets:
        on = frozenset(i for i in G if dot(a, f.terms[i][0]) == b)
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
    h, D = heights
    offsets = {}    # (a0, b) -> (w_b - w_a0, c_a0 - c_b), once per term pair

    def tie(a0, b):
        t = offsets.get((a0, b))
        if t is None:
            t = offsets[(a0, b)] = (tuple(x - y for x, y in zip(w[b], w[a0])),
                                    rational(h[a0] - h[b], D))
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
                             canonical_systems(normals, [b for F, b in group], k)))
    return {F: QPolyhedron._trusted(k, verts, rays, lin, facets, equations[F])
            for F, (verts, rays, facets) in parts.items()}


def dual_face_points(f: TropicalPolynomial, Y: ToricVariety):
    """G_eta for every cone eta: the support points on the Newton polytope
    face dual to eta, i.e. those maximising every ray of eta at once."""
    pts = [e for e, c in f.terms]
    tops = []
    for r in Y.fan.rays:
        vals = [dot(a, r) for a in pts]
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
    induces on G_eta (`stratum_pieces`).  One pass over the strata makes the
    cells and their incidences, which come from the subdivision and the fan
    as well:
    - in a stratum, (eta, F') is a facet of (eta, F) for each face F' of S
      covering F inside G_eta, i.e. each F' with a piece in the same
      stratum; each is certified by containment as the pieces are made, and
      a failed certificate raises a BuildError naming both faces and eta.
      The certificate's arithmetic runs once per piece (eta, F), on its own
      vertices and rays; each incidence then checks that the vertices and
      rays of (eta, F') are objects of (eta, F) (see `contains_polyhedron`);
    - across strata, (eta, F) is a facet of (theta, F) for each cone theta
      one ray below eta.  It is recorded from the deeper cell with no
      lookup: F lies in G_eta, which lies in G_theta, so (theta, F) is a
      cell.
    The closure of (eta, F) meets the strata of the cones theta >= eta with
    F inside G_theta, so `closure_is_compact` gets those as the cones the
    cell reaches, and reruns no geometry to find them.  The pieces of a
    stratum live only while it is built: a cell keeps its key, dimension,
    tangent basis and compactness flag, not its polyhedron.

    The coefficients of f are scaled once to integer numerators over one
    denominator, and every stratum's pieces read their offsets from those
    (`stratum_pieces`), with no Fraction arithmetic.

    A tangent lattice is the kernel (`kernel_lattice`) of its piece's
    equation normals, which are canonical, so one lattice is computed per
    equation system: the cells with the same stratum dimension and equation
    normals share one basis matrix.  Likewise one compactness flag is
    computed per (eta, piece rays, reached cones), and the cells with that
    key share it.  The flag is exact per class: `closure_is_compact` reads the piece
    only through its recession cone, cone(rays) + lineality, and every
    piece of the eta-stratum has the stratum's lineality.

    X is the subcomplex of the cells (eta, F) with dim F >= 1, on Yref's
    own `Cell` objects (see `HypersurfacePair`).  Yref sorts its cells and
    incidences (see `CellComplex`), so their order does not depend on the
    order of this pass, and X reads its own off Yref's in that order
    (`CellComplex.subcomplex`).
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
    newton_facets = sorted(hrep_from_generators([e for e, c in f.terms], [], [], Y.dim)[0])
    heights = scaled([c for e, c in f.terms])
    cells = []
    incidence = []
    tangents = {}   # (stratum dim, equation normals) -> tangent lattice
    compact = {}    # (stratum, recession rays, reached cones) -> compactness
    for eta, cone in enumerate(Y.cones):
        # the cones one ray below eta: (eta, F) is a facet of (theta, F) in
        # each, a cell since G_eta lies in G_theta
        below = [Y.cone_index[cone - {r}] for r in cone]
        pieces = stratum_pieces(f, S, newton_facets, Y, eta, G[eta], heights)
        for face, piece in pieces.items():
            fd = S.faces[face]
            if eta == Y.apex and piece.affine_dim != Y.dim - fd:
                raise BuildError("dual cell of %r has dimension %d, expected %d"
                                 % (sorted(face), piece.affine_dim, Y.dim - fd))
            system = (piece.dim, tuple(a for a, b in piece.equations))
            if system not in tangents:
                tangents[system] = kernel_lattice(IntMatrix._trusted(system[1], piece.dim))
            reached = tuple(theta for theta in Y.cofaces(eta) if face <= G[theta])
            recession = (eta, piece.rays, reached)
            if recession not in compact:
                compact[recession] = Y.closure_is_compact(piece, eta, reached)
            cells.append(Cell(eta, piece.affine_dim, tangents[system],
                              compact[recession], face, fd >= 1))
            for cover in S.covered_by[face]:
                tau = pieces.get(cover)
                if tau is None:
                    continue
                if not piece.contains_polyhedron(tau):
                    raise BuildError(
                        "the piece of face %r does not lie in the piece of face %r "
                        "in the stratum of fan cone %r"
                        % (sorted(cover), sorted(face), sorted(cone)))
                incidence.append(((eta, cover), (eta, face)))
            incidence.extend(((eta, face), (theta, face)) for theta in below)

    Yref = CellComplex(Y, cells, incidence)
    # sigma = (eta, F) is in X when dim F >= 1, and so is every facet of
    # sigma, whose face contains F
    embed = tuple(j for j, c in enumerate(Yref.cells) if c.in_x)
    X = Yref.subcomplex(embed)
    return HypersurfacePair(f, Y, S, X, Yref, embed, G)


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
    for i, c in enumerate(pair.Yref.cells):
        if c.sed == Y.apex and c.dim == Y.dim:
            a, = c.face
            R = frozenset().union(*(Y.cones[eta] for eta in rays if a in G[eta]))
            if R not in Y.cone_index:
                failing.append(i)
    return not failing, failing


def is_cellular_pair(pair: HypersurfacePair) -> str:
    """Tri-state 'yes' / 'no' / 'unknown', by certified sufficient conditions.

    Read off the cells alone.  The pieces of the eta-stratum, of dimension
    k = dim Y - dim eta, share one lineality, of rank k - dim G_eta (see
    `stratum_pieces`).  That is also the least cell dimension in the
    stratum, k - dim F for a face F of top dimension dim G_eta, so the
    pieces have lineality exactly when the stratum holds no 0-cell.  Every
    cone has a stratum with cells, since G_eta is never empty.
    - complete fan: 'yes', since every pair the build returns is proper
      (see `is_proper`);
    - otherwise 'no' if a stratum has lineality: on the trivial fan the
      Newton polytope is not full-dimensional, and on any other fan the
      cells of that stratum pinch at the point at infinity;
    - otherwise 'yes' on the trivial fan and 'unknown' on any other."""
    Y = pair.Y
    if Y.compact:
        return "yes"
    if len({c.sed for c in pair.Yref.cells if c.dim == 0}) < len(Y.cones):
        return "no"
    return "yes" if Y.fan.is_trivial() else "unknown"
