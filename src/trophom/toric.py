"""Tropical toric varieties: strata, quotient lattices, and compactification.

A fan cone rho of dimension s corresponds to a boundary stratum isomorphic to
R^{dim-s}, realized as the quotient of Z^dim by the sublattice spanned by the
cone's rays.  Each stratum carries a fixed integral section basis obtained by
completing the ray matrix to a basis of Z^dim (`exactla.basis_completion`),
so quotient projections and everything downstream are plain integer matrices.

The cells built over these strata are pairs (eta, F) of a cone and a
subdivision face, read off a face table, and every piece off the open
stratum is read off the subdivision of G_eta (see `complexes.build_pair`).
`reached_cones` and `compactify` answer the same question geometrically, by
double description on recession cones, and `compactify` makes each piece by
`QPolyhedron.linear_image`; they are kept only as the LP reference that
`CellComplex.validate` and the tests compare the face table and the pieces
against, and the pipeline does not call them.
"""

from __future__ import annotations

from .exactla import IntMatrix, basis_completion, primitive_vector, solve_int
from .polyhedra import QPolyhedron, cone_covered_by, cone_hull, cone_meets_relint
from .tropio import FanSpec


class Stratum:
    """One toric stratum: quotient lattice plus its chosen section basis."""

    __slots__ = ("cone_id", "ray_indices", "dim", "projection", "section")

    def __init__(self, cone_id, ray_indices, fan_dim, rays):
        self.cone_id = cone_id
        self.ray_indices = tuple(sorted(ray_indices))
        s = len(self.ray_indices)
        self.dim = fan_dim - s
        U = basis_completion([rays[i] for i in self.ray_indices], fan_dim)
        if U is None:
            raise ValueError("cone rays %r do not extend to a lattice basis"
                             % ([rays[i] for i in self.ray_indices],))
        Uinv = solve_int(U, IntMatrix.identity(fan_dim))
        self.projection = U.submatrix(range(s, fan_dim), range(fan_dim))
        self.section = Uinv.submatrix(range(fan_dim), range(s, fan_dim))


class ToricVariety:
    """Stratified tropical toric variety built from a fan, which
    `FanSpec.make` has validated."""

    def __init__(self, fan: FanSpec):
        self.fan = fan
        self.dim = fan.dim
        self.cones = fan.cones()             # list of frozensets, stable order
        self.cone_index = {c: i for i, c in enumerate(self.cones)}
        self.strata = [Stratum(i, c, fan.dim, fan.rays) for i, c in enumerate(self.cones)]
        self._proj_cache = {}
        self._star_cache = {}
        self.compact = fan.is_complete()

    @property
    def apex(self):
        return self.cone_index[frozenset()]

    def cone_dim(self, cid):
        return len(self.cones[cid])

    def sedentarity(self, cid):
        """Codimension of the stratum = dimension of its cone."""
        return self.cone_dim(cid)

    def stratum_dim(self, cid):
        return self.dim - self.cone_dim(cid)

    def is_face(self, cid, did):
        return self.cones[cid] <= self.cones[did]

    def cofaces(self, cid):
        return [d for d in range(len(self.cones)) if self.cones[cid] <= self.cones[d]]

    def projection(self, cid, did) -> IntMatrix:
        """Matrix of the quotient projection between strata, rho <= eta."""
        if not self.is_face(cid, did):
            raise ValueError("projection needs a face pair of cones")
        key = (cid, did)
        if key not in self._proj_cache:
            self._proj_cache[key] = self.strata[did].projection * self.strata[cid].section
        return self._proj_cache[key]

    def star_cone_geometry(self, cid, did) -> QPolyhedron:
        """The cone of eta seen inside the stratum of rho (rho <= eta)."""
        key = (cid, did)
        if key not in self._star_cache:
            extra = sorted(self.cones[did] - self.cones[cid])
            P = self.strata[cid].projection
            rays = [primitive_vector(P.apply(self.fan.rays[i])) for i in extra]
            self._star_cache[key] = cone_hull(rays, self.stratum_dim(cid))
        return self._star_cache[key]

    def star_ray_image(self, cid, did):
        """Primitive image in the rho-stratum of the single extra ray of eta."""
        extra = sorted(self.cones[did] - self.cones[cid])
        if len(extra) != 1:
            raise ValueError("expected a codimension-one cone step")
        return primitive_vector(self.strata[cid].projection.apply(self.fan.rays[extra[0]]))

    def reached_cones(self, P: QPolyhedron, cid):
        """Cones eta >= rho whose stratum the closure of P (living in the
        rho-stratum) meets: the recession cone must hit relint of eta's image.

        LP reference for the face table of `complexes.build_pair`."""
        rec = P.recession()
        out = []
        for did in self.cofaces(cid):
            if did == cid:
                out.append(did)
                continue
            if cone_meets_relint(rec, self.star_cone_geometry(cid, did)):
                out.append(did)
        return out

    def compactify(self, P: QPolyhedron, cid=None):
        """Closure pieces of P: maps cone id -> piece of the closure in that
        stratum (the image of P under the quotient projection).

        LP reference for the face table of `complexes.build_pair`."""
        if cid is None:
            cid = self.apex
        pieces = {}
        for did in self.reached_cones(P, cid):
            if did == cid:
                pieces[did] = P
            else:
                pieces[did] = P.linear_image(self.projection(cid, did))
        return pieces

    def closure_is_compact(self, P: QPolyhedron, cid):
        """Is the closure of P (in the rho-stratum) compact in Y?"""
        if self.compact:
            return True
        if P.is_bounded():
            return True
        rec = P.recession()
        maxcones = [d for d in self.cofaces(cid)
                    if not any(self.cones[d] < self.cones[e] for e in self.cofaces(cid))]
        return cone_covered_by(rec, [self.star_cone_geometry(cid, d)
                                     for d in maxcones if d != cid])
