"""Tropical toric varieties: strata, quotient lattices, and compactification.

A fan cone rho of dimension s corresponds to a boundary stratum isomorphic to
R^{dim-s}, realized as the quotient of Z^dim by the sublattice spanned by the
cone's rays.  Each stratum carries a fixed integral section basis obtained by
completing the ray matrix to a basis of Z^dim (`exactla.basis_completion`),
so quotient projections and everything downstream are plain integer matrices.

The cells built over these strata are pairs (eta, F) of a cone and a
subdivision face, and every piece, in each stratum, is read off the
subdivision of G_eta (see `complexes.build_pair`).  `reached_cones` and
`compactify` answer the same question geometrically, by double description on
recession cones, and `compactify` makes each piece by
`QPolyhedron.linear_image`; they are test references, which the tests compare
the cells against, and the pipeline does not call them.  The pipeline calls
`closure_is_compact` for each cell's compactness flag, handing it the cones
the cell's closure reaches, which `build_pair` reads off the subdivision: the
theta >= eta with F inside G_theta.  Only a cell that is unbounded and
reaches a boundary stratum on a fan that is not complete leaves a covering
question, and only that one is decided geometrically.
"""

from __future__ import annotations

from .exactla import IntMatrix, basis_completion, hnf_row, primitive_vector
from .polyhedra import QPolyhedron, cone_covered_by, cone_meets_relint
from .tropio import FanSpec


class Stratum:
    """One toric stratum: quotient lattice plus its chosen section basis."""

    __slots__ = ("projection", "section")

    def __init__(self, ray_indices, fan_dim, rays):
        s = len(ray_indices)
        # the cone is unimodular simplicial, as FanSpec checks, so U exists
        U = basis_completion([rays[i] for i in sorted(ray_indices)], fan_dim)
        # U is unimodular, so its row Hermite form is I and its transform is U^-1
        Uinv = hnf_row(U)[1]
        self.projection = U.submatrix(range(s, fan_dim), range(fan_dim))
        self.section = Uinv.submatrix(range(fan_dim), range(s, fan_dim))


class ToricVariety:
    """Stratified tropical toric variety built from a fan, which the
    `FanSpec` constructor has validated."""

    def __init__(self, fan: FanSpec):
        self.fan = fan
        self.dim = fan.dim
        self.cones = fan.cones()             # list of frozensets, stable order
        self.cone_index = {c: i for i, c in enumerate(self.cones)}
        self.strata = [Stratum(c, fan.dim, fan.rays) for c in self.cones]
        self._cofaces = [tuple(d for d, cd in enumerate(self.cones) if c <= cd)
                         for c in self.cones]
        self._proj_cache = {}
        self._star_cache = {}
        self.compact = fan.is_complete()

    @property
    def apex(self):
        return self.cone_index[frozenset()]

    def cone_dim(self, cid):
        """Dimension of the cone: the sedentarity, the codimension of its
        stratum."""
        return len(self.cones[cid])

    def stratum_dim(self, cid):
        return self.dim - self.cone_dim(cid)

    def cofaces(self, cid):
        """The cones eta >= rho, rho itself included, in cone order."""
        return self._cofaces[cid]

    def projection(self, cid, did) -> IntMatrix:
        """Matrix of the quotient projection between strata, rho <= eta."""
        if not self.cones[cid] <= self.cones[did]:
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
            self._star_cache[key] = QPolyhedron.cone(rays, self.stratum_dim(cid))
        return self._star_cache[key]

    def reached_cones(self, P: QPolyhedron, cid):
        """Cones eta >= rho whose stratum the closure of P (living in the
        rho-stratum) meets: the recession cone must hit relint of eta's image.

        A test reference for the pieces of `complexes.build_pair`."""
        rec = P.recession()
        return [did for did in self.cofaces(cid)
                if did == cid or cone_meets_relint(rec, self.star_cone_geometry(cid, did))]

    def compactify(self, P: QPolyhedron):
        """Closure pieces of P, a polyhedron in the open stratum: maps cone
        id -> piece of the closure in that stratum (the image of P under the
        quotient projection).

        A test reference for the pieces of `complexes.build_pair`."""
        apex = self.apex
        return {did: P if did == apex else P.linear_image(self.projection(apex, did))
                for did in self.reached_cones(P, apex)}

    def closure_is_compact(self, P: QPolyhedron, cid, reached):
        """Is the closure of P (in the rho-stratum) compact in Y?  `reached`
        holds the cones eta >= rho whose strata the closure meets (rho among
        them), as `reached_cones` finds them.

        The closure is compact when every recession direction of P lies in
        the star of rho.  A direction of the recession cone lies in the
        relative interior of exactly one star cone, and the closure reaches
        that cone, so the reached cones suffice: Y complete or P bounded
        gives True, an unbounded P that reaches no cone besides rho gives
        False with no geometry, and otherwise `cone_covered_by` decides
        whether the recession cone lies in the star cones of the maximal
        reached cones.  So the answer depends on P only through its
        recession cone, cone(P.rays) + P.lin, and `complexes.build_pair`
        asks once per (rho, rays, reached cones), since the pieces of one
        stratum share their lineality.  Only the tests read the flag it
        sets on each cell."""
        if self.compact or P.is_bounded():
            return True
        if all(d == cid for d in reached):
            return False
        maximal = [d for d in reached
                   if not any(self.cones[d] < self.cones[e] for e in reached)]
        return cone_covered_by(P.recession(),
                               [self.star_cone_geometry(cid, d) for d in maximal])
