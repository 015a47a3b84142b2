"""Cellular cosheaves of integral multi-tangent lattices.

A cosheaf here is a rank (with an optional basis matrix inside the stratum's
wedge space) per cell, plus one integer matrix per codimension-one incidence,
contravariant along inclusion: the matrix attached to (tau, sigma) maps the
stalk at sigma into the stalk at tau.  Instances built here: the multi-tangent
cosheaf of a complex and the ambient cosheaf of its toric variety.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .complexes import CellComplex, HypersurfacePair
from .exactla import IntMatrix, LatticeSubspace, exterior_power, solve_int


class CosheafError(ValueError):
    pass


@dataclass
class Cosheaf:
    """Stalk data per cell and one matrix per incidence of the base complex."""

    base: CellComplex
    p: int
    ranks: list
    bases: list          # IntMatrix columns in the stratum wedge space, or None
    maps: dict           # (tau index, sigma index) -> IntMatrix

    def check_functorial(self):
        """Path independence of composed incidence maps on codim-2 intervals."""
        Z = self.base
        for t, s in Z.incidence:
            for g in Z.facets_of[t]:
                paths = [tt for tt in Z.facets_of[s] if (g, tt) in Z.incidence]
                mats = [self.maps[(g, tt)] * self.maps[(tt, s)] for tt in paths]
                for m in mats[1:]:
                    if m != mats[0]:
                        return False
        return True


def _same_stratum_star(Z: CellComplex):
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


def multitangent(Z: CellComplex, p: int) -> Cosheaf:
    """The integral p-multi-tangent cosheaf of the complex.

    The stalk at a cell is the sum, over cells of the same stratum whose
    closure contains it, of the p-th exterior powers of their tangent
    lattices; the sum is taken verbatim, with no saturation.  Maps are
    inclusions within a stratum and wedge powers of the quotient projections
    across strata.
    """
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
    maps = {}
    for t, s in Z.incidence:
        tau, sig = Z.cells[t], Z.cells[s]
        image = bases[s]
        if tau.sed != sig.sed:
            image = exterior_power(Y.projection(sig.sed, tau.sed), p) * image
        A = solve_int(bases[t], image) if image.ncols else \
            IntMatrix.zeros(ranks[t], 0)
        if A is None:
            raise CosheafError(
                "incidence image does not land in the target stalk "
                "(cells %d -> %d, p=%d)" % (s, t, p))
        maps[(t, s)] = A
    return Cosheaf(Z, p, ranks, bases, maps)


def ambient_on_cells(Z: CellComplex, p: int) -> Cosheaf:
    """The ambient cosheaf: every cell carries the full wedge power of its
    stratum lattice; maps are wedge powers of the projections."""
    Y = Z.Y
    ranks, bases = [], []
    for c in Z.cells:
        amb = comb(Y.stratum_dim(c.sed), p)
        ranks.append(amb)
        bases.append(IntMatrix.identity(amb))
    maps = {}
    for t, s in Z.incidence:
        tau, sig = Z.cells[t], Z.cells[s]
        if tau.sed == sig.sed:
            maps[(t, s)] = bases[s]
        else:
            maps[(t, s)] = exterior_power(Y.projection(sig.sed, tau.sed), p)
    return Cosheaf(Z, p, ranks, bases, maps)


def stalk_rank_polynomial(family, cell_index):
    """Alternating-rank polynomial sum_p (-1)^p rank F_p(cell) * t^p as a
    coefficient list, from a list of cosheaves indexed by p."""
    return [(-1) ** p * F.ranks[cell_index] for p, F in enumerate(family)]


def expected_stalk_polynomial(q, m):
    """Coefficients of (1-t)^m - (1-t)^q (-t)^(m-q) for a q-cell in an
    m-dimensional stratum."""
    from math import comb as C
    out = [0] * (m + 1)
    for i in range(m + 1):
        out[i] += C(m, i) * (-1) ** i
    # (1-t)^q * (-t)^(m-q): coefficient of t^(m-q+j) is C(q, j)(-1)^j (-1)^(m-q)
    for j in range(q + 1):
        k = m - q + j
        if k <= m:
            out[k] -= C(q, j) * (-1) ** j * (-1) ** (m - q)
    return out


def hyperplane_vertex_rank(s, j):
    """rank of the j-th multi-tangent stalk at the vertex of the standard
    tropical hyperplane of dimension s."""
    if 0 <= j <= s:
        return comb(s + 1, j)
    return 0


def kunneth_stalk_rank(pair: HypersurfacePair, cell, p):
    """Predicted stalk rank via the product decomposition along the cell."""
    q = cell.dim
    m = pair.Y.stratum_dim(cell.sed)
    return sum(hyperplane_vertex_rank(m - q - 1, p - l) * comb(q, l)
               for l in range(p + 1))
