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

from .complexes import CellComplex
from .exactla import (
    IntMatrix,
    LatticeSubspace,
    back_substitute,
    exterior_power,
    hnf_pivots,
)


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
    across strata, each written in the target stalk's basis by
    back-substitution: that basis is in column Hermite form already.  An
    image that leaves the target stalk raises CosheafError naming the
    incidence and p.
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
    wedge_projection = {}
    for t, s in Z.incidence:
        tau, sig = Z.cells[t], Z.cells[s]
        if tau.sed == sig.sed:
            maps[(t, s)] = bases[s]
        else:
            key = (sig.sed, tau.sed)
            if key not in wedge_projection:
                wedge_projection[key] = exterior_power(Y.projection(*key), p)
            maps[(t, s)] = wedge_projection[key]
    return Cosheaf(Z, p, ranks, bases, maps)
