"""Cellular cosheaves of integral multi-tangent lattices.

A cosheaf here is a stalk per cell, a sublattice of the stratum's wedge
space kept as its canonical basis matrix (`exactla.lattice_basis`) with its
rank, plus one integer matrix per codimension-one incidence, contravariant
along inclusion: the matrix attached to (tau, sigma) maps the stalk at sigma
into the stalk at tau.  Instances built here: the multi-tangent cosheaf of a
complex and the ambient cosheaf of its toric variety, both by one builder,
`_cosheaf`, from the lattice bases whose wedges span each stalk.

The multi-tangent stalk F_p(sigma) is the sum of the p-th wedges of T(tau)
over the cells tau of sigma's stratum whose closure contains sigma (IKMZ,
"Tropical homology").  It is built from the maximal such tau alone: for
sigma <= tau in one stratum T(sigma) lies in T(tau), so each wedge lies in
the wedge of a maximal cell above it.  The ambient stalk takes the whole
stratum lattice instead.  F_0 is the constant cosheaf Z.

A unimodular triangulation has few lattice classes, so the work is done per
(stratum, star) class, not per cell: one stalk per star, and one map per
pair of classes, which every incidence joining that pair shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .complexes import CellComplex
from .exactla import (
    IntMatrix,
    back_substitute,
    exterior_power,
    hnf_pivots,
    lattice_basis,
)


class CosheafError(ValueError):
    pass


@dataclass
class Cosheaf:
    """Stalk data per cell and one matrix per incidence of the base complex."""

    base: CellComplex
    p: int
    ranks: list
    bases: list          # IntMatrix columns in the stratum wedge space
    maps: dict           # (tau index, sigma index) -> IntMatrix


def _star_tangents(Z: CellComplex):
    """For each cell, the set of tangent bases of the maximal cells of its
    same-stratum star: the cells of its stratum whose closure contains it
    and that are no facet of a cell of that stratum.  One top-down pass: a
    cell with no same-stratum cofacet has its own basis, and any other cell
    takes the union of its cofacets' sets."""
    sed = [c.sed for c in Z.cells]
    up = [[] for _ in Z.cells]
    for t, s in Z.incidence:
        if sed[t] == sed[s]:
            up[t].append(s)
    top = [None] * len(Z.cells)
    # cells are ordered by dimension, so every cofacet comes first
    for i in reversed(range(len(Z.cells))):
        above = up[i]
        if above:
            top[i] = frozenset().union(*(top[s] for s in above))
        else:
            top[i] = frozenset((Z.cells[i].tangent,))
    return top


def _cosheaf(Z: CellComplex, p: int, stars) -> Cosheaf:
    """The cosheaf whose stalk at cell i is the sum of the p-th wedges of
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
        return Cosheaf(Z, p, [1] * n, [one] * n, dict.fromkeys(Z.incidence, one))
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
    maps = {}
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
        maps[(t, s)] = A
    return Cosheaf(Z, p, ranks, bases, maps)


def multitangent(Z: CellComplex, p: int) -> Cosheaf:
    """The integral p-multi-tangent cosheaf of the complex.

    The stalk at a cell is the sum, over cells of the same stratum whose
    closure contains it, of the p-th exterior powers of their tangent
    lattices; the sum is taken verbatim, with no saturation.  Only the
    maximal cells of that star need summing: for sigma <= tau in one
    stratum, T(sigma) lies in T(tau), so the p-th wedge of T(sigma) lies in
    that of T(tau).  So the stalk depends only on the set of tangent
    lattices of those maximal cells (`_star_tangents`), the star that
    `_cosheaf` reads.  The tangent bases are canonical Hermite forms, so
    equal lattices give equal keys.  F_0, which reads no star, is the
    constant cosheaf.
    """
    return _cosheaf(Z, p, _star_tangents(Z) if p else None)


def ambient_on_cells(Z: CellComplex, p: int) -> Cosheaf:
    """The ambient cosheaf: every cell carries the full wedge power of its
    stratum lattice; maps are wedge powers of the projections.  Every
    cell's star is the identity basis of its stratum lattice, one per
    stratum dimension."""
    Y = Z.Y
    full = [frozenset((IntMatrix.identity(k),)) for k in range(Y.dim + 1)]
    return _cosheaf(Z, p, [full[Y.stratum_dim(c.sed)] for c in Z.cells])
