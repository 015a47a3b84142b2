"""Cellular cosheaves of integral multi-tangent lattices.

A cosheaf here is a stalk per cell, a sublattice of the stratum's wedge
space kept as its canonical basis matrix (`exactla.lattice_basis`) with its
rank, plus one integer matrix per codimension-one incidence, contravariant
along inclusion: the matrix attached to (tau, sigma) maps the stalk at sigma
into the stalk at tau.  Stalks follow the complex's cell order and maps its
incidence order (`CellComplex.incidence`), so a map is known by the
position of its incidence.  Instances built here: the multi-tangent cosheaf
of a complex and the ambient cosheaf of its toric variety.

The multi-tangent stalk F_p(sigma) is the sum of the p-th wedges of T(tau)
over the cells tau of sigma's stratum whose closure contains sigma (IKMZ,
"Tropical homology").  It is built from the maximal such tau alone: for
sigma <= tau in one stratum T(sigma) lies in T(tau), so each wedge lies in
the wedge of a maximal cell above it.  The ambient stalk takes the whole
stratum lattice instead.  F_0 is the constant cosheaf Z.

A stalk depends only on the cell's star, the lattice bases whose wedges
span it, and a map only on the two strata and the two stars.  A unimodular
triangulation has few of each, so the work is planned once per complex
and star rule (`_plan`, kept on the complex), for every p.  The plan holds
the distinct stars with their stratum dimension, each cell's star, the
incidence classes (sigma stratum, tau stratum, source star, target star)
and the class of each incidence, in the complex's incidence order.  Each p
then computes one stalk per star and one map per class, and hands every
incidence its class's map.
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
    """Stalk data per cell and one matrix per incidence of the base complex:
    `maps[i]` maps the stalk at sigma into the stalk at tau for the
    incidence (tau, sigma) = `base.incidence[i]`."""

    base: CellComplex
    p: int
    ranks: list
    bases: list          # IntMatrix columns in the stratum wedge space
    maps: tuple          # one IntMatrix per incidence, aligned with base.incidence


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


def _stratum_stars(Z: CellComplex):
    """For each cell, the dimension of its stratum: the ambient star, which
    names the whole stratum lattice."""
    Y = Z.Y
    return [Y.stratum_dim(c.sed) for c in Z.cells]


@dataclass
class _Plan:
    """The p-independent part of a cosheaf on one complex: its stars, read
    once by a star rule, and its incidences sorted into classes that share
    one map for every p.  `class_of` is aligned with the complex's
    `incidence` tuple, which the plan reads and does not copy."""

    stars: list          # the distinct stars, in order of first cell
    dims: list           # the stratum dimension of each star
    star_of: list        # each cell's star, as an index into `stars`
    classes: list        # (sigma stratum, tau stratum, source star, target star)
    class_of: list       # each incidence's class, as an index into `classes`


def _plan(Z: CellComplex, rule) -> _Plan:
    """The plan of the cosheaf whose stars `rule(Z)` gives, built on first
    use and kept on the complex (`Z.cosheaf_plans`, keyed by the rule), so
    it reads the cells as they are then.  Classes are numbered in order of
    their first incidence in `Z.incidence`."""
    plan = Z.cosheaf_plans.get(rule)
    if plan is not None:
        return plan
    Y = Z.Y
    index = {}
    star_of = [index.setdefault(key, len(index)) for key in rule(Z)]
    dims = [None] * len(index)
    for c, k in zip(Z.cells, star_of):
        dims[k] = Y.stratum_dim(c.sed)
    sed = [c.sed for c in Z.cells]
    keys = {}
    class_of = [keys.setdefault((sed[s], sed[t], star_of[s], star_of[t]), len(keys))
                for t, s in Z.incidence]
    plan = Z.cosheaf_plans[rule] = _Plan(list(index), dims, star_of, list(keys), class_of)
    return plan


def _assemble(Z: CellComplex, p: int, plan: _Plan, stalks, class_maps) -> Cosheaf:
    """The cosheaf with one stalk basis per star and one map per class."""
    bases = list(map(stalks.__getitem__, plan.star_of))
    ranks = [B.ncols for B in bases]
    maps = tuple(map(class_maps.__getitem__, plan.class_of))
    return Cosheaf(Z, p, ranks, bases, maps)


def _constant(Z: CellComplex) -> Cosheaf:
    """F_0: every stalk is Z and every map is [1]."""
    one = IntMatrix.identity(1)
    n = len(Z.cells)
    return Cosheaf(Z, 0, [1] * n, [one] * n, (one,) * len(Z.incidence))


def _wedged_projections(Z: CellComplex, p: int, plan: _Plan):
    """The p-th wedge of the quotient projection of each pair of strata a
    class crosses."""
    Y = Z.Y
    crossings = {(s, t) for s, t, a, b in plan.classes if s != t}
    return {st: exterior_power(Y.projection(*st), p) for st in crossings}


def multitangent(Z: CellComplex, p: int) -> Cosheaf:
    """The integral p-multi-tangent cosheaf of the complex.

    The stalk at a cell is the sum, over cells of the same stratum whose
    closure contains it, of the p-th exterior powers of their tangent
    lattices; the sum is taken verbatim, with no saturation.  Only the
    maximal cells of that star need summing: for sigma <= tau in one
    stratum, T(sigma) lies in T(tau), so the p-th wedge of T(sigma) lies in
    that of T(tau).  So the stalk depends only on the set of tangent
    lattices of those maximal cells (`_star_tangents`), the cell's star.
    The tangent bases are canonical Hermite forms, so equal lattices give
    equal stars.  The stars and the incidence classes are planned once per
    complex (`_plan`); F_0, which reads no star, is the constant cosheaf.

    Per p: one wedge per distinct tangent basis of the stars, one lattice
    sum per star, and one map per class.  A map within a stratum is the
    identity when the two stalks are equal.  Any other map, an inclusion or
    the wedged projection of a stalk across strata, is written in the
    target stalk's basis by back-substitution: that basis is in column
    Hermite form already, and its pivots are read once per distinct basis.
    An image that leaves the target stalk raises CosheafError naming the
    first such incidence in `Z.incidence`, and p.
    """
    if p == 0:
        return _constant(Z)
    plan = _plan(Z, _star_tangents)
    wedges = {T: exterior_power(T, p).columns() for T in frozenset().union(*plan.stars)}
    stalks = [lattice_basis([w for T in star for w in wedges[T]], comb(k, p))
              for star, k in zip(plan.stars, plan.dims)]
    projections = _wedged_projections(Z, p, plan)
    pivots = {}     # target stalk basis -> its pivots
    class_maps = []
    for c, (sig, tau, a, b) in enumerate(plan.classes):
        image, target = stalks[a], stalks[b]
        if sig == tau:
            if image == target:
                class_maps.append(IntMatrix.identity(target.ncols))
                continue
        else:
            image = projections[sig, tau] * image
        if target not in pivots:
            pivots[target] = hnf_pivots(target)
        A = back_substitute(pivots[target], target.ncols, image)
        if A is None:
            t, s = Z.incidence[plan.class_of.index(c)]
            raise CosheafError(
                "incidence image does not land in the target stalk "
                "(cells %d -> %d, p=%d)" % (s, t, p))
        class_maps.append(A)
    return _assemble(Z, p, plan, stalks, class_maps)


def ambient_on_cells(Z: CellComplex, p: int) -> Cosheaf:
    """The ambient cosheaf: every cell carries the full wedge power of its
    stratum lattice, so its star is its stratum dimension
    (`_stratum_stars`) and its stalk basis the identity.  A map within a
    stratum is the identity, and a map across strata is the wedged
    projection itself, with no lattice sum and no back-substitution.  F_0
    is the constant cosheaf."""
    if p == 0:
        return _constant(Z)
    plan = _plan(Z, _stratum_stars)
    stalks = [IntMatrix.identity(comb(k, p)) for k in plan.dims]
    projections = _wedged_projections(Z, p, plan)
    class_maps = [stalks[b] if sig == tau else projections[sig, tau]
                  for sig, tau, a, b in plan.classes]
    return _assemble(Z, p, plan, stalks, class_maps)
