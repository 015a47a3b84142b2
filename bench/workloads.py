"""The four workloads: their inputs, one solve per input, and its check.

A geometric input runs the pipeline as far as the library goes today:
`build_pair`, the four predicates, then `multitangent(X, p)` and
`ambient_on_cells(Yref, p)` for every p.  There is no homology module for
cosheaves yet, so the answer checked is the cellular Euler characteristic
and a structural fingerprint.  The Smith kernel runs `homology_at` on
simplicial chain complexes whose homology is known.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import inputs
import oracle
# Calls go through the modules, so the tracer's wrappers are seen.
from trophom import complexes, cosheaf, exactla, tropio


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable      # seed -> list of inputs
    largest: str            # name of the input `max_input_s` times


WORKLOADS = {w.name: w for w in (
    Workload("tp-ladder", inputs.tp_ladder, "quartic-k3"),
    Workload("affine-ladder", inputs.affine_ladder, "quartic-k3"),
    Workload("partial-fans", inputs.partial_fans, "cubic-blowup"),
    Workload("smith-kernel", inputs.smith_kernel, "klein"),
)}


# ---------------------------------------------------------------------------
# geometric inputs

def parse(inp):
    """The parsed (f, fan) of a geometric input."""
    f = tropio.parse_polynomial(inp.poly)
    if inp.fan is None:
        return f, tropio.normal_fan(tropio.newton_polytope(f))
    return f, tropio.load_fan(inp.fan)


def _euler(cells, ranks):
    return sum(r if c.dim % 2 == 0 else -r for c, r in zip(cells, ranks))


def solve_geometric(f, fan):
    """Run the pipeline on one (f, fan); return its fingerprint."""
    pair = complexes.build_pair(f, fan)
    proper = complexes.is_proper(pair)
    nonsingular = complexes.is_nonsingular(pair)
    ample, failing = complexes.is_combinatorially_ample(pair)
    cellular = complexes.is_cellular_pair(pair)
    out = {
        "f_X": pair.X.f_vector(),
        "f_Yref": pair.Yref.f_vector(),
        "incidences_Yref": len(pair.Yref.incidence),
        "proper": proper,
        "nonsingular": nonsingular,
        "ample": ample,
        "ample_failing": len(failing),
        "cellular": cellular,
        "rank_sum_X": [], "rank_sum_Yref": [], "chi_X": [], "chi_Yref": [],
        "maps": 0,
    }
    n = pair.Y.dim
    for space, build, top in (("X", cosheaf.multitangent, n - 1),
                              ("Yref", cosheaf.ambient_on_cells, n)):
        Z = getattr(pair, space)
        for p in range(top + 1):
            F = build(Z, p)
            out["rank_sum_" + space].append(sum(F.ranks))
            out["chi_" + space].append(_euler(Z.cells, F.ranks))
            out["maps"] += len(F.maps)
    return out


def expected_geometric(workload, inp, golden):
    if inp.compact_tp:
        return oracle.expected_tp(inp.n, inp.degree)
    rec = golden[workload][inp.name]
    return {k: rec[k] for k in oracle.GOLDEN_FIELDS}


# ---------------------------------------------------------------------------
# Smith kernel inputs

@dataclass(frozen=True)
class DenseSurface:
    """A grid surface with its boundary matrices as dense integer rows."""

    surface: inputs.GridSurface
    d1_rows: tuple
    d2_rows: tuple


def _dense(entries_by_row, nrows, ncols):
    rows = []
    for i in range(nrows):
        row = [0] * ncols
        for j, v in entries_by_row.get(i, {}).items():
            row[j] = v
        rows.append(tuple(row))
    return tuple(rows)


def densify(s):
    return DenseSurface(s, _dense(s.d1, s.n_vertices, s.n_edges),
                        _dense(s.d2, s.n_edges, s.n_triangles))


def solve_smith(ds):
    """H_0, H_1, H_2 of the surface as ((rank, torsion), ...)."""
    s = ds.surface
    d1 = exactla.IntMatrix(ds.d1_rows, ncols=s.n_edges)
    d2 = exactla.IntMatrix(ds.d2_rows, ncols=s.n_triangles)
    h = (exactla.homology_at(d1, exactla.IntMatrix.zeros(0, s.n_vertices)),
         exactla.homology_at(d2, d1),
         exactla.homology_at(exactla.IntMatrix.zeros(s.n_triangles, 0), d2))
    return {"H": [[rank, list(tors)] for rank, tors in h]}


def expected_smith(s):
    return {"H": [[rank, list(tors)] for rank, tors in s.expected]}


# ---------------------------------------------------------------------------

class Case:
    """One input, ready to solve.  `run()` returns the output and `check()`
    lists its mismatches against the expected fields; `text` is the
    (polynomial, fan) text a geometric input is parsed from."""

    def __init__(self, workload, inp, golden):
        self.name = inp.name
        if isinstance(inp, inputs.GridSurface):
            self.text = None
            self._args = (densify(inp),)
            self._solve = solve_smith
            self.expected = expected_smith(inp)
        else:
            self.text = (inp.poly, inp.fan)
            self._args = parse(inp)
            self._solve = solve_geometric
            self.expected = expected_geometric(workload, inp, golden)

    def run(self):
        return self._solve(*self._args)

    def check(self, output):
        return oracle.mismatches(self.expected, output)


def prepare(workload, seed, golden=None):
    """Generate and parse the workload's inputs."""
    if golden is None:
        golden = oracle.load_golden()
    return [Case(workload, inp, golden) for inp in WORKLOADS[workload].generate(seed)]
