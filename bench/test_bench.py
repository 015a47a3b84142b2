"""Self-tests of the benchmark: generator, oracle and tracer on the smallest
rung of each workload, plus the agreement of BENCHMARK.json with run.py.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from trophom import complexes, exactla, polyhedra, tropio  # noqa: E402


def test_freudenthal_heights_triangulate_unimodularly():
    pts = inputs.simplex_points(3, 2)
    good = polyhedra.regular_subdivision(pts, [inputs.freudenthal_height(a) for a in pts])
    assert polyhedra.is_primitive(good)
    assert len(good.maximal_cells) == 8
    # the plain A_3 form leaves the Delaunay octahedra of A_3: not a triangulation
    a_n = [-(sum(x * x for x in a) + a[0] * a[1] + a[0] * a[2] + a[1] * a[2]) for a in pts]
    assert not polyhedra.is_primitive(polyhedra.regular_subdivision(pts, a_n))


def test_seed_moves_the_text_not_the_subdivision():
    texts = [inputs.polynomial_text(2, 3, random.Random(seed)) for seed in (0, 1)]
    assert texts[0] != texts[1]
    faces = []
    for text in texts:
        f = tropio.parse_polynomial(text)
        faces.append(polyhedra.regular_subdivision([e for e, _ in f.terms],
                                                   [c for _, c in f.terms]).faces)
    assert faces[0] == faces[1]
    assert inputs.smith_kernel(5, size=4)[1].d2 == inputs.smith_kernel(5, size=4)[1].d2


def test_hodge_oracle_values():
    assert oracle.hodge_euler(2, 3) == [0, 0]
    assert oracle.hodge_euler(3, 2) == [1, -2, 1]
    assert oracle.hodge_euler(3, 3) == [1, -7, 1]
    assert oracle.hodge_euler(3, 4) == [2, -20, 2]


@pytest.mark.parametrize("name", ["cubic-curve", "quartic-curve-affine",
                                  "quadric-half-toric", "klein"])
def test_smallest_rung_passes_oracle_under_tracing(name):
    golden = oracle.load_golden()
    inp = next(i for i in inputs.selftest(0) if i.name == name)
    case = workloads.Case("selftest", inp, golden)
    originals = (complexes.build_pair, exactla.smith_diagonal, exactla.IntMatrix.__mul__)
    with spans.Tracer() as tracer:
        out = case.run()
    assert case.check(out) == []
    assert (complexes.build_pair, exactla.smith_diagonal,
            exactla.IntMatrix.__mul__) == originals
    summary, counters = tracer.summary()
    if name == "klein":
        assert out["H"][1] == [1, [2]]
        assert summary["exactla.smith_diagonal"]["calls"] == 6
        assert counters["exactla.smith_diagonal.nnz_in"] > 0
    else:
        assert summary["complexes.build_pair"]["calls"] == 1
        assert "exactla.smith_diagonal" not in summary
        assert counters["complexes.incidence_tests"] > 0
        # the predicates and cosheaves run inside the pass
        for span in ("complexes.is_proper", "complexes.is_cellular_pair",
                     "cosheaf.multitangent", "cosheaf.ambient_on_cells"):
            assert summary[span]["calls"] >= 1
    if name == "quadric-half-toric":
        assert summary["polyhedra.cone_covered_by"]["calls"] > 0
    for row in summary.values():
        assert 0 <= row["s"] <= row["total_s"] + 1e-9


def test_oracle_reports_the_failing_field():
    inp = next(i for i in inputs.selftest(0) if i.name == "cubic-curve")
    case = workloads.Case("selftest", inp, oracle.load_golden())
    out = case.run()
    out["chi_X"] = [1, -1]
    assert case.check(out) == [("chi_X", [0, 0], [1, -1])]


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()
