"""Benchmark of the trophom pipeline on one workload.

    python3 bench/run.py --workload tp-ladder --seed 1 --seconds 20 --trace 0

Workloads: tp-ladder, affine-ladder, partial-fans, smith-kernel (see
bench/README.md).  The run generates its inputs from the seed, times a
fresh interpreter importing trophom and parsing them, then solves every input
once per pass and checks each answer, repeating passes while the next one
still fits in --seconds (at least one).  Times are reported at a nominal CPU
speed (clock.py).  Human-readable lines come first; the last line of stdout
is one JSON object with "correct", "attempted", "failed" and "metrics".

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes (at least one of each) and reports the per-layer metrics from
the traced ones; the spans are written to .bench_trace/ at the end.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import spans
from clock import SpeedClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
PROBES = 7              # fresh interpreters timed for setup_s
PROBE_TIMEOUT = 60

# (name, unit, better) in report order; BENCHMARK.json lists the same.
END_TO_END = (
    ("solve_s", "s", "lower"),
    ("max_input_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

SPAN_STATS = {
    "tropio.parse_polynomial": ("s",),
    "tropio.load_fan": ("s",),
    "tropio.normal_fan": ("s",),
    "polyhedra.regular_subdivision": ("s",),
    "polyhedra.dd_cone": ("calls", "s"),
    "polyhedra.face_lattice": ("calls", "s"),
    "polyhedra.contains_polyhedron": ("calls", "s"),
    "polyhedra.cone_meets_relint": ("calls", "s"),
    "polyhedra.cone_covered_by": ("calls", "s"),
    "toric.reached_cones": ("calls", "s", "total_s"),
    "toric.compactify": ("s",),
    "toric.closure_is_compact": ("s",),
    "complexes.build_pair": ("s",),
    "complexes.dual_cell_geometry": ("calls", "s"),
    "complexes.is_proper": ("s",),
    "complexes.is_nonsingular": ("s",),
    "complexes.is_combinatorially_ample": ("s",),
    "complexes.is_cellular_pair": ("s",),
    "cosheaf.multitangent": ("s",),
    "cosheaf.ambient_on_cells": ("s",),
    "exactla.solve_int": ("calls", "s"),
    "exactla.hnf": ("calls", "s"),
    "exactla.exterior_power": ("s",),
    "exactla.IntMatrix.mul": ("s",),
    "exactla.smith_diagonal": ("calls", "s"),
    "exactla.homology_at": ("s",),
}

RATIOS = (  # name, numerator, denominator
    ("toric.reached_cones.hit_ratio", "toric.reached_cones.hits", "toric.reached_cones.tested"),
    ("complexes.incidence_hit_ratio", "complexes.incidence_hits", "complexes.incidence_tests"),
)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span, stats in SPAN_STATS.items():
        for stat in stats:
            out.append((span + "." + stat, "count" if stat == "calls" else "s", "lower"))
    counts = spans.COUNTERS + tuple(output_counts([])) + ("trace.spans",)
    out += [(name, "count", "lower") for name in counts]
    out += [(name, "ratio", "higher") for name, _, _ in RATIOS]
    out += [("trace.solve_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return out


# ---------------------------------------------------------------------------

def setup_seconds(cases, clock):
    """Median nominal-speed time of fresh interpreters importing trophom and
    parsing the workload's texts; the reference loop runs around each."""
    texts = json.dumps([{"poly": c.text[0], "fan": c.text[1]} for c in cases if c.text])
    times = []
    for _ in range(PROBES):
        clock.burst()
        t0 = perf_counter()
        subprocess.run([sys.executable, str(HERE / "probe.py")], input=texts, text=True,
                       check=True, timeout=PROBE_TIMEOUT)
        t1 = perf_counter()
        clock.burst()
        times.append(clock.seconds(t0, t1))
    return statistics.median(times)


def output_counts(outputs):
    """Work counters read off the pipeline's outputs."""
    geo = [o for o in outputs if "f_X" in o]
    return {
        "complexes.cells.X": sum(sum(o["f_X"]) for o in geo),
        "complexes.cells.Yref": sum(sum(o["f_Yref"]) for o in geo),
        "complexes.incidences.Yref": sum(o["incidences_Yref"] for o in geo),
        "cosheaf.stalk_rank_sum": sum(sum(o["rank_sum_X"]) + sum(o["rank_sum_Yref"])
                                      for o in geo),
        "cosheaf.maps": sum(o["maps"] for o in geo),
    }


@dataclass
class Pass:
    wall: float              # raw wall seconds
    seconds: float           # nominal-speed seconds
    times: dict              # input -> nominal-speed seconds
    outputs: list
    failures: list           # report lines
    failed: int              # inputs that failed
    tracer: object = None


def run_pass(workload, cases, clock, tracer=None):
    """Solve and check every case once, timing each with the running clock."""
    intervals, outputs, lines, failed = {}, [], [], 0
    start = perf_counter()
    for case in cases:
        t0 = perf_counter()
        try:
            if tracer is None:
                got = case.run()
            else:
                with tracer.span("bench.input"):
                    got = case.run()
            bad = case.check(got)
            outputs.append(got)
        except Exception as exc:  # a crash is a failed input, not a failed run
            bad = [("exception", None, "%s: %s" % (type(exc).__name__, exc))]
        intervals[case.name] = (t0, perf_counter())
        if bad:
            failed += 1
            lines += ["FAIL %s/%s: %s expected %r got %r" % (workload, case.name, *b)
                      for b in bad]
    end = perf_counter()
    times = {name: clock.seconds(*iv) for name, iv in intervals.items()}
    return Pass(end - start, clock.seconds(start, end), times, outputs, lines, failed, tracer)


def layer_metrics(traced, parse_tracer):
    """Per-layer metrics of the traced passes.  Self times are scaled to
    nominal speed with their pass's factor and their median over passes is
    taken; counts come from the first pass (they repeat exactly)."""
    summaries = []
    for p in traced:
        summary, counters = p.tracer.summary()
        summaries.append((summary, counters, p.seconds / p.wall))
    parse_summary, _ = parse_tracer.summary()
    metrics = {}
    for span, stats in SPAN_STATS.items():
        for stat in stats:
            if span.startswith("tropio."):   # parsing runs once, before the passes
                vals = [parse_summary.get(span, {}).get(stat, 0)]
            else:
                vals = [s.get(span, {}).get(stat, 0) * (1 if stat == "calls" else f)
                        for s, _, f in summaries]
            metrics[span + "." + stat] = vals[0] if stat == "calls" else statistics.median(vals)
    first_summary, counters, _ = summaries[0]
    counts = dict(counters)
    counts.update(output_counts(traced[0].outputs))
    counts["trace.spans"] = sum(row["calls"] for row in first_summary.values())
    metrics.update(counts)
    for name, num, den in RATIOS:
        metrics[name] = counts[num] / counts[den] if counts[den] else 0.0
    return metrics


def print_span_table(p):
    """Every span name of one traced pass, by self time (nominal speed)."""
    factor = p.seconds / p.wall
    summary, _ = p.tracer.summary()
    print("%-40s %8s %10s %10s" % ("span", "calls", "self_s", "total_s"))
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["s"]):
        print("%-40s %8d %10.4f %10.4f" % (name, row["calls"], row["s"] * factor,
                                           row["total_s"] * factor))


def write_spans(workload, seed, tracers):
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / ("%s-seed%d.json.gz" % (workload, seed))
    with gzip.open(path, "wt") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["name", "parent", "start", "end"],
                   "passes": [t.spans for t in tracers]}, fh)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "trophom" / "__init__.py").is_file():
        print("run.py: the trophom sources are missing (%s)" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print("run.py: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    largest = workloads.WORKLOADS[args.workload].largest

    parse_tracer = spans.Tracer()
    with parse_tracer if args.trace else nullcontext():
        cases = workloads.prepare(args.workload, args.seed)
    clock = SpeedClock()
    setup_s = setup_seconds(cases, clock)

    # Passes alternate between the kinds until the next one would overrun.
    kinds = ("untraced", "traced") if args.trace else ("untraced",)
    done = {kind: [] for kind in kinds}
    start = perf_counter()
    with clock:
        while True:
            kind = kinds[sum(map(len, done.values())) % len(kinds)]
            if kind == "traced":
                with spans.Tracer() as tracer:
                    p = run_pass(args.workload, cases, clock, tracer)
            else:
                p = run_pass(args.workload, cases, clock)
            done[kind].append(p)
            print("pass %d (%s): %.4f s (wall %.4f s)  %s" % (
                sum(map(len, done.values())), kind, p.seconds, p.wall,
                "  ".join("%s %.4f" % kv for kv in p.times.items())), flush=True)
            for line in p.failures:
                print(line, flush=True)
            upcoming = kinds[sum(map(len, done.values())) % len(kinds)]
            if not done[upcoming]:
                continue
            if perf_counter() - start + done[upcoming][-1].wall > args.seconds:
                break

    passes = [p for kind in kinds for p in done[kind]]
    attempted = len(cases) * len(passes)
    failed = sum(p.failed for p in passes)
    untraced = done["untraced"]
    solve_s = statistics.median(p.seconds for p in untraced)
    metrics = {
        "solve_s": solve_s,
        "max_input_s": statistics.median(p.times[largest] for p in untraced),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    print("passes: %s" % ", ".join("%d %s" % (len(v), k) for k, v in done.items()))
    for name, value in metrics.items():
        print("%-12s %.6g %s" % (name, value, units[name]))
    print("%-12s %d/%d = %.6g" % ("fail_frac", failed, attempted, failed / attempted))

    if args.trace:
        print_span_table(done["traced"][0])
        metrics = layer_metrics(done["traced"], parse_tracer)
        metrics["trace.solve_s"] = statistics.median(p.seconds for p in done["traced"])
        metrics["trace.overhead_s"] = metrics["trace.solve_s"] - solve_s
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        for name, _, _ in per_layer_metrics():
            print("%-40s %.6g %s" % (name, metrics[name], units[name]))
        metrics = {name: metrics[name] for name in units}
        path = write_spans(args.workload, args.seed, [p.tracer for p in done["traced"]])
        print("spans written to %s" % path)

    report = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
