"""Record `golden.json`: the fingerprints that inputs without a closed-form
answer are checked against.

    python3 bench/record_golden.py

Run it only on a commit whose outputs are trusted; a later change that moves
a fingerprint is a change of answer, not of speed.  Each fingerprint is
recorded under two seeds and must agree, since the seed may not change an
answer.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import oracle  # noqa: E402
from workloads import parse, solve_geometric  # noqa: E402

GENERATORS = {
    "affine-ladder": inputs.affine_ladder,
    "partial-fans": inputs.partial_fans,
    "selftest": inputs.selftest,
}


def fingerprints(generate, seed):
    out = {}
    for inp in generate(seed):
        if isinstance(inp, inputs.GeometricInput) and not inp.compact_tp:
            fp = solve_geometric(*parse(inp))
            out[inp.name] = {k: fp[k] for k in oracle.GOLDEN_FIELDS}
    return out


def main():
    golden = {}
    for name, generate in GENERATORS.items():
        first, second = fingerprints(generate, 0), fingerprints(generate, 1)
        if first != second:
            raise SystemExit("%s: fingerprint depends on the seed" % name)
        golden[name] = first
        print(name, json.dumps(first), flush=True)
    with open(oracle.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
