"""Set-up probe: import trophom and parse the texts given on stdin.

`run.py` starts this script in a fresh interpreter and times it from spawn
to exit.  Stdin holds a JSON list of {"poly": text, "fan": text or null}.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

texts = json.load(sys.stdin)

import trophom.complexes  # noqa: E402,F401
import trophom.cosheaf  # noqa: E402,F401
from trophom.tropio import load_fan, newton_polytope, normal_fan, parse_polynomial  # noqa: E402

for t in texts:
    f = parse_polynomial(t["poly"])
    if t["fan"] is None:
        normal_fan(newton_polytope(f))
    else:
        load_fan(t["fan"])
