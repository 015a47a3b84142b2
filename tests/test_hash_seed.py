"""The outputs do not depend on PYTHONHASHSEED.

Cells, incidences and stalk bases come out in an order that later signs and
orientations read, so the same input must give the same output in every
process, whatever its string hashing."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from test_complexes import HALF_TORIC_FAN, freudenthal_poly
from trophom.complexes import build_pair
from trophom.cosheaf import ambient_on_cells, multitangent
from trophom.tropio import load_fan, newton_polytope, normal_fan

HERE = Path(__file__).resolve().parent


def fingerprint():
    """SHA-256 over the cells, incidences, embedding and cosheaves of the
    cubic curve in TP^2 and the quadric on the half-toric fan, each in the
    order the library yields it: every incidence with its map, in the
    complex's incidence order, and the `embed` tuple in order."""
    cubic = freudenthal_poly(2, 3)
    h = hashlib.sha256()
    for f, fan in ((cubic, normal_fan(newton_polytope(cubic))),
                   (freudenthal_poly(3, 2), load_fan(HALF_TORIC_FAN))):
        pair = build_pair(f, fan)
        n = pair.Y.dim
        for Z, build, top in ((pair.X, multitangent, n - 1),
                              (pair.Yref, ambient_on_cells, n)):
            for c in Z.cells:
                h.update(repr((c.sed, sorted(c.face), c.dim, c.compact, c.in_x,
                               c.tangent.rows)).encode())
            for p in range(top + 1):
                F = build(Z, p)
                h.update(repr((F.ranks, [B.rows for B in F.bases],
                               [(ts, A.rows) for ts, A in zip(Z.incidence, F.maps)])).encode())
        h.update(repr(pair.embed).encode())
    return h.hexdigest()


def test_outputs_do_not_depend_on_the_hash_seed():
    path = os.pathsep.join([str(HERE.parent / "src"), str(HERE)])
    digests = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c",
                              "import test_hash_seed; print(test_hash_seed.fingerprint())"],
                             env=env, cwd=HERE, capture_output=True, text=True, check=True)
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1] == fingerprint()
