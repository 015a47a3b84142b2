"""Expected outputs, from theory where it exists and from a recorded
fingerprint where it does not.

For a compact non-singular X in TP^n the multi-tangent cosheaf F_p has
rank H_q(X; F_p) = h^{p,q}(X) (Itenberg-Katzarkov-Mikhalkin-Zharkov), so the
cellular Euler characteristic sum_sigma (-1)^dim(sigma) rank F_p(sigma) is a
known Hodge-number sum.  For the ambient cosheaf on TP^n, H_q(F_p) is Z when
p = q and 0 otherwise, so its Euler characteristic is (-1)^p.  Inputs on
other fans are compared with `golden.json`, recorded from the library's
output when the benchmark was defined (`record_golden.py`).
"""

from __future__ import annotations

import json
from math import comb
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# f-vectors of X for the Freudenthal triangulation of d*Delta_n in TP^n
X_F_VECTORS = {
    (2, 3): [18, 18],
    (2, 4): [28, 30],
    (3, 2): [36, 60, 25],
    (3, 3): [81, 144, 64],
    (3, 4): [152, 280, 130],
}

# the fields a recorded fingerprint covers
GOLDEN_FIELDS = ("f_X", "f_Yref", "incidences_Yref", "proper", "nonsingular",
                 "ample", "ample_failing", "cellular", "rank_sum_X", "rank_sum_Yref")


def hodge_euler(n, d):
    """chi(X; F_p) for p = 0 .. n-1 of a smooth degree-d hypersurface in TP^n
    (n = 2: curves of genus C(d-1, 2); n = 3: surfaces)."""
    if n == 2:
        g = comb(d - 1, 2)
        return [1 - g, g - 1]
    if n == 3:
        h20 = comb(d - 1, 3)
        h11 = (2 * d ** 3 - 6 * d ** 2 + 7 * d) // 3
        return [1 + h20, -h11, 1 + h20]
    raise ValueError("no Hodge oracle for hypersurfaces in TP^%d" % n)


def expected_tp(n, d):
    """Expected fields for a Freudenthal-height hypersurface on the normal fan."""
    want = {"nonsingular": True,
            "chi_X": hodge_euler(n, d),
            "chi_Yref": [(-1) ** p for p in range(n + 1)]}
    if (n, d) in X_F_VECTORS:
        want["f_X"] = X_F_VECTORS[(n, d)]
    return want


def load_golden(path=GOLDEN_PATH):
    with open(path) as fh:
        return json.load(fh)


def mismatches(want, got):
    """[(field, expected, actual)] for every expected field that differs."""
    return [(k, v, got.get(k)) for k, v in want.items() if got.get(k) != v]
