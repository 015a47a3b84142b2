"""Span tracing of the public trophom functions, installed from outside.

`Tracer.install()` replaces each traced function with a wrapper that records
one span per call: name, parent span, start and end.  Module-level functions
are replaced in their home module and in every trophom module that imported
them by name (``from .polyhedra import cone_covered_by``); methods are
replaced on their class.  Spans stay in memory; `summary()` folds them into
per-name call counts, self times and counters after the pass.  `uninstall()`
puts the original functions back.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _reached_counts(tracer, args, kwargs, out):
    """Cofaces reached / tested by `reached_cones`, the own cone excluded."""
    Y, cid = args[0], args[2] if len(args) > 2 else kwargs["cid"]
    own = Y.cones[cid]
    tracer.counters["toric.reached_cones.tested"] += \
        sum(1 for c in Y.cones if own <= c) - 1
    tracer.counters["toric.reached_cones.hits"] += len(out) - 1


def _incidence_counts(tracer, args, kwargs, out):
    """`contains_polyhedron` calls made directly by `build_pair` are its
    same-stratum incidence tests."""
    if tracer.parent_name() == "complexes.build_pair":
        tracer.counters["complexes.incidence_tests"] += 1
        tracer.counters["complexes.incidence_hits"] += bool(out)


def _face_count(tracer, args, kwargs, out):
    tracer.counters["polyhedra.regular_subdivision.faces"] += len(out.faces)


def _smith_nnz(tracer, args, kwargs, out):
    tracer.counters["exactla.smith_diagonal.nnz_in"] += sum(map(len, args[0].values()))


# (module, qualified name, span name, counter hook run after the call)
TRACED = (
    ("tropio", "parse_polynomial", "tropio.parse_polynomial", None),
    ("tropio", "load_fan", "tropio.load_fan", None),
    ("tropio", "normal_fan", "tropio.normal_fan", None),
    ("polyhedra", "regular_subdivision", "polyhedra.regular_subdivision", _face_count),
    ("polyhedra", "dd_cone", "polyhedra.dd_cone", None),
    ("polyhedra", "QPolyhedron.face_lattice", "polyhedra.face_lattice", None),
    ("polyhedra", "QPolyhedron.contains_polyhedron", "polyhedra.contains_polyhedron",
     _incidence_counts),
    ("polyhedra", "cone_meets_relint", "polyhedra.cone_meets_relint", None),
    ("polyhedra", "cone_covered_by", "polyhedra.cone_covered_by", None),
    ("toric", "ToricVariety.reached_cones", "toric.reached_cones", _reached_counts),
    ("toric", "ToricVariety.compactify", "toric.compactify", None),
    ("toric", "ToricVariety.closure_is_compact", "toric.closure_is_compact", None),
    ("complexes", "build_pair", "complexes.build_pair", None),
    ("complexes", "dual_cell_geometry", "complexes.dual_cell_geometry", None),
    ("complexes", "is_proper", "complexes.is_proper", None),
    ("complexes", "is_nonsingular", "complexes.is_nonsingular", None),
    ("complexes", "is_combinatorially_ample", "complexes.is_combinatorially_ample", None),
    ("complexes", "is_cellular_pair", "complexes.is_cellular_pair", None),
    ("cosheaf", "multitangent", "cosheaf.multitangent", None),
    ("cosheaf", "ambient_on_cells", "cosheaf.ambient_on_cells", None),
    ("exactla", "solve_int", "exactla.solve_int", None),
    ("exactla", "hnf", "exactla.hnf", None),
    ("exactla", "exterior_power", "exactla.exterior_power", None),
    ("exactla", "IntMatrix.__mul__", "exactla.IntMatrix.mul", None),
    ("exactla", "smith_diagonal", "exactla.smith_diagonal", _smith_nnz),
    ("exactla", "homology_at", "exactla.homology_at", None),
)

MODULES = ("exactla", "polyhedra", "tropio", "toric", "complexes", "cosheaf")

# Counters a hook may leave untouched in a pass; they still read 0.
COUNTERS = ("polyhedra.regular_subdivision.faces", "toric.reached_cones.tested",
            "toric.reached_cones.hits", "complexes.incidence_tests",
            "complexes.incidence_hits", "exactla.smith_diagonal.nnz_in")


class Tracer:
    """Records spans while installed.  One instance per traced pass."""

    def __init__(self):
        self.spans = []          # [name, parent index, start, end]
        self.stack = []
        self.counters = defaultdict(int)
        self._patches = []       # (owner, attribute, original)

    def parent_name(self):
        """Name of the span enclosing the current one's caller."""
        return self.spans[self.stack[-1]][0] if self.stack else None

    @contextmanager
    def span(self, name):
        """A span around code that is not a traced library function."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, perf_counter(), 0.0])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][3] = perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        mods = {m: sys.modules["trophom." + m] for m in MODULES}
        for home, qualname, name, hook in TRACED:
            owner = mods[home]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if path else getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            if path:
                self._patch(owner, attr, wrapper)
                continue
            for mod in mods.values():
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self):
        """Per-name {calls, s (self time), total_s} plus the counters."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "total_s": 0.0})
        for (name, parent, start, end), covered in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start - covered
            row["total_s"] += end - start
        return dict(out), {k: self.counters.get(k, 0) for k in COUNTERS}
