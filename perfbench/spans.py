"""Per-layer spans for the traced run.

Nothing here runs in an untraced run.  ``Tracer.install`` replaces the
package's public functions and methods listed below with timing wrappers,
in every module of the package that binds them, so a call made from inside
the program (``betti`` calling the Smith normal form, ``verify_suite``
calling a suite) is timed as well as a call made by the benchmark.
``probe`` then calls every layer directly on the workload's own inputs, so
every per-layer metric has a value on every workload.  The verify suites and
the CLI script it runs record only their own spans there, so their inner
calls (small towers, tiny matrices) do not dilute the lower layers' means.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
from time import perf_counter

FUNCTIONS = [
    ("complexes.validate_s", "poset_tower.complexes", "validate_complex"),
    ("subdivision.subdivide_s", "poset_tower.subdivision", "subdivide"),
    ("subdivision.lift_point_s", "poset_tower.subdivision", "lift_point"),
    ("posets.face_poset_s", "poset_tower.posets", "face_poset"),
    ("posets.core_s", "poset_tower.posets", "core"),
    ("posets.order_complex_s", "poset_tower.posets", "order_complex"),
    ("homology.chain_complex_s", "poset_tower.homology", "chain_complex"),
    ("homology.snf_s", "poset_tower.homology", "smith_invariant_factors"),
    ("approx.approximate_s", "poset_tower.approx", "approximate"),
    ("approx.naturality_s", "poset_tower.approx", "check_naturality"),
]
METHODS = [
    ("tower.build_s", "poset_tower.tower", "Tower", "build"),
    ("tower.encode_s", "poset_tower.tower", "Tower", "encode_thread"),
    ("tower.parse_s", "poset_tower.tower", "Tower", "thread"),
    ("tower.validate_s", "poset_tower.tower", "Tower", "validate_thread"),
    ("tower.decode_s", "poset_tower.tower", "Tower", "decode_thread"),
    ("homology.is_valid_s", "poset_tower.homology", "ChainComplexZ", "is_valid"),
]


class Tracer:
    """Span totals and call counts by name, plus plain counters."""

    def __init__(self):
        self.total = {}
        self.calls = {}
        self.counters = {}
        self.allow = ""
        self._undo = []

    def add(self, name, seconds):
        if not name.startswith(self.allow):
            return
        self.total[name] = self.total.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + 1

    @contextlib.contextmanager
    def span(self, name):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.add(name, perf_counter() - t0)

    @contextlib.contextmanager
    def only(self, prefix):
        """Record only the spans whose names start with ``prefix``."""
        self.allow = prefix
        try:
            yield
        finally:
            self.allow = ""

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, perf_counter() - t0)
        return timed

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "poset_tower" or n.startswith("poset_tower.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            timed = self.wrap(name, original)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self._set(m, attr, timed)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                self._set(cls, attr, self.wrap(name, raw))
        suites = sys.modules["poset_tower.verify"].SUITES
        for suite in list(suites):
            self._set(suites, suite, self.wrap(f"verify.{suite}_s", suites[suite]))

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)


def probe(ctx, tracer, seed, workdir, run_cli_script):
    """Call every layer once on the workload's inputs, under the installed spans."""
    from fractions import Fraction

    from poset_tower import approx, complexes, homology, posets, subdivision, verify
    from poset_tower.complexes import RationalPoint, SimplicialComplex
    from poset_tower.tower import Tower

    K = ctx.K
    SimplicialComplex.from_json_obj(K.to_json_obj())

    stage = subdivision.subdivide(K, ctx.small_depth)
    calls = 0
    t0 = perf_counter()
    for st in stage.stage_chain():
        for s in st.complex.sorted_simplices():
            complexes.open_star(st.complex, s)
            calls += 1
    tracer.counters["complexes.open_star_s"] = perf_counter() - t0
    tracer.counters["complexes.open_star_calls"] = calls
    tracer.counters["subdivision.stage_simplices"] = ctx.stage_simplices

    P = posets.face_poset(stage.complex)
    posets.core(P)
    posets.order_complex(P)

    tower = Tower.build(K, ctx.tower_depth)
    depth = ctx.tower_depth
    tracer.counters["tower.level_elements"] = sum(len(lv.poset) for lv in tower.levels)
    label_chars = 0
    points = [RationalPoint(K, {v: Fraction(a) for v, a in p.items()}) for p in ctx.points]
    for p in points:
        thread = tower.encode_thread(p, depth)
        parsed = tower.thread(json.loads(json.dumps(thread.to_json_obj()))["entries"])
        tower.validate_thread(parsed)
        tower.decode_thread(parsed)
        label_chars += len(thread.entries[-1])
        with tracer.span("tower.project_levels_s"):
            for n in range(1, depth + 1):
                tower.project_point(p, n)
        subdivision.lift_point(tower.stage(depth - 1), p)
    tracer.counters["tower.label_chars"] = label_chars / len(points)

    cells = nonzeros = 0
    for X in ctx.homology or [stage.complex]:
        cc = homology.chain_complex(X)
        for b in cc.boundaries:
            homology.smith_invariant_factors(b)
            cells += len(b) * len(b[0])
            nonzeros += sum(1 for row in b for v in row if v)
        cc.is_valid()
    tracer.counters["homology.matrix_cells"] = cells
    tracer.counters["homology.matrix_nonzeros"] = nonzeros

    cli_dir = os.path.join(workdir, "probe-cli")
    os.makedirs(cli_dir, exist_ok=True)
    with tracer.only("cli."):
        session = run_cli_script(seed, cli_dir, tracer)
    with tracer.only("approx."), open(session.sets[0].files["h.json"], encoding="utf-8") as fh:
        h = approx.PLMap.from_json_obj(json.load(fh))
        n, _ = approx.approximate(h, cap=4)
        small = Tower.build(K, ctx.small_depth)
        identity = approx.SimplicialMap.identity(K)
        for level in range(1, ctx.small_depth + 1):
            approx.check_naturality(identity, level, points, small, small)
    tracer.counters["approx.stage"] = n

    with tracer.only("verify."):
        reports = verify.verify_all(K, ctx.small_depth, seed)
    tracer.counters["verify.checks"] = sum(len(r.checks) for r in reports)
