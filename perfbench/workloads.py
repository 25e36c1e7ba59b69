"""The benchmark's four workloads.

Each workload makes its inputs from the seed alone (``make_inputs``, harness
code only), pays its one-time work in ``setup`` (package import included, so
the package is imported there and nowhere earlier), and then runs one kind of
operation in a closed loop: ``op`` is the timed call into the program and
``check`` compares its output with ``oracles``, untimed.  ``round_size`` is
the cycle of a workload's inputs; runs stop only at the end of a round.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import types
from fractions import Fraction

import oracles as O
from oracles import expect

NAME_LETTERS = "acdefghjkmnpqrstuvwxyz"


def vertex_names(rng, count):
    """Distinct vertex labels; no 'b', braces or commas, so labels never collide."""
    names = set()
    while len(names) < count:
        names.add(rng.choice(NAME_LETTERS) + str(rng.randrange(100)))
    names = sorted(names)
    rng.shuffle(names)
    return names


def relabel(maximal, rng):
    verts = sorted({v for s in maximal for v in s})
    new = dict(zip(verts, vertex_names(rng, len(verts))))
    return [[new[v] for v in s] for s in maximal]


def complex_json(maximal):
    sims = O.closure(maximal)
    return {"vertices": sorted({v for s in sims for v in s}),
            "simplices": [sorted(s) for s in sorted(sims, key=lambda s: (len(s), sorted(s)))]}


TRIANGLE = [["0", "1", "2"]]
CIRCLE = [["0", "1"], ["1", "2"], ["0", "2"]]
TETRA_BOUNDARY = [["0", "1", "2"], ["0", "1", "3"], ["0", "2", "3"], ["1", "2", "3"]]
PROJECTIVE_PLANE = [
    ["0", "1", "4"], ["0", "1", "5"], ["0", "2", "3"], ["0", "2", "4"], ["0", "3", "5"],
    ["1", "2", "3"], ["1", "2", "5"], ["1", "3", "4"], ["2", "4", "5"], ["3", "4", "5"],
]


def coords_json(coords):
    return {"coords": {v: str(a) for v, a in sorted(coords.items()) if a}}


def simplex_point(rng, verts, kind):
    """A rational point of the simplex on ``verts`` (listed in seeded order).

    ``generic`` has distinct positive weights, ``tie`` two equal largest ones,
    ``face`` lies on a proper face, ``midpoint`` on an edge midpoint, and
    ``barycentre`` and ``vertex`` are the extreme ties.
    """
    n = len(verts)
    if kind == "generic":
        w = rng.sample(range(1, 30), n)
    elif kind == "tie":
        a = rng.randrange(2, 12)
        w = [a, a] + [rng.randrange(1, a) for _ in range(n - 2)]
    elif kind == "face":
        w = rng.sample(range(1, 30), n - 1) + [0]
    elif kind == "midpoint":
        w = [1, 1] + [0] * (n - 2)
    elif kind == "barycentre":
        w = [1] * n
    else:
        w = [1] + [0] * (n - 1)
    total = sum(w)
    return {v: Fraction(x, total) for v, x in zip(verts, w) if x}


class Workload:
    """Shared plumbing: input files live in ``workdir`` inside the checkout."""

    round_size = 1
    tracer = None

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.files = {}
        self.make_inputs()

    def write(self, name, obj):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        self.files[name] = path
        return path

    def load_complex(self, name):
        from poset_tower.complexes import SimplicialComplex
        with open(self.files[name], encoding="utf-8") as fh:
            return SimplicialComplex.from_json_obj(json.load(fh))

    def check_setup(self):
        """Untimed checks of what ``setup`` built, and of one operation."""
        self.check(0, self.op(0))

    def probe_rng(self):
        return random.Random(f"probe:{self.name}:{self.seed}")

    def probe_context(self):
        """Inputs for the traced run's direct calls into the layers."""
        raise NotImplementedError


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# -- verify-all ----------------------------------------------------------------

VERIFY_DEPTH = 1
VERIFY_LABELLINGS = 8
SUITE_ORDER = ["level-oracle", "bond-commutation", "preimage-openstar", "upset-core",
               "upset-acyclic", "openness", "roundtrip", "homology", "naturality"]


class VerifyAll(Workload):
    """``tower verify --suite all`` on a relabelled triangle, one seed per operation.

    Operation i reads labelling ``i % VERIFY_LABELLINGS``, so one run
    averages over several labellings rather than resting on one draw.
    """

    name = "verify-all"
    round_size = VERIFY_LABELLINGS

    def make_inputs(self):
        self.maximal = [relabel(TRIANGLE, self.rng) for _ in range(VERIFY_LABELLINGS)]
        for k, maximal in enumerate(self.maximal):
            self.write(f"K-{k}.json", complex_json(maximal))
        self.op_seeds = [self.rng.randrange(10 ** 6) for _ in range(4096)]
        self.f = O.f_vector(O.closure(TRIANGLE))

    def argv(self, i):
        return ["tower", "verify", self.files[f"K-{i % VERIFY_LABELLINGS}.json"],
                "--suite", "all", "--depth", str(VERIFY_DEPTH),
                "--seed", str(self.op_seeds[i % 4096])]

    def setup(self):
        from poset_tower import cli
        self.cli = cli
        self.K = self.load_complex("K-0.json")

    def check_setup(self):
        out = self.op(0)
        expect(self.op(0) == out, "the same seed gave different verify output")
        self.check(0, out)

    def op(self, i):
        return run_cli(self.cli, self.argv(i))

    def check(self, i, out):
        code, stdout, err = out
        expect(code == 0, f"exit status {code}: {err.strip()}")
        reports = json.loads(stdout)
        expect([r["suite"] for r in reports] == SUITE_ORDER, "suite list")
        d = VERIFY_DEPTH
        sizes = [sum(O.f_vector_at(self.f, n)) for n in range(d + 1)]
        for r in reports:
            expect(r["passed"] and r["depth"] == d and r["seed"] == self.op_seeds[i % 4096],
                   f"report header of {r['suite']}")
            expect(all(c["status"] == "pass" for c in r["checks"]), f"{r['suite']} failed")
        by = {r["suite"]: {c["name"]: c["detail"] for c in r["checks"]} for r in reports}
        checks_per_suite = {"level-oracle": d, "bond-commutation": 2, "preimage-openstar": d,
                            "upset-core": d, "upset-acyclic": 2 * d, "openness": 2 * d,
                            "roundtrip": 2, "homology": d + 1, "naturality": 4}
        expect({s: len(c) for s, c in by.items()} == checks_per_suite, "checks per suite")
        for n in range(1, d + 1):
            want = f"{sizes[n - 1]} elements"
            expect(by["level-oracle"][f"level-{n}-matches-face-poset"] == want, "level size")
            expect(by["preimage-openstar"][f"level-{n}-preimage-is-open-star"] == want,
                   "preimage level size")
            expect(by["homology"][f"stage-{n}-betti-invariant"] == "betti=[1, 0, 0]",
                   "disk homology")
        expect(by["homology"]["stage-0-profile"] == "betti=[1, 0, 0]", "disk homology")
        expect(by["roundtrip"]["decode-encode-round-trip"] == f"{sum(sizes[:d])} threads",
               "round-trip thread count")

    def probe_context(self):
        return ProbeContext(self.K, small_depth=VERIFY_DEPTH, tower_depth=VERIFY_DEPTH,
                            points=sample_points(self.probe_rng(), self.maximal[0][0], 16),
                            stage_simplices=sum(O.f_vector_at(self.f, VERIFY_DEPTH)))


# -- homology-surfaces -----------------------------------------------------------

SURFACES = [("S2", TETRA_BOUNDARY, 1), ("S1", CIRCLE, 5), ("RP2", PROJECTIVE_PLANE, 1),
            ("disk", TRIANGLE, 2)]
LABELLINGS = 16


class HomologySurfaces(Workload):
    """``betti`` on a fixed list of subdivided surfaces with seeded vertex labels.

    The labels decide the row and column order of the boundary matrices and so
    the elimination path; each run cycles through ``LABELLINGS`` of them so
    that its median rests on many labellings rather than on one draw.
    """

    name = "homology-surfaces"
    round_size = LABELLINGS

    def make_inputs(self):
        self.maximal = []
        for k in range(LABELLINGS):
            self.maximal.append({})
            for name, maximal, _ in SURFACES:
                self.maximal[k][name] = relabel(maximal, self.rng)
                self.write(f"{name}-{k}.json", complex_json(self.maximal[k][name]))

    def setup(self):
        from poset_tower.homology import betti
        from poset_tower.subdivision import subdivide
        self.betti = betti
        self.stages = [[(name, subdivide(self.load_complex(f"{name}-{k}.json"), n).complex)
                        for name, _, n in SURFACES]
                       for k in range(LABELLINGS)]

    def check_setup(self):
        super().check_setup()
        for k, stages in enumerate(self.stages):
            for (name, _, n), (_, cx) in zip(SURFACES, stages):
                base = O.closure(self.maximal[k][name])
                want = O.f_vector_at(O.f_vector(base), n)
                expect(list(cx.counts()) == want, f"{name} stage {n} counts {cx.counts()}")
                if n <= 2:
                    got = {frozenset(s.verts) for s in cx.simplices}
                    expect(got == O.subdivide(base, n), f"{name} stage {n} simplices")

    def op(self, i):
        return [self.betti(cx) for _, cx in self.stages[i % LABELLINGS]]

    def check(self, i, out):
        for (name, cx), profile in zip(self.stages[i % LABELLINGS], out):
            O.check_homology(name, cx.counts(), profile.betti, profile.torsion)

    def probe_context(self):
        disk = self.load_complex("disk-0.json")
        return ProbeContext(disk, small_depth=1, tower_depth=2,
                            points=sample_points(self.probe_rng(), self.maximal[0]["disk"][0], 16),
                            homology=[cx for _, cx in self.stages[0]],
                            stage_simplices=max(len(cx.simplices) for _, cx in self.stages[0]))


# -- codec-triangle --------------------------------------------------------------

CODEC_DEPTH = 6
POINT_KINDS = (["generic"] * 128 + ["tie"] * 40 + ["face"] * 32 + ["midpoint"] * 24
               + ["barycentre"] * 16 + ["vertex"] * 16)


class CodecTriangle(Workload):
    """Encode, serialize, parse, validate and decode one point on a depth-6 tower."""

    name = "codec-triangle"
    round_size = len(POINT_KINDS)

    def make_inputs(self):
        self.maximal = relabel(TRIANGLE, self.rng)
        self.write("K.json", complex_json(self.maximal))
        verts = self.maximal[0]
        self.raw_points = []
        for kind in POINT_KINDS:
            order = list(verts)
            self.rng.shuffle(order)
            self.raw_points.append(simplex_point(self.rng, order, kind))
        self.write("points.json", [coords_json(p) for p in self.raw_points])
        self.f = O.f_vector(O.closure(self.maximal))

    def setup(self):
        from poset_tower.complexes import RationalPoint
        from poset_tower.tower import Tower
        K = self.load_complex("K.json")
        self.tower = Tower.build(K, CODEC_DEPTH)
        with open(self.files["points.json"], encoding="utf-8") as fh:
            self.points = [RationalPoint.from_json_obj(K, obj) for obj in json.load(fh)]
        # Decoding fills each stage's cache of vertex embeddings, a structure
        # every later operation shares; without this the first round pays it.
        for i in range(self.round_size):
            self.op(i)

    def check_setup(self):
        super().check_setup()
        for n, level in enumerate(self.tower.levels, start=1):
            want = sum(O.f_vector_at(self.f, n - 1))
            expect(len(level.poset) == want, f"level {n} has {len(level.poset)} != {want}")

    def op(self, i):
        tower = self.tower
        thread = tower.encode_thread(self.points[i % self.round_size], CODEC_DEPTH)
        text = json.dumps(thread.to_json_obj())
        parsed = tower.thread(json.loads(text)["entries"])
        coherent = tower.validate_thread(parsed)
        return thread.entries, parsed.entries, coherent, tower.decode_thread(parsed)

    def check(self, i, out):
        entries, parsed, coherent, region = out
        p = self.raw_points[i % self.round_size]
        expect(parsed == entries and coherent, "parsed thread differs or is incoherent")
        O.check_coherent(entries)
        rep = dict(region.representative.coords)
        O.check_decoded(p, entries, rep, region.err_sq_bound, 2)
        expect(O.reference_thread(rep, CODEC_DEPTH) == list(entries),
               "re-encoding the representative gave another thread")
        if i % 4 == 0:
            expect(O.reference_thread(p, CODEC_DEPTH) == list(entries),
                   f"thread of point {i % self.round_size} differs from the reference")

    def probe_context(self):
        return ProbeContext(self.tower.base, small_depth=1, tower_depth=CODEC_DEPTH,
                            points=self.raw_points,
                            stage_simplices=len(self.tower.levels[-1].poset))


# -- cli-session -----------------------------------------------------------------

CLI_TOWER_DEPTH = 3
CLI_STAGE = 2
CLI_VERIFY_DEPTH = 2
CLI_INPUT_SETS = 8


class CliSession(Workload):
    """A fixed script of CLI commands over seeded input files, each run in-process.

    Operation i reads input set ``i % CLI_INPUT_SETS``, so one run averages
    over several sets rather than resting on one draw.
    """

    name = "cli-session"
    round_size = CLI_INPUT_SETS

    def make_inputs(self):
        self.sets = [self.make_set(k, self.rng) for k in range(CLI_INPUT_SETS)]
        self.verify_seeds = [self.rng.randrange(10 ** 6) for _ in range(4096)]

    def make_set(self, k, rng):
        s = types.SimpleNamespace(files={})

        def write(name, obj):
            s.files[name] = self.write(f"{k}-{name}", obj)

        s.tri = relabel(TRIANGLE, rng)
        write("C.json", complex_json(s.tri))
        write("R.json", complex_json(relabel(PROJECTIVE_PLANE, rng)))
        verts = s.tri[0]
        s.p = simplex_point(rng, rng.sample(verts, 3), "generic")
        while True:
            s.q = simplex_point(rng, rng.sample(verts, 3), "tie")
            if (O.reference_thread(s.q, CLI_TOWER_DEPTH)
                    != O.reference_thread(s.p, CLI_TOWER_DEPTH)):
                break
        write("p.json", coords_json(s.p))
        write("q.json", coords_json(s.q))
        s.thread = O.reference_thread(s.p, CLI_TOWER_DEPTH)
        write("t.json", {"entries": s.thread})

        # A fixed order relation under seeded names: the number of chains, and
        # with it the cost of the order complex, differs many times over
        # between random posets.
        names = vertex_names(rng, 8)
        shape = random.Random("cli-session poset")
        pairs = [[names[i], names[j]] for i in range(8) for j in range(i + 1, 8)
                 if shape.random() < 0.3]
        s.poset_up = O.up_closure(names, pairs)
        write("P.json", {"elements": sorted(names), "leq": pairs})

        # An edge, subdivided once, mapped piecewise-affinely around a circle.
        # Only the labels are seeded: the approximating stage depends on the
        # images, and with it the cost of the command.
        u, w = vertex_names(rng, 2)
        x, y, z = vertex_names(rng, 3)
        s.circle = O.closure([[x, y], [y, z], [x, z]])
        s.source = O.closure([[u, w]])
        images = {u: {x: 1}, O.vertex_label([u, w]): {y: 1}, w: {z: 1}}
        write("h.json", {"source": complex_json([[u, w]]), "target": complex_json(
            [[x, y], [y, z], [x, z]]), "stage": 1,
            "images": {v: coords_json(c) for v, c in images.items()}})
        s.commands = script(s.files)
        return s

    def setup(self):
        from poset_tower import cli
        self.cli = cli
        self.K = self.load_complex("0-C.json")

    def op(self, i):
        out = []
        for name, argv in self.sets[i % CLI_INPUT_SETS].commands:
            if name == "tower_verify":
                argv = argv + [str(self.verify_seeds[i % 4096])]
            if self.tracer is None:
                out.append((name,) + run_cli(self.cli, argv))
            else:
                with self.tracer.span(f"cli.{name}_s"):
                    out.append((name,) + run_cli(self.cli, argv))
        return out

    def check(self, i, out):
        results = {}
        for name, code, stdout, err in out:
            expect(code == 0, f"{name}: exit status {code}: {err.strip()}")
            results[name] = stdout
        check_cli_outputs(self.sets[i % CLI_INPUT_SETS], results, self.verify_seeds[i % 4096])

    def probe_context(self):
        tri = self.sets[0].tri
        return ProbeContext(self.K, small_depth=1, tower_depth=CLI_TOWER_DEPTH,
                            points=sample_points(self.probe_rng(), tri[0], 16),
                            stage_simplices=sum(O.f_vector_at(O.f_vector(
                                O.closure(tri)), CLI_STAGE)))


def script(f):
    return [
        ("complex_validate", ["complex", "validate", f["C.json"]]),
        ("complex_subdivide", ["complex", "subdivide", f["C.json"], "--stage", str(CLI_STAGE)]),
        ("poset_face_poset", ["poset", "face-poset", f["C.json"]]),
        ("poset_core", ["poset", "core", f["P.json"]]),
        ("poset_order_complex", ["poset", "order-complex", f["P.json"]]),
        ("poset_dot", ["poset", "dot", f["P.json"]]),
        ("tower_build", ["tower", "build", f["C.json"], "--depth", "2"]),
        ("tower_encode", ["tower", "encode", f["C.json"], "--point", f["p.json"],
                          "--depth", str(CLI_TOWER_DEPTH)]),
        ("tower_decode", ["tower", "decode", f["C.json"], "--thread", f["t.json"]]),
        ("tower_validate", ["tower", "validate", f["C.json"], "--thread", f["t.json"]]),
        ("tower_separate", ["tower", "separate", f["C.json"], "--p", f["p.json"],
                            "--q", f["q.json"], "--depth", str(CLI_TOWER_DEPTH)]),
        ("homology", ["homology", f["R.json"]]),
        ("approx", ["approx", "--map", f["h.json"], "--cap", "4"]),
        ("tower_verify", ["tower", "verify", f["C.json"], "--suite", "roundtrip",
                          "--depth", str(CLI_VERIFY_DEPTH), "--seed"]),
    ]


def face_label(s):
    return "{" + ",".join(sorted(s)) + "}"


def check_cli_outputs(inp, results, verify_seed):
    """Check every command's output of one script run over input set ``inp``."""
    js = {k: json.loads(v) for k, v in results.items() if k != "poset_dot"}
    tri = O.closure(inp.tri)
    f = O.f_vector(tri)

    expect(js["complex_validate"] == complex_json(inp.tri), "complex validate")

    sd = js["complex_subdivide"]
    got = {frozenset(s) for s in sd["complex"]["simplices"]}
    expect(sd["stage"] == CLI_STAGE and got == O.subdivide(tri, CLI_STAGE),
           "complex subdivide simplices")
    expect(O.f_vector(got) == O.f_vector_at(f, CLI_STAGE), "subdivision f-vector")
    for entry in sd["provenance"]:
        for lab, members in entry["carriers"].items():
            expect(members == O.carrier(lab, entry["stage"]), f"carrier of {lab}")

    fp = js["poset_face_poset"]
    expect(fp["elements"] == sorted(face_label(s) for s in tri), "face poset elements")
    want = {(face_label(t), face_label(s)) for s in tri for t in tri
            if len(t) == len(s) - 1 and t < s}
    expect({tuple(p) for p in fp["leq"]} == want, "face poset covers")

    up = inp.poset_up
    cp = js["poset_core"]
    kept = set(cp["elements"])
    expect(kept <= set(up), "core elements")
    sub = {x: up[x] & kept for x in kept}
    expect({tuple(p) for p in cp["leq"]} == O.covers(sub), "core order")
    expect(not any(O.is_beat_point(sub, x) for x in sub), "core has a beat point")
    expect(len(kept) == O.core_size(up), "core size")

    oc = js["poset_order_complex"]
    expect({frozenset(s) for s in oc["simplices"]} == O.chains(up), "order complex chains")

    dot = results["poset_dot"].splitlines()
    want_edges = {f'  "{a}" -> "{b}";' for a, b in O.covers(up)}
    expect(dot[0] == "digraph hasse {" and dot[-1] == "}"
           and set(dot[1:len(up) + 1]) == {f'  "{x}";' for x in up}
           and set(dot[len(up) + 1:-1]) == want_edges
           and len(dot) == len(up) + len(want_edges) + 2, "dot output")

    tb = js["tower_build"]
    stage = tri
    for n, level in enumerate(tb["levels"], start=1):
        labels = {O.vertex_label(s) for s in stage}
        expect(level["n"] == n and set(level["elements"]) == labels
               and len(labels) == sum(O.f_vector_at(f, n - 1)), f"level {n} elements")
        expect(all(level["carriers"][x] == O.carrier(x, n) for x in labels),
               f"level {n} carriers")
        want = {(O.vertex_label(t), O.vertex_label(s)) for s in stage for t in stage
                if len(t) == len(s) - 1 and t < s}
        expect({tuple(p) for p in level["leq"]} == want, f"level {n} order")
        stage = O.sd_once(stage)

    expect(js["tower_encode"]["entries"] == inp.thread, "encode")
    dec = js["tower_decode"]
    expect(dec["chain"] == [sorted(O.carrier(x, n)) for n, x in enumerate(inp.thread, start=1)],
           "decode chain")
    O.check_decoded(inp.p, inp.thread, O.fractions(dec["representative"]["coords"]),
                    Fraction(dec["err_sq_bound"]), 2)
    expect(js["tower_validate"] == {"coherent": True}, "validate")
    tp = O.reference_thread(inp.p, CLI_TOWER_DEPTH)
    tq = O.reference_thread(inp.q, CLI_TOWER_DEPTH)
    first = next(n for n in range(CLI_TOWER_DEPTH) if tp[n] != tq[n]) + 1
    expect(js["tower_separate"] == {"stage": first}, "separation stage")

    hom = js["homology"]
    O.check_homology("RP2", O.f_vector(O.closure(PROJECTIVE_PLANE)),
                     hom["betti"], hom["torsion"])

    ap = js["approx"]
    n = ap["n"]
    source = O.subdivide(inp.source, n)
    vm = ap["vertex_map"]
    expect(set(vm) == {v for s in source for v in s}, "approx vertex map domain")
    expect(all(frozenset(vm[v] for v in s) in inp.circle for s in source),
           "approx maps a source simplex outside the target simplices")
    expect(ap["verification"]["simplicial"] and ap["verification"]["carrier_homotopy"],
           "approx self-check")

    rt = js["tower_verify"]
    sizes = sum(sum(O.f_vector_at(f, k)) for k in range(CLI_VERIFY_DEPTH))
    expect(len(rt) == 1 and rt[0]["passed"] and rt[0]["seed"] == verify_seed
           and {c["name"]: c["detail"] for c in rt[0]["checks"]}["decode-encode-round-trip"]
           == f"{sizes} threads", "verify roundtrip")


# -- traced-run inputs -----------------------------------------------------------


def sample_points(rng, verts, count):
    kinds = ["generic", "tie", "face", "midpoint", "barycentre", "vertex"]
    return [simplex_point(rng, rng.sample(list(verts), len(verts)), kinds[i % len(kinds)])
            for i in range(count)]


class ProbeContext:
    """What the traced run's direct layer calls use, taken from the workload's inputs.

    ``small_depth`` bounds the calls whose cost explodes with depth (open-star
    sweeps, posets of a stage, verify suites); ``tower_depth`` is the depth of
    the thread calls; ``homology`` lists the complexes of the homology calls.
    """

    def __init__(self, K, small_depth, tower_depth, points, stage_simplices,
                 homology=None):
        self.K = K
        self.small_depth = small_depth
        self.tower_depth = tower_depth
        self.points = points
        self.stage_simplices = stage_simplices
        self.homology = homology


WORKLOADS = {w.name: w for w in (VerifyAll, HomologySurfaces, CodecTriangle, CliSession)}


def traced_cli_script(seed, workdir, tracer):
    """Run the cli-session script once under spans and check its outputs."""
    session = CliSession(seed, workdir)
    session.setup()
    session.tracer = tracer
    out = session.op(0)
    session.check(0, out)
    tracer.counters["cli.stdout_bytes"] = sum(len(stdout) for _, _, stdout, _ in out)
    return session
