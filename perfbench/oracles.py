"""Reference computations the benchmark checks the program's outputs against.

Everything here is written from the definitions in the package README and
the paper, not from the package's code, and imports nothing from it: labels
are parsed from their text, subdivisions are enumerated as chains of faces,
threads are encoded by sorting coordinates and taking prefix barycentres.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial


class CheckFailed(Exception):
    """An output of the program disagrees with a reference computation."""


def expect(ok, what):
    if not ok:
        raise CheckFailed(what)


# -- labels -----------------------------------------------------------------


def vertex_label(members):
    """Label of the barycentre of a simplex given by its member labels."""
    ms = sorted(members)
    return ms[0] if len(ms) == 1 else "b{" + ",".join(ms) + "}"


def label_members(label):
    """Top-level members of a barycentre label; a plain vertex is its own member."""
    if not label.startswith("b{"):
        return [label]
    inner, out, depth, start = label[2:-1], [], 0, 0
    for i, ch in enumerate(inner):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == "," and depth == 0:
            out.append(inner[start:i])
            start = i + 1
    out.append(inner[start:])
    return out


def birth_stage(label):
    """The stage at which a vertex first appears: the brace depth of its label.

    Vertices persist through subdivision under their old labels, so a label
    alone does not say at which stage it is read.
    """
    depth = deepest = 0
    for ch in label:
        if ch == "{":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == "}":
            depth -= 1
    return deepest


def carrier(label, stage):
    """Members of the stage-(n-1) simplex whose barycentre is this stage-n vertex."""
    return [label] if birth_stage(label) < stage else label_members(label)


def bond_down(label, level):
    """The level-(n-1) element under a level-n element: its largest carrier member."""
    return max(carrier(label, level), key=lambda m: len(carrier(m, level - 1)))


def embed(label, memo):
    """Stage-0 barycentric coordinates of a vertex of any stage."""
    got = memo.get(label)
    if got is None:
        members = label_members(label)
        if len(members) == 1:
            got = {label: Fraction(1)}
        else:
            got = {}
            w = Fraction(1, len(members))
            for m in members:
                for v, a in embed(m, memo).items():
                    got[v] = got.get(v, 0) + w * a
        memo[label] = got
    return got


# -- complexes and subdivision ------------------------------------------------


def closure(maximal):
    """All nonempty faces of the given simplices, as frozensets of labels."""
    out = set()
    for s in maximal:
        for k in range(1, len(s) + 1):
            out.update(frozenset(c) for c in combinations(sorted(s), k))
    return out


def f_vector(simplices):
    dim = max(len(s) for s in simplices) - 1
    f = [0] * (dim + 1)
    for s in simplices:
        f[len(s) - 1] += 1
    return f


def stirling2(n, k):
    """Stirling number of the second kind S(n, k)."""
    row = [1] + [0] * k
    for i in range(1, n + 1):
        new = [0] * (k + 1)
        for j in range(1, min(i, k) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def sd_f_vector(f):
    """f_j(sd K) = sum_i f_i(K) (j+1)! S(i+1, j+1)."""
    return [sum(f[i] * factorial(j + 1) * stirling2(i + 1, j + 1)
                for i in range(len(f)))
            for j in range(len(f))]


def f_vector_at(f, stage):
    for _ in range(stage):
        f = sd_f_vector(f)
    return f


def sd_once(simplices):
    """Barycentric subdivision: the chains of faces, over barycentre labels."""
    label = {s: vertex_label(s) for s in simplices}
    by_size = sorted(simplices, key=len)
    chains = {}
    for s in by_size:
        mine = {frozenset([label[s]])}
        for k in range(1, len(s)):
            for face in combinations(sorted(s), k):
                for c in chains[frozenset(face)]:
                    mine.add(c | {label[s]})
        chains[s] = mine
    return set().union(*chains.values())


def subdivide(simplices, stage):
    for _ in range(stage):
        simplices = sd_once(simplices)
    return simplices


def euler(f):
    return sum((-1) ** k * x for k, x in enumerate(f))


KNOWN_HOMOLOGY = {
    "disk": ([1, 0, 0], [[], [], []]),
    "S1": ([1, 1], [[], []]),
    "S2": ([1, 0, 1], [[], [], []]),
    "RP2": ([1, 0, 0], [[], [2], []]),
}


def check_homology(name, f, betti, torsion):
    want_betti, want_torsion = KNOWN_HOMOLOGY[name]
    expect(list(betti) == want_betti, f"{name}: betti {list(betti)} != {want_betti}")
    expect([list(t) for t in torsion] == want_torsion,
           f"{name}: torsion {torsion} != {want_torsion}")
    expect(euler(f) == euler(betti), f"{name}: Euler characteristic of {f} != {betti}")


# -- points and threads -------------------------------------------------------


def sd_step(coords):
    """Coordinates over the next stage: prefix barycentres of the descending sort."""
    items = sorted(coords.items(), key=lambda kv: (-kv[1], kv[0]))
    out = {}
    for j in range(1, len(items) + 1):
        nxt = items[j][1] if j < len(items) else 0
        w = j * (items[j - 1][1] - nxt)
        if w > 0:
            out[vertex_label([lab for lab, _ in items[:j]])] = w
    return out


def reference_thread(coords, depth):
    """Entry n is the barycentre of the support of the point at stage n-1."""
    cur = {v: a for v, a in coords.items() if a > 0}
    entries = []
    for n in range(1, depth + 1):
        entries.append(vertex_label(cur))
        if n < depth:
            cur = sd_step(cur)
    return entries


def check_coherent(entries):
    for k in range(1, len(entries)):
        expect(bond_down(entries[k], k + 1) == entries[k - 1],
               f"entries {k} and {k + 1} are not matched by the bond")


def dist_sq(p, q):
    return sum((p.get(v, 0) - q.get(v, 0)) ** 2 for v in set(p) | set(q))


def err_sq_bound(dim, level):
    """2 (d/(d+1))^(2(N-1)): squared diameter of a stage-(N-1) simplex."""
    return Fraction(0) if dim <= 0 else 2 * Fraction(dim, dim + 1) ** (2 * (level - 1))


def fractions(coords):
    return {v: Fraction(a) for v, a in coords.items()}


def check_decoded(p, entries, rep, bound, dim):
    """Representative, bound and distance of a decoded thread prefix."""
    rep = {v: a for v, a in rep.items() if a}
    want = {v: a for v, a in embed(entries[-1], {}).items() if a}
    expect(rep == want, f"representative {rep} != barycentre {want}")
    expect(bound == err_sq_bound(dim, len(entries)), f"error bound {bound}")
    expect(dist_sq(p, rep) <= bound, "representative outside the error bound")


# -- posets -------------------------------------------------------------------


def up_closure(elements, pairs):
    """x -> set of y with x <= y, reflexive and transitive."""
    adj = {x: set() for x in elements}
    for a, b in pairs:
        adj[a].add(b)
    up = {}
    for x in elements:
        seen, stack = {x}, [x]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        up[x] = seen
    return up


def covers(up):
    """Pairs (a, b) with a < b and nothing strictly between."""
    return {(a, b) for a in up for b in up[a]
            if a != b and not any(c not in (a, b) and b in up[c] for c in up[a])}


def is_beat_point(up, x):
    """The strict up-set of x has a minimum, or its strict down-set a maximum."""
    above = up[x] - {x}
    if above and any(all(u in up[m] for u in above) for m in above):
        return True
    below = {y for y in up if x in up[y]} - {x}
    return bool(below) and any(all(m in up[d] for d in below) for m in below)


def core_size(up):
    """Size of the core: removing beat points in any order ends at the same size."""
    up = {x: set(s) for x, s in up.items()}
    while True:
        beat = next((x for x in sorted(up) if is_beat_point(up, x)), None)
        if beat is None:
            return len(up)
        up = {y: s - {beat} for y, s in up.items() if y != beat}


def chains(up):
    """All nonempty chains, as frozensets."""
    out = set()

    def grow(chain, top):
        out.add(chain)
        for y in up[top]:
            if y != top:
                grow(chain | {y}, y)

    for x in up:
        grow(frozenset([x]), x)
    return out
