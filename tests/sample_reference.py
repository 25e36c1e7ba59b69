"""The draw loop of ``verify.sample_points`` written with ``random``'s own methods, and a check against it.

``reference_sample`` draws through ``rng.choice``, ``rng.randint(0, 6)`` and
``rng.randrange(len(weights))`` and makes one fresh point per draw.
``sample_points`` reads the same stream through ``rng.getrandbits``, so on
every input it must give the same values in the same order, with equal values
one object and distinct values distinct objects.

Run as a script, it compares the two on every fixture with seeds 0 to 399,
a few seeds near 10**12 and counts 0, 1, 7, 50 and 200, prints the number of
cases and exits 1 naming each one that differs:

    PYTHONPATH=src python tests/sample_reference.py

It imports only the standard library and ``poset_tower``, so an interpreter
without pytest can run it.
"""

from __future__ import annotations

import random
import sys

from poset_tower.complexes import RationalPoint
from poset_tower.fixtures import circle, edge, point, tetra_boundary, triangle
from poset_tower.verify import sample_points

FIXTURES = {"point": point, "edge": edge, "circle": circle,
            "triangle": triangle, "tetra-boundary": tetra_boundary}
SEEDS = [*range(400), 10**12 - 1, 10**12]
COUNTS = [0, 1, 7, 50, 200]


def reference_sample(K, count, seed):
    """The sample drawn with ``random``'s methods, making one fresh point per draw."""
    rng = random.Random(seed)
    sims = K.sorted_simplices()
    points = []
    for _ in range(count):
        s = rng.choice(sims)
        weights = [rng.randint(0, 6) for _ in s.verts]
        if not any(weights):
            weights[rng.randrange(len(weights))] = 1
        points.append(RationalPoint._from_numerators(K, sum(weights), dict(zip(s.verts, weights))))
    return points


def mismatch(got, want):
    """Why the sample ``got`` is not ``want`` in values and identity pattern, or None if it is."""
    if got != want:
        return "values differ"
    objects = {}
    for g, w in zip(got, want):
        key = (w._denominator, tuple(sorted(w._numerators.items())))
        if objects.setdefault(key, id(g)) != id(g):
            return f"equal values {w} are two objects"
    if len(objects) != len({id(g) for g in got}):
        return "one object holds two values"
    return None


def main():
    failed = []
    cases = 0
    for name, make in FIXTURES.items():
        K = make()
        for seed in SEEDS:
            for count in COUNTS:
                cases += 1
                why = mismatch(sample_points(K, count, seed), reference_sample(K, count, seed))
                if why:
                    failed.append(f"{name} seed {seed} count {count}: {why}")
    print(f"{cases} cases, {len(failed)} differ")
    for line in failed:
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
