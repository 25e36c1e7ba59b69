"""A stateful test of the tower's caches.

Towers over one base are built, deepened and read in random order: stages,
stage complexes, level orders, bonds, and threads that are encoded, parsed,
validated and decoded, also by another tower over the same base.  Each
answer is compared with a fresh ``Tower.build`` of the same base and depth,
which no rule touches, and each bond with a walk of ``largest_carrier``
over the carrier tables that reads no chain's last id.  Labels are parsed
back into element ids at random levels, and every label a stage has
memoised must render back from its id.
"""

import json

from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

import pytest

from poset_tower import Simplex, stage_vertex_label
from poset_tower.errors import ElementNotFound, IncoherentThread, LevelOutOfRange
from poset_tower.subdivision import _set_members
from poset_tower.tower import ThreadPrefix, Tower

from conftest import largest_carrier, rational_points, small_complexes

MAX_DEPTH = 4
depths = st.integers(1, MAX_DEPTH)


def walked_bond(tower: Tower, x: str, m: int, n: int) -> str:
    """``Tower.bond`` walked down the carrier tables by carrier size, reading no chain's last id."""
    for k in range(m, n, -1):
        x = largest_carrier(tower.level(k).carrier[x].verts, tower.level(k - 1).carrier)
    return x


def first_mismatch(tower: Tower, entries) -> int | None:
    """The first level whose entry does not bond to the entry before, by ``walked_bond``."""
    return next((n for n in range(2, len(entries) + 1)
                 if walked_bond(tower, entries[n - 1], n, n - 1) != entries[n - 2]), None)


class TowerCaches(RuleBasedStateMachine):
    towers = Bundle("towers")
    threads = Bundle("threads")

    @initialize(target=towers, K=small_complexes(), depth=depths)
    def build_first(self, K, depth):
        self.base = K
        self.fresh = {}
        self.built = []
        return self._keep(Tower.build(K, depth))

    def _keep(self, tower):
        self.built.append(tower)
        return tower

    def reference(self, depth: int) -> Tower:
        """The fresh tower of this depth; built on first use, read only by comparisons."""
        if depth not in self.fresh:
            self.fresh[depth] = Tower.build(self.base, depth)
        return self.fresh[depth]

    @rule(target=towers, depth=depths)
    def build(self, depth):
        return self._keep(Tower.build(self.base, depth))

    @rule(target=towers, tower=towers, depth=depths)
    def deepen(self, tower, depth):
        deeper = tower.deepened(depth)
        assert all(a is b for a, b in zip(deeper.levels, tower.levels))
        return self._keep(deeper)

    @rule(tower=towers, data=st.data())
    def read_stage(self, tower, data):
        k = data.draw(st.integers(0, tower.depth), label="k")
        ref = self.reference(tower.depth).stage(k)
        stage = tower.stage(k)
        assert stage.complex == ref.complex
        assert stage.provenance == ref.provenance

    @rule(tower=towers, data=st.data())
    def read_stage_complex(self, tower, data):
        """A stage's complex, built on its first read, whenever that read comes."""
        k = data.draw(st.integers(0, tower.depth), label="k")
        cx = tower.stage(k).complex
        ref = Tower.build(self.base, tower.depth).stage(k).complex
        assert (cx.vertices, cx.simplices, cx.dim) == (ref.vertices, ref.simplices, ref.dim)
        assert tower.stage(k).complex is cx

    @rule(tower=towers, data=st.data())
    def read_level_order(self, tower, data):
        n = data.draw(st.integers(1, tower.depth), label="n")
        x = data.draw(st.sampled_from(tower.level(n).elements), label="x")
        ref = self.reference(tower.depth).level(n)
        assert tower.level(n).poset.up_set(x) == ref.poset.up_set(x)

    @rule(tower=towers, data=st.data())
    def bond(self, tower, data):
        """A bond from level m, and from every deeper level, where x persists."""
        m = data.draw(st.integers(1, tower.depth), label="m")
        n = data.draw(st.integers(1, m), label="n")
        x = data.draw(st.sampled_from(tower.level(m).elements), label="x")
        ref = self.reference(tower.depth)
        for k in range(m, tower.depth + 1):
            expected = walked_bond(ref, x, k, n)
            assert tower.bond(x, k, n) == expected
            assert walked_bond(tower, x, k, n) == expected

    @rule(target=threads, tower=towers, data=st.data())
    def encode(self, tower, data):
        p = data.draw(rational_points(self.base), label="p")
        N = data.draw(st.integers(1, tower.depth), label="N")
        t = tower.encode_thread(p, N)
        assert t.entries == self.reference(tower.depth).encode_thread(p, N).entries
        return t

    @rule(target=threads, t=threads, data=st.data())
    def tamper(self, t, data):
        """Replace one entry by another element of its level; the thread may stay coherent."""
        n = data.draw(st.integers(1, len(t)), label="n")
        x = data.draw(st.sampled_from(t.tower.level(n).elements), label="x")
        return ThreadPrefix(t.tower, t.entries[:n - 1] + (x,) + t.entries[n:])

    @rule(t=threads)
    def parse_validate_decode(self, t):
        tower = t.tower
        parsed = tower.thread(json.loads(json.dumps(t.to_json_obj()))["entries"])
        assert parsed.entries == t.entries
        self._check(tower, t)
        self._check(tower, parsed)

    @rule(t=threads, other=towers)
    def validate_on_another_tower(self, t, other):
        """A thread read by another tower over the base, deeper, shallower or the same."""
        if len(t) > other.depth:
            with pytest.raises(LevelOutOfRange):
                other.validate_thread(t)
        else:
            self._check(other, t)

    def _check(self, tower, t):
        ref = self.reference(tower.depth)
        bad = first_mismatch(ref, t.entries)
        for _ in range(2):
            assert tower.validate_thread(t) is (bad is None)
            assert ref.validate_thread(ref.thread(t.entries)) is (bad is None)
            if bad is None:
                assert tower.decode_thread(t) == ref.decode_thread(ref.thread(t.entries))
            else:
                with pytest.raises(IncoherentThread, match=f"^level {bad} entry "):
                    tower.decode_thread(t)

    @rule(tower=towers, data=st.data())
    def resolve_label(self, tower, data):
        """A rendered label, a carrier-set spelling of one, or a non-element, at a random level.

        The entry is resolved by this tower, whose stages may be labelled in
        full already, and by a fresh one, which labels the stage it reads.  The
        answer is read off a third tower's carrier table: an entry is its own
        label, or the canonical label of its set of members.
        """
        n = data.draw(st.integers(1, tower.depth), label="n")
        m = data.draw(st.integers(1, tower.depth), label="m")
        table = Tower.build(self.base, tower.depth)
        x = data.draw(st.sampled_from(table.level(m).elements), label="x")
        members = table.level(m).carrier[x].verts[::-1]
        raw = data.draw(st.sampled_from([
            x, "{" + ",".join(members) + "}", "b{" + ",".join(members) + "}",
            "b{" + x + "}", "b{" + x + "," + x + "}", x + "}", "nope",
        ]), label="raw")
        carrier = table.level(n).carrier
        spelt = _set_members(raw)
        expected = next((y for y in [raw, spelt and stage_vertex_label(Simplex(spelt))]
                         if y in carrier), None)
        for resolver in (tower, Tower.build(self.base, tower.depth)):
            assert (raw in resolver.level(n)) is (raw in carrier)
            if expected is None:
                with pytest.raises(ElementNotFound, match=f"at level {n}"):
                    resolver._resolve_label(raw, n)
            else:
                label, i = resolver._resolve_label(raw, n)
                assert label == expected and resolver.levels[n - 1]._stage._name(i) == expected

    @invariant()
    def one_step_bonds_match_the_walk(self):
        for tower in getattr(self, "built", ()):
            for level in tower.levels[1:]:
                below = tower.levels[level.n - 2]._stage
                for x, i in list(level._stage._ids.items()):
                    bond = tower._bond(i, level.n, level.n - 1)
                    assert below._name(bond) == walked_bond(tower, x, level.n, level.n - 1)

    @invariant()
    def memoised_labels_render_from_their_ids(self):
        for tower in getattr(self, "built", ()):
            for stage in tower._stages:
                for label, i in list(stage._ids.items()):
                    assert stage._name(i) == label


# The explain phase is left out: in Hypothesis 6.155 it can stop on an
# internal assertion while explaining a failure, which hides the failing steps.
TowerCaches.TestCase.settings = settings(
    max_examples=50, stateful_step_count=20,
    phases=[p for p in Phase if p is not Phase.explain])
TestTowerCaches = TowerCaches.TestCase
