"""Finite posets, cores, and the two functors between posets and complexes.

A finite poset doubles as a finite T0 topological space: the basic open sets
of the topology used by the tower are the up-sets ``{y | y >= x}``, while the
classical minimal open neighbourhoods are the down-sets ``{y | y <= x}``.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping

from .complexes import Simplex, SimplicialComplex
from .errors import ElementNotFound, InvalidInput, NotAPartialOrder, ResourceLimit


def _is_labels(raw) -> bool:
    """Whether ``raw`` is an array of string labels."""
    return isinstance(raw, (list, tuple)) and all(isinstance(x, str) for x in raw)


class FinitePoset:
    """An immutable finite partial order with O(1) comparability queries.

    The relation is stored as per-element down-sets and up-sets (reflexive,
    transitively closed); the Hasse diagram is derived lazily.
    """

    __slots__ = ("elements", "_down", "_up", "_covers")

    def __init__(self, elements, down, up):
        self.elements = elements
        self._down = down
        self._up = up
        self._covers = None

    @classmethod
    def from_pairs(cls, elements: Iterable[str], pairs: Iterable[tuple]) -> "FinitePoset":
        """Build from arbitrary (a, b) pairs meaning a <= b.

        The reflexive-transitive closure is computed; a cycle through distinct
        elements raises NotAPartialOrder.
        """
        els = set(elements)
        adj: dict[str, set[str]] = {}
        for a, b in pairs:
            els.add(a)
            els.add(b)
            adj.setdefault(a, set()).add(b)
        ordered = tuple(sorted(els))
        up = {}
        for x in ordered:
            seen = {x}
            stack = [x]
            while stack:
                cur = stack.pop()
                for nxt in adj.get(cur, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            up[x] = frozenset(seen)
        for x in ordered:
            for y in up[x]:
                if y != x and x in up[y]:
                    raise NotAPartialOrder(f"{x!r} and {y!r} are mutually comparable")
        down: dict[str, set[str]] = {x: {x} for x in ordered}
        for x in ordered:
            for y in up[x]:
                down[y].add(x)
        return cls(ordered, {x: frozenset(s) for x, s in down.items()}, up)

    @classmethod
    def from_down_sets(cls, elements: Iterable[str], down: Mapping[str, frozenset]) -> "FinitePoset":
        """Build from down-sets that are already reflexive and transitively closed.

        Reflexivity and antisymmetry are verified; transitivity is trusted, so
        only use this for relations closed by construction.
        """
        ordered = tuple(sorted(elements))
        dn = {x: frozenset(down[x]) for x in ordered}
        up: dict[str, set[str]] = {x: {x} for x in ordered}
        for x in ordered:
            if x not in dn[x]:
                raise NotAPartialOrder(f"{x!r} missing from its own down-set")
            for y in dn[x]:
                up[y].add(x)
        for x in ordered:
            for y in dn[x]:
                if y != x and x in dn[y]:
                    raise NotAPartialOrder(f"{x!r} and {y!r} are mutually comparable")
        return cls(ordered, dn, {x: frozenset(s) for x, s in up.items()})

    def _check(self, x):
        if x not in self._down:
            raise ElementNotFound(repr(x))

    def leq(self, a, b) -> bool:
        self._check(a)
        self._check(b)
        return a in self._down[b]

    def up_set(self, x) -> frozenset:
        """Basic open set of the up-set topology: all y >= x."""
        self._check(x)
        return self._up[x]

    def min_open(self, x) -> frozenset:
        """Minimal open neighbourhood in the classical convention: all y <= x."""
        self._check(x)
        return self._down[x]

    def strict_up(self, x) -> frozenset:
        return self.up_set(x) - {x}

    def strict_down(self, x) -> frozenset:
        return self.min_open(x) - {x}

    def covers(self) -> dict:
        """Hasse diagram: maps each element to the tuple of elements it covers."""
        if self._covers is None:
            cov = {}
            for y in self.elements:
                below = self.strict_down(y)
                cov[y] = tuple(sorted(
                    m for m in below
                    if not any(m != d and m in self._down[d] for d in below)))
            self._covers = cov
        return self._covers

    def hasse_pairs(self):
        """Sorted (lower, upper) pairs of the transitive reduction."""
        out = []
        for y, lows in self.covers().items():
            for m in lows:
                out.append((m, y))
        return sorted(out)

    def restrict(self, keep) -> "FinitePoset":
        keep = frozenset(keep)
        for x in keep:
            self._check(x)
        ordered = tuple(sorted(keep))
        down = {x: self._down[x] & keep for x in ordered}
        up = {x: self._up[x] & keep for x in ordered}
        return FinitePoset(ordered, down, up)

    def is_up_set(self, subset) -> bool:
        subset = set(subset)
        return all(self._up[x] <= subset for x in subset)

    def pairs(self):
        """All non-reflexive (a, b) with a < b, in canonical order."""
        for b in self.elements:
            for a in sorted(self._down[b]):
                if a != b:
                    yield (a, b)

    def to_json_obj(self):
        return {
            "elements": list(self.elements),
            "leq": [[a, b] for a, b in self.hasse_pairs()],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "FinitePoset":
        if not isinstance(obj, dict):
            raise InvalidInput(f"a poset must be a JSON object, not {type(obj).__name__}")
        elements = obj.get("elements", [])
        pairs = obj.get("leq", [])
        if not _is_labels(elements):
            raise InvalidInput(f"poset elements must be an array of labels, not {elements!r}")
        if not isinstance(pairs, (list, tuple)):
            raise InvalidInput(f"poset leq must be an array of pairs, not {pairs!r}")
        for pair in pairs:
            if not (_is_labels(pair) and len(pair) == 2):
                raise InvalidInput(f"poset leq entry {pair!r} is not a [lower, upper] pair")
        return cls.from_pairs(elements, pairs)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._down

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        return (isinstance(other, FinitePoset)
                and self.elements == other.elements
                and self._down == other._down)

    def __repr__(self):
        return f"FinitePoset({len(self.elements)} elements)"


class PosetMap:
    """A total map between finite posets."""

    __slots__ = ("source", "target", "assignment")

    def __init__(self, source: FinitePoset, target: FinitePoset, assignment: Mapping):
        for x in source.elements:
            if x not in assignment:
                raise ElementNotFound(f"no image for {x!r}")
            if assignment[x] not in target:
                raise ElementNotFound(f"image {assignment[x]!r} not in target poset")
        self.source = source
        self.target = target
        self.assignment = dict(assignment)

    def __call__(self, x):
        return self.assignment[x]

    def is_order_preserving(self) -> bool:
        f = self.assignment
        for x in self.source.elements:
            for y in self.source.up_set(x):
                if not self.target.leq(f[x], f[y]):
                    return False
        return True


def is_order_preserving(f: PosetMap) -> bool:
    return f.is_order_preserving()


def up_set(X: FinitePoset, x) -> frozenset:
    return X.up_set(x)


def min_open(X: FinitePoset, x) -> frozenset:
    return X.min_open(x)


def _beat_point(X: FinitePoset, x) -> bool:
    """Beat point test: the strict up-set has a minimum, or dually a maximum below."""
    above = X.strict_up(x)
    if above and any(all(X.leq(m, u) for u in above) for m in above):
        return True
    below = X.strict_down(x)
    if below and any(all(X.leq(d, m) for d in below) for m in below):
        return True
    return False


def core(X: FinitePoset) -> FinitePoset:
    """Iteratively remove beat points (canonical scan order) until none remain."""
    current = X
    while True:
        for x in current.elements:
            if _beat_point(current, x):
                current = current.restrict(set(current.elements) - {x})
                break
        else:
            return current


def _simplex_cap():
    """The ``POSET_TOWER_MAX_SIMPLICES`` cap, or None when it is unset or empty."""
    raw = os.environ.get("POSET_TOWER_MAX_SIMPLICES")
    if not raw:
        return None
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise InvalidInput(
            f"POSET_TOWER_MAX_SIMPLICES must be a non-negative integer, not {raw!r}")
    return cap


def _chains(below: Mapping, what: str) -> list:
    """Every nonempty chain of a strict order, as ``Simplex``es, under ``_simplex_cap``.

    ``below`` maps each element to all elements strictly below it, so each
    chain is walked once, down from its top; ``what`` names it in the error.
    """
    cap = _simplex_cap()
    chains = []
    for x in below:
        stack = [(x, (x,))]
        while stack:
            top, path = stack.pop()
            chains.append(Simplex(path))
            if cap is not None and len(chains) > cap:
                raise ResourceLimit(f"{what} exceeds POSET_TOWER_MAX_SIMPLICES={cap}")
            for y in below[top]:
                stack.append((y, path + (y,)))
    return chains


def order_complex(X: FinitePoset) -> SimplicialComplex:
    """The complex whose simplices are the nonempty chains of X."""
    below = {x: X.strict_down(x) for x in X.elements}
    return SimplicialComplex(X.elements, _chains(below, "order complex"))


def face_poset(K: SimplicialComplex) -> FinitePoset:
    """The poset of simplices of K ordered by inclusion; elements are set labels."""
    label = {s: s.label() for s in K.simplices}
    down = {}
    for s in K.simplices:
        down[label[s]] = frozenset(f.label() for f in s.faces_with_self())
    return FinitePoset.from_down_sets(down.keys(), down)


def check_order_isomorphism(P: FinitePoset, Q: FinitePoset, mapping: Mapping) -> bool:
    """Verify that an explicit candidate map is an order isomorphism.

    A bijection is an order isomorphism exactly when it maps every down-set
    onto the down-set of the image, which is linear in the relation's size.
    """
    if len(P) != len(Q):
        return False
    image = set()
    for x in P.elements:
        y = mapping.get(x)
        if y is None or y not in Q:
            return False
        image.add(y)
    if len(image) != len(Q):
        return False
    return all({mapping[a] for a in P.min_open(x)} == Q.min_open(mapping[x])
               for x in P.elements)


def are_isomorphic(P: FinitePoset, Q: FinitePoset) -> bool:
    """Order-isomorphism test by iterative colour refinement plus backtracking."""
    if len(P) != len(Q):
        return False

    def refine(X: FinitePoset):
        colour = {x: (len(X.min_open(x)), len(X.up_set(x))) for x in X.elements}
        while True:
            fresh = {}
            for x in X.elements:
                fresh[x] = (
                    colour[x],
                    tuple(sorted(colour[d] for d in X.strict_down(x))),
                    tuple(sorted(colour[u] for u in X.strict_up(x))),
                )
            palette = {sig: i for i, sig in enumerate(sorted(set(fresh.values())))}
            new = {x: palette[fresh[x]] for x in X.elements}
            if new == colour:
                return colour
            colour = new

    cp, cq = refine(P), refine(Q)
    if sorted(cp.values()) != sorted(cq.values()):
        return False
    by_colour_q: dict[int, list] = {}
    for y, c in cq.items():
        by_colour_q.setdefault(c, []).append(y)
    # match rarest colours first
    order = sorted(P.elements, key=lambda x: (len(by_colour_q.get(cp[x], ())), x))
    assignment: dict = {}
    used: set = set()

    def backtrack(i: int) -> bool:
        if i == len(order):
            return True
        x = order[i]
        for y in by_colour_q.get(cp[x], ()):
            if y in used:
                continue
            ok = True
            for a, b in assignment.items():
                if P.leq(a, x) != Q.leq(b, y) or P.leq(x, a) != Q.leq(y, b):
                    ok = False
                    break
            if ok:
                assignment[x] = y
                used.add(y)
                if backtrack(i + 1):
                    return True
                del assignment[x]
                used.discard(y)
        return False

    return backtrack(0)


def to_dot(X: FinitePoset) -> str:
    """DOT digraph of the Hasse diagram, edges from lower to higher element."""
    lines = ["digraph hasse {"]
    for x in X.elements:
        lines.append(f'  "{x}";')
    for a, b in X.hasse_pairs():
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
