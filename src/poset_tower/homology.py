"""Integer simplicial homology via Smith normal form.

Arbitrary-precision integers throughout; this is the certified path used to
back every acyclicity and invariance claim, so there are no modular shortcuts.

Boundary matrices are held sparsely, as one ``{row_index: entry}`` dict per
column.  The invariant factors come from the standard reduction of
Kaczynski, Mischaikow and Mrozek, *Computational Homology* (2004): while an
entry is ±1, pivot on it (the column with the fewest entries first, then its
unit row with the fewest entries, to limit fill-in) and delete its row and
column.  Each such pivot is an invariant factor 1, and because the pivot is a
unit every entry stays an integer.  The nonzero rows and columns that are
left, which for boundary matrices of complexes are few or none, are reduced
and split densely: pivot on an entry p of least absolute value, reduce the
rest of its column and then of its row modulo p, and once both are zero
record |p| and delete them.  A last pass replaces each pair of recorded
entries by their gcd and lcm, which orders the factors by divisibility.

``betti`` does less elimination, by two exact facts.  It reduces the boundary
matrices from the top degree down and clears, as in Chen and Kerber,
*Persistent homology computation with a twist* (EuroCG 2011): a unit pivot of
the degree-(k+1) matrix is taken on a column that is a boundary with ±1 at
the pivot row and 0 on every earlier pivot row, so by reverse induction the
degree-k columns at the pivot rows are integer combinations of the others.
Leaving them out keeps the image lattice, and with it every invariant factor.

The second fact: a matrix whose lines (rows or columns) each hold at most two
±1 entries is the incidence matrix of a signed graph (Zaslavsky, *Signed
graphs*, Discrete Appl. Math. 4, 1982), and its Smith form needs no
elimination.  The indices across the lines are its nodes; a line with two
entries is an arc, one with a single entry a half arc.  The degree-1 matrix is one, with
the vertices as nodes and each edge an arc with entries -1 and +1, and so is
the top matrix of a pseudomanifold, with the top simplices as nodes and
each codimension-1 face, which has at most two cofaces, as an arc or half
arc.  ``_signed_forest`` runs one union-find over the arcs that keeps each
node's sign s relative to its root, chosen so that every tree arc (u, a,
v, b) reads s_u·a + s_v·b = 0.

- **Factors.**  The tree arcs are unit pivots; eliminating them merges each
  component into the one column of its signs.  There every other arc reads
  s_u·a + s_v·b, which is 0 (the arc is balanced) or ±2, and every half arc
  reads ±1.  So each component adds one more factor, the gcd of that
  column: 1 if it has a half arc, otherwise 2 if some arc is unbalanced,
  and none if all are balanced.  Degree 1 has no half arcs and only
  balanced arcs, so its factors are all 1 and its rank is the vertex count
  less the number of components.
- **Clearing.**  The pivots are the tree arcs and each component's first
  half arc.  For a tree arc r, the signed sum of the top simplices on the
  side of r that does not hold the component's pivot half arc (either side,
  if it has none) has boundary ±1 at r and 0 at every other pivot line; for
  the pivot half arc, the signed sum of the whole component does.  So the
  cleared columns one degree down are integer combinations of the others,
  as above.

``betti`` reads the top degree this way whenever no face has three cofaces
and degree 1 always, and runs the sparse elimination for every other degree.

``betti`` ranks each degree's simplices in the iteration order of
``K.simplices``, unsorted.  Invariant factors do not depend on the order of
rows and columns, so its elimination path follows the hash seed and its
result does not.  Only ``chain_complex``, whose dense matrices are public,
sorts each degree into canonical order.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations, compress
from math import gcd

from .complexes import SimplicialComplex, _Record
from .errors import InvalidInput


class ChainComplexZ(_Record):
    """Per-degree simplex counts and integer boundary matrices.

    ``boundaries[k-1]`` is the degree-k boundary matrix: rows indexed by the
    (k-1)-simplices, columns by the k-simplices, in canonical order.
    """

    __match_args__ = ("dims", "boundaries")

    def __init__(self, dims: tuple, boundaries: tuple):
        d = self.__dict__
        d["dims"] = dims
        d["boundaries"] = boundaries

    def is_valid(self) -> bool:
        """Check that consecutive boundary matrices compose to zero; raises
        ``InvalidInput`` for a degree whose row count is not the column count
        of the degree below."""
        columns = [_columns(b) for b in self.boundaries]
        for k, (a_cols, b) in enumerate(zip(columns, self.boundaries[1:]), start=2):
            if len(b) != len(a_cols):
                raise InvalidInput(f"degree {k} boundary matrix has {len(b)} rows, "
                                   f"degree {k - 1} has {len(a_cols)} columns")
        for a_cols, b_cols in zip(columns, columns[1:]):
            for col in b_cols:
                total = {}
                for k, v in col.items():
                    for i, w in a_cols[k].items():
                        total[i] = total.get(i, 0) + v * w
                if any(total.values()):
                    return False
        return True


class BettiProfile(_Record):
    """Betti numbers and per-degree invariant factors greater than 1."""

    __match_args__ = ("betti", "torsion")

    def __init__(self, betti: tuple, torsion: tuple):
        d = self.__dict__
        d["betti"] = betti
        d["torsion"] = torsion

    def reduced(self) -> tuple:
        if not self.betti:
            return ()
        return (self.betti[0] - 1,) + self.betti[1:]

    def is_reduced_trivial(self) -> bool:
        """Whether reduced homology vanishes.  The empty complex has reduced
        homology Z in degree -1, so it is not acyclic."""
        return (bool(self.betti) and all(b == 0 for b in self.reduced())
                and all(not t for t in self.torsion))


def _simplices_by_dim(K: SimplicialComplex) -> list:
    """The vertex tuples of K's simplices, one list per dimension, in the
    iteration order of ``K.simplices``; ``chain_complex`` sorts them."""
    levels = [[] for _ in range(K.dim + 1)]
    for s in K.simplices:
        levels[len(s.verts) - 1].append(s.verts)
    return levels


def _faces(levels: list, k: int) -> tuple:
    """``(index, signs)`` of the degree-k boundary matrix.

    ``index`` maps each (k-1)-simplex to its row, its position in
    ``levels``.  The face opposite vertex i of a k-simplex gets the sign
    ``(-1)**i``; ``combinations`` yields the faces in lexicographic order,
    which is opposite vertex k, k-1, ..., 0, and ``signs`` follows it.
    """
    return ({vs: i for i, vs in enumerate(levels[k - 1])}.__getitem__,
            [-1 if (k - i) % 2 else 1 for i in range(k + 1)])


def _boundary_columns(levels: list, k: int, faces: tuple, skip=frozenset()) -> list:
    """Sparse columns of the degree-k boundary matrix, leaving out those in
    ``skip``; ``faces`` is ``_faces(levels, k)``."""
    index, signs = faces
    return [dict(zip(map(index, combinations(vs, k)), signs))
            for j, vs in enumerate(levels[k]) if j not in skip]


def _columns(matrix) -> list:
    """The columns of a dense matrix as ``{row_index: entry}`` dicts; the
    matrix must be a list or tuple of rows, every row a list or tuple of row
    0's length, and every entry an ``int`` that is not a ``bool``."""
    if not isinstance(matrix, (list, tuple)):
        raise InvalidInput(f"a matrix must be a list or tuple of rows, not {type(matrix).__name__}")
    cols = []
    for i, row in enumerate(matrix):
        if not isinstance(row, (list, tuple)):
            raise InvalidInput(f"matrix row {i} is {row!r}, not a list or tuple")
        if not i:
            cols = [{} for _ in row]
        elif len(row) != len(cols):
            raise InvalidInput(f"matrix row {i} has length {len(row)}, row 0 has length {len(cols)}")
        if not set(map(type, row)) <= {int}:
            for j, v in enumerate(row):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise InvalidInput(f"matrix row {i} column {j} is {v!r}, not an int")
        for j in compress(range(len(row)), row):
            cols[j][i] = row[j]
    return cols


def chain_complex(K: SimplicialComplex) -> ChainComplexZ:
    """Boundary matrices with signs from the canonical vertex order, rows and
    columns in canonical order."""
    levels = _simplices_by_dim(K)
    for level in levels:
        level.sort()
    dims = tuple(len(level) for level in levels)
    boundaries = []
    for k in range(1, len(levels)):
        matrix = [[0] * dims[k] for _ in range(dims[k - 1])]
        for j, col in enumerate(_boundary_columns(levels, k, _faces(levels, k))):
            for i, v in col.items():
                matrix[i][j] = v
        boundaries.append(tuple(tuple(r) for r in matrix))
    return ChainComplexZ(dims, tuple(boundaries))


def _sparse_invariant_factors(cols: list, nrows: int) -> tuple:
    """Invariant factors of the matrix with the given sparse columns, and the
    set of rows of its unit pivots.

    The column dicts are consumed.  Unit pivots are eliminated first; the
    leftover block is reduced and split densely.
    """
    rows = [set() for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i in col:
            rows[i].add(j)
    heap = [(len(col), j) for j, col in enumerate(cols) if col]
    heapify(heap)
    pivots = set()
    while heap:
        size, j = heappop(heap)
        col = cols[j]
        if col is None or len(col) != size:
            continue  # eliminated, or re-queued under its new size
        r = None
        for i, v in col.items():
            if (v == 1 or v == -1) and (r is None or len(rows[i]) < len(rows[r])):
                r = i
        if r is None:
            continue  # requeued if a later pivot changes this column
        # column operations clear row r outside the pivot; the pivot's row
        # and column then split off as a 1x1 block with factor 1
        p = col.pop(r)
        cols[j] = None
        for i in col:
            rows[i].discard(j)
        others = rows[r]
        others.discard(j)
        for k in others:
            target = cols[k]
            f = target.pop(r) * p
            for i, v in col.items():
                w = target.get(i, 0) - f * v
                if w:
                    if i not in target:
                        rows[i].add(k)
                    target[i] = w
                elif i in target:
                    del target[i]
                    rows[i].discard(k)
            if target:
                heappush(heap, (len(target), k))
        rows[r] = set()
        pivots.add(r)
    left = [col for col in cols if col]
    kept = sorted({i for col in left for i in col})
    block = [[col.get(i, 0) for col in left] for i in kept]
    return (1,) * len(pivots) + _dense_invariant_factors(block), pivots


def _dense_invariant_factors(matrix) -> tuple:
    """Smith normal form of a dense block by reduce-and-split; positive,
    divisibility-ordered factors.

    Pivot on an entry p of least absolute value, at (i, j): row operations
    from row i reduce the rest of column j modulo p, then column operations
    from column j reduce the rest of row i.  If both are then zero apart
    from p, record |p| and delete its row and column; otherwise the next
    pass pivots on a remainder smaller than |p|.  Replacing each pair
    (d_s, d_t), s < t, of the diagonal by (gcd, lcm) sorts each prime's
    exponents, which gives the divisibility chain.
    """
    a = [list(row) for row in matrix]
    diagonal = []
    while entries := [(abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v]:
        _, i, j = min(entries)
        pivot_row = a[i]
        p = pivot_row[j]
        for row in a:
            q = row[j] // p
            if q and row is not pivot_row:
                for c, v in enumerate(pivot_row):
                    row[c] -= q * v
        for c, v in enumerate(pivot_row):
            q = v // p
            if q and c != j:
                for row in a:
                    row[c] -= q * row[j]
        if sum(map(bool, pivot_row)) + sum(1 for row in a if row[j]) > 2:
            continue  # a remainder smaller than |p| is left
        diagonal.append(abs(p))
        del a[i]
        for row in a:
            del row[j]
    for s in range(len(diagonal)):
        for t in range(s + 1, len(diagonal)):
            g = gcd(diagonal[s], diagonal[t])
            diagonal[s], diagonal[t] = g, diagonal[s] // g * diagonal[t]
    return tuple(diagonal)


def smith_invariant_factors(matrix) -> tuple:
    """Invariant factors (positive, divisibility-ordered) of an integer matrix."""
    return _sparse_invariant_factors(_columns(matrix), len(matrix))[0]


def _top_arcs(levels: list, k: int, faces: tuple):
    """The degree-k boundary matrix as a signed graph on the k-simplices, or None.

    Returns ``(arcs, halves)`` for ``_signed_forest``: each (k-1)-simplex
    with two cofaces is an arc and each with one a half arc, with the
    ``(index, signs)`` of ``faces``, which is ``_faces(levels, k)``.  None
    if some (k-1)-simplex has three cofaces.
    """
    index, signs = faces
    node = [-1] * len(levels[k - 1])
    entry = [0] * len(levels[k - 1])  # the first coface's sign, 0 once a second is seen
    arcs = []
    for j, vs in enumerate(levels[k]):
        for i, b in zip(map(index, combinations(vs, k)), signs):
            u = node[i]
            if u < 0:
                node[i] = j
                entry[i] = b
            elif entry[i]:
                arcs.append((i, u, entry[i], j, b))
                entry[i] = 0
            else:
                return None
    return arcs, [(i, u) for i, (u, a) in enumerate(zip(node, entry)) if a]


def _signed_forest(n: int, arcs: list, halves: list) -> tuple:
    """``(rank, twos, pivot_lines)`` of a signed graph's incidence matrix.

    Nodes are 0..n-1.  An arc ``(line, u, a, v, b)`` has the entry a at u and
    b at v, a half arc ``(line, u)`` a unit entry at u, each ±1.  The
    invariant factors are ``rank - twos`` ones and ``twos`` twos, and
    ``pivot_lines`` is the set of lines of the unit pivots (the module
    docstring).  The union-find halves paths, carrying each node's sign
    relative to its parent; a root's sign is 1.
    """
    parent = list(range(n))
    sign = [1] * n
    unbalanced = set()  # roots of components with an unbalanced arc
    pivots = set()
    for line, u, a, v, b in arcs:
        while parent[u] != u:
            p = parent[u]
            sign[u] *= sign[p]
            parent[u] = parent[p]
            a *= sign[u]
            u = parent[u]
        while parent[v] != v:
            p = parent[v]
            sign[v] *= sign[p]
            parent[v] = parent[p]
            b *= sign[v]
            v = parent[v]
        # a and b are now the arc's entries read against the roots' signs
        if u != v:
            parent[u] = v
            sign[u] = -a * b
            pivots.add(line)
            if u in unbalanced:
                unbalanced.remove(u)
                unbalanced.add(v)
        elif a == b:
            unbalanced.add(u)
    halved = set()  # roots of components with a pivot half arc
    for line, u in halves:
        while parent[u] != u:
            parent[u] = parent[parent[u]]  # no sign is read past the arcs
            u = parent[u]
        if u not in halved:
            halved.add(u)
            pivots.add(line)
    twos = len(unbalanced - halved)
    return len(pivots) + twos, twos, pivots


def betti(K: SimplicialComplex) -> BettiProfile:
    """Betti numbers and torsion of K over the integers.

    Degrees are reduced from the top down; each skips the columns that the
    unit pivots of the degree above clear.  Degree 1, and the top degree
    when no face has three cofaces, are ranked as signed graphs (see the
    module docstring).
    """
    levels = _simplices_by_dim(K)
    dims = tuple(len(level) for level in levels)
    top = len(levels) - 1
    factors = [()] * len(levels)  # factors[k]: those of the degree-(k+1) matrix
    cleared = frozenset()
    eliminate = top  # the highest degree left to the sparse elimination
    if top > 1:
        faces = _faces(levels, top)  # the top degree's, built once for both paths
        graph = _top_arcs(levels, top, faces)
        if graph is not None:
            rank, twos, cleared = _signed_forest(dims[top], *graph)
            factors[top - 1] = (1,) * (rank - twos) + (2,) * twos
            eliminate -= 1
    for k in range(eliminate, 1, -1):
        if k < top:
            faces = _faces(levels, k)
        factors[k - 1], cleared = _sparse_invariant_factors(
            _boundary_columns(levels, k, faces, cleared), dims[k - 1])
    if top > 0:
        vertex = {vs[0]: i for i, vs in enumerate(levels[0])}.__getitem__
        arcs = [(j, vertex(a), -1, vertex(b), 1)
                for j, (a, b) in enumerate(levels[1]) if j not in cleared]
        factors[0] = (1,) * _signed_forest(dims[0], arcs, ())[0]
    ranks = [0] + [len(fs) for fs in factors]
    return BettiProfile(
        tuple(dims[k] - ranks[k] - ranks[k + 1] for k in range(len(dims))),
        tuple(tuple(f for f in fs if f > 1) for fs in factors))


def euler_characteristic(profile: BettiProfile) -> int:
    return sum((-1) ** k * b for k, b in enumerate(profile.betti))
