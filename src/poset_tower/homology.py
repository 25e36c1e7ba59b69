"""Integer simplicial homology via Smith normal form.

Arbitrary-precision integers throughout; this is the certified path used to
back every acyclicity and invariance claim, so there are no modular shortcuts.

Boundary matrices are held sparsely, as one ``{row_index: entry}`` dict per
column.  The invariant factors come from the standard reduction of
Kaczynski, Mischaikow and Mrozek, *Computational Homology* (2004): while an
entry is ±1, pivot on it (the column with the fewest entries first, then its
unit row with the fewest entries, to limit fill-in) and delete its row and
column.  Each such pivot is an invariant factor 1, and because the pivot is a
unit every entry stays an integer.  A dense Smith normal form sweep then runs
only on the nonzero rows and columns that are left, which for boundary
matrices of complexes is small or empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .complexes import SimplicialComplex


@dataclass(frozen=True)
class ChainComplexZ:
    """Per-degree simplex counts and integer boundary matrices.

    ``boundaries[k-1]`` is the degree-k boundary matrix: rows indexed by the
    (k-1)-simplices, columns by the k-simplices, in canonical order.
    """

    dims: tuple
    boundaries: tuple

    def is_valid(self) -> bool:
        """Check that consecutive boundary matrices compose to zero."""
        columns = [_columns(b) for b in self.boundaries]
        for a_cols, b_cols in zip(columns, columns[1:]):
            for col in b_cols:
                total = {}
                for k, v in col.items():
                    for i, w in a_cols[k].items():
                        total[i] = total.get(i, 0) + v * w
                if any(total.values()):
                    return False
        return True


@dataclass(frozen=True)
class BettiProfile:
    """Betti numbers and per-degree invariant factors greater than 1."""

    betti: tuple
    torsion: tuple

    def reduced(self) -> tuple:
        if not self.betti:
            return ()
        return (self.betti[0] - 1,) + self.betti[1:]

    def is_reduced_trivial(self) -> bool:
        return (all(b == 0 for b in self.reduced())
                and all(not t for t in self.torsion))


def _boundary_columns(K: SimplicialComplex):
    """Simplex counts and sparse boundary columns, one list per degree k >= 1.

    Each dimension is ordered by its sorted vertex tuples, the canonical
    order; the face opposite vertex i of ``vs`` gets the sign ``(-1)**i``.
    """
    by_dim = [[] for _ in range(K.dim + 1)]
    for s in K.simplices:
        by_dim[len(s.verts) - 1].append(s.verts)
    for level in by_dim:
        level.sort()
    columns = []
    for k in range(1, len(by_dim)):
        index = {vs: i for i, vs in enumerate(by_dim[k - 1])}
        columns.append([
            {index[vs[:i] + vs[i + 1:]]: -1 if i % 2 else 1 for i in range(len(vs))}
            for vs in by_dim[k]])
    return tuple(len(level) for level in by_dim), columns


def _columns(matrix) -> list:
    """The columns of a dense matrix as ``{row_index: entry}`` dicts."""
    cols = [{} for _ in range(len(matrix[0]) if matrix else 0)]
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            if v:
                cols[j][i] = v
    return cols


def chain_complex(K: SimplicialComplex) -> ChainComplexZ:
    """Boundary matrices with signs from the canonical vertex order."""
    dims, columns = _boundary_columns(K)
    boundaries = []
    for k, cols in enumerate(columns):
        matrix = [[0] * len(cols) for _ in range(dims[k])]
        for j, col in enumerate(cols):
            for i, v in col.items():
                matrix[i][j] = v
        boundaries.append(tuple(tuple(r) for r in matrix))
    return ChainComplexZ(dims, tuple(boundaries))


def _sparse_invariant_factors(cols: list, nrows: int) -> tuple:
    """Invariant factors of the matrix with the given sparse columns.

    The column dicts are consumed.  Unit pivots are eliminated first; the
    leftover block goes to the dense sweep.
    """
    rows = [set() for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i in col:
            rows[i].add(j)
    heap = [(len(col), j) for j, col in enumerate(cols) if col]
    heapify(heap)
    units = 0
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
        units += 1
    left = [col for col in cols if col]
    kept = sorted({i for col in left for i in col})
    block = [[col.get(i, 0) for col in left] for i in kept]
    return (1,) * units + _dense_invariant_factors(block)


def _dense_invariant_factors(matrix) -> tuple:
    """Dense Smith normal form sweep; positive, divisibility-ordered factors."""
    a = [list(row) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    factors = []
    t = 0
    while t < min(m, n):
        # smallest nonzero entry as pivot
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    piv = (i, j)
            if best == 1:
                break
        if piv is None:
            break
        pi, pj = piv
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        for j in range(t, n):
                            a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for i in range(t, m):
                            a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for i in range(t, m):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the submatrix, so the factors
            # come out in divisibility order
            witness = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        witness = i
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            for j in range(t, n):
                a[t][j] += a[witness][j]
        factors.append(abs(a[t][t]))
        t += 1
    return tuple(factors)


def smith_invariant_factors(matrix) -> tuple:
    """Invariant factors (positive, divisibility-ordered) of an integer matrix."""
    return _sparse_invariant_factors(_columns(matrix), len(matrix))


def betti(K: SimplicialComplex) -> BettiProfile:
    """Betti numbers and torsion of K over the integers."""
    dims, columns = _boundary_columns(K)
    dim = len(dims) - 1
    factors = [_sparse_invariant_factors(cols, dims[k]) for k, cols in enumerate(columns)]
    ranks = [len(fs) for fs in factors]
    numbers = []
    torsion = []
    for k in range(dim + 1):
        rank_k = ranks[k - 1] if k >= 1 else 0
        rank_k1 = ranks[k] if k < dim else 0
        numbers.append(dims[k] - rank_k - rank_k1)
        if k < dim:
            torsion.append(tuple(f for f in factors[k] if f > 1))
        else:
            torsion.append(())
    return BettiProfile(tuple(numbers), tuple(torsion))


def euler_characteristic(profile: BettiProfile) -> int:
    return sum((-1) ** k * b for k, b in enumerate(profile.betti))
