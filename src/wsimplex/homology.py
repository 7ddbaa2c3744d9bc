"""Integer homology of weighted complexes via Smith normal form.

``smith_normal_form`` reads an ``ExactMatrix`` (dense rows are made into
one first) into one dict of integer non-zeros per row.  One elimination
serves both modes: the diagonal is unique, so it pivots in any order.  A
pivot that divides its row and column is dropped with them; one that
does not takes a 2x2 gcd step or a division pass, which lower the least
|entry|.  For the diagonal alone the invariant factors are read off the
pivots through a coprime base.  With the transforms the same steps are
applied to U and V, and 2x2 gcd steps on the ordered pivots (one
``_bezout`` serves both kinds of 2x2 step) reach d1 | d2 | ..., so
U @ M @ V == diag(d) with |det U| = |det V| = 1.  Indexes keep each step
near the non-zeros it changes.

Homology of a validated integer-weighted complex in degree n needs one
normal form, that of d_{n+1}: the torsion coefficients are its diagonal
entries that exceed 1, and the free rank is dim C_n - rank(d_n) -
rank(d_{n+1}), with rank(d_n) read from the pair's rank vector, as every
other dimension count is.  The pair caches that torsion and rank, as it
caches the boundary columns and rank vector (see ``chains``), so a repeated
query runs no normal form.  The normal form reads the pair's sparse
``boundary_matrix``, built from those cached columns, and a later
``boundary_matrix`` of d_{n+1} carries the held torsion and rank, so its
``smith_normal_form`` (without transforms) runs none either.

``ngon_homology_closed_form`` gives the degree-0 homology of a weighted
polygon without a matrix.  The k-th invariant factor has, at every prime
p, the k-th smallest valuation v_p among the non-zero vertex weights, so
it is read off a coprime base of the weights refined by gcds, with no
factoring (``_invariant_factors``, shared with the diagonal path): the
work is polynomial in the number of vertices and in the weights' bit
length.

``SNFResult`` and ``HomologyGroup`` are records (``complexes.Record``):
``==`` and ``repr`` by their fields, unhashable.  A ``HomologyGroup`` takes
integers alone (ints, or anything with ``__index__``) for its torsion and
free rank, and refuses anything else with a ``ValueError``.
"""

from __future__ import annotations

from bisect import insort
from itertools import combinations
from math import gcd

from .chains import _cached, _check_pair, _rank, boundary_matrix
from .complexes import Record, SimplicialComplex
from .gaussian import _integer
from .matrices import ExactMatrix
from .weights import WeightFunction


def _int_entry(x) -> int:
    # the normalised triple (a, b, d) of (a + bi)/d: an integer is (a, 0, 1)
    a, b, d = x._t
    if b == 0 and d == 1:
        return a
    raise ValueError("matrix has non-integer entries")


class SNFResult(Record):
    """Smith normal form: its diagonal and rank, with the transforms U and V
    when they were asked for."""

    __slots__ = ("diagonal", "rank", "U", "V")

    def __init__(self, diagonal: list[int], rank: int,
                 U: list[list[int]] | None = None, V: list[list[int]] | None = None):
        self.diagonal = diagonal
        self.rank = rank
        self.U = U
        self.V = V


def _sub(y: dict, q: int, x: dict) -> None:
    """y -= q * x on sparse vectors (q and the entries of x non-zero),
    dropping the zeros it leaves."""
    for k, v in x.items():
        w = y.get(k, 0) - q * v
        if w:
            y[k] = w
        else:
            del y[k]


def _sub_row(y: dict, i: int, q: int, x: dict, holders: list, low):
    """``_sub`` on the matrix row with id i: a fill-in adds i to its
    column's holder set, a cancellation removes it.  Returns ``low``
    lowered to every |entry| written, so a lower bound on the row's least
    |entry| stays one."""
    for k, v in x.items():
        w = y.get(k)
        if w is None:
            w = -q * v
            holders[k].add(i)
        else:
            w -= q * v
            if not w:
                del y[k]
                holders[k].discard(i)
                continue
        y[k] = w
        if w < 0:
            w = -w
        if w < low:
            low = w
    return low


_EMPTY = float("inf")  # the least |entry| of a row with none


def _holders(rows: list[dict], nc: int) -> list[set]:
    """The ids of the rows with a non-zero in each column."""
    holders = [set() for _ in range(nc)]
    for i, row in enumerate(rows):
        for c in row:
            holders[c].add(i)
    return holders


def _combine(x: dict, y: dict, a: int, b: int) -> dict:
    """a * x + b * y on sparse vectors, without its zeros."""
    return {k: w for k in x.keys() | y.keys() if (w := a * x.get(k, 0) + b * y.get(k, 0))}


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """g = gcd(a, b) and s, t with s*a + t*b == g (b non-zero)."""
    g = gcd(a, b)
    s = pow(a // g, -1, b // g)
    return g, s, (g - s * a) // b


def _diagonal(rows: list[dict], nc: int, U: list[dict] | None = None,
              V: list[dict] | None = None) -> list[tuple[int, int, int]]:
    """(pivot, row id, column id) of each step that drops a row and a
    column of the sparse integer rows (consumed): the matrix, under the
    steps' row and column operations, has each pivot at its (row, column)
    and zeros elsewhere, so the |pivots| have its Smith diagonal.

    A heap of per-row lower bounds ``least[i]`` (pushed again when a row
    operation lowers one; a key that is not the row's bound is stale, one
    under the true least |entry| is raised) finds a row with a smallest
    |entry|; the pivot is its least entry in a column with fewest holders.
    Whether the pivot divides its row and column (a unit always does) is
    decided once.  If it does not and its column has one other entry, a
    unimodular 2x2 row step leaves their gcd as the pivot.  Otherwise one
    row pass takes the column's other entries down to their remainders by
    the pivot (to zero when it divides), and then:

    * a pivot that divides is dropped with its row and column (the column
      operations touch no other row, so only V takes them);
    * one that does not runs the column pass, every column operation at
      once, on the rows still holding its column, its own included.

    The 2x2 step and the division pass lower the least |entry|, so the
    loop ends.  Given U (one sparse row per row id) and V (one sparse
    column per column id), every step applies its row operations to U and
    its column operations to V.
    """
    # imported on first use: at module level it adds about 0.8 ms to importing the package
    from heapq import heapify, heappop, heappush, heapreplace

    holders = _holders(rows, nc)
    least = [min(map(abs, row.values())) if row else _EMPTY for row in rows]
    heap = [(v, i) for i, v in enumerate(least)]
    heapify(heap)

    def lower(i, low):
        if low < least[i]:
            least[i] = low
            heappush(heap, (low, i))

    steps = []
    while heap and heap[0][0] != _EMPTY:  # else every row left is empty
        v, r = heap[0]
        if v != least[r]:  # stale, or a dropped row
            heappop(heap)
            continue
        row = rows[r]
        true = min(map(abs, row.values())) if row else _EMPTY
        if true != v:  # a stale bound: raise it and search again
            least[r] = true
            heapreplace(heap, (true, r))
            continue
        c = min((k for k, x in row.items() if abs(x) == v), key=lambda k: len(holders[k]))
        p = row[c]
        others = holders[c] - {r}
        divides = v == 1 or not (any(x % p for x in row.values())
                                 or any(rows[i][c] % p for i in others))
        if not divides and len(others) == 1:
            s = others.pop()
            old, b = rows[s], rows[s][c]
            g, x, y = _bezout(p, b)
            mix = ((x, y), (-b // g, p // g))
            for i, (y, z) in zip((r, s), mix):
                new = _combine(row, old, y, z)
                for k in rows[i].keys() - new.keys():
                    holders[k].discard(i)
                for k in new.keys() - rows[i].keys():
                    holders[k].add(i)
                rows[i] = new
                least[i] = min(map(abs, new.values())) if new else _EMPTY
                heappush(heap, (least[i], i))
            if U is not None:
                U[r], U[s] = (_combine(U[r], U[s], y, z) for y, z in mix)
            continue
        for i in others:
            q = rows[i][c] // p
            lower(i, _sub_row(rows[i], i, q, row, holders, least[i]))
            if U is not None:
                _sub(U[i], q, U[r])
        if V is not None:
            for k, x in row.items():
                if k != c:
                    _sub(V[k], x // p, V[c])
        if divides:  # its heap entry, now stale, is popped when it comes up
            for k in row:
                holders[k].discard(r)
            least[r] = -1
            steps.append((p, r, c))
        else:
            quotients = {k: x // p for k, x in row.items() if k != c}
            for i in holders[c]:  # every column op at once on the rows holding c
                lower(i, _sub_row(rows[i], i, rows[i][c], quotients, holders, least[i]))
    return steps


def _transforms(rows: list[dict], nc: int) -> SNFResult:
    """The normal form with U and V: ``_diagonal``'s steps applied to
    identities, the pivots put on the diagonal in ascending |pivot| order
    (each sign folded into its U row), then one pairwise pass that turns
    diag(d) into d1 | d2 | ...: for each pair di, dj (i < j) with di not
    dividing dj, and s*di + t*dj == g their gcd, rows i, j of U take
    [[s, t], [-dj/g, di/g]] on the left and columns i, j of V take
    [[1, -t*dj/g], [1, s*di/g]] on the right, so di, dj become their gcd
    and lcm, and both 2x2 steps have determinant 1."""
    nr = len(rows)
    U = [{i: 1} for i in range(nr)]
    V = [{j: 1} for j in range(nc)]
    steps = sorted(_diagonal(rows, nc, U, V), key=lambda step: abs(step[0]))
    left = set(range(nr)).difference(r for _, r, _ in steps)
    right = set(range(nc)).difference(c for _, _, c in steps)
    U = [U[r] if p > 0 else {k: -x for k, x in U[r].items()} for p, r, _ in steps] + \
        [U[i] for i in sorted(left)]
    V = [V[c] for _, _, c in steps] + [V[j] for j in sorted(right)]
    d = [abs(p) for p, _, _ in steps]
    for i, j in combinations(range(len(d)), 2):
        a, b = d[i], d[j]
        if b % a:
            g, s, t = _bezout(a, b)
            U[i], U[j] = _combine(U[i], U[j], s, t), _combine(U[i], U[j], -b // g, a // g)
            V[i], V[j] = _combine(V[i], V[j], 1, 1), _combine(V[i], V[j], -t * b // g, s * a // g)
            d[i], d[j] = g, a // g * b
    return SNFResult(d + [0] * (min(nr, nc) - len(d)), len(d),
                     [[u.get(k, 0) for k in range(nr)] for u in U],
                     [[v.get(r, 0) for v in V] for r in range(nc)])


def smith_normal_form(matrix, transforms: bool = False) -> SNFResult:
    """Smith normal form of an integer matrix, on sparse rows.

    ``matrix`` is an ``ExactMatrix`` (a 0 x k one keeps its k columns) or
    dense rows, which are read as ``ExactMatrix(matrix)`` reads them: a
    ``dict`` row or a ragged row is refused there, and so is an entry that
    is not an integer (anything with ``__index__``), a Fraction or a
    GaussianRational.  Its non-zeros are converted to ints, one dict per
    row; a non-integer one is refused with a ``ValueError``.

    A boundary matrix whose pair holds the torsion and rank of its normal
    form (``weighted_homology`` one degree down caches them) carries them,
    and without ``transforms`` the diagonal is read off them: rank minus
    len(torsion) ones, the torsion, then zeros to min(rows, cols).
    Otherwise one elimination, ``_diagonal``, serves both modes; the
    diagonal is unique, so it pivots in its own order.  Without
    ``transforms`` the invariant factors of its pivots
    (``_invariant_factors``), padded with zeros to min(rows, cols), are
    the diagonal; their count is the rank.
    With ``transforms`` the elimination applies its steps to U and V as
    well, and ``_transforms`` orders the pivots and reaches d1 | d2 | ...
    by 2x2 gcd steps.  It returns U (rows x rows) and V (cols x cols),
    unimodular with U @ M @ V == diag(d), as nested lists.
    """
    if not isinstance(matrix, ExactMatrix):
        matrix = ExactMatrix(matrix)
    if matrix._snf is not None and not transforms:
        torsion, rank = matrix._snf
        return SNFResult([1] * (rank - len(torsion)) + list(torsion)
                         + [0] * (min(matrix.shape) - rank), rank)
    rows = [{j: _int_entry(x) for j, x in row.items()} for row in matrix._entries]
    if transforms:
        return _transforms(rows, matrix.cols)
    pivots = [abs(p) for p, _, _ in _diagonal(rows, matrix.cols)]
    rank = len(pivots)
    return SNFResult(_invariant_factors(pivots, rank) + [0] * (min(matrix.shape) - rank), rank)


class HomologyGroup(Record):
    """Finitely generated abelian group: torsion summands plus a free part,
    given as integers (ints, or anything with ``__index__``)."""

    __slots__ = ("torsion", "free_rank")

    def __init__(self, torsion: list[int], free_rank: int):
        self.torsion = [_integer(d, "torsion coefficient") for d in torsion]
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion coefficients must be >= 2")
        self.free_rank = _integer(free_rank, "free rank")
        if self.free_rank < 0:
            raise ValueError("free rank must be >= 0")

    def is_trivial(self) -> bool:
        return not self.torsion and self.free_rank == 0

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"


def weighted_homology(complex: SimplicialComplex, phi: WeightFunction, n: int) -> HomologyGroup:
    """Homology with integer coefficients in degree n.

    Needs integer weight entries; rational or complex weights have no
    torsion story and are rejected.  The pair caches the torsion and rank
    of d_{n+1}'s normal form.
    """
    if not phi.is_integral():
        raise ValueError("integer homology needs integer weight values")
    _check_pair(complex, phi)

    def upper():
        snf = smith_normal_form(boundary_matrix(complex, phi, n + 1))
        return tuple(d for d in snf.diagonal if d > 1), snf.rank

    torsion, rank = _cached(phi, "snf", n + 1, upper)
    return HomologyGroup(list(torsion), len(complex.basis(n)) - _rank(phi, n) - rank)


def _coprime_base(values) -> list[int]:
    """Pairwise coprime integers > 1, ascending, such that every given
    positive integer is a product of their powers (Bernstein 2005,
    "Factoring into coprimes in essentially linear time", in its naive
    form).  A value y coprime to the product of the base joins it at once.
    Otherwise the first base element b sharing a factor with y leaves the
    base, and g = gcd(b, y), b/g and y/g are inserted in turn: each split
    divides the product of the base and the pending values by g > 1, so
    the loop ends.  The scan runs in ascending order because shared
    factors tend to be small."""
    base: list[int] = []
    whole = 1
    for x in values:
        pending = [x]
        while pending:
            y = pending.pop()
            shared = gcd(y, whole)
            if shared == 1:
                if y > 1:
                    insort(base, y)
                    whole *= y
                continue
            b = next(b for b in base if gcd(b, shared) > 1)
            base.remove(b)
            whole //= b
            g = gcd(b, y)
            pending += [g, b // g, y // g]
    return base


def _valuation(x: int, b: int) -> int:
    v = 0
    while x % b == 0:
        x //= b
        v += 1
    return v


def _invariant_factors(values: list[int], count: int) -> list[int]:
    """The first ``count`` invariant factors of diag(values), for positive
    integers values and count <= len(values): at every prime p the k-th
    factor has the k-th smallest v_p over the values, so it is the product
    of b^(k-th smallest v_b) over a coprime base b of the values."""
    ds = [1] * count
    for b in _coprime_base(sorted(set(values))):
        vs = sorted(_valuation(x, b) for x in values if x % b == 0)
        zeros = len(values) - len(vs)
        for k in range(zeros, count):
            ds[k] *= b ** vs[k - zeros]
    return ds


def ngon_homology_closed_form(alphas) -> HomologyGroup:
    """Degree-0 homology of the weighted n-cycle, directly from the vertex
    weights.

    The k-th invariant factor is g_k / g_{k-1}, where g_k is the gcd of the
    k-fold products of distinct entries, and the last one is always 0.  At
    every prime p, v_p(g_k) is the sum of the k smallest v_p over the
    non-zero entries, and g_k = 0 when fewer than k are non-zero.  So for
    k <= min(nonzero count, n - 1) the k-th factor is the product of
    b^(k-th smallest v_b) over a coprime base b of the entries, and every
    later factor is 0.  The work is polynomial in n and in the entries' bit
    length; the subset gcds of the definition take 2^n steps.
    """
    a = [int(x) for x in alphas]
    if len(a) < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    if any(int(x) != x for x in alphas):
        raise ValueError("closed form needs integer weights")
    n = len(a)
    nonzero = [abs(x) for x in a if x]
    top = min(len(nonzero), n - 1)
    return HomologyGroup([d for d in _invariant_factors(nonzero, top) if d > 1], n - top)
