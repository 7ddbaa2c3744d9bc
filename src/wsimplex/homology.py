"""Integer homology of weighted complexes via Smith normal form.

``smith_normal_form`` diagonalises an integer matrix (dense rows, an
``ExactMatrix`` or sparse ``{column: value}`` rows) by unimodular row and
column operations on one dict of non-zeros per row, always pivoting on a
smallest-magnitude nonzero entry (ties broken by lowest row, then column
position) and repairing the divisibility chain d1 | d2 | ... by folding
any offending row into the pivot row.  Indexes keep each pivot step's
cost near the non-zeros it changes.  The transforms satisfy U @ M @ V ==
diag(d) with |det U| = |det V| = 1; U is kept as sparse rows and V as
sparse columns.

Homology of a validated integer-weighted complex in degree n needs one
normal form, that of d_{n+1}: the torsion coefficients are its diagonal
entries that exceed 1, and the free rank is dim C_n - rank(d_n) -
rank(d_{n+1}), with rank(d_n) the exact rank ``column_rank`` gives every
other dimension count.  The pair caches that torsion and rank, as it
caches the boundary columns and ranks (see ``chains``), so a repeated
query runs no normal form.  ``boundary_int_rows`` writes SNF's sparse
integer rows straight from the non-zeros of ``boundary_columns``.

``ngon_homology_closed_form`` gives the degree-0 homology of a weighted
polygon without a matrix.  The k-th invariant factor has, at every prime
p, the k-th smallest valuation v_p among the non-zero vertex weights, so
it is read off a coprime base of the weights refined by gcds, with no
factoring: the work is polynomial in the number of vertices and in the
weights' bit length.

``SNFResult`` and ``HomologyGroup`` are records (``complexes.Record``):
``==`` and ``repr`` by their fields, unhashable.  A ``HomologyGroup`` takes
integers alone (ints, or anything with ``__index__``) for its torsion and
free rank, and refuses anything else with a ``ValueError``.
"""

from __future__ import annotations

from bisect import insort
from itertools import compress, repeat
from math import gcd
from operator import index

# boundary_matrix is not called here; perfbench/selftest.py reaches the
# boundary matrix through this module's name for it.
from .chains import _boundary, _cached, _check_pair, _rank, boundary_matrix  # noqa: F401
from .complexes import Record, SimplicialComplex
from .matrices import ExactMatrix
from .weights import WeightFunction


def _int_entry(x) -> int:
    try:
        n = int(x)
        if n == x:
            return n
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError("matrix has non-integer entries")


def _sparse_rows(matrix, cols: int | None = None) -> tuple[list[dict], int]:
    """The matrix as one ``{column: int}`` dict of non-zeros per row, and
    its column count.  Three forms are read: an ``ExactMatrix``, of which
    only the non-zeros are converted; dense rows of one length, a list of
    no rows taking its width from ``cols``; and ``{column: value}`` dicts,
    which need ``cols``.  A ragged row, a ``cols`` that disagrees with the
    rows, a column outside ``range(cols)`` and an entry that is not an
    integer (not truncated) are refused; int entries pass through."""
    if isinstance(matrix, ExactMatrix):
        rows = [{j: _int_entry(x) for j, x in row.items()} for row in matrix._entries]
        width = matrix.cols
    elif (matrix := list(matrix)) and isinstance(matrix[0], dict):
        if cols is None:
            raise ValueError("sparse rows need cols")
        if not all(isinstance(row, dict) for row in matrix):
            raise ValueError("sparse and dense rows mixed")
        rows = [{j: y for j, x in row.items() if (y := x if type(x) is int else _int_entry(x))}
                for row in matrix]
        width = cols
        for row in rows:
            if row and not (0 <= min(row) and max(row) < cols):
                raise ValueError(f"column outside range({cols}) in a sparse row")
    else:
        width = len(matrix[0]) if matrix else cols or 0
        if any(isinstance(row, dict) or len(row) != width for row in matrix):
            mixed = any(isinstance(row, dict) for row in matrix)
            raise ValueError("sparse and dense rows mixed" if mixed else "ragged rows")
        rows = [{j: y for j, x in enumerate(row) if (y := x if type(x) is int else _int_entry(x))}
                for row in matrix]
    if cols is not None and cols != width:
        raise ValueError(f"cols={cols} disagrees with the matrix's {width} columns")
    return rows, width


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


def smith_normal_form(matrix, transforms: bool = False, cols: int | None = None) -> SNFResult:
    """Smith normal form of an integer matrix, on sparse rows.

    ``matrix`` is dense integer rows, an ``ExactMatrix`` or ``{column:
    value}`` rows; ``cols`` is the column count of sparse rows and of a
    list of no rows, and must agree with any other form.  Each row is read
    once into a dict of its non-zeros.  Rows and columns move through slot
    <-> id permutations, so a swap touches no dict.

    Three indexes make a pivot step cost about the non-zeros it changes.
    ``least[s]`` bounds the least |entry| of the row in slot s from below:
    row operations lower it to what they write, a swap swaps it, and the
    pivot row is the first slot holding ``min(least[t:])`` once its true
    least |entry| confirms the bound (a stale bound is raised to the truth
    and the search repeated).  ``holders[c]`` is the set of ids of the rows
    with a non-zero in column c.  ``g`` divides every trailing entry, as
    integer row and column operations keep a common divisor: it starts at
    1 and becomes the pivot once a divisibility check passes, so a pivot
    equal to ``g`` skips the check.

    The pivot is a smallest |v|, ties to the lowest row slot and then the
    lowest column position, and a fold takes the first slot under the
    pivot with an entry it does not divide: the rules of the dense loop in
    tests/oracles.py, so the diagonal, U and V are its own entry for
    entry.  With ``transforms``, U (rows x rows, one sparse row per row
    id) and V (cols x cols, one sparse column per column id), unimodular
    with U @ M @ V diagonal, follow every row and column operation and are
    returned as nested lists.
    """
    rows, nc = _sparse_rows(matrix, cols)
    nr = len(rows)
    least = [min(map(abs, row.values())) if row else _EMPTY for row in rows]
    holders = [set() for _ in range(nc)]
    for i, row in enumerate(rows):
        for c in row:
            holders[c].add(i)
    row_at, col_at = list(range(nr)), list(range(nc))
    slot_of, pos_of = row_at[:], col_at[:]
    U = [{i: 1} for i in range(nr)] if transforms else None
    V = [{j: 1} for j in range(nc)] if transforms else None
    t, bound, g = 0, min(nr, nc), 1
    while t < bound:
        v = min(least[t:])
        if v == _EMPTY:
            break
        pi = least.index(v, t)
        rt = row_at[pi]
        row = rows[rt]
        true = min(map(abs, row.values())) if row else _EMPTY
        if true != v:  # a stale bound: raise it and search again
            least[pi] = true
            continue
        pj = min(pos_of[c] for c, x in row.items() if abs(x) == v)
        rs = row_at[t]
        row_at[t], row_at[pi], slot_of[rt], slot_of[rs] = rt, rs, t, pi
        least[t], least[pi] = v, least[t]
        ct, cs = col_at[pj], col_at[t]
        col_at[t], col_at[pj], pos_of[ct], pos_of[cs] = ct, cs, t, pj
        if row[ct] < 0:
            row = rows[rt] = {c: -x for c, x in row.items()}
            if transforms:
                U[rt] = {k: -x for k, x in U[rt].items()}
        pivot = row[ct]
        below = []  # rows under the pivot left with a non-zero in its column
        for i in holders[ct] - {rt}:
            r = rows[i]
            q = r[ct] // pivot
            s = slot_of[i]
            least[s] = _sub_row(r, i, q, row, holders, least[s])
            if transforms:
                _sub(U[i], q, U[rt])
            if ct in r:
                below.append(i)
        if len(row) > 1:
            quotients = {c: x // pivot for c, x in row.items() if c != ct}
            for i in [rt] + below:  # every column op at once on one row
                s = slot_of[i]
                least[s] = _sub_row(rows[i], i, rows[i][ct], quotients, holders, least[s])
            if transforms:
                for c, q in quotients.items():
                    _sub(V[c], q, V[ct])
        if below or len(row) > 1:
            continue
        if pivot != g:
            # the first row under the pivot with an entry it does not divide,
            # found by one C-level pass: per row, any(x % pivot for x in it)
            lower = row_at[t + 1:]
            remainders = map(map, repeat(pivot.__rmod__),
                             map(dict.values, map(rows.__getitem__, lower)))
            offender = next(compress(lower, map(any, remainders)), None)
            if offender is not None:
                # fold the offending row in; the next division pass shrinks the pivot
                least[t] = _sub_row(row, rt, -1, rows[offender], holders, least[t])
                if transforms:
                    _sub(U[rt], -1, U[offender])
                continue
            g = pivot
        t += 1

    diagonal = [rows[row_at[i]].get(col_at[i], 0) for i in range(bound)]
    rank = sum(1 for d in diagonal if d)
    if not transforms:
        return SNFResult(diagonal, rank)
    return SNFResult(diagonal, rank, [[U[i].get(k, 0) for k in range(nr)] for i in row_at],
                     [[V[c].get(r, 0) for c in col_at] for r in range(nc)])


def boundary_int_rows(complex: SimplicialComplex, phi: WeightFunction, n: int) -> list[dict]:
    """Sparse integer rows ``{column: int}`` of the degree-n weighted
    boundary, from the non-zeros of ``boundary_columns``; a non-integer
    entry is refused.  ``smith_normal_form`` reads them with ``cols`` =
    the number of n-simplices."""
    _check_pair(complex, phi)
    rows = [{} for _ in complex.basis(n - 1)]
    for j, column in enumerate(_boundary(phi, n)):
        for i, x in column.items():
            rows[i][j] = _int_entry(x)
    return rows


def _integer(x, what: str) -> int:
    """x as an int, for an int or anything with ``__index__``."""
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"{what} {x!r} is not an integer") from None


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
        snf = smith_normal_form(boundary_int_rows(complex, phi, n + 1),
                                cols=len(complex.basis(n + 1)))
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
    ds = [1] * top
    for b in _coprime_base(sorted(set(nonzero))):
        vs = sorted(_valuation(x, b) for x in nonzero if x % b == 0)
        zeros = len(nonzero) - len(vs)
        for k in range(zeros, top):
            ds[k] *= b ** vs[k - zeros]
    return HomologyGroup([d for d in ds if d > 1], n - top)
