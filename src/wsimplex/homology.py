"""Integer homology of weighted complexes via Smith normal form.

``smith_normal_form`` diagonalises an integer matrix held as sparse rows
by unimodular row and column operations, always pivoting on a
smallest-magnitude nonzero entry (ties broken by lowest row, then column
position) and repairing the divisibility chain d1 | d2 | ... by folding
any offending row into the pivot row.  Columns move through a permutation,
not through the rows.  The transforms satisfy U @ M @ V == diag(d) with
|det U| = |det V| = 1; U is kept as sparse rows and V as sparse columns.

Homology of a validated integer-weighted complex in degree n needs one
normal form, that of d_{n+1}: the torsion coefficients are its diagonal
entries that exceed 1, and the free rank is dim C_n - rank(d_n) -
rank(d_{n+1}), with rank(d_n) the exact rank ``column_rank`` gives every
other dimension count.  ``boundary_int_rows`` fills SNF's integer rows
straight from the non-zeros of ``boundary_columns``.

``ngon_homology_closed_form`` gives the degree-0 homology of a weighted
polygon without a matrix.  The k-th invariant factor has, at every prime
p, the k-th smallest valuation v_p among the non-zero vertex weights, so
it is read off a coprime base of the weights refined by gcds, with no
factoring: the work is polynomial in the number of vertices and in the
weights' bit length.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import chain
from math import gcd

# boundary_matrix is not called here; perfbench/selftest.py reaches the
# dense view through this module's name for it.
from .chains import boundary_columns, boundary_matrix  # noqa: F401
from .complexes import SimplicialComplex
from .matrices import ExactMatrix, column_rank
from .weights import WeightFunction


def _int_entry(x) -> int:
    try:
        n = int(x)
        if n == x:
            return n
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError("matrix has non-integer entries")


def _int_rows(matrix, cols: int | None = None) -> tuple[list[list[int]], int]:
    """Integer rows and the column count, which a matrix with no rows
    still has: an ExactMatrix knows it, a list of no rows takes ``cols``.
    A ``cols`` that disagrees with the rows is refused, as is an entry that
    is not an integer (not truncated); int entries pass through as they
    are."""
    width = cols
    if isinstance(matrix, ExactMatrix):
        matrix, width = matrix.data, matrix.cols
    rows = [[x if type(x) is int else _int_entry(x) for x in row] for row in matrix]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows")
    width = len(rows[0]) if rows else width or 0
    if cols is not None and cols != width:
        raise ValueError(f"cols={cols} disagrees with the matrix's {width} columns")
    return rows, width


@dataclass
class SNFResult:
    diagonal: list[int]
    rank: int
    U: list[list[int]] | None = None
    V: list[list[int]] | None = None


def _sub(y: dict, q: int, x: dict) -> None:
    """y -= q * x on sparse vectors (q and the entries of x non-zero),
    dropping the zeros it leaves."""
    for k, v in x.items():
        w = y.get(k, 0) - q * v
        if w:
            y[k] = w
        else:
            del y[k]


def smith_normal_form(matrix, transforms: bool = False, cols: int | None = None) -> SNFResult:
    """Smith normal form of an integer matrix, on sparse rows.

    Each row is a ``{column id: value}`` dict of its non-zeros.  A row swap
    swaps two list slots; a column swap swaps two entries of the position
    <-> column id permutation and touches no row.  The pivot is a smallest
    |v|, ties to the lowest row and then the lowest column position: the
    rule of the dense loop this replaced (kept in tests/oracles.py), so the
    diagonal, U and V are its own entry for entry.  The pivot search, both
    division passes, the divisibility check and the fold visit only
    non-zeros.  With ``transforms`` the unimodular U (rows x rows) and V
    (cols x cols) with U @ M @ V diagonal are returned as nested lists.  U
    is one sparse row per matrix row and follows every row operation; V is
    one sparse column per column id and follows every column operation.
    ``cols`` is the column count of a list of no rows; else it must agree.
    """
    dense, nc = _int_rows(matrix, cols)
    rows, nr = [{j: x for j, x in enumerate(row) if x} for row in dense], len(dense)
    col_at, pos_of = list(range(nc)), list(range(nc))
    U = [{i: 1} for i in range(nr)] if transforms else None
    V = [{j: 1} for j in range(nc)] if transforms else None
    t, bound = 0, min(nr, nc)
    while t < bound:
        best = None  # smallest |entry| of the trailing rows, first row holding it
        for i in range(t, nr):
            if rows[i]:
                v = min(map(abs, rows[i].values()))
                if best is None or v < best[0]:
                    best = (v, i)
                    if v == 1:
                        break
        if best is None:
            break
        v, pi = best
        pj = min(pos_of[c] for c, x in rows[pi].items() if abs(x) == v)
        rows[t], rows[pi] = rows[pi], rows[t]
        ct, cs = col_at[pj], col_at[t]
        col_at[t], col_at[pj], pos_of[ct], pos_of[cs] = ct, cs, t, pj
        if transforms:
            U[t], U[pi] = U[pi], U[t]
        if rows[t][ct] < 0:
            rows[t] = {c: -x for c, x in rows[t].items()}
            if transforms:
                U[t] = {k: -x for k, x in U[t].items()}
        row, pivot = rows[t], rows[t][ct]
        below = []  # rows under the pivot left with a non-zero in its column
        for i in [i for i in range(t + 1, nr) if ct in rows[i]]:
            q = rows[i][ct] // pivot
            _sub(rows[i], q, row)
            if transforms:
                _sub(U[i], q, U[t])
            if ct in rows[i]:
                below.append(i)
        quotients = {c: x // pivot for c, x in row.items() if c != ct}
        for r in [row] + [rows[i] for i in below]:
            _sub(r, r[ct], quotients)  # every column op at once on one row
        if transforms:
            for c, q in quotients.items():
                _sub(V[c], q, V[ct])
        if below or len(row) > 1:
            continue
        lower = chain.from_iterable(map(dict.values, rows[t + 1:]))
        if pivot > 1 and any(map(pivot.__rmod__, lower)):
            offender = next(i for i in range(t + 1, nr)
                            if any(x % pivot for x in rows[i].values()))
            # fold the offending row in; the next division pass shrinks the pivot
            _sub(row, -1, rows[offender])
            if transforms:
                _sub(U[t], -1, U[offender])
            continue
        t += 1

    diagonal = [rows[i].get(col_at[i], 0) for i in range(bound)]
    rank = sum(1 for d in diagonal if d)
    if not transforms:
        return SNFResult(diagonal, rank)
    return SNFResult(diagonal, rank, [[u.get(k, 0) for k in range(nr)] for u in U],
                     [[V[c].get(r, 0) for c in col_at] for r in range(nc)])


def boundary_int_rows(complex: SimplicialComplex, phi: WeightFunction, n: int) -> list[list[int]]:
    """Integer rows of the degree-n weighted boundary, filled from the
    non-zeros of ``boundary_columns``; a non-integer entry is refused."""
    columns = boundary_columns(complex, phi, n)
    rows = [[0] * len(columns) for _ in complex.basis(n - 1)]
    for j, column in enumerate(columns):
        for i, x in column.items():
            rows[i][j] = _int_entry(x)
    return rows


@dataclass
class HomologyGroup:
    """Finitely generated abelian group: torsion summands plus a free part."""

    torsion: list[int]
    free_rank: int

    def __post_init__(self):
        self.torsion = [int(d) for d in self.torsion]
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion coefficients must be >= 2")
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
    torsion story and are rejected.
    """
    if not phi.is_integral():
        raise ValueError("integer homology needs integer weight values")
    upper = smith_normal_form(boundary_int_rows(complex, phi, n + 1))
    free = len(complex.basis(n)) - column_rank(boundary_columns(complex, phi, n)) - upper.rank
    torsion = [d for d in upper.diagonal if d > 1]
    return HomologyGroup(torsion, free)


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
