"""Integer homology of weighted complexes via Smith normal form.

``smith_normal_form`` diagonalises an integer matrix by unimodular row and
column operations, always pivoting on a smallest-magnitude nonzero entry
(ties broken by lowest row, then column) and repairing the divisibility
chain d1 | d2 | ... by folding any offending row into the pivot row.  The
returned transforms satisfy U @ M @ V == diag(d) with |det U| = |det V| = 1;
they are carried inside the working matrix, so one loop serves both calls.

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
    An entry that is not an integer is refused, not truncated; int entries
    pass through as they are."""
    if isinstance(matrix, ExactMatrix):
        matrix, cols = matrix.data, matrix.cols
    rows = [[x if type(x) is int else _int_entry(x) for x in row] for row in matrix]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows")
    return rows, len(rows[0]) if rows else cols or 0


@dataclass
class SNFResult:
    diagonal: list[int]
    rank: int
    U: list[list[int]] | None = None
    V: list[list[int]] | None = None


def smith_normal_form(matrix, transforms: bool = False, cols: int | None = None) -> SNFResult:
    """Smith normal form of an integer matrix.

    With ``transforms`` the unimodular U (rows x rows) and V (cols x cols)
    with U @ M @ V diagonal are returned as plain nested lists.  They ride
    in the working matrix: U as extra columns of each row and V as extra
    rows below it, so every row or column operation is one statement that
    updates M and its transform together.  ``cols`` is the column count of
    a matrix given as a list of no rows.
    """
    m, nc = _int_rows(matrix, cols)
    nr = len(m)
    if transforms:
        m = [row + [int(i == k) for k in range(nr)] for i, row in enumerate(m)]
        m += [[int(i == j) for j in range(nc)] for i in range(nc)]
    t = 0
    bound = min(nr, nc)
    while t < bound:
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                v = abs(m[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
                    if v == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            m[t], m[pi] = m[pi], m[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
        pivot = m[t][t]
        clean = True
        for i in range(t + 1, nr):
            if m[i][t]:
                q = m[i][t] // pivot
                m[i] = [x - q * y for x, y in zip(m[i], m[t])]
                if m[i][t]:
                    clean = False
        for j in range(t + 1, nc):
            if m[t][j]:
                q = m[t][j] // pivot
                for row in m:
                    row[j] -= q * row[t]
                if m[t][j]:
                    clean = False
        if not clean:
            continue
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if m[i][j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            # fold the offending row in; the next division pass shrinks the pivot
            m[t] = [x + y for x, y in zip(m[t], m[offender])]
            continue
        t += 1

    diagonal = [m[i][i] for i in range(bound)]
    rank = sum(1 for d in diagonal if d)
    if not transforms:
        return SNFResult(diagonal, rank)
    return SNFResult(diagonal, rank, [row[nc:] for row in m[:nr]], m[nr:])


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
