"""Test-only oracles for the Smith normal form.

``gcd_minors_oracle`` is an independent route to the invariant factors:
the product d1*...*dk equals the gcd of all k x k minor determinants, so it
checks ``smith_normal_form`` without sharing any code with it.  Both take
matrices as lists of integer rows.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


def _int_rows(matrix) -> list[list[int]]:
    rows = [[int(x) for x in row] for row in matrix]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows")
    return rows


def integer_det(matrix) -> int:
    """Exact determinant of a square integer matrix (fraction-free)."""
    a = _int_rows(matrix)
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def gcd_minors_oracle(matrix, k: int) -> int:
    """gcd of all k x k minor determinants (0 when k is out of range or all
    minors vanish).  Independent check: it equals d1*...*dk from the SNF."""
    rows = _int_rows(matrix)
    nr, nc = len(rows), len(rows[0]) if rows else 0
    if k <= 0:
        raise ValueError("minor order must be positive")
    if k > min(nr, nc):
        return 0
    g = 0
    for ridx in combinations(range(nr), k):
        for cidx in combinations(range(nc), k):
            sub = [[rows[i][j] for j in cidx] for i in ridx]
            g = gcd(g, integer_det(sub))
            if g == 1:
                return 1
    return g
