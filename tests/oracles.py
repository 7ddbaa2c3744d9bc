"""Test-only oracles: the references the library is checked against.

``dense_smith_normal_form`` is the dense loop the sparse-row
``smith_normal_form`` replaced, kept as the reference for the diagonal and
rank: it rescans the whole trailing submatrix for each pivot and keeps
d1 | d2 | ... as it goes.  U and V are not unique, so
``assert_smith_transforms`` checks them by their contract instead:
|det U| = |det V| = 1 exactly, and U @ M @ V == diag(d).

``gcd_minors_oracle`` is an independent route to the invariant factors:
the product d1*...*dk equals the gcd of all k x k minor determinants, so it
checks ``smith_normal_form`` without sharing any code with it.  It and
``integer_det`` take matrices as lists of integer rows.

The loading references are the readers the one-pass loader replaced, kept
so the loader can be checked against them output for output:
``stack_closure`` closes a simplex list under faces with a work stack,
``reference_parse_weight_text`` parses every field of every line afresh and
finds each face index by scanning, and ``reference_violations`` multiplies
out both sides of every compatibility condition as Gaussian rationals.
``reference_parse_inner_weights_text`` and ``reference_parse_matrix_text``
are the inner product weight and ``ffl --classify`` matrix readers with the
line loop each spelled out on its own, before the readers shared one.

The weight constructor references (``reference_identity_weight`` through
``reference_ffl_weights``) are the seven constructors as they were before
they shared one validated builder: each fills its own table entry by entry,
hands it to the checking ``WeightFunction`` constructor and validates it.

The dense algebra references are the exact products the sparse Laplacian
assembly replaced: ``matmul`` multiplies ``ExactMatrix`` factors out entry
by entry, ``scale`` multiplies every entry by one scalar and ``diagonal``
builds a diagonal matrix.  The dense matrix references (``dense_add``,
``dense_transpose``, ``dense_rank`` and the rest) work on lists of rows,
the form ``ExactMatrix`` stored before it held its non-zeros only.
``MOTIF_REFERENCE_TABLE`` holds the feedforward loop eigendata the motif
tests reproduce.

``sympy_rank`` is sympy's ``DomainMatrix`` rank over QQ_I of a matrix
given by its sparse columns, the independent route to every exact rank
(it skips the calling test without sympy).

``float_text`` is the per-float spelling the command line's writer used
for a numpy array before it formatted whole blocks of rows: the repr of
the float rounded to 12 significant digits, with json's ``NaN`` and
``Infinity``.  ``rounded_lists`` is the nested list of those rounded
floats that the writer prints for an array.
"""

from __future__ import annotations

import json
import warnings
from fractions import Fraction
from collections.abc import Mapping
from functools import reduce
from itertools import combinations
from math import gcd, lcm
from operator import lt

import pytest

from wsimplex.complexes import Simplex, SimplicialComplex, _trusted, build_complex
from wsimplex.gaussian import GaussianRational
from wsimplex.homology import SNFResult, smith_normal_form
from wsimplex.matrices import ExactMatrix
from wsimplex.spectral import InnerProductWeights
from wsimplex.weights import (
    Violation,
    WeightCompletenessError,
    WeightFunction,
    required_pairs,
    validate_weight,
)


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


def _snf_rows(matrix, cols) -> tuple[list[list[int]], int]:
    """Dense integer rows and the column count of dense rows, an
    ExactMatrix or sparse ``{column: value}`` rows with ``cols``."""
    if isinstance(matrix, ExactMatrix):
        return [[int(x) for x in row] for row in matrix.data], matrix.cols
    rows = list(matrix)
    if rows and isinstance(rows[0], dict):
        return [[int(row.get(j, 0)) for j in range(cols)] for row in rows], cols
    return [[int(x) for x in row] for row in rows], len(rows[0]) if rows else cols or 0


def dense_smith_normal_form(matrix, cols: int | None = None) -> SNFResult:
    """The diagonal and rank of ``smith_normal_form`` by a dense loop.  It
    takes the two input forms ``smith_normal_form`` takes, and bare
    ``{column: value}`` rows with ``cols``, on valid input only."""
    m, nc = _snf_rows(matrix, cols)
    nr = len(m)
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
    return SNFResult(diagonal, sum(1 for d in diagonal if d))


def snf_input(rows, cols):
    """Dense integer rows as ``smith_normal_form`` reads them: as they are,
    or, with no rows, as a 0 x cols ExactMatrix, which keeps its width."""
    return rows if rows else ExactMatrix([], cols=cols)


def _int_product(a, b, width: int) -> list[list[int]]:
    """a @ b for integer rows, b of ``width`` columns, skipping zeros."""
    out = []
    for row in a:
        acc = [0] * width
        for x, other in zip(row, b):
            if x:
                for j, y in enumerate(other):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def assert_smith_transforms(rows, cols: int, result) -> None:
    """U and V of ``result`` by their contract, for the dense integer
    ``rows`` of ``cols`` columns: U is rows x rows and V cols x cols, both
    with determinant 1 or -1 exactly, and U @ M @ V == diag(diagonal)."""
    nr = len(rows)
    assert [len(u) for u in result.U] == [nr] * nr
    assert [len(v) for v in result.V] == [cols] * cols
    assert abs(integer_det(result.U)) == 1
    assert abs(integer_det(result.V)) == 1
    assert _int_product(_int_product(result.U, rows, cols), result.V, cols) == [
        [result.diagonal[i] if i == j else 0 for j in range(cols)] for i in range(nr)]


def assert_matches_dense(matrix):
    """Both modes of the sparse loop on an ExactMatrix or dense rows: the
    diagonal and rank of the dense loop, and with transforms, U and V by
    their contract."""
    dense = dense_smith_normal_form(matrix)
    result = smith_normal_form(matrix, transforms=True)
    assert (result.diagonal, result.rank) == (dense.diagonal, dense.rank)
    assert_smith_transforms(*_snf_rows(matrix, None), result)
    assert smith_normal_form(matrix) == dense  # U and V None


# -- the frozen elimination ------------------------------------------------------


def _reference_sub(y: dict, q: int, x: dict) -> None:
    for k, v in x.items():
        w = y.get(k, 0) - q * v
        if w:
            y[k] = w
        else:
            del y[k]


def _reference_sub_row(y: dict, i: int, q: int, x: dict, holders: list, low):
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


def _reference_combine(x: dict, y: dict, a: int, b: int) -> dict:
    return {k: w for k in x.keys() | y.keys() if (w := a * x.get(k, 0) + b * y.get(k, 0))}


def _reference_bezout(a: int, b: int) -> tuple[int, int, int]:
    g = gcd(a, b)
    s = pow(a // g, -1, b // g)
    return g, s, (g - s * a) // b


def reference_diagonal(rows: list[dict], nc: int, U: list[dict] | None = None,
                       V: list[dict] | None = None) -> list[tuple[int, int, int]]:
    """``homology._diagonal`` before its pivot search and row pass were
    made leaner, with its helpers: the (pivot, row id, column id) steps
    of the elimination of the sparse integer rows (consumed), applied to
    U and V when given.  The leaner loop must take the same steps."""
    from heapq import heapify, heappop, heappush, heapreplace

    empty = float("inf")
    holders = [set() for _ in range(nc)]
    for i, row in enumerate(rows):
        for c in row:
            holders[c].add(i)
    least = [min(map(abs, row.values())) if row else empty for row in rows]
    heap = [(v, i) for i, v in enumerate(least)]
    heapify(heap)

    def lower(i, low):
        if low < least[i]:
            least[i] = low
            heappush(heap, (low, i))

    steps = []
    while heap and heap[0][0] != empty:
        v, r = heap[0]
        if v != least[r]:
            heappop(heap)
            continue
        row = rows[r]
        true = min(map(abs, row.values())) if row else empty
        if true != v:
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
            g, x, y = _reference_bezout(p, b)
            mix = ((x, y), (-b // g, p // g))
            for i, (y, z) in zip((r, s), mix):
                new = _reference_combine(row, old, y, z)
                for k in rows[i].keys() - new.keys():
                    holders[k].discard(i)
                for k in new.keys() - rows[i].keys():
                    holders[k].add(i)
                rows[i] = new
                least[i] = min(map(abs, new.values())) if new else empty
                heappush(heap, (least[i], i))
            if U is not None:
                U[r], U[s] = (_reference_combine(U[r], U[s], y, z) for y, z in mix)
            continue
        for i in others:
            q = rows[i][c] // p
            lower(i, _reference_sub_row(rows[i], i, q, row, holders, least[i]))
            if U is not None:
                _reference_sub(U[i], q, U[r])
        if V is not None:
            for k, x in row.items():
                if k != c:
                    _reference_sub(V[k], x // p, V[c])
        if divides:
            for k in row:
                holders[k].discard(r)
            least[r] = -1
            steps.append((p, r, c))
        else:
            quotients = {k: x // p for k, x in row.items() if k != c}
            for i in holders[c]:
                lower(i, _reference_sub_row(rows[i], i, rows[i][c], quotients, holders,
                                            least[i]))
    return steps


# -- loading references --------------------------------------------------------


def stack_closure(simplices) -> dict[int, tuple[Simplex, ...]]:
    """The face closure as {dimension: simplices in lexicographic order},
    built by pushing every face of every new simplex on a stack."""
    members: set[Simplex] = set()
    todo = [Simplex(s) for s in simplices]
    while todo:
        s = todo.pop()
        if s in members:
            continue
        members.add(s)
        if s.dim >= 1:
            todo.extend(s.faces())
    by_dim: dict[int, list[Simplex]] = {}
    for s in members:
        by_dim.setdefault(s.dim, []).append(s)
    return {d: tuple(sorted(v)) for d, v in by_dim.items()}


def _face_index(s: Simplex, t: Simplex) -> int | None:
    missing = [i for i, v in enumerate(s) if v not in t]
    return missing[0] if len(missing) == 1 and len(t) == len(s) - 1 else None


def reference_parse_weight_text(
    text: str,
    complex: SimplicialComplex,
    default=Fraction(1),
    strict: bool = False,
) -> WeightFunction:
    """``parse_weight_text`` without caches: the same table, warnings and
    errors."""
    known = {s: s for s in complex.simplices()}

    def simplex(field: str) -> Simplex:
        vs = tuple(map(int, field.split()))
        return known.get(vs) or Simplex(vs)

    table: dict[tuple[Simplex, int], GaussianRational] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("|")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'simplex | face | value'")
        try:
            s = simplex(parts[0])
            t = simplex(parts[1])
            value = GaussianRational.from_string(parts[2])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if s not in known:
            raise ValueError(f"line {lineno}: {s} is not in the complex")
        idx = _face_index(s, t)
        if idx is None:
            raise ValueError(f"line {lineno}: {t} is not a codimension-one face of {s}")
        if (s, idx) in table and table[(s, idx)] != value:
            warnings.warn(f"line {lineno}: duplicate entry for ({s}, {t}); keeping the last")
        table[(s, idx)] = value
    missing = [pair for pair in required_pairs(complex) if pair not in table]
    if missing:
        if strict:
            s, i = missing[0]
            raise WeightCompletenessError(
                f"{len(missing)} missing entries, first ({s}, face {i})"
            )
        warnings.warn(
            f"{len(missing)} weight entries missing, defaulting to {default}"
        )
        for pair in missing:
            table[pair] = GaussianRational.coerce(default)
    return WeightFunction(complex, table)


def reference_parse_inner_weights_text(text: str) -> InnerProductWeights:
    """``parse_inner_weights_text`` with its own line loop and its own
    positivity check: the same table, warnings and errors."""
    table: dict[Simplex, Fraction] = {}
    # value text -> Fraction, for this call only: a repeat skips the regex
    values: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("|")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'simplex | value'")
        sf, vf = parts
        try:
            vs = tuple(map(int, sf.split()))
            # int() makes no bool, so a non-empty, non-negative strictly
            # ascending line is a valid simplex; Simplex() words the refusal
            # of any other
            valid = vs and vs[0] >= 0 and all(map(lt, vs, vs[1:]))
            s = _trusted(vs) if valid else Simplex(vs)
            value = values.get(vf)
            if value is None:
                value = values[vf] = Fraction(vf.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if s in table and table[s] != value:
            warnings.warn(f"line {lineno}: duplicate entry for {s}; keeping the last")
        table[s] = value
    # a value a later line overwrote is not refused
    for s, value in table.items():
        if value <= 0:
            raise ValueError(f"inner product weight for {s} must be positive, got {value}")
    return InnerProductWeights(table, Fraction(1))


def reference_parse_matrix_text(text: str) -> ExactMatrix:
    """The ``ffl --classify`` matrix reader with its own line loop."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append([GaussianRational.from_string(t) for t in line.split()])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not rows:
        raise ValueError("no matrix rows found")
    return ExactMatrix(rows)


def reference_violations(phi: WeightFunction) -> list[Violation]:
    """``validate_weight``'s violations, with both products built and
    compared for every (simplex, i, j); phi is left as it was."""
    K = phi.complex
    violations: list[Violation] = []
    for n in range(2, K.max_dim + 1):
        for s in K.basis(n):
            faces = [s.face(i) for i in range(n + 1)]
            weights = [phi.value(s, i) for i in range(n + 1)]
            for i in range(1, n + 1):
                for j in range(i):
                    left = weights[i] * phi.value(faces[i], j)
                    right = weights[j] * phi.value(faces[j], i - 1)
                    if left != right:
                        violations.append(Violation(s, i, j, left, right))
    return violations


# -- weight constructor references ----------------------------------------------


def _reference_validated(phi: WeightFunction) -> WeightFunction:
    bad = validate_weight(phi)
    if bad:
        raise ValueError(f"constructed weight fails validation: {bad[0]}")
    return phi


def reference_identity_weight(complex: SimplicialComplex) -> WeightFunction:
    table = {pair: 1 for pair in required_pairs(complex)}
    return _reference_validated(WeightFunction(complex, table))


def reference_zero_weight(complex: SimplicialComplex) -> WeightFunction:
    table = {pair: 0 for pair in required_pairs(complex)}
    return _reference_validated(WeightFunction(complex, table))


def _reference_entry_source(a):
    if a is None:
        raise ValueError("the non-trivial entries need a value source")
    if callable(a):
        return a
    if isinstance(a, Mapping):
        return lambda s, t: a[(s, t)]
    const = GaussianRational.coerce(a)
    return lambda s, t: const


def reference_semi_trivial_weight(complex, zero_simplices, zero_faces, a=None) -> WeightFunction:
    A = {Simplex(s) for s in zero_simplices}
    B = {Simplex(s) for s in zero_faces}
    for s in complex.simplices():
        if s not in A and s not in B:
            raise ValueError(f"{s} is covered by neither zero family")
    source = _reference_entry_source(a if a is not None else 0)
    table = {}
    for s, i in required_pairs(complex):
        t = s.face(i)
        if s in A or t in B:
            table[(s, i)] = 0
        else:
            table[(s, i)] = GaussianRational.coerce(source(s, t))
    return _reference_validated(WeightFunction(complex, table))


def _reference_simplex_weighting(complex: SimplicialComplex, w) -> dict[Simplex, int]:
    getter = w if callable(w) else (lambda s: w[s])
    out = {}
    for s in complex.simplices():
        try:
            val = getter(s)
        except KeyError:
            raise ValueError(f"simplex weighting misses {s}") from None
        if not isinstance(val, int) or isinstance(val, bool):
            raise ValueError(f"simplex weight w({s}) = {val!r} is not an integer")
        out[s] = val
    return out


def reference_dawson_weight(complex: SimplicialComplex, w) -> WeightFunction:
    wmap = _reference_simplex_weighting(complex, w)
    for s, val in wmap.items():
        if val == 0:
            raise ValueError(f"w({s}) = 0; simplex weights must be nonzero")
    table = {}
    for s, i in required_pairs(complex):
        t = s.face(i)
        if wmap[s] % wmap[t] != 0:
            raise ValueError(f"w({t}) = {wmap[t]} does not divide w({s}) = {wmap[s]}")
        table[(s, i)] = wmap[s] // wmap[t]
    return _reference_validated(WeightFunction(complex, table))


def reference_cfw_weight(complex: SimplicialComplex, w, f, C="auto") -> WeightFunction:
    wmap = _reference_simplex_weighting(complex, w)
    fget = f if callable(f) else (lambda x: f[x])
    fval = {}
    for s, wv in wmap.items():
        y = fget(wv)
        if not isinstance(y, int) or isinstance(y, bool):
            raise ValueError(f"f({wv}) = {y!r} is not an integer")
        if y == 0:
            raise ValueError(f"f({wv}) = 0 but w attains {wv}")
        fval[s] = y
    if C == "auto":
        C = lcm(*(abs(v) for v in fval.values())) if fval else 1
    elif not isinstance(C, int) or isinstance(C, bool):
        raise ValueError(f"C must be an integer or 'auto', got {C!r}")
    table = {}
    for s, i in required_pairs(complex):
        table[(s, i)] = Fraction(C * fval[s], fval[s.face(i)])
    return _reference_validated(WeightFunction(complex, table))


def reference_make_ngon(alphas) -> tuple[SimplicialComplex, WeightFunction]:
    vals = [GaussianRational.coerce(a) for a in alphas]
    n = len(vals)
    if n < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    complex = build_complex(edges)
    table = {}
    for u, v in edges:
        e = Simplex((u, v))
        table[(e, 0)] = vals[v]  # face [v]
        table[(e, 1)] = vals[u]  # face [u]
    return complex, _reference_validated(WeightFunction(complex, table))


def reference_ffl_weights(a, b, c) -> tuple[SimplicialComplex, WeightFunction]:
    per_edge = {(0, 1): GaussianRational.coerce(a),
                (1, 2): GaussianRational.coerce(b),
                (0, 2): GaussianRational.coerce(c)}
    for edge, value in per_edge.items():
        if not value:
            raise ValueError(f"edge {edge} has weight 0; motif weights must be nonzero")
    complex = build_complex(per_edge.keys())
    table = {}
    for edge, value in per_edge.items():
        e = Simplex(edge)
        table[(e, 0)] = value
        table[(e, 1)] = value
    return complex, _reference_validated(WeightFunction(complex, table))


# -- dense algebra references ---------------------------------------------------


def _product(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    x, y = a.data, b.data  # each read builds fresh dense rows
    out = [[sum((x[i][k] * y[k][j] for k in range(a.cols)), GaussianRational(0))
            for j in range(b.cols)]
           for i in range(a.rows)]
    return ExactMatrix(out, a.row_labels, b.col_labels, cols=b.cols)


def matmul(*factors: ExactMatrix) -> ExactMatrix:
    """Dense exact product of the factors, left to right; the row labels
    come from the first factor and the column labels from the last."""
    return reduce(_product, factors)


def scale(m: ExactMatrix, scalar) -> ExactMatrix:
    c = GaussianRational.coerce(scalar)
    return ExactMatrix([[c * x for x in row] for row in m.data],
                       m.row_labels, m.col_labels, cols=m.cols)


def diagonal(values, row_labels=None, col_labels=None) -> ExactMatrix:
    vals = list(values)
    n = len(vals)
    data = [[vals[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return ExactMatrix(data, row_labels, col_labels, cols=n)


# -- dense matrix references -------------------------------------------------------
# Each takes a matrix as its dense rows of GaussianRational and its column
# count (the width of a matrix with no rows).


def dense_add(a: list, b: list) -> list:
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def dense_transpose(a: list, cols: int, conjugate: bool = False) -> list:
    return [[row[j].conjugate() if conjugate else row[j] for row in a] for j in range(cols)]


def dense_is_hermitian(a: list, cols: int) -> bool:
    return len(a) == cols and all(a[i][j] == a[j][i].conjugate()
                                  for i in range(cols) for j in range(i + 1))


def dense_rank(a: list, cols: int) -> int:
    """Exact rank by Gaussian elimination over the dense rows."""
    m = [row[:] for row in a]
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        head = m[rank][col]
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                factor = m[i][col] / head
                m[i] = [x - factor * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def dense_ndarray(a: list, cols: int):
    """The float64 array of the entries when all are real, else complex128."""
    import numpy as np

    real = all(x.is_real() for row in a for x in row)
    convert = float if real else complex
    return np.array([[convert(x) for x in row] for row in a],
                    dtype=np.float64 if real else np.complex128).reshape(len(a), cols)


def dense_repr(a: list, cols: int) -> str:
    if len(a) * cols > 64:
        return f"ExactMatrix({len(a)}x{cols})"
    body = "; ".join(" ".join(str(x) for x in row) for row in a)
    return f"ExactMatrix({len(a)}x{cols}: {body})"


def sympy_rank(columns, rows: int) -> int:
    """sympy's rank over QQ_I of the rows x len(columns) matrix whose
    columns are {row index: GaussianRational} dicts."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    QQ, QQ_I = sympy.QQ, sympy.QQ_I
    if not rows or not columns:
        return 0
    dense = [[QQ_I.zero] * len(columns) for _ in range(rows)]
    for j, column in enumerate(columns):
        for i, x in column.items():
            re_, im = x.re, x.im
            dense[i][j] = QQ_I(QQ(re_.numerator, re_.denominator),
                               QQ(im.numerator, im.denominator))
    return DomainMatrix(dense, (rows, len(columns)), QQ_I).rank()


def sympy_invariant_factors(rows: list[list[int]], cols: int) -> list[int]:
    """sympy's invariant factors over ZZ, made non-negative and padded with
    zeros to min(rows, cols)."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    if not rows or not cols:
        return []
    factors = [abs(int(d)) for d in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)]
    return factors + [0] * (min(len(rows), cols) - len(factors))


# -- float text ----------------------------------------------------------------


def sig12(x: float) -> float:
    """x rounded to 12 significant digits."""
    return float(f"{x:.12g}")


def float_text(x: float) -> str:
    """The JSON text the command line prints for one float of an array."""
    return json.dumps(sig12(x))


def rounded_lists(a) -> list:
    """The nested list the command line prints for a numpy float or complex
    array: 12 significant digits, [re, im] per complex entry, and a 2-d
    array as the list of its rows."""
    if a.ndim == 2:
        return [rounded_lists(row) for row in a]
    if a.dtype.kind == "c":
        return [[sig12(x), sig12(y)] for x, y in zip(a.real.tolist(), a.imag.tolist())]
    return [sig12(x) for x in a.tolist()]


# -- motif reference data ---------------------------------------------------------

_H = Fraction(1, 2)

# eigendata of the degree-0 motif Laplacian under the default encoding,
# keyed like ``ffl._SIGNS``: (a, b, c, u2, u3, lam2, lam3); the (lam2,
# lam3) labels follow the closed-form branches and are not always ascending
MOTIF_REFERENCE_TABLE = {
    ("coherent", 1): (1, 1, 1, (-_H, -_H, 1), (-1, 1, 0), 3, 3),
    ("coherent", 2): (2, 1, 2, (0, -1, 1), (-2, 1, 1), 6, 12),
    ("coherent", 3): (1, 2, 2, (-_H, -_H, 1), (-1, 1, 0), 12, 6),
    ("coherent", 4): (2, 2, 1, (-1, 0, 1), (1, -2, 1), 6, 12),
    ("incoherent", 1): (1, 2, 1, (-2, 1, 1), (0, -1, 1), 3, 9),
    ("incoherent", 2): (2, 2, 2, (-_H, -_H, 1), (-1, 1, 0), 12, 12),
    ("incoherent", 3): (1, 1, 2, (1, -2, 1), (-1, 0, 1), 3, 9),
    ("incoherent", 4): (2, 1, 1, (-_H, -_H, 1), (-1, 1, 0), 3, 9),
}
