"""The weighted boundary operator: its sparse columns and matrices.

The weighted boundary of an n-simplex s is

    sum_i (-1)^i * phi(s, d_i s) * d_i s

and ``_build_columns`` writes it once, for every n-simplex at a time: each
column straight from s's row of phi's weights, its row indices read from
s's row of the complex's face table (the positions of d_0 s, ..., d_n s in
basis(n-1)), with no face made or looked up.
``boundary_columns`` (the non-zero entries of each column, in the
lexicographic bases) is the form ranks, Laplacians and ``apply_boundary``
read; ``boundary_matrix`` holds the same entries as a sparse
``ExactMatrix``, for callers that ask for a matrix.  Integer homology
reads none of them: ``_integer_rows`` fills the rows of d_n as plain
ints, by the same sign rule, straight from phi's rows and the face table,
and nothing of them is held.  The
coboundary in degree n is the transpose of the boundary in degree n+1
(both bases are self-dual here), and the adjoint against the standard
inner product is the conjugate transpose (``ExactMatrix.conj_transpose``).
All of them demand a validated weight function: for an unvalidated table
the composite of two boundaries need not vanish and none of the
homological formulas downstream apply.

A weight function stands for its (complex, weight) pair, and each exact
operator of the pair is built once: ``_cached`` fills the weight
function's private table of parts on the first ask, after the pair has
passed ``_check_pair``, and every later call reads it.  A part is held
only if a later call reads it back, which leaves five kinds per degree:
the columns of d_n (``_boundary``) and the lows below, here; the torsion
and rank of d_n's normal form (``homology``); the Laplacian sum and the
harmonic basis (``spectral``).  The Laplacian parts and the float factor
are rebuilt from the columns on each call instead.  Every part but the
harmonic bases is sparse: dicts of non-zeros, frozensets of indices, or
the torsion and rank of a normal form, and never an ``ExactMatrix``.  A
harmonic basis is held as its answer alone, a read-only f_n x dim H^n
array, and no other part of a decomposition is.  What a public function
returns is built fresh from the cached parts, so a caller that changes
it changes nothing held.

The rank vector comes from one upward sweep over the coboundaries.  The
part ``("lows", n)`` holds lows_n, the indices in basis(n) of the pivot
rows of the coboundary C^{n-1} -> C^n, whose columns are the rows of the
cached d_n, reduced by ``pivot_lows``; r_n = |lows_n|.  Degrees outside
1..max_dim have no lows and build no columns.  The sweep clears: each
column whose index is in lows_{n-1} is left empty.  The reduced column
with low j one degree down is a coboundary with its last non-zero at j,
and the next coboundary sends it to zero; so column j of that one is a
combination of the columns before it, and would reduce to zero.  So the
lows are those of the full reduction, and only
dim H^{n-1} = f_{n-1} - r_{n-1} - r_n columns reduce to zero.
The lemma needs the composite of two coboundaries to vanish, which holds
for a validated weight only: callers pass ``_check_pair`` first.  A
boundary or coboundary matrix carries the pair's rank of its d_n when the
pair holds it, so its ``rank()`` eliminates nothing; a boundary matrix
also carries the torsion and rank of d_n's normal form that
``weighted_homology`` one degree down read off the integer rows and the
pair holds, so its ``smith_normal_form`` eliminates nothing either.
"""

from __future__ import annotations

from .complexes import Record, Simplex, SimplicialComplex
from .gaussian import ZERO, GaussianRational
from .matrices import ExactMatrix, pivot_lows
from .weights import WeightFunction


def _check_pair(complex: SimplicialComplex, phi: WeightFunction) -> None:
    # equal complexes compare two simplex indexes: a walk of every simplex
    if phi.complex is not complex and phi.complex != complex:
        raise ValueError("weight function belongs to a different complex")
    phi.require_validated()


def _cached(phi: WeightFunction, part: str, n: int, build):
    """phi's cached ``part`` in degree n, made by ``build()`` on the first
    ask.  The caller has checked the pair, and reads the value only.  Two
    threads that miss together both build it; the builds are equal, so
    either may stay."""
    try:
        return phi._operators[part, n]
    except KeyError:
        value = phi._operators[part, n] = build()
        return value


def _build_columns(phi: WeightFunction, n: int) -> list[dict]:
    """Column s of d_n: {position of d_i s: (-1)^i phi(s, d_i s)} over the
    non-zero weights, in the order of i; a vertex has none.  Each column
    reads s's row of phi and s's row of the complex's face table."""
    if not 0 <= n <= phi.complex.max_dim:
        return []  # no n-simplices
    return [{f[i]: -x if i % 2 else x for i, x in enumerate(w) if x}
            for f, w in zip(phi.complex._faces(n), phi._rows[n])]


def _integer_rows(phi: WeightFunction, n: int) -> list[dict]:
    """Row t of d_n over the integers, for an integral phi: {position of s:
    (-1)^i a} over the n-simplices s with d_i s = t and phi(s, d_i s) = a
    non-zero, in basis order, filled by one pass over phi's rows and the
    face table; every row is empty outside 1..max_dim."""
    rows = [{} for _ in phi.complex.basis(n - 1)]
    if 1 <= n <= phi.complex.max_dim:  # a negative n never reads _rows from the end
        for p, (f, w) in enumerate(zip(phi.complex._faces(n), phi._rows[n])):
            for i, x in enumerate(w):
                a = x._t[0]  # x is (a, 0, 1)
                if a:
                    rows[f[i]][p] = -a if i % 2 else a
    return rows


def _boundary(phi: WeightFunction, n: int) -> list[dict]:
    """The cached non-zero columns of d_n (see ``boundary_columns``)."""
    return _cached(phi, "columns", n, lambda: _build_columns(phi, n))


def _lows(phi: WeightFunction, n: int) -> frozenset:
    """The cached lows_n: the indices in basis(n) of the pivot rows of the
    reduced coboundary C^{n-1} -> C^n."""
    return _cached(phi, "lows", n, lambda: _reduce_coboundary(phi, n))


def _reduce_coboundary(phi: WeightFunction, n: int) -> frozenset:
    if not 1 <= n <= phi.complex.max_dim:
        return frozenset()  # a zero map: nothing to build
    # the columns of the coboundary are fresh rows of d_n, one per
    # (n-1)-simplex; those in lows_{n-1} are cleared, so left empty
    cleared = _lows(phi, n - 1)
    columns = [{} for _ in phi.complex.basis(n - 1)]
    for i, column in enumerate(_boundary(phi, n)):
        for j, x in column.items():
            if j not in cleared:
                columns[j][i] = x
    return pivot_lows(columns)


def _rank(phi: WeightFunction, n: int) -> int:
    """The exact rank r_n of d_n: the number of lows_n."""
    return len(_lows(phi, n))


def boundary_columns(complex: SimplicialComplex, phi: WeightFunction, n: int) -> list[dict]:
    """The weighted boundary C_n -> C_{n-1}: for each n-simplex in basis
    order, its non-zero entries as {index in basis(n-1): value}."""
    _check_pair(complex, phi)
    return [dict(column) for column in _boundary(phi, n)]


def _known_rank(phi: WeightFunction, n: int) -> int | None:
    """r_n, if the pair has reduced the coboundary into degree n."""
    lows = phi._operators.get(("lows", n))
    return None if lows is None else len(lows)


def boundary_matrix(complex: SimplicialComplex, phi: WeightFunction, n: int) -> ExactMatrix:
    """The matrix of ``boundary_columns``, its rows filled by one pass over
    the cached columns; zero-sized outside the range 1..max_dim.  It
    carries the rank and the Smith (torsion, rank) of d_n that the pair
    holds, if any."""
    _check_pair(complex, phi)
    rows = [{} for _ in complex.basis(n - 1)]
    for j, column in enumerate(_boundary(phi, n)):
        for i, x in column.items():
            rows[i][j] = x
    m = ExactMatrix._from_rows(rows, len(complex.basis(n)), complex.basis(n - 1),
                               complex.basis(n))
    m._rank = _known_rank(phi, n)
    m._snf = phi._operators.get(("snf", n))
    return m


def coboundary_matrix(complex: SimplicialComplex, phi: WeightFunction, n: int) -> ExactMatrix:
    """Matrix of the weighted coboundary C^n -> C^{n+1}: the transpose of
    the degree-(n+1) boundary matrix, one row per column of it."""
    _check_pair(complex, phi)
    rows = [dict(column) for column in _boundary(phi, n + 1)]
    m = ExactMatrix._from_rows(rows, len(complex.basis(n)), complex.basis(n + 1),
                               complex.basis(n))
    m._rank = _known_rank(phi, n + 1)
    return m


class Chain(Record):
    """Formal combination of equal-dimension simplices.  Each key is read as
    a simplex of the chain's dimension, and the chain keeps its non-zero
    coefficients in a dict of its own."""

    __slots__ = ("dimension", "coefficients")

    def __init__(self, dimension: int, coefficients: dict = {}):  # only read
        clean = {}
        for s, c in coefficients.items():
            s = Simplex(s)
            if s.dim != dimension:
                raise ValueError(f"{s} has dimension {s.dim}, chain has {dimension}")
            c = GaussianRational.coerce(c)
            if c:
                clean[s] = c
        self.dimension = dimension
        self.coefficients = clean

    def coefficient(self, simplex) -> GaussianRational:
        return self.coefficients.get(Simplex(simplex), GaussianRational(0))

    def is_zero(self) -> bool:
        return not self.coefficients

    def __add__(self, other: "Chain") -> "Chain":
        if self.dimension != other.dimension:
            raise ValueError("chain dimensions differ")
        coeffs = dict(self.coefficients)
        for s, c in other.coefficients.items():
            coeffs[s] = coeffs.get(s, GaussianRational(0)) + c
        return Chain(self.dimension, coeffs)

    def scale(self, scalar) -> "Chain":
        c = GaussianRational.coerce(scalar)
        return Chain(self.dimension, {s: c * v for s, v in self.coefficients.items()})

    def __eq__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        return self.dimension == other.dimension and self.coefficients == other.coefficients

    def __repr__(self) -> str:
        if not self.coefficients:
            return f"Chain(dim {self.dimension}: 0)"
        parts = " + ".join(f"({c})*{s}" for s, c in sorted(self.coefficients.items()))
        return f"Chain(dim {self.dimension}: {parts})"


def apply_boundary(complex: SimplicialComplex, phi: WeightFunction, chain: Chain) -> Chain:
    """Weighted boundary of a chain; 0-chains map to the empty (-1)-chain."""
    _check_pair(complex, phi)
    for s in chain.coefficients:
        if s not in complex:
            raise ValueError(f"{s} is not in the complex")
    n = chain.dimension
    columns, faces = _boundary(phi, n), complex.basis(n - 1)
    out: dict[Simplex, GaussianRational] = {}
    for s, c in chain.coefficients.items():
        for j, x in columns[complex._index[s]].items():
            out[faces[j]] = out.get(faces[j], ZERO) + x * c
    return Chain(n - 1, out)
