"""The weighted boundary operator: its sparse columns and matrices.

The weighted boundary of an n-simplex s is

    sum_i (-1)^i * phi(s, d_i s) * d_i s

and ``_signed_faces`` writes it once.  ``boundary_columns`` (the non-zero
entries of each column, in the lexicographic bases) is the form ranks and
Laplacians read; ``boundary_matrix`` holds the same entries as a sparse
``ExactMatrix``.  The coboundary in degree n is the transpose of the
boundary in degree n+1 (both bases are self-dual here), and the adjoint
against the standard inner product is the conjugate transpose.  All of
them demand a validated weight function: for an unvalidated table the
composite of two boundaries need not vanish and none of the homological
formulas downstream apply.

A weight function stands for its (complex, weight) pair, and each exact
operator of the pair is built once: ``_cached`` fills the weight
function's private table of sparse exact parts on the first ask, after
the pair has passed ``_check_pair``, and every later call reads it.  The
columns of d_n (``_boundary``) and their rank (``_rank``) live there, and
the Laplacian parts and normal forms that ``spectral`` and ``homology``
derive from them.  What a public function returns is built fresh from
the cached parts, so a caller that changes it changes nothing held.
"""

from __future__ import annotations

from .complexes import Record, Simplex, SimplicialComplex
from .gaussian import ZERO, GaussianRational
from .matrices import ExactMatrix, column_rank
from .weights import WeightFunction


def _check_pair(complex: SimplicialComplex, phi: WeightFunction) -> None:
    # equal complexes compare two frozensets, which has no identity short-cut
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


def _signed_faces(phi: WeightFunction, s: Simplex):
    """The terms (d_i s, (-1)^i phi(s, d_i s)) of the weighted boundary of
    s; a vertex has none."""
    return [(s.face(i), -phi.value(s, i) if i % 2 else phi.value(s, i))
            for i in range(len(s) if s.dim else 0)]


def _build_columns(phi: WeightFunction, n: int) -> list[dict]:
    complex = phi.complex
    index = {t: i for i, t in enumerate(complex.basis(n - 1))}
    return [{index[t]: x for t, x in _signed_faces(phi, s) if x}
            for s in complex.basis(n)]


def _boundary(phi: WeightFunction, n: int) -> list[dict]:
    """The cached non-zero columns of d_n (see ``boundary_columns``)."""
    return _cached(phi, "columns", n, lambda: _build_columns(phi, n))


def _rank(phi: WeightFunction, n: int) -> int:
    """The cached exact rank r_n of d_n."""
    return _cached(phi, "rank", n, lambda: column_rank(_boundary(phi, n)))


def boundary_columns(complex: SimplicialComplex, phi: WeightFunction, n: int) -> list[dict]:
    """The weighted boundary C_n -> C_{n-1}: for each n-simplex in basis
    order, its non-zero entries as {index in basis(n-1): value}."""
    _check_pair(complex, phi)
    return [dict(column) for column in _boundary(phi, n)]


def boundary_matrix(complex: SimplicialComplex, phi: WeightFunction, n: int) -> ExactMatrix:
    """The matrix of ``boundary_columns``; zero-sized outside the range
    1..max_dim."""
    return coboundary_matrix(complex, phi, n - 1).transpose()


def coboundary_matrix(complex: SimplicialComplex, phi: WeightFunction, n: int) -> ExactMatrix:
    """Matrix of the weighted coboundary C^n -> C^{n+1}: the transpose of
    the degree-(n+1) boundary matrix, one row per column of it."""
    _check_pair(complex, phi)
    rows = [dict(column) for column in _boundary(phi, n + 1)]
    return ExactMatrix._from_rows(rows, len(complex.basis(n)), complex.basis(n + 1),
                                  complex.basis(n))


def adjoint_matrix(matrix: ExactMatrix) -> ExactMatrix:
    """Adjoint against the standard inner product: conjugate transpose."""
    return matrix.conj_transpose()


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
    out: dict[Simplex, GaussianRational] = {}
    for s, c in chain.coefficients.items():
        for t, x in _signed_faces(phi, s):
            out[t] = out.get(t, ZERO) + x * c
    return Chain(chain.dimension - 1, out)
