"""Cohomology dimensions, Hodge Laplacians and harmonic cochains.

Every dimension count comes from the exact boundary ranks r_k = rank d_k,
two per degree; the coboundary leaving degree n is the transpose of d_{n+1}:

    dim H^n                     = dim C^n - r_n - r_{n+1},
    zero multiplicity of down_n = dim C^n - r_n,
    zero multiplicity of up_n   = dim C^n - r_{n+1}.

The degree-n Laplacian

    L_n = A_{n-1} A_{n-1}^* + A_n^* A_n,     A_k = coboundary matrix k,

is Hermitian positive semidefinite, its kernel dimension equals the
cohomology dimension, and the kernel vectors are exactly the cochains
annihilated by both the coboundary and the adjoint coboundary.

No boundary is formed dense and no Laplacian by matrix products: ranks
and Laplacians read the non-zero columns of d_n and d_{n+1}
(``chains.boundary_columns``), which the pair builds once, as it does
its rank vector (see ``chains``).  Each Laplacian part is summed over them
into sparse rows {t: value}, exactly over Q(i), for n-simplices s, t and
diagonal inner weights w (all 1 for the standard inner products):

    up[s,t]   = (1/w_s) * sum_r w_r * conj(d_{n+1}[s,r]) * d_{n+1}[t,r]
                over the (n+1)-simplices r (one column of d_{n+1} each),
    down[s,t] = w_t * sum_f (1/w_f) * d_n[f,s] * conj(d_n[f,t])
                over the shared (n-1)-faces f (one row of d_n each).

A column of d_{n+1} holds n+2 non-zeros at most, so the work is the sum of
the squared non-zero counts per column (or row), not a cube of the basis
size.  The pair holds the sum L_n of the two standard parts, added once,
and ``laplacian_matrix`` returns a sparse copy of it (``ExactMatrix``).
``up_down_matrices`` sums its parts afresh on every call, with inner
weights or without: the pair holds no part, as no later call reads one.

``up_down_matrices(..., w)`` swaps the standard inner products for
diagonal ones given by positive simplex weights w; the resulting matrices
need not be Hermitian, but are similar to Hermitian ones via conjugation by
the square roots of the weights, so their spectra stay real and
non-negative (``laplacian_spectrum(..., w)``).

``laplacian_spectrum`` and ``harmonic_basis`` form no Laplacian.  With
A_n = d_{n+1}^T the coboundary, L_n = M^* M for the stacked float factor

    M = [ d_{n+1}^T ; conj(d_n) ],

whose rows are the (n+1)-simplices r, then the (n-1)-faces f, and whose
columns are the n-simplices s.  The conjugate sits on d_n because the down
part is A_{n-1} A_{n-1}^* = (A_{n-1}^*)^* (A_{n-1}^*) with
A_{n-1}^* = conj(d_n); M^T conj(M) is conj(L_n) instead, which differs
for complex weights.  For inner weights w, entry (r, s) is scaled by
sqrt(w_r / w_s) and entry (f, s) by sqrt(w_s / w_f); then M^* M is the
Hermitian form W^1/2 L W^-1/2, with L's eigenvalues.  The one-sided
Jacobi SVD (``eigen.jacobi_svd``: LAPACK's xGEJSV, or a round-robin loop
where numpy bundles no OpenBLAS) gives the eigenvalues as squared
singular values and the eigenvectors as right singular vectors,
without squaring the condition number.  Exactly dim H^n of them are zero,
the count coming from the exact ranks, and the harmonic basis is the
singular vectors of that many smallest singular values: no float tolerance
decides either.

Each call fills a fresh dense M straight from the pair's boundary columns
(then scales it for inner weights); neither M nor its non-zeros are held.
Their float conversion costs little next to the SVD that reads M, and
the dense M grows with the product of two basis sizes (for the Delta^45
2-skeleton in degree 1, 15,226 x 1,035 complex entries, about 252 MB).
An inner weight outside the normal float range is refused before M is
scaled by it.

The pair also holds each harmonic basis, the one dense part it keeps:
a read-only copy of the dim H^n harmonic columns, f_n x dim H^n, the
size of the answer, so a repeated ``harmonic_basis`` runs no SVD and
returns a fresh copy of it.  The f_n x f_n eigenvectors of
``laplacian_spectrum`` are not held, and a call with inner weights holds
nothing.  So the pair holds five part kinds per degree, each read back
by a later call: the boundary columns and the lows of ``chains``, the
Smith torsion and rank of ``homology``, and the Laplacian sums and
harmonic bases made here.

numpy is imported by the float functions alone (``spectrum``,
``laplacian_spectrum``, ``harmonic_basis``), so the exact ones leave it
unloaded.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from fractions import Fraction
from operator import lt
from sys import float_info

from .chains import _boundary, _cached, _check_pair, _rank
from .complexes import Record, Simplex, SimplicialComplex, _data_lines, _read_text, _trusted
from .gaussian import GaussianRational
from .matrices import ExactMatrix, to_floats
from .weights import WeightFunction

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np
    from .eigen import Spectrum


def _kernel_dim(complex: SimplicialComplex, phi: WeightFunction, n: int) -> int:
    """dim C^n - r_n - r_{n+1}, from the cached ranks of a checked pair."""
    return len(complex.basis(n)) - _rank(phi, n) - _rank(phi, n + 1)


def cohomology_dim(complex: SimplicialComplex, phi: WeightFunction, n: int) -> int:
    """dim H^n = dim C^n - r_n - r_{n+1}.  Degrees below 0 have dimension 0."""
    _check_pair(complex, phi)
    return _kernel_dim(complex, phi, n)


def _gram(groups, size: int, scales=None) -> list[dict]:
    """Sparse rows {j: out[i][j]} of out[i][j] = sum over the groups
    (g, entries) of scales[g] * conj(entries[i]) * entries[j], entries
    being a dict {index: non-zero value}; every scale is 1 when scales is
    None."""
    out = [{} for _ in range(size)]
    for g, entries in groups:
        for i, a in entries.items():
            ca = a.conjugate() if scales is None else a.conjugate() * scales[g]
            row = out[i]
            for j, b in entries.items():
                x = row.get(j)
                row[j] = ca * b if x is None else x + ca * b
    return out


def _assemble(size: int, d_n, d_next, w=None) -> tuple[list[dict], list[dict]]:
    """Sparse rows of the (up, down) parts of the degree-n Laplacian, summed
    over the non-zero columns d_n, d_next of the boundaries d_n and d_{n+1}
    (see the module docstring); size is dim C^n.

    w is None for the standard inner products, else the diagonal inner
    weights (w_{n-1}, w_n, w_{n+1}) in basis order."""
    # rows of d_n enter conjugated: the Gram sum then gives
    # d_n[f,s] * conj(d_n[f,t]) as the down formula needs
    rows: dict[int, dict] = {}
    for s, column in enumerate(d_n):
        for f, x in column.items():
            rows.setdefault(f, {})[s] = x.conjugate()
    if w is None:
        return _gram(enumerate(d_next), size), _gram(rows.items(), size)
    # the Fraction weights become scalars once, not once per product
    w_dn, w_n, w_up = ([GaussianRational(x) for x in ws] for ws in w)
    up = _gram(enumerate(d_next), size, w_up)
    down = _gram(rows.items(), size, [1 / x for x in w_dn])
    for s, w_s in enumerate(w_n):
        inv = 1 / w_s
        up[s] = {t: x * inv for t, x in up[s].items()}
        down[s] = {t: x * w_n[t] for t, x in down[s].items()}
    return up, down


def up_down_matrices(
    complex: SimplicialComplex,
    phi: WeightFunction,
    n: int,
    w: InnerProductWeights | None = None,
) -> tuple[ExactMatrix, ExactMatrix]:
    """(up, down) parts of the degree-n Laplacian: A_n^* A_n and
    A_{n-1} A_{n-1}^*, or for the diagonal inner products given by w

        up   = W_n^{-1} A_n^* W_{n+1} A_n
        down = A_{n-1} W_{n-1}^{-1} A_{n-1}^* W_n,

    which need not be Hermitian.  Every weight 1 gives the standard parts.
    Each call sums its parts afresh over the pair's boundary columns: the
    pair holds no part, as no later call reads one back."""
    _check_pair(complex, phi)
    labels = complex.basis(n)
    weights = None if w is None else tuple(w.diagonal(complex, k) for k in (n - 1, n, n + 1))
    # no part stores a zero: two n-simplices share at most one face and
    # one coface, so an entry off the diagonal is one product of non-zeros,
    # and one on it a positive (weighted) sum of squared moduli
    return tuple(ExactMatrix._from_rows(part, len(labels), labels, labels) for part in
                 _assemble(len(labels), _boundary(phi, n), _boundary(phi, n + 1), weights))


def laplacian_matrix(complex: SimplicialComplex, phi: WeightFunction, n: int) -> ExactMatrix:
    """L_n = up + down, whose sparse rows the pair sums once."""
    _check_pair(complex, phi)
    labels = complex.basis(n)

    def build():
        # a sum that cancels is dropped
        up, down = (ExactMatrix._from_rows(part, len(labels)) for part in
                    _assemble(len(labels), _boundary(phi, n), _boundary(phi, n + 1)))
        return (up + down)._entries

    # a copy of each held row: a caller that changes the result changes nothing held
    rows = [dict(row) for row in _cached(phi, "laplacian", n, build)]
    return ExactMatrix._from_rows(rows, len(labels), labels, labels)


class InnerProductWeights:
    """Positive rational weight per simplex, defining diagonal inner
    products on the cochain spaces."""

    def __init__(self, table: Mapping | None = None, default=None):
        self._table: dict[Simplex, Fraction] = {}
        if table:
            for key, value in table.items():
                # a table as parse_inner_weights_text builds it needs no call
                if key.__class__ is Simplex and value.__class__ is Fraction and value > 0:
                    self._table[key] = value
                else:
                    self._table[Simplex(key)] = self._positive(key, value)
        self._default = None if default is None else self._positive("default", default)

    @staticmethod
    def _positive(key, value) -> Fraction:
        out = Fraction(value)
        if out <= 0:
            raise ValueError(f"inner product weight for {key} must be positive, got {value}")
        return out

    @classmethod
    def uniform(cls, value=1) -> "InnerProductWeights":
        return cls(default=value)

    def value(self, simplex) -> Fraction:
        s = Simplex(simplex)
        if s in self._table:
            return self._table[s]
        if self._default is not None:
            return self._default
        raise KeyError(f"no inner product weight for {s}")

    def simplices(self) -> tuple[Simplex, ...]:
        """The simplices that have a weight of their own."""
        return tuple(self._table)

    def diagonal(self, complex: SimplicialComplex, n: int) -> list[Fraction]:
        return [self.value(s) for s in complex.basis(n)]


def spectrum(matrix: ExactMatrix) -> Spectrum:
    """Spectrum of an exactly Hermitian matrix (checked before any floats)
    by LAPACK ``eigh`` on its float copy, on one OpenBLAS thread as the
    SVD runs (``eigen._on_one_thread``).  The eigenvalues are only
    normwise accurate, to about eps ||A||_F each; for an ill-conditioned
    Laplacian use ``laplacian_spectrum``, which forms none."""
    import numpy as np
    from .eigen import Spectrum, _on_one_thread

    if not matrix.is_hermitian():
        raise ValueError("matrix is not Hermitian; for weighted inner products "
                         "use laplacian_spectrum(..., w)")
    return Spectrum(*_on_one_thread(np.linalg.eigh, matrix.to_ndarray()))


# the normal float range as Fractions: a Fraction compared with a float
# rebuilds the float as a Fraction on every comparison
_FLOAT_MIN, _FLOAT_MAX = Fraction(float_info.min), Fraction(float_info.max)


def _root_weights(complex: SimplicialComplex, w: InnerProductWeights, k: int) -> np.ndarray:
    """The square roots of the inner weights of basis(k) as floats.  A
    weight outside the normal float range (past it, or so small that it
    reads as 0 or divides to inf) is refused with its magnitude, before
    any division by it."""
    import numpy as np

    weights = w.diagonal(complex, k)
    for s, x in zip(complex.basis(k), weights):
        if not _FLOAT_MIN <= x <= _FLOAT_MAX:
            exponent = round(math.log10(x.numerator) - math.log10(x.denominator))
            raise ValueError(f"inner weight of {s} has magnitude about 1e{exponent:+d}, "
                             f"outside the normal float range")
    return np.sqrt([float(x) for x in weights])


def _factor(complex: SimplicialComplex, phi: WeightFunction, n: int,
            w: InnerProductWeights | None = None) -> np.ndarray:
    """The float factor M = [d_{n+1}^T ; conj(d_n)] of the degree-n
    Laplacian of a checked pair, L_n = M^* M, as a fresh dense array filled
    from the pair's boundary columns.  With inner weights w, row r of the
    upper block is scaled by sqrt(w_r) and row f of the lower block by
    1/sqrt(w_f), column s by 1/sqrt(w_s) above and sqrt(w_s) below: then
    M^* M = W^1/2 L W^-1/2.

    The eigenvalues are squares of the singular values, so a factor whose
    squared entries leave float range is refused, and so is one too large
    to allocate."""
    import numpy as np

    d_n, d_next = _boundary(phi, n), _boundary(phi, n + 1)
    top = len(d_next)
    # the non-zeros of M as three flat lists: d_{n+1}^T's, then conj(d_n)'s
    rows = [r for r, column in enumerate(d_next) for _ in column]
    rows += [top + f for column in d_n for f in column]
    cols = [s for column in d_next for s in column]
    cols += [s for s, column in enumerate(d_n) for _ in column]
    values = [x for column in d_next for x in column.values()]
    values += [x.conjugate() for column in d_n for x in column.values()]
    real = all(x.is_real() for x in values)
    shape = (top + len(complex.basis(n - 1)), len(complex.basis(n)))
    dtype = np.dtype(np.float64 if real else np.complex128)
    try:
        m = np.zeros(shape, dtype=dtype)
    except MemoryError:
        raise ValueError(
            f"degree {n}: the Laplacian factor, {shape[0]} x {shape[1]} {dtype.name}, "
            f"needs {shape[0] * shape[1] * dtype.itemsize / 1e6:,.1f} MB, more than "
            f"can be allocated") from None
    if values:
        m[rows, cols] = to_floats(values, real)
    with np.errstate(over="ignore", under="ignore"):
        if w is not None:
            w_dn, w_n, w_up = (_root_weights(complex, w, k) for k in (n - 1, n, n + 1))
            m[:top] *= w_up[:, None] / w_n[None, :]
            m[top:] *= w_n[None, :] / w_dn[:, None]
        norm2 = float(np.sum(np.square(np.abs(m))))
    if values and not (np.isfinite(norm2) and norm2 >= float_info.min):
        raise ValueError(
            f"degree {n}: the Laplacian factor's largest entry has magnitude "
            f"{np.max(np.abs(m)):.1e}; the eigenvalues, sums of squares of such "
            f"entries, leave float range")
    return m


def laplacian_spectrum(
    complex: SimplicialComplex,
    phi: WeightFunction,
    n: int,
    w: InnerProductWeights | None = None,
) -> Spectrum:
    """Spectrum of the degree-n Laplacian, or for inner weights w of its
    Hermitian form W^1/2 L W^-1/2, as the squared singular values and right
    singular vectors of the factor M (one-sided Jacobi); no Laplacian is
    formed.  Exactly dim H^n eigenvalues are zero: the smallest ones."""
    from .eigen import Spectrum, jacobi_svd

    _check_pair(complex, phi)
    values, vectors = jacobi_svd(_factor(complex, phi, n, w))
    values[:_kernel_dim(complex, phi, n)] = 0.0
    return Spectrum(values, vectors)


def zero_multiplicity_formulas(
    complex: SimplicialComplex, phi: WeightFunction, n: int
) -> tuple[int, int, int]:
    """Zero-eigenvalue multiplicities (down part, up part, full Laplacian)
    in degree n: dim C^n - r_n, dim C^n - r_{n+1} and dim H^n.  Degrees
    below 0 give (0, 0, 0)."""
    _check_pair(complex, phi)
    dim_c = len(complex.basis(n))
    r_n, r_next = _rank(phi, n), _rank(phi, n + 1)
    return dim_c - r_n, dim_c - r_next, dim_c - r_n - r_next


class HarmonicBasis(Record):
    """Orthonormal basis of the degree-n harmonic cochains."""

    __slots__ = ("dimension", "labels", "vectors")

    def __init__(self, dimension: int, labels: tuple, vectors: np.ndarray):
        self.dimension = dimension
        self.labels = labels
        self.vectors = vectors

    @property
    def count(self) -> int:
        return self.vectors.shape[1]


def harmonic_basis(complex: SimplicialComplex, phi: WeightFunction, n: int) -> HarmonicBasis:
    """Orthonormal basis of the degree-n harmonic cochains: the right
    singular vectors of the Laplacian factor for its dim H^n smallest
    singular values (``laplacian_spectrum``'s first eigenvectors), that
    count being exact.  The pair holds a read-only copy of those columns
    alone, made on the first ask; each ask returns a fresh copy of it."""
    import numpy as np

    _check_pair(complex, phi)
    count = _kernel_dim(complex, phi, n)
    labels = complex.basis(n)
    if not count:
        return HarmonicBasis(n, labels, np.zeros((len(labels), 0)))

    def build():
        vectors = laplacian_spectrum(complex, phi, n).eigenvectors[:, :count].copy()
        vectors.flags.writeable = False
        return vectors

    return HarmonicBasis(n, labels, _cached(phi, "harmonic", n, build).copy())


# -- inner product weight text format ----------------------------------------


def parse_inner_weights_text(text: str) -> InnerProductWeights:
    """Lines 'simplex | value' with positive rational values; a second line
    for a simplex with another value warns, and the last one is kept."""
    table: dict[Simplex, Fraction] = {}
    # value text -> Fraction, for this call only: a repeat skips the regex
    values: dict[str, Fraction] = {}
    for lineno, line in _data_lines(text):
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
    # the constructor refuses a non-positive value, unless a later line overwrote it
    return InnerProductWeights(table, Fraction(1))


def read_inner_weights_file(path) -> InnerProductWeights:
    return parse_inner_weights_text(_read_text(path))
