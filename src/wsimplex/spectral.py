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
their ranks (see ``chains``).  Each Laplacian part is summed over them
into sparse rows {t: value}, exactly over Q(i), for n-simplices s, t and
diagonal inner weights w (all 1 for the standard inner products):

    up[s,t]   = (1/w_s) * sum_r w_r * conj(d_{n+1}[s,r]) * d_{n+1}[t,r]
                over the (n+1)-simplices r (one column of d_{n+1} each),
    down[s,t] = w_t * sum_f (1/w_f) * d_n[f,s] * conj(d_n[f,t])
                over the shared (n-1)-faces f (one row of d_n each).

A column of d_{n+1} holds n+2 non-zeros at most, so the work is the sum of
the squared non-zero counts per column (or row), not a cube of the basis
size.  The pair caches the two standard parts as these rows, and
``up_down_matrices`` and ``laplacian_matrix`` return sparse copies of
them (``ExactMatrix``).  Parts for inner weights are built per call.

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

numpy is imported by the float functions alone (``spectrum``,
``laplacian_spectrum``, ``harmonic_basis``), so the exact ones leave it
unloaded.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from fractions import Fraction
from operator import lt

from .chains import _boundary, _cached, _check_pair, _rank
from .complexes import Record, Simplex, SimplicialComplex, _trusted
from .gaussian import GaussianRational
from .matrices import ExactMatrix, to_floats
from .weights import WeightFunction

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np
    from .eigen import Spectrum


def _columns(complex: SimplicialComplex, phi: WeightFunction, n: int):
    """The cached non-zero columns of the boundaries (d_n, d_{n+1}) around
    degree n, read only."""
    _check_pair(complex, phi)
    return _boundary(phi, n), _boundary(phi, n + 1)


def _kernel_dim(complex: SimplicialComplex, phi: WeightFunction, n: int) -> int:
    """dim C^n - r_n - r_{n+1}, from the cached ranks of a checked pair."""
    return len(complex.basis(n)) - _rank(phi, n) - _rank(phi, n + 1)


def cohomology_dim(complex: SimplicialComplex, phi: WeightFunction, n: int) -> int:
    """dim H^n = dim C^n - r_n - r_{n+1}.  Degrees below 0 have dimension 0."""
    if n < 0:
        return 0
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

    which need not be Hermitian.  Every weight 1 gives the standard parts,
    whose sparse rows the pair caches; parts for inner weights are built
    per call."""
    d_n, d_next = _columns(complex, phi, n)
    labels = complex.basis(n)
    if w is None:
        parts = _cached(phi, "parts", n, lambda: _assemble(len(labels), d_n, d_next))
    else:
        parts = _assemble(len(labels), d_n, d_next,
                          tuple(w.diagonal(complex, k) for k in (n - 1, n, n + 1)))
    # no part stores a zero: two n-simplices share at most one face and
    # one coface, so an entry off the diagonal is one product of non-zeros,
    # and one on it a positive (weighted) sum of squared moduli
    return tuple(ExactMatrix._from_rows([dict(row) for row in part], len(labels),
                                        labels, labels) for part in parts)


def laplacian_matrix(complex: SimplicialComplex, phi: WeightFunction, n: int) -> ExactMatrix:
    """L_n = up + down."""
    up, down = up_down_matrices(complex, phi, n)
    return up + down


class InnerProductWeights:
    """Positive rational weight per simplex, defining diagonal inner
    products on the cochain spaces."""

    def __init__(self, table: Mapping | None = None, default=None):
        self._table: dict[Simplex, Fraction] = {}
        if table:
            for key, value in table.items():
                self._table[Simplex(key)] = self._positive(key, value)
        self._default = None if default is None else self._positive("default", default)

    @classmethod
    def _trusted(cls, table: dict, default: Fraction) -> "InnerProductWeights":
        """Weights on a table already keyed by Simplex and valued by
        positive Fractions, without the constructor's second walk."""
        w = cls.__new__(cls)
        w._table = table
        w._default = default
        return w

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


def _factor(complex: SimplicialComplex, n: int, d_n, d_next,
            w: InnerProductWeights | None = None) -> np.ndarray:
    """The float factor M = [d_{n+1}^T ; conj(d_n)] of the degree-n
    Laplacian, L_n = M^* M, filled from the non-zero columns d_n, d_next of
    the boundaries.  With inner weights w, row r of the upper block is scaled
    by sqrt(w_r) and row f of the lower block by 1/sqrt(w_f), column s by
    1/sqrt(w_s) above and sqrt(w_s) below: then M^* M = W^1/2 L W^-1/2.

    The eigenvalues are squares of the singular values, so a factor whose
    squared entries leave float range is refused."""
    import numpy as np

    top, size = len(d_next), len(complex.basis(n))
    rows, cols, values = [], [], []
    for r, column in enumerate(d_next):
        for s, x in column.items():
            rows.append(r)
            cols.append(s)
            values.append(x)
    for s, column in enumerate(d_n):
        for f, x in column.items():
            rows.append(top + f)
            cols.append(s)
            values.append(x.conjugate())
    real = all(x.is_real() for x in values)
    m = np.zeros((top + len(complex.basis(n - 1)), size),
                 dtype=np.float64 if real else np.complex128)
    m[rows, cols] = to_floats(values, real)
    if w is not None:
        w_dn, w_n, w_up = (np.sqrt(to_floats([GaussianRational(x) for x in
                                              w.diagonal(complex, k)], True))
                           for k in (n - 1, n, n + 1))
        m[:top] *= w_up[:, None] / w_n[None, :]
        m[top:] *= w_n[None, :] / w_dn[:, None]
    with np.errstate(over="ignore", under="ignore"):
        norm2 = float(np.sum(np.square(np.abs(m))))
    if values and not (np.isfinite(norm2) and norm2 >= np.finfo(np.float64).tiny):
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

    d_n, d_next = _columns(complex, phi, n)
    values, vectors = jacobi_svd(_factor(complex, n, d_n, d_next, w))
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
    singular values, that count being exact."""
    import numpy as np
    from .eigen import jacobi_svd

    d_n, d_next = _columns(complex, phi, n)
    count = _kernel_dim(complex, phi, n)
    labels = complex.basis(n)
    if not count:
        return HarmonicBasis(n, labels, np.zeros((len(labels), 0)))
    _, vectors = jacobi_svd(_factor(complex, n, d_n, d_next))
    return HarmonicBasis(n, labels, vectors[:, :count])


# -- inner product weight text format ----------------------------------------


def parse_inner_weights_text(text: str) -> InnerProductWeights:
    """Lines 'simplex | value' with positive rational values; a second line
    for a simplex with another value warns, and the last one is kept."""
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
    return InnerProductWeights._trusted(table, Fraction(1))


def read_inner_weights_file(path) -> InnerProductWeights:
    with open(path, encoding="utf-8-sig") as fh:
        return parse_inner_weights_text(fh.read())
