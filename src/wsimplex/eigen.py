"""Dense Jacobi kernels: a Hermitian eigensolver and a one-sided SVD.

Both run one rotation.  It annihilates the off-diagonal entry a_pq = m e
(m = |a_pq|, |e| = 1) of a Hermitian 2x2 problem [[a_pp, a_pq],
[conj(a_pq), a_qq]]: the angle comes from the real problem
[[a_pp, m], [m, a_qq]] and the phase e is folded into the rotation,

    J[p,p] = J[q,q] = c,   J[p,q] = s e,   J[q,p] = -s conj(e).

Real input has e = +-1, so its rotations stay real.

Both visit the pairs (p, q) in the round-robin order of Brent & Luk (1985):
a sweep over n indices is n - 1 steps (n steps when n is odd), each of
floor(n/2) disjoint pairs, so every pair meets once a sweep.  Rotations on
disjoint pairs commute, and each step is applied as one numpy block
operation.  The schedule is cached per order.

``jacobi_eigh`` diagonalises a formed Hermitian matrix two-sided, a <- J^* a J,
until the off-diagonal Frobenius mass drops below 1e-12 times the Frobenius
norm of the input.

``jacobi_svd`` is the one-sided (Hestenes) form.  It rotates the columns of
the stack [M; I], G <- G J, each 2x2 problem being the Gram entries
(|g_p|^2, |g_q|^2, g_p^* g_q) of the M part, until every pair is orthogonal
to working precision.  The M part's squared column norms are then the
eigenvalues of M^* M and the I part holds its eigenvectors, without M^* M
ever being formed: the condition number is not squared (Demmel & Veselic
1992, "Jacobi's method is more accurate than QR").  A column whose norm
falls below eps times ||M||_F is a numerical zero and is left alone; rotating
such columns against each other chases rounding noise.

Jacobi runs on a square matrix only (Drmac & Veselic 2008 precondition the
same way).  A tall M is replaced by the triangular factor R of its
Householder QR factorisation, R^* R = M^* M, so that a step touches as many
rows as M has columns; Householder QR perturbs each column by a relative
eps, so columns graded 10^15 apart keep every singular value to relative
accuracy.  A wide M (r rows, n > r columns) goes through the complete QR
factorisation M^* = Q [R; 0]: then M^* M = Q [[R R^*, 0], [0, 0]] Q^*, the
last n - r columns of Q span exact zeros, and Jacobi on the r x r matrix R^*
gives the rest.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

REL_OFF_TOL = 1e-12
MAX_SWEEPS = 80
EPS = float(np.finfo(np.float64).eps)


@dataclass
class Spectrum:
    """Eigenvalues in ascending order with matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    def zero_count(self, tol: float) -> int:
        return int(np.sum(np.abs(self.eigenvalues) <= tol))

    def vectors_below(self, tol: float) -> np.ndarray:
        keep = np.abs(self.eigenvalues) <= tol
        return self.eigenvectors[:, keep]


@functools.lru_cache(maxsize=128)
def _schedule(n: int) -> tuple[np.ndarray, ...]:
    """Round-robin sweep over n indices, one array [p..., q...] per step:
    disjoint pairs (p, q), p < q, meeting every pair once a sweep.  Odd n
    gets a dummy index n whose pairs are dropped."""
    size = n + n % 2
    ring = list(range(size))
    steps = []
    for _ in range(size - 1):
        pairs = [(min(a, b), max(a, b))
                 for a, b in zip(ring[:size // 2], reversed(ring[size // 2:]))
                 if max(a, b) < n]
        if pairs:
            steps.append(np.array([p for p, _ in pairs] + [q for _, q in pairs]))
        ring = [ring[0], ring[-1], *ring[1:-1]]
    return tuple(steps)


def _rotations(app, aqq, apq):
    """Columns (c, s e, s conj(e)) of the rotations annihilating each
    non-zero apq = m e (m = |apq|) against the real diagonal entries app,
    aqq, the numerically stable way: t = s/c = sign(d)/(|theta| +
    sqrt(1 + theta^2)) with theta = d/(2m) and d = aqq - app."""
    m = np.abs(apq)
    d = aqq - app
    t_m = np.copysign(2.0 / (np.abs(d) + np.hypot(2.0 * m, d)), d)  # t/m
    c = 1.0 / np.hypot(1.0, t_m * m)
    s_pq = (t_m * c) * apq
    return c[:, None], s_pq[:, None], s_pq.conj()[:, None]


def _rotate(h, pq, g, c, s_pq, s_qp) -> None:
    """Apply one step's rotations to the rows pq = [p..., q...] of h, which
    hold g; rows stand for columns: h^T becomes h^T J."""
    k = len(c)
    gp, gq = g[:k], g[k:]
    h[pq] = np.concatenate((c * gp - s_qp * gq, s_pq * gp + c * gq))


def _live(pq, live):
    """The step pq cut to its pairs where live holds."""
    k = len(live)
    return np.concatenate((pq[:k][live], pq[k:][live]))


def _off_mass(a: np.ndarray) -> float:
    # summed directly: subtracting diagonal mass from total mass cancels
    # catastrophically once the matrix is nearly diagonal
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.sum(np.square(np.abs(off))))


def _stack_identity(m: np.ndarray) -> np.ndarray:
    """[m; I] in m's float dtype, real or complex."""
    dtype = np.complex128 if np.iscomplexobj(m) else np.float64
    return np.concatenate((np.asarray(m, dtype=dtype), np.eye(m.shape[1], dtype=dtype)))


def jacobi_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by two-sided Jacobi.

    Works in the input's own dtype: real input stays real, complex input
    stays complex.  Returns (eigenvalues ascending, eigenvector columns).
    """
    n = len(a)
    if np.shape(a) != (n, n):
        raise ValueError("matrix must be square")
    g = _stack_identity(np.asarray(a))
    a = g[:n]  # a <- J^* a J, and the identity below it becomes V
    norm2 = float(np.sum(np.square(np.abs(a))))
    target = (REL_OFF_TOL ** 2) * norm2
    steps = _schedule(n)
    for _ in range(MAX_SWEEPS):
        if _off_mass(a) <= target:
            break
        for pq in steps:
            k = len(pq) // 2
            apq = a[pq[:k], pq[k:]]
            count = np.count_nonzero(apq)
            if not count:
                continue
            if count < k:
                live = apq != 0.0
                pq, apq, k = _live(pq, live), apq[live], count
            d = a[pq, pq].real
            c, s_pq, s_qp = _rotations(d[:k], d[k:], apq)
            _rotate(g.T, pq, g.T[pq], c, s_pq, s_qp)
            _rotate(a, pq, a[pq], c, s_qp, s_pq)
    else:
        raise RuntimeError("Jacobi sweeps did not converge")
    w = np.diag(a).real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], g[n:, order]


def jacobi_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared singular values and right singular vectors of m by one-sided
    Jacobi: (w ascending, v) with m^* m = v diag(w) v^*, v unitary.

    m may be real or complex, of any shape; v has m's column count in each
    dimension and m's dtype."""
    m = np.asarray(m)
    rows, n = m.shape
    if rows < n:
        q, r = np.linalg.qr(m.conj().T, mode="complete")
        w, u = jacobi_svd(r[:rows].conj().T)
        w = np.concatenate((np.zeros(n - rows), w))
        return w, np.concatenate((q[:, rows:], q[:, :rows] @ u), axis=1)
    if rows > n:
        m = np.linalg.qr(m, mode="r")
    h = _stack_identity(m).T.copy()  # row j is column j of [m; I], m now n x n
    floor = EPS * EPS * float(np.sum(np.square(np.abs(h[:, :n]))))
    tol = EPS * np.sqrt(max(n, 1))
    steps = _schedule(n)
    for _ in range(MAX_SWEEPS):
        rotated = False
        for pq in steps:
            k = len(pq) // 2
            g = h[pq]
            top = g[:, :n]
            norms = np.einsum("ij,ij->i", top.conj(), top).real
            alpha, beta = norms[:k], norms[k:]
            gamma = np.einsum("ij,ij->i", top[:k].conj(), top[k:])
            live = ((np.abs(gamma) > tol * np.sqrt(alpha * beta))
                    & (np.minimum(alpha, beta) > floor))
            count = np.count_nonzero(live)
            if not count:
                continue
            rotated = True
            if count < k:
                pq, g = _live(pq, live), g[np.concatenate((live, live))]
                alpha, beta, gamma = alpha[live], beta[live], gamma[live]
            _rotate(h, pq, g, *_rotations(alpha, beta, gamma))
        if not rotated:
            break
    else:
        raise RuntimeError("one-sided Jacobi sweeps did not converge")
    w = np.einsum("ij,ij->i", h[:, :n].conj(), h[:, :n]).real
    order = np.argsort(w, kind="stable")
    return w[order], h[order, n:].T


def spectrum_of_ndarray(a: np.ndarray) -> Spectrum:
    w, v = jacobi_eigh(a)
    return Spectrum(w, v)
