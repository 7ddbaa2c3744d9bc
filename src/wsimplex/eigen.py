"""Dense one-sided Jacobi SVD, and the ``Spectrum`` result type.

``jacobi_svd`` is the one-sided (Hestenes) form.  It rotates the columns of
the stack [M; I], G <- G J, until every pair of columns of the M part is
orthogonal to working precision.  The M part's squared column norms are then
the eigenvalues of M^* M and the I part holds its eigenvectors, without M^* M
ever being formed: the condition number is not squared (Demmel & Veselic
1992, "Jacobi's method is more accurate than QR").  A column whose norm
falls below eps times ||M||_F is a numerical zero and is left alone; rotating
such columns against each other chases rounding noise.

Each rotation annihilates the off-diagonal entry a_pq = m e (m = |a_pq|,
|e| = 1) of the Hermitian 2x2 Gram problem [[a_pp, a_pq], [conj(a_pq),
a_qq]] = [[|g_p|^2, g_p^* g_q], [g_q^* g_p, |g_q|^2]]: the angle comes from
the real problem [[a_pp, m], [m, a_qq]] and the phase e is folded into the
rotation,

    J[p,p] = J[q,q] = c,   J[p,q] = s e,   J[q,p] = -s conj(e).

Real input has e = +-1, so its rotations stay real.

The pairs (p, q) are visited in the round-robin order of Brent & Luk (1985):
a sweep over n indices is n - 1 steps (n steps when n is odd), each of
floor(n/2) disjoint pairs, so every pair meets once a sweep.  Rotations on
disjoint pairs commute, and each step is applied as one numpy block
operation.  The schedule is cached per order.

Jacobi runs on a square matrix only (Drmac & Veselic 2008 precondition the
same way).  A tall M is replaced by the triangular factor R of its
Householder QR factorisation, R^* R = M^* M, so that a step touches as many
rows as M has columns; Householder QR perturbs each column by a relative
eps, so graded columns keep every singular value to relative accuracy,
within the range stated below.  A wide M (r rows, n > r columns) goes
through the complete QR factorisation M^* = Q [R; 0]: then M^* M = Q [[R
R^*, 0], [0, 0]] Q^*, the last n - r columns of Q span exact zeros, and
Jacobi on the r x r matrix R^* gives the rest.

How far the relative accuracy reaches, measured against 60-digit mpmath as
the largest relative error over lambda_2..lambda_4 of the Laplacian of the
pentagon [10^-e, 1, 1, 1, 10^e]: at most 1.4e-15 in degrees 0 and 1 for
e = 5, 7, 8 and 9; in degree 1, 6.8e-14 at e = 10 and 1.1e-8 at e = 12.
Past that only the normwise bound eps ||L||_F holds.  The pentagon [1,
10^16, 1, 10^-16, 1] reads lambda = 2, 2, 2 in degree 0 and 1, 1, 2 in
degree 1, where the true values are 0.548, 1.597, 2.855: inside that bound
(about 4e16), but not relatively accurate.  The likely cause is the
numerical-zero rule above, which there leaves every column of squared norm
below about 9.9, the unit-weight ones among them, unrotated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

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
    # row j of h is column j of [m; I], m now n x n, in m's float dtype
    h = np.concatenate((m.T, np.eye(n)), axis=1)
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
                both = np.concatenate((live, live))
                pq, g, k = pq[both], g[both], count
                alpha, beta, gamma = alpha[live], beta[live], gamma[live]
            c, s_pq, s_qp = _rotations(alpha, beta, gamma)
            gp, gq = g[:k], g[k:]
            h[pq] = np.concatenate((c * gp - s_qp * gq, s_pq * gp + c * gq))  # h^T J
        if not rotated:
            break
    else:
        raise RuntimeError("one-sided Jacobi sweeps did not converge")
    w = np.einsum("ij,ij->i", h[:, :n].conj(), h[:, :n]).real
    order = np.argsort(w, kind="stable")
    return w[order], h[order, n:].T

