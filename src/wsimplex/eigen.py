"""Dense eigensolver for the exact operator matrices.

One cyclic Jacobi kernel diagonalises every Hermitian matrix, real or
complex, in its own dtype.  Each rotation annihilates one off-diagonal pair
a[p,q] = m e, with m real and |e| = 1: the angle comes from the real 2x2
problem [[a_pp, m], [m, a_qq]] and the phase e is folded into the rotation,

    J[p,p] = J[q,q] = c,   J[p,q] = s e,   J[q,p] = -s conj(e).

Real input has e = 1, which is the classical real rotation.  Sweeps stop
once the off-diagonal Frobenius mass drops below 1e-12 times the Frobenius
norm of the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REL_OFF_TOL = 1e-12
MAX_SWEEPS = 80


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


def _off_mass(a: np.ndarray) -> float:
    # summed directly: subtracting diagonal mass from total mass cancels
    # catastrophically once the matrix is nearly diagonal
    off = a - np.diag(np.diag(a))
    return float(np.sum(np.square(np.abs(off))))


def jacobi_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi.

    Works in the input's own dtype: real input stays real, complex input
    stays complex.  Returns (eigenvalues ascending, eigenvector columns).
    """
    a = np.array(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    v = np.eye(n, dtype=a.dtype)
    norm2 = float(np.sum(np.square(np.abs(a))))
    if norm2 == 0.0:
        return np.zeros(n), v
    target = (REL_OFF_TOL ** 2) * norm2
    for _ in range(MAX_SWEEPS):
        if _off_mass(a) <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                small = 100.0 * abs(apq)
                if (abs(a[p, p]) + small == abs(a[p, p])
                        and abs(a[q, q]) + small == abs(a[q, q])):
                    # entry already negligible at working precision
                    a[p, q] = 0.0
                    a[q, p] = 0.0
                    continue
                # rotation annihilating a[p,q], the numerically stable way.
                # a[p,q] = mag * e with |e| = 1; e rides on the sine.  mag
                # takes the sign of the real part, so real input has e = 1
                # and the classical rotation, down to the choice made when
                # a[p,p] == a[q,q]
                mag = math.copysign(abs(apq), apq.real)
                e = apq / mag
                theta = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                if abs(theta) > 1e150:
                    t = 0.5 / theta  # theta*theta would overflow
                else:
                    t = 1.0 / (abs(theta) + np.sqrt(1.0 + theta * theta))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                s_pq = s * e  # J[p, q]; J[q, p] = -conj(s_pq)
                s_qp = s * e.conjugate()
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s_qp * col_q
                a[:, q] = s_pq * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s_pq * row_q
                a[q, :] = s_qp * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s_qp * vq
                v[:, q] = s_pq * vp + c * vq
    else:
        raise RuntimeError("Jacobi sweeps did not converge")
    w = np.diag(a).real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def spectrum_of_ndarray(a: np.ndarray) -> Spectrum:
    w, v = jacobi_eigh(a)
    return Spectrum(w, v)
