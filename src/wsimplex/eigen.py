"""Dense one-sided Jacobi SVD, and the ``Spectrum`` result type.

``jacobi_svd(m)`` gives the eigenvalues and eigenvectors of m^* m as the
squared singular values and right singular vectors of m, without m^* m
ever being formed: the condition number is not squared (Demmel & Veselic
1992, "Jacobi's method is more accurate than QR").

By default it calls LAPACK's preconditioned one-sided Jacobi SVD, xGEJSV
(Drmac & Veselic 2008, "New fast and accurate Jacobi SVD algorithm I/II"),
in the OpenBLAS that numpy's wheel bundles, through ctypes.  The library
is opened at the first call, never at import.  The call asks for V alone
(JOBU='N', JOBV='V') with JOBA='F', the mode that keeps the singular
values of m = D1 C D2 to relative accuracy when C is well conditioned
and D1, D2 are diagonal: graded rows and columns cost no accuracy.  The
workspaces are sized here from the routine's documented bounds, with
room to spare, and no workspace query is made.  Each call runs on one
OpenBLAS thread, set with the thread-local setter (so other threads keep
their count) and restored after it: at two threads xGEJSV takes a flat
~8 ms even on a 5x5 input, against about 0.09 ms on one.

Where numpy bundles no such library (a conda, MKL, Accelerate or system
BLAS numpy), or when xGEJSV reports no convergence, the hand-rolled
one-sided (Hestenes) loop below does the work.  It rotates the columns of
the stack [M; I], G <- G J, until every pair of columns of the M part is
orthogonal to working precision.  The M part's squared column norms are
then the eigenvalues of M^* M and the I part holds its eigenvectors.  A
column whose norm falls below eps times ||M||_F is a numerical zero and is
left alone; rotating such columns against each other chases rounding
noise.

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

The loop runs on a square matrix only.  A tall M is replaced by the
triangular factor R of its Householder QR factorisation, R^* R = M^* M, so
that a step touches as many rows as M has columns; Householder QR perturbs
each column by a relative eps, so graded columns keep every singular value
to relative accuracy, within the range stated below.  xGEJSV needs at least
as many rows as columns too, so on either path a wide M (r rows, n > r
columns) goes through the complete QR factorisation M^* = Q [R; 0]: then
M^* M = Q [[R R^*, 0], [0, 0]] Q^*, the last n - r columns of Q span exact
zeros, and the SVD of the r x r matrix R^* gives the rest.

Accuracy, measured against 60-digit mpmath as the largest relative error
over lambda_2..lambda_4 of the Laplacian of the pentagon [10^-e, 1, 1, 1,
10^e] in degrees 0 and 1: through xGEJSV at most 1.1e-15 for every e of
5, 7, 8, 9, 10, 12 and 15, and 4.8e-16 on the alternating pentagon [1,
10^16, 1, 10^-16, 1], whose lambda_2..lambda_4 are 0.548, 1.597, 2.855.
The fallback loop matches that up to e = 9, then reads 6.8e-14 at e = 10,
1.1e-8 at e = 12 and 4.4e-3 at e = 15, all in degree 1; on the alternating
pentagon it reads lambda = 2, 2, 2 in degree 0, a relative error of 2.6.
Past e = 10 only the normwise bound eps ||L||_F holds for the loop.  The
likely cause is its numerical-zero rule above, which on the alternating
pentagon leaves every column of squared norm below about 9.9, the
unit-weight ones among them, unrotated.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

from .complexes import Record

MAX_SWEEPS = 80
EPS = float(np.finfo(np.float64).eps)


class Spectrum(Record):
    """Eigenvalues in ascending order with matching eigenvector columns."""

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors

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




def _jacobi(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, v) for m with at least as many rows as columns by the one-sided
    Jacobi loop, w unsorted."""
    rows, n = m.shape
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
    return np.einsum("ij,ij->i", h[:, :n].conj(), h[:, :n]).real, h[:, n:].T


@functools.cache
def _lapack():
    """(dgejsv, zgejsv, openblas_set_num_threads_local) from the OpenBLAS
    that numpy's wheel bundles, or None when numpy links no such library."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in glob.glob(os.path.join(site, "numpy.libs", "libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(path)
            dgejsv, zgejsv = lib.scipy_dgejsv_64_, lib.scipy_zgejsv_64_
            set_threads = lib.openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        # JOBA..JOBP; M N A LDA SVA U LDU V LDV; the workspaces, each an
        # array and its length (ZGEJSV's CWORK then RWORK, DGEJSV's WORK);
        # IWORK INFO; then Fortran's six hidden string lengths
        int_, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
        head = [ctypes.c_char_p] * 6 + [int_, int_, ptr, int_, ptr, ptr, int_, ptr, int_]
        tail = [ptr, int_] + [ctypes.c_size_t] * 6
        dgejsv.argtypes = head + [ptr, int_] + tail
        zgejsv.argtypes = head + [ptr, int_, ptr, int_] + tail
        dgejsv.restype = zgejsv.restype = None
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], ctypes.c_int
        return dgejsv, zgejsv, set_threads
    return None


def _on_one_thread(call, *args):
    """call(*args) on one thread of numpy's bundled OpenBLAS, set with the
    thread-local setter (other threads keep their count) and restored
    after it; a plain call where numpy bundles no such library."""
    routines = _lapack()
    if routines is None:
        return call(*args)
    set_threads = routines[2]
    before = set_threads(1)
    try:
        return call(*args)
    finally:
        set_threads(before)


def _gejsv(routines, m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(w, v) for m with rows >= columns >= 1 by LAPACK's xGEJSV on one
    OpenBLAS thread, w unsorted; None when it reports no convergence.  An
    input whose copy, V and workspace cannot be allocated is refused."""
    dgejsv, zgejsv, _ = routines
    rows, n = m.shape
    real = not np.iscomplexobj(m)
    dtype = np.dtype(np.float64 if real else np.complex128)
    lwork = max(2 * rows + n, 6 * n + 2 * n * n, 7) if real else 4 * n * n + 10 * n
    try:
        a = np.array(m, dtype=dtype, order="F")
        v = np.empty((n, n), dtype=dtype, order="F")
        work = np.empty(lwork, dtype=dtype)
    except MemoryError:
        raise ValueError(
            f"the SVD of the {rows} x {n} {dtype.name} factor needs "
            f"{(rows * n + n * n + lwork) * dtype.itemsize / 1e6:,.1f} MB for its copy, "
            f"V and workspace, more than can be allocated") from None
    sva = np.empty(n)
    unused_u = np.empty(1, dtype=dtype)
    iwork = np.empty(rows + 3 * n, dtype=np.int64)
    if real:
        scale, workspace = work, (work.ctypes, _int(work.size))
    else:
        scale = np.empty(2 * rows + n + 7)
        workspace = (work.ctypes, _int(work.size), scale.ctypes, _int(scale.size))
    info = ctypes.c_int64()
    _on_one_thread(
        dgejsv if real else zgejsv,
        b"F", b"N", b"V", b"N", b"N", b"N", _int(rows), _int(n), a.ctypes,
        _int(rows), sva.ctypes, unused_u.ctypes, _int(1), v.ctypes, _int(n),
        *workspace, iwork.ctypes, ctypes.byref(info), 1, 1, 1, 1, 1, 1)
    if info.value < 0:
        raise RuntimeError(f"xGEJSV: argument {-info.value} had an illegal value")
    if info.value:
        return None
    # the singular values are sva scaled by WORK(2)/WORK(1) (RWORK's, complex)
    return np.square(sva * (scale[1] / scale[0])), v


def _int(k: int):
    """A Fortran INTEGER argument of the ILP64 build, by reference."""
    return ctypes.byref(ctypes.c_int64(k))


def jacobi_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared singular values and right singular vectors of m: (w
    ascending, v) with m^* m = v diag(w) v^*, v unitary.

    m may be real or complex, of any shape, with finite entries; v has m's
    column count in each dimension and m's float dtype."""
    m = np.asarray(m)
    bad = np.argwhere(~np.isfinite(m))
    if len(bad):
        row, col = bad[0]
        raise ValueError(f"entry ({row}, {col}) is {m[row, col]}, not finite")
    rows, n = m.shape
    if rows < n:
        q, r = np.linalg.qr(m.conj().T, mode="complete")
        w, u = _svd_tall(r[:rows].conj().T)
        w = np.concatenate((np.zeros(n - rows), w))
        return w, np.concatenate((q[:, rows:], q[:, :rows] @ u), axis=1)
    return _svd_tall(m)


def _svd_tall(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """jacobi_svd for m with at least as many rows as columns: xGEJSV
    where numpy's OpenBLAS has it, else (or when it does not converge) the
    one-sided Jacobi loop."""
    routines = _lapack() if m.shape[1] else None
    found = _gejsv(routines, m) if routines else None
    w, v = found if found is not None else _jacobi(m)
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]
