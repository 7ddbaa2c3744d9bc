"""Reference answers for the benchmark's queries, and the checks against them.

Nothing here imports the package under test.  Exact linear algebra runs on
sympy's domains (ZZ, QQ, QQ_I and DomainMatrix), eigenvalues come from
mpmath at ``DPS`` digits on the exact matrix, the polygon closed form is
evaluated through prime valuations (polynomial, unlike the package's), and
the surfaces and simplex skeleta carry their known homology.  References
are computed after the timed run, never inside it.

Accuracy the checks demand:

* every integer (rank, torsion, Betti number, multiplicity, zero count) and
  every exact matrix entry must match exactly;
* a non-zero eigenvalue must match its reference to ``REL_TOL`` relative
  error; an eigenvalue the exact kernel dimension says is zero must lie
  within ``ZERO_TOL`` times the largest eigenvalue;
* eigenvectors and harmonic vectors must be orthonormal and have residual
  ``||L v - lambda v||`` within ``VEC_TOL`` times the largest eigenvalue.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import mpmath
import numpy as np
from sympy import QQ, QQ_I, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

import gen

DPS = 60
REL_TOL = 1e-8
ZERO_TOL = 1e-8
VEC_TOL = 1e-8
DIGITS_CAP = 12

QZERO = QQ_I(0, 0)
_SCALAR_RE = re.compile(r"([+-]?\d+(?:/\d+)?)(?:([+-]\d+(?:/\d+)?)i)?\Z")


class OracleError(RuntimeError):
    """The reference itself is inconsistent: a bug in the benchmark."""


def qi(v) -> QQ_I:
    re_, im = v
    return QQ_I(QQ(re_.numerator, re_.denominator), QQ(im.numerator, im.denominator))


def conj(z):
    return QQ_I(z.x, -z.y)


def parse_scalar(text: str):
    m = _SCALAR_RE.match(text.replace(" ", ""))
    if not m:
        raise ValueError(f"unparseable scalar {text!r}")
    im = Fraction(m.group(2)) if m.group(2) else Fraction(0)
    return qi((Fraction(m.group(1)), im))


def _mp(z):
    return mpmath.mpc(mpmath.mpf(int(z.x.numerator)) / int(z.x.denominator),
                      mpmath.mpf(int(z.y.numerator)) / int(z.y.denominator))


class Pair:
    """A (complex, weight) pair with its exact invariants, computed lazily.

    Boundary matrices are built here from the weight table alone; degree n
    maps the n-simplices to the (n-1)-simplices."""

    def __init__(self, maximal, table: dict, inner: dict | None = None):
        self.basis = gen.closure(maximal)
        self.max_dim = max(self.basis)
        self.table = {key: qi(v) for key, v in table.items()}
        self.inner = inner
        self.real = all(v.y == 0 for v in self.table.values())
        self.integral = self.real and all(v.x.denominator == 1 for v in self.table.values())
        self._cache: dict = {}

    def dim(self, n: int) -> int:
        return len(self.basis.get(n, ()))

    def _memo(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def boundary(self, n: int) -> list[list]:
        """Dense degree-n boundary, rows dim(n-1), columns dim(n)."""
        def make():
            rows = self.basis.get(n - 1, [])
            index = {s: i for i, s in enumerate(rows)}
            out = [[QZERO] * self.dim(n) for _ in rows]
            if n >= 1:
                for j, s in enumerate(self.basis.get(n, [])):
                    for i in range(n + 1):
                        v = self.table[(s, i)]
                        out[index[gen.face(s, i)]][j] = v if i % 2 == 0 else -v
            return out
        return self._memo(("bd", n), make)

    def _domain_matrix(self, n: int):
        rows = self.boundary(n)
        shape = (self.dim(n - 1), self.dim(n))
        if self.real:
            return DomainMatrix([[QQ(x.x.numerator, x.x.denominator) for x in r] for r in rows],
                                shape, QQ)
        return DomainMatrix(rows, shape, QQ_I)

    def rank(self, n: int) -> int:
        if n < 1 or n > self.max_dim:
            return 0
        return self._memo(("rank", n), lambda: self._domain_matrix(n).rank())

    def snf(self, n: int) -> list[int]:
        """Nonzero invariant factors of the integer boundary in degree n."""
        if not self.integral:
            raise OracleError("SNF needs integer weights")
        if n < 1 or n > self.max_dim:
            return []

        def make():
            rows = [[ZZ(int(x.x)) for x in r] for r in self.boundary(n)]
            dm = DomainMatrix(rows, (self.dim(n - 1), self.dim(n)), ZZ)
            return [abs(int(d)) for d in invariant_factors(dm) if d]
        return self._memo(("snf", n), make)

    def snf_diagonal(self, n: int) -> list[int]:
        d = self.snf(n)
        return d + [0] * (min(self.dim(n - 1), self.dim(n)) - len(d))

    def homology(self, n: int) -> tuple[int, list[int]]:
        free = self.dim(n) - self.rank(n) - self.rank(n + 1)
        return free, [d for d in self.snf(n + 1) if d > 1]

    def cohomology_dim(self, n: int) -> int:
        return self.dim(n) - self.rank(n) - self.rank(n + 1)

    def multiplicities(self, n: int) -> tuple[int, int, int]:
        """Zero multiplicities of the down part, the up part and the sum."""
        return self.dim(n) - self.rank(n), self.dim(n) - self.rank(n + 1), self.cohomology_dim(n)

    def _inner(self, n: int) -> list:
        if self.inner is None:
            return [QQ(1)] * self.dim(n)
        return [QQ(self.inner[s].numerator, self.inner[s].denominator)
                for s in self.basis.get(n, [])]

    def laplacian(self, n: int, inner: bool = False):
        """(up, down, up + down) in degree n as dense QQ_I rows, built
        sparsely: up = W_n^-1 A_n^* W_n+1 A_n, down = A_n-1 W_n-1^-1 A_n-1^* W_n."""
        def make():
            size = self.dim(n)
            w = self._inner if inner else (lambda d: [QQ(1)] * self.dim(d))
            w_n, w_up, w_dn = w(n), w(n + 1), w(n - 1)
            up = [[QZERO] * size for _ in range(size)]
            down = [[QZERO] * size for _ in range(size)]
            upper = self.boundary(n + 1)
            for r in range(self.dim(n + 1)):
                col = [(i, upper[i][r]) for i in range(size) if upper[i][r]]
                for i, vi in col:
                    for j, vj in col:
                        up[i][j] += conj(vi) * vj * QQ_I(w_up[r], 0) / QQ_I(w_n[i], 0)
            lower = self.boundary(n)
            for r in range(self.dim(n - 1)):
                row = [(i, lower[r][i]) for i in range(size) if lower[r][i]]
                for i, vi in row:
                    for j, vj in row:
                        down[i][j] += vi * conj(vj) * QQ_I(w_n[j], 0) / QQ_I(w_dn[r], 0)
            total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(up, down)]
            return up, down, total
        return self._memo(("lap", n, inner), make)

    def hermitian_form(self, n: int, inner: bool = False) -> list[list]:
        """The Laplacian itself, or for inner weights its Hermitian
        similarity transform D^1/2 L D^-1/2, as mpmath numbers."""
        def make():
            total = self.laplacian(n, inner)[2]
            size = len(total)
            with mpmath.workdps(DPS):
                root = ([mpmath.sqrt(mpmath.mpf(int(w.numerator)) / int(w.denominator))
                         for w in self._inner(n)] if inner else [mpmath.mpf(1)] * size)
                return [[_mp(total[i][j]) * root[i] / root[j] for j in range(size)]
                        for i in range(size)]
        return self._memo(("herm", n, inner), make)

    def eigenvalues(self, n: int, inner: bool = False) -> list:
        """Ascending mpmath eigenvalues; the first cohomology_dim are 0."""
        def make():
            h = self.hermitian_form(n, inner)
            size = len(h)
            if size == 0:
                return []
            with mpmath.workdps(DPS):
                m = mpmath.matrix(size, size)
                for i in range(size):
                    for j in range(size):
                        m[i, j] = (h[i][j] + mpmath.conj(h[j][i])) / 2
                if all(m[i, j].imag == 0 for i in range(size) for j in range(size)):
                    vals = mpmath.eigsy(m.apply(mpmath.re), eigvals_only=True)
                else:
                    vals = mpmath.eighe(m, eigvals_only=True)
                vals = sorted(mpmath.re(x) for x in vals)
            z = self.cohomology_dim(n)
            top = max(abs(vals[-1]), mpmath.mpf(1))
            if any(abs(x) > top * mpmath.mpf(10) ** -40 for x in vals[:z]) or \
                    (z < size and abs(vals[z]) < top * mpmath.mpf(10) ** -30):
                raise OracleError(f"degree {n}: reference zero count disagrees with rank")
            return vals
        return self._memo(("eig", n, inner), make)

    def violations(self) -> list[tuple]:
        out = []
        for n in range(2, self.max_dim + 1):
            for s in self.basis[n]:
                for i in range(1, n + 1):
                    for j in range(i):
                        left = self.table[(s, i)] * self.table[(gen.face(s, i), j)]
                        right = self.table[(s, j)] * self.table[(gen.face(s, j), i - 1)]
                        if left != right:
                            out.append((list(s), i, j, left, right))
        return out


def ngon_homology(alphas) -> tuple[int, list[int]]:
    """Degree-0 homology of the weighted n-gon (positive integer weights):
    the p-adic valuation of the gcd of all k-fold products is the sum of the
    k smallest valuations, and the invariant factors are consecutive
    quotients of those gcds, the last one 0."""
    primes = set()
    for a in alphas:
        x, p = a, 2
        while p * p <= x:
            while x % p == 0:
                primes.add(p)
                x //= p
            p += 1
        if x > 1:
            primes.add(x)
    n = len(alphas)
    g = [1] * n
    for p in primes:
        vals = []
        for a in alphas:
            v = 0
            while a % p == 0:
                a //= p
                v += 1
            vals.append(v)
        vals.sort()
        for k in range(1, n):
            g[k] *= p ** sum(vals[:k])
    factors = [g[k] // g[k - 1] for k in range(1, n)] + [0]
    return 1, [d for d in factors if d > 1]


# -- feed-forward loops ------------------------------------------------------------

# Interaction kinds along (X->Y, Y->Z, X->Z), activation 1, repression 2.
FFL_KINDS = {
    "coherent1": (1, 1, 1), "coherent2": (2, 1, 2), "coherent3": (1, 2, 2),
    "coherent4": (2, 2, 1), "incoherent1": (1, 2, 1), "incoherent2": (2, 2, 2),
    "incoherent3": (1, 1, 2), "incoherent4": (2, 1, 1),
}


def ffl_laplacian(label: str) -> list[list]:
    a, b, c = FFL_KINDS[label]
    a, b, c = a * a, b * b, c * c
    return [[a + c, -a, -c], [-a, a + b, -b], [-c, -b, b + c]]


def ffl_eigenvalues(label: str) -> list:
    """Nonzero eigenvalues S -+ sqrt(S^2 - 3P) of the motif Laplacian."""
    a, b, c = (x * x for x in FFL_KINDS[label])
    with mpmath.workdps(DPS):
        s = mpmath.mpf(a + b + c)
        root = mpmath.sqrt(s * s - 3 * (a * b + b * c + c * a))
        return [s - root, s + root]


# -- checks ------------------------------------------------------------------------


class Verdict:
    """Outcome of checking one answer; ``digits`` lists the correct
    significant digits of each non-zero eigenvalue it carried."""

    def __init__(self):
        self.errors: list[str] = []
        self.digits: list[int] = []

    @property
    def ok(self) -> bool:
        return not self.errors

    def expect(self, cond: bool, message: str) -> None:
        if not cond:
            self.errors.append(message)


def digits_of(got: float, want) -> int:
    rel = abs(mpmath.mpf(got) - want) / abs(want)
    if rel == 0:
        return DIGITS_CAP
    return max(0, min(DIGITS_CAP, int(math.floor(-float(mpmath.log10(rel))))))


def _entries_equal(v: Verdict, got, want, what: str) -> None:
    if len(got) != len(want) or any(len(r) != len(w) for r, w in zip(got, want)):
        v.errors.append(f"{what}: shape differs")
        return
    for i, (r, w) in enumerate(zip(got, want)):
        for j, (x, y) in enumerate(zip(r, w)):
            if parse_scalar(x) != y:
                v.errors.append(f"{what}[{i}][{j}] = {x}, want {y}")
                return


def _vectors(raw) -> np.ndarray:
    """Columns from the package's JSON vector form (floats or [re, im])."""
    cols = [np.array([complex(*x) if isinstance(x, list) else complex(x) for x in vec])
            for vec in raw]
    if not cols:
        return np.zeros((0, 0), dtype=complex)
    return np.column_stack(cols)


def _check_vectors(v: Verdict, h_float: np.ndarray, vecs: np.ndarray, vals, scale: float,
                   what: str) -> None:
    if vecs.size == 0:
        return
    gram = vecs.conj().T @ vecs
    v.expect(float(np.max(np.abs(gram - np.eye(gram.shape[0])))) <= VEC_TOL,
             f"{what}: vectors not orthonormal")
    resid = h_float @ vecs - vecs * np.asarray(vals)[None, :]
    worst = float(np.max(np.linalg.norm(resid, axis=0)))
    v.expect(worst <= VEC_TOL * scale, f"{what}: residual {worst:.3e} over {scale:.3e}")


def check_spectrum(v: Verdict, pair: Pair, n: int, inner: bool, eigenvalues, eigenvectors):
    ref = pair.eigenvalues(n, inner)
    z = pair.cohomology_dim(n)
    if len(eigenvalues) != len(ref):
        v.errors.append(f"{len(eigenvalues)} eigenvalues, want {len(ref)}")
        return
    scale = float(max(abs(ref[-1]), 1)) if ref else 1.0
    got = sorted(eigenvalues)
    for k, (x, want) in enumerate(zip(got, ref)):
        if k < z:
            v.expect(abs(x) <= ZERO_TOL * scale, f"eigenvalue {k} = {x:.6g} should be 0")
            continue
        v.digits.append(digits_of(x, want))
        rel = abs(mpmath.mpf(x) - want) / abs(want)
        v.expect(rel <= REL_TOL, f"eigenvalue {k} = {x!r}, want {mpmath.nstr(want, 15)}")
    h = np.array([[complex(x) for x in row] for row in pair.hermitian_form(n, inner)])
    _check_vectors(v, h, _vectors(eigenvectors), eigenvalues, scale, "eigenvectors")


def check_harmonic(v: Verdict, pair: Pair, n: int, count: int, vectors):
    z = pair.cohomology_dim(n)
    v.expect(count == z, f"{count} harmonic vectors, want {z}")
    if count != z:
        return
    ref = pair.eigenvalues(n)
    scale = float(max(abs(ref[-1]), 1)) if ref else 1.0
    h = np.array([[complex(x) for x in row] for row in pair.hermitian_form(n)])
    _check_vectors(v, h, _vectors(vectors), [0.0] * count, scale, "harmonic vectors")


def check(spec: dict, pairs: dict, answer: dict) -> Verdict:
    """Compare one answer with its reference.  ``spec`` names the query's
    type, pair and degree; ``answer`` is the parsed JSON payload, with the
    exit code under "exit".  An answer missing a field or holding one of the
    wrong shape fails."""
    try:
        return _check(spec, pairs, answer)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        v = Verdict()
        v.errors.append(f"malformed answer: {type(exc).__name__}: {exc}")
        return v


def _check(spec: dict, pairs: dict, answer: dict) -> Verdict:
    v = Verdict()
    want_exit = spec.get("exit", 0)
    if answer.get("exit") != want_exit:
        detail = answer.get("error") or answer.get("stderr", "").strip()
        v.errors.append(f"exit {answer.get('exit')}, want {want_exit}: {detail}")
        return v
    kind = spec["type"]
    pair = pairs.get(spec.get("pair"))
    n = spec.get("n")
    if kind == "validate":
        want = pair.violations()
        got = answer["violations"]
        v.expect(answer["valid"] == (not want), "valid flag wrong")
        v.expect(len(got) == len(want), f"{len(got)} violations, want {len(want)}")
        for g, (s, i, j, left, right) in zip(got, want):
            v.expect([g["simplex"], g["i"], g["j"]] == [s, i, j]
                     and parse_scalar(g["left"]) == left and parse_scalar(g["right"]) == right,
                     f"violation {g} differs from {(s, i, j)}")
    elif kind == "homology":
        free, torsion = pair.homology(n)
        known = spec.get("known")
        if known is not None and [free, torsion] != known:
            raise OracleError(f"sympy homology {free, torsion} disagrees with known {known}")
        v.expect([answer["free_rank"], answer["torsion"]] == [free, torsion],
                 f"H_{n} = {answer['free_rank']}, {answer['torsion']}; want {free}, {torsion}")
    elif kind == "snf":
        want = pair.snf_diagonal(n)
        v.expect(answer["diagonal"] == want and answer["rank"] == len(pair.snf(n)),
                 f"SNF diagonal {answer['diagonal']}, want {want}")
    elif kind == "rank":
        v.expect(answer["rank"] == pair.rank(n), f"rank {answer['rank']}, want {pair.rank(n)}")
    elif kind == "cohomology_dim":
        want = pair.cohomology_dim(n)
        v.expect(answer["cohomology_dim"] == want, f"dim {answer['cohomology_dim']}, want {want}")
    elif kind == "multiplicities":
        want = list(pair.multiplicities(n))
        got = [answer["down"], answer["up"], answer["laplacian"]]
        v.expect(got == want, f"multiplicities {got}, want {want}")
    elif kind in ("boundary", "coboundary"):
        want = pair.boundary(n if kind == "boundary" else n + 1)
        if kind == "coboundary":
            want = [list(col) for col in zip(*want)] if want else []
        _entries_equal(v, answer["entries"], want, kind)
    elif kind == "laplacian":
        up, down, total = pair.laplacian(n, spec.get("inner", False))
        for key, want in (("up", up), ("down", down), ("laplacian", total)):
            if key in answer or key == "laplacian":
                _entries_equal(v, answer[key]["entries"], want, key)
        labels = answer["laplacian"].get("row_labels")
        if labels is not None:
            v.expect(labels == [list(s) for s in pair.basis.get(n, [])], "row labels differ")
    elif kind == "spectrum":
        check_spectrum(v, pair, n, spec.get("inner", False), answer["eigenvalues"],
                       answer["eigenvectors"])
    elif kind == "harmonic":
        check_harmonic(v, pair, n, answer["count"], answer["vectors"])
    elif kind == "ngon":
        free, torsion = ngon_homology(spec["alphas"])
        v.expect([answer["free_rank"], answer["torsion"]] == [free, torsion],
                 f"H_0 = {answer['free_rank']}, {answer['torsion']}; want {free}, {torsion}")
    elif kind == "ffl":
        label = spec["label"]
        v.expect(answer["classified"] == label, f"classified {answer['classified']}, want {label}")
        if "type" in answer:
            kinds = ["activation" if k == 1 else "repression" for k in FFL_KINDS[label]]
            v.expect(answer["signs"] == dict(zip(("xy", "yz", "xz"), kinds)), "signs differ")
        for x, want in zip(sorted(answer["eigenvalues"]), ffl_eigenvalues(label)):
            v.digits.append(digits_of(x, want))
            v.expect(abs(mpmath.mpf(x) - want) <= REL_TOL * want, f"eigenvalue {x}, want {want}")
    else:
        raise OracleError(f"unknown check type {kind}")
    return v
