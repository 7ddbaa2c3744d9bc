"""Seeded inputs for the benchmark workloads.

Nothing here imports the package under test.  A complex is described by its
maximal simplices and by ``closure``, which returns the simplices of each
dimension in lexicographic order (the basis order the package uses).  A
weight table maps ``(simplex, face index)`` to a Gaussian rational written
as a pair ``(re, im)`` of Fractions.  Every random choice is drawn from a
``random.Random`` seeded by the caller, so one seed always gives the same
inputs, and the shapes of the inputs (vertex counts, degrees, weight
families) are fixed per workload so that the cost of a ladder does not
depend on the seed.

The quotient weights mirror the construction the test suite uses:
phi(s, t) = scale * g(s) / g(t) is compatible for any nonzero g.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, lcm

ONE = (Fraction(1), Fraction(0))


# -- Gaussian rationals as Fraction pairs ---------------------------------------


def real(x) -> tuple[Fraction, Fraction]:
    return (Fraction(x), Fraction(0))


def qmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def qdiv(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def fmt(v) -> str:
    """Scalar in the package's file grammar: 'p/q' or 'a+bi'."""
    re, im = v
    if im == 0:
        return str(re)
    return f"{re}{'+' if im >= 0 else '-'}{abs(im)}i"


# -- complexes --------------------------------------------------------------------


def face(s: tuple, i: int) -> tuple:
    return s[:i] + s[i + 1:]


def closure(maximal) -> dict[int, list[tuple]]:
    """Simplices of every dimension, lexicographically sorted."""
    members = set()
    for s in maximal:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            members.update(itertools.combinations(s, k))
    basis: dict[int, list[tuple]] = {}
    for s in members:
        basis.setdefault(len(s) - 1, []).append(s)
    return {d: sorted(v) for d, v in sorted(basis.items())}


def required_pairs(basis):
    for n in range(1, max(basis) + 1):
        for s in basis.get(n, ()):
            for i in range(n + 1):
                yield s, i


def skeleton(k: int, d: int) -> list[tuple]:
    """Maximal simplices of the d-skeleton of the k-simplex."""
    return list(itertools.combinations(range(k + 1), d + 1))


def relabel(rng: random.Random, maximal, nverts: int) -> list[tuple]:
    """The same complex under a random vertex permutation."""
    perm = list(range(nverts))
    rng.shuffle(perm)
    return sorted(tuple(sorted(perm[v] for v in s)) for s in maximal)


# Six-vertex real projective plane (half of the icosahedron).
RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
       (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)]

# Seven-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7.
TORUS = sorted({tuple(sorted(((i + a) % 7, (i + b) % 7, (i + c) % 7)))
                for i in range(7) for a, b, c in ((0, 1, 3), (0, 2, 3))})


def _klein_bottle(m: int = 3) -> list[tuple]:
    """m x m grid on the square with (x, 0) ~ (x, m) and (0, y) ~ (m, -y)."""
    def v(x, y):
        if x == m:
            x, y = 0, -y
        return (x % m) * m + (y % m)

    tris = set()
    for x in range(m):
        for y in range(m):
            a, b, c, d = v(x, y), v(x + 1, y), v(x, y + 1), v(x + 1, y + 1)
            tris.add(tuple(sorted((a, b, d))))
            tris.add(tuple(sorted((a, c, d))))
    return sorted(tris)


KLEIN = _klein_bottle()

# Integer homology with identity weights, by degree: (free rank, torsion).
KNOWN_SURFACES = {
    "rp2": (RP2, 6, [(1, []), (0, [2]), (0, [])]),
    "torus": (TORUS, 7, [(1, []), (2, []), (1, [])]),
    "klein": (KLEIN, 9, [(1, []), (1, [2]), (0, [])]),
}


def skeleton_homology(k: int, d: int) -> list[tuple[int, list]]:
    """Identity-weight homology of the d-skeleton (d >= 1) of the k-simplex:
    Z in degree 0, 0 in between and Z^binom(k, d+1) on top."""
    out = [(0, [])] * (d + 1)
    out[0] = (1, [])
    out[d] = (comb(k, d + 1), [])
    return out


def flag_complex(rng: random.Random, nverts: int, nedges: int, max_dim: int = 3) -> list[tuple]:
    """Clique complex of a random graph with exactly nedges edges."""
    edges = rng.sample(list(itertools.combinations(range(nverts), 2)), nedges)
    adj = {v: set() for v in range(nverts)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    cliques = [(v,) for v in range(nverts)]
    frontier = cliques
    for _ in range(max_dim):
        frontier = [c + (w,) for c in frontier for w in range(c[-1] + 1, nverts)
                    if all(w in adj[u] for u in c)]
        cliques += frontier
    return cliques


def cycle(n: int) -> list[tuple]:
    """Edges of the n-gon in the package's ``make_ngon`` layout."""
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


# -- weights ----------------------------------------------------------------------


def identity_weight(basis) -> dict:
    return {pair: ONE for pair in required_pairs(basis)}


def dawson_weight(rng: random.Random, basis) -> dict:
    """w(s) = product of per-vertex integers, phi(s, d_i s) = w(s)/w(d_i s)."""
    p = {v[0]: rng.choice([-3, -2, -1, 1, 2, 3]) for v in basis[0]}
    return {(s, i): real(p[s[i]]) for s, i in required_pairs(basis)}


def cfw_weight(rng: random.Random, basis) -> dict:
    """phi(s, d_i s) = C f(w(s)) / f(w(d_i s)) with C the lcm of |f|."""
    w = {s: rng.randint(-3, 3) for d in basis for s in basis[d]}
    f = {x: rng.choice([-3, -2, -1, 1, 2, 3]) for x in sorted(set(w.values()))}
    c = lcm(*(abs(y) for y in f.values()))
    return {(s, i): real(Fraction(c * f[w[s]], f[w[face(s, i)]]))
            for s, i in required_pairs(basis)}


def _nonzero(rng: random.Random, complex_scalars: bool):
    while True:
        re = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
        im = (Fraction(rng.randint(-2, 2), rng.choice([1, 2])) if complex_scalars
              else Fraction(0))
        if re or im:
            return (re, im)


def quotient_weight(rng: random.Random, basis, complex_scalars: bool) -> dict:
    """phi(s, t) = scale * g(s) / g(t) for random nonzero g and scale."""
    g = {s: _nonzero(rng, complex_scalars) for d in basis for s in basis[d]}
    scale = _nonzero(rng, complex_scalars)
    return {(s, i): qmul(scale, qdiv(g[s], g[face(s, i)]))
            for s, i in required_pairs(basis)}


def ngon_weight(alphas) -> dict:
    """phi(edge, [v]) = alpha_v, the package's polygon family."""
    table = {}
    for u, v in cycle(len(alphas)):
        table[((u, v), 0)] = real(alphas[v])
        table[((u, v), 1)] = real(alphas[u])
    return table


def broken(table: dict, basis) -> dict:
    """Copy of a compatible table with one triangle entry doubled."""
    out = dict(table)
    s = basis[2][0]
    out[(s, 0)] = qmul(out[(s, 0)], real(2))
    return out


def inner_weights(rng: random.Random, basis) -> dict:
    return {s: Fraction(rng.randint(1, 9), rng.randint(1, 4))
            for d in basis for s in basis[d]}


# -- polygons -----------------------------------------------------------------------


PRIMES = [p for p in range(2, 1000) if all(p % d for d in range(2, p))]


def polygon_alphas(rng: random.Random, n: int, case: str) -> list[int]:
    """'ones': every weight 1.  'coprime': a 1 followed by distinct primes,
    so the closed form's early exit comes at a fixed point whatever the
    seed.  'shared': every entry even, so no k-fold gcd is 1."""
    if case == "ones":
        return [1] * n
    if case == "coprime":
        return [1] + rng.sample(PRIMES, n - 1)
    if case == "shared":
        return [2 * rng.choice([1, 2, 3, 5, 6]) for _ in range(n)]
    raise ValueError(case)


def pentagon_alphas(e: int) -> list[Fraction]:
    """[1/10^e, 1, 1, 1, 10^e]: a valid pentagon whose Laplacian has
    condition number about 10^(2e)."""
    return [Fraction(1, 10 ** e), Fraction(1), Fraction(1), Fraction(1), Fraction(10 ** e)]


# -- file text ----------------------------------------------------------------------


def _verts(s) -> str:
    return " ".join(str(v) for v in s)


def complex_text(maximal) -> str:
    return "".join(_verts(s) + "\n" for s in maximal)


def weight_text(table: dict) -> str:
    return "".join(f"{_verts(s)} | {_verts(face(s, i))} | {fmt(v)}\n"
                   for (s, i), v in sorted(table.items()))


def inner_text(table: dict) -> str:
    return "".join(f"{_verts(s)} | {v}\n" for s, v in sorted(table.items()))


def matrix_text(rows) -> str:
    return "".join(" ".join(fmt(v) for v in row) + "\n" for row in rows)
