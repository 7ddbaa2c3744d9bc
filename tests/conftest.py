"""Shared builders for the test suite.

Random objects are always driven by an explicit seeded random.Random so
every run sees the same fixtures.  Weight functions come out of
constructions that are compatible by design (quotients of per-simplex
scalars, integer constructor families, semi-trivial zero patterns), so the
suites can assume validation passes and test everything downstream.

hypothesis runs under its default profile unless HYPOTHESIS_PROFILE names
another.  ``deep`` draws 20,000 random examples instead of a fixed few
hundred, for a long search on request; property tests that fix their own
settings keep them, and the seeded differential tests that read ``DEEP``
draw ten times their default count:

    HYPOTHESIS_PROFILE=deep python -m pytest tests/test_snf_property.py
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from wsimplex import (
    GaussianRational,
    Simplex,
    SimplicialComplex,
    WeightFunction,
    build_complex,
    cfw_weight,
    dawson_weight,
    identity_weight,
    semi_trivial_weight,
    zero_weight,
)
from wsimplex.weights import required_pairs

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("deep", max_examples=20_000, derandomize=False, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

DEEP = os.environ.get("HYPOTHESIS_PROFILE") == "deep"


@pytest.fixture(params=["lapack", "loop"])
def svd_path(request, monkeypatch):
    """Runs a test on each path of ``jacobi_svd``: LAPACK's xGEJSV, and the
    one-sided Jacobi loop, taken by making the library loader report no
    library.  The LAPACK run skips where numpy bundles no such library."""
    from wsimplex import eigen

    if request.param == "loop":
        monkeypatch.setattr(eigen, "_lapack", lambda: None)
    elif eigen._lapack() is None:
        pytest.skip("numpy bundles no OpenBLAS with xGEJSV")
    return request.param

# -- fixed small complexes ----------------------------------------------------


def hollow_triangle() -> SimplicialComplex:
    return build_complex([(0, 1), (0, 2), (1, 2)])


def full_triangle() -> SimplicialComplex:
    return build_complex([(0, 1, 2)])


def full_tetrahedron() -> SimplicialComplex:
    return build_complex([(0, 1, 2, 3)])


def glued_triangles() -> SimplicialComplex:
    return build_complex([(0, 1, 2), (1, 2, 3)])


def sample_triangle_table() -> dict:
    """Weight table on the full 2-simplex with zero entries mixed in;
    compatible, and its degree-2 boundary is (1, -3, 0) in the edge basis."""
    s = Simplex((0, 1, 2))
    return {
        (s, 0): 0, (s, 1): 3, (s, 2): 1,
        (Simplex((1, 2)), 0): 2, (Simplex((1, 2)), 1): 4,
        (Simplex((0, 2)), 0): 0, (Simplex((0, 2)), 1): 2,
        (Simplex((0, 1)), 0): 0, (Simplex((0, 1)), 1): 6,
    }


def sample_triangle() -> tuple[SimplicialComplex, WeightFunction]:
    complex = full_triangle()
    phi = WeightFunction(complex, sample_triangle_table())
    assert not phi.validate()
    return complex, phi


def doubled_edge_triangle() -> tuple[SimplicialComplex, WeightFunction]:
    """Hollow triangle with phi([0,1],[0]) = 2 and all other entries 1."""
    complex = hollow_triangle()
    table = {pair: 1 for pair in required_pairs(complex)}
    table[(Simplex((0, 1)), 1)] = 2
    phi = WeightFunction(complex, table)
    assert not phi.validate()
    return complex, phi


def single_edge(p=2, q=3) -> tuple[SimplicialComplex, WeightFunction]:
    """One 1-simplex with phi(e,[0]) = p, phi(e,[1]) = q."""
    complex = build_complex([(0, 1)])
    phi = WeightFunction(complex, {((0, 1), 0): q, ((0, 1), 1): p})
    assert not phi.validate()
    return complex, phi


# -- random generators -------------------------------------------------------


def random_complex(rng: random.Random, max_vertices=6, max_dim=3) -> SimplicialComplex:
    nv = rng.randint(3, max_vertices)
    verts = list(range(nv))
    sims = []
    for _ in range(rng.randint(2, 5)):
        size = rng.randint(1, min(max_dim + 1, nv))
        sims.append(tuple(sorted(rng.sample(verts, size))))
    return build_complex(sims)


def random_flag_complex(rng: random.Random, max_vertices=7, max_dim=3) -> SimplicialComplex:
    """Clique complex, up to dimension max_dim, of a random graph on 3 to
    max_vertices vertices, each edge drawn with one probability from 1/2
    to 4/5."""
    nv = rng.randint(3, max_vertices)
    p = rng.uniform(0.5, 0.8)
    above = {v: set() for v in range(nv)}  # the neighbours of v above v
    for a, b in combinations(range(nv), 2):
        if rng.random() < p:
            above[a].add(b)
    cliques = [(v,) for v in range(nv)]
    out = list(cliques)
    for _ in range(max_dim):
        cliques = [c + (v,) for c in cliques for v in sorted(above[c[-1]])
                   if all(v in above[u] for u in c)]
        out += cliques
    return build_complex(out)


def _random_nonzero(rng: random.Random, complex_scalars: bool) -> GaussianRational:
    while True:
        re = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
        im = Fraction(rng.randint(-2, 2), rng.choice([1, 2])) if complex_scalars \
            else Fraction(0)
        v = GaussianRational(re, im)
        if v:
            return v


def random_quotient_weight(
    rng: random.Random,
    complex: SimplicialComplex,
    complex_scalars=False,
    allow_zero_scale=True,
) -> WeightFunction:
    """phi(s, t) = scale * g(s) / g(t) for random nonzero g: compatible for
    any scale, including scale 0."""
    g = {s: _random_nonzero(rng, complex_scalars) for s in complex.simplices()}
    if allow_zero_scale and rng.random() < 0.1:
        scale = GaussianRational(0)
    else:
        scale = _random_nonzero(rng, complex_scalars)
    table = {(s, i): scale * g[s] / g[s.face(i)]
             for s, i in required_pairs(complex)}
    phi = WeightFunction(complex, table)
    assert not phi.validate()
    return phi


def random_dawson_weight(rng: random.Random, complex: SimplicialComplex) -> WeightFunction:
    # per-vertex integers make w(s) = prod over vertices, so faces divide
    pool = [-3, -2, -1, 1, 2, 3]
    p = {v: rng.choice(pool) for v in range(max(s[-1] for s in complex.simplices()) + 1)}
    w = {}
    for s in complex.simplices():
        out = 1
        for v in s:
            out *= p[v]
        w[s] = out
    return dawson_weight(complex, w)


def random_cfw_weight(rng: random.Random, complex: SimplicialComplex) -> WeightFunction:
    w = {s: rng.randint(-3, 3) for s in complex.simplices()}
    f = {x: rng.choice([-3, -2, -1, 1, 2, 3]) for x in set(w.values())}
    return cfw_weight(complex, w, f, C="auto")


def random_semi_trivial_weight(rng: random.Random, complex: SimplicialComplex) -> WeightFunction:
    sims = list(complex.simplices())
    zero_simplices = {s for s in sims if rng.random() < 0.5}
    zero_faces = set(sims) - zero_simplices
    for s in sims:  # sprinkle some overlap
        if rng.random() < 0.2:
            zero_faces.add(s)
    return semi_trivial_weight(complex, zero_simplices, zero_faces,
                               a=rng.randint(1, 7))


def random_valid_weight(rng: random.Random, complex: SimplicialComplex) -> WeightFunction:
    kind = rng.choice(["quotient", "quotient", "quotient_complex", "dawson",
                       "cfw", "semi", "identity", "zero"])
    if kind == "quotient":
        return random_quotient_weight(rng, complex)
    if kind == "quotient_complex":
        return random_quotient_weight(rng, complex, complex_scalars=True)
    if kind == "dawson":
        return random_dawson_weight(rng, complex)
    if kind == "cfw":
        return random_cfw_weight(rng, complex)
    if kind == "semi":
        return random_semi_trivial_weight(rng, complex)
    if kind == "identity":
        return identity_weight(complex)
    return zero_weight(complex)


def spectral_fixtures(count=50, seed=20240817, complex_scalars_every=7):
    """Deterministic list of (name, complex, phi) pairs mixing the fixed
    complexes with random ones and the weight families."""
    rng = random.Random(seed)
    bases = [hollow_triangle(), full_triangle(), full_tetrahedron(),
             glued_triangles()]
    out = []
    out.append(("sample_triangle", *sample_triangle()))
    out.append(("doubled_edge", *doubled_edge_triangle()))
    out.append(("single_edge", *single_edge()))
    i = 0
    while len(out) < count:
        complex = bases[i % len(bases)] if i % 3 == 0 else random_complex(rng)
        if i % complex_scalars_every == 3:
            phi = random_quotient_weight(rng, complex, complex_scalars=True)
        else:
            phi = random_valid_weight(rng, complex)
        out.append((f"fixture_{i}", complex, phi))
        i += 1
    return out


# -- files for the CLI ---------------------------------------------------------


def write_pair(directory: Path, name: str, complex, phi) -> list[str]:
    """Complex and weight files for the CLI, every table entry written."""
    k, w = directory / f"{name}.cplx", directory / f"{name}.wts"
    k.write_text("".join(" ".join(map(str, s)) + "\n" for s in complex.simplices()))
    w.write_text("".join(f"{' '.join(map(str, s))} | {' '.join(map(str, s.face(i)))} | {x}\n"
                         for (s, i), x in phi.entries()))
    return ["-k", str(k), "-w", str(w), "--strict"]


def child_env() -> dict:
    """Environment in which a child process finds the package in src/, as
    the suite does."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
