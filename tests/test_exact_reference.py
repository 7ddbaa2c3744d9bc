"""Exact layers against independent references.

* ``matrices.column_rank`` on weighted boundary columns against sympy's
  ``DomainMatrix`` rank over QQ_I (test-only, skipped without sympy);
* ``smith_normal_form`` on zero-heavy integer matrices, and
  ``weighted_homology`` on Dawson and cfw weights, against sympy's
  ``invariant_factors`` over ZZ (skipped without sympy);
* ``validate_weight`` on corrupted tables against the same check run on the
  two-Fraction reference scalar (``reference_gaussian.py``): the same
  violations in the same order, with the same ``str`` of both products.
"""

import random
from fractions import Fraction

import pytest

from wsimplex import (
    GaussianRational,
    HomologyGroup,
    WeightFunction,
    boundary_matrix,
    build_complex,
    smith_normal_form,
    validate_weight,
    weighted_homology,
)
from wsimplex.chains import boundary_columns
from wsimplex.matrices import column_rank
from wsimplex.weights import required_pairs

from conftest import (
    random_cfw_weight,
    random_complex,
    random_dawson_weight,
    random_quotient_weight,
    spectral_fixtures,
)
from oracles import sympy_invariant_factors, sympy_rank
from reference_gaussian import GaussianRational as Reference

FIXTURES = spectral_fixtures(count=16)
APART = 10**15


def _apart_weight(rng, complex):
    """phi(s, t) = c * g(s) / g(t) with g drawn from values 10^15 apart:
    compatible by construction, with entries up to 10^30 in size."""
    pool = [GaussianRational(1), GaussianRational(APART), GaussianRational(Fraction(1, APART)),
            GaussianRational(0, APART), GaussianRational(3, -APART),
            GaussianRational(Fraction(-7, APART), 2)]
    g = {s: rng.choice(pool) for s in complex.simplices()}
    c = rng.choice(pool)
    table = {(s, i): c * g[s] / g[s.face(i)] for s, i in required_pairs(complex)}
    phi = WeightFunction(complex, table)
    assert not phi.validate()
    return phi


def _extra_pairs():
    rng = random.Random(9151)
    out = []
    for k in range(8):
        complex = random_complex(rng, max_vertices=7, max_dim=3)
        out.append((f"complex_weight_{k}", complex,
                    random_quotient_weight(rng, complex, complex_scalars=True,
                                           allow_zero_scale=False)))
        out.append((f"apart_weight_{k}", complex, _apart_weight(rng, complex)))
    tetra = build_complex([(0, 1, 2, 3), (2, 3, 4)])
    out.append(("apart_tetrahedron", tetra, _apart_weight(rng, tetra)))
    return out


PAIRS = FIXTURES + _extra_pairs()


@pytest.mark.parametrize("name,complex,phi", PAIRS, ids=[p[0] for p in PAIRS])
def test_column_rank_matches_sympy_over_qq_i(name, complex, phi):
    for n in range(complex.max_dim + 2):
        columns = boundary_columns(complex, phi, n)
        expected = sympy_rank(columns, len(complex.basis(n - 1)))
        assert column_rank(columns) == expected, (name, n)
        assert boundary_matrix(complex, phi, n).rank() == expected, (name, n)


def test_snf_diagonal_matches_sympy_invariant_factors():
    rng = random.Random(6113)
    for trial in range(1200):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.choice([0.1, 0.25, 0.5, 1.0])
        hi = rng.choice([2, 9, 10**6])
        m = [[rng.randint(-hi, hi) if rng.random() < density else 0 for _ in range(c)]
             for _ in range(r)]
        assert smith_normal_form(m).diagonal == sympy_invariant_factors(m, c), m


def _sympy_rank_and_torsion(complex, phi, n) -> tuple[int, list[int]]:
    """Rank and torsion of the degree-n boundary, from the dense view."""
    d = boundary_matrix(complex, phi, n)
    factors = sympy_invariant_factors([[int(x) for x in row] for row in d.data], d.cols)
    return sum(1 for f in factors if f), [f for f in factors if f > 1]


def test_homology_matches_sympy_invariant_factors():
    rng = random.Random(7207)
    checked = 0
    for trial in range(40):
        complex = random_complex(rng, max_vertices=7, max_dim=3)
        make = random_dawson_weight if trial % 2 else random_cfw_weight
        phi = make(rng, complex)
        assert phi.is_integral()
        refs = [_sympy_rank_and_torsion(complex, phi, n) for n in range(complex.max_dim + 3)]
        for n in range(complex.max_dim + 2):
            (rank, _), (rank_up, torsion) = refs[n], refs[n + 1]
            free = len(complex.basis(n)) - rank - rank_up
            assert weighted_homology(complex, phi, n) == HomologyGroup(torsion, free), (trial, n)
            checked += 1
    assert checked > 100


def _reference_violations(phi):
    """The compatibility check of ``validate_weight`` on reference scalars,
    with faces cut by plain tuple slicing."""
    ref = {key: Reference(x.re, x.im) for key, x in phi.entries()}
    K = phi.complex
    out = []
    for n in range(2, K.max_dim + 1):
        for s in K.basis(n):
            for i in range(1, n + 1):
                di = s[:i] + s[i + 1:]
                for j in range(i):
                    dj = s[:j] + s[j + 1:]
                    left = ref[(s, i)] * ref[(di, j)]
                    right = ref[(s, j)] * ref[(dj, i - 1)]
                    if left != right:
                        out.append((tuple(s), i, j, str(left), str(right)))
    return out


def _corrupted(rng, phi):
    """A copy of phi's table with a few entries changed."""
    table = dict(phi.entries())
    keys = [key for key in table if key[0].dim >= 1]
    for key in rng.sample(keys, min(len(keys), rng.randint(1, 3))):
        x = table[key]
        table[key] = rng.choice([
            x * 2, x + GaussianRational(0, 1), GaussianRational(0),
            GaussianRational(APART), x * GaussianRational(Fraction(1, APART)),
            -x + 1,
        ])
    return WeightFunction(phi.complex, table)


def test_validate_matches_reference_scalar_on_corrupted_tables():
    rng = random.Random(4721)
    found = 0
    for name, complex, phi in PAIRS:
        if complex.max_dim < 2:
            continue
        for trial in range(6):
            bad = _corrupted(rng, phi)
            got = [(tuple(v.simplex), v.i, v.j, str(v.left), str(v.right))
                   for v in validate_weight(bad)]
            assert got == _reference_violations(bad), (name, trial)
            assert bad.validated == (not got)
            found += len(got)
    assert found > 50
