import json
import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import pytest

from wsimplex import (
    ExactMatrix,
    GaussianRational,
    HomologyGroup,
    boundary_matrix,
    build_complex,
    cohomology_dim,
    harmonic_basis,
    identity_weight,
    make_ngon,
    ngon_homology_closed_form,
    smith_normal_form,
    weighted_homology,
    zero_weight,
)
from wsimplex import homology
from wsimplex.cli import main

from conftest import spectral_fixtures, write_pair
from oracles import assert_smith_transforms, gcd_minors_oracle, integer_det


def random_int_matrix(rng, max_side=5, lo=-9, hi=9):
    r = rng.randint(1, max_side)
    c = rng.randint(1, max_side)
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def check_snf_contract(m, res):
    rows, cols = len(m), len(m[0]) if m else 0
    # diagonal shape and divisibility chain
    assert len(res.diagonal) == min(rows, cols)
    assert all(d >= 0 for d in res.diagonal)
    for a, b in zip(res.diagonal, res.diagonal[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert res.rank == sum(1 for d in res.diagonal if d)
    # transforms reproduce the diagonal and are unimodular
    assert_smith_transforms(m, cols, res)


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == [0, 0]
    assert smith_normal_form([[1]]).diagonal == [1]
    assert smith_normal_form([[4]]).diagonal == [4]
    assert smith_normal_form([[-4]]).diagonal == [4]
    # gcd of entries 2, gcd of 2x2 minors 4, |det| = 624 = 4 * 156
    res = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert res.diagonal == [2, 2, 156]


def test_snf_zero_sized():
    assert smith_normal_form([]).diagonal == []
    res = smith_normal_form([[], []])
    assert res.diagonal == []
    assert res.rank == 0


def test_snf_refuses_non_integer_entries():
    """Dense rows are read as an ExactMatrix, so non-integer exact entries
    are refused, not truncated, from a list of rows and from an ExactMatrix
    alike, and floats and strings are refused as Gaussian rationals are;
    integer-valued exact entries pass."""
    exact = [[Fraction(1, 2), 0], [0, 3]], [[GaussianRational(1, 1), 0]]
    for rows in exact:
        for matrix in (rows, ExactMatrix(rows)):
            with pytest.raises(ValueError, match="matrix has non-integer entries"):
                smith_normal_form(matrix)
    for rows in ([[Fraction(4), 0], [0, 6.0]], [[1.5, 0], [0, 3]], [[float("nan")]],
                 [[float("inf")]], [["3"]]):
        with pytest.raises(TypeError, match="as a Gaussian rational"):
            smith_normal_form(rows)
    for matrix in ([[Fraction(4), 0], [0, 6]], ExactMatrix([[Fraction(4), 0], [0, 6]])):
        assert smith_normal_form(matrix).diagonal == [2, 12]


def test_snf_transforms_random():
    rng = random.Random(404)
    for _ in range(150):
        m = random_int_matrix(rng)
        res = smith_normal_form(m, transforms=True)
        check_snf_contract(m, res)


def test_gcd_minors_examples():
    m = [[2, 0], [0, 3]]
    assert gcd_minors_oracle(m, 1) == 1
    assert gcd_minors_oracle(m, 2) == 6
    assert gcd_minors_oracle([[0, 0], [0, 0]], 1) == 0
    with pytest.raises(ValueError):
        gcd_minors_oracle(m, 0)


def test_integer_det():
    assert integer_det([[1, 2], [3, 4]]) == -2
    assert integer_det([[2]]) == 2
    assert integer_det([]) == 1
    assert integer_det([[0, 1], [1, 0]]) == -1
    assert integer_det([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        integer_det([[1, 2, 3], [4, 5, 6]])


def test_snf_agrees_with_minor_gcds():
    # d1 * ... * dk == gcd of k x k minors, the independent characterisation
    rng = random.Random(77)
    for _ in range(120):
        m = random_int_matrix(rng, max_side=4, lo=-6, hi=6)
        res = smith_normal_form(m)
        partial = 1
        for k, d in enumerate(res.diagonal, start=1):
            partial = partial * d if partial else 0
            assert partial == gcd_minors_oracle(m, k)


# -- homology ------------------------------------------------------------------


def test_pentagon_homology():
    k, phi = make_ngon([1, 2, 2, 2, 2])
    assert weighted_homology(k, phi, 0) == HomologyGroup([2, 2, 2], 1)
    assert str(weighted_homology(k, phi, 0)) == "Z/2 + Z/2 + Z/2 + Z"
    assert smith_normal_form(boundary_matrix(k, phi, 1)).diagonal == [1, 2, 2, 2, 0]


def test_unit_pentagon_homology():
    k, phi = make_ngon([1, 1, 1, 1, 1])
    assert weighted_homology(k, phi, 0) == HomologyGroup([], 1)
    assert weighted_homology(k, phi, 1) == HomologyGroup([], 1)


def test_square_homology():
    k, phi = make_ngon([2, 2, 2, 2])
    assert weighted_homology(k, phi, 0) == HomologyGroup([2, 2, 2], 1)


def test_homology_of_classical_complexes():
    k = build_complex([(0, 1, 2)])
    one = identity_weight(k)
    assert weighted_homology(k, one, 0) == HomologyGroup([], 1)
    assert weighted_homology(k, one, 1) == HomologyGroup([], 0)
    assert weighted_homology(k, one, 2) == HomologyGroup([], 0)

    hollow = build_complex([(0, 1), (0, 2), (1, 2)])
    one = identity_weight(hollow)
    assert weighted_homology(hollow, one, 1) == HomologyGroup([], 1)

    assert weighted_homology(hollow, zero_weight(hollow), 0) == HomologyGroup([], 3)
    assert weighted_homology(hollow, zero_weight(hollow), 1) == HomologyGroup([], 3)


# Minimal triangulations of closed surfaces (Munkres, Elements of Algebraic
# Topology, section 6): six vertices for the real projective plane (half of
# the icosahedron), seven for the torus (triangles {i, i+1, i+3} and
# {i, i+2, i+3} mod 7), nine for the Klein bottle (a 3 x 3 grid on the square
# with (x, 0) ~ (x, 3) and (0, y) ~ (3, -y)).
CLOSED_SURFACES = {
    "rp2": ([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
             (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)],
            [(1, []), (0, [2]), (0, [])], [1, 0, 0]),
    "torus": ([(0, 1, 3), (0, 1, 5), (0, 2, 3), (0, 2, 6), (0, 4, 5), (0, 4, 6),
               (1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 5, 6), (2, 3, 5), (2, 4, 5),
               (3, 4, 6), (3, 5, 6)],
              [(1, []), (2, []), (1, [])], [1, 2, 1]),
    "klein": ([(0, 1, 4), (0, 1, 8), (0, 2, 3), (0, 2, 6), (0, 3, 4), (0, 6, 8),
               (1, 2, 5), (1, 2, 7), (1, 4, 5), (1, 7, 8), (2, 3, 5), (2, 6, 7),
               (3, 4, 7), (3, 5, 6), (3, 6, 7), (4, 5, 8), (4, 7, 8), (5, 6, 8)],
              [(1, []), (1, [2]), (0, [])], [1, 1, 0]),
}


@pytest.mark.parametrize("name", sorted(CLOSED_SURFACES))
def test_homology_of_closed_surfaces(name):
    """Integer homology with its torsion, and the rational cohomology that
    the harmonic bases span, of RP^2, the torus and the Klein bottle."""
    triangles, groups, betti = CLOSED_SURFACES[name]
    k = build_complex(triangles)
    one = identity_weight(k)
    for n, (free, torsion) in enumerate(groups):
        assert weighted_homology(k, one, n) == HomologyGroup(torsion, free), (name, n)
        assert cohomology_dim(k, one, n) == betti[n], (name, n)
        assert harmonic_basis(k, one, n).count == betti[n], (name, n)


def test_homology_out_of_range():
    k = build_complex([(0, 1)])
    one = identity_weight(k)
    assert weighted_homology(k, one, -1) == HomologyGroup([], 0)
    assert weighted_homology(k, one, 5) == HomologyGroup([], 0)


def test_one_snf_per_homology_query(monkeypatch, capsys, tmp_path):
    """weighted_homology and the CLI homology run one Smith normal form, of
    the boundary above the degree, and answer as the normal forms of both
    adjacent boundaries do, in every degree from -1 to max_dim + 1."""
    cases = []
    for name, complex, phi in spectral_fixtures(count=16):
        if not phi.is_integral():
            continue
        argv = write_pair(tmp_path, name, complex, phi)
        for n in range(-1, complex.max_dim + 2):
            lower = smith_normal_form(boundary_matrix(complex, phi, n))
            upper = smith_normal_form(boundary_matrix(complex, phi, n + 1))
            group = HomologyGroup([d for d in upper.diagonal if d > 1],
                                  len(complex.basis(n)) - lower.rank - upper.rank)
            cases.append((complex, phi, argv, n, group))
    assert len(cases) > 30

    calls = []
    snf = homology.smith_normal_form

    def counted(*args, **kwargs):
        calls.append(args)
        return snf(*args, **kwargs)

    monkeypatch.setattr(homology, "smith_normal_form", counted)
    for complex, phi, argv, n, group in cases:
        calls.clear()
        assert weighted_homology(complex, phi, n) == group, (argv, n)
        assert len(calls) == 1, (argv, n)
        calls.clear()
        assert main(["homology", *argv, "-n", str(n)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "dimension": n, "free_rank": group.free_rank, "torsion": group.torsion}
        assert len(calls) == 1, (argv, n)


def test_homology_rejects_fractional_weights():
    from wsimplex import WeightFunction

    k = build_complex([(0, 1)])
    from fractions import Fraction
    phi = WeightFunction(k, {((0, 1), 0): Fraction(1, 2), ((0, 1), 1): 1})
    phi.validate()
    with pytest.raises(ValueError, match="integer"):
        weighted_homology(k, phi, 0)


# -- polygon closed form ---------------------------------------------------------


def brute_force_ngon_group(alphas):
    """Independent route: k-th partial product of invariant factors equals
    the gcd of k-fold products of distinct alphas."""
    n = len(alphas)
    partials = []
    for k in range(1, n):
        g = 0
        for combo in combinations(alphas, k):
            g = gcd(g, abs(prod(combo)))
        partials.append(g)
    ds = []
    prev = 1
    for g in partials:
        ds.append(0 if prev == 0 else g // prev)
        prev = g
    ds.append(0)
    return HomologyGroup([d for d in ds if d > 1], sum(1 for d in ds if d == 0))


def test_ngon_closed_form_examples():
    assert ngon_homology_closed_form([1, 2, 2, 2, 2]) == HomologyGroup([2, 2, 2], 1)
    assert ngon_homology_closed_form([1, 1, 1]) == HomologyGroup([], 1)
    assert ngon_homology_closed_form([2, 2, 2, 2]) == HomologyGroup([2, 2, 2], 1)
    assert ngon_homology_closed_form([0, 0, 0]) == HomologyGroup([], 3)
    assert ngon_homology_closed_form([6, 10, 15]) == HomologyGroup([30], 1)
    with pytest.raises(ValueError):
        ngon_homology_closed_form([1, 2])


def test_ngon_closed_form_refuses_a_fractional_alpha():
    with pytest.raises(ValueError) as err:
        ngon_homology_closed_form([1, Fraction(1, 2), 3])
    assert str(err.value) == "closed form needs integer weights"


def test_ngon_closed_form_matches_pipeline():
    rng = random.Random(31337)
    elapsed = time.perf_counter()
    for trial in range(220):
        n = rng.randint(3, 8)
        alphas = [rng.randint(-3, 3) for _ in range(n)]
        closed = ngon_homology_closed_form(alphas)
        assert closed == brute_force_ngon_group(alphas), alphas
        k, phi = make_ngon(alphas)
        assert closed == weighted_homology(k, phi, 0), alphas
    assert time.perf_counter() - elapsed < 30.0


def test_make_ngon_weight_layout():
    k, phi = make_ngon([3, 5, 7])
    assert phi((0, 1), (0,)) == 3
    assert phi((0, 1), (1,)) == 5
    assert phi((1, 2), (1,)) == 5
    assert phi((1, 2), (2,)) == 7
    assert phi((0, 2), (0,)) == 3
    assert phi((0, 2), (2,)) == 7
    with pytest.raises(ValueError):
        make_ngon([1, 2])


def signed_prime_power(rng):
    return rng.choice([-1, 1]) * rng.choice([2, 3, 5, 7]) ** rng.randint(0, 6)


def edge_case_alphas(rng, n):
    """All zero, one non-zero, n - 1 non-zero, all non-zero, and one
    10^30 entry among small ones, each shuffled."""
    small = [rng.choice([-1, 1]) * rng.randint(1, 30) for _ in range(n)]
    cases = [[0] * n,
             [0] * (n - 1) + [small[0]],
             [0] + small[1:],
             small,
             [10**30] + small[1:],
             [10**30] + [0] * (n - 1),
             [10**30, 0] + small[2:]]
    for case in cases:
        rng.shuffle(case)
    return cases


def test_ngon_closed_form_matches_subset_gcds():
    rng = random.Random(2005)
    draws = [lambda: rng.randint(-12, 12),
             lambda: rng.randint(-10**12, 10**12),
             lambda: signed_prime_power(rng),
             lambda: rng.choice([0, 0, rng.randint(-12, 12), signed_prime_power(rng),
                                 rng.randint(-10**12, 10**12)])]
    cases = [[draws[trial % 4]() for _ in range(rng.randint(3, 10))] for trial in range(1200)]
    for n in range(3, 11):
        cases += edge_case_alphas(rng, n)
    for alphas in cases:
        assert ngon_homology_closed_form(alphas) == brute_force_ngon_group(alphas), alphas


def test_ngon_closed_form_matches_pipeline_long_cycles():
    rng = random.Random(4242)
    cases = [[2 * rng.choice([1, 2, 3, 5, 6]) for _ in range(200)],
             [rng.choice([-1, 1]) * 2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 2)
              for _ in range(120)],
             [rng.choice([0, 0, 2, 4, 6, 9, -3, 10**13]) for _ in range(80)]]
    for alphas in cases:
        k, phi = make_ngon(alphas)
        assert ngon_homology_closed_form(alphas) == weighted_homology(k, phi, 0)


SMALL_PRIMES = [p for p in range(2, 1100) if all(p % q for q in range(2, int(p**0.5) + 1))]


def trial_division_group(alphas):
    """Reference for entries whose cofactor after trial division by
    SMALL_PRIMES is 1 or a prime: the k-th invariant factor is the
    product over primes p of p^(k-th smallest v_p) over the non-zero
    entries."""
    n = len(alphas)
    nonzero = [abs(a) for a in alphas if a]
    top = min(len(nonzero), n - 1)
    exponents = {}
    for a in nonzero:
        for p in SMALL_PRIMES:
            v = 0
            while a % p == 0:
                a //= p
                v += 1
            if v:
                exponents.setdefault(p, []).append(v)
        assert a < SMALL_PRIMES[-1] ** 2, "cofactor is not known to be prime"
        if a > 1:
            exponents.setdefault(a, []).append(1)
    ds = [1] * top
    for p, vs in exponents.items():
        full = [0] * (len(nonzero) - len(vs)) + sorted(vs)
        for k in range(top):
            ds[k] *= p ** full[k]
    return HomologyGroup([d for d in ds if d > 1], n - top)


def test_ngon_closed_form_bounded_work_at_1000_vertices(capsys):
    from wsimplex.cli import main

    rng = random.Random(1000)
    primes = []
    candidate = 10**6 + 1
    while len(primes) < 1000:
        if all(candidate % p for p in SMALL_PRIMES):
            primes.append(candidate)
        candidate += 2
    smooth = [2 * prod(rng.choice(SMALL_PRIMES[:12]) for _ in range(rng.randint(0, 8)))
              for _ in range(1000)]
    wide = [rng.getrandbits(60) for _ in range(1000)]

    def timed(alphas):
        start = time.perf_counter()
        group = ngon_homology_closed_form(alphas)
        assert time.perf_counter() - start < 10.0
        return group

    assert timed(primes) == trial_division_group(primes) == HomologyGroup([], 1)
    assert timed(smooth) == trial_division_group(smooth)
    # 60-bit entries are out of reach of trial division; check the
    # identities d_1 = gcd of all entries and d_1 * ... * d_(n-1) = gcd of
    # the (n-1)-fold products = (product of all) / lcm instead.
    group = timed(wide)
    assert group.free_rank == 1
    factors = [1] * (999 - len(group.torsion)) + group.torsion
    assert factors[0] == gcd(*wide)
    assert prod(factors) * lcm(*wide) == prod(wide)

    start = time.perf_counter()
    assert main(["ngon", "--alphas", ",".join(map(str, wide))]) == 0
    assert time.perf_counter() - start < 10.0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["torsion"], payload["free_rank"]) == (group.torsion, 1)
