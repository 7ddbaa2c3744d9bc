"""Acceptance gate: ten end-to-end checks, one visible line each.

Every test prints its own pass/fail line straight to the real stdout so the
gate reads as a checklist no matter how pytest captures output.  Budgets and
tolerances are asserted inside the tests themselves.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from wsimplex import (
    ExactMatrix,
    HomologyGroup,
    all_specs,
    boundary_matrix,
    classify_ffl,
    coboundary_matrix,
    cohomology_dim,
    ffl_signature,
    ffl_weights,
    harmonic_basis,
    identity_weight,
    laplacian_matrix,
    make_ffl,
    make_ngon,
    ngon_homology_closed_form,
    smith_normal_form,
    spectrum,
    up_down_matrices,
    weighted_homology,
)
from wsimplex.spectral import InnerProductWeights, zero_multiplicity_formulas

from conftest import (
    doubled_edge_triangle,
    random_complex,
    random_valid_weight,
    single_edge,
    spectral_fixtures,
)
from oracles import MOTIF_REFERENCE_TABLE, diagonal, gcd_minors_oracle, matmul, scale


_capsys = None


@pytest.fixture(autouse=True)
def _uncaptured_announcements(capsys):
    # fd-level capture swallows even sys.__stdout__, so announcements must go
    # through capsys.disabled() to reach the terminal on passing tests too
    global _capsys
    _capsys = capsys
    yield
    _capsys = None


@contextmanager
def criterion(num: int, text: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        _announce(num, "FAIL", text, time.monotonic() - start)
        raise
    _announce(num, "PASS", text, time.monotonic() - start)


def _announce(num: int, status: str, text: str, elapsed: float):
    line = f"[acceptance {num:02d}] {status} ({elapsed:6.2f}s): {text}"
    if _capsys is None:
        print(line, flush=True)
        return
    with _capsys.disabled():
        print(line, flush=True)


def kernel_dim(matrix: ExactMatrix) -> int:
    return matrix.cols - matrix.rank()


def incidence_matrix(complex, n: int) -> ExactMatrix:
    rows = complex.basis(n + 1)
    cols = complex.basis(n)
    index = {s: j for j, s in enumerate(cols)}
    data = [[0] * len(cols) for _ in rows]
    if cols:
        for i, s in enumerate(rows):
            for k in range(len(s)):
                data[i][index[s.face(k)]] = (-1) ** k
    return ExactMatrix(data, rows, cols, cols=len(cols))


def test_criterion_01_pentagon_homology():
    with criterion(1, "pentagon homology, closed form and matrix pipeline"):
        start = time.monotonic()
        alphas = [1, 2, 2, 2, 2]
        closed = ngon_homology_closed_form(alphas)
        complex, phi = make_ngon(alphas)
        pipeline = weighted_homology(complex, phi, 0)
        assert closed == pipeline == HomologyGroup([2, 2, 2], 1)
        assert str(closed) == "Z/2 + Z/2 + Z/2 + Z"
        snf = smith_normal_form(boundary_matrix(complex, phi, 1))
        assert snf.diagonal == [1, 2, 2, 2, 0]
        ones = [1, 1, 1, 1, 1]
        k1, p1 = make_ngon(ones)
        assert (ngon_homology_closed_form(ones)
                == weighted_homology(k1, p1, 0)
                == HomologyGroup([], 1))
        assert time.monotonic() - start < 1.0


def test_criterion_02_polygon_closed_form_random():
    with criterion(2, "closed-form polygon homology equals the pipeline, "
                      "200+ random weightings"):
        start = time.monotonic()
        rng = random.Random(20240818)
        cases = [[0, 0, 0], [0, 1, 2], [1, 0, 2, 0], [2, 2, 2, 2, 2, 2]]
        while len(cases) < 210:
            n = rng.randint(3, 8)
            cases.append([rng.randint(-3, 3) for _ in range(n)])
        for alphas in cases:
            closed = ngon_homology_closed_form(alphas)
            complex, phi = make_ngon(alphas)
            assert closed == weighted_homology(complex, phi, 0), alphas
        assert time.monotonic() - start < 30.0


def test_criterion_03_snf_against_minor_gcds():
    with criterion(3, "Smith diagonal vs gcd-of-minors oracle, 500+ matrices"):
        start = time.monotonic()
        rng = random.Random(77)
        for trial in range(520):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            data = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            m = ExactMatrix(data)
            result = smith_normal_form(m)
            product = 1
            for k, d in enumerate(result.diagonal, start=1):
                product *= d
                assert product == gcd_minors_oracle(data, k), (trial, data)
        assert time.monotonic() - start < 60.0


def test_criterion_04_boundary_squares_to_zero():
    with criterion(4, "boundary of boundary vanishes, 100+ random weightings"):
        rng = random.Random(1009)
        for trial in range(110):
            complex = random_complex(rng)
            phi = random_valid_weight(rng, complex)
            for n in range(1, complex.max_dim + 1):
                step = matmul(boundary_matrix(complex, phi, n),
                              boundary_matrix(complex, phi, n + 1))
                assert step.is_zero(), trial


def test_criterion_05_doubled_edge_cohomology():
    with criterion(5, "doubled-edge triangle cohomology dims, weighted vs plain"):
        complex, phi = doubled_edge_triangle()
        ident = identity_weight(complex)
        assert cohomology_dim(complex, phi, 0) == 0
        assert cohomology_dim(complex, ident, 0) == 1
        assert cohomology_dim(complex, phi, 1) == 0
        assert cohomology_dim(complex, ident, 1) == 1


def test_criterion_06_laplacian_closed_forms():
    with criterion(6, "edge and motif Laplacians equal their closed forms"):
        complex, phi = single_edge(p=2, q=3)
        up, down = up_down_matrices(complex, phi, 0)
        assert up == ExactMatrix([[4, -6], [-6, 9]])
        assert down.is_zero()
        rng = random.Random(55)

        def nonzero():
            while True:
                x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                if x:
                    return x

        for _ in range(20):
            a, b, c = nonzero(), nonzero(), nonzero()
            k, w = ffl_weights(a, b, c)
            a2, b2, c2 = a * a, b * b, c * c
            formula = ExactMatrix([
                [a2 + c2, -a2, -c2],
                [-a2, a2 + b2, -b2],
                [-c2, -b2, b2 + c2],
            ])
            assert laplacian_matrix(k, w, 0) == formula, (a, b, c)


def test_criterion_07_zero_multiplicities():
    with criterion(7, "zero-eigenvalue counts: formulas, exact kernels, floats, "
                      "50+ weightings"):
        for name, complex, phi in spectral_fixtures(count=50):
            for n in range(complex.max_dim + 1):
                down_m, up_m, lap_m = zero_multiplicity_formulas(complex, phi, n)
                up, down = up_down_matrices(complex, phi, n)
                lap = up + down
                assert kernel_dim(down) == down_m, name
                assert kernel_dim(up) == up_m, name
                assert kernel_dim(lap) == lap_m, name
                for matrix, expected in [(down, down_m), (up, up_m), (lap, lap_m)]:
                    tol = 1e-9 * (1 + np.linalg.norm(matrix.to_ndarray()))
                    zeros = np.sum(np.abs(spectrum(matrix).eigenvalues) <= tol)
                    assert zeros == expected, name


def test_criterion_08_motif_reference_table():
    with criterion(8, "motif table eigendata reproduced, all 8 types classified"):
        start = time.monotonic()
        for key, (a, b, c, u2, u3, lam2, lam3) in MOTIF_REFERENCE_TABLE.items():
            complex, phi = ffl_weights(a, b, c)
            lap = laplacian_matrix(complex, phi, 0)
            for u, lam in [(u2, lam2), (u3, lam3)]:
                col = ExactMatrix([[x] for x in u])
                assert matmul(lap, col) == scale(col, lam), key
            sig = ffl_signature(complex, phi)
            assert np.allclose(sorted(sig.eigenvalues), sorted([lam2, lam3]),
                               atol=1e-9), key
            pairs = sorted([(lam2, u2), (lam3, u3)])
            if lam2 == lam3:
                vecs = [np.array([float(x) for x in u]) for _, u in pairs]
                q = []
                for v in vecs:
                    for prev in q:
                        v = v - prev * (prev @ v)
                    q.append(v / np.linalg.norm(v))
                blocks = [np.column_stack(q)]
            else:
                blocks = []
                for _, u in pairs:
                    v = np.array([float(x) for x in u])
                    blocks.append((v / np.linalg.norm(v)).reshape(3, 1))
            assert len(sig.clusters) == len(blocks), key
            for (_, proj), block in zip(sig.clusters, blocks):
                assert np.linalg.norm(proj - block @ block.T) <= 1e-6, key
        for spec in all_specs():
            assert classify_ffl(ffl_signature(*make_ffl(spec))) == spec
        assert time.monotonic() - start < 1.0


def test_criterion_09_inner_product_reduction():
    with criterion(9, "plain-weight inner-product Laplacians equal incidence "
                      "forms, 50+ cases"):
        rng = random.Random(404)
        for name, complex, _ in spectral_fixtures(count=50):
            ident = identity_weight(complex)
            w = InnerProductWeights(
                {s: Fraction(rng.randint(1, 9), rng.randint(1, 4))
                 for s in complex.simplices()})
            for n in range(complex.max_dim + 1):
                up_w, down_w = up_down_matrices(complex, ident, n, w)
                d_n = incidence_matrix(complex, n)
                d_prev = incidence_matrix(complex, n - 1)
                w_n = diagonal(w.diagonal(complex, n))
                w_up = diagonal(w.diagonal(complex, n + 1))
                inv_n = diagonal([Fraction(1) / x for x in w.diagonal(complex, n)])
                inv_dn = diagonal([Fraction(1) / x for x in w.diagonal(complex, n - 1)])
                assert up_w == matmul(inv_n, d_n.transpose(), w_up, d_n), name
                assert down_w == matmul(d_prev, inv_dn, d_prev.transpose(), w_n), name


def test_criterion_10_harmonic_cochains():
    with criterion(10, "Laplacian commutes with the coboundary; harmonic bases "
                       "span the cohomology"):
        for name, complex, phi in spectral_fixtures(count=50):
            for n in range(complex.max_dim + 1):
                a_n = coboundary_matrix(complex, phi, n)
                lhs = matmul(laplacian_matrix(complex, phi, n + 1), a_n)
                rhs = matmul(a_n, laplacian_matrix(complex, phi, n))
                assert lhs == rhs, name
                basis = harmonic_basis(complex, phi, n)
                assert basis.count == cohomology_dim(complex, phi, n), name
                if basis.count == 0:
                    continue
                v = basis.vectors
                assert np.allclose(v.conj().T @ v, np.eye(basis.count),
                                   atol=1e-9), name
                out = a_n.to_ndarray()
                into = coboundary_matrix(complex, phi, n - 1).conj_transpose().to_ndarray()
                for k in range(basis.count):
                    if out.shape[0]:
                        assert np.linalg.norm(out @ v[:, k]) <= 1e-8, name
                    if into.shape[0]:
                        assert np.linalg.norm(into @ v[:, k]) <= 1e-8, name
