import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wsimplex import (
    ExactMatrix,
    FFLSpec,
    GaussianRational,
    HomologyGroup,
    InnerProductWeights,
    UnvalidatedWeightError,
    WeightFunction,
    boundary_matrix,
    build_complex,
    coboundary_matrix,
    cohomology_dim,
    ffl_signature,
    harmonic_basis,
    identity_weight,
    laplacian_matrix,
    laplacian_spectrum,
    make_ffl,
    make_ngon,
    parse_inner_weights_text,
    smith_normal_form,
    spectrum,
    up_down_matrices,
    weighted_homology,
    zero_multiplicity_formulas,
    zero_weight,
)

from wsimplex import spectral
from wsimplex.chains import boundary_columns
from wsimplex.cli import main
from wsimplex.matrices import column_rank

from conftest import (
    doubled_edge_triangle,
    full_tetrahedron,
    full_triangle,
    glued_triangles,
    hollow_triangle,
    random_quotient_weight,
    random_semi_trivial_weight,
    sample_triangle,
    sample_triangle_table,
    single_edge,
    spectral_fixtures,
    write_pair,
)
from oracles import dense_rank, diagonal, matmul

FIXTURES = spectral_fixtures(count=16)


def kernel_dim(matrix: ExactMatrix) -> int:
    return matrix.cols - matrix.rank()


# -- cohomology dimensions ----------------------------------------------------


def test_cohomology_dim_doubled_edge():
    complex, phi = doubled_edge_triangle()
    assert cohomology_dim(complex, phi, 0) == 0
    assert cohomology_dim(complex, phi, 1) == 0
    ident = identity_weight(complex)
    assert cohomology_dim(complex, ident, 0) == 1
    assert cohomology_dim(complex, ident, 1) == 1


def test_cohomology_dim_bounds():
    complex, phi = single_edge()
    assert cohomology_dim(complex, phi, -1) == 0
    assert cohomology_dim(complex, phi, -5) == 0
    assert cohomology_dim(complex, phi, 4) == 0


def test_cohomology_dim_checks_the_pair_below_degree_zero():
    complex = build_complex([(0, 1)])
    phi = WeightFunction(complex, {((0, 1), 0): 3, ((0, 1), 1): 2})
    with pytest.raises(UnvalidatedWeightError):
        cohomology_dim(complex, phi, -1)


def test_cohomology_dim_zero_weight():
    complex = hollow_triangle()
    phi = zero_weight(complex)
    # every operator vanishes, so each degree contributes its full dimension
    assert cohomology_dim(complex, phi, 0) == 3
    assert cohomology_dim(complex, phi, 1) == 3


# -- Laplacian matrices -------------------------------------------------------


def test_edge_up_matrix_exact():
    complex, phi = single_edge(p=2, q=3)
    up, down = up_down_matrices(complex, phi, 0)
    assert up == ExactMatrix([[4, -6], [-6, 9]])
    assert down.is_zero()
    # off-diagonal magnitude differs from the diagonal corner: the weighted
    # operator is not a rescaled vertex Laplacian
    assert abs(complex_entry(up, 0, 0)) != abs(complex_entry(up, 0, 1))

    up1, down1 = up_down_matrices(complex, phi, 1)
    assert up1.is_zero()
    assert down1 == ExactMatrix([[13]])


def complex_entry(m: ExactMatrix, i: int, j: int) -> complex:
    return complex(m[i, j])


def test_edge_spectrum():
    complex, phi = single_edge(p=2, q=3)
    spec = spectrum(laplacian_matrix(complex, phi, 0))
    assert np.allclose(spec.eigenvalues, [0.0, 13.0], atol=1e-9)


def test_laplacian_hermitian_psd():
    for name, complex, phi in FIXTURES:
        for n in range(complex.max_dim + 1):
            lap = laplacian_matrix(complex, phi, n)
            assert lap.is_hermitian(), name
            if lap.rows == 0:
                continue
            w = spectrum(lap).eigenvalues
            assert np.all(w >= -1e-9 * (1 + np.linalg.norm(lap.to_ndarray()))), name


def test_laplacian_commutes_with_coboundary():
    for name, complex, phi in FIXTURES:
        for n in range(complex.max_dim + 1):
            a_n = coboundary_matrix(complex, phi, n)
            lhs = matmul(laplacian_matrix(complex, phi, n + 1), a_n)
            rhs = matmul(a_n, laplacian_matrix(complex, phi, n))
            assert lhs == rhs, name


def test_coboundary_squares_to_zero():
    for name, complex, phi in FIXTURES:
        for n in range(complex.max_dim + 1):
            step = matmul(coboundary_matrix(complex, phi, n + 1),
                          coboundary_matrix(complex, phi, n))
            assert step.is_zero(), name


def test_kernel_dim_equals_cohomology_dim():
    for name, complex, phi in FIXTURES:
        for n in range(complex.max_dim + 1):
            lap = laplacian_matrix(complex, phi, n)
            assert kernel_dim(lap) == cohomology_dim(complex, phi, n), name


# -- zero multiplicity formulas -----------------------------------------------


def test_multiplicities_hollow_triangle_identity():
    complex = hollow_triangle()
    phi = identity_weight(complex)
    assert zero_multiplicity_formulas(complex, phi, 1) == (1, 3, 1)
    assert zero_multiplicity_formulas(complex, phi, 0) == (3, 1, 1)


def test_multiplicities_negative_degree_is_zero():
    # dim C^n - r_n, dim C^n - r_{n+1} and dim H^n are all 0 below degree 0
    complex, phi = single_edge()
    assert zero_multiplicity_formulas(complex, phi, -1) == (0, 0, 0)


def alternating_sum_multiplicities(complex, phi, n):
    """Reference: the zero multiplicities as alternating sums of chain-space
    and cohomology dimensions over degrees 0..n."""
    dim_c = [len(complex.basis(j)) for j in range(n + 1)]
    h = [cohomology_dim(complex, phi, j) for j in range(n + 1)]
    down = dim_c[n]
    for j in range(n):
        down -= (-1) ** (n + j - 1) * (dim_c[j] - h[j])
    up = dim_c[n]
    for j in range(n + 1):
        up -= (-1) ** (n + j) * (dim_c[j] - h[j])
    return down, up, h[n]


def test_multiplicities_match_alternating_sums():
    for name, complex, phi in FIXTURES:
        for n in range(complex.max_dim + 2):
            assert zero_multiplicity_formulas(complex, phi, n) == \
                alternating_sum_multiplicities(complex, phi, n), (name, n)


def test_multiplicities_match_exact_kernels():
    for name, complex, phi in FIXTURES:
        for n in range(complex.max_dim + 1):
            down_m, up_m, lap_m = zero_multiplicity_formulas(complex, phi, n)
            up, down = up_down_matrices(complex, phi, n)
            assert kernel_dim(down) == down_m, name
            assert kernel_dim(up) == up_m, name
            assert kernel_dim(up + down) == lap_m, name


def test_multiplicities_match_float_zero_counts():
    for name, complex, phi in FIXTURES[:8]:
        for n in range(complex.max_dim + 1):
            down_m, up_m, lap_m = zero_multiplicity_formulas(complex, phi, n)
            up, down = up_down_matrices(complex, phi, n)
            for matrix, expected in [(down, down_m), (up, up_m),
                                     (up + down, lap_m)]:
                if matrix.rows == 0:
                    assert expected == 0, name
                    continue
                tol = 1e-9 * (1 + np.linalg.norm(matrix.to_ndarray()))
                zeros = np.sum(np.abs(spectrum(matrix).eigenvalues) <= tol)
                assert zeros == expected, name


# -- harmonic bases -----------------------------------------------------------


def test_harmonic_basis_properties():
    for name, complex, phi in FIXTURES[:10]:
        for n in range(complex.max_dim + 1):
            basis = harmonic_basis(complex, phi, n)
            assert basis.count == cohomology_dim(complex, phi, n), name
            assert basis.labels == complex.basis(n)
            if basis.count == 0:
                continue
            v = basis.vectors
            gram = v.conj().T @ v
            assert np.allclose(gram, np.eye(basis.count), atol=1e-9), name
            out = coboundary_matrix(complex, phi, n).to_ndarray()
            into = coboundary_matrix(complex, phi, n - 1).conj_transpose().to_ndarray()
            for k in range(basis.count):
                h = v[:, k]
                if out.shape[0]:
                    assert np.linalg.norm(out @ h) <= 1e-8, name
                if into.shape[0]:
                    assert np.linalg.norm(into @ h) <= 1e-8, name


# lambda_2..lambda_4 of the Laplacian of [1/10^e, 1, 1, 1, 10^e], from
# 60-digit mpmath on the exact Laplacian; degrees 0 and 1 share them
PENTAGON_LAMBDAS = {
    5: (0.42933194229277001747, 1.7575690235522179913, 3.3130990342675119912),
    7: (0.42933194217232997782, 1.757569023564034079, 3.3130990342636471932),
    9: (0.42933194217231793382, 1.7575690235640352606, 3.3130990342636468067),
    12: (0.42933194217231793261, 1.7575690235640352607, 3.3130990342636468067),
    15: (0.42933194217231793261, 1.7575690235640352607, 3.3130990342636468067),
}
# the same for the alternating pentagon [1, 10^16, 1, 10^-16, 1]
ALTERNATING_LAMBDAS = (0.54839403704422335626, 1.5969682832373152241, 2.8546376797184614196)


def check_pentagon(alphas, lambdas, capsys, tmp_path):
    """lambda_2..lambda_4 in degrees 0 and 1: to a relative 1e-12 from the
    library, and as the reference's 12 significant digits from the CLI,
    which prints that many; and a one-vector harmonic basis."""
    complex, phi = make_ngon(alphas)
    argv = write_pair(tmp_path, "pentagon", complex, phi)
    for n in (0, 1):
        lap = laplacian_matrix(complex, phi, n).to_ndarray()
        assert main(["spectrum", *argv, "-n", str(n)]) == 0
        values = json.loads(capsys.readouterr().out)["eigenvalues"]
        assert values[0] == 0.0
        assert values[1:4] == [float(f"{x:.12g}") for x in lambdas], n
        spec = laplacian_spectrum(complex, phi, n)
        assert spec.eigenvalues[1:4] == pytest.approx(lambdas, rel=1e-12), n

        assert main(["harmonic", *argv, "-n", str(n)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == len(payload["vectors"]) == 1
        v = np.array(payload["vectors"]).T
        assert np.allclose(v.T @ v, np.eye(1), atol=1e-9)
        assert np.linalg.norm(lap @ v) <= 1e-8 * spec.eigenvalues[-1], n


@pytest.mark.parametrize("e", sorted(PENTAGON_LAMBDAS))
def test_ill_conditioned_pentagons(e, capsys, tmp_path):
    """Eigensolving the formed Laplacian (condition number about 10^(2e))
    gave lambda_2 = 0.505 at e = 7 and a harmonic count mismatch at both;
    the one-sided Jacobi loop alone loses lambda_3 in degree 1 from
    e = 12 on (1.1e-8 there, 4.4e-3 at e = 15)."""
    check_pentagon([Fraction(1, 10 ** e), 1, 1, 1, 10 ** e], PENTAGON_LAMBDAS[e],
                   capsys, tmp_path)


def test_alternating_pentagon(capsys, tmp_path):
    """The one-sided Jacobi loop alone reads 2, 2, 2 in degree 0 here."""
    check_pentagon([1, 10 ** 16, 1, Fraction(1, 10 ** 16), 1], ALTERNATING_LAMBDAS,
                   capsys, tmp_path)


# -- weighted inner products --------------------------------------------------


def incidence_matrix(complex, n: int) -> ExactMatrix:
    """Signed incidence of (n+1)-simplices against n-simplices, built
    directly from face positions."""
    rows = complex.basis(n + 1)
    cols = complex.basis(n)
    index = {s: j for j, s in enumerate(cols)}
    data = [[0] * len(cols) for _ in rows]
    if cols:
        for i, s in enumerate(rows):
            for k in range(len(s)):
                data[i][index[s.face(k)]] = (-1) ** k
    return ExactMatrix(data, rows, cols, cols=len(cols))


def random_inner_weights(rng, complex) -> InnerProductWeights:
    table = {s: Fraction(rng.randint(1, 9), rng.randint(1, 4))
             for s in complex.simplices()}
    return InnerProductWeights(table)


def test_uniform_weights_reduce_to_standard():
    for name, complex, phi in FIXTURES[:10]:
        w = InnerProductWeights.uniform()
        for n in range(complex.max_dim + 1):
            up_w, down_w = up_down_matrices(complex, phi, n, w)
            up, down = up_down_matrices(complex, phi, n)
            assert up_w == up, name
            assert down_w == down, name
            assert up_w + down_w == up + down, name


def test_identity_weight_matches_incidence_forms():
    rng = random.Random(7)
    for name, complex, phi in FIXTURES[:10]:
        ident = identity_weight(complex)
        w = random_inner_weights(rng, complex)
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


def test_weighted_edge_laplacian_exact():
    complex, phi = single_edge(p=2, q=3)
    w = InnerProductWeights({(0,): 1, (1,): 2, (0, 1): 1})
    up, down = up_down_matrices(complex, phi, 0, w)
    assert down.is_zero()
    assert up == ExactMatrix([[4, -6], [-3, Fraction(9, 2)]])
    assert not up.is_hermitian()
    with pytest.raises(ValueError, match=r"Hermitian; .* laplacian_spectrum\(\.\.\., w\)"):
        spectrum(up)
    spec = laplacian_spectrum(complex, phi, 0, w)
    assert np.allclose(spec.eigenvalues, [0.0, 8.5], atol=1e-9)


def test_weighted_spectrum_real_nonnegative():
    """The full Laplacian through laplacian_spectrum, and each part through
    numpy on its Hermitian form W^1/2 L W^-1/2."""
    rng = random.Random(40)
    for name, complex, phi in FIXTURES[:8]:
        w = random_inner_weights(rng, complex)
        for n in range(complex.max_dim + 1):
            up, down = up_down_matrices(complex, phi, n, w)
            if up.rows == 0:
                continue
            diag = w.diagonal(complex, n)
            for matrix in (up, down):
                values = np.linalg.eigvalsh(hermitian_form(matrix, diag))
                scale = 1 + np.linalg.norm(matrix.to_ndarray())
                assert np.all(values >= -1e-9 * scale), name
                assert len(values) == matrix.rows
            spec = laplacian_spectrum(complex, phi, n, w)
            scale = 1 + np.linalg.norm((up + down).to_ndarray())
            assert np.all(spec.eigenvalues >= -1e-9 * scale), name
            assert spec.size == up.rows


def test_weighted_spectrum_kernel_count():
    rng = random.Random(41)
    for name, complex, phi in FIXTURES[:6]:
        w = random_inner_weights(rng, complex)
        for n in range(complex.max_dim + 1):
            up, down = up_down_matrices(complex, phi, n, w)
            lap = up + down
            if lap.rows == 0:
                continue
            spec = laplacian_spectrum(complex, phi, n, w)
            tol = 1e-9 * (1 + np.linalg.norm(lap.to_ndarray()))
            assert np.sum(np.abs(spec.eigenvalues) <= tol) == kernel_dim(lap), name


def test_inner_weights_validation():
    with pytest.raises(ValueError, match="positive"):
        InnerProductWeights({(0,): 0})
    with pytest.raises(ValueError, match="positive"):
        InnerProductWeights.uniform(-2)
    w = InnerProductWeights({(0,): Fraction(3, 2)})
    assert w.value((0,)) == Fraction(3, 2)
    with pytest.raises(KeyError):
        w.value((1,))


def test_inner_weights_at_the_float_range_ends_are_accepted():
    """Inner weights exactly at the smallest normal float and the largest
    float pass the range check; a hair beyond either end, and 10^±400, are
    refused with the weight's magnitude."""
    from math import sqrt
    from sys import float_info

    edge = build_complex([(0, 1)])
    lo, hi = Fraction(float_info.min), Fraction(float_info.max)
    roots = spectral._root_weights(edge, InnerProductWeights({(0,): lo, (1,): hi}), 0)
    assert roots.tolist() == [sqrt(float_info.min), sqrt(float_info.max)]
    for x, magnitude in ((lo - Fraction(1, 10**400), "1e-308"), (hi + 1, "1e+308"),
                         (Fraction(1, 10**400), "1e-400"), (Fraction(10**400), "1e+400")):
        with pytest.raises(ValueError) as err:
            spectral._root_weights(edge, InnerProductWeights({(1,): x}, 1), 0)
        assert str(err.value) == (f"inner weight of [1] has magnitude about {magnitude}, "
                                  f"outside the normal float range")


def test_parse_inner_weights():
    w = parse_inner_weights_text("# comment\n0 1 | 3/2\n2 | 5\n")
    assert w.value((0, 1)) == Fraction(3, 2)
    assert w.value((2,)) == Fraction(5)
    assert w.value((7,)) == 1  # default fills the rest
    with pytest.raises(ValueError, match="line 1"):
        parse_inner_weights_text("0 1 | 1 | 2")
    with pytest.raises(ValueError, match="line 2"):
        parse_inner_weights_text("0 | 1\n0 1 | x\n")
    with pytest.raises(ValueError, match=r"^inner product weight for \[0\] must be positive, got -3$"):
        parse_inner_weights_text("0 | -3\n")
    with pytest.raises(ValueError, match=r"^inner product weight for \[1\] must be positive, got 0$"):
        parse_inner_weights_text("0 | 2\n1 | 0\n")
    with pytest.raises(ValueError, match=r"^line 1: a simplex needs at least one vertex$"):
        parse_inner_weights_text(" | 2\n")
    with pytest.raises(ValueError, match=r"^line 2: vertices \(1, 0\) not strictly ascending$"):
        parse_inner_weights_text("0 | 1\n1 0 | 2\n")


def test_parse_inner_weights_checks_the_final_table():
    """Positivity is checked on the table the lines leave: a non-positive
    value a later line overwrites is accepted, and one that overwrites a
    positive value is refused."""
    with pytest.warns(UserWarning, match="line 2: duplicate entry for"):
        w = parse_inner_weights_text("0 | -3\n0 | 2\n")
    assert w.value((0,)) == 2
    with pytest.warns(UserWarning, match="line 2: duplicate entry for"):
        with pytest.raises(ValueError, match=r"^inner product weight for \[0\] must be positive"):
            parse_inner_weights_text("0 | 2\n0 | -3\n")


def test_parse_inner_weights_duplicates(recwarn):
    """A second line for one simplex with another value warns, as a weight
    file does, and the last value is kept; a repeated value is silent."""
    with pytest.warns(UserWarning, match=r"line 3: duplicate entry for \[0\]; keeping the last"):
        w = parse_inner_weights_text("0 | 2\n1 | 3\n0 | 5\n")
    assert w.value((0,)) == 5
    recwarn.clear()
    w = parse_inner_weights_text("0 | 2\n0 | 4/2\n0 1 | 1\n0 1 | 1\n")
    assert not recwarn.list
    assert (w.value((0,)), w.value((0, 1))) == (2, 1)


# -- sparse assembly against dense products -------------------------------------


def dense_parts(complex, phi, n, w=None):
    """Reference (up, down) of the degree-n Laplacian: dense products of the
    coboundaries, with the diagonal inner weights w if given."""
    a_n = coboundary_matrix(complex, phi, n)
    a_prev = coboundary_matrix(complex, phi, n - 1)
    if w is None:
        return matmul(a_n.conj_transpose(), a_n), matmul(a_prev, a_prev.conj_transpose())
    labels = complex.basis(n)
    w_n = w.diagonal(complex, n)
    inv_n = diagonal([1 / x for x in w_n], labels, labels)
    diag_n = diagonal(w_n, labels, labels)
    diag_up = diagonal(w.diagonal(complex, n + 1))
    inv_dn = diagonal([1 / x for x in w.diagonal(complex, n - 1)])
    return (matmul(inv_n, a_n.conj_transpose(), diag_up, a_n),
            matmul(a_prev, inv_dn, a_prev.conj_transpose(), diag_n))


def assert_same(actual: ExactMatrix, expected: ExactMatrix, where) -> None:
    assert actual == expected, where
    assert actual.row_labels == expected.row_labels, where
    assert actual.col_labels == expected.col_labels, where


def assembly_pairs():
    """FIXTURES plus one pair each of complex, zero and semi-trivial
    weights on complexes with non-empty top degree."""
    rng = random.Random(11)
    tetra = full_tetrahedron()
    glued = glued_triangles()
    return FIXTURES + [
        ("complex_tetrahedron", tetra,
         random_quotient_weight(rng, tetra, complex_scalars=True,
                                allow_zero_scale=False)),
        ("zero_glued", glued, zero_weight(glued)),
        ("semi_trivial_tetrahedron", tetra, random_semi_trivial_weight(rng, tetra)),
    ]


def test_assembly_matches_dense_products():
    rng = random.Random(12)
    for name, complex, phi in assembly_pairs():
        w = random_inner_weights(rng, complex)
        for n in range(-1, complex.max_dim + 3):
            where = (name, n)
            up, down = up_down_matrices(complex, phi, n)
            ref_up, ref_down = dense_parts(complex, phi, n)
            assert_same(up, ref_up, where)
            assert_same(down, ref_down, where)
            assert_same(laplacian_matrix(complex, phi, n), ref_up + ref_down, where)
            up_w, down_w = up_down_matrices(complex, phi, n, w)
            ref_up, ref_down = dense_parts(complex, phi, n, w)
            assert_same(up_w, ref_up, where)
            assert_same(down_w, ref_down, where)
            assert_same(up_w + down_w, ref_up + ref_down, where)


def test_assembly_rejects_unvalidated_weight():
    complex, _ = sample_triangle()
    raw = WeightFunction(complex, sample_triangle_table())
    w = InnerProductWeights.uniform()
    for n in range(3):
        with pytest.raises(UnvalidatedWeightError):
            up_down_matrices(complex, raw, n)
        with pytest.raises(UnvalidatedWeightError):
            laplacian_matrix(complex, raw, n)
        with pytest.raises(UnvalidatedWeightError):
            up_down_matrices(complex, raw, n, w)
        with pytest.raises(UnvalidatedWeightError):
            harmonic_basis(complex, raw, n)


def test_laplacian_paths_form_no_dense_product(monkeypatch, capsys):
    def refuse(self, other):
        raise AssertionError("dense ExactMatrix product on a Laplacian path")

    # ExactMatrix has no product of its own; one added back must stay off these paths
    monkeypatch.setattr(ExactMatrix, "__matmul__", refuse, raising=False)
    complex, phi = sample_triangle()
    w = InnerProductWeights({(1,): 2}, default=1)
    for n in range(-1, complex.max_dim + 2):
        laplacian_matrix(complex, phi, n)
        up_down_matrices(complex, phi, n, w)
        harmonic_basis(complex, phi, n)
    ffl_signature(*make_ffl(FFLSpec.from_label("coherent1")))

    files = Path(__file__).parent / "fixtures"
    pair = ["-k", str(files / "triangle.cplx"), "-w", str(files / "triangle.wts")]
    inner = ["--inner-weights", str(files / "inner.wts")]
    for n in ("0", "1"):
        for argv in (["laplacian", *pair, "-n", n],
                     ["laplacian", *pair, "-n", n, *inner],
                     ["spectrum", *pair, "-n", n],
                     ["spectrum", *pair, "-n", n, *inner],
                     ["harmonic", *pair, "-n", n]):
            assert main(argv) == 0, argv
    capsys.readouterr()


# -- sparse boundary columns and their exact rank --------------------------------


def columns_of(matrix: ExactMatrix) -> list[dict]:
    return [{i: row[j] for i, row in enumerate(matrix.data) if row[j]} for j in range(matrix.cols)]


def test_boundary_columns_are_the_matrix_nonzeros():
    for name, complex, phi in assembly_pairs():
        for n in range(-1, complex.max_dim + 3):
            columns = boundary_columns(complex, phi, n)
            assert columns == columns_of(boundary_matrix(complex, phi, n)), (name, n)
            assert all(x for column in columns for x in column.values()), (name, n)
            if name == "zero_glued":
                assert not any(columns), n


def test_boundary_columns_check_the_weight():
    complex, _ = sample_triangle()
    raw = WeightFunction(complex, sample_triangle_table())
    with pytest.raises(UnvalidatedWeightError):
        boundary_columns(complex, raw, 1)
    other = build_complex([(0, 1, 2), (2, 3)])
    with pytest.raises(ValueError, match="different complex"):
        boundary_columns(other, sample_triangle()[1], 1)


def random_deficient_matrix(rng: random.Random, complex_scalars: bool) -> ExactMatrix:
    """Sparse random columns plus scaled, summed and duplicated copies of
    them, shuffled, so the rank can fall below min(rows, cols)."""
    rows = rng.randint(1, 7)

    def scalar():
        re = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]) if complex_scalars else 1)
        im = Fraction(rng.randint(-2, 2), rng.choice([1, 2])) if complex_scalars else 0
        return GaussianRational(re, im)

    base = [[scalar() if rng.random() < 0.4 else 0 for _ in range(rows)]
            for _ in range(rng.randint(1, 5))]
    columns = list(base)
    for _ in range(rng.randint(0, 4)):
        a, b = rng.choice(base), rng.choice(base)
        c = scalar()
        columns.append(rng.choice([a, [c * x for x in a],
                                   [x + c * y for x, y in zip(a, b)]]))
    rng.shuffle(columns)
    return ExactMatrix([list(r) for r in zip(*columns)], cols=len(columns))


def assert_rank(matrix: ExactMatrix, where) -> int:
    rank = dense_rank(matrix.data, matrix.cols)
    assert matrix.rank() == rank, where
    assert column_rank(columns_of(matrix)) == rank, where
    assert matrix.transpose().rank() == rank, where
    if all(x.is_integer() for row in matrix.data for x in row):
        assert smith_normal_form(matrix).rank == rank, where
    return rank


def test_column_rank_matches_references():
    for name, complex, phi in assembly_pairs():
        for n in range(-1, complex.max_dim + 3):
            matrix = boundary_matrix(complex, phi, n)
            rank = assert_rank(matrix, (name, n))
            assert column_rank(boundary_columns(complex, phi, n)) == rank, (name, n)
    for size in range(4):
        assert_rank(ExactMatrix([], cols=size), ("0 x n", size))
        assert_rank(ExactMatrix([[]] * size), ("n x 0", size))
    rng = random.Random(13)
    deficient = 0
    for trial in range(120):
        matrix = random_deficient_matrix(rng, complex_scalars=trial % 2 == 0)
        deficient += assert_rank(matrix, trial) < min(matrix.shape)
    assert deficient >= 20


def refuse_dense_matrices(monkeypatch):
    """Make every way of building a dense exact matrix raise: the
    dense-rows constructor ``ExactMatrix.__init__``, the dense copy
    ``ExactMatrix.data`` and ``ExactMatrix.to_ndarray``.  A sparse
    ``boundary_matrix`` is allowed."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix on a sparse path")

    monkeypatch.setattr(ExactMatrix, "__init__", refuse)
    monkeypatch.setattr(ExactMatrix, "data", property(refuse))
    monkeypatch.setattr(ExactMatrix, "to_ndarray", refuse)


def test_spectral_paths_build_no_dense_boundary(monkeypatch, capsys):
    refuse_dense_matrices(monkeypatch)
    complex, phi = sample_triangle()
    w = InnerProductWeights({(1,): 2}, default=1)
    for n in range(-1, complex.max_dim + 2):
        up_down_matrices(complex, phi, n)
        laplacian_matrix(complex, phi, n)
        up_down_matrices(complex, phi, n, w)
        harmonic_basis(complex, phi, n)
        cohomology_dim(complex, phi, n)
        if n >= 0:
            zero_multiplicity_formulas(complex, phi, n)

    files = Path(__file__).parent / "fixtures"
    pair = ["-k", str(files / "triangle.cplx"), "-w", str(files / "triangle.wts")]
    inner = ["--inner-weights", str(files / "inner.wts")]
    for n in ("0", "1"):
        for argv in (["laplacian", *pair, "-n", n],
                     ["laplacian", *pair, "-n", n, *inner],
                     ["spectrum", *pair, "-n", n],
                     ["spectrum", *pair, "-n", n, *inner],
                     ["harmonic", *pair, "-n", n],
                     ["multiplicities", *pair, "-n", n],
                     ["cohomology-dim", *pair, "-n", n]):
            assert main(argv) == 0, argv
    capsys.readouterr()


def test_spectra_form_no_laplacian(monkeypatch, capsys):
    """spectrum (plain and inner-weighted) and harmonic bases come from the
    factor: neither an exact Laplacian nor its float copy is built."""
    def refuse(*args):
        raise AssertionError("Laplacian formed for a spectrum")

    monkeypatch.setattr(spectral, "_assemble", refuse)
    monkeypatch.setattr(ExactMatrix, "to_ndarray", refuse)
    complex, phi = sample_triangle()
    for n in range(-1, complex.max_dim + 2):
        harmonic_basis(complex, phi, n)
        laplacian_spectrum(complex, phi, n, InnerProductWeights({(1,): 2}, default=1))

    files = Path(__file__).parent / "fixtures"
    pair = ["-k", str(files / "triangle.cplx"), "-w", str(files / "triangle.wts")]
    inner = ["--inner-weights", str(files / "inner.wts")]
    for n in ("0", "1", "2"):
        for argv in (["spectrum", *pair, "-n", n],
                     ["spectrum", *pair, "-n", n, *inner],
                     ["harmonic", *pair, "-n", n]):
            assert main(argv) == 0, argv
    capsys.readouterr()


def hermitian_form(matrix: ExactMatrix, w_n=None) -> np.ndarray:
    """Float reference: the formed Laplacian, or for inner weights its
    similarity transform W^1/2 L W^-1/2."""
    lap = matrix.to_ndarray()
    if w_n is None:
        return lap
    roots = np.sqrt([float(x) for x in w_n])
    return roots[:, None] * lap / roots[None, :]


def test_factor_spectrum_matches_formed_laplacian():
    """M^* M is the (weighted) Laplacian, and laplacian_spectrum gives its
    eigenvalues with exactly dim H^n zeros and orthonormal eigenvectors."""
    rng = random.Random(14)
    for name, complex, phi in assembly_pairs():
        w = random_inner_weights(rng, complex)
        for n in range(-1, complex.max_dim + 2):
            zeros = cohomology_dim(complex, phi, n)
            for inner in (None, w):
                where = (name, n, inner is not None)
                if inner is None:
                    ref = hermitian_form(laplacian_matrix(complex, phi, n))
                else:
                    up, down = up_down_matrices(complex, phi, n, w)
                    ref = hermitian_form(up + down, w.diagonal(complex, n))
                m = spectral._factor(complex, phi, n, inner)
                scale = 1.0 + np.linalg.norm(ref)
                assert np.linalg.norm(m.conj().T @ m - ref) <= 1e-13 * scale, where
                spec = laplacian_spectrum(complex, phi, n, inner)
                values, vectors = spec.eigenvalues, spec.eigenvectors
                assert values.shape == (len(ref),) and vectors.shape == ref.shape, where
                assert np.all(values[:zeros] == 0.0) and np.all(values[zeros:] > 0.0), where
                if len(ref):
                    assert np.allclose(values, np.linalg.eigvalsh(ref), rtol=0,
                                       atol=1e-12 * scale), where
                    assert np.linalg.norm(ref @ vectors - vectors * values) <= 1e-12 * scale
                    assert np.allclose(vectors.conj().T @ vectors, np.eye(len(ref)),
                                       atol=1e-12), where


def test_homology_paths_build_no_dense_boundary(monkeypatch, capsys, tmp_path):
    """weighted_homology and the CLI homology read the pair's boundary
    columns and build no ExactMatrix at all, the CLI snf reads the pair's
    sparse boundary matrices and builds no dense matrix, and all answer as
    the library's Smith normal forms of those matrices do."""
    def refuse(*args, **kwargs):
        raise AssertionError("ExactMatrix on the homology path")

    def normal_form(complex, phi, n):
        return smith_normal_form(boundary_matrix(complex, phi, n), transforms=True)

    cases = []
    for name, complex, phi in FIXTURES:
        if not phi.is_integral():
            continue
        argv = write_pair(tmp_path, name, complex, phi)
        for n in range(-1, complex.max_dim + 2):
            lower, upper = normal_form(complex, phi, n), normal_form(complex, phi, n + 1)
            group = HomologyGroup([d for d in upper.diagonal if d > 1],
                                  len(complex.basis(n)) - lower.rank - upper.rank
                                  ) if n >= 0 else HomologyGroup([], 0)
            cases.append((complex, phi, argv, n, lower, group))
    assert len(cases) > 30

    refuse_dense_matrices(monkeypatch)
    for complex, phi, argv, n, snf, group in cases:
        with monkeypatch.context() as every_matrix:  # each constructor sets the fields
            every_matrix.setattr(ExactMatrix, "_set", refuse)
            assert weighted_homology(complex, phi, n) == group, (argv, n)
            if n < 0:
                continue
            assert main(["homology", *argv, "-n", str(n)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "dimension": n, "free_rank": group.free_rank, "torsion": group.torsion}
        plain = {"dimension": n, "diagonal": snf.diagonal, "rank": snf.rank}
        assert main(["snf", *argv, "-n", str(n)]) == 0
        assert json.loads(capsys.readouterr().out) == plain
        assert main(["snf", *argv, "-n", str(n), "--transforms"]) == 0
        assert json.loads(capsys.readouterr().out) == {**plain, "U": snf.U, "V": snf.V}

    complex, phi = single_edge(Fraction(1, 2), 3)
    argv = write_pair(tmp_path, "half", complex, phi)
    assert main(["snf", *argv, "-n", "1"]) == 1
    assert capsys.readouterr().err == "error: matrix has non-integer entries\n"
    assert main(["homology", *argv, "-n", "0"]) == 1
    assert capsys.readouterr().err == "error: integer homology needs integer weight values\n"
