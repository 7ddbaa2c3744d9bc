from fractions import Fraction

import numpy as np
import pytest

from wsimplex import (
    ClassificationError,
    ExactMatrix,
    FFLSpec,
    all_specs,
    classify_ffl,
    ffl_signature,
    ffl_weights,
    laplacian_matrix,
    make_ffl,
    signature_of_matrix,
)
from wsimplex import eigen, ffl
from wsimplex.ffl import ACTIVATION, REPRESSION, _SIGNS

from oracles import MOTIF_REFERENCE_TABLE, diagonal, matmul, scale


def motif_laplacian_formula(a, b, c) -> ExactMatrix:
    a2, b2, c2 = a * a, b * b, c * c
    return ExactMatrix([
        [a2 + c2, -a2, -c2],
        [-a2, a2 + b2, -b2],
        [-c2, -b2, b2 + c2],
    ])


def test_laplacian_matches_formula():
    for (a, b, c) in [(1, 1, 1), (2, 1, 2), (1, 2, 2), (3, 5, 7),
                      (Fraction(1, 2), 2, Fraction(3, 4))]:
        complex, phi = ffl_weights(a, b, c)
        assert laplacian_matrix(complex, phi, 0) == motif_laplacian_formula(a, b, c)


def test_reference_table_eigenpairs_exact():
    for key, (a, b, c, u2, u3, lam2, lam3) in MOTIF_REFERENCE_TABLE.items():
        lap = motif_laplacian_formula(a, b, c)
        for u, lam in [(u2, lam2), (u3, lam3)]:
            col = ExactMatrix([[x] for x in u])
            assert matmul(lap, col) == scale(col, lam), key


def test_reference_table_eigenvalues_match_spectrum():
    for key, (a, b, c, _, _, lam2, lam3) in MOTIF_REFERENCE_TABLE.items():
        complex, phi = ffl_weights(a, b, c)
        sig = ffl_signature(complex, phi)
        assert np.allclose(sorted(sig.eigenvalues), sorted([lam2, lam3]),
                           atol=1e-9), key


def gram_schmidt_projector(vectors) -> np.ndarray:
    basis = []
    for u in vectors:
        v = np.array([float(x) for x in u])
        for prev in basis:
            v = v - prev * (prev @ v)
        basis.append(v / np.linalg.norm(v))
    q = np.column_stack(basis)
    return q @ q.T


def test_reference_table_projectors_match_signature():
    for key, (a, b, c, u2, u3, lam2, lam3) in MOTIF_REFERENCE_TABLE.items():
        complex, phi = ffl_weights(a, b, c)
        sig = ffl_signature(complex, phi)
        if lam2 == lam3:
            assert len(sig.clusters) == 1, key
            expected = [gram_schmidt_projector([u2, u3])]
        else:
            assert len(sig.clusters) == 2, key
            pairs = sorted([(lam2, u2), (lam3, u3)])
            expected = [gram_schmidt_projector([u]) for _, u in pairs]
        for (_, proj), ref in zip(sig.clusters, expected):
            assert np.linalg.norm(proj - ref) <= 1e-6, key


def test_all_types_round_trip():
    for spec in all_specs():
        sig = ffl_signature(*make_ffl(spec))
        assert classify_ffl(sig) == spec


def test_signatures_pairwise_distinct():
    sigs = {spec.label: ffl_signature(*make_ffl(spec)) for spec in all_specs()}
    for label, sig in sigs.items():
        assert classify_ffl(sig).label == label  # unique match among all 8


def test_signs_table():
    assert FFLSpec("coherent", 4).signs == (REPRESSION, REPRESSION, ACTIVATION)
    assert FFLSpec("incoherent", 1).signs == (ACTIVATION, REPRESSION, ACTIVATION)
    # coherent types have sign(X->Z) equal to the product of the other two
    for (coherence, _), signs in _SIGNS.items():
        parity = sum(s == REPRESSION for s in signs) % 2
        assert (parity == 0) == (coherence == "coherent")


def test_label_parsing():
    assert FFLSpec.from_label("coherent1") == FFLSpec("coherent", 1)
    assert FFLSpec.from_label("Coherent 2") == FFLSpec("coherent", 2)
    assert FFLSpec.from_label("incoherent-3") == FFLSpec("incoherent", 3)
    assert FFLSpec.from_label("INCOHERENT_4") == FFLSpec("incoherent", 4)
    for bad in ["coherent5", "foo", "coherent", "xcoherent1", "coherent12"]:
        with pytest.raises(ValueError):
            FFLSpec.from_label(bad)


def test_spec_validation():
    with pytest.raises(ValueError):
        FFLSpec("coherent", 5)
    with pytest.raises(ValueError):
        FFLSpec("neutral", 1)
    assert FFLSpec("incoherent", 2).label == "incoherent2"


def test_zero_weight_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        ffl_weights(1, 0, 1)


def test_encoding_must_cover_both_kinds():
    with pytest.raises(ValueError, match="misses"):
        make_ffl(FFLSpec("coherent", 2), encoding={ACTIVATION: 1})


def test_non_default_encoding_fails_classification():
    sig = ffl_signature(*make_ffl(FFLSpec("incoherent", 2),
                                  encoding={ACTIVATION: 1, REPRESSION: 3}))
    with pytest.raises(ClassificationError, match="no motif type"):
        classify_ffl(sig)


def test_signature_input_checks():
    with pytest.raises(ValueError, match="3x3"):
        signature_of_matrix(ExactMatrix([[1, 0], [0, 1]]))
    with pytest.raises(ValueError, match="not 0"):
        signature_of_matrix(diagonal([1, 1, 1]))


def test_cluster_counts():
    one = ffl_signature(*make_ffl(FFLSpec("coherent", 1)))
    assert len(one.clusters) == 1
    # an exactly double root is one cluster however its floats round
    for factor in (1, Fraction(1, 7), Fraction(10**9, 3)):
        sig = signature_of_matrix(scale(motif_laplacian_formula(1, 1, 1), factor))
        assert len(sig.clusters) == 1
        assert np.allclose(sig.clusters[0][1], np.eye(3) - 1 / 3, atol=1e-12)
    two = ffl_signature(*make_ffl(FFLSpec("coherent", 2)))
    assert len(two.clusters) == 2
    assert two.clusters[0][0] < two.clusters[1][0]


def test_signature_runs_no_eigensolver(monkeypatch):
    def refuse(*args):
        raise AssertionError("eigensolver called for a motif signature")

    monkeypatch.setattr(eigen, "jacobi_svd", refuse)
    monkeypatch.setattr(ffl, "_REFERENCE_SIGNATURES", {})  # rebuilt under the patch
    for spec in all_specs():
        assert classify_ffl(ffl_signature(*make_ffl(spec))) == spec
