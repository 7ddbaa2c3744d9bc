"""Property test of the exact motif signature on hypothesis weights: any
three non-zero Gaussian-rational edge weights give a motif Laplacian whose
signature agrees with numpy's eigensolver, whose projectors sum to the
complement of the constants, and which a change of one diagonal entry
turns into a refused matrix.  ``DEEP`` draws ten times as many."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from wsimplex import (  # noqa: E402
    ExactMatrix,
    GaussianRational,
    ffl_weights,
    laplacian_matrix,
    signature_of_matrix,
)

from conftest import DEEP  # noqa: E402

_PART = st.fractions(min_value=-20, max_value=20, max_denominator=20)
_WEIGHT = st.builds(GaussianRational, _PART, _PART).filter(bool)
_SHIFT = st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(bool)


@settings(derandomize=True, max_examples=2000 if DEEP else 200, deadline=None)
@given(_WEIGHT, _WEIGHT, _WEIGHT, st.integers(0, 2), _SHIFT)
def test_motif_signature_properties(a, b, c, k, shift):
    lap = laplacian_matrix(*ffl_weights(a, b, c), 0)
    sig = signature_of_matrix(lap)

    # eigvalsh is accurate relative to the largest eigenvalue, not to each
    # one: weights (1/20, 1/20, 20+20i) put its lam2 4e-12 off in relative
    # terms, where the signature's is within 1e-16 of a 50-digit mpmath value
    ref = np.linalg.eigvalsh(lap.to_ndarray())
    assert abs(ref[0]) <= 1e-12 * ref[2]
    assert np.allclose(sig.eigenvalues, ref[1:], rtol=0, atol=1e-12 * ref[2])
    total = sum(p for _, p in sig.clusters)
    assert np.allclose(total, np.eye(3) - 1 / 3, rtol=0, atol=1e-9)

    rows = [list(row) for row in lap.data]
    rows[k][k] += shift
    with pytest.raises(ValueError, match="not 0.*not a motif Laplacian"):
        signature_of_matrix(ExactMatrix(rows))
