"""The rank vector of a pair, from one upward sweep with clearing.

``chains._rank`` reads r_n as the number of pivot rows ("lows") of the
coboundary C^{n-1} -> C^n, reduced after the coboundaries below it, with
the columns that clearing knows reduce to zero skipped.  Whatever order the
degrees are asked in, on a fresh pair, every r_n must equal the rank of d_n
eliminated on its own (``column_rank``) and sympy's rank over QQ_I.  The
pairs mix integer, rational and Gaussian-rational weights, semi-trivial
weights with zero entries, and tables read with ``--default zero`` whose
omitted entries are every weight of some maximal simplices.  The default
profile runs 300 pairs; ``HYPOTHESIS_PROFILE=deep`` runs ten times as
many.
"""

import random
import warnings
from itertools import combinations

from wsimplex import build_complex
from wsimplex.chains import _rank, boundary_columns
from wsimplex.matrices import column_rank
from wsimplex.weights import parse_weight_text

from conftest import (
    DEEP,
    random_complex,
    random_quotient_weight,
    random_semi_trivial_weight,
    random_valid_weight,
)
from oracles import sympy_rank

COUNT = 3000 if DEEP else 300


def default_zero_table(rng, complex):
    """A valid weight written without the entries of some maximal simplices,
    and read back with ``default=0``: a weight whose only factor from such
    a simplex is zero on both sides of every condition stays valid."""
    phi = random_valid_weight(rng, complex)
    faces = {s.face(i) for s in complex.simplices() if s.dim for i in range(len(s))}
    dropped = {s for s in complex.simplices() if s not in faces and rng.random() < 0.5}
    text = "".join(f"{' '.join(map(str, s))} | {' '.join(map(str, s.face(i)))} | {x}\n"
                   for (s, i), x in phi.entries() if s not in dropped)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the dropped entries default with a warning
        return parse_weight_text(text, complex, default=0)


def pairs(count, seed):
    """count seeded (complex, weight) pairs; every fifth is on a full
    skeleton, where clearing skips the most columns."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 5 == 4:
            k = rng.randint(4, 6)
            complex = build_complex(combinations(range(k + 1), rng.randint(2, 4)))
        else:
            complex = random_complex(rng, max_vertices=7, max_dim=4)
        kind = i % 4
        if kind == 0:
            phi = random_semi_trivial_weight(rng, complex)
        elif kind == 1:
            phi = random_quotient_weight(rng, complex, complex_scalars=True)
        elif kind == 2:
            phi = default_zero_table(rng, complex)
        else:
            phi = random_valid_weight(rng, complex)
        assert not phi.validate()
        yield rng, complex, phi


def test_ranks_in_any_order_match_each_degree_eliminated_alone():
    for rng, complex, phi in pairs(COUNT, 2611):
        degrees = list(range(-1, complex.max_dim + 2))
        rng.shuffle(degrees)
        for n in degrees:
            assert _rank(phi, n) == column_rank(boundary_columns(complex, phi, n)), (complex, n)


def test_ranks_match_sympy():
    for rng, complex, phi in pairs(COUNT // 10, 2612):
        degrees = list(range(-1, complex.max_dim + 2))
        rng.shuffle(degrees)
        for n in degrees:
            expected = sympy_rank(boundary_columns(complex, phi, n), len(complex.basis(n - 1)))
            assert _rank(phi, n) == expected, (complex, n)
