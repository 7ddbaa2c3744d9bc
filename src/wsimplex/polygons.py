"""Weighted polygon complexes.

The n-gon is the cycle graph on vertices 0..n-1.  One scalar per vertex
drives all the weights: both edges meeting vertex v weight their face [v]
by alpha_v.  Degree-0 integer homology of this family has a closed form
(``ngon_homology_closed_form``): the k-th invariant factor is the gcd of
the k-fold products of the alphas over that of the (k-1)-fold ones, and
at each prime its valuation is the k-th smallest among the non-zero
alphas.  Read off a gcd-refined coprime base of the alphas, it costs time
polynomial in n and in their bit length, not the 2^n of the subsets.
"""

from __future__ import annotations

from .complexes import SimplicialComplex, Simplex, build_complex
from .gaussian import GaussianRational
from .weights import WeightFunction, _validated


def make_ngon(alphas) -> tuple[SimplicialComplex, WeightFunction]:
    """Cycle on len(alphas) vertices with phi(edge, [v]) = alphas[v]."""
    vals = [GaussianRational.coerce(a) for a in alphas]
    n = len(vals)
    if n < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    complex = build_complex(edges)
    table = {}
    for u, v in edges:
        e = Simplex((u, v))
        table[(e, 0)] = vals[v]  # face [v]
        table[(e, 1)] = vals[u]  # face [u]
    # no simplex of dimension 2, nothing to violate
    return complex, _validated(WeightFunction(complex, table))
