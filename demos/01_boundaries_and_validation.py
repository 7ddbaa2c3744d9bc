#!/usr/bin/env python3
"""Weighted boundary operators and the face-compatibility check.

Builds a filled triangle, attaches a weight to every (simplex, face) pair,
validates the two-route face condition, and shows the boundary applied
twice giving zero.  Then corrupts one entry and watches validation fail.
"""

from wsimplex import (
    Chain,
    Simplex,
    WeightFunction,
    apply_boundary,
    boundary_matrix,
    build_complex,
    validate_weight,
)


def section(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def main():
    section("a filled triangle and a weight on every face relation")
    complex = build_complex([(0, 1, 2)])
    print("simplices by dimension:")
    for n in range(complex.max_dim + 1):
        print(f"  dim {n}: {list(complex.basis(n))}")

    s = Simplex((0, 1, 2))
    table = {
        (s, 0): 0, (s, 1): 3, (s, 2): 1,
        ((1, 2), 0): 2, ((1, 2), 1): 4,
        ((0, 2), 0): 0, ((0, 2), 1): 2,
        ((0, 1), 0): 0, ((0, 1), 1): 6,
    }
    phi = WeightFunction(complex, table)
    violations = validate_weight(phi)
    print(f"\nvalidation violations: {len(violations)}")

    section("boundary matrices")
    d1 = boundary_matrix(complex, phi, 1)
    d2 = boundary_matrix(complex, phi, 2)
    print("boundary 1 (vertices x edges):")
    print(d1)
    print("boundary 2 (edges x triangle):")
    print(d2)

    section("applying the boundary to a chain, twice")
    chain = Chain(2, {s: 1})
    edges = apply_boundary(complex, phi, chain)
    print(f"boundary of {chain} = {edges}")
    print("boundary of that is zero:", apply_boundary(complex, phi, edges).is_zero())

    section("one corrupted entry breaks compatibility")
    bad_table = dict(table)
    bad_table[(Simplex((0, 2)), 1)] = 5
    bad_phi = WeightFunction(complex, bad_table)
    for v in validate_weight(bad_phi):
        print(f"simplex {v.simplex}, faces ({v.i},{v.j}): "
              f"{v.left} != {v.right}")


if __name__ == "__main__":
    main()
