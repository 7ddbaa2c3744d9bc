"""Command line interface.

Every subcommand prints one JSON object to stdout.  Exit codes: 0 on
success, 1 when the input fails validation (or a computation's domain
check), 2 on file, grammar or usage errors.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from .chains import boundary_matrix, coboundary_matrix
from .complexes import read_complex_file
from .ffl import FFLSpec, classify_ffl, ffl_signature, make_ffl, signature_of_matrix
from .gaussian import GaussianRational
from .homology import (
    boundary_int_rows,
    ngon_homology_closed_form,
    smith_normal_form,
    weighted_homology,
)
from .matrices import ExactMatrix
from .spectral import (
    cohomology_dim,
    harmonic_basis,
    laplacian_spectrum,
    read_inner_weights_file,
    up_down_matrices,
    weighted_inner_laplacian,
    zero_multiplicity_formulas,
)
from .weights import read_weight_file


class _InputError(Exception):
    """File, grammar or usage problem: exit code 2."""


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _vector_json(col: np.ndarray) -> list:
    if np.iscomplexobj(col):
        return [[_sig12(z.real), _sig12(z.imag)] for z in col]
    return [_sig12(float(z)) for z in col]


def _matrix_json(m: ExactMatrix) -> dict:
    return {
        "row_labels": [list(s) for s in (m.row_labels or [])],
        "col_labels": [list(s) for s in (m.col_labels or [])],
        "entries": [[str(x) for x in row] for row in m.data],
    }


def _load_pair(args):
    try:
        complex = read_complex_file(args.complex)
        default = Fraction(1) if args.default == "one" else Fraction(0)
        phi = read_weight_file(args.weights, complex, default=default,
                               strict=args.strict)
    except (OSError, ValueError) as exc:
        raise _InputError(exc) from None
    if args.field == "real" and not phi.is_real():
        raise _InputError("weight file has complex values; pass --field complex")
    return complex, phi


def _require_valid(phi):
    bad = phi.validate()
    if bad:
        v = bad[0]
        raise ValueError(
            f"weight function fails validation: {len(bad)} violations, first at "
            f"(simplex {v.simplex}, faces {v.i},{v.j}): {v.left} != {v.right}")


def _load_inner(args, complex):
    if getattr(args, "inner_weights", None) is None:
        return None
    try:
        inner = read_inner_weights_file(args.inner_weights)
    except (OSError, ValueError) as exc:
        raise _InputError(exc) from None
    for s in inner.simplices():
        if s not in complex:
            raise _InputError(f"inner weights: {s} is not in the complex")
    return inner


# -- handlers ----------------------------------------------------------------


def _cmd_validate(args):
    complex, phi = _load_pair(args)
    bad = phi.validate()
    payload = {
        "valid": not bad,
        "violations": [
            {"simplex": list(v.simplex), "i": v.i, "j": v.j,
             "left": str(v.left), "right": str(v.right)}
            for v in bad
        ],
    }
    return payload, (0 if not bad else 1)


def _cmd_boundary(args):
    complex, phi = _load_pair(args)
    _require_valid(phi)
    return _matrix_json(boundary_matrix(complex, phi, args.dim)), 0


def _cmd_coboundary(args):
    complex, phi = _load_pair(args)
    _require_valid(phi)
    return _matrix_json(coboundary_matrix(complex, phi, args.dim)), 0


def _cmd_homology(args):
    complex, phi = _load_pair(args)
    _require_valid(phi)
    group = weighted_homology(complex, phi, args.dim)
    return {"dimension": args.dim, "free_rank": group.free_rank,
            "torsion": group.torsion}, 0


def _cmd_cohomology_dim(args):
    complex, phi = _load_pair(args)
    _require_valid(phi)
    return {"dimension": args.dim,
            "cohomology_dim": cohomology_dim(complex, phi, args.dim)}, 0


def _cmd_snf(args):
    complex, phi = _load_pair(args)
    _require_valid(phi)
    result = smith_normal_form(boundary_int_rows(complex, phi, args.dim),
                               transforms=args.transforms,
                               cols=len(complex.basis(args.dim)))
    payload = {"dimension": args.dim, "diagonal": result.diagonal,
               "rank": result.rank}
    if args.transforms:
        payload["U"] = result.U
        payload["V"] = result.V
    return payload, 0


def _cmd_laplacian(args):
    complex, phi = _load_pair(args)
    _require_valid(phi)
    inner = _load_inner(args, complex)
    if inner is None:
        up, down = up_down_matrices(complex, phi, args.dim)
        total = up + down
    else:
        up, down, total = weighted_inner_laplacian(complex, phi, inner, args.dim)
    return {"dimension": args.dim, "up": _matrix_json(up),
            "down": _matrix_json(down), "laplacian": _matrix_json(total)}, 0


def _cmd_spectrum(args):
    complex, phi = _load_pair(args)
    _require_valid(phi)
    spec = laplacian_spectrum(complex, phi, args.dim, _load_inner(args, complex))
    return {
        "dimension": args.dim,
        "eigenvalues": [_sig12(float(w)) for w in spec.eigenvalues],
        "eigenvectors": [_vector_json(spec.eigenvectors[:, k])
                         for k in range(spec.size)],
    }, 0


def _cmd_harmonic(args):
    complex, phi = _load_pair(args)
    _require_valid(phi)
    basis = harmonic_basis(complex, phi, args.dim)
    return {
        "dimension": args.dim,
        "count": basis.count,
        "labels": [list(s) for s in basis.labels],
        "vectors": [_vector_json(basis.vectors[:, k]) for k in range(basis.count)],
    }, 0


def _cmd_multiplicities(args):
    complex, phi = _load_pair(args)
    _require_valid(phi)
    down, up, total = zero_multiplicity_formulas(complex, phi, args.dim)
    return {"dimension": args.dim, "down": down, "up": up, "laplacian": total}, 0


def tolerance(text: str) -> float:
    """argparse type of ``ffl --tol``; argparse names it in the message for
    a non-number ("invalid tolerance value")."""
    tol = float(text)
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return tol


def _parse_alphas(text: str) -> list[int]:
    toks = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    try:
        return [int(t) for t in toks]
    except ValueError:
        raise _InputError(f"alphas must be integers, got {text!r}") from None


def _cmd_ngon(args):
    alphas = _parse_alphas(args.alphas)
    try:
        group = ngon_homology_closed_form(alphas)
    except ValueError as exc:
        raise _InputError(exc) from None
    return {"alphas": alphas, "dimension": 0, "free_rank": group.free_rank,
            "torsion": group.torsion}, 0


def _parse_matrix_text(text: str) -> ExactMatrix:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append([GaussianRational.from_string(t) for t in line.split()])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not rows:
        raise ValueError("no matrix rows found")
    return ExactMatrix(rows)


def _cmd_ffl(args):
    if (args.type is None) == (args.classify is None):
        raise _InputError("pass exactly one of --type or --classify")
    if args.type is not None:
        try:
            spec = FFLSpec.from_label(args.type)
        except ValueError as exc:
            raise _InputError(exc) from None
        complex, phi = make_ffl(spec)
        sig = ffl_signature(complex, phi)
        found = classify_ffl(sig, tol=args.tol)
        xy, yz, xz = spec.signs
        return {
            "type": spec.label,
            "signs": {"xy": xy, "yz": yz, "xz": xz},
            "eigenvalues": [_sig12(w) for w in sig.eigenvalues],
            "classified": found.label,
        }, 0
    try:
        with open(args.classify, encoding="utf-8") as fh:
            matrix = _parse_matrix_text(fh.read())
    except (OSError, ValueError) as exc:
        raise _InputError(exc) from None
    sig = signature_of_matrix(matrix)
    found = classify_ffl(sig, tol=args.tol)
    return {
        "eigenvalues": [_sig12(w) for w in sig.eigenvalues],
        "classified": found.label,
    }, 0


_HANDLERS = {
    "validate": _cmd_validate,
    "boundary": _cmd_boundary,
    "coboundary": _cmd_coboundary,
    "homology": _cmd_homology,
    "cohomology-dim": _cmd_cohomology_dim,
    "snf": _cmd_snf,
    "laplacian": _cmd_laplacian,
    "spectrum": _cmd_spectrum,
    "harmonic": _cmd_harmonic,
    "multiplicities": _cmd_multiplicities,
    "ngon": _cmd_ngon,
    "ffl": _cmd_ffl,
}


def _add_common(sp, need_dim=True):
    sp.add_argument("--complex", "-k", required=True, metavar="FILE",
                    help="complex file: one simplex per line")
    sp.add_argument("--weights", "-w", required=True, metavar="FILE",
                    help="weight file: lines 'simplex | face | value'")
    if need_dim:
        sp.add_argument("-n", "--dim", type=int, required=True,
                        help="degree to work in")
    sp.add_argument("--strict", action="store_true",
                    help="missing weight entries are an error, not a default")
    sp.add_argument("--default", choices=["one", "zero"], default="one",
                    help="fill value for missing weight entries")
    sp.add_argument("--field", choices=["real", "complex"], default="complex",
                    help="reject complex weight values with 'real'")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wsimplex",
        description="homology, cohomology and Laplacian spectra of weighted "
                    "simplicial complexes")
    sub = p.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("validate", help="check the weight condition"),
                need_dim=False)
    _add_common(sub.add_parser("boundary", help="weighted boundary matrix"))
    _add_common(sub.add_parser("coboundary", help="weighted coboundary matrix"))
    _add_common(sub.add_parser("homology", help="integer homology with torsion"))
    _add_common(sub.add_parser("cohomology-dim", help="cohomology dimension"))

    sp = sub.add_parser("snf", help="Smith normal form of a boundary matrix")
    _add_common(sp)
    sp.add_argument("--transforms", action="store_true",
                    help="also emit the unimodular transforms")

    sp = sub.add_parser("laplacian", help="up, down and full Laplacian matrices")
    _add_common(sp)
    sp.add_argument("--inner-weights", metavar="FILE",
                    help="per-simplex inner product weights 'simplex | value'")

    sp = sub.add_parser("spectrum", help="Laplacian eigenvalues and eigenvectors")
    _add_common(sp)
    sp.add_argument("--inner-weights", metavar="FILE")

    _add_common(sub.add_parser("harmonic", help="orthonormal harmonic cochain basis"))

    _add_common(sub.add_parser("multiplicities",
                               help="zero-eigenvalue multiplicities by formula"))

    sp = sub.add_parser("ngon", help="degree-0 homology of a weighted polygon")
    sp.add_argument("--alphas", required=True,
                    help="comma separated vertex weights, e.g. 1,2,2,2,2")

    sp = sub.add_parser("ffl", help="feedforward-loop motif signatures")
    sp.add_argument("--type", help="motif label like coherent1")
    sp.add_argument("--classify", metavar="FILE",
                    help="classify a 3x3 Laplacian matrix file")
    sp.add_argument("--tol", type=tolerance, default=1e-6,
                    help="matching tolerance, finite and >= 0")

    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        payload, code = _HANDLERS[args.command](args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
