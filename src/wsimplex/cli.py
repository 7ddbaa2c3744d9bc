"""Command line interface.

Every subcommand prints one JSON object to stdout.  Exit codes: 0 on
success, 1 when the input fails validation (or a computation's domain
check), 2 on file, grammar or usage errors.  Diagnostics go to stderr,
one line each: ``error: ...`` for the failure behind the exit code, and
``warning: ...`` for each warning raised (a missing or duplicate weight
entry, say), which leaves stdout and the exit code as they are.

The object is printed as ``json.dumps(payload, indent=2)`` prints it,
byte for byte, by ``jsonout.dump``: the answer is computed in full
first, so every exit code and error path is decided before the first
byte, and then streamed to stdout one row or vector at a time.  Floats
are printed at 12 significant digits.  The matrix subcommands print the
library's sparse ``ExactMatrix`` results row by row; no dense matrix is
built to be printed.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import warnings
from fractions import Fraction

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
from .jsonout import dump, sig12
from .matrices import ExactMatrix
from .spectral import (
    cohomology_dim,
    harmonic_basis,
    laplacian_spectrum,
    read_inner_weights_file,
    up_down_matrices,
    zero_multiplicity_formulas,
)
from .weights import read_weight_file


class _InputError(Exception):
    """File, grammar or usage problem: exit code 2."""


def _matrix(m: ExactMatrix) -> dict:
    """The payload of an exact matrix: its labels and its entries."""
    return {"row_labels": m.row_labels, "col_labels": m.col_labels, "entries": m}


def _load_pair(args, validate=True):
    """The complex and weights the arguments name, validated if ``validate``."""
    try:
        complex = read_complex_file(args.complex)
        default = Fraction(1) if args.default == "one" else Fraction(0)
        phi = read_weight_file(args.weights, complex, default=default,
                               strict=args.strict)
    except (OSError, ValueError) as exc:
        raise _InputError(exc) from None
    if args.field == "real" and not phi.is_real():
        raise _InputError("weight file has complex values; pass --field complex")
    bad = phi.validate() if validate else []
    if bad:
        v = bad[0]
        raise ValueError(
            f"weight function fails validation: {len(bad)} violations, first at "
            f"(simplex {v.simplex}, faces {v.i},{v.j}): {v.left} != {v.right}")
    return complex, phi


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
    complex, phi = _load_pair(args, validate=False)
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
    return _matrix(boundary_matrix(complex, phi, args.dim)), 0


def _cmd_coboundary(args):
    complex, phi = _load_pair(args)
    return _matrix(coboundary_matrix(complex, phi, args.dim)), 0


def _cmd_homology(args):
    complex, phi = _load_pair(args)
    group = weighted_homology(complex, phi, args.dim)
    return {"dimension": args.dim, "free_rank": group.free_rank,
            "torsion": group.torsion}, 0


def _cmd_cohomology_dim(args):
    complex, phi = _load_pair(args)
    return {"dimension": args.dim,
            "cohomology_dim": cohomology_dim(complex, phi, args.dim)}, 0


def _cmd_snf(args):
    complex, phi = _load_pair(args)
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
    up, down = up_down_matrices(complex, phi, args.dim, _load_inner(args, complex))
    return {"dimension": args.dim, "up": _matrix(up), "down": _matrix(down),
            "laplacian": _matrix(up + down)}, 0


def _cmd_spectrum(args):
    complex, phi = _load_pair(args)
    spec = laplacian_spectrum(complex, phi, args.dim, _load_inner(args, complex))
    # the eigenvectors are the columns, printed one list each
    return {"dimension": args.dim, "eigenvalues": spec.eigenvalues,
            "eigenvectors": spec.eigenvectors.T}, 0


def _cmd_harmonic(args):
    complex, phi = _load_pair(args)
    basis = harmonic_basis(complex, phi, args.dim)
    return {"dimension": args.dim, "count": basis.count, "labels": basis.labels,
            "vectors": basis.vectors.T}, 0


def _cmd_multiplicities(args):
    complex, phi = _load_pair(args)
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
        xy, yz, xz = spec.signs
        payload = {"type": spec.label, "signs": {"xy": xy, "yz": yz, "xz": xz}}
        sig = ffl_signature(*make_ffl(spec))
    else:
        try:
            with open(args.classify, encoding="utf-8-sig") as fh:
                matrix = _parse_matrix_text(fh.read())
        except (OSError, ValueError) as exc:
            raise _InputError(exc) from None
        payload = {}
        sig = signature_of_matrix(matrix)
    payload["eigenvalues"] = sig12(sig.eigenvalues)
    payload["classified"] = classify_ffl(sig, tol=args.tol).label
    return payload, 0


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


def _add_inner(sp, help=None):
    _add_common(sp)
    sp.add_argument("--inner-weights", metavar="FILE", help=help)


def _add_snf(sp):
    _add_common(sp)
    sp.add_argument("--transforms", action="store_true",
                    help="also emit the unimodular transforms")


def _add_ngon(sp):
    sp.add_argument("--alphas", required=True,
                    help="comma separated vertex weights, e.g. 1,2,2,2,2; "
                         "write --alphas=-3,6,1 when the first is negative")


def _add_ffl(sp):
    sp.add_argument("--type", help="motif label like coherent1")
    sp.add_argument("--classify", metavar="FILE",
                    help="classify a 3x3 Laplacian matrix file")
    sp.add_argument("--tol", type=tolerance, default=1e-6,
                    help="matching tolerance, finite and >= 0")


# name -> (handler, help, function adding the subcommand's options)
_COMMANDS = {
    "validate": (_cmd_validate, "check the weight condition",
                 lambda sp: _add_common(sp, need_dim=False)),
    "boundary": (_cmd_boundary, "weighted boundary matrix", _add_common),
    "coboundary": (_cmd_coboundary, "weighted coboundary matrix", _add_common),
    "homology": (_cmd_homology, "integer homology with torsion", _add_common),
    "cohomology-dim": (_cmd_cohomology_dim, "cohomology dimension", _add_common),
    "snf": (_cmd_snf, "Smith normal form of a boundary matrix", _add_snf),
    "laplacian": (_cmd_laplacian, "up, down and full Laplacian matrices",
                  lambda sp: _add_inner(sp, "per-simplex inner product weights "
                                            "'simplex | value'")),
    "spectrum": (_cmd_spectrum, "Laplacian eigenvalues and eigenvectors", _add_inner),
    "harmonic": (_cmd_harmonic, "orthonormal harmonic cochain basis", _add_common),
    "multiplicities": (_cmd_multiplicities, "zero-eigenvalue multiplicities by formula",
                       _add_common),
    "ngon": (_cmd_ngon, "degree-0 homology of a weighted polygon", _add_ngon),
    "ffl": (_cmd_ffl, "feedforward-loop motif signatures", _add_ffl),
}


def _parser(command=None) -> argparse.ArgumentParser:
    """The argument parser.  When ``command`` names a subcommand only its
    subparser is built, since all twelve cost 2-3 ms a call, more than most
    queries compute; the usage line still lists every command.  Otherwise
    all twelve are built under argparse's default metavar, which its
    "required: command" and "invalid choice" messages name."""
    p = argparse.ArgumentParser(
        prog="wsimplex",
        description="homology, cohomology and Laplacian spectra of weighted "
                    "simplicial complexes")
    one = command in _COMMANDS
    sub = p.add_subparsers(dest="command", required=True,
                           metavar="{" + ",".join(_COMMANDS) + "}" if one else None)
    for name in [command] if one else _COMMANDS:
        _, text, add_options = _COMMANDS[name]
        add_options(sub.add_parser(name, help=text))
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    error = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            payload, code = _COMMANDS[args.command][0](args)
        except (_InputError, ValueError, RuntimeError) as exc:
            error, code = exc, 2 if isinstance(exc, _InputError) else 1
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return code
    try:
        dump(payload, sys.stdout.write)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: send the interpreter's final flush of the
        # unwritten rest to devnull, as the Python docs (signal module) do
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
