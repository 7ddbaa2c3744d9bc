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

Each subcommand's options are declared once, in one table (``_COMMANDS``),
as their option strings and argparse's ``add_argument`` keywords.  A plain
argv (the command, then each option once by one of its declared strings,
each value not starting with "-" and accepted by its type and choices,
every required option present) is read straight from the table by
``_plain_args``, which neither builds nor imports argparse.  Any other
argv (help, abbreviations, ``--opt=value``, repeats, ``--``, every usage
error) goes to argparse, built from the same table by ``_parser``, which
prints the help and the usage messages.
"""

from __future__ import annotations

import math
import os
import re
import sys
import warnings
from fractions import Fraction
from types import SimpleNamespace

from .chains import boundary_matrix, coboundary_matrix
from .complexes import _data_lines, _read_text, read_complex_file
from .ffl import FFLSpec, classify_ffl, ffl_signature, make_ffl, signature_of_matrix
from .gaussian import GaussianRational
from .homology import ngon_homology_closed_form, smith_normal_form, weighted_homology
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


def _unlimited(spell):
    """``spell()`` with the interpreter's int -> str digit limit lifted.
    Every input is parsed under the limit, but an answer's or a message's
    products of inputs may pass it, and are spelled in full."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return spell()
    finally:
        sys.set_int_max_str_digits(limit)


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
        raise ValueError(_unlimited(lambda: (
            f"weight function fails validation: {len(bad)} violations, first at "
            f"(simplex {v.simplex}, faces {v.i},{v.j}): {v.left} != {v.right}")))
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
        "violations": _unlimited(lambda: [
            {"simplex": list(v.simplex), "i": v.i, "j": v.j,
             "left": str(v.left), "right": str(v.right)}
            for v in bad
        ]),
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
    result = smith_normal_form(boundary_matrix(complex, phi, args.dim), args.transforms)
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
    """Type of ``ffl --tol``, called by both argv readers; argparse names it
    in the message for a non-number ("invalid tolerance value"), and is
    imported here only to refuse a value."""
    tol = float(text)
    if not 0 <= tol < math.inf:
        import argparse

        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return tol


def _parse_alphas(text: str) -> list[int]:
    toks = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    try:
        return [int(t) for t in toks]
    except ValueError:
        # name an entry refused for its length alone, not the whole argument
        for k, t in enumerate(toks, start=1):
            if not re.fullmatch(r"[+-]?\d+(_\d+)*", t):
                break
            if (digits := len(re.sub("[+_-]", "", t))) > sys.get_int_max_str_digits():
                raise _InputError(f"alphas: entry {k} has {digits} digits, past the "
                                  f"limit of {sys.get_int_max_str_digits()}") from None
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
    for lineno, line in _data_lines(text):
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
            matrix = _parse_matrix_text(_read_text(args.classify))
        except (OSError, ValueError) as exc:
            raise _InputError(exc) from None
        payload = {}
        sig = signature_of_matrix(matrix)
    payload["eigenvalues"] = sig12(sig.eigenvalues)
    payload["classified"] = classify_ffl(sig, tol=args.tol).label
    return payload, 0


# Each subcommand's options, each declared once as its option strings and
# the keywords of argparse's add_argument: ``_parser`` builds argparse from
# them, and ``_plain_args`` reads a plain argv from them without argparse.
_PAIR = [
    (("--complex", "-k"), dict(dest="complex", required=True, metavar="FILE",
                               help="complex file: one simplex per line")),
    (("--weights", "-w"), dict(dest="weights", required=True, metavar="FILE",
                               help="weight file: lines 'simplex | face | value'")),
]
_FILL = [
    (("--strict",), dict(dest="strict", action="store_true", default=False,
                         help="missing weight entries are an error, not a default")),
    (("--default",), dict(dest="default", choices=["one", "zero"], default="one",
                          help="fill value for missing weight entries")),
    (("--field",), dict(dest="field", choices=["real", "complex"], default="complex",
                        help="reject complex weight values with 'real'")),
]
_COMMON = [*_PAIR, (("-n", "--dim"), dict(dest="dim", type=int, required=True,
                                          help="degree to work in")), *_FILL]

_INNER = [*_COMMON, (("--inner-weights",), dict(
    dest="inner_weights", metavar="FILE",
    help="per-simplex inner product weights 'simplex | value'"))]


# name -> (handler, help, options)
_COMMANDS = {
    "validate": (_cmd_validate, "check the weight condition", [*_PAIR, *_FILL]),
    "boundary": (_cmd_boundary, "weighted boundary matrix", _COMMON),
    "coboundary": (_cmd_coboundary, "weighted coboundary matrix", _COMMON),
    "homology": (_cmd_homology, "integer homology with torsion", _COMMON),
    "cohomology-dim": (_cmd_cohomology_dim, "cohomology dimension", _COMMON),
    "snf": (_cmd_snf, "Smith normal form of a boundary matrix", [
        *_COMMON, (("--transforms",), dict(dest="transforms", action="store_true",
                                           default=False,
                                           help="also emit the unimodular transforms"))]),
    "laplacian": (_cmd_laplacian, "up, down and full Laplacian matrices", _INNER),
    "spectrum": (_cmd_spectrum, "Laplacian eigenvalues and eigenvectors", _INNER),
    "harmonic": (_cmd_harmonic, "orthonormal harmonic cochain basis", _COMMON),
    "multiplicities": (_cmd_multiplicities, "zero-eigenvalue multiplicities by formula",
                       _COMMON),
    "ngon": (_cmd_ngon, "degree-0 homology of a weighted polygon", [
        (("--alphas",), dict(dest="alphas", required=True,
                             help="comma separated vertex weights, e.g. 1,2,2,2,2; "
                                  "write --alphas=-3,6,1 when the first is negative"))]),
    "ffl": (_cmd_ffl, "feedforward-loop motif signatures", [
        (("--type",), dict(dest="type", help="motif label like coherent1")),
        (("--classify",), dict(dest="classify", metavar="FILE",
                               help="classify a 3x3 Laplacian matrix file")),
        (("--tol",), dict(dest="tol", type=tolerance, default=1e-6,
                          help="matching tolerance, finite and >= 0"))]),
}


def _parser() -> argparse.ArgumentParser:
    """The argument parser, with all twelve subparsers.  Only an argv that
    is not plain reaches it (help, a usage error, an abbreviation, an
    ``--opt=value`` form), so its build costs no plain query."""
    import argparse

    p = argparse.ArgumentParser(
        prog="wsimplex",
        description="homology, cohomology and Laplacian spectra of weighted "
                    "simplicial complexes")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, text, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        for strings, keywords in options:
            sp.add_argument(*strings, **keywords)
    return p


def _plain_args(argv):
    """The arguments of a plain argv (see the module docstring), read from
    the option table as argparse reads them; None for any other argv."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][2]
    declared = {string: keywords for strings, keywords in options for string in strings}
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        keywords = declared.get(token)
        if keywords is None or keywords["dest"] in values:
            return None
        if keywords.get("action") == "store_true":
            values[keywords["dest"]] = True
            continue
        text = next(tokens, "-")
        if text.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(text)
        except Exception:  # argparse reports it
            return None
        if value not in keywords.get("choices", [value]):
            return None
        values[keywords["dest"]] = value
    for _, keywords in options:
        if keywords["dest"] not in values:
            if keywords.get("required"):
                return None
            values[keywords["dest"]] = keywords.get("default")
    return SimpleNamespace(command=argv[0], **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2

    error = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            payload, code = _COMMANDS[args.command][0](args)
        except (_InputError, ValueError, RuntimeError) as exc:
            error, code = exc, 2 if isinstance(exc, _InputError) else 1
        except MemoryError as exc:  # kept as text: its traceback holds what filled memory
            error, code = f"out of memory: {exc}" if str(exc) else "out of memory", 1
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return code
    try:
        _unlimited(lambda: dump(payload, sys.stdout.write))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: send the interpreter's final flush of the
        # unwritten rest to devnull, as the Python docs (signal module) do
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    except (ValueError, OSError) as exc:  # stdout keeps what was written
        print(f"error: cannot write the answer: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
