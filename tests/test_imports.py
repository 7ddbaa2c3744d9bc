"""Import footprint: numpy loads with the float layer, not before, and
ctypes and the OpenBLAS handle the SVD opens not before its first call.
Neither the import nor an exact subcommand loads ``dataclasses``,
``typing`` or what ``dataclasses`` brings (``inspect``, ``ast``, ``dis``,
``tokenize``, ``copy``).

Each check runs in a fresh interpreter, since the suite itself has numpy
loaded long before any of these tests start.  The child notes the modules
loaded before it imports the package (``site`` may preload some, such as
``typing``) and counts only those loaded since.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
from wsimplex.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

# run the given cli.main argv lists in order; print, per run, its exit code,
# its stdout, whether numpy was loaded after it, which of ctypes and the
# OpenBLAS handle were, and every module loaded since just before the import
CHILD = """
import contextlib, io, json, sys
before = set(sys.modules)
import wsimplex, wsimplex.cli

def loaded():
    eigen = sys.modules.get("wsimplex.eigen")
    return [name for name, on in [
        ("ctypes", "ctypes" in sys.modules),
        ("openblas", eigen is not None and eigen._lapack.cache_info().currsize > 0)] if on]

def since():
    return sorted(set(sys.modules) - before)

report = [["import", None, "", "numpy" in sys.modules, loaded(), since()]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = wsimplex.cli.main(argv)
    report.append([argv[0], code, out.getvalue(), "numpy" in sys.modules, loaded(), since()])
print(json.dumps(report))
"""


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run_child(script: str, *args: str, flags=()) -> str:
    proc = subprocess.run([sys.executable, *flags, "-c", script, *args],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_in_child(argvs: list[list[str]], flags=()) -> list:
    return json.loads(run_child(CHILD, json.dumps(argvs), flags=flags))


TRIANGLE = ["-k", fx("triangle.cplx"), "-w", fx("triangle.wts")]
EXACT = [
    ["validate", *TRIANGLE],
    ["boundary", *TRIANGLE, "-n", "1"],
    ["coboundary", *TRIANGLE, "-n", "1"],
    ["homology", *TRIANGLE, "-n", "1"],
    ["snf", *TRIANGLE, "-n", "1", "--transforms"],
    ["cohomology-dim", *TRIANGLE, "-n", "1"],
    ["multiplicities", *TRIANGLE, "-n", "1"],
    ["laplacian", *TRIANGLE, "-n", "1"],
    ["laplacian", *TRIANGLE, "-n", "0", "--inner-weights", fx("inner.wts")],
    ["ngon", "--alphas", "1,2,2,2,2"],
]


def test_exact_subcommands_leave_numpy_unloaded():
    report = run_in_child(EXACT)
    assert [r[0] for r in report] == ["import"] + [argv[0] for argv in EXACT]
    for name, code, out, numpy_loaded, _, _ in report:
        assert not numpy_loaded, f"numpy loaded by {name}"
        assert code in (None, 0), name
        assert name == "import" or json.loads(out), name


def test_ctypes_and_openblas_wait_for_the_first_svd():
    """Neither the import nor an exact subcommand loads ctypes or opens the
    OpenBLAS library; a spectrum opens it (where numpy bundles one), once
    numpy, which brings ctypes itself, is in."""
    from wsimplex import eigen

    spectrum = ["spectrum", "-k", fx("edge.cplx"), "-w", fx("edge.wts"), "-n", "0"]
    report = run_in_child([*EXACT, spectrum])
    for name, _, _, _, loaded, _ in report[:-1]:
        assert loaded == [], f"{loaded} loaded by {name}"
    bundled = ["openblas"] if eigen._lapack() is not None else []
    assert report[-1][0] == "spectrum" and report[-1][4] == ["ctypes", *bundled]


FLOAT = [
    ["spectrum", "-k", fx("edge.cplx"), "-w", fx("edge.wts"), "-n", "0"],
    ["harmonic", *TRIANGLE, "-n", "0"],
    ["ffl", "--classify", fx("ffl_matrix.txt")],
]


@pytest.mark.parametrize("argv", FLOAT, ids=lambda argv: argv[0])
def test_float_subcommands_load_numpy_and_answer_as_before(argv, capsys):
    (_, _, _, at_import, _, _), (name, code, out, numpy_loaded, _, _) = run_in_child([argv])
    assert not at_import and numpy_loaded
    assert main(argv) == code == 0
    assert out == capsys.readouterr().out


# dataclasses and what it imports, and typing: none is needed at start-up
STARTUP_FREE = ["dataclasses", "inspect", "ast", "dis", "tokenize", "copy", "typing"]


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_import_and_exact_subcommands_load_no_dataclasses_or_typing(flags):
    """Also under ``-S``: ``site`` preloads ``typing`` on some installs
    (through a ``.pth`` file), and the snapshot would not count it."""
    report = run_in_child(EXACT, flags)
    for name, _, _, _, _, since in report:
        found = [m for m in STARTUP_FREE if m in since]
        assert not found, f"{found} loaded by {name}; modules loaded since the import: {since}"


def test_float_subcommands_load_no_dataclasses_or_copy():
    """numpy brings inspect and its helpers itself, but not these two."""
    report = run_in_child(FLOAT)
    for name, code, _, _, _, since in report:
        found = [m for m in ("dataclasses", "copy") if m in since]
        assert code in (None, 0) and not found, f"{found} loaded by {name}: {since}"


def test_star_import_and_dir_cover_all():
    out = run_child(
        "import sys, wsimplex\n"
        "ns = {}\n"
        "exec('from wsimplex import *', ns)\n"
        "missing = [n for n in wsimplex.__all__ if n not in ns]\n"
        "print(missing, sorted(set(wsimplex.__all__) - set(dir(wsimplex))),\n"
        "      wsimplex.Spectrum is wsimplex.eigen.Spectrum)\n")
    assert out.strip() == "[] [] True"


def test_unknown_attribute_is_an_attribute_error():
    import wsimplex

    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        getattr(wsimplex, "nonesuch")


@pytest.mark.parametrize("args", [
    ["-m", "wsimplex", "ffl", "--type", "coherent1"],
    ["-c", "from wsimplex import make_ngon, weighted_homology\n"
           "print(weighted_homology(*make_ngon([1, 2, 2, 2, 2]), 0))"],
], ids=["ffl_weights", "make_ngon"])
def test_constructed_weights_are_validated_under_optimisation(args):
    """The motif and polygon constructors validate in code, not in an assert
    that ``python -O`` strips, so both answer alike with and without it."""
    runs = [subprocess.run([sys.executable, *flags, *args], capture_output=True,
                           text=True, env=child_env()) for flags in ([], ["-O"])]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout == runs[1].stdout != ""


def test_aliases_the_benchmark_tracer_wraps():
    """The benchmark's tracer probe (``TRACER_PROBE`` in perfbench/selftest.py)
    asserts that each of these aliases is its home function.  A cleanup that
    drops one of the imports behind them fails here, not only in the probe."""
    import wsimplex
    from wsimplex import chains, cli, ffl, homology, spectral

    assert cli.smith_normal_form is homology.smith_normal_form
    assert homology.boundary_matrix is chains.boundary_matrix
    assert ffl.laplacian_matrix is spectral.laplacian_matrix
    assert wsimplex.harmonic_basis is spectral.harmonic_basis
