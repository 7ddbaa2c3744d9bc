"""Differential property tests of the command line's two argv readers.

``cli._plain_args`` reads a plain argv straight from the option table;
argparse, built from the same table by ``cli._parser``, reads every argv
and is the reference.  Generated argvs name every command and put its
options in random order, each by a short or long string, an abbreviation
or an ``--opt=value`` / ``-nVALUE`` form, with good and bad values (bad
ints and choices, ``-``-leading values), repeats, missing required
options, ``-h``, ``--`` and stray tokens.  For each:

- ``_plain_args(argv)`` is None or equals what argparse returns;
- ``main(argv)`` gives the exit code, stdout and stderr it gives with
  ``_plain_args`` made to return None, that is with argparse alone.

Under hypothesis's default profile the property runs 300 derandomized
examples; ``HYPOTHESIS_PROFILE=deep`` searches further (see conftest.py).
"""

import contextlib
import io
import os
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from wsimplex import cli  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"

# a profile named by HYPOTHESIS_PROFILE sets the depth; else 300 fixed examples
SETTINGS = (settings(deadline=None) if os.environ.get("HYPOTHESIS_PROFILE")
            else settings(derandomize=True, max_examples=300, deadline=None))


def fx(name: str) -> str:
    return str(FIXTURES / name)


# the values of each option, by dest: good ones, then bad ones
VALUES = {
    "complex": ([fx("triangle.cplx"), fx("edge.cplx")], [fx("nonesuch.cplx"), "", "-"]),
    "weights": ([fx("triangle.wts"), fx("edge.wts")], [fx("triangle_bad.wts"), "-x.wts"]),
    "dim": (["0", "1", "2"], ["-1", "x", " 1", "+1", "1_0", "1.5"]),
    "default": (["one", "zero"], ["two", "ON"]),
    "field": (["real", "complex"], ["rea", "-real"]),
    "inner_weights": ([fx("inner.wts")], [fx("nonesuch.wts")]),
    "alphas": (["1,2,2,2,2", "0,3,0,5,7"], ["-3,6,1", "x", ""]),
    "type": (["coherent1", "incoherent4"], ["bogus"]),
    "classify": ([fx("ffl_matrix.txt")], [fx("nonesuch.txt")]),
    "tol": (["1e-6", "0", "0.5"], ["nan", "inf", "-1", "x", "-0"]),
}
STRAYS = ["extra", "--", "-", "-h", "--help", "--bogus", "--transforms", "homology",
          "-n", "-k", "--alphas", "--type"]


@st.composite
def spellings(draw, strings, dest, flag, plain):
    """The tokens of one option: one of its strings, then a good value when
    ``plain``; otherwise also an abbreviation of a long string, a bad value,
    or one token joining the two."""
    name = draw(st.sampled_from(strings))
    if not plain and draw(st.booleans()):
        name = draw(st.sampled_from([s[:k] for s in strings if s.startswith("--")
                                     for k in range(3, len(s) + 1)]))
    if flag:
        return [name]
    good, bad = VALUES[dest]
    value = draw(st.sampled_from(good if plain else good + bad))
    if not plain and draw(st.booleans()):
        return [name + value if not name.startswith("--") else name + "=" + value]
    return [name, value]


@st.composite
def argvs(draw):
    """An argv of a command, its options in random order.  About half are
    plain, every required option present, each by one of its strings with a
    good value; the rest vary the spellings and values, drop options, and
    may repeat one or add a stray token."""
    command = draw(st.sampled_from([*cli._COMMANDS] * 2 + ["frobnicate", "-h", "--help", ""]))
    options = cli._COMMANDS[command][2] if command in cli._COMMANDS else []
    plain = draw(st.booleans())
    chosen = [o for o in draw(st.permutations(options))
              if plain and o[1].get("required") or draw(st.booleans())]
    parts = [draw(spellings(strings, keywords["dest"],
                            keywords.get("action") == "store_true", plain))
             for strings, keywords in chosen]
    if not plain and parts and draw(st.booleans()):  # a repeat
        parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from(parts)))
    if not plain and draw(st.booleans()):  # a stray token
        parts.insert(draw(st.integers(0, len(parts))), [draw(st.sampled_from(STRAYS))])
    argv = [token for part in parts for token in part]
    return [command, *argv] if command else argv


def argparse_reads(argv):
    """vars() of argparse's reading of argv with every command built, or None
    where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser().parse_args(argv))
        except SystemExit:
            return None


def outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@SETTINGS
@given(argvs())
def test_plain_reader_agrees_with_argparse(argv):
    plain = cli._plain_args(list(argv))
    if plain is not None:
        assert vars(plain) == argparse_reads(argv), argv
    fast = outcome(argv)
    with mock.patch.object(cli, "_plain_args", lambda argv: None):
        assert outcome(argv) == fast, argv


TRIANGLE = ["-k", fx("triangle.cplx"), "-w", fx("triangle.wts")]
LONG = ["--complex", fx("triangle.cplx"), "--weights", fx("triangle.wts")]


@pytest.mark.parametrize("argv", [
    ["validate", *TRIANGLE],
    ["validate", "--strict", *LONG, "--default", "zero", "--field", "real"],
    *([command, *TRIANGLE, "-n", "1"] for command in cli._COMMANDS
      if command not in ("validate", "ngon", "ffl")),
    ["homology", "--dim", "0", *LONG, "--strict", "--field", "complex"],
    ["snf", "--transforms", *TRIANGLE, "-n", "1", "--default", "one"],
    ["laplacian", *TRIANGLE, "-n", "0", "--inner-weights", fx("inner.wts")],
    ["spectrum", "--inner-weights", fx("inner.wts"), "-n", "0", *LONG],
    ["ngon", "--alphas", "1,2,2,2,2"],
    ["ffl", "--type", "coherent1"],
    ["ffl", "--tol", "0.5", "--classify", fx("ffl_matrix.txt")],
], ids=lambda argv: argv[0])
def test_plain_argv_is_read_from_the_table(argv):
    """Every command in its plain forms, short and long spellings in any
    order, is read without argparse, as argparse reads it."""
    plain = cli._plain_args(argv)
    assert plain is not None and vars(plain) == argparse_reads(argv)


@pytest.mark.parametrize("argv", [
    ["homology", "--help"],
    ["homology", *TRIANGLE, "--dim=1"],
    ["homology", *TRIANGLE, "--di", "1"],
    ["homology", *TRIANGLE, "-n1"],
    ["homology", *TRIANGLE, "-n", "-1"],
    ["homology", *TRIANGLE, "-n", "1", "-n", "1"],
    ["homology", *TRIANGLE, "-n", "1", "--complex", fx("triangle.cplx")],
    ["homology", *TRIANGLE, "-n", "1", "--"],
    ["homology", *TRIANGLE],
    ["homology", *TRIANGLE, "-n", "x"],
    ["homology", *TRIANGLE, "-n", "1", "--default", "two"],
    ["homology", *TRIANGLE, "-n", "1", "extra"],
    ["homology", *TRIANGLE, "-n"],
    ["ngon", "--alphas"],
    ["ngon", "--alphas=-3,6,1"],
    ["ffl", "--tol", "nan"],
    ["frobnicate"],
    [],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]) or "empty")
def test_everything_else_is_left_to_argparse(argv):
    assert cli._plain_args(argv) is None
