"""The command line's output contract on values near the interpreter's
4,300-digit int <-> str limit.

Every subcommand either answers or refuses, and nothing in between:

* exit 0, and stdout is one JSON object; or
* exit 1 or 2, stdout is empty, and stderr ends in one ``error:`` line.

Any other stderr line is a ``warning:`` line.  The pairs are drawn with
integers of 4,299-4,301 digits (the reader refuses the last), integers
whose squares pass the limit, rationals with large denominators and
Gaussian values built from them, on an edge (any weights are valid), a
triangle with Dawson weights (integers, so ``homology`` and ``snf`` reduce
them) and a triangle with quotient weights g(s)/g(t).  ``ngon`` and ``ffl
--classify`` get the same values as alphas and matrix entries.

Weights that fail the condition are the one answer with exit 1:
``validate`` prints one JSON object naming the violations, and every other
pair subcommand one ``error:`` line naming the first; both spell the
violating products in full, however long.  They are drawn as Dawson
triangles with one entry changed.

Under hypothesis's default profile it runs a few fixed examples (under 2 s
in all); ``HYPOTHESIS_PROFILE=deep`` searches further (see conftest.py),
with 1,000 pairs, 500 failing triangles and 2,000 alphas lists and
matrices.
"""

import contextlib
import io
import json
import os
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from wsimplex.cli import main  # noqa: E402


def fixed(count, deep):
    """``count`` fixed examples; under a profile named by
    HYPOTHESIS_PROFILE, that profile's search of ``deep`` examples."""
    if os.environ.get("HYPOTHESIS_PROFILE"):
        return settings(max_examples=deep)
    return settings(derandomize=True, max_examples=count, deadline=None)


LIMIT = sys.get_int_max_str_digits()
PAIR_COMMANDS = ["validate", "boundary", "coboundary", "homology", "cohomology-dim", "snf",
                 "laplacian", "spectrum", "harmonic", "multiplicities"]


def digits(low, high):
    """Decimal text of a positive integer of low to high digits: m, zeros,
    and m again, so hypothesis draws two small numbers and no int is
    spelled past the limit."""
    return st.tuples(st.integers(low, high), st.integers(1, 10 ** 6)).map(
        lambda t: f"{t[1]}{'0' * (t[0] - 2 * len(str(t[1])))}{t[1]}")


def near_limit():
    """Integer text at the limit, with a square past it, or small."""
    return st.one_of(digits(LIMIT - 1, LIMIT + 1), digits(LIMIT // 2 + 1, LIMIT - 2),
                     st.integers(1, 9).map(str))


def signed():
    return st.tuples(st.sampled_from(["", "-"]), near_limit()).map("".join)


def values():
    """Weight text: an integer, a rational with a large denominator, or a
    Gaussian value."""
    return st.one_of(
        signed(),
        st.tuples(st.integers(-9, 9).filter(bool), near_limit()).map(lambda t: f"{t[0]}/{t[1]}"),
        st.tuples(signed(), st.sampled_from("+-"), near_limit()).map(lambda t: f"{''.join(t)}i"),
    )


EDGE = [(0, 1)]
TRIANGLE = [(0, 1, 2)]


def faces(s):
    return [s[:i] + s[i + 1:] for i in range(len(s))]


def closure(maximal):
    out = set()
    for s in maximal:
        stack = [s]
        while stack:
            t = stack.pop()
            if t not in out:
                out.add(t)
                stack += [f for f in faces(t) if f]
    return sorted(out, key=lambda t: (len(t), t))


@st.composite
def pairs(draw):
    """A complex and its weight file's lines, every entry written."""
    kind = draw(st.sampled_from(["edge", "dawson", "quotient"]))
    maximal = EDGE if kind == "edge" else TRIANGLE
    simplices = [s for s in closure(maximal) if len(s) > 1]
    if kind == "edge":
        table = {(s, i): draw(values()) for s in simplices for i in range(len(s))}
    elif kind == "dawson":
        # phi(s, d_i s) = p(the vertex d_i leaves out): integers, always valid
        p = [draw(signed()) for _ in range(3)]
        table = {(s, i): p[s[i]] for s in simplices for i in range(len(s))}
    else:
        # phi(s, t) = g(s) / g(t): valid for any non-zero g
        g = {s: draw(near_limit()) for s in closure(maximal)}
        table = {(s, i): f"{g[s]}/{g[faces(s)[i]]}" for s in simplices for i in range(len(s))}
    lines = [f"{' '.join(map(str, s))} | {' '.join(map(str, faces(s)[i]))} | {x}\n"
             for (s, i), x in table.items()]
    return maximal, lines


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv, code, out, err):
    lines = err.splitlines()
    if code == 0:
        # integers past the limit are kept as their text
        assert isinstance(json.loads(out, parse_int=str), dict), argv
        assert all(line.startswith("warning: ") for line in lines), (argv, err[:300])
    else:
        assert code in (1, 2), (argv, code)
        assert out == "", (argv, out[:300])
        assert lines and lines[-1].startswith("error: "), (argv, err[:300])
        assert all(line.startswith("warning: ") for line in lines[:-1]), (argv, err[:300])
        assert err.endswith("\n") and len(lines[-1]) < 1000, (argv, err[:300])


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@fixed(8, deep=1000)
@given(pairs())
def test_pair_commands_answer_or_refuse(directory, pair):
    """Every pair subcommand, ``snf --transforms`` too, in degrees -1 to 2,
    on one drawn pair (about 0.15 s a pair)."""
    maximal, lines = pair
    k, w = directory / "pair.cplx", directory / "pair.wts"
    k.write_text("".join(" ".join(map(str, s)) + "\n" for s in maximal))
    w.write_text("".join(lines))
    files = ["-k", str(k), "-w", str(w), "--strict"]
    argvs = [["validate", *files]]
    for command in PAIR_COMMANDS[1:]:
        argvs += [[command, *files, "-n", str(n)] for n in range(-1, 3)]
    argvs += [["snf", *files, "-n", str(n), "--transforms"] for n in range(-1, 3)]
    for argv in argvs:
        assert_contract(argv, *run(argv))


def failing_lines(p, x):
    """Weight lines of a triangle with the Dawson weights of the vertex
    values p, but for phi([0,1,2], [1,2]) = x: unless x == p[0], they fail
    the condition at the top simplex."""
    table = {(s, i): p[s[i]] for s in closure(TRIANGLE) if len(s) > 1 for i in range(len(s))}
    table[(0, 1, 2), 0] = x
    return [f"{' '.join(map(str, s))} | {' '.join(map(str, faces(s)[i]))} | {value}\n"
            for (s, i), value in table.items()]


@st.composite
def failing_pairs(draw):
    p = [draw(signed()) for _ in range(3)]
    return TRIANGLE, failing_lines(p, draw(signed().filter(lambda x: x != p[0])))


@fixed(4, deep=500)
@given(failing_pairs())
@example((TRIANGLE, failing_lines(["7" * (LIMIT - 1), "-3", "5" * LIMIT], "2" * (LIMIT - 1))))
@example((TRIANGLE, failing_lines(["2", "3", "4"], "9" * (LIMIT + 1))))  # the reader refuses it
def test_failing_pairs_are_refused_in_full(directory, pair):
    """On weights that fail the condition, ``validate`` exits 1 with one
    JSON object naming the violations, their products (up to 8,602 digits)
    in full, and every other pair subcommand exits 1 with one error line
    naming the first of them, in full too; a value of 4,301 digits is
    refused by the reader everywhere, exit 2."""
    maximal, lines = pair
    k, w = directory / "failing.cplx", directory / "failing.wts"
    k.write_text("".join(" ".join(map(str, s)) + "\n" for s in maximal))
    w.write_text("".join(lines))
    files = ["-k", str(k), "-w", str(w), "--strict"]
    argvs = [[command, *files, "-n", str(n)] for command in PAIR_COMMANDS[1:]
             for n in range(-1, 3)]
    if any(len(line.rsplit("| ", 1)[1].strip("-\n")) > LIMIT for line in lines):
        for argv in [["validate", *files], *argvs]:
            result = run(argv)
            assert result[0] == 2, argv
            assert_contract(argv, *result)
        return
    code, out, err = run(["validate", *files])
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["valid"] is False and payload["violations"]
    v = payload["violations"][0]
    message = (f"error: weight function fails validation: {len(payload['violations'])} "
               f"violations, first at (simplex [{','.join(map(str, v['simplex']))}], faces "
               f"{v['i']},{v['j']}): {v['left']} != {v['right']}\n")
    for argv in argvs:
        assert run(argv) == (1, "", message), argv


@fixed(20, deep=2000)
@given(st.lists(st.one_of(signed(), st.just("0")), min_size=3, max_size=6))
def test_ngon_answers_or_refuses(alphas):
    argv = ["ngon", f"--alphas={','.join(alphas)}"]
    assert_contract(argv, *run(argv))


@fixed(20, deep=2000)
@given(st.lists(values(), min_size=9, max_size=9))
def test_ffl_classify_answers_or_refuses(directory, entries):
    m = directory / "motif.mat"
    m.write_text("".join(" ".join(entries[3 * i:3 * i + 3]) + "\n" for i in range(3)))
    argv = ["ffl", "--classify", str(m)]
    assert_contract(argv, *run(argv))
