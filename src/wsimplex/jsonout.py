"""The command line's JSON writer: the bytes of ``json.dumps(value,
indent=2)`` and a newline, handed to ``write`` one piece at a time.

A dict, and a list holding containers, write one entry at a time, so a
large payload goes out row by row and is never one string.  A list whose
items are all ints is one ``str.join`` over a C-level ``map`` of
``int.__repr__``.  Any other list of leaves is one ``str.join`` over the
spelling of each leaf, ``bool`` before ``int``: a str by the json module's
own string encoder, a float by its repr, mapped through one dict to json's
spelling of nan and the infinities (``NaN``, ``Infinity``).  Dict keys
must be strs.

Two shapes are the command line's own, and the writer prints them without
a Python list of their entries:

- a numpy float or complex array, printed at 12 significant digits: a
  vector as a list of floats, a complex entry as an [re, im] pair, and a
  2-d array as the list of its rows;
- an ``ExactMatrix``, printed from its sparse rows as rows of strings,
  ``str(value)`` at each non-zero and ``"0"`` everywhere else.

A float of an array prints as the repr of its 12-digit rounding,
``repr(float(format(x, ".12g")))``.  The writer takes a block of rows at a
time, at most 16,384 floats or one row, and spells the whole block in one
C-level pass of ``format(x, ".12g")``; a block's strings are held at once,
about 140 bytes a float, so larger blocks would raise the peak memory of a
large print without making it faster.  That text is already the repr of
the rounding except in four cases: integer values, ``13`` for ``13.0``
(and ``-0`` for ``-0.0``); |x| >= 1e12, where ``.12g`` switches to an
exponent four decades before repr does; subnormals, where fewer than 12
digits can round-trip (``4.94065645841e-324`` for ``5e-324``); and nan
and the infinities.  One numpy comparison per block picks

    ~(|x - rint(x)| > 1e-11 |x| + 2.2250738585072014e-308),

and only the picked entries are spelled one float at a time (``sig12``,
then ``float.__repr__``).  The mask is a superset of the four cases.  A
12-digit rounding to an integer N moves x by at most half a unit in the
12th digit, so |x - N| <= 5e-12 |x|.  Every finite |x| >= 5e10 is picked
too: its distance to the nearest integer is at most 0.5 <= 1e-11 |x|.
Every |x| below the least normal double is picked by the added constant,
since |x - rint(x)| <= |x| there (a normal x whose rounding falls below
the least normal double lands in the top binade of the subnormals, which
still round-trips 15 digits).  nan and the infinities make the left side
nan, which fails the ``>``.  Each block's text
is then laid into a %-template of its rows, with the separators and
indentation json.dumps would write.  numpy is imported by these functions
alone, so an exact subcommand leaves it unloaded.
"""

from __future__ import annotations

from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote

from .matrices import ExactMatrix

_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_LEAVES = frozenset((str, int, float, bool, type(None)))
_BLOCK = 16384  # floats per formatting pass, at least one row
_LEAST_NORMAL = 2.2250738585072014e-308


def sig12(xs) -> list[float]:
    """The floats xs rounded to 12 significant digits."""
    return list(map(float, map(float.__format__, xs, repeat(".12g"))))


def dump(value, write) -> None:
    """Write ``json.dumps(value, indent=2) + "\\n"`` through ``write``."""
    _write(value, "\n", write)
    write("\n")


def _floats(xs) -> map:
    """The JSON text of each float of xs."""
    reprs = list(map(float.__repr__, xs))
    return map(_SPELLING.get, reprs, reprs)


def _leaf(v) -> str:
    if isinstance(v, str):
        return _quote(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        text = float.__repr__(v)
        return _SPELLING.get(text, text)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _flat(xs, nl: str) -> str | None:
    """The text of a list of leaves whose own line is indented as nl,
    else None."""
    if not xs:
        return "[]"
    kinds = set(map(type, xs))
    if not kinds <= _LEAVES:
        return None
    inner = nl + "  "
    sep = "," + inner
    text = sep.join(map(int.__repr__ if kinds == {int} else _leaf, xs))
    return "[" + inner + text + nl + "]"


def _texts(block) -> list[str]:
    """The JSON text of each float of a float or complex array, in row
    order and a complex entry as its re, im, at 12 significant digits: one
    C-level ``.12g`` pass, then one float at a time (``sig12``, then
    ``float.__repr__``) at the entries the mask picks (see the module
    docstring)."""
    import numpy as np

    x = block.ravel()
    if x.dtype.kind == "c":
        x = x.view(float)
    texts = list(map(float.__format__, x.tolist(), repeat(".12g")))
    with np.errstate(invalid="ignore"):  # inf - rint(inf) is nan
        odd = ~(np.abs(x - np.rint(x)) > 1e-11 * np.abs(x) + _LEAST_NORMAL)
    for i, text in zip(odd.nonzero()[0].tolist(), _floats(sig12(x[odd].tolist()))):
        texts[i] = text
    return texts


def _row(cols: int, pairs: bool, nl: str) -> str:
    """The %-template of a list of cols floats, or of cols [re, im] pairs,
    whose own line is indented as nl."""
    if not cols:
        return "[]"
    inner = nl + "  "
    cell = "[" + inner + "  %s," + inner + "  %s" + inner + "]" if pairs else "%s"
    return "[" + inner + ("," + inner).join([cell] * cols) + nl + "]"


def _array(a, nl: str, write) -> None:
    """Write a numpy float or complex vector, or a 2-d array as the list of
    its rows, one formatting pass per block of rows."""
    if a.ndim not in (1, 2):
        raise TypeError(f"cannot print a {a.ndim}-d array")
    pairs = a.dtype.kind == "c"
    x = a.astype(complex if pairs else float, copy=False)
    if x.ndim == 1:
        write(_row(len(x), pairs, nl) % tuple(_texts(x)))
        return
    count, cols = x.shape
    if not count:
        write("[]")
        return
    inner = nl + "  "
    row = _row(cols, pairs, inner)
    step = max(1, _BLOCK // ((1 + pairs) * cols)) if cols else count
    lead = "["
    for start in range(0, count, step):
        block = x[start:start + step]
        write(lead + inner + ("," + inner).join([row] * len(block)) % tuple(_texts(block)))
        lead = ","
    write(nl + "]")


def _write(v, nl: str, write) -> None:
    """Write v, whose own line is indented as nl."""
    inner = nl + "  "
    if type(v) in _LEAVES:
        write(_leaf(v))
    elif isinstance(v, dict):
        if not v:
            write("{}")
            return
        lead = "{"
        for key, x in v.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            write(lead + inner + _quote(key) + ": ")
            _write(x, inner, write)
            lead = ","
        write(nl + "}")
    elif isinstance(v, (list, tuple)):
        text = _flat(v, nl)
        if text is not None:
            write(text)
            return
        lead = "["
        for x in v:
            write(lead + inner)
            _write(x, inner, write)
            lead = ","
        write(nl + "]")
    elif isinstance(v, ExactMatrix):
        _matrix(v, nl, write)
    elif getattr(v, "dtype", None) is not None and v.dtype.kind in "fc":
        _array(v, nl, write)
    else:
        write(_leaf(v))


def _matrix(m: ExactMatrix, nl: str, write) -> None:
    if not m.rows:
        write("[]")
        return
    inner = nl + "  "
    cell = inner + "  "
    sep = "," + cell
    zero = _quote("0")
    lead = "["
    for row in m._entries:
        if m.cols:
            out = [zero] * m.cols
            for j, x in row.items():
                out[j] = _quote(str(x))
            write(lead + inner + "[" + cell + sep.join(out) + inner + "]")
        else:
            write(lead + inner + "[]")
        lead = ","
    write(nl + "]")
