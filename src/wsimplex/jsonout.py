"""The command line's JSON writer: the bytes of ``json.dumps(value,
indent=2)`` and a newline, handed to ``write`` one piece at a time.

A dict, and a list holding containers, write one entry at a time, so a
large payload goes out row by row and is never one string.  A list whose
items are all ints, all floats or all strs is one ``str.join`` over a
C-level ``map`` (``int.__repr__``, ``float.__repr__`` and the json
module's own string encoder); a float's repr is then mapped through one
dict to json's spelling of nan and the infinities (``NaN``,
``Infinity``).  Any other list of leaves is spelled item by item, ``bool``
before ``int``.  Dict keys must be strs.

Two shapes are the command line's own, and the writer prints them without
a Python list of their entries:

- a numpy float or complex array, printed at 12 significant digits
  (``sig12``): a vector as a list of floats, a complex entry as an [re, im]
  pair, and a 2-d array as the list of its rows;
- an ``ExactMatrix``, printed from its sparse rows as rows of strings,
  ``str(value)`` at each non-zero and ``"0"`` everywhere else.
"""

from __future__ import annotations

from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote

from .matrices import ExactMatrix

_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_LEAVES = frozenset((str, int, float, bool, type(None)))


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
    if kinds == {int}:
        text = sep.join(map(int.__repr__, xs))
    elif kinds == {str}:
        text = sep.join(map(_quote, xs))
    elif kinds == {float}:
        text = sep.join(_floats(xs))
    else:
        text = sep.join(map(_leaf, xs))
    return "[" + inner + text + nl + "]"


def _vector(a, nl: str) -> str:
    """The text of a numpy vector at 12 significant digits, a complex
    entry as its [re, im] pair: one join with alternating separators."""
    if not len(a):
        return "[]"
    inner = nl + "  "
    re = _floats(sig12(a.real.tolist()))
    if a.dtype.kind != "c":
        return "[" + inner + ("," + inner).join(re) + nl + "]"
    cell = inner + "  "
    pairs = map(("," + cell).join, zip(re, _floats(sig12(a.imag.tolist()))))
    return ("[" + inner + "[" + cell + (inner + "]," + inner + "[" + cell).join(pairs)
            + inner + "]" + nl + "]")


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
        if v.ndim == 1:
            write(_vector(v, nl))
        elif not len(v):
            write("[]")
        else:
            lead = "["
            for row in v:
                write(lead + inner + _vector(row, inner))
                lead = ","
            write(nl + "]")
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
