"""Exact matrices over the Gaussian rationals, held sparse, and exact rank.

``ExactMatrix`` keeps one ``{column: value}`` dict of non-zeros per row;
``rows`` and ``cols`` are the counts, and rows and columns carry optional
simplex labels.  It is the one exact matrix type: the boundary,
coboundary and Laplacian matrices the library returns, what the CLI
prints as JSON and what Smith normal form reads; ``to_ndarray`` hands it
to ``spectral.spectrum``'s ``eigh`` and to ``ffl``'s 3 x 3.  Every
operation visits the non-zeros only.  No zero is ever stored, so ``==``
compares the row dicts.  ``.data`` is a fresh dense copy of the entries;
writing to it changes no matrix.

Every exact rank comes from one elimination, ``pivot_lows``: the set of
pivot rows of a column reduction, whose size is the rank.  ``column_rank``
and ``rank()`` count it, and ``chains`` keeps it per degree as the pair's
rank vector.  A matrix remembers its rank once it is known: ``rank()``
keeps its answer, a transpose inherits it, and a boundary or coboundary
matrix starts with the rank its (complex, weight) pair already holds.
A boundary matrix also carries its Smith diagonal, as the (torsion, rank)
of its normal form, when the pair holds them (``weighted_homology`` one
degree down fills them), so its ``smith_normal_form`` without transforms
eliminates nothing; every other matrix, a transpose included, starts
without.  Both are plain ints and tuples of them, so matrices pickle and
copy as before.
"""

from __future__ import annotations

import math

from .gaussian import ZERO, GaussianRational

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np


class ExactMatrix:
    __slots__ = ("rows", "cols", "_entries", "row_labels", "col_labels", "_rank", "_snf")

    def __init__(self, data, row_labels=None, col_labels=None, cols=None):
        """A matrix of the dense rows ``data``; ``cols`` gives the width of
        a matrix with no rows and must agree with any row.  A ``dict`` row
        and a ragged row are refused with a ``ValueError``, an entry that
        is not an integer (anything with ``__index__``), a Fraction or a
        GaussianRational with a ``TypeError``."""
        data = list(data)
        if any(isinstance(row, dict) for row in data):
            # a dict iterates as its keys: read as a dense row, it would be wrong
            raise ValueError("a {column: value} row is not a matrix row; pass an ExactMatrix")
        rows = [[GaussianRational.coerce(x) for x in row] for row in data]
        width = len(rows[0]) if rows else cols or 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        if cols is not None and cols != width:
            raise ValueError(f"cols={cols} disagrees with the matrix's {width} columns")
        self._set([{j: x for j, x in enumerate(row) if x} for row in rows],
                  width, row_labels, col_labels)

    @classmethod
    def _from_rows(cls, entries: list[dict], cols: int,
                   row_labels=None, col_labels=None) -> "ExactMatrix":
        """The matrix of ``entries``, one {column: non-zero GaussianRational}
        dict per row, which it keeps as they are: the caller hands over
        fresh dicts and no zeros."""
        m = cls.__new__(cls)
        m._set(entries, cols, row_labels, col_labels)
        return m

    def _set(self, entries, cols, row_labels, col_labels) -> None:
        self._entries = entries
        self._rank = None  # the rank, once known
        self._snf = None  # a boundary's (torsion, rank), if its pair holds them
        self.rows = len(entries)
        self.cols = cols
        self.row_labels = tuple(row_labels) if row_labels is not None else None
        self.col_labels = tuple(col_labels) if col_labels is not None else None
        if self.row_labels is not None and len(self.row_labels) != self.rows:
            raise ValueError("row label count mismatch")
        if self.col_labels is not None and len(self.col_labels) != self.cols:
            raise ValueError("column label count mismatch")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def data(self) -> list[list[GaussianRational]]:
        """The entries as fresh dense rows."""
        width = range(self.cols)
        return [[row.get(j, ZERO) for j in width] for row in self._entries]

    def __getitem__(self, key):
        i, j = key
        return self._entries[i].get(j, ZERO)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        out = [dict(row) for row in self._entries]
        for row, terms in zip(out, other._entries):
            for j, x in terms.items():
                y = row.get(j)
                if y is None:
                    row[j] = x
                elif y := y + x:
                    row[j] = y
                else:
                    del row[j]
        return ExactMatrix._from_rows(out, self.cols, self.row_labels or other.row_labels,
                                      self.col_labels or other.col_labels)

    def transpose(self) -> "ExactMatrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._entries):
            for j, x in row.items():
                out[j][i] = x
        t = ExactMatrix._from_rows(out, self.rows, self.col_labels, self.row_labels)
        t._rank = self._rank
        return t

    def conj_transpose(self) -> "ExactMatrix":
        t = self.transpose()
        t._entries = [{i: x.conjugate() for i, x in row.items()} for row in t._entries]
        return t

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.shape == other.shape and self._entries == other._entries

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._entries)

    def is_hermitian(self) -> bool:
        if self.rows != self.cols:
            return False
        # equal values have equal triples, and conj((a + bi)/d) = (a - bi)/d;
        # no zero is stored, so a missing mirror entry is a mismatch
        rows = self._entries
        for i, row in enumerate(rows):
            for j, x in row.items():
                y = rows[j].get(i)
                a, b, d = x._t
                if y is None or y._t != (a, -b, d):
                    return False
        return True

    # -- numerics ---------------------------------------------------------------

    def to_ndarray(self) -> np.ndarray:
        import numpy as np

        at = [(i, j) for i, row in enumerate(self._entries) for j in row]
        values = [x for row in self._entries for x in row.values()]
        real = all(x.is_real() for x in values)
        out = np.zeros(self.shape, dtype=np.float64 if real else np.complex128)
        if at:
            out[tuple(zip(*at))] = to_floats(values, real)
        return out

    def rank(self) -> int:
        """Exact rank over Q(i): ``column_rank`` of the rows, as the
        transpose has the same rank, on the first ask only."""
        if self._rank is None:
            self._rank = column_rank(self._entries)
        return self._rank

    def __repr__(self) -> str:
        if self.rows * self.cols > 64:
            return f"ExactMatrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(map(str, row)) for row in self.data)
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


def to_floats(values: list, real: bool) -> list:
    """Floats of exact scalars, complex ones unless real.  A magnitude
    beyond float range is refused with a ValueError that names it."""
    convert = float if real else complex
    try:
        return [convert(x) for x in values]
    except OverflowError:
        top = max(values, key=GaussianRational.abs2).abs2()
        exponent = (math.log10(top.numerator) - math.log10(top.denominator)) / 2
        raise ValueError(f"entry of magnitude about 1e{round(exponent):+d} "
                         f"is outside float range") from None


def pivot_lows(columns) -> frozenset:
    """The pivot rows ("lows") of the matrix with the given columns, each a
    {row index: non-zero value} dict that is reduced in place, over Q(i).
    Columns are reduced in order: each by the pivot column stored under
    its largest row index, until it vanishes or that index is free, and is
    then stored there."""
    pivots: dict[int, dict] = {}
    for col in columns:
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = col
                break
            factor = col[low] / pivot[low]
            for i, x in pivot.items():
                y = col.get(i, ZERO) - factor * x
                if y:
                    col[i] = y
                else:
                    del col[i]
    return frozenset(pivots)


def column_rank(columns) -> int:
    """Exact rank over Q(i) of the matrix with the given columns, each a
    {row index: non-zero value} dict (left unmodified): the number of
    ``pivot_lows`` of copies of them."""
    return len(pivot_lows(map(dict, columns)))
