"""Dense exact matrices over the Gaussian rationals, and exact rank.

``ExactMatrix`` is the dense view of an operator: what the CLI prints as
JSON, what Smith normal form reads and what ``to_ndarray`` hands to the
eigensolver.  Rows and columns carry optional simplex labels.  It is off
the rank and assembly paths: ``column_rank`` ranks the sparse boundary
columns and ``spectral`` sums Laplacians from them, storing only the
result here.
"""

from __future__ import annotations

import math

from .gaussian import ZERO, GaussianRational

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np


class ExactMatrix:
    __slots__ = ("rows", "cols", "data", "row_labels", "col_labels")

    def __init__(self, data, row_labels=None, col_labels=None, cols=None):
        rows = [[GaussianRational.coerce(x) for x in row] for row in data]
        self.rows = len(rows)
        if rows:
            self.cols = len(rows[0])
            for r in rows:
                if len(r) != self.cols:
                    raise ValueError("ragged rows")
            if cols is not None and cols != self.cols:
                raise ValueError(f"cols={cols} disagrees with the matrix's "
                                 f"{self.cols} columns")
        else:
            self.cols = 0 if cols is None else cols
        self.data = rows
        self.row_labels = tuple(row_labels) if row_labels is not None else None
        self.col_labels = tuple(col_labels) if col_labels is not None else None
        if self.row_labels is not None and len(self.row_labels) != self.rows:
            raise ValueError("row label count mismatch")
        if self.col_labels is not None and len(self.col_labels) != self.cols:
            raise ValueError("column label count mismatch")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        out = [[self.data[i][j] + other.data[i][j] for j in range(self.cols)]
               for i in range(self.rows)]
        return ExactMatrix(out, self.row_labels or other.row_labels,
                           self.col_labels or other.col_labels, cols=self.cols)

    def transpose(self) -> "ExactMatrix":
        out = [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return ExactMatrix(out, self.col_labels, self.row_labels, cols=self.rows)

    def conj_transpose(self) -> "ExactMatrix":
        out = [[self.data[i][j].conjugate() for i in range(self.rows)]
               for j in range(self.cols)]
        return ExactMatrix(out, self.col_labels, self.row_labels, cols=self.rows)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def is_hermitian(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(self.data[i][j] == self.data[j][i].conjugate()
                   for i in range(self.rows) for j in range(i + 1))

    # -- numerics ---------------------------------------------------------------

    def to_ndarray(self) -> np.ndarray:
        import numpy as np

        entries = [x for row in self.data for x in row]
        real = all(x.is_real() for x in entries)
        out = np.array(to_floats(entries, real), dtype=np.float64 if real else np.complex128)
        return out.reshape(self.rows, self.cols)

    def rank(self) -> int:
        """Exact rank over Q(i), by ``column_rank`` on the columns."""
        return column_rank({i: x for i, x in enumerate(col) if x} for col in zip(*self.data))

    def __repr__(self) -> str:
        if self.rows * self.cols > 64:
            return f"ExactMatrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
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


def column_rank(columns) -> int:
    """Exact rank over Q(i) of the matrix with the given columns, each a
    {row index: non-zero value} dict (left unmodified).  Each column is
    reduced by the pivot column stored under its largest row index until it
    vanishes or that index is free, and then stored there; the rank is the
    number of pivots."""
    pivots: dict[int, dict] = {}
    for column in columns:
        col = dict(column)
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
    return len(pivots)
