"""Finite abstract simplicial complexes.

A simplex is a strictly ascending tuple of non-negative vertex indices; the
ascending order fixes the orientation used everywhere else.  A complex stores
every face of every simplex handed to it, and ``basis(n)`` returns the
n-simplices in lexicographic order, which is the basis ordering all matrices
in this package are written in.

The closure is built top down: each distinct simplex yields its faces once,
as ``itertools.combinations`` of its vertices, which skip the ascending
re-check a subset of an ascending tuple cannot fail.

``Record`` and ``FrozenRecord`` are the base of the package's small
result classes (``Chain``, ``SNFResult``, ``HomologyGroup``,
``HarmonicBasis``, ``Spectrum``, ``FFLSpec``, ``FFLSignature``).  They
give what a dataclass would, read off ``__slots__``, without importing
``dataclasses`` and the modules it loads at every start-up.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import partial
from itertools import combinations
from operator import lt


class Simplex(tuple):
    """Strictly ascending tuple of vertex indices."""

    __slots__ = ()

    def __new__(cls, vertices):
        if isinstance(vertices, Simplex):
            return vertices
        vs = tuple(vertices)
        if not vs:
            raise ValueError("a simplex needs at least one vertex")
        for v in vs:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"vertex {v!r} is not a non-negative integer")
        for a, b in zip(vs, vs[1:]):
            if a >= b:
                raise ValueError(f"vertices {vs} not strictly ascending")
        return super().__new__(cls, vs)

    @property
    def dim(self) -> int:
        return len(self) - 1

    def face(self, i: int) -> "Simplex":
        """Codimension-one face obtained by deleting vertex number i."""
        last = len(self) - 1
        if last == 0:
            raise IndexError("a vertex has no faces")
        if not 0 <= i <= last:
            raise IndexError(f"face index {i} out of range for {self}")
        # a slice of a strictly ascending tuple is strictly ascending: no re-check
        return tuple.__new__(Simplex, self[:i] + self[i + 1 :])

    def faces(self) -> Iterator["Simplex"]:
        for i in range(len(self)):
            yield self.face(i)

    def __repr__(self) -> str:
        return "[" + ",".join(str(v) for v in self) + "]"


# an ascending tuple known to be valid, as a Simplex without the checks
_trusted = partial(tuple.__new__, Simplex)


def face(simplex, i: int) -> Simplex:
    return Simplex(simplex).face(i)


class SimplicialComplex:
    """Finite complex, closed under taking faces."""

    def __init__(self, simplices: Iterable):
        given = list(map(Simplex, simplices))
        levels: list[set[Simplex]] = [set() for _ in range(max(map(len, given), default=0))]
        for s in given:
            levels[len(s) - 1].add(s)
        # top down, so each distinct simplex yields its faces once
        for d in range(len(levels) - 1, 0, -1):
            lower = levels[d - 1]
            for s in levels[d]:
                lower.update(map(_trusted, combinations(s, d)))
        self._basis = {d: tuple(sorted(level)) for d, level in enumerate(levels)}
        self._members = frozenset().union(*levels)

    @property
    def max_dim(self) -> int:
        return max(self._basis) if self._basis else -1

    def basis(self, n: int) -> tuple[Simplex, ...]:
        """The n-simplices in lexicographic order (empty if out of range)."""
        return self._basis.get(n, ())

    @property
    def vertices(self) -> tuple[Simplex, ...]:
        return self.basis(0)

    def simplices(self) -> Iterator[Simplex]:
        for d in sorted(self._basis):
            yield from self._basis[d]

    def __contains__(self, s) -> bool:
        try:
            return Simplex(s) in self._members
        except ValueError:
            return False

    def __len__(self) -> int:
        return len(self._members)

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._members == other._members

    def __hash__(self):
        return hash(self._members)

    def __repr__(self) -> str:
        sizes = ", ".join(f"{len(self.basis(d))}" for d in range(self.max_dim + 1))
        return f"SimplicialComplex(dim {self.max_dim}; basis sizes [{sizes}])"


def build_complex(maximal_simplices: Iterable) -> SimplicialComplex:
    """Build the face closure of the given simplices."""
    return SimplicialComplex(maximal_simplices)


def parse_complex_text(text: str) -> SimplicialComplex:
    """One simplex per non-empty line: whitespace-separated ascending vertex
    indices.  '#' starts a comment.  Faces are added automatically."""
    simplices = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            vs = tuple(map(int, line.split()))
            # int() makes no bool, so a non-negative strictly ascending line
            # is a valid simplex; Simplex() words the refusal of any other
            valid = vs[0] >= 0 and all(map(lt, vs, vs[1:]))
            simplices.append(_trusted(vs) if valid else Simplex(vs))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not simplices:
        raise ValueError("no simplices found")
    return build_complex(simplices)


def read_complex_file(path) -> SimplicialComplex:
    with open(path, encoding="utf-8-sig") as fh:
        return parse_complex_text(fh.read())


# -- record classes ------------------------------------------------------------


class Record:
    """Fields named by the subclass's ``__slots__``, set by its own
    ``__init__``.  ``==``, ``repr`` and ``__match_args__`` follow the
    fields in order, as for a dataclass: instances of one class compare
    by their field tuples, anything else is ``NotImplemented``, and records
    are unhashable."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """A record whose ``__init__`` sets each field once through
    ``object.__setattr__``: it hashes by its fields, refuses assignment and
    deletion, and pickles by calling the class on them."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()
