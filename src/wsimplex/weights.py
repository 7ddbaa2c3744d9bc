"""Weight functions on simplicial complexes.

A weight function assigns a scalar phi(s, d_i s) to every simplex s of
positive dimension and every codimension-one face of s.  The weighted
boundary operator built from phi squares to zero exactly when, for every
simplex s with dim s >= 2 and every face-index pair j < i,

    phi(s, d_i s) * phi(d_i s, d_j d_i s) == phi(s, d_j s) * phi(d_j s, d_{i-1} d_j s)

(both sides weight the same codimension-two face, since deleting vertex i
then vertex j equals deleting vertex j then vertex i-1).  ``validate_weight``
checks exactly this condition and reports every violating triple as a
``Violation`` named tuple (simplex, i, j, left, right).

Constructors: ``identity_weight`` and ``zero_weight`` are the constant ones;
``semi_trivial_weight`` zeroes every pair touching two covering families;
``dawson_weight`` takes quotients w(s)/w(d_i s) of a divisibility-compatible
simplex weighting; ``cfw_weight`` generalises it to C * f(w(s)) / f(w(d_i s));
``make_ngon`` weights the n-cycle by one scalar per vertex.  Each is one
formula for phi(s, d_i s), tabulated over the required pairs and validated
by the same builder, which refuses a table that fails the condition.

A weight function holds its table as rows, one list per degree:
``_rows[n][p][i]`` is phi(s, d_i s) for s = basis(n)[p].  Its readers find
a face by position in the complex's face table (``_faces(n)[p]``, the
positions of d_0 s, ..., d_n s in basis(n-1)), so no lookup hashes a
(simplex, face index) key or makes a face.  ``entries()`` yields the
pairs in ``required_pairs`` order, however the table was given.

Loading does each piece of work once, since the command line loads a pair
per call and loading used to cost more than the homology after it.
``parse_weight_text`` parses each distinct vertex list and value text once
per call (files repeat them many times), reads a vertex list the complex
holds as the complex's own simplex and its position through the complex's
{simplex: position} index, takes the face index as the face's place in the
face table's row, fills that slot of the rows, and hands the rows,
complete by count, to ``WeightFunction._trusted``, which skips the
constructor's walk over the table; ``validate_weight`` reads both sides of
each condition from the rows through the face table, compares them
crosswise on integer triples and multiplies out only a violation.

A weight function stands for its (complex, weight) pair.  Its table never
changes, so it also holds, per degree, what later calls read back of the
operators built from it (boundary columns, ranks, normal-form torsion,
the Laplacian sum and the harmonic basis; see ``chains``): each is built
on the first ask of a validated pair and read afterwards.

Face indices, simplex weights, f-values and the scale C are read with
``__index__``, so numpy's integers count as ints; floats, strings and (for
all but the face indices) bools are refused.
"""

from __future__ import annotations

import operator
import warnings
from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from math import lcm

from .complexes import Simplex, SimplicialComplex, _data_lines, _read_text, build_complex
from .gaussian import GaussianRational, _integer, products_equal


class WeightCompletenessError(ValueError):
    """The weight table misses a required (simplex, face index) entry."""


class UnvalidatedWeightError(RuntimeError):
    """An operation that needs a validated weight function got a raw one."""


# one failing condition: simplex s, face indices i > j, and its two sides
Violation = namedtuple("Violation", ["simplex", "i", "j", "left", "right"])


def required_pairs(complex: SimplicialComplex):
    """Every (simplex, face index) pair a weight table must cover."""
    for n in range(1, complex.max_dim + 1):
        for s in complex.basis(n):
            for i in range(n + 1):
                yield s, i


class WeightFunction:
    """Total table (simplex, face index) -> scalar over one complex; a key
    that is not such a pair of the complex is refused.

    The table is held as rows: ``_rows[n][p][i]`` is phi(s, d_i s) for the
    n-simplex s = basis(n)[p] (a vertex's row is empty)."""

    def __init__(self, complex: SimplicialComplex, table: Mapping):
        index = complex._index
        rows = _empty_rows(complex)
        foreign = None  # the first key that is not a pair of the complex
        for key, value in table.items():
            s, i = key
            # keys from required_pairs are Simplex and int: convert only what is not
            if type(s) is not Simplex:
                s = Simplex(s)
            if type(i) is not int:  # an integer type, never a float or a string
                i = _integer(i, f"face index of key {key!r}:")
            if type(value) is not GaussianRational:
                value = GaussianRational.coerce(value)
            p = index.get(s)
            if p is not None and 0 <= i < len(rows[len(s) - 1][p]):
                rows[len(s) - 1][p][i] = value
            elif foreign is None:
                foreign = s, i
        for n, p, i in _holes(rows):
            raise WeightCompletenessError(f"no weight for ({complex.basis(n)[p]}, face {i})")
        if foreign is not None:
            raise ValueError(f"({foreign[0]}, face {foreign[1]}) is not a (simplex, face) "
                             "pair of the complex")
        self._adopt(complex, rows)

    @classmethod
    def _trusted(cls, complex: SimplicialComplex, rows: list) -> "WeightFunction":
        """A weight function on rows already known to be complete and
        valued by GaussianRational."""
        phi = cls.__new__(cls)
        phi._adopt(complex, rows)
        return phi

    def _adopt(self, complex: SimplicialComplex, rows: list) -> None:
        self.complex = complex
        self._rows = rows
        self._validated = False
        self._integral: bool | None = None  # is_integral's answer, once asked
        # (part, degree) -> sparse exact operator, filled by chains._cached
        self._operators: dict[tuple[str, int], object] = {}

    @property
    def validated(self) -> bool:
        return self._validated

    def value(self, simplex, i: int) -> GaussianRational:
        s = Simplex(simplex)
        try:
            # range.index refuses an index outside the faces, -1 included
            return self._rows[len(s) - 1][self.complex._index[s]][range(len(s)).index(i)]
        except (KeyError, IndexError, ValueError):
            raise KeyError(f"no weight for ({s}, face {i})") from None

    def value_on_face(self, simplex, face) -> GaussianRational:
        """Weight phi(s, t) looked up by the face t itself."""
        s, t = Simplex(simplex), Simplex(face)
        index = self.complex._index
        p = index.get(s)
        if p is None:
            raise KeyError(f"{s} is not in the complex")
        faces = self.complex._faces(s.dim)[p]
        q = index.get(t)
        if len(t) != s.dim or q not in faces:
            raise KeyError(f"{t} is not a codimension-one face of {s}")
        return self._rows[s.dim][p][faces.index(q)]

    def __call__(self, simplex, face_or_index) -> GaussianRational:
        """phi(s, d_i s) by the face index i (anything with ``__index__``,
        as ``value`` reads it) or by the face d_i s itself."""
        try:
            operator.index(face_or_index)
        except TypeError:
            return self.value_on_face(simplex, face_or_index)
        return self.value(simplex, face_or_index)

    def entries(self) -> list[tuple[tuple[Simplex, int], GaussianRational]]:
        """Every ((simplex, face index), value), in ``required_pairs`` order."""
        return [((s, i), value) for n, level in enumerate(self._rows)
                for s, row in zip(self.complex.basis(n), level) for i, value in enumerate(row)]

    def _values(self):
        return (value for level in self._rows for row in level for value in row)

    def is_integral(self) -> bool:
        """Whether every value is an integer; the table never changes, so
        it is walked on the first ask only."""
        if self._integral is None:
            self._integral = all(v.is_integer() for v in self._values())
        return self._integral

    def is_real(self) -> bool:
        return all(v.is_real() for v in self._values())

    def validate(self) -> list[Violation]:
        return validate_weight(self)

    def require_validated(self) -> None:
        if not self._validated:
            raise UnvalidatedWeightError(
                "weight function has not passed validation; call validate() first"
            )

    def __eq__(self, other):
        if not isinstance(other, WeightFunction):
            return NotImplemented
        return self.complex == other.complex and self._rows == other._rows

    def __repr__(self) -> str:
        state = "validated" if self._validated else "unvalidated"
        return f"WeightFunction({len(self.entries())} entries, {state})"


def _empty_rows(complex: SimplicialComplex) -> list[list[list]]:
    """Rows of None, one slot per (simplex, face index) pair, by degree."""
    return [[[None] * len(faces) for faces in complex._faces(n)]
            for n in range(complex.max_dim + 1)]


def _holes(rows: list) -> Iterable[tuple[int, int, int]]:
    """(degree, position, face index) of each empty slot, in
    ``required_pairs`` order."""
    for n, level in enumerate(rows):
        for p, row in enumerate(level):
            for i, x in enumerate(row):
                if x is None:
                    yield n, p, i


def validate_weight(phi: WeightFunction) -> list[Violation]:
    """Check the compatibility condition on every simplex of dimension >= 2.

    Returns the empty list (and marks phi validated) when the condition
    holds; otherwise returns one Violation per failing (simplex, i, j) with
    the two mismatching products.
    """
    K = phi.complex
    violations: list[Violation] = []
    for n in range(2, K.max_dim + 1):
        below = phi._rows[n - 1]
        for s, f, w in zip(K.basis(n), K._faces(n), phi._rows[n]):
            for i in range(1, n + 1):
                w_i, x_row = w[i], below[f[i]]
                for j in range(i):
                    # d_j d_i s == d_{i-1} d_j s: both routes must agree
                    x, y = x_row[j], below[f[j]][i - 1]
                    if not products_equal(w_i, x, w[j], y):
                        violations.append(Violation(s, i, j, w_i * x, w[j] * y))
    if not violations:
        phi._validated = True
    return violations


def _tabulated(complex: SimplicialComplex, rule: Callable) -> WeightFunction:
    """The weight function phi(s, d_i s) = rule(s, i) over every required
    pair of the complex, which must pass validation."""
    coerce = GaussianRational.coerce
    rows = [[[coerce(rule(s, i)) for i in range(len(faces))]
             for s, faces in zip(complex.basis(n), complex._faces(n))]
            for n in range(complex.max_dim + 1)]
    phi = WeightFunction._trusted(complex, rows)  # complete by construction
    bad = validate_weight(phi)
    if bad:
        raise ValueError(f"constructed weight fails validation: {bad[0]}")
    return phi


def identity_weight(complex: SimplicialComplex) -> WeightFunction:
    """Every entry 1: the classical unweighted boundary operator."""
    return _tabulated(complex, lambda s, i: 1)


def zero_weight(complex: SimplicialComplex) -> WeightFunction:
    """Every entry 0: all boundary maps vanish."""
    return _tabulated(complex, lambda s, i: 0)


def _entry_source(a) -> Callable:
    if callable(a):
        return a
    if isinstance(a, Mapping):
        return lambda s, t: a[(s, t)]
    const = GaussianRational.coerce(a)
    return lambda s, t: const


def semi_trivial_weight(
    complex: SimplicialComplex,
    zero_simplices: Iterable,
    zero_faces: Iterable,
    a=None,
) -> WeightFunction:
    """phi(s, t) = 0 whenever s is in zero_simplices or t is in zero_faces;
    the two families must jointly cover the complex.  Remaining entries come
    from ``a`` (constant, mapping keyed by (s, t), or callable)."""
    A = {Simplex(s) for s in zero_simplices}
    B = {Simplex(s) for s in zero_faces}
    for s in complex.simplices():
        if s not in A and s not in B:
            raise ValueError(f"{s} is covered by neither zero family")
    source = _entry_source(a if a is not None else 0)

    def rule(s, i):
        t = s.face(i)
        return 0 if s in A or t in B else source(s, t)

    return _tabulated(complex, rule)


def _integer_value(x, what: str) -> int:
    """x as an int (``gaussian._integer``), but a bool is refused."""
    if isinstance(x, bool):
        raise ValueError(f"{what} = {x!r} is not an integer")
    return _integer(x, f"{what} =")


def _simplex_weighting(complex: SimplicialComplex, w) -> dict[Simplex, int]:
    getter = w if callable(w) else (lambda s: w[s])
    out = {}
    for s in complex.simplices():
        try:
            val = getter(s)
        except KeyError:
            raise ValueError(f"simplex weighting misses {s}") from None
        out[s] = _integer_value(val, f"simplex weight w({s})")
    return out


def dawson_weight(complex: SimplicialComplex, w) -> WeightFunction:
    """phi(s, d_i s) = w(s) / w(d_i s) for a nonzero integer simplex
    weighting with w(t) | w(s) whenever t is a face of s."""
    wmap = _simplex_weighting(complex, w)
    for s, val in wmap.items():
        if val == 0:
            raise ValueError(f"w({s}) = 0; simplex weights must be nonzero")

    def rule(s, i):
        t = s.face(i)
        if wmap[s] % wmap[t] != 0:
            raise ValueError(f"w({t}) = {wmap[t]} does not divide w({s}) = {wmap[s]}")
        return wmap[s] // wmap[t]

    return _tabulated(complex, rule)


def cfw_weight(complex: SimplicialComplex, w, f, C="auto") -> WeightFunction:
    """phi(s, d_i s) = C * f(w(s)) / f(w(d_i s)).

    w is any integer simplex weighting, f an integer-valued map that must be
    nonzero on every attained w value, and C an integer scale.  C='auto'
    picks the lcm of the attained |f(w(s))|, which makes every entry an
    integer.  C=0 gives the zero weight; C=1 with f = identity recovers
    ``dawson_weight`` on divisibility-compatible weightings.
    """
    wmap = _simplex_weighting(complex, w)
    fget = f if callable(f) else (lambda x: f[x])
    fval = {}
    for s, wv in wmap.items():
        y = _integer_value(fget(wv), f"f({wv})")
        if y == 0:
            raise ValueError(f"f({wv}) = 0 but w attains {wv}")
        fval[s] = y
    if C == "auto":
        C = lcm(*(abs(v) for v in fval.values())) if fval else 1
    else:
        try:
            C = _integer_value(C, "C")
        except ValueError:
            raise ValueError(f"C must be an integer or 'auto', got {C!r}") from None
    return _tabulated(complex, lambda s, i: Fraction(C * fval[s], fval[s.face(i)]))


def make_ngon(alphas) -> tuple[SimplicialComplex, WeightFunction]:
    """Cycle on len(alphas) vertices with phi(edge, [v]) = alphas[v]:
    both edges meeting vertex v weight their face [v] by alpha_v."""
    vals = [GaussianRational.coerce(a) for a in alphas]
    n = len(vals)
    if n < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    complex = build_complex([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    # face 0 of the edge (u, v) is [v], face 1 is [u]
    return complex, _tabulated(complex, lambda e, i: vals[e[1 - i]])


# -- text format ------------------------------------------------------------


def parse_weight_text(
    text: str,
    complex: SimplicialComplex,
    default=Fraction(1),
    strict: bool = False,
) -> WeightFunction:
    """Parse lines 'simplex | face | value' into a weight function.

    Vertex lists are whitespace-separated ascending indices, values use the
    scalar grammar (integers, fractions, a+bi).  '#' starts a comment.  Pairs
    absent from the file get ``default`` with a warning, or raise when
    ``strict`` is set.
    """
    # the complex's simplex -> position index: a vertex list it holds is a
    # valid simplex, read as the complex's own Simplex with no re-check
    index, basis = complex._index, complex._basis
    faces = list(map(complex._faces, range(complex.max_dim + 1)))
    rows = _empty_rows(complex)
    # field text -> (Simplex, position, face positions, weight row), the last
    # three None outside the complex, and value text -> value, for this call
    # only: a repeat skips int(), Simplex and the scalar regex
    simplices: dict[str, tuple] = {}
    values: dict[str, GaussianRational] = {}

    def simplex(field: str) -> tuple:
        vs = tuple(map(int, field.split()))
        p = index.get(vs)
        if p is None:
            found = Simplex(vs), None, None, None
        else:
            n = len(vs) - 1
            found = basis[n][p], p, faces[n][p], rows[n][p]
        simplices[field] = found
        return found

    filled = 0
    for lineno, line in _data_lines(text):
        try:
            sf, tf, vf = line.split("|")
        except ValueError:
            raise ValueError(f"line {lineno}: expected 'simplex | face | value'") from None
        try:
            s, _, f, row = simplices.get(sf) or simplex(sf)
            t, q, _, _ = simplices.get(tf) or simplex(tf)
            value = values.get(vf)
            if value is None:
                value = values[vf] = GaussianRational.from_string(vf)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if f is None:
            raise ValueError(f"line {lineno}: {s} is not in the complex")
        # positions of two dimensions can be equal: compare the lengths too
        if len(t) + 1 != len(s) or q not in f:
            raise ValueError(f"line {lineno}: {t} is not a codimension-one face of {s}")
        i = f.index(q)
        old = row[i]
        if old is None:
            filled += 1
        elif old != value:
            warnings.warn(f"line {lineno}: duplicate entry for ({s}, {t}); keeping the last")
        row[i] = value
    # each filled slot is a distinct required pair, so the count tells whether any is missing
    if filled < sum(len(row) for level in rows for row in level):
        missing = list(_holes(rows))
        if strict:
            n, p, i = missing[0]
            raise WeightCompletenessError(
                f"{len(missing)} missing entries, first ({complex.basis(n)[p]}, face {i})"
            )
        warnings.warn(
            f"{len(missing)} weight entries missing, defaulting to {default}"
        )
        value = GaussianRational.coerce(default)
        for n, p, i in missing:
            rows[n][p][i] = value
    return WeightFunction._trusted(complex, rows)


def read_weight_file(path, complex, default=Fraction(1), strict=False) -> WeightFunction:
    return parse_weight_text(_read_text(path), complex, default=default, strict=strict)
