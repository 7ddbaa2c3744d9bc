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
simplex weighting; ``cfw_weight`` generalises it to C * f(w(s)) / f(w(d_i s)).

Loading does each piece of work once, since the command line loads a pair
per call and loading used to cost more than the homology after it.
``parse_weight_text`` parses each distinct vertex list and value text once
per call (files repeat them many times), finds face indices in one
{face: i} map per simplex, and hands its table, complete by count, to
``WeightFunction._trusted``, which skips the constructor's second walk
over the required pairs; ``validate_weight`` compares the two sides of
each condition crosswise on integer triples and multiplies out only a
violation.

A weight function stands for its (complex, weight) pair.  Its table never
changes, so it also holds, per degree, the sparse exact operators built
from it (boundary columns, ranks, normal-form torsion, Laplacian parts;
see ``chains``): each is built on the first ask of a validated pair and read
afterwards.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from math import lcm

from .complexes import Simplex, SimplicialComplex
from .gaussian import GaussianRational, products_equal


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
    that is not such a pair of the complex is refused."""

    def __init__(self, complex: SimplicialComplex, table: Mapping):
        tbl: dict[tuple[Simplex, int], GaussianRational] = {}
        for (s, i), value in table.items():
            # keys from required_pairs are Simplex already: convert only what is not
            if type(s) is not Simplex:
                s = Simplex(s)
            if type(value) is not GaussianRational:
                value = GaussianRational.coerce(value)
            tbl[s, int(i)] = value
        count = 0
        for count, (s, i) in enumerate(required_pairs(complex), 1):
            if (s, i) not in tbl:
                raise WeightCompletenessError(f"no weight for ({s}, face {i})")
        if count != len(tbl):
            # every required pair is present, so the surplus keys are foreign
            required = set(required_pairs(complex))
            s, i = next(pair for pair in tbl if pair not in required)
            raise ValueError(f"({s}, face {i}) is not a (simplex, face) pair of the complex")
        self._adopt(complex, tbl)

    @classmethod
    def _trusted(cls, complex: SimplicialComplex, table: dict) -> "WeightFunction":
        """A weight function on a table already known to hold exactly the
        required pairs, keyed by Simplex and valued by GaussianRational."""
        phi = cls.__new__(cls)
        phi._adopt(complex, table)
        return phi

    def _adopt(self, complex: SimplicialComplex, table: dict) -> None:
        self.complex = complex
        self._table = table
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
            return self._table[(s, i)]
        except KeyError:
            raise KeyError(f"no weight for ({s}, face {i})") from None

    def value_on_face(self, simplex, face) -> GaussianRational:
        """Weight phi(s, t) looked up by the face t itself."""
        s = Simplex(simplex)
        t = Simplex(face)
        for i in range(s.dim + 1):
            if s.face(i) == t:
                return self.value(s, i)
        raise KeyError(f"{t} is not a codimension-one face of {s}")

    def __call__(self, simplex, face_or_index) -> GaussianRational:
        if isinstance(face_or_index, int):
            return self.value(simplex, face_or_index)
        return self.value_on_face(simplex, face_or_index)

    def entries(self):
        return self._table.items()

    def is_integral(self) -> bool:
        """Whether every value is an integer; the table never changes, so
        it is walked on the first ask only."""
        if self._integral is None:
            self._integral = all(v.is_integer() for v in self._table.values())
        return self._integral

    def is_real(self) -> bool:
        return all(v.is_real() for v in self._table.values())

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
        return self.complex == other.complex and self._table == other._table

    def __repr__(self) -> str:
        state = "validated" if self._validated else "unvalidated"
        return f"WeightFunction({len(self._table)} entries, {state})"


def validate_weight(phi: WeightFunction) -> list[Violation]:
    """Check the compatibility condition on every simplex of dimension >= 2.

    Returns the empty list (and marks phi validated) when the condition
    holds; otherwise returns one Violation per failing (simplex, i, j) with
    the two mismatching products.
    """
    K = phi.complex
    table = phi._table
    violations: list[Violation] = []
    for n in range(2, K.max_dim + 1):
        for s in K.basis(n):
            # plain tuples: the faces only look up table keys
            faces = [s[:i] + s[i + 1:] for i in range(n + 1)]
            weights = [table[(s, i)] for i in range(n + 1)]
            for i in range(1, n + 1):
                di, w_i = faces[i], weights[i]
                for j in range(i):
                    # d_j d_i s == d_{i-1} d_j s: both routes must agree
                    x, y = table[(di, j)], table[(faces[j], i - 1)]
                    if not products_equal(w_i, x, weights[j], y):
                        violations.append(Violation(s, i, j, w_i * x, weights[j] * y))
    if not violations:
        phi._validated = True
    return violations


def _validated(phi: WeightFunction) -> WeightFunction:
    bad = validate_weight(phi)
    if bad:
        raise ValueError(f"constructed weight fails validation: {bad[0]}")
    return phi


def identity_weight(complex: SimplicialComplex) -> WeightFunction:
    """Every entry 1: the classical unweighted boundary operator."""
    table = {pair: 1 for pair in required_pairs(complex)}
    return _validated(WeightFunction(complex, table))


def zero_weight(complex: SimplicialComplex) -> WeightFunction:
    """Every entry 0: all boundary maps vanish."""
    table = {pair: 0 for pair in required_pairs(complex)}
    return _validated(WeightFunction(complex, table))


def _entry_source(a) -> Callable:
    if a is None:
        raise ValueError("the non-trivial entries need a value source")
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
    table = {}
    for s, i in required_pairs(complex):
        t = s.face(i)
        if s in A or t in B:
            table[(s, i)] = 0
        else:
            table[(s, i)] = GaussianRational.coerce(source(s, t))
    return _validated(WeightFunction(complex, table))


def _simplex_weighting(complex: SimplicialComplex, w) -> dict[Simplex, int]:
    getter = w if callable(w) else (lambda s: w[s])
    out = {}
    for s in complex.simplices():
        try:
            val = getter(s)
        except KeyError:
            raise ValueError(f"simplex weighting misses {s}") from None
        if not isinstance(val, int) or isinstance(val, bool):
            raise ValueError(f"simplex weight w({s}) = {val!r} is not an integer")
        out[s] = val
    return out


def dawson_weight(complex: SimplicialComplex, w) -> WeightFunction:
    """phi(s, d_i s) = w(s) / w(d_i s) for a nonzero integer simplex
    weighting with w(t) | w(s) whenever t is a face of s."""
    wmap = _simplex_weighting(complex, w)
    for s, val in wmap.items():
        if val == 0:
            raise ValueError(f"w({s}) = 0; simplex weights must be nonzero")
    table = {}
    for s, i in required_pairs(complex):
        t = s.face(i)
        if wmap[s] % wmap[t] != 0:
            raise ValueError(f"w({t}) = {wmap[t]} does not divide w({s}) = {wmap[s]}")
        table[(s, i)] = wmap[s] // wmap[t]
    return _validated(WeightFunction(complex, table))


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
        y = fget(wv)
        if not isinstance(y, int) or isinstance(y, bool):
            raise ValueError(f"f({wv}) = {y!r} is not an integer")
        if y == 0:
            raise ValueError(f"f({wv}) = 0 but w attains {wv}")
        fval[s] = y
    if C == "auto":
        C = lcm(*(abs(v) for v in fval.values())) if fval else 1
    elif not isinstance(C, int) or isinstance(C, bool):
        raise ValueError(f"C must be an integer or 'auto', got {C!r}")
    table = {}
    for s, i in required_pairs(complex):
        table[(s, i)] = Fraction(C * fval[s], fval[s.face(i)])
    return _validated(WeightFunction(complex, table))


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
    known = {s: s for s in complex.simplices()}
    # field text -> parsed field, for this call only: a repeat skips int(),
    # Simplex and the scalar regex
    simplices: dict[str, Simplex] = {}
    values: dict[str, GaussianRational] = {}
    face_maps: dict[Simplex, dict[tuple, int]] = {}

    def simplex(field: str) -> Simplex:
        # a vertex list the complex holds is a valid simplex: no re-check
        vs = tuple(map(int, field.split()))
        s = simplices[field] = known.get(vs) or Simplex(vs)
        return s

    table: dict[tuple[Simplex, int], GaussianRational] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("|")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'simplex | face | value'")
        sf, tf, vf = parts
        try:
            s = simplices.get(sf) or simplex(sf)
            t = simplices.get(tf) or simplex(tf)
            value = values.get(vf)
            if value is None:
                value = values[vf] = GaussianRational.from_string(vf)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if s not in known:
            raise ValueError(f"line {lineno}: {s} is not in the complex")
        faces = face_maps.get(s)
        if faces is None:
            # a vertex maps only the empty tuple, which no parsed face equals
            faces = face_maps[s] = {s[:i] + s[i + 1:]: i for i in range(len(s))}
        idx = faces.get(t)
        if idx is None:
            raise ValueError(f"line {lineno}: {t} is not a codimension-one face of {s}")
        key = (s, idx)
        if key in table and table[key] != value:
            warnings.warn(f"line {lineno}: duplicate entry for ({s}, {t}); keeping the last")
        table[key] = value
    # every key is a distinct required pair, so the count tells whether any is missing
    required = sum((n + 1) * len(complex.basis(n)) for n in range(1, complex.max_dim + 1))
    if len(table) < required:
        missing = [pair for pair in required_pairs(complex) if pair not in table]
        if strict:
            s, i = missing[0]
            raise WeightCompletenessError(
                f"{len(missing)} missing entries, first ({s}, face {i})"
            )
        warnings.warn(
            f"{len(missing)} weight entries missing, defaulting to {default}"
        )
        for pair in missing:
            table[pair] = GaussianRational.coerce(default)
    return WeightFunction._trusted(complex, table)


def read_weight_file(path, complex, default=Fraction(1), strict=False) -> WeightFunction:
    with open(path, encoding="utf-8-sig") as fh:
        return parse_weight_text(fh.read(), complex, default=default, strict=strict)
