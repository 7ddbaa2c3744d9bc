"""Spectral classification of three-node feedforward loop motifs.

A feedforward loop is the digraph X -> Y -> Z, X -> Z where each arrow is
an activation or a repression; the four coherent types have the sign of
X -> Z equal to the product of the other two signs, the four incoherent
types don't.  Encoding activation as weight 1 and repression as weight 2 on
the underlying edges (one scalar per edge, both faces alike) makes the
degree-0 Laplacian

    [[a^2 + c^2, -a^2,       -c^2      ],
     [-a^2,      a^2 + b^2,  -b^2      ],
     [-c^2,      -b^2,       b^2 + c^2 ]]

whose nonzero eigenvalues plus eigenspace projectors separate all eight
types, even where bare eigenvalue pairs collide.  Whether a matrix is a
motif Laplacian, and whether its two eigenvalues coincide, is decided exactly
on its characteristic polynomial; the matching tolerance decides only how
near a signature is to a reference, and when two eigenvalues count as one.

``FFLSpec`` and ``FFLSignature`` are frozen records
(``complexes.FrozenRecord``): hashable by their fields, so a motif type
keys a dict, and closed to assignment.
"""

from __future__ import annotations

import math
import re

from .complexes import FrozenRecord, Simplex, SimplicialComplex, build_complex
from .gaussian import GaussianRational
from .matrices import ExactMatrix, to_floats
from .spectral import laplacian_matrix
from .weights import WeightFunction, _validated

ACTIVATION = "activation"
REPRESSION = "repression"
DEFAULT_ENCODING = {ACTIVATION: 1, REPRESSION: 2}

MATCH_TOL = 1e-6

# interaction kinds along (X->Y, Y->Z, X->Z) for each motif type
_SIGNS = {
    ("coherent", 1): (ACTIVATION, ACTIVATION, ACTIVATION),
    ("coherent", 2): (REPRESSION, ACTIVATION, REPRESSION),
    ("coherent", 3): (ACTIVATION, REPRESSION, REPRESSION),
    ("coherent", 4): (REPRESSION, REPRESSION, ACTIVATION),
    ("incoherent", 1): (ACTIVATION, REPRESSION, ACTIVATION),
    ("incoherent", 2): (REPRESSION, REPRESSION, REPRESSION),
    ("incoherent", 3): (ACTIVATION, ACTIVATION, REPRESSION),
    ("incoherent", 4): (REPRESSION, ACTIVATION, ACTIVATION),
}

_LABEL_RE = re.compile(r"(coherent|incoherent)[ _-]?([1-4])\Z")


class ClassificationError(ValueError):
    """A signature matched no motif type, or more than one."""


class FFLSpec(FrozenRecord):
    """One of the eight motif types: coherence and variant 1..4."""

    __slots__ = ("coherence", "variant")

    def __init__(self, coherence: str, variant: int):
        if (coherence, variant) not in _SIGNS:
            raise ValueError(f"no such motif type: {coherence} {variant}")
        object.__setattr__(self, "coherence", coherence)
        object.__setattr__(self, "variant", variant)

    @property
    def signs(self) -> tuple[str, str, str]:
        """Interaction kinds along (X->Y, Y->Z, X->Z)."""
        return _SIGNS[(self.coherence, self.variant)]

    @property
    def label(self) -> str:
        return f"{self.coherence}{self.variant}"

    @classmethod
    def from_label(cls, label: str) -> "FFLSpec":
        m = _LABEL_RE.match(label.strip().lower())
        if not m:
            raise ValueError(f"cannot parse motif label {label!r}")
        return cls(m.group(1), int(m.group(2)))


def all_specs() -> list[FFLSpec]:
    return [FFLSpec(c, v) for c, v in _SIGNS]


def ffl_weights(a, b, c) -> tuple[SimplicialComplex, WeightFunction]:
    """The motif complex on vertices X=0, Y=1, Z=2 with one nonzero weight
    per edge: a on [X,Y], b on [Y,Z], c on [X,Z] (both faces alike)."""
    per_edge = {(0, 1): GaussianRational.coerce(a),
                (1, 2): GaussianRational.coerce(b),
                (0, 2): GaussianRational.coerce(c)}
    for edge, value in per_edge.items():
        if not value:
            raise ValueError(f"edge {edge} has weight 0; motif weights must be nonzero")
    complex = build_complex(per_edge.keys())
    table = {}
    for edge, value in per_edge.items():
        e = Simplex(edge)
        table[(e, 0)] = value
        table[(e, 1)] = value
    return complex, _validated(WeightFunction(complex, table))


def make_ffl(spec: FFLSpec, encoding=None) -> tuple[SimplicialComplex, WeightFunction]:
    """Weighted motif complex for a motif type under a sign encoding
    (default: activation -> 1, repression -> 2)."""
    enc = DEFAULT_ENCODING if encoding is None else dict(encoding)
    for kind in (ACTIVATION, REPRESSION):
        if kind not in enc:
            raise ValueError(f"encoding misses {kind!r}")
    return ffl_weights(*(enc[kind] for kind in spec.signs))


class FFLSignature(FrozenRecord):
    """Nonzero Laplacian eigenvalues plus their eigenspace projectors."""

    __slots__ = ("eigenvalues", "clusters")

    def __init__(self, eigenvalues: tuple[float, float], clusters: tuple):
        # clusters: ((value, 3x3 projector ndarray), ...) ascending
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "clusters", clusters)


def signature_of_matrix(matrix: ExactMatrix) -> FFLSignature:
    """Signature of a 3x3 degree-0 motif Laplacian L.

    L has the characteristic polynomial x^3 - t x^2 + e2 x - det with exact
    t = tr L, e2 the sum of its principal 2x2 minors.  It must be Hermitian
    with det = 0, e2 > 0 and t > 0, so its eigenvalues are 0 < lam2 <= lam3,
    one cluster exactly when t^2 = 4 e2.  The projectors come from L itself:
    P2 = L(L - lam3)/(lam2 (lam2 - lam3)) and P3 = (L - lam2 P2)/lam3."""
    if matrix.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got {matrix.shape}")
    if not matrix.is_hermitian():
        raise ValueError("matrix is not Hermitian; not a motif Laplacian")
    m = matrix.to_ndarray()
    (a, b, c), (b_, d, e), (c_, e_, f) = matrix.data
    trace = a + d + f
    t = trace.re
    e2 = (a * d - b * b_ + a * f - c * c_ + d * f - e * e_).re
    det = a * (d * f - e * e_) - b * (b_ * f - e * c_) + c * (b_ * e_ - d * c_)
    if det or e2 <= 0 or t <= 0:
        raise ValueError("eigenvalues are not 0, x, y with x, y > 0; "
                         "not a motif Laplacian")
    # L/t has eigenvalues 0, mu2, mu3 with mu2 + mu3 = 1 and mu2 mu3 = r, and
    # floats that neither overflow nor underflow where those of L would
    r = e2 / (t * t)
    scale = to_floats([trace], True)[0]  # entries are in float range, t may not be
    mu3 = (1 + math.sqrt(1 - 4 * r)) / 2
    mu2 = float(r) / mu3
    m = m / scale
    if 4 * r == 1:
        clusters = ((scale / 2, 2 * m),)
    else:
        p2 = (m @ m - mu3 * m) / (mu2 * (mu2 - mu3))
        clusters = ((scale * mu2, p2), (scale * mu3, (m - mu2 * p2) / mu3))
    return FFLSignature((scale * mu2, scale * mu3), clusters)


def ffl_signature(complex: SimplicialComplex, phi: WeightFunction) -> FFLSignature:
    return signature_of_matrix(laplacian_matrix(complex, phi, 0))


_REFERENCE_SIGNATURES: dict[FFLSpec, FFLSignature] = {}


def _reference_signatures() -> dict[FFLSpec, FFLSignature]:
    if not _REFERENCE_SIGNATURES:
        for spec in all_specs():
            _REFERENCE_SIGNATURES[spec] = ffl_signature(*make_ffl(spec))
    return _REFERENCE_SIGNATURES


def _projectors(sig: FFLSignature, tol: float) -> list:
    """The signature's projectors, the two summed when its eigenvalues lie
    within tol of each other and so count as one double root."""
    ps = [p for _, p in sig.clusters]
    return [sum(ps)] if sig.eigenvalues[1] - sig.eigenvalues[0] <= tol else ps


def _match(sig: FFLSignature, ref: FFLSignature, tol: float) -> bool:
    if any(abs(x - y) > tol for x, y in zip(sig.eigenvalues, ref.eigenvalues)):
        return False
    ps, qs = _projectors(sig, tol), _projectors(ref, tol)
    return len(ps) == len(qs) and all(
        math.sqrt(float((abs(p - q) ** 2).sum())) <= tol for p, q in zip(ps, qs))


def classify_ffl(signature: FFLSignature, tol: float = MATCH_TOL) -> FFLSpec:
    """The unique motif type whose reference signature matches, under the
    default encoding.  No match or several matches raise."""
    hits = [spec for spec, ref in _reference_signatures().items()
            if _match(signature, ref, tol)]
    if len(hits) == 1:
        return hits[0]
    if not hits:
        raise ClassificationError(
            f"eigenvalues {signature.eigenvalues} match no motif type under "
            f"the default encoding")
    raise ClassificationError(
        "signature is ambiguous between " + ", ".join(h.label for h in hits))
