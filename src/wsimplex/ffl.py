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
types, even where bare eigenvalue pairs collide.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .complexes import Simplex, SimplicialComplex, build_complex
from .gaussian import GaussianRational
from .matrices import ExactMatrix
from .spectral import laplacian_matrix, spectrum
from .weights import WeightFunction

ACTIVATION = "activation"
REPRESSION = "repression"
DEFAULT_ENCODING = {ACTIVATION: 1, REPRESSION: 2}

MATCH_TOL = 1e-6
ZERO_TOL_SCALE = 1e-9  # the zero eigenvalue may sit this far from 0, times 1 + ||L||

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

_H = Fraction(1, 2)

# reference eigendata under the default encoding, keyed like _SIGNS:
# (a, b, c, u2, u3, lam2, lam3); the (lam2, lam3) labels follow the
# closed-form branches and are not always ascending
REFERENCE_TABLE = {
    ("coherent", 1): (1, 1, 1, (-_H, -_H, 1), (-1, 1, 0), 3, 3),
    ("coherent", 2): (2, 1, 2, (0, -1, 1), (-2, 1, 1), 6, 12),
    ("coherent", 3): (1, 2, 2, (-_H, -_H, 1), (-1, 1, 0), 12, 6),
    ("coherent", 4): (2, 2, 1, (-1, 0, 1), (1, -2, 1), 6, 12),
    ("incoherent", 1): (1, 2, 1, (-2, 1, 1), (0, -1, 1), 3, 9),
    ("incoherent", 2): (2, 2, 2, (-_H, -_H, 1), (-1, 1, 0), 12, 12),
    ("incoherent", 3): (1, 1, 2, (1, -2, 1), (-1, 0, 1), 3, 9),
    ("incoherent", 4): (2, 1, 1, (-_H, -_H, 1), (-1, 1, 0), 3, 9),
}

_LABEL_RE = re.compile(r"(coherent|incoherent)[ _-]?([1-4])\Z")


class ClassificationError(ValueError):
    """A signature matched no motif type, or more than one."""


@dataclass(frozen=True)
class FFLSpec:
    coherence: str
    variant: int

    def __post_init__(self):
        if (self.coherence, self.variant) not in _SIGNS:
            raise ValueError(f"no such motif type: {self.coherence} {self.variant}")

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
    phi = WeightFunction(complex, table)
    assert not phi.validate()
    return complex, phi


def make_ffl(spec: FFLSpec, encoding=None) -> tuple[SimplicialComplex, WeightFunction]:
    """Weighted motif complex for a motif type under a sign encoding
    (default: activation -> 1, repression -> 2)."""
    enc = DEFAULT_ENCODING if encoding is None else dict(encoding)
    for kind in (ACTIVATION, REPRESSION):
        if kind not in enc:
            raise ValueError(f"encoding misses {kind!r}")
    return ffl_weights(*(enc[kind] for kind in spec.signs))


@dataclass(frozen=True)
class FFLSignature:
    """Nonzero Laplacian eigenvalues plus their eigenspace projectors."""

    eigenvalues: tuple[float, float]
    clusters: tuple  # ((value, 3x3 projector ndarray), ...) ascending


def signature_of_matrix(matrix: ExactMatrix) -> FFLSignature:
    """Signature of a 3x3 degree-0 motif Laplacian."""
    if matrix.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got {matrix.shape}")
    spec = spectrum(matrix)
    w = spec.eigenvalues
    zero_tol = ZERO_TOL_SCALE * (1.0 + matrix.frobenius_norm())
    if abs(w[0]) > zero_tol:
        raise ValueError(f"smallest eigenvalue {w[0]} is not 0; not a motif Laplacian")
    lam2, lam3 = float(w[1]), float(w[2])
    v = spec.eigenvectors
    if abs(lam3 - lam2) <= MATCH_TOL:
        block = v[:, 1:3]
        clusters = (((lam2 + lam3) / 2.0, block @ block.conj().T),)
    else:
        v2 = v[:, 1:2]
        v3 = v[:, 2:3]
        clusters = ((lam2, v2 @ v2.conj().T), (lam3, v3 @ v3.conj().T))
    return FFLSignature((lam2, lam3), clusters)


def ffl_signature(complex: SimplicialComplex, phi: WeightFunction) -> FFLSignature:
    return signature_of_matrix(laplacian_matrix(complex, phi, 0))


_REFERENCE_SIGNATURES: dict[FFLSpec, FFLSignature] = {}


def _reference_signatures() -> dict[FFLSpec, FFLSignature]:
    if not _REFERENCE_SIGNATURES:
        for spec in all_specs():
            _REFERENCE_SIGNATURES[spec] = ffl_signature(*make_ffl(spec))
    return _REFERENCE_SIGNATURES


def _match(sig: FFLSignature, ref: FFLSignature, tol: float) -> bool:
    if any(abs(x - y) > tol for x, y in zip(sig.eigenvalues, ref.eigenvalues)):
        return False
    if len(sig.clusters) != len(ref.clusters):
        return False
    for (_, p), (_, q) in zip(sig.clusters, ref.clusters):
        if math.sqrt(float((abs(p - q) ** 2).sum())) > tol:
            return False
    return True


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
