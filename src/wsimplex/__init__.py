"""Homology, cohomology and Hodge Laplacians of weighted simplicial complexes.

A weight function assigns a scalar to every (simplex, codimension-one face)
pair; when it passes the compatibility check, the weighted boundary operator
squares to zero and the whole homological toolbox applies: integer homology
with torsion via Smith normal form, cohomology dimensions over the rationals
or Gaussian rationals, Hodge Laplacians with exact kernel bookkeeping, and
spectra through a one-sided Jacobi SVD.  Includes the weighted polygon
family (closed-form degree-0 homology) and the spectral classifier for the
eight feedforward-loop motif types.

numpy loads with the float layer (``eigen``) on its first use, so the
exact invariants run without it.
"""

from .complexes import (
    Simplex,
    SimplicialComplex,
    build_complex,
    face,
    parse_complex_text,
    read_complex_file,
)
from .gaussian import GaussianRational
from .weights import (
    UnvalidatedWeightError,
    Violation,
    WeightCompletenessError,
    WeightFunction,
    cfw_weight,
    dawson_weight,
    identity_weight,
    make_ngon,
    parse_weight_text,
    read_weight_file,
    semi_trivial_weight,
    validate_weight,
    zero_weight,
)
from .matrices import ExactMatrix
from .chains import (
    Chain,
    apply_boundary,
    boundary_matrix,
    coboundary_matrix,
)
from .homology import (
    HomologyGroup,
    SNFResult,
    ngon_homology_closed_form,
    smith_normal_form,
    weighted_homology,
)
from .spectral import (
    HarmonicBasis,
    InnerProductWeights,
    cohomology_dim,
    harmonic_basis,
    laplacian_matrix,
    laplacian_spectrum,
    parse_inner_weights_text,
    read_inner_weights_file,
    spectrum,
    up_down_matrices,
    zero_multiplicity_formulas,
)
from .ffl import (
    ClassificationError,
    FFLSignature,
    FFLSpec,
    all_specs,
    classify_ffl,
    ffl_signature,
    ffl_weights,
    make_ffl,
    signature_of_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "Simplex", "SimplicialComplex", "build_complex", "face",
    "parse_complex_text", "read_complex_file",
    "GaussianRational",
    "WeightFunction", "Violation", "validate_weight",
    "WeightCompletenessError", "UnvalidatedWeightError",
    "identity_weight", "zero_weight", "semi_trivial_weight",
    "dawson_weight", "cfw_weight", "parse_weight_text", "read_weight_file",
    "ExactMatrix",
    "Chain", "boundary_matrix", "coboundary_matrix", "apply_boundary",
    "SNFResult", "smith_normal_form",
    "HomologyGroup", "weighted_homology", "ngon_homology_closed_form",
    "Spectrum", "jacobi_svd",
    "cohomology_dim", "up_down_matrices", "laplacian_matrix",
    "laplacian_spectrum",
    "InnerProductWeights", "spectrum",
    "zero_multiplicity_formulas", "HarmonicBasis", "harmonic_basis",
    "parse_inner_weights_text",
    "read_inner_weights_file",
    "make_ngon",
    "FFLSpec", "FFLSignature", "all_specs", "make_ffl", "ffl_weights",
    "ffl_signature", "signature_of_matrix", "classify_ffl",
    "ClassificationError",
]

_EIGEN_NAMES = ("Spectrum", "jacobi_svd")


def __getattr__(name):
    if name in _EIGEN_NAMES:
        from . import eigen
        return getattr(eigen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EIGEN_NAMES))
