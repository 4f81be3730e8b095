"""Numerical Z2 invariants of operator paths on finite truncations.

Parity of paths of real matrices, Z2-valued spectral flow of skew-adjoint
families, and the Z2-index of pairs of chiral complex structures, together
with builders for the model families the invariants were designed for.
"""

from .errors import (
    ConfigError,
    DimensionError,
    NotAdmissibleError,
    NotFredholmPairError,
    RefinementError,
    SingularError,
    StructureError,
    SymmetryError,
    TransportError,
    Z2FlowError,
)
from .flow import (
    FlowResult,
    SpectralWindow,
    embed_chiral,
    embed_chiral_path,
    leray_schauder_degree,
    parity_finite,
    parity_path,
    parity_path_general,
    selfadjoint_path_to_skew,
    sf2_finite,
    sf2_path,
)
from .linalg import pfaffian_sign, sign_det
from .models import (
    GalerkinSpec,
    RingShiftSpec,
    build_bifurcation_path,
    build_example_path,
    build_insulator_disordered,
    build_insulator_path,
    build_rank_one_pair,
)
from .pairs import (
    ComplexStructure,
    FredholmPair,
    index_pairing_rhs,
    j_index,
    parity_via_pairs,
    phase_complete,
    pi_index,
    straight_line_sf2,
)
from .paths import ChiralFrame, OperatorPath, PathFamily
from .z2 import MINUS, PLUS, Z2

__version__ = "0.1.0"
