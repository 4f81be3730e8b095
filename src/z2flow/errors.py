"""Exception hierarchy for the z2flow toolkit."""


class Z2FlowError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(Z2FlowError):
    """Shape or dimension mismatch (odd dimension, rank mismatch, ...)."""


class SymmetryError(Z2FlowError):
    """A claimed symmetry (skew, symmetric, chiral, orthogonal) fails."""


class SingularError(Z2FlowError):
    """An operator required to be invertible is singular within tolerance."""


class NotAdmissibleError(Z2FlowError):
    """A path fails the admissibility requirement at its endpoints."""


class RefinementError(Z2FlowError):
    """Adaptive refinement hit its resolution floor without succeeding."""


class TransportError(RefinementError):
    """Subspace transport is ill-conditioned (polar factor near singular).

    A refinement failure: the frames on either side of the transport are
    too far apart for the sampling resolution.
    """


class StructureError(Z2FlowError):
    """Structural postcondition violated (signals invalid inputs)."""


class NotFredholmPairError(Z2FlowError):
    """A pair of complex structures fails the spectral-gap certificate."""


class ConfigError(Z2FlowError):
    """Invalid input: builder parameters, CLI flags, path-file schema or
    non-finite matrix entries."""
