"""Builders for the concrete operator families shipped with the toolkit.

Four model families: the 2x2/4x4 toy crossings, the rank-one conjugated
complex-structure pair, a chiral tight-binding ring with one flux-carrying
weak link, and the sine-basis truncation of a coupled elliptic system whose
linearization crosses zero at an isolated parameter value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import ConfigError, NotAdmissibleError
from .linalg import singular_values
from .flow import embed_chiral
from .pairs import ComplexStructure
from .paths import ChiralFrame, OperatorPath

__all__ = [
    "EXAMPLE_NAMES",
    "RingShiftSpec",
    "GalerkinSpec",
    "build_example_path",
    "build_rank_one_pair",
    "build_insulator_path",
    "build_insulator_disordered",
    "build_bifurcation_path",
    "half_flux_kernel_dim",
    "bifurcation_crossing_modes",
]

EXAMPLE_NAMES = ("examp", "examp_abs", "doubled", "doubled_perturbed")


# ---------------------------------------------------------------------------
# toy example paths


def build_example_path(name: str, s: float = None) -> OperatorPath:
    """The toy chiral-skew paths on [-1, 1].

    ``examp``              the simple crossing [[0, t], [-t, 0]]
    ``examp_abs``          its isospectral twin with |t|
    ``doubled``            the 4x4 direct double of the crossing
    ``doubled_perturbed``  the doubled path with gap-opening strength s >= 0
    """
    if name not in EXAMPLE_NAMES:
        raise ConfigError(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")
    if name == "doubled_perturbed":
        if s is None:
            s = 1.0
        if s < 0:
            raise ConfigError("perturbation strength s must be >= 0")
    elif s is not None:
        raise ConfigError(f"example {name!r} takes no strength parameter")

    if name == "examp":
        ev = lambda t: np.array([[0.0, t], [-t, 0.0]])
        frame = ChiralFrame(1, 1)
    elif name == "examp_abs":
        ev = lambda t: np.array([[0.0, abs(t)], [-abs(t), 0.0]])
        frame = ChiralFrame(1, 1)
    elif name == "doubled":
        def ev(t):
            b = np.diag([t, t])
            out = np.zeros((4, 4))
            out[:2, 2:] = b
            out[2:, :2] = -b.T
            return out
        frame = ChiralFrame(2, 2)
    else:
        def ev(t, _s=float(s)):
            return np.array([
                [0.0, 0.0, t, -_s],
                [0.0, 0.0, _s, t],
                [-t, -_s, 0.0, 0.0],
                [_s, -t, 0.0, 0.0],
            ])
        frame = ChiralFrame(2, 2)
    return OperatorPath((-1.0, 1.0), ev, "chiral-skew", frame, 0)


# ---------------------------------------------------------------------------
# rank-one conjugated pair


def build_rank_one_pair(n: int):
    """The standard complex structure on R^2n and the rank-one reflection.

    Returns (I, O) with I = [[0, 1], [-1, 0]] and O = diag(1 - 2p, 1) for the
    projection p onto the first coordinate.  The straight line from I to
    O I O^T carries exactly one simple crossing.
    """
    if n < 1:
        raise ConfigError("ambient half-dimension must be >= 1")
    structure = ComplexStructure(embed_chiral(np.eye(n)), ChiralFrame(n, n))
    reflect = np.eye(n)
    reflect[0, 0] = -1.0
    o = np.block([
        [reflect, np.zeros((n, n))],
        [np.zeros((n, n)), np.eye(n)],
    ])
    return structure, o


# ---------------------------------------------------------------------------
# flux-defect chiral ring


@dataclass(frozen=True)
class RingShiftSpec:
    """Geometry of the chiral ring model: ring size, shift power, fiber."""

    sites: int
    shift_power: int = 1
    fiber_dim: int = 1
    link_site: int = 0

    def __post_init__(self):
        if self.sites < 4:
            raise ConfigError("ring needs at least 4 sites")
        if self.shift_power < 1 or self.fiber_dim < 1:
            raise ConfigError("shift power and fiber dimension must be >= 1")
        if self.sites < 2 * self.shift_power + 2:
            raise ConfigError("ring too small for the shift power (need M >= 2k + 2)")
        if not 0 <= self.link_site < self.sites:
            raise ConfigError("link site out of range")

    @property
    def block_dim(self) -> int:
        return self.sites * self.fiber_dim


def _ring_shift(sites: int, weight: float, link_site: int) -> np.ndarray:
    s = np.zeros((sites, sites))
    for i in range(sites):
        s[i, (i + 1) % sites] = 1.0
    s[link_site, (link_site + 1) % sites] = weight
    return s


def build_insulator_path(spec: RingShiftSpec) -> OperatorPath:
    """Chiral self-adjoint hopping path on a ring with one weakening link.

    The off-diagonal block is the k-th power of the cyclic shift whose
    single marked link carries weight cos(pi t); at t = 1/2 the link opens
    and the chain disconnects, producing protected zero modes.
    """
    m, k, nf = spec.sites, spec.shift_power, spec.fiber_dim

    def ev(t):
        s = _ring_shift(m, math.cos(math.pi * t), spec.link_site)
        b = np.linalg.matrix_power(s, k)
        if nf > 1:
            b = np.kron(b, np.eye(nf))
        dim = b.shape[0]
        h = np.zeros((2 * dim, 2 * dim))
        h[:dim, dim:] = b
        h[dim:, :dim] = b.T
        return h

    frame = ChiralFrame(spec.block_dim, spec.block_dim)
    return OperatorPath((0.0, 1.0), ev, "chiral-selfadjoint", frame, 0)


def build_insulator_disordered(spec: RingShiftSpec, strength: float,
                               seed: int) -> OperatorPath:
    """Ring path plus a seeded parameter-independent chiral perturbation.

    The perturbation acts only on the off-diagonal blocks, has operator norm
    equal to ``strength`` and must stay below half the spectral gap of the
    clean endpoints so the path remains admissible.
    """
    if not (math.isfinite(strength) and strength >= 0):
        raise ConfigError(f"disorder strength must be finite and >= 0, got {strength}")
    clean = build_insulator_path(spec)
    gap = min(
        float(singular_values(clean.at(0.0))[0]),
        float(singular_values(clean.at(1.0))[0]),
    )
    if strength >= gap / 2.0:
        raise NotAdmissibleError(
            f"disorder strength {strength} reaches half the endpoint gap {gap}"
        )
    dim = spec.block_dim
    v = np.zeros((2 * dim, 2 * dim))
    if strength > 0:
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((dim, dim))
        w *= strength / float(singular_values(w)[-1])
        v[:dim, dim:] = w
        v[dim:, :dim] = w.T

    return OperatorPath(
        clean.interval,
        lambda t: clean.evaluator(t) + v,
        "chiral-selfadjoint",
        clean.frame,
        0,
    )


def half_flux_kernel_dim(spec: RingShiftSpec) -> int:
    """Kernel dimension of the ring Hamiltonian at the open-link point."""
    h = build_insulator_path(spec).at(0.5)
    sv = singular_values(h)
    smax = max(float(sv[-1]), 1e-300)
    return int((sv < 1e-8 * smax).sum())


# ---------------------------------------------------------------------------
# Galerkin truncation of the coupled elliptic system


@dataclass(frozen=True)
class GalerkinSpec:
    """Sine-basis truncation around an isolated crossing of the linearization.

    Modes sin(k1 x1) sin(k2 x2) with 1 <= k1, k2 <= mode_cutoff; the inverse
    Laplacian is diagonal with entries -1/(k1^2 + k2^2).  The parameter
    window must contain no crossing other than the (1, 1)-mode one.
    """

    mode_cutoff: int = 4
    t_center: float = 2.0
    delta: float = 0.5

    def __post_init__(self):
        if self.mode_cutoff < 2:
            raise ConfigError("mode cutoff must be >= 2")
        if not self.delta > 0:
            raise ConfigError("window half-width must be positive")
        for k1, k2 in self.modes():
            crossing = float(k1 * k1 + k2 * k2)
            inside = abs(crossing - self.t_center) <= self.delta
            if inside and (k1, k2) != (1, 1):
                raise ConfigError(
                    f"mode {(k1, k2)} also crosses inside the parameter window"
                )

    def modes(self):
        rng_ = range(1, self.mode_cutoff + 1)
        return [(k1, k2) for k1 in rng_ for k2 in rng_]

    @property
    def interval(self):
        return (self.t_center - self.delta, self.t_center + self.delta)


def build_bifurcation_path(spec: GalerkinSpec) -> OperatorPath:
    """Linearization path [[1, tK], [tK, 1]] in the sine product basis.

    K is the diagonal inverse Laplacian over the modes (lexicographic order,
    u-block before v-block); the (1, 1) mode crosses zero at t equal to its
    Laplace eigenvalue.
    """
    modes = spec.modes()
    kdiag = np.array([-1.0 / (k1 * k1 + k2 * k2) for k1, k2 in modes])
    m = len(modes)

    def ev(t):
        out = np.eye(2 * m)
        out[:m, m:] = np.diag(t * kdiag)
        out[m:, :m] = np.diag(t * kdiag)
        return out

    return OperatorPath(spec.interval, ev, "general", None, 0)


def bifurcation_crossing_modes(spec: GalerkinSpec):
    """Modes whose zero crossing falls inside the parameter window."""
    out = []
    for k1, k2 in spec.modes():
        if abs(float(k1 * k1 + k2 * k2) - spec.t_center) <= spec.delta:
            out.append((k1, k2))
    return out
