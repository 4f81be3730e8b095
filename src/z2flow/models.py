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
from .linalg import _pinned_values, singular_values
from .flow import _doubling, embed_chiral, embed_chiral_path
from .pairs import ComplexStructure
from .paths import ChiralFrame, OperatorPath, PathFamily

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
    """The toy chiral-skew paths on [-1, 1]: chiral doublings
    [[0, B], [-B^T, 0]] of 1x1 and 2x2 block paths B(t).

    ``examp``              the simple crossing B = [[t]]
    ``examp_abs``          its isospectral twin B = [[|t|]]
    ``doubled``            the direct double B = diag(t, t)
    ``doubled_perturbed``  B = [[t, -s], [s, t]], gap-opening strength s >= 0

    The blocks are 1-Lipschitz but declare no arc modulus: all their
    singular values come near zero, so only the step bound of an opaque
    path keeps one full-rank window, the endpoint oracle, off the crossing.
    """
    if name not in EXAMPLE_NAMES:
        raise ConfigError(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")
    if name == "doubled_perturbed":
        if s is None:
            s = 1.0
        if not (math.isfinite(s) and s >= 0):
            raise ConfigError(f"perturbation strength s must be finite and >= 0, got {s}")
    elif s is not None:
        raise ConfigError(f"example {name!r} takes no strength parameter")

    if name == "examp":
        block = lambda t: np.array([[t]])
    elif name == "examp_abs":
        block = lambda t: np.array([[abs(t)]])
    elif name == "doubled":
        block = lambda t: np.diag([t, t])
    else:
        block = lambda t, _s=float(s): np.array([[t, -_s], [_s, t]])
    return embed_chiral_path(OperatorPath((-1.0, 1.0), block))


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
    o = np.eye(2 * n)
    o[0, 0] = -1.0
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


def _ring_arc(ts):
    # the arc of the 1 x 1 link part [[cos(pi t)]].  With M >= 2k + 2 a hop
    # of k sites crosses the marked link at most once, so B(t) = B(1/2) +
    # cos(pi t) E with E the partial permutation of the link rows, of
    # ||E||_2 = 1, and the same arc bounds the whole block, fibred or
    # disordered
    return 1.0 - np.cos(np.pi * np.asarray(ts))


def _ring_listings(spec: RingShiftSpec) -> list:
    """The listings of one fiber copy of the ring's block, as (part, ring
    rows i): the 1 x 1 link part [[cos(pi t)]] once per link row i = l -
    k + 1, ..., l (mod M), then one constant identity part, of arc 0, on
    the other M - k rows l + 1, ... (see ``_ring_blocks``).  The two
    distinct parts are the same objects in every listing."""
    m, k = spec.sites, spec.shift_power
    identity = lambda t: np.eye(m - k)
    identity.arc = lambda ts: np.zeros(np.shape(ts))
    # built before any placement: an identity too large to allocate
    # raises MemoryError here, at once
    rest = OperatorPath((0.0, 1.0), identity)
    weak = lambda t: np.array([[math.cos(math.pi * t)]])
    weak.arc = _ring_arc
    link = OperatorPath((0.0, 1.0), weak)
    moving = (spec.link_site + np.arange(1 - k, 1)) % m
    others = (spec.link_site + np.arange(1, m - k + 1)) % m
    return [(link, moving[j:j + 1]) for j in range(k)] + [(rest, others)]


def _ring_blocks(spec: RingShiftSpec) -> OperatorPath:
    """The ring's block path on [0, 1], B(t) tensored with the fiber, as
    the direct sum of the parts that move and the part that does not.

    B(t) = D(t) P^k: P is the cyclic shift and D is diagonal, cos(pi t) on
    the k rows i = l - k + 1, ..., l (mod M) whose hops cross the marked
    link l and 1 on the other M - k, so row i holds its one entry in
    column i + k (mod M).  Copy a of the N-dim fiber takes the rows
    a + N i and the columns a + N (i + k): it lists the 1 x 1 link part
    [[cos(pi t)]] once per link row, then one constant identity part, of
    arc 0, on its other rows (``_ring_listings``).  The engine solves the
    link part once and reads the identity's values, all 1, from its Weyl
    bounds without a solve, whatever M, k and N; parity is
    multiplicative, and the identity, whose arc does not grow, contributes
    +1.
    """
    m, k, n = spec.sites, spec.shift_power, spec.fiber_dim
    listings = _ring_listings(spec)
    parts, rows, cols = [], [], []
    for a in range(n):
        for part, i in listings:
            parts.append(part)
            rows.append(a + n * i)
            cols.append(a + n * ((i + k) % m))
    ring = OperatorPath.direct_sum(parts, rows, cols)
    ring.evaluator.arc = _ring_arc  # the link parts move together
    return ring


def _ring_path(spec: RingShiftSpec, blocks: OperatorPath) -> OperatorPath:
    """Chiral self-adjoint doubling [[0, B], [B^T, 0]] of the block path
    ``blocks``; the engine reads the block alone."""
    return _doubling(blocks, ChiralFrame(spec.block_dim, spec.block_dim),
                     "chiral-selfadjoint")


def build_insulator_path(spec: RingShiftSpec) -> OperatorPath:
    """Chiral self-adjoint hopping path on a ring with one weakening link.

    The off-diagonal block is the k-th power of the cyclic shift whose
    single marked link carries weight cos(pi t), tensored with the fiber;
    at t = 1/2 the link opens and the chain disconnects, producing
    protected zero modes.  The block is declared as the direct sum of the
    1 x 1 link parts [[cos(pi t)]] and one constant identity part per fiber
    copy (see ``_ring_blocks``), so the flow engine reads two small parts,
    9 + 1 evaluations for any M, k and N: the link part's T is
    2-dimensional, so its one rank-2 window over [0, 1] is allowed by the
    window rank cap, and the constant identity is one rank-0 window from
    its one evaluation at t = 0, whose values, all 1, its Weyl bounds pin
    without a solve.  ``parity_via_pairs`` takes the same parts.
    """
    return _ring_path(spec, _ring_blocks(spec))


def build_insulator_disordered(spec: RingShiftSpec, strength: float,
                               seed: int) -> OperatorPath:
    """Ring path plus a seeded parameter-independent chiral perturbation.

    The perturbation acts only on the off-diagonal blocks, has operator norm
    equal to ``strength`` and must stay below half the spectral gap of the
    clean endpoints so the path remains admissible.  A strength of 0 gives
    the clean ring of ``build_insulator_path``.

    The block moves only on its k N link entries: B(t) = B(0) + p c(t) q^T
    with p and q the columns of the identity that select the link rows and
    columns and c(t) = (cos(pi t) - 1) I_kN, of arc ``_ring_arc``.  The
    block evaluator declares this ``motion`` (see ``OperatorPath``), so the
    flow engine and the pair route solve the kN x kN reduced path and
    evaluate the dense block only at t = 0 and 1.
    """
    if not (math.isfinite(strength) and strength >= 0):
        raise ConfigError(f"disorder strength must be finite and >= 0, got {strength}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ConfigError(f"disorder seed must be an integer >= 0, got {seed!r}")
    # the clean endpoint blocks are signed permutations: every singular
    # value is 1
    gap = 1.0
    if strength >= gap / 2.0:
        raise NotAdmissibleError(
            f"disorder strength {strength} reaches half the endpoint gap {gap}"
        )
    dim = spec.block_dim
    w = np.zeros((dim, dim))
    if strength > 0:
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((dim, dim))
        w *= strength / float(singular_values(w)[-1])
    # the clean block moves only on its k N link entries, where it is 1 at
    # t = 0 and -1 at t = 1: the rest plus w is summed once, and each
    # evaluation adds cos(pi t) there, the same floats as clean(t) + w
    clean = _ring_blocks(spec)
    rest = clean.block(0.0)
    links = np.flatnonzero(rest != clean.block(1.0))
    rest.flat[links] = 0.0
    rest += w

    def block(t):
        out = rest.copy()
        out.flat[links] += math.cos(math.pi * t)
        return out

    def motion(t):
        return (math.cos(math.pi * t) - 1.0) * np.eye(links.size)

    motion.arc = _ring_arc
    rows, cols = np.unravel_index(links, (dim, dim))
    block.arc = _ring_arc
    block.motion = (np.eye(dim)[:, rows], np.eye(dim)[:, cols],
                    OperatorPath((0.0, 1.0), motion))
    return _ring_path(spec, OperatorPath((0.0, 1.0), block))


def half_flux_kernel_dim(spec: RingShiftSpec) -> int:
    """Kernel dimension of the ring Hamiltonian at the open-link point:
    twice that of its block.  The block is the direct sum of the ring's
    parts (``_ring_listings``), so each distinct part is read once at
    t = 1/2: a part whose values its Weyl bounds pin (the 1 x 1 link part
    and the identity) is counted from them, any other is solved for its
    singular values, bitwise the same values.  Those below ``tol.gap`` of
    the largest value of any part count once per listing, in each of the N
    fiber copies."""
    listings = _ring_listings(spec)
    values = {}
    for part, _ in listings:
        if id(part) not in values:
            b = part.at(0.5)
            pinned = _pinned_values(b)
            values[id(part)] = singular_values(b) if pinned is None else pinned
    smax = max(max(float(sv[-1]) for sv in values.values()), 1e-300)
    return 2 * spec.fiber_dim * sum(int((values[id(part)] < tol.gap(smax)).sum())
                                    for part, _ in listings)


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
        others = [m for m in bifurcation_crossing_modes(self) if m != (1, 1)]
        if others:
            raise ConfigError(
                f"mode {others[0]} also crosses inside the parameter window")

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
    Laplace eigenvalue.  Since K is diagonal, the path is the direct sum of
    one 2 x 2 path [[1, t k], [t k, 1]] per mode, on the mode's u and v
    coordinates, of arc |k| (t - t0).  The distinct k = -1 / (k1^2 + k2^2)
    are declared as one ``PathFamily``, in the order the modes first reach
    them, and each mode lists its k's member.
    """
    modes = spec.modes()
    m = len(modes)
    laplace = [k1 * k1 + k2 * k2 for k1, k2 in modes]
    index = {q: i for i, q in enumerate(dict.fromkeys(laplace))}
    ks = np.array([-1.0 / q for q in index])
    t0 = spec.interval[0]

    def stack(t):
        out = np.ones((ks.size, 2, 2))
        out[:, 0, 1] = out[:, 1, 0] = t * ks
        return out

    family = PathFamily(spec.interval, stack,
                        lambda ts: (np.asarray(ts) - t0)[:, None] * np.abs(ks))
    members = [family[i] for i in range(len(family))]
    place = np.stack([np.arange(m), m + np.arange(m)], axis=1)
    path = OperatorPath.direct_sum([members[index[q]] for q in laplace],
                                   place, place)
    speed = 1.0 / min(index)  # ||B(t) - B(s)||_2 = max|k| |t - s|
    path.evaluator.arc = lambda ts: speed * (np.asarray(ts) - t0)
    return path


def bifurcation_crossing_modes(spec: GalerkinSpec):
    """Modes whose zero crossing falls inside the parameter window."""
    out = []
    for k1, k2 in spec.modes():
        if abs(float(k1 * k1 + k2 * k2) - spec.t_center) <= spec.delta:
            out.append((k1, k2))
    return out
