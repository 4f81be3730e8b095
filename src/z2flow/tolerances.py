"""Numerical tolerances shared across the toolkit.

All tol_* thresholds are relative to the scale of the matrix at hand and can
be multiplied globally through the environment variable
``Z2FLOW_TOLERANCE_SCALE`` (default 1; read once, must be finite and > 0).
The window-continuity bound ``WINDOW_EPS`` and the pair-certificate gap
``PAIR_GAP_MIN`` are structural constants of the algorithms, not
tolerances, and are therefore not scaled.
"""

import math
import os

from .errors import ConfigError

SYM_REL = 1e-10        # symmetry checks: ||M - M^T|| or ||M + M^T|| vs ||M||
INV_REL = 1e-10        # invertibility: sigma_min vs sigma_max
GAP_REL = 1e-8         # window radius vs singular-value collision
TRANSPORT_MIN = 1e-6   # smallest singular value allowed in a polar transport
EIG_IMAG_REL = 1e-8    # eigenvalue realness threshold vs ||K||

PAIR_KERNEL_ABS = 1e-7   # kernel-proxy cluster bound for sums of complex structures
PAIR_GAP_MIN = 0.1       # the rest of that spectrum must sit above this
PAIR_PARTITION_ABS = 1e-3  # looser cluster bound for consecutive phases along a path

WINDOW_EPS = 0.5        # ||Q(t) - Q(t')|| bound inside one spectral window
MIN_SEGMENT = 1e-6      # refinement floor: segment length over interval length


_scale = None


def parse_scale(text: str) -> float:
    """Parse a tolerance multiplier; it must be a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(
            f"Z2FLOW_TOLERANCE_SCALE must be a finite number > 0, got {text!r}")
    return value


def scale() -> float:
    """Global multiplier for the tol_* family.

    Read from the environment on first use and fixed for the rest of the
    process, so one run never mixes two scales.
    """
    global _scale
    if _scale is None:
        _scale = parse_scale(os.environ.get("Z2FLOW_TOLERANCE_SCALE", "1"))
    return _scale


def sym(magnitude: float) -> float:
    return SYM_REL * magnitude * scale()


def inv(sigma_max: float) -> float:
    return INV_REL * sigma_max * scale()


def gap(sigma_max: float) -> float:
    return GAP_REL * sigma_max * scale()


def transport() -> float:
    return TRANSPORT_MIN * scale()


def eig_imag(sigma_max: float) -> float:
    return EIG_IMAG_REL * sigma_max * scale()


def pair_kernel() -> float:
    return PAIR_KERNEL_ABS * scale()


def snapshot() -> dict:
    """All tolerance constants after scaling, for run reports."""
    s = scale()
    return {
        "scale": s,
        "sym_rel": SYM_REL * s,
        "inv_rel": INV_REL * s,
        "gap_rel": GAP_REL * s,
        "transport_min": TRANSPORT_MIN * s,
        "eig_imag_rel": EIG_IMAG_REL * s,
        "pair_kernel_abs": PAIR_KERNEL_ABS * s,
        "pair_gap_min": PAIR_GAP_MIN,
        "window_eps": WINDOW_EPS,
    }
