"""Property tests: random sampled paths against the endpoint oracles."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from z2flow.flow import parity_finite, parity_path, sf2_finite, sf2_path  # noqa: E402
from z2flow.paths import OperatorPath  # noqa: E402

# fixed examples, no example database: the same cases on every run
FIXED = settings(derandomize=True, deadline=None, max_examples=30,
                 database=None)


def _square(rng, n):
    return rng.standard_normal((n, n))


def _skew(rng, n):
    g = rng.standard_normal((n, n))
    return g - g.T


def _knot_mats(rng, n, knots, draw):
    """Matrices at the knots; the endpoints are redrawn until sigma_min > 0.3."""
    mats = []
    for i in range(knots):
        m = draw(rng, n)
        while i in (0, knots - 1) and np.linalg.svd(m, compute_uv=False)[-1] <= 0.3:
            m = draw(rng, n)
        mats.append(m)
    return mats


def _sampled_path(seed, n, knots, draw, tag):
    rng = np.random.default_rng(seed)
    ts = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, knots - 2)), [1.0]])
    if np.any(np.diff(ts) <= 0.0):
        ts = np.linspace(0.0, 1.0, knots)
    mats = _knot_mats(rng, n, knots, draw)
    return OperatorPath.from_samples(ts, mats, tag), mats


seeds = st.integers(0, 2 ** 32 - 1)
knot_counts = st.integers(2, 4)


@FIXED
@given(seed=seeds, n=st.integers(1, 4), knots=knot_counts,
       randomized=st.booleans())
def test_general_parity_matches_oracle(seed, n, knots, randomized):
    path, _ = _sampled_path(seed, n, knots, _square, "general")
    rng = np.random.default_rng(seed) if randomized else None
    assert parity_path(path, rng=rng) == parity_finite(path)


@FIXED
@given(seed=seeds, n=st.sampled_from([2, 4]), knots=knot_counts,
       randomized=st.booleans())
def test_skew_flow_matches_oracle(seed, n, knots, randomized):
    path, mats = _sampled_path(seed, n, knots, _skew, "skew")
    rng = np.random.default_rng(seed) if randomized else None
    res = sf2_path(path, rng=rng)
    assert res.value == res.window_product() == sf2_finite(mats[0], mats[-1])
