"""Property tests: random sampled paths against the endpoint oracles."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from z2flow.flow import (  # noqa: E402
    embed_chiral,
    embed_chiral_path,
    parity_finite,
    parity_path,
    parity_path_general,
    sf2_finite,
    sf2_path,
)
from z2flow.pairs import parity_via_pairs  # noqa: E402
from z2flow.paths import ChiralFrame, OperatorPath  # noqa: E402

from conftest import random_orthogonal_path  # noqa: E402
from oracles import window_product  # noqa: E402

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


def _knot_params(rng, knots):
    ts = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, knots - 2)), [1.0]])
    if np.any(np.diff(ts) <= 0.0):
        ts = np.linspace(0.0, 1.0, knots)
    return ts


def _sampled_path(seed, n, knots, draw, tag):
    rng = np.random.default_rng(seed)
    ts = _knot_params(rng, knots)
    mats = _knot_mats(rng, n, knots, draw)
    return OperatorPath.from_samples(ts, mats, tag), mats


def _det_sign(b):
    return int(np.linalg.slogdet(b)[0])


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
    assert res.value == window_product(res) == sf2_finite(mats[0], mats[-1])


@FIXED
@given(seed=seeds, n=st.integers(1, 4), knots=knot_counts,
       randomized=st.booleans())
def test_chiral_flow_matches_block_determinants(seed, n, knots, randomized):
    rng = np.random.default_rng(seed)
    ts = _knot_params(rng, knots)
    blocks = _knot_mats(rng, n, knots, _square)
    path = OperatorPath.from_samples(ts, [embed_chiral(b) for b in blocks],
                                     "chiral-skew", ChiralFrame(n, n))
    expected = _det_sign(blocks[0]) * _det_sign(blocks[-1])
    mix = np.random.default_rng(seed) if randomized else None
    res = sf2_path(path, rng=mix)
    assert res.value == window_product(res) == expected
    mix = np.random.default_rng(seed) if randomized else None
    assert parity_via_pairs(path, rng=mix) == expected


@FIXED
@given(seed=seeds, n=st.integers(1, 3), d=st.integers(1, 3),
       knots=knot_counts, wide=st.booleans(), randomized=st.booleans())
def test_rectangular_parity_matches_square_core(seed, n, d, knots, wide,
                                                randomized):
    # a rotating frame carries the square n x n path and d zero rows
    rng = np.random.default_rng(seed)
    square = OperatorPath.from_samples(_knot_params(rng, knots),
                                       _knot_mats(rng, n, knots, _square))
    q = random_orthogonal_path(rng, n + d)
    pad = np.zeros((d, n))

    def tall(t):
        return q(t) @ np.vstack([square.evaluator(t), pad])

    if wide:
        path = OperatorPath((0.0, 1.0), lambda t: tall(t).T, "general", None, -d)
    else:
        path = OperatorPath((0.0, 1.0), tall, "general", None, d)
    mix = np.random.default_rng(seed) if randomized else None
    assert parity_path_general(path, rng=mix) == parity_finite(square)


@FIXED
@given(seed=seeds, n=st.integers(1, 4), knots=knot_counts,
       randomized=st.booleans())
def test_opaque_general_parity_matches_oracle(seed, n, knots, randomized):
    # the same sampled path behind a callable that declares no arc modulus
    sampled, _ = _sampled_path(seed, n, knots, _square, "general")
    path = OperatorPath(sampled.interval, lambda t: sampled.evaluator(t))
    rng = np.random.default_rng(seed) if randomized else None
    assert parity_path(path, rng=rng) == parity_finite(path)


@FIXED
@given(omega=st.floats(1.0, 30.0), phase=st.floats(0.0, 2 * np.pi),
       declared=st.booleans(), randomized=st.booleans())
def test_wave_parity_matches_oracle(omega, phase, declared, randomized):
    # diag(sin(omega t + phase), 1), opaque or declaring its Lipschitz arc
    hypothesis.assume(min(abs(np.sin(phase)), abs(np.sin(omega + phase))) > 0.05)

    def wave(t):
        return np.diag([np.sin(omega * t + phase), 1.0])

    if declared:
        wave.arc = lambda ts: omega * np.asarray(ts)
    path = OperatorPath((0.0, 1.0), wave)
    rng = np.random.default_rng(int(omega * 1e6)) if randomized else None
    assert parity_path(path, rng=rng) == parity_finite(path)


def _calm_part(rng, n):
    """A sampled part near 2 Q, Q orthogonal, whose knot arc stays below its
    endpoint singular values: the engine certifies it from its endpoints."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    ts = np.linspace(0.0, 1.0, 3)
    return OperatorPath.from_samples(
        ts, [2.0 * q + 0.05 * rng.standard_normal((n, n)) / n for _ in ts])


@FIXED
@given(seed=seeds, kinds=st.lists(st.booleans(), min_size=1, max_size=3),
       listing=st.lists(st.integers(0, 2), min_size=1, max_size=4))
def test_direct_sum_parity_matches_parts(seed, kinds, listing):
    # 1-4 placed copies of 1-3 distinct sampled parts, calm (True) or
    # random; rows and columns placed by random permutations
    rng = np.random.default_rng(seed)
    distinct = []
    for calm in kinds:
        n = int(rng.integers(1, 4))
        if calm:
            distinct.append(_calm_part(rng, n))
        else:
            distinct.append(OperatorPath.from_samples(
                _knot_params(rng, 3), _knot_mats(rng, n, 3, _square)))
    parts = [distinct[i % len(distinct)] for i in listing]
    sizes = [p.block_shape[0] for p in parts]
    cuts = np.cumsum(sizes)[:-1]
    rows = np.split(rng.permutation(sum(sizes)), cuts)
    cols = np.split(rng.permutation(sum(sizes)), cuts)
    total = OperatorPath.direct_sum(parts, rows, cols)

    block = np.zeros((sum(sizes), sum(sizes)))
    for part, r, c in zip(parts, rows, cols):
        block[np.ix_(r, c)] = part.at(0.5)
    np.testing.assert_array_equal(total.at(0.5), block)

    expected = 1
    for part in parts:
        expected *= parity_finite(part)
    res = sf2_path(embed_chiral_path(total))
    assert res.value == window_product(res) == parity_finite(total) == expected
    assert parity_path(total) == expected
    assert {w.summand for w in res.windows} == set(range(len(parts)))
    for seed_rng in range(2):
        assert parity_path(total, rng=np.random.default_rng(seed_rng)) == expected
    for part, calm in zip(distinct, kinds):
        if calm:  # two endpoint solves, one rank-0 window
            flow = sf2_path(embed_chiral_path(part))
            assert (flow.evaluations, len(flow.windows)) == (2, 1)
            assert flow.windows[0].rank == 0
