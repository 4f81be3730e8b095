"""Unit tests for the parity and flow engines."""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from z2flow.errors import (
    ConfigError,
    DimensionError,
    NotAdmissibleError,
    RefinementError,
    SingularError,
    SymmetryError,
    TransportError,
)
import z2flow.pairs as pairs_module
from z2flow import linalg, tolerances as tol
from z2flow.flow import (
    _COS_MIN,
    _SEGMENT_SAMPLES,
    _PathData,
    _pairwise_window_continuity,
    _reduced,
    _refine,
    _square_block_path,
    _step_norms,
    embed_chiral,
    embed_chiral_path,
    leray_schauder_degree,
    parity_finite,
    parity_path,
    parity_path_general,
    selfadjoint_path_to_skew,
    sf2_finite,
    sf2_path,
    to_skew_path,
)
from z2flow.linalg import sign_det
from z2flow.models import (
    GalerkinSpec,
    RingShiftSpec,
    build_bifurcation_path,
    build_example_path,
    build_insulator_disordered,
    build_insulator_path,
    build_rank_one_pair,
    half_flux_kernel_dim,
)
from z2flow.pairs import (
    ComplexStructure,
    FredholmPair,
    parity_via_pairs,
    straight_line_sf2,
)
from z2flow.paths import ChiralFrame, FamilyMember, OperatorPath, PathFamily

from conftest import (
    random_admissible_path,
    random_chiral_skew_path,
    random_invertible_path,
    random_orthogonal_path,
    spy_solves,
    with_singular_values,
)
from oracles import exact_step_norms, k_real_reduce, selfadjoint_to_skew, window_product


class TestParityFinite:
    def test_constant_invertible(self):
        path = OperatorPath((0.0, 1.0), lambda t: np.eye(3), "general")
        assert parity_finite(path) == 1

    def test_single_crossing(self):
        path = OperatorPath((-1.0, 1.0),
                            lambda t: np.diag([t, 1.0]), "general")
        assert parity_finite(path) == -1

    def test_bifurcation_linearization(self):
        path = build_bifurcation_path(GalerkinSpec(4, 2.0, 0.5))
        assert parity_finite(path) == -1

    def test_singular_endpoint_rejected(self):
        path = OperatorPath((0.0, 1.0),
                            lambda t: np.diag([t, 1.0]), "general")
        with pytest.raises(NotAdmissibleError):
            parity_finite(path)


class TestEmbedChiral:
    def test_scalar_block(self):
        t = 0.3
        np.testing.assert_allclose(
            embed_chiral([[t]]), [[0.0, t], [-t, 0.0]])

    def test_zero_block(self):
        np.testing.assert_allclose(embed_chiral([[0.0]]), np.zeros((2, 2)))

    def test_doubled_block(self):
        out = embed_chiral(np.diag([0.5, 0.5]))
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[1, 3] = 0.5
        expected[2, 0] = expected[3, 1] = -0.5
        np.testing.assert_allclose(out, expected)

    def test_rectangular_symmetries(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((3, 2))
        t = embed_chiral(b)
        assert np.max(np.abs(t + t.T)) == 0.0
        j = np.diag([1.0, 1.0, 1.0, -1.0, -1.0])
        np.testing.assert_allclose(j @ t @ j, -t)


class TestSf2Finite:
    def test_equal_endpoints(self):
        t = np.array([[0.0, 2.0], [-2.0, 0.0]])
        assert sf2_finite(t, t) == 1

    def test_orientation_flip(self):
        t0 = np.array([[0.0, -1.0], [1.0, 0.0]])
        t1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert sf2_finite(t0, t1) == -1

    def test_doubled_endpoints(self):
        b0 = np.diag([-1.0, -1.0])
        b1 = np.diag([1.0, 1.0])
        assert sf2_finite(embed_chiral(b0), embed_chiral(b1)) == 1

    def test_empty(self):
        e = np.zeros((0, 0))
        assert sf2_finite(e, e) == 1

    def test_singular_rejected(self):
        t = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(NotAdmissibleError):
            sf2_finite(np.zeros((2, 2)), t)

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionError):
            sf2_finite(np.zeros((3, 3)), np.zeros((3, 3)))

    def test_basis_covariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dim = 2 * int(rng.integers(1, 5))
            m0 = rng.standard_normal((dim, dim))
            m1 = rng.standard_normal((dim, dim))
            t0, t1 = m0 - m0.T, m1 - m1.T
            o = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
            assert sf2_finite(o.T @ t0 @ o, o.T @ t1 @ o) == sf2_finite(t0, t1)

    def test_self_flow_trivial(self):
        # finite closed loops cannot carry flow: both endpoints coincide
        rng = np.random.default_rng(2)
        for _ in range(50):
            dim = 2 * int(rng.integers(1, 6))
            m = rng.standard_normal((dim, dim))
            t = m - m.T
            assert sf2_finite(t, t) == 1


class TestSf2Path:
    def test_simple_crossing(self):
        res = sf2_path(build_example_path("examp"))
        assert res.value == -1

    def test_absolute_value_twin(self):
        res = sf2_path(build_example_path("examp_abs"))
        assert res.value == 1

    def test_doubled(self):
        assert sf2_path(build_example_path("doubled")).value == 1

    def test_perturbed_doubled_invertible(self):
        res = sf2_path(build_example_path("doubled_perturbed", s=0.3))
        assert res.value == 1

    def test_window_product_matches_value(self):
        res = sf2_path(build_example_path("examp"))
        assert window_product(res) == res.value
        for w in res.windows:
            assert w.rank % 2 == 0
            assert w.t_lo < w.t_hi
            assert w.a > 0

    def test_closed_loop_trivial(self):
        def loop(t):
            s = t if t <= 1.0 else 2.0 - t
            return np.array([[0.0, s + 0.5], [-(s + 0.5), 0.0]])
        path = OperatorPath((0.0, 2.0), loop, "skew")
        assert sf2_path(path).value == 1

    def test_singular_endpoint_rejected(self):
        path = OperatorPath((0.0, 1.0),
                            lambda t: np.array([[0.0, t], [-t, 0.0]]), "skew")
        with pytest.raises(NotAdmissibleError):
            sf2_path(path)

    @pytest.mark.parametrize("scale", [1.0, 1e-12])
    def test_odd_dimension_refused_at_every_scale(self, monkeypatch, scale):
        # a 3 x 3 skew matrix is singular by structure, but its smallest
        # singular value is a rounding residue that only the tolerance
        # scale would sort into admissible or not: the odd dimension is
        # refused first.  A chiral block's structural zero is exact, so an
        # odd chiral path stays not admissible at both scales
        monkeypatch.setattr(tol, "_scale", scale)

        def odd(t):
            a = np.array([[0.0, 1.0 + t, 2.0], [0.0, 0.0, 3.0 - t], [0.0, 0.0, 0.0]])
            return a - a.T

        with pytest.raises(DimensionError, match="even ambient dimension"):
            sf2_path(OperatorPath((0.0, 1.0), odd, "skew"))
        with pytest.raises(DimensionError, match="even ambient dimension"):
            sf2_path(OperatorPath((0.0, 1.0), odd, "skew"), rng=np.random.default_rng(1))
        tall = OperatorPath((0.0, 1.0), lambda t: np.array([[1.0 + t], [2.0]]),
                            "general", None, 1)
        with pytest.raises(NotAdmissibleError):
            sf2_path(embed_chiral_path(tall))

    def test_wrong_tag_rejected(self):
        path = OperatorPath((0.0, 1.0), lambda t: np.eye(2), "general")
        with pytest.raises(ConfigError):
            sf2_path(path)

    def test_discontinuous_path_refused(self):
        def jump(t):
            v = 1.0 if t < 0.377 else -1.0
            return np.array([[0.0, v], [-v, 0.0]])
        path = OperatorPath((0.0, 1.0), jump, "skew")
        with pytest.raises(RefinementError):
            sf2_path(path)

    def test_non_finite_evaluation_is_config_error(self):
        # NaN inside the interval is invalid input, not a numpy failure
        def bad(t):
            s = np.nan if 0.85 < t < 0.95 else t - 0.5
            return np.array([[0.0, s], [-s, 0.0]])
        with pytest.raises(ConfigError, match="finite"):
            sf2_path(OperatorPath((0.0, 1.0), bad, "skew"))
        general = OperatorPath((0.0, 1.0), lambda t: bad(t)[:1, 1:], "general")
        with pytest.raises(ConfigError, match="finite"):
            parity_path(general)

    def test_interval_rescaling(self):
        # same family on a shifted interval gives the same flow
        path = OperatorPath(
            (3.0, 5.0),
            lambda t: np.array([[0.0, t - 4.0], [-(t - 4.0), 0.0]]),
            "skew")
        assert sf2_path(path).value == -1


class TestScaledPaths:
    """The flow is scale-invariant; both singular-system routes keep it so
    at 1e+-200, and the plain route at 1e+-300."""

    @pytest.mark.parametrize("factor", [1e100, 1e-100, 1e200, 1e-200])
    @pytest.mark.parametrize("name", ["examp", "examp_abs"])
    def test_scaled_example(self, name, factor):
        base = build_example_path(name)
        scaled = OperatorPath(base.interval,
                              lambda t: factor * base.evaluator(t),
                              base.symmetry_tag, base.frame, 0)
        # the same path tagged plain skew takes the plain SVD route
        plain = OperatorPath(base.interval, scaled.evaluator, "skew")
        expected = sf2_path(base).value
        for path in (scaled, plain):
            assert sf2_path(path).value == expected
            assert parity_path(path) == expected
        if name == "examp":  # near the ends of the float range too
            extreme = 1e300 if factor > 1 else 1e-300
            edge = OperatorPath(base.interval,
                                lambda t: extreme * base.evaluator(t), "skew")
            assert expected == -1
            assert sf2_path(edge).value == expected


_EPS = float(np.finfo(float).eps)


def _bounded(fn, limit=1000):
    """``fn`` that raises AssertionError after ``limit`` calls, so a
    refinement that does not terminate fails instead of hanging."""
    calls = []

    def wrapped(*args):
        calls.append(None)
        if len(calls) > limit:
            raise AssertionError(f"refinement still running after {limit} calls")
        return fn(*args)

    return wrapped


class TestRefine:
    def test_left_to_right_bisection(self):
        visited = []

        def accept(lo, hi):
            visited.append((lo, hi))
            if lo < 0.3 < hi and hi - lo > 0.2:
                return None
            return 0 if hi == 1.0 else hi - lo  # any value but None is kept

        segments, depth = _refine([0.0, 0.5, 1.0], lambda level: [accept(*level[0])],
                                  "thing", depth_first=True)
        assert visited == [(0.0, 0.5), (0.0, 0.25), (0.25, 0.5),
                           (0.25, 0.375), (0.375, 0.5), (0.5, 1.0)]
        assert segments == [(0.0, 0.25, 0.25), (0.25, 0.375, 0.125),
                            (0.375, 0.5, 0.125), (0.5, 1.0, 0)]
        assert depth == 2

    def test_left_to_right_bisection_by_level(self):
        # the level order of the same refusals: one call per level, the
        # same accepted segments in partition order and the same depth
        levels = []

        def accept(level):
            levels.append(list(level))
            return [None if lo < 0.3 < hi and hi - lo > 0.2
                    else 0 if hi == 1.0 else hi - lo for lo, hi in level]

        segments, depth = _refine([0.0, 0.5, 1.0], accept, "thing")
        assert levels == [[(0.0, 0.5), (0.5, 1.0)], [(0.0, 0.25), (0.25, 0.5)],
                          [(0.25, 0.375), (0.375, 0.5)]]
        assert segments == [(0.0, 0.25, 0.25), (0.25, 0.375, 0.125),
                            (0.375, 0.5, 0.125), (0.5, 1.0, 0)]
        assert depth == 2

    def test_level_order_replays_depth_first(self):
        # an error the level order meets first (on [0.5, 1]) gives way to
        # the one the depth-first order meets first: the floor on [0, 0.5];
        # the replay calls accept on one-segment lists
        calls = []

        def accept(level):
            calls.append(len(level))
            if any(lo == 0.5 for lo, _ in level):
                raise ValueError("met only by the level order")
            return [None] * len(level)

        with pytest.raises(RefinementError, match=r"no thing above .* on \[0\.0, "):
            _refine([0.0, 0.5, 1.0], _bounded(accept), "thing")
        assert calls[0] == 2 and set(calls[1:]) == {1}
        with pytest.raises(RefinementError, match=r"no thing above .* on \[0\.0, "):
            _refine([0.0, 0.5, 1.0], accept, "thing", depth_first=True)

    def test_long_first_level(self):
        # 64 grid segments: depth first visits them left to right, each
        # refused one's halves before the next segment, and the level order
        # accepts the same partition; an error met only by the level order
        # (its first call takes all 64) replays depth first, whose error on
        # the first segment is raised
        points = np.linspace(0.0, 1.0, 65)
        refused = lambda lo, hi: lo < 0.3 < hi and hi - lo > 1e-3
        visited, expected = [], []

        def accept(lo, hi):
            visited.append((lo, hi))
            return None if refused(lo, hi) else hi - lo

        def walk(lo, hi):
            expected.append((lo, hi))
            if refused(lo, hi):
                mid = lo + (hi - lo) / 2.0
                walk(lo, mid)
                walk(mid, hi)

        for lo, hi in zip(points[:-1], points[1:]):
            walk(lo, hi)
        segments, depth = _refine(points, lambda level: [accept(*level[0])],
                                  "thing", depth_first=True)
        assert visited == expected
        assert [s[:2] for s in segments] == [s for s in expected if not refused(*s)]
        assert depth == 4
        by_level = _refine(points, lambda level: [None if refused(lo, hi) else hi - lo
                                                  for lo, hi in level], "thing")
        assert by_level == (segments, depth)

        def failing(level):
            if len(level) > 1:
                raise ValueError("met only by the level order")
            return [None if level[0][0] == 0.0 else 0]

        with pytest.raises(RefinementError, match=r"no thing above .* on \[0\.0, "):
            _refine(points, _bounded(failing), "thing")

    def test_floor_names_the_segment(self):
        with pytest.raises(RefinementError, match=r"no thing above .* on \[0\.0, "):
            _refine([0.0, 1.0], lambda level: [None], "thing", depth_first=True)

    def test_floor_is_relative_to_the_interval(self):
        # the same refusal pattern bisects equally deep on [0, 1] and on
        # [0, 1e-9]: the floor scales with the interval length
        for length in (1.0, 1e-9):
            def accept(lo, hi, _l=length):
                refused = lo < 0.3 * _l < hi and hi - lo > 1e-5 * _l
                return None if refused else hi - lo
            segments, depth = _refine([0.0, length], lambda level: [accept(*level[0])],
                                      "thing", depth_first=True)
            assert depth == 17 and len(segments) == 18
        with pytest.raises(RefinementError):
            _refine([0.0, 1e-9], lambda level: [None if level[0][1] - level[0][0] > 1e-16
                                                else 0], "thing", depth_first=True)

    @pytest.mark.parametrize("interval", [(1.0, 1.0 + 2 * _EPS), (0.0, 1e-320)])
    def test_unbisectable_segment_raises(self, interval):
        # only empty segments are accepted: once a midpoint rounds to an
        # end, bisection makes no progress; on [0, 1e-320] the floor
        # underflows to 0 and never stops it
        accept = _bounded(lambda lo, hi: 0 if hi <= lo else None)
        with pytest.raises(RefinementError,
                           match="cannot be bisected in floating point"):
            _refine(list(interval), lambda level: [accept(*level[0])], "thing",
                    depth_first=True)

    def test_unbisectable_crossing_raises(self, monkeypatch):
        import z2flow.flow as flow_module

        monkeypatch.setattr(flow_module, "_level_windows",
                            _bounded(flow_module._level_windows))
        path = OperatorPath((1.0, 1.0 + 2 * _EPS), lambda t: np.diag(
            [(t - 1.0) / (2 * _EPS) - 0.5, 1.0]))
        assert parity_finite(path) == -1
        with pytest.raises(RefinementError, match="cannot be bisected"):
            parity_path(path)


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


class TestShortIntervals:
    """The flow does not depend on the parametrization: paths squeezed onto
    intervals far below the old absolute refinement floor of 1e-6 give the
    endpoint oracle's value."""

    @pytest.mark.parametrize("length", [1e-7, 1e-9])
    def test_diagonal_crossing(self, length):
        path = OperatorPath((0.0, length),
                            lambda t: np.diag([t / length - 0.5, 1.0]))
        assert parity_finite(path) == -1
        assert parity_path(path) == parity_finite(path)

    @pytest.mark.parametrize("length", [1e-7, 1e-9])
    def test_plane_rotation(self, length):
        path = OperatorPath((0.0, length),
                            lambda t: _rotation(np.pi * t / length))
        assert parity_path(path) == parity_finite(path) == 1

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_reparametrized_example(self, seed):
        examp = build_example_path("examp")
        path = OperatorPath((0.0, 1e-8),
                            lambda s: examp.evaluator(-1.0 + 2e8 * s),
                            "chiral-skew", examp.frame)
        rng = None if seed is None else np.random.default_rng(seed)
        oracle = sf2_finite(path.at(0.0), path.at(1e-8))
        assert sf2_path(path, rng=rng).value == oracle == -1

    @pytest.mark.parametrize("amplitude", [0.25, 0.5])
    @pytest.mark.parametrize("interval", [(0.0, 1e-320), (1.0, 1.0 + 2 * _EPS)])
    def test_sampled_crossing(self, interval, amplitude):
        # the knot arc is taken in the normalised parameter, so it stays
        # finite on a subnormal interval.  On [1, 1 + 2 ulp] the samples
        # are three adjacent floats and no segment can be bisected: the
        # Weyl bounds between consecutive samples keep the crossing value
        # within [0, amplitude] and the other above 1 - amplitude / 2, so
        # one positive-rank window holds the crossing at either amplitude
        path = OperatorPath.from_samples(
            interval, [np.diag([-amplitude, 1.0]), np.diag([amplitude, 1.0])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parity_path(path) == parity_finite(path) == -1
            for seed in range(3):
                assert parity_path(path, rng=np.random.default_rng(seed)) == -1

    def test_tall_crossing(self):
        length = 1e-8
        tall = OperatorPath((0.0, length),
                            lambda t: np.array([[t / length - 0.5], [0.0], [0.0]]),
                            "general", None, 2)
        square = OperatorPath((0.0, length),
                              lambda t: np.array([[t / length - 0.5]]))
        assert parity_path_general(tall) == parity_finite(square) == -1


def _fixed_line():
    """A 16x16 straight line whose determinant changes sign."""
    rng = np.random.default_rng(9)
    b0 = rng.standard_normal((16, 16))
    b1 = b0.copy()
    b1[0] *= -1.0
    b1 += 0.1 * rng.standard_normal((16, 16))
    return OperatorPath((0.0, 1.0), lambda t: (1 - t) * b0 + t * b1, "general")


def _diagonal_path(*entries):
    """The path t -> diag(f(t) for f in entries) of general matrices on [0, 1]."""
    return OperatorPath((0.0, 1.0), lambda t: np.diag([f(t) for f in entries]))


class TestOracleRegressions:
    """Hard paths against the endpoint oracle ``parity_finite``: crossings
    next to an endpoint, fast oscillation, a clustered crossing and a near
    touch.  The partition does not refine as the endpoints near a kernel."""

    @staticmethod
    def check(path, expected, rng=None):
        res = sf2_path(to_skew_path(path), rng=rng)
        assert res.value == parity_finite(path) == expected
        return res

    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
    @pytest.mark.parametrize("crossing", [lambda eps: eps, lambda eps: 1.0 - eps],
                             ids=["start", "end"])
    def test_crossing_near_an_endpoint(self, crossing, eps):
        # diag(t - eps, 1) and diag(t - 1 + eps, 1): the window count does
        # not grow as 1/eps
        c = crossing(eps)
        res = self.check(_diagonal_path(lambda t: t - c, lambda t: 1.0), -1)
        assert len(res.windows) <= 4

    def test_fast_oscillation(self):
        # 40 crossings, an even number
        wave = _diagonal_path(lambda t: np.sin(40 * np.pi * t + 0.1) + 0.5,
                              lambda t: 1.0)
        self.check(wave, 1)
        self.check(wave, 1, np.random.default_rng(5))

    def test_fast_oscillation_four_channels(self):
        # four waves mixed by a fixed rotation; the 41 pi channel crosses an
        # odd number of times
        waves = [(40, 0.1, 0.5), (41, 0.7, 0.3), (40, 1.3, -0.2), (40, 2.9, 0.6)]
        q = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))[0]

        def ev(t):
            d = [np.sin(k * np.pi * t + p) + c for k, p, c in waves]
            return q @ np.diag(d) @ q.T

        self.check(OperatorPath((0.0, 1.0), ev), -1)

    def test_clustered_triple_crossing(self):
        path = _diagonal_path(lambda t: t - 0.5, lambda t: t - 0.5 - 1e-4,
                              lambda t: t - 0.5 + 1e-4, lambda t: 1.0)
        self.check(path, -1)
        self.check(path, -1, np.random.default_rng(2))

    def test_tangential_touch(self):
        self.check(_diagonal_path(lambda t: (t - 0.5) ** 2 + 1e-3, lambda t: 1.0), 1)


def _near_zero_rank(path, lo, hi, theta):
    """Singular values of T whose minimum over the samples of [lo, hi] is
    below theta, rounded up to even."""
    svs = np.stack([np.linalg.svd(path.at(t), compute_uv=False)
                    for t in np.linspace(lo, hi, _SEGMENT_SAMPLES)])
    k = int((svs.min(axis=0) < theta).sum())
    return k + k % 2


class TestWindowRank:
    """Windows hold only the values that come near zero: a long segment never
    falls back to one full-rank window, which would be the endpoint oracle."""

    @pytest.mark.parametrize("seed", [None, 3])
    @pytest.mark.parametrize("which", ["bifurcation", "line"])
    def test_rank_at_most_near_zero_count(self, which, seed):
        source = (build_bifurcation_path(GalerkinSpec(mode_cutoff=4))
                  if which == "bifurcation" else _fixed_line())
        skew = to_skew_path(source)
        rng = None if seed is None else np.random.default_rng(seed)
        res = sf2_path(skew, rng=rng)
        assert res.value == parity_finite(source) == -1
        theta = 0.5 * min(np.linalg.svd(skew.at(t), compute_uv=False).min()
                          for t in skew.interval)
        for w in res.windows:
            assert w.rank <= max(2, _near_zero_rank(skew, w.t_lo, w.t_hi, theta))
        assert max(w.rank for w in res.windows) < skew.at(skew.t_start).shape[0]

    @pytest.mark.parametrize("path", [
        build_example_path("examp"),
        embed_chiral_path(_diagonal_path(lambda t: t - 0.5, lambda t: 1.0)),
        embed_chiral_path(_fixed_line()),
    ], ids=["examp", "diagonal", "line"])
    def test_interior_crossing_takes_several_windows(self, path):
        res = sf2_path(path)
        assert res.value == -1
        assert len(res.windows) > 1


def _tabled(table, tag="general"):
    """A path read only at the parameters of ``table``: the chiral skew
    doubling of its blocks, or its skew matrices."""
    path = OperatorPath((min(table), max(table)), lambda t: table[t],
                        "skew" if tag == "skew" else "general")
    return path if tag == "skew" else embed_chiral_path(path)


class TestWindowFactorPass:
    """The factors of a partition come from one stacked pass over its
    windows; of several failing windows, the first in partition order
    raises what it raises alone, whatever order the stacked stages meet
    them in (ranks, then a transport per group of equal rank, then the
    restricted ends' signs)."""

    @staticmethod
    def factors(path, accepted):
        from z2flow.flow import _window_factors

        return _window_factors(_PathData(path), accepted, {})

    def test_singular_end_before_a_failed_transport(self):
        # one rank-2 group: its transport fails on the second window, whose
        # small singular direction turns from e1 to e2, before the signs of
        # the first window's restriction at the kernel of t = 0 are read
        path = _tabled({-1.0: np.diag([1.0, 3.0]), 0.0: np.diag([0.0, 3.0]),
                        1.0: np.diag([3.0, 0.5])})
        accepted = [(-1.0, 0.0, (2.0, 2)), (0.0, 1.0, (2.0, 2))]
        with pytest.raises(RefinementError) as err:
            self.factors(path, accepted)
        assert type(err.value) is RefinementError
        assert str(err.value) == (
            "restricted endpoint singular on window [-1.0, 0.0]: matrix is "
            "singular within tolerance (sigma_min=0.000e+00)")
        assert isinstance(err.value.__cause__, SingularError)
        with pytest.raises(TransportError, match="polar factor ill-conditioned"):
            self.factors(path, accepted[1:])

    def test_failed_transport_before_a_drifted_rank(self):
        path = _tabled({0.0: np.diag([1.0, 3.0]), 1.0: np.diag([3.0, 1.0]),
                        2.0: np.diag([3.0, 3.0])})
        accepted = [(0.0, 1.0, (2.0, 2)), (1.0, 2.0, (2.0, 2))]
        with pytest.raises(TransportError, match=r"polar factor ill-conditioned "
                           r"\(sigma_min=.*\)"):
            self.factors(path, accepted)
        with pytest.raises(RefinementError) as err:
            self.factors(path, accepted[1:])
        assert type(err.value) is RefinementError
        assert str(err.value) == "window rank drifted between validation and use"

    def test_higher_rank_window_first(self):
        # the rank-2 group is passed before the rank-4 one, and both fail
        path = _tabled({0.0: np.diag([0.5, 1.0, 3.0]), 1.0: np.diag([0.0, 1.0, 3.0]),
                        2.0: np.diag([0.25, 1.0, 3.0])})
        accepted = [(0.0, 1.0, (2.0, 4)), (1.0, 2.0, (0.5, 2))]
        for windows, where in [(accepted, "[0.0, 1.0]"), (accepted[1:], "[1.0, 2.0]")]:
            with pytest.raises(RefinementError) as err:
                self.factors(path, windows)
            assert str(err.value) == (
                f"restricted endpoint singular on window {where}: matrix is "
                "singular within tolerance (sigma_min=0.000e+00)")

    def test_plain_skew_singular_end(self):
        def skew_at(t):
            return np.array([[0.0, t, 0.0, 0.0], [-t, 0.0, 0.0, 0.0],
                             [0.0, 0.0, 0.0, 3.0], [0.0, 0.0, -3.0, 0.0]])

        path = _tabled({t: skew_at(t) for t in (-1.0, 0.0, 1.0)}, "skew")
        accepted = [(-1.0, 0.0, (2.0, 2)), (0.0, 1.0, (2.0, 2))]
        with pytest.raises(RefinementError) as err:
            self.factors(path, accepted)
        assert str(err.value) == ("restricted endpoint singular on window "
                                  "[-1.0, 0.0]: skew endpoint is singular "
                                  "within tolerance")
        assert isinstance(err.value.__cause__, NotAdmissibleError)

    @pytest.mark.parametrize("seed", [None, 3])
    def test_pass_equals_its_windows_passed_alone(self, seed, monkeypatch):
        # grouping by rank changes no factor: the crossing of examp takes
        # windows of rank 0 and 2 and a kernel lift
        import z2flow.flow as flow_module

        seen = []
        factors = flow_module._window_factors

        def spy(data, accepted, lifts):
            seen.append((data, accepted, lifts))
            return factors(data, accepted, lifts)

        monkeypatch.setattr(flow_module, "_window_factors", spy)
        rng = None if seed is None else np.random.default_rng(seed)
        res = sf2_path(build_example_path("doubled"), rng=rng)
        (data, accepted, lifts), = seen
        assert lifts and {w.rank for w in res.windows} > {0}
        alone = [w for window in accepted for w in factors(data, [window], lifts)]
        assert alone == res.windows


def _opaque(path):
    """The same path behind an evaluator that declares no arc modulus."""
    return OperatorPath(path.interval, lambda t: path.evaluator(t),
                        path.symmetry_tag, path.frame, path.declared_index)


def _tagged_sample_path(rng, tag):
    """A from_samples path of the given tag on irregular knots, and its knots."""
    ts = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, 3)), [1.0]])
    if tag == "general":
        return OperatorPath.from_samples(
            ts, [rng.standard_normal((3, 3)) for _ in ts]), ts
    if tag == "skew":
        mats = [rng.standard_normal((4, 4)) for _ in ts]
        return OperatorPath.from_samples(ts, [g - g.T for g in mats], "skew"), ts
    mats = [embed_chiral(rng.standard_normal((3, 2))) for _ in ts]
    if tag == "chiral-selfadjoint":  # [[0, B], [B^T, 0]]
        for m in mats:
            m[3:, :3] *= -1.0
    return OperatorPath.from_samples(ts, mats, tag, ChiralFrame(3, 2)), ts


def _straight_line(monkeypatch):
    """The value of ``straight_line_sf2`` on the n = 4 rank-one pair and the
    path it hands to the engine."""
    seen = []

    def spy(path, *, rng=None):
        seen.append(path)
        return sf2_path(path, rng=rng)

    monkeypatch.setattr(pairs_module, "sf2_path", spy)
    structure, o = build_rank_one_pair(4)
    pair = FredholmPair(structure, ComplexStructure(o @ structure.matrix @ o.T,
                                                     structure.frame))
    value = straight_line_sf2(pair)
    assert len(seen) == 1
    return value, seen[0]


_SAMPLE_TAGS = ["general", "skew", "chiral-skew", "chiral-selfadjoint"]
_MODULUS_PATHS = {
    "ring-k1": lambda: build_insulator_path(RingShiftSpec(8, 1)),
    "ring-k2": lambda: build_insulator_path(RingShiftSpec(8, 2)),
    "ring-k3": lambda: build_insulator_path(RingShiftSpec(8, 3)),
    "ring-fibre2": lambda: build_insulator_path(RingShiftSpec(6, 1, 2)),
    "ring-disorder": lambda: build_insulator_disordered(RingShiftSpec(8), 0.1, 3),
    "bifurcation": lambda: build_bifurcation_path(GalerkinSpec(mode_cutoff=4)),
}


class TestPiecewiseAffine:
    """Paths that declare an arc modulus (every sampled path, the ring, the
    bifurcation model and the pair line) are certified by arc length
    instead of sampled, so a steep ramp is no jump."""

    @pytest.mark.parametrize("height", [0.5, 0.8])
    def test_steep_ramp(self, height):
        # the first entry drops by `height` over 1e-9 at t = 0.5, more than
        # the step bound of a sampled (opaque) path
        ts = [0.0, 0.5, 0.5 + 1e-9, 1.0]
        firsts = [1.0, height / 2, -height / 2, -1.0]
        path = OperatorPath.from_samples(ts, [np.diag([f, 2.0]) for f in firsts])
        assert parity_path(path) == parity_finite(path) == -1
        assert parity_path(path, rng=np.random.default_rng(6)) == -1

    @pytest.mark.parametrize("case", _SAMPLE_TAGS + list(_MODULUS_PATHS)
                             + ["line", "line-dense"])
    def test_arc_bounds_every_step(self, case, monkeypatch):
        # kinks: where the arc may bend; piece: a stretch where it is exact
        if case in _SAMPLE_TAGS:
            path, kinks = _tagged_sample_path(np.random.default_rng(51), case)
            piece = kinks[1:3]
        else:
            path = (_declared_arc_paths(case, monkeypatch)[0]
                    if case.startswith("line") else _MODULUS_PATHS[case]())
            kinks = piece = np.array(path.interval)
        data = _PathData(to_skew_path(path))
        assert data.arc is not None
        t0, t1 = path.interval
        grid = np.unique(np.concatenate([
            np.linspace(t0, t1, 41), kinks,
            np.clip(kinks - 1e-7, t0, t1), np.clip(kinks + 1e-7, t0, t1)]))
        mats = np.stack([data.at(t)[0] for t in grid])
        arc = data.arc(grid)
        assert np.all(np.diff(arc) >= 0.0)
        i, j = np.triu_indices(len(grid), 1)
        dist = np.linalg.svd(mats[j] - mats[i], compute_uv=False)[:, 0]
        assert np.all(dist <= arc[j] - arc[i] + 1e-12 * (arc[-1] - arc[0]))
        # the bound is tight within a piece
        lo, hi = np.searchsorted(grid, piece)
        assert dist[(i == lo) & (j == hi)][0] == pytest.approx(arc[hi] - arc[lo])

    def test_knot_arc_is_exact(self):
        # the knots are one stack without a path step anchor: each step of
        # the arc is its difference's own SVD norm, bitwise
        ts = np.linspace(0.0, 1.0, 65)
        mats = TestBatchedSegmentChecks.line(np.random.default_rng(57), n=4, samples=65)
        arc = OperatorPath.from_samples(ts, mats).evaluator.arc(ts)
        exact = np.concatenate([[0.0], np.cumsum(exact_step_norms(mats))])
        assert arc.tobytes() == exact.tobytes()

    def test_declared_arcs_reach_the_engine(self, monkeypatch):
        bifurcation = build_bifurcation_path(GalerkinSpec(mode_cutoff=4))
        assert to_skew_path(bifurcation).evaluator.arc is bifurcation.evaluator.arc
        general = random_admissible_path(np.random.default_rng(52), 3)
        assert general.evaluator.arc is not None
        assert to_skew_path(general).evaluator.arc is general.evaluator.arc
        assert to_skew_path(_opaque(general)).evaluator.arc is None

        value, line = _straight_line(monkeypatch)
        assert value == -1
        # ||U1 - U0||_2 = 2 for the rank-one reflection of the identity block
        np.testing.assert_allclose(line.evaluator.arc(np.array([0.0, 1.0])),
                                   [0.0, 2.0])

    def test_certified_commands_take_no_step_norms(self, monkeypatch, capsys):
        import z2flow.cli as cli
        import z2flow.flow as flow_module

        def refuse(steps, anchor=None):
            raise AssertionError("step norms solved on a certified path")

        monkeypatch.setattr(flow_module, "_step_norms", refuse)
        readme = str(Path(__file__).parent / "data" / "readme_chiral_skew.json")
        for argv in (["insulator", "--M", "12"],
                     ["insulator", "--M", "12", "--disorder", "0.1"],
                     ["bifurcation"], ["parity", "--path-file", readme]):
            assert cli.main(argv) == 0, argv
        assert _straight_line(monkeypatch)[0] == -1
        # an opaque path still takes them
        with pytest.raises(AssertionError, match="step norms"):
            sf2_path(build_example_path("examp"))

    def test_declared_lipschitz_callable(self):
        # a library user declares the Lipschitz bound 40 pi of an oscillating
        # callable; the sampled version takes 216 windows
        def wave(t):
            return np.diag([np.sin(40 * np.pi * t + 0.1), 1.0])

        declared = OperatorPath((0.0, 1.0), wave)
        wave.arc = lambda ts: 40 * np.pi * np.asarray(ts)
        res = sf2_path(to_skew_path(declared))
        assert res.value == parity_finite(declared) == 1
        assert len(res.windows) <= 128
        opaque = sf2_path(to_skew_path(_opaque(declared)))
        assert opaque.value == res.value
        assert len(opaque.windows) > len(res.windows)

    def test_declared_path_agrees_with_opaque(self):
        rng = np.random.default_rng(53)
        paths = [random_admissible_path(rng, n, knots=k)
                 for n, k in [(1, 2), (2, 3), (3, 4), (4, 3), (5, 5)]]
        paths += [random_chiral_skew_path(rng, n) for n in (1, 2, 3)]
        # a declared sum lists its parts' windows once per summand, so the
        # window count is compared part by part and the whole sum by value
        bifurcation = build_bifurcation_path(GalerkinSpec(mode_cutoff=4))
        paths += _distinct_parts(bifurcation)
        paths.append(bifurcation)
        for path in paths:
            declared, opaque = to_skew_path(path), to_skew_path(_opaque(path))
            res, ref = sf2_path(declared), sf2_path(opaque)
            assert res.value == ref.value
            if path is not bifurcation:
                assert len(res.windows) <= len(ref.windows)
            for seed in range(3):
                assert sf2_path(declared, rng=np.random.default_rng(seed)).value \
                    == sf2_path(opaque, rng=np.random.default_rng(seed)).value == ref.value


def _declared_arc_paths(case, monkeypatch):
    """Paths that declare an arc modulus, by case name; a declared direct
    sum gives its distinct parts, and a declared motion its reduced path,
    whose windows its flow lists."""
    rng = np.random.default_rng(59)
    if case == "general":
        return [random_admissible_path(rng, n, knots=4) for n in (2, 3, 4)]
    if case == "skew":
        ts = np.linspace(0.0, 1.0, 4)
        return [OperatorPath.from_samples(
            ts, [g - g.T for g in rng.standard_normal((4, n, n))], "skew")
            for n in (2, 4, 6)]
    if case == "chiral-skew":
        return [random_chiral_skew_path(rng, n, knots=4) for n in (1, 2, 3)]
    if case in ("line", "line-dense"):
        line = _straight_line(monkeypatch)[1]
        if case == "line":  # the rank-one line declares its motion
            return [_reduced(line)]
        dense = lambda t: line.block(t)  # the declared motion stripped
        dense.arc = line.evaluator.arc
        return [OperatorPath(line.interval, dense)]
    if case == "non-dyadic":  # its grids and midpoints are not exact binary fractions
        return [random_admissible_path(rng, n, knots=4, interval=(0.3, 1.7))
                for n in (2, 3)]
    if case == "ring-disorder-dense":  # the declared motion stripped
        ring = _MODULUS_PATHS["ring-disorder"]()
        dense = lambda t: ring.block(t)
        dense.arc = ring.evaluator.arc
        return [OperatorPath(ring.interval, dense)]
    path = _MODULUS_PATHS[case]()
    if getattr(path.evaluator, "motion", None) is not None:
        return [_reduced(to_skew_path(path))]
    if getattr(path.evaluator, "parts", None) is None:
        return [path]
    return _distinct_parts(path)


def _distinct_parts(path):
    """The distinct parts of a declared sum as paths, a family member as
    its own path."""
    parts = {id(p): p for p, _, _ in path.evaluator.parts}.values()
    return [p.path if isinstance(p, FamilyMember) else p for p in parts]


class TestArcEnvelope:
    """The Weyl envelope of a declared arc holds between the engine's
    samples: at 65 equispaced points of every window's segment, exactly
    ``rank`` singular values of T lie below the radius ``a``."""

    @pytest.mark.parametrize("case", ["general", "skew", "chiral-skew", "ring-k1",
                                      "ring-k2", "ring-disorder", "ring-disorder-dense",
                                      "bifurcation", "line", "line-dense", "non-dyadic"])
    def test_windows_hold_their_rank_between_samples(self, case, monkeypatch):
        for path in _declared_arc_paths(case, monkeypatch):
            skew = to_skew_path(path)
            assert _PathData(skew).arc is not None
            for seed in (None, 5):
                rng = None if seed is None else np.random.default_rng(seed)
                res = sf2_path(skew, rng=rng)
                assert res.value == window_product(res)
                for w in res.windows:
                    ts = np.linspace(w.t_lo, w.t_hi, 65)
                    svs = np.linalg.svd(np.stack([skew.at(t) for t in ts]),
                                        compute_uv=False)
                    assert np.all((svs < w.a).sum(axis=1) == w.rank), (case, w)

    def test_envelope_near_the_largest_float(self):
        # singular values near 1.8e308: their sum overflows, and so does the
        # upper bound of a loose declared arc; neither may warn
        sampled = OperatorPath.from_samples(
            [0.0, 1.0], [1.7e308 * np.eye(2), 1.6e308 * np.eye(2)])

        def flat(t):
            return 1.7e308 * np.eye(2)

        flat.arc = lambda ts: 0.3e308 * np.asarray(ts)
        loose = OperatorPath((0.0, 1.0), flat)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for path in (sampled, loose):
                res = sf2_path(to_skew_path(path))
                assert res.value == parity_finite(path) == 1
                assert [w.rank for w in res.windows] == [0]


class TestArcContract:
    """A declared arc must give one nondecreasing value per parameter; any
    other arc is refused with ConfigError by every engine, before a path
    whose arc returns to its start value is pinned to one matrix."""

    CASES = {
        # |t| grows by 0 over [-1, 1], which declared the path constant
        "abs": ((-1.0, 1.0), lambda t: np.array([[t]]),
                lambda ts: np.abs(np.asarray(ts))),
        "falling": ((0.0, 1.0), lambda t: np.array([[t - 0.5]]),
                    lambda ts: -np.asarray(ts)),
        "scalar": ((0.0, 1.0), lambda t: np.array([[t - 0.5]]),
                   lambda ts: 1.0),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_refused_by_every_engine(self, case):
        interval, matrix, arc = self.CASES[case]

        def evaluator(t):
            return matrix(t)

        evaluator.arc = arc
        path = OperatorPath(interval, evaluator)
        assert parity_finite(path) == -1
        for engine in (lambda: parity_path(path),
                       lambda: sf2_path(embed_chiral_path(path)),
                       lambda: parity_via_pairs(embed_chiral_path(path))):
            with pytest.raises(ConfigError, match="arc must return one value "
                                                  "per parameter, nondecreasing"):
                engine()


def _engines(path, seed):
    """The values of the three parity engines on a general path, each with
    the generator of ``seed`` (None: no generator), as callables."""
    rng = lambda: None if seed is None else np.random.default_rng(seed)
    return (lambda: parity_path(path, rng=rng()),
            lambda: sf2_path(embed_chiral_path(path), rng=rng()).value,
            lambda: parity_via_pairs(embed_chiral_path(path), rng=rng()))


def _declared(interval, matrix, arc):
    """The path of ``matrix`` on ``interval`` whose evaluator declares
    ``arc``."""
    def evaluator(t):
        return matrix(t)

    evaluator.arc = arc
    return OperatorPath(interval, evaluator)


def _family_sum(stack, arc, interval=(0.0, 1.0)):
    """The direct sum of the members of one path family, each listed once."""
    family = PathFamily(interval, stack, arc)
    return OperatorPath.direct_sum([family[i] for i in range(len(family))])


def _calm_stack(t, m=4):
    """m calm 2 x 2 members diag(2 + i + t, 3): none comes near zero."""
    out = np.zeros((m, 2, 2))
    out[:, 0, 0] = 2.0 + np.arange(m) + t
    out[:, 1, 1] = 3.0
    return out


def _calm_arc(ts, m=4):
    return np.repeat(np.asarray(ts, dtype=float)[:, None], m, axis=1)


class TestArcAudit:
    """A declared arc that grows by less than the path moves between two
    matrices the engine holds raises ConfigError instead of returning a
    wrong value: [[t - 0.5]] on [0, 1] has parity -1, and an arc of 0 or of
    0.01 t would certify it as +1."""

    @pytest.mark.parametrize("seed", [None, 4])
    @pytest.mark.parametrize("arc", [
        lambda ts: np.zeros(np.shape(ts)),
        lambda ts: 0.01 * np.asarray(ts),
    ], ids=["zero", "too-small"])
    def test_lying_arc_refused_by_every_engine(self, arc, seed):
        path = _declared((0.0, 1.0), lambda t: np.array([[t - 0.5]]), arc)
        assert parity_finite(path) == -1
        for engine in _engines(path, seed):
            with pytest.raises(ConfigError, match="the declared arc grows by"):
                engine()

    @pytest.mark.parametrize("seed", [None, 4])
    @pytest.mark.parametrize("lie", ["zero", "too-small", "crossing"])
    def test_lying_member_arc_refused_by_every_engine(self, lie, seed):
        # member 2 of a calm family moves by 1, 1 or 4 (through zero) over
        # [0, 1] while its arc declares 0, 0.5 and 0.01
        def stack(t):
            out = _calm_stack(t)
            if lie == "crossing":
                out[2, 0, 0] = 4.0 * t - 2.0
            return out

        def arc(ts):
            out = _calm_arc(ts)
            out[:, 2] *= {"zero": 0.0, "too-small": 0.5, "crossing": 0.01}[lie]
            return out

        path = _family_sum(stack, arc)
        for engine in _engines(path, seed):
            with pytest.raises(ConfigError, match="the declared arc grows by"):
                engine()

    @staticmethod
    def moving(arc_c):
        """diag(t - 1/2, 1), declaring its motion e1 c(t) e1^T, c(t) = [[t]]
        of arc ``arc_c``: its reduced path 1 - 2t moves by 2, c by 1."""
        def c(t):
            return np.array([[t]])

        c.arc = arc_c
        path = _declared((0.0, 1.0), lambda t: np.diag([t - 0.5, 1.0]),
                         lambda ts: np.asarray(ts, dtype=float))
        e1 = np.eye(2)[:, :1]
        path.evaluator.motion = (e1, e1, OperatorPath((0.0, 1.0), c))
        return path

    @pytest.mark.parametrize("seed", [None, 4])
    @pytest.mark.parametrize("arc", [
        lambda ts: np.zeros(np.shape(ts)),
        lambda ts: 0.01 * np.asarray(ts),
    ], ids=["zero", "too-small"])
    def test_lying_motion_arc_refused_by_every_engine(self, arc, seed):
        # c's own check fires, on c's step of 1, before the reduced path's
        path = self.moving(arc)
        assert parity_finite(path) == -1
        for engine in _engines(path, seed):
            with pytest.raises(ConfigError, match=r"the declared arc grows by .* "
                               r"max \|M\(t\) - M\(s\)\| = 1\.000e\+00"):
                engine()

    def test_honest_motion_arc_adds_no_evaluation(self):
        path = self.moving(lambda ts: np.asarray(ts, dtype=float))
        res = sf2_path(embed_chiral_path(path))
        assert (res.value, res.evaluations, res.motion_rank) == (-1, 11, 1)
        assert parity_via_pairs(embed_chiral_path(path)) == -1

    def test_honest_constant_part_keeps_one_solve(self, monkeypatch):
        # a path whose arc does not grow is evaluated at its end to compare,
        # never solved there: one record, one evaluation
        solves = spy_solves(monkeypatch)
        flat = _declared((0.0, 1.0), lambda t: np.diag([2.0, 3.0]),
                         lambda ts: np.zeros(np.shape(ts)))
        res = sf2_path(embed_chiral_path(flat))
        solved = [m.shape for m, _, _ in solves]
        assert (res.value, res.evaluations, solved) == (1, 1, [(2, 2)])


    @staticmethod
    def step(size):
        """diag(4, 4) and the same with size added at (0, 1): the step is
        size, and the larger matrix's scale stays 4."""
        m_s = np.diag([4.0, 4.0])
        m_t = m_s.copy()
        m_t[0, 1] = size
        return m_s, m_t

    def test_slack_boundary(self):
        # a step beyond the arc passes within tol.sym of the scale
        from z2flow.flow import _require_arc

        slack = tol.sym(4.0)
        _require_arc(0.0, 1.0, *self.step(1.0 + 0.5 * slack), 1.0)
        with pytest.raises(ConfigError, match="the declared arc grows by 1.000e"):
            _require_arc(0.0, 1.0, *self.step(1.0 + 2.0 * slack), 1.0)

    def test_stack_names_its_first_lying_pair(self):
        from z2flow.flow import _require_arc

        slack = tol.sym(4.0)
        pairs = [self.step(size) for size in
                 (1.0 + 0.5 * slack, 3.0, 1.0 + 0.5 * slack, 2.0)]
        m_s, m_t = (np.array(side) for side in zip(*pairs))
        ts = np.arange(5.0)
        _require_arc(ts[:-1], ts[1:], m_s, m_t, np.array([1.0, 3.0, 1.0, 2.0]))
        with pytest.raises(ConfigError, match=r"grows by 1\.000e\+00 from t=1\.0 "
                           r"to t=2\.0, but the path moves by max \|M\(t\) - "
                           r"M\(s\)\| = 3\.000e\+00"):
            _require_arc(ts[:-1], ts[1:], m_s, m_t, np.array([1.0, 1.0, 1.0, 1.0]))


class TestPathFamily:
    """A path family's calm members are certified from one solve of each
    endpoint stack, with the windows, radii and evaluation counts of the
    same sum declared part by part."""

    @staticmethod
    def by_parts(stack, arc, interval=(0.0, 1.0)):
        """The sum of ``_family_sum`` with every member a path of its own."""
        m = len(stack(interval[0]))
        parts = []
        for i in range(m):
            ev = lambda t, i=i: stack(t)[i]
            ev.arc = lambda ts, i=i: arc(ts)[:, i]
            parts.append(OperatorPath(interval, ev))
        return OperatorPath.direct_sum(parts)

    @staticmethod
    def record(res):
        return (int(res.value), res.evaluations, res.refinement_depth,
                [(float(w.t_lo).hex(), float(w.t_hi).hex(), float(w.a).hex(),
                  w.rank, int(w.factor), w.summand) for w in res.windows])

    def mixed(self):
        # members 0, 1 and 3 calm; member 2 crosses zero at t = 0.5
        def stack(t):
            out = _calm_stack(t)
            out[2, 0, 0] = 2.0 * t - 1.0
            return out

        def arc(ts):
            out = _calm_arc(ts)
            out[:, 2] *= 2.0
            return out

        return stack, arc

    def test_family_equals_the_sum_part_by_part(self):
        stack, arc = self.mixed()
        family, parts = _family_sum(stack, arc), self.by_parts(stack, arc)
        res = sf2_path(embed_chiral_path(family))
        assert self.record(res) == self.record(sf2_path(embed_chiral_path(parts)))
        assert res.value == parity_finite(family) == -1
        for seed in range(5):
            values = [engine() for engine in
                      _engines(family, seed) + _engines(parts, seed)]
            assert values == [-1] * 6

    def test_only_refused_members_are_walked(self, monkeypatch):
        import z2flow.flow as flow_module

        walked = []
        windowed = flow_module._windowed_flow

        def spy(path, rng):
            walked.append(path.block(0.25).tolist())
            return windowed(path, rng)

        monkeypatch.setattr(flow_module, "_windowed_flow", spy)
        stack, arc = self.mixed()
        res = sf2_path(embed_chiral_path(_family_sum(stack, arc)))
        assert walked == [stack(0.25)[2].tolist()]  # the crossing member alone
        assert [w.rank for w in res.windows if w.summand != 2] == [0, 0, 0]

    def test_members_without_growth_or_arc_are_walked(self):
        # a constant member is solved once, and a family without an arc
        # is walked member by member as opaque paths
        def stack(t):
            out = _calm_stack(t)
            out[1] = np.diag([5.0, 6.0])
            return out

        def arc(ts):
            out = _calm_arc(ts)
            out[:, 1] = 0.0
            return out

        res = sf2_path(embed_chiral_path(_family_sum(stack, arc)))
        assert (res.value, res.evaluations) == (1, 2 + 1 + 2 + 2)
        opaque = sf2_path(embed_chiral_path(_family_sum(stack, None)))
        assert opaque.value == 1 and opaque.evaluations > res.evaluations

    def test_only_constant_members_listed(self):
        # no listed member moves: the batch solves nothing, and each
        # distinct member is one matrix solved once, one rank-0 window per
        # listing
        family = PathFamily((0.0, 1.0), lambda t: _calm_stack(0.0),
                            lambda ts: 0.0 * _calm_arc(ts))
        path = OperatorPath.direct_sum([family[0], family[1], family[0]])
        res = sf2_path(embed_chiral_path(path))
        assert (res.value, res.evaluations) == (1, 2)
        assert [(w.rank, w.summand) for w in res.windows] == [(0, 0), (0, 1), (0, 2)]
        assert parity_via_pairs(embed_chiral_path(path)) == 1

    def test_member_path_evaluates_nothing(self):
        family = PathFamily((0.0, 1.0), _calm_stack, _calm_arc)
        calls = []
        evaluator = family.evaluator
        family.evaluator = lambda t: calls.append(t) or evaluator(t)
        paths = [family[i].path for i in range(len(family))]
        assert calls == []
        assert [p.block_shape for p in paths] == [(2, 2)] * 4 and calls == []
        assert np.array_equal(paths[1].at(0.5), _calm_stack(0.5)[1])
        assert calls == [0.5]

    @pytest.mark.parametrize("seed", [None, 2])
    def test_singular_member_at_an_endpoint(self, seed):
        def stack(t):
            out = _calm_stack(t)
            out[3, 1, 1] = t  # singular at t = 0
            return out

        path = _family_sum(stack, lambda ts: 3.0 * _calm_arc(ts))
        for engine in _engines(path, seed):
            with pytest.raises(NotAdmissibleError,
                               match=r"path endpoint at t=0\.0 is singular"):
                engine()

    @pytest.mark.parametrize("fault", ["shape", "nan", "decreasing"])
    def test_typed_errors(self, fault):
        def stack(t):
            out = _calm_stack(t)
            if t == 1.0 and fault == "shape":
                return out[:, :1, :1]
            if t == 1.0 and fault == "nan":
                out[1, 0, 1] = math.nan
            return out

        def arc(ts):
            out = _calm_arc(ts)
            if fault == "decreasing":
                out[:, 1] = -out[:, 1]
            return out

        error = {"shape": DimensionError, "nan": ConfigError,
                 "decreasing": ConfigError}[fault]
        path = _family_sum(stack, arc)
        for engine in _engines(path, None):
            with pytest.raises(error):
                engine()

    def test_members_and_declaration_checks(self):
        family = PathFamily((0.0, 1.0), _calm_stack, _calm_arc)
        assert len(family) == 4 and family[1] is family[1]
        assert family[1].block_shape == (2, 2)
        np.testing.assert_array_equal(family[1].path.at(0.5),
                                      _calm_stack(0.5)[1])
        for bad in (4, -1, 1.0):
            with pytest.raises(ConfigError, match="no member"):
                family[bad]
        with pytest.raises(DimensionError, match="stack"):
            PathFamily((0.0, 1.0), lambda t: np.eye(2))
        with pytest.raises(ConfigError, match="interval"):
            PathFamily((1.0, 0.0), _calm_stack)
        other = PathFamily((0.0, 2.0), _calm_stack)
        with pytest.raises(ConfigError, match="one interval"):
            OperatorPath.direct_sum([family[0], other[1]])
        # a family's listings are placed as any part's
        total = OperatorPath.direct_sum([family[2], family[0], family[2]])
        np.testing.assert_array_equal(
            total.at(0.5), _block_diag(*_calm_stack(0.5)[[2, 0, 2]]))


def _block_diag(*blocks):
    """Block-diagonal matrix of square blocks."""
    n = sum(b.shape[0] for b in blocks)
    out, at = np.zeros((n, n)), 0
    for b in blocks:
        out[at:at + b.shape[0], at:at + b.shape[1]] = b
        at += b.shape[0]
    return out


class TestSolvedSampleReuse:
    """A half of a refused segment, certified or opaque, first tries its
    parent's samples, which it finds solved (on an opaque path with their
    step norms), and solves only the odd points of its own grid when they
    do not certify it."""

    @staticmethod
    def per_segment(monkeypatch):
        """Spy on the level search one segment at a time: per segment, its
        (lo, hi), the records solved (values-only; frames are solved where
        a window reads them), the step-norm stacks taken, the new
        evaluations and the verdict."""
        import z2flow.flow as flow_module

        solves, stacks, segments = spy_solves(monkeypatch), [], []
        inner, norms = flow_module._level_windows, flow_module._step_norms

        def spy_norms(steps, anchor=None):
            stacks.append(steps)
            return norms(steps, anchor)

        def spy(data, level, rng):
            windows = []
            for segment in level:
                before = len(solves), len(stacks), data.evaluations
                windows += inner(data, [segment], rng)
                records = sum(uv is False for _, _, uv in solves[before[0]:])
                segments.append((segment, records, len(stacks) - before[1],
                                 data.evaluations - before[2], windows[-1]))
            return windows

        monkeypatch.setattr(flow_module, "_step_norms", spy_norms)
        monkeypatch.setattr(flow_module, "_level_windows", spy)
        return segments, stacks

    def test_opaque_half_certified_on_its_parents_samples(self, monkeypatch):
        segments, _ = self.per_segment(monkeypatch)
        res = sf2_path(embed_chiral_path(_fixed_line()))
        assert res.value == -1
        # halves accepted on their parent's 5 samples and step norms: no
        # record solve, no step stack, no new evaluation
        reused = [segment for segment, solved, stacked, new, window in segments
                  if window is not None and (solved, stacked, new) == (0, 0, 0)]
        assert len(reused) == 5
        # every other half solves its 4 odd points
        assert {new for _, _, _, new, _ in segments[1:]} == {0, 4}
        assert res.evaluations == _SEGMENT_SAMPLES + sum(s[3] for s in segments[1:])

    @pytest.mark.parametrize("seed", [None, 7])
    def test_no_pair_is_stepped_twice(self, monkeypatch, seed):
        rng = np.random.default_rng(17)
        paths = [_fixed_line(),
                 _diagonal_path(lambda t: np.sin(40 * np.pi * t + 0.1), lambda t: 1.0),
                 _opaque(random_admissible_path(rng, 5, knots=4))]
        _, stacks = self.per_segment(monkeypatch)
        for path in paths:
            stacks.clear()
            res = sf2_path(embed_chiral_path(path),
                           rng=None if seed is None else np.random.default_rng(seed))
            assert res.value == parity_finite(path)
            # a row of new pairs is one (samples, n, n) stack of its
            # consecutive matrices, each stacked once
            assert stacks and all(s.ndim == 3 for s in stacks)
            pairs = [s[i:i + 2].tobytes() for s in stacks for i in range(len(s) - 1)]
            assert len(pairs) == len(set(pairs))

    def test_opaque_paths_match_the_oracle(self):
        rng = np.random.default_rng(61)
        for i in range(64):
            dim = 1 + i % 8
            path = (random_invertible_path(rng, dim) if i % 4 == 3
                    else random_admissible_path(rng, dim, knots=2 + i % 3))
            flow_rng = np.random.default_rng(i) if i % 2 else None
            assert parity_path(_opaque(path), rng=flow_rng) == parity_finite(path), i

    def test_ring_solves_each_parameter_once(self, monkeypatch):
        solves = spy_solves(monkeypatch)
        res = sf2_path(to_skew_path(build_insulator_path(RingShiftSpec(12))))
        solved = [(m.shape, m.tobytes()) for m, _, _ in solves]
        assert res.value == -1
        assert res.evaluations == 10 and len(solved) == 9
        # the link part [[cos(pi t)]] solved at 9 parameters; the constant
        # identity part evaluated at one, its values pinned without a solve
        links = [b for shape, b in solved if shape == (1, 1)]
        assert len(links) == len(set(links)) == 9
        assert [shape for shape, _ in solved if shape != (1, 1)] == []

    def test_halves_solve_four_new_samples(self, monkeypatch):
        import z2flow.flow as flow_module

        segments = []  # (new samples solved, refused) per segment
        inner = flow_module._level_windows

        def spy(data, level, rng):  # the level's segments searched one by one
            windows = []
            for segment in level:
                before = data.evaluations
                windows += inner(data, [segment], rng)
                segments.append((data.evaluations - before, windows[-1] is None))
            return windows

        monkeypatch.setattr(flow_module, "_level_windows", spy)
        rng = np.random.default_rng(5)
        path = OperatorPath.from_samples(np.linspace(0.3, 1.7, 4),
                                         rng.standard_normal((4, 3, 3)))
        res = sf2_path(to_skew_path(path))
        assert res.value == parity_finite(path) == -1
        # the whole interval solves its 7 interior samples; every later
        # segment is a half of a refused one
        assert segments[0] == (_SEGMENT_SAMPLES - 2, True)
        halves = [new for new, _ in segments[1:]]
        assert set(halves) == {0, 4}
        assert res.evaluations == _SEGMENT_SAMPLES + sum(halves)

    def test_half_grids_start_from_their_parent(self):
        from z2flow.flow import _segment_grid

        for lo, hi in [(0.3, 1.7), (-0.7, 0.11), (0.0, 1.0), (1e-3, 2.0 / 3.0)]:
            grid = _segment_grid(lo, hi)
            np.testing.assert_allclose(grid, np.linspace(lo, hi, _SEGMENT_SAMPLES),
                                       rtol=0, atol=1e-15)
            mid = lo + (hi - lo) / 2.0  # _refine's midpoint
            assert grid[_SEGMENT_SAMPLES // 2] == mid
            assert list(_segment_grid(lo, mid)[::2]) == list(grid[:_SEGMENT_SAMPLES // 2 + 1])
            assert list(_segment_grid(mid, hi)[::2]) == list(grid[_SEGMENT_SAMPLES // 2:])


    @staticmethod
    def bisected(lo, hi):
        """The grid by three rounds of _refine's midpoint a + (b - a) / 2."""
        ts = [lo, hi]
        while len(ts) < _SEGMENT_SAMPLES:
            grid = ts[:1]
            for a, b in zip(ts[:-1], ts[1:]):
                grid += [a + (b - a) / 2.0, b]
            ts = grid
        return ts

    def test_grid_is_the_bisection_bitwise(self):
        from z2flow.flow import _segment_grid

        rng = np.random.default_rng(29)
        lo = rng.uniform(-1.0, 1.0, 400) * 10.0 ** rng.uniform(-300, 300, 400)
        width = rng.uniform(0.0, 1.0, 400) * 10.0 ** rng.uniform(-300, 300, 400)
        tiny = 5e-324  # subnormal intervals, down to a few units of the smallest float
        intervals = ([(a, a + w) for a, w in zip(lo.tolist(), width.tolist())]
                     + [(0.0, 8 * tiny), (-3 * tiny, 13 * tiny), (1e-310, 3e-310),
                        (-1e300, 1e300), (1e308, 1.7e308), (-1.7e308, 1.7e308),
                        (1.0, 1.0 + 2.0 ** -50)])
        for lo, hi in intervals:
            grid = _segment_grid(lo, hi)
            assert [t.hex() for t in grid.tolist()] == \
                [t.hex() for t in self.bisected(lo, hi)]


class TestDirectSum:
    """Declared direct sums: assembled by placement, solved part by part."""

    @staticmethod
    def ramp(lo, hi):
        return OperatorPath.from_samples([0.0, 1.0], [[[lo]], [[hi]]])

    def test_assembly_and_declarations(self):
        a, b = self.ramp(-1.0, 1.0), self.ramp(2.0, 3.0)
        total = OperatorPath.direct_sum([a, b, a], [[2], [0], [1]], [[0], [2], [1]])
        np.testing.assert_array_equal(
            total.at(0.25), [[0.0, 0.0, 2.25], [0.0, -0.5, 0.0], [-0.5, 0.0, 0.0]])
        assert total.block_shape == (3, 3)
        skew = to_skew_path(total)
        assert skew.evaluator.parts is total.evaluator.parts
        # the shape is computed once, by direct_sum, and forwarded
        assert skew.block_shape is total.block_shape is total.evaluator.block_shape
        res = sf2_path(skew)
        assert res.value == parity_finite(total) == 1  # (-1) * 1 * (-1)
        assert [w.summand for w in res.windows].count(1) == 1
        assert res.evaluations == sf2_path(to_skew_path(a)).evaluations + 2

    def test_default_placement_is_block_diagonal(self):
        a = OperatorPath.from_samples([0.0, 1.0], [np.eye(2), 2 * np.eye(2)])
        b = self.ramp(-1.0, 1.0)
        total = OperatorPath.direct_sum([a, b])
        np.testing.assert_array_equal(total.at(0.0), np.diag([1.0, 1.0, -1.0]))
        assert parity_path(total) == -1

    def test_grouped_scatter_matches_per_listing_placement(self):
        # repeated, rectangular and 1 x 1 parts on permuted rows and columns:
        # the evaluator's one assignment per distinct part fills exactly the
        # entries of one np.ix_ assignment per listing
        rng = np.random.default_rng(47)
        shapes = [(2, 3), (1, 1), (3, 2), (2, 2)]
        kinds = [OperatorPath.from_samples(
            [0.0, 0.4, 1.0], rng.standard_normal((3,) + shape)) for shape in shapes]
        listed = [kinds[i] for i in (0, 1, 0, 2, 1, 3, 1, 2)]
        splits = [np.cumsum([p.block_shape[axis] for p in listed])[:-1]
                  for axis in (0, 1)]
        rows = np.split(rng.permutation(15), splits[0])
        cols = np.split(rng.permutation(15), splits[1])
        total = OperatorPath.direct_sum(listed, rows, cols)
        for t in (0.0, 0.25, 0.4, 0.9, 1.0):
            expected = np.zeros((15, 15))
            for part, r, c in zip(listed, rows, cols):
                expected[np.ix_(r, c)] = part.block(t)
            np.testing.assert_array_equal(total.at(t), expected)
            assert np.count_nonzero(expected) == sum(
                r.size * c.size for r, c in zip(rows, cols))

    @pytest.mark.parametrize("rows", [
        [[3, 0], [1, 2]],
        [[[3, 0]], [[1, 2]]],
        np.array([[3, 0], [1, 2]]),
        iter([np.array([3, 0]), (1, 2)]),
    ], ids=["lists", "nested", "array", "iterator"])
    def test_placements_listed_as_given(self, rows):
        # every spelling of the same placements lists each as a flat intp
        # array, the mixed sum's too, and assembles the same block
        a = OperatorPath.from_samples([0.0, 1.0], [np.eye(2), 2 * np.eye(2)])
        b = self.ramp(-1.0, 1.0)
        total = OperatorPath.direct_sum([a, a], rows, [[0, 1], [2, 3]])
        got = [(r.dtype, r.tolist(), c.tolist()) for _, r, c in total.evaluator.parts]
        assert got == [(np.intp, [3, 0], [0, 1]), (np.intp, [1, 2], [2, 3])]
        np.testing.assert_array_equal(
            total.at(0.5), np.diag([1.5, 1.5, 1.5, 1.5])[[1, 2, 3, 0]])
        mixed = OperatorPath.direct_sum([a, b, a], [[3, 0], [4], [1, 2]],
                                        [[1, 2], [0], [3, 4]])
        assert [(r.tolist(), c.tolist()) for _, r, c in mixed.evaluator.parts] \
            == [([3, 0], [1, 2]), ([4], [0]), ([1, 2], [3, 4])]

    @pytest.mark.parametrize("rows, cols", [
        ([[0], [0]], [[0], [1]]),         # a row taken twice
        ([[0], [2]], [[0], [1]]),         # row 1 left out
        ([[0, 1], [2]], [[0], [1]]),      # a placement of the wrong size
        ([[0]], [[0], [1]]),              # a listing without rows
        ([[0], [1], [2]], [[0], [1]]),    # rows for a listing that is not there
        ([[0], None], [[0], [1]]),        # no rows at all
    ])
    def test_bad_placements_refused(self, rows, cols):
        a = self.ramp(1.0, 2.0)
        with pytest.raises(ConfigError, match="placements"):
            OperatorPath.direct_sum([a, a], rows, cols)

    def test_bad_parts_refused(self):
        a = self.ramp(1.0, 2.0)
        other = OperatorPath.from_samples([0.0, 2.0], [[[1.0]], [[2.0]]])
        with pytest.raises(ConfigError):
            OperatorPath.direct_sum([])
        with pytest.raises(ConfigError, match="one interval"):
            OperatorPath.direct_sum([a, other])
        with pytest.raises(ConfigError, match="general"):
            OperatorPath.direct_sum([to_skew_path(a)])

    def test_endpoint_certificate(self):
        # the knot arc 0.5 is below s0 + s1 = 3.5: two solves, one window
        calm = OperatorPath.from_samples([0.0, 1.0], [[[2.0]], [[1.5]]])
        res = sf2_path(to_skew_path(calm))
        assert (res.value, res.evaluations, len(res.windows)) == (1, 2, 1)
        assert res.windows[0].rank == 0 and 0 < res.windows[0].a < 1.5
        # s0 + s1 = 2 equals the arc 2 of a ramp through zero: not certified
        res = sf2_path(to_skew_path(self.ramp(1.0, -1.0)))
        assert res.value == -1 and res.evaluations > 2

    def test_parts_solved_once_through_the_private_engine(self, monkeypatch):
        import z2flow.flow as flow_module

        solved = []
        windowed = flow_module._windowed_flow

        def spy(path, rng):
            solved.append(path.block_shape)
            return windowed(path, rng)

        monkeypatch.setattr(flow_module, "_windowed_flow", spy)
        public = []
        monkeypatch.setattr(flow_module, "sf2_path",
                            lambda *a, **k: public.append(a))
        path = build_bifurcation_path(GalerkinSpec(mode_cutoff=4))
        res = sf2_path(to_skew_path(path))
        assert res.value == -1 and public == []
        distinct = {id(p) for p, _, _ in path.evaluator.parts}
        assert len(distinct) < len(path.evaluator.parts) == 16
        # the calm members of the family are certified from its endpoint
        # stacks; only the crossing member reaches the windowed engine
        assert solved == [(2, 2)]
        assert sorted(w.summand for w in res.windows) == list(range(16))
        assert res.evaluations == 2 * (len(distinct) - 1) + 9

    def test_large_models_factor_only_parts(self, monkeypatch, capsys):
        import z2flow.cli as cli

        solves = spy_solves(monkeypatch)
        shapes = lambda: [m.shape for m, _, _ in solves]
        build_bifurcation_path(GalerkinSpec(mode_cutoff=20))
        build_insulator_path(RingShiftSpec(64, 1, 4))
        assert shapes() == []  # the builders solve nothing
        assert cli.main(["bifurcation", "--kmax", "20"]) == 0
        assert shapes() and max(shapes()) == (2, 2)
        solves.clear()
        assert cli.main(["insulator", "--M", "64", "--N", "4"]) == 0
        # the identity part's values are pinned, not solved
        assert shapes() and max(shapes()) == (1, 1)
        assert cli.main(["insulator", "--M", "8", "--N", "2"]) == 0
        reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["result"] for r in reports] == [-1, 1, 1]
        assert reports[2]["half_flux_kernel_dim"] == 4


class TestConstantRecords:
    """A part whose declared arc does not grow is one matrix, solved for its
    singular values unless its Weyl bounds pin them; its frames are solved
    once, and only when a positive-rank window needs them (a rank-2
    window's by the shifted solve of its smallest pair)."""

    @staticmethod
    def spy_solves(monkeypatch):
        """(shape, frames solved) per matrix solved, read when called."""
        solves = spy_solves(monkeypatch)
        return lambda: [(m.shape, uv) for m, _, uv in solves]

    @staticmethod
    def near_singular_constant():
        # sigma_min = 1e-9 sigma_max: admissible, but below the two-endpoint
        # rule's margin, so its window is the rank-2 window of the small value
        flat = lambda t: np.diag([1e-9, 1.0, 0.5])
        flat.arc = lambda ts: np.zeros(np.shape(ts))
        return embed_chiral_path(OperatorPath((0.0, 1.0), flat))

    @pytest.mark.parametrize("seed", [None, 3])
    def test_near_singular_constant_solves_its_frames_once(self, monkeypatch, seed):
        calls = self.spy_solves(monkeypatch)
        rng = None if seed is None else np.random.default_rng(seed)
        res = sf2_path(self.near_singular_constant(), rng=rng)
        assert res.value == 1 and res.evaluations == 1
        assert 2 in [w.rank for w in res.windows]
        assert calls() == [((3, 3), False), ((3, 3), "pair")]

    @pytest.mark.parametrize("seed", [None, 3])
    def test_pair_route_reads_only_its_values(self, monkeypatch, seed):
        calls = self.spy_solves(monkeypatch)
        rng = None if seed is None else np.random.default_rng(seed)
        assert parity_via_pairs(self.near_singular_constant(), rng=rng) == 1
        assert calls() == [((3, 3), False)]

    def test_ring_identity_needs_no_frames(self, monkeypatch):
        calls = self.spy_solves(monkeypatch)
        ring = to_skew_path(build_insulator_path(RingShiftSpec(12)))
        assert sf2_path(ring).value == parity_via_pairs(ring) == -1
        # its values pinned by its Weyl bounds: neither route solves it
        assert [c for c in calls() if c[0] != (1, 1)] == []

    @pytest.mark.parametrize("m", [8, 64, 400])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_pinned_ring_identity_is_the_values_only_svd(self, monkeypatch, m, k, n):
        ring = to_skew_path(build_insulator_path(RingShiftSpec(m, k, n)))
        (identity,) = {id(part): part for part, rows, _ in ring.evaluator.parts
                       if len(rows) > 1}.values()
        oracle = linalg.skew_singular_system(identity.block(0.0), True, False)[0]
        calls = self.spy_solves(monkeypatch)
        data = _PathData(embed_chiral_path(identity))
        assert data.constant
        assert data.at(0.0)[1].tobytes() == oracle.tobytes()
        assert calls() == []

    @staticmethod
    def dense_constant(sigma_min):
        """A constant dense 4 x 4 part of singular values 1, 0.7, 0.3 and
        sigma_min."""
        b = with_singular_values(np.random.default_rng(37), [1.0, 0.7, 0.3, sigma_min])
        flat = lambda t: b.copy()
        flat.arc = lambda ts: np.zeros(np.shape(ts))
        return embed_chiral_path(OperatorPath((0.0, 1.0), flat)), b

    @pytest.mark.parametrize("factor", [1.01, 0.99])
    def test_constant_part_near_the_floor(self, monkeypatch, factor):
        # not pinned: solved for its values, accepted a hair above the floor
        # and refused a hair below it, with the SVD's text
        path, b = self.dense_constant(factor * tol.inv(1.0))
        sv = linalg.skew_singular_system(b, True, False)[0]
        calls = self.spy_solves(monkeypatch)
        if factor > 1.0:
            res = sf2_path(path)
            assert res.value == parity_via_pairs(path) == 1
            assert res.evaluations == 1
            assert calls()[0] == ((4, 4), False)
            return
        text = f"path endpoint at t=0.0 is singular (sigma_min={sv[0]:.3e})"
        for engine in (sf2_path, parity_via_pairs):
            with pytest.raises(NotAdmissibleError) as info:
                engine(path)
            assert str(info.value) == text
        assert calls() == [((4, 4), False)] * 2


class TestValuesFirstRecords:
    """The windowed engine solves each record values-only, once, and the
    frames only of the records a window reads: a rank-2 window's pair by
    the certified shifted solve, every other request, and a pair the
    certificate refuses, by the SVD.  Blocks of order at most
    ``_EAGER_MAX``, the rectangular reduction and the pair route solve
    values and frames together."""

    @staticmethod
    def spy_frames(monkeypatch):
        """The record matrices at the parameters each frames request reads."""
        read, frames = [], _PathData.frames

        def spy(self, ts, k):
            read.extend(self.at(t)[0].tobytes() for t in ts)
            return frames(self, ts, k)

        monkeypatch.setattr(_PathData, "frames", spy)
        return read

    @pytest.mark.parametrize("seed", [None, 5])
    def test_values_once_and_frames_where_read(self, monkeypatch, seed):
        solves = spy_solves(monkeypatch)
        read = self.spy_frames(monkeypatch)
        path = _fixed_line()
        res = sf2_path(embed_chiral_path(path),
                       rng=None if seed is None else np.random.default_rng(seed))
        assert res.value == parity_finite(path) == -1
        values = [m.tobytes() for m, _, uv in solves if uv is False]
        assert len(values) == len(set(values)) == res.evaluations
        pairs = [m.tobytes() for m, _, uv in solves if uv == "pair"]
        full = [m.tobytes() for m, _, uv in solves if uv is True]
        # every framed record is one the search read, each solved at most
        # once per route, and most by the certified pair
        assert len(pairs) == len(set(pairs)) and len(full) == len(set(full))
        assert set(pairs) | set(full) == set(read) <= set(values)
        assert len(pairs) > len(full)

    def test_closed_gap_takes_the_svds_frames(self, monkeypatch):
        # a repeated smallest value: the pair is refused, and the frames
        # are the SVD's, the values still the values-only solve's
        b = with_singular_values(np.random.default_rng(145),
                                 [0.5, 0.5] + [1.0 + i for i in range(10)])
        data = _PathData(embed_chiral_path(OperatorPath((0.0, 1.0), lambda t: b)))
        calls = TestConstantRecords.spy_solves(monkeypatch)
        sv = data.at(0.0)[1]
        frames = data.frames([0.0], 2)
        assert calls() == [((12, 12), False), ((12, 12), "pair"), ((12, 12), True)]
        x, y = linalg.skew_singular_system(b, True)[1]
        assert frames.shape == (2, 1, 12, 1)
        assert frames[0, 0].tobytes() == np.ascontiguousarray(x[:, :1]).tobytes()
        assert frames[1, 0].tobytes() == np.ascontiguousarray(y[:, :1]).tobytes()
        assert sv.tobytes() == linalg.skew_singular_system(b, True, False)[0].tobytes()

    def test_pairs_and_full_frames_in_one_request(self, monkeypatch):
        # t = 0 read at rank 4 (the SVD's frames), then both ends at rank 2:
        # only t = 1 is solved, by its pair, and each record gives its own
        # first direction per side
        rng = np.random.default_rng(149)
        a, b = (with_singular_values(rng, [0.25 * (i + 1) for i in range(12)]) for _ in "ab")
        data = _PathData(embed_chiral_path(OperatorPath((0.0, 1.0),
                                                        lambda t: (1 - t) * a + t * b)))
        data.solve(np.array([0.0, 1.0]))
        calls = TestConstantRecords.spy_solves(monkeypatch)
        data.frames([0.0], 4)
        frames = data.frames([0.0, 1.0], 2)
        assert calls() == [((12, 12), True), ((12, 12), "pair")]
        assert frames.shape == (2, 2, 12, 1)
        x, y = linalg.skew_singular_system(a, True)[1]
        assert frames[0, 0].tobytes() == np.ascontiguousarray(x[:, :1]).tobytes()
        assert frames[1, 0].tobytes() == np.ascontiguousarray(y[:, :1]).tobytes()
        u, v, certified = linalg._smallest_pair(b[None], data.at(1.0)[1][None, ::2])
        assert certified.tolist() == [True]
        assert frames[0, 1, :, 0].tobytes() == u[0].tobytes()
        assert frames[1, 1, :, 0].tobytes() == v[0].tobytes()

    def test_small_blocks_solve_frames_with_their_values(self, monkeypatch):
        from z2flow.flow import _EAGER_MAX

        solves = spy_solves(monkeypatch)
        rng = np.random.default_rng(148)
        path = random_admissible_path(rng, _EAGER_MAX, knots=4)
        assert sf2_path(embed_chiral_path(path)).value == parity_finite(path)
        # and a plain skew path of twice that order
        mats = [m - m.T for m in rng.standard_normal((3, 2 * _EAGER_MAX, 2 * _EAGER_MAX))]
        skew = OperatorPath.from_samples([0.0, 0.5, 1.0], mats, "skew")
        assert sf2_path(skew).value == sf2_finite(mats[0], mats[-1])
        assert {uv for _, _, uv in solves} == {True}

    def test_pair_route_and_rectangular_reduction_solve_frames_eagerly(self, monkeypatch):
        solves = spy_solves(monkeypatch)
        path = _fixed_line()
        assert parity_via_pairs(embed_chiral_path(path)) == -1
        assert {uv for _, _, uv in solves} == {True}
        solves.clear()
        parity_path_general(TestSquareBlockReduction.rotated(np.random.default_rng(146), 10, 2))
        # the 12 x 10 grid with its frames; the reduced 10 x 10 path values-first
        assert {uv for m, _, uv in solves if m.shape == (12, 10)} == {True}
        assert {uv for m, _, uv in solves if m.shape == (10, 10)} >= {False}


class TestDeclaredMotion:
    """A block path declaring B(t) = B(t0) + p c(t) q^T is solved on its
    r x r reduced path, which has the parity of the assembled block."""

    @staticmethod
    def motion_path(rng, n, r, scale=1.0):
        """B0 + (t scale) p C q^T over [0, 1], with c(t) = t scale C."""
        b0 = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        p, q = rng.standard_normal((n, r)), rng.standard_normal((n, r))
        cm = rng.standard_normal((r, r))
        speed = scale * float(np.linalg.svd(cm, compute_uv=False)[0])

        def c(t):
            return (t * scale) * cm

        c.arc = lambda ts: speed * np.asarray(ts)

        def block(t):
            return b0 + p @ c(t) @ q.T

        block.motion = (p, q, OperatorPath((0.0, 1.0), c))
        return OperatorPath((0.0, 1.0), block)

    @staticmethod
    def stripped(path):
        dense = lambda t: path.block(t)
        return OperatorPath(path.interval, dense)

    def test_random_motions_agree_with_the_dense_block(self):
        rng = np.random.default_rng(71)
        signs = set()
        for _ in range(12):
            n, r = int(rng.integers(2, 7)), int(rng.integers(1, 3))
            path = self.motion_path(rng, n, min(r, n), scale=float(rng.uniform(1, 6)))
            try:
                oracle = parity_finite(path)
            except NotAdmissibleError:
                continue
            signs.add(int(oracle))
            skew = to_skew_path(path)
            res = sf2_path(skew)
            assert res.motion_rank == min(r, n)
            assert res.value == window_product(res) == oracle
            for route in (lambda: parity_path(path, rng=np.random.default_rng(2)),
                          lambda: parity_via_pairs(skew),
                          lambda: parity_via_pairs(skew, rng=np.random.default_rng(2)),
                          lambda: parity_path(self.stripped(path))):
                assert route() == oracle
        assert signs == {1, -1}

    def test_windows_and_evaluations_are_the_reduced_paths(self):
        path = self.motion_path(np.random.default_rng(72), 5, 2)
        skew = to_skew_path(path)
        res = sf2_path(skew)
        reduced = sf2_path(_reduced(skew))
        assert res.windows == reduced.windows
        assert res.evaluations == reduced.evaluations + 2
        assert (res.motion_rank, reduced.motion_rank) == (2, 0)

    def test_wrong_declaration_is_config_error(self):
        path = self.motion_path(np.random.default_rng(73), 4, 1)
        p, q, c = path.evaluator.motion
        path.evaluator.motion = (p, 1.01 * q, c)  # off at t1 by 1 %
        for engine in (lambda: parity_path(path),
                       lambda: parity_via_pairs(to_skew_path(path))):
            with pytest.raises(ConfigError, match="declared motion does not match"):
                engine()
        # c(t0) must vanish
        shifted = lambda t: c.at(t) + 1.0
        path.evaluator.motion = (p, q, OperatorPath((0.0, 1.0), shifted))
        with pytest.raises(ConfigError, match=r"t=0\.0"):
            parity_path(path)

    @pytest.mark.parametrize("what", ["p", "q", "c", "block"])
    def test_mismatched_shapes_are_dimension_errors(self, what):
        path = self.motion_path(np.random.default_rng(74), 4, 2)
        p, q, c = path.evaluator.motion
        if what == "p":
            path.evaluator.motion = (p[:, :1], q, c)
        elif what == "q":
            path.evaluator.motion = (p, q[:3], c)
        elif what == "c":
            wide = lambda t: np.zeros((2, 3))
            path.evaluator.motion = (p, q, OperatorPath((0.0, 1.0), wide,
                                                        declared_index=-1))
        else:
            tall = lambda t, _b=path.block: np.vstack([_b(t), np.ones((1, 4))])
            tall.motion = (p, q, c)
            path = OperatorPath((0.0, 1.0), tall, declared_index=1)
            skew = embed_chiral_path(path)
            for engine in (lambda: sf2_path(skew), lambda: parity_via_pairs(skew)):
                with pytest.raises(DimensionError):
                    engine()
            return
        for engine in (lambda: parity_path(path),
                       lambda: parity_via_pairs(to_skew_path(path))):
            with pytest.raises(DimensionError, match="declared motion"):
                engine()

    def test_motion_on_another_interval_is_config_error(self):
        path = self.motion_path(np.random.default_rng(75), 3, 1)
        p, q, c = path.evaluator.motion
        path.evaluator.motion = (p, q, OperatorPath((0.0, 2.0), c.evaluator))
        with pytest.raises(ConfigError, match="interval"):
            parity_path(path)

    def test_singular_endpoint_is_refused_with_the_engine_text(self):
        path = self.motion_path(np.random.default_rng(76), 3, 1)
        p, q, c = path.evaluator.motion
        b0 = path.block(0.0)
        # B(1) = B0 + p (-1) q^T with q^T B0^-1 p = 1: det B(1) = 0
        q = q / (q.T @ np.linalg.solve(b0, p))[0, 0]
        step = lambda t: -t * np.eye(1)
        step.arc = lambda ts: np.asarray(ts, dtype=float)
        block = lambda t: b0 - t * (p @ q.T)
        block.motion = (p, q, OperatorPath((0.0, 1.0), step))
        singular = OperatorPath((0.0, 1.0), block)
        for engine in (lambda: parity_path(singular),
                       lambda: parity_via_pairs(to_skew_path(singular))):
            with pytest.raises(NotAdmissibleError,
                               match=r"path endpoint at t=1\.0 is singular"):
                engine()

    @staticmethod
    def endpoint_checks(solves, n):
        """The values-only solves of n x n blocks: the endpoint checks that
        no certificate proved."""
        return [m for m, _, uv in solves if m.shape == (n, n) and not uv]

    def test_certified_endpoints_take_no_solve(self, monkeypatch):
        path = self.motion_path(np.random.default_rng(78), 6, 1, scale=2.0)
        solves = spy_solves(monkeypatch)
        assert parity_path(path) == parity_finite(path)
        assert self.endpoint_checks(solves, 6) == []

    def test_ill_conditioned_endpoint_falls_back_to_the_svd(self, monkeypatch):
        # sigma_min(B(t0)) = 1e-9 sigma_max lies above the floor but below
        # the Gram's resolution: the endpoint is solved, and admissible
        b0 = with_singular_values(np.random.default_rng(79), [1.0, 0.6, 0.2, 1e-9])
        p, q = np.eye(4)[:, :1], np.eye(4)[:, 1:2]
        step = lambda t: t * np.eye(1)
        step.arc = lambda ts: np.asarray(ts, dtype=float)
        block = lambda t: b0 + t * (p @ q.T)
        block.motion = (p, q, OperatorPath((0.0, 1.0), step))
        path = OperatorPath((0.0, 1.0), block)
        assert not linalg._certified_invertible(b0)
        solves = spy_solves(monkeypatch)
        oracle = parity_finite(path)
        solves.clear()
        assert parity_path(path) == parity_via_pairs(to_skew_path(path)) == oracle
        checked = self.endpoint_checks(solves, 4)
        assert checked and all(m.tobytes() == b0.tobytes() for m in checked)

    def test_singular_endpoint_keeps_the_svds_text(self):
        path = self.motion_path(np.random.default_rng(76), 3, 1)
        p, q, _ = path.evaluator.motion
        b0 = path.block(0.0)
        q = q / (q.T @ np.linalg.solve(b0, p))[0, 0]
        step = lambda t: -t * np.eye(1)
        step.arc = lambda ts: np.asarray(ts, dtype=float)
        block = lambda t: b0 - t * (p @ q.T)
        block.motion = (p, q, OperatorPath((0.0, 1.0), step))
        singular = OperatorPath((0.0, 1.0), block)
        sv = linalg.skew_singular_system(block(1.0), True, False)[0]
        text = f"path endpoint at t=1.0 is singular (sigma_min={sv[0]:.3e})"
        for engine in (lambda: parity_path(singular),
                       lambda: parity_via_pairs(to_skew_path(singular))):
            with pytest.raises(NotAdmissibleError) as info:
                engine()
            assert str(info.value) == text

    def test_cholesky_that_fails_by_a_hair_falls_back(self, monkeypatch):
        # a proof floor a hair above sigma_min(B(t0)): theta^2 in the shift
        # exceeds sigma_min^2, the factorization fails, and the SVD accepts
        path = self.motion_path(np.random.default_rng(80), 5, 1, scale=2.0)
        b0 = path.block(0.0)
        sigma_min = float(np.linalg.svd(b0, compute_uv=False)[-1])
        floor = sigma_min * (1.0 + 1e-6)
        assert not linalg._gram_certificate(b0, floor)
        monkeypatch.setattr(linalg, "_proof_floor", lambda hi, n: floor)
        solves = spy_solves(monkeypatch)
        assert parity_path(path) == parity_finite(path)
        assert any(m.tobytes() == b0.tobytes() for m in self.endpoint_checks(solves, 5))

    @pytest.mark.parametrize("size", [1e200, 1e-200])
    def test_extreme_scales_fall_back_without_warnings(self, monkeypatch, size):
        path = self.motion_path(np.random.default_rng(81), 5, 1, scale=3.0)
        p, q, c = path.evaluator.motion
        b0 = size * path.block(0.0)
        block = lambda t: b0 + (size * p) @ c.at(t) @ q.T
        block.motion = (size * p, q, c)
        scaled = OperatorPath((0.0, 1.0), block)
        solves = spy_solves(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oracle = parity_finite(scaled)
            solves.clear()
            assert parity_path(scaled) == oracle
        assert len(self.endpoint_checks(solves, 5)) == 2

    def test_a_motion_inside_a_declared_sum(self):
        path = self.motion_path(np.random.default_rng(77), 3, 1, scale=4.0)
        ramp = OperatorPath.from_samples([0.0, 1.0], [[[1.0]], [[-1.0]]])
        total = OperatorPath.direct_sum([path, ramp, path])
        oracle = parity_finite(total)
        res = sf2_path(to_skew_path(total))
        assert res.value == parity_via_pairs(to_skew_path(total)) == oracle
        assert res.motion_rank == 1


class TestOneWalk:
    """Both engines take one structural walk of a declared sum and differ
    in the leaf engine alone."""

    @staticmethod
    def mixed_sum():
        """A crossing part listed twice, a constant part, a family with
        calm members and one crossing member, and a part with a motion."""
        twice = _declared((0.0, 1.0), lambda t: np.diag([2.0 * t - 1.0, 3.0]),
                          lambda ts: 2.0 * np.asarray(ts))
        constant = _declared((0.0, 1.0), lambda t: np.diag([2.0, 5.0]),
                             lambda ts: 0.0 * np.asarray(ts))
        family = PathFamily((0.0, 1.0), *TestPathFamily().mixed())
        moving = TestDeclaredMotion.motion_path(np.random.default_rng(77), 3, 1,
                                                scale=4.0)
        return OperatorPath.direct_sum(
            [twice, constant, *(family[i] for i in range(len(family))), moving,
             twice])

    def test_both_engines_hand_over_the_same_leaves(self, monkeypatch):
        import z2flow.flow as flow_module

        leaves = {"flow": [], "pairs": []}

        def spying(route, engine):
            def spy(path, rng):
                leaves[route].append((path.block_shape, path.block(0.25).tolist()))
                return engine(path, rng)
            return spy

        monkeypatch.setattr(flow_module, "_windowed_flow",
                            spying("flow", flow_module._windowed_flow))
        monkeypatch.setattr(pairs_module, "_pair_leaf",
                            spying("pairs", pairs_module._pair_leaf))
        total = self.mixed_sum()
        oracle = parity_finite(total)
        for seed in (None, 3):
            rng = lambda: None if seed is None else np.random.default_rng(seed)
            leaves["flow"].clear()
            leaves["pairs"].clear()
            flowed = sf2_path(embed_chiral_path(total), rng=rng()).value
            paired = parity_via_pairs(embed_chiral_path(total), rng=rng())
            assert flowed == paired == oracle == -1
            assert leaves["flow"] == leaves["pairs"]
            # each distinct leaf once, in listing order: the part listed
            # twice, the constant part, the crossing member (the calm
            # members are windows of the batch), and the 1 x 1 reduced path
            # of the motion
            assert [shape for shape, _ in leaves["flow"]] == [
                (2, 2), (2, 2), (2, 2), (1, 1)]


class TestChiralCore:
    """Chiral-skew paths are solved on their block; plain skew by one SVD
    of T."""

    @staticmethod
    def as_plain_skew(path):
        return OperatorPath(path.interval, path.evaluator, "skew")

    def test_fixed_line_partition(self):
        line = _fixed_line()
        chiral = embed_chiral_path(line)
        res = sf2_path(chiral)
        assert res.value == parity_finite(line) == -1
        assert (len(res.windows), res.evaluations, res.refinement_depth) == (11, 69, 5)
        plain = sf2_path(self.as_plain_skew(chiral))
        assert plain.value == res.value
        assert plain.evaluations == res.evaluations
        assert [(w.t_lo, w.t_hi, w.rank) for w in plain.windows] == \
            [(w.t_lo, w.t_hi, w.rank) for w in res.windows]

    def test_randomized_partitions_agree(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            n = int(rng.integers(1, 5))
            path = random_chiral_skew_path(rng, n)
            base = sf2_path(path).value
            assert sf2_path(self.as_plain_skew(path)).value == base
            for rep in range(3):
                assert sf2_path(path, rng=np.random.default_rng(rep)).value == base

    @pytest.mark.parametrize("randomized", [False, True])
    def test_pair_route_reads_the_flow_records(self, monkeypatch, randomized):
        # parity_via_pairs solves each distinct parameter once, by the flow
        # engine's chiral core, and equals the oracle of the block path
        rng = np.random.default_rng(44)
        ts = np.linspace(0.0, 1.0, 5)
        blocks = rng.standard_normal((5, 3, 3))
        blocks[-1, 0] *= -np.sign(np.linalg.det(blocks[0]) * np.linalg.det(blocks[-1]))
        path = OperatorPath.from_samples(ts, [embed_chiral(b) for b in blocks],
                                         "chiral-skew", ChiralFrame(3, 3))
        import z2flow.flow as flow_module

        evaluated = []
        block, stacked = OperatorPath.block, flow_module._stacked

        def spy_block(self, t):
            if self is path:
                evaluated.append(float(t))
            return block(self, t)

        def spy_stacked(p, ts, *args):  # a stacked read of several parameters
            if p is path:
                evaluated.extend(float(t) for t in ts)
            return stacked(p, ts, *args)

        monkeypatch.setattr(OperatorPath, "block", spy_block)
        monkeypatch.setattr(flow_module, "_stacked", spy_stacked)
        solves = spy_solves(monkeypatch)
        value = parity_via_pairs(
            path, rng=np.random.default_rng(3) if randomized else None)
        solved = [chiral for _, chiral, _ in solves]
        assert value == parity_finite(OperatorPath.from_samples(ts, blocks)) == -1
        assert len(evaluated) == len(set(evaluated)) == len(solved) >= 9
        assert all(solved)

    @pytest.mark.parametrize("wide", [False, True])
    def test_rectangular_blocks_agree_with_oracle(self, wide):
        # rotated padded blocks as in the parity_path_general oracle test,
        # tall (n_plus > n_minus) and transposed to wide (n_minus > n_plus)
        rng = np.random.default_rng(42)
        for _ in range(4):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 3))
            mpath = random_admissible_path(rng, n)
            qfun = random_orthogonal_path(rng, n + d)

            def ev(t, _m=mpath, _q=qfun, _n=n, _d=d):
                b = _q(t) @ np.vstack([_m.evaluator(t), np.zeros((_d, _n))])
                return b.T if wide else b

            path = OperatorPath((0.0, 1.0), ev, "general", None, -d if wide else d)
            oracle = parity_finite(mpath)
            assert parity_path_general(path) == oracle
            assert parity_path_general(path, rng=np.random.default_rng(1)) == oracle


class TestBlockPaths:
    """Chiral paths are carried by their block; the engine never doubles."""

    def test_block_of_each_path_kind(self):
        rng = np.random.default_rng(45)
        general = random_admissible_path(rng, 3)
        ring = build_insulator_path(RingShiftSpec(6))
        chiral = random_chiral_skew_path(rng, 2)
        for t in (0.0, 0.3, 1.0):
            b = general.at(t)
            np.testing.assert_array_equal(general.block(t), b)
            doubled = to_skew_path(general)
            np.testing.assert_array_equal(doubled.block(t), b)
            np.testing.assert_array_equal(doubled.at(t), embed_chiral(b))
            h = ring.at(t)
            skew = selfadjoint_path_to_skew(ring)
            np.testing.assert_array_equal(skew.block(t), h[:6, 6:])
            np.testing.assert_array_equal(
                skew.at(t), selfadjoint_to_skew(h, ring.frame))
            m = chiral.at(t)
            np.testing.assert_array_equal(chiral.block(t),
                                          (m[:2, 2:] - m[2:, :2].T) / 2.0)
        with pytest.raises(ConfigError):
            OperatorPath((0.0, 1.0), lambda t: np.zeros((2, 2)), "skew").block(0.5)

    def test_engine_builds_no_doubling(self, monkeypatch):
        import z2flow.flow as flow_module

        calls = []
        def counted(*args, _fn=flow_module.embed_chiral):
            calls.append("embed_chiral")
            return _fn(*args)
        monkeypatch.setattr(flow_module, "embed_chiral", counted)
        general = random_admissible_path(np.random.default_rng(46), 4)
        assert parity_path(general) == parity_finite(general)
        assert parity_path(build_insulator_path(RingShiftSpec(12))) == -1
        tall = OperatorPath((-1.0, 1.0), lambda t: np.array([[t], [0.0], [0.0]]),
                            "general", None, 2)
        assert parity_path_general(tall) == -1
        assert calls == []

    def test_pairs_and_ring_build_no_doubling(self, monkeypatch):
        import z2flow.flow as flow_module
        import z2flow.pairs as pairs_module

        structure, o = build_rank_one_pair(5)
        pair = FredholmPair(
            structure, ComplexStructure(o @ structure.matrix @ o.T, structure.frame))
        spec = RingShiftSpec(12)
        ring = selfadjoint_path_to_skew(build_insulator_path(spec))
        disordered = build_insulator_disordered(RingShiftSpec(8), 0.1, 3)
        calls = []
        for module, name in [(flow_module, "embed_chiral"),
                             (pairs_module, "embed_chiral"),
                             (pairs_module, "phase_complete")]:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        assert parity_via_pairs(ring) == -1
        assert straight_line_sf2(pair) == -1
        assert half_flux_kernel_dim(spec) == 2
        assert parity_path(disordered) == -1
        assert calls == []

    @pytest.mark.parametrize("m", range(6))
    def test_block_window_factor_is_det_sign_product(self, m):
        # the identity behind the block window factor:
        # sf2 of two chiral doublings is the product of their det signs
        rng = np.random.default_rng(47 + m)
        for _ in range(10):
            s0, s1 = rng.standard_normal((2, m, m))
            assert (sf2_finite(embed_chiral(s0), embed_chiral(s1))
                    == sign_det(s0) * sign_det(s1))

    def test_doubled_factors_are_products(self):
        # examp + examp: every window factor is the product of the summands'
        # factors, whatever order the kernel directions come in
        examp = sf2_path(build_example_path("examp"))
        factors = {(w.t_lo, w.t_hi): w.factor for w in examp.windows}
        path = build_example_path("doubled")
        doubled = sf2_path(path)
        assert [(w.t_lo, w.t_hi) for w in doubled.windows] == list(factors)
        for w in doubled.windows:
            f = factors[w.t_lo, w.t_hi]
            assert w.factor == f * f == 1
        for seed in range(5):  # randomized partitions and chiral lifts
            assert sf2_path(path, rng=np.random.default_rng(seed)).value == 1


class TestValidateOnce:
    """Each evaluation is validated once, where ``OperatorPath.at`` reads
    the evaluator's matrix, and invalid matrices still raise typed errors,
    whether they come up at an endpoint (solved alone) or inside a segment
    (solved in a stack)."""

    @staticmethod
    def paths(rng):
        return [to_skew_path(random_admissible_path(rng, 3)),
                OperatorPath.from_samples(
                    [0.0, 0.5, 1.0], [g - g.T for g in rng.standard_normal((3, 4, 4))],
                    "skew"),
                random_chiral_skew_path(rng, 2)]

    @pytest.mark.parametrize("seed", [None, 3])
    def test_one_validation_per_evaluation(self, monkeypatch, seed):
        import z2flow.flow as flow_module
        import z2flow.paths as paths_module

        calls = {"at": 0, "as_real_matrix": 0}
        at, coerce = OperatorPath.at, paths_module.as_real_matrix
        stacked = flow_module._stacked

        def spy_at(self, t):
            calls["at"] += 1
            return at(self, t)

        def spy_stacked(path, ts, *args):  # one read of several parameters
            calls["at"] += 1
            return stacked(path, ts, *args)

        def spy_coerce(m):
            calls["as_real_matrix"] += 1
            return coerce(m)

        paths = self.paths(np.random.default_rng(61))
        monkeypatch.setattr(OperatorPath, "at", spy_at)
        monkeypatch.setattr(flow_module, "_stacked", spy_stacked)
        monkeypatch.setattr(paths_module, "as_real_matrix", spy_coerce)
        for path in paths:
            rng = None if seed is None else np.random.default_rng(seed)
            sf2_path(path, rng=rng)
        assert calls["at"] > 0 and calls["as_real_matrix"] == calls["at"]

    @pytest.mark.parametrize("where", ["endpoint", "interior"])
    @pytest.mark.parametrize("fault, error", [
        ("nan", ConfigError), ("complex", ConfigError),
        ("asymmetric", SymmetryError), ("shape", DimensionError)])
    @pytest.mark.parametrize("seed", [None, 3])
    def test_invalid_evaluations_raise_typed_errors(self, fault, error, where, seed):
        def evaluator(t):
            m = np.array([[0.0, t - 0.4], [0.4 - t, 0.0]])
            if (t == 1.0) if where == "endpoint" else (0.0 < t < 1.0):
                if fault == "nan":
                    m[0, 1] = np.nan
                elif fault == "complex":
                    m = m + 1j
                elif fault == "asymmetric":
                    m[1, 0] = 3.0
                else:
                    m = np.zeros((4, 4))
            return m

        path = OperatorPath((0.0, 1.0), evaluator, "skew")
        rng = None if seed is None else np.random.default_rng(seed)
        with pytest.raises(error):
            sf2_path(path, rng=rng)


class TestBatchedSegmentChecks:
    """The batched step norms and window-continuity check against loops."""

    def test_step_norms_match_loop(self):
        rng = np.random.default_rng(43)
        for shape in [(9, 4, 4), (9, 5, 2), (3, 1, 6), (9, 0, 3)]:
            steps = rng.standard_normal(shape)
            loop = [np.linalg.norm(b - a, 2) if a.size else 0.0
                    for a, b in zip(steps[:-1], steps[1:])]
            np.testing.assert_allclose(_step_norms(steps), loop, rtol=1e-14)

    def test_step_norm_of_a_pair_is_its_own_in_any_stack(self):
        # a pair whose difference overflows has the norm inf (at least its
        # largest entry), and no pair's norm depends on the others in its
        # stack
        rng = np.random.default_rng(47)
        big = 1.7e308 * np.sign(rng.standard_normal((3, 3)))
        near = [1e308 * rng.uniform(0.5, 1.0, (3, 3)) for _ in range(4)]
        pairs = [(big, -big), (rng.standard_normal((3, 3)), rng.standard_normal((3, 3))),
                 (near[0], -near[1]), (near[2], near[3]),
                 (np.full((3, 3), 1e-300), np.full((3, 3), -1e-300))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = [_step_norms(np.array(pair)) for pair in pairs]
            assert all(a.shape == (1,) for a in alone)
            assert [math.isinf(a[0]) for a in alone] == [True, False, True, False, False]
            for i in (1, 3, 4):
                m0, m1 = pairs[i]
                np.testing.assert_allclose(alone[i][0], np.linalg.norm(m1 - m0, 2), rtol=1e-14)
            stacked = _step_norms(np.array(pairs))[:, 0]
            for order in ([2, 0, 1, 3, 4], [4, 3, 1, 2, 0]):
                consecutive = _step_norms(np.array([m for i in order for m in pairs[i]]))
                assert [consecutive[2 * j].tobytes() for j in range(len(order))] == \
                    [alone[i][0].tobytes() for i in order]
            assert [x.tobytes() for x in stacked] == [a[0].tobytes() for a in alone]

    @staticmethod
    def line(rng, n=32, samples=9):
        """Samples of a straight line between two n x n matrices, whose
        differences are one matrix up to rounding."""
        a, b = rng.standard_normal((2, n, n))
        return np.array([(1.0 - t) * a + t * b for t in np.linspace(0.0, 1.0, samples)])

    @staticmethod
    def within_gap(norms, exact):
        # upper bounds on each norm, within GAP_REL of it
        assert np.all(norms >= exact)
        assert np.all(norms <= exact * (1.0 + 2.0 * tol.GAP_REL))

    def test_straight_line_takes_one_svd_row(self, monkeypatch):
        steps = self.line(np.random.default_rng(48))
        rows, svd = [], np.linalg.svd

        def spy(a, *args, **kwargs):
            rows.append(math.prod(np.shape(a)[:-2]))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        norms = _step_norms(steps, linalg._StepAnchor())
        assert rows == [1]
        monkeypatch.undo()
        self.within_gap(norms, exact_step_norms(steps))
        # so does a (pairs, 2, n, n) stack of its pairs
        pairs = np.stack([steps[:-1], steps[1:]], axis=1)
        self.within_gap(_step_norms(pairs, linalg._StepAnchor()), exact_step_norms(pairs))

    @pytest.mark.parametrize("n, samples", [(32, 4), (2, 9), (1, 65), (32, 9)])
    def test_small_stacks_are_solved_as_they_are(self, monkeypatch, n, samples):
        # a stack without an anchor is solved as it is: one SVD of every
        # difference, each norm bitwise its own
        steps = self.line(np.random.default_rng(56), n, samples)
        rows = TestPathStepAnchor.svd_rows(monkeypatch)
        norms = _step_norms(steps)
        assert rows == [samples - 1]
        monkeypatch.undo()
        assert norms.tobytes() == exact_step_norms(steps).tobytes()

    def test_repeated_difference_takes_the_anchor_norm_bitwise(self):
        # integer matrices: every difference is the same matrix, bitwise,
        # and so is its norm
        rng = np.random.default_rng(49)
        base, step = rng.integers(-9, 10, (2, 5, 5)).astype(float)
        steps = np.array([base + k * step for k in range(6)])
        norms = _step_norms(steps)
        anchor = exact_step_norms(steps[:2])[0]
        assert [x.tobytes() for x in norms] == [anchor.tobytes()] * 5

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_scaled_stacks_raise_no_warning(self, scale):
        steps = self.line(np.random.default_rng(50), n=6) * scale
        # entries near 1e308, whose squares overflow: a line's differences,
        # one that overflows and one off the line
        rng = np.random.default_rng(51)
        a, b = 1e308 * rng.uniform(0.5, 1.0, (2, 3, 3))
        top = np.full((3, 3), 1.7e308)
        huge = np.array([(1.0 - t) * a - t * b for t in np.linspace(0.0, 1.0, 5)]
                        + [top, 0.9 * top])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.within_gap(_step_norms(steps), exact_step_norms(steps))
            exact = exact_step_norms(huge)
            norms = _step_norms(huge)
        assert np.isinf(exact).tolist() == np.isinf(norms).tolist() == \
            [False, False, False, False, True, False]
        finite = np.isfinite(exact)
        self.within_gap(norms[finite], exact[finite])

    def test_window_continuity_matches_loop(self):
        def loop(bases):
            for i in range(len(bases)):
                for j in range(i + 1, len(bases)):
                    overlap = bases[i].T @ bases[j]
                    if np.linalg.svd(overlap, compute_uv=False)[-1] < _COS_MIN:
                        return False
            return True

        rng = np.random.default_rng(44)
        outcomes = []
        for _ in range(200):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n))
            base = np.linalg.qr(rng.standard_normal((n, n)))[0]
            drift = float(rng.uniform(0.0, 0.4))
            bases = []
            for _ in range(int(rng.integers(2, 6))):
                g = rng.standard_normal((n, n))
                q = np.linalg.qr(np.eye(n) + drift * (g - g.T))[0]
                bases.append((q * np.sign(np.diag(q)) @ base)[:, :k])
            expected = loop(bases)
            assert _pairwise_window_continuity(np.stack(bases)) == expected
            outcomes.append(expected)
        assert set(outcomes) == {True, False}
        assert _pairwise_window_continuity(np.zeros((3, 4, 0)))


class TestSharedStepNorms:
    """Step norms that bound near-multiples of a path's step anchor, and
    solve everything else exactly, change no partition: opaque flows equal
    those on the exact norms of ``exact_step_norms``, one SVD row per
    difference."""

    @staticmethod
    def spy_rows(monkeypatch):
        """Count the flow's step-norm stacks and the SVD rows they solve."""
        import z2flow.flow as flow_module

        count, svd, norms = {"stacks": 0, "rows": 0, "on": False}, np.linalg.svd, \
            flow_module._step_norms

        def spy_svd(a, *args, **kwargs):
            count["rows"] += math.prod(np.shape(a)[:-2]) if count["on"] else 0
            return svd(a, *args, **kwargs)

        def spy_norms(steps, anchor=None):
            count["stacks"], count["on"] = count["stacks"] + 1, True
            try:
                return norms(steps, anchor)
            finally:
                count["on"] = False

        monkeypatch.setattr(np.linalg, "svd", spy_svd)
        monkeypatch.setattr(flow_module, "_step_norms", spy_norms)
        return count

    @staticmethod
    def outcome(path):
        res = sf2_path(path)
        return (res.value, res.evaluations, res.refinement_depth,
                [(w.t_lo, w.t_hi, w.rank, w.factor) for w in res.windows])

    def test_fixed_line_takes_one_row_per_stack(self, monkeypatch):
        import z2flow.flow as flow_module

        path = embed_chiral_path(_fixed_line())
        counts = []
        for norms in (exact_step_norms, _step_norms):
            monkeypatch.setattr(flow_module, "_step_norms", norms)
            count = self.spy_rows(monkeypatch)
            res = sf2_path(path)
            assert (res.value, len(res.windows), res.evaluations, res.refinement_depth) == \
                (-1, 11, 69, 5)
            counts.append((count["rows"], count["stacks"]))
            monkeypatch.undo()
        assert counts == [(100, 14), (1, 14)]

    def test_opaque_sweep_matches_exact_norms(self, monkeypatch):
        import z2flow.flow as flow_module
        import z2flow.paths as paths_module

        paths = [embed_chiral_path(_fixed_line())]
        for seed in range(60):
            rng = np.random.default_rng(330 + seed)
            dim, knots = 1 + seed % 8, 2 + seed % 4
            kind = seed % 3
            if kind == 0:
                path = to_skew_path(_opaque(random_admissible_path(rng, dim, knots)))
            elif kind == 1:
                path = _opaque(random_chiral_skew_path(rng, dim, knots))
            else:
                path = to_skew_path(random_invertible_path(rng, dim))
            paths.append(path)
        count = self.spy_rows(monkeypatch)
        shared = [self.outcome(path) for path in paths]
        shared_rows = count["rows"]
        monkeypatch.undo()
        for module in (flow_module, paths_module):
            monkeypatch.setattr(module, "_step_norms", exact_step_norms)
        count = self.spy_rows(monkeypatch)
        exact = [self.outcome(path) for path in paths]
        assert shared == exact
        # the pieces of the sample paths are lines, whose steps take the
        # anchor's bounds
        assert shared_rows < count["rows"]


class TestPathStepAnchor:
    """A path's step anchor (``linalg._StepAnchor``): its first step stack
    solves only its largest difference, and in that stack and every later
    one a near-multiple of that difference takes an upper bound within
    2 GAP_REL of its norm without an SVD."""

    @staticmethod
    def svd_rows(monkeypatch):
        """The rows of every ``np.linalg.svd`` call, in order."""
        rows, svd = [], np.linalg.svd

        def spy(a, *args, **kwargs):
            rows.append(math.prod(np.shape(a)[:-2]))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        return rows

    @staticmethod
    def within_gaps(norms, exact):
        # upper bounds on each norm, within 4 GAP_REL of it
        assert np.all(norms >= exact)
        assert np.all(norms <= exact * (1.0 + 4.0 * tol.GAP_REL))

    @staticmethod
    def multiples(rng, direction, scales):
        """A (pairs, 2, n, m) stack whose differences are c direction for
        each c in ``scales``, up to a relative 1e-12 perturbation."""
        pairs = []
        for c in scales:
            start = abs(c) * rng.standard_normal(direction.shape)
            step = c * direction + abs(c) * 1e-12 * rng.standard_normal(direction.shape)
            pairs.append((start, start + step))
        return np.array(pairs)

    @pytest.mark.parametrize("shape", [(6, 6), (8, 3), (2, 7), (1, 1)])
    def test_near_multiples_take_bounds_without_an_svd(self, monkeypatch, shape):
        rng = np.random.default_rng(53)
        direction = rng.standard_normal(shape)
        first = np.array([(np.zeros(shape), c * direction) for c in (1.0, -0.5, 0.25, 0.75)])
        signs = np.where(rng.random(40) < 0.5, -1.0, 1.0)
        scales = np.concatenate([[2.0 ** -30, -2.0 ** -30, 2.0 ** 30, -2.0 ** 30],
                                 signs * 2.0 ** rng.uniform(-30.0, 30.0, 40)])
        # near-multiples, and rounded multiples fl(c direction), whose
        # bounds only the rounding widening keeps above the oracle
        later = np.concatenate([self.multiples(rng, direction, scales),
                                [(np.zeros(shape), c * direction) for c in scales]])
        anchor = linalg._StepAnchor()
        rows = self.svd_rows(monkeypatch)
        norms = [_step_norms(first, anchor)] + \
            [_step_norms(later[i:i + 11], anchor) for i in range(0, len(later), 11)]
        assert rows == [1]  # the first stack's largest difference alone
        monkeypatch.undo()
        exact = exact_step_norms(first)
        assert norms[0][0, 0].tobytes() == exact[0, 0].tobytes()
        self.within_gaps(norms[0], exact)
        self.within_gaps(np.concatenate(norms[1:]), exact_step_norms(later))

    def test_other_differences_are_solved_bitwise(self, monkeypatch):
        rng = np.random.default_rng(54)
        direction = rng.standard_normal((5, 5))
        anchor = linalg._StepAnchor()
        _step_norms(self.multiples(rng, direction, [1.0]), anchor)
        mixed = np.concatenate([self.multiples(rng, direction, [2.0, -3.0]),
                                rng.standard_normal((3, 2, 5, 5)),
                                self.multiples(rng, direction + 1e-6, [1.0])])
        rows = self.svd_rows(monkeypatch)
        norms = _step_norms(mixed, anchor)[:, 0]
        assert rows == [4]  # the random pairs and the one 1e-6 off the direction
        monkeypatch.undo()
        exact = exact_step_norms(mixed)[:, 0]
        assert [x.tobytes() for x in norms[2:]] == [x.tobytes() for x in exact[2:]]
        self.within_gaps(norms[:2], exact[:2])

    @pytest.mark.parametrize("learned", [1.0, 1e200, 1e-200])
    def test_anchored_scaled_stacks_raise_no_warning(self, monkeypatch, learned):
        rng = np.random.default_rng(55)
        direction = rng.standard_normal((4, 4))
        # differences with entries near 1e308, whose squares overflow
        c = 0.4e308 / np.abs(direction).max()
        huge = np.array([(-t * c * direction, (1.0 - t) * c * direction)
                         for t in (0.5, 0.25, 0.75)])
        top = 1.7e308 * np.sign(rng.standard_normal((4, 4)))
        stacks = [self.multiples(rng, direction, scale * np.array([1.0, -3.0, 0.5]))
                  for scale in (1e200, 1e-200, 1.0)] + [huge]
        # a difference 1e-300 times its stack's largest, whose residual
        # squares underflow, is not taken for a multiple
        tiny = self.multiples(rng, direction, [1.0, 2.0])
        tiny[1, 1] = tiny[1, 0] + 1e-300 * rng.standard_normal((4, 4))
        stacks.append(tiny)
        # a stack with a difference that overflows skips the anchor
        stacks.append(np.concatenate([huge, [(top, -top)]]))
        anchor = linalg._StepAnchor()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _step_norms(self.multiples(rng, direction, [learned]), anchor)
            rows = self.svd_rows(monkeypatch)
            norms = [_step_norms(stack, anchor)[:, 0] for stack in stacks]
            monkeypatch.undo()
            exact = [exact_step_norms(stack)[:, 0] for stack in stacks]
        assert rows == [1, 3]  # the tiny difference; the last stack's finite ones
        assert np.isinf(norms[-1]).tolist() == np.isinf(exact[-1]).tolist() == \
            [False, False, False, True]
        norms[-1], exact[-1] = norms[-1][:3], exact[-1][:3]
        self.within_gaps(np.concatenate(norms), np.concatenate(exact))

    def test_curved_path_takes_no_anchored_bound(self, monkeypatch):
        # a quadratic path turns its step direction: every step is solved,
        # one row per difference, as by the exact oracle
        import z2flow.flow as flow_module

        a, c, b = np.random.default_rng(4).standard_normal((3, 8, 8))
        path = OperatorPath((0.0, 1.0),
                            lambda t: (1 - t) ** 2 * a + 2 * t * (1 - t) * c + t ** 2 * b)
        outcomes, counts = [], []
        for norms in (exact_step_norms, _step_norms):
            monkeypatch.setattr(flow_module, "_step_norms", norms)
            count = TestSharedStepNorms.spy_rows(monkeypatch)
            outcomes.append(TestSharedStepNorms.outcome(embed_chiral_path(path)))
            counts.append((count["rows"], count["stacks"]))
            monkeypatch.undo()
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][:3] == (parity_finite(path), 85, 5)
        assert counts == [(112, 18), (112, 18)]

    def test_paths_solved_in_alternation_keep_their_own_anchor(self, monkeypatch):
        # the sine wave is solved inside the line's flow, from the line's
        # 30th evaluation on: each flow and its step rows are as solo
        line = _fixed_line()
        wave = embed_chiral_path(
            _diagonal_path(lambda t: np.sin(40 * np.pi * t + 0.1), lambda t: 1.0))
        count = TestSharedStepNorms.spy_rows(monkeypatch)
        solo = []
        for path in (embed_chiral_path(line), wave):
            rows = count["rows"]
            solo.append(TestSharedStepNorms.outcome(path))
            solo.append(count["rows"] - rows)
        assert solo[1] == solo[3] == 1
        inner, calls = [], []

        def evaluator(t):
            calls.append(t)
            if len(calls) == 30:
                rows = count["rows"]
                inner.append(TestSharedStepNorms.outcome(wave))
                inner.append(count["rows"] - rows)
            return line.evaluator(t)

        rows = count["rows"]
        outer = TestSharedStepNorms.outcome(
            embed_chiral_path(OperatorPath(line.interval, evaluator, "general")))
        assert [outer, count["rows"] - rows - inner[1]] + inner == solo


def _skew_block_path(f, arc=None, bad_t=None):
    """4 x 4 skew path [[0, f], [-f, 0]] + [[0, 3], [-3, 0]], with an
    optional arc and one evaluation at ``bad_t`` that is not skew."""
    def evaluator(t):
        m = np.zeros((4, 4))
        m[0, 1], m[1, 0], m[2, 3], m[3, 2] = f(t), -f(t), 3.0, -3.0
        if t == bad_t:
            m[0, 0] = 1.0
        return m

    if arc is not None:
        evaluator.arc = arc
    return OperatorPath((0.0, 1.0), evaluator, "skew")


class TestLevelOrder:
    """Each refinement level is searched as one stack; the first error,
    type and message, is still the one of the depth-first search."""

    @staticmethod
    def level_errors(monkeypatch):
        """Spy on the level search: the exception of each call that raised,
        with the number of segments it was given."""
        import z2flow.flow as flow_module

        errors, inner = [], flow_module._level_windows

        def spy(data, level, rng):
            try:
                return inner(data, level, rng)
            except Exception as exc:
                errors.append((len(level), exc))
                raise

        monkeypatch.setattr(flow_module, "_level_windows", spy)
        return errors

    def test_floor_comes_before_a_later_shape_change(self, monkeypatch):
        # a jump at 0.1 reaches the refinement floor depth first, before
        # the segments right of 0.9 are solved; by level, the 3 x 3 matrix
        # at t = 0.9375 comes up first (a second jump, at 0.7, keeps the
        # step bound from accepting [0.5, 1] on its parent's samples)
        def evaluator(t):
            if 0.9 < t < 0.95:
                return np.eye(3)
            return np.diag([-1.0 if t <= 0.1 else 1.0, -1.0 if t > 0.7 else 1.0])

        errors = self.level_errors(monkeypatch)
        with pytest.raises(RefinementError) as info:
            parity_path(OperatorPath((0.0, 1.0), evaluator))
        assert str(info.value) == (
            "no valid spectral window above segment length 1e-06 on "
            "[0.09999942779541016, 0.10000038146972656]")
        size, first = errors[0]
        assert size > 1 and isinstance(first, DimensionError)
        assert "at t=0.9375" in str(first)

    def test_symmetry_failure_comes_before_a_lying_arc_to_its_right(self, monkeypatch):
        # by level, the endpoint audit of [0.5, 1] refuses the arc before
        # the new samples of [0, 0.5] are solved; depth first, the
        # evaluation at 3/16, which is not skew, comes first
        f = lambda t: float(np.interp(t, [0.0, 0.5, 1.0], [-1.0, 1.0, 0.5]))
        arc = lambda ts: (40.0 * np.minimum(ts, 0.5)
                          + 0.01 * np.maximum(np.asarray(ts) - 0.5, 0.0))
        errors = self.level_errors(monkeypatch)
        with pytest.raises(SymmetryError,
                           match="^matrix is not skew-symmetric within tolerance$"):
            sf2_path(_skew_block_path(f, arc, bad_t=3 / 16))
        size, first = errors[0]
        assert size == 2 and isinstance(first, ConfigError)
        assert "from t=0.5 to t=1.0" in str(first)

    @pytest.mark.parametrize("fault", ["decreasing", "shape"])
    def test_faulty_arc_in_the_second_segment_of_a_level(self, monkeypatch, fault):
        # the arc is read once for the level [0, 0.5], [0.5, 1] and fails at
        # 0.5625, on the second segment's grid; the depth-first replay reads
        # that grid alone, and the message names it
        def arc(ts):
            ts = np.asarray(ts, dtype=float)
            values = np.where(ts <= 0.5, 0.1 * ts, 0.05 + 40.0 * (ts - 0.5))
            if fault == "decreasing":
                return np.where(ts == 0.5625, 0.0, values)
            return np.append(values, 0.0) if (ts == 0.5625).any() else values

        f = lambda t: float(np.interp(t, [0.0, 0.5, 1.0], [1.0, 1.0, -1.0]))
        errors = self.level_errors(monkeypatch)
        with pytest.raises(ConfigError, match=re.escape(
                "nondecreasing in t; it does not on [0.5, 1.0]")):
            sf2_path(_skew_block_path(f, arc))
        assert errors[0][0] == 2

    def test_singular_start_refused_before_the_end_is_read(self):
        def evaluator(t):
            return np.zeros((2, 2)) if t == 0.0 else np.eye(3)

        with pytest.raises(NotAdmissibleError, match=r"at t=0\.0 is singular"):
            parity_path(OperatorPath((0.0, 1.0), evaluator))

    def test_both_endpoints_in_one_solve(self, monkeypatch):
        import z2flow.flow as flow_module
        from z2flow import linalg

        stacks = []
        inner = linalg.skew_singular_system

        def spy(mat, *args, **kwargs):
            stacks.append(np.shape(mat))
            return inner(mat, *args, **kwargs)

        path = to_skew_path(OperatorPath((0.0, 1.0), lambda t: np.diag([t - 0.5, 1.0])))
        monkeypatch.setattr(linalg, "skew_singular_system", spy)
        flow_module._endpoint_spectra(flow_module._PathData(path))
        assert stacks == [(2, 2, 2)]

    def test_one_stack_per_level(self, monkeypatch):
        # a level's new samples are evaluated, validated and solved as one
        # stack: every solve of the flow below is one level's
        import z2flow.paths as paths_module
        from z2flow import linalg

        solves, checks = [], []
        inner, validated = linalg.skew_singular_system, paths_module._validated

        def spy_solve(mat, *args, **kwargs):
            solves.append(len(mat))
            return inner(mat, *args, **kwargs)

        def spy_validated(m, tag, frame):
            checks.append(m.shape[:-2])
            return validated(m, tag, frame)

        levels = []
        errors = self.level_errors(monkeypatch)
        import z2flow.flow as flow_module
        search = flow_module._level_windows

        def spy_level(data, level, rng):
            levels.append(len(level))
            return search(data, level, rng)

        path = OperatorPath.from_samples(
            [0.0, 0.4, 1.0], [np.diag([1.0, 2.0, 1.0]), np.diag([-1.0, 0.5, 1.5]),
                              np.diag([-1.0, 2.0, -1.0])], "general")
        expected = parity_finite(path)
        monkeypatch.setattr(flow_module, "_level_windows", spy_level)
        monkeypatch.setattr(linalg, "skew_singular_system", spy_solve)
        monkeypatch.setattr(paths_module, "_validated", spy_validated)
        res = sf2_path(to_skew_path(path))
        assert res.value == expected and not errors
        # the endpoints, then at most one stack per level, each validated
        # whole: no matrix is validated alone
        assert solves[0] == 2 and len(solves) - 1 <= len(levels)
        assert max(levels) > 1 and sum(solves) == res.evaluations
        assert checks and all(len(shape) == 1 for shape in checks)
        assert [n for (n,) in checks] == solves


class TestParityPath:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            dim = int(rng.integers(1, 9))
            path = random_admissible_path(rng, dim,
                                          knots=int(rng.integers(2, 5)))
            assert parity_path(path) == parity_finite(path)

    def test_insulator_odd_class(self):
        path = build_insulator_path(RingShiftSpec(8, 1, 1))
        assert parity_path(path) == -1

    def test_rectangular_redirected(self):
        path = OperatorPath((0.0, 1.0),
                            lambda t: np.ones((2, 1)), "general", None, 1)
        with pytest.raises(DimensionError):
            parity_path(path)


class TestParityPathGeneral:
    def test_constant_full_rank(self):
        path = OperatorPath((0.0, 1.0),
                            lambda t: np.array([[1.0], [0.0]]),
                            "general", None, 1)
        assert parity_path_general(path) == 1

    def test_growing_column(self):
        path = OperatorPath((0.0, 1.0),
                            lambda t: np.array([[1.0 + t * t], [0.0]]),
                            "general", None, 1)
        assert parity_path_general(path) == 1

    def test_restricted_crossing(self):
        # 3x1 family whose complement path is exactly the simple crossing
        path = OperatorPath((-1.0, 1.0),
                            lambda t: np.array([[t], [0.0], [0.0]]),
                            "general", None, 2)
        assert parity_path_general(path) == -1

    @pytest.mark.parametrize("wide", [False, True])
    def test_skew_form_is_square_doubling(self, wide):
        # the 3x1 crossing and its transpose reduce to a 1x1 block path whose
        # doubling carries the parity through sf2_path
        def ev(t):
            b = np.array([[t], [0.0], [0.0]])
            return b.T if wide else b
        path = OperatorPath((-1.0, 1.0), ev, "general", None, -2 if wide else 2)
        skew = to_skew_path(path)
        assert skew.symmetry_tag == "chiral-skew"
        assert skew.frame == ChiralFrame(1, 1) and skew.declared_index == 0
        assert sf2_path(skew).value == parity_path_general(path) == -1

    def test_wrong_endpoint_kernel_rejected(self):
        # kernel dimension at the endpoints exceeds the declared index
        path = OperatorPath((0.0, 1.0),
                            lambda t: np.zeros((2, 1)), "general", None, 1)
        with pytest.raises(NotAdmissibleError):
            parity_path_general(path)

    def test_square_inputs_delegate(self):
        rng = np.random.default_rng(4)
        path = random_admissible_path(rng, 3)
        assert parity_path_general(path) == parity_finite(path)

    def test_rotated_embedding_oracle(self):
        # B(t) = Q(t) [[M(t)], [0]] with Q orthogonal: the kernel family is
        # Q(t) applied to the padding rows and the reduced family carries
        # exactly the parity of the square factor M
        rng = np.random.default_rng(12)
        for _ in range(15):
            n = int(rng.integers(1, 5))
            d = int(rng.integers(1, 4))
            mpath = random_admissible_path(rng, n, knots=3)
            qfun = random_orthogonal_path(rng, n + d)

            def ev(t, _m=mpath, _q=qfun, _n=n, _d=d):
                return _q(t) @ np.vstack([_m.evaluator(t), np.zeros((_d, _n))])

            path = OperatorPath((0.0, 1.0), ev, "general", None, d)
            assert parity_path_general(path) == parity_finite(mpath)

    def test_kernel_jump_refused(self):
        # the kernel direction of the 2x1 block jumps at t = 0.377: no
        # continuous kernel family exists at any sampling resolution
        def jump(t):
            return np.array([[1.0], [0.0]]) if t < 0.377 else np.array([[0.0], [1.0]])
        path = OperatorPath((0.0, 1.0), jump, "general", None, 1)
        with pytest.raises(RefinementError, match="continuous kernel family"):
            parity_path_general(path)

    def test_singular_nonzero_endpoint_rejected(self):
        # endpoint with a kernel but nonzero entries must still be refused
        path = OperatorPath(
            (0.0, 1.0), lambda t: np.diag([t, 1.0 + t]), "general")
        with pytest.raises(NotAdmissibleError):
            parity_path(path)

    @pytest.mark.xfail(strict=True, reason=(
        "FOUND at the one-copy-of-each-kernel change (ROADMAP item 6): the "
        "65-point grid of _square_block_path has no step check and its "
        "cosine test cannot see sign, so a fast-turning path aliases"))
    @pytest.mark.parametrize("seed", [None, 1])
    def test_fast_turning_rectangular_path(self, seed):
        # Rz(200 t) Rx(140 t) [[t - 0.3, 0], [0, 1], [0, 0]]: the square core
        # crosses once, at t = 0.3
        def rotation(axis, angle):
            c, s = np.cos(angle), np.sin(angle)
            r = np.eye(3)
            i, j = [k for k in range(3) if k != axis]
            r[i, i] = r[j, j] = c
            r[i, j], r[j, i] = -s, s
            return r

        core = lambda t: np.array([[t - 0.3, 0.0], [0.0, 1.0]])
        path = OperatorPath(
            (0.0, 1.0), lambda t: rotation(2, 200 * t) @ rotation(0, 140 * t)
            @ np.vstack([core(t), np.zeros((1, 2))]), "general", None, 1)
        assert parity_finite(OperatorPath((0.0, 1.0), core)) == -1
        rng = None if seed is None else np.random.default_rng(seed)
        assert parity_path_general(path, rng=rng) == -1


def _per_point_square_blocks(path):
    """Knots and blocks of the rectangular reduction computed point by
    point, three SVDs per sample (block, frame cosine, complement polar):
    the reference for the batched ``_square_block_path``."""
    wide = path.declared_index < 0
    t0, t1 = path.interval
    cache = {}

    def polar(x):
        w, _, vt = np.linalg.svd(x, full_matrices=False)
        return w @ vt

    def at(t):
        if t not in cache:
            b = path.at(t).T if wide else path.at(t)
            u, s, _ = np.linalg.svd(b)
            cache[t] = (b, u, s)
        return cache[t]

    sigma_max = max(at(t)[2].max(initial=0.0) for t in (t0, t1))

    def kernel_frame(t, prev):
        _, u, s = at(t)
        k = s.size
        cluster = s < tol.inv(max(sigma_max, 1e-300)) * 10
        if prev is None or not cluster.any():
            return u[:, k:]
        near = np.concatenate([u[:, k:], u[:, :k][:, cluster]], axis=1)
        return near @ polar(near.T @ prev)

    frames = {t0: kernel_frame(t0, None)}

    def continue_frame(a, b):
        f = kernel_frame(b, frames[a])
        if np.linalg.svd(frames[a].T @ f, compute_uv=False)[-1] < _COS_MIN:
            return None
        frames[b] = f
        return f

    segments, _ = _refine(np.linspace(t0, t1, 65), lambda level: [continue_frame(*level[0])],
                          "continuous kernel family", depth_first=True)
    ts = [t0] + [hi for _, hi, _ in segments]
    _, u, s = at(t0)
    w = u[:, :s.size]
    blocks = []
    for t in ts:
        f = frames[t]
        w = polar(w - f @ (f.T @ w))
        blocks.append(w.T @ at(t)[0])
    return ts, blocks


class TestSquareBlockReduction:
    """The rectangular reduction solves its 65-point grid in batch."""

    @staticmethod
    def reduce(path, monkeypatch):
        """Knots and blocks that ``_square_block_path`` interpolates."""
        samples = []
        build = OperatorPath.from_samples

        def spy(ts, mats, *rest):
            samples.append(([float(t) for t in ts], np.array(mats)))
            return build(ts, mats, *rest)

        monkeypatch.setattr(OperatorPath, "from_samples", spy)
        _square_block_path(path)
        monkeypatch.undo()
        return samples[0]

    @staticmethod
    def rotated(rng, n, d, wide=False):
        mpath = random_admissible_path(rng, n, knots=3)
        qfun = random_orthogonal_path(rng, n + d)

        def ev(t):
            b = qfun(t) @ np.vstack([mpath.evaluator(t), np.zeros((d, n))])
            return b.T if wide else b

        return OperatorPath((0.0, 1.0), ev, "general", None, -d if wide else d)

    def assert_matches_per_point(self, path, monkeypatch):
        ts, blocks = self.reduce(path, monkeypatch)
        ref_ts, ref_blocks = _per_point_square_blocks(path)
        assert ts == [float(t) for t in ref_ts]
        scale = max(float(np.abs(b).max()) for b in ref_blocks)
        np.testing.assert_allclose(blocks, np.array(ref_blocks), rtol=0,
                                   atol=1e-12 * scale)
        return ts

    def test_rotated_embeddings_match_per_point_loop(self, monkeypatch):
        rng = np.random.default_rng(12)
        for i in range(8):
            path = self.rotated(rng, int(rng.integers(1, 5)),
                                int(rng.integers(1, 4)), wide=bool(i % 2))
            self.assert_matches_per_point(path, monkeypatch)

    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("wide", [False, True])
    def test_cluster_on_a_grid_node(self, wide, rotated, monkeypatch):
        # the block vanishes at t = 0, node 32 of the grid on [-1, 1]: the
        # kernel frame there is polar-transported from its left neighbour
        # (rotated, the structural columns U[:, 1:] of the zero block are
        # far from the kernel family)
        q = random_orthogonal_path(np.random.default_rng(3), 3)(0.7)

        def ev(t):
            b = np.array([[t], [0.0], [0.0]])
            b = q @ b if rotated else b
            return b.T if wide else b

        path = OperatorPath((-1.0, 1.0), ev, "general", None, -2 if wide else 2)
        ts = self.assert_matches_per_point(path, monkeypatch)
        assert 0.0 in ts and len(ts) == 65

    def test_bisected_kernel(self, monkeypatch):
        # the kernel turns by 40/64 rad between grid nodes, cosine 0.81 <
        # _COS_MIN: every grid pair is bisected
        path = OperatorPath(
            (0.0, 1.0), lambda t: np.array([[np.cos(40 * t)], [np.sin(40 * t)]]),
            "general", None, 1)
        assert np.cos(40.0 / 64) < _COS_MIN
        ts = self.assert_matches_per_point(path, monkeypatch)
        assert len(ts) > 65
        assert parity_path_general(path) == 1

    def test_grid_takes_a_few_batched_svds(self, monkeypatch):
        # a rotated 5x3 path without bisection or clusters: the grid's
        # blocks are one stacked solve of its _PathData, and its frame
        # cosines and complement polars are one batch each
        path = self.rotated(np.random.default_rng(7), 3, 2)
        ts, _ = self.reduce(path, monkeypatch)
        assert len(ts) == 65
        calls, solves = [], []
        svd, solve = np.linalg.svd, linalg.skew_singular_system

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        def stacked(mat, *args):
            solves.append((mat.shape, args))
            return solve(mat, *args)

        monkeypatch.setattr(np.linalg, "svd", counted)
        monkeypatch.setattr(linalg, "skew_singular_system", stacked)
        _square_block_path(path)
        assert len(calls) == 3
        assert solves == [((65, 5, 3), (True, True))]

    @pytest.mark.parametrize("bisects", [False, True])
    def test_one_evaluation_per_sample(self, bisects, monkeypatch):
        # the caller's evaluator runs once per grid point and once per
        # bisection midpoint, and not once more to learn the block's shape
        if bisects:  # the kernel turns by 40/64 rad between grid nodes
            source = lambda t: np.array([[np.cos(40 * t)], [np.sin(40 * t)]])
        else:
            source = self.rotated(np.random.default_rng(7), 2, 1).evaluator
        calls = []
        path = OperatorPath((0.0, 1.0), lambda t: calls.append(t) or source(t),
                            "general", None, 1)
        calls.clear()  # building the path read its block shape
        ts, _ = self.reduce(path, monkeypatch)
        assert sorted(calls) == ts
        assert len(ts) > 65 if bisects else len(ts) == 65

    @pytest.mark.parametrize("wide", [False, True])
    def test_batch_then_depth_first(self, wide, monkeypatch):
        # a seeded 4x2 block whose cokernel turns fast on [0.4, 0.6] only
        # and whose core is singular at t = 0.75, grid node 48: the grid
        # pairs up to 0.390625 stand as the batch settled them, the
        # depth-first search bisects from the first refused pair on, and
        # transports the cluster frame at 0.75 from the frames it settled
        import z2flow.flow as flow_module

        rng = np.random.default_rng(29)
        o = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        p, q = (np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in range(2))

        def ev(t):
            angle = 100 * min(max(t - 0.4, 0.0), 0.2)
            turn = np.eye(4)
            turn[[0, 0, 3, 3], [0, 3, 0, 3]] = (np.cos(angle), -np.sin(angle),
                                                np.sin(angle), np.cos(angle))
            core = p @ np.diag([t - 0.75, 1.0 + t]) @ q
            b = o @ turn @ np.vstack([core, np.zeros((2, 2))])
            return b.T if wide else b

        path = OperatorPath((0.0, 1.0), ev, "general", None, -2 if wide else 2)
        assert np.linalg.svd(ev(0.75), compute_uv=False)[-1] < 1e-15
        transports, split = [], flow_module._polar_split
        monkeypatch.setattr(flow_module, "_polar_split",
                            lambda x, floor: transports.append(x.shape) or split(x, floor))
        ts = self.assert_matches_per_point(path, monkeypatch)
        grid = np.linspace(0.0, 1.0, 65).tolist()
        assert ts[:26] == grid[:26] and grid[25] < ts[26] < grid[26]
        assert ts[-26:] == grid[39:] and ts[-27] not in grid
        assert (3, 2) in transports  # near-cokernel frame and cluster column
        assert parity_path_general(path) == -1

    @pytest.mark.parametrize("wide", [False, True])
    def test_cluster_before_the_first_refusal(self, wide, monkeypatch):
        # the block of test_batch_then_depth_first with its core singular at
        # t = 0.25, grid node 16, ahead of the fast turn on [0.4, 0.6]: the
        # batch's stacked cosines stop at node 15, and the depth-first
        # search transports the cluster frame at node 16, then bisects the
        # turn
        import z2flow.flow as flow_module

        rng = np.random.default_rng(29)
        o = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        p, q = (np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in range(2))

        def ev(t):
            angle = 100 * min(max(t - 0.4, 0.0), 0.2)
            turn = np.eye(4)
            turn[[0, 0, 3, 3], [0, 3, 0, 3]] = (np.cos(angle), -np.sin(angle),
                                                np.sin(angle), np.cos(angle))
            core = p @ np.diag([t - 0.25, 1.0 + t]) @ q
            b = o @ turn @ np.vstack([core, np.zeros((2, 2))])
            return b.T if wide else b

        path = OperatorPath((0.0, 1.0), ev, "general", None, -2 if wide else 2)
        assert np.linalg.svd(ev(0.25), compute_uv=False)[-1] < 1e-15
        cosine_pairs, cosines = [], flow_module._smallest_cosines
        monkeypatch.setattr(flow_module, "_smallest_cosines",
                            lambda f, g: cosine_pairs.append(len(f)) or cosines(f, g))
        transports, split = [], flow_module._polar_split
        monkeypatch.setattr(flow_module, "_polar_split",
                            lambda x, floor: transports.append(x.shape) or split(x, floor))
        ts = self.assert_matches_per_point(path, monkeypatch)
        grid = np.linspace(0.0, 1.0, 65).tolist()
        assert cosine_pairs[0] == 15  # the batch's pairs of nodes 0..15
        assert (3, 2) in transports  # near-cokernel frame and cluster column
        assert ts[:26] == grid[:26] and len(ts) == 105
        assert parity_path_general(path) == -1

    @pytest.mark.parametrize("wide", [False, True])
    def test_untransportable_cluster_frame_bisects(self, wide, monkeypatch):
        # R(32 pi t) [[t - 0.5, 0], [0, 1], [0, 0]], R turning the (e2, e3)
        # plane: the cokernel turns by 90 degrees between grid nodes, and at
        # node 32 (t = 0.5), where the core is singular, the cluster frame
        # span{e1, e3} is orthogonal to node 31's cokernel e2.  The batch
        # keeps the frames of nodes 0..31 only, and the depth-first search
        # refuses and bisects the segments whose frame does not transport
        # instead of raising TransportError
        import z2flow.flow as flow_module

        def ev(t):
            c, s = np.cos(32 * np.pi * t), np.sin(32 * np.pi * t)
            turn = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
            b = turn @ np.array([[t - 0.5, 0.0], [0.0, 1.0], [0.0, 0.0]])
            return b.T if wide else b

        path = OperatorPath((0.0, 1.0), ev, "general", None, -1 if wide else 1)
        cosine_pairs, cosines = [], flow_module._smallest_cosines
        monkeypatch.setattr(flow_module, "_smallest_cosines",
                            lambda f, g: cosine_pairs.append(len(f)) or cosines(f, g))
        ts = self.assert_matches_per_point(path, monkeypatch)
        assert cosine_pairs[0] == 31  # the batch's pairs of nodes 0..31
        assert 0.5 in ts and len(ts) > 65
        core = OperatorPath((0.0, 1.0), lambda t: np.array([[t - 0.5, 0.0], [0.0, 1.0]]))
        assert parity_finite(core) == -1
        assert parity_path_general(path) == -1

    def test_declared_arc_is_not_read(self):
        # the evaluator declares arc = 0, which would make the path one
        # matrix, while its block moves through a crossing: the reduction
        # reads the path as opaque and keeps its square core's parity
        core = lambda t: np.array([[t - 0.3, 0.0], [0.0, 1.0]])

        def ev(t):
            return np.vstack([core(t), np.zeros((1, 2))])

        ev.arc = lambda ts: np.zeros_like(np.asarray(ts, dtype=float))
        path = OperatorPath((0.0, 1.0), ev, "general", None, 1)
        expected = parity_finite(OperatorPath((0.0, 1.0), core))
        assert expected == -1
        assert parity_path_general(path) == expected
        wide = OperatorPath((0.0, 1.0), lambda t: ev(t).T, "general", None, -1)
        wide.evaluator.arc = ev.arc
        assert parity_path_general(wide) == expected

    @pytest.mark.parametrize("interval, expected", [
        ((0.0, 5e-324), RefinementError), ((1.0, 1.0 + 4 * _EPS), -1),
        ((1e300, float(np.nextafter(1e300, 2e300))), RefinementError)])
    def test_interval_shorter_than_the_grid(self, interval, expected):
        # fewer than 65 floats in the interval: the grid drops its repeated
        # points, and the rectangular path ends as its square twin does,
        # with its value or the same error, not with repeated knots
        def outcome(rows):
            mats = [np.array([[s, 0.0], [0.0, 1.0]] + rows) for s in (-1.0, 1.0)]
            path = OperatorPath.from_samples(list(interval), mats, "general")
            try:
                return int(parity_path_general(path))
            except Exception as exc:
                return type(exc), str(exc)

        square = outcome([])
        assert outcome([[0.0, 0.0]]) == square
        if expected == -1:
            assert square == -1
        else:
            assert square[0] is expected
            assert "cannot be bisected in floating point" in square[1]


class TestShapeChanges:
    """An evaluator that changes shape inside the interval is refused with a
    DimensionError naming t and both shapes, before anything is stacked."""

    @staticmethod
    def switching(outer, inner, tag="general", index=0):
        # outer on [0, 0.5) and at t = 1, inner in between
        return OperatorPath((0.0, 1.0),
                            lambda t: outer if t < 0.5 or t == 1.0 else inner,
                            tag, None, index)

    def test_parity_path(self):
        path = self.switching(np.eye(2), np.eye(3))
        with pytest.raises(DimensionError,
                           match=re.escape("(3, 3) at t=0.5 but (2, 2) at t=0.0")):
            parity_path(path)

    def test_sf2_path(self):
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        path = self.switching(j, np.kron(np.eye(2), j), "skew")
        with pytest.raises(DimensionError,
                           match=re.escape("(4, 4) at t=0.5 but (2, 2) at t=0.0")):
            sf2_path(path)

    @pytest.mark.parametrize("wide", [False, True])
    def test_parity_path_general(self, wide):
        outer = np.array([[1.0], [0.0]])
        inner = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        if wide:
            outer, inner = outer.T, inner.T
        path = self.switching(outer, inner, index=-1 if wide else 1)
        with pytest.raises(DimensionError, match=re.escape(
                f"{inner.shape} at t=0.5 but {outer.shape} at t=0.0")):
            parity_path_general(path)

    def test_parity_via_pairs(self):
        path = embed_chiral_path(self.switching(np.eye(2), np.eye(3)))
        with pytest.raises(DimensionError,
                           match=re.escape("(3, 3) at t=0.5 but (2, 2) at t=0.0")):
            parity_via_pairs(path)

    @staticmethod
    def switching_sum():
        # [[t - 0.3]] plus a part that switches from 2 x 2 to 3 x 3
        return OperatorPath.direct_sum([
            OperatorPath((0.0, 1.0), lambda t: np.array([[t - 0.3]])),
            TestShapeChanges.switching(np.eye(2), np.eye(3))])

    def test_direct_sum_at(self):
        path = self.switching_sum()
        message = "part 1 has shape (3, 3) at t=0.5 but is placed as (2, 2)"
        for read in (path.at, path.block):
            with pytest.raises(DimensionError, match=re.escape(message)):
                read(0.5)

    def test_direct_sum_parity_via_pairs(self):
        path = embed_chiral_path(self.switching_sum())
        with pytest.raises(DimensionError,
                           match=re.escape("(3, 3) at t=0.5 but (2, 2) at t=0.0")):
            parity_via_pairs(path)


class TestLeraySchauderDegree:
    def test_zero(self):
        assert leray_schauder_degree(np.zeros((5, 5))) == 1

    def test_rank_one_shift(self):
        k = np.zeros((4, 4))
        k[0, 0] = -2.0
        assert leray_schauder_degree(k) == -1

    def test_small_norm_trivial(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            k = rng.standard_normal((n, n))
            k *= 0.9 / np.linalg.norm(k, 2)
            assert leray_schauder_degree(k) == 1
            assert sign_det(np.eye(n) + k) == 1

    def test_eigenvalue_at_minus_one_rejected(self):
        with pytest.raises(SingularError):
            leray_schauder_degree(np.diag([-1.0, 0.0]))

    def test_matches_sign_det(self):
        rng = np.random.default_rng(6)
        count = 0
        while count < 200:
            n = int(rng.integers(1, 8))
            k = rng.standard_normal((n, n)) * rng.uniform(0.2, 3.0)
            if np.linalg.svd(np.eye(n) + k, compute_uv=False)[-1] < 0.05:
                continue
            assert leray_schauder_degree(k) == sign_det(np.eye(n) + k)
            count += 1


class TestSelfadjointToSkew:
    def test_block_substitution(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(
            selfadjoint_to_skew(h, ChiralFrame(1, 1)),
            [[0.0, 1.0], [-1.0, 0.0]])

    def test_zero(self):
        np.testing.assert_allclose(
            selfadjoint_to_skew(np.zeros((2, 2)), ChiralFrame(1, 1)),
            np.zeros((2, 2)))

    def test_ring_hopping_is_orthogonal(self):
        h = build_insulator_path(RingShiftSpec(6, 1, 1)).at(0.0)
        t = selfadjoint_to_skew(h, ChiralFrame(6, 6))
        sv = np.linalg.svd(t, compute_uv=False)
        np.testing.assert_allclose(sv, np.ones(12), atol=1e-12)

    def test_non_symmetric_rejected(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(SymmetryError):
            selfadjoint_to_skew(bad, ChiralFrame(1, 1))

    def test_non_chiral_rejected(self):
        bad = np.eye(2)
        with pytest.raises(SymmetryError):
            selfadjoint_to_skew(bad, ChiralFrame(1, 1))

    def test_path_conversion_preserves_flow(self):
        path = build_insulator_path(RingShiftSpec(8, 1, 1))
        skew = selfadjoint_path_to_skew(path)
        assert skew.symmetry_tag == "chiral-skew"
        assert sf2_path(skew).value == -1


class TestKRealReduce:
    def test_identity_involution(self):
        frame = ChiralFrame(2, 2)
        b = np.array([[1.0, 0.5], [0.5, 2.0]])
        h = np.zeros((4, 4), dtype=complex)
        h[:2, 2:] = b
        h[2:, :2] = b.T
        out = k_real_reduce(h, np.eye(4), frame)
        np.testing.assert_allclose(out, h.real, atol=1e-12)

    def test_imaginary_sector(self):
        frame = ChiralFrame(2, 2)
        k = np.diag([1.0, -1.0, 1.0, -1.0])
        b = np.array([[0.7, 0.4j], [0.9j, -1.1]])
        h = np.zeros((4, 4), dtype=complex)
        h[:2, 2:] = b
        h[2:, :2] = b.conj().T
        out = k_real_reduce(h, k, frame)
        assert out.dtype == float
        np.testing.assert_allclose(out, out.T, atol=1e-12)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(7)
        frame = ChiralFrame(2, 2)
        k = np.diag([1.0, -1.0, 1.0, -1.0])
        a, b_, c, d = rng.standard_normal(4)
        blk = np.array([[a, 1j * c], [1j * d, b_]])
        h = np.zeros((4, 4), dtype=complex)
        h[:2, 2:] = blk
        h[2:, :2] = blk.conj().T
        out = k_real_reduce(h, k, frame)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(out)),
            np.sort(np.linalg.eigvalsh(h)), atol=1e-10)

    def test_not_k_real_rejected(self):
        frame = ChiralFrame(1, 1)
        k = np.diag([1.0, -1.0])
        h = np.array([[0.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])
        with pytest.raises(SymmetryError):
            k_real_reduce(h, k, frame)

    def test_bad_involution_rejected(self):
        frame = ChiralFrame(1, 1)
        with pytest.raises(SymmetryError):
            k_real_reduce(np.zeros((2, 2)), np.diag([1.0, 2.0]), frame)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_h_rejected(self, bad):
        # a NaN H passed every symmetry test and came back as a NaN matrix
        h = np.array([[0.0, bad], [bad, 0.0]], dtype=complex)
        with pytest.raises(ConfigError, match="^H entries must be finite$"):
            k_real_reduce(h, np.eye(2), ChiralFrame(1, 1))


class TestFlowProperties:
    """Smoke versions of the invariance properties (full runs in acceptance)."""

    def test_partition_independence(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            dim = int(rng.integers(1, 5))
            path = embed_chiral_path(random_admissible_path(rng, dim))
            base = sf2_path(path).value
            for rep in range(4):
                assert sf2_path(
                    path, rng=np.random.default_rng(rep)).value == base

    def test_invertible_paths_trivial(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            path = random_invertible_path(rng, int(rng.integers(1, 5)))
            assert parity_path(path) == 1

    def test_orthogonal_conjugation(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            path = random_admissible_path(rng, dim)
            o_of = random_orthogonal_path(rng, dim)
            conj = OperatorPath(
                path.interval,
                lambda t, _p=path, _o=o_of: _o(t) @ _p.evaluator(t) @ _o(t).T,
                "general")
            assert parity_path(conj) == parity_path(path)
