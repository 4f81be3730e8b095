"""Unit tests for the model builders."""

import math

import numpy as np
import pytest

from z2flow import tolerances as tol
from z2flow.errors import ConfigError, NotAdmissibleError
from z2flow.flow import (
    embed_chiral,
    embed_chiral_path,
    parity_finite,
    parity_path,
    selfadjoint_path_to_skew,
    selfadjoint_to_skew,
    sf2_path,
    to_skew_path,
)
from z2flow.linalg import sign_det
from z2flow.models import (
    EXAMPLE_NAMES,
    GalerkinSpec,
    RingShiftSpec,
    bifurcation_crossing_modes,
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
    index_pairing_rhs,
    parity_via_pairs,
    pi_index,
)
from z2flow.paths import OperatorPath

from conftest import spy_solves


class TestExamplePaths:
    def test_simple_crossing_values(self):
        path = build_example_path("examp")
        np.testing.assert_allclose(path.at(0.5), [[0.0, 0.5], [-0.5, 0.0]])

    def test_absolute_value_symmetry(self):
        examp = build_example_path("examp")
        examp_abs = build_example_path("examp_abs")
        np.testing.assert_allclose(examp_abs.at(-1.0), examp.at(1.0))

    def test_perturbed_doubled_isospectral(self):
        path = build_example_path("doubled_perturbed", s=1.0)
        sv = np.linalg.svd(path.at(0.0), compute_uv=False)
        np.testing.assert_allclose(sv, np.ones(4), atol=1e-12)
        for t in (-0.7, 0.2, 0.9):
            sv = np.linalg.svd(path.at(t), compute_uv=False)
            np.testing.assert_allclose(
                sv, np.full(4, np.hypot(t, 1.0)), atol=1e-12)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            build_example_path("nope")

    def test_negative_strength(self):
        for s in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="strength s must be finite"):
                build_example_path("doubled_perturbed", s=s)

    def test_strength_only_for_perturbed(self):
        with pytest.raises(ConfigError):
            build_example_path("examp", s=0.5)

    def test_symmetry_tags_hold(self):
        rng = np.random.default_rng(0)
        for name in ("examp", "examp_abs", "doubled"):
            path = build_example_path(name)
            for t in rng.uniform(-1, 1, size=50):
                path.at(t)  # validates the chiral-skew tag

    @pytest.mark.parametrize("name, s", [("examp", None), ("examp_abs", None),
                                         ("doubled", None),
                                         ("doubled_perturbed", 1.0),
                                         ("doubled_perturbed", 0.3)])
    def test_doublings_match_the_explicit_matrices(self, name, s):
        path = build_example_path(name, s)
        for t in np.linspace(-1.0, 1.0, 33):
            if name == "examp":
                expected = np.array([[0.0, t], [-t, 0.0]])
            elif name == "examp_abs":
                expected = np.array([[0.0, abs(t)], [-abs(t), 0.0]])
            elif name == "doubled":
                expected = np.zeros((4, 4))
                expected[:2, 2:] = np.diag([t, t])
                expected[2:, :2] = -np.diag([t, t]).T
            else:
                expected = np.array([[0.0, 0.0, t, -s], [0.0, 0.0, s, t],
                                     [-t, -s, 0.0, 0.0], [s, -t, 0.0, 0.0]])
            assert path.at(t).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_flow_reads_the_block(self, name, monkeypatch):
        # the engine reads the block path; no chiral matrix is validated
        import z2flow.paths as paths_module

        tags = []

        def spy(mat, tag, frame, _fn=paths_module.validate_symmetry):
            tags.append(tag)
            return _fn(mat, tag, frame)

        monkeypatch.setattr(paths_module, "validate_symmetry", spy)
        sf2_path(build_example_path(name))
        assert tags and not [t for t in tags if t.startswith("chiral")]


class TestRankOnePair:
    def test_structure_shapes(self):
        structure, o = build_rank_one_pair(3)
        assert structure.matrix.shape == (6, 6)
        np.testing.assert_allclose(o @ o.T, np.eye(6), atol=1e-12)

    def test_midpoint_kernel(self):
        structure, o = build_rank_one_pair(4)
        conj = o @ structure.matrix @ o.T
        mid = 0.5 * (structure.matrix + conj)
        sv = np.linalg.svd(mid, compute_uv=False)
        assert int((sv < 1e-12).sum()) == 2

    def test_index_values(self):
        structure, o = build_rank_one_pair(4)
        other = ComplexStructure(o @ structure.matrix @ o.T, structure.frame)
        assert pi_index(FredholmPair(structure, other)) == -1
        assert index_pairing_rhs(structure, o) == 1

    def test_bad_dimension(self):
        with pytest.raises(ConfigError):
            build_rank_one_pair(0)


def _dense_ring_block(spec, t):
    """The ring's block as a dense matrix: the k-th power of the cyclic
    shift whose marked link carries cos(pi t), tensored with the fiber."""
    m = spec.sites
    shift = np.roll(np.eye(m), 1, axis=1)
    shift[spec.link_site, (spec.link_site + 1) % m] = math.cos(math.pi * t)
    return np.kron(np.linalg.matrix_power(shift, spec.shift_power),
                   np.eye(spec.fiber_dim))


# (M, k, N, link site), the marked link at either end of the ring and inside
_RING_GRID = [(12, 1, 1, 0), (8, 1, 2, 7), (48, 2, 1, 0), (48, 2, 1, 47),
              (128, 1, 1, 64), (64, 1, 4, 0), (12, 5, 1, 11), (10, 1, 3, 4),
              (16, 3, 2, 1), (400, 3, 1, 200)]


class TestInsulator:
    @pytest.mark.parametrize("m, k, n, link", _RING_GRID)
    def test_block_equals_the_dense_ring(self, m, k, n, link):
        spec = RingShiftSpec(m, k, n, link)
        path = build_insulator_path(spec)
        for t in (0.0, 0.25, 0.3, 0.5, 0.75, 1.0):
            np.testing.assert_array_equal(path.block(t), _dense_ring_block(spec, t))

    @pytest.mark.parametrize("m, k, n, link", _RING_GRID[:8])
    def test_parity_equals_the_determinant_oracle(self, m, k, n, link):
        spec = RingShiftSpec(m, k, n, link)
        oracle = sign_det(_dense_ring_block(spec, 0.0)) * sign_det(
            _dense_ring_block(spec, 1.0))
        path = build_insulator_path(spec)
        assert parity_path(path) == oracle
        assert parity_path(path, rng=np.random.default_rng(m + k + n)) == oracle

    @pytest.mark.parametrize("m, k, n, link", _RING_GRID[:8])
    def test_disordered_block_is_the_dense_ring_plus_a_constant(self, m, k, n, link):
        spec = RingShiftSpec(m, k, n, link)
        noisy = build_insulator_disordered(spec, 0.1, seed=2)
        w = noisy.block(0.5) - _dense_ring_block(spec, 0.5)
        assert np.linalg.svd(w, compute_uv=False)[0] == pytest.approx(0.1)
        for t in (0.0, 0.25, 0.3, 0.75, 1.0):
            np.testing.assert_allclose(noisy.block(t), _dense_ring_block(spec, t) + w,
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("k, n", [(1, 1), (2, 1), (1, 3), (3, 2)])
    def test_listings_do_not_grow_with_the_ring(self, k, n):
        # N copies of k link parts and one identity: two distinct parts,
        # solved at 9 + 1 parameters whatever M
        for m in (2 * k + 2, 40, 400):
            path = build_insulator_path(RingShiftSpec(m, k, n))
            parts = path.evaluator.parts
            assert len(parts) == n * (k + 1)
            assert len({id(part) for part, _, _ in parts}) == 2
            res = sf2_path(to_skew_path(path))
            assert (res.evaluations, res.refinement_depth) == (10, 0)
            assert len(res.windows) == n * (k + 1)

    @pytest.mark.parametrize("randomized", [False, True])
    @pytest.mark.parametrize("m, k, n, link", _RING_GRID)
    def test_pair_route_on_the_declared_sum(self, m, k, n, link, randomized):
        # part by part equals the same ring assembled with no parts, and the
        # determinant oracle of its block path
        spec = RingShiftSpec(m, k, n, link)
        declared = selfadjoint_path_to_skew(build_insulator_path(spec))
        assembled = OperatorPath((0.0, 1.0), lambda t: declared.block(t))
        oracle = parity_finite(assembled)
        rng = np.random.default_rng(m + k + n) if randomized else None
        assert parity_via_pairs(declared, rng=rng) == oracle
        assert parity_via_pairs(embed_chiral_path(assembled), rng=rng) == oracle

    def test_pair_route_solves_the_identity_once(self, monkeypatch):
        spec = RingShiftSpec(12)
        ring = selfadjoint_path_to_skew(build_insulator_path(spec))
        identity = next(part for part, rows, _ in ring.evaluator.parts
                        if len(rows) > 1)
        evaluated = []
        block = OperatorPath.block

        def spy_block(self, t):
            if self is identity:
                evaluated.append(t)
            return block(self, t)

        monkeypatch.setattr(OperatorPath, "block", spy_block)
        solved = spy_solves(monkeypatch)
        assert parity_via_pairs(ring) == -1
        solves = [m.shape for m, _, _ in solved]
        # solved at the start; evaluated at the end only to compare
        assert evaluated == [0.0, 1.0]
        assert [s for s in solves if s != (1, 1)] == [(11, 11)]
        assert len(solves) == 9 + 1  # the link part's 9-point grid

    def test_singular_constant_part_refused(self):
        # a constant part is taken from one solve, which still checks that
        # its matrix is invertible
        weak = lambda t: np.array([[math.cos(math.pi * t)]])
        weak.arc = lambda ts: 1.0 - np.cos(np.pi * np.asarray(ts))
        zero = lambda t: np.zeros((2, 2))
        zero.arc = lambda ts: np.zeros(np.shape(ts))
        path = embed_chiral_path(OperatorPath.direct_sum(
            [OperatorPath((0.0, 1.0), weak), OperatorPath((0.0, 1.0), zero)]))
        with pytest.raises(NotAdmissibleError):
            parity_via_pairs(path)
        with pytest.raises(NotAdmissibleError):
            sf2_path(path)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            RingShiftSpec(3, 1, 1)
        with pytest.raises(ConfigError):
            RingShiftSpec(6, 3, 1)  # M < 2k + 2
        with pytest.raises(ConfigError):
            RingShiftSpec(8, 1, 1, link_site=8)

    def test_symmetry_tag_holds(self):
        path = build_insulator_path(RingShiftSpec(8, 2, 2))
        rng = np.random.default_rng(1)
        for t in rng.uniform(0, 1, size=50):
            path.at(t)

    def test_endpoints_orthogonal_blocks(self):
        path = build_insulator_path(RingShiftSpec(8, 1, 1))
        for t in (0.0, 1.0):
            sv = np.linalg.svd(path.at(t), compute_uv=False)
            np.testing.assert_allclose(sv, np.ones(16), atol=1e-12)

    def test_determinant_oracle(self):
        # the endpoint determinant signs give the parity without any flow
        for (k, n) in [(1, 1), (1, 2), (2, 1), (1, 3)]:
            for m in (8, 12):
                path = build_insulator_path(RingShiftSpec(m, k, n))
                dim = m * n
                b0 = path.at(0.0)[:dim, dim:]
                b1 = path.at(1.0)[:dim, dim:]
                expected = -1 if (k * n) % 2 else 1
                assert sign_det(b1) * sign_det(b0) == expected

    def test_half_flux_kernel(self):
        for (k, n, m) in [(1, 1, 8), (1, 2, 8), (2, 1, 10), (1, 3, 12)]:
            spec = RingShiftSpec(m, k, n)
            assert half_flux_kernel_dim(spec) == 2 * k * n

    def test_parity_ring_size_independent(self):
        values = set()
        for m in (8, 10, 12, 16):
            path = build_insulator_path(RingShiftSpec(m, 1, 1))
            values.add(int(parity_path(path)))
        assert values == {-1}

    def test_parity_link_site_independent(self):
        values = set()
        for link in (0, 3, 6):
            path = build_insulator_path(RingShiftSpec(8, 1, 1, link_site=link))
            values.add(int(parity_path(path)))
        assert values == {-1}

    def test_gauge_transformation(self):
        # sign flip on site 0 maps t to 1 - t except on the wrap link
        m = 8
        path = build_insulator_path(RingShiftSpec(m, 1, 1))
        g_site = np.ones(m)
        g_site[0] = -1.0
        g = np.diag(np.concatenate([g_site, g_site]))
        wrap = {(m - 1, m), (m, m - 1)}  # H-indices of the wrap hop
        for t in (0.2, 0.5, 0.8):
            lhs = g @ path.at(t) @ g
            rhs = path.at(1.0 - t)
            diff = np.abs(lhs - rhs)
            mism = {(int(i), int(j)) for i, j in np.argwhere(diff > 1e-12)}
            assert mism == wrap

    def test_disorder_zero_strength_identical(self):
        spec = RingShiftSpec(8, 1, 1)
        clean = build_insulator_path(spec)
        noisy = build_insulator_disordered(spec, 0.0, seed=7)
        for t in (0.0, 0.3, 1.0):
            np.testing.assert_array_equal(noisy.at(t), clean.at(t))

    def test_disorder_strength_guard(self):
        with pytest.raises(NotAdmissibleError):
            build_insulator_disordered(RingShiftSpec(8, 1, 1), 0.6, seed=0)

    @pytest.mark.parametrize("strength", [-0.5, float("nan"), float("inf")])
    def test_disorder_strength_must_be_finite_non_negative(self, strength):
        with pytest.raises(ConfigError, match="finite and >= 0"):
            build_insulator_disordered(RingShiftSpec(8, 1, 1), strength, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_disorder_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            build_insulator_disordered(RingShiftSpec(8, 1, 1), 0.1, seed)

    def test_half_flux_kernel_follows_the_tolerance_scale(self, monkeypatch):
        # at scale 1e9 the kernel threshold lies above every singular value
        monkeypatch.setattr(tol, "_scale", 1e9)
        assert half_flux_kernel_dim(RingShiftSpec(12)) == 24

    def test_disorder_preserves_parity(self):
        for (k, n, expected) in [(1, 1, -1), (1, 2, 1)]:
            spec = RingShiftSpec(8, k, n)
            for seed in range(3):
                path = build_insulator_disordered(spec, 0.1, seed)
                assert parity_path(path) == expected


_MOTION_GRID = [(m, k, n, link) for m in (8, 12, 64) for k in (1, 2, 3)
                for n in (1, 2) for link in (0, 3)]


class TestDisorderedMotion:
    """The disordered ring declares its rank-kN link motion, and every
    engine solves its kN x kN reduced path: on the whole grid the reduced
    routes equal the endpoint oracle of the assembled block, and so does
    the dense route on the block with the declaration stripped."""

    @staticmethod
    def stripped(skew):
        dense = lambda t: skew.block(t)
        dense.arc = skew.evaluator.arc
        return embed_chiral_path(OperatorPath(skew.interval, dense))

    @pytest.mark.parametrize("m, k, n, link", _MOTION_GRID)
    def test_reduced_route_equals_oracle_and_dense_route(self, m, k, n, link):
        spec = RingShiftSpec(m, k, n, link)
        # the dense route costs 20 ms per path on a 12 x 12 block and up to
        # 0.4 s on 128 x 128, so it runs on the first seeds only
        dense_seeds = range(5) if m < 64 else range(1)
        for strength in (0.1, 0.3):
            for seed in range(10):
                path = build_insulator_disordered(spec, strength, seed)
                skew = to_skew_path(path)
                dense = self.stripped(skew)
                oracle = parity_finite(OperatorPath(path.interval, skew.block))
                res = sf2_path(skew)
                assert (res.value, res.motion_rank) == (oracle, k * n)
                rng = lambda: np.random.default_rng(seed)
                routes = [lambda: sf2_path(skew, rng=rng()).value,
                          lambda: parity_path(path),
                          lambda: parity_path(path, rng=rng()),
                          lambda: parity_via_pairs(skew),
                          lambda: parity_via_pairs(skew, rng=rng())]
                if seed in dense_seeds:
                    routes += [lambda: sf2_path(dense).value,
                               lambda: sf2_path(dense, rng=rng()).value,
                               lambda: parity_via_pairs(dense),
                               lambda: parity_via_pairs(dense, rng=rng())]
                assert [route() for route in routes] == [oracle] * len(routes), \
                    (strength, seed)

    def test_digest_hashes_the_declaration(self):
        # the digest reads B(t0), p, q and c, never the dense block at
        # another parameter; changing any of the four changes it
        from z2flow.cli import _digest_path

        skew = to_skew_path(build_insulator_disordered(RingShiftSpec(12), 0.1, 3))
        p, q, c = skew.evaluator.motion
        read = []

        def declared(block=skew.block, motion=(p, q, c)):
            def evaluator(t):
                raise AssertionError("the digest builds no doubled matrix")

            def traced(t):
                read.append(t)
                return block(t)

            evaluator.block, evaluator.arc = traced, skew.evaluator.arc
            evaluator.motion = motion
            return OperatorPath(skew.interval, evaluator, "chiral-skew", skew.frame)

        def scaled(path, factor):
            ev = lambda t: factor * path.at(t)
            ev.arc = lambda ts: abs(factor) * path.evaluator.arc(ts)
            return OperatorPath(path.interval, ev)

        shifted = lambda t: skew.block(t) + 1e-9 * (t == 0.0)
        digests = [_digest_path(declared()),
                   _digest_path(declared(shifted)),
                   # the same block declared by 2p and c / 2, by -q and -c
                   _digest_path(declared(motion=(2 * p, q, scaled(c, 0.5)))),
                   _digest_path(declared(motion=(p, -q, scaled(c, -1.0)))),
                   _digest_path(declared(motion=(p, q, scaled(c, 2.0))))]
        assert digests[0] == _digest_path(skew)
        assert len(set(digests)) == len(digests)
        assert set(read) == {0.0}

    def test_declaration_selects_the_link_entries(self):
        path = build_insulator_disordered(RingShiftSpec(12, 2, 2, 3), 0.2, 4)
        p, q, c = path.evaluator.motion  # forwarded by the doubling
        assert p.shape == q.shape == (24, 4)
        np.testing.assert_array_equal(p.T @ p, np.eye(4))
        np.testing.assert_array_equal(q.T @ q, np.eye(4))
        for t in (0.0, 0.3, 0.5, 1.0):
            np.testing.assert_allclose(path.block(t) - path.block(0.0),
                                       p @ c.at(t) @ q.T, rtol=0, atol=1e-15)


def _bifurcation_by_parts(spec: GalerkinSpec) -> OperatorPath:
    """The bifurcation sum declared part by part, as before path families:
    one 2 x 2 path [[1, t k], [t k, 1]] of arc |k| (t - t0) per distinct k."""
    modes = spec.modes()
    m = len(modes)
    t0 = spec.interval[0]
    shared = {}
    for k1, k2 in modes:
        q = k1 * k1 + k2 * k2
        if q not in shared:
            k = -1.0 / q
            ev = lambda t, k=k: np.array([[1.0, t * k], [t * k, 1.0]])
            ev.arc = lambda ts, k=k: abs(k) * (np.asarray(ts) - t0)
            shared[q] = OperatorPath(spec.interval, ev)
    place = [[i, m + i] for i in range(m)]
    path = OperatorPath.direct_sum(
        [shared[k1 * k1 + k2 * k2] for k1, k2 in modes], place, place)
    speed = 1.0 / min(shared)
    path.evaluator.arc = lambda ts: speed * (np.asarray(ts) - t0)
    return path


def _flow_record(res):
    """Value, counters and windows (floats as hex) of a flow result."""
    return (int(res.value), res.evaluations, res.refinement_depth,
            res.motion_rank,
            [(float(w.t_lo).hex(), float(w.t_hi).hex(), float(w.a).hex(),
              w.rank, int(w.factor), w.summand) for w in res.windows])


class TestBifurcation:
    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            GalerkinSpec(1, 2.0, 0.5)
        with pytest.raises(ConfigError):
            GalerkinSpec(4, 2.0, -0.1)
        with pytest.raises(ConfigError):
            GalerkinSpec(4, 5.0, 0.5)  # the (1,2)/(2,1) crossing sits at 5

    def test_kernel_at_crossing(self):
        spec = GalerkinSpec(4, 2.0, 0.5)
        path = build_bifurcation_path(spec)
        b2 = path.at(2.0)
        sv, basis = np.linalg.eigh(b2.T @ b2)
        assert int((sv < 1e-12).sum()) == 1
        vec = basis[:, 0]
        m = spec.mode_cutoff ** 2
        expected = np.zeros(2 * m)
        expected[0] = expected[m] = 1.0 / np.sqrt(2.0)
        assert abs(abs(vec @ expected) - 1.0) < 1e-10

    def test_block_eigenvalue_formulas(self):
        spec = GalerkinSpec(4, 2.0, 0.5)
        path = build_bifurcation_path(spec)
        m = spec.mode_cutoff ** 2
        idx = [0, m, 2 * m, 3 * m]  # (1,1)-mode coordinates in the doubling
        for t in np.linspace(1.5, 2.5, 21):
            t_emb = embed_chiral(path.at(t))
            block = t_emb[np.ix_(idx, idx)]
            eig = np.linalg.eigvals(block)
            eig = eig[np.argsort(eig.imag)]
            expected = np.array([
                -0.5j * (t - 2.0), 0.5j * (t - 2.0),
                -0.5j * (t + 2.0), 0.5j * (t + 2.0),
            ])
            expected = expected[np.argsort(expected.imag)]
            np.testing.assert_allclose(eig, expected, atol=1e-10)

    def test_parity(self):
        path = build_bifurcation_path(GalerkinSpec(4, 2.0, 0.5))
        assert parity_path(path) == -1

    def test_pair_route_equals_the_flow(self):
        # kmax 4 taken part by part, one pair route per distinct mode path
        path = embed_chiral_path(build_bifurcation_path(GalerkinSpec(4)))
        assert parity_via_pairs(path) == sf2_path(path).value == -1

    def test_no_other_crossing(self):
        for cutoff in (4, 5, 6):
            spec = GalerkinSpec(cutoff, 2.0, 0.5)
            modes = spec.modes()
            others = [i for i, mk in enumerate(modes) if mk != (1, 1)]
            path = build_bifurcation_path(spec)
            m = len(modes)
            sel = others + [m + i for i in others]
            for t in np.linspace(1.5, 2.5, 41):
                sub = path.at(t)[np.ix_(sel, sel)]
                smin = np.linalg.svd(sub, compute_uv=False)[-1]
                assert smin > 0.05

    def test_crossing_modes(self):
        assert bifurcation_crossing_modes(GalerkinSpec(4, 2.0, 0.5)) == [(1, 1)]
        assert bifurcation_crossing_modes(GalerkinSpec(4, 2.0, 0.1)) == [(1, 1)]

    @pytest.mark.parametrize("kmax", [4, 10, 20, 40])
    def test_family_equals_the_sum_part_by_part(self, kmax):
        spec = GalerkinSpec(kmax)
        family = sf2_path(to_skew_path(build_bifurcation_path(spec)))
        parts = sf2_path(to_skew_path(_bifurcation_by_parts(spec)))
        assert _flow_record(family) == _flow_record(parts)
        distinct = len({k1 * k1 + k2 * k2 for k1, k2 in spec.modes()})
        assert family.evaluations == 2 * (distinct - 1) + 9

    @pytest.mark.parametrize("kmax, digest", [
        (4, "3bede9de67676c9971508bccd8469941e0d862f9609c5cad0f6c91c18a933506"),
        (10, "aa41478eb5f11a4a1d4c69b8e59ffe6c1fc82b7a83bb669307046428dbea327a"),
        (40, "ed4cfd2c8441ddc359bc54aa11ba7ebe0b161a725810a92d6751c25094b2141c"),
    ])
    def test_input_digest_unchanged(self, kmax, digest):
        # each listed member hashes its rows of the family's stacks, the
        # bytes the part-by-part declaration hashes part by part
        from z2flow.cli import _digest_path

        spec = GalerkinSpec(kmax)
        for build in (build_bifurcation_path, _bifurcation_by_parts):
            assert _digest_path(to_skew_path(build(spec))) == digest

    def test_family_values_under_rng(self):
        spec = GalerkinSpec(10)
        family = to_skew_path(build_bifurcation_path(spec))
        parts = to_skew_path(_bifurcation_by_parts(spec))
        assert parity_via_pairs(family) == sf2_path(family).value == -1
        for seed in range(5):
            for path in (family, parts):
                rng = np.random.default_rng(seed)
                res = sf2_path(path, rng=rng)
                assert res.value == res.window_product() == -1
                assert parity_via_pairs(path, rng=np.random.default_rng(seed)) == -1

    def test_builds_one_family_and_no_mode_paths(self, monkeypatch):
        built = []
        post_init = OperatorPath.__post_init__

        def spy(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(OperatorPath, "__post_init__", spy)
        path = build_bifurcation_path(GalerkinSpec(10))
        assert built == [path]
        families = {id(p.family): p.family for p, _, _ in path.evaluator.parts}
        (family,) = families.values()
        assert len(family) == len({k1 * k1 + k2 * k2
                                   for k1, k2 in GalerkinSpec(10).modes()}) == 52

    def test_symmetry_tag_general(self):
        path = build_bifurcation_path(GalerkinSpec(3, 2.0, 0.5))
        assert path.symmetry_tag == "general"
        b = path.at(1.8)
        np.testing.assert_allclose(b, b.T, atol=1e-12)
