"""Unit tests for the model builders."""

import numpy as np
import pytest

from z2flow.errors import ConfigError, NotAdmissibleError
from z2flow.flow import embed_chiral, parity_path, selfadjoint_to_skew
from z2flow.linalg import sign_det
from z2flow.models import (
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
from z2flow.pairs import ComplexStructure, FredholmPair, pi_index, index_pairing_rhs


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
        with pytest.raises(ConfigError):
            build_example_path("doubled_perturbed", s=-1.0)

    def test_strength_only_for_perturbed(self):
        with pytest.raises(ConfigError):
            build_example_path("examp", s=0.5)

    def test_symmetry_tags_hold(self):
        rng = np.random.default_rng(0)
        for name in ("examp", "examp_abs", "doubled"):
            path = build_example_path(name)
            for t in rng.uniform(-1, 1, size=50):
                path.at(t)  # validates the chiral-skew tag


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


class TestInsulator:
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

    def test_disorder_preserves_parity(self):
        for (k, n, expected) in [(1, 1, -1), (1, 2, 1)]:
            spec = RingShiftSpec(8, k, n)
            for seed in range(3):
                path = build_insulator_disordered(spec, 0.1, seed)
                assert parity_path(path) == expected


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

    def test_symmetry_tag_general(self):
        path = build_bifurcation_path(GalerkinSpec(3, 2.0, 0.5))
        assert path.symmetry_tag == "general"
        b = path.at(1.8)
        np.testing.assert_allclose(b, b.T, atol=1e-12)
