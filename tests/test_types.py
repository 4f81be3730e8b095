"""Domain-type invariants: group elements, chiral frames, paths."""

import numpy as np
import pytest

from z2flow import tolerances as tol
from z2flow.errors import ConfigError, DimensionError, SymmetryError
from z2flow.paths import ChiralFrame, OperatorPath, _stacked, validate_symmetry
from z2flow.z2 import MINUS, PLUS, Z2, z2_product


class TestZ2:
    def test_values(self):
        assert Z2(1) == 1 and Z2(-1) == -1
        with pytest.raises(ValueError):
            Z2(0)
        with pytest.raises(ValueError):
            Z2(2)

    def test_group_law(self):
        assert PLUS * PLUS == PLUS
        assert PLUS * MINUS == MINUS
        assert MINUS * MINUS == PLUS
        assert isinstance(MINUS * MINUS, Z2)

    def test_product(self):
        assert z2_product([]) == PLUS
        assert z2_product([MINUS, MINUS, MINUS]) == MINUS


class TestChiralFrame:
    def test_grading(self):
        j = ChiralFrame(2, 1).grading()
        np.testing.assert_array_equal(j, np.diag([1.0, 1.0, -1.0]))

    def test_negative_blocks(self):
        with pytest.raises(ConfigError):
            ChiralFrame(-1, 2)


class TestOperatorPath:
    def test_bad_interval(self):
        with pytest.raises(ConfigError):
            OperatorPath((1.0, 0.0), lambda t: np.eye(2), "general")

    def test_overflowing_interval_length(self):
        with pytest.raises(ConfigError, match="finite length"):
            OperatorPath((-1e308, 1e308), lambda t: np.eye(2), "general")

    def test_unknown_tag(self):
        with pytest.raises(ConfigError):
            OperatorPath((0.0, 1.0), lambda t: np.eye(2), "hermitian")

    def test_chiral_requires_frame(self):
        with pytest.raises(ConfigError):
            OperatorPath((0.0, 1.0), lambda t: np.zeros((2, 2)), "chiral-skew")

    def test_index_must_match_shape(self):
        with pytest.raises(ConfigError):
            OperatorPath((0.0, 1.0), lambda t: np.ones((2, 1)),
                         "general", None, 0)

    def test_tag_validated_per_evaluation(self):
        def ev(t):
            return np.eye(2) if t > 0.5 else np.zeros((2, 2))

        path = OperatorPath((0.0, 1.0), ev, "skew")
        path.at(0.2)
        with pytest.raises(SymmetryError):
            path.at(0.8)

    def test_from_samples_interp(self):
        path = OperatorPath.from_samples(
            [0.0, 1.0], [np.zeros((1, 1)), np.ones((1, 1))], "general")
        assert path.at(0.25)[0, 0] == pytest.approx(0.25)

    def test_from_samples_requires_monotone(self):
        with pytest.raises(ConfigError):
            OperatorPath.from_samples(
                [0.0, 0.0], [np.eye(1), np.eye(1)], "general")

    def test_from_samples_shape_consistency(self):
        with pytest.raises(ConfigError):
            OperatorPath.from_samples(
                [0.0, 1.0], [np.eye(1), np.eye(2)], "general")

    @staticmethod
    def _ragged_array():
        ragged = np.empty(2, dtype=object)
        ragged[0], ragged[1] = np.eye(2), np.eye(3)
        return ragged

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "ndarray"])
    @pytest.mark.parametrize("fault, error, message", [
        ("ragged", ConfigError, "all samples must share one matrix shape"),
        ("1-d", DimensionError, "expected a matrix, got array of ndim=1"),
        ("non-finite", ConfigError, "matrix entries must be finite"),
        ("miscounted", ConfigError, "sample count mismatch"),
    ])
    def test_from_samples_refuses_malformed_samples(self, fault, error, message,
                                                     as_array):
        if fault == "ragged":
            mats = self._ragged_array() if as_array else [np.eye(2), np.eye(3)]
        else:
            mats = {"1-d": np.ones((2, 3)),
                    "non-finite": np.stack([np.eye(2), np.diag([1.0, np.nan])]),
                    "miscounted": np.stack([np.eye(2)] * 3)}[fault]
            if not as_array:
                mats = list(mats)
        with pytest.raises(error, match=f"^{message}$"):
            OperatorPath.from_samples([0.0, 1.0], mats)

    @pytest.mark.parametrize("entry", [1j, "1"], ids=["complex", "string"])
    def test_non_real_entries_refused(self, entry):
        # complex entries were cast to real with a ComplexWarning, their
        # imaginary part dropped; a string raised a bare ValueError
        mat = np.array([[entry]])
        with pytest.raises(ConfigError, match="^matrix entries must be real numbers"):
            OperatorPath((0.0, 1.0), lambda t: mat).at(0.5)
        with pytest.raises(ConfigError, match="^matrix entries must be real numbers"):
            OperatorPath.from_samples([0.0, 1.0], [mat, mat])

    def test_from_samples_keeps_its_own_copy(self):
        mats = np.stack([np.eye(2), -np.eye(2)])
        path = OperatorPath.from_samples([0.0, 1.0], mats)
        mats[:] = 0.0
        np.testing.assert_array_equal(path.at(1.0), -np.eye(2))

    @pytest.mark.parametrize("interval", [(0.0, np.inf), (-np.inf, 0.0),
                                          (0.0, np.nan)])
    def test_non_finite_interval(self, interval):
        with pytest.raises(ConfigError):
            OperatorPath(interval, lambda t: np.eye(2), "general")

    @pytest.mark.parametrize("ts", [[0.0, np.inf], [0.0, np.nan, 1.0],
                                    [-np.inf, 0.0, 1.0]])
    def test_from_samples_requires_finite(self, ts):
        with pytest.raises(ConfigError):
            OperatorPath.from_samples(ts, [np.eye(1)] * len(ts), "general")


class TestValidateSymmetry:
    def test_accepts_nested_lists(self):
        validate_symmetry([[0.0, 1.0], [-1.0, 0.0]], "skew", None)
        validate_symmetry([[0.0, 2.0], [2.0, 0.0]], "chiral-selfadjoint",
                          ChiralFrame(1, 1))
        with pytest.raises(SymmetryError):
            validate_symmetry([[0.0, 1.0], [1.0, 0.0]], "skew", None)
        with pytest.raises(DimensionError):
            validate_symmetry([[0.0, 1.0]], "skew", None)


class TestStackedReads:
    """``paths._stacked`` reads a list of parameters as one stack, validated
    in one pass, equal to the matrices read one by one."""

    def test_stack_equals_single_reads(self):
        from z2flow.flow import embed_chiral_path

        rng = np.random.default_rng(5)
        g = rng.standard_normal((3, 2, 2))
        general = OperatorPath.from_samples([0.0, 0.5, 1.0], g)
        chiral = OperatorPath((0.0, 1.0), lambda t: np.block(
            [[np.zeros((2, 2)), t * g[0]], [-t * g[0].T, np.zeros((2, 2))]]),
            "chiral-skew", ChiralFrame(2, 2))
        ts = [0.1, 0.25, 0.9]
        for path in (general, chiral, embed_chiral_path(general)):
            np.testing.assert_array_equal(_stacked(path, ts), [path.at(t) for t in ts])
            np.testing.assert_array_equal(_stacked(path, ts, True),
                                          [path.block(t) for t in ts])

    def test_each_matrix_against_its_own_scale(self):
        # the second matrix is skew within its own tolerance, the third is not
        mats = {0.0: np.array([[0.0, 1.0], [-1.0, 0.0]]),
                1.0: 1e-20 * np.array([[0.0, 1.0], [-1.0, 0.0]]),
                2.0: np.array([[0.0, 1e-20], [0.0, 0.0]])}
        path = OperatorPath((0.0, 2.0), lambda t: mats[t], "skew")
        assert _stacked(path, [0.0, 1.0]).shape == (2, 2, 2)
        with pytest.raises(SymmetryError):
            _stacked(path, [0.0, 1.0, 2.0])
        with pytest.raises(DimensionError):
            _stacked(OperatorPath((0.0, 1.0), lambda t: np.zeros((2, 2, 2))), [0.0, 1.0])
        with pytest.raises(ConfigError, match="no chiral block"):
            _stacked(path, [0.0, 1.0], True)

    def test_doubling_stacks_its_source(self, monkeypatch):
        import z2flow.paths as paths_module
        from z2flow.flow import embed_chiral_path

        doubled = embed_chiral_path(OperatorPath((0.0, 1.0), lambda t: np.array([[t - 0.5]])))
        passes, inner = [], paths_module._validated
        monkeypatch.setattr(paths_module, "_validated",
                            lambda m, *a: passes.append(m.shape) or inner(m, *a))
        np.testing.assert_array_equal(_stacked(doubled, [0.0, 1.0], True),
                                      [[[-0.5]], [[0.5]]])
        assert passes == [(2, 1, 1)]  # the source's two matrices, in one pass

    def test_block_cut_from_the_validated_matrix(self):
        # an evaluator's ``block`` attribute declares nothing: the block is
        # cut from the matrix the evaluator returns, after its validation
        def evaluator(t):
            return np.array([[0.0, t - 0.5], [0.5 - t, 0.0]])

        def block(t):
            raise AssertionError("an evaluator's block is not read")

        evaluator.block = block
        path = OperatorPath((0.0, 1.0), evaluator, "chiral-skew", ChiralFrame(1, 1))
        np.testing.assert_array_equal(_stacked(path, [0.0, 1.0], True),
                                      [[[-0.5]], [[0.5]]])
        np.testing.assert_array_equal(path.block(1.0), [[0.5]])
        bent = lambda t: np.array([[0.0, 1.0], [1.0, 0.0]])
        bent.block = lambda t: np.array([[1.0]])
        with pytest.raises(SymmetryError):
            OperatorPath((0.0, 1.0), bent, "chiral-skew", ChiralFrame(1, 1)).block(0.0)


class TestToleranceScale:
    def test_parse_valid(self):
        assert tol.parse_scale("1") == 1.0
        assert tol.parse_scale(" 2.5e1 ") == 25.0

    @pytest.mark.parametrize("text", ["abc", "0", "-1", "-0.0", "nan", "inf", ""])
    def test_parse_rejects(self, text):
        with pytest.raises(ConfigError):
            tol.parse_scale(text)

    def test_scale_is_fixed_after_first_read(self, monkeypatch):
        first = tol.scale()
        monkeypatch.setenv("Z2FLOW_TOLERANCE_SCALE", "abc")
        assert tol.scale() == first
