"""The public surface: the names the benchmark tracer wraps, the one reader
of path evaluators, and the typed refusals of the public entry points."""

import ast
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from z2flow.cli import config_from_args
from z2flow.errors import ConfigError, DimensionError
from z2flow.flow import (
    _reduced,
    embed_chiral,
    leray_schauder_degree,
    parity_finite,
    parity_path_general,
    selfadjoint_path_to_skew,
    sf2_finite,
    to_skew_path,
)
from z2flow.pairs import ComplexStructure, FredholmPair, j_index, parity_via_pairs
from z2flow.paths import ChiralFrame, OperatorPath, _stacked, validate_symmetry

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def test_traced_names_resolve():
    # the tracer replaces owner.__dict__[attr] for every target, so a name
    # that leaves its module breaks the traced benchmark run
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in spans.TARGETS
               if attr not in owner.__dict__]
    assert missing == []


def test_one_reader_of_evaluators():
    # paths._stacked is the one route from an evaluator to a checked matrix:
    # no other module calls a path's evaluator or declares its block
    found = []
    for file in sorted((ROOT / "src" / "z2flow").glob("*.py")):
        if file.name == "paths.py":
            continue
        for node in ast.walk(ast.parse(file.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "evaluator"):
                found.append(f"{file.name}:{node.lineno} calls an evaluator")
            if (isinstance(node, ast.Attribute) and node.attr == "block"
                    and isinstance(node.ctx, ast.Store)):
                found.append(f"{file.name}:{node.lineno} assigns a block")
    assert found == []


def test_example_command_is_retired():
    # ``parity --model NAME`` runs every example
    with pytest.raises(ConfigError, match="invalid choice"):
        config_from_args(["example", "--name", "examp"])


def test_empty_degree_is_plus():
    assert leray_schauder_degree(np.zeros((0, 0))) == 1


def _frame_pair():
    one = ComplexStructure(embed_chiral(np.eye(1)), ChiralFrame(1, 1))
    two = ComplexStructure(embed_chiral(np.eye(2)), ChiralFrame(2, 2))
    return FredholmPair(one, two)


def _shape_changing_motion():
    # diag(t - 1/2, 1) declaring the motion e1 c(t) e1^T, whose c(t) = [[t]]
    # at the ends turns 2 x 2 inside
    def c(t):
        return np.array([[t]]) if t in (0.0, 1.0) else np.eye(2) * t

    def block(t):
        return np.diag([t - 0.5, 1.0])

    e1 = np.eye(2)[:, :1]
    block.motion = (e1, e1, OperatorPath((0.0, 1.0), c))
    return _reduced(to_skew_path(OperatorPath((0.0, 1.0), block))).block(0.5)


def _plain(shape, tag="general", frame=None, index=0):
    return OperatorPath((0.0, 1.0), lambda t: np.zeros(shape), tag, frame, index)


def _ragged_stack():
    grows = OperatorPath((0.0, 1.0), lambda t: np.eye(1 if t < 0.5 else 2))
    return _stacked(grows, [0.0, 0.25, 0.5, 1.0])


REFUSALS = {
    "parity_finite-rectangular": (
        lambda: parity_finite(_plain((3, 2), index=1)), DimensionError,
        "parity of square families only; see parity_path_general"),
    "sf2_finite-shapes": (
        lambda: sf2_finite(np.zeros((2, 2)), np.zeros((4, 4))), DimensionError,
        "matching square shapes required: (2, 2) vs (4, 4)"),
    "degree-non-square": (
        lambda: leray_schauder_degree(np.zeros((2, 3))), DimensionError,
        "square matrix required"),
    "parity_path_general-skew": (
        lambda: parity_path_general(_plain((2, 2), "skew")), ConfigError,
        "parity_path_general expects a path of plain blocks"),
    "selfadjoint_path_to_skew-chiral-skew": (
        lambda: selfadjoint_path_to_skew(_plain((2, 2), "chiral-skew", ChiralFrame(1, 1))),
        ConfigError, "expected a chiral-selfadjoint path"),
    "parity_via_pairs-general": (
        lambda: parity_via_pairs(_plain((2, 2))), DimensionError,
        "parity_via_pairs expects a chiral-skew path"),
    "complex-structure-frame": (
        lambda: ComplexStructure(embed_chiral(np.eye(2)), ChiralFrame(1, 1)),
        DimensionError, "matrix does not match the chiral frame"),
    "fredholm-pair-frames": (
        _frame_pair, DimensionError, "pair members must share shape and frame"),
    "j_index-orthogonal-frame": (
        lambda: j_index(ComplexStructure(embed_chiral(np.eye(1)), ChiralFrame(1, 1)),
                        np.eye(4)),
        DimensionError, "orthogonal does not match the chiral frame"),
    "motion-c-changes-shape": (
        _shape_changing_motion, DimensionError,
        "the motion path c has shape (2, 2) at t=0.5 but is declared (1, 1)"),
    "stack-changes-shape": (
        _ragged_stack, DimensionError,
        "path matrix has shape (2, 2) at t=0.5 but (1, 1) at t=0.0; the "
        "evaluator must keep one shape"),
    "symmetry-no-frame": (
        lambda: validate_symmetry(np.zeros((2, 2)), "chiral-skew", None), ConfigError,
        "symmetry tag 'chiral-skew' requires a chiral frame"),
    "symmetry-frame-size": (
        lambda: validate_symmetry(np.zeros((2, 2)), "chiral-skew", ChiralFrame(2, 2)),
        DimensionError, "chiral frame does not match matrix dimension"),
    "symmetry-unknown-tag": (
        lambda: validate_symmetry(np.zeros((2, 2)), "hermitian", ChiralFrame(1, 1)),
        ConfigError, "unknown symmetry tag 'hermitian'"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_typed_refusal(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
