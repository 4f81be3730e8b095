"""Golden partitions of the windowed engines on seeded paths.

``data/flow_partitions.json`` records, for about sixty paths built by the
generators of ``conftest.py``, what ``sf2_path`` returns with no ``rng`` and
with ``default_rng(3)``: the value, the refinement depth, the evaluation
count, the motion rank and every window; and ``parity_via_pairs`` of the
chiral paths.  A change that keeps every partition keeps this file.  The
fixture is written by running this module as a script from the root of the
checkout::

    PYTHONPATH=src python tests/test_partitions.py
"""

import functools
import json
import os

import numpy as np
import pytest

from conftest import (
    random_admissible_path,
    random_chiral_skew_path,
    random_invertible_path,
    random_orthogonal_path,
)
from z2flow.errors import Z2FlowError
from z2flow.flow import sf2_path, to_skew_path
from z2flow.pairs import parity_via_pairs
from z2flow.paths import OperatorPath

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "flow_partitions.json")


def _skew_samples(rng, n, knots):
    """from_samples path of n x n skew matrices on irregular knots."""
    ts = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, knots - 2)), [1.0]])
    mats = [g - g.T for g in rng.standard_normal((knots, n, n))]
    return OperatorPath.from_samples(ts, mats, "skew")


def _rotated_rectangular(rng, n, d, wide):
    """A padded block rotated by a turning orthogonal path: index d (tall)
    or -d (wide), opaque, reduced to a square sampled block path."""
    square = random_admissible_path(rng, n)
    turn = random_orthogonal_path(rng, n + d)

    def evaluator(t):
        b = turn(t) @ np.vstack([square.evaluator(t), np.zeros((d, n))])
        return b.T if wide else b

    return OperatorPath((0.0, 1.0), evaluator, "general", None, -d if wide else d)


def _opaque(path):
    """The same path behind an evaluator that declares no arc."""
    return OperatorPath(path.interval, lambda t: path.evaluator(t),
                        path.symmetry_tag, path.frame, path.declared_index)


def partition_cases():
    """(name, skew path, chiral) for every seeded case, in a fixed order."""
    cases = []
    for seed in range(16):
        rng = np.random.default_rng(100 + seed)
        dim, knots = 1 + seed % 4, 2 + seed % 3
        cases.append((f"general/{seed}", to_skew_path(
            random_admissible_path(rng, dim, knots)), True))
    for seed in range(14):
        rng = np.random.default_rng(200 + seed)
        cases.append((f"skew/{seed}", _skew_samples(
            rng, 2 + 2 * (seed % 3), 2 + seed % 4), False))
    for seed in range(16):
        rng = np.random.default_rng(300 + seed)
        cases.append((f"chiral/{seed}", random_chiral_skew_path(
            rng, 1 + seed % 4, 2 + seed % 3), True))
    for seed in range(12):
        rng = np.random.default_rng(400 + seed)
        n, d = 1 + seed % 3, 1 + seed % 2
        cases.append((f"rectangular/{seed}", to_skew_path(
            _rotated_rectangular(rng, n, d, seed % 4 >= 2)), True))
    cases.append(("opaque/samples", to_skew_path(_opaque(random_admissible_path(
        np.random.default_rng(500), 3, 4))), True))
    cases.append(("opaque/invertible", to_skew_path(random_invertible_path(
        np.random.default_rng(501), 3)), True))
    return cases


def _outcome(call):
    """The result of one engine call, or the name of its typed error."""
    try:
        return call()
    except Z2FlowError as exc:
        return {"error": type(exc).__name__}


def _flow_record(path, rng):
    def call():
        res = sf2_path(path, rng=rng)
        return {"value": int(res.value), "depth": res.refinement_depth,
                "evaluations": res.evaluations, "motion_rank": res.motion_rank,
                "windows": [[w.t_lo, w.t_hi, w.a, w.rank, int(w.factor), w.summand]
                            for w in res.windows]}
    return _outcome(call)


def record(path, chiral):
    """Everything the fixture keeps of one case."""
    entry = {"sf2_path": _flow_record(path, None),
             "sf2_path_rng3": _flow_record(path, np.random.default_rng(3))}
    if chiral:
        entry["parity_via_pairs"] = _outcome(lambda: int(parity_via_pairs(path)))
        entry["parity_via_pairs_rng3"] = _outcome(
            lambda: int(parity_via_pairs(path, rng=np.random.default_rng(3))))
    return entry


def _assert_matches(actual, expected, where):
    """Equal field by field, except a window's radius a (its third entry),
    compared to a relative 1e-9."""
    assert sorted(actual) == sorted(expected), where
    for key, value in expected.items():
        if key != "windows":
            assert actual[key] == value, f"{where}.{key}"
            continue
        assert len(actual[key]) == len(value), f"{where}.windows"
        for i, (got, want) in enumerate(zip(actual[key], value)):
            assert got[:2] + got[3:] == want[:2] + want[3:], f"{where}.windows[{i}]"
            assert got[2] == pytest.approx(want[2], rel=1e-9, abs=0), \
                f"{where}.windows[{i}].a"


@functools.lru_cache(maxsize=None)
def _golden():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


CASES = partition_cases()


def test_fixture_lists_every_case():
    assert [name for name, _, _ in CASES] == list(_golden())
    assert len(CASES) >= 60
    # the fixture is consistent: each flow's windows multiply to its value
    for entry in _golden().values():
        for key in ("sf2_path", "sf2_path_rng3"):
            flow = entry[key]
            if "windows" in flow:
                assert int(np.prod([w[4] for w in flow["windows"]])) == flow["value"]


@pytest.mark.parametrize("name, path, chiral", CASES, ids=[c[0] for c in CASES])
def test_partition_unchanged(name, path, chiral):
    actual = json.loads(json.dumps(record(path, chiral)))
    expected = _golden()[name]
    assert sorted(actual) == sorted(expected), name
    for key in expected:
        if isinstance(expected[key], dict):
            _assert_matches(actual[key], expected[key], f"{name}.{key}")
        else:
            assert actual[key] == expected[key], f"{name}.{key}"


if __name__ == "__main__":
    golden = {name: record(path, chiral) for name, path, chiral in partition_cases()}
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
