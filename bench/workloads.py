"""Seeded inputs and independent references for the three benchmark workloads.

Every input is generated here from the workload seed; nothing is shared with
the test suite, so editing the tests cannot shift the benchmark.  A ``Case``
is one library or CLI call: ``call`` runs it through the public API (looked
up on the module at call time, so span wrappers installed later are seen)
and ``reference`` computes the value it must return by a method that does
not use the windowed engine.  References are evaluated outside every timed
region and before any span wrapper is installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import z2flow.cli as cli
import z2flow.flow as flow
import z2flow.models as models
import z2flow.pairs as pairs
from z2flow.paths import ChiralFrame, OperatorPath

# Edge-set inputs that fail at the time the benchmark was written, with the
# error class they raise.  Such a call still counts in failed_frac (and
# lowers ok_frac); it is an unexpected failure only if it raises another
# class or returns a wrong value.  diag(t - eps, 1) for eps = 1e-4 and 1e-5
# is left out for run length only: 16 s and 122 s per call.
KNOWN_DEFECTS = {
    "edge/near_end/eps=1e-06": "RefinementError",
    "edge/examp_scaled/x1e+200": "RefinementError",
    "edge/examp_scaled/x1e-200": "RefinementError",
}

DENSE_DIM = 32
SIGMA_LADDER = (0.4, 0.2, 0.1, 0.05)
LINES_PER_RUNG = 2


@dataclass
class Case:
    """One benchmark call with the reference its value must equal."""

    id: str
    call: Callable[[], object]
    reference: Callable[[], object]


# ---------------------------------------------------------------------------
# references (no windowed engine involved)


def _block_parity(b0, b1) -> int:
    """Product of the determinant signs of two square blocks."""
    return int(np.linalg.slogdet(b0)[0] * np.linalg.slogdet(b1)[0])


# ---------------------------------------------------------------------------
# small_mix: random small paths of four kinds plus a fixed edge set


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


def _rotation_path(rng, dim, planes=2):
    """Continuous orthogonal family: a product of rotating coordinate planes."""
    spec = []
    for _ in range(planes):
        i, j = (int(x) for x in rng.choice(dim, size=2, replace=False))
        spec.append((i, j, float(rng.uniform(0.5, 3.0)),
                     float(rng.uniform(0.0, 2.0 * math.pi))))

    def q(t):
        o = np.eye(dim)
        for i, j, speed, phase in spec:
            g = np.eye(dim)
            c, s = math.cos(speed * t + phase), math.sin(speed * t + phase)
            g[i, i] = g[j, j] = c
            g[i, j], g[j, i] = -s, s
            o = o @ g
        return o

    return q


# Sizes are not drawn but run through a fixed grid, so the mix of path sizes,
# and with it the cost of a pass, is the same for every seed; the seed draws
# the matrices.


def _grid(j, *sizes):
    """Mixed-radix digits of the case number j, one per size."""
    digits = []
    for size in sizes:
        digits.append(j % size)
        j //= size
    return digits


def _general_case(rng, idx):
    n, knots = (a + b for a, b in zip(_grid(idx // 4, 8, 3), (1, 2)))
    mats = _knot_mats(rng, n, knots, _square)
    path = OperatorPath.from_samples(np.linspace(0.0, 1.0, knots), mats)
    return Case(f"general/{idx}/n={n},knots={knots}",
                lambda: flow.parity_path(path),
                lambda: flow.parity_finite(path))


def _skew_case(rng, idx):
    half, k = _grid(idx // 4, 4, 3)
    n, knots = 2 * (half + 1), k + 2
    mats = _knot_mats(rng, n, knots, _skew)
    path = OperatorPath.from_samples(np.linspace(0.0, 1.0, knots), mats, "skew")
    return Case(f"skew/{idx}/n={n},knots={knots}",
                lambda: flow.sf2_path(path).value,
                lambda: flow.sf2_finite(mats[0], mats[-1]))


def _rect_case(rng, idx):
    n, d, knots = (a + b for a, b in zip(_grid(idx // 4, 4, 3, 3), (1, 1, 2)))
    mats = _knot_mats(rng, n, knots, _square)
    square = OperatorPath.from_samples(np.linspace(0.0, 1.0, knots), mats)
    q = _rotation_path(rng, n + d)
    pad = np.zeros((d, n))
    path = OperatorPath((0.0, 1.0),
                        lambda t: q(t) @ np.vstack([square.evaluator(t), pad]),
                        "general", None, d)
    return Case(f"rect/{idx}/n={n},d={d},knots={knots}",
                lambda: flow.parity_path_general(path),
                lambda: flow.parity_finite(square))


def _chiral_case(rng, idx):
    n, knots = (a + b for a, b in zip(_grid(idx // 4, 4, 3), (1, 2)))
    blocks = _knot_mats(rng, n, knots, _square)
    path = OperatorPath.from_samples(np.linspace(0.0, 1.0, knots),
                                     [flow.embed_chiral(b) for b in blocks],
                                     "chiral-skew", ChiralFrame(n, n))
    return Case(f"chiral/{idx}/n={n},knots={knots}",
                lambda: pairs.parity_via_pairs(path),
                lambda: _block_parity(blocks[0], blocks[-1]))


def _edge_cases():
    cases = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-6):
        path = OperatorPath((0.0, 1.0),
                            lambda t, e=eps: np.diag([t - e, 1.0]), "general")
        cases.append(Case(f"edge/near_end/eps={eps:.0e}",
                          lambda p=path: flow.parity_path(p),
                          lambda p=path: flow.parity_finite(p)))
    examp = models.build_example_path("examp")
    for scale in (1e100, 1e-100, 1e200, 1e-200):
        path = OperatorPath(examp.interval,
                            lambda t, s=scale: s * examp.evaluator(t),
                            "chiral-skew", examp.frame, 0)
        ends = [path.evaluator(t)[:1, 1:] for t in path.interval]
        cases.append(Case(f"edge/examp_scaled/x{scale:.0e}",
                          lambda p=path: flow.sf2_path(p).value,
                          lambda b=ends: _block_parity(*b)))
    path = OperatorPath((0.0, 1.0),
                        lambda t: np.diag([math.sin(40.0 * math.pi * t) + 0.5, 1.0]),
                        "general")
    cases.append(Case("edge/sin40", lambda: flow.parity_path(path),
                      lambda: flow.parity_finite(path)))
    return cases


SMALL_MIX_PER_KIND = 100


def small_mix(seed):
    rng = np.random.default_rng([seed, 1])
    makers = (_general_case, _skew_case, _rect_case, _chiral_case)
    cases = [makers[i % 4](rng, i) for i in range(4 * SMALL_MIX_PER_KIND)]
    return cases + _edge_cases()


# ---------------------------------------------------------------------------
# dense_line: straight lines between 32x32 endpoints on a sigma_min ladder


def _haar(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _endpoint(rng, n, sigma_min):
    # the spread of the other singular values puts ||B - A||_2 near 3.6, the
    # geometric middle between two step-bound bisection thresholds, so the
    # window count doubles exactly along the ladder whatever the seed
    s = np.sort(rng.uniform(0.75, 2.25, n))
    s[0] = sigma_min
    return _haar(rng, n) @ np.diag(s) @ _haar(rng, n).T


def dense_line(seed):
    rng = np.random.default_rng([seed, 2])
    cases = []
    for sigma in SIGMA_LADDER:
        for j in range(LINES_PER_RUNG):
            a = _endpoint(rng, DENSE_DIM, sigma)
            b = _endpoint(rng, DENSE_DIM, sigma)
            path = OperatorPath((0.0, 1.0), lambda t, a=a, b=b: (1.0 - t) * a + t * b)
            cases.append(Case(f"line/sigma_min={sigma}/{j}",
                              lambda p=path: flow.parity_path(p),
                              lambda p=path: flow.parity_finite(p)))
    return cases


# ---------------------------------------------------------------------------
# models: the paper's model families at production size


def _cli_call(argv, keys=("result",)):
    """Run cli.main in-process with captured output; return the report keys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        raise CliExit(code, err.getvalue().strip())
    report = json.loads(out.getvalue())
    return tuple(report[k] for k in keys)


class CliExit(Exception):
    """The in-process CLI returned a non-zero exit status."""

    def __init__(self, code, message):
        super().__init__(f"exit {code}: {message}")
        self.code = code


def _constant(value):
    return lambda: value


def models_cases(seed):
    del seed  # the model family inputs are fixed
    cases = [
        Case("cli/insulator/M=128", lambda: _cli_call(["insulator", "--M", "128"]),
             _constant((-1,))),
        Case("cli/insulator/M=64,disorder=0.1",
             lambda: _cli_call(["insulator", "--M", "64", "--disorder", "0.1",
                                "--seed", "3"]),
             _constant((-1,))),
        Case("cli/insulator/M=48,k=2",
             lambda: _cli_call(["insulator", "--M", "48", "--k", "2"]),
             _constant((1,))),
        Case("cli/bifurcation/kmax=10",
             lambda: _cli_call(["bifurcation", "--kmax", "10"]), _constant((-1,))),
        Case("cli/pi-index/n=64", lambda: _cli_call(["pi-index", "--n", "64"]),
             _constant((-1,))),
        Case("cli/index-theorem/n=64",
             lambda: _cli_call(["index-theorem", "--n", "64"], ("result", "agree")),
             _constant((-1, True))),
    ]
    ring = flow.selfadjoint_path_to_skew(
        models.build_insulator_path(models.RingShiftSpec(128)))
    cases.append(Case("lib/parity_via_pairs/ring M=128",
                      lambda: pairs.parity_via_pairs(ring), _constant(-1)))
    structure, o = models.build_rank_one_pair(64)
    pair = pairs.FredholmPair(
        structure, pairs.ComplexStructure(o @ structure.matrix @ o.T, structure.frame))
    cases.append(Case("lib/straight_line_sf2/rank-one n=64",
                      lambda: pairs.straight_line_sf2(pair), _constant(-1)))
    return cases


WORKLOADS = {"small_mix": small_mix, "dense_line": dense_line, "models": models_cases}


def build(workload, seed):
    """The seeded case list of one workload."""
    return WORKLOADS[workload](seed)
