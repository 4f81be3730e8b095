"""Shared generators for randomized tests."""

import numpy as np

import z2flow.flow as flow_module
import z2flow.linalg as linalg_module
from z2flow.flow import embed_chiral
from z2flow.pairs import ComplexStructure, FredholmPair
from z2flow.paths import ChiralFrame, OperatorPath


def random_admissible_path(rng, dim, knots=3, interval=(0.0, 1.0), margin=0.3):
    """Piecewise-linear path of square matrices with invertible endpoints."""
    ts = np.linspace(interval[0], interval[1], knots)
    mats = []
    for i in range(knots):
        while True:
            m = rng.standard_normal((dim, dim))
            if i not in (0, knots - 1):
                break
            if np.linalg.svd(m, compute_uv=False)[-1] > margin:
                break
        mats.append(m)
    return OperatorPath.from_samples(ts, mats, "general")


def random_invertible_path(rng, dim):
    """Path staying inside the invertibles: base times exp(t-dependent sym)."""
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    if rng.random() < 0.5:
        q[:, 0] = -q[:, 0]  # hit both determinant components
    s = rng.standard_normal((dim, dim))
    w, v = np.linalg.eigh((s + s.T) / 2.0)

    def evaluator(t, _q=q, _w=w, _v=v):
        return _q @ (_v * np.exp(np.sin(3.0 * t) * _w)) @ _v.T

    return OperatorPath((0.0, 1.0), evaluator, "general")


def random_orthogonal_path(rng, dim, rotations=2):
    """Continuous family of orthogonal matrices built from rotating planes."""
    planes = []
    for _ in range(rotations):
        i, j = rng.choice(dim, size=2, replace=False) if dim > 1 else (0, 0)
        planes.append((int(i), int(j), float(rng.uniform(0.5, 3.0)),
                       float(rng.uniform(0, 2 * np.pi))))

    def evaluator(t):
        o = np.eye(dim)
        for i, j, speed, phase in planes:
            if i == j:
                continue
            g = np.eye(dim)
            th = speed * t + phase
            g[i, i] = g[j, j] = np.cos(th)
            g[i, j] = -np.sin(th)
            g[j, i] = np.sin(th)
            o = o @ g
        return o

    return evaluator


def random_chiral_structure(rng, n):
    """Random chiral complex structure [[0, U], [-U^T, 0]]."""
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return ComplexStructure(embed_chiral(u), ChiralFrame(n, n))


def random_grading_orthogonal(rng, n, reflections=True, rotations=True):
    """Block-diagonal orthogonal acting on few coordinates per block."""
    def block():
        o = np.eye(n)
        if rotations and rng.random() < 0.8:
            i, j = rng.choice(n, size=2, replace=False)
            th = float(rng.uniform(0.3, 2.5))
            g = np.eye(n)
            g[i, i] = g[j, j] = np.cos(th)
            g[i, j] = -np.sin(th)
            g[j, i] = np.sin(th)
            o = o @ g
        if reflections and rng.random() < 0.5:
            i = int(rng.integers(n))
            r = np.eye(n)
            r[i, i] = -1.0
            o = o @ r
        return o

    top = block()
    bottom = block()
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = top
    out[n:, n:] = bottom
    return out


def random_certified_pair(rng, n, max_tries=60):
    """A Fredholm pair of chiral complex structures passing the certificate."""
    for _ in range(max_tries):
        base = random_chiral_structure(rng, n)
        o = random_grading_orthogonal(rng, n)
        try:
            other = ComplexStructure(o @ base.matrix @ o.T, base.frame)
            return FredholmPair(base, other)
        except Exception:
            continue
    raise RuntimeError("could not generate a certified pair")


def with_singular_values(rng, values):
    """A dense square matrix with the given singular values, between two
    random orthogonal factors."""
    n = len(values)
    left, right = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    return (left * np.asarray(values, dtype=float)) @ right.T


def random_chiral_skew_path(rng, n, knots=3, margin=0.3):
    """Chiral skew path obtained by doubling a random square-block path."""
    ts = np.linspace(0.0, 1.0, knots)
    mats = []
    for i in range(knots):
        while True:
            b = rng.standard_normal((n, n))
            if i not in (0, knots - 1):
                break
            if np.linalg.svd(b, compute_uv=False)[-1] > margin:
                break
        t = np.zeros((2 * n, 2 * n))
        t[:n, n:] = b
        t[n:, :n] = -b.T
        mats.append(t)
    return OperatorPath.from_samples(ts, mats, "chiral-skew", ChiralFrame(n, n))


def spy_solves(monkeypatch):
    """List every matrix the engines solve, as (matrix, chiral,
    compute_uv): wraps the one-matrix ``flow.skew_singular_system`` and the
    stacked ``linalg.skew_singular_system``, and lists each row of a stack
    as one matrix."""
    solved = []

    def wrap(solve):
        def spy(mat, chiral=False, compute_uv=True):
            rows = np.reshape(mat, (-1,) + np.shape(mat)[-2:])
            solved.extend((m, chiral, compute_uv) for m in rows)
            return solve(mat, chiral, compute_uv)
        return spy

    for module in (flow_module, linalg_module):
        monkeypatch.setattr(module, "skew_singular_system",
                            wrap(module.skew_singular_system))
    return solved


def pf_matchings(a):
    """Combinatorial Pfaffian over perfect matchings (test oracle)."""
    n = a.shape[0]
    if n == 0:
        return 1.0
    if n % 2:
        return 0.0

    def rec(rem):
        if not rem:
            return 1.0
        i = rem[0]
        total = 0.0
        sign = 1.0
        for pos in range(1, len(rem)):
            j = rem[pos]
            rest = rem[1:pos] + rem[pos + 1:]
            total += sign * a[i, j] * rec(rest)
            sign = -sign
        return total

    return rec(list(range(n)))
