"""Seeded benchmark of the z2flow engine, run from the root of a checkout.

    python3 bench/run.py --workload {small_mix,dense_line,models} \
        --seed N --seconds S --trace {0,1}

The package is imported from the checkout's ``src`` directory.  Inputs are
generated from the seed (``workloads.py``); every call is checked against an
independent reference computed outside the timed region.  With ``--trace 0``
the run measures the end-to-end metrics of ``BENCHMARK.json``, with times
rescaled to a reference machine speed (``SpeedProbe``); with ``--trace 1`` it
installs the span wrappers of ``spans.py`` and reports the per-layer metrics
instead.  ``bench/DESIGN.md`` explains the choices.  Diagnostic lines come first; the last line of
standard output is the result object.  A full record (and, when traced, the
gzipped spans) is written under ``bench/out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# one BLAS thread (<= nproc) keeps the single-process load steady
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
PROCESS_REPEATS = 7  # setup and CLI start-up samples per run
# untraced runs repeat a call shorter than MIN_CALL_S back to back (at most
# MAX_REPEATS calls), which evens out the jitter of millisecond calls
MIN_CALL_S = 0.03
MAX_REPEATS = 5
CLI_ARGV = ("parity", "--model", "examp")
SUBPROCESS_TIMEOUT = 60


# ---------------------------------------------------------------------------
# measurement


class SpeedProbe:
    """Machine-speed reference for wall times on a shared machine.

    Other work on the machine slows a run by up to 1.8x for minutes at a
    time, and not every kind of work by the same factor.  Every ``PERIOD_S``
    seconds the probe times a fixed kernel that does not use z2flow and does
    the kind of work that dominates the workload (``KERNELS``).  A measured
    interval is rescaled by the kernel's reference time over its median time
    within ``WINDOW_S`` of the interval (or the interval's own length, if
    longer), which reports the interval at the speed the machine has when
    nothing else runs.  The reference times are the kernels' times on a quiet
    core of a 2-vCPU x86-64 VM (OpenBLAS 0.3.31, Haswell kernels); on other
    hardware the scale differs by a constant factor, which comparisons on
    one machine cancel.
    """

    PERIOD_S = 0.1
    WINDOW_S = 0.3
    # workload: (kernel, reference seconds)
    KERNELS = {
        "small_mix": ("small", 3.8e-3),   # small solvers and interpreter work
        "dense_line": ("mid", 1.75e-3),   # solvers at the 64x64 doubling
        "models": ("big", 5.5e-3),        # a 256x256 symmetric eigensolve
    }

    def __init__(self, workload):
        import numpy as np

        rng = np.random.default_rng(0)
        kind, self.ref_s = self.KERNELS[workload]
        eigh, svd = np.linalg.eigh, np.linalg.svd
        if kind == "small":
            sym, mat = rng.standard_normal((48, 48)), rng.standard_normal((24, 24))
            sym = sym + sym.T

            def kernel():
                for _ in range(4):
                    eigh(sym)
                    svd(mat)
                for i in range(1500):
                    np.abs(mat[i % 24]).max()
        elif kind == "mid":
            sym, mat = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
            sym = sym + sym.T

            def kernel():
                for _ in range(3):
                    eigh(sym)
                    svd(mat, compute_uv=False)
        else:
            sym = rng.standard_normal((256, 256))
            sym = sym + sym.T

            def kernel():
                eigh(sym)
        self._kernel = kernel
        self.samples = []  # (midpoint, seconds)

    def sample(self):
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.samples.append(((start + end) / 2.0, end - start))

    def due(self):
        if not self.samples or time.perf_counter() - self.samples[-1][0] > self.PERIOD_S:
            self.sample()

    def normalize(self, start, end):
        """Seconds of the interval [start, end] at reference speed.  A long
        interval is compared with the kernel over as long again on each side,
        as the kernel cannot run during it."""
        window = max(self.WINDOW_S, end - start)
        near = [s for t, s in self.samples if start - window <= t <= end + window]
        return (end - start) * self.ref_s / statistics.median(near)

    def per_call(self, entry):
        """Seconds per call of one log entry at reference speed."""
        start, end, calls = entry[:3]
        return self.normalize(start, end) / calls


def run_pass(cases, refs, log, speed, tracer=None, min_s=0.0):
    """Call every case; append (start, end, calls, outcome, detail) to ``log``.

    A call that returns the reference value in less than ``min_s`` is
    repeated back to back, up to ``MAX_REPEATS`` calls, and the entry covers
    them all; every call is checked against the reference.
    """
    from workloads import KNOWN_DEFECTS

    for i, case in enumerate(cases):
        speed.due()
        if tracer is not None:
            tracer.call_id = i
        start = time.perf_counter()
        calls = 0
        while True:
            error = None
            try:
                value = case.call()
            except Exception as exc:  # every failure is recorded by input id
                error = type(exc).__name__
            calls += 1
            if error is None:
                outcome = "ok" if value == refs[i] else "wrong"
                detail = None if outcome == "ok" else f"{value!r} != reference {refs[i]!r}"
            else:
                outcome = "known" if KNOWN_DEFECTS.get(case.id) == error else "error"
                detail = error
            end = time.perf_counter()
            if outcome != "ok" or end - start >= min_s or calls == MAX_REPEATS:
                break
        log[i].append((start, end, calls, outcome, detail))
    speed.sample()  # brackets the last call


def measure(cases, refs, seconds, speed, between_passes):
    """Whole passes over the cases while another pass fits in ``seconds``;
    ``between_passes`` runs after each pass."""
    log = [[] for _ in cases]
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        run_pass(cases, refs, log, speed, min_s=MIN_CALL_S)
        pass_s = time.perf_counter() - pass_start
        between_passes()
        if time.perf_counter() - start + pass_s > seconds:
            return log


def percentile(values, q):
    """Linearly interpolated percentile; infinite once it reaches a failure."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo, hi = ordered[math.floor(pos)], ordered[math.ceil(pos)]
    return hi if math.isinf(hi) else lo + (hi - lo) * (pos - math.floor(pos))


def call_stats(cases, log, speed):
    """Latency and failure statistics of a run.

    A case's latency is the median over its measurements, one per pass, of
    the time per call at reference speed.  A case whose calls fail counts as
    infinitely slow in the percentiles.
    """
    latencies, ranked, failures = {}, [], {}
    calls = measured = ok_measured = ok_cases = 0
    for case, entries in zip(cases, log):
        outcomes = [e[3] for e in entries]
        calls += sum(e[2] for e in entries)
        measured += len(entries)
        ok_measured += outcomes.count("ok")
        latency = statistics.median(speed.per_call(e) for e in entries)
        latencies[case.id] = latency
        case_ok = outcomes.count("ok") == len(outcomes)
        ok_cases += case_ok
        ranked.append(latency if case_ok else math.inf)
        for _, _, _, outcome, detail in entries:
            if outcome != "ok":
                key = (case.id, outcome, detail)
                failures[key] = failures.get(key, 0) + 1
    return {
        "calls": calls,
        # share of (case, pass) measurements that returned the reference, so
        # that back-to-back repeats of fast calls do not weigh in
        "ok_frac": ok_measured / measured,
        "unexpected": sum(n for (_, o, _), n in failures.items() if o != "known"),
        "wrong": sum(n for (_, o, _), n in failures.items() if o == "wrong"),
        "solve_s": sum(latencies.values()),
        "calls_per_s": ok_cases / sum(latencies.values()),
        "p50_ms": 1e3 * percentile(ranked, 0.5),
        "p90_ms": 1e3 * percentile(ranked, 0.9),
        "cases": len(cases),
        "repetitions": min(len(e) for e in log),
        "case_ms": {k: 1e3 * v for k, v in latencies.items()},
        "failures": [{"id": i, "outcome": o, "error": d, "calls": n}
                     for (i, o, d), n in failures.items()],
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _timed_process(argv):
    """Wall seconds of a fresh process and its completed result."""
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT)
    return time.perf_counter() - start, done


class ProcessProbe:
    """Fresh-process measurements at reference machine speed.

    Process start-up (loading the interpreter and numpy's shared libraries,
    unmarshalling modules) slows differently from the engine's dense
    solvers, so start-up times get their own reference: a fresh interpreter
    that only imports numpy, run before and after each probe.  ``REF_S`` is
    its time on a quiet 2-vCPU x86-64 VM (Python 3.11, numpy 2.4).
    """

    REF_S = 0.105
    REFERENCE = ("-c", "import numpy")

    def __init__(self, workload, seed):
        self.setup_argv = [sys.executable, str(Path(__file__).resolve()),
                           "--workload", workload, "--seed", str(seed), "--setup-probe"]
        self.setup_s, self.cli_ms, self.cli_ok = [], [], True

    def _reference(self):
        return _timed_process([sys.executable, *self.REFERENCE])[0]

    def sample(self):
        """One setup process and one CLI start, each between two references."""
        ref0 = self._reference()
        _, setup = _timed_process(self.setup_argv)
        ref1 = self._reference()
        cli_s, cli = _timed_process([sys.executable, "-m", "z2flow", *CLI_ARGV])
        ref2 = self._reference()
        if setup.returncode != 0:
            raise RuntimeError(f"setup probe failed: {setup.stderr.strip()}")
        self.setup_s.append(float(setup.stdout.split()[-1]) * 2.0 * self.REF_S / (ref0 + ref1))
        self.cli_ms.append(1e3 * cli_s * 2.0 * self.REF_S / (ref1 + ref2))
        try:
            ok = cli.returncode == 0 and json.loads(cli.stdout)["result"] == -1
        except (ValueError, KeyError):
            ok = False
        self.cli_ok = self.cli_ok and ok


# ---------------------------------------------------------------------------
# environment record


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype, fn.argtypes = ctypes.c_int, []
            return int(fn())
    return None


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# the two modes


def untraced(workload, seed, seconds, cases, refs):
    speed = SpeedProbe(workload)
    processes = ProcessProbe(workload, seed)

    def probe():  # fresh-process samples are spread over the run
        if len(processes.cli_ms) < PROCESS_REPEATS:
            processes.sample()

    log = measure(cases, refs, seconds, speed, probe)
    while len(processes.cli_ms) < PROCESS_REPEATS:
        processes.sample()
    stats = call_stats(cases, log, speed)
    metrics = {
        "setup_s": statistics.median(processes.setup_s),
        "calls_per_s": stats["calls_per_s"],
        "call_p50_ms": stats["p50_ms"],
        "call_p90_ms": stats["p90_ms"],
        "ok_frac": stats["ok_frac"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cli_start_ms": statistics.median(processes.cli_ms),
    }
    raw_s = sum((e[1] - e[0]) / e[2] for entries in log for e in entries)
    extra = {
        "failed_frac": 1.0 - metrics["ok_frac"],
        "latency_samples": {"cases": stats["cases"], "repetitions": stats["repetitions"],
                            "beyond_p90": stats["cases"] - math.ceil(0.9 * stats["cases"])},
        "setup_samples_s": processes.setup_s,
        "cli_start_samples_ms": processes.cli_ms,
        "machine_slowdown": raw_s / sum(speed.per_call(e) for entries in log for e in entries),
        "failures": stats["failures"],
        "case_ms": stats["case_ms"],
    }
    correct = stats["wrong"] == 0 and processes.cli_ok
    attempted = stats["calls"] + len(processes.cli_ms)
    failed = stats["unexpected"] + (0 if processes.cli_ok else 1)
    return metrics, extra, correct, attempted, failed, None


def traced(workload, cases, refs):
    from spans import Tracer, flow_counters, layer_metrics

    # passes: traced (also warms caches), untraced, traced.  The overhead
    # compares the last two; the counters of the two traced passes must agree
    # call by call; the layer metrics come from the last pass.
    speed = SpeedProbe(workload)
    warm, last = Tracer(), Tracer()
    logs = [[[] for _ in cases] for _ in range(3)]
    with warm:
        run_pass(cases, refs, logs[0], speed, warm)
    run_pass(cases, refs, logs[1], speed)
    with last:
        run_pass(cases, refs, logs[2], speed, last)
    untraced_s, traced_s = (call_stats(cases, log, speed)["solve_s"] for log in logs[1:])
    stats = call_stats(cases, [sum(entries, []) for entries in zip(*logs)], speed)
    repeat = warm.flow_results == last.flow_results
    metrics = dict(layer_metrics(last.spans))
    metrics.update(flow_counters(last.flow_results))
    metrics["trace_overhead"] = traced_s / untraced_s
    extra = {"untraced_solve_s": untraced_s, "traced_solve_s": traced_s,
             "flow_counters_repeat": repeat, "spans": len(last.spans),
             "failures": stats["failures"]}
    correct = stats["wrong"] == 0 and repeat
    return metrics, extra, correct, stats["calls"], stats["unexpected"], last


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("small_mix", "dense_line", "models"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time import and input construction")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "z2flow" / "__init__.py").is_file():
        print(f"error: no z2flow sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    os.environ.pop("Z2FLOW_TOLERANCE_SCALE", None)
    sys.path[:0] = [str(SRC), str(BENCH)]

    if args.setup_probe:
        start = time.perf_counter()
        import workloads

        workloads.build(args.workload, args.seed)
        print(repr(time.perf_counter() - start))
        return 0

    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    cases = workloads.build(args.workload, args.seed)
    refs = [case.reference() for case in cases]
    if args.trace:
        metrics, extra, correct, attempted, failed, tracer = traced(args.workload, cases, refs)
    else:
        metrics, extra, correct, attempted, failed, tracer = untraced(
            args.workload, args.seed, args.seconds, cases, refs)

    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        # a layer that does not run in this workload reports 0
        "metrics": {m["name"]: {"value": float(metrics[m["name"]] if not args.trace
                                               else metrics.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in wanted},
    }
    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed), **extra, "result": result}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json.gz")
    print(json.dumps({k: v for k, v in record.items() if k not in ("result", "case_ms")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
