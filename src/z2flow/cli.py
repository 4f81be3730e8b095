"""Command-line driver with machine-readable reports.

Every computation in the package is reachable from the command line with
deterministic seeds and a versioned JSON report (schema ``z2flow/5``); CSV
output flattens one spectral window per row for spreadsheet audits.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import sys
import time

import numpy as np

from . import tolerances as tol
from .errors import (
    ConfigError,
    NotAdmissibleError,
    RefinementError,
    Z2FlowError,
)
from .flow import _arc_growth, _record_matrix, sf2_path, to_skew_path
from .linalg import _real_array
from .models import (
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
from .pairs import (
    FredholmPair,
    _CheckedOrthogonal,
    _conjugate,
    _require_grading_orthogonal,
    index_pairing_rhs,
    j_index,
    pi_index,
)
from .paths import SYMMETRY_TAGS, ChiralFrame, FamilyMember, OperatorPath

SCHEMA = "z2flow/5"

_EXIT_OK = 0
_EXIT_NOT_ADMISSIBLE = 2
_EXIT_REFINEMENT = 3
_EXIT_CONFIG = 4


# ---------------------------------------------------------------------------
# path-file ingestion


def _has_bool(value) -> bool:
    """Whether a JSON value is a boolean or a list holding one at any depth."""
    return isinstance(value, bool) or (
        isinstance(value, list) and any(map(_has_bool, value)))


def ingest_path(file) -> OperatorPath:
    """Load a sampled operator path from its JSON description.

    Schema: an object with ``symmetry`` (one of the four tags), an optional
    ``frame`` [n_plus, n_minus] (required for chiral tags) and ``samples``, a
    list of {"t": float, "matrix": nested row-major lists}; booleans and
    quoted numbers are refused (``ConfigError``).  Interpolation between
    samples is entrywise linear; the symmetry tag is validated against
    every sample.
    """
    try:
        with open(file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read path file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("path file must contain a JSON object")
    tag = doc.get("symmetry")
    if tag not in SYMMETRY_TAGS:
        raise ConfigError(f"symmetry must be one of {SYMMETRY_TAGS}, got {tag!r}")
    frame = None
    if "frame" in doc:
        raw = doc["frame"]
        # type(x) is int, as a JSON boolean is a Python int
        if (not isinstance(raw, (list, tuple)) or len(raw) != 2
                or not all(type(x) is int and x >= 0 for x in raw)):
            raise ConfigError("frame must be a pair of non-negative integers")
        frame = ChiralFrame(raw[0], raw[1])
    samples = doc.get("samples")
    if not isinstance(samples, list) or len(samples) < 2:
        raise ConfigError("samples must be a list with at least two entries")
    ts, mats = [], []
    for entry in samples:
        if not isinstance(entry, dict) or "t" not in entry or "matrix" not in entry:
            raise ConfigError("each sample needs 't' and 'matrix' fields")
        if _has_bool([entry["t"], entry["matrix"]]):  # numpy reads them as 0, 1
            raise ConfigError("malformed sample: entries must be real numbers, "
                              "not booleans")
        try:  # real numbers only, as in OperatorPath.from_samples
            t_val = _real_array(entry["t"])
            mat = _real_array(entry["matrix"])
        except (ConfigError, ValueError) as exc:  # ValueError: ragged rows
            raise ConfigError(f"malformed sample: {exc}") from exc
        if t_val.ndim != 0:
            raise ConfigError("sample parameters 't' must be numbers")
        if mat.ndim != 2:
            raise ConfigError("sample matrices must be finite and 2-d")
        ts.append(float(t_val))
        mats.append(mat)
    path = OperatorPath.from_samples(ts, mats, tag, frame)
    for t in ts:  # symmetry of every sample, not just the endpoints
        path.at(t)
    return path


# ---------------------------------------------------------------------------
# report plumbing


def _digest_path(path: OperatorPath) -> str:
    """SHA-256 of the declared input the engine reads at 33 equispaced
    parameters ts, never of a doubled matrix or of the partition.

    A plain path hashes each t and its record matrix (a chiral path's
    block, a plain skew path's matrix), or its one matrix and then ts if
    its arc does not grow (``flow._arc_growth``).  A sum or a motion hashes
    ts, then each distinct leaf (a part, or the path) once in first-listing
    order: B(t0), p, q and c at ts for a motion (p, q, c); the one matrix of
    a leaf whose arc does not grow; else its matrices at ts, a family
    member's as its rows of one family stack per t.  A sum ends with each
    listing's leaf, then its rows and columns, as int64."""
    ts = np.linspace(path.t_start, path.t_end, 33)
    parts = getattr(path.evaluator, "parts", None)
    if parts is None and getattr(path.evaluator, "motion", None) is None:
        read = lambda t: _digest_arrays(_record_matrix(path, t))
        if _arc_growth(getattr(path.evaluator, "arc", None), path.interval) == 0:
            return _sha256(*read(ts[0]), ts)
        return _sha256(*(x for t in ts for x in [t.tobytes(), *read(t)]))
    if parts is None:  # one leaf, read as the engine reads the path
        leaves, read = [path], _record_matrix
    else:  # a part's block is its evaluator's matrix
        leaves = list({id(part): part for part, _, _ in parts}.values())
        read = lambda part, t: part.evaluator(t)
    families, chunks = {}, [ts]
    for leaf in leaves:
        if isinstance(leaf, FamilyMember):
            f = leaf.family
            if id(f) not in families:  # stacks indexed member, parameter
                families[id(f)] = (np.stack([f.stack(t) for t in ts], axis=1),
                                   _arc_growth(f.arc, f.interval, len(f)) == 0)
            rows, constant = (a[leaf.index] for a in families[id(f)])
            chunks += _digest_arrays(rows[:1] if constant else rows)
        elif getattr(leaf.evaluator, "motion", None) is not None:
            p, q, c = leaf.evaluator.motion
            chunks += _digest_arrays(read(leaf, ts[0]), p, q,
                                     *(c.at(t) for t in ts))
        elif _arc_growth(getattr(leaf.evaluator, "arc", None), leaf.interval) == 0:
            chunks += _digest_arrays(read(leaf, ts[0]))
        else:
            chunks += _digest_arrays(*(read(leaf, t) for t in ts))
    if parts is not None:
        position = {id(leaf): i for i, leaf in enumerate(leaves)}
        chunks += _digest_arrays(
            np.array([position[id(part)] for part, _, _ in parts]),
            np.concatenate([a for _, rows, cols in parts for a in (rows, cols)]),
            dtype=np.int64)
    return _sha256(*chunks)


def _digest_arrays(*arrays, dtype=np.float64) -> list:
    """The arrays as contiguous ``dtype`` arrays, hashed by ``_sha256``."""
    return [np.ascontiguousarray(a, dtype=dtype) for a in arrays]


def _sha256(*chunks) -> str:
    """SHA-256 of the chunks' bytes (bytes or contiguous arrays), in place."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _window_rows(flow):
    return [
        {
            "t_lo": float(w.t_lo),
            "t_hi": float(w.t_hi),
            "a": float(w.a),
            "rank": int(w.rank),
            "factor": int(w.factor),
            "summand": int(w.summand),
        }
        for w in flow.windows
    ]


def _resolve_model_path(args: argparse.Namespace) -> OperatorPath:
    if args.path_file:
        if args.s is not None:
            raise ConfigError("a path file takes no strength parameter")
        return ingest_path(args.path_file)
    if not args.model:
        raise ConfigError("either --model or --path-file is required")
    return build_example_path(args.model, args.s)


def run(args: argparse.Namespace) -> dict:
    """Run the command of ``args``, a namespace of ``config_from_args``
    that holds that command's options, and assemble its report."""
    started = time.perf_counter()
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "seed": args.seed,
    }
    path = None  # set by the path commands, whose flow is run below

    if args.command in ("sf2", "parity"):
        path = _resolve_model_path(args)
        if args.model:
            report["model"] = args.model
        if args.command == "sf2" and path.symmetry_tag not in (
                "skew", "chiral-skew"):
            raise ConfigError("sf2 requires a skew or chiral-skew path")

    elif args.command in ("pi-index", "index-theorem"):
        structure, o = build_rank_one_pair(args.n)
        report["input_digest"] = _sha256(*_digest_arrays(structure.matrix, o))
        if args.command == "pi-index":
            pair = FredholmPair(structure, _conjugate(structure, o))
            report["result"] = int(pi_index(pair))
            report["kernel_dim"] = int(pair.gap_certificate)
        else:
            # O is checked once, for both sides of the theorem
            o = _CheckedOrthogonal(_require_grading_orthogonal(o, structure.frame))
            lhs = j_index(structure, o)
            rhs = index_pairing_rhs(structure, o)
            report["result"] = int(lhs)
            report["index_lhs"] = int(lhs)
            report["index_rhs_mod2"] = int(rhs)
            report["agree"] = bool((int(lhs) == -1) == (rhs == 1))

    elif args.command == "insulator":
        spec = RingShiftSpec(sites=args.M, shift_power=args.k,
                             fiber_dim=args.N, link_site=args.link_site)
        if args.disorder != 0:  # the builder refuses negative and non-finite values
            path = build_insulator_disordered(spec, args.disorder, args.seed)
        else:
            path = build_insulator_path(spec)
        report["half_flux_kernel_dim"] = half_flux_kernel_dim(spec)

    elif args.command == "bifurcation":
        spec = GalerkinSpec(mode_cutoff=args.kmax, t_center=args.center,
                            delta=args.delta)
        path = build_bifurcation_path(spec)
        report["crossing_modes"] = [list(m) for m in
                                    bifurcation_crossing_modes(spec)]

    diagnostics = {"tolerances": tol.snapshot()}
    if path is not None:
        skew_path = to_skew_path(path)
        report["input_digest"] = _digest_path(skew_path)
        flow = sf2_path(skew_path)
        report["result"] = int(flow.value)
        if args.report_windows:
            report["windows"] = _window_rows(flow)
        diagnostics["refinement_depth"] = int(flow.refinement_depth)
        diagnostics["path_evaluations"] = int(flow.evaluations)
        if flow.motion_rank:
            diagnostics["motion_rank"] = int(flow.motion_rank)
    diagnostics["wall_time_s"] = time.perf_counter() - started
    report["diagnostics"] = diagnostics
    return report


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; remap to config
        raise ConfigError(message)


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call reuses it."""
    parser = _Parser(prog="z2flow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output-format", choices=("json", "csv"),
                       default="json")
        p.add_argument("--output", help="output file (required for csv)")
        p.add_argument("--report-windows", action="store_true")

    for name in ("sf2", "parity"):
        p = sub.add_parser(name)
        given = p.add_mutually_exclusive_group()
        given.add_argument("--model", choices=EXAMPLE_NAMES)
        given.add_argument("--path-file")
        p.add_argument("--s", type=float, help="strength for doubled_perturbed")
        common(p)

    for name in ("pi-index", "index-theorem"):
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, default=4)
        common(p)

    p = sub.add_parser("insulator")
    p.add_argument("--M", type=int, default=8)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--link-site", type=int, default=0)
    p.add_argument("--disorder", type=float, default=0.0)
    common(p)

    p = sub.add_parser("bifurcation")
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--center", type=float, default=2.0)
    common(p)
    return parser


def config_from_args(argv) -> argparse.Namespace:
    """The parser's namespace of ``argv``: ``command``, then one attribute
    per option of that command (``--link-site`` as ``link_site``) at its
    parsed or default value.  Raises ``ConfigError`` for any argument the
    parser refuses, and for csv output without ``--output``."""
    args = _build_parser().parse_args(argv)
    if args.output_format == "csv" and not args.output:
        raise ConfigError("csv output requires an output file path")
    return args


def _emit(report: dict, args: argparse.Namespace) -> None:
    if args.output_format == "json" and not args.output:
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
        return
    try:
        if args.output_format == "json":
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(report, sort_keys=True) + "\n")
        else:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                _write_csv(report, fh)
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from exc


def _write_csv(report: dict, fh) -> None:
    """One window per row, the scalar fields repeated."""
    rows = report.get("windows") or [{}]
    fields = ["schema", "command", "result", "input_digest",
              "summand", "t_lo", "t_hi", "a", "rank", "factor"]
    writer = csv.DictWriter(fh, fieldnames=fields)
    writer.writeheader()
    for row in rows:
        record = {
            "schema": report.get("schema"),
            "command": report.get("command"),
            "result": report.get("result"),
            "input_digest": report.get("input_digest"),
        }
        record.update(row)
        writer.writerow(record)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = config_from_args(argv)
        report = run(args)
        _emit(report, args)
        return _EXIT_OK
    except NotAdmissibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NOT_ADMISSIBLE
    except RefinementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_REFINEMENT
    except Z2FlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except MemoryError as exc:  # a builder asked for more than fits
        print(f"error: out of memory, reduce the problem size: {exc}",
              file=sys.stderr)
        return _EXIT_CONFIG
