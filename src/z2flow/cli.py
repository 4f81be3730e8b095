"""Command-line driver with machine-readable reports.

Every computation in the package is reachable from the command line with
deterministic seeds and a versioned JSON report (schema ``z2flow/1``); CSV
output flattens one spectral window per row for spreadsheet audits.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tolerances as tol
from .errors import (
    ConfigError,
    NotAdmissibleError,
    RefinementError,
    Z2FlowError,
)
from .flow import sf2_path, to_skew_path
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
    ComplexStructure,
    FredholmPair,
    index_pairing_rhs,
    j_index,
    pi_index,
)
from .paths import SYMMETRY_TAGS, ChiralFrame, OperatorPath

SCHEMA = "z2flow/1"
COMMANDS = ("sf2", "parity", "pi-index", "index-theorem", "insulator",
            "bifurcation", "example")

_EXIT_OK = 0
_EXIT_NOT_ADMISSIBLE = 2
_EXIT_REFINEMENT = 3
_EXIT_CONFIG = 4


@dataclass
class RunConfig:
    """Validated parameters of one CLI invocation."""

    command: str
    model: Optional[str] = None
    path_file: Optional[str] = None
    samples: int = 9
    seed: int = 0
    output_format: str = "json"
    output: Optional[str] = None
    report_windows: bool = False
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.output_format not in ("json", "csv"):
            raise ConfigError(f"unknown output format {self.output_format!r}")
        if self.output_format == "csv" and not self.output:
            raise ConfigError("csv output requires an output file path")
        if self.samples < 3:
            raise ConfigError("sampling resolution must be at least 3")


# ---------------------------------------------------------------------------
# path-file ingestion


def ingest_path(file) -> OperatorPath:
    """Load a sampled operator path from its JSON description.

    Schema: an object with ``symmetry`` (one of the four tags), an optional
    ``frame`` [n_plus, n_minus] (required for chiral tags) and ``samples``, a
    list of {"t": float, "matrix": nested row-major lists}.  Interpolation
    between samples is entrywise linear; the symmetry tag is validated
    against every sample.
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
        if (not isinstance(raw, (list, tuple)) or len(raw) != 2
                or not all(isinstance(x, int) and x >= 0 for x in raw)):
            raise ConfigError("frame must be a pair of non-negative integers")
        frame = ChiralFrame(raw[0], raw[1])
    samples = doc.get("samples")
    if not isinstance(samples, list) or len(samples) < 2:
        raise ConfigError("samples must be a list with at least two entries")
    ts, mats = [], []
    for entry in samples:
        if not isinstance(entry, dict) or "t" not in entry or "matrix" not in entry:
            raise ConfigError("each sample needs 't' and 'matrix' fields")
        try:
            t_val = float(entry["t"])
            mat = np.asarray(entry["matrix"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed sample: {exc}") from exc
        if mat.ndim != 2 or not np.isfinite(mat).all():
            raise ConfigError("sample matrices must be finite and 2-d")
        ts.append(t_val)
        mats.append(mat)
    path = OperatorPath.from_samples(ts, mats, tag, frame)
    for t in ts:  # symmetry of every sample, not just the endpoints
        path.at(t)
    return path


# ---------------------------------------------------------------------------
# report plumbing


def _digest_path(path: OperatorPath, n: int = 33) -> str:
    h = hashlib.sha256()
    for t in np.linspace(path.t_start, path.t_end, n):
        h.update(np.float64(t).tobytes())
        h.update(np.ascontiguousarray(path.at(t), dtype=np.float64).tobytes())
    return h.hexdigest()


def _digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _window_rows(flow):
    return [
        {
            "t_lo": float(w.t_lo),
            "t_hi": float(w.t_hi),
            "a": float(w.a),
            "rank": int(w.rank),
            "factor": int(w.factor),
        }
        for w in flow.windows
    ]


def _resolve_model_path(config: RunConfig) -> OperatorPath:
    if config.path_file:
        return ingest_path(config.path_file)
    if not config.model:
        raise ConfigError("either --model or --path-file is required")
    if config.model in EXAMPLE_NAMES:
        return build_example_path(config.model, config.params.get("s"))
    raise ConfigError(f"unknown model {config.model!r}")


def run(config: RunConfig) -> dict:
    """Dispatch one configured computation and assemble its report."""
    started = time.perf_counter()
    report = {
        "schema": SCHEMA,
        "command": config.command,
        "seed": config.seed,
    }
    path = None  # set by the path commands, whose flow is run below

    if config.command in ("sf2", "parity", "example"):
        if config.command == "example":
            name = config.params.get("name") or config.model
            if name is None:
                raise ConfigError("example requires --name")
            path = build_example_path(name, config.params.get("s"))
            report["model"] = name
        else:
            path = _resolve_model_path(config)
            if config.model:
                report["model"] = config.model
        if config.command == "sf2" and path.symmetry_tag not in (
                "skew", "chiral-skew"):
            raise ConfigError("sf2 requires a skew or chiral-skew path")

    elif config.command == "pi-index":
        n = int(config.params.get("n", 4))
        structure, o = build_rank_one_pair(n)
        conjugated = o @ structure.matrix @ o.T
        report["input_digest"] = _digest_arrays(structure.matrix, o)
        pair = FredholmPair(
            structure, ComplexStructure(conjugated, structure.frame))
        report["result"] = int(pi_index(pair))
        report["kernel_dim"] = int(pair.gap_certificate)

    elif config.command == "index-theorem":
        n = int(config.params.get("n", 4))
        structure, o = build_rank_one_pair(n)
        report["input_digest"] = _digest_arrays(structure.matrix, o)
        lhs = j_index(structure, o)
        rhs = index_pairing_rhs(structure, o)
        report["result"] = int(lhs)
        report["index_lhs"] = int(lhs)
        report["index_rhs_mod2"] = int(rhs)
        report["agree"] = bool((int(lhs) == -1) == (rhs == 1))

    elif config.command == "insulator":
        spec = RingShiftSpec(
            sites=int(config.params.get("M", 8)),
            shift_power=int(config.params.get("k", 1)),
            fiber_dim=int(config.params.get("N", 1)),
            link_site=int(config.params.get("link_site", 0)),
        )
        strength = float(config.params.get("disorder", 0.0))
        if strength != 0:  # the builder refuses negative and non-finite values
            path = build_insulator_disordered(spec, strength, config.seed)
        else:
            path = build_insulator_path(spec)
        report["half_flux_kernel_dim"] = half_flux_kernel_dim(spec)

    elif config.command == "bifurcation":
        spec = GalerkinSpec(
            mode_cutoff=int(config.params.get("kmax", 4)),
            t_center=float(config.params.get("center", 2.0)),
            delta=float(config.params.get("delta", 0.5)),
        )
        path = build_bifurcation_path(spec)
        report["crossing_modes"] = [list(m) for m in
                                    bifurcation_crossing_modes(spec)]

    diagnostics = {"tolerances": tol.snapshot()}
    if path is not None:
        skew_path = to_skew_path(path)
        report["input_digest"] = _digest_path(skew_path)
        flow = sf2_path(skew_path, initial_samples=config.samples)
        report["result"] = int(flow.value)
        if config.report_windows:
            report["windows"] = _window_rows(flow)
        diagnostics["refinement_depth"] = int(flow.refinement_depth)
        diagnostics["path_evaluations"] = int(flow.evaluations)
    diagnostics["wall_time_s"] = time.perf_counter() - started
    report["diagnostics"] = diagnostics
    return report


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; remap to config
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="z2flow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--samples", type=int, default=9,
                       help="initial samples per partition segment")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output-format", choices=("json", "csv"),
                       default="json")
        p.add_argument("--output", help="output file (required for csv)")
        p.add_argument("--report-windows", action="store_true")

    for name in ("sf2", "parity"):
        p = sub.add_parser(name)
        p.add_argument("--model", choices=EXAMPLE_NAMES)
        p.add_argument("--path-file")
        p.add_argument("--s", type=float, default=None,
                       help="strength for doubled_perturbed")
        common(p)

    p = sub.add_parser("example")
    p.add_argument("--name", required=True, choices=EXAMPLE_NAMES)
    p.add_argument("--s", type=float, default=None)
    common(p)

    p = sub.add_parser("pi-index")
    p.add_argument("--n", type=int, default=4)
    common(p)

    p = sub.add_parser("index-theorem")
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


def config_from_args(argv) -> RunConfig:
    args = _build_parser().parse_args(argv)
    params = {}
    for key in ("s", "name", "n", "M", "k", "N", "link_site", "disorder",
                "kmax", "delta", "center"):
        if hasattr(args, key) and getattr(args, key) is not None:
            params[key] = getattr(args, key)
    return RunConfig(
        command=args.command,
        model=getattr(args, "model", None),
        path_file=getattr(args, "path_file", None),
        samples=args.samples,
        seed=args.seed,
        output_format=args.output_format,
        output=args.output,
        report_windows=args.report_windows,
        params=params,
    )


def _emit(report: dict, config: RunConfig) -> None:
    if config.output_format == "json":
        text = json.dumps(report, sort_keys=True)
        if config.output:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            sys.stdout.write(text + "\n")
        return
    # csv: one window per row, scalar fields repeated
    rows = report.get("windows") or [{}]
    fields = ["schema", "command", "result", "input_digest",
              "t_lo", "t_hi", "a", "rank", "factor"]
    with open(config.output, "w", encoding="utf-8", newline="") as fh:
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
        config = config_from_args(argv)
        report = run(config)
        _emit(report, config)
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


if __name__ == "__main__":
    sys.exit(main())
