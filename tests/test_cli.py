"""End-to-end tests of the command-line driver."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from z2flow.cli import RunConfig, config_from_args, ingest_path, run
from z2flow.errors import ConfigError, SymmetryError


def invoke(*args, env_extra=None, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "z2flow", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    return proc


def parse_stdout(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestCommands:
    def test_parity_example(self):
        report = parse_stdout(invoke("parity", "--model", "examp"))
        assert report["result"] == -1
        assert report["schema"] == "z2flow/5"

    def test_sf2_absolute_twin(self):
        report = parse_stdout(invoke("sf2", "--model", "examp_abs"))
        assert report["result"] == 1

    def test_example_perturbed(self):
        report = parse_stdout(
            invoke("example", "--name", "doubled_perturbed", "--s", "0.4"))
        assert report["result"] == 1

    def test_insulator(self):
        report = parse_stdout(
            invoke("insulator", "--M", "12", "--k", "1", "--N", "1"))
        assert report["result"] == -1
        assert report["half_flux_kernel_dim"] == 2

    def test_insulator_even_class(self):
        report = parse_stdout(
            invoke("insulator", "--M", "8", "--k", "1", "--N", "2"))
        assert report["result"] == 1
        assert report["half_flux_kernel_dim"] == 4

    def test_bifurcation(self):
        report = parse_stdout(
            invoke("bifurcation", "--kmax", "4", "--delta", "0.5"))
        assert report["result"] == -1
        assert report["crossing_modes"] == [[1, 1]]

    def test_pi_index(self):
        report = parse_stdout(invoke("pi-index", "--n", "5"))
        assert report["result"] == -1
        assert report["kernel_dim"] == 2

    def test_index_theorem(self):
        report = parse_stdout(invoke("index-theorem", "--n", "4"))
        assert report["result"] == -1
        assert report["index_lhs"] == -1
        assert report["index_rhs_mod2"] == 1
        assert report["agree"] is True


class TestReports:
    def test_determinism(self):
        a = parse_stdout(invoke("insulator", "--M", "8", "--seed", "3"))
        b = parse_stdout(invoke("insulator", "--M", "8", "--seed", "3"))
        a["diagnostics"].pop("wall_time_s")
        b["diagnostics"].pop("wall_time_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_window_audit(self):
        report = parse_stdout(
            invoke("sf2", "--model", "examp", "--report-windows"))
        factors = [w["factor"] for w in report["windows"]]
        product = 1
        for f in factors:
            product *= f
        assert product == report["result"]

    def test_csv_output(self, tmp_path):
        out = tmp_path / "windows.csv"
        proc = invoke("sf2", "--model", "examp", "--report-windows",
                      "--output-format", "csv", "--output", str(out))
        assert proc.returncode == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        product = 1
        for row in rows:
            assert row["schema"] == "z2flow/5"
            assert row["summand"] == "0"
            product *= int(row["factor"])
        assert product == int(rows[0]["result"]) == -1

    def test_csv_requires_output_path(self):
        proc = invoke("sf2", "--model", "examp", "--output-format", "csv")
        assert proc.returncode == 4

    def test_tolerance_scale_env(self):
        report = parse_stdout(invoke(
            "parity", "--model", "examp",
            env_extra={"Z2FLOW_TOLERANCE_SCALE": "10"}))
        assert report["result"] == -1
        assert report["diagnostics"]["tolerances"]["scale"] == 10.0
        assert report["diagnostics"]["tolerances"]["sym_rel"] == 1e-9

    def test_disordered_ring_digest_builds_no_doubling(self, monkeypatch):
        # cli.run hashes to_skew_path(path), whose block is the ring's own
        # n x n block: the 2n x 2n chiral doubling is never built, by the
        # digest or by the flow
        import z2flow.flow as flow
        from z2flow.cli import _digest_path
        from z2flow.models import RingShiftSpec, build_insulator_disordered

        config = RunConfig(command="insulator", params={"M": 64, "disorder": 0.1})
        digest = run(config)["input_digest"]

        def refuse(b):
            raise AssertionError("the digest builds no chiral doubling")

        monkeypatch.setattr(flow, "embed_chiral", refuse)
        ring = build_insulator_disordered(RingShiftSpec(64), 0.1, 0)
        assert _digest_path(flow.to_skew_path(ring)) == digest
        assert run(config)["input_digest"] == digest

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "nan", "inf", ""])
    def test_invalid_tolerance_scale_env(self, value):
        proc = invoke("parity", "--model", "examp",
                      env_extra={"Z2FLOW_TOLERANCE_SCALE": value})
        assert proc.returncode == 4
        assert "Z2FLOW_TOLERANCE_SCALE" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestExitStatuses:
    def test_unknown_flag(self):
        proc = invoke("parity", "--bogus")
        assert proc.returncode == 4

    def test_unknown_model(self):
        proc = invoke("parity", "--model", "unknown-model")
        assert proc.returncode == 4

    def test_bad_spec(self):
        proc = invoke("insulator", "--M", "3")
        assert proc.returncode == 4

    def test_not_admissible(self, tmp_path):
        doc = {
            "symmetry": "general",
            "samples": [
                {"t": 0.0, "matrix": [[0.0]]},
                {"t": 1.0, "matrix": [[1.0]]},
            ],
        }
        f = tmp_path / "singular.json"
        f.write_text(json.dumps(doc))
        proc = invoke("parity", "--path-file", str(f))
        assert proc.returncode == 2

    def test_steep_linear_path_succeeds(self, tmp_path):
        # a steep but continuous two-sample family refines fine
        doc = {
            "symmetry": "general",
            "samples": [
                {"t": 0.0, "matrix": [[1.0, 0.0], [0.0, 1.0]]},
                {"t": 1.0, "matrix": [[-1.0, 0.0], [0.0, 1.0]]},
            ],
        }
        f = tmp_path / "linear.json"
        f.write_text(json.dumps(doc))
        proc = invoke("parity", "--path-file", str(f))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"] == -1

    def test_refinement_maps_to_exit_3(self, monkeypatch):
        import z2flow.cli as cli
        from z2flow.errors import RefinementError

        def boom(config):
            raise RefinementError("cannot refine")

        monkeypatch.setattr(cli, "run", boom)
        assert cli.main(["parity", "--model", "examp"]) == 3

    @pytest.mark.parametrize("ts", [[0.0, float("inf")],
                                    [0.0, float("nan"), 1.0]])
    def test_non_finite_parameter_is_config_error(self, tmp_path, ts):
        doc = {
            "symmetry": "general",
            "samples": [{"t": t, "matrix": [[1.0 + i]]} for i, t in enumerate(ts)],
        }
        f = tmp_path / "nonfinite.json"
        f.write_text(json.dumps(doc))  # writes the Infinity / NaN literals
        with pytest.raises(ConfigError):
            ingest_path(str(f))
        proc = invoke("parity", "--path-file", str(f))
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unwritable_output_exits_4(self, tmp_path, fmt):
        target = tmp_path / "missing" / f"report.{fmt}"
        proc = invoke("parity", "--model", "examp", "--output-format", fmt,
                      "--output", str(target))
        assert proc.returncode == 4
        assert "cannot write output file" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("strength", ["-0.5", "nan", "inf"])
    def test_invalid_disorder_exits_4(self, strength):
        proc = invoke("insulator", "--M", "8", "--disorder", strength)
        assert proc.returncode == 4
        assert "disorder strength" in proc.stderr

    def test_disorder_seed_must_be_non_negative(self):
        proc = invoke("insulator", "--M", "8", "--disorder", "0.1",
                      "--seed", "-1")
        assert proc.returncode == 4
        assert "seed" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_subnormal_interval_returns_oracle(self, tmp_path):
        # on [0, 1e-320] the knot arc is taken in the normalised parameter,
        # so no slope overflows and no numpy warning is raised; a segment
        # too short to bisect stays covered by TestRefine
        doc = {
            "symmetry": "general",
            "samples": [
                {"t": 0.0, "matrix": [[-0.5, 0.0], [0.0, 1.0]]},
                {"t": 1e-320, "matrix": [[0.5, 0.0], [0.0, 1.0]]},
            ],
        }
        f = tmp_path / "subnormal.json"
        f.write_text(json.dumps(doc))
        proc = invoke("parity", "--path-file", str(f), timeout=60,
                      env_extra={"PYTHONWARNINGS": "error"})
        assert parse_stdout(proc)["result"] == -1
        assert proc.stderr == ""

    def test_overflowing_parameter_span_exits_4(self, tmp_path):
        # t1 - t0 overflows to inf: refused before any numpy arithmetic
        doc = {
            "symmetry": "general",
            "samples": [{"t": -1e308, "matrix": [[-1.0]]},
                        {"t": 1e308, "matrix": [[1.0]]}],
        }
        f = tmp_path / "span.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="overflows"):
            ingest_path(str(f))
        proc = invoke("parity", "--path-file", str(f),
                      env_extra={"PYTHONWARNINGS": "error"})
        assert proc.returncode == 4
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_overflowing_knot_arc_returns_oracle(self, tmp_path):
        # the knot difference overflows: the knot arc is infinite, and the
        # path is solved as an opaque one
        doc = {
            "symmetry": "general",
            "samples": [{"t": 0.0, "matrix": [[1e308]]},
                        {"t": 1.0, "matrix": [[-1e308]]}],
        }
        f = tmp_path / "huge.json"
        f.write_text(json.dumps(doc))
        proc = invoke("parity", "--path-file", str(f),
                      env_extra={"PYTHONWARNINGS": "error"})
        assert parse_stdout(proc)["result"] == -1
        assert proc.stderr == ""

    def test_oversized_builder_exits_4(self, capsys):
        import z2flow.cli as cli

        # a 10^7 x 10^7 float matrix (728 TiB) exceeds any address space,
        # so the allocation fails at once
        assert cli.main(["insulator", "--M", "10000000"]) == 4
        assert capsys.readouterr().err.startswith("error: ")


class TestIngestPath:
    def test_constant_path(self, tmp_path):
        doc = {
            "symmetry": "general",
            "samples": [
                {"t": 0.0, "matrix": [[1.0]]},
                {"t": 1.0, "matrix": [[1.0]]},
            ],
        }
        f = tmp_path / "const.json"
        f.write_text(json.dumps(doc))
        proc = invoke("parity", "--path-file", str(f))
        assert parse_stdout(proc)["result"] == 1

    def test_three_sample_crossing(self, tmp_path):
        doc = {
            "symmetry": "chiral-skew",
            "frame": [1, 1],
            "samples": [
                {"t": -1.0, "matrix": [[0.0, -1.0], [1.0, 0.0]]},
                {"t": 0.0, "matrix": [[0.0, 0.0], [0.0, 0.0]]},
                {"t": 1.0, "matrix": [[0.0, 1.0], [-1.0, 0.0]]},
            ],
        }
        f = tmp_path / "crossing.json"
        f.write_text(json.dumps(doc))
        proc = invoke("sf2", "--path-file", str(f))
        assert parse_stdout(proc)["result"] == -1

    def test_symmetry_violation(self, tmp_path):
        doc = {
            "symmetry": "chiral-skew",
            "frame": [1, 1],
            "samples": [
                {"t": 0.0, "matrix": [[0.0, 1.0], [1.0, 0.0]]},
                {"t": 1.0, "matrix": [[0.0, 1.0], [-1.0, 0.0]]},
            ],
        }
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(SymmetryError):
            ingest_path(str(f))
        proc = invoke("sf2", "--path-file", str(f))
        assert proc.returncode == 4

    def test_schema_violations(self, tmp_path):
        cases = [
            {"symmetry": "nope", "samples": []},
            {"symmetry": "skew"},
            {"symmetry": "skew", "samples": [{"t": 0.0}]},
            {"symmetry": "skew", "samples": [
                {"t": 0.0, "matrix": [[0.0]]}]},
            {"symmetry": "chiral-skew", "frame": [1],
             "samples": [{"t": 0.0, "matrix": [[0.0]]},
                         {"t": 1.0, "matrix": [[0.0]]}]},
        ]
        for i, doc in enumerate(cases):
            f = tmp_path / f"case{i}.json"
            f.write_text(json.dumps(doc))
            with pytest.raises(ConfigError):
                ingest_path(str(f))

    @pytest.mark.parametrize("ends, expected", [
        ([[[-1.0], [0.0], [0.0]], [[1.0], [0.0], [0.0]]], -1),  # tall 3x1
        ([[[-1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]], -1),          # wide 1x3
        ([[[1.0], [0.0]], [[0.0], [1.0]]], 1),                  # tall 2x1
    ])
    def test_rectangular_parity(self, tmp_path, ends, expected):
        doc = {
            "symmetry": "general",
            "samples": [{"t": t, "matrix": m} for t, m in zip((-1.0, 1.0), ends)],
        }
        f = tmp_path / "rect.json"
        f.write_text(json.dumps(doc))
        report = parse_stdout(invoke("parity", "--path-file", str(f),
                                     "--report-windows"))
        assert report["result"] == expected
        product = 1
        for w in report["windows"]:
            product *= w["factor"]
        assert report["windows"] and product == expected
        assert invoke("sf2", "--path-file", str(f)).returncode == 4

    def test_tall_file_with_crossing_on_a_grid_node(self):
        # data/rect_tall.json and its transpose data/rect_wide.json, also
        # run by CI: the 3x1 block vanishes at t = 0, node 32 of the
        # reduction's 65-point grid on [-1, 1]; both reduce to one 1x1 path
        reports = []
        for name in ("rect_tall.json", "rect_wide.json"):
            f = os.path.join(os.path.dirname(__file__), "data", name)
            reports.append(parse_stdout(invoke(
                "parity", "--path-file", f, "--report-windows",
                env_extra={"PYTHONWARNINGS": "error"})))
            assert reports[-1]["result"] == -1
        tall, wide = reports
        assert wide["input_digest"] == tall["input_digest"]
        assert wide["windows"] == tall["windows"]

    def test_rectangular_file_too_short_to_bisect_exits_3(self, tmp_path):
        # an interval with fewer than 65 floats: the reduction's grid is
        # deduplicated, and the flow of its crossing fails as the square
        # twin's does (RefinementError, exit 3), not on repeated knots
        samples = [{"t": t, "matrix": [[s, 0.0], [0.0, 1.0], [0.0, 0.0]]}
                   for t, s in ((1.0, -1.0), (1.0000000000000004, 1.0))]
        f = tmp_path / "short.json"
        f.write_text(json.dumps({"symmetry": "general", "samples": samples}))
        proc = invoke("parity", "--path-file", str(f),
                      env_extra={"PYTHONWARNINGS": "error"})
        assert proc.returncode == 3, proc.stderr
        assert "cannot be bisected in floating point" in proc.stderr

    def test_non_dyadic_file_reuses_solved_samples(self):
        # data/nondyadic_crossing.json, also run by CI: knots on [0.3, 1.7],
        # whose segment grids are not exact binary fractions; the halves of
        # each refused segment find their parent's samples solved
        from z2flow.flow import parity_finite

        f = os.path.join(os.path.dirname(__file__), "data", "nondyadic_crossing.json")
        report = parse_stdout(invoke("parity", "--path-file", f,
                                     env_extra={"PYTHONWARNINGS": "error"}))
        assert report["result"] == int(parity_finite(ingest_path(f))) == -1
        assert report["diagnostics"]["path_evaluations"] == 33

    @pytest.mark.parametrize("field", ["t", "matrix"])
    def test_quoted_numbers_exit_4(self, tmp_path, field):
        # the CLI door refuses strings as OperatorPath.from_samples does
        samples = [{"t": 0.0, "matrix": [[-1.0, 0.0], [0.0, 1.0]]},
                   {"t": 1.0, "matrix": [[1.0, 0.0], [0.0, 1.0]]}]
        samples[1][field] = ("1" if field == "t"
                             else [["-1", "0"], ["0", "1"]])
        f = tmp_path / "quoted.json"
        f.write_text(json.dumps({"symmetry": "general", "samples": samples}))
        with pytest.raises(ConfigError, match="real numbers"):
            ingest_path(str(f))
        proc = invoke("parity", "--path-file", str(f),
                      env_extra={"PYTHONWARNINGS": "error"})
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1
        assert proc.stderr.startswith("error: malformed sample")

    @staticmethod
    def boolean_file(tmp_path, capsys, frame, t1, entry):
        """A chiral skew file read as a crossing path if booleans counted
        as 0 and 1, run through ``cli.main``: its exit code and stderr."""
        from z2flow import cli

        doc = {"symmetry": "chiral-skew", "frame": frame, "samples": [
            {"t": 0.0, "matrix": [[0, -1], [1, 0]]},
            {"t": t1, "matrix": [[0, entry], [-1, 0]]}]}
        f = tmp_path / "boolean.json"
        f.write_text(json.dumps(doc))
        code = cli.main(["sf2", "--path-file", str(f)])
        return code, capsys.readouterr().err

    def test_boolean_frame_exit_4(self, tmp_path, capsys):
        code, err = self.boolean_file(tmp_path, capsys, [True, True], 1.0, 1)
        assert (code, err) == (4, "error: frame must be a pair of non-negative "
                                  "integers\n")

    def test_boolean_parameter_exit_4(self, tmp_path, capsys):
        code, err = self.boolean_file(tmp_path, capsys, [1, 1], True, 1)
        assert code == 4 and err.startswith("error: malformed sample")

    def test_boolean_matrix_entry_exit_4(self, tmp_path, capsys):
        # a mixed row [[0, true]] is an int array to numpy, so the dtype
        # alone would not show the boolean
        code, err = self.boolean_file(tmp_path, capsys, [1, 1], 1.0, True)
        assert code == 4 and err.startswith("error: malformed sample")
        # the same file with numbers is a crossing, flow -1
        assert self.boolean_file(tmp_path, capsys, [1, 1], 1.0, 1)[0] == 0

    def test_ragged_and_nested_parameters_exit_4(self, tmp_path):
        for i, (t, matrix) in enumerate([(1.0, [[1.0, 0.0], [0.0]]),
                                         ([1.0], [[1.0, 0.0], [0.0, 1.0]])]):
            doc = {"symmetry": "general", "samples": [
                {"t": 0.0, "matrix": [[-1.0, 0.0], [0.0, 1.0]]},
                {"t": t, "matrix": matrix}]}
            f = tmp_path / f"case{i}.json"
            f.write_text(json.dumps(doc))
            with pytest.raises(ConfigError):
                ingest_path(str(f))

    def test_interpolation_is_linear(self, tmp_path):
        doc = {
            "symmetry": "general",
            "samples": [
                {"t": 0.0, "matrix": [[2.0]]},
                {"t": 2.0, "matrix": [[4.0]]},
            ],
        }
        f = tmp_path / "interp.json"
        f.write_text(json.dumps(doc))
        path = ingest_path(str(f))
        assert path.at(1.0)[0, 0] == pytest.approx(3.0)


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(command="nope")
        with pytest.raises(ConfigError):
            RunConfig(command="sf2", output_format="xml")
        with pytest.raises(ConfigError):
            RunConfig(command="sf2", output_format="csv")

    def test_from_args_roundtrip(self):
        cfg = config_from_args(
            ["insulator", "--M", "12", "--k", "2", "--N", "1",
             "--seed", "5", "--report-windows"])
        assert cfg.command == "insulator"
        assert cfg.params["M"] == 12
        assert cfg.params["k"] == 2
        assert cfg.seed == 5
        assert cfg.report_windows

    def test_parser_reused_after_a_bad_argument(self, capsys):
        from z2flow import cli

        assert cli._build_parser() is cli._build_parser()
        assert cli.main(["insulator", "--M", "twelve"]) == 4
        assert "--M" in capsys.readouterr().err
        assert cli.main(["insulator", "--M", "12", "--report-windows"]) == 0
        report = json.loads(capsys.readouterr().out)
        fresh = parse_stdout(invoke("insulator", "--M", "12", "--report-windows"))
        for r in (report, fresh):
            del r["diagnostics"]["wall_time_s"]
        assert report == fresh

    def test_run_requires_input(self):
        with pytest.raises(ConfigError):
            run(RunConfig(command="parity"))


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_reports.json")
with open(GOLDEN, encoding="utf-8") as _fh:
    GOLDEN_REPORTS = json.load(_fh)


def _assert_report_matches(actual, expected, where="report"):
    """Equal field by field, window radii to a relative 1e-9."""
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            if key == "a":
                assert actual[key] == pytest.approx(expected[key], rel=1e-9, abs=0), where
            else:
                _assert_report_matches(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (x, y) in enumerate(zip(actual, expected)):
            _assert_report_matches(x, y, f"{where}[{i}]")
    else:
        assert actual == expected and type(actual) is type(expected), where


class TestGoldenReports:
    """Reports of fixed commands against ``data/cli_reports.json``.

    Every field but the wall time must match; window radii may differ in
    the last bits between equally accurate solves.  Path-file arguments are
    relative to ``tests/data``.
    """

    @pytest.mark.parametrize("entry", GOLDEN_REPORTS,
                             ids=[" ".join(e["argv"]) for e in GOLDEN_REPORTS])
    def test_report_unchanged(self, entry):
        data = os.path.dirname(GOLDEN)
        argv = [os.path.join(data, a) if a.endswith(".json") else a
                for a in entry["argv"]]
        report = run(config_from_args(argv))
        del report["diagnostics"]["wall_time_s"]
        # the JSON round trip turns tuples into lists, as the CLI output does
        _assert_report_matches(json.loads(json.dumps(report)), entry["report"])

    def test_window_products_are_the_results(self):
        # the fixture itself is consistent: its windows multiply to its value
        listed = [e["report"] for e in GOLDEN_REPORTS if "windows" in e["report"]]
        assert len(listed) >= 4
        for report in listed:
            assert int(np.prod([w["factor"] for w in report["windows"]])) \
                == report["result"]
