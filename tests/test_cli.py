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


def invoke(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "z2flow", *args],
        capture_output=True, text=True, env=env,
    )
    return proc


def parse_stdout(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestCommands:
    def test_parity_example(self):
        report = parse_stdout(invoke("parity", "--model", "examp"))
        assert report["result"] == -1
        assert report["schema"] == "z2flow/1"

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
            assert row["schema"] == "z2flow/1"
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

    @pytest.mark.parametrize("strength", ["-0.5", "nan", "inf"])
    def test_invalid_disorder_exits_4(self, strength):
        proc = invoke("insulator", "--M", "8", "--disorder", strength)
        assert proc.returncode == 4
        assert "disorder strength" in proc.stderr

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
