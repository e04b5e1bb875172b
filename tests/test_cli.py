"""End-to-end tests for the command-line interface.

All invocations go through cli.main(argv) in-process, so stdout/stderr is
captured with capsys and exit codes are checked directly.  The contract
under test: CLI output agrees exactly with the corresponding library
calls, and exit codes are 0 success, 1 usage or format error, 2 failed
numerical check, 3 I/O error.
"""

import csv
import dataclasses
import json
import runpy
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from curvact import cli
from curvact.activations import ActivationSpec, d1, d2, max_abs_d2, rct_af, value
from curvact.cli import main
from curvact.network import init_network
from curvact.training import SweepConfig, default_sweep_config, read_sweep_results


def _tiny_sweep_dict():
    cfg = default_sweep_config()
    cfg = dataclasses.replace(
        cfg,
        curvature_targets=(7.0,),
        betas=(1,),
        seeds=(0,),
        widths=(2, 6, 1),
        dataset_n=60,
        train=dataclasses.replace(cfg.train, epochs=2),
    )
    return cfg.to_dict()


class TestActTable:
    def test_csv_matches_library_exactly(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["act-table", "rct_af:alpha=7,beta=2", "--x-min", "-3",
                     "--x-max", "3", "--n-points", "7", "--output", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7
        xs = np.array([float(r["x"]) for r in rows])
        spec = rct_af(7.0, 2)
        np.testing.assert_array_equal(xs, np.linspace(-3, 3, 7))
        np.testing.assert_array_equal(
            np.array([float(r["value"]) for r in rows]), value(spec, xs))
        np.testing.assert_array_equal(
            np.array([float(r["d1"]) for r in rows]), d1(spec, xs))
        np.testing.assert_array_equal(
            np.array([float(r["d2"]) for r in rows]), d2(spec, xs))

    def test_known_values_at_zero(self, capsys):
        code = main(["act-table", "rct_af:alpha=1,beta=0", "--x-min", "-1",
                     "--x-max", "1", "--n-points", "3"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "x,value,d1,d2"
        assert lines[2] == "0.0,0.6931471805599453,0.5,0.25"

    def test_relu_leaves_second_derivative_blank(self, capsys):
        code = main(["act-table", "relu", "--x-min", "1", "--x-max", "2",
                     "--n-points", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert all(line.endswith(",") for line in lines[1:])
        assert lines[1] == "1.0,1.0,1.0,"

    def test_json_format(self, capsys):
        code = main(["act-table", "gelu", "--x-min", "0", "--x-max", "1",
                     "--n-points", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["activation"]["kind"] == "gelu"
        assert len(payload["rows"]) == 2
        assert payload["rows"][1]["d2"] == float(d2(ActivationSpec("gelu"), 1.0))

    def test_json_null_d2_for_kinked_activation(self, capsys):
        code = main(["act-table", "leaky_relu:slope=0.1", "--n-points", "2",
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(row["d2"] is None for row in payload["rows"])

    def test_usage_errors_return_1(self, capsys):
        assert main(["act-table", "gelu", "--x-min", "2", "--x-max", "-2"]) == 1
        assert main(["act-table", "gelu", "--n-points", "1"]) == 1
        assert main(["act-table", "rct_af:alpha=7,beta=1.5"]) == 1
        assert main(["act-table", "rct_af:alpha=7,gamma=2"]) == 1
        assert main(["act-table", "no_such_activation"]) == 1
        capsys.readouterr()
        for argv, message in ((["rct_af:alpha7"], "malformed activation parameter 'alpha7'"),
                              (["rct_af:alpha=x,beta=1"],
                               "non-numeric activation parameter 'alpha=x'"),
                              (["gelu", "--x-min", "nan"], "x range must be finite")):
            assert main(["act-table", *argv]) == 1
            assert message in capsys.readouterr().err


class TestCurvature:
    def test_text_table_reports_three_decimals(self, capsys):
        code = main(["curvature", "gelu", "swish", "mish", "elu", "relu",
                     "rct_af:alpha=7,beta=2"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert len(lines) == 7
        for token in ("0.798", "0.500", "0.644", "1.000", "7.000"):
            assert token in out
        relu_line = next(line for line in lines if line.startswith("relu"))
        assert "inf" in relu_line

    def test_tunable_peak_location_is_origin(self, capsys):
        # gelu's peak is at exactly 0 too, so no "-0.0000" either.
        for spec, peak in (("rct_af:alpha=14,beta=1", "7.000"), ("gelu", "0.798")):
            main(["curvature", spec])
            row = capsys.readouterr().out.splitlines()[1].split()
            assert row[-2:] == ["0.0000", peak]

    def test_csv_round_trips_library_values(self, tmp_path):
        out = tmp_path / "curv.csv"
        code = main(["curvature", "gelu", "mish", "relu", "--format", "csv",
                     "--output", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row, kind in zip(rows, ("gelu", "mish", "relu")):
            profile = max_abs_d2(ActivationSpec(kind))
            assert float(row["argmax_x"]) == profile.argmax_x
            assert float(row["max_abs_d2"]) == profile.max_abs_d2

    def test_json_marks_unbounded_with_inf_string(self, capsys):
        code = main(["curvature", "relu", "swish", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["max_abs_d2"] == "inf"
        assert payload[1]["max_abs_d2"] == max_abs_d2(ActivationSpec("swish")).max_abs_d2


class TestHessianCheck:
    def test_small_run_passes(self, capsys):
        code = main(["hessian-check", "--trials", "3", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trials: 3" in out
        assert "parameters checked:" in out
        assert "result: PASS" in out

    def test_zero_tolerance_fails_with_exit_2(self, capsys):
        code = main(["hessian-check", "--trials", "1", "--seed", "0",
                     "--tolerance", "0"])
        out = capsys.readouterr().out
        assert code == 2
        assert "result: FAIL" in out

    def test_explicit_single_layer_net_reports_closed_form(self, tmp_path, capsys):
        net = init_network((3, 5, 1), rct_af(7.0, 1), seed=2)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(net.to_dict()))
        code = main(["hessian-check", "--trials", "2", "--seed", "1",
                     "--net", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "single-layer closed form: max abs diff =" in out

    def test_nan_hessian_fails(self, tmp_path, capsys):
        # Output weights near 1e300 overflow both diagonals to NaN; every
        # comparison with NaN is false, so the check must not read as PASS.
        net = init_network((2, 3, 1), rct_af(4.0, 1), seed=0)
        net.weights[1] *= 1e300
        path = tmp_path / "big.json"
        path.write_text(json.dumps(net.to_dict()))
        with np.errstate(all="ignore"):
            code = main(["hessian-check", "--net", str(path), "--trials", "2"])
        out = capsys.readouterr().out
        assert code == 2
        assert "max abs error vs finite differences: nan" in out
        assert "single-layer closed form: max abs diff = nan" in out
        assert "result: FAIL" in out

    def test_reports_the_worst_error_per_depth(self, capsys):
        # Seed 13 draws nets with one and two hidden layers and fails on
        # a one-hidden-layer net; the verdict stays the last line.
        code = main(["hessian-check", "--seed", "13"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert "worst error relative to allowance: 3.75" in lines
        assert lines[-3:] == ["worst error relative to allowance, 1 hidden layer: 3.75",
                              "worst error relative to allowance, 2 hidden layers: 0.118",
                              "result: FAIL"]

    def test_calls_in_one_process_parse_independently(self, tmp_path, capsys):
        # The parser is built once per process; an option given to one call
        # must not carry over to the next.
        argv = ["hessian-check", "--trials", "2", "--seed", "1"]
        assert main(argv) == 0
        fresh = capsys.readouterr().out
        path = tmp_path / "net.json"
        path.write_text(json.dumps(init_network((3, 5, 1), rct_af(7.0, 1), seed=2).to_dict()))
        assert main(argv + ["--net", str(path)]) == 0
        assert "single-layer closed form" in capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == fresh
        assert cli._build_parser() is cli._build_parser()

    def test_runs_as_python_dash_m(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["curvact", "hessian-check", "--trials", "2"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("curvact", run_name="__main__")
        assert exc.value.code == 0
        assert capsys.readouterr().out.splitlines()[-1] == "result: PASS"

    def test_usage_errors(self, capsys):
        assert main(["hessian-check", "--trials", "0"]) == 1
        assert main(["hessian-check", "--seed", "-1"]) == 1
        assert "usage error: seed must be non-negative" in capsys.readouterr().err
        # nan would read as a numerical FAIL (exit 2), inf as a PASS for
        # any diagonal: neither is a tolerance.
        for tol in ("-1", "nan", "inf"):
            assert main(["hessian-check", "--tolerance", tol]) == 1
            assert "tolerance must be finite and non-negative" in capsys.readouterr().err

    def test_missing_net_file_is_io_error(self, tmp_path, capsys):
        code = main(["hessian-check", "--net", str(tmp_path / "nope.json")])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    """Run a one-cell sweep through the CLI once for the whole module."""
    root = tmp_path_factory.mktemp("cli_sweep")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(_tiny_sweep_dict()))
    out = root / "results.csv"
    code = main(["sweep", "--config", str(cfg_path), "--output", str(out),
                 "--jobs", "1"])
    assert code == 0
    return cfg_path, out


class TestSweepAndPlot:
    def test_sweep_writes_one_row(self, sweep_csv, capsys):
        _, out = sweep_csv
        rows = read_sweep_results(out)
        assert len(rows) == 1
        assert rows[0].status == "ok"
        assert rows[0].beta == 1 and rows[0].curvature == 7.0
        capsys.readouterr()

    def test_sweep_resume_skips_finished_cells(self, sweep_csv, capsys):
        cfg_path, out = sweep_csv
        before = out.read_bytes()
        code = main(["sweep", "--config", str(cfg_path), "--output", str(out),
                     "--jobs", "1", "--resume"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "0 cells run, 1 skipped" in captured
        assert out.read_bytes() == before

    def test_plot_renders_parseable_svg(self, sweep_csv, tmp_path, capsys):
        _, results = sweep_csv
        svg_path = tmp_path / "rob.svg"
        code = main(["plot", str(results), "--kind", "robustness_vs_curvature",
                     "--output", str(svg_path)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        root = ET.fromstring(svg_path.read_text())
        assert root.tag.endswith("svg")

    def test_plot_is_byte_deterministic(self, sweep_csv, tmp_path, capsys):
        _, results = sweep_csv
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["plot", str(results), "--kind", "norm_vs_curvature",
                     "--log-x", "--output", str(a)]) == 0
        assert main(["plot", str(results), "--kind", "norm_vs_curvature",
                     "--log-x", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_plot_missing_column_names_it(self, sweep_csv, tmp_path, capsys):
        _, results = sweep_csv
        lines = results.read_text().strip().split("\n")
        header = lines[0].split(",")
        drop = header.index("diag_norm")
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(
            ",".join(v for i, v in enumerate(line.split(",")) if i != drop)
            for line in lines) + "\n")
        code = main(["plot", str(broken), "--kind", "norm_vs_curvature"])
        err = capsys.readouterr().err
        assert code == 1
        assert "diag_norm" in err

    def test_plot_without_plottable_rows_fails(self, sweep_csv, tmp_path, capsys):
        # A file whose every row diverged parses fine but feeds no chart.
        _, results = sweep_csv
        header, *lines = results.read_text().splitlines()
        status = header.split(",").index("status")
        rows = [line.split(",") for line in lines]
        for row in rows:
            row[status] = "diverged"
        diverged = tmp_path / "diverged.csv"
        diverged.write_text("\n".join([header, *(",".join(row) for row in rows)]) + "\n")
        assert {r.status for r in read_sweep_results(diverged)} == {"diverged"}
        code = main(["plot", str(diverged), "--kind", "clean_vs_curvature"])
        err = capsys.readouterr().err
        assert code == 1
        assert "no plottable rows" in err

    @pytest.mark.parametrize("column", ["curvature", "alpha"])
    def test_plot_refuses_a_non_finite_key_by_line(self, sweep_csv, tmp_path, capsys,
                                                   column):
        _, results = sweep_csv
        header, *lines = results.read_text().splitlines()
        key = header.split(",").index(column)
        row = lines[0].split(",")
        row[key] = "nan"
        broken = tmp_path / "nan.csv"
        broken.write_text("\n".join([header, *lines, ",".join(row)]) + "\n")
        code = main(["plot", str(broken), "--kind", "robustness_vs_curvature"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"line {len(lines) + 2} is malformed: curvature and alpha must be finite" in err

    def test_plot_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["plot", str(tmp_path / "absent.csv"), "--kind",
                     "robustness_vs_curvature"])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    def test_plot_requires_kind(self, sweep_csv, capsys):
        _, results = sweep_csv
        assert main(["plot", str(results)]) == 1
        assert main(["plot", str(results), "--kind", "bogus"]) == 1
        capsys.readouterr()

    def test_sweep_with_malformed_config_returns_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sweep", "--config", str(bad), "--output",
                     str(tmp_path / "r.csv")]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("section, key, value", [
        ("train", "epochs", 40.5),
        ("train", "momentun", 0.5),
        ("eval_attack", "random_start", "false"),
        (None, "curvature_target", [7.0]),
        # json.load reads the tokens NaN and Infinity; the config is refused
        # before the results file is opened.
        (None, "curvature_targets", [float("nan")]),
        (None, "curvature_targets", [float("inf")]),
        # Keys of older configs: the attack now decides the mode, and each
        # cell trains with its grid seed.
        ("train", "mode", "pgd_adversarial"),
        ("train", "seed", 0),
        # Grids the sweep cannot run once, refused before the results file
        # is opened: an input width other than the dataset's, an output of
        # more than one unit, and a repeated beta or seed.
        (None, "widths", [3, 4, 1]),
        (None, "widths", [2, 4, 2]),
        (None, "betas", [1, 1]),
        (None, "seeds", [0, 0]),
        # Seeds numpy's generators refuse.
        (None, "seeds", [-1]),
        (None, "dataset_seed", -1),
    ])
    def test_sweep_with_mistyped_config_returns_1(self, tmp_path, capsys,
                                                  section, key, value):
        """The config is refused before the results file is opened: no
        file is made, and one that holds rows keeps its bytes."""
        data = _tiny_sweep_dict()
        (data if section is None else data[section])[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(bad), "--output", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()
        out.write_bytes(b"header\nrow\n")
        assert main(["sweep", "--config", str(bad), "--output", str(out)]) == 1
        assert out.read_bytes() == b"header\nrow\n"
        capsys.readouterr()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_sweep_with_fewer_than_one_job_is_a_usage_error(self, tmp_path, capsys, jobs):
        out = tmp_path / "r.csv"
        assert main(["sweep", "--jobs", jobs, "--output", str(out)]) == 1
        assert "usage error: jobs must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_config_with_input_bounds_is_rejected(self, tmp_path, capsys):
        """Attacks take no input_bounds; a config that sets them fails
        loudly instead of running without the clamp it asks for."""
        data = _tiny_sweep_dict()
        data["train"]["attack"]["input_bounds"] = [-1.0, 1.0]
        with pytest.raises(ValueError, match=r"SweepConfig\.train\.attack.*input_bounds"):
            SweepConfig.from_dict(data)
        bad = tmp_path / "bounds.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(bad), "--output", str(out)]) == 1
        assert "input_bounds" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_command_returns_1(self, capsys):
        assert main(["no-such-command"]) == 1
        capsys.readouterr()


@pytest.mark.parametrize("command, option, arg", [
    ("act-table", "--seed", "1"),
    ("curvature", "--seed", "1"),
    ("hessian-check", "--output", "check.txt"),
    ("hessian-check", "--format", "json"),
    ("sweep", "--seed", "3"),
    ("sweep", "--format", "csv"),
    ("plot", "--seed", "1"),
    ("plot", "--format", "json"),
])
def test_option_the_subcommand_does_not_read_is_rejected(
        command, option, arg, sweep_csv, tmp_path, monkeypatch, capsys):
    """Each subcommand takes only the shared options it reads; the rest
    are usage errors, not silently ignored."""
    monkeypatch.chdir(tmp_path)
    cfg_path, results = sweep_csv
    valid = {
        "act-table": ["act-table", "gelu"],
        "curvature": ["curvature", "gelu"],
        "hessian-check": ["hessian-check", "--trials", "1"],
        "sweep": ["sweep", "--config", str(cfg_path), "--output", "r.csv", "--jobs", "1"],
        "plot": ["plot", str(results), "--kind", "norm_vs_curvature", "--output", "p.svg"],
    }[command]
    assert main(valid + [option, arg]) == 1
    assert f"unrecognized arguments: {option} {arg}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
