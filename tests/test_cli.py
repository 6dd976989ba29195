import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ncsums.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestStructure:
    def test_ell2_n10(self):
        code, out, err = run_cli("structure", "--ell", "2", "--n", "10", "--no-timestamp")
        assert code == 0
        lines = out.strip().splitlines()
        assert "summary,2,10,1,0.5,a_count=5" in lines
        assert "partition,ok,,,," in lines
        fibers = sorted(l for l in lines if l.startswith("fiber,"))
        assert fibers == ["fiber,1,2,,,", "fiber,2,2,,,", "fiber,4,1,,,"]

    def test_ell3_n12_smooth_prefix(self):
        code, out, _ = run_cli(
            "structure", "--ell", "3", "--n", "12", "--format", "json", "--no-timestamp"
        )
        assert code == 0
        doc = json.loads(out)
        assert [row["h"] for row in doc["smooth"]] == [1, 2, 3, 4, 6, 8, 9, 12]
        assert doc["partition_ok"] is True

    def test_ell1(self):
        code, out, _ = run_cli(
            "structure", "--ell", "1", "--n", "5", "--format", "json", "--no-timestamp"
        )
        doc = json.loads(out)
        assert doc["a_count"] == 5
        assert doc["fibers"] == [{"l": 1, "count": 5}]
        assert doc["smooth"][0]["weight"] == 1.0

    def test_capacity_limit(self):
        code, _, err = run_cli("structure", "--ell", "2", "--n", "1e9")
        assert code == 2
        assert "InputError" in err


class TestCurves:
    def test_rate_i_value(self):
        code, out, _ = run_cli(
            "rate-i", "--preset", "rademacher-product", "--alpha", "0.5", "--no-timestamp"
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[0] == "0.5"
        assert float(row[1]) == pytest.approx(0.1308120, abs=1e-7)
        assert row[2] == "false"

    def test_rate_i_grid_and_infinity(self):
        code, out, _ = run_cli(
            "rate-i",
            "--preset", "rademacher-product",
            "--alpha", "0.5:1.5:0.5",
            "--no-timestamp",
        )
        rows = [l.split(",") for l in out.strip().splitlines()[1:]]
        assert [r[0] for r in rows] == ["0.5", "1", "1.5"]
        assert rows[2][1] == "inf" and rows[2][2] == "true"

    def test_pressure_value(self):
        code, out, _ = run_cli(
            "pressure",
            "--preset", "rademacher-product",
            "--lambda", "1",
            "--tol", "1e-8",
            "--no-timestamp",
        )
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(0.4337809, abs=1e-6)
        assert int(row[4]) > 10  # truncation length column

    def test_rate_j_zero(self):
        code, out, _ = run_cli(
            "rate-j", "--preset", "rademacher-product", "--u", "0", "--no-timestamp"
        )
        assert out.strip().splitlines()[1].split(",")[1] == "0"

    def test_degenerate_exit_code(self):
        code, _, err = run_cli(
            "rate-i", "--preset", "constant", "--alpha", "0.5", "--no-timestamp"
        )
        assert code == 2
        assert "DegenerateObservableError" in err

    def test_capacity_exit_code(self):
        code, _, err = run_cli(
            "rate-i", "--preset", "rademacher-product", "--ell", "30",
            "--alpha", "0.5", "--no-timestamp",
        )
        assert code == 3
        assert "CapacityError" in err

    def test_tolerance_exit_code(self):
        code, _, err = run_cli(
            "pressure",
            "--preset", "rademacher-product",
            "--ell", "5",
            "--lambda", "1",
            "--tol", "1e-12",
            "--no-timestamp",
        )
        assert code == 4
        assert "ToleranceError" in err


class TestExperimentCommands:
    def test_erlaw_rows_and_summary(self):
        code, out, err = run_cli(
            "erlaw",
            "--preset", "rademacher-product",
            "--alpha", "0.5",
            "--n", "2000",
            "--seeds", "5",
            "--no-timestamp",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("ell,observable_id,alpha")
        assert len(lines) == 6  # header + 5 seed rows
        summary = json.loads(err)
        assert summary["summary"][0]["n"] == 2000

    def test_ldp_check_schema(self):
        code, out, _ = run_cli(
            "ldp-check",
            "--ell", "1",
            "--preset", "rademacher-product",
            "--N", "60",
            "--u", "0.3",
            "--replicas", "2000",
            "--no-timestamp",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "N,u,replicas,p_hat,rate_hat,ci_low,ci_high,theory_J,theory_I"
        vals = row.split(",")
        assert float(vals[8]) == pytest.approx(0.0457005, abs=1e-6)
        assert float(vals[7]) == pytest.approx(0.0457005, abs=1e-4)

    def test_simulate_row_count(self):
        code, out, _ = run_cli(
            "simulate",
            "--preset", "rademacher-product",
            "--n", "100",
            "--seed", "7",
            "--stride", "10",
            "--no-timestamp",
        )
        lines = out.strip().splitlines()
        assert len(lines) == 12  # header + 11 rows
        assert lines[1] == "0,0"

    def test_json_format(self):
        code, out, _ = run_cli(
            "simulate",
            "--preset", "rademacher-product",
            "--n", "10",
            "--seed", "1",
            "--format", "json",
            "--no-timestamp",
        )
        doc = json.loads(out)
        assert doc["rows"][0] == [0, 0.0]
        assert len(doc["rows"]) == 11


class TestDeterminismAndConfig:
    def test_byte_identical_across_threads(self):
        args = (
            "ldp-check", "--preset", "rademacher-product", "--N", "40", "--u", "0.3",
            "--replicas", "64000", "--seed", "5", "--no-timestamp",
        )
        _, out1, _ = run_cli(*args, "--threads", "1")
        _, out4, _ = run_cli(*args, "--threads", "4")
        assert out1 == out4

    def test_timestamp_suppression(self):
        args = ("rate-i", "--preset", "rademacher-product", "--alpha", "0.2")
        _, with_ts, _ = run_cli(*args)
        _, without, _ = run_cli(*args, "--no-timestamp")
        assert with_ts.startswith("# generated_at=")
        assert without.splitlines() == with_ts.splitlines()[1:]

    def test_output_file(self, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            "rate-i",
            "--preset", "rademacher-product",
            "--alpha", "0.5",
            "--no-timestamp",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("x,value")

    def test_config_defaults_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9, "stride": 25}))
        _, out, _ = run_cli(
            "simulate",
            "--preset", "rademacher-product",
            "--n", "100",
            "--config", str(cfg),
            "--no-timestamp",
        )
        assert len(out.strip().splitlines()) == 1 + 5  # strides 0,25,50,75,100
        # explicit flag beats config
        _, out2, _ = run_cli(
            "simulate",
            "--preset", "rademacher-product",
            "--n", "100",
            "--stride", "50",
            "--config", str(cfg),
            "--no-timestamp",
        )
        assert len(out2.strip().splitlines()) == 1 + 3

    def test_config_can_set_format(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "json"}))
        args = (
            "rate-j", "--preset", "rademacher-product", "--u", "0",
            "--config", str(cfg), "--no-timestamp",
        )
        _, out, _ = run_cli(*args)
        assert json.loads(out)["kind"] == "rate-j"
        _, out_csv, _ = run_cli(*args, "--format", "csv")  # flag wins
        assert out_csv.startswith("x,value")

    def test_unparseable_number_is_input_error(self):
        code, _, err = run_cli("structure", "--ell", "2", "--n", "abc")
        assert code == 2
        assert json.loads(err)["error"] == "InputError"

    def test_center_flag_unblocks_table_observables(self, tmp_path):
        spec = tmp_path / "obs.json"
        spec.write_text(
            json.dumps(
                {
                    "values": [-1.0, 2.0],
                    "probs": [0.75, 0.25],
                    "ell": 2,
                    "kind": "table",
                    "table": [0.55, -0.85, 0.95, 2.15],
                }
            )
        )
        args = ("rate-i", "--spec-file", str(spec), "--alpha", "0.2", "--no-timestamp")
        code, _, err = run_cli(*args)
        assert code == 2 and "centered" in err
        code, out, _ = run_cli(*args, "--center")
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[1]) > 0.0

    def test_env_thread_default(self, monkeypatch):
        monkeypatch.setenv("NCSUMS_THREADS", "2")
        args = (
            "ldp-check", "--preset", "rademacher-product", "--N", "30", "--u", "0.3",
            "--replicas", "40000", "--seed", "5", "--no-timestamp",
        )
        _, out_env, _ = run_cli(*args)
        monkeypatch.delenv("NCSUMS_THREADS")
        _, out_one, _ = run_cli(*args)
        assert out_env == out_one

    def test_bad_flag_reports_json_error(self):
        code, _, err = run_cli("rate-i", "--alpha", "0.5")
        assert code == 2
        assert json.loads(err)["error"] == "InputError"

    def test_unknown_subcommand(self):
        code, _, err = run_cli("frobnicate")
        assert code == 2


class TestInputValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ("rate-i", "--alpha", "nan"),
            ("rate-i", "--alpha", "0.1,nan"),
            ("rate-i", "--alpha", "nan:1:0.5"),
            ("rate-i", "--alpha", "0:inf:0.5"),
            ("rate-j", "--u", "nan"),
            ("pressure", "--lambda", "nan"),
            ("erlaw", "--alpha", "0.5", "--n", "100", "--seed-list", "1,nan"),
            ("rate-j", "--u", "0.5", "--lambda-cap", "0"),
            ("rate-j", "--u", "0.5", "--lambda-cap", "-1"),
            ("rate-i", "--alpha", "0.5", "--t-cap", "0"),
            ("rate-i", "--alpha", "0.5", "--t-cap", "-1"),
            ("ldp-check", "--N", "0", "--u", "0.3", "--replicas", "1000", "--skip-theory"),
            ("ldp-check", "--N", "-5", "--u", "0.3", "--replicas", "1000", "--skip-theory"),
            ("erlaw", "--alpha", "0.5", "--n", "100", "--ell", "0"),
            ("ldp-check", "--N", "60", "--u", "0.3", "--replicas", "1000", "--ell", "0",
             "--skip-theory"),
        ],
    )
    def test_nan_grid_or_nonpositive_cap_is_input_error(self, argv):
        code, out, err = run_cli(*argv, "--preset", "rademacher-product", "--no-timestamp")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "InputError"

    @pytest.mark.parametrize("const_value", [None, "inf", "nan"])
    def test_nonfinite_table_is_input_error(self, const_value, tmp_path):
        if const_value is None:
            spec = tmp_path / "obs.json"
            spec.write_text(
                '{"values": [-1, 1], "probs": [0.5, 0.5], "ell": 2, "kind": "table",'
                ' "table": [1e999, 0, 0, -1]}'
            )
            source = ("--spec-file", str(spec))
        else:
            source = ("--preset", "constant", "--const-value", const_value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning escapes either
            code, out, err = run_cli("simulate", *source, "--n", "40", "--no-timestamp")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "InputError"

    def test_infinite_grid_item_still_evaluates(self):
        code, out, _ = run_cli(
            "rate-i", "--preset", "rademacher-product", "--alpha", "inf", "--no-timestamp"
        )
        assert code == 0
        assert out.splitlines()[1] == "inf,inf,true,1e-09"

    def test_seed_list_integers_are_exact(self):
        big = 2**53 + 1  # float(big) == 2**53
        code, out, _ = run_cli(
            "erlaw", "--preset", "rademacher-product", "--alpha", "0.5", "--n", "1e2",
            "--seed-list", f"{big}, 1e1", "--no-timestamp",
        )
        assert code == 0
        header, *rows = out.strip().splitlines()
        col = header.split(",").index("seed")
        assert [row.split(",")[col] for row in rows] == ["10", str(big)]


def test_module_entrypoint_subprocess():
    # The repo root is found from this file, and PYTHONPATH is absolute, so
    # the result does not depend on where the repo lives or where pytest runs.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "ncsums", "rate-j", "--preset", "rademacher-product",
         "--u", "0", "--no-timestamp"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(root / "src")},
        cwd=root,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0,0,false,1e-08"
