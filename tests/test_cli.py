import io
import json
import math
import re
import signal
import subprocess
import sys
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from oracles import fmt_value, render_simulate
from ncsums import cli, simulate
from ncsums.cli import (
    GRID_POINT_LIMIT,
    STRUCTURE_ELL_LIMIT,
    _build_parser,
    _fmt,
    _parse_grid,
    _with_config,
    main,
)
from ncsums.errors import InputError
from ncsums.lattice import primes_up_to
from ncsums.model import ELL_LIMIT, preset
from ncsums.rates import Pressure
from ncsums.simulate import trajectory


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def config_sample(action):
    """A JSON value for a flag that its parser accepts and that is not its default."""
    if action.nargs == 0:
        return True
    if action.choices:
        return next(c for c in action.choices if c != action.default)
    return {int: 3, float: 0.25}.get(action.type, "0.5")


def flag_token(action, value):
    return action.option_strings[0] if value is True else f"{action.option_strings[0]}={value}"


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

    def test_rate_i_on_large_values(self, tmp_path):
        spec = tmp_path / "obs.json"
        spec.write_text(json.dumps({
            "values": [-1.0, 1.0], "probs": [0.5, 0.5], "ell": 2, "kind": "table",
            "table": [1e100, -1e100, -1e100, 1e100],
        }))
        code, out, _ = run_cli(
            "rate-i", "--spec-file", str(spec), "--alpha=5e99,-5e99", "--no-timestamp"
        )
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()[1:]]
        assert [r[1] for r in rows] == ["0.130812036", "0.130812036"]  # the coin's I(0.5), not 0

    def test_rate_i_at_small_alpha_follows_the_series(self):
        # the coin's I(a) = sum_k a^(2k) / (2k (2k - 1)); exp-based ln(mgf)
        # read 1.49e-24 at a = 1e-12
        alphas = [1e-12, 1e-9, 1e-6, 1e-4]
        grid = ",".join(str(a) for a in [-a for a in alphas] + alphas)
        code, out, _ = run_cli(
            "rate-i", "--preset", "rademacher-product", f"--alpha={grid}", "--no-timestamp"
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            a, value = (float(v) for v in line.split(",")[:2])
            series = sum(a ** (2 * k) / (2 * k * (2 * k - 1)) for k in range(1, 6))
            assert value == pytest.approx(series, rel=1e-7), a

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

    @pytest.mark.parametrize("u", ["1e-200", "1e-40"])
    def test_rate_j_where_the_slope_rounds_to_zero(self, u):
        # Q'(lambda) reads 0.0 at every probe the search can reach within its
        # evaluation cap, but the gap |u| * lambda_cap is already below tol
        code, out, err = run_cli(
            "rate-j", "--preset", "rademacher-product", "--u", u, "--no-timestamp"
        )
        assert (code, err) == (0, "")
        j = float(out.strip().splitlines()[1].split(",")[1])
        assert abs(j - float(u) ** 2 / 2) <= 1e-8

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

    def test_ldp_check_ell3_reports_the_budget_near_the_optimum(self):
        # lambda* = atanh(0.3) = 0.31; the search no longer probes the cap
        # lambda = 60, where the parent stopped at achievable tol 3.8e-4
        code, _, err = run_cli(
            "ldp-check", "--preset", "rademacher-product", "--ell", "3", "--N", "30",
            "--u", "0.3", "--replicas", "2000", "--no-timestamp",
        )
        assert code == 4
        report = json.loads(err)
        assert report["error"] == "ToleranceError"
        match = re.fullmatch(
            r"budget exhausted at fiber length (\d+); achievable tol is (\S+)", report["message"]
        )
        done, achievable = int(match[1]) - 1, float(match[2])
        assert achievable < 3.8e-4
        dist, obs = preset("rademacher-product", ell=3)
        press = Pressure(dist, obs, tol=1e-6)
        lam = achievable / (primes_up_to(3).r_const * obs.sup_abs * float(press._tail[done]))
        assert abs(lam - math.atanh(0.3)) < 0.1

    @pytest.mark.parametrize(
        "argv",
        [
            ("pressure", "--preset", "bernoulli-product", "--lambda", "0.5"),
            ("rate-j", "--preset", "rademacher-product", "--u", "0.5"),
        ],
    )
    def test_budget_below_the_first_fiber_length(self, argv):
        # no length is evaluated, so no tolerance is achievable: the message says so
        code, out, err = run_cli(*argv, "--budget", "1", "--no-timestamp")
        assert (code, out) == (4, "")
        assert json.loads(err) == {
            "error": "ToleranceError",
            "message": "budget exhausted at fiber length 1; "
            "no fiber length fits the budget of 1",
        }

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


# Values whose spelling is easy to get wrong: signed zero, subnormals, integers
# past 2**53, a .5 tie at nine digits, the ends of the float range, and the
# points where repr and %.9g switch to exponent notation.
AWKWARD_VALUES = [
    0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, float(2**53), float(2**53 + 2),
    -float(2**60), 2.0**1000, 123456789.5, -123456789.5, 1e300, -1e300, 1e-300, -1e-300,
    0.1, 1 / 3, -2 / 3, 1e16, 1e16 - 2, 1e15 + 0.3, 1e-4, 9.99999999e-5, 5e-5, 1e22,
    0.5, 1.0, -7.0, 999999999.5, 1234567894.999,
]


def awkward_prefix():
    rng = np.random.default_rng(7)
    mags = 10.0 ** rng.uniform(-300, 300, 150)
    signs = rng.choice([-1.0, 1.0], mags.size)
    ints = rng.integers(-(2**62), 2**62, 50).astype(np.float64)
    return np.concatenate([AWKWARD_VALUES, signs * mags, ints, rng.normal(size=50)])


def integer_prefixes():
    """Integer-valued prefixes by name, with the renderer each must take.

    The digit kernel serves integral values with |S_k| < 1e9 other than
    -0.0; one value past that bound, one half-integer or one -0.0 sends the
    whole table to the row templates.
    """
    rng = np.random.default_rng(5)
    walk = np.concatenate([[0.0], np.cumsum(rng.choice([-1.0, 1.0], 400))])

    def with_values(*values):  # at k = 140, 147, ..., which stride 7 keeps
        out = walk.copy()
        out[140 : 140 + 7 * len(values) : 7] = values
        return out

    long_walk = np.concatenate([[0.0], np.cumsum(rng.choice([-1.0, 1.0], 10**6 + 3))])
    return {
        "walk": (walk, True),
        "largest": (with_values(1e9 - 1, -(1e9 - 1), 0.0, -10.0, 10.0), True),
        "1e9": (with_values(1e9 - 1, 1e9), False),
        "-1e9": (with_values(-1e9, 5.0), False),
        "half": (with_values(0.5), False),
        "-0.0": (with_values(-0.0), False),
        "k past 1e6": (long_walk, True),
    }


INTEGER_PREFIXES = integer_prefixes()


class TestSimulateRendering:
    """simulate's tables against the generic renderer (oracles.render_simulate)."""

    def render(self, monkeypatch, fmt, prefix, stride):
        """(CLI output, generic output, whether the digit kernel wrote the rows)."""
        n = prefix.size - 1
        stride = n if stride == "n" else stride
        kernel_calls = []
        digit_rows = cli._digit_rows
        monkeypatch.setattr(cli, "_digit_rows", lambda *a: kernel_calls.append(a) or digit_rows(*a))
        monkeypatch.setattr(simulate, "trajectory", lambda dist, obs, seed, n_, mode: prefix)
        code, out, err = run_cli(
            "simulate", "--preset", "rademacher-product", "--n", str(n), "--seed", "3",
            "--stride", str(stride), "--format", fmt, "--no-timestamp",
        )
        assert (code, err) == (0, "")
        payload = {
            "kind": "simulate", "ell": 2, "observable": "rademacher-product",
            "mode": "nonconventional", "seed": 3, "n": n, "stride": stride,
        }
        return out, render_simulate(fmt, payload, prefix, stride), bool(kernel_calls)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("stride", [1, 7, "n"])
    def test_matches_generic_renderer(self, fmt, stride, monkeypatch):
        out, want, kernel = self.render(monkeypatch, fmt, awkward_prefix(), stride)
        assert out == want
        assert not kernel

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("stride", [1, 7, "n"])
    @pytest.mark.parametrize("name", list(INTEGER_PREFIXES))
    def test_integer_values_match_generic_renderer(self, name, fmt, stride, monkeypatch):
        prefix, kernel_expected = INTEGER_PREFIXES[name]
        out, want, kernel = self.render(monkeypatch, fmt, prefix, stride)
        assert out == want
        # stride n keeps only S_0 and S_n, which the edited values miss
        assert kernel == (kernel_expected or stride == "n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_negative_zero_keeps_its_sign(self, fmt, monkeypatch):
        prefix, _ = INTEGER_PREFIXES["-0.0"]
        out, _, _ = self.render(monkeypatch, fmt, prefix, 1)
        row = {"csv": "\n140,-0\n", "json": "      140,\n      -0.0\n"}[fmt]
        assert row in out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("stride", [1, 7, "n"])
    def test_integer_walk_takes_the_digit_kernel(self, fmt, stride, monkeypatch):
        # the row templates are the slow path; a rademacher-product table
        # must never reach them
        def no_template(self, row, sep):
            raise AssertionError("row template used for an integer-valued table")

        monkeypatch.setattr(cli._Pairs, "fill", no_template)
        prefix = trajectory(*preset("rademacher-product"), 3, 3000)
        out, want, kernel = self.render(monkeypatch, fmt, prefix, stride)
        assert out == want and kernel

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_timestamp_is_one_extra_line(self, fmt):
        args = ("simulate", "--preset", "rademacher-product", "--n", "30", "--format", fmt)
        _, with_ts, _ = run_cli(*args)
        _, without, _ = run_cli(*args, "--no-timestamp")
        lines = with_ts.splitlines(keepends=True)
        stamp = 0 if fmt == "csv" else 1
        assert "generated_at" in lines[stamp]
        assert "".join(lines[:stamp] + lines[stamp + 1:]) == without

    @pytest.mark.parametrize(
        "value",
        [True, False, 0, -3, 2**64 + 1, "rademacher-product", "", math.inf, -math.inf,
         math.nan, *AWKWARD_VALUES, np.float64(0.1)],
    )
    def test_fmt_matches_reference(self, value):
        assert _fmt(value) == fmt_value(value)


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

    def test_config_sets_every_flag_as_the_flag_does(self, tmp_path):
        # the cases come from the parser, so a new flag is covered as it is added
        parser = _build_parser()
        for name, sub in parser.commands.items():
            flags = [a for a in sub._actions if a.dest not in ("help", "config")]
            sample = {a.dest: config_sample(a) for a in flags}
            for action in flags:
                required = [
                    flag_token(a, sample[a.dest]) for a in flags if a.required and a is not action
                ]
                cfg = tmp_path / f"{name}-{action.dest}.json"
                cfg.write_text(json.dumps({action.dest: sample[action.dest]}))
                via_config = parser.parse_args(
                    _with_config(parser, [name, *required, "--config", str(cfg)])
                )
                via_flag = parser.parse_args(
                    [name, *required, flag_token(action, sample[action.dest]), "--config", str(cfg)]
                )
                assert via_config == via_flag, (name, action.dest)
                assert getattr(via_config, action.dest) != action.default, (name, action.dest)

    def test_config_mode_ell_and_seed_reach_simulate(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "iid", "ell": 3, "seed": 4}))
        base = ("simulate", "--preset", "rademacher-product", "--n", "50", "--no-timestamp")
        code, via_config, _ = run_cli(*base, "--config", str(cfg))
        assert code == 0
        assert via_config == run_cli(*base, "--mode", "iid", "--ell", "3", "--seed", "4")[1]
        assert via_config != run_cli(*base, "--seed", "4")[1]

    def test_config_ignores_keys_that_are_not_flags_of_the_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": "0.5", "replicas": 7, "lambda": 2, "bogus": [1]}))
        base = ("simulate", "--preset", "rademacher-product", "--n", "20", "--no-timestamp")
        assert run_cli(*base, "--config", str(cfg)) == run_cli(*base)

    @pytest.mark.parametrize(
        "config", [{"format": "xml"}, {"threads": "x"}, {"center": "yes"}, [1, 2]]
    )
    def test_bad_config_value_is_input_error(self, config, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(
            "rate-i", "--preset", "rademacher-product", "--alpha", "0.5", "--config", str(cfg)
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "InputError"

    def test_numeric_config_output_is_a_file_name(self, tmp_path, monkeypatch):
        # a numeric output once reached open() as a file descriptor
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"output": 2}))
        code, out, err = run_cli(
            "rate-i", "--preset", "rademacher-product", "--alpha", "0.5", "--no-timestamp",
            "--config", "cfg.json",
        )
        assert (code, out, err) == (0, "", "")
        assert (tmp_path / "2").read_text().startswith("x,value")

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
            # exp(lambda * F) overflows past |lambda| * sup|F| = ln(DBL_MAX)
            ("pressure", "--lambda", "720", "--tol", "1e-3"),
            ("pressure", "--ell", "1", "--lambda", "720"),
            ("rate-j", "--u", "0.99,1.0", "--lambda-cap", "1e30"),
            # an infinite tolerance certifies nothing, and a nan one is no bound
            ("pressure", "--lambda", "1", "--tol", "inf"),
            ("pressure", "--lambda", "1", "--tol", "nan"),
            ("rate-j", "--u", "0.5", "--tol", "inf"),
            ("ldp-check", "--N", "60", "--u", "0.3", "--replicas", "1000", "--theory-tol", "inf"),
            ("erlaw", "--alpha", "0.5", "--n", "100", "--seed-list", "1,nan"),
            ("rate-j", "--u", "0.5", "--lambda-cap", "0"),
            ("rate-j", "--u", "0.5", "--lambda-cap", "-1"),
            ("ldp-check", "--N", "0", "--u", "0.3", "--replicas", "1000", "--skip-theory"),
            ("ldp-check", "--N", "-5", "--u", "0.3", "--replicas", "1000", "--skip-theory"),
            ("erlaw", "--alpha", "0.5", "--n", "100", "--ell", "0"),
            ("ldp-check", "--N", "60", "--u", "0.3", "--replicas", "1000", "--ell", "0",
             "--skip-theory"),
            ("rate-j", "--u", "0.5", "--budget", "-5"),
            ("pressure", "--ell", "3", "--lambda", "0.5", "--budget", "-1"),
            ("pressure", "--lambda", "0.5", "--budget", "0"),
            ("rate-j", "--u", "0.5", "--budget", "0"),
            # terms that read draws past the 2**64 - 1 of a stream
            ("simulate", "--n", "1e19"),
            ("ldp-check", "--N", "1e30", "--u", "0.3", "--replicas", "1000", "--skip-theory"),
        ],
    )
    def test_nan_grid_or_nonpositive_cap_is_input_error(self, argv):
        code, out, err = run_cli(*argv, "--preset", "rademacher-product", "--no-timestamp")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "InputError"

    @pytest.mark.parametrize(
        "fault,message",
        [
            (("--theory-tol", "inf"), "tol must be positive and finite"),
            (("--theory-tol", "0"), "tol must be positive and finite"),
            ((), "observable must be centered"),
        ],
    )
    def test_ldp_check_checks_the_theory_before_simulating(
        self, fault, message, tmp_path, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("ldp_estimate ran")

        monkeypatch.setattr(simulate, "ldp_estimate", refuse)
        spec = tmp_path / "uncentred.json"
        table = [0.3, -1.1, 0.7, 1.9] if not fault else [1.0, -1.0, -1.0, 1.0]
        spec.write_text(json.dumps(
            {"values": [-1, 1], "probs": [0.5, 0.5], "ell": 2, "kind": "table", "table": table}
        ))
        code, out, err = run_cli(
            "ldp-check", "--spec-file", str(spec), "--N", "60", "--u", "0.3",
            "--replicas", "300000", *fault, "--no-timestamp",
        )
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert doc["error"] == "InputError" and message in doc["message"]

    @pytest.mark.parametrize(
        "argv",
        [("pressure", "--lambda", "0.5"), ("simulate", "--n", "50"),
         ("erlaw", "--alpha", "0.5", "--n", "100", "--seeds", "1")],
    )
    def test_ell_that_differs_from_the_spec_is_input_error(self, argv, tmp_path):
        # the rademacher product at ell = 2; --ell 3 once ran it at ell = 2 with exit 0
        spec = tmp_path / "obs.json"
        spec.write_text(json.dumps(
            {"values": [-1, 1], "probs": [0.5, 0.5], "ell": 2, "kind": "product"}
        ))
        base = (*argv, "--spec-file", str(spec), "--no-timestamp")
        code, out, err = run_cli(*base, "--ell", "3")
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert doc["error"] == "InputError"
        assert doc["message"] == "--ell 3 differs from the spec's ell = 2"
        assert run_cli(*base)[0] == 0
        assert run_cli(*base, "--ell", "2") == run_cli(*base)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("erlaw", "--alpha", "0.5", "--n", "100", "--seeds", "7", "--seed-list", "1"),
             "give either --seeds or --seed-list, not both"),
            (("erlaw", "--alpha", "0.5", "--n", "100", "--seed-list", "1", "--seeds", "5"),
             "give either --seeds or --seed-list, not both"),
            (("rate-i", "--alpha", "0.5", "--const-value", "nan"),
             "--const-value is read only by --preset constant"),
            (("simulate", "--n", "10", "--const-value", "1"),
             "--const-value is read only by --preset constant"),
        ],
    )
    def test_flags_that_would_be_dropped_are_input_error(self, argv, message):
        code, out, err = run_cli(*argv, "--preset", "rademacher-product", "--no-timestamp")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "InputError", "message": message}

    def test_const_value_with_a_spec_file_is_input_error(self, tmp_path):
        spec = tmp_path / "obs.json"
        spec.write_text(json.dumps(
            {"values": [-1, 1], "probs": [0.5, 0.5], "ell": 2, "kind": "product"}
        ))
        code, out, err = run_cli(
            "simulate", "--spec-file", str(spec), "--n", "10", "--const-value", "2"
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["message"] == "--const-value is read only by --preset constant"

    def test_seeds_and_const_value_keep_their_defaults_when_not_given(self):
        erlaw = ("erlaw", "--preset", "rademacher-product", "--alpha", "0.5", "--n", "200",
                 "--no-timestamp")
        assert run_cli(*erlaw) == run_cli(*erlaw, "--seeds", "5")
        assert run_cli(*erlaw) == run_cli(*erlaw, "--seed-list", "1:5:1")
        constant = ("simulate", "--preset", "constant", "--n", "10", "--no-timestamp")
        code, out, _ = run_cli(*constant)
        assert code == 0 and out.splitlines()[-1] == "10,10"
        assert run_cli(*constant, "--const-value", "1") == (code, out, "")
        assert run_cli(*constant, "--const-value", "2")[1].splitlines()[-1] == "10,20"

    def test_pressure_at_large_lambda_and_ell3(self):
        # three unshifted exp(300 * F) tables would overflow
        code, out, _ = run_cli(
            "pressure", "--preset", "rademacher-product", "--ell", "3", "--lambda", "300",
            "--tol", "1e-2", "--no-timestamp",
        )
        assert code == 0
        x, value, is_infinite, tol, L = out.splitlines()[1].split(",")
        assert abs(float(value) - math.log(math.cosh(300.0))) <= 1e-2

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

    @pytest.mark.parametrize(
        "field,fields",
        [
            ("probs", '"values": [-1, 1], "probs": [NaN, 1.0], "kind": "product"'),
            ("probs", '"values": [-1, 1], "probs": [0.5, Infinity], "kind": "product"'),
            ("values", '"values": [NaN], "probs": [1.0], "kind": "table", "table": [1.5]'),
            ("values", '"values": [-Infinity, 1], "probs": [0.5, 0.5], "kind": "product"'),
        ],
    )
    def test_nonfinite_distribution_is_input_error(self, field, fields, tmp_path):
        spec = tmp_path / "obs.json"
        spec.write_text(f'{{{fields}, "ell": 2}}')  # json reads NaN and Infinity
        code, out, err = run_cli("simulate", "--spec-file", str(spec), "--n", "5", "--no-timestamp")
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert doc["error"] == "InputError"
        assert f"distribution {field} must be finite" in doc["message"]

    def test_overflowing_sums_are_capacity_error(self, tmp_path):
        spec = tmp_path / "obs.json"
        spec.write_text(
            '{"values": [-1, 1], "probs": [0.5, 0.5], "ell": 2, "kind": "table",'
            ' "table": [1e308, 1e308, 1e308, 1e308]}'
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # neither the moments nor the sums may overflow
            code, out, err = run_cli(
                "simulate", "--spec-file", str(spec), "--n", "4", "--format", "json",
                "--no-timestamp",
            )
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "CapacityError"

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--n", "1e16"),
            ("erlaw", "--alpha", "0.5", "--n", "1e16"),
            ("ldp-check", "--N", "1e16", "--u", "0.3", "--replicas", "1000", "--skip-theory"),
        ],
    )
    def test_unallocatable_runs_are_capacity_error(self, argv):
        # within the draw and sum ranges, but their arrays cannot be allocated
        code, out, err = run_cli(*argv, "--preset", "rademacher-product", "--no-timestamp")
        assert (code, out) == (3, "")
        doc = json.loads(err)
        assert doc["error"] == "CapacityError"
        assert doc["message"]

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


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once it has run ``seconds`` (where SIGALRM exists)."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


THIRTY_DIGITS = "1" * 30
PRESET = ("--preset", "rademacher-product")


class TestBoundedTime:
    """Flag values that once hung end in an exit code within a second."""

    def run_within(self, seconds, *argv):
        start = time.perf_counter()
        with deadline(5 * seconds):
            code, out, err = run_cli(*argv, "--no-timestamp")
        assert time.perf_counter() - start < seconds
        return code, out, err

    @pytest.mark.parametrize(
        "argv",
        [
            ("rate-i", *PRESET, "--alpha", "0:1:1e-300"),
            ("pressure", *PRESET, "--lambda", "0:1:1e-300"),
            ("rate-j", *PRESET, "--u", "0:1:1e-300"),
            ("erlaw", *PRESET, "--alpha", "0:1:1e-300", "--n", "100"),
            ("erlaw", *PRESET, "--alpha", "0.5", "--n", "0:1:1e-300"),
            ("erlaw", *PRESET, "--alpha", "0.5", "--n", "100", "--seed-list", "0:1:1e-300"),
            # 1e15 + k * 1e-6 stays below the stop's tolerance for about 1e9 steps
            ("rate-i", *PRESET, "--alpha", "1e15:1e15:1e-6"),
        ],
    )
    def test_tiny_grid_step_is_input_error(self, argv):
        code, out, err = self.run_within(1.0, *argv)
        assert (code, out) == (2, "")
        grid = next(a for a in argv if ":" in a)
        assert json.loads(err) == {
            "error": "InputError",
            "message": f"grid {grid!r} has more than {GRID_POINT_LIMIT} points",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ("structure", "--n", "10"),
            ("rate-i", *PRESET, "--alpha", "0.5"),
            ("pressure", *PRESET, "--lambda", "0.5"),
            ("rate-j", *PRESET, "--u", "0.5"),
            ("erlaw", *PRESET, "--alpha", "0.5", "--n", "100", "--seeds", "1"),
            ("ldp-check", *PRESET, "--N", "10", "--u", "0.3", "--replicas", "1000"),
            ("simulate", *PRESET, "--n", "10"),
        ],
    )
    def test_thirty_digit_ell_is_rejected(self, argv):
        code, out, err = self.run_within(1.0, *argv, "--ell", THIRTY_DIGITS)
        assert code in (2, 3) and out == ""
        assert json.loads(err)["error"] in ("InputError", "CapacityError")

    @pytest.mark.parametrize("cmd", [("simulate", "--n", "10"), ("rate-i", "--alpha", "0.5")])
    @pytest.mark.parametrize(
        "kind,ell", [("table", int(THIRTY_DIGITS)), ("product", 10**9), ("product", ELL_LIMIT + 1)]
    )
    def test_huge_ell_on_a_one_point_support_is_rejected(self, kind, ell, cmd, tmp_path):
        # one point keeps s**ell at 1, so the cell limit alone cannot stop it
        spec = tmp_path / "one.json"
        spec.write_text(json.dumps(
            {"values": [1], "probs": [1], "ell": ell, "kind": kind, "table": [0.5]}
        ))
        code, out, err = self.run_within(1.0, *cmd, "--spec-file", str(spec))
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "CapacityError",
            "message": f"ell={ell} on a one-point support exceeds limit {ELL_LIMIT}",
        }

    @pytest.mark.parametrize("replicas", ["1e30", "1e308", THIRTY_DIGITS])
    def test_replicas_past_two_to_the_64_are_rejected(self, replicas):
        # replica r + 2**64 would repeat replica r's stream
        code, out, err = self.run_within(
            1.0, "ldp-check", *PRESET, "--N", "10", "--u", "0.3", "--replicas", replicas
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "InputError",
            "message": "replicas may not exceed 2**64: replica r + 2**64 would be replica r",
        }

    def test_grid_point_limit_is_far_above_the_benchmark_grid(self):
        assert len(_parse_grid("0.005:0.995:0.005")) == 199
        assert len(_parse_grid(f"1:{GRID_POINT_LIMIT}:1")) == GRID_POINT_LIMIT
        with pytest.raises(InputError):
            _parse_grid(f"0:{GRID_POINT_LIMIT}:1")

    def test_structure_ell_limit(self):
        code, out, _ = self.run_within(2.0, "structure", "--ell", "100000", "--n", "100")
        assert code == 0 and out.splitlines()[1] == "summary,100000,100,9592,0.0487529179,a_count=1"
        code, out, err = self.run_within(1.0, "structure", "--ell", "100001", "--n", "100")
        assert (code, out) == (2, "")
        assert json.loads(err)["message"] == f"ell must be at most {STRUCTURE_ELL_LIMIT}"


# The edge values of the flag sweep, each given to one flag at a time.
EDGE_VALUES = [
    "0", "-1", "-0", "inf", "-inf", "nan", "1e30", "1e308", "1e-320", THIRTY_DIGITS,
    "abc", "1,,2", "1:0:1", "0:1:1e-300", "0.5",
]

# A small valid argv per subcommand; a swept flag given after it wins.
SWEEP_BASES = {
    "structure": ("--ell", "2", "--n", "10"),
    "rate-i": (*PRESET, "--alpha", "0.5"),
    "pressure": (*PRESET, "--lambda", "0.5"),
    "rate-j": (*PRESET, "--u", "0.5"),
    "erlaw": (*PRESET, "--alpha", "0.5", "--n", "100"),
    "ldp-check": (*PRESET, "--N", "10", "--u", "0.3", "--replicas", "1000"),
    "simulate": (*PRESET, "--n", "10"),
}


def swept_flags(command):
    """The flags of ``command`` that take a value, without the choice and path flags."""
    actions = _build_parser().commands[command]._actions
    return [
        a.option_strings[0] for a in actions
        if a.option_strings and a.nargs != 0 and not a.choices
        and a.dest not in ("output", "config", "spec_file")
    ]


@pytest.mark.parametrize("command", list(SWEEP_BASES))
def test_every_flag_value_ends_in_an_exit_code(command):
    """Each edge value of each flag exits 0, 2, 3 or 4 in bounded time, with no
    RuntimeWarning."""
    flags = swept_flags(command)
    assert "--threads" in flags and len(flags) >= 3
    for flag in flags:
        for value in EDGE_VALUES:
            argv = [command, *SWEEP_BASES[command], f"{flag}={value}", "--no-timestamp"]
            try:
                with deadline(10.0), warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    code = main(argv, stdout=io.StringIO(), stderr=io.StringIO())
            except Exception as exc:
                pytest.fail(f"{argv} raised {exc!r}")
            assert code in (0, 2, 3, 4), argv


# The fields that make two argparse actions declare the same flag.
ACTION_FIELDS = ("dest", "option_strings", "default", "type", "choices", "required", "nargs", "help")


def declared(parser):
    return [tuple(getattr(a, f) for f in ACTION_FIELDS) for a in parser._actions], parser._defaults


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_named_parser_declares_what_the_full_parser_does(command):
    named = _build_parser(command)
    assert list(named.commands) == [command]
    assert named is _build_parser(command)  # built once per process
    assert declared(named.commands[command]) == declared(_build_parser().commands[command])


def cli_subprocess(*argv):
    """(exit code, stdout, stderr) of ``python -m ncsums *argv`` in a fresh
    process, in UTF-8 on an 80-column terminal."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "ncsums", *argv],
        capture_output=True,
        env={"PYTHONPATH": str(root / "src"), "COLUMNS": "80", "PYTHONIOENCODING": "utf-8"},
        cwd=root,
    )
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


@pytest.mark.parametrize(
    "argv,code",
    [((), 2), (("--help",), 0), (("bogus",), 2), (("pressure", "--help"), 0),
     (("rate-j", "--help"), 0)],
)
def test_help_and_usage_errors_match_the_full_parser(argv, code, monkeypatch, capsys):
    # main as it was when every call built every subcommand's parser; help
    # goes to sys.stdout, not to main's stdout
    monkeypatch.setenv("COLUMNS", "80")
    full = _build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda name=None: full)
    err = io.StringIO()
    expected = (main(list(argv), stderr=err), capsys.readouterr().out, err.getvalue())
    assert expected[0] == code
    assert cli_subprocess(*argv) == expected
    if argv == ("bogus",):
        assert all(name in expected[2] for name in cli._COMMANDS)


def test_cached_parser_carries_no_state_between_calls(tmp_path):
    base = ("pressure", "--preset", "rademacher-product", "--lambda", "0.5", "--no-timestamp")
    plain = run_cli(*base)
    assert plain[0] == 0 and plain[1].startswith("x,value")
    assert json.loads(run_cli(*base, "--format", "json")[1])["kind"] == "pressure"
    assert run_cli(*base) == plain
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json", "tol": 1e-4, "ell": 3}))
    assert json.loads(run_cli(*base, "--config", str(cfg))[1])["ell"] == 3
    assert run_cli(*base) == plain


def test_import_leaves_the_thread_pool_unloaded():
    # concurrent.futures (and logging with it) loads only where --threads > 1
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ncsums.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(root / "src")},
        cwd=root,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


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
