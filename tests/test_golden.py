"""Golden CLI outputs: the sha256 of stdout, the exact stderr and the exit code.

Every command runs in-process with ``--no-timestamp``, so its bytes are
reproducible.  The matrix covers every subcommand in both formats, the
benchmark's commands at smoke size, the i.i.d. mode, fractional trajectories
from a spec file, the stderr summary of ``erlaw``, seeds that wrap modulo
2**64, and exit codes 2, 3 and 4.  Trajectories that cross block boundaries
are pinned both for a table whose sums are exact in float64 and for one
that needs the compensated (Sum2) prefix.  An expectation changes only together with
an intended output-schema change.  ``rate-j`` grids with both signs, zero,
a repeated u and u past the endpoints are pinned, and so are a u so small
that Q' rounds to 0 at every probe, the budget error a multi-u grid reports
and the rejection of a budget below 1.
Negative grids use the ``--flag=-1,...`` form so argparse does not read them
as options.

The package's public names are pinned the same way: adding or removing one
is an edit of PUBLIC_NAMES.
"""

import hashlib
import io
import json
import types

import pytest

import ncsums
from ncsums.cli import main

R = ("--preset", "rademacher-product")
B = ("--preset", "bernoulli-product")
T1 = ("--threads", "1")

# Smoke-size versions of the benchmark's commands (benchmark seed 5 -> program seed 6).
BENCH = [
    ("bench-pressure-l3", ("pressure", "--ell", "3", "--lambda", "0.5,1", "--tol", "0.01") + R + T1),
    ("bench-rate-j-l3",
     ("rate-j", "--ell", "3", "--u", "0.5", "--tol", "0.05", "--lambda-cap", "1.5") + R + T1),
    ("bench-erlaw-l2",
     ("erlaw", "--ell", "2", "--alpha", "0.5", "--n", "1000,10000", "--seed-list", "6,7") + R + T1),
    ("bench-erlaw-l3",
     ("erlaw", "--ell", "3", "--alpha", "0.5", "--n", "1000,10000", "--seed-list", "6,7") + R + T1),
    ("bench-ldp-check",
     ("ldp-check", "--ell", "2", "--N", "60", "--u", "0.3", "--seed", "6", "--replicas", "20000")
     + R + T1),
    ("bench-ldp-prefix",
     ("ldp-check", "--ell", "2", "--N", "60", "--u", "0.3", "--seed", "6", "--replicas", "2000",
      "--skip-theory") + R + T1),
    ("bench-rate-j-l2", ("rate-j", "--ell", "2", "--u", "0.1:0.9:0.2", "--tol", "1e-10") + R + T1),
    ("bench-simulate-csv", ("simulate", "--n", "40000", "--seed", "6") + R + T1),
    ("bench-simulate-json",
     ("simulate", "--n", "15000", "--seed", "6", "--format", "json") + R + T1),
]

MATRIX = BENCH + [
    ("structure-l2-csv", ("structure", "--ell", "2", "--n", "10")),
    ("structure-l1-csv", ("structure", "--ell", "1", "--n", "5")),
    ("structure-l1-json", ("structure", "--ell", "1", "--n", "5", "--format", "json")),
    ("structure-l3-json", ("structure", "--ell", "3", "--n", "1000", "--format", "json")),
    ("structure-l5-csv", ("structure", "--ell", "5", "--n", "500")),
    ("rate-i-csv", ("rate-i", "--alpha", "0.5:1.5:0.5") + R),
    ("rate-i-json", ("rate-i", "--alpha=-0.2,0.1,0.3", "--format", "json") + B),
    ("rate-i-spec-json",
     ("rate-i", "--spec-file", "{tmp}/obs.json", "--center", "--alpha", "0.2", "--format", "json")),
    ("pressure-l2-csv", ("pressure", "--lambda=-1,0,0.5,2", "--tol", "1e-8") + R),
    ("pressure-l2-json", ("pressure", "--lambda=-0.5,1", "--format", "json") + B),
    ("pressure-l1-csv", ("pressure", "--ell", "1", "--lambda", "1") + R),
    ("rate-j-csv", ("rate-j", "--u", "0,0.5,1.5") + R),
    ("rate-j-json", ("rate-j", "--u=-0.5,0.25", "--format", "json") + R),
    # one grid: both signs, zero, a repeated u and u past both endpoints (J = inf)
    ("rate-j-grid-csv", ("rate-j", "--ell", "2", "--u=-0.3,-0.2,-0.1,0,0.3,0.3,0.74,0.76") + B),
    ("rate-j-grid-json",
     ("rate-j", "--ell", "2", "--u=-0.3,-0.2,-0.1,0,0.3,0.3,0.74,0.76", "--format", "json") + B),
    # Q' reads 0 at every probe within the evaluation cap, and the gap is within tol
    ("rate-j-tiny-u", ("rate-j", "--u", "1e-200") + R),
    ("erlaw-json", ("erlaw", "--alpha", "0.4,0.6", "--n", "2000", "--seeds", "2", "--format", "json")
     + R),
    ("erlaw-iid-csv",
     ("erlaw", "--alpha", "0.5", "--n", "2000,5000", "--seed-list=-3,4", "--mode", "iid") + R),
    ("ldp-check-json",
     ("ldp-check", "--N", "40", "--u", "0.3", "--replicas", "5000", "--seed", "3", "--threads", "2",
      "--format", "json") + R),
    ("ldp-check-l3-csv",
     ("ldp-check", "--ell", "3", "--N", "30", "--u", "0.2", "--replicas", "4000", "--skip-theory")
     + R),
    ("ldp-check-l3-json",
     ("ldp-check", "--ell", "3", "--N", "30", "--u", "0.2", "--replicas", "4000", "--seed=-1",
      "--skip-theory", "--format", "json") + R),
    ("ldp-check-zero-csv",
     ("ldp-check", "--N", "40", "--u", "1.5", "--replicas", "1000", "--seed", "5") + R),
    ("ldp-check-zero-json",
     ("ldp-check", "--N", "40", "--u", "1.5", "--replicas", "1000", "--seed", "5", "--skip-theory",
      "--format", "json") + R),
    ("ldp-check-iid-csv",
     ("ldp-check", "--N", "30", "--u", "0.3", "--replicas", "3000", "--mode", "iid",
      "--skip-theory") + R),
    ("simulate-iid-negative-seed",
     ("simulate", "--n", "100", "--seed=-1", "--stride", "7", "--mode", "iid") + R),
    ("simulate-l3-wrapped-seed",
     ("simulate", "--ell", "3", "--n", "50", "--seed", str(2**64 + 3), "--stride", "5",
      "--format", "json") + R),
    ("simulate-config", ("simulate", "--n", "100", "--config", "{tmp}/cfg.json") + R),
    # fractional S_k, with a stride that does not divide n
    ("simulate-spec-csv",
     ("simulate", "--spec-file", "{tmp}/obs.json", "--center", "--n", "1000", "--seed", "4",
      "--stride", "7")),
    ("simulate-spec-json",
     ("simulate", "--spec-file", "{tmp}/obs.json", "--center", "--n", "500", "--seed", "5",
      "--stride", "7", "--mode", "iid", "--format", "json")),
    # Sum2 route (non-dyadic centred table) across block boundaries of the trajectory
    ("erlaw-spec-blocks",
     ("erlaw", "--spec-file", "{tmp}/obs.json", "--center", "--alpha", "0.5", "--n", "1000,40000",
      "--seed-list", "4,5")),
    ("simulate-spec-blocks",
     ("simulate", "--spec-file", "{tmp}/obs.json", "--center", "--n", "70000", "--seed", "3",
      "--stride", "997")),
    # exact route (dyadic, non-integer terms) across block boundaries
    ("simulate-bernoulli-blocks", ("simulate", "--n", "70000", "--seed", "3", "--stride", "997") + B),
    ("output-file", ("rate-j", "--u", "0.5", "--output", "{tmp}/out.txt") + R),
    ("exit2-structure-limit", ("structure", "--ell", "2", "--n", "1e9")),
    ("exit2-degenerate", ("rate-i", "--preset", "constant", "--alpha", "0.5")),
    ("exit2-budget", ("pressure", "--lambda", "0.5", "--budget", "0") + R),
    ("exit3-capacity", ("rate-i", "--ell", "30", "--alpha", "0.5") + R),
    ("exit4-tolerance", ("pressure", "--ell", "5", "--lambda", "1", "--tol", "1e-12") + R),
    ("exit4-rate-j-budget",
     ("rate-j", "--ell", "2", "--u=-0.5,0.2,0.7", "--tol", "1e-12", "--budget", "40") + R),
]

# id -> (sha256 of stdout, or of the --output file, exact stderr, exit code)
EXPECTED = {
    "bench-pressure-l3": (
        "afc0eeefca9e13e1e24b6a48fcc41f0715f73b4176fe379964c4728c3ed2bd52",
        "",
        0,
    ),
    "bench-rate-j-l3": (
        "706c550edc29a5ef78ed44399ce75cf19d91d965e0c3af00e8849ca24bd1b5b3",
        "",
        0,
    ),
    "bench-erlaw-l2": (
        "ef51a440020e712498db0e2756c63f8ae25af4c275fb7b11061245e029a42865",
        '{"summary": [{"alpha": 0.5, "n": 1000, "mean_statistic": 0.34615384615384615, "min_statistic": 0.3076923076923077, "max_statistic": 0.38461538461538464, "mean_abs_dev": 0.15384615384615383, "max_abs_dev": 0.1923076923076923}, {"alpha": 0.5, "n": 10000, "mean_statistic": 0.42857142857142855, "min_statistic": 0.42857142857142855, "max_statistic": 0.42857142857142855, "mean_abs_dev": 0.07142857142857145, "max_abs_dev": 0.07142857142857145}]}\n',
        0,
    ),
    "bench-erlaw-l3": (
        "646841c790b6b50648517e7d3914bd6e1933846daafa3c763045549be81c30f8",
        '{"summary": [{"alpha": 0.5, "n": 1000, "mean_statistic": 0.28846153846153844, "min_statistic": 0.23076923076923078, "max_statistic": 0.34615384615384615, "mean_abs_dev": 0.21153846153846154, "max_abs_dev": 0.2692307692307692}, {"alpha": 0.5, "n": 10000, "mean_statistic": 0.41428571428571426, "min_statistic": 0.4, "max_statistic": 0.42857142857142855, "mean_abs_dev": 0.08571428571428572, "max_abs_dev": 0.09999999999999998}]}\n',
        0,
    ),
    "bench-ldp-check": (
        "e83d4ad694025ef997d441a5139a373a170eed492ed83a10cfaff268d8220294",
        "",
        0,
    ),
    "bench-ldp-prefix": (
        "6bec05c1a8cdcee979937e86338fb96736d12d5a9a025e3e2c5e7ebaeff89b50",
        "",
        0,
    ),
    "bench-rate-j-l2": (
        "33c6aaf82ce9f71793363c6310a2b883179e85f2196c438fcb8b5dc2e46d3e6d",
        "",
        0,
    ),
    "bench-simulate-csv": (
        "d278aac580259d54bd92dfe4fa264288322d0a53781199b90e7c4c15b7777050",
        "",
        0,
    ),
    "bench-simulate-json": (
        "0b4feba8146afe609206edaa69821688f6955c5e198472dfca826d7ddd3ee186",
        "",
        0,
    ),
    "structure-l2-csv": (
        "e40b343e175b414d42017568dda99d45a7f55bae151931a9b8e965da44103eb9",
        "",
        0,
    ),
    "structure-l1-csv": (
        "cde664007becc3f2796da9e621377ad2af2ba48235d6b1806a1ff0c366aa809a",
        "",
        0,
    ),
    "structure-l1-json": (
        "19f043b1a9076577f57d16ed9fb980bc80d874c6e26221b8e49c536cd1b6751d",
        "",
        0,
    ),
    "structure-l3-json": (
        "5368f5d367bcf962c8881f5af3c3d54f21c1521167e23a643126043ff415dd2e",
        "",
        0,
    ),
    "structure-l5-csv": (
        "0b018393532b51e0fd228153d0a4ca5b252ac7234538be66fbcdab710b87a717",
        "",
        0,
    ),
    "rate-i-csv": (
        "56dca42567a4d896655420b2865cac1b55b3e6980a28a8a3b30db6475b0d62d3",
        "",
        0,
    ),
    "rate-i-json": (
        "6b178ae7c9dc85f2517270db5ee6a8afd2643dece9bdd949e2e40db8af6f7834",
        "",
        0,
    ),
    "rate-i-spec-json": (
        "8795841d7dff2981fdb8812ba8ba1eec7ed86112e594cc5e189e7639de0c82a1",
        "",
        0,
    ),
    "pressure-l2-csv": (
        "10200809d66f8ebd883dd5d6c8720de89343b5b3e00ca60dc77d24b4082a3f65",
        "",
        0,
    ),
    "pressure-l2-json": (
        "b8c1f84378dce3d6305609084453ec832d5cc70511aea00d66e3abd134af3b30",
        "",
        0,
    ),
    "pressure-l1-csv": (
        "04f0fa08ecaa07a3a9b6190bc19b6180e9595da0aa63b9aaf759866fb7b86d87",
        "",
        0,
    ),
    "rate-j-csv": (
        "a25b173e4be6db1aa18210b69b62cbb8087e49a624a0fffb7f063f2c6027a9f0",
        "",
        0,
    ),
    "rate-j-json": (
        "7dd59c8fa81b6b2546633c6abe47c23949f69fc51a2b051e6df4bd0da42f8d30",
        "",
        0,
    ),
    "rate-j-grid-csv": (
        "95c96c18768d1640d6d16a01575958d6e6394fe39029316e046a85ad6b00d0df",
        "",
        0,
    ),
    "rate-j-grid-json": (
        "4660640eba4f5a887d0a5409095aac724f803c66adc18cd084bf808988b47092",
        "",
        0,
    ),
    "rate-j-tiny-u": (
        "593f6906e39b3e350102e40b81764aa187c8c9b413400696370d25f6c9ee26fb",
        "",
        0,
    ),
    "erlaw-json": (
        "16b464662eab5e7621caf2851ce397abb356c4eaf7b470d4565ade8afdb82f57",
        "",
        0,
    ),
    "erlaw-iid-csv": (
        "0aa2e716d8ecc974fe7aa89cd4e7ca3e54b8a3c28daae789a61e0e2fe6ea1410",
        '{"summary": [{"alpha": 0.5, "n": 2000, "mean_statistic": 0.43103448275862066, "min_statistic": 0.3793103448275862, "max_statistic": 0.4827586206896552, "mean_abs_dev": 0.06896551724137931, "max_abs_dev": 0.12068965517241381}, {"alpha": 0.5, "n": 5000, "mean_statistic": 0.4153846153846154, "min_statistic": 0.35384615384615387, "max_statistic": 0.47692307692307695, "mean_abs_dev": 0.08461538461538459, "max_abs_dev": 0.14615384615384613}]}\n',
        0,
    ),
    "ldp-check-json": (
        "72189197a743c1ba791e5a1db4668395761795a1b03a29afe867f6c1ca119d9d",
        "",
        0,
    ),
    "ldp-check-l3-csv": (
        "0cabd00c8e8d9b5fd2f0261e8635062202222ed4aac4c27cd2fecf4d845497d5",
        "",
        0,
    ),
    "ldp-check-l3-json": (
        "217fa0622e1d7b14dd4dc97b959c3ab61264514eb9f48fd9dfb74c4098b340cb",
        "",
        0,
    ),
    "ldp-check-zero-csv": (
        "27388a995fb8ba97ea53abaf36f05ac3d149f713925fd68e888db189b183e85c",
        "",
        0,
    ),
    "ldp-check-zero-json": (
        "64cbec4fa30d78c365c5a5b1c1ab3982f77b2e6f33d3861fc6b74f47d9baa1a5",
        "",
        0,
    ),
    "ldp-check-iid-csv": (
        "d265a334746e89e000d3808e2bb448961c23517fb5dda5ebf379acf90c1112e4",
        "",
        0,
    ),
    "simulate-iid-negative-seed": (
        "4862ff4adc49562846dbc8e8cdb9e7895d758a0be512724a39733fdc15b01cc8",
        "",
        0,
    ),
    "simulate-l3-wrapped-seed": (
        "a54cc3852c53ef08d0c0cab6bcd92049407720ccb7d1ff6fc7ddfa725142d7ad",
        "",
        0,
    ),
    "simulate-config": (
        "8d838b78c668e4df81a82473285198a39ccc64c8cf4a84f4f178b71948bac370",
        "",
        0,
    ),
    "simulate-spec-csv": (
        "3474c3ff34c3457050fd0a515c90d6ec1d25351edc393de3cc73a9fcbd1ac595",
        "",
        0,
    ),
    "simulate-spec-json": (
        "434f2815699df3f47a7862b87a0d479f8449784d0abb62daa4c1b30667f27293",
        "",
        0,
    ),
    "erlaw-spec-blocks": (
        "a9be000f0fe6068ba87c118ac3990fec822bc699df66586880182156879ae5ee",
        '{"summary": [{"alpha": 0.5, "n": 1000, "mean_statistic": 0.4254310344827587, "min_statistic": 0.3633620689655174, "max_statistic": 0.4875, "mean_abs_dev": 0.07456896551724129, "max_abs_dev": 0.13663793103448257}, {"alpha": 0.5, "n": 40000, "mean_statistic": 0.4541666666666667, "min_statistic": 0.44750000000000006, "max_statistic": 0.4608333333333334, "mean_abs_dev": 0.04583333333333328, "max_abs_dev": 0.052499999999999936}]}\n',
        0,
    ),
    "simulate-spec-blocks": (
        "1fa43e566fc19eacb2799c1c70d10ca84d0bd6d3143e242730288b077af1474f",
        "",
        0,
    ),
    "simulate-bernoulli-blocks": (
        "87c887b1ab4dd4bfbc9bc9956c54a9aaef47885307bd93aebe694c8bb0a4319c",
        "",
        0,
    ),
    "output-file": (
        "7ec97c5b8184a7dd5537052e0af7ee0a87cf94b0c7457ebed478ed1d4b1bf176",
        "",
        0,
    ),
    "exit2-structure-limit": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        '{"error": "InputError", "message": "n must be in [1, 10000000]"}\n',
        2,
    ),
    "exit2-degenerate": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        '{"error": "DegenerateObservableError", "message": "rate function needs positive variance"}\n',
        2,
    ),
    "exit2-budget": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        '{"error": "InputError", "message": "budget must be a positive integer"}\n',
        2,
    ),
    "exit3-capacity": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        '{"error": "CapacityError", "message": "table with 2**30 cells exceeds limit 1000000"}\n',
        3,
    ),
    "exit4-tolerance": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        '{"error": "ToleranceError", "message": "certified tail cannot reach tol=1e-12 (best achievable 1.275e-05)"}\n',
        4,
    ),
    "exit4-rate-j-budget": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        '{"error": "ToleranceError", "message": "budget exhausted at fiber length 11; achievable tol is 0.0029296875"}\n',
        4,
    ),
}


def _write_inputs(tmp_path):
    (tmp_path / "obs.json").write_text(json.dumps({
        "values": [-1.0, 2.0],
        "probs": [0.75, 0.25],
        "ell": 2,
        "kind": "table",
        "table": [0.55, -0.85, 0.95, 2.15],
    }))
    (tmp_path / "cfg.json").write_text(json.dumps({"format": "json", "seed": 9, "stride": 25}))


def run_case(argv, tmp_path):
    """(sha256 of the output bytes, stderr, exit code) of one CLI command."""
    _write_inputs(tmp_path)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv] + ["--no-timestamp"]
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    text = out.getvalue()
    if "--output" in argv:
        assert text == ""
        text = (tmp_path / "out.txt").read_text()
    return hashlib.sha256(text.encode()).hexdigest(), err.getvalue(), code


def test_matrix_is_fully_pinned():
    assert [case_id for case_id, _ in MATRIX] == list(EXPECTED)


@pytest.mark.parametrize("case_id,argv", MATRIX, ids=[case_id for case_id, _ in MATRIX])
def test_golden_output(case_id, argv, tmp_path):
    assert run_case(argv, tmp_path) == EXPECTED[case_id]


# Every public name of the ncsums package, sorted; its submodules are not counted.
PUBLIC_NAMES = [
    "BudgetExceededError", "CapacityError", "CramerRate", "DegenerateObservableError",
    "ErPoint", "ExperimentResult", "FiniteDistribution", "InputError", "LdpEstimate",
    "NcsumsError", "Observable", "Pressure", "PrimeBasis", "RateJ", "SmoothSequence",
    "ToleranceError", "b_window", "center", "chain_index_structure", "d_count_int",
    "experiment", "ldp_estimate", "load_spec", "mgf", "mix64",
    "partition_check", "preset", "primes_up_to", "product_observable", "smooth_numbers",
    "trajectory", "window_max", "x_value",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(ncsums).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
