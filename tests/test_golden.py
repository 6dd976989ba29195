"""Golden CLI outputs: the sha256 of stdout, the exact stderr and the exit code.

Every command runs in-process with ``--no-timestamp``, so its bytes are
reproducible.  The matrix covers every subcommand in both formats, the
benchmark's commands at smoke size, the i.i.d. mode, the stderr summary of
``erlaw``, seeds that wrap modulo 2**64, and exit codes 2, 3 and 4.  An
expectation changes only together with an intended output-schema change.
Negative grids use the ``--flag=-1,...`` form so argparse does not read them
as options.
"""

import hashlib
import io
import json

import pytest

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
    ("rate-i-csv", ("rate-i", "--alpha", "0.5:1.5:0.5", "--tol", "1e-6") + R),
    ("rate-i-json", ("rate-i", "--alpha=-0.2,0.1,0.3", "--format", "json") + B),
    ("rate-i-spec-json",
     ("rate-i", "--spec-file", "{tmp}/obs.json", "--center", "--alpha", "0.2", "--format", "json")),
    ("pressure-l2-csv", ("pressure", "--lambda=-1,0,0.5,2", "--tol", "1e-8") + R),
    ("pressure-l2-json", ("pressure", "--lambda=-0.5,1", "--format", "json") + B),
    ("pressure-l1-csv", ("pressure", "--ell", "1", "--lambda", "1") + R),
    ("rate-j-csv", ("rate-j", "--u", "0,0.5,1.5") + R),
    ("rate-j-json", ("rate-j", "--u=-0.5,0.25", "--format", "json") + R),
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
    ("output-file", ("rate-j", "--u", "0.5", "--output", "{tmp}/out.txt") + R),
    ("exit2-structure-limit", ("structure", "--ell", "2", "--n", "1e9")),
    ("exit2-degenerate", ("rate-i", "--preset", "constant", "--alpha", "0.5")),
    ("exit3-capacity", ("rate-i", "--ell", "30", "--alpha", "0.5") + R),
    ("exit4-tolerance", ("pressure", "--ell", "5", "--lambda", "1", "--tol", "1e-12") + R),
]

# id -> (sha256 of stdout, or of the --output file, exact stderr, exit code)
EXPECTED = {
    "bench-pressure-l3": (
        "afc0eeefca9e13e1e24b6a48fcc41f0715f73b4176fe379964c4728c3ed2bd52",
        "",
        0,
    ),
    "bench-rate-j-l3": (
        "075333443fcea7083ffd0f25af961d42a6e6692268ade6733f0e08ec477bdbf5",
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
        "3e692c5723d246581615feeca8258413572568addeb97dc98a0c7c24390f4f86",
        "",
        0,
    ),
    "rate-i-json": (
        "783b0127f2c8cf4ef1b6e76b59e982f48da791a5e45113c2a6f083e535765ae1",
        "",
        0,
    ),
    "rate-i-spec-json": (
        "0d6516f93dabde8873bc0be8339549c95b6928919831f9afd0a7725877eeddb1",
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
        "fe3b976713b8087b9cbe27bcb92e32dcd55b441132adfe2dac941b67975a7e93",
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
        "b461a5a90c067ce1fd4c1b469a8c9b1641718788be25fbf54653d0944b59d2d6",
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
