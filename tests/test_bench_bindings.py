"""The benchmark's span wrappers (perfbench/spans.py) still find what they trace.

``spans.patched`` swaps module bindings and methods of ncsums by name, so a
renamed or deleted binding breaks the benchmark; a call that bypasses a
binding silently drops out of its per-layer times.
"""

import importlib
import io
from pathlib import Path

import pytest

from ncsums import erlaw, model, rates, simulate
from ncsums.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # spans imports its sibling metrics
    return importlib.import_module("spans")


@pytest.mark.parametrize("mode", ["nonconventional", "iid"])
def test_erlaw_traces_one_trajectory_per_seed(mode, monkeypatch):
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    seeds = (3, 4, 5)
    argv = [
        "erlaw", "--preset", "rademacher-product", "--alpha", "0.5", "--n", "100,300",
        "--seed-list", ",".join(map(str, seeds)), "--mode", mode, "--no-timestamp",
    ]
    with spans.patched(tracer):
        code = main(argv, stdout=io.StringIO(), stderr=io.StringIO())
    assert code == 0
    names = [s["name"] for s in tracer.spans]
    assert names.count("erlaw.experiment") == 1
    assert names.count("simulate.trajectory") == len(seeds)
    assert erlaw.trajectory is simulate.trajectory  # bindings restored


@pytest.mark.parametrize("mode", ["nonconventional", "iid"])
@pytest.mark.parametrize("ell", [2, 3])
def test_erlaw_draws_all_pass_through_traced_sample_indices(ell, mode, monkeypatch):
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    seeds = (3, 4)
    n_max = 2 * simulate._BLOCK + 5  # trajectories of three blocks, the last a short one
    argv = [
        "erlaw", "--preset", "rademacher-product", "--ell", str(ell), "--alpha", "0.5",
        "--n", f"100,{n_max}", "--seed-list", ",".join(map(str, seeds)), "--mode", mode,
        "--no-timestamp",
    ]
    with spans.patched(tracer):
        code = main(argv, stdout=io.StringIO(), stderr=io.StringIO())
    assert code == 0
    draws = [s["count"] for s in tracer.spans if s["name"] == "simulate.draw"]
    # draws 1..n_max once, then the dilated reads j*m past n_max for j = 2..ell
    per_seed = n_max + sum(n_max - n_max // j for j in range(2, ell + 1))
    want = {"nonconventional": per_seed, "iid": ell * n_max}[mode] * len(seeds)
    assert sum(draws) == want
    assert mode == "iid" or want == {2: 196_624, 3: 284_012}[ell]


def test_ldp_draws_all_pass_through_traced_sample_indices(monkeypatch):
    """Each distinct draw of a replica is drawn once, and every draw is traced."""
    spans = load_spans(monkeypatch)
    draw = simulate.sample_indices
    replicas, N, ell = 1000, 12, 2
    distinct = {
        "nonconventional": len({j * m for j in range(1, ell + 1) for m in range(1, N + 1)}),
        "iid": N * ell,
    }
    assert distinct["nonconventional"] == 18
    for mode, reads in distinct.items():
        tracer = spans.Tracer()
        argv = [
            "ldp-check", "--preset", "rademacher-product", "--ell", str(ell), "--N", str(N),
            "--u", "0.3", "--replicas", str(replicas), "--mode", mode, "--skip-theory",
            "--no-timestamp",
        ]
        with spans.patched(tracer):
            code = main(argv, stdout=io.StringIO(), stderr=io.StringIO())
        assert code == 0
        draws = [s["count"] for s in tracer.spans if s["name"] == "simulate.draw"]
        assert sum(draws) == replicas * reads, mode
        assert simulate.sample_indices is draw  # bindings restored


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_traces_one_trajectory(fmt, monkeypatch):
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    trajectory = simulate.trajectory
    argv = [
        "simulate", "--preset", "rademacher-product", "--n", "500", "--stride", "7",
        "--format", fmt, "--no-timestamp",
    ]
    with spans.patched(tracer):
        code = main(argv, stdout=io.StringIO(), stderr=io.StringIO())
    assert code == 0
    names = [s["name"] for s in tracer.spans]
    assert names.count("simulate.trajectory") == 1
    assert simulate.trajectory is trajectory and erlaw.trajectory is trajectory  # restored


def test_rate_j_grid_traces_its_fiber_work(monkeypatch):
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    fiber = rates.log_r_sequence
    argv = [
        "rate-j", "--preset", "rademacher-product", "--ell", "2", "--u", "0.1:0.9:0.2",
        "--no-timestamp",
    ]
    with spans.patched(tracer):
        code = main(argv, stdout=io.StringIO(), stderr=io.StringIO())
    assert code == 0
    names = [s["name"] for s in tracer.spans]
    assert names.count("rates.fiber_elim") >= 1
    assert rates.log_r_sequence is fiber  # bindings restored


def swapped_bindings():
    """Every module binding and method that ``spans.patched`` swaps, by name."""
    owners = {
        "model": (model, ["preset"]),
        "rates": (rates, ["smooth_numbers_capped", "chain_index_structure", "log_r_sequence"]),
        "Pressure": (rates.Pressure, ["__init__", "detail"]),
        "RateJ": (rates.RateJ, ["__call__"]),
        "CramerRate": (rates.CramerRate, ["__init__", "__call__"]),
        "simulate": (simulate, ["sample_indices", "trajectory", "ldp_estimate"]),
        "erlaw": (erlaw, ["trajectory", "experiment", "window_max"]),
    }
    return {
        f"{name}.{attr}": owner.__dict__[attr]
        for name, (owner, attrs) in owners.items()
        for attr in attrs
    }


def test_rate_j_ell3_traces_one_fiber_span_per_lambda(monkeypatch):
    """theory-l3's rate-j: each lambda the search evaluates is one fiber_elim span."""
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    asked = []
    batch = rates.Pressure._batch

    def spy(self, lams, slope=False):
        asked.extend(lams.tolist())
        return batch(self, lams, slope)

    monkeypatch.setattr(rates.Pressure, "_batch", spy)
    before = swapped_bindings()
    argv = [
        "rate-j", "--preset", "rademacher-product", "--ell", "3", "--u", "0.5",
        "--tol", "0.02", "--lambda-cap", "1.5", "--no-timestamp",
    ]
    with spans.patched(tracer):
        code = main(argv, stdout=io.StringIO(), stderr=io.StringIO())
    assert code == 0
    fiber = [s for s in tracer.spans if s["name"] == "rates.fiber_elim"]
    assert 1 <= len(fiber) == len(set(asked)) <= 8
    assert all(s["count"] >= 1 for s in fiber)  # each span records its truncation length
    assert swapped_bindings() == before  # bindings restored
