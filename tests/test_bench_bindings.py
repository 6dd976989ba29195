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
    assert sum(draws) == ell * n_max * len(seeds)


def test_ldp_draws_all_pass_through_traced_sample_indices(monkeypatch):
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    draw = simulate.sample_indices
    replicas, N, ell = 1000, 12, 2
    argv = [
        "ldp-check", "--preset", "rademacher-product", "--ell", str(ell), "--N", str(N),
        "--u", "0.3", "--replicas", str(replicas), "--skip-theory", "--no-timestamp",
    ]
    with spans.patched(tracer):
        code = main(argv, stdout=io.StringIO(), stderr=io.StringIO())
    assert code == 0
    draws = [s["count"] for s in tracer.spans if s["name"] == "simulate.draw"]
    assert sum(draws) == replicas * N * ell
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
    details = rates.Pressure.details

    def spy(self, lams, slope=False):
        lams = list(lams)
        asked.extend(lams)
        return details(self, lams, slope)

    monkeypatch.setattr(rates.Pressure, "details", spy)
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
