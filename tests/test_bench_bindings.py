"""The benchmark's span wrappers (perfbench/spans.py) still find what they trace.

``spans.patched`` swaps module bindings and methods of ncsums by name, so a
renamed or deleted binding breaks the benchmark; a call that bypasses a
binding silently drops out of its per-layer times.
"""

import importlib
import io
from pathlib import Path

import pytest

from ncsums import erlaw, simulate
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
