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


@pytest.mark.parametrize("mode", ["nonconventional", "iid"])
def test_erlaw_traces_one_trajectory_per_seed(mode, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # spans imports its sibling metrics
    spans = importlib.import_module("spans")
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
