"""Spans around calls into each ncsums module, recorded from outside the package.

``patched(tracer)`` swaps the module attributes and class methods that the
CLI and the library call through for thin wrappers, and restores the
originals on exit.  Every span records name, start, end, parent span and op
id (one op per CLI command); spans stay in memory until ``Tracer.dump``.
Nothing inside ``src/`` is edited: a call the wrappers cannot see from a
module binding (for example ``_eliminate_log`` inside ``log_r_sequence``) is
folded into its caller's self time.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import weakref
from contextlib import contextmanager

from ncsums import erlaw, model, rates, simulate
from ncsums.errors import BudgetExceededError

from metrics import LAYER_METRICS

# Counts that depend only on the inputs; every traced job must repeat them.
EXACT_REPEAT = tuple(
    name for name, unit in LAYER_METRICS.items() if unit in ("count", "ratio")
)


class Tracer:
    """In-memory span recorder; one open-span stack (the workload is single-threaded)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = 0

    @property
    def current(self) -> str | None:
        return self.spans[self._stack[-1]]["name"] if self._stack else None

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "count": 0,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def dump(self, path, meta: dict):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)


def _wrap(tracer: Tracer, fn, name: str, count=None, parent: str | None = None):
    """Time ``fn`` as span ``name``; ``count(args, result)`` fills the span's count.

    With ``parent`` set, only calls made directly under a span of that name
    are recorded; other calls pass straight through.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if parent is not None and tracer.current != parent:
            return fn(*args, **kwargs)
        with tracer.span(name) as rec:
            out = fn(*args, **kwargs)
            if count is not None:
                rec["count"] = count(args, out)
            return out

    return traced


@contextmanager
def patched(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    saved = []

    def swap(owner, attr, make):
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def fiber_elim(orig):
        def call(dist, obs, basis, lam, L, *rest, **kw):
            with tracer.span("rates.fiber_elim") as rec:
                rec["count"] = int(L)
                try:
                    return orig(dist, obs, basis, lam, L, *rest, **kw)
                except BudgetExceededError:
                    rec["budget_error"] = 1
                    raise

        return functools.wraps(orig)(call)

    seen_lambdas: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def detail(orig):
        def call(self, lam):
            seen = seen_lambdas.setdefault(self, set())
            hit = float(lam) in seen
            seen.add(float(lam))
            with tracer.span("rates.detail") as rec:
                out = orig(self, lam)
                rec["count"] = int(hit)
                rec["L"] = out.truncation_l
                return out

        return functools.wraps(orig)(call)

    def span_of(name, **kw):
        return lambda fn: _wrap(tracer, fn, name, **kw)

    try:
        swap(model, "preset", span_of("model.observable"))
        swap(
            rates,
            "smooth_numbers_capped",
            span_of(
                "lattice.smooth_gen",
                count=lambda a, out: len(out.h), parent="rates.pressure_init",
            ),
        )
        swap(rates.Pressure, "__init__", span_of("rates.pressure_init"))
        swap(rates, "chain_index_structure", span_of("rates.chain_structure"))
        swap(rates, "log_r_sequence", fiber_elim)
        swap(rates.Pressure, "detail", detail)
        swap(rates.RateJ, "__call__", span_of("rates.conjugate"))
        swap(rates.CramerRate, "__init__", span_of("rates.cramer"))
        swap(rates.CramerRate, "__call__", span_of("rates.cramer"))
        swap(simulate, "sample_indices",
             span_of("simulate.draw", count=lambda a, out: int(out.size)))
        for owner in (simulate, erlaw):
            swap(owner, "trajectory", span_of("simulate.trajectory"))
        swap(simulate, "ldp_estimate",
             span_of("simulate.ldp", count=lambda a, out: out.replicas * out.N * a[1].ell))
        swap(erlaw, "experiment", span_of("erlaw.experiment"))
        swap(erlaw, "window_max", span_of("erlaw.window_max"))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def job_layers(spans: list[dict], ops: set[int], job_s: float) -> dict[str, float]:
    """Per-layer totals over the spans of one traced job (the ops it ran)."""
    spans_in = [(i, s) for i, s in enumerate(spans) if s["op"] in ops]
    child_time: dict[int, float] = {}
    for _, s in spans_in:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    def total(name, self_time=False):
        return sum(
            s["end"] - s["start"] - (child_time.get(i, 0.0) if self_time else 0.0)
            for i, s in spans_in
            if s["name"] == name
        )

    def count(name):
        return sum(s["count"] for _, s in spans_in if s["name"] == name)

    def calls(name):
        return sum(1 for _, s in spans_in if s["name"] == name)

    conj = {i for i, s in spans_in if s["name"] == "rates.conjugate"}
    conj_details = [s for _, s in spans_in if s["name"] == "rates.detail" and s["parent"] in conj]
    draws, draw_s = count("simulate.draw"), total("simulate.draw")
    ldp_draws, ldp_s = count("simulate.ldp"), total("simulate.ldp")
    return {
        "model.observable_s": total("model.observable"),
        "lattice.smooth_gen_s": total("lattice.smooth_gen"),
        "lattice.smooth_count": count("lattice.smooth_gen"),
        "rates.pressure_init_s": total("rates.pressure_init", self_time=True),
        "rates.chain_structure_s": total("rates.chain_structure"),
        "rates.fiber_elim_s": total("rates.fiber_elim", self_time=True),
        "rates.fiber_elim_calls": calls("rates.fiber_elim"),
        "rates.fiber_terms": count("rates.fiber_elim"),
        "rates.truncation_L": max(
            (s["L"] for _, s in spans_in if s["name"] == "rates.detail"), default=0
        ),
        "rates.series_sum_s": total("rates.detail", self_time=True),
        "rates.pressure_evals_per_point": len(conj_details) / len(conj) if conj else 0.0,
        "rates.lambda_cache_hit_ratio": (
            sum(s["count"] for s in conj_details) / len(conj_details) if conj_details else 0.0
        ),
        "rates.conjugate_self_s": total("rates.conjugate", self_time=True),
        "rates.cramer_s": total("rates.cramer"),
        "rates.budget_errors": sum(s.get("budget_error", 0) for _, s in spans_in),
        "simulate.draw_s": draw_s,
        "simulate.draws": draws,
        "simulate.draws_per_s": draws / draw_s if draw_s > 0 else 0.0,
        "simulate.trajectory_s": total("simulate.trajectory"),
        "simulate.prefix_s": total("simulate.trajectory", self_time=True),
        "simulate.ldp_s": ldp_s,
        "simulate.ldp_draws_per_s": ldp_draws / ldp_s if ldp_s > 0 else 0.0,
        "erlaw.window_max_s": total("erlaw.window_max"),
        "erlaw.window_max_calls": calls("erlaw.window_max"),
        "erlaw.self_s": total("erlaw.experiment", self_time=True),
        "cli.render_s": total("cli.command", self_time=True),
        "trace.job_s": job_s,
    }


def summarize(per_job: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each layer metric over traced jobs, and counts that did not repeat."""
    mismatched = [
        name for name in EXACT_REPEAT
        if name in per_job[0] and any(j[name] != per_job[0][name] for j in per_job[1:])
    ]
    merged = {
        name: per_job[0][name] if name in EXACT_REPEAT else statistics.median(j[name] for j in per_job)
        for name in per_job[0]
    }
    return merged, mismatched
