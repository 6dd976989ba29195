"""Command-line frontend: structure dumps, rate curves, and experiments.

All subcommands support --format csv|json.  CSV numeric fields use 9
significant digits; infinities print as "inf".  Outputs are byte-identical
across runs and thread counts once --no-timestamp is passed.  Exit codes:
0 success, 2 input error, 3 capacity/budget, 4 tolerance unreachable.
Errors additionally emit a one-line JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone

from . import erlaw as erlaw_mod
from . import lattice, model, rates, simulate
from .errors import CapacityError, InputError, NcsumsError, ToleranceError

ENV_THREADS = "NCSUMS_THREADS"

STRUCTURE_N_LIMIT = 10**7

# InputError is a ValueError; other ValueError and OverflowError are reported as InputError.
_EXIT_CODES = {ValueError: 2, OverflowError: 2, CapacityError: 3, ToleranceError: 4}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return format(x, ".9g")
    return str(x)


def _json_safe(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return _fmt(obj)
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _json_text(obj, **kw) -> str:
    """JSON text with non-finite floats spelled as strings.

    Only a payload that holds one (json.dumps rejects it) is walked and copied.
    """
    try:
        return json.dumps(obj, allow_nan=False, **kw)
    except ValueError:
        return json.dumps(_json_safe(obj), **kw)


def _parse_grid(text: str) -> list[float]:
    """A single value, a comma list, or start:stop:step (inclusive stop); no NaN."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InputError(f"grid {text!r} must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise InputError(f"grid {text!r} needs finite start, stop and step")
        if step <= 0:
            raise InputError("grid step must be positive")
        out = []
        k = 0
        while True:
            v = start + k * step
            if v > stop + 1e-12 * max(1.0, abs(stop)):
                break
            out.append(v)
            k += 1
        if not out:
            raise InputError(f"grid {text!r} is empty")
        return out
    try:
        out = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise InputError(f"cannot parse grid {text!r}: {exc}") from exc
    if any(math.isnan(v) for v in out):
        raise InputError(f"grid {text!r} holds NaN")
    return out


def _parse_int_list(text: str) -> list[int]:
    """Like _parse_grid, but an integer literal is read exactly, not through float."""
    if ":" in text:
        return [int(round(v)) for v in _parse_grid(text)]
    return [
        int(p) if p.strip().lstrip("+-").isdecimal() else int(round(_parse_grid(p)[0]))
        for p in text.split(",")
        if p.strip()
    ]


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _render(args, payload: dict, header, rows) -> str:
    """The output text of one subcommand in the requested format."""
    if args.format == "json":
        if not args.no_timestamp:
            payload = {"generated_at": _timestamp(), **payload}
        return _json_text(payload, indent=2) + "\n"
    lines = [] if args.no_timestamp else [f"# generated_at={_timestamp()}"]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _resolve_observable(args):
    """(dist, obs, identifier) from --preset or --spec-file."""
    spec_file = getattr(args, "spec_file", None)
    preset = getattr(args, "preset", None)
    if spec_file and preset:
        raise InputError("give either --preset or --spec-file, not both")
    if spec_file:
        dist, obs = model.load_spec(spec_file)
        if getattr(args, "center", False):
            obs = model.center(obs, dist)
        return dist, obs, os.path.basename(spec_file)
    if not preset:
        raise InputError("an observable is required: --preset NAME or --spec-file PATH")
    ell = getattr(args, "ell", None)
    c = getattr(args, "const_value", None)
    dist, obs = model.preset(preset, ell=ell, c=1.0 if c is None else c)
    if getattr(args, "center", False):
        obs = model.center(obs, dist)
    return dist, obs, preset


def _merged(args, config, dest, default):
    v = getattr(args, dest, None)
    if v is not None:
        return v
    if dest in config:
        return config[dest]
    return default


def _threads(args, config) -> int:
    return max(1, int(_merged(args, config, "threads", os.environ.get(ENV_THREADS) or 1)))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_structure(args, config):
    ell = int(args.ell)
    N = int(round(float(args.n)))
    if N < 1 or N > STRUCTURE_N_LIMIT:
        raise InputError(f"n must be in [1, {STRUCTURE_N_LIMIT}]")
    basis = lattice.primes_up_to(ell)
    a_count = lattice.coprime_count(basis, N)
    fibers = lattice.fiber_histogram(basis, N)
    ok = lattice.partition_check(basis, N)
    smooth_rows = []
    if basis.m == 0:
        smooth_rows.append((1, 1, 0.0, math.inf, 1.0))
    else:
        count = lattice.d_count_int(basis, N)
        seq = lattice.smooth_numbers(basis, count)
        for l in range(1, count + 1):
            smooth_rows.append(
                (l, seq.h[l - 1], seq.rho_min(l), seq.rho_max(l), seq.weight(l))
            )
    payload = {
        "ell": ell,
        "n": N,
        "m": basis.m,
        "r_const": basis.r_const,
        "a_count": a_count,
        "partition_ok": ok,
        "fibers": [{"l": l, "count": c} for l, c in fibers],
        "smooth": [
            {"l": l, "h": h, "rho_min": rmin, "rho_max": rmax, "weight": w}
            for l, h, rmin, rmax, w in smooth_rows
        ],
    }
    header = ["record", "a", "b", "c", "d", "e"]
    rows = [("summary", ell, N, basis.m, _fmt(basis.r_const), f"a_count={a_count}")]
    rows.append(("partition", "ok" if ok else "FAIL", "", "", "", ""))
    for l, c in fibers:
        rows.append(("fiber", l, c, "", "", ""))
    for l, h, rmin, rmax, w in smooth_rows:
        rows.append(("smooth", l, h, _fmt(rmin), _fmt(rmax), _fmt(w)))
    return payload, header, rows


def _curve(kind, obs, obs_id, tol, rows, extra=(), **meta):
    """Output of rate-i, pressure and rate-j from rows (x, value, is_infinite, tol, *extra).

    JSON rows drop the tol column, which the payload carries once; ``meta``
    fields come before the rows.
    """
    keys = ("x", "value", "is_infinite", *extra)
    payload = {
        "kind": kind,
        "ell": obs.ell,
        "observable": obs_id,
        "tol": tol,
        **meta,
        "rows": [dict(zip(keys, row[:3] + row[4:])) for row in rows],
    }
    return payload, ["x", "value", "is_infinite", "tol", *extra], rows


def _cmd_rate_i(args, config):
    dist, obs, obs_id = _resolve_observable(args)
    tol = float(_merged(args, config, "tol", 1e-9))
    grid = _parse_grid(args.alpha)
    rate = rates.CramerRate(dist, obs, t_cap=args.t_cap)
    rows = []
    for a in grid:
        v = rate(a)
        rows.append((a, v, math.isinf(v), tol))
    return _curve("rate-i", obs, obs_id, tol, rows)


def _cmd_pressure(args, config):
    dist, obs, obs_id = _resolve_observable(args)
    tol = float(_merged(args, config, "tol", 1e-8))
    grid = _parse_grid(getattr(args, "lam"))
    basis = lattice.primes_up_to(obs.ell)
    press = rates.Pressure(dist, obs, basis, tol=tol, budget=args.budget)
    rows = []
    for lam in grid:
        d = press.detail(lam)
        rows.append((lam, d.value, False, tol, d.truncation_l))
    return _curve(
        "pressure", obs, obs_id, tol, rows, extra=("truncation_l",),
        L_truncation=max(r[4] for r in rows),
    )


def _cmd_rate_j(args, config):
    dist, obs, obs_id = _resolve_observable(args)
    tol = float(_merged(args, config, "tol", 1e-8))
    grid = _parse_grid(args.u)
    basis = lattice.primes_up_to(obs.ell)
    press = rates.Pressure(dist, obs, basis, tol=tol, budget=args.budget)
    conj = rates.RateJ(press, lambda_cap=args.lambda_cap)
    rows = []
    for u in grid:
        v = conj(u)
        rows.append((u, v, math.isinf(v), tol))
    return _curve("rate-j", obs, obs_id, tol, rows, lambda_cap=conj.lambda_cap)


_ERLAW_COLUMNS = (
    "ell",
    "observable_id",
    "alpha",
    "I_alpha",
    "n",
    "b_n",
    "seed",
    "mode",
    "max_increment",
    "statistic",
    "normalized",
)


def _cmd_erlaw(args, config):
    dist, obs, obs_id = _resolve_observable(args)
    alphas = _parse_grid(args.alpha)
    ns = sorted(_parse_int_list(args.n))
    if args.seed_list:
        seeds = _parse_int_list(args.seed_list)
    else:
        seeds = list(range(1, int(_merged(args, config, "seeds", 5)) + 1))
    threads = _threads(args, config)
    result = erlaw_mod.experiment(
        dist, obs, alphas, ns, seeds, mode=args.mode, threads=threads
    )
    rows = [
        (obs.ell, obs_id, p.alpha, p.i_alpha, p.n, p.b_n, p.seed, p.mode,
         p.max_increment, p.statistic, p.normalized)
        for p in result.points
    ]
    payload = {
        "kind": "erlaw",
        "ell": obs.ell,
        "observable": obs_id,
        "mode": args.mode,
        "points": [dict(zip(_ERLAW_COLUMNS, row)) for row in rows],
        "summary": [asdict(s) for s in result.summaries],
    }
    return payload, _ERLAW_COLUMNS, rows


def _cmd_ldp_check(args, config):
    dist, obs, obs_id = _resolve_observable(args)
    threads = _threads(args, config)
    est = simulate.ldp_estimate(
        dist,
        obs,
        int(round(float(args.N))),
        float(args.u),
        int(round(float(args.replicas))),
        seed=int(_merged(args, config, "seed", 1)),
        mode=args.mode,
        threads=threads,
    )
    theory_i: float | str = ""
    theory_j: float | str = ""
    if not args.skip_theory:
        rate = rates.CramerRate(dist, obs)
        theory_i = rate(est.u)
        basis = lattice.primes_up_to(obs.ell)
        press = rates.Pressure(dist, obs, basis, tol=float(args.theory_tol))
        theory_j = rates.RateJ(press)(est.u)
    fields = {**asdict(est), "theory_J": theory_j, "theory_I": theory_i}
    payload = {
        "kind": "ldp-check",
        "ell": obs.ell,
        "observable": obs_id,
        "mode": args.mode,
        **fields,
    }
    header = [k for k in fields if k != "zero_count"]  # the flag is implied by rate_hat = inf
    return payload, header, [tuple(fields[k] for k in header)]


def _cmd_simulate(args, config):
    dist, obs, obs_id = _resolve_observable(args)
    n = int(round(float(args.n)))
    stride = int(_merged(args, config, "stride", 1))
    if stride < 1:
        raise InputError("stride must be >= 1")
    seed = int(_merged(args, config, "seed", 1))
    prefix = simulate.trajectory(dist, obs, seed, n, args.mode)
    ks = list(range(0, n + 1, stride))
    if ks[-1] != n:
        ks.append(n)
    # tuples, not lists: JSON writes them as the same arrays, and they are
    # cheaper to build for hundreds of thousands of rows
    rows = [(k, float(prefix[k])) for k in ks]
    payload = {
        "kind": "simulate",
        "ell": obs.ell,
        "observable": obs_id,
        "mode": args.mode,
        "seed": seed,
        "n": n,
        "stride": stride,
        "rows": rows,
    }
    return payload, ["k", "S_k"], rows


# ---------------------------------------------------------------------------
# Parser assembly


def _build_parser() -> _Parser:
    parser = _Parser(prog="ncsums", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--config", default=None, help="JSON file of flag defaults")
        p.add_argument(
            "--no-timestamp",
            action="store_const",
            const=True,
            default=False,
            help="suppress the generated_at field for byte-stable output",
        )

    def observable(p):
        p.add_argument("--preset", choices=model.PRESET_NAMES, default=None)
        p.add_argument("--spec-file", default=None)
        p.add_argument("--ell", type=int, default=None)
        p.add_argument("--const-value", type=float, default=None)
        p.add_argument(
            "--center",
            action="store_const",
            const=True,
            default=False,
            help="replace F by F - mean(F) after loading",
        )

    p = sub.add_parser("structure", help="coprime skeleton, fibers, smooth numbers")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", required=True)
    common(p)

    p = sub.add_parser("rate-i", help="Cramér rate curve")
    observable(p)
    p.add_argument("--alpha", required=True, help="value, comma list, or start:stop:step")
    p.add_argument("--t-cap", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    common(p)

    p = sub.add_parser("pressure", help="pressure curve with certified truncation")
    observable(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--budget", type=int, default=rates.DEFAULT_BUDGET)
    common(p)

    p = sub.add_parser("rate-j", help="conjugate of the pressure")
    observable(p)
    p.add_argument("--u", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--lambda-cap", type=float, default=None)
    p.add_argument("--budget", type=int, default=rates.DEFAULT_BUDGET)
    common(p)

    p = sub.add_parser("erlaw", help="sliding-window law experiment")
    observable(p)
    p.add_argument("--alpha", required=True)
    p.add_argument("--n", required=True, help="n grid, e.g. 1e4,1e6")
    p.add_argument("--seeds", type=int, default=None, help="use seeds 1..K")
    p.add_argument("--seed-list", default=None)
    p.add_argument("--mode", choices=simulate.TRAJECTORY_MODES, default="nonconventional")
    common(p)

    p = sub.add_parser("ldp-check", help="Monte-Carlo tail vs rate functions")
    observable(p)
    p.add_argument("--N", required=True)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--replicas", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", choices=simulate.TRAJECTORY_MODES, default="nonconventional")
    p.add_argument("--theory-tol", type=float, default=1e-6)
    p.add_argument(
        "--skip-theory", action="store_const", const=True, default=False
    )
    common(p)

    p = sub.add_parser("simulate", help="dump a trajectory as (k, S_k)")
    observable(p)
    p.add_argument("--n", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--mode", choices=simulate.TRAJECTORY_MODES, default="nonconventional")
    common(p)

    return parser


_DISPATCH = {
    "structure": _cmd_structure,
    "rate-i": _cmd_rate_i,
    "pressure": _cmd_pressure,
    "rate-j": _cmd_rate_j,
    "erlaw": _cmd_erlaw,
    "ldp-check": _cmd_ldp_check,
    "simulate": _cmd_simulate,
}


def main(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = {}
        if getattr(args, "config", None):
            try:
                config = json.loads(open(args.config).read())
            except (OSError, json.JSONDecodeError) as exc:
                raise InputError(f"cannot read config {args.config}: {exc}") from exc
            if not isinstance(config, dict):
                raise InputError("config file must hold a JSON object")
        args.format = _merged(args, config, "format", "csv")
        if args.format not in ("csv", "json"):
            raise InputError(f"format must be csv or json, not {args.format!r}")
        args.output = _merged(args, config, "output", None)
        if not args.no_timestamp and config.get("no_timestamp"):
            args.no_timestamp = True
        payload, header, rows = _DISPATCH[args.command](args, config)
        text = _render(args, payload, header, rows)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            stdout.write(text)
        if args.format == "csv" and "summary" in payload:
            # a CSV table cannot carry erlaw's per-(alpha, n) summary
            stderr.write(_json_text({"summary": payload["summary"]}) + "\n")
        return 0
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if code is not None else 0
    except tuple(_EXIT_CODES) as exc:
        name = type(exc).__name__ if isinstance(exc, NcsumsError) else "InputError"
        stderr.write(json.dumps({"error": name, "message": str(exc)}) + "\n")
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
