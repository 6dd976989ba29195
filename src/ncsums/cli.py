"""Command-line frontend: structure dumps, rate curves, and experiments.

All subcommands support --format csv|json.  CSV numeric fields use 9
significant digits ("%.9g"); infinities print as "inf".  JSON is
json.dumps(indent=2) with non-finite floats spelled as strings.  simulate's
(k, S_k) table, whose S_k are always finite, is written with the same bytes
by one row template per format: "%d,%.9g" for CSV, and for JSON the indent-2
layout of [k, S_k] with %r, which spells a Python float as json.dumps does.
When every S_k is an integer below 1e9 in magnitude and none is -0.0 (any
sum of integer terms, such as rademacher-product's), a numpy digit kernel
writes those bytes instead, without a Python float or string per row.
Outputs are byte-identical across runs and thread counts once --no-timestamp
is passed.  Exit codes: 0 success, 2 input error, 3 capacity/budget (also an
array too large to allocate), 4 tolerance unreachable.  Errors additionally
emit a one-line JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from functools import cache
from itertools import chain

import numpy as np

from . import erlaw as erlaw_mod
from . import lattice, model, rates, simulate
from .errors import CapacityError, InputError, NcsumsError, ToleranceError

ENV_THREADS = "NCSUMS_THREADS"

STRUCTURE_N_LIMIT = 10**7
STRUCTURE_ELL_LIMIT = 10**5
# A start:stop:step grid may hold at most this many points.
GRID_POINT_LIMIT = 10**5

# InputError is a ValueError; other ValueError and OverflowError are reported as
# InputError, and MemoryError as CapacityError.
_EXIT_CODES = {ValueError: 2, OverflowError: 2, CapacityError: 3, MemoryError: 3, ToleranceError: 4}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.9g" % x  # also "inf", "-inf" and "nan"
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
    """A single value, a comma list, or start:stop:step (inclusive stop, counted
    before it is built); no NaN."""
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
        last = stop + 1e-12 * max(1.0, abs(stop))
        if not (last - start) / step < GRID_POINT_LIMIT:  # also inf
            raise InputError(f"grid {text!r} has more than {GRID_POINT_LIMIT} points")
        out = []
        k = 0
        while True:
            v = start + k * step
            if v > last:
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


def integer(text: str) -> int:
    """The one reader of an integer flag or item: a digit string with an
    optional sign is read exactly; any other literal through float, and only
    a finite integral value such as 1e6 is accepted.  argparse names the
    type in its error message by this function's name: "invalid integer value"."""
    text = text.strip()
    if (text[1:] if text[:1] in "+-" else text).isdecimal():
        return int(text)
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value.is_integer():  # also inf and nan
        raise InputError(f"{text!r} is not an integer")
    return int(value)


def _parse_int_list(text: str, flag: str) -> list[int]:
    """Like _parse_grid, but each item, and each point of a range, is read by
    integer; an item it refuses is named with ``flag``, as argparse names a
    refused value of an integer flag."""
    items = [repr(v) for v in _parse_grid(text)] if ":" in text else text.split(",")
    out = []
    for item in filter(str.strip, items):
        try:
            out.append(integer(item))
        except ValueError:  # also Python's limit on the digits of an int
            raise InputError(f"argument {flag}: invalid integer value: {item.strip()!r}") from None
    return out


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# simulate's (k, S_k) rows per format: (row template, digit parts, separator).
# The template is what _fmt, and json.dumps(indent=2) at depth 2, write for an
# int k and a finite Python float S_k.  The parts are the text before k,
# between k and S_k, and after S_k, for an integral S_k that is not -0.0 and
# is below _DIGIT_LIMIT in magnitude: %.9g writes it as %d does, %r as "%d.0".
_ROWS = {
    "csv": ("%d,%.9g", ("", ",", ""), "\n"),
    "json": (
        "    [\n      %d,\n      %r\n    ]",
        ("    [\n      ", ",\n      ", ".0\n    ]"),
        ",\n",
    ),
}
_DIGIT_LIMIT = 1e9


def _digit_field(grid, end: int, width: int, mags) -> None:
    """Write the decimal digits of the non-negative ints ``mags`` right-aligned
    into columns ``end - width`` to ``end - 1`` of ``grid``, and 0 before the
    first digit of each row."""
    q = mags.copy()
    quot = np.empty_like(q)
    digit = np.empty_like(q)
    for p in range(width):
        np.floor_divide(q, 10, out=quot)
        np.multiply(quot, -10, out=digit)
        digit += q  # q % 10, without numpy's slower remainder loop
        # position p > 0 holds a digit only while q = mags // 10**p is not 0
        np.add(digit, 48, out=digit, where=True if p == 0 else q != 0)  # "0"
        grid[:, end - 1 - p] = digit
        q, quot = quot, q


def _digit_rows(ks, ints, parts: tuple[str, str, str], sep: str) -> str:
    """``sep``-joined rows ``before + k + between + S_k + after`` for the ints
    ``ks`` >= 0 (ascending) and int32 ``ints``, written with numpy.

    Every row takes one line of a uint8 grid: the digits of k and of S_k fill
    fields as wide as their longest value, S_k's field starts with a sign
    column, and the parts and ``sep`` fill the columns between.  Unused bytes
    stay 0 and are dropped by one mask, which leaves "-" just before the
    first digit, and the bytes are decoded once as ASCII.
    """
    before, between, after = (p.encode() for p in parts)
    mags = np.abs(ints)
    k_width = len(str(int(ks[-1])))
    v_width = len(str(int(mags.max())))
    k_end = len(before) + k_width
    v_start = k_end + len(between)
    v_end = v_start + 1 + v_width
    row = before + bytes(k_width) + between + bytes(1 + v_width) + after + sep.encode()
    grid = np.tile(np.frombuffer(row, dtype=np.uint8), (ks.size, 1))
    if ks[-1] <= np.iinfo(np.int32).max:
        ks = ks.astype(np.int32)  # faster digits
    _digit_field(grid, k_end, k_width, ks)
    np.multiply(ints < 0, np.uint8(45), out=grid[:, v_start])  # "-"
    _digit_field(grid, v_end, v_width, mags)
    flat = grid.reshape(-1)
    text = flat[flat != 0].tobytes().decode("ascii")
    return text[: len(text) - len(sep)]


@dataclass(frozen=True)
class _Pairs:
    """simulate's rows as two columns: int64 ``ks`` and finite float64 ``values``.

    ``text`` writes them in one format.  When every value is an integer below
    1e9 in magnitude and none is -0.0 (every sum of integer terms, such as
    rademacher-product's), _digit_rows builds the rows as bytes; otherwise
    ``fill`` formats every row with one template in a single % pass, so no
    row tuple and no per-value string is built.  Both give the bytes of the
    generic renderer.
    """

    ks: np.ndarray
    values: np.ndarray

    def text(self, fmt: str) -> str:
        row, parts, sep = _ROWS[fmt]
        ints = self.integers()
        if ints is None:
            return self.fill(row, sep)
        return _digit_rows(self.ks, ints, parts, sep)

    def integers(self) -> np.ndarray | None:
        """``values`` as int32 if each is an integer in (-1e9, 1e9) and none is -0.0."""
        v = self.values
        if not (np.abs(v) < _DIGIT_LIMIT).all():  # also false for nan
            return None
        ints = v.astype(np.int32)
        if np.array_equal(ints, v) and np.array_equal(ints < 0, np.signbit(v)):
            return ints
        return None

    def fill(self, row: str, sep: str) -> str:
        pairs = chain.from_iterable(zip(self.ks.tolist(), self.values.tolist()))
        return sep.join([row] * len(self.values)) % tuple(pairs)


def _render(args, payload: dict, header, rows) -> str:
    """The output text of one subcommand in the requested format.

    ``rows`` is a list of row tuples, or simulate's _Pairs, which JSON writes
    as the payload's last key "rows".
    """
    pairs = isinstance(rows, _Pairs)
    if args.format == "json":
        if not args.no_timestamp:
            payload = {"generated_at": _timestamp(), **payload}
        if not pairs:
            return _json_text(payload, indent=2) + "\n"
        head = _json_text({**payload, "rows": []}, indent=2)  # ends with '[]\n}'
        return head[:-3] + "\n" + rows.text("json") + "\n  ]\n}\n"
    lines = [] if args.no_timestamp else [f"# generated_at={_timestamp()}"]
    lines.append(",".join(header))
    if pairs:
        lines.append(rows.text("csv"))
    else:
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _resolve_observable(args):
    """(dist, obs, identifier) from --preset or --spec-file."""
    if args.spec_file and args.preset:
        raise InputError("give either --preset or --spec-file, not both")
    if args.const_value is not None and args.preset != "constant":
        raise InputError("--const-value is read only by --preset constant")
    if args.spec_file:
        dist, obs = model.load_spec(args.spec_file)
        obs_id = os.path.basename(args.spec_file)
        if args.ell is not None and args.ell != obs.ell:
            raise InputError(f"--ell {args.ell} differs from the spec's ell = {obs.ell}")
    elif args.preset:
        c = 1.0 if args.const_value is None else args.const_value
        dist, obs = model.preset(args.preset, ell=args.ell, c=c)
        obs_id = args.preset
    else:
        raise InputError("an observable is required: --preset NAME or --spec-file PATH")
    if args.center:
        obs = model.center(obs, dist)
    return dist, obs, obs_id


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_structure(args):
    ell, N = args.ell, args.n
    if N < 1 or N > STRUCTURE_N_LIMIT:
        raise InputError(f"n must be in [1, {STRUCTURE_N_LIMIT}]")
    if ell > STRUCTURE_ELL_LIMIT:
        raise InputError(f"ell must be at most {STRUCTURE_ELL_LIMIT}")
    basis = lattice.primes_up_to(ell)
    fibers = lattice.fiber_histogram(basis, N)
    a_count = sum(c for _, c in fibers)  # every a <= N has a fiber of size >= 1
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


def _curve(kind, obs, obs_id, rows, extra=(), **meta):
    """Output of rate-i, pressure and rate-j from rows (x, value, is_infinite, *extra).

    With a ``tol`` in ``meta``, each row holds it after is_infinite: CSV
    writes it as a column and JSON once in the payload.  ``meta`` fields
    come before the rows.
    """
    keys = ("x", "value", "is_infinite", *extra)
    tol = ("tol",) if "tol" in meta else ()
    payload = {
        "kind": kind,
        "ell": obs.ell,
        "observable": obs_id,
        **meta,
        "rows": [dict(zip(keys, row[:3] + row[3 + len(tol) :])) for row in rows],
    }
    return payload, [*keys[:3], *tol, *extra], rows


def _cmd_rate_i(args):
    dist, obs, obs_id = _resolve_observable(args)
    grid = _parse_grid(args.alpha)
    rate = rates.CramerRate(dist, obs)
    rows = [(a, v, math.isinf(v)) for a, v in zip(grid, map(rate, grid))]
    return _curve("rate-i", obs, obs_id, rows)


def _cmd_pressure(args):
    dist, obs, obs_id = _resolve_observable(args)
    tol, grid = args.tol, _parse_grid(args.lam)
    press = rates.Pressure(dist, obs, tol=tol, budget=args.budget)
    rows = [
        (lam, d.value, False, tol, d.truncation_l) for lam, d in zip(grid, press.details(grid))
    ]
    return _curve(
        "pressure", obs, obs_id, rows, extra=("truncation_l",),
        tol=tol, L_truncation=max(r[4] for r in rows),
    )


def _cmd_rate_j(args):
    dist, obs, obs_id = _resolve_observable(args)
    tol, grid = args.tol, _parse_grid(args.u)
    press = rates.Pressure(dist, obs, tol=tol, budget=args.budget)
    conj = rates.RateJ(press, lambda_cap=args.lambda_cap)
    rows = [(u, v, math.isinf(v), tol) for u, v in zip(grid, conj.grid(grid))]
    return _curve("rate-j", obs, obs_id, rows, tol=tol, lambda_cap=conj.lambda_cap)


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


def _cmd_erlaw(args):
    dist, obs, obs_id = _resolve_observable(args)
    alphas = _parse_grid(args.alpha)
    ns = sorted(_parse_int_list(args.n, "--n"))
    if args.seed_list is not None and args.seeds is not None:
        raise InputError("give either --seeds or --seed-list, not both")
    if args.seed_list:
        seeds = _parse_int_list(args.seed_list, "--seed-list")
    else:
        seeds = list(range(1, (5 if args.seeds is None else args.seeds) + 1))
    result = erlaw_mod.experiment(
        dist, obs, alphas, ns, seeds, mode=args.mode, threads=args.threads
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


def _cmd_ldp_check(args):
    dist, obs, obs_id = _resolve_observable(args)
    # the theory's inputs are checked before any replica is simulated, and
    # --theory-tol whether or not the theory runs
    rates.check_tol(args.theory_tol)
    if not args.skip_theory:
        rate = rates.CramerRate(dist, obs)
        conj = rates.RateJ(rates.Pressure(dist, obs, tol=args.theory_tol))
    est = simulate.ldp_estimate(
        dist, obs, args.N, args.u, args.replicas, seed=args.seed, mode=args.mode,
        threads=args.threads,
    )
    theory_i: float | str = ""
    theory_j: float | str = ""
    if not args.skip_theory:
        theory_i = rate(est.u)
        theory_j = conj(est.u)
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


def _cmd_simulate(args):
    dist, obs, obs_id = _resolve_observable(args)
    n, stride, seed = args.n, args.stride, args.seed
    if stride < 1:
        raise InputError("stride must be >= 1")
    prefix = simulate.trajectory(dist, obs, seed, n, args.mode)
    ks = np.arange(0, n + 1, stride, dtype=np.int64)
    values = prefix[::stride]
    if ks[-1] != n:  # the last row is always S_n
        ks = np.append(ks, n)
        values = np.append(values, prefix[n])
    payload = {
        "kind": "simulate",
        "ell": obs.ell,
        "observable": obs_id,
        "mode": args.mode,
        "seed": seed,
        "n": n,
        "stride": stride,
    }
    return payload, ["k", "S_k"], _Pairs(ks, values)


# ---------------------------------------------------------------------------
# Parser assembly


# The one declaration of every subcommand: name -> (handler, help, flags),
# each flag a (name, add_argument keywords) pair.  A subcommand's parser takes
# its flags and then _COMMON's.
_OBSERVABLE = (
    ("--preset", dict(choices=model.PRESET_NAMES, default=None)),
    ("--spec-file", dict(default=None)),
    ("--ell", dict(type=integer, default=None)),
    ("--const-value", dict(type=float, default=None)),
    ("--center", dict(action="store_true", help="replace F by F - mean(F) after loading")),
)
_COMMON = (
    ("--format", dict(choices=("csv", "json"), default="csv")),
    ("--output", dict(default=None, help="write to file instead of stdout")),
    ("--threads", dict(type=integer, default=None, help=f"default ${ENV_THREADS}, or 1")),
    ("--config", dict(default=None, help="JSON object of flag values by dest")),
    ("--no-timestamp", dict(
        action="store_true", help="suppress the generated_at field for byte-stable output"
    )),
)
_MODE = ("--mode", dict(choices=simulate.TRAJECTORY_MODES, default="nonconventional"))
_COMMANDS = {
    "structure": (_cmd_structure, "coprime skeleton, fibers, smooth numbers", (
        ("--ell", dict(type=integer, required=True)),
        ("--n", dict(type=integer, required=True)),
    )),
    "rate-i": (_cmd_rate_i, "Cramér rate curve", _OBSERVABLE + (
        ("--alpha", dict(required=True, help="value, comma list, or start:stop:step")),
    )),
    "pressure": (_cmd_pressure, "pressure curve with certified truncation", _OBSERVABLE + (
        ("--lambda", dict(dest="lam", required=True)),
        ("--tol", dict(type=float, default=1e-8)),
        ("--budget", dict(type=integer, default=rates.DEFAULT_BUDGET)),
    )),
    "rate-j": (_cmd_rate_j, "conjugate of the pressure", _OBSERVABLE + (
        ("--u", dict(required=True)),
        ("--tol", dict(type=float, default=1e-8)),
        ("--lambda-cap", dict(type=float, default=None)),
        ("--budget", dict(type=integer, default=rates.DEFAULT_BUDGET)),
    )),
    "erlaw": (_cmd_erlaw, "sliding-window law experiment", _OBSERVABLE + (
        ("--alpha", dict(required=True)),
        ("--n", dict(required=True, help="n grid, e.g. 1e4,1e6")),
        ("--seeds", dict(type=integer, default=None, help="use seeds 1..K")),
        ("--seed-list", dict(default=None)),
        _MODE,
    )),
    "ldp-check": (_cmd_ldp_check, "Monte-Carlo tail vs rate functions", _OBSERVABLE + (
        ("--N", dict(type=integer, required=True)),
        ("--u", dict(type=float, required=True)),
        ("--replicas", dict(type=integer, required=True)),
        ("--seed", dict(type=integer, default=1)),
        _MODE,
        ("--theory-tol", dict(type=float, default=1e-6)),
        ("--skip-theory", dict(action="store_true")),
    )),
    "simulate": (_cmd_simulate, "dump a trajectory as (k, S_k)", _OBSERVABLE + (
        ("--n", dict(type=integer, required=True)),
        ("--seed", dict(type=integer, default=1)),
        ("--stride", dict(type=integer, default=1)),
        _MODE,
    )),
}


@cache
def _build_parser(name: str | None = None) -> _Parser:
    """The parser of subcommand ``name`` alone, or of every subcommand when
    ``name`` is None or unknown; built once per process for each ``name``."""
    parser = _Parser(prog="ncsums", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand name -> its parser
    for command, (run, help, flags) in _COMMANDS.items():
        if name in _COMMANDS and command != name:
            continue
        p = sub.add_parser(command, help=help)
        p.set_defaults(run=run)
        for flag, kw in flags + _COMMON:
            p.add_argument(flag, **kw)
    return parser


# --config alone, read as the subcommand parsers read it (abbreviations included)
_CONFIG_FLAG = _Parser(add_help=False)
_CONFIG_FLAG.add_argument("--config")


def _with_config(parser: _Parser, argv: list[str]) -> list[str]:
    """argv with the flags of its --config file inserted after the subcommand name.

    A key that is the dest of a subcommand flag becomes ``--flag=value``, or
    the bare flag for a true on/off value; null values and other keys are
    ignored.  Explicit flags come later and win.  Only --config is parsed
    here, so the file may also give required flags.
    """
    path = _CONFIG_FLAG.parse_known_args(argv)[0].config
    if not path or argv[0] not in parser.commands:
        return argv
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise InputError("config file must hold a JSON object")
    flags = []
    for action in parser.commands[argv[0]]._actions:
        value = config.get(action.dest)
        if value is None or action.dest in ("help", "config"):
            continue
        flag = action.option_strings[0]
        if action.nargs != 0:
            flags.append(f"{flag}={value}")
        elif not isinstance(value, bool):
            raise InputError(f"config {action.dest} must be true or false, not {value!r}")
        elif value:
            flags.append(flag)
    return argv[:1] + flags + argv[1:]


def main(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    # no arguments, --help and an unknown name get every subcommand's parser
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(_with_config(parser, argv))
        if args.threads is None:  # NCSUMS_THREADS, or else 1
            args.threads = integer(os.environ.get(ENV_THREADS) or "1")
        if args.threads < 1:
            raise InputError(f"threads must be at least 1, not {args.threads}")
        payload, header, rows = args.run(args)
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
        if isinstance(exc, MemoryError):  # an array too large to allocate
            exc = CapacityError(str(exc) or "out of memory")
        name = type(exc).__name__ if isinstance(exc, NcsumsError) else "InputError"
        stderr.write(json.dumps({"error": name, "message": str(exc)}) + "\n")
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
