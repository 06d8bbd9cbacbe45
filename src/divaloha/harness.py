"""Command-line front end.

Four subcommands: ``analytic`` evaluates the closed-form curves, ``simulate``
runs the Monte Carlo sweep, ``compare`` runs both and applies an agreement
policy per load, ``threshold`` prints the link budget numbers. Results are
emitted as CSV (fixed column set, byte-deterministic for a given spec) or
JSON (same rows plus a metadata block).

Durations are given in symbols, or in microseconds with a ``us`` suffix that
is converted through ``--ts``. A JSON config file can preload any option;
command-line flags win over the file, which wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analytic import analytic_curve
from .config import SystemConfig
from .errors import DivalohaError
from .link import LinkModel
from .simulator import RNG_ALGORITHM, RNG_STREAM_RULE, require_work_bounds, sweep

EXIT_OK = 0
EXIT_COMPARE_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

OUT_DIR_ENV = "DIVALOHA_OUT_DIR"

CSV_COLUMNS = (
    "G",
    "n_tx",
    "plr_analytic",
    "thr_analytic",
    "plr_sim",
    "plr_stderr",
    "thr_sim",
    "abs_diff",
    "pass",
)

_MODES = ("analytic", "simulate", "compare", "threshold")
_POLICIES = ("tight", "lower-bound")
_TIGHT_FLOOR = 0.02
_TIGHT_SIGMA = 4.0
_LOWER_BOUND_SIGMA = 2.0
_AUTO_TIGHT_RATIO = 100.0


# A --loads value holds at most this many loads, counted before a grid is
# expanded. The paper's curves use 15 loads and a smooth plot a few hundred;
# 10**4 loads of an analytic curve at 1000/5 took 0.5 s on a 2-core x86
# host, so a grid at the bound keeps an analytic run to seconds and its
# floats under 1 MiB, while a grid such as 0:1:1e-12 would ask for 10**12.
MAX_LOADS = 1 << 16


# Every option but --config, declared once: its default (None for none) and
# its help. A config file takes the same names, with '_' for '-'.
_OPTIONS = {
    "tf": (None, "frame length (symbols, or e.g. '100000us')"),
    "tau": (None, "burst length (symbols, or e.g. '1000us')"),
    "ts": ("1", "symbol time in microseconds"),
    "copies": ("2", "copies per packet"),
    "mod": ("4", "modulation order"),
    "rate": ("0.5", "code rate"),
    "snr_db": ("10", "burst SNR in dB"),
    "snir_dec_db": (None, "decoder SNIR threshold override in dB"),
    "loads": (None, "normalized load grid: start:stop:step or comma list"),
    "rounds": ("10000", "simulated frames per load"),
    "seed": ("1", "master seed"),
    "workers": ("1", "process count"),
    "policy": (None, "compare policy, tight or lower-bound (default: by frame/burst ratio)"),
    "format": ("csv", "output format, csv or json"),
    "out": (None, "output path (default: stdout)"),
}


class UsageError(DivalohaError):
    """Bad flags or an inconsistent run specification."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises UsageError where argparse would print
    its usage block and exit; its subparsers are of this class too."""

    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class RunSpec:
    """Fully resolved description of one harness invocation."""

    mode: str
    frame_len: int | None
    burst_len: int
    copies: int
    symbol_time_us: float
    modulation_order: int
    code_rate: float
    snr_db: float
    snir_dec_db: float | None
    loads: tuple[float, ...]
    rounds: int
    seed: int
    workers: int
    policy: str | None
    out_format: str
    out_path: str | None

    def system_config(self) -> SystemConfig:
        return SystemConfig(
            frame_len=self.frame_len,
            burst_len=self.burst_len,
            copies=self.copies,
        )

    def link_model(self) -> LinkModel:
        return LinkModel.from_parameters(
            self.modulation_order,
            self.code_rate,
            self.snr_db,
            self.burst_len,
            self.snir_dec_db,
        )


def _number(value, flag: str, kind=float, minimum=None, given=None):
    """``value`` (a flag's text or a config file's value) as ``kind``, int
    or float, at least ``minimum`` if one is given. A value that is not one
    is refused quoting ``given``, the text as the user gave it (default
    ``value``). So is a config file's JSON boolean, and a float that is not
    whole for an int, which ``kind`` would take but the same text as a flag
    would not be; a whole float such as ``1e4`` is the int it equals."""
    fraction = kind is int and isinstance(value, float) and not value.is_integer()
    try:
        if isinstance(value, bool) or fraction:
            raise ValueError(value)
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        shown = value if given is None else given
        raise UsageError(f"cannot parse {flag} value {shown!r}") from None
    if minimum is not None and out < minimum:
        raise UsageError(f"{flag} must be >= {minimum}, got {out}")
    return out


def _duration_to_symbols(text: str, ts_us: float, flag: str) -> int:
    """A bare number is a symbol count; with a 'us' suffix it is a duration
    converted through the symbol time and must land on a whole symbol."""
    value = _number(text.removesuffix("us"), flag, given=text)
    if text.endswith("us"):
        value /= ts_us
    if not math.isfinite(value):
        raise UsageError(f"{flag} must be finite, got {text!r}")
    rounded = round(value)
    if abs(value - rounded) > 1e-9 * max(1.0, abs(value)):
        raise UsageError(
            f"{flag} = {text!r} is {value} symbols, not a whole number"
        )
    return int(rounded)


def _parse_loads(value) -> tuple[float, ...]:
    """Comma list, single value, or start:stop:step grid (stop inclusive).

    Only the form is checked here: a grid must be finite to be counted,
    but each load's domain is ``analytic.n_tx_for_load``'s to refuse, after
    the geometry and the link and before any work (see build_rows)."""
    if isinstance(value, (list, tuple)):
        parts, grid = value, False
    else:
        text = str(value)
        grid = ":" in text
        parts = text.split(":" if grid else ",")
        if grid and len(parts) != 3:
            raise UsageError(f"load grid must be start:stop:step, got {text!r}")
    items = [_number(v, "--loads", given=value) for v in parts]
    if grid:
        start, stop, step = items
        if not all(math.isfinite(v) for v in items):
            raise UsageError(f"load grid {text!r} must be finite")
        if step <= 0:
            raise UsageError(f"load grid step must be > 0, got {step}")
        # points less one, compared before any conversion to int: it
        # may overflow to infinity, or ask for more loads than the bound
        span = (stop - start) / step + 1e-9
        if span < 0:
            raise UsageError(f"load grid {text!r} is empty")
        if span >= MAX_LOADS:
            raise UsageError(f"load grid {text!r} has more than {MAX_LOADS} loads")
        # round off the accumulated step error so 0.1:1.5:0.1 gives 0.3, not 0.30000000000000004
        items = [round(start + i * step, 10) for i in range(int(span) + 1)]
    if not items:
        raise UsageError("loads must not be empty")
    if len(items) > MAX_LOADS:
        raise UsageError(f"{len(items)} loads is over the bound of {MAX_LOADS}")
    return tuple(items)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args leaves it as it was."""
    parser = _Parser(
        prog="divaloha",
        description="Packet loss and throughput of two-copy asynchronous diversity Aloha",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in _MODES:
        p = sub.add_parser(mode, help=f"{mode} run")
        p.add_argument("--config", help="JSON file preloading any option below")
        for dest, (default, text) in _OPTIONS.items():
            if default is not None:
                text = f"{text} (default {default})"
            p.add_argument("--" + dest.replace("_", "-"), help=text)
    return parser


def _attach_number_values(argv: list[str]) -> list[str]:
    """``argv`` with each number that follows a value flag written onto it
    (``--snr-db -1e1`` as ``--snr-db=-1e1``). argparse takes only ``-10``
    and ``-1.5`` spellings of a negative number as a value, and reads
    ``-1e1`` or ``-inf`` as an unknown flag; every divaloha flag but
    ``--help`` takes a value, so a token there that parses as a number
    (``_number``'s rules) is that flag's value."""
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        takes_value = not "--help".startswith(flag) and "=" not in flag
        if flag.startswith("--") and takes_value and token.startswith("-"):
            try:
                _number(token, flag)
            except UsageError:
                pass
            else:
                out[-1] = f"{flag}={token}"
                continue
        out.append(token)
    return out


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = set(data) - set(_OPTIONS)
    if unknown:
        raise UsageError(
            f"config file {path} has unknown keys: {', '.join(sorted(unknown))}"
        )
    return data


def parse_spec(argv) -> RunSpec:
    """Resolve argv (plus any config file) into a RunSpec.

    Precedence: command line, then config file, then built-in defaults.
    """
    argv = sys.argv[1:] if argv is None else argv
    ns = _build_parser().parse_args(_attach_number_values(argv))
    from_file = _load_config_file(ns.config) if ns.config else {}

    def pick(dest: str):
        cli = getattr(ns, dest)
        if cli is not None:
            return cli
        if dest in from_file and from_file[dest] is not None:
            return from_file[dest]
        return _OPTIONS[dest][0]

    mode = ns.mode
    # symbol time in microseconds; a 'us' suffix is allowed and redundant
    ts_text = str(pick("ts"))
    ts_us = _number(ts_text.removesuffix("us"), "--ts", given=ts_text)
    if not 0 < ts_us < math.inf:
        raise UsageError(f"symbol time must be finite and > 0, got {ts_text!r}")

    tau_raw = pick("tau")
    if tau_raw is None:
        raise UsageError("--tau is required")
    burst_len = _duration_to_symbols(str(tau_raw), ts_us, "--tau")

    # threshold reports the link alone, so it reads neither frame nor loads
    if mode == "threshold":
        frame_len, loads = None, ()
    else:
        tf_raw = pick("tf")
        if tf_raw is None:
            raise UsageError(f"--tf is required for {mode}")
        frame_len = _duration_to_symbols(str(tf_raw), ts_us, "--tf")
        loads_raw = pick("loads")
        if loads_raw is None:
            raise UsageError(f"--loads is required for {mode}")
        loads = _parse_loads(loads_raw)

    # geometry and link values are refused by SystemConfig and LinkModel
    copies = _number(pick("copies"), "--copies", int)
    modulation_order = _number(pick("mod"), "--mod", int)
    code_rate = _number(pick("rate"), "--rate")
    snr_db = _number(pick("snr_db"), "--snr-db")
    snir_raw = pick("snir_dec_db")
    snir_dec_db = None if snir_raw is None else _number(snir_raw, "--snir-dec-db")

    # refused here, before compare's analytic fold runs
    rounds = _number(pick("rounds"), "--rounds", int, 1)
    seed = _number(pick("seed"), "--seed", int, 0)
    workers = _number(pick("workers"), "--workers", int, 1)

    policy = pick("policy")
    if policy is not None and policy not in _POLICIES:
        raise UsageError(f"--policy must be one of {_POLICIES}, got {policy!r}")
    out_format = pick("format")
    if out_format not in ("csv", "json"):
        raise UsageError(f"--format must be csv or json, got {out_format!r}")
    out_path = pick("out")
    if out_path is not None and not isinstance(out_path, str):
        raise UsageError(f"--out must be a path, got {out_path!r}")

    return RunSpec(
        mode=mode,
        frame_len=frame_len,
        burst_len=burst_len,
        copies=copies,
        symbol_time_us=ts_us,
        modulation_order=modulation_order,
        code_rate=code_rate,
        snr_db=snr_db,
        snir_dec_db=snir_dec_db,
        loads=loads,
        rounds=rounds,
        seed=seed,
        workers=workers,
        policy=policy,
        out_format=out_format,
        out_path=out_path,
    )


def resolve_policy(spec: RunSpec) -> str:
    """Explicit policy, or tight when the frame dwarfs the burst."""
    if spec.policy is not None:
        return spec.policy
    ratio = spec.frame_len / spec.burst_len
    return "tight" if ratio >= _AUTO_TIGHT_RATIO else "lower-bound"


def row_passes(row: dict, policy: str) -> bool:
    """Agreement check for one compare row.

    tight: |plr_analytic - plr_sim| within max(0.02, 4 sigma).
    lower-bound: analytic throughput must not exceed simulated by more than
    2 sigma (the model ignores effects that only ever lose extra packets,
    so it must sit at or below the simulation).
    """
    if policy == "tight":
        tol = max(_TIGHT_FLOOR, _TIGHT_SIGMA * row["plr_stderr"])
        return row["abs_diff"] <= tol
    thr_sigma = row["G"] * row["plr_stderr"]
    return row["thr_analytic"] <= row["thr_sim"] + _LOWER_BOUND_SIGMA * thr_sigma


def build_rows(spec: RunSpec) -> tuple[list[dict], str | None]:
    """Row dicts (CSV_COLUMNS keys, None where a column does not apply) and
    the policy that was applied, if any.

    Refusal order: the argument checks (parse_spec's, then the geometry and
    the link), then, for a simulating mode, the pre-flight
    ``require_work_bounds``: the rounds, every load through
    ``n_tx_for_load``, the frame bound. ``analytic_curve`` maps every load
    through ``n_tx_for_load`` and checks its fold bound before its first
    step, and the simulation follows it.
    """
    config = spec.system_config()
    link = spec.link_model()
    rows = [dict.fromkeys(CSV_COLUMNS) for _ in spec.loads]
    if spec.mode in ("simulate", "compare"):
        require_work_bounds(config, spec.loads, spec.rounds)
    if spec.mode in ("analytic", "compare"):
        for row, pt in zip(rows, analytic_curve(config, link, spec.loads)):
            row["G"] = pt.load
            row["n_tx"] = pt.n_tx
            row["plr_analytic"] = pt.plr
            row["thr_analytic"] = pt.throughput
    if spec.mode in ("simulate", "compare"):
        results = sweep(
            config, link, spec.loads, spec.rounds, spec.seed, workers=spec.workers
        )
        for row, res in zip(rows, results):
            row["G"] = res.load
            row["n_tx"] = res.n_tx
            row["plr_sim"] = res.plr_mean
            row["plr_stderr"] = res.plr_stderr
            row["thr_sim"] = res.throughput_mean

    policy = None
    if spec.mode == "compare":
        policy = resolve_policy(spec)
        for row in rows:
            row["abs_diff"] = abs(row["plr_analytic"] - row["plr_sim"])
            row["pass"] = row_passes(row, policy)
    return rows, policy


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".10g")


def render_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_cell(row[col]) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _metadata(spec: RunSpec, policy: str | None, wall_time_s: float) -> dict:
    link = spec.link_model()
    return {
        "tool": "divaloha",
        "version": __version__,
        "mode": spec.mode,
        "policy": policy,
        "frame_len": spec.frame_len,
        "burst_len": spec.burst_len,
        "copies": spec.copies,
        "symbol_time_us": spec.symbol_time_us,
        "modulation_order": spec.modulation_order,
        "code_rate": spec.code_rate,
        "rate": link.rate,
        "snr_db": spec.snr_db,
        "snir_dec_db": link.snir_dec_db,
        "max_interference": link.budget.max_interference,
        "loads": list(spec.loads),
        "rounds": spec.rounds,
        "seed": spec.seed,
        "workers": spec.workers,
        "rng_algorithm": RNG_ALGORITHM,
        "rng_stream_rule": RNG_STREAM_RULE,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "wall_time_s": round(wall_time_s, 3),
    }


def render_json(rows: list[dict], metadata: dict) -> str:
    return json.dumps({"metadata": metadata, "rows": rows}, indent=2) + "\n"


def threshold_report(spec: RunSpec) -> str:
    link = spec.link_model()
    budget = link.budget
    lines = [
        f"modulation_order: {spec.modulation_order}",
        f"code_rate: {_format_cell(spec.code_rate)}",
        f"rate_bits_per_symbol: {_format_cell(link.rate)}",
        f"snir_dec_linear: {_format_cell(link.snir_dec_linear)}",
        f"snir_dec_db: {_format_cell(link.snir_dec_db)}",
        f"snr_db: {_format_cell(spec.snr_db)}",
        f"burst_len: {spec.burst_len}",
        "max_interference: "
        + (
            str(budget.max_interference)
            if budget.decodable
            else "none (snr below decoding threshold)"
        ),
    ]
    return "\n".join(lines) + "\n"


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(out_path):
        out_path = os.path.join(base, out_path)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def run(spec: RunSpec) -> int:
    """Execute a resolved spec and write its output. Returns the exit code."""
    started = time.perf_counter()
    if spec.mode == "threshold":
        _write_output(threshold_report(spec), spec.out_path)
        return EXIT_OK
    rows, policy = build_rows(spec)
    if spec.out_format == "json":
        text = render_json(rows, _metadata(spec, policy, time.perf_counter() - started))
    else:
        text = render_csv(rows)
    _write_output(text, spec.out_path)
    if spec.mode == "compare" and any(row["pass"] is False for row in rows):
        return EXIT_COMPARE_FAILED
    return EXIT_OK


def main(argv=None) -> int:
    """Run the CLI. Exit 0 ok, 1 compare found disagreement, 2 refused input
    (work bounds included), 3 a fault; 2 and 3 print one ``divaloha: ``
    line on stderr."""
    try:
        return run(parse_spec(argv))
    except SystemExit as exc:
        # --help: argparse exits for nothing else once error() raises
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except DivalohaError as exc:
        code, message = EXIT_USAGE, str(exc)
    except Exception as exc:
        # an unforeseen fault is a runtime failure, never a compare verdict
        code, message = EXIT_RUNTIME, f"{type(exc).__name__}: {exc}"
    print("divaloha:", " ".join(message.split()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
