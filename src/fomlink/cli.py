"""Command-line front end: efficiency sweeps, link simulation, validation.

    fomlink efficiency --m 2:4096:12 --n 128 --eta 0.01 --out grid.csv
    fomlink efficiency --fig5 --out fig5.csv
    fomlink simulate --config scenario.json --out metrics.csv
    fomlink validate --config scenario.json

Exit codes: 0 success, 1 invalid config/scenario, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from ._version import __version__
from .analytics import GridSpec, PRESET_NAMES, preset_grid, run_efficiency_grid
from .scenario import (
    ScenarioError,
    run_monte_carlo,
    scenario_from_dict,
    validate_scenario_or_config,
    write_metrics_csv,
)
from .system import MAX_TABLE_ENTRIES, _decode_json

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2


def _parse_axis(text: str, name: str) -> tuple[float, ...]:
    """One value, a comma list, or a linear range start:stop:steps of at most MAX_TABLE_ENTRIES steps."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("ranges are start:stop:steps")
            start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
            if not 1 <= steps <= MAX_TABLE_ENTRIES:  # before linspace allocates them
                raise ValueError(f"steps must be at least 1 and at most {MAX_TABLE_ENTRIES}")
            if not math.isfinite(stop - start):  # inf, nan, or a span that overflows linspace
                raise ValueError("the range must have finite ends and a finite span")
            return tuple(float(v) for v in np.linspace(start, stop, steps))
        if "," in text:
            return tuple(float(v) for v in text.split(","))
        return (float(text),)
    except ValueError as exc:
        raise ScenarioError(f"bad --{name} value {text!r}: {exc}") from exc


# Built once per process: parse_args leaves the parser as it found it, and
# each build leaves about 180 objects in reference cycles for the collector.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fomlink", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"fomlink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    eff = sub.add_parser("efficiency", help="closed-form design-space sweep to CSV")
    eff.add_argument("--m", help="constellation sizes: value, comma list, or start:stop:steps")
    eff.add_argument("--n", help="array sizes: value, comma list, or start:stop:steps")
    eff.add_argument("--eta", help="relative bandwidth expansions: value, comma list, or start:stop:steps")
    for preset in PRESET_NAMES:
        eff.add_argument(f"--{preset}", action="store_true", help=f"canonical {preset} grid")
    eff.add_argument("--symbol-rate", type=float, help="symbol rate in Hz for absolute e0/es columns")
    eff.add_argument("--bandwidth", type=float, help="bandwidth in Hz for absolute e0/es columns")
    eff.add_argument("--out", help="output CSV path (default: stdout)")

    sim = sub.add_parser("simulate", help="Monte-Carlo link simulation from a scenario JSON")
    sim.add_argument("--config", required=True, help="scenario JSON path")
    sim.add_argument("--out", help="metrics CSV path (default: stdout)")
    sim.add_argument("--seed", type=int, help="override the scenario seed")
    sim.add_argument("--workers", type=int, default=1, help="accepted, must be >= 1; trial chunks run serially (default 1)")
    sim.add_argument("--dump-signals", metavar="FILE", help="also dump the first received blocks as t,re,im CSV")

    val = sub.add_parser("validate", help="check a system config or scenario JSON")
    val.add_argument("--config", required=True, help="system config or scenario JSON path")
    return parser


def _grid_from_args(args: argparse.Namespace) -> GridSpec:
    chosen = [p for p in PRESET_NAMES if getattr(args, p)]
    if len(chosen) > 1:
        raise ScenarioError(f"choose at most one preset, got: {', '.join(chosen)}")
    if chosen:
        if (args.m, args.n, args.eta) != (None, None, None):
            raise ScenarioError("presets fix --m/--n/--eta; drop the explicit axes")
        return replace(preset_grid(chosen[0]), symbol_rate=args.symbol_rate, bandwidth_hz=args.bandwidth)
    if args.m is None:
        raise ScenarioError("efficiency needs --m (plus --n/--eta) or one preset flag")
    return GridSpec(
        m_values=_parse_axis(args.m, "m"),
        n_values=_parse_axis(args.n, "n") if args.n is not None else (1.0,),
        eta_values=_parse_axis(args.eta, "eta") if args.eta is not None else (0.0,),
        symbol_rate=args.symbol_rate,
        bandwidth_hz=args.bandwidth,
    )


def _open_out(path: str | None):
    return open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout)


def _cmd_efficiency(args: argparse.Namespace) -> int:
    grid = _grid_from_args(args)  # checks every value, so a rejected grid never opens --out
    with _open_out(args.out) as out:
        run_efficiency_grid(grid, out)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace, data) -> int:
    if args.seed is not None and isinstance(data, dict):
        data = {**data, "seed": args.seed}
    scenario = scenario_from_dict(data)
    if args.workers < 1:
        raise ScenarioError(f"--workers must be >= 1, got {args.workers}")
    dump_ctx = open(args.dump_signals, "w", encoding="utf-8") if args.dump_signals else nullcontext(None)
    with dump_ctx as dump:
        rows = run_monte_carlo(scenario, workers=args.workers, dump_signals=dump)
    with _open_out(args.out) as out:
        write_metrics_csv(rows, scenario, out)
    return EXIT_OK


def _cmd_validate(data) -> int:
    report = validate_scenario_or_config(data)
    for error in report.hard_errors:
        print(f"ERROR: {error}")
    for warning in report.soft_warnings:
        print(f"WARNING: {warning}")
    if report.hard_errors:
        return EXIT_INVALID
    print("OK" + (" (with warnings)" if report.soft_warnings else ""))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "efficiency":
            return _cmd_efficiency(args)
        with open(args.config, "r", encoding="utf-8") as handle:
            data = _decode_json(handle.read(), ScenarioError)
        if args.command == "simulate":
            return _cmd_simulate(args, data)
        return _cmd_validate(data)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
