"""Scenario-driven Monte-Carlo harness with reproducible error statistics.

A scenario bundles a system config, channel impairments, a detector choice,
and a trial budget, plus an optional one-axis sweep: a list of es_n0_db
points, or a list of df_t products (offset-step times symbol interval)
realized by scaling delta_f while holding the symbol rate fixed, which also
rescales the occupied band and eta for that point.

Reproducibility contract: the trials of a sweep point run in chunks of
``_CHUNK``; chunk ``c`` draws from ``default_rng(SeedSequence([seed, c]))``,
trial after trial, each trial taking its payload bits and then its noise.
Distinct seeds therefore give independent streams, every sweep point sees
the same draws, and aggregation is plain counting in fixed chunk order.  The
same (scenario, seed) always produces a byte-identical metrics CSV.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, fields, replace
from typing import IO, Iterable

import numpy as np

from ._version import __version__
from .codec import DataBlock, _bits_to_int, map_index
from .ofdm import OfdmConfig, fom_to_ofdm_params, frame_awgn, modulate_frame, demodulate_frame
from .phy import (
    ChannelSpec,
    apply_carrier_freq_error,
    apply_phase_rotation,
    awgn,
    brute_force_oracle,
    detect_joint_ml,
    detect_two_stage,
    synthesize_block,
)
from .system import (
    MAX_ORACLE_BLOCK_SAMPLES,
    MAX_SNAP_TABLE_ENTRIES,
    SystemConfig,
    ValidationReport,
    _checked_fields,
    _is_real,
    build_frequency_plan,
    validate_config,
)
from .analytics import GridSpec, _fmt, grid_sweep, write_efficiency_csv

__all__ = [
    "Scenario",
    "Sweep",
    "MetricsRow",
    "ScenarioError",
    "scenario_from_dict",
    "scenario_from_json",
    "validate_scenario_or_config",
    "run_monte_carlo",
    "run_efficiency_grid",
    "write_metrics_csv",
    "wilson_interval",
    "DETECTORS",
    "MODES",
    "METRICS_HEADER",
]

DETECTORS = ("joint-ml", "two-stage", "oracle")
MODES = ("fom", "ofdm")
SWEEP_AXES = ("es_n0_db", "df_t")

_CHUNK = 1024
_DUMP_BLOCKS = 8
_SEED_SCHEME = f"chunk c of {_CHUNK} trials draws from default_rng(SeedSequence([seed, c]))"


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario description."""


@dataclass(frozen=True)
class Sweep:
    axis: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ScenarioError(f"sweep axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        if not self.values:
            raise ScenarioError("sweep values must not be empty")


@dataclass(frozen=True)
class Scenario:
    system: SystemConfig
    channel: ChannelSpec
    detector: str
    trials: int
    seed: int
    mode: str = "fom"
    ofdm: OfdmConfig | None = None
    sweep: Sweep | None = None
    zero_pad_factor: int = 16

    def to_dict(self) -> dict:
        """The JSON form: a noiseless es_n0_db is null, a sweep is {axis: [values]}, unset records are left out."""
        out = {k: v for k, v in asdict(self).items() if v is not None}
        out["channel"]["es_n0_db"] = None if self.channel.es_n0_db == math.inf else self.channel.es_n0_db
        if self.sweep is not None:
            out["sweep"] = {self.sweep.axis: [None if v == math.inf else v for v in self.sweep.values]}
        return out


@dataclass(frozen=True)
class MetricsRow:
    mode: str
    detector: str
    n: int
    m: int
    es_n0_db: float
    df_t: float
    trials: int
    index_error_rate: float
    symbol_error_rate: float
    block_error_rate: float
    bit_error_rate: float
    mean_runner_up_margin: float
    seed: int


METRICS_HEADER = ",".join(f.name for f in fields(MetricsRow))


def _parse_es_n0(value) -> float:
    """null is noiseless; a number must leave the noise power 10**(-es_n0_db/10) finite."""
    if value is None:
        return math.inf
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(10.0 ** (-float(value) / 10.0)):
                return float(value)
        except OverflowError:
            pass
    raise ScenarioError(f"es_n0_db must be a number or null (noiseless) with finite noise power, got {value!r}")


def _parse_channel(data) -> ChannelSpec:
    values = _checked_fields(ChannelSpec, data, "channel", ScenarioError)
    for name in ("phase_rotation", "carrier_freq_error"):
        if not _is_real(values[name]):
            raise ScenarioError(f"bad channel spec: {name} must be a finite number, got {values[name]!r}")
    try:
        return ChannelSpec(
            es_n0_db=_parse_es_n0(values["es_n0_db"]),
            phase_rotation=float(values["phase_rotation"]),
            carrier_freq_error=float(values["carrier_freq_error"]),
        )
    except ValueError as exc:
        raise ScenarioError(f"bad channel spec: {exc}") from exc


def _parse_ofdm(data) -> OfdmConfig:
    checked = _checked_fields(OfdmConfig, data, "ofdm", ScenarioError)
    try:
        return OfdmConfig(**checked)
    except ValueError as exc:
        raise ScenarioError(f"bad ofdm spec: {exc}") from exc


def _parse_sweep(data: dict) -> Sweep:
    if not isinstance(data, dict) or len(data) != 1:
        raise ScenarioError('sweep must be an object with exactly one axis, e.g. {"es_n0_db": [0, 5, 10]}')
    axis, raw = next(iter(data.items()))
    if axis not in SWEEP_AXES:
        raise ScenarioError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    if not isinstance(raw, list) or not raw:
        raise ScenarioError("sweep values must be a non-empty list")
    if axis == "es_n0_db":
        values = tuple(_parse_es_n0(v) for v in raw)
    else:
        if any(not isinstance(v, (int, float)) or isinstance(v, bool) or not v > 0 for v in raw):
            raise ScenarioError("df_t sweep values must be positive numbers")
        values = tuple(float(v) for v in raw)
    return Sweep(axis=axis, values=values)


def scenario_from_dict(data: dict) -> Scenario:
    """Parse and cross-validate a scenario object.  Unknown keys are errors."""
    data = _checked_fields(Scenario, data, "scenario", ScenarioError)
    try:
        system = SystemConfig.from_dict(data["system"])
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    channel = _parse_channel(data["channel"])
    detector = data["detector"]
    if detector not in DETECTORS:
        raise ScenarioError(f"detector must be one of {DETECTORS}, got {detector!r}")
    mode = data["mode"]
    if mode not in MODES:
        raise ScenarioError(f"mode must be one of {MODES}, got {mode!r}")
    trials = data["trials"]
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ScenarioError(f"trials must be an integer >= 1, got {trials!r}")
    seed = data["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ScenarioError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    zero_pad = data["zero_pad_factor"]
    if not isinstance(zero_pad, int) or isinstance(zero_pad, bool) or zero_pad < 1:
        raise ScenarioError(f"zero_pad_factor must be an integer >= 1, got {zero_pad!r}")
    ofdm = _parse_ofdm(data["ofdm"]) if data["ofdm"] is not None else None
    sweep = _parse_sweep(data["sweep"]) if data["sweep"] is not None else None
    scenario = Scenario(**{**data, "system": system, "channel": channel, "ofdm": ofdm, "sweep": sweep})
    _cross_validate(scenario)
    return scenario


def scenario_from_json(text: str) -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed JSON: {exc}") from exc
    return scenario_from_dict(data)


def _cross_validate(scenario: Scenario) -> None:
    if scenario.mode == "ofdm":
        if scenario.detector != "joint-ml":
            raise ScenarioError(f"ofdm mode supports only the joint-ml detector, got {scenario.detector!r}")
        if scenario.sweep is not None and scenario.sweep.axis == "df_t":
            raise ScenarioError("df_t sweeps require fom mode (subcarrier spacing is fixed by the frame)")
    elif scenario.ofdm is not None:
        raise ScenarioError(f"an ofdm object needs mode 'ofdm', got mode {scenario.mode!r}")
    for config in _swept_configs(scenario):
        report = validate_config(config)
        if report.hard_errors:
            raise ScenarioError(
                f"invalid system config (delta_f_hz={config.delta_f_hz!r}): " + "; ".join(report.hard_errors)
            )
        samples = config.samples_per_symbol
        if scenario.detector == "two-stage" and scenario.zero_pad_factor * config.n * samples > MAX_SNAP_TABLE_ENTRIES:
            raise ScenarioError(
                f"zero_pad_factor * n * samples per symbol = {scenario.zero_pad_factor * config.n * samples} "
                f"(delta_f_hz={config.delta_f_hz!r}) exceeds {MAX_SNAP_TABLE_ENTRIES}, "
                "the largest two-stage snap table simulated (lower zero_pad_factor)"
            )
        if scenario.detector == "oracle" and config.m * samples > MAX_ORACLE_BLOCK_SAMPLES:
            raise ScenarioError(
                f"m * samples per symbol = {config.m * samples} (delta_f_hz={config.delta_f_hz!r}) "
                f"exceeds {MAX_ORACLE_BLOCK_SAMPLES}, the largest oracle block simulated"
            )
    if scenario.mode == "ofdm":
        given = scenario.ofdm
        try:
            frame = fom_to_ofdm_params(scenario.system, *((given.index_mode, given.cp_len) if given else ()))
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        if given not in (None, frame):
            raise ScenarioError(
                f"ofdm object contradicts system, whose OFDM twin has n_subcarriers={frame.n_subcarriers}, "
                f"spacing_hz={frame.spacing_hz!r} and m={frame.m}"
            )


def _swept_configs(scenario: Scenario) -> list[SystemConfig]:
    if scenario.sweep is not None and scenario.sweep.axis == "df_t":
        return [
            replace(scenario.system, delta_f_hz=df_t * scenario.system.symbol_rate) for df_t in scenario.sweep.values
        ]
    return [scenario.system]


def validate_scenario_or_config(data: dict) -> ValidationReport:
    """Validation report for either a bare system config or a full scenario.

    Scenario-level problems (bad detector, bad sweep, inconsistent modes)
    are reported as hard errors alongside the system config's own report.
    """
    report = ValidationReport()
    if isinstance(data, dict) and "system" in data:
        try:
            scenario_from_dict(data)
        except ScenarioError as exc:
            report.hard_errors.append(str(exc))
        data = data["system"]
    try:
        inner = validate_config(SystemConfig.from_dict(data))
    except ValueError as exc:
        inner = ValidationReport(hard_errors=[str(exc)])
    # A system error inside a scenario is already in the scenario error's message.
    report.hard_errors.extend(e for e in inner.hard_errors if not any(e in r for r in report.hard_errors))
    report.soft_warnings.extend(inner.soft_warnings)
    return report


def wilson_interval(errors: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% (by default) Wilson score interval for an error proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= errors <= trials:
        raise ValueError("errors must lie in [0, trials]")
    p = errors / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # The endpoints are exact at p == 0 and p == 1; round residue off so
    # callers see hard 0.0 / 1.0 there.
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return lo, hi


def _random_block(rng: np.random.Generator, index_len: int, symbol_len: int) -> DataBlock:
    bits = rng.integers(0, 2, size=index_len + symbol_len)
    return DataBlock(index_bits=tuple(int(b) for b in bits[:index_len]), symbol_bits=tuple(int(b) for b in bits[index_len:]))


def _impair(scenario: Scenario, signal):
    if scenario.channel.phase_rotation:
        signal = apply_phase_rotation(signal, scenario.channel.phase_rotation)
    if scenario.channel.carrier_freq_error:
        signal = apply_carrier_freq_error(signal, scenario.channel.carrier_freq_error)
    return signal


def _trial(scenario: Scenario, point, es_n0_db: float, rng: np.random.Generator):
    """One block through the link: (sent block, received signal, detection)."""
    if scenario.mode == "ofdm":
        block = _random_block(rng, (point.n_subcarriers - 1).bit_length(), (point.m - 1).bit_length())
        frame = frame_awgn(_impair(scenario, modulate_frame(block, point)), es_n0_db, rng)
        return block, frame, demodulate_frame(frame, point)
    config, plan = point
    block = _random_block(rng, config.index_bit_count, config.symbol_bit_count)
    signal = awgn(_impair(scenario, synthesize_block(block, plan, config)), es_n0_db, rng)
    if scenario.detector == "joint-ml":
        result = detect_joint_ml(signal, plan, config.m)
    elif scenario.detector == "two-stage":
        result = detect_two_stage(signal, plan, config.m, scenario.zero_pad_factor)
    else:
        result = brute_force_oracle(signal, plan, config.m)
    return block, signal, result


def _count_chunk(scenario: Scenario, point, es_n0_db: float, start: int, stop: int, dump=None) -> tuple[np.ndarray, float]:
    """Error counts (index, symbol, block, bit) and the margin sum over trials start..stop-1.

    The span is one whole chunk, or the last one; its trials draw in order
    from the chunk's stream.
    """
    rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, start // _CHUNK]))
    counts = np.zeros(4, dtype=np.int64)
    margin_sum = 0.0
    for trial in range(start, stop):
        block, received, result = _trial(scenario, point, es_n0_db, rng)
        if dump is not None and trial < _DUMP_BLOCKS:
            _dump_block(dump, trial, block, received)
        k_true = map_index(block.index_bits)
        idx_err = result.k_hat != k_true
        sym_true, sym_hat = _bits_to_int(block.symbol_bits), _bits_to_int(result.symbol_bits_hat)
        sym_err = sym_hat != sym_true
        counts[0] += idx_err
        counts[1] += sym_err
        counts[2] += idx_err or sym_err
        counts[3] += ((k_true - 1) ^ (result.k_hat - 1)).bit_count() + (sym_true ^ sym_hat).bit_count()
        margin_sum += result.runner_up_margin
    return counts, margin_sum


def run_monte_carlo(scenario: Scenario, workers: int = 1, dump_signals: IO[str] | None = None) -> list[MetricsRow]:
    """Run every sweep point and return one metrics row per point.

    Each point's trials run in fixed-size chunks, in order, in the calling
    thread.  ``workers`` is accepted for compatibility and must be >= 1; on a
    2-core host a thread pool over the chunks measured no faster than one
    thread, so it no longer selects a code path.  ``dump_signals`` (a text
    file) gets the received samples of the first few counted trials of the
    first sweep point as `t,re,im` rows with `# block` separators.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    _cross_validate(scenario)
    rows: list[MetricsRow] = []
    sweep_values = scenario.sweep.values if scenario.sweep is not None else (None,)
    for point_idx, sweep_value in enumerate(sweep_values):
        if scenario.sweep is not None and scenario.sweep.axis == "df_t":
            config = replace(scenario.system, delta_f_hz=sweep_value * scenario.system.symbol_rate)
            es_n0_db = scenario.channel.es_n0_db
        else:
            config = scenario.system
            es_n0_db = sweep_value if sweep_value is not None else scenario.channel.es_n0_db
        if scenario.mode == "fom":
            point = (config, build_frequency_plan(config))
            n, m = config.n, config.m
            df_t = config.delta_f_hz / config.symbol_rate
        else:
            point = scenario.ofdm or fom_to_ofdm_params(scenario.system)
            n, m = point.n_subcarriers, point.m
            df_t = 1.0

        dump = dump_signals if point_idx == 0 else None
        if dump is not None:
            dump.write(f"# fomlink {__version__} signal dump (first sweep point)\n")
            dump.write("t,re,im\n")
        counts = np.zeros(4, dtype=np.int64)
        margin_sum = 0.0
        for start in range(0, scenario.trials, _CHUNK):
            # Per-chunk partial sums, added in chunk order, fix the margin's rounding.
            chunk_counts, chunk_margin = _count_chunk(
                scenario, point, es_n0_db, start, min(start + _CHUNK, scenario.trials), dump
            )
            counts += chunk_counts
            margin_sum += chunk_margin
        bits_per_block = (n - 1).bit_length() + (m - 1).bit_length()
        rows.append(
            MetricsRow(
                mode=scenario.mode,
                detector=scenario.detector,
                n=n,
                m=m,
                es_n0_db=es_n0_db,
                df_t=df_t,
                trials=scenario.trials,
                index_error_rate=int(counts[0]) / scenario.trials,
                symbol_error_rate=int(counts[1]) / scenario.trials,
                block_error_rate=int(counts[2]) / scenario.trials,
                bit_error_rate=int(counts[3]) / (scenario.trials * bits_per_block),
                mean_runner_up_margin=margin_sum / scenario.trials,
                seed=scenario.seed,
            )
        )
    return rows


def _dump_block(out: IO[str], trial: int, block: DataBlock, received) -> None:
    out.write(f"# block {trial} index_bits={''.join(map(str, block.index_bits))} " f"symbol_bits={''.join(map(str, block.symbol_bits))}\n")
    for t, value in enumerate(received.samples):
        out.write(f"{t},{value.real:.12g},{value.imag:.12g}\n")


def write_metrics_csv(rows: Iterable[MetricsRow], scenario: Scenario, out: IO[str]) -> None:
    """CSV with a '#' provenance header naming the tool version and scenario."""
    out.write(f"# fomlink {__version__}; {_SEED_SCHEME}\n")
    out.write(f"# scenario: {json.dumps(scenario.to_dict(), sort_keys=True)}\n")
    out.write(METRICS_HEADER + "\n")
    for r in rows:
        out.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in astuple(r)) + "\n")


def run_efficiency_grid(spec: GridSpec, out: IO[str]) -> None:
    """Sweep the grid and write the efficiency CSV with a provenance comment."""
    comment = f"fomlink {__version__} efficiency grid: mode={spec.mode} m={list(spec.m_values)} n={list(spec.n_values)} eta={list(spec.eta_values)}"
    write_efficiency_csv(grid_sweep(spec), out, comment=comment)
