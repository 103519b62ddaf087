"""Scenario-driven Monte-Carlo harness with reproducible error statistics.

A scenario bundles a system config, channel impairments, a detector choice,
and a trial budget, plus an optional one-axis sweep: a list of es_n0_db
points, or a list of df_t products (offset-step times symbol interval)
realized by scaling delta_f while holding the symbol rate fixed, which also
rescales the occupied band and eta for that point.

Reproducibility contract: the trials of a sweep point run in chunks of
``_CHUNK``; chunk ``c`` draws from ``default_rng(SeedSequence([seed, c]))``
first its trials' payloads, one `integers` call of one value per trial,
then each trial's noise in trial order.  Distinct seeds therefore give
independent streams, every sweep point sends the same payloads, noiseless
ones included, and aggregation is plain counting in fixed chunk order.  The
same (scenario, seed) always produces a byte-identical metrics CSV.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import IO, Iterable

import numpy as np

from ._version import __version__
from .codec import _int_to_bits
from .ofdm import OfdmConfig, _ofdm_link, fom_to_ofdm_params
from .phy import (
    DETECTORS,
    ChannelSpec,
    _cfo_phasor,
    _checked_es_n0,
    _checked_zero_pad,
    _fom_link,
    awgn,
    detect_joint_ml,  # not called here: linkbench's tracing tests look it up in this namespace
)
from .system import (
    MAX_TABLE_ENTRIES,
    SystemConfig,
    ValidationReport,
    _checked_fields,
    _decode_json,
    _field_values,
    _frequency_plan,
    _is_real,
    validate_config,
)
from .analytics import _fmt

__all__ = [
    "Scenario",
    "Sweep",
    "MetricsRow",
    "ScenarioError",
    "scenario_from_dict",
    "scenario_from_json",
    "run_monte_carlo",
    "write_metrics_csv",
    "wilson_interval",
]

MODES = ("fom", "ofdm")
SWEEP_AXES = ("es_n0_db", "df_t")

_CHUNK = 1024
_DUMP_BLOCKS = 8
_SEED_SCHEME = f"chunk c of {_CHUNK} trials draws from default_rng(SeedSequence([seed, c])) its payload values, then each trial's noise"


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario description."""


@dataclass(frozen=True)
class Sweep:
    """One sweep axis and its points, checked when built and stored as a tuple of floats (a None es_n0_db is +inf)."""

    axis: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ScenarioError(f"sweep axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        if not isinstance(self.values, (list, tuple)) or not self.values:
            raise ScenarioError("sweep values must be a non-empty list")
        if self.axis == "es_n0_db":
            values = tuple(_checked_es_n0(v, ScenarioError) for v in self.values)
        elif any(not _is_real(v) or not v > 0 for v in self.values):
            raise ScenarioError("df_t sweep values must be positive numbers")
        else:
            values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class Scenario:
    """One Monte-Carlo run, checked when it is built: an inconsistent one raises the ScenarioError that `simulate` prints."""

    system: SystemConfig
    channel: ChannelSpec
    detector: str
    trials: int
    seed: int
    mode: str = "fom"
    ofdm: OfdmConfig | None = None
    sweep: Sweep | None = None
    zero_pad_factor: int = 16

    def __post_init__(self) -> None:
        if self.detector not in DETECTORS:
            raise ScenarioError(f"detector must be one of {DETECTORS}, got {self.detector!r}")
        if self.mode not in MODES:
            raise ScenarioError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.trials, int) or isinstance(self.trials, bool) or self.trials < 1:
            raise ScenarioError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise ScenarioError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        _checked_zero_pad(self.zero_pad_factor, ScenarioError)
        for name, record in (("system", SystemConfig), ("channel", ChannelSpec), ("ofdm", OfdmConfig), ("sweep", Sweep)):
            value, optional = getattr(self, name), name in ("ofdm", "sweep")
            if not (isinstance(value, record) or optional and value is None):
                raise ScenarioError(f"{name} must be {record.__name__}{' or None' if optional else ''}, got {type(value).__name__}")
        object.__setattr__(self, "_reports", _cross_validate(self))  # not a field: `validate` reads it

    def to_dict(self) -> dict:
        """The JSON form: a noiseless es_n0_db is null, a sweep is {axis: [values]}, unset records are left out."""
        out = {k: v for k, v in _field_values(self).items() if v is not None}
        out["system"] = self.system.to_dict()
        out["channel"] = {**_field_values(self.channel), "es_n0_db": _null_if_inf(self.channel.es_n0_db)}
        if self.ofdm is not None:
            out["ofdm"] = _field_values(self.ofdm)
        if self.sweep is not None:
            out["sweep"] = {self.sweep.axis: [_null_if_inf(v) for v in self.sweep.values]}
        return out


def _null_if_inf(es_n0_db: float) -> float | None:
    return None if es_n0_db == math.inf else es_n0_db


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


def _parse_record(cls, data, what: str, prefix: str = ""):
    """Record ``cls`` from parsed JSON ``data``; its ValueError is a ScenarioError after ``prefix``."""
    values = _checked_fields(cls, data, what, ScenarioError)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{prefix}{exc}") from exc


def _parse_sweep(data) -> Sweep:
    if not isinstance(data, dict) or len(data) != 1:
        raise ScenarioError('sweep must be an object with exactly one axis, e.g. {"es_n0_db": [0, 5, 10]}')
    return Sweep(*next(iter(data.items())))


def scenario_from_dict(data: dict) -> Scenario:
    """Map a parsed JSON scenario onto its records, which check their own fields.

    Parsing adds only the schema (unknown or missing keys, objects where records
    go, one sweep axis) and the ``bad channel spec:``/``bad ofdm spec:`` prefixes.
    """
    data = _checked_fields(Scenario, data, "scenario", ScenarioError)
    system = _parse_record(SystemConfig, data["system"], "system config")
    channel = _parse_record(ChannelSpec, data["channel"], "channel", "bad channel spec: ")
    ofdm = _parse_record(OfdmConfig, data["ofdm"], "ofdm", "bad ofdm spec: ") if data["ofdm"] is not None else None
    sweep = _parse_sweep(data["sweep"]) if data["sweep"] is not None else None
    return Scenario(**{**data, "system": system, "channel": channel, "ofdm": ofdm, "sweep": sweep})


def scenario_from_json(text: str) -> Scenario:
    return scenario_from_dict(_decode_json(text, ScenarioError))


def _cross_validate(scenario: Scenario) -> list[ValidationReport]:
    if scenario.mode == "ofdm":
        if scenario.detector != "joint-ml":
            raise ScenarioError(f"ofdm mode supports only the joint-ml detector, got {scenario.detector!r}")
        if scenario.sweep is not None and scenario.sweep.axis == "df_t":
            raise ScenarioError("df_t sweeps require fom mode (subcarrier spacing is fixed by the frame)")
    elif scenario.ofdm is not None:
        raise ScenarioError(f"an ofdm object needs mode 'ofdm', got mode {scenario.mode!r}")
    spans = []  # samples per row and sample rate of each point, over which the CFO phasor runs
    # The reports of the configs checked: a df_t sweep derives one config per point from the
    # scenario's, which is checked first; an es_n0_db sweep shares the scenario's.
    reports = [_check_config(scenario.system)] if scenario.sweep is not None and scenario.sweep.axis == "df_t" else []
    for config in {id(config): config for config, _ in _points(scenario)}.values():
        reports.append(_check_config(config))
        samples = config.samples_per_symbol
        if scenario.detector == "two-stage" and scenario.zero_pad_factor * config.n * samples > MAX_TABLE_ENTRIES:
            raise ScenarioError(
                f"zero_pad_factor * n * samples per symbol = {scenario.zero_pad_factor * config.n * samples} "
                f"(delta_f_hz={config.delta_f_hz!r}) exceeds {MAX_TABLE_ENTRIES}, "
                "the largest two-stage snap table simulated (lower zero_pad_factor)"
            )
        if scenario.detector == "oracle" and config.m * samples > MAX_TABLE_ENTRIES:
            raise ScenarioError(
                f"m * samples per symbol = {config.m * samples} (delta_f_hz={config.delta_f_hz!r}) "
                f"exceeds {MAX_TABLE_ENTRIES}, the largest oracle block simulated"
            )
        spans.append((samples, config.sample_rate))
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
        spans = [(frame.frame_len, frame.sample_rate)]
    delta_hz = scenario.channel.carrier_freq_error
    if delta_hz:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing phasor is an input error, not a warning
            if not all(np.isfinite(_cfo_phasor(delta_hz, *span)).all() for span in spans):
                raise ScenarioError(f"carrier_freq_error = {delta_hz!r} Hz overflows its phasor within one symbol interval")
    return reports


def _check_config(config: SystemConfig) -> ValidationReport:
    report = validate_config(config)
    if report.hard_errors:
        raise ScenarioError(f"invalid system config (delta_f_hz={config.delta_f_hz!r}): " + "; ".join(report.hard_errors))
    return report


def _points(scenario: Scenario) -> list[tuple[SystemConfig, float]]:
    """Each sweep point's system config and es_n0_db, in sweep order."""
    system, es_n0_db, sweep = scenario.system, scenario.channel.es_n0_db, scenario.sweep
    if sweep is None:
        return [(system, es_n0_db)]
    if sweep.axis == "df_t":
        return [(replace(system, delta_f_hz=df_t * system.symbol_rate), es_n0_db) for df_t in sweep.values]
    return [(system, value) for value in sweep.values]


def validate_scenario_or_config(data: dict) -> ValidationReport:
    """Validation report for either a bare system config or a full scenario.

    Other problems (a bad detector, channel, ofdm spec or sweep) are hard errors
    beside the system config's own.  The soft warnings are the system's, then,
    for a valid scenario, each of those its df_t sweep's configs raise, once, in
    sweep order, from the reports its own checks made and kept on the scenario.
    """
    report, checked = ValidationReport(), []  # a valid scenario's reports: its system's, then each swept config's
    if isinstance(data, dict) and "system" in data:
        try:
            checked = scenario_from_dict(data)._reports
        except ScenarioError as exc:
            report.hard_errors.append(str(exc))
        data = data["system"]
    try:
        config = SystemConfig.from_dict(data)
        system = checked[0] if checked else validate_config(config)
        own = f"invalid system config (delta_f_hz={config.delta_f_hz!r}): " + "; ".join(system.hard_errors)
    except ValueError as exc:
        system, own = ValidationReport(hard_errors=[str(exc)]), str(exc)
    if own not in report.hard_errors:  # else the scenario error is the system's own, which lists its errors
        report.hard_errors.extend(system.hard_errors)
    report.soft_warnings.extend(dict.fromkeys(w for config_report in [system, *checked[1:]] for w in config_report.soft_warnings))
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


def _sweep_point(scenario: Scenario, config: SystemConfig):
    """The link that runs ``config`` (a swept copy of the scenario's system),
    its tables built, and the carrier frequency error's phasor (None without one)."""
    if scenario.mode == "fom":
        plan = _frequency_plan(config)
        link = _fom_link(scenario.detector, plan, config.m, config.samples_per_symbol, config.sample_rate, scenario.zero_pad_factor)
    else:
        link = _ofdm_link(scenario.ofdm or fom_to_ofdm_params(config))
    delta_hz = scenario.channel.carrier_freq_error
    return link, _cfo_phasor(delta_hz, link.width, link.sample_rate) if delta_hz else None


def _count_chunk(scenario: Scenario, point, es_n0_db: float, start: int, stop: int, dump=None) -> tuple[list[int], float]:
    """Error counts (index, symbol, block, bit) and the margin sum over trials start..stop-1.

    The span is one whole chunk, or the last one.  Its stream first gives
    every trial's payload, one value each whose bits, MSB first, are the
    index bits and then the pattern bits, and then each trial's noise.
    ``point`` is `_sweep_point`'s (link, phasor).  Each block of at most
    ``link.rows`` rows, one trial each, is built in one step: the link's
    transmitter writes the whole block, then rotation and CFO multiply it.
    Only the noise runs per trial, one `awgn` call per row in trial order;
    then rows of the first ``_DUMP_BLOCKS`` trials go to ``dump`` and the
    link detects the block as one batch.  Every row is bit for bit
    what the public chain (`synthesize_block` or `modulate_frame`,
    `apply_phase_rotation`, `apply_carrier_freq_error`, `awgn` or
    `frame_awgn`) computes for the same draws.
    """
    link, phasor = point
    rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, start // _CHUNK]))
    theta = scenario.channel.phase_rotation
    index_len, symbol_len = scenario.system.index_bit_count, scenario.system.symbol_bit_count
    size = stop - start
    # (index, pattern) rows; drawn as whole values, they need no map_index check.
    truth = np.array(np.divmod(rng.integers(0, 1 << (index_len + symbol_len), size=size), 1 << symbol_len))
    rotation = np.exp(1j * theta)
    received_rows = np.empty((min(size, link.rows), link.width), dtype=np.complex128)
    dumped = _DUMP_BLOCKS - start if dump is not None else 0  # the chunk's trials r < dumped are dumped
    # Every trial's decided index and pattern and its margin: counted after the last block.
    decided = np.empty((2, size), dtype=np.int64)
    margins = np.empty(size)
    for lo in range(0, size, link.rows):
        hi = min(lo + link.rows, size)
        block = received_rows[: hi - lo]
        link.transmit(truth[0, lo:hi], truth[1, lo:hi], block)
        if theta:
            block *= rotation
        if phasor is not None:
            block *= phasor
        for row in block:
            row[...] = awgn(row, es_n0_db, rng, link.symbol_energy)
        for r in range(lo, min(hi, dumped)):
            index, pattern = truth[:, r].tolist()
            _dump_block(dump, start + r, _int_to_bits(index, index_len), _int_to_bits(pattern, symbol_len), block[r - lo])
        decided[0, lo:hi], decided[1, lo:hi], _, margins[lo:hi] = link.detect(block)
    index_err, pattern_err = decided != truth
    counts = [int(np.count_nonzero(e)) for e in (index_err, pattern_err, index_err | pattern_err)]
    counts.append(int(np.bitwise_count(decided ^ truth).sum()))
    # Added one trial after another, as a running float sum, so the mean rounds as it always has.
    return counts, float(np.cumsum(margins)[-1])


def run_monte_carlo(scenario: Scenario, workers: int = 1, dump_signals: IO[str] | None = None) -> list[MetricsRow]:
    """Run every sweep point and return one metrics row per point.

    Each point's tables are built once, before its first trial, and dropped
    after its last.  Its trials run in fixed-size chunks, in order, in the
    calling thread.  ``workers`` is accepted for compatibility and must be
    >= 1; on a 2-core host a thread pool over the chunks measured no faster
    than one thread, so it no longer selects a code path.  ``dump_signals``
    (a text file) gets the received samples of the first few counted trials
    of the first sweep point as `t,re,im` rows with `# block` separators.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    rows: list[MetricsRow] = []
    for point_idx, (config, es_n0_db) in enumerate(_points(scenario)):
        point = _sweep_point(scenario, config)
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
        bits_per_block = config.index_bit_count + config.symbol_bit_count
        rows.append(
            MetricsRow(
                mode=scenario.mode,
                detector=scenario.detector,
                n=config.n,
                m=config.m,
                es_n0_db=es_n0_db,
                df_t=config.delta_f_hz / config.symbol_rate,
                trials=scenario.trials,
                index_error_rate=int(counts[0]) / scenario.trials,
                symbol_error_rate=int(counts[1]) / scenario.trials,
                block_error_rate=int(counts[2]) / scenario.trials,
                bit_error_rate=int(counts[3]) / (scenario.trials * bits_per_block),
                mean_runner_up_margin=margin_sum / scenario.trials,
                seed=scenario.seed,
            )
        )
        del point  # its tables go now, not after the next point has built its own
    return rows


def _dump_block(out: IO[str], trial: int, index_bits: tuple[int, ...], symbol_bits: tuple[int, ...], samples) -> None:
    out.write(f"# block {trial} index_bits={''.join(map(str, index_bits))} " f"symbol_bits={''.join(map(str, symbol_bits))}\n")
    for t, value in enumerate(samples):
        out.write(f"{t},{value.real:.12g},{value.imag:.12g}\n")


def write_metrics_csv(rows: Iterable[MetricsRow], scenario: Scenario, out: IO[str]) -> None:
    """CSV with a '#' provenance header naming the tool version and scenario."""
    out.write(f"# fomlink {__version__}; {_SEED_SCHEME}\n")
    out.write(f"# scenario: {json.dumps(scenario.to_dict(), sort_keys=True)}\n")
    out.write(METRICS_HEADER + "\n")
    for r in rows:
        out.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in _field_values(r).values()) + "\n")
