"""System description and frequency plan for a frequency-offset transmitter array.

A frequency-offset-modulation (FOM) link drives an array of ``n`` transmitters
whose center frequencies are staggered by a fixed offset ``delta_f``.  Exactly
one transmitter radiates per signaling interval, so the active index carries
``log2(n)`` bits on top of the ``log2(m)`` bits in the radiated QAM symbol.
This module owns the static link description: the parameter record, the
derived per-transmitter baseband frequency plan, and the validation rules
that decide whether a parameter set is simulatable.

Conventions: the first transmitter sits at the band origin (baseband offset
0 Hz) and offsets ascend uniformly, so offset ``k`` is ``k * delta_f`` and the
index-modulation bandwidth expansion is ``delta_b = (n - 1) * delta_f``.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields

from .codec import SUPPORTED_M, _is_power_of_two

__all__ = [
    "SystemConfig",
    "FrequencyPlan",
    "ValidationReport",
    "build_frequency_plan",
    "validate_config",
    "eta",
]

# Ratio thresholds for the small-offset / narrow-expansion approximations.
OFFSET_TO_CARRIER_WARN = 1e-3
EXPANSION_TO_BAND_WARN = 0.5
MIN_SAMPLES_PER_SYMBOL = 8
# The cap on every table the detectors build, so that what validates can be
# allocated: 4M entries (64 MiB of complex128), far above the largest use in
# the tests, demos and benchmark (in brackets).  The tables are
# - n * samples per symbol, the matched-filter table [747,648: 128 x 256 at 20 MHz];
# - n * m, joint-ml's slicing table and the oracle's distance table [32,768];
# - zero_pad_factor * n * samples per symbol: two-stage maps each of its
#   zero_pad_factor * samples-per-symbol FFT bins to the nearest of n offsets [8,192];
# - m * samples per symbol, the oracle's candidate waveforms for one offset
#   [262,144, in a test that calls the oracle directly].
# The efficiency grids (analytics.GridSpec) and the CLI's ranges are held to it too.
MAX_TABLE_ENTRIES = 1 << 22
_JSON_DEPTH = 512  # deepest JSON nesting decoded: far enough below the recursion limit that error messages can repr it


def _decode_json(text: str, error: type[ValueError] = ValueError):
    """``json.loads(text)``; text that does not decode or nests deeper than ``_JSON_DEPTH`` raises ``error``."""
    try:
        value = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal past int() conversion's digit limit
        raise error(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:  # json.loads recurses once per level, so it can fail before the walk below
        raise error("malformed JSON: nested deeper than the decoder's depth limit") from exc
    level = [value]  # the values one level down per step, walked without recursion until none is left
    for _ in range(_JSON_DEPTH + 1):
        level = [v for c in level if isinstance(c, (list, dict)) for v in (c.values() if isinstance(c, dict) else c)]
        if not level:
            return value
    raise error("malformed JSON: nested deeper than the decoder's depth limit")


def _checked_fields(cls, data, what: str, error: type[ValueError] = ValueError) -> dict:
    """Parsed JSON ``data`` as keyword arguments for the dataclass ``cls``, defaults filled in.

    The dataclass fields are the schema: ``data`` must be an object whose keys
    are fields, holding every field that has no default.
    """
    if not isinstance(data, dict):
        raise error(f"{what} must be a JSON object, got {type(data).__name__}")
    schema = fields(cls)
    unknown = sorted(set(data) - {f.name for f in schema})
    if unknown:
        raise error(f"unknown {what} keys: {', '.join(unknown)}")
    missing = sorted(f.name for f in schema if f.name not in data and f.default is MISSING)
    if missing:
        raise error(f"missing {what} keys: {', '.join(missing)}")
    return {f.name: data.get(f.name, f.default) for f in schema}


def _field_values(record) -> dict:
    """A dataclass record's fields by name, not copied: the JSON form of a flat record."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of one FOM link.

    ``bandwidth_hz`` is the bandwidth of the underlying single-transmitter
    signal, ``delta_f_hz`` the uniform transmitter spacing, ``symbol_rate``
    the signaling rate R (symbol interval T = 1/R), and ``carrier_hz`` the
    nominal carrier, used only in validation ratios.  ``oversample`` sets the
    simulation rate to ``oversample * (bandwidth_hz + delta_b_hz)``.

    Construction does not validate; pass the record to `validate_config` to
    get a report, or to `build_frequency_plan` which rejects hard errors.
    """

    n: int
    m: int
    bandwidth_hz: float
    delta_f_hz: float
    symbol_rate: float
    carrier_hz: float
    oversample: float = 4

    @property
    def delta_b_hz(self) -> float:
        """Index-modulation bandwidth expansion (n - 1) * delta_f."""
        return (self.n - 1) * self.delta_f_hz

    @property
    def sample_rate(self) -> float:
        return self.oversample * (self.bandwidth_hz + self.delta_b_hz)

    @property
    def samples_per_symbol(self) -> int:
        # Via the interval length so it agrees exactly with signal checks.
        return int(round(self.sample_rate * (1.0 / self.symbol_rate)))

    @property
    def index_bit_count(self) -> int:
        return (self.n - 1).bit_length()

    @property
    def symbol_bit_count(self) -> int:
        return (self.m - 1).bit_length()

    def to_dict(self) -> dict:
        return _field_values(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        """Build a config from parsed JSON.  Unknown keys are an error."""
        return cls(**_checked_fields(cls, data, "system config"))

    @classmethod
    def from_json(cls, text: str) -> "SystemConfig":
        return cls.from_dict(_decode_json(text))


@dataclass(frozen=True)
class FrequencyPlan:
    """Baseband offsets of the n transmitters, ascending, offsets[0] == 0."""

    offsets: tuple[float, ...]
    delta_b: float

    @property
    def tx_count(self) -> int:
        return len(self.offsets)


@dataclass
class ValidationReport:
    hard_errors: list[str] = field(default_factory=list)
    soft_warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.hard_errors


def _is_real(value) -> bool:
    """A finite int or float.  JSON true/false and 1e400 (parsed as inf) are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def validate_config(config: SystemConfig) -> ValidationReport:
    """Check a config and return every violated rule.

    Hard errors make the config unusable for planning or simulation: an n
    that is not a power of two, an m outside codec.SUPPORTED_M, scalars that
    are not finite numbers, nonpositive bandwidth / symbol rate / offset /
    carrier, oversample below 2, or a sample count per symbol interval that
    overflows, falls below MIN_SAMPLES_PER_SYMBOL, or times n exceeds
    MAX_TABLE_ENTRIES, and an n * m above MAX_TABLE_ENTRIES.  Soft
    warnings flag parameter sets that are simulatable but strain the design
    approximations: offsets that are not small next to the carrier
    (delta_f / carrier > 1e-3) or a bandwidth expansion that is not small
    next to the band itself (delta_b / bandwidth > 0.5).
    """
    report = ValidationReport()
    n, m = config.n, config.m
    if not _is_power_of_two(n):
        report.hard_errors.append(f"n must be a power-of-two integer >= 1, got {n!r}")
    if not _is_power_of_two(m) or m not in SUPPORTED_M:
        report.hard_errors.append(f"m must be one of {SUPPORTED_M}, got {m!r}")
    counts_ok = not report.hard_errors
    if counts_ok and n * m > MAX_TABLE_ENTRIES:
        report.hard_errors.append(f"n * m = {n * m} exceeds {MAX_TABLE_ENTRIES}, the largest slicing table simulated")

    scalars_ok = True
    for name, value in (
        ("bandwidth_hz", config.bandwidth_hz),
        ("symbol_rate", config.symbol_rate),
        ("carrier_hz", config.carrier_hz),
    ):
        if not _is_real(value) or not value > 0:
            report.hard_errors.append(f"{name} must be a finite positive number, got {value!r}")
            scalars_ok = False
    if not _is_real(config.delta_f_hz) or (counts_ok and config.n > 1 and not config.delta_f_hz > 0):
        report.hard_errors.append(f"delta_f_hz must be a finite number, positive when n > 1, got {config.delta_f_hz!r}")
        scalars_ok = False
    if not _is_real(config.oversample) or not config.oversample >= 2:
        report.hard_errors.append(f"oversample must be a finite number >= 2, got {config.oversample!r}")
        scalars_ok = False

    # An n beyond the float range, over the n * m cap already, has no sample rate.
    if counts_ok and scalars_ok and _is_real(config.n):
        spb = config.sample_rate * (1.0 / config.symbol_rate)  # samples_per_symbol before rounding
        if not math.isfinite(spb):
            report.hard_errors.append(
                f"samples per symbol overflow at sample rate {config.sample_rate:g} Hz "
                f"and symbol rate {config.symbol_rate:g} Hz"
            )
        elif round(spb) < MIN_SAMPLES_PER_SYMBOL:
            report.hard_errors.append(
                f"only {round(spb)} samples per symbol at sample rate {config.sample_rate:g} Hz; "
                f"need at least {MIN_SAMPLES_PER_SYMBOL} (raise oversample or bandwidth)"
            )
        elif config.n * round(spb) > MAX_TABLE_ENTRIES:
            report.hard_errors.append(
                f"n * samples per symbol = {config.n * round(spb)} exceeds {MAX_TABLE_ENTRIES}, "
                "the largest matched-filter table simulated (lower n, oversample or bandwidth)"
            )
        if config.n > 1:
            offset_ratio = config.delta_f_hz / config.carrier_hz
            if offset_ratio > OFFSET_TO_CARRIER_WARN:
                report.soft_warnings.append(
                    f"delta_f/carrier = {offset_ratio:.3g} exceeds {OFFSET_TO_CARRIER_WARN:g}; "
                    "offsets are not small relative to the carrier"
                )
            expansion_ratio = eta(config)
            if expansion_ratio > EXPANSION_TO_BAND_WARN:
                report.soft_warnings.append(
                    f"delta_b/bandwidth = {expansion_ratio:.3g} exceeds {EXPANSION_TO_BAND_WARN:g}; "
                    "bandwidth expansion is not small relative to the band"
                )
    return report


def build_frequency_plan(config: SystemConfig) -> FrequencyPlan:
    """Lay out the n transmitter offsets: offsets[k] = k * delta_f.

    Rejects configs with hard validation errors.
    """
    report = validate_config(config)
    if report.hard_errors:
        raise ValueError("invalid config: " + "; ".join(report.hard_errors))
    return _frequency_plan(config)


def _frequency_plan(config: SystemConfig) -> FrequencyPlan:
    """`build_frequency_plan` for a config that has already passed `validate_config`."""
    offsets = tuple(k * config.delta_f_hz for k in range(config.n))
    return FrequencyPlan(offsets=offsets, delta_b=config.delta_b_hz)


def eta(config: SystemConfig) -> float:
    """Relative bandwidth expansion (n - 1) * delta_f / bandwidth."""
    if not config.bandwidth_hz > 0:
        raise ValueError(f"bandwidth_hz must be positive, got {config.bandwidth_hz!r}")
    return config.delta_b_hz / config.bandwidth_hz
