"""Closed-form efficiency analysis for index-modulated transmitter arrays.

Per signaling interval a FOM link radiates one QAM symbol (log2 m bits) from
one of n transmitters (log2 n bits) while expanding the occupied band from B
to B + delta_b, with eta = delta_b / B.  The figures of merit implemented
here compare that scheme against the single-transmitter baseline:

    energy ratio     gamma_ee = log2(m) / (log2(m) + log2(n)) = 1 / (1 + log_m n)
    baseline SE      e0 = R * log2(m) / B
    FOM SE           es = R * (log2(m) + log2(n)) / (B + delta_b)
    SE ratio         gamma_se = (1 + log_m n) / (1 + eta)

gamma_se >= 1 exactly when n >= m**eta, so `min_tx_count` returns the
break-even array size.  A two-dimensional index variant (two independent
index choices of size n each) doubles the index term: gamma_ee becomes
1 / (1 + 2 log_m n) and gamma_se becomes (1 + 2 log_m n) / (1 + eta).

All functions accept real-valued m and n so the design space can be swept
continuously; the link modules themselves require powers of two.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from ._version import __version__
from .system import MAX_TABLE_ENTRIES

__all__ = [
    "EfficiencyPoint",
    "GridSpec",
    "energy_efficiency_ratio",
    "symbol_spectral_efficiency",
    "fom_spectral_efficiency",
    "spectral_efficiency_ratio",
    "min_tx_count",
    "hybrid_ratios",
    "grid_sweep",
    "preset_grid",
    "write_efficiency_csv",
    "run_efficiency_grid",
]

CSV_HEADER = "m,n,eta,gamma_ee,gamma_se,e0,es"
_FLOAT_MAX = math.nextafter(math.inf, 0.0)  # the largest float: an int above it (10**400) has no float, so is not finite


def _check_m(m: float) -> None:
    if not 1 < m < math.inf:
        raise ValueError(f"m must be finite and exceed 1, got {m!r}")


def _check_n(n: float) -> None:
    if not 1 <= n < math.inf:
        raise ValueError(f"n must be finite and at least 1, got {n!r}")


def _check_mn(m: float, n: float) -> None:
    _check_m(m)
    _check_n(n)


def _check_eta(value: float) -> None:
    if not 0 <= value <= _FLOAT_MAX:
        raise ValueError(f"eta must be finite and nonnegative, got {value!r}")


def _check_rates(symbol_rate: float, bandwidth_hz: float) -> None:
    if not (0 < symbol_rate <= _FLOAT_MAX and 0 < bandwidth_hz <= _FLOAT_MAX):
        raise ValueError("symbol_rate and bandwidth_hz must be finite and positive")


def _check_delta_b(delta_b_hz: float) -> None:
    if not 0 <= delta_b_hz <= _FLOAT_MAX:
        raise ValueError(f"delta_b_hz must be finite and nonnegative, got {delta_b_hz!r}")


# The closed forms, unchecked: each public function checks its own inputs, and GridSpec the grid walk's.
def _index_term(m: float, n: float) -> float:
    # log_m(n), the index bits per symbol bit.
    return math.log2(n) / math.log2(m)


def _ratios(term: float, eta: float) -> tuple[float, float]:
    # (gamma_ee, gamma_se) for `term` index bits per symbol bit.
    return 1.0 / (1.0 + term), (1.0 + term) / (1.0 + eta)


def _efficiency(rate: float, bits: float, band: float) -> float:
    return rate * bits / band


def _positive(name: str, value: float) -> float:
    if not 0 < value <= _FLOAT_MAX:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


def energy_efficiency_ratio(m: float, n: float) -> float:
    """Transmit energy per bit, FOM relative to the one-transmitter baseline.

    Equals log2(m) / (log2(m) + log2(n)); always in (0, 1], and 1 only when
    n == 1 (no index bits, nothing gained or spent).
    """
    _check_mn(m, n)
    return _ratios(_index_term(m, n), 0.0)[0]


def symbol_spectral_efficiency(symbol_rate: float, m: float, bandwidth_hz: float) -> float:
    """Baseline bits/s/Hz: R * log2(m) / B."""
    _check_rates(symbol_rate, bandwidth_hz)
    _check_m(m)
    return _positive("e0", _efficiency(symbol_rate, math.log2(m), bandwidth_hz))


def fom_spectral_efficiency(symbol_rate: float, m: float, n: float, bandwidth_hz: float, delta_b_hz: float) -> float:
    """FOM bits/s/Hz: R * (log2(m) + log2(n)) / (B + delta_b)."""
    _check_rates(symbol_rate, bandwidth_hz)
    _check_delta_b(delta_b_hz)
    _check_mn(m, n)
    return _positive("es", _efficiency(symbol_rate, math.log2(m) + math.log2(n), bandwidth_hz + delta_b_hz))


def spectral_efficiency_ratio(m: float, n: float, eta: float) -> float:
    """Spectral efficiency gain over the baseline: (1 + log_m n) / (1 + eta)."""
    _check_mn(m, n)
    _check_eta(eta)
    return _ratios(_index_term(m, n), eta)[1]


def min_tx_count(m: float, eta: float) -> float:
    """Smallest array size with spectral_efficiency_ratio >= 1: m ** eta, computed in floats."""
    _check_m(m)
    _check_eta(eta)
    try:
        return float(m) ** float(eta)
    except OverflowError:
        raise ValueError(f"m ** eta must be finite as a float, got m={m!r} and eta={eta!r}") from None


def hybrid_ratios(m: float, n: float, eta: float) -> tuple[float, float]:
    """(gamma_ee, gamma_se) when two independent size-n index choices are used.

    The second index dimension doubles the index bits per interval, so the
    index term 2 * log_m(n) replaces log_m(n) in both ratios.
    """
    _check_mn(m, n)
    _check_eta(eta)
    return _ratios(2.0 * _index_term(m, n), eta)


@dataclass(frozen=True)
class EfficiencyPoint:
    """One design point; e0/es are filled only when R and B are known."""

    m: float
    n: float
    eta: float
    gamma_ee: float
    gamma_se: float
    e0: float | None = None
    es: float | None = None


@dataclass(frozen=True)
class GridSpec:
    """A rectangular design-space sweep of m (outer) against n or eta (inner).

    At most one of n_values and eta_values holds more than one value, and
    `mode` names the swept pair: "vary-m-eta" when eta varies, "vary-m-n"
    otherwise.  symbol_rate and bandwidth_hz are optional; when given,
    absolute spectral efficiencies e0/es are emitted as well, with delta_b
    taken as eta * bandwidth_hz.  The grid may hold at most
    system.MAX_TABLE_ENTRIES points, and each value is checked here against
    the rules the public functions apply, with e0 and es finite and positive at every point,
    so the grid walk checks nothing again.
    """

    m_values: tuple[float, ...]
    n_values: tuple[float, ...]
    eta_values: tuple[float, ...]
    symbol_rate: float | None = None
    bandwidth_hz: float | None = None

    def __post_init__(self) -> None:
        for name, axis in (("m_values", self.m_values), ("n_values", self.n_values), ("eta_values", self.eta_values)):
            if len(axis) == 0:
                raise ValueError(f"{name} must not be empty")
        if len(self.n_values) > 1 and len(self.eta_values) > 1:
            raise ValueError("sweep either n_values or eta_values, not both")
        if (self.symbol_rate is None) != (self.bandwidth_hz is None):
            raise ValueError("symbol_rate and bandwidth_hz must be supplied together")
        size = len(self.m_values) * len(self.n_values) * len(self.eta_values)
        if size > MAX_TABLE_ENTRIES:
            raise ValueError(f"an m x n x eta grid of {size} points exceeds {MAX_TABLE_ENTRIES}, the largest grid swept")
        # Each value once, by the public functions' rules (with rates set, a bad eta fails as its delta_b, one beyond the float
        # range as its own); then e0 and es at the two corners that bound every row, as each formula is monotone on every axis.
        if self.bandwidth_hz is not None:
            _check_rates(self.symbol_rate, self.bandwidth_hz)
        for m in self.m_values:
            _check_m(m)
        for n in self.n_values:
            _check_n(n)
        for eta in self.eta_values:
            if self.bandwidth_hz is not None:
                _check_delta_b(eta * self.bandwidth_hz if abs(eta) <= _FLOAT_MAX else eta)
            _check_eta(eta)
        if self.bandwidth_hz is not None:
            for p in (_point(self, max(self.m_values), max(self.n_values), min(self.eta_values)),
                      _point(self, min(self.m_values), min(self.n_values), max(self.eta_values))):
                if not (0 < p.e0 <= _FLOAT_MAX and 0 < p.es <= _FLOAT_MAX):
                    rule = "positive" if math.isfinite(p.e0 + p.es) else "finite"
                    raise ValueError(f"e0 and es must be {rule}, got {p.e0!r} and {p.es!r} at m={p.m!r}, n={p.n!r}, eta={p.eta!r}")

    @property
    def mode(self) -> str:
        return "vary-m-eta" if len(self.eta_values) > 1 else "vary-m-n"


def _point(spec: GridSpec, m: float, n: float, eta: float) -> EfficiencyPoint:
    """One point from the formulas alone: `GridSpec` has checked every value it takes."""
    gamma_ee, gamma_se = _ratios(_index_term(m, n), eta)
    e0 = es = None
    if spec.bandwidth_hz is not None:
        e0 = _efficiency(spec.symbol_rate, math.log2(m), spec.bandwidth_hz)
        es = _efficiency(spec.symbol_rate, math.log2(m) + math.log2(n), spec.bandwidth_hz + eta * spec.bandwidth_hz)
    return EfficiencyPoint(m=m, n=n, eta=eta, gamma_ee=gamma_ee, gamma_se=gamma_se, e0=e0, es=es)


def _walk_grid(spec: GridSpec) -> Iterator[EfficiencyPoint]:
    """The grid's points, one at a time: m outer, the varied axis inner (the other holds one value)."""
    return (_point(spec, m, n, eta) for m, n, eta in itertools.product(spec.m_values, spec.n_values, spec.eta_values))


def grid_sweep(spec: GridSpec) -> list[EfficiencyPoint]:
    """Evaluate the grid in deterministic order: m outer, the varied axis inner."""
    return list(_walk_grid(spec))


def _log_spaced(start: float, stop: float, count: int) -> tuple[float, ...]:
    ratio = (stop / start) ** (1.0 / (count - 1))
    values = [start * ratio**i for i in range(count)]
    values[-1] = stop
    return tuple(values)


_POW2_M = tuple(float(2**k) for k in range(1, 13))  # 2 .. 4096
_POW2_N = tuple(float(2**k) for k in range(0, 8))  # 1 .. 128
_ETA_GRID = _log_spaced(1e-3, 1e-1, 25)

_PRESETS = {
    "fig4a": GridSpec(m_values=_POW2_M, n_values=_POW2_N, eta_values=(0.01,)),
    "fig4b": GridSpec(m_values=_POW2_M, n_values=_POW2_N, eta_values=(0.1,)),
    "fig5": GridSpec(m_values=_POW2_M, n_values=(128.0,), eta_values=_ETA_GRID),
}

PRESET_NAMES = tuple(_PRESETS)


def preset_grid(name: str) -> GridSpec:
    """Canonical sweep grids: power-of-two m up to 4096 and n up to 128,
    with eta fixed at 0.01 (fig4a) or 0.1 (fig4b), or 25 log-spaced eta in
    [0.001, 0.1] at n = 128 (fig5)."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {', '.join(_PRESETS)}")
    return _PRESETS[name]


def _fmt(value: float | None) -> str:
    return "" if value is None else format(value, ".9g")


def write_efficiency_csv(points: Iterable[EfficiencyPoint], out: IO[str], comment: str | None = None) -> None:
    """Write points as CSV with 9-significant-digit floats.

    ``comment`` lines (provenance) are emitted first, '#'-prefixed.
    """
    if comment:
        for line in comment.splitlines():
            out.write(f"# {line}\n")
    out.write(CSV_HEADER + "\n")
    for p in points:
        out.write(",".join(_fmt(v) for v in (p.m, p.n, p.eta, p.gamma_ee, p.gamma_se, p.e0, p.es)) + "\n")


def run_efficiency_grid(spec: GridSpec, out: IO[str]) -> None:
    """Write the efficiency CSV with a provenance comment, each row as the grid walk yields it."""
    comment = f"fomlink {__version__} efficiency grid: mode={spec.mode} m={list(spec.m_values)} n={list(spec.n_values)} eta={list(spec.eta_values)}"
    write_efficiency_csv(_walk_grid(spec), out, comment=comment)
