"""Subcarrier-index OFDM twin of the frequency-offset link.

With the offset step equal to both the subcarrier spacing and the symbol
rate (delta_f = spacing = R) and no cyclic prefix, a FOM interval is one
OFDM frame: the matched-filter bank over the offset plan equals the DFT bin
vector times a fixed scalar (sqrt(N) under the orthonormal DFT used here).
Two index conventions are supported per frame:

    single-active  only subcarrier k carries the QAM symbol
    single-silent  subcarrier k is zeroed, every other one repeats the symbol

Receive processing strips the prefix, takes the orthonormal DFT, picks the
index by bin energy (argmax for single-active, argmin for single-silent)
and demaps the symbol from the winning bin, or, for single-silent, from the
energy-weighted average of the active bins.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .codec import SUPPORTED_M, DataBlock, _block_value, _demap_patterns, _is_power_of_two, constellation
from .phy import _BLOCK_SAMPLES, DetectionResult, _at, _detection, _Link, _pick, awgn
from .system import SystemConfig, _is_real

__all__ = [
    "OfdmConfig",
    "OfdmFrame",
    "fom_to_ofdm_params",
    "modulate_frame",
    "demodulate_frame",
    "frame_awgn",
]

INDEX_MODES = ("single-active", "single-silent")
_SYMBOL_ENERGY = 1.0  # `awgn`'s calibration per unit-energy subcarrier symbol; see `frame_awgn`


@dataclass(frozen=True)
class OfdmConfig:
    n_subcarriers: int
    spacing_hz: float
    m: int
    cp_len: int = 0
    index_mode: str = "single-active"

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.n_subcarriers) or self.n_subcarriers < 2:
            raise ValueError(f"n_subcarriers must be a power-of-two integer >= 2, got {self.n_subcarriers!r}")
        if not _is_real(self.spacing_hz) or not self.spacing_hz > 0:
            raise ValueError(f"spacing_hz must be a finite positive number, got {self.spacing_hz!r}")
        if not _is_power_of_two(self.m) or self.m not in SUPPORTED_M:
            raise ValueError(f"m must be one of {SUPPORTED_M}, got {self.m!r}")
        if isinstance(self.cp_len, bool) or not isinstance(self.cp_len, int) or self.cp_len < 0:
            raise ValueError(f"cp_len must be a nonnegative integer, got {self.cp_len!r}")
        if self.cp_len > self.n_subcarriers:
            raise ValueError(f"cp_len must not exceed n_subcarriers ({self.n_subcarriers}), got {self.cp_len}")
        if self.index_mode not in INDEX_MODES:
            raise ValueError(f"index_mode must be one of {INDEX_MODES}, got {self.index_mode!r}")

    @property
    def sample_rate(self) -> float:
        return self.n_subcarriers * self.spacing_hz

    @property
    def frame_len(self) -> int:
        return self.n_subcarriers + self.cp_len


@dataclass(frozen=True)
class OfdmFrame:
    """cp_len prefix samples followed by the N-sample payload."""

    time_samples: np.ndarray
    sample_rate: float

    @property
    def samples(self) -> np.ndarray:
        """The time samples, under the name the `phy` channel functions read."""
        return self.time_samples


def fom_to_ofdm_params(config: SystemConfig, index_mode: str = "single-active", cp_len: int = 0) -> OfdmConfig:
    """Map a FOM config onto its OFDM twin; requires delta_f == symbol_rate."""
    if config.delta_f_hz != config.symbol_rate:
        raise ValueError(
            f"no OFDM equivalent: delta_f_hz ({config.delta_f_hz!r}) must equal symbol_rate ({config.symbol_rate!r})"
        )
    return OfdmConfig(
        n_subcarriers=config.n,
        spacing_hz=config.delta_f_hz,
        m=config.m,
        cp_len=cp_len,
        index_mode=index_mode,
    )


def _synthesize_frame(cfg: OfdmConfig, point: complex, index: int, bins: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into ``out`` the frame with QAM ``point`` and subcarrier ``index`` (0-based) active or silent.

    ``bins`` (n_subcarriers, reused from frame to frame) takes the bin vector;
    the payload is its orthonormal IDFT, whose tail is copied in front as the cyclic prefix.
    """
    active = cfg.index_mode == "single-active"
    bins.fill(0.0 if active else point)
    bins[index] = point if active else 0.0
    np.fft.ifft(bins, norm="ortho", out=out[cfg.cp_len :])
    out[: cfg.cp_len] = out[cfg.n_subcarriers :]
    return out


def modulate_frame(block: DataBlock, cfg: OfdmConfig) -> OfdmFrame:
    """Orthonormal IDFT of the index-modulated bin vector, tail copied as prefix."""
    index, pattern = _block_value(block, cfg.n_subcarriers, cfg.m)
    bins, samples = np.empty(cfg.n_subcarriers, dtype=np.complex128), np.empty(cfg.frame_len, dtype=np.complex128)
    _synthesize_frame(cfg, constellation(cfg.m)[pattern], index, bins, samples)
    return OfdmFrame(time_samples=samples, sample_rate=cfg.sample_rate)


def _demodulate_rows(rows: np.ndarray, cfg: OfdmConfig):
    """Batch kernel of `demodulate_frame` over (T, frame_len) rows: (best, pattern, metric, margin), best 0-based."""
    bins = np.fft.fft(rows[:, cfg.cp_len :], axis=-1, norm="ortho")
    energies = np.abs(bins) ** 2
    ranking = -energies if cfg.index_mode == "single-active" else energies
    best, margin = _pick(ranking)
    if cfg.index_mode == "single-active":
        estimate = _at(bins, best)
    else:
        # Each frame's active bins in bin order (a mask selects row-major), so the sums add as a 1-D sum over them does.
        active = np.arange(cfg.n_subcarriers) != best[:, None]
        weights = energies[active].reshape(len(rows), cfg.n_subcarriers - 1)
        total = weights.sum(axis=-1)
        estimate = np.zeros(len(rows), dtype=np.complex128)
        np.divide((weights * bins[active].reshape(weights.shape)).sum(axis=-1), total, out=estimate, where=total > 0)
    return best, _demap_patterns(estimate, cfg.m), _at(ranking, best), margin


def demodulate_frame(frame: OfdmFrame, cfg: OfdmConfig) -> DetectionResult:
    """Strip the prefix, DFT, decide the index from bin energies, demap.

    single-active: k_hat = argmax energy, symbol from that bin.
    single-silent: k_hat = argmin energy, symbol from the energy-weighted
    mean of the remaining bins (0 when they hold no energy).  Energy ties
    resolve to the smaller index; the margin is the energy gap between the
    winner and the runner-up.
    """
    if len(frame.time_samples) != cfg.frame_len:
        raise ValueError(f"frame has {len(frame.time_samples)} samples, config expects {cfg.frame_len}")
    return _detection(_demodulate_rows(frame.time_samples[None], cfg), cfg.m)


def frame_awgn(frame: OfdmFrame, es_n0_db: float, rng_seed: int | np.random.Generator) -> OfdmFrame:
    """AWGN calibrated per subcarrier symbol.

    The orthonormal DFT maps per-sample time noise of variance sigma^2 onto
    bins of the same variance, so sigma^2 = 10**(-es_n0_db/10) gives each
    unit-energy bin symbol exactly the requested SNR.  +inf is noiseless.
    """
    return awgn(frame, es_n0_db, rng_seed, symbol_energy=_SYMBOL_ENERGY)


def _ofdm_link(cfg: OfdmConfig) -> _Link:
    """The link of one sweep point: frame synthesis, the FFT demodulator and `frame_awgn`'s calibration."""
    table = constellation(cfg.m)

    def transmit(indices: np.ndarray, patterns: np.ndarray, rows: np.ndarray) -> None:
        bins = np.empty(cfg.n_subcarriers, dtype=np.complex128)
        for index, point, row in zip(indices.tolist(), table[patterns].tolist(), rows):
            _synthesize_frame(cfg, point, index, bins, row)

    detect = functools.partial(_demodulate_rows, cfg=cfg)
    return _Link(cfg.frame_len, cfg.sample_rate, transmit, detect, max(1, _BLOCK_SAMPLES // cfg.frame_len), _SYMBOL_ENERGY)
