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

from dataclasses import dataclass

import numpy as np

from .codec import SUPPORTED_M, DataBlock, _bits_to_int, _is_power_of_two, constellation, demap_symbol, map_index
from .phy import DetectionResult, awgn
from .system import SystemConfig, _is_real

__all__ = [
    "OfdmConfig",
    "OfdmFrame",
    "fom_to_ofdm_params",
    "modulate_frame",
    "demodulate_frame",
    "frame_awgn",
    "INDEX_MODES",
]

INDEX_MODES = ("single-active", "single-silent")


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


def _bins_for_block(block: DataBlock, cfg: OfdmConfig) -> np.ndarray:
    n = cfg.n_subcarriers
    if len(block.index_bits) != (n - 1).bit_length():
        raise ValueError(f"block has {len(block.index_bits)} index bits, config with N={n} needs {(n - 1).bit_length()}")
    width = (cfg.m - 1).bit_length()
    if len(block.symbol_bits) != width:
        raise ValueError(f"block has {len(block.symbol_bits)} symbol bits, m={cfg.m} needs {width}")
    k = map_index(block.index_bits)
    a = constellation(cfg.m)[_bits_to_int(block.symbol_bits)]
    bins = np.zeros(n, dtype=np.complex128)
    if cfg.index_mode == "single-active":
        bins[k - 1] = a
    else:
        bins[:] = a
        bins[k - 1] = 0.0
    return bins


def modulate_frame(block: DataBlock, cfg: OfdmConfig) -> OfdmFrame:
    """Orthonormal IDFT of the index-modulated bin vector, tail copied as prefix."""
    payload = np.fft.ifft(_bins_for_block(block, cfg), norm="ortho")
    if cfg.cp_len:
        samples = np.concatenate([payload[-cfg.cp_len :], payload])
    else:
        samples = payload
    return OfdmFrame(time_samples=samples, sample_rate=cfg.sample_rate)


def demodulate_frame(frame: OfdmFrame, cfg: OfdmConfig) -> DetectionResult:
    """Strip the prefix, DFT, decide the index from bin energies, demap.

    single-active: k_hat = argmax energy, symbol from that bin.
    single-silent: k_hat = argmin energy, symbol from the energy-weighted
    mean of the remaining bins.  Energy ties resolve to the smaller index;
    the margin is the energy gap between the winner and the runner-up.
    """
    if len(frame.time_samples) != cfg.frame_len:
        raise ValueError(f"frame has {len(frame.time_samples)} samples, config expects {cfg.frame_len}")
    payload = frame.time_samples[cfg.cp_len :]
    bins = np.fft.fft(payload, norm="ortho")
    energies = np.abs(bins) ** 2
    if cfg.index_mode == "single-active":
        ranking = -energies
        k_hat = int(np.argmin(ranking)) + 1
        estimate = bins[k_hat - 1]
    else:
        ranking = energies
        k_hat = int(np.argmin(ranking)) + 1
        active = np.arange(cfg.n_subcarriers) != (k_hat - 1)
        weights = energies[active]
        total = weights.sum()
        estimate = (weights * bins[active]).sum() / total if total > 0 else 0.0 + 0.0j
    order = np.argsort(ranking, kind="stable")
    margin = float(ranking[order[1]] - ranking[order[0]])
    bits = demap_symbol(complex(estimate), cfg.m)
    return DetectionResult(
        k_hat=k_hat, symbol_bits_hat=bits, metric=float(ranking[k_hat - 1]), runner_up_margin=margin
    )


def frame_awgn(frame: OfdmFrame, es_n0_db: float, rng_seed: int | np.random.Generator) -> OfdmFrame:
    """AWGN calibrated per subcarrier symbol.

    The orthonormal DFT maps per-sample time noise of variance sigma^2 onto
    bins of the same variance, so sigma^2 = 10**(-es_n0_db/10) gives each
    unit-energy bin symbol exactly the requested SNR.  +inf is noiseless.
    """
    return awgn(frame, es_n0_db, rng_seed, symbol_energy=1.0)
