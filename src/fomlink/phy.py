"""Link-level baseband simulation: tone synthesis, channel, and detection.

One signaling interval of a FOM link is a rectangular-pulse complex tone,

    samples[t] = a * exp(2j*pi*f_k*t/fs),  t = 0 .. S-1,

where ``a`` is the unit-average-energy QAM point, ``f_k`` the active
transmitter's baseband offset, and S = round(fs / R) the samples per symbol.
Detection correlates against the bank of candidate tones,

    c_k = sum_t samples[t] * exp(-2j*pi*f_k*t/fs),

and the joint ML rule minimizes -2*Re(conj(a)*c_k) + |a|^2 * S over the
per-offset sliced symbols, which is the full n*m nearest-waveform search in
disguise (`brute_force_oracle` performs that search literally and must agree
decision for decision).  `detect_two_stage` first locates the strongest
zero-padded FFT peak, snaps it to the nearest plan offset, and only then
slices the symbol; it trades optimality for an FFT-shaped workload.

Noise calibration: `awgn` interprets es_n0_db at the detection statistic, so
a unit-energy constellation sliced from c_k / S sees exactly the requested
symbol SNR and measured error rates line up with the usual QAM curves
independent of the oversampling factor.  For the rectangular tone the symbol
waveform energy is S, giving per-sample noise variance
sigma^2 = S * 10**(-es_n0_db/10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .codec import DataBlock, _block_value, _demap_patterns, _int_to_bits, constellation
from .system import SystemConfig, FrequencyPlan, MIN_SAMPLES_PER_SYMBOL, _is_real

__all__ = [
    "BasebandSignal",
    "ChannelSpec",
    "DetectionResult",
    "synthesize_block",
    "awgn",
    "apply_phase_rotation",
    "apply_carrier_freq_error",
    "matched_filter_bank",
    "detect_joint_ml",
    "detect_noncoherent",
    "detect_two_stage",
    "brute_force_oracle",
]

TWO_PI = 2.0 * math.pi
# The most complex samples a batch temporary holds (64 KiB): received rows or slicing
# distances; two-stage's zero-padded FFT rows and the oracle's distances take twice
# that, which ran them faster.  A single row that needs more is taken alone.
_BLOCK_SAMPLES = 1 << 12


@dataclass(frozen=True)
class BasebandSignal:
    """Complex baseband samples spanning one signaling interval."""

    samples: np.ndarray
    sample_rate: float
    duration: float

    def __post_init__(self) -> None:
        expected = int(round(self.sample_rate * self.duration))
        if len(self.samples) != expected:
            raise ValueError(f"signal has {len(self.samples)} samples, expected {expected}")
        if len(self.samples) < MIN_SAMPLES_PER_SYMBOL:
            raise ValueError(f"signal needs at least {MIN_SAMPLES_PER_SYMBOL} samples, got {len(self.samples)}")

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class ChannelSpec:
    """Impairment settings applied between synthesis and detection.

    es_n0_db may be math.inf for a noiseless channel.  phase_rotation is
    normalized into [0, 2*pi); carrier_freq_error is a baseband shift in Hz.
    All three are checked when the spec is built and stored as floats.
    """

    es_n0_db: float
    phase_rotation: float = 0.0
    carrier_freq_error: float = 0.0

    def __post_init__(self) -> None:
        for name in ("phase_rotation", "carrier_freq_error"):
            if not _is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        object.__setattr__(self, "es_n0_db", _checked_es_n0(self.es_n0_db))
        theta = math.fmod(self.phase_rotation, TWO_PI)
        if theta < 0.0:
            theta += TWO_PI
        object.__setattr__(self, "phase_rotation", theta)
        object.__setattr__(self, "carrier_freq_error", float(self.carrier_freq_error))


def _checked_es_n0(value, error: type[ValueError] = ValueError) -> float:
    """``value`` as a float es_n0_db (+inf is noiseless); its noise power 10**(-es_n0_db/10) must be finite."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(10.0 ** (-float(value) / 10.0)):
                return float(value)
        except OverflowError:
            pass
    raise error(f"es_n0_db must be a number or null (noiseless) with finite noise power, got {value!r}")


@dataclass(frozen=True)
class DetectionResult:
    """Decision for one interval; runner_up_margin is the metric gap between
    the winning transmitter hypothesis and the second best (0 when n == 1)."""

    k_hat: int
    symbol_bits_hat: tuple[int, ...]
    metric: float
    runner_up_margin: float


def _conj_tones(offsets: tuple[float, ...], count: int, sample_rate: float) -> np.ndarray:
    """Rows are exp(-2j*pi*f_k*t/fs): matched filters for each plan offset."""
    t = np.arange(count)
    return np.exp(-2j * math.pi * np.outer(np.asarray(offsets), t) / sample_rate)


def _cfo_phasor(delta_hz: float, count: int, sample_rate: float) -> np.ndarray:
    """exp(2j*pi*delta_hz*t/fs) for t = 0 .. count-1."""
    t = np.arange(count)
    return np.exp(2j * math.pi * delta_hz * t / sample_rate)


def _snap_regions(offsets: tuple[float, ...], padded: int, sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """FFT bins in bin-order runs that snap to one offset: run i starts at bin starts[i] and snaps to offset regions[i]."""
    freqs = np.fft.fftfreq(padded, d=1.0 / sample_rate)
    nearest = np.abs(freqs[:, None] - np.asarray(offsets)[None, :]).argmin(axis=1)
    starts = np.flatnonzero(np.diff(nearest, prepend=-1))
    return starts, nearest[starts]


def synthesize_block(block: DataBlock, plan: FrequencyPlan, config: SystemConfig) -> BasebandSignal:
    """Modulate one block onto the active transmitter's tone."""
    index, pattern = _block_value(block, plan.tx_count, config.m)
    a = constellation(config.m)[pattern]
    fs = config.sample_rate
    # The active row alone: each entry is computed on its own, so it equals that row of the full table.
    tone = np.conj(_conj_tones(plan.offsets[index : index + 1], config.samples_per_symbol, fs)[0])
    return BasebandSignal(samples=a * tone, sample_rate=fs, duration=1.0 / config.symbol_rate)


# The channel functions below take a BasebandSignal or an OFDM frame (any
# signal with ``samples`` and ``sample_rate``) and return the same type;
# `awgn` also takes a bare sample array.
def _with_samples(signal, samples: np.ndarray):
    if isinstance(signal, BasebandSignal):
        return BasebandSignal(samples, signal.sample_rate, signal.duration)
    return type(signal)(time_samples=samples, sample_rate=signal.sample_rate)


def awgn(
    signal: BasebandSignal | np.ndarray,
    es_n0_db: float,
    rng_seed: int | np.random.Generator,
    symbol_energy: float | None = None,
) -> BasebandSignal | np.ndarray:
    """Add complex white Gaussian noise at the given symbol SNR.

    ``signal`` is a record with ``samples`` (returned as the same type) or a
    bare complex array (returned as an array).  symbol_energy is the
    waveform energy of a unit-average-energy constellation symbol; it
    defaults to the sample count, which is correct for the rectangular
    tone.  Per-sample variance is then symbol_energy * 10**(-es_n0_db/10).
    An es_n0_db of +inf returns the input unchanged, bit for bit.

    The noise is one ``standard_normal((2, count))`` draw: the count real
    parts first, then the count imaginary parts, which is what two
    successive ``standard_normal(count)`` calls return.  That order is the
    stream contract the Monte-Carlo engine's seed scheme rests on.  The
    scaled parts fill the two halves of a fresh complex128 array, to which
    the samples are then added, so the input is left as it was and the
    result is bit for bit ``samples + scale * (real + 1j * imag)``.
    """
    samples = signal if isinstance(signal, np.ndarray) else signal.samples
    if samples.ndim != 1:
        raise ValueError(f"awgn takes one signal of shape (count,), got shape {samples.shape}")
    if es_n0_db == math.inf:
        return signal
    count = len(samples)
    if symbol_energy is None:
        symbol_energy = float(count)
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    sigma2 = symbol_energy * 10.0 ** (-es_n0_db / 10.0)
    scale = math.sqrt(sigma2 / 2.0)
    noise = rng.standard_normal((2, count))
    noisy = np.empty(count, dtype=np.complex128)
    np.multiply(noise[0], scale, out=noisy.real)
    np.multiply(noise[1], scale, out=noisy.imag)
    noisy += samples
    return noisy if samples is signal else _with_samples(signal, noisy)


def apply_phase_rotation(signal: BasebandSignal, theta: float) -> BasebandSignal:
    """Multiply by exp(j*theta); preserves energy."""
    return _with_samples(signal, signal.samples * np.exp(1j * theta))


def apply_carrier_freq_error(signal: BasebandSignal, delta_hz: float) -> BasebandSignal:
    """Shift the whole block by delta_hz; preserves energy."""
    phasor = _cfo_phasor(delta_hz, len(signal.samples), signal.sample_rate)
    return _with_samples(signal, signal.samples * phasor)


def matched_filter_bank(signal: BasebandSignal, plan: FrequencyPlan) -> np.ndarray:
    """Correlations c_k of the signal against every plan tone (length n).

    Linear in the signal; for a pure unit tone on offset j with an integer
    number of cycles per interval, |c_j| equals the sample count and every
    other output is zero up to rounding.
    """
    return (signal.samples[None] @ _conj_tones(plan.offsets, len(signal), signal.sample_rate).T)[0]


def _slicer(m: int, count: int):
    """ML metric after slicing each c_k / S (ties to the smaller pattern), plus
    the patterns, for c of any shape; conj(a) and |a|^2 * S, the fixed parts
    of the metric, are built here once."""
    table = constellation(m)
    conj_a, energy = np.conj(table), np.abs(table) ** 2 * count

    def slice_metrics(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        patterns = _demap_patterns(c / count, m)
        return -2.0 * (conj_a[patterns] * c).real + energy[patterns], patterns

    return slice_metrics


def _pick(metrics: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest-metric index along the last axis (ties to the smaller index) and the runner-up gap (0 when n == 1), bit for bit
    a stable argsort's; a partition may swap a -0.0/0.0 tie's signs on long rows, but each kernel's metric has one sign at zero."""
    best = metrics.argmin(axis=-1)
    if metrics.shape[-1] == 1:
        return best, np.zeros(metrics.shape[:-1])[()]
    low = np.partition(metrics, 1, axis=-1)
    return best, low[..., 1] - low[..., 0]


def _at(values: np.ndarray, best: np.ndarray) -> np.ndarray:
    """values[t, best[t]] for every row t."""
    return values[np.arange(len(best)), best]


def _detection(kernel_result, m: int) -> DetectionResult:
    """The one-row output (best, pattern, metric, margin) of a batch kernel as a record."""
    best, pattern, metric, margin = kernel_result
    bits = _int_to_bits(int(pattern[0]), (m - 1).bit_length())
    return DetectionResult(k_hat=int(best[0]) + 1, symbol_bits_hat=bits, metric=float(metric[0]), runner_up_margin=float(margin[0]))


def _joint_ml_rows(conj_tones: np.ndarray, m: int):
    """Batch kernel of `detect_joint_ml`."""
    slice_metrics = _slicer(m, conj_tones.shape[-1])

    def kernel(part):
        metrics, patterns = slice_metrics(part @ conj_tones.T)
        best, margin = _pick(metrics)
        return best, _at(patterns, best), _at(metrics, best), margin

    return kernel, len(conj_tones) * m


def _noncoherent_rows(conj_tones: np.ndarray, m: int):
    """Batch kernel of `detect_noncoherent`."""
    n, count = conj_tones.shape

    def kernel(part):
        c = part @ conj_tones.T
        ranking = -np.abs(c)
        best, margin = _pick(ranking)
        return best, _demap_patterns(_at(c, best) / count, m), _at(ranking, best), margin

    return kernel, max(n, m)


def _two_stage_rows(conj_tones: np.ndarray, m: int, offsets: tuple[float, ...], zero_pad_factor: int, sample_rate: float):
    """Batch kernel of `detect_two_stage` over the zero-padded FFT bins that `_snap_regions` groups."""
    n, count = conj_tones.shape
    padded = zero_pad_factor * count
    starts, regions = _snap_regions(offsets, padded, sample_rate)
    step = max(1, 2 * _BLOCK_SAMPLES // padded)  # rows per zero-padded FFT

    def kernel(part):
        # Peak magnitude over each offset's runs (offset 0 owns two); offsets that own no bin rank last.
        peaks = np.zeros((len(part), n))
        for lo in range(0, len(part), step):
            runs = np.maximum.reduceat(np.abs(np.fft.fft(part[lo : lo + step], n=padded, axis=-1)), starts, axis=-1)
            np.maximum.at(peaks[lo : lo + step], (slice(None), regions), runs)
        best, margin = _pick(-peaks)
        c = _at(part @ conj_tones.T, best)
        return best, _demap_patterns(c / count, m), -_at(peaks, best), margin

    return kernel, max(n, m)


def _oracle_rows(tones: np.ndarray, m: int):
    """Batch kernel of `brute_force_oracle`: one offset's m candidates at a time, over blocks of trials."""
    n, count = tones.shape
    table = constellation(m)
    group = max(1, 2 * _BLOCK_SAMPLES // (m * count))  # trials per block of distances

    def kernel(part):
        per_offset = np.empty((len(part), n))
        patterns = np.empty((len(part), n), dtype=np.intp)
        for k in range(n):
            candidates = table[:, None] * tones[k]  # (m, S)
            for t in range(0, len(part), group):
                totals = (np.abs(part[t : t + group, None, :] - candidates) ** 2).sum(axis=-1)
                per_offset[t : t + group, k] = totals.min(axis=-1)
                patterns[t : t + group, k] = totals.argmin(axis=-1)
        best, margin = _pick(per_offset)
        return best, _at(patterns, best), _at(per_offset, best), margin

    return kernel, n


DETECTORS = ("joint-ml", "noncoherent", "two-stage", "oracle")


@dataclass(frozen=True)
class _Link:
    """One sweep point's transmitter and receiver, every table built once:
    ``transmit(indices, patterns, rows)`` writes T trials' ``width`` samples
    into a (T, width) block of ``rows``, row t from ``indices[t]`` and
    ``patterns[t]``; ``detect`` maps such a block to (best, pattern,
    metric, margin) per row, best 0-based; ``per_row`` is the largest
    temporary of ``detect`` per row, in samples; ``symbol_energy`` is `awgn`'s."""

    width: int
    sample_rate: float
    transmit: Callable[[np.ndarray, np.ndarray, np.ndarray], None]
    detect: Callable[[np.ndarray], tuple[np.ndarray, ...]]
    per_row: int
    symbol_energy: float | None

    @property
    def rows(self) -> int:
        """Rows per block: each temporary of ``detect`` stays within 2 * _BLOCK_SAMPLES samples for T <= rows."""
        return max(1, _BLOCK_SAMPLES // max(self.width, self.per_row))


def _fom_link(detector: str, plan: FrequencyPlan, m: int, count: int, sample_rate: float, zero_pad_factor: int = 16) -> _Link:
    """The link of one sweep point: tone synthesis and ``detector``'s (one of DETECTORS)
    batch kernel, whose builder also returns its largest temporary per row in
    samples.  The public detectors call the kernel with one row."""
    conj_tones = _conj_tones(plan.offsets, count, sample_rate)
    tones = np.conj(conj_tones)
    if detector == "joint-ml":
        detect, per_row = _joint_ml_rows(conj_tones, m)
    elif detector == "noncoherent":
        detect, per_row = _noncoherent_rows(conj_tones, m)
    elif detector == "two-stage":
        detect, per_row = _two_stage_rows(conj_tones, m, plan.offsets, zero_pad_factor, sample_rate)
    else:
        detect, per_row = _oracle_rows(tones, m)
    table = constellation(m)

    def transmit(indices: np.ndarray, patterns: np.ndarray, rows: np.ndarray) -> None:
        # a * tone in synthesize_block's operand order: swapped, the product rounds differently.
        np.multiply(table[patterns][:, None], tones[indices], out=rows)

    return _Link(count, sample_rate, transmit, detect, per_row, None)


def _decide(
    detector: str, signal: BasebandSignal, plan: FrequencyPlan, m: int, zero_pad_factor: int = 16
) -> DetectionResult:
    """One block's decision by ``detector``'s batch kernel, its tables built for this call."""
    link = _fom_link(detector, plan, m, len(signal), signal.sample_rate, zero_pad_factor)
    return _detection(link.detect(signal.samples[None]), m)


def detect_joint_ml(signal: BasebandSignal, plan: FrequencyPlan, m: int) -> DetectionResult:
    """Jointly most-likely (transmitter, symbol) pair under AWGN.

    For each offset the best symbol is the slice of c_k / S; offsets then
    compete on -2*Re(conj(a)*c_k) + |a|^2*S.  Ties prefer the smaller index
    and the smaller bit pattern.
    """
    return _decide("joint-ml", signal, plan, m)


def detect_noncoherent(signal: BasebandSignal, plan: FrequencyPlan, m: int) -> DetectionResult:
    """Index from argmax |c_k| (ties to the smaller index), symbol sliced coherently from the winner.

    Insensitive to a global phase rotation by construction, but suboptimal
    for constellations with more than one amplitude ring.
    """
    return _decide("noncoherent", signal, plan, m)


def detect_two_stage(
    signal: BasebandSignal, plan: FrequencyPlan, m: int, zero_pad_factor: int = 16
) -> DetectionResult:
    """Locate the strongest spectral peak, snap it to the plan, then slice.

    Stage 1 zero-pads the block by zero_pad_factor and takes the peak
    magnitude bin of the FFT; the peak frequency snaps to the nearest plan
    offset.  Zero-padding interpolates the spectrum so sub-bin offsets
    (delta_f * T < 1) remain separable when noise allows.  Stage 2 demaps
    c_k_hat / S exactly as the ML rule does.  The reported metric is the
    negated peak magnitude and the margin is the gap to the best peak that
    snaps to any other offset.
    """
    if zero_pad_factor < 1:
        raise ValueError(f"zero_pad_factor must be >= 1, got {zero_pad_factor!r}")
    return _decide("two-stage", signal, plan, m, zero_pad_factor)


def brute_force_oracle(signal: BasebandSignal, plan: FrequencyPlan, m: int) -> DetectionResult:
    """Exact nearest-waveform search over all n*m candidates.

    Minimizes ||r - a*tone_k||^2 directly; same tie-breaking as
    `detect_joint_ml` (smaller index, then smaller bit pattern).  Slow on
    purpose; it exists to check the fast detectors.
    """
    return _decide("oracle", signal, plan, m)
