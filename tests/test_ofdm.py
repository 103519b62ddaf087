"""Subcarrier-index OFDM mode and its match to the tone bank."""

import math

import numpy as np
import pytest

from fomlink.codec import DataBlock, constellation, demap_index
from fomlink.ofdm import (
    INDEX_MODES,
    OfdmConfig,
    OfdmFrame,
    _ofdm_link,
    demodulate_frame,
    fom_to_ofdm_params,
    frame_awgn,
    modulate_frame,
)
from fomlink.phy import matched_filter_bank, synthesize_block
from fomlink.system import SystemConfig, build_frequency_plan
from builders import all_blocks


class TestConfig:
    def test_derived_rates(self):
        cfg = OfdmConfig(n_subcarriers=8, spacing_hz=15e3, m=4, cp_len=2, index_mode="single-active")
        assert cfg.sample_rate == 8 * 15e3
        assert cfg.frame_len == 10

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_subcarriers=3),
            dict(n_subcarriers=1),
            dict(spacing_hz=0.0),
            dict(m=5),
            dict(cp_len=-1),
            dict(index_mode="dual-active"),
            dict(m=8),
            dict(spacing_hz=True),
            dict(spacing_hz=float("inf")),
            dict(cp_len=9),
            dict(cp_len=True),
        ],
    )
    def test_validation(self, overrides):
        params = dict(n_subcarriers=8, spacing_hz=15e3, m=4, cp_len=0, index_mode="single-active")
        params.update(overrides)
        with pytest.raises(ValueError):
            OfdmConfig(**params)

    def test_mode_names(self):
        assert INDEX_MODES == ("single-active", "single-silent")

    def test_derivation_from_tone_link(self):
        link = SystemConfig(n=8, m=4, bandwidth_hz=20e6, delta_f_hz=15e3, symbol_rate=15e3, carrier_hz=2e9)
        cfg = fom_to_ofdm_params(link, index_mode="single-silent", cp_len=4)
        assert cfg.n_subcarriers == 8
        assert cfg.spacing_hz == 15e3
        assert cfg.m == 4
        assert cfg.cp_len == 4
        assert cfg.index_mode == "single-silent"

    def test_derivation_requires_orthogonal_spacing(self):
        link = SystemConfig(n=8, m=4, bandwidth_hz=20e6, delta_f_hz=30e3, symbol_rate=15e3, carrier_hz=2e9)
        with pytest.raises(ValueError, match="delta_f"):
            fom_to_ofdm_params(link)


class TestModulation:
    def test_first_subcarrier_is_flat(self):
        cfg = OfdmConfig(n_subcarriers=4, spacing_hz=1.0, m=2, cp_len=0, index_mode="single-active")
        frame = modulate_frame(DataBlock(index_bits=(0, 0), symbol_bits=(0,)), cfg)
        # ifft(norm="ortho") of e_0 is constant 1/sqrt(N).
        assert np.allclose(frame.time_samples, 0.5, atol=1e-15)

    def test_cyclic_prefix_copies_the_tail(self):
        cfg = OfdmConfig(n_subcarriers=8, spacing_hz=15e3, m=4, cp_len=3, index_mode="single-active")
        frame = modulate_frame(DataBlock(index_bits=(1, 0, 1), symbol_bits=(1, 0)), cfg)
        assert len(frame.time_samples) == 11
        payload = frame.time_samples[3:]
        assert np.array_equal(frame.time_samples[:3], payload[-3:])
        assert np.array_equal(frame.time_samples[:3], frame.time_samples[-3:])

    def test_rejects_mismatched_bit_widths(self):
        cfg = OfdmConfig(n_subcarriers=8, spacing_hz=15e3, m=16)
        with pytest.raises(ValueError, match="index bits"):
            modulate_frame(DataBlock(index_bits=(0,), symbol_bits=(0,) * 4), cfg)
        with pytest.raises(ValueError, match="symbol bits"):
            modulate_frame(DataBlock(index_bits=(0, 0, 0), symbol_bits=(0,)), cfg)

    @pytest.mark.parametrize("index_bits, symbol_bits", [((0, 1, 0), (1, 2)), ((0, 1, 0), (-1, 0)), ((0, 2, 0), (1, 0))])
    def test_rejects_bits_other_than_zero_and_one(self, index_bits, symbol_bits):
        cfg = OfdmConfig(n_subcarriers=8, spacing_hz=15e3, m=4, cp_len=0, index_mode="single-active")
        with pytest.raises(ValueError, match="0 or 1"):
            modulate_frame(DataBlock(index_bits, symbol_bits), cfg)

    def test_single_silent_zeroes_exactly_one_bin(self):
        cfg = OfdmConfig(n_subcarriers=8, spacing_hz=15e3, m=4, cp_len=0, index_mode="single-silent")
        for block, k, pattern in all_blocks(8, 4):
            frame = modulate_frame(block, cfg)
            bins = np.fft.fft(frame.time_samples, norm="ortho")
            quiet = np.flatnonzero(np.abs(bins) < 1e-12)
            assert quiet.tolist() == [k - 1]

    @pytest.mark.parametrize("index_mode", INDEX_MODES)
    @pytest.mark.parametrize("cp_len", [0, 4, 8])
    def test_frame_is_the_orthonormal_idft_of_its_bins(self, index_mode, cp_len):
        # Bit for bit, one frame at a time and in the engine's blocks: its
        # metrics and dumps must not move.
        cfg = OfdmConfig(n_subcarriers=8, spacing_hz=15e3, m=4, cp_len=cp_len, index_mode=index_mode)
        wants, indices, patterns = [], [], []
        for block, k, pattern in all_blocks(8, 4):
            bins = np.zeros(8, dtype=complex)
            bins[:] = constellation(4)[pattern] if index_mode == "single-silent" else 0.0
            bins[k - 1] = constellation(4)[pattern] if index_mode == "single-active" else 0.0
            payload = np.fft.ifft(bins, norm="ortho")
            want = np.concatenate([payload[len(payload) - cp_len :], payload])
            assert np.array_equal(modulate_frame(block, cfg).time_samples, want)
            wants.append(want)
            indices.append(k - 1)
            patterns.append(pattern)
        # Blocks of unequal sizes, each written into the front rows of one reused buffer, as the engine does.
        transmit, buffer, lo = _ofdm_link(cfg).transmit, np.empty((21, cfg.frame_len), dtype=complex), 0
        for size in (21, 1, 7, 3):
            transmit(np.array(indices[lo : lo + size]), np.array(patterns[lo : lo + size]), buffer[:size])
            assert np.array_equal(buffer[:size], np.array(wants[lo : lo + size]))
            lo += size
        assert lo == len(wants)

    def test_parseval(self):
        cfg = OfdmConfig(n_subcarriers=16, spacing_hz=1e3, m=16, cp_len=0, index_mode="single-active")
        rng = np.random.default_rng(6)
        for _ in range(20):
            k = int(rng.integers(1, 17))
            bits = tuple(int(b) for b in rng.integers(0, 2, size=4))
            frame = modulate_frame(DataBlock(index_bits=demap_index(k, 16), symbol_bits=bits), cfg)
            time_energy = float(np.sum(np.abs(frame.time_samples) ** 2))
            point = constellation(16)[int("".join(map(str, bits)), 2)]
            assert time_energy == pytest.approx(abs(point) ** 2, rel=1e-12)


class TestDemodulation:
    @pytest.mark.parametrize("index_mode", INDEX_MODES)
    def test_noiseless_round_trip(self, index_mode):
        cfg = OfdmConfig(n_subcarriers=8, spacing_hz=15e3, m=4, cp_len=2, index_mode=index_mode)
        for block, k, pattern in all_blocks(8, 4):
            got = demodulate_frame(modulate_frame(block, cfg), cfg)
            assert got.k_hat == k
            assert got.symbol_bits_hat == block.symbol_bits
            assert got.runner_up_margin > 0.0

    def test_tiny_grid_round_trip(self):
        cfg = OfdmConfig(n_subcarriers=4, spacing_hz=1.0, m=2, cp_len=0, index_mode="single-active")
        for block, k, pattern in all_blocks(4, 2):
            got = demodulate_frame(modulate_frame(block, cfg), cfg)
            assert (got.k_hat, got.symbol_bits_hat) == (k, block.symbol_bits)

    def test_length_mismatch(self):
        cfg = OfdmConfig(n_subcarriers=8, spacing_hz=15e3, m=4, cp_len=2, index_mode="single-active")
        bad = OfdmFrame(time_samples=np.zeros(8, dtype=complex), sample_rate=cfg.sample_rate)
        with pytest.raises(ValueError, match="expects"):
            demodulate_frame(bad, cfg)

    def test_noisy_error_rate_is_small_at_20_db(self):
        cfg = OfdmConfig(n_subcarriers=8, spacing_hz=15e3, m=4, cp_len=0, index_mode="single-active")
        rng = np.random.default_rng(42)
        errors = 0
        trials = 2000
        for _ in range(trials):
            k = int(rng.integers(1, 9))
            bits = tuple(int(b) for b in rng.integers(0, 2, size=2))
            frame = modulate_frame(DataBlock(index_bits=demap_index(k, 8), symbol_bits=bits), cfg)
            got = demodulate_frame(frame_awgn(frame, 20.0, rng), cfg)
            errors += got.k_hat != k
        assert errors / trials < 1e-3

    def test_noiseless_channel_sentinel(self):
        cfg = OfdmConfig(n_subcarriers=8, spacing_hz=15e3, m=4, cp_len=0, index_mode="single-active")
        frame = modulate_frame(DataBlock(index_bits=(1, 1, 0), symbol_bits=(0, 1)), cfg)
        assert frame_awgn(frame, math.inf, 1).time_samples is frame.time_samples


class TestToneBankEquivalence:
    def test_bank_output_is_a_scaled_dft(self):
        # With delta_f == symbol_rate the bank rows are DFT rows: row k of
        # the S-point transform, scaled by sqrt(S) against the orthonormal
        # convention.
        link = SystemConfig(n=8, m=4, bandwidth_hz=8.0, delta_f_hz=1.0, symbol_rate=1.0, carrier_hz=1e6, oversample=2)
        plan = build_frequency_plan(link)
        kept = link.samples_per_symbol
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(100):
            block = DataBlock(
                index_bits=demap_index(int(rng.integers(1, 9)), 8),
                symbol_bits=tuple(int(b) for b in rng.integers(0, 2, size=2)),
            )
            clean = synthesize_block(block, plan, link)
            noisy = clean.samples + 0.3 * (rng.standard_normal(kept) + 1j * rng.standard_normal(kept))
            from fomlink.phy import BasebandSignal

            signal = BasebandSignal(samples=noisy, sample_rate=clean.sample_rate, duration=clean.duration)
            bank = matched_filter_bank(signal, plan)
            dft = np.fft.fft(noisy, norm="ortho")[:8]
            scaled = math.sqrt(kept) * dft
            err = float(np.max(np.abs(bank - scaled)) / np.max(np.abs(bank)))
            worst = max(worst, err)
        assert worst < 1e-9

    def test_decisions_agree_between_representations(self):
        link = SystemConfig(n=8, m=4, bandwidth_hz=8.0, delta_f_hz=1.0, symbol_rate=1.0, carrier_hz=1e6, oversample=2)
        plan = build_frequency_plan(link)
        cfg = fom_to_ofdm_params(link)
        from fomlink.phy import BasebandSignal, detect_joint_ml

        rng = np.random.default_rng(12)
        for _ in range(200):
            block = DataBlock(
                index_bits=demap_index(int(rng.integers(1, 9)), 8),
                symbol_bits=tuple(int(b) for b in rng.integers(0, 2, size=2)),
            )
            frame = frame_awgn(modulate_frame(block, cfg), 25.0, rng)
            # The same time samples, viewed as a critically sampled
            # tone-bank interval (sqrt(N) undoes the orthonormal IDFT scale).
            scaled = math.sqrt(8) * frame.time_samples
            signal = BasebandSignal(samples=scaled, sample_rate=cfg.sample_rate, duration=8.0 / cfg.sample_rate)
            tone_view = detect_joint_ml(signal, plan, 4)
            ofdm_view = demodulate_frame(frame, cfg)
            assert tone_view.k_hat == ofdm_view.k_hat
            assert tone_view.symbol_bits_hat == ofdm_view.symbol_bits_hat
