"""Waveform synthesis, the AWGN channel, and the detector family."""

import gc
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fomlink.codec import DataBlock, constellation, demap_index, demap_symbol
from fomlink.ofdm import OfdmFrame, frame_awgn
from fomlink.phy import (
    ES_N0_FLOOR_DB,
    BasebandSignal,
    ChannelSpec,
    DetectionResult,
    _conj_tones,
    _joint_ml_rows,
    _pick,
    _snap_regions,
    apply_carrier_freq_error,
    apply_phase_rotation,
    awgn,
    brute_force_oracle,
    detect_joint_ml,
    detect_noncoherent,
    detect_two_stage,
    matched_filter_bank,
    synthesize_block,
)
from fomlink.scenario import run_monte_carlo, scenario_from_dict
from fomlink.system import build_frequency_plan
from builders import all_blocks, link_config, msb_bits, scenario_data


def random_block(rng, n, m):
    k = int(rng.integers(1, n + 1))
    symbol_width = m.bit_length() - 1
    bits = tuple(int(b) for b in rng.integers(0, 2, size=symbol_width))
    return DataBlock(index_bits=demap_index(k, n), symbol_bits=bits)


class TestSynthesis:
    def test_baseband_tone_for_first_transmitter_is_flat(self):
        config = link_config(n=1, m=2)
        plan = build_frequency_plan(config)
        signal = synthesize_block(DataBlock(index_bits=(), symbol_bits=(0,)), plan, config)
        assert np.allclose(signal.samples, 1.0, atol=1e-15)
        assert len(signal) == config.samples_per_symbol

    def test_energy_equals_sample_count_times_symbol_energy(self):
        config = link_config(n=8, m=16)
        plan = build_frequency_plan(config)
        rng = np.random.default_rng(3)
        table = constellation(16)
        for _ in range(50):
            block = random_block(rng, 8, 16)
            signal = synthesize_block(block, plan, config)
            a = table[int("".join(map(str, block.symbol_bits)), 2)]
            want = len(signal) * abs(a) ** 2
            got = float(np.sum(np.abs(signal.samples) ** 2))
            assert got == pytest.approx(want, rel=1e-12)

    def test_tone_lands_on_the_expected_fft_bin(self):
        config = link_config(n=8, m=4, df_t=1.0)
        plan = build_frequency_plan(config)
        for k in range(1, 9):
            block = DataBlock(index_bits=demap_index(k, 8), symbol_bits=(0, 0))
            signal = synthesize_block(block, plan, config)
            spectrum = np.abs(np.fft.fft(signal.samples))
            # One second of signal at an integer offset: bin index == offset.
            assert int(np.argmax(spectrum)) == k - 1

    def test_rejects_mismatched_bit_widths(self):
        config = link_config(n=8, m=16)
        plan = build_frequency_plan(config)
        with pytest.raises(ValueError, match="index bits"):
            synthesize_block(DataBlock(index_bits=(0,), symbol_bits=(0,) * 4), plan, config)
        with pytest.raises(ValueError, match="symbol bits"):
            synthesize_block(DataBlock(index_bits=(0, 0, 0), symbol_bits=(0,)), plan, config)

    @pytest.mark.parametrize("index_bits, symbol_bits", [((0, 1, 0), (1, 2)), ((0, 1, 0), (-1, 0)), ((0, 2, 0), (1, 0))])
    def test_rejects_bits_other_than_zero_and_one(self, index_bits, symbol_bits):
        # (1, 2) would read as pattern 2, the same waveform as (1, 0).
        config = link_config(n=8, m=4)
        with pytest.raises(ValueError, match="0 or 1"):
            synthesize_block(DataBlock(index_bits, symbol_bits), build_frequency_plan(config), config)

    def test_signal_length_bookkeeping(self):
        with pytest.raises(ValueError, match="expected"):
            BasebandSignal(samples=np.zeros(10, dtype=complex), sample_rate=16.0, duration=1.0)
        with pytest.raises(ValueError, match="at least"):
            BasebandSignal(samples=np.zeros(4, dtype=complex), sample_rate=4.0, duration=1.0)


class TestChannelSpec:
    def test_phase_normalizes_into_one_turn(self):
        spec = ChannelSpec(es_n0_db=10.0, phase_rotation=-math.pi)
        assert 0.0 <= spec.phase_rotation < 2 * math.pi
        assert spec.phase_rotation == pytest.approx(math.pi, rel=1e-12)
        assert ChannelSpec(es_n0_db=1.0, phase_rotation=7.0).phase_rotation == pytest.approx(7.0 - 2 * math.pi)

    @pytest.mark.parametrize("phase", [-1e-17, -1e-300, -0.0, -2 * math.pi, -4 * math.pi])
    def test_phases_that_round_to_one_turn_store_plus_zero(self, phase):
        # -1e-17 + 2*pi rounds to 2*pi itself, outside [0, 2*pi).
        stored = ChannelSpec(es_n0_db=10.0, phase_rotation=phase).phase_rotation
        assert stored == 0.0 and math.copysign(1.0, stored) == 1.0

    @pytest.mark.parametrize("phase", [7.0, -math.pi, 1e10, -5e-16])
    def test_other_phases_store_fmod_plus_one_turn_when_negative(self, phase):
        # -5e-16 stores 6.283185307179585, the float just under 2*pi.
        want = math.fmod(phase, 2 * math.pi)
        want += 2 * math.pi if want < 0.0 else 0.0
        assert ChannelSpec(es_n0_db=10.0, phase_rotation=phase).phase_rotation == want < 2 * math.pi

    def test_noiseless_sentinel_allowed(self):
        assert ChannelSpec(es_n0_db=math.inf).es_n0_db == math.inf
        assert ChannelSpec(None) == ChannelSpec(math.inf)

    def test_the_floor_is_the_lowest_es_n0_db(self):
        assert ChannelSpec(ES_N0_FLOOR_DB).es_n0_db == ES_N0_FLOOR_DB == -1000.0
        assert ChannelSpec(-1000).es_n0_db == -1000.0

    def test_rejects_nan_and_negative_infinity(self):
        for spec in (
            {"es_n0_db": math.nan},
            {"es_n0_db": -math.inf},
            {"es_n0_db": -1e308},  # finite, but its noise power 10**30.8 overflows
            # Finite noise power, but below the floor: the oracle, joint-ml and two-stage, OFDM single-active and
            # single-silent kernels overflowed at these SNRs (8x4, 16 trials).
            {"es_n0_db": -3050.0},
            {"es_n0_db": -3075},
            {"es_n0_db": -3079.0},
            {"es_n0_db": -2060.0},
            {"es_n0_db": math.nextafter(ES_N0_FLOOR_DB, -math.inf)},
            {"es_n0_db": True},
            {"es_n0_db": "1"},
            {"es_n0_db": 10.0, "phase_rotation": math.nan},
        ):
            with pytest.raises(ValueError):
                ChannelSpec(**spec)


class TestAwgn:
    def test_noiseless_is_bit_exact(self):
        config = link_config(m=16)
        plan = build_frequency_plan(config)
        block = random_block(np.random.default_rng(0), 8, 16)
        signal = synthesize_block(block, plan, config)
        out = awgn(signal, math.inf, 42)
        assert out.samples is signal.samples

    def test_same_seed_same_noise(self):
        signal = BasebandSignal(samples=np.zeros(64, dtype=complex), sample_rate=64.0, duration=1.0)
        a = awgn(signal, 10.0, 99)
        b = awgn(signal, 10.0, 99)
        c = awgn(signal, 10.0, 100)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_empirical_variance(self):
        count = 1_000_000
        signal = BasebandSignal(samples=np.zeros(count, dtype=complex), sample_rate=float(count), duration=1.0)
        for es_n0_db, energy in ((0.0, 1.0), (10.0, 4.0)):
            out = awgn(signal, es_n0_db, 7, symbol_energy=energy)
            want = energy * 10.0 ** (-es_n0_db / 10.0)
            measured = float(np.mean(np.abs(out.samples) ** 2))
            assert measured == pytest.approx(want, rel=0.01)
            # Power splits evenly between quadratures.
            re_var = float(np.var(out.samples.real))
            im_var = float(np.var(out.samples.imag))
            assert re_var == pytest.approx(want / 2, rel=0.02)
            assert im_var == pytest.approx(want / 2, rel=0.02)

    def test_default_symbol_energy_is_sample_count(self):
        signal = BasebandSignal(samples=np.zeros(4096, dtype=complex), sample_rate=4096.0, duration=1.0)
        implicit = awgn(signal, 20.0, 5)
        explicit = awgn(signal, 20.0, 5, symbol_energy=4096.0)
        assert np.array_equal(implicit.samples, explicit.samples)

    @pytest.mark.parametrize("symbol_energy", [None, 1.0])
    def test_bare_array_gets_the_record_noise(self, symbol_energy):
        config = link_config(m=16)
        plan = build_frequency_plan(config)
        signal = synthesize_block(random_block(np.random.default_rng(1), 8, 16), plan, config)
        record_rng, array_rng = np.random.default_rng(8), np.random.default_rng(8)
        for es_n0_db in (3.0, 17.5):
            record = awgn(signal, es_n0_db, record_rng, symbol_energy)
            bare = awgn(signal.samples, es_n0_db, array_rng, symbol_energy)
            assert type(bare) is np.ndarray
            assert np.array_equal(bare, record.samples)
        # Both generators are left in the same state.
        assert record_rng.integers(2**63) == array_rng.integers(2**63)

    def test_noiseless_bare_array_is_returned_unchanged(self):
        samples = np.arange(16, dtype=complex)
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        assert awgn(samples, math.inf, rng) is samples
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("shape", [(4, 4), (3, 4)])
    @pytest.mark.parametrize("es_n0_db", [10.0, math.inf])
    def test_rejects_a_block_of_signals(self, shape, es_n0_db):
        # The noise fits one signal: a square block would get the same noise on every row.
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            awgn(np.zeros(shape, dtype=complex), es_n0_db, rng)
        assert rng.bit_generator.state == state


def awgn_inputs(kind):
    """(signal, its samples, symbol energy) for every input form the channel takes, one sample a signed zero."""
    rng = np.random.default_rng(21)
    values = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    values[3] = complex(-0.0, 0.0)
    values[6] = complex(0.0, -0.0)
    if kind == "complex":
        return values[:64], values[:64], None
    if kind == "strided":
        view = values[::2]
        return view, view, 8.0
    if kind == "float":
        real = values.real[:64].copy()
        real[3], real[6] = -0.0, 0.0
        return real, real, None
    if kind == "complex64":
        narrow = values[:64].astype(np.complex64)
        return narrow, narrow, None
    if kind == "record":
        signal = BasebandSignal(samples=values[:64], sample_rate=64.0, duration=1.0)
        return signal, signal.samples, None
    frame = OfdmFrame(time_samples=values[:80], sample_rate=64.0)
    return frame, frame.time_samples, 1.0


AWGN_INPUTS = ("complex", "strided", "float", "complex64", "record", "ofdm")


class TestAwgnReference:
    """`awgn` against its defining formula, byte for byte: the noise is two
    successive standard_normal(count) draws, real parts first."""

    @pytest.mark.parametrize("es_n0_db", [-3.0, 0.0, 10.0, 25.0])
    @pytest.mark.parametrize("kind", AWGN_INPUTS)
    def test_equals_the_formula(self, kind, es_n0_db):
        signal, samples, symbol_energy = awgn_inputs(kind)
        ours, reference = np.random.default_rng(5), np.random.default_rng(5)
        if kind == "ofdm":
            got = frame_awgn(signal, es_n0_db, ours).time_samples
        else:
            got = awgn(signal, es_n0_db, ours, symbol_energy)
            got = got if isinstance(got, np.ndarray) else got.samples
        count = len(samples)
        energy = float(count) if symbol_energy is None else symbol_energy
        scale = math.sqrt(energy * 10.0 ** (-es_n0_db / 10.0) / 2.0)
        real = reference.standard_normal(count)
        imag = reference.standard_normal(count)
        want = samples + scale * (real + 1j * imag)
        assert got.dtype == want.dtype == np.complex128
        assert got.tobytes() == want.tobytes()
        assert ours.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("width, symbol_energy", [(64, None), (80, 1.0)])  # a fom block, an OFDM block
    def test_successive_rows_take_one_block_draw(self, width, symbol_energy):
        # One awgn call per row of a (B, S) block takes the stream words of one
        # standard_normal((B, 2, S)) draw, so noise drawn per block leaves every
        # received row and the generator as per-row noise does.
        rng = np.random.default_rng(21)
        rows = rng.standard_normal((6, width)) + 1j * rng.standard_normal((6, width))
        ours, reference = np.random.default_rng(5), np.random.default_rng(5)
        got = np.array([awgn(row, 7.0, ours, symbol_energy) for row in rows])
        energy = float(width) if symbol_energy is None else symbol_energy
        scale = math.sqrt(energy * 10.0 ** (-7.0 / 10.0) / 2.0)
        noise = reference.standard_normal((len(rows), 2, width))
        want = rows + scale * (noise[:, 0] + 1j * noise[:, 1])
        assert got.tobytes() == want.tobytes()
        assert ours.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("kind", AWGN_INPUTS)
    def test_leaves_its_input_unchanged(self, kind):
        # The noise is written into a fresh array first; the samples are only read.
        signal, samples, symbol_energy = awgn_inputs(kind)
        before = samples.copy()
        if kind == "ofdm":
            got = frame_awgn(signal, 10.0, np.random.default_rng(5)).time_samples
        else:
            got = awgn(signal, 10.0, np.random.default_rng(5), symbol_energy)
            got = got if isinstance(got, np.ndarray) else got.samples
        assert not np.shares_memory(got, samples)
        assert samples.dtype == before.dtype and samples.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kind", AWGN_INPUTS)
    def test_noiseless_returns_the_input_object(self, kind):
        signal, _, symbol_energy = awgn_inputs(kind)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        if kind == "ofdm":
            assert frame_awgn(signal, math.inf, rng) is signal
        else:
            assert awgn(signal, math.inf, rng, symbol_energy) is signal
        assert rng.bit_generator.state == state


class TestImpairments:
    def test_rotation_preserves_energy(self):
        config = link_config(m=16)
        plan = build_frequency_plan(config)
        signal = synthesize_block(random_block(np.random.default_rng(1), 8, 16), plan, config)
        rotated = apply_phase_rotation(signal, 1.234)
        before = np.sum(np.abs(signal.samples) ** 2)
        after = np.sum(np.abs(rotated.samples) ** 2)
        assert after == pytest.approx(before, rel=1e-12)

    def test_half_turn_flips_bpsk_decisions(self):
        config = link_config(n=4, m=2)
        plan = build_frequency_plan(config)
        for k in range(1, 5):
            for bit in (0, 1):
                block = DataBlock(index_bits=demap_index(k, 4), symbol_bits=(bit,))
                signal = synthesize_block(block, plan, config)
                flipped = apply_phase_rotation(signal, math.pi)
                got = detect_joint_ml(flipped, plan, 2)
                assert got.k_hat == k
                assert got.symbol_bits_hat == (1 - bit,)

    def test_magnitude_detection_ignores_common_phase(self):
        rng = np.random.default_rng(17)
        for m in (2, 4):
            config = link_config(n=8, m=m)
            plan = build_frequency_plan(config)
            for _ in range(25):
                block = random_block(rng, 8, m)
                noisy = awgn(synthesize_block(block, plan, config), 10.0, rng)
                base = detect_noncoherent(noisy, plan, m)
                theta = float(rng.uniform(0.0, 2 * math.pi))
                rotated = detect_noncoherent(apply_phase_rotation(noisy, theta), plan, m)
                assert rotated.k_hat == base.k_hat

    def test_frequency_error_preserves_energy(self):
        config = link_config(m=16)
        plan = build_frequency_plan(config)
        signal = synthesize_block(random_block(np.random.default_rng(2), 8, 16), plan, config)
        moved = apply_carrier_freq_error(signal, 0.37)
        assert np.sum(np.abs(moved.samples) ** 2) == pytest.approx(np.sum(np.abs(signal.samples) ** 2), rel=1e-12)

    def test_one_step_frequency_error_shifts_the_decision_by_one(self):
        # An offset error of exactly delta_f turns tone k into tone k+1.
        config = link_config(n=8, m=4, df_t=1.0)
        plan = build_frequency_plan(config)
        rng = np.random.default_rng(11)
        for k in range(1, 8):
            block = random_block(rng, 8, 4)
            block = DataBlock(index_bits=demap_index(k, 8), symbol_bits=block.symbol_bits)
            signal = synthesize_block(block, plan, config)
            moved = apply_carrier_freq_error(signal, config.delta_f_hz)
            got = detect_joint_ml(moved, plan, 4)
            assert got.k_hat == k + 1
            assert got.symbol_bits_hat == block.symbol_bits


class TestMatchedFilterBank:
    def test_pure_tone_response(self):
        config = link_config(n=8, m=16, df_t=1.0)
        plan = build_frequency_plan(config)
        table = constellation(16)
        rng = np.random.default_rng(4)
        for _ in range(20):
            block = random_block(rng, 8, 16)
            k = int("".join(map(str, block.index_bits)), 2) + 1 if block.index_bits else 1
            signal = synthesize_block(block, plan, config)
            c = matched_filter_bank(signal, plan)
            count = len(signal)
            a = table[int("".join(map(str, block.symbol_bits)), 2)]
            assert c[k - 1] == pytest.approx(count * a, rel=1e-12)
            others = np.delete(np.abs(c), k - 1)
            assert np.all(others < 1e-9 * count)

    def test_linearity(self):
        config = link_config(n=4, m=4)
        plan = build_frequency_plan(config)
        rng = np.random.default_rng(5)
        x = synthesize_block(random_block(rng, 4, 4), plan, config)
        y = synthesize_block(random_block(rng, 4, 4), plan, config)
        both = BasebandSignal(samples=x.samples + y.samples, sample_rate=x.sample_rate, duration=x.duration)
        assert np.allclose(matched_filter_bank(both, plan), matched_filter_bank(x, plan) + matched_filter_bank(y, plan), rtol=1e-12)


class TestDetectors:
    def test_noiseless_exhaustive_all_detectors(self):
        config = link_config(n=8, m=16, df_t=1.0)
        plan = build_frequency_plan(config)
        detectors = (
            detect_joint_ml,
            detect_noncoherent,
            lambda s, p, m: detect_two_stage(s, p, m),
            brute_force_oracle,
        )
        for block, k, pattern in all_blocks(8, 16):
            signal = synthesize_block(block, plan, config)
            for detect in detectors:
                got = detect(signal, plan, 16)
                assert got.k_hat == k
                assert got.symbol_bits_hat == block.symbol_bits
                assert got.runner_up_margin > 0.0

    def test_fast_rule_matches_the_oracle_under_noise(self):
        config = link_config(n=8, m=16)
        plan = build_frequency_plan(config)
        rng = np.random.default_rng(42)
        for es_n0_db in (0.0, 5.0):
            for _ in range(150):
                block = random_block(rng, 8, 16)
                noisy = awgn(synthesize_block(block, plan, config), es_n0_db, rng)
                fast = detect_joint_ml(noisy, plan, 16)
                slow = brute_force_oracle(noisy, plan, 16)
                assert fast.k_hat == slow.k_hat
                assert fast.symbol_bits_hat == slow.symbol_bits_hat
                # The oracle metric is the full squared distance; the fast
                # metric drops the constant ||r||^2 term.
                r2 = float(np.sum(np.abs(noisy.samples) ** 2))
                assert slow.metric == pytest.approx(fast.metric + r2, rel=1e-9)
                assert slow.runner_up_margin == pytest.approx(fast.runner_up_margin, rel=1e-9, abs=1e-9)

    def test_oracle_metric_is_the_true_squared_distance(self):
        config = link_config(n=4, m=4)
        plan = build_frequency_plan(config)
        rng = np.random.default_rng(8)
        table = constellation(4)
        tones = np.exp(2j * math.pi * np.outer(plan.offsets, np.arange(config.samples_per_symbol)) / config.sample_rate)
        for _ in range(30):
            block = random_block(rng, 4, 4)
            noisy = awgn(synthesize_block(block, plan, config), 3.0, rng)
            got = brute_force_oracle(noisy, plan, 4)
            best = min(
                float(np.sum(np.abs(noisy.samples - a * tone) ** 2))
                for a in table
                for tone in tones
            )
            assert got.metric == pytest.approx(best, rel=1e-9)

    def test_sub_bin_offsets_stay_separable_with_padding(self):
        config = link_config(n=8, m=4, df_t=0.1)
        plan = build_frequency_plan(config)
        for block, k, pattern in all_blocks(8, 4):
            signal = synthesize_block(block, plan, config)
            got = detect_two_stage(signal, plan, 4, zero_pad_factor=16)
            assert got.k_hat == k
            assert got.symbol_bits_hat == block.symbol_bits

    def test_two_stage_trails_joint_ml_under_noise(self):
        # Paired trials, same noise for both rules.
        config = link_config(n=8, m=4, df_t=1.0)
        plan = build_frequency_plan(config)
        ml_errors = 0
        ts_errors = 0
        trials = 3000
        for trial in range(trials):
            rng = np.random.default_rng(1000 + trial)
            block = random_block(rng, 8, 4)
            k = int("".join(map(str, block.index_bits)), 2) + 1
            noisy = awgn(synthesize_block(block, plan, config), 10.0, rng)
            ml_errors += detect_joint_ml(noisy, plan, 4).k_hat != k
            ts_errors += detect_two_stage(noisy, plan, 4).k_hat != k
        assert ml_errors < ts_errors
        assert ml_errors / trials < 0.05

    def test_two_stage_rejects_bad_padding(self):
        config = link_config(n=4, m=4)
        plan = build_frequency_plan(config)
        signal = synthesize_block(DataBlock(index_bits=(0, 0), symbol_bits=(0, 0)), plan, config)
        for bad in (0, True, 2.5, "2"):
            with pytest.raises(ValueError, match=re.escape(f"zero_pad_factor must be an integer >= 1, got {bad!r}")):
                detect_two_stage(signal, plan, 4, zero_pad_factor=bad)

    def test_margins_are_nonnegative_under_noise(self):
        config = link_config(n=8, m=4)
        plan = build_frequency_plan(config)
        rng = np.random.default_rng(23)
        for _ in range(40):
            noisy = awgn(synthesize_block(random_block(rng, 8, 4), plan, config), 0.0, rng)
            for detect in (detect_joint_ml, detect_noncoherent, detect_two_stage, brute_force_oracle):
                assert detect(noisy, plan, 4).runner_up_margin >= 0.0

    def test_single_transmitter_margin_is_zero(self):
        config = link_config(n=1, m=4)
        plan = build_frequency_plan(config)
        signal = synthesize_block(DataBlock(index_bits=(), symbol_bits=(1, 0)), plan, config)
        got = detect_joint_ml(signal, plan, 4)
        assert got.k_hat == 1
        assert got.runner_up_margin == 0.0


# Literal per-offset references: the detectors as one Python loop over the n
# offsets.  The array kernels must reach the same decisions, ties included.
# Two-stage and the oracle also match the metrics bit for bit; joint-ml's
# metric now comes from numpy's array complex multiply and abs, which round
# differently from its scalar path, so it matches to a few ulps of S.
def reference_slice(c, m, count):
    table = constellation(m)
    metrics = np.empty(len(c))
    patterns = []
    for i, ck in enumerate(c):
        pattern = int(np.argmin(np.abs(table - ck / count) ** 2))
        a = table[pattern]
        metrics[i] = -2.0 * (np.conj(a) * ck).real + abs(a) ** 2 * count
        patterns.append(pattern)
    return metrics, patterns


def reference_pick(metrics):
    """The literal rule: the smallest metric wins, ties go to the smaller index, margin = second - first (0.0 when n == 1)."""
    order = np.argsort(metrics, kind="stable")
    return int(order[0]), metrics[order[1]] - metrics[order[0]] if len(metrics) > 1 else 0.0


def reference_joint_ml(signal, plan, m):
    metrics, patterns = reference_slice(matched_filter_bank(signal, plan), m, len(signal))
    best, margin = reference_pick(metrics)
    return DetectionResult(best + 1, msb_bits(patterns[best], (m - 1).bit_length()), float(metrics[best]), margin)


def reference_two_stage(signal, plan, m, zero_pad_factor=16):
    count = len(signal)
    padded = zero_pad_factor * count
    spectrum = np.abs(np.fft.fft(signal.samples, n=padded))
    freqs = np.fft.fftfreq(padded, d=1.0 / signal.sample_rate)
    nearest = np.abs(freqs[:, None] - np.asarray(plan.offsets)[None, :]).argmin(axis=1)
    peaks = np.zeros(plan.tx_count)
    for i in range(plan.tx_count):
        region = spectrum[nearest == i]
        if len(region):
            peaks[i] = region.max()
    best, margin = reference_pick(-peaks)
    bits = demap_symbol(matched_filter_bank(signal, plan)[best] / count, m)
    return DetectionResult(best + 1, bits, float(-peaks[best]), margin)


def reference_oracle(signal, plan, m):
    table = constellation(m)
    tones = np.conj(_conj_tones(plan.offsets, len(signal), signal.sample_rate))
    per_offset = np.empty(plan.tx_count)
    patterns = []
    for i in range(plan.tx_count):
        totals = (np.abs(signal.samples[None, :] - table[:, None] * tones[i][None, :]) ** 2).sum(axis=1)
        patterns.append(int(np.argmin(totals)))
        per_offset[i] = totals[patterns[-1]]
    best, margin = reference_pick(per_offset)
    return DetectionResult(best + 1, msb_bits(patterns[best], (m - 1).bit_length()), float(per_offset[best]), margin)


def assert_same_joint_ml(got, want, count):
    assert (got.k_hat, got.symbol_bits_hat) == (want.k_hat, want.symbol_bits_hat)
    assert got.metric == pytest.approx(want.metric, rel=1e-12, abs=1e-12 * count)
    assert got.runner_up_margin == pytest.approx(want.runner_up_margin, rel=1e-12, abs=1e-12 * count)


def zero_signal(config):
    return BasebandSignal(
        samples=np.zeros(config.samples_per_symbol, dtype=complex),
        sample_rate=config.sample_rate,
        duration=1.0 / config.symbol_rate,
    )


# Tie-heavy metric arrays, each with one sign at zero, as every kernel's metric has.
_TIED_METRICS = {
    "tied-minimum": [3.0, 1.0, 2.0, 1.0],
    "tied-minimum-last": [2.0, 5.0, 0.5, 0.5],
    "all-equal": [4.0, 4.0, 4.0, 4.0, 4.0],
    "n1": [7.0],
    "n1-rows": [[7.0], [-1.0], [0.0]],
    "n2-tied": [1.0, 1.0],
    "n2-rows": [[2.0, 1.0], [1.0, 2.0], [3.0, 3.0], [-0.0, -0.0]],
    "all-equal-rows": [[0.0] * 9, [-2.5] * 9, [1e300] * 9],
    "negative-zeros": [-0.0] * 18 + [1.0],
    "long-rows-of-few-values": np.random.default_rng(3).integers(0, 3, (43, 64)).astype(float),
    "long-negated-rows": -np.random.default_rng(4).integers(0, 2, (64, 8)).astype(float),
}


class TestPick:
    @pytest.mark.parametrize("metrics", list(_TIED_METRICS.values()), ids=list(_TIED_METRICS))
    def test_pick_is_the_stable_sort_rule_bit_for_bit(self, metrics):
        metrics = np.asarray(metrics, dtype=float)
        best, margin = _pick(metrics)
        assert np.shape(best) == np.shape(margin) == metrics.shape[:-1]
        want = [reference_pick(row) for row in metrics.reshape(-1, metrics.shape[-1])]
        assert np.reshape(best, -1).tolist() == [b for b, _ in want]
        assert np.reshape(margin, -1).tobytes() == np.array([gap for _, gap in want]).tobytes()


class TestKernelsMatchPerOffsetLoops:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 8, 16]),
        m=st.sampled_from([2, 4, 16, 64]),
        df_t=st.sampled_from([1e-300, 0.1, 0.25, 1.0]),
        es_n0_db=st.floats(-5.0, 30.0),
        phase=st.floats(0.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_noisy_blocks(self, n, m, df_t, es_n0_db, phase, seed):
        config = link_config(n=n, m=m, df_t=df_t)
        plan = build_frequency_plan(config)
        rng = np.random.default_rng(seed)
        signal = apply_phase_rotation(synthesize_block(random_block(rng, n, m), plan, config), phase)
        signal = awgn(signal, es_n0_db, rng)
        assert_same_joint_ml(detect_joint_ml(signal, plan, m), reference_joint_ml(signal, plan, m), len(signal))
        for pad in (1, 4):
            assert detect_two_stage(signal, plan, m, pad) == reference_two_stage(signal, plan, m, pad)
        assert brute_force_oracle(signal, plan, m) == reference_oracle(signal, plan, m)

    @pytest.mark.parametrize("m", [2, 4, 16, 64])
    def test_slicing_boundary_ties_go_to_the_smaller_pattern(self, m):
        table = constellation(m)
        count = 64
        # The origin and each point's real part lie at equal distance from
        # mirror-image points; the sign symmetry makes those ties exact.
        c = count * np.concatenate([[0.0], table.real, 1j * table.imag])
        # With n = 1 and the matched filter np.eye(1, count), row i's one output is its sample 0, c[i].
        rows = np.zeros((len(c), count), dtype=complex)
        rows[:, 0] = c
        kernel, _ = _joint_ml_rows(np.eye(1, count), m)
        _, patterns, metrics, _ = kernel(rows)
        want_metrics, want_patterns = reference_slice(c, m, count)
        assert patterns.tolist() == want_patterns
        assert metrics == pytest.approx(want_metrics, rel=1e-12, abs=1e-12 * count)
        for ck, pattern in zip(c, patterns):
            d = np.abs(table - ck / count) ** 2
            assert pattern == np.flatnonzero(d == d.min())[0]
        energy = np.abs(table) ** 2
        assert np.count_nonzero(energy == energy.min()) > 1  # so c = 0 is a tie

    @pytest.mark.parametrize("m", [4, 16])
    def test_all_zero_block(self, m):
        config = link_config(n=8, m=m)
        plan = build_frequency_plan(config)
        signal = zero_signal(config)
        got = detect_joint_ml(signal, plan, m)
        assert_same_joint_ml(got, reference_joint_ml(signal, plan, m), len(signal))
        assert (got.k_hat, got.runner_up_margin) == (1, 0.0)
        assert detect_two_stage(signal, plan, m) == reference_two_stage(signal, plan, m)
        assert brute_force_oracle(signal, plan, m) == reference_oracle(signal, plan, m)

    def test_two_stage_with_empty_snap_regions(self):
        config = link_config(n=8, m=4, df_t=0.1)
        plan = build_frequency_plan(config)
        _, runs = _snap_regions(plan.offsets, config.samples_per_symbol, config.sample_rate)
        regions = np.unique(runs)  # offset 0 owns two runs
        assert 0 < len(regions) < plan.tx_count
        rng = np.random.default_rng(5)
        for block, _, _ in all_blocks(8, 4):
            signal = synthesize_block(block, plan, config)
            for received in (signal, awgn(signal, 5.0, rng)):
                got = detect_two_stage(received, plan, 4, zero_pad_factor=1)
                assert got == reference_two_stage(received, plan, 4, zero_pad_factor=1)
                assert got.k_hat - 1 in regions

    def test_oracle_blocks_bound_memory_at_the_design_point(self):
        # One (n, m, S) candidate array would take 128 * 256 * 1024 * 16 B = 512 MiB.
        config = link_config(n=128, m=256)
        plan = build_frequency_plan(config)
        rng = np.random.default_rng(11)
        signal = awgn(synthesize_block(random_block(rng, 128, 256), plan, config), 30.0, rng)
        tracemalloc.start()
        try:
            got = brute_force_oracle(signal, plan, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert got == reference_oracle(signal, plan, 256)


class TestTableRetention:
    def test_bytes_held_do_not_grow_across_a_long_df_t_sweep(self):
        # Every df_t point builds its own tone, matched-filter, CFO and snap
        # tables (6 to 91 KiB here); kept after their point, 40 points would
        # hold 1.9 MiB.
        channel = {"es_n0_db": 10.0, "phase_rotation": 0.1, "carrier_freq_error": 0.01}
        data = scenario_data(channel=channel, detector="two-stage", trials=2, seed=5)
        df_ts = [0.1 * k for k in range(1, 41)]
        rows, held = [], []
        # Frozen, the objects alive before the runs are not scanned again: each
        # collection looks only at what the runs left, not at the whole session's heap.
        gc.freeze()
        tracemalloc.start()
        try:
            for df_t in df_ts:
                rows += run_monte_carlo(scenario_from_dict({**data, "sweep": {"df_t": [df_t]}}))
                gc.collect()
                held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
            gc.unfreeze()
        assert held[-1] - held[0] < 32 * 1024
        assert rows == run_monte_carlo(scenario_from_dict({**data, "sweep": {"df_t": df_ts}}))
