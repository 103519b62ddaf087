"""Batch detection kernels: a (T, S) block of received rows against the per-block public functions.

The engine detects each block of trials with one kernel call; the public
detectors call the same kernel with one row.  Row t of a batch must decide
as the public function does on row t alone.  Two-stage, the oracle and the
OFDM demodulator match bit for bit.  joint-ml and noncoherent correlate a
block with one matrix product, whose BLAS rounding differs in the last bits
from a one-row product, so their metrics match to a few ulps of S.

The engine's transmitter and channel work on bare sample rows; the rows it
hands to a kernel must equal, bit for bit, what the public record chain
computes from the same draws.
"""

import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fomlink.phy
import fomlink.scenario
from fomlink.codec import DataBlock
from fomlink.ofdm import (
    OfdmConfig,
    OfdmFrame,
    _demodulate_rows,
    demodulate_frame,
    fom_to_ofdm_params,
    frame_awgn,
    modulate_frame,
)
from fomlink.phy import (
    _BLOCK_SAMPLES,
    BasebandSignal,
    _fom_link,
    apply_carrier_freq_error,
    apply_phase_rotation,
    awgn,
    brute_force_oracle,
    detect_joint_ml,
    detect_noncoherent,
    detect_two_stage,
    synthesize_block,
)
from fomlink.scenario import _CHUNK, _DUMP_BLOCKS, _count_chunk, _sweep_point, run_monte_carlo, scenario_from_dict
from fomlink.system import build_frequency_plan
from builders import link_config, msb_bits, scenario_data


def random_block(rng, n, m):
    bits = rng.integers(0, 2, size=(n - 1).bit_length() + (m - 1).bit_length()).tolist()
    split = (n - 1).bit_length()
    return DataBlock(index_bits=tuple(bits[:split]), symbol_bits=tuple(bits[split:]))


def batch_rows(detector, rows, plan, m, sample_rate, zero_pad_factor=16):
    """The detector's batch kernel over every row, its tables built for this call."""
    return _fom_link(detector, plan, m, rows.shape[-1], sample_rate, zero_pad_factor).detect(rows)


def as_results(kernel_result, m):
    """(k_hat, symbol bits, metric, margin) per row, as the public records hold them."""
    best, pattern, metric, margin = kernel_result
    bits = [msb_bits(int(p), (m - 1).bit_length()) for p in pattern]
    return list(zip((int(b) + 1 for b in best), bits, metric.tolist(), margin.tolist()))


def assert_rows_match(batch, singles, exact, count):
    assert len(batch) == len(singles)
    for (k, bits, metric, margin), want in zip(batch, singles):
        assert (k, bits) == (want.k_hat, want.symbol_bits_hat)
        if exact:
            assert (metric, margin) == (want.metric, want.runner_up_margin)
        else:
            assert metric == pytest.approx(want.metric, rel=1e-12, abs=1e-12 * count)
            assert margin == pytest.approx(want.runner_up_margin, rel=1e-12, abs=1e-12 * count)


class TestBatchMatchesPublicDetectors:
    @settings(max_examples=40, deadline=None)
    @given(
        trials=st.sampled_from([1, 2, 37]),
        n=st.sampled_from([1, 2, 8, 16]),
        m=st.sampled_from([2, 4, 16, 64]),
        df_t=st.sampled_from([1e-300, 0.1, 0.25, 1.0]),
        es_n0_db=st.floats(-5.0, 30.0),
        zero_rows=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fom_detectors(self, trials, n, m, df_t, es_n0_db, zero_rows, seed):
        config = link_config(n, m, df_t)
        plan = build_frequency_plan(config)
        rng = np.random.default_rng(seed)
        rows = np.zeros((trials, config.samples_per_symbol), dtype=complex)
        # The last zero_rows rows stay all zero: every metric ties there.
        for t in range(max(trials - zero_rows, 0)):
            signal = synthesize_block(random_block(rng, n, m), plan, config)
            rows[t] = awgn(apply_phase_rotation(signal, float(rng.uniform(0, 6))), es_n0_db, rng).samples
        signals = [BasebandSignal(row, config.sample_rate, 1.0 / config.symbol_rate) for row in rows]
        fs, count = config.sample_rate, config.samples_per_symbol

        batch = as_results(batch_rows("joint-ml", rows, plan, m, fs), m)
        assert_rows_match(batch, [detect_joint_ml(s, plan, m) for s in signals], False, count)
        batch = as_results(batch_rows("noncoherent", rows, plan, m, fs), m)
        assert_rows_match(batch, [detect_noncoherent(s, plan, m) for s in signals], False, count)
        for pad in (1, 4):
            batch = as_results(batch_rows("two-stage", rows, plan, m, fs, pad), m)
            assert_rows_match(batch, [detect_two_stage(s, plan, m, pad) for s in signals], True, count)
        batch = as_results(batch_rows("oracle", rows, plan, m, fs), m)
        assert_rows_match(batch, [brute_force_oracle(s, plan, m) for s in signals], True, count)

    @settings(max_examples=40, deadline=None)
    @given(
        trials=st.sampled_from([1, 2, 37]),
        n=st.sampled_from([2, 4, 16, 64]),
        m=st.sampled_from([2, 4, 16]),
        cp_len=st.sampled_from([0, 1, 2]),
        index_mode=st.sampled_from(["single-active", "single-silent"]),
        es_n0_db=st.floats(-5.0, 30.0),
        zero_rows=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ofdm_demodulator(self, trials, n, m, cp_len, index_mode, es_n0_db, zero_rows, seed):
        cfg = OfdmConfig(n_subcarriers=n, spacing_hz=1.0, m=m, cp_len=cp_len, index_mode=index_mode)
        rng = np.random.default_rng(seed)
        rows = np.zeros((trials, cfg.frame_len), dtype=complex)
        # An all-zero single-silent frame has no active-bin energy: its symbol estimate is 0.
        for t in range(max(trials - zero_rows, 0)):
            rows[t] = frame_awgn(modulate_frame(random_block(rng, n, m), cfg), es_n0_db, rng).time_samples
        singles = [demodulate_frame(OfdmFrame(row, cfg.sample_rate), cfg) for row in rows]
        assert_rows_match(as_results(_demodulate_rows(rows, cfg), m), singles, True, n)


class TestSubBlocks:
    @pytest.mark.parametrize("detector", ["two-stage", "oracle"])
    def test_kernels_do_not_depend_on_the_sub_block_size(self, detector, monkeypatch):
        # 100 rows at 64 samples per symbol, in sub-blocks of 1 row, of the
        # default size (8 zero-padded FFT rows or 32 oracle rows, the last one
        # partial) and of all 100 rows: the same four arrays, bit for bit.
        n, m = 8, 4
        config = link_config(n, m, df_t=0.25)
        plan = build_frequency_plan(config)
        rng = np.random.default_rng(5)
        rows = np.stack(
            [awgn(synthesize_block(random_block(rng, n, m), plan, config), 3.0, rng).samples for _ in range(100)]
        )
        results = []
        for block_samples in (1, _BLOCK_SAMPLES, 1 << 30):
            monkeypatch.setattr(fomlink.phy, "_BLOCK_SAMPLES", block_samples)
            results.append(batch_rows(detector, rows, plan, m, config.sample_rate))
        for got in results[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(got, results[0]))


# Peak traced bytes of one engine chunk, measured after the point's tables
# are built and a warm-up call has run.  The slack covers the interpreter's
# free lists (about 2000 tuples the per-trial bits leave behind) and small
# records.
SLACK = 256 * 1024
COMPLEX = 16


def chunk_peak(data, trials):
    scenario = scenario_from_dict({**data, "trials": trials})
    point = _sweep_point(scenario, scenario.system)
    _count_chunk(scenario, point, scenario.channel.es_n0_db, 0, 1)
    tracemalloc.start()
    try:
        counts, _ = _count_chunk(scenario, point, scenario.channel.es_n0_db, 0, trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 <= counts[0] <= trials
    return peak


def impaired_data(n, m, detector, **extra):
    channel = {"es_n0_db": 10.0, "phase_rotation": 0.1, "carrier_freq_error": 0.01}
    return scenario_data(system=link_config(n, m).to_dict(), channel=channel, detector=detector, trials=1, seed=3) | extra


class TestBlockMemoryBound:
    def test_joint_ml_chunk_at_the_design_point(self):
        # 128x256 at 1024 samples per symbol: blocks of 4 received rows, and
        # the (n, m) slicing distances one row at a time (512 KiB each).  All
        # 1024 rows at once would hold 16 MiB of samples alone.
        n, m = 128, 256
        peak = chunk_peak(impaired_data(n, m, "joint-ml"), 1024)
        assert peak < COMPLEX * (_BLOCK_SAMPLES + 4 * n * m) + SLACK

    @pytest.mark.parametrize("zero_pad_factor", [16, _BLOCK_SAMPLES // 64])
    def test_two_stage_padded_blocks(self, zero_pad_factor):
        # n=8, m=4: 64 samples per symbol, so the second factor pads one row
        # to the whole bound; each FFT step's spectrum is complex, its magnitude real.
        peak = chunk_peak(impaired_data(8, 4, "two-stage", zero_pad_factor=zero_pad_factor), 1024)
        assert peak < COMPLEX * 6 * _BLOCK_SAMPLES + SLACK

    def test_oracle_block_at_the_design_point(self):
        # One offset's candidates (m x S = 4 MiB) exceed the bound, so the
        # oracle takes one row and one offset at a time.  This is one engine
        # block of the chunk (4 rows); a whole 1024-trial oracle chunk at
        # 128x256 takes minutes.
        n, m = 128, 256
        config = link_config(n, m)
        plan = build_frequency_plan(config)
        rng = np.random.default_rng(11)
        rows = np.stack(
            [
                awgn(synthesize_block(random_block(rng, n, m), plan, config), 30.0, rng).samples
                for _ in range(_BLOCK_SAMPLES // config.samples_per_symbol)
            ]
        )
        oracle = _fom_link("oracle", plan, m, config.samples_per_symbol, config.sample_rate).detect
        oracle(rows[:1])
        tracemalloc.start()
        try:
            best, pattern, _, _ = oracle(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < COMPLEX * 4 * m * config.samples_per_symbol
        joint = batch_rows("joint-ml", rows, plan, m, config.sample_rate)
        assert best.tolist() == joint[0].tolist() and pattern.tolist() == joint[1].tolist()

    @pytest.mark.parametrize("n", [2, 8])
    def test_ofdm_slicing_at_large_m(self, n):
        # The slicer's m = 4096 distances per frame outnumber its n samples, so
        # the frames go one per block; blocks sized by the frame alone held
        # 96 MiB (n=2) or 48 MiB (n=8) of distances.
        ofdm = {"n_subcarriers": n, "spacing_hz": 1.0, "m": 4096, "cp_len": 0, "index_mode": "single-active"}
        peak = chunk_peak(impaired_data(n, 4096, "joint-ml", mode="ofdm", ofdm=ofdm), 1024)
        assert peak < COMPLEX * 2 * _BLOCK_SAMPLES + SLACK

    def test_row_blocks_of_a_chunk_count_every_trial(self):
        # 1000 trials at 64 samples per symbol: 15 full blocks of 64 rows and
        # one of 40; noiseless, every drawn index and pattern comes back.
        data = impaired_data(8, 4, "oracle", channel={"es_n0_db": None})
        scenario = scenario_from_dict({**data, "trials": 1000})
        point = _sweep_point(scenario, scenario.system)
        counts, margin_sum = _count_chunk(scenario, point, scenario.channel.es_n0_db, 0, 1000)
        assert counts == [0, 0, 0, 0]
        assert margin_sum > 0.0


def engine_blocks(scenario, monkeypatch):
    """Every block of rows the engine hands to the scenario's detection kernel, in trial order."""
    captured = []

    def recording_point(scenario, config):
        link, phasor = _sweep_point(scenario, config)

        def record(rows):
            captured.append(rows.copy())  # the engine reuses its block buffer
            return link.detect(rows)

        return replace(link, detect=record), phasor

    monkeypatch.setattr(fomlink.scenario, "_sweep_point", recording_point)
    run_monte_carlo(scenario)
    return captured


def public_chain_rows(scenario):
    """Every trial's received samples, rebuilt one trial at a time through the public records."""
    channel = scenario.channel
    config = scenario.system
    if scenario.mode == "ofdm":
        cfg = scenario.ofdm or fom_to_ofdm_params(config)
        transmit, add_noise = (lambda block: modulate_frame(block, cfg)), frame_awgn
    else:
        plan = build_frequency_plan(config)
        transmit, add_noise = (lambda block: synthesize_block(block, plan, config)), awgn
    split = (config.n - 1).bit_length()
    width = split + (config.m - 1).bit_length()
    rows = []
    for start in range(0, scenario.trials, _CHUNK):
        rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, start // _CHUNK]))
        # The chunk's payloads come first, one value per trial: its bits, MSB first, are the block's bits.
        values = rng.integers(0, 1 << width, size=min(start + _CHUNK, scenario.trials) - start)
        for value in values.tolist():
            bits = tuple(int(bit) for bit in format(value, f"0{width}b"))
            signal = transmit(DataBlock(index_bits=bits[:split], symbol_bits=bits[split:]))
            if channel.phase_rotation:
                signal = apply_phase_rotation(signal, channel.phase_rotation)
            if channel.carrier_freq_error:
                signal = apply_carrier_freq_error(signal, channel.carrier_freq_error)
            rows.append(add_noise(signal, channel.es_n0_db, rng).samples)
    return np.array(rows)


IMPAIRED = {"phase_rotation": 0.7, "carrier_freq_error": 0.013}


class TestEngineRowsMatchPublicChain:
    @pytest.mark.parametrize(
        "n, m, detector, trials, es_n0_db",
        [
            (8, 4, "joint-ml", _CHUNK + 76, 5.0),  # two chunks, two streams
            (8, 4, "two-stage", 100, None),
            (1, 16, "joint-ml", 200, 8.0),  # no index bits
            (8, 4, "noncoherent", 150, 5.0),
            (8, 4, "oracle", 100, 5.0),
            (16, 64, "joint-ml", 300, 10.0),  # n * m slicing terms per row exceed S: blocks of 4 rows
        ],
    )
    def test_fom(self, n, m, detector, trials, es_n0_db, monkeypatch):
        data = impaired_data(n, m, detector, trials=trials, channel={"es_n0_db": es_n0_db, **IMPAIRED})
        scenario = scenario_from_dict(data)
        got, want = np.concatenate(engine_blocks(scenario, monkeypatch)), public_chain_rows(scenario)
        assert got.shape == (trials, scenario.system.samples_per_symbol)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "impairments, trials, es_n0_db, block_rows",
        [
            ({"phase_rotation": 0.7}, 100, 5.0, [64, 36]),  # rotation only
            ({"carrier_freq_error": 0.013}, 100, 5.0, [64, 36]),  # CFO only
            ({}, 100, None, [64, 36]),  # neither
            (IMPAIRED, 130, 5.0, [64, 64, 2]),  # 64 rows at most: three blocks of unequal size
        ],
    )
    def test_fom_channel_branches(self, impairments, trials, es_n0_db, block_rows, monkeypatch):
        data = impaired_data(8, 4, "joint-ml", trials=trials, channel={"es_n0_db": es_n0_db, **impairments})
        scenario = scenario_from_dict(data)
        blocks = engine_blocks(scenario, monkeypatch)
        assert [len(block) for block in blocks] == block_rows
        assert np.array_equal(np.concatenate(blocks), public_chain_rows(scenario))

    @pytest.mark.parametrize(
        "index_mode, cp_len, es_n0_db",
        [("single-active", 0, 6.0), ("single-silent", 4, 6.0), ("single-active", 4, None), ("single-silent", 0, None)],
    )
    def test_ofdm(self, index_mode, cp_len, es_n0_db, monkeypatch):
        ofdm = {"n_subcarriers": 16, "spacing_hz": 1.0, "m": 16, "cp_len": cp_len, "index_mode": index_mode}
        channel = {"es_n0_db": es_n0_db, **IMPAIRED}
        scenario = scenario_from_dict(impaired_data(16, 16, "joint-ml", mode="ofdm", ofdm=ofdm, trials=300, channel=channel))
        got, want = np.concatenate(engine_blocks(scenario, monkeypatch)), public_chain_rows(scenario)
        assert got.shape == (300, 16 + cp_len)
        assert np.array_equal(got, want)

    def test_ofdm_rotation_only(self, monkeypatch):
        ofdm = {"n_subcarriers": 16, "spacing_hz": 1.0, "m": 16, "cp_len": 4, "index_mode": "single-active"}
        channel = {"es_n0_db": 6.0, "phase_rotation": 0.7}
        scenario = scenario_from_dict(impaired_data(16, 16, "joint-ml", mode="ofdm", ofdm=ofdm, trials=300, channel=channel))
        got = np.concatenate(engine_blocks(scenario, monkeypatch))
        assert got.shape == (300, 20)
        assert np.array_equal(got, public_chain_rows(scenario))

    @pytest.mark.parametrize("index_mode, cp_len", [("single-active", 0), ("single-silent", 2)])
    def test_ofdm_blocks_are_sized_by_the_slicer(self, index_mode, cp_len, monkeypatch):
        # m = 256 slicing distances per row exceed the 8 + cp_len frame samples:
        # blocks of at most 4096 // 256 = 16 rows, so 100 trials make 6 x 16 + 4.
        ofdm = {"n_subcarriers": 8, "spacing_hz": 1.0, "m": 256, "cp_len": cp_len, "index_mode": index_mode}
        channel = {"es_n0_db": 6.0, **IMPAIRED}
        scenario = scenario_from_dict(impaired_data(8, 256, "joint-ml", mode="ofdm", ofdm=ofdm, trials=100, channel=channel))
        blocks = engine_blocks(scenario, monkeypatch)
        assert [len(block) for block in blocks] == [16] * 6 + [4]
        assert np.array_equal(np.concatenate(blocks), public_chain_rows(scenario))

    def test_dump_across_blocks_holds_the_public_chain_rows(self):
        # joint-ml at 64x64 runs one row per block, so the dumped trials span _DUMP_BLOCKS blocks.
        scenario = scenario_from_dict(impaired_data(64, 64, "joint-ml", trials=12, channel={"es_n0_db": 10.0, **IMPAIRED}))
        assert _sweep_point(scenario, scenario.system)[0].rows < _DUMP_BLOCKS
        buf = io.StringIO()
        run_monte_carlo(scenario, dump_signals=buf)
        blocks = buf.getvalue().split("# block ")[1:]
        assert [int(block.split(" ", 1)[0]) for block in blocks] == list(range(_DUMP_BLOCKS))
        for block, want in zip(blocks, public_chain_rows(scenario)):
            assert block.splitlines()[1:] == [f"{t},{v.real:.12g},{v.imag:.12g}" for t, v in enumerate(want)]
