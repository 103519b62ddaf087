"""End-to-end acceptance checks.

Each test prints one `criterion NN PASS/FAIL` line; run with `pytest -s`
to see them stream.  Numbers match the acceptance checklist in the README.
"""

import io
import math

import numpy as np

from fomlink.analytics import (
    energy_efficiency_ratio,
    grid_sweep,
    hybrid_ratios,
    min_tx_count,
    preset_grid,
    spectral_efficiency_ratio,
)
from fomlink.codec import DataBlock, demap_index
from fomlink.ofdm import fom_to_ofdm_params, frame_awgn, modulate_frame
from fomlink.phy import (
    BasebandSignal,
    awgn,
    brute_force_oracle,
    detect_joint_ml,
    detect_noncoherent,
    detect_two_stage,
    matched_filter_bank,
    synthesize_block,
)
from fomlink.scenario import (
    run_monte_carlo,
    scenario_from_dict,
    wilson_interval,
    write_metrics_csv,
)
from fomlink.system import SystemConfig, build_frequency_plan
from builders import all_blocks, link_config, scenario_data

POW2_M = [2, 4, 16, 64, 256, 1024, 4096]
POW2_N = [1, 2, 4, 8, 16, 32, 64, 128]


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_reference_spectral_gain():
    got = spectral_efficiency_ratio(256, 128, 0.01)
    ok = round(got, 2) == 1.86
    _verdict(1, ok, f"spectral gain at m=256, n=128, eta=0.01 is {got:.6f}, rounds to {round(got, 2)}")


def test_criterion_02_gain_envelope_across_expansions():
    points = grid_sweep(preset_grid("fig5"))
    gains = [p.gamma_se for p in points]
    low, high = min(gains), max(gains)
    # The envelope floor is 1.4394; it rounds to the advertised 1.44.
    ok = round(low, 2) >= 1.44 and 7.9 <= high <= 8.0
    _verdict(2, ok, f"n=128 gain envelope spans [{low:.4f}, {high:.4f}] over eta in [1e-3, 1e-1]")


def test_criterion_03_losses_only_without_index_bits():
    points = grid_sweep(preset_grid("fig4a"))
    offenders = [(p.m, p.n) for p in points if p.gamma_se <= 1.01 and p.n != 1]
    ok = not offenders and all(p.gamma_se <= 1.01 for p in points if p.n == 1)
    _verdict(3, ok, f"at eta=0.01 only n=1 cells sit at or below 1.01 (violations: {offenders})")


def test_criterion_04_break_even_threshold():
    rng = np.random.default_rng(4)
    mismatches = 0
    for _ in range(1000):
        m = int(rng.choice(POW2_M))
        n = int(rng.choice(POW2_N))
        expansion = float(rng.uniform(0.0, 0.2))
        gain = spectral_efficiency_ratio(m, n, expansion)
        if (gain >= 1.0) != (n >= min_tx_count(m, expansion)):
            mismatches += 1
    m, n = 16, 4
    boundary = spectral_efficiency_ratio(m, n, math.log2(n) / math.log2(m))
    exact = abs(boundary - 1.0) < 1e-12
    anchor = abs(energy_efficiency_ratio(256, 128) - 8 / 15) < 1e-15
    ok = mismatches == 0 and exact and anchor
    _verdict(
        4,
        ok,
        f"gain>=1 iff n>=m**eta on 1000 random draws ({mismatches} mismatches), "
        f"boundary gain-1 = {boundary - 1.0:.2e}, energy ratio anchor holds: {anchor}",
    )


def test_criterion_05_two_axis_indexing_identity():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        m = int(rng.choice(POW2_M))
        n = int(rng.choice(POW2_N))
        expansion = float(rng.uniform(0.0, 0.2))
        ee, se = hybrid_ratios(m, n, expansion)
        term = math.log2(n) / math.log2(m)
        worst = max(worst, abs(ee * (1.0 + 2.0 * term) - 1.0))
        worst = max(worst, abs(se * (1.0 + expansion) - (1.0 + 2.0 * term)))
    ok = worst < 1e-12
    _verdict(5, ok, f"doubled index term identities hold on 100 random draws (worst residual {worst:.2e})")


def test_criterion_06_noiseless_exhaustive_decoding():
    config = link_config(n=8, m=16)
    plan = build_frequency_plan(config)
    detectors = {
        "joint-ml": detect_joint_ml,
        "noncoherent": detect_noncoherent,
        "two-stage": detect_two_stage,
        "oracle": brute_force_oracle,
    }
    failures = 0
    cases = 0
    for block, k, _ in all_blocks(8, 16):
        signal = synthesize_block(block, plan, config)
        cases += 1
        for detect in detectors.values():
            got = detect(signal, plan, 16)
            if got.k_hat != k or got.symbol_bits_hat != block.symbol_bits:
                failures += 1
    ok = failures == 0 and cases == 128
    _verdict(6, ok, f"all {cases} noiseless (index, symbol) cases decode exactly under every detector ({failures} failures)")


def test_criterion_07_fast_rule_equals_exhaustive_search():
    config = link_config(n=8, m=16)
    plan = build_frequency_plan(config)
    rng = np.random.default_rng(42)
    agree = 0
    trials = 500
    for _ in range(trials):
        k = int(rng.integers(1, 9))
        bits = tuple(int(b) for b in rng.integers(0, 2, size=4))
        block = DataBlock(index_bits=demap_index(k, 8), symbol_bits=bits)
        noisy = awgn(synthesize_block(block, plan, config), 5.0, rng)
        fast = detect_joint_ml(noisy, plan, 16)
        slow = brute_force_oracle(noisy, plan, 16)
        agree += fast.k_hat == slow.k_hat and fast.symbol_bits_hat == slow.symbol_bits_hat
    ok = agree == trials
    _verdict(7, ok, f"matched-filter rule agrees with exhaustive search on {agree}/{trials} noisy blocks at 5 dB")


def test_criterion_08_tone_bank_is_a_dft():
    link = SystemConfig(n=8, m=4, bandwidth_hz=8.0, delta_f_hz=1.0, symbol_rate=1.0, carrier_hz=1e6, oversample=2)
    plan = build_frequency_plan(link)
    kept = link.samples_per_symbol
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 9))
        bits = tuple(int(b) for b in rng.integers(0, 2, size=2))
        clean = synthesize_block(DataBlock(index_bits=demap_index(k, 8), symbol_bits=bits), plan, link)
        noisy = clean.samples + 0.5 * (rng.standard_normal(kept) + 1j * rng.standard_normal(kept))
        signal = BasebandSignal(samples=noisy, sample_rate=clean.sample_rate, duration=clean.duration)
        bank = matched_filter_bank(signal, plan)
        dft = math.sqrt(kept) * np.fft.fft(noisy, norm="ortho")[:8]
        worst = max(worst, float(np.max(np.abs(bank - dft)) / np.max(np.abs(bank))))
    ok = worst < 1e-9
    _verdict(8, ok, f"matched-filter bank equals the scaled DFT on 100 noisy frames (worst relative error {worst:.2e})")


def test_criterion_09_index_errors_vanish_at_high_snr():
    s = scenario_from_dict(scenario_data(channel={"es_n0_db": 20.0}, trials=10_000))
    row = run_monte_carlo(s)[0]
    ok = row.index_error_rate < 1e-3
    _verdict(9, ok, f"index error rate at 20 dB over {row.trials} blocks is {row.index_error_rate:.2e} (< 1e-3)")


def test_criterion_10_narrow_offsets_cost_errors():
    trials = 10_000
    s = scenario_from_dict(scenario_data(trials=trials, sweep={"df_t": [0.1, 1.0]}))
    rows = run_monte_carlo(s, workers=4)
    narrow, wide = rows[0].index_error_rate, rows[1].index_error_rate
    lo_narrow, _ = wilson_interval(round(narrow * trials), trials)
    _, hi_wide = wilson_interval(round(wide * trials), trials)
    ok = narrow > wide and hi_wide < lo_narrow
    _verdict(
        10,
        ok,
        f"index error rate {narrow:.4f} at df*T=0.1 vs {wide:.4f} at df*T=1.0 "
        f"(95% intervals separated: {hi_wide:.4f} < {lo_narrow:.4f})",
    )


def test_criterion_11_reproducible_metrics():
    s = scenario_from_dict(scenario_data(trials=2500, sweep={"es_n0_db": [5.0, 10.0]}))

    def render(workers):
        buf = io.StringIO()
        write_metrics_csv(run_monte_carlo(s, workers=workers), s, buf)
        return buf.getvalue()

    once = render(1)
    again = render(1)
    threaded = render(4)
    ok = once == again and once == threaded
    _verdict(11, ok, "same seed gives byte-identical CSV, and the worker count does not change it")


def test_criterion_summary_runs_ofdm_equivalent_end_to_end():
    # Not numbered: a smoke pass over the frame mode so the acceptance run
    # touches every major entry point at least once.
    link = SystemConfig(n=8, m=4, bandwidth_hz=8.0, delta_f_hz=1.0, symbol_rate=1.0, carrier_hz=1e6, oversample=2)
    cfg = fom_to_ofdm_params(link, cp_len=2)
    rng = np.random.default_rng(3)
    frame = modulate_frame(DataBlock(index_bits=(1, 0, 1), symbol_bits=(0, 1)), cfg)
    noisy = frame_awgn(frame, 25.0, rng)
    assert len(noisy.time_samples) == cfg.frame_len
