"""One block through the baseband chain, then error rates over an SNR sweep."""

import numpy as np

from fomlink import (
    DataBlock,
    SystemConfig,
    awgn,
    build_frequency_plan,
    detect_joint_ml,
    run_monte_carlo,
    scenario_from_dict,
    synthesize_block,
)

config = SystemConfig(
    n=8, m=4, bandwidth_hz=1.0, delta_f_hz=1.0, symbol_rate=1.0, carrier_hz=1e6, oversample=8
)
plan = build_frequency_plan(config)

block = DataBlock(index_bits=(1, 0, 1), symbol_bits=(0, 1))
signal = synthesize_block(block, plan, config)
print(f"one interval: {len(signal)} samples at {signal.sample_rate:g} Hz")

noisy = awgn(signal, es_n0_db=10.0, rng_seed=1)
decision = detect_joint_ml(noisy, plan, config.m)
print(f"sent tx 6, bits 01 -> decided tx {decision.k_hat}, "
      f"bits {''.join(map(str, decision.symbol_bits_hat))}, "
      f"margin {decision.runner_up_margin:.1f}")
print()

scenario = scenario_from_dict({
    "system": config.to_dict(),
    "channel": {"es_n0_db": 10.0},
    "detector": "joint-ml",
    "trials": 4000,
    "seed": 42,
    "sweep": {"es_n0_db": [0, 5, 10, 15, 20]},
})
print("es_n0_db  index_err  block_err   bit_err")
for row in run_monte_carlo(scenario):
    print(f"{row.es_n0_db:8.0f}  {row.index_error_rate:9.4f}  "
          f"{row.block_error_rate:9.4f}  {row.bit_error_rate:8.4f}")
