"""Inputs that several test files build alike: the unit-rate link, its base scenario, and blocks from bit patterns.

Only public fomlink names are used, and bits are unpacked here, so the tests do not lean on the codec's own helpers."""

from fomlink.codec import DataBlock, demap_index
from fomlink.system import SystemConfig


def link_config(n=8, m=4, df_t=1.0):
    """A link at unit bandwidth and symbol rate, oversampled 8 times, so delta_f * T == df_t directly."""
    return SystemConfig(n=n, m=m, bandwidth_hz=1.0, delta_f_hz=df_t, symbol_rate=1.0, carrier_hz=1e6, oversample=8)


def scenario_data(**overrides):
    """The 8x4 joint-ml scenario at 10 dB, 64 trials, seed 42, as parsed JSON; each override replaces a key."""
    data = {
        "system": link_config().to_dict(),
        "channel": {"es_n0_db": 10.0},
        "detector": "joint-ml",
        "trials": 64,
        "seed": 42,
    }
    data.update(overrides)
    return data


def msb_bits(value, width):
    """The `width` low bits of `value`, most significant first."""
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def all_blocks(n, m):
    """(block, k, pattern) for every offset k in 1..n and symbol pattern in 0..m-1, k outermost."""
    width = (m - 1).bit_length()
    for k in range(1, n + 1):
        for pattern in range(m):
            yield DataBlock(index_bits=demap_index(k, n), symbol_bits=msb_bits(pattern, width)), k, pattern
