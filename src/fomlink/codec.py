"""Bit framing and symbol mapping for joint index/QAM signaling.

A data block carries log2(n) index bits (which transmitter fires) followed
by log2(m) symbol bits (which QAM point it radiates), both MSB first.  The
index map is plain binary: bits 101 with n = 8 select transmitter k = 6
(1-based).  Constellations are Gray-coded square QAM normalized to unit
average energy; BPSK (m = 2) maps bit 0 to +1.  Demapping is nearest
neighbor with ties resolved toward the smaller bit-pattern value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

__all__ = [
    "DataBlock",
    "FrameResult",
    "frame_bits",
    "deframe",
    "map_index",
    "demap_index",
    "constellation",
    "map_symbol",
    "demap_symbol",
    "export_constellation_csv",
]

SUPPORTED_M = (2, 4, 16, 64, 256, 1024, 4096)


@dataclass(frozen=True)
class DataBlock:
    """One signaling interval's payload; index_bits is empty when n == 1."""

    index_bits: tuple[int, ...]
    symbol_bits: tuple[int, ...]


@dataclass(frozen=True)
class FrameResult:
    blocks: tuple[DataBlock, ...]
    pad_bits: int


def _bit_tuple(bits: Iterable[int]) -> tuple[int, ...]:
    out = tuple(map(int, bits))
    if not {0, 1}.issuperset(out):
        raise ValueError("bits must be 0 or 1")
    return out


def _is_power_of_two(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1 and (value & (value - 1)) == 0


def _log2_count(value: int, name: str) -> int:
    if not _is_power_of_two(value):
        raise ValueError(f"{name} must be a power-of-two integer >= 1, got {value!r}")
    return value.bit_length() - 1


def _bits_to_int(bits: Sequence[int]) -> int:
    """MSB-first value of a bit sequence."""
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def _int_to_bits(value: int, width: int) -> tuple[int, ...]:
    """The low ``width`` bits of value, MSB first; inverse of `_bits_to_int`."""
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def frame_bits(bits: Iterable[int], m: int, n: int) -> FrameResult:
    """Split a bit sequence into (index, symbol) blocks, zero-padding the tail.

    Block size is log2(n) + log2(m) with the index bits first; pad_bits
    counts the appended zeros (always less than one block).
    """
    seq = _bit_tuple(bits)
    idx_len = _log2_count(n, "n")
    sym_len = _log2_count(m, "m")
    if sym_len == 0:
        raise ValueError(f"m must be at least 2, got {m!r}")
    block = idx_len + sym_len
    pad = (-len(seq)) % block
    seq = seq + (0,) * pad
    blocks = tuple(
        DataBlock(index_bits=seq[i : i + idx_len], symbol_bits=seq[i + idx_len : i + block])
        for i in range(0, len(seq), block)
    )
    return FrameResult(blocks=blocks, pad_bits=pad)


def deframe(blocks: Iterable[DataBlock], pad_bits: int) -> np.ndarray:
    """Concatenate block bits and drop the pad; inverse of `frame_bits`."""
    flat: list[int] = []
    for b in blocks:
        flat.extend(b.index_bits)
        flat.extend(b.symbol_bits)
    if pad_bits < 0 or pad_bits > len(flat):
        raise ValueError(f"pad_bits {pad_bits} out of range for {len(flat)} framed bits")
    if pad_bits and any(flat[len(flat) - pad_bits :]):
        raise ValueError("pad bits must be zero")
    return np.array(flat[: len(flat) - pad_bits] if pad_bits else flat, dtype=np.int64)


def map_index(index_bits: Sequence[int]) -> int:
    """MSB-first binary value of the index bits, as a 1-based transmitter index."""
    return 1 + _bits_to_int(_bit_tuple(index_bits))


def _block_value(block: DataBlock, n: int, m: int) -> tuple[int, int]:
    """The 0-based transmitter index and the symbol pattern a block carries, its bit counts checked against n and m."""
    for kind, bits, name, count in (("index", block.index_bits, "n", n), ("symbol", block.symbol_bits, "m", m)):
        if len(bits) != (count - 1).bit_length():
            raise ValueError(f"block has {len(bits)} {kind} bits, {name}={count} needs {(count - 1).bit_length()}")
    return map_index(block.index_bits) - 1, _bits_to_int(_bit_tuple(block.symbol_bits))


def demap_index(k: int, n: int) -> tuple[int, ...]:
    """Inverse of `map_index` for an array of n transmitters."""
    width = _log2_count(n, "n")
    if not 1 <= k <= n:
        raise ValueError(f"index {k} out of range 1..{n}")
    return _int_to_bits(k - 1, width)


def _gray_decode(code: int) -> int:
    value = 0
    while code:
        value ^= code
        code >>= 1
    return value


@functools.lru_cache(maxsize=None)
def constellation(m: int) -> np.ndarray:
    """Unit-average-energy Gray QAM table, indexed by MSB-first bit pattern.

    For square QAM the first half of the pattern selects the in-phase level
    and the second half the quadrature level; along each axis the pattern is
    the Gray code of the level's rank, counted from the positive end, so
    lattice neighbors differ in exactly one bit and all-zeros maps to the
    top-right corner ((1+1j)/sqrt(2) for m = 4).
    """
    if m not in SUPPORTED_M:
        raise ValueError(f"unsupported constellation size {m!r}; supported: {SUPPORTED_M}")
    if m == 2:
        return np.array([1.0 + 0.0j, -1.0 + 0.0j])
    half = _log2_count(m, "m") // 2
    side = 1 << half
    scale = np.sqrt(2.0 * (side * side - 1) / 3.0)
    points = np.empty(m, dtype=np.complex128)
    for pattern in range(m):
        i_rank = _gray_decode(pattern >> half)
        q_rank = _gray_decode(pattern & (side - 1))
        points[pattern] = complex(side - 1 - 2 * i_rank, side - 1 - 2 * q_rank) / scale
    points.setflags(write=False)
    return points


def map_symbol(symbol_bits: Sequence[int], m: int) -> complex:
    bits = _bit_tuple(symbol_bits)
    width = _log2_count(m, "m")
    if len(bits) != width:
        raise ValueError(f"expected {width} symbol bits for m={m}, got {len(bits)}")
    return complex(constellation(m)[_bits_to_int(bits)])


def _demap_patterns(points, m: int) -> np.ndarray:
    """Nearest constellation pattern of every point (any shape); ties go to the smaller one."""
    distances = np.abs(constellation(m) - np.asarray(points)[..., None]) ** 2
    return distances.argmin(axis=-1)  # first minimum == smallest pattern


def demap_symbol(point: complex, m: int) -> tuple[int, ...]:
    """Nearest constellation pattern; exact distance ties go to the smaller one."""
    return _int_to_bits(int(_demap_patterns(point, m)), (m - 1).bit_length())


def export_constellation_csv(m: int, out: IO[str]) -> None:
    """Dump the mapping as `bits,re,im` rows for documentation."""
    width = _log2_count(m, "m")
    out.write("bits,re,im\n")
    for pattern, point in enumerate(constellation(m)):
        bits = "".join(str(b) for b in _int_to_bits(pattern, width))
        out.write(f"{bits},{point.real:.12g},{point.imag:.12g}\n")
