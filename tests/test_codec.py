"""Bit framing, index mapping, and Gray QAM constellations."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fomlink.codec import (
    SUPPORTED_M,
    DataBlock,
    _block_value,
    constellation,
    deframe,
    demap_index,
    demap_symbol,
    export_constellation_csv,
    frame_bits,
    map_index,
    map_symbol,
)
from builders import all_blocks, msb_bits


class TestFraming:
    def test_reference_frame(self):
        result = frame_bits([1, 0, 1, 1, 0, 1], m=4, n=4)
        assert len(result.blocks) == 2
        assert result.blocks[0] == DataBlock(index_bits=(1, 0), symbol_bits=(1, 1))
        assert result.blocks[1] == DataBlock(index_bits=(0, 1), symbol_bits=(0, 0))
        assert result.pad_bits == 2

    def test_fifteen_bits_three_blocks(self):
        result = frame_bits([1] * 15, m=16, n=8)
        assert len(result.blocks) == 3
        assert result.pad_bits == 6
        assert result.blocks[0].index_bits == (1, 1, 1)
        assert result.blocks[0].symbol_bits == (1, 1, 1, 1)
        assert result.blocks[2].index_bits == (1, 0, 0)
        assert result.blocks[2].symbol_bits == (0, 0, 0, 0)

    def test_index_bits_come_first(self):
        result = frame_bits([1, 1, 0, 0], m=4, n=4)
        assert result.blocks[0].index_bits == (1, 1)
        assert result.blocks[0].symbol_bits == (0, 0)

    def test_single_transmitter_has_no_index_bits(self):
        result = frame_bits([1, 0, 1], m=4, n=1)
        assert all(b.index_bits == () for b in result.blocks)
        assert len(result.blocks) == 2
        assert result.pad_bits == 1

    def test_exact_multiple_needs_no_pad(self):
        result = frame_bits([0, 1] * 3, m=4, n=2)
        assert result.pad_bits == 0
        assert len(result.blocks) == 2

    def test_deframe_inverts(self):
        bits = [1, 0, 1, 1, 0, 1]
        result = frame_bits(bits, m=4, n=4)
        assert deframe(result.blocks, result.pad_bits).tolist() == bits

    def test_round_trip_many_shapes(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            m = int(rng.choice([2, 4, 16, 64, 256]))
            n = int(rng.choice([1, 2, 4, 8, 16, 64]))
            length = int(rng.integers(1, 200))
            bits = rng.integers(0, 2, size=length).tolist()
            framed = frame_bits(bits, m=m, n=n)
            back = deframe(framed.blocks, framed.pad_bits)
            assert back.tolist() == bits

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=64), st.sampled_from([2, 16, 256]), st.sampled_from([1, 4, 32]))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, bits, m, n):
        framed = frame_bits(bits, m=m, n=n)
        assert deframe(framed.blocks, framed.pad_bits).tolist() == bits

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError, match="0 or 1"):
            frame_bits([0, 2], m=4, n=2)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            frame_bits([0], m=3, n=2)
        with pytest.raises(ValueError):
            frame_bits([0], m=4, n=3)
        with pytest.raises(ValueError):
            frame_bits([0], m=1, n=2)

    def test_deframe_rejects_bad_pad(self):
        framed = frame_bits([1, 0, 1, 1, 0, 1], m=4, n=4)
        with pytest.raises(ValueError, match="out of range"):
            deframe(framed.blocks, 99)
        with pytest.raises(ValueError, match="pad bits must be zero"):
            deframe([DataBlock(index_bits=(0, 0), symbol_bits=(0, 1))], 1)


class TestIndexMap:
    def test_examples(self):
        assert map_index(()) == 1
        assert map_index((0, 0)) == 1
        assert map_index((1, 1)) == 4
        assert map_index((1, 0, 1)) == 6

    def test_msb_first(self):
        assert map_index((1, 0)) == 3
        assert map_index((0, 1)) == 2

    def test_demap_inverts_exhaustively(self):
        for n in (1, 2, 4, 8, 16, 64, 128):
            width = (n - 1).bit_length()
            for k in range(1, n + 1):
                bits = demap_index(k, n)
                assert len(bits) == width
                assert map_index(bits) == k

    def test_block_value_is_the_index_and_the_pattern(self):
        for n, m in ((1, 2), (8, 4), (4, 16)):
            for block, k, pattern in all_blocks(n, m):
                assert _block_value(block, n, m) == (k - 1, pattern)

    @pytest.mark.parametrize(
        "index_bits, symbol_bits, needle",
        [((0,), (0, 0), "1 index bits, n=8 needs 3"), ((0, 0, 0), (0, 0, 0), "3 symbol bits, m=4 needs 2")],
    )
    def test_block_value_checks_both_widths(self, index_bits, symbol_bits, needle):
        with pytest.raises(ValueError, match=needle):
            _block_value(DataBlock(index_bits, symbol_bits), 8, 4)

    def test_demap_range_check(self):
        with pytest.raises(ValueError):
            demap_index(0, 4)
        with pytest.raises(ValueError):
            demap_index(5, 4)


class TestConstellations:
    def test_bpsk(self):
        points = constellation(2)
        assert points[0] == 1.0 + 0.0j
        assert points[1] == -1.0 + 0.0j

    def test_qpsk_reference_point(self):
        points = constellation(4)
        assert points[0] == pytest.approx((1 + 1j) / math.sqrt(2), abs=1e-15)

    def test_qpsk_gray_quadrants(self):
        points = constellation(4)
        # First bit selects the real sign branch, second the imaginary.
        assert np.sign(points[0b00].real) == np.sign(points[0b01].real)
        assert np.sign(points[0b10].real) == np.sign(points[0b11].real)
        assert np.sign(points[0b00].imag) == np.sign(points[0b10].imag)

    @pytest.mark.parametrize("m", SUPPORTED_M)
    def test_unit_average_energy(self, m):
        points = constellation(m)
        assert len(points) == m
        assert abs(np.mean(np.abs(points) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("m", SUPPORTED_M)
    def test_all_points_distinct(self, m):
        points = constellation(m)
        assert len(np.unique(points)) == m

    @pytest.mark.parametrize("m", [4, 16, 64, 256, 1024, 4096])
    def test_gray_neighbors_differ_in_one_bit(self, m):
        # Nearest horizontal and vertical neighbours must flip exactly one bit.
        points = constellation(m)
        side = int(round(math.sqrt(m)))
        coords = {}
        scale = math.sqrt(2.0 * (side * side - 1) / 3.0)
        for pattern, point in enumerate(points):
            re = int(round(point.real * scale))
            im = int(round(point.imag * scale))
            coords[(re, im)] = pattern
        assert len(coords) == m
        for (re, im), pattern in coords.items():
            for neighbor in ((re + 2, im), (re, im + 2)):
                if neighbor in coords:
                    diff = pattern ^ coords[neighbor]
                    assert bin(diff).count("1") == 1

    def test_constellation_is_read_only(self):
        points = constellation(16)
        with pytest.raises(ValueError):
            points[0] = 0j

    def test_unsupported_size(self):
        with pytest.raises(ValueError, match="unsupported"):
            constellation(8)
        with pytest.raises(ValueError, match="unsupported"):
            constellation(32)


class TestSymbolMap:
    @pytest.mark.parametrize("m", SUPPORTED_M)
    def test_demap_inverts_map_exhaustively(self, m):
        for pattern in range(m):
            bits = msb_bits(pattern, m.bit_length() - 1)
            point = map_symbol(bits, m)
            assert demap_symbol(point, m) == bits

    def test_demap_is_nearest_neighbor(self):
        rng = np.random.default_rng(7)
        points = constellation(16)
        for _ in range(200):
            noisy = complex(rng.normal(), rng.normal())
            got = demap_symbol(noisy, 16)
            best = int(np.argmin(np.abs(points - noisy)))
            assert map_symbol(got, 16) == points[best]

    def test_tie_breaks_to_smaller_pattern(self):
        # The origin is equidistant from all QPSK points; pattern 00 wins.
        assert demap_symbol(0j, 4) == (0, 0)
        assert demap_symbol(0j, 2) == (0,)

    def test_map_checks_width(self):
        with pytest.raises(ValueError, match="expected 2 symbol bits"):
            map_symbol((0,), 4)

    def test_csv_export(self):
        buf = io.StringIO()
        export_constellation_csv(4, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "bits,re,im"
        assert len(lines) == 5
        bits, re, im = lines[1].split(",")
        assert bits == "00"
        assert float(re) == pytest.approx(1 / math.sqrt(2), rel=1e-9)
        assert float(im) == pytest.approx(1 / math.sqrt(2), rel=1e-9)
