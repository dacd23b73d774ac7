"""Tests for Morton codes and the redundant z-region decomposition."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry import blocks
from repro.geometry.rect import Rect
from repro.geometry.zorder import decompose_rect, z_interval, z_value

unit_floats = st.floats(0.0, 1.0, exclude_max=True, allow_nan=False)


class TestZValue:
    def test_origin_is_zero(self):
        assert z_value((0.0, 0.0), 2) == 0

    def test_max_corner(self):
        assert z_value((1.0, 1.0), 2, bits_per_axis=4) == 2**8 - 1

    def test_first_bit_is_axis_zero(self):
        # Upper half of axis 0 sets the most significant bit.
        assert z_value((0.5, 0.0), 2, bits_per_axis=2) == 0b1000
        assert z_value((0.0, 0.5), 2, bits_per_axis=2) == 0b0100

    def test_out_of_cube_raises(self):
        with pytest.raises(ValueError):
            z_value((-0.5, 0.0), 2)

    @pytest.mark.parametrize("point", [(float("nan"), 0.0), (0.0, float("nan"))])
    def test_nan_raises_outside_cube(self, point):
        with pytest.raises(ValueError, match="outside the unit cube"):
            z_value(point, 2)

    @given(unit_floats, unit_floats, st.integers(1, 12))
    def test_matches_block_addressing(self, x, y, bpa):
        """The z-value's bits are exactly the cyclic block address."""
        z = z_value((x, y), 2, bits_per_axis=bpa)
        bits = blocks.bits_of_point((x, y), 2, 2 * bpa)
        expected = 0
        for bit in bits:
            expected = (expected << 1) | bit
        assert z == expected

    @given(
        st.lists(unit_floats, min_size=1, max_size=4),
        st.integers(1, 24),
    )
    def test_lookup_table_matches_bitwise_reference(self, coords, bpa):
        """The 8-bit spread tables replicate the naive interleaving loop."""
        dims = len(coords)
        scale = 1 << bpa
        quantized = [min(int(c * scale), scale - 1) for c in coords]
        expected = 0
        for k in range(bpa):  # MSB first, cyclic over axes
            for axis in range(dims):
                expected = (expected << 1) | (
                    (quantized[axis] >> (bpa - 1 - k)) & 1
                )
        assert z_value(coords, dims, bits_per_axis=bpa) == expected


class TestZInterval:
    def test_root_interval(self):
        assert z_interval((), 2, bits_per_axis=4) == (0, 256)

    def test_halving(self):
        lo0, hi0 = z_interval((0,), 2, bits_per_axis=4)
        lo1, hi1 = z_interval((1,), 2, bits_per_axis=4)
        assert (lo0, hi0, lo1, hi1) == (0, 128, 128, 256)

    def test_too_deep_raises(self):
        with pytest.raises(ValueError):
            z_interval((0,) * 9, 2, bits_per_axis=4)

    @given(unit_floats, unit_floats, st.lists(st.integers(0, 1), max_size=10).map(tuple))
    def test_point_in_block_iff_z_in_interval(self, x, y, bits):
        z = z_value((x, y), 2, bits_per_axis=8)
        lo, hi = z_interval(bits, 2, bits_per_axis=8)
        point_bits = blocks.bits_of_point((x, y), 2, len(bits))
        assert (lo <= z < hi) == (point_bits == bits)


class TestDecomposeRect:
    def test_single_region_is_min_block(self):
        r = Rect((0.1, 0.1), (0.2, 0.2))
        cover = decompose_rect(r, 2, max_regions=1)
        assert cover == [blocks.min_enclosing_block(r, 2, 20)]

    def test_budget_respected(self):
        r = Rect((0.05, 0.05), (0.95, 0.95))
        for budget in (1, 2, 4, 8, 16):
            assert len(decompose_rect(r, 2, max_regions=budget)) <= budget

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            decompose_rect(Rect.unit(2), 2, max_regions=0)

    def test_refinement_reduces_overshoot(self):
        r = Rect((0.3, 0.3), (0.55, 0.55))

        def covered_area(cover):
            return sum(blocks.block_rect(b, 2).area() for b in cover)

        coarse = covered_area(decompose_rect(r, 2, max_regions=1))
        fine = covered_area(decompose_rect(r, 2, max_regions=16))
        assert fine <= coarse

    @given(
        unit_floats, unit_floats, unit_floats, unit_floats, st.integers(1, 12)
    )
    def test_cover_is_complete(self, a, b, c, d, budget):
        r = Rect((min(a, b), min(c, d)), (max(a, b), max(c, d)))
        cover = decompose_rect(r, 2, max_regions=budget)
        union_area_bound = sum(blocks.block_rect(bits, 2).area() for bits in cover)
        assert union_area_bound >= r.area() * 0.999999
        # Every sampled point of r lies in some cover block.
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            for u in (0.0, 0.5, 1.0):
                p = (
                    min(r.lo[0] + t * (r.hi[0] - r.lo[0]), 0.999999),
                    min(r.lo[1] + u * (r.hi[1] - r.lo[1]), 0.999999),
                )
                assert any(
                    blocks.block_rect(bits, 2).contains_point(p) for bits in cover
                )
