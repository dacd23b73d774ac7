"""Unit and property tests for binary-partition blocks."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry import blocks
from repro.geometry.rect import Rect

unit_floats = st.floats(0.0, 1.0, exclude_max=True, allow_nan=False)
bit_tuples = st.lists(st.integers(0, 1), max_size=20).map(tuple)


class TestBlockRect:
    def test_root_is_unit(self):
        assert blocks.block_rect((), 2) == Rect.unit(2)

    def test_first_halving_cuts_axis_zero(self):
        assert blocks.block_rect((0,), 2) == Rect((0.0, 0.0), (0.5, 1.0))
        assert blocks.block_rect((1,), 2) == Rect((0.5, 0.0), (1.0, 1.0))

    def test_second_halving_cuts_axis_one(self):
        assert blocks.block_rect((1, 1), 2) == Rect((0.5, 0.5), (1.0, 1.0))

    def test_axes_cycle(self):
        r = blocks.block_rect((0, 0, 1), 2)
        assert r == Rect((0.25, 0.0), (0.5, 0.5))

    def test_split_axis(self):
        assert blocks.split_axis((), 2) == 0
        assert blocks.split_axis((0,), 2) == 1
        assert blocks.split_axis((0, 1), 2) == 0
        assert blocks.split_axis((0, 1, 0), 3) == 0

    @given(bit_tuples)
    def test_children_partition_parent(self, bits):
        parent = blocks.block_rect(bits, 2)
        left = blocks.block_rect(bits + (0,), 2)
        right = blocks.block_rect(bits + (1,), 2)
        assert parent.contains_rect(left) and parent.contains_rect(right)
        assert left.area() + right.area() == pytest.approx(parent.area())
        axis = blocks.split_axis(bits, 2)
        assert left.hi[axis] == right.lo[axis]


class TestPointBits:
    def test_depth_zero(self):
        assert blocks.bits_of_point((0.3, 0.7), 2, 0) == ()

    def test_boundary_point_goes_upper(self):
        assert blocks.bits_of_point((0.5, 0.0), 2, 1) == (1,)
        assert blocks.bits_of_point((0.49999, 0.0), 2, 1) == (0,)

    def test_known_address(self):
        # (0.25, 0.75): axis0 lower then upper-half-of-lower; axis1 upper.
        assert blocks.bits_of_point((0.25, 0.75), 2, 4) == (0, 1, 1, 1)

    def test_out_of_cube_raises(self):
        with pytest.raises(ValueError):
            blocks.bits_of_point((-0.1, 0.5), 2, 4)

    @pytest.mark.parametrize("point", [(float("nan"), 0.5), (0.5, float("nan"))])
    def test_nan_raises_outside_cube(self, point):
        with pytest.raises(ValueError, match="outside the unit cube"):
            blocks.bits_of_point(point, 2, 4)
        # Rect rejects NaN, so build the box unchecked to reach the corner
        # quantizer directly.
        box = Rect._make(point, (1.0, 1.0))
        with pytest.raises(ValueError, match="outside the unit cube"):
            blocks.min_enclosing_block(box, 2)

    def test_too_deep_raises(self):
        with pytest.raises(ValueError):
            blocks.bits_of_point((0.5, 0.5), 2, blocks.MAX_DEPTH + 1)

    @given(unit_floats, unit_floats, st.integers(0, 24))
    def test_point_inside_its_block(self, x, y, depth):
        bits = blocks.bits_of_point((x, y), 2, depth)
        assert len(bits) == depth
        assert blocks.block_rect(bits, 2).contains_point((x, y))

    @given(unit_floats, unit_floats, st.integers(1, 24))
    def test_addresses_are_prefix_consistent(self, x, y, depth):
        deep = blocks.bits_of_point((x, y), 2, depth)
        shallow = blocks.bits_of_point((x, y), 2, depth - 1)
        assert blocks.is_prefix(shallow, deep)


class TestPrefixAlgebra:
    def test_is_prefix(self):
        assert blocks.is_prefix((), (0, 1))
        assert blocks.is_prefix((0, 1), (0, 1))
        assert not blocks.is_prefix((0, 1), (0,))
        assert not blocks.is_prefix((1,), (0, 1))

    def test_common_prefix(self):
        assert blocks.common_prefix((0, 1, 0), (0, 1, 1)) == (0, 1)
        assert blocks.common_prefix((1,), (0,)) == ()
        assert blocks.common_prefix((0, 1), (0, 1)) == (0, 1)

    @given(bit_tuples, bit_tuples)
    def test_prefix_containment_matches_geometry(self, a, b):
        ra, rb = blocks.block_rect(a, 2), blocks.block_rect(b, 2)
        if blocks.is_prefix(a, b):
            assert ra.contains_rect(rb)
        elif blocks.is_prefix(b, a):
            assert rb.contains_rect(ra)
        else:
            # Unrelated blocks share at most a boundary.
            inter = ra.intersection(rb)
            assert inter is None or inter.area() == 0.0

    @given(bit_tuples, bit_tuples)
    def test_common_prefix_contains_both(self, a, b):
        c = blocks.common_prefix(a, b)
        assert blocks.is_prefix(c, a) and blocks.is_prefix(c, b)


class TestMinEnclosingBlock:
    def test_whole_space(self):
        assert blocks.min_enclosing_block(Rect.unit(2), 2) == ()

    def test_tight_block(self):
        r = Rect((0.26, 0.6), (0.49, 0.9))
        bits = blocks.min_enclosing_block(r, 2)
        assert blocks.block_rect(bits, 2).contains_rect(r)
        # The next halving must cut the rectangle.
        child0 = blocks.block_rect(bits + (0,), 2)
        child1 = blocks.block_rect(bits + (1,), 2)
        assert not child0.contains_rect(r) and not child1.contains_rect(r)

    def test_degenerate_rect_is_deep(self):
        bits = blocks.min_enclosing_block(Rect.from_point((0.3, 0.3)), 2)
        assert len(bits) == blocks.MAX_DEPTH

    def test_rect_touching_one(self):
        bits = blocks.min_enclosing_block(Rect((0.9, 0.9), (1.0, 1.0)), 2)
        assert blocks.block_rect(bits, 2).contains_rect(Rect((0.9, 0.9), (0.999, 0.999)))

    @given(unit_floats, unit_floats, unit_floats, unit_floats)
    def test_minimality(self, a, b, c, d):
        r = Rect((min(a, b), min(c, d)), (max(a, b), max(c, d)))
        bits = blocks.min_enclosing_block(r, 2, max_depth=24)
        block = blocks.block_rect(bits, 2)
        # Containment is with respect to the half-open addressing:
        # every corner's address must have `bits` as prefix.
        lo_bits = blocks.bits_of_point(r.lo, 2, 24)
        assert blocks.is_prefix(bits, lo_bits)
        assert block.contains_point(r.lo)
