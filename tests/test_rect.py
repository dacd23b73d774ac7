"""Unit and property tests for :mod:`repro.geometry.rect`."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry.rect import Rect


def coords(dims=2):
    return st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=dims, max_size=dims
    )


@st.composite
def rects(draw, dims=2):
    a = draw(coords(dims))
    b = draw(coords(dims))
    lo = tuple(min(x, y) for x, y in zip(a, b))
    hi = tuple(max(x, y) for x, y in zip(a, b))
    return Rect(lo, hi)


class TestConstruction:
    def test_valid(self):
        r = Rect((0.0, 0.1), (0.5, 0.9))
        assert r.dims == 2
        assert r.lo == (0.0, 0.1)
        assert r.hi == (0.5, 0.9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            Rect((0.0,), (1.0, 1.0))

    def test_inverted_interval(self):
        with pytest.raises(ValueError, match="inverted"):
            Rect((0.5, 0.0), (0.4, 1.0))

    @pytest.mark.parametrize(
        "lo, hi",
        [
            ((float("nan"), 0.0), (1.0, 1.0)),
            ((0.0, 0.0), (1.0, float("nan"))),
            ((float("nan"),), (float("nan"),)),
        ],
    )
    def test_nan_rejected(self, lo, hi):
        # ``nan > h`` is False, so only ``not l <= h`` catches NaN.
        with pytest.raises(ValueError, match="inverted"):
            Rect(lo, hi)

    def test_degenerate_allowed(self):
        r = Rect.from_point((0.3, 0.3))
        assert r.area() == 0.0
        assert r.contains_point((0.3, 0.3))

    def test_immutable(self):
        r = Rect.unit(2)
        with pytest.raises(AttributeError):
            r.lo = (0.5, 0.5)

    def test_unit(self):
        u = Rect.unit(3)
        assert u.lo == (0.0, 0.0, 0.0)
        assert u.hi == (1.0, 1.0, 1.0)
        assert u.area() == 1.0

    def test_bounding_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.bounding([])
        with pytest.raises(ValueError):
            Rect.bounding_points([])

    def test_bounding(self):
        r = Rect.bounding([Rect((0.0, 0.5), (0.2, 0.6)), Rect((0.1, 0.0), (0.9, 0.1))])
        assert r == Rect((0.0, 0.0), (0.9, 0.6))

    def test_bounding_points(self):
        r = Rect.bounding_points([(0.5, 0.2), (0.1, 0.8)])
        assert r == Rect((0.1, 0.2), (0.5, 0.8))

    def test_equality_and_hash(self):
        a = Rect((0.0, 0.0), (1.0, 1.0))
        b = Rect.unit(2)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Rect((0.0, 0.0), (0.5, 1.0))
        assert a != "not a rect"


class TestGeometry:
    def test_area_margin_extent(self):
        r = Rect((0.0, 0.0), (0.5, 0.2))
        assert r.area() == pytest.approx(0.1)
        assert r.margin() == pytest.approx(0.7)
        assert r.extent(0) == pytest.approx(0.5)
        assert r.extent(1) == pytest.approx(0.2)

    def test_center(self):
        assert Rect((0.0, 0.2), (1.0, 0.4)).center == (0.5, pytest.approx(0.3))

    def test_contains_point_boundary(self):
        r = Rect((0.2, 0.2), (0.4, 0.4))
        assert r.contains_point((0.2, 0.4))
        assert not r.contains_point((0.19999, 0.3))

    def test_intersection_disjoint(self):
        assert Rect((0.0, 0.0), (0.1, 0.1)).intersection(
            Rect((0.5, 0.5), (0.6, 0.6))
        ) is None

    def test_intersection_touching(self):
        inter = Rect((0.0, 0.0), (0.5, 0.5)).intersection(Rect((0.5, 0.0), (1.0, 0.5)))
        assert inter is not None
        assert inter.area() == 0.0

    def test_split_at(self):
        left, right = Rect.unit(2).split_at(0, 0.3)
        assert left == Rect((0.0, 0.0), (0.3, 1.0))
        assert right == Rect((0.3, 0.0), (1.0, 1.0))

    def test_split_at_outside_raises(self):
        with pytest.raises(ValueError):
            Rect((0.2, 0.2), (0.4, 0.4)).split_at(0, 0.5)

    def test_enlargement(self):
        base = Rect((0.0, 0.0), (0.5, 0.5))
        assert base.enlargement(Rect((0.0, 0.0), (0.25, 0.25))) == 0.0
        assert base.enlargement(Rect((0.5, 0.0), (1.0, 0.5))) == pytest.approx(0.25)

    def test_expanded_to_point(self):
        r = Rect((0.4, 0.4), (0.6, 0.6)).expanded_to_point((0.9, 0.1))
        assert r == Rect((0.4, 0.1), (0.9, 0.6))


class TestProperties:
    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains_rect(a) and u.contains_rect(b)

    @given(rects(), rects())
    def test_intersection_symmetric_and_consistent(self, a, b):
        assert a.intersects(b) == b.intersects(a)
        inter = a.intersection(b)
        assert (inter is not None) == a.intersects(b)
        if inter is not None:
            assert a.contains_rect(inter) and b.contains_rect(inter)

    @given(rects(), coords())
    def test_point_in_rect_implies_intersects_degenerate(self, r, p):
        assert r.contains_point(p) == r.intersects(Rect.from_point(tuple(p)))

    @given(rects(), rects())
    def test_containment_implies_intersection(self, a, b):
        if a.contains_rect(b):
            assert a.intersects(b)
            assert a.union(b) == a
            assert a.area() >= b.area()

    @given(rects())
    def test_self_relations(self, r):
        assert r.contains_rect(r)
        assert r.intersects(r)
        assert r.intersection(r) == r
        assert r.enlargement(r) == 0.0
