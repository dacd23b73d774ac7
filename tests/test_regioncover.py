"""Tests for exact rectangle-union coverage."""

from hypothesis import given, strategies as st

from repro.geometry.rect import Rect
from repro.geometry.regioncover import CoverSet, cover_cuts, half_open_hi, is_covered

unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def rect(draw):
    a, b = draw(unit), draw(unit)
    c, d = draw(unit), draw(unit)
    return Rect((min(a, b), min(c, d)), (max(a, b), max(c, d)))


class TestIsCovered:
    def test_no_covers(self):
        assert not is_covered(Rect.unit(2), [])

    def test_single_full_cover(self):
        assert is_covered(Rect((0.2, 0.2), (0.4, 0.4)), [Rect.unit(2)])

    def test_single_partial_cover(self):
        assert not is_covered(Rect.unit(2), [Rect((0.0, 0.0), (0.5, 1.0))])

    def test_two_halves_cover(self):
        halves = [Rect((0.0, 0.0), (0.5, 1.0)), Rect((0.5, 0.0), (1.0, 1.0))]
        assert is_covered(Rect.unit(2), halves)

    def test_two_halves_with_gap(self):
        parts = [Rect((0.0, 0.0), (0.49, 1.0)), Rect((0.5, 0.0), (1.0, 1.0))]
        assert not is_covered(Rect.unit(2), parts)

    def test_quadrants(self):
        quadrants = [
            Rect((0.0, 0.0), (0.5, 0.5)),
            Rect((0.5, 0.0), (1.0, 0.5)),
            Rect((0.0, 0.5), (0.5, 1.0)),
            Rect((0.5, 0.5), (1.0, 1.0)),
        ]
        assert is_covered(Rect.unit(2), quadrants)
        assert not is_covered(Rect.unit(2), quadrants[:3])

    def test_l_shaped_cover(self):
        covers = [Rect((0.0, 0.0), (1.0, 0.6)), Rect((0.0, 0.4), (0.5, 1.0))]
        assert is_covered(Rect((0.0, 0.0), (0.5, 1.0)), covers)
        assert not is_covered(Rect((0.0, 0.0), (0.7, 1.0)), covers)

    def test_degenerate_target(self):
        line = Rect((0.2, 0.0), (0.2, 1.0))
        assert is_covered(line, [Rect((0.1, 0.0), (0.3, 1.0))])
        assert not is_covered(line, [Rect((0.3, 0.0), (0.5, 1.0))])

    def test_disjoint_covers_ignored(self):
        assert not is_covered(
            Rect((0.0, 0.0), (0.1, 0.1)), [Rect((0.8, 0.8), (0.9, 0.9))]
        )

    @given(rect(), st.lists(rect(), max_size=5))
    def test_never_false_positive(self, target, covers):
        """If reported covered, dense sample points must all be covered."""
        if not is_covered(target, covers):
            return
        steps = 7
        for i in range(steps + 1):
            for j in range(steps + 1):
                p = (
                    min(target.lo[0] + (target.hi[0] - target.lo[0]) * i / steps,
                        target.hi[0]),
                    min(target.lo[1] + (target.hi[1] - target.lo[1]) * j / steps,
                        target.hi[1]),
                )
                assert any(c.contains_point(p) for c in covers)

    @given(rect())
    def test_self_cover(self, target):
        assert is_covered(target, [target])


class TestCoverSet:
    """CoverSet must agree with is_covered on every target.

    This pins the whole shortcut ladder — the bounding-box gate, the
    fully-covered-grid early return, the small-box flat-list walk and
    the NumPy fallback — against the per-call oracle.
    """

    @given(st.lists(rect(), min_size=1, max_size=6), rect())
    def test_matches_is_covered(self, covers, target):
        cs = CoverSet(covers)
        assert cs.covers(target) == is_covered(target, covers)
        assert cs.covers_bounds(target.lo, target.hi) == is_covered(
            target, covers
        )

    @given(st.lists(rect(), min_size=1, max_size=4))
    def test_union_members_are_covered(self, covers):
        cs = CoverSet(covers)
        for c in covers:
            assert cs.covers(c)

    def test_full_grid_shortcut(self):
        # Two abutting halves cover their bounding box completely: every
        # interior target must be answered True (via the _full fast path).
        cs = CoverSet(
            [Rect((0.0, 0.0), (0.5, 1.0)), Rect((0.5, 0.0), (1.0, 1.0))]
        )
        assert cs._full
        assert cs.covers(Rect((0.2, 0.3), (0.9, 0.7)))
        assert cs.covers(Rect((0.5, 0.5), (0.5, 0.5)))  # degenerate
        assert not cs.covers(Rect((0.2, 0.3), (1.1, 0.7)))  # sticks out

    def test_small_box_walk_matches_numpy(self):
        # An L-shaped cover leaves one quadrant open; probe targets whose
        # cell boxes are small enough for the flat-list walk.
        covers = [
            Rect((0.0, 0.0), (1.0, 0.5)),
            Rect((0.0, 0.5), (0.5, 1.0)),
        ]
        cs = CoverSet(covers)
        assert not cs._full
        for target in (
            Rect((0.1, 0.1), (0.9, 0.4)),
            Rect((0.1, 0.1), (0.4, 0.9)),
            Rect((0.6, 0.6), (0.9, 0.9)),
            Rect((0.1, 0.1), (0.9, 0.9)),
        ):
            assert cs.covers(target) == is_covered(target, covers)


class TestHalfOpenHi:
    """Blocks are half-open; ``half_open_hi`` lets the closed tests see it."""

    COVERS = [Rect((0.25, 0.0), (0.5, 0.5))]

    def test_exposed_upper_face_is_not_covered(self):
        # The point (0.5, 0.0) lies on the cover's upper x-face: as a
        # closed box the cover contains it, as a half-open block it does
        # not — the point belongs to whatever block lies above x = 0.5.
        cuts = cover_cuts(self.COVERS)
        hi = half_open_hi((0.5, 0.0), (1.0, 1.0), cuts)
        assert hi == (1.0, 0.5)
        assert is_covered(Rect((0.5, 0.0), (0.5, 0.0)), self.COVERS)
        assert not is_covered(Rect((0.5, 0.0), hi), self.COVERS)
        assert not CoverSet(self.COVERS).covers_bounds(
            (0.5, 0.0), CoverSet(self.COVERS).half_open_hi((0.5, 0.0), (1.0, 1.0))
        )

    def test_abutting_cover_above_keeps_coverage(self):
        covers = self.COVERS + [Rect((0.5, 0.0), (0.75, 0.5))]
        cs = CoverSet(covers)
        hi = cs.half_open_hi((0.5, 0.25), (1.0, 1.0))
        assert hi == (0.75, 0.25)
        assert cs.covers_bounds((0.5, 0.25), hi)
        assert is_covered(Rect((0.5, 0.25), hi), covers)

    def test_coordinates_off_the_boundaries_stay(self):
        cuts = cover_cuts(self.COVERS)
        assert half_open_hi((0.3, 0.2), (1.0, 1.0), cuts) == (0.3, 0.2)

    def test_enclosing_upper_corner_stays(self):
        # At the enclosing block's own upper corner the closed verdict
        # stands: points on that face are not in the enclosing block.
        cuts = cover_cuts(self.COVERS)
        assert half_open_hi((0.5, 0.5), (0.5, 0.5), cuts) == (0.5, 0.5)
