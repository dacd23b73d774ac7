"""Tests for the transformation technique (corner and center)."""

import pytest

from repro.geometry.rect import Rect
from repro.pam.bang import BangFile
from repro.pam.buddytree import BuddyTree
from repro.sam.transformation import TransformationSAM
from repro.storage.pagestore import PageStore
from tests.conftest import (
    STANDARD_POINTS,
    STANDARD_QUERIES,
    BANG_BOUNDARY_RECTS,
    check_sam_against_oracle,
    make_rects,
)


def build(rects, pam=BuddyTree, representation="corner"):
    sam = TransformationSAM(
        PageStore(),
        lambda store, dims: pam(store, dims),
        dims=2,
        representation=representation,
    )
    for i, r in enumerate(rects):
        sam.insert(r, i)
    return sam


class TestCorrectness:
    @pytest.mark.parametrize("representation", ["corner", "center"])
    @pytest.mark.parametrize("pam", [BuddyTree, BangFile])
    def test_all_query_types(self, representation, pam):
        rects = make_rects(500, seed=1)
        sam = build(rects, pam=pam, representation=representation)
        check_sam_against_oracle(sam, rects, STANDARD_QUERIES, STANDARD_POINTS)

    def test_large_rectangles(self):
        rects = make_rects(400, seed=2, max_extent=0.45)
        sam = build(rects)
        check_sam_against_oracle(sam, rects, STANDARD_QUERIES, STANDARD_POINTS)

    def test_degenerate_rectangles(self):
        rects = [Rect.from_point((i / 250.0, (i * 13 % 250) / 250.0)) for i in range(250)]
        sam = build(rects)
        check_sam_against_oracle(sam, rects, STANDARD_QUERIES, STANDARD_POINTS)

    def test_invalid_representation(self):
        with pytest.raises(ValueError):
            TransformationSAM(
                PageStore(), lambda s, dims: BuddyTree(s, dims), representation="polar"
            )


class TestTransform:
    def test_corner_roundtrip(self):
        sam = TransformationSAM(
            PageStore(), lambda s, dims: BuddyTree(s, dims), representation="corner"
        )
        r = Rect((0.1, 0.2), (0.5, 0.6))
        assert sam._to_point(r) == (0.1, 0.2, 0.5, 0.6)
        assert sam._to_rect((0.1, 0.2, 0.5, 0.6)) == r

    def test_center_roundtrip(self):
        sam = TransformationSAM(
            PageStore(), lambda s, dims: BuddyTree(s, dims), representation="center"
        )
        r = Rect((0.1, 0.2), (0.5, 0.6))
        point = sam._to_point(r)
        assert point == (pytest.approx(0.3), pytest.approx(0.4), pytest.approx(0.2), pytest.approx(0.2))
        back = sam._to_rect(point)
        assert back.lo == (pytest.approx(0.1), pytest.approx(0.2))
        assert back.hi == (pytest.approx(0.5), pytest.approx(0.6))

    def test_metrics_delegate_to_pam(self):
        rects = make_rects(400, seed=3)
        sam = build(rects)
        m = sam.metrics()
        assert m.records == 400
        assert m.data_pages == sam.pam.metrics().data_pages
        assert m.height == sam.pam.directory_height


class TestSeegerFinding:
    def test_corner_beats_center(self):
        """[See 89]: corner representation needs roughly half the accesses."""
        rects = make_rects(2500, seed=4, max_extent=0.03)
        corner = build(rects, representation="corner")
        center = build(rects, representation="center")

        def cost(sam):
            total = 0
            for query in STANDARD_QUERIES[:4]:
                sam.store.begin_operation()
                sam.store.begin_operation()
                before = sam.store.stats.total
                sam.intersection(query)
                total += sam.store.stats.total - before
            return total

        assert cost(corner) < cost(center)


class TestNestingCoverageBoundary:
    """T-BANG's nesting-coverage filter honours half-open block faces."""

    def test_point_on_nested_upper_face_is_found(self):
        from repro.core.testbed import standard_sam_factories
        from repro.verify.reference import as_reference

        sam = standard_sam_factories()["BANG"](PageStore(512))
        for rid, rect in enumerate(BANG_BOUNDARY_RECTS):
            sam.insert(rect, rid)
        expected = [
            rid
            for rid, rect in enumerate(BANG_BOUNDARY_RECTS)
            if rect.contains_point((0.5, 0.0))
        ]
        assert 25 in expected
        assert sorted(sam.point_query((0.5, 0.0))) == expected
        assert sorted(as_reference(sam).point_query((0.5, 0.0))) == expected
