"""Reference-oracle property tests for the build kernels.

The insert/split path computes its geometry without allocating: block
addresses come from quantized integers, Guttman's quadratic split runs
over bound arrays, and the R+ plane chooser counts by bisection.  Every
one of these must return exactly what the straightforward scalar code
returned.  That code is kept here, verbatim apart from being lifted out
of its class (and ``Rect.enlargement`` spelled out as the union's area
minus the box's own), as the oracle; hypothesis forces the tie cases (duplicate
and degenerate rectangles, equal enlargements and areas, coordinates
0.0, 1.0 and binary fractions) across dims 1–4 and depths 0 to
``MAX_DEPTH``.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings, strategies as st

from repro.geometry import blocks
from repro.geometry.blocks import MAX_DEPTH
from repro.geometry.rect import Rect
from repro.geometry.zorder import decompose_rect
from repro.pam.bang import BangFile, _DataPage
from repro.sam import rtree as rtree_mod
from repro.sam.rplustree import RPlusTree, _Leaf
from repro.sam.rtree import RTree, _Node
from repro.storage.pagestore import PageStore

# -- the reference implementations -------------------------------------------

_POW2 = [2.0 ** -k for k in range(MAX_DEPTH + 2)]


def ref_bits_of_point(point, dims, depth):
    if depth > MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds MAX_DEPTH={MAX_DEPTH}")
    per_axis = (depth + dims - 1) // dims
    scale = 1 << per_axis
    quantized = []
    for c in point:
        q = math.floor(c * scale)
        if q >= scale:
            q = scale - 1
        if q < 0:
            raise ValueError(f"coordinate {c} outside the unit cube")
        quantized.append(q)
    bits = []
    for j in range(depth):
        axis = j % dims
        k = j // dims
        bits.append((quantized[axis] >> (per_axis - 1 - k)) & 1)
    return tuple(bits)


def ref_common_prefix(a, b):
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return a[:n]


def ref_min_enclosing_block(rect, dims, max_depth=MAX_DEPTH):
    lo_bits = ref_bits_of_point(rect.lo, dims, max_depth)
    hi_point = tuple(min(c, 1.0 - _POW2[MAX_DEPTH + 1]) for c in rect.hi)
    hi_bits = ref_bits_of_point(hi_point, dims, max_depth)
    return ref_common_prefix(lo_bits, hi_bits)


def ref_decompose_rect(rect, dims, max_regions=4, max_depth=20):
    if max_regions < 1:
        raise ValueError("max_regions must be at least 1")

    def overshoot(bits):
        block = blocks.block_rect(bits, dims)
        inter = block.intersection(rect)
        covered = inter.area() if inter is not None else 0.0
        return block.area() - covered

    cover = [ref_min_enclosing_block(rect, dims, max_depth)]
    while len(cover) < max_regions:
        best_idx, best_gain = -1, 0.0
        for i, bits in enumerate(cover):
            if len(bits) >= max_depth:
                continue
            gain = overshoot(bits)
            if gain > best_gain:
                best_idx, best_gain = i, gain
        if best_idx < 0:
            break
        bits = cover.pop(best_idx)
        for child in (bits + (0,), bits + (1,)):
            child_rect = blocks.block_rect(child, dims)
            if child_rect.intersects(rect):
                cover.append(child)
    return cover


def ref_enlargement(box, other):
    return box.union(other).area() - box.area()


def ref_choose_subtree(rects, rect):
    best, best_key = 0, None
    for i, r in enumerate(rects):
        key = (ref_enlargement(r, rect), r.area())
        if best_key is None or key < best_key:
            best, best_key = i, key
    return best


def ref_pick_seeds(entries):
    worst, pair = -1.0, (0, 1)
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            waste = (
                entries[i][0].union(entries[j][0]).area()
                - entries[i][0].area()
                - entries[j][0].area()
            )
            if waste > worst:
                worst, pair = waste, (i, j)
    return pair


def ref_split_guttman(entries, min_entries):
    i, j = ref_pick_seeds(entries)
    left, right = [entries[i]], [entries[j]]
    left_rect, right_rect = entries[i][0], entries[j][0]
    rest = [e for k, e in enumerate(entries) if k not in (i, j)]
    while rest:
        if len(left) + len(rest) <= min_entries:
            left.extend(rest)
            break
        if len(right) + len(rest) <= min_entries:
            right.extend(rest)
            break
        best_k, best_diff = 0, -1.0
        for k, (rect, _) in enumerate(rest):
            diff = abs(
                ref_enlargement(left_rect, rect) - ref_enlargement(right_rect, rect)
            )
            if diff > best_diff:
                best_k, best_diff = k, diff
        rect, child = rest.pop(best_k)
        grow_left = ref_enlargement(left_rect, rect)
        grow_right = ref_enlargement(right_rect, rect)
        key = (grow_left, left_rect.area(), len(left))
        other = (grow_right, right_rect.area(), len(right))
        if key <= other:
            left.append((rect, child))
            left_rect = left_rect.union(rect)
        else:
            right.append((rect, child))
            right_rect = right_rect.union(rect)
    return left, right


def ref_choose_split_block(records, page_bits, data_blocks, dims):
    total = len(records)
    record_bits = [ref_bits_of_point(p, dims, MAX_DEPTH) for p, _ in records]
    current = page_bits
    best = None
    best_imbalance = total + 1
    while len(current) < MAX_DEPTH:
        zero = current + (0,)
        count0 = sum(1 for rb in record_bits if blocks.is_prefix(zero, rb))
        count1 = sum(1 for rb in record_bits if blocks.is_prefix(current, rb)) - count0
        if count0 == 0 and count1 == 0:
            break
        current = zero if count0 >= count1 else current + (1,)
        inner = count0 if count0 >= count1 else count1
        if 0 < inner < total and current not in data_blocks:
            imbalance = abs(inner - (total - inner))
            if imbalance < best_imbalance:
                best_imbalance = imbalance
                best = current
        if inner == 0:
            break
    return best


def ref_choose_leaf_plane(rects, region, dims, capacity):
    best = None
    best_key = None
    for axis in range(dims):
        candidates = set()
        for rect in rects:
            for v in (rect.lo[axis], rect.hi[axis]):
                if region.lo[axis] < v < region.hi[axis]:
                    candidates.add(v)
        mid = (region.lo[axis] + region.hi[axis]) / 2.0
        candidates.add(mid)
        for value in candidates:
            crossing = sum(1 for r in rects if r.lo[axis] < value < r.hi[axis])
            left = sum(1 for r in rects if r.hi[axis] <= value)
            right = len(rects) - left - crossing
            if left + crossing > capacity or right + crossing > capacity:
                continue
            key = (crossing, abs(left - right))
            if best_key is None or key < best_key:
                best_key = key
                best = (axis, value)
    return best


# -- strategies ---------------------------------------------------------------

#: Values that make boundaries, halvings and areas coincide.
_SPECIAL = [
    *(0.0, 1.0, 0.5, 0.25, 0.75, 0.125, 0.375, 0.0625, 2.0**-24, 2.0**-48),
    *(1 - 2.0**-24, 1 - 2.0**-48, 1 - 2.0**-49, 1 - 2.0**-53),
]

coord = st.one_of(st.sampled_from(_SPECIAL), st.floats(0.0, 1.0))
dims_st = st.integers(1, 4)
depth_st = st.integers(0, MAX_DEPTH)


def points(dims):
    return st.tuples(*[coord] * dims)


@st.composite
def rect_of(draw, dims):
    lo, hi = [], []
    for _ in range(dims):
        a, b = draw(coord), draw(coord)
        if draw(st.booleans()):
            b = a  # degenerate on this axis
        lo.append(min(a, b))
        hi.append(max(a, b))
    return Rect(lo, hi)


def _flatten(rect):
    """``rect`` squashed onto the line through 0.5 of every axis but 0."""
    rest = (0.5,) * (rect.dims - 1)
    return Rect((rect.lo[0],) + rest, (rect.hi[0],) + rest)


@st.composite
def rect_lists(draw, dims, min_size, max_size):
    """Rectangles drawn from a small pool, so duplicates are common."""
    pool = draw(st.lists(rect_of(dims), min_size=1, max_size=6))
    return draw(
        st.lists(
            st.sampled_from(pool) | rect_of(dims), min_size=min_size, max_size=max_size
        )
    )


@st.composite
def bang_pages(draw):
    """``(dims, records, page block, data blocks)`` of a BANG data page.

    Records repeat a few points, so the halving walk meets equal counts
    and runs down to ``MAX_DEPTH``; taken blocks are prefixes of them.
    """
    dims = draw(dims_st)
    pts = draw(st.lists(points(dims), min_size=1, max_size=4))
    count = draw(st.integers(1, 12))
    records = [(draw(st.sampled_from(pts)), rid) for rid in range(count)]
    page_bits = ref_bits_of_point(records[0][0], dims, draw(st.integers(0, 12)))
    taken = draw(st.lists(st.tuples(st.sampled_from(pts), depth_st), max_size=6))
    data_blocks = {ref_bits_of_point(p, dims, d): 0 for p, d in taken}
    return dims, records, page_bits, data_blocks


# -- block addresses ----------------------------------------------------------


class TestBlockAddresses:
    @given(dims_st.flatmap(lambda d: st.tuples(st.just(d), points(d))), depth_st)
    @example((2, (0.3, 0.7)), 0)
    @example((1, (0.3,)), MAX_DEPTH)
    def test_bits_of_point(self, case, depth):
        dims, point = case
        assert blocks.bits_of_point(point, dims, depth) == ref_bits_of_point(
            point, dims, depth
        )

    @given(dims_st.flatmap(lambda d: st.tuples(st.just(d), rect_of(d))), depth_st)
    @example((2, Rect.unit(2)), 0)
    @example((3, Rect((0.5, 0.25, 0.0), (0.5, 0.25, 2.0**-48))), MAX_DEPTH)
    def test_min_enclosing_block(self, case, depth):
        dims, rect = case
        assert blocks.min_enclosing_block(rect, dims, depth) == ref_min_enclosing_block(
            rect, dims, depth
        )

    @given(st.data(), dims_st)
    def test_min_enclosing_block_default_depth(self, data, dims):
        rect = data.draw(rect_of(dims))
        assert blocks.min_enclosing_block(rect, dims) == ref_min_enclosing_block(
            rect, dims
        )

    @given(st.data(), dims_st, st.integers(1, 8), st.integers(0, 24))
    def test_decompose_rect(self, data, dims, regions, depth):
        rect = data.draw(rect_of(dims))
        assert decompose_rect(rect, dims, regions, depth) == ref_decompose_rect(
            rect, dims, regions, depth
        )

    @settings(max_examples=150)
    @given(bang_pages())
    @example((2, [((0.1, 0.1), 0), ((0.9, 0.1), 1)], (), {}))
    @example((2, [((0.1, 0.1), 0), ((0.1, 0.9), 1)], (), {(0,): 0}))
    @example((1, [((0.5,), 0), ((0.5,), 1)], (), {}))
    def test_bang_choose_split_block(self, case):
        dims, records, page_bits, data_blocks = case
        bang = BangFile(PageStore(512), dims)
        bang._data_blocks = data_blocks
        page = _DataPage(page_bits)
        page.records = records
        assert bang._choose_split_block(page) == ref_choose_split_block(
            records, page_bits, data_blocks, dims
        )


# -- Guttman's quadratic split ------------------------------------------------


class TestGuttman:
    @given(st.data(), dims_st)
    def test_union_area(self, data, dims):
        a = data.draw(rect_of(dims))
        b = data.draw(st.just(a) | rect_of(dims))
        assert a.union_area(b) == a.union(b).area()
        assert a.enlargement(b) == ref_enlargement(a, b)

    @given(st.data(), dims_st)
    def test_choose_subtree(self, data, dims):
        rects = data.draw(rect_lists(dims, 1, 30))
        rect = data.draw(st.sampled_from(rects) | rect_of(dims))
        tree = RTree(PageStore(512), dims)
        node = _Node(is_leaf=False)
        node.rects = list(rects)
        assert tree._choose_subtree(node, rect) == ref_choose_subtree(rects, rect)

    @given(st.data(), dims_st)
    def test_pick_seeds(self, data, dims):
        entries = [(r, i) for i, r in enumerate(data.draw(rect_lists(dims, 2, 40)))]
        lo, hi = rtree_mod._bounds(entries)
        assert rtree_mod._pick_seeds(lo, hi) == ref_pick_seeds(entries)

    @settings(max_examples=150)
    @given(st.data(), dims_st, st.booleans())
    def test_split(self, data, dims, flat):
        rects = data.draw(rect_lists(dims, 2, 40))
        if flat:
            # Zero volume everywhere: every enlargement and area ties, so
            # the entry counts decide each assignment.
            rects = [_flatten(r) for r in rects]
        entries = [(r, i) for i, r in enumerate(rects)]
        tree = RTree(PageStore(512), dims)
        tree._min_entries = data.draw(st.integers(1, max(1, len(entries) // 2)))
        assert tree._split_guttman(entries) == ref_split_guttman(
            entries, tree._min_entries
        )

    def test_seeds_need_waste_above_start_value(self):
        # Boxes of volume 4 waste at most -4 + overlap < -1 in every
        # pair, so the scalar loop never moves off its (0, 1) start.
        entries = [
            (Rect((0.0, 0.0), (2.0, 2.0)), 0),
            (Rect((1.0, 1.0), (3.0, 3.0)), 1),
            (Rect((0.5, 0.0), (2.5, 2.0)), 2),
        ]
        assert ref_pick_seeds(entries) == (0, 1)
        assert rtree_mod._pick_seeds(*rtree_mod._bounds(entries)) == (0, 1)
        # Nested boxes of volume 4, 2 and 1: the best pairs waste exactly
        # -1.0, which is not *more* than the start value.
        nested = [
            (Rect((0.0, 0.0), (2.0, 2.0)), 0),
            (Rect((0.0, 0.0), (2.0, 1.0)), 1),
            (Rect((0.0, 0.0), (1.0, 1.0)), 2),
        ]
        assert ref_pick_seeds(nested) == (0, 1)
        assert rtree_mod._pick_seeds(*rtree_mod._bounds(nested)) == (0, 1)


# -- R+ leaf planes -------------------------------------------------------------


class TestRPlusPlane:
    @settings(max_examples=150)
    @given(st.data(), dims_st)
    def test_choose_leaf_plane(self, data, dims):
        rects = data.draw(rect_lists(dims, 1, 30))
        region = data.draw(st.just(Rect.unit(dims)) | rect_of(dims))
        tree = RPlusTree(PageStore(512), dims)
        tree._capacity = data.draw(st.integers(1, len(rects)))
        leaf = _Leaf(list(rects), list(range(len(rects))))
        assert tree._choose_leaf_plane(leaf, region) == ref_choose_leaf_plane(
            rects, region, dims, tree._capacity
        )
