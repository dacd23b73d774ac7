"""Exact rectangle-union coverage tests.

The BANG file stores *nested* regions: the region of a block is its
rectangle minus the rectangles of the blocks nested inside it.  During
range queries a page can be pruned when the part of the query falling
into its block is entirely covered by nested sibling blocks.  The test
"is rectangle T covered by the union of rectangles C1..Ck" is answered
exactly here by coordinate compression: the boundaries of the covering
rectangles cut T into a small grid, and T is covered iff every grid cell
center is inside some covering rectangle.

The coverage tests treat the covers as closed boxes, but blocks are
half-open: a point on a block's upper face belongs to the block above
it.  :func:`half_open_hi` bridges the two — see there.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from typing import Iterable, Sequence

import numpy as np

from repro.geometry.rect import Rect

__all__ = ["CoverSet", "cover_cuts", "half_open_hi", "is_covered"]


def cover_cuts(covers: Sequence[Rect]) -> list[list[float]]:
    """Per axis, the sorted distinct boundaries of ``covers``."""
    return [
        sorted({v for c in covers for v in (c.lo[a], c.hi[a])})
        for a in range(covers[0].dims)
    ]


def half_open_hi(
    hi: tuple[float, ...], limit: tuple[float, ...], cuts: Sequence[list[float]]
) -> tuple[float, ...]:
    """The upper corner that makes a closed coverage test half-open.

    The covers are half-open blocks: a target coordinate ``h`` equal to a
    cover boundary holds points that belong to the cell just *above*
    ``h``, which a closed test never looks at (it would call a point on
    an exposed upper face covered).  Raising ``h`` to the next boundary
    in ``cuts`` — or to ``limit`` past the last one — puts that cell
    inside the target, so the closed test then answers for the half-open
    blocks.  A coordinate strictly between boundaries already shares its
    cell's verdict and stays.  So does a coordinate at ``limit``, the
    enclosing block's own upper corner: points on that face are not in
    the enclosing block (or, at the data space's upper edge, belong to
    the closed top blocks), so the closed verdict is the right one there.
    """
    out = None
    for axis, h in enumerate(hi):
        if h < limit[axis]:
            bounds = cuts[axis]
            i = bisect_right(bounds, h)
            if i and bounds[i - 1] == h:
                if out is None:
                    out = list(hi)
                out[axis] = bounds[i] if i < len(bounds) else limit[axis]
    return hi if out is None else tuple(out)


def is_covered(target: Rect, covers: Iterable[Rect]) -> bool:
    """True iff ``target`` is entirely covered by the union of ``covers``.

    Zero-volume targets count as covered when some cover contains them.
    The cost is the product over axes of the number of distinct cover
    boundaries inside the target, which is tiny for the entry counts of
    a 512-byte page.
    """
    covers = [c for c in covers if c.intersects(target)]
    if not covers:
        return False
    if any(c.contains_rect(target) for c in covers):
        return True
    dims = target.dims
    # Per-axis sorted breakpoints: target boundaries plus every cover
    # boundary strictly inside the target.
    axes_cuts: list[list[float]] = []
    for axis in range(dims):
        cuts = {target.lo[axis], target.hi[axis]}
        for c in covers:
            for v in (c.lo[axis], c.hi[axis]):
                if target.lo[axis] < v < target.hi[axis]:
                    cuts.add(v)
        axes_cuts.append(sorted(cuts))

    # Walk the grid of cells; a cell is represented by its center.
    def cell_centers(axis: int) -> list[float]:
        cuts = axes_cuts[axis]
        if len(cuts) == 1:  # degenerate axis: the single coordinate
            return [cuts[0]]
        return [(a + b) / 2.0 for a, b in zip(cuts, cuts[1:])]

    centers_per_axis = [cell_centers(axis) for axis in range(dims)]
    index = [0] * dims
    while True:
        center = tuple(centers_per_axis[a][index[a]] for a in range(dims))
        if not any(c.contains_point(center) for c in covers):
            return False
        # Advance the mixed-radix counter over grid cells.
        axis = 0
        while axis < dims:
            index[axis] += 1
            if index[axis] < len(centers_per_axis[axis]):
                break
            index[axis] = 0
            axis += 1
        if axis == dims:
            return True


class CoverSet:
    """A fixed cover list preprocessed for repeated coverage queries.

    :meth:`covers` answers exactly what :func:`is_covered` answers over
    the same cover list, but amortises the per-call work across queries.
    The constructor compresses the covers once into their full boundary
    grid — per-axis sorted cut lists plus a boolean array holding each
    grid cell's "center inside some cover" verdict.  A query target then
    reduces to two bisections per axis and one contiguous ``.all()``
    over the touched cell box:

    * a target sticking out of the covers' bounding box contains an
      uncovered corner — rejected before touching the grid;
    * interior target cells coincide with precomputed grid cells, and
      the two edge cells per axis share their grid cell's verdict
      because no cover boundary crosses a grid cell's interior.

    Equivalence to the per-call coordinate compression holds whenever
    every tested cell center lies strictly inside its grid interval.
    The constructor verifies this for the precomputed centers and
    :meth:`covers` verifies it for the query-clipped edge cells; the
    degenerate cases (zero-width targets, or interval endpoints so close
    that their midpoint rounds onto a boundary) fall back to
    :func:`is_covered` on the original cover list, so the verdict is the
    scalar one by construction there too.

    The BANG file's nesting-coverage prune asks this question once per
    (leaf entry, query) pair against the entry's fixed nested siblings —
    the dominant per-query cost at 512-byte pages before this class.
    """

    __slots__ = (
        "_covers",
        "_ulo",
        "_uhi",
        "_cuts",
        "_cells",
        "_exact",
        "_full",
        "_flat",
        "_strides",
    )

    def __init__(self, covers: Sequence[Rect]):
        covers = list(covers)
        self._covers = covers
        dims = covers[0].dims
        self._ulo = tuple(min(c.lo[a] for c in covers) for a in range(dims))
        self._uhi = tuple(max(c.hi[a] for c in covers) for a in range(dims))
        cuts = cover_cuts(covers)
        self._cuts = cuts
        exact = True
        centers = []
        for axis in cuts:
            mids = [(a + b) / 2.0 for a, b in zip(axis, axis[1:])]
            if any(m <= a or m >= b for m, a, b in zip(mids, axis, axis[1:])):
                # Adjacent-float boundaries: a midpoint collapsed onto a
                # cut, so cell interiors are not representable — every
                # query must take the scalar path.
                exact = False
                break
            centers.append(mids)
        self._exact = exact
        self._full = False
        if not exact:
            self._cells = None
            self._flat = None
            self._strides = None
            return
        lo = np.array([c.lo for c in covers])
        hi = np.array([c.hi for c in covers])
        pts = np.stack(
            [g.ravel() for g in np.meshgrid(*centers, indexing="ij")], axis=1
        )
        inside = (pts[:, None, :] >= lo) & (pts[:, None, :] <= hi)
        self._cells = (
            inside.all(axis=2)
            .any(axis=1)
            .reshape([len(m) for m in centers])
        )
        # Every cell center covered means every closed cell is inside some
        # cover (membership is constant on cell interiors and covers are
        # closed), so the whole bounding box is covered: targets passing
        # the bounding-box gate are covered outright, degenerate or not —
        # exactly what the scalar test would conclude.
        self._full = bool(self._cells.all())
        # Row-major flat copy plus per-axis strides: query boxes touching
        # only a handful of cells (the common case — a clipped block spans
        # one or two cuts per axis) are answered by plain list indexing,
        # sparing the fancy-index + reduction round trip through NumPy.
        self._flat = self._cells.ravel().tolist()
        strides = []
        acc = 1
        for n in reversed(self._cells.shape):
            strides.append(acc)
            acc *= n
        self._strides = tuple(reversed(strides))

    def half_open_hi(
        self, hi: tuple[float, ...], limit: tuple[float, ...]
    ) -> tuple[float, ...]:
        """:func:`half_open_hi` over this set's boundaries."""
        return half_open_hi(hi, limit, self._cuts)

    def covers(self, target: Rect) -> bool:
        """True iff ``target`` is entirely covered by the union (exact)."""
        return self.covers_bounds(target.lo, target.hi)

    def covers_bounds(
        self, tlo: tuple[float, ...], thi: tuple[float, ...]
    ) -> bool:
        """:meth:`covers` on raw corner tuples, sparing the Rect object.

        The BANG leaf filter clips its block to the query inline; only
        the rare scalar fallbacks materialise a :class:`Rect`.
        """
        for l, h, lo, hi in zip(tlo, thi, self._ulo, self._uhi):
            # Target sticks out of every cover on this axis: the scalar
            # test's outermost cell center lies beyond every cover too,
            # *provided* the midpoint doesn't round back onto the covers'
            # edge (1-ulp overhangs) — there the scalar verdict can go
            # either way, so re-derive it.
            if lo > l:
                if l == h or (l + lo) / 2.0 < lo:
                    return False
                return is_covered(Rect._make(tlo, thi), self._covers)
            if hi < h:
                if l == h or (hi + h) / 2.0 > hi:
                    return False
                return is_covered(Rect._make(tlo, thi), self._covers)
        if self._full:
            return True
        if not self._exact:
            return is_covered(Rect._make(tlo, thi), self._covers)
        box = []
        total = 1
        for l, h, cuts in zip(tlo, thi, self._cuts):
            if l == h:
                return is_covered(Rect._make(tlo, thi), self._covers)
            # The bounding-box gate guarantees cuts[0] <= l < h <= cuts[-1].
            p = bisect_right(cuts, l) - 1
            q = bisect_left(cuts, h) - 1
            # Edge cells clipped by the target share their grid cell's
            # verdict only while their midpoint stays strictly inside the
            # cell; full-width edge cells are the precomputed cells
            # themselves (same floats, same verdict, no check needed).
            if p == q:
                if l != cuts[p] or h != cuts[p + 1]:
                    m = (l + h) / 2.0
                    if not cuts[p] < m < cuts[p + 1]:
                        return is_covered(Rect._make(tlo, thi), self._covers)
            else:
                if l != cuts[p]:
                    m = (l + cuts[p + 1]) / 2.0
                    if not cuts[p] < m < cuts[p + 1]:
                        return is_covered(Rect._make(tlo, thi), self._covers)
                if h != cuts[q + 1]:
                    m = (cuts[q] + h) / 2.0
                    if not cuts[q] < m < cuts[q + 1]:
                        return is_covered(Rect._make(tlo, thi), self._covers)
            box.append((p, q + 1))
            total *= q + 1 - p
        if total <= 8:
            flat = self._flat
            base = 0
            offs = [0]
            for (p, q1), st in zip(box, self._strides):
                base += p * st
                w = q1 - p
                if w > 1:
                    offs = [o + i * st for o in offs for i in range(w)]
            if total == 1:
                return flat[base]
            return all(flat[base + o] for o in offs)
        return bool(
            self._cells[tuple(slice(p, q1) for p, q1 in box)].all()
        )
