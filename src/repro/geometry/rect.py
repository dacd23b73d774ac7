"""Axis-parallel d-dimensional rectangles.

A :class:`Rect` is the closed box ``[lo[i], hi[i]]`` in every dimension.
All access methods in this package, including the 4-dimensional
transformation technique, share this one type.  Instances are immutable
and hashable so they can serve as dictionary keys in directories and in
test oracles.
"""

from __future__ import annotations

from typing import Iterable, Sequence

try:  # numpy accelerates the bulk constructors; scalar fallbacks remain.
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = ["Rect"]

#: Below this many inputs the scalar ``min``/``max`` loops beat the cost of
#: materialising a NumPy array (micro-benchmarked in bench_micro_geometry).
_VECTOR_MIN = 16


class Rect:
    """A closed axis-parallel box ``[lo, hi]`` in ``d`` dimensions.

    ``lo`` and ``hi`` are tuples of equal length with ``lo[i] <= hi[i]``.
    Degenerate boxes (``lo[i] == hi[i]``) are allowed; they represent
    points and are used as the minimal bounding rectangle of a single
    record.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Sequence[float], hi: Sequence[float]):
        lo = tuple(lo)
        hi = tuple(hi)
        if len(lo) != len(hi):
            raise ValueError(f"dimension mismatch: {len(lo)} != {len(hi)}")
        # ``not l <= h`` also rejects NaN, which ``l > h`` lets through.
        if any(not l <= h for l, h in zip(lo, hi)):
            raise ValueError(f"inverted interval in Rect({lo}, {hi})")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # Rect is conceptually frozen; block attribute rebinding.
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Rect is immutable")

    # The default slots pickling path rebuilds via __setattr__, which is
    # blocked; reconstruct through the validating constructor instead.
    def __reduce__(self):
        return (Rect, (self.lo, self.hi))

    # -- constructors -------------------------------------------------

    @classmethod
    def _make(cls, lo: tuple[float, ...], hi: tuple[float, ...]) -> "Rect":
        """Internal constructor for *known-valid* tuples.

        Skips the tuple re-wrap and the inversion check of ``__init__``;
        only for callers that construct ``lo``/``hi`` as equal-length
        tuples with ``lo[i] <= hi[i]`` by construction.
        """
        rect = object.__new__(cls)
        object.__setattr__(rect, "lo", lo)
        object.__setattr__(rect, "hi", hi)
        return rect

    @classmethod
    def unit(cls, dims: int) -> "Rect":
        """The unit cube ``[0, 1]^dims`` — the paper's data space."""
        return cls._make((0.0,) * dims, (1.0,) * dims)

    @classmethod
    def from_point(cls, point: Sequence[float]) -> "Rect":
        """The degenerate rectangle covering exactly ``point``."""
        p = tuple(point)
        return cls._make(p, p)

    @classmethod
    def bounding(cls, rects: Iterable["Rect"]) -> "Rect":
        """Minimal bounding rectangle of a non-empty set of rectangles."""
        rects = list(rects)
        if not rects:
            raise ValueError("bounding() of an empty set")
        if _np is not None and len(rects) >= _VECTOR_MIN:
            lo = tuple(_np.min([r.lo for r in rects], axis=0).tolist())
            hi = tuple(_np.max([r.hi for r in rects], axis=0).tolist())
        else:
            lo = tuple(map(min, zip(*(r.lo for r in rects))))
            hi = tuple(map(max, zip(*(r.hi for r in rects))))
        return cls._make(lo, hi)

    @classmethod
    def bounding_points(cls, points: Iterable[Sequence[float]]) -> "Rect":
        """Minimal bounding rectangle of a non-empty set of points."""
        pts = [tuple(p) for p in points]
        if not pts:
            raise ValueError("bounding_points() of an empty set")
        if _np is not None and len(pts) >= _VECTOR_MIN:
            arr = _np.asarray(pts)
            lo = tuple(arr.min(axis=0).tolist())
            hi = tuple(arr.max(axis=0).tolist())
        else:
            lo = tuple(map(min, zip(*pts)))
            hi = tuple(map(max, zip(*pts)))
        return cls._make(lo, hi)

    # -- basic properties ---------------------------------------------

    @property
    def dims(self) -> int:
        """Number of dimensions."""
        return len(self.lo)

    @property
    def center(self) -> tuple[float, ...]:
        """Geometric center of the box."""
        return tuple((l + h) / 2.0 for l, h in zip(self.lo, self.hi))

    def extent(self, axis: int) -> float:
        """Side length along ``axis``."""
        return self.hi[axis] - self.lo[axis]

    def area(self) -> float:
        """d-dimensional volume (the paper calls it *volume*)."""
        v = 1.0
        for l, h in zip(self.lo, self.hi):
            v *= h - l
        return v

    def union_area(self, other: "Rect") -> float:
        """``self.union(other).area()`` without building the union.

        The same IEEE operations in the same order: each bound is the
        ``min``/``max`` of :meth:`union` (first argument kept on ties),
        and the volume is the per-axis product of :meth:`area`.
        """
        v = 1.0
        for l, h, ol, oh in zip(self.lo, self.hi, other.lo, other.hi):
            v *= (oh if oh > h else h) - (ol if ol < l else l)
        return v

    def margin(self) -> float:
        """Sum of side lengths — the *margin* minimised by split policies."""
        return sum(h - l for l, h in zip(self.lo, self.hi))

    # -- predicates ----------------------------------------------------

    def contains_point(self, point: Sequence[float]) -> bool:
        """True iff ``point`` lies inside the closed box."""
        for l, c, h in zip(self.lo, point, self.hi):
            if not l <= c <= h:
                return False
        return True

    def contains_rect(self, other: "Rect") -> bool:
        """True iff ``other`` lies entirely inside this box."""
        for l, h, ol, oh in zip(self.lo, self.hi, other.lo, other.hi):
            if not (l <= ol and oh <= h):
                return False
        return True

    def intersects(self, other: "Rect") -> bool:
        """True iff the two closed boxes share at least one point.

        Single pass with an early exit — the first separating axis
        settles it, where the old per-axis generator pairs always walked
        ``lo`` completely before looking at ``hi``.
        """
        for l, h, ol, oh in zip(self.lo, self.hi, other.lo, other.hi):
            if not (l <= oh and ol <= h):
                return False
        return True

    # -- constructive operations ----------------------------------------

    def intersection(self, other: "Rect") -> "Rect | None":
        """The common box, or ``None`` when the boxes are disjoint."""
        lo = tuple(map(max, self.lo, other.lo))
        hi = tuple(map(min, self.hi, other.hi))
        if any(l > h for l, h in zip(lo, hi)):
            return None
        return Rect._make(lo, hi)

    def union(self, other: "Rect") -> "Rect":
        """Minimal bounding rectangle of the two boxes."""
        return Rect._make(
            tuple(map(min, self.lo, other.lo)), tuple(map(max, self.hi, other.hi))
        )

    def expanded_to_point(self, point: Sequence[float]) -> "Rect":
        """Minimal bounding rectangle of this box and ``point``."""
        return Rect._make(
            tuple(map(min, self.lo, point)), tuple(map(max, self.hi, point))
        )

    def enlargement(self, other: "Rect") -> float:
        """Extra volume needed to also cover ``other`` (R-tree heuristic)."""
        return self.union_area(other) - self.area()

    def split_at(self, axis: int, coordinate: float) -> tuple["Rect", "Rect"]:
        """Cut the box with the hyperplane ``x[axis] == coordinate``."""
        if not self.lo[axis] <= coordinate <= self.hi[axis]:
            raise ValueError(
                f"split coordinate {coordinate} outside [{self.lo[axis]}, {self.hi[axis]}]"
            )
        left_hi = list(self.hi)
        left_hi[axis] = coordinate
        right_lo = list(self.lo)
        right_lo[axis] = coordinate
        return (
            Rect._make(self.lo, tuple(left_hi)),
            Rect._make(tuple(right_lo), self.hi),
        )

    # -- dunder -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rect) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Rect({self.lo}, {self.hi})"
