"""Vectorized predicate kernels over coordinate arrays.

These are the NumPy counterparts of the scalar :class:`~repro.geometry.rect.Rect`
box predicates.  Every kernel evaluates a whole page of boxes against one
query box in one call, replacing the per-record Python loops inside
visited pages.

Exactness contract: the kernels compare float64 values with ``<=``/``>=``
only, never arithmetic, so a kernel's verdict on any (record, query) pair is
bit-identical to the scalar predicate on the same Python floats.  NaN rows
(used to mark unavailable batch queries) compare false everywhere, matching
"never selected".

Shapes
------
``lo``, ``hi``     ``(n, d)``   page of boxes (lower/upper corners)
``qlo``, ``qhi``   ``(d,)``     one query box

Each kernel returns a boolean mask of shape ``(n,)``.

The batched traversal (:mod:`repro.query.traverse`) evaluates the same
predicates in a *fused* form.  Every predicate here is a conjunction of
``<=`` comparisons, half of them with the operands swapped.  Since
IEEE-754 negation is exact and ``a <= b  <=>  -b <= -a`` for every float
pair (NaN compares false on both sides), each predicate is ONE comparison
of a per-page fused array against a per-query vector:

  point in box:       [-p, p]   <= [-qlo, qhi]
  boxes intersect:    [lo, -hi] <= [qhi, -qlo]
  box within query:   [-lo, hi] <= [-qlo, qhi]
  box encloses query: [lo, -hi] <= [qlo, -qhi]

Intersection and enclosure share the ``[lo, -hi]`` page array ("cover");
containment needs ``[-lo, hi]`` ("anti").  ``tests/test_query_kernels.py``
keeps the fused and batch forms as the oracle that pins them to these
kernels bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "boxes_intersect",
    "boxes_within",
    "boxes_enclose",
]


def boxes_intersect(
    lo: np.ndarray, hi: np.ndarray, qlo: np.ndarray, qhi: np.ndarray
) -> np.ndarray:
    """Mask of stored boxes sharing at least one point with the query box."""
    return ((lo <= qhi) & (qlo <= hi)).all(axis=1)


def boxes_within(
    lo: np.ndarray, hi: np.ndarray, qlo: np.ndarray, qhi: np.ndarray
) -> np.ndarray:
    """Mask of stored boxes entirely inside the query box (containment)."""
    return ((qlo <= lo) & (hi <= qhi)).all(axis=1)


def boxes_enclose(
    lo: np.ndarray, hi: np.ndarray, qlo: np.ndarray, qhi: np.ndarray
) -> np.ndarray:
    """Mask of stored boxes that entirely contain the query box (enclosure).

    With a degenerate query box this is exactly ``contains_point``.
    """
    return ((lo <= qlo) & (qhi <= hi)).all(axis=1)
