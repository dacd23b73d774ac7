"""Morton (z-order) codes and redundant z-region decomposition.

The z-order maps a d-dimensional point to a single integer by
interleaving the bits of its quantized coordinates.  A *z-region* is a
prefix of such codes — geometrically exactly a binary-partition block in
the sense of :mod:`repro.geometry.blocks` — and corresponds to one
contiguous interval of z-values.  Storing the z-regions of an object in
a one-dimensional B+-tree is the classic technique of Orenstein & Merrett
[OM 84]; decomposing an object into *several* z-regions trades
**redundancy** for query precision, the trade-off studied by Orenstein's
companion paper in the same proceedings volume.
"""

from __future__ import annotations

import math

from typing import Sequence

from repro.geometry.blocks import (
    Bits,
    block_rect,
    interleave,
    min_enclosing_block,
    quantize,
)
from repro.geometry.rect import Rect

__all__ = [
    "z_value",
    "z_interval",
    "decompose_rect",
]


def z_value(point: Sequence[float], dims: int, bits_per_axis: int = 16) -> int:
    """Morton code of ``point`` with ``bits_per_axis`` bits per axis.

    Coordinates must lie in ``[0, 1]``; the value ``1.0`` is clamped to
    the last cell.  Interleaving is cyclic starting with axis 0, matching
    the halving order of :mod:`repro.geometry.blocks`.

    The code comes from the same table-driven interleaver as the block
    addresses (:func:`repro.geometry.blocks.interleave`).
    """
    return interleave(quantize(point, bits_per_axis), dims)


def z_interval(bits: Bits, dims: int, bits_per_axis: int = 16) -> tuple[int, int]:
    """Half-open interval ``[lo, hi)`` of z-values falling in block ``bits``."""
    total = dims * bits_per_axis
    if len(bits) > total:
        raise ValueError(f"block deeper ({len(bits)}) than the z resolution ({total})")
    prefix = 0
    for bit in bits:
        prefix = (prefix << 1) | bit
    shift = total - len(bits)
    return prefix << shift, (prefix + 1) << shift


def decompose_rect(
    rect: Rect,
    dims: int,
    max_regions: int = 4,
    max_depth: int = 20,
) -> list[Bits]:
    """Cover ``rect`` with at most ``max_regions`` z-regions (blocks).

    This is the redundancy-controlled decomposition: with
    ``max_regions=1`` the object is approximated by its single minimal
    enclosing block (no redundancy, poor precision); larger budgets
    refine the cover greedily, splitting the block whose overshoot
    (covered volume outside the object) is largest, which is how a
    clipping-based spatial access method controls its redundancy.
    """
    if max_regions < 1:
        raise ValueError("max_regions must be at least 1")

    rlo, rhi = rect.lo, rect.hi

    def overshoot(bits: Bits) -> float:
        # A block's volume is a product of powers of two, exactly
        # 2**-depth; the covered part is the volume of its intersection
        # with the object (empty on any axis: nothing covered).
        block = block_rect(bits, dims)
        covered = 1.0
        for l, h, ol, oh in zip(block.lo, block.hi, rlo, rhi):
            lo = ol if ol > l else l
            hi = oh if oh < h else h
            if lo > hi:
                covered = 0.0
                break
            covered *= hi - lo
        return math.ldexp(1.0, -len(bits)) - covered

    # Start from the minimal enclosing block of the object.
    cover = [min_enclosing_block(rect, dims, max_depth)]
    while len(cover) < max_regions:
        # Split the block with the largest overshoot whose children still
        # intersect the object; stop when nothing profitable remains.
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
            child_rect = block_rect(child, dims)
            if child_rect.intersects(rect):
                cover.append(child)
    return cover
