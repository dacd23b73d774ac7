"""Binary-partition *blocks* of the unit cube.

Both the BANG file and the BUDDY hash tree partition the data space
``[0,1)^d`` by *recursive halving with cyclic axes*: the first cut halves
axis 0, the second axis 1, ..., the (d+1)-th halves axis 0 again, and so
on.  Every region reachable this way is a **block** and is identified by
the sequence of halving decisions that produces it — a tuple of bits
where bit ``j`` selects the lower (0) or upper (1) half of axis
``j % d``.

The empty tuple is the whole data space.  Block ``a`` contains block
``b`` iff ``a`` is a prefix of ``b``; two blocks are either nested or
disjoint, which is exactly the property the BANG file's nested regions
and the BUDDY tree's buddy rectangles rely on.

All coordinates are binary fractions with at most :data:`MAX_DEPTH`
halvings per block, so the float arithmetic below is exact.
"""

from __future__ import annotations

import math

from functools import lru_cache
from typing import Sequence

from repro.geometry.rect import Rect

__all__ = [
    "MAX_DEPTH",
    "Bits",
    "block_rect",
    "bits_of_point",
    "quantize",
    "interleave",
    "is_prefix",
    "common_prefix",
    "min_enclosing_block",
    "split_axis",
]

#: Maximum total number of halvings of a block address.  48 bits across
#: two dimensions gives 24 bits of resolution per axis, far below the 52
#: mantissa bits of a float, so block boundaries are computed exactly.
MAX_DEPTH = 48

#: A block address: tuple of 0/1 halving decisions.
Bits = tuple[int, ...]


def split_axis(bits: Bits, dims: int) -> int:
    """Axis that the *next* halving of block ``bits`` cuts."""
    return len(bits) % dims


@lru_cache(maxsize=1 << 16)
def block_rect(bits: Bits, dims: int) -> Rect:
    """The axis-parallel rectangle covered by block ``bits``.

    The rectangle is returned as a closed :class:`Rect`; callers that
    need half-open semantics (a point on a shared boundary belongs to
    the *upper* block) should locate points with :func:`bits_of_point`
    rather than with geometric containment.

    The function is pure over immutable arguments, and the BANG/BUDDY
    scan paths recompute the same few thousand block rectangles for
    every query, so results are memoized (``Rect`` is immutable, sharing
    is safe).
    """
    lo = [0.0] * dims
    width = [1.0] * dims
    for j, bit in enumerate(bits):
        axis = j % dims
        width[axis] *= 0.5
        if bit:
            lo[axis] += width[axis]
    hi = tuple(l + w for l, w in zip(lo, width))
    return Rect._make(tuple(lo), hi)


#: dims -> 256-entry table spreading a byte's bits ``dims`` apart:
#: bit ``i`` of the byte lands at bit ``i * dims`` of the entry.
_SPREAD_TABLES: dict[int, list[int]] = {}


def _spread_table(dims: int) -> list[int]:
    table = _SPREAD_TABLES.get(dims)
    if table is None:
        table = _SPREAD_TABLES[dims] = [
            sum(((byte >> i) & 1) << (i * dims) for i in range(8))
            for byte in range(256)
        ]
    return table


# Warm the tables for every dimensionality the testbed reaches: 2-d for
# the native structures, 4-d for the transformation technique (2-d rects
# mapped to 4-d points), 3-d for completeness.  First-use latency then
# never includes table construction.
for _dims in (2, 3, 4):
    _spread_table(_dims)
del _dims


def quantize(point: Sequence[float], bits_per_axis: int) -> list[int]:
    """Each coordinate as a cell index on a ``2**bits_per_axis`` grid.

    Cells are half-open; ``1.0`` (and anything above it) is clamped into
    the last cell.  Negative and NaN coordinates are rejected.
    """
    scale = 1 << bits_per_axis
    quantized = []
    for c in point:
        if not c >= 0.0:  # negative or NaN
            raise ValueError(f"coordinate {c} outside the unit cube")
        q = math.floor(c * scale)
        if q >= scale:  # c == 1.0 or float round-up: clamp into the cube
            q = scale - 1
        quantized.append(q)
    return quantized


def interleave(quantized: Sequence[int], dims: int) -> int:
    """Morton code of the first ``dims`` quantized coordinates.

    Bit ``j`` of axis ``a`` lands at position ``j * dims + (dims - 1 - a)``:
    read MSB first, the code is the cyclic halving sequence of
    :func:`bits_of_point`, axis 0 first.  Each axis is spread through a
    256-entry table, one lookup per 8 coordinate bits.
    """
    table = _spread_table(dims)
    z = 0
    for axis in range(dims):
        q = quantized[axis]
        spread = table[q & 0xFF]
        chunk = 0
        q >>= 8
        while q:
            chunk += 1
            spread |= table[q & 0xFF] << (8 * chunk * dims)
            q >>= 8
        z |= spread << (dims - 1 - axis)
    return z


#: Maps the ASCII digits of ``bin()`` to the bit values 0 and 1.
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _address(code: int, depth: int) -> Bits:
    """The ``depth``-bit block address spelled by ``code``, MSB first."""
    # The leading 1 pins the width, so ``depth == 0`` yields ().
    return tuple(bin(code | 1 << depth)[3:].encode().translate(_DIGITS_TO_BITS))


def bits_of_point(point: Sequence[float], dims: int, depth: int) -> Bits:
    """Address of the depth-``depth`` block containing ``point``.

    ``point`` must lie in ``[0,1)`` per axis; boundary points belong to
    the upper half (half-open convention).
    """
    if depth > MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds MAX_DEPTH={MAX_DEPTH}")
    # Quantize each axis once; bit k (from the most significant) of the
    # quantized value is the k-th halving decision for that axis.
    per_axis = -(-depth // dims)
    code = interleave(quantize(point, per_axis), dims)
    return _address(code >> (per_axis * dims - depth), depth)


def is_prefix(a: Bits, b: Bits) -> bool:
    """True iff block ``a`` contains block ``b`` (prefix containment)."""
    return len(a) <= len(b) and b[: len(a)] == a


def common_prefix(a: Bits, b: Bits) -> Bits:
    """The smallest block containing both ``a`` and ``b``."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return a[:n]


def min_enclosing_block(rect: Rect, dims: int, max_depth: int = MAX_DEPTH) -> Bits:
    """Smallest block (longest address) whose rectangle contains ``rect``.

    This is the *buddy rectangle* operation of the BUDDY hash tree: the
    block is the longest common prefix of the addresses of the
    rectangle's lower and upper corners.  A rectangle touching ``1.0``
    still resolves, because :func:`quantize` clamps ``1.0`` into the last
    cell.  The prefix length comes straight from the quantized corners:
    on each axis the first differing halving is the highest set bit of
    ``lo ^ hi``, and only the common prefix is spelled out.
    """
    if max_depth > MAX_DEPTH:
        raise ValueError(f"depth {max_depth} exceeds MAX_DEPTH={MAX_DEPTH}")
    per_axis = -(-max_depth // dims)
    lo = quantize(rect.lo, per_axis)
    hi = quantize(rect.hi, per_axis)
    depth = max_depth
    for axis in range(dims):
        diff = lo[axis] ^ hi[axis]
        if diff:
            # Halving k of this axis is decision k * dims + axis overall.
            first = (per_axis - diff.bit_length()) * dims + axis
            if first < depth:
                depth = first
    return _address(interleave(lo, dims) >> (per_axis * dims - depth), depth)
