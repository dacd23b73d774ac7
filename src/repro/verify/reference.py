"""Scalar reference descents: the oracle of the batched query path.

Every access method answers queries through one production path, the
batched plan/replay traversal (:mod:`repro.query.traverse`).  Its claim
is stronger than equal results: it must issue the same charged page
accesses, in the same order, as a plain scalar descent that evaluates
each predicate with the :class:`~repro.geometry.rect.Rect` methods.
This module keeps those scalar descents, one plain function per
structure over a built method, so the claim can be checked access for
access.

:func:`as_reference` returns a *reference view* of a built method: an
object of a subclass of the method's own class that shares the method's
state (its ``__dict__``, hence its store) and replaces only the query
hooks that the batched path implements (``_range_query``, ``_collect``,
``_query``, ``_scan_window``, ``_transformed_query``) with the
functions below.  Everything else — the public query API, the query
translations of the SAMs, inserts, audits, snapshots — is the production
code itself, so a view plugs into the duck-typed driver
(:func:`repro.query.driver.run_query_file`) and the experiment drivers
unchanged::

    ref = as_reference(method)
    run_query_file(ref, "range", queries, ref.range_query)

Only the tests and ``python -m repro.query.bench`` use this module; no
production path imports it.
"""

from __future__ import annotations

from typing import Callable

from repro.geometry import blocks
from repro.geometry.rect import Rect
from repro.geometry.regioncover import cover_cuts, half_open_hi, is_covered
from repro.geometry.zorder import decompose_rect, z_interval
from repro.pam.bang import BangFile
from repro.pam.buddytree import BuddyTree
from repro.pam.gridfile import GridFile
from repro.pam.hbtree import HBTree
from repro.pam.kdbtree import KdBTree
from repro.pam.plop import PlopHashing
from repro.pam.twingrid import TwinGridFile
from repro.pam.twolevelgrid import TwoLevelGridFile
from repro.pam.zbtree import Z_BITS_PER_AXIS, ZOrderBTree
from repro.sam import clipping
from repro.sam.clipping import ClippingSAM
from repro.sam.overlapping import OverlappingPlop
from repro.sam.rplustree import RPlusTree
from repro.sam.rtree import RTree
from repro.sam.transformation import TransformationSAM

__all__ = ["PREDICATES", "as_reference", "reference_factories"]

#: Scalar predicates by op tag (stored rect first, query second).
PREDICATES = {
    "isect": lambda r, q: r.intersects(q),
    "within": lambda r, q: q.contains_rect(r),
    "encl": lambda r, q: r.contains_rect(q),
}


def _matching(records, rect: Rect) -> list:
    """The ``(point, rid)`` records of one page lying in ``rect``."""
    return [rec for rec in records if rect.contains_point(rec[0])]


# -- point access methods ------------------------------------------------------


def bang_range_query(m: BangFile, rect: Rect) -> list:
    result: list = []
    stack = [m._root_pid]
    while stack:
        pid = stack.pop()
        node = m.store.read(pid)
        if node.is_leaf:
            for entry in bang_relevant_data_entries(m, node, rect):
                result.extend(_matching(m.store.read(entry.pid).records, rect))
        else:
            # Inner entries cannot be pruned by nesting: a data block
            # shorter than a nested sibling may keep records inside
            # the sibling's rectangle in a different subtree.  With
            # minimal regions, an entry whose region misses the query
            # can be pruned — the §9 improvement.
            for entry in node.entries:
                if not blocks.block_rect(entry.bits, m.dims).intersects(rect):
                    continue
                if m.minimal_regions and (
                    entry.mbr is None or not entry.mbr.intersects(rect)
                ):
                    continue
                stack.append(entry.pid)
    return result


def bang_relevant_data_entries(m: BangFile, leaf, rect: Rect) -> list:
    """Data entries to read: the block overlaps the query and the
    overlap is not entirely covered by sibling data blocks nested
    inside it (records in the covered part live on those pages).

    Nested blocks are half-open, so the overlap's upper corner is read
    through :func:`~repro.geometry.regioncover.half_open_hi` before the
    closed coverage test."""
    entries = leaf.entries
    out = []
    for entry in entries:
        if m.minimal_regions and (
            entry.mbr is None or not entry.mbr.intersects(rect)
        ):
            continue
        block = blocks.block_rect(entry.bits, m.dims)
        overlap = block.intersection(rect)
        if overlap is None:
            continue
        nested = [
            blocks.block_rect(other.bits, m.dims)
            for other in entries
            if other is not entry
            and len(other.bits) > len(entry.bits)
            and blocks.is_prefix(entry.bits, other.bits)
        ]
        if nested:
            hi = half_open_hi(overlap.hi, block.hi, cover_cuts(nested))
            if is_covered(Rect(overlap.lo, hi), nested):
                continue
        out.append(entry)
    return out


def buddy_range_query(m: BuddyTree, rect: Rect) -> list:
    result: list = []
    seen_data: set[int] = set()

    def visit(pid: int, is_data: bool) -> None:
        if is_data:
            if pid in seen_data:
                return
            seen_data.add(pid)
            result.extend(_matching(m.store.read(pid).records, rect))
            return
        node = m.store.read(pid)
        for entry in node.entries:
            if entry.rect.intersects(rect):
                visit(entry.pid, entry.is_data)

    visit(m._root_pid, m._root_is_data)
    return result


def hb_range_query(m: HBTree, rect: Rect) -> list:
    result: list = []
    seen: set[int] = set()

    def visit(pid: int, is_data: bool) -> None:
        if pid in seen:
            return
        seen.add(pid)
        if is_data:
            result.extend(_matching(m.store.read(pid).records, rect))
            return
        node = m.store.read(pid)
        for child_pid, child_is_data in m._kd_children(node.kd, rect):
            visit(child_pid, child_is_data)

    visit(m._root_pid, m._root_is_data)
    return result


def kdb_range_query(m: KdBTree, rect: Rect) -> list:
    result: list = []
    stack = [(m._root_pid, m._root_is_leaf)]
    while stack:
        pid, is_leaf = stack.pop()
        if is_leaf:
            result.extend(_matching(m.store.read(pid).records, rect))
            continue
        node = m.store.read(pid)
        for region, child in zip(node.rects, node.pids):
            if region.intersects(rect):
                stack.append((child, node.leaf_children))
    return result


def _payloads_in_rect(layer, rect: Rect) -> list:
    """Grid payloads whose cell box meets ``rect``, in boxes-dict order."""
    return [pid for pid in layer.boxes if layer.box_rect(pid).intersects(rect)]


def grid_range_query(m: GridFile, rect: Rect) -> list:
    m._read_directory(rect)
    result: list = []
    for pid in _payloads_in_rect(m._layer, rect):
        result.extend(_matching(m.store.read(pid).records, rect))
    return result


def twin_grid_range_query(m: TwinGridFile, rect: Rect) -> list:
    result: list = []
    for layer_index, layer in enumerate(m._layers):
        m._read_directory(layer_index, rect)
        for pid in _payloads_in_rect(layer, rect):
            result.extend(_matching(m.store.read(pid).records, rect))
    return result


def two_level_grid_range_query(m: TwoLevelGridFile, rect: Rect) -> list:
    result: list = []
    for spid in _payloads_in_rect(m._root, rect):
        subgrid = m.store.read(spid)
        for dpid in _payloads_in_rect(subgrid.layer, rect):
            result.extend(_matching(m.store.read(dpid).records, rect))
    return result


def zb_range_query(m: ZOrderBTree, rect: Rect) -> list:
    result: list = []
    for bits in m._query_regions(rect):
        lo, hi = z_interval(bits, m.dims, Z_BITS_PER_AXIS)
        for _, leaf, start, stop in m._tree.scan_pages(lo, hi):
            result.extend(_matching(leaf.values[start:stop], rect))
    return result


def plop_range_query(m: PlopHashing, rect: Rect) -> list:
    result: list = []
    for _, records in m._read_window(rect):
        result.extend(_matching(records, rect))
    return result


# -- spatial access methods ----------------------------------------------------


def rtree_collect(m: RTree, inner_op: str, leaf_op: str, query: Rect) -> list:
    result: list = []
    stack = [m._root_pid]
    while stack:
        pid = stack.pop()
        node = m.store.read(pid)
        pred = PREDICATES[leaf_op if node.is_leaf else inner_op]
        out = result if node.is_leaf else stack
        out.extend(
            child
            for rect, child in zip(node.rects, node.children)
            if pred(rect, query)
        )
    return result


def rplus_collect(m: RPlusTree, region_op: str, entry_op: str, query: Rect) -> list:
    result: list = []
    seen: set = set()
    stack = [(m._root_pid, m._root_is_leaf)]
    while stack:
        pid, is_leaf = stack.pop()
        if is_leaf:
            leaf = m.store.read(pid)
            pred = PREDICATES[entry_op]
            for rect, rid in zip(leaf.rects, leaf.rids):
                if rid not in seen and pred(rect, query):
                    seen.add(rid)
                    result.append(rid)
            continue
        node = m.store.read(pid)
        pred = PREDICATES[region_op]
        for region, child in zip(node.regions, node.pids):
            if pred(region, query):
                stack.append((child, node.leaf_children))
    return result


def clipping_query(m: ClippingSAM, query: Rect, op: str) -> list:
    """Scan the query's z-regions and probe their ancestors."""
    seen: set = set()
    result: list = []
    predicate = PREDICATES[op]

    def offer(rect: Rect, rid: object) -> None:
        if rid not in seen and predicate(rect, query):
            seen.add(rid)
            result.append(rid)

    probed: set = set()
    for bits in decompose_rect(query, m.dims, 8, clipping._MAX_DEPTH):
        lo, hi = z_interval(bits, m.dims, clipping._Z_BITS)
        for _, leaf, start, stop in m._tree.scan_pages((lo, 0), (hi, 0)):
            for rect, rid in leaf.values[start:stop]:
                offer(rect, rid)
        # Ancestor blocks start before `lo`; probe each exactly once.
        for depth in range(len(bits)):
            ancestor = bits[:depth]
            if ancestor in probed:
                continue
            probed.add(ancestor)
            for rect, rid in m._tree.lookup(m._key(ancestor)):
                offer(rect, rid)
    return result


def overlapping_scan_window(
    m: OverlappingPlop, lo, hi, op: str, query: Rect
) -> list:
    ranges = m._window_ranges(lo, hi)
    if ranges is None:
        return []
    predicate = PREDICATES[op]
    return [
        rid
        for _, records in m._grid.iter_window_pages(ranges)
        for rect, rid in records
        if predicate(rect, query)
    ]


def transformed_query(
    m: TransformationSAM, query_box: "Rect | None", op: str, query: Rect
) -> list:
    if query_box is None:
        return []
    candidates = as_reference(m.pam)._range_query(query_box)
    predicate = PREDICATES[op]
    return [
        rid for point, rid in candidates if predicate(m._to_rect(point), query)
    ]


# -- reference views -----------------------------------------------------------

#: Production class -> {query hook: scalar descent}.  Subclasses inherit
#: their base's entry (MLGF is a BUDDY tree, quantile hashing is PLOP).
_DESCENTS: dict[type, dict[str, Callable]] = {
    BangFile: {"_range_query": bang_range_query},
    BuddyTree: {"_range_query": buddy_range_query},
    HBTree: {"_range_query": hb_range_query},
    KdBTree: {"_range_query": kdb_range_query},
    GridFile: {"_range_query": grid_range_query},
    TwinGridFile: {"_range_query": twin_grid_range_query},
    TwoLevelGridFile: {"_range_query": two_level_grid_range_query},
    ZOrderBTree: {"_range_query": zb_range_query},
    PlopHashing: {"_range_query": plop_range_query},
    RTree: {"_collect": rtree_collect},
    RPlusTree: {"_collect": rplus_collect},
    ClippingSAM: {"_query": clipping_query},
    OverlappingPlop: {"_scan_window": overlapping_scan_window},
    TransformationSAM: {"_transformed_query": transformed_query},
}

_VIEW_CLASSES: dict[type, type] = {}


def _view_class(cls: type) -> type:
    view = _VIEW_CLASSES.get(cls)
    if view is None:
        hooks: dict[str, Callable] = {}
        for klass in reversed(cls.__mro__):
            hooks.update(_DESCENTS.get(klass, {}))
        if not hooks:
            raise TypeError(f"no reference descent for {cls.__name__}")
        # Same name as the production class: snapshots and reports key
        # structures by type name and must not tell the two apart.
        view = _VIEW_CLASSES[cls] = type(
            cls.__name__, (cls,), {"__module__": __name__, **hooks}
        )
    return view


def as_reference(method):
    """A reference view of ``method`` (see the module docstring).

    The view shares the method's state, so building through either one
    builds both; only the query descents differ.
    """
    cls = type(method)
    if cls in _VIEW_CLASSES.values():
        return method
    view = object.__new__(_view_class(cls))
    view.__dict__ = method.__dict__
    return view


def reference_factories(factories: dict[str, Callable]) -> dict[str, Callable]:
    """``factories`` with every built method wrapped by :func:`as_reference`.

    Feeds the experiment drivers (``build_pam``/``build_sam``, the traced
    runners) a reference view wherever they would build a method, so a
    whole standard run answers its queries through the scalar descents.
    """

    def wrap(factory: Callable) -> Callable:
        return lambda *args, **kwargs: as_reference(factory(*args, **kwargs))

    return {name: wrap(factory) for name, factory in factories.items()}
