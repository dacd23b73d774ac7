"""Batched query execution over the page store.

Every access method answers queries through one path: a level-at-a-time
plan over uncharged page views whose predicates run as fused NumPy
kernels over the pages' struct-of-arrays views, followed by a replay of
the original descent that issues the charged reads.  The invariant that
makes this safe is spelled out in DESIGN.md: batching decides *how* a
visited page is evaluated, never *which* pages are visited, so every
disk-access statistic the paper reports is that of the scalar descents
in :mod:`repro.verify.reference`, which the tests and the A/B bench
compare against access for access.

Modules
-------
``columnar``   batched query workloads + cross-workload promotion hints
``traverse``   plan/replay primitives (:class:`~repro.query.traverse.RowSource`)
``driver``     batched query driver running a whole query file in one pass
``bench``      production-vs-reference A/B harness (identity + wall-clock)
"""

from repro.query.columnar import ColumnarCache

__all__ = ["ColumnarCache"]
