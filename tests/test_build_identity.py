"""Build-identity golden: every ``paper-build`` structure, bit for bit.

Each structure of the paper's experiment is built by single inserts
from 2 000 records (seed 0) at the paper's 512-byte pages and at 8 KiB
pages, where R-tree splits see 410 entries.  The golden pins the sha256
of the canonical structure snapshot and the charged ``AccessStats`` of
the build, so any change to the insert/split geometry that alters a
single decision fails here.

Regenerate (only for an intentional structural change, and say why)::

    PYTHONPATH=src python tests/test_build_identity.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.testbed import standard_pam_factories, standard_sam_factories
from repro.obs.structure import snapshot_to_json
from repro.sam.clipping import ClippingSAM
from repro.sam.rplustree import RPlusTree
from repro.sam.rtree import RTree
from repro.storage.factory import make_store
from repro.workloads.distributions import generate_point_file
from repro.workloads.rect_distributions import generate_rect_file

GOLDEN = Path(__file__).parent / "goldens" / "build_snapshots.json"
RECORDS = 2_000
SEED = 0
PAGE_SIZES = (512, 8192)


def _factories() -> dict[str, tuple[str, object]]:
    """``name -> (kind, factory)`` of every paper-build structure."""
    out = {f"PAM/{n}": ("pam", f) for n, f in standard_pam_factories().items()}
    sams = {
        **standard_sam_factories(),
        "R+": lambda store, dims=2: RPlusTree(store, dims),
        "CLIP": lambda store, dims=2: ClippingSAM(store, dims),
        "R-Tree/greene": lambda store, dims=2: RTree(
            store, dims, split_policy="greene"
        ),
        "R-Tree/margin": lambda store, dims=2: RTree(
            store, dims, split_policy="margin"
        ),
    }
    out.update({f"SAM/{n}": ("sam", f) for n, f in sams.items()})
    return out


def _digest(method) -> dict:
    text = snapshot_to_json(method.snapshot())
    return {
        "snapshot_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "stats": method.store.stats.as_dict(),
    }


def build_entries(page_size: int) -> dict[str, dict]:
    """Golden entries of every structure at ``page_size``."""
    data = {
        "pam": generate_point_file("diagonal", RECORDS, seed=SEED),
        "sam": generate_rect_file("uniform_small", RECORDS, seed=SEED),
    }
    out: dict[str, dict] = {}
    for name, (kind, factory) in _factories().items():
        method = factory(make_store(page_size, backend="sim"))
        for rid, item in enumerate(data[kind]):
            method.insert(item, rid)
        out[name] = _digest(method)
        if name == "PAM/BUDDY":
            method.pack()
            out["PAM/BUDDY+"] = _digest(method)
    return out


@pytest.mark.parametrize("page_size", PAGE_SIZES)
def test_builds_match_golden(page_size):
    golden = json.loads(GOLDEN.read_text())[str(page_size)]
    got = build_entries(page_size)
    assert sorted(got) == sorted(golden)
    drifted = [name for name in golden if got[name] != golden[name]]
    assert not drifted, f"structures drifted at {page_size} B pages: {drifted}"


if __name__ == "__main__":
    doc = {str(size): build_entries(size) for size in PAGE_SIZES}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
