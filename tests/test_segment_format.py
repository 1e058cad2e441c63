"""Pin the on-disk segment format.

One digest covers every ``postings.bin`` and the rows of every segment's
``terms.parquet`` and ``docmap.parquet`` after a fixed build → merge → two
adds. The constant was computed with the per-list posting encoder (one
``encode_postings`` call per term, now kept in ``tests/oracle.py``), before
the columnar CSR encoder replaced it, so a change of any byte of the v1 blob
layout or of the term dictionary fails here.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow.parquet as pq

from infidex_ray.build import build_index_local, merge_index
from infidex_ray.config import AutoSegmentSetup, EngineConfig
from infidex_ray.engine import Engine

_WORDS = (
    "harbor quantum lantern meadow zephyr cobalt river stone ember willow "
    "falcon orchid café Škoda naïve straße ångström tea a of x"
).split()

FORMAT_DIGEST = "20a8e552d18adb99a8c2006ee05f209a3f04ec4e715cb26be6c83e9676a2bc2b"


def _doc(i: int) -> str:
    n = 3 + (i * 7) % 11
    words = [_WORDS[(i * 13 + j * 5 + j * j) % len(_WORDS)] for j in range(n)]
    if i % 97 == 0:  # a weight past uint8 saturation (the Term.cs df quirk)
        words += ["echo"] * 300
    if i % 280 == 1:  # a rare word: a posting delta past one byte
        words.append("zanzibar")
    if i % 41 == 0:  # long enough to auto-segment into several chunks
        words = words * 40
    return " ".join(words)


def _corpus(n: int, start: int) -> list[tuple[int, str]]:
    return [(start + i, _doc(start + i)) for i in range(n)]


def _segment_digest(index_dir: str) -> str:
    h = hashlib.sha256()
    root = os.path.join(index_dir, "segments")
    for name in sorted(os.listdir(root)):
        seg = os.path.join(root, name)
        h.update(name.encode())
        with open(os.path.join(seg, "postings.bin"), "rb") as f:
            h.update(f.read())
        for table in ("terms.parquet", "docmap.parquet"):
            t = pq.read_table(os.path.join(seg, table))
            h.update(str(t.schema.types).encode())
            for col in t.column_names:
                h.update(col.encode())
                h.update(repr(t[col].to_pylist()).encode())
    return h.hexdigest()


def test_segment_files_match_pinned_digest(tmp_path):
    cfg = EngineConfig(auto_segment=AutoSegmentSetup(200, 0.2))
    built, merged = str(tmp_path / "built"), str(tmp_path / "merged")
    build_index_local(_corpus(400, 0), built, cfg, n_segments=3)
    merge_index(built, merged, use_ray=False, target_segments=2)
    eng = Engine.load(merged, cfg)
    eng.add_documents(_corpus(10, 5000))
    eng.add_documents(_corpus(12, 6000))
    assert _segment_digest(merged) == FORMAT_DIGEST
