"""ASCII-whitespace tokenization shared by ops whose DuckDB oracles split
with RE2 ``\\s`` / ``\\S``.

RE2 (DuckDB's regex engine) defines ``\\s`` as the ASCII class
``[\\t\\n\\x0b\\x0c\\r ]`` — Python's ``str.split()`` and un-flagged
``re`` ``\\s`` additionally treat NBSP/NEL/U+2028/etc. as whitespace, which
silently diverges from the SQL oracle on corpora containing exotic
whitespace (the round-3 driver ``repetition_signals`` hash FAIL).  Every op
that mirrors a ``string_split_regex(text, '\\s+')`` or
``regexp_extract_all(text, '\\S+')`` oracle must tokenize through this
module, never through bare ``str.split()``.
"""

from __future__ import annotations

import re

# Exactly RE2's \s (== Python re.ASCII \s).
ASCII_WS_RE = re.compile(r"[\t\n\x0b\x0c\r ]+")


def split_ascii_ws(text: str) -> list[str]:
    """Tokens of ``text`` split on runs of ASCII whitespace, empties dropped
    — elementwise identical to DuckDB
    ``list_filter(string_split_regex(text, '\\s+'), x -> x <> '')`` and to
    ``regexp_extract_all(text, '\\S+')``."""
    return [w for w in ASCII_WS_RE.split(text) if w]


def query_terms(text: str) -> list[str]:
    """Sorted distinct tokens of one query string, ASCII-ws split and
    lowered with Arrow ``utf8_lower`` — the same fold as the corpus side
    (``flat_tokens_arrow(lower_text=True)``) and DuckDB ``lower``.
    Python's ``str.lower`` differs: it folds "İ" to "i̇", Arrow to "i"."""
    import pyarrow as pa
    import pyarrow.compute as pc

    tokens = pa.array(split_ascii_ws(text or ""), pa.string())
    return sorted(set(pc.utf8_lower(tokens).to_pylist()))


def flat_tokens_arrow(col, lower_text: bool = False):
    """Batch tokenization kernel shared by percolate / snippets /
    spell_suggest: RE2 ASCII-ws split of a string column → ``(flat
    tokens pa.Array (chunks combined), doc_of int64 ndarray)`` with
    split-edge empties dropped. ``lower_text`` lowercases BEFORE the
    split (equivalent boundaries — lowercasing never produces ASCII
    whitespace). One copy of the parity-critical kernel, not three."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    col = pc.fill_null(pc.cast(col, pa.large_string()), "")
    if lower_text:
        col = pc.utf8_lower(col)
    toks = pc.split_pattern_regex(col, pattern="[\t\n\x0b\x0c\r ]+")
    flat = pc.list_flatten(toks)
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    doc_of = np.repeat(np.arange(len(lens)), lens)[keep]
    flat = flat.filter(pa.array(keep))
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    return flat, doc_of


def vocab_positions(words, vocab_sorted):
    """For each word (object ndarray) its index in the sorted vocab
    (object ndarray), or −1 — the dictionary-membership step of the
    shared kernel. Safe for an EMPTY vocab (all −1)."""
    import numpy as np

    if len(vocab_sorted) == 0:
        return np.full(len(words), -1, dtype=np.int64)
    pos = np.searchsorted(vocab_sorted, words)
    clip = np.minimum(pos, len(vocab_sorted) - 1)
    return np.where(vocab_sorted[clip] == words, clip, -1).astype(np.int64)
