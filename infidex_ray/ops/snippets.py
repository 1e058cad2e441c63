"""Snippet extraction (hit highlighting): for every document matching a
query, the best W-token window — the search-results preview feature (the
reference engine returns whole documents; beyond-reference).

Window rule (deterministic, SQL-mirrorable): tokens are ASCII-whitespace
tokens of the RAW text (RE2 ``\\S+`` parity); a window of ``window``
consecutive tokens scores the number of DISTINCT query terms it contains
(case-folded exact token match); the winning window is the max score with
the SMALLEST start; docs shorter than the window are one whole-doc
window. Only docs with score ≥ 1 emit. Snippet text = the window's
tokens joined with single spaces (whitespace runs collapse — previews,
not byte-faithful quotes).

Scale: stateless row-local map_batches; per batch one Arrow split +
dictionary-encode, then Q cumsum passes (Q = distinct query terms) over
the flat token stream — per-window distinct-term counts come from prefix
sums, never a per-window loop.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .asciiws import flat_tokens_arrow, query_terms, vocab_positions

_WS_PAT = "[\t\n\x0b\x0c\r ]+"


def snippet_extract(
    ds,
    query: str,
    window: int = 8,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Best-window snippets for ``query`` over every matching doc.
    Returns ``(id_col, start_token, n_terms_matched, snippet)`` —
    start_token is 1-based."""
    import pyarrow.compute as pc

    terms = query_terms(query)
    if not terms:
        raise ValueError("query must contain at least one token")
    if window < 1:
        raise ValueError("window must be >= 1")
    terms_arr = np.asarray(terms, dtype=object)

    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        flat, doc_of = flat_tokens_arrow(batch[text_col])
        ntok = np.bincount(doc_of, minlength=n)
        starts = np.concatenate([[0], np.cumsum(ntok)[:-1]])
        F = len(doc_of)
        empty = pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "start_token": pa.array([], pa.int64()),
                "n_terms_matched": pa.array([], pa.int64()),
                "snippet": pa.array([], pa.large_string()),
            }
        )
        if F == 0:
            return empty
        lower = pc.utf8_lower(flat)
        enc = lower.dictionary_encode()
        dwords = np.asarray(enc.dictionary.to_pylist(), dtype=object)
        tok_term = vocab_positions(dwords, terms_arr)[
            enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ]

        # per-doc effective window (short docs: one whole-doc window) and
        # window starts in the FLAT stream
        w_eff = np.minimum(ntok, window)
        n_win = np.where(ntok > 0, ntok - w_eff + 1, 0)
        win_doc = np.repeat(np.arange(n), n_win)
        win_local = (
            np.arange(len(win_doc))
            - np.repeat(np.concatenate([[0], np.cumsum(n_win)[:-1]]), n_win)
        )
        win_start = starts[win_doc] + win_local  # flat index of window start
        win_w = w_eff[win_doc]

        score = np.zeros(len(win_doc), dtype=np.int64)
        for ti in range(len(terms)):
            is_t = (tok_term == ti).astype(np.int64)
            cum = np.concatenate([[0], np.cumsum(is_t)])
            # term present in [s, s+w): prefix-count difference > 0
            score += (cum[win_start + win_w] - cum[win_start]) > 0

        # best window per doc: max score, tie -> smallest start
        if len(win_doc) == 0:
            return empty
        order = np.lexsort((win_local, -score, win_doc))
        first = np.flatnonzero(
            np.r_[True, win_doc[order][1:] != win_doc[order][:-1]]
        )
        best = order[first]
        hit = score[best] >= 1
        best = best[hit]
        if len(best) == 0:
            return empty
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        # snippet assembly: join window tokens (few rows survive; tokens
        # sliced from the flat Arrow array)
        snippets = []
        for b in best:
            s = int(win_start[b])
            snippets.append(
                " ".join(flat.slice(s, int(win_w[b])).to_pylist())
            )
        return pa.table(
            {
                id_col: pa.array(ids[win_doc[best]], pa.int64()),
                "start_token": pa.array(win_local[best] + 1, pa.int64()),
                "n_terms_matched": pa.array(score[best], pa.int64()),
                "snippet": pa.array(snippets, pa.large_string()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")
