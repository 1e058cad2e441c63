"""Reverse search (percolation): match every DOCUMENT against a set of
stored QUERIES — the alerting/saved-search primitive (Elasticsearch's
percolator shape; the reference engine has no analogue — beyond-reference).

A query matches a document when ALL its whitespace terms occur as tokens
of the document (conjunctive term containment — the classic alert
semantics; ranking, if needed, is a normal forward search over the
matched set). Terms and doc tokens compare lowercased on ASCII-whitespace
token boundaries (RE2 ``\\S+`` parity — ops/asciiws.py).

Scale: queries are the SMALL side — their term table broadcasts into the
UDF closure (ray.put-free: it is closure state baked once per worker,
like filter_domains' blocklist); docs stream row-local, one distinct
(doc, token) dictionary-encode per batch and one bincount per query —
no shuffle, no driver state. Output rows are (query_id, doc_id) matches
only.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def percolate(
    ds,
    queries: list[tuple[int, str]],
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Match every doc against the stored ``(query_id, query_text)`` list;
    returns ``(query_id, doc_id)`` rows for every query whose terms ALL
    appear in the doc's token set. Queries with no terms match nothing."""
    from .asciiws import flat_tokens_arrow, query_terms, vocab_positions

    qids: list[int] = []
    qterms: list[list[str]] = []
    for qid, text in queries:
        # ASCII-ws split + Arrow case fold (NOT str.split()/str.lower():
        # Unicode-whitespace and "İ" divergences from the SQL oracle)
        terms = query_terms(text)
        if terms:
            qids.append(int(qid))
            qterms.append(terms)
    vocab = sorted({t for ts in qterms for t in ts})
    vocab_arr = np.asarray(vocab, dtype=object)
    # per query: indices into the needed-vocab
    qvec = [
        np.searchsorted(vocab_arr, np.asarray(ts, dtype=object))
        for ts in qterms
    ]

    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        flat, doc_of = flat_tokens_arrow(batch[text_col], lower_text=True)
        # membership of each doc in each needed vocab term: dictionary
        # ids → searchsorted into the query vocab (empty-vocab safe)
        enc = flat.dictionary_encode()
        dwords = np.asarray(enc.dictionary.to_pylist(), dtype=object)
        pos = vocab_positions(dwords, vocab_arr)
        tok_vid = pos[
            enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ]
        hit = tok_vid >= 0
        # presence matrix (docs × needed vocab) as bools
        present = np.zeros((n, len(vocab_arr)), dtype=bool)
        present[doc_of[hit], tok_vid[hit]] = True
        out_q, out_d = [], []
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        for qid, vec in zip(qids, qvec):
            m = present[:, vec].all(axis=1)
            idx = np.flatnonzero(m)
            if len(idx):
                out_q.append(np.full(len(idx), qid, dtype=np.int64))
                out_d.append(ids[idx])
        if out_q:
            qcol = np.concatenate(out_q)
            dcol = np.concatenate(out_d)
        else:
            qcol = np.empty(0, dtype=np.int64)
            dcol = np.empty(0, dtype=np.int64)
        return pa.table(
            {
                "query_id": pa.array(qcol, pa.int64()),
                id_col: pa.array(dcol, pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")
