"""Seeded inputs. Every function is a pure function of its arguments, so the
same seed gives byte-identical corpora, query logs and add batches."""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from infidex_ray.datagen import _DIACRITIC_WORDS, _VOCAB, make_webpages

# 1000 pages auto-segment into ~3.6k chunks: small enough that set-up can be
# repeated within a run, while query cost is dominated by the fixed-depth
# coverage stage (measured: the same ~150 ms p50 at 1000 and 3000 pages).
# The corpus is written as INPUT_FILES equal Parquet files and built with
# repartition=False, so the segment layout depends only on the page count,
# never on Ray's scheduling.
CORPUS_PAGES = 1000
INPUT_FILES = 4
SHAPES = ("two_word", "three_word", "typo", "short", "selective", "single")
_NEW_QUERY_TRIES = 200

# The batch_zipf query log: BATCH_LOG queries drawn from BATCH_POOL distinct
# ones with Zipf-Mandelbrot weights 1 / (rank + ZIPF_Q) ** ZIPF_S, which
# repeats ~85 % of the log. These are a chosen stress point for duplicate
# collapse, not a measured traffic mix: query logs are Zipf-like, but the
# exponent, the offset and the repeat share here are not taken from any log.
# A dedup gain on batch_zipf scales with the repeat share, which is reported
# as ops.batchsearch.dup_share. The offset keeps the job's cost from hanging
# on a few queries: with plain Zipf(1.1) the top query is ~20 % of the log,
# and stage-1 cost per query ranges 0.06-9 ms, so which query a seed puts on
# top moved the whole log's cost by an IQR/median of ~0.17 across seeds; with
# the offset the top query is ~3 % and the spread ~0.06 (per-query costs
# measured in-process, 24 seeds). The log is long enough that a job's warm
# part (~1.6 s) dwarfs the 0.1 s tick at which Ray Data collects finished
# blocks.
BATCH_POOL = 300
BATCH_LOG = 1800
ZIPF_S = 1.1
ZIPF_Q = 10

_WORDS = sorted(set(_VOCAB))
_RARE_WORDS = [w.lower() for w in _DIACRITIC_WORDS]


def rng_seed(seed: int, stream: str) -> int:
    """A 32-bit NumPy seed for one input stream of ``--seed``. Any integer
    seed works (negative or above 2**32), and the streams are independent."""
    return int.from_bytes(hashlib.sha256(f"{seed}/{stream}".encode()).digest()[:4], "little")


def corpus(seed: int) -> pa.Table:
    return make_webpages(CORPUS_PAGES, seed=rng_seed(seed, "corpus"))


def write_corpus(table: pa.Table, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    per_file = -(-table.num_rows // INPUT_FILES)
    for i in range(INPUT_FILES):
        pq.write_table(
            table.slice(i * per_file, per_file),
            os.path.join(out_dir, f"part-{i:02d}.parquet"),
        )


def _typo(word: str, rng: np.random.RandomState) -> str:
    """One edit (substitute, delete or swap adjacent letters): LD 1."""
    i = int(rng.randint(1, len(word) - 1))
    kind = int(rng.randint(3))
    if kind == 0:
        c = "abcdefghijklmnopqrstuvwxyz"[int(rng.randint(26))]
        if c == word[i]:
            c = "z" if word[i] != "z" else "q"
        return word[:i] + c + word[i + 1:]
    if kind == 1:
        return word[:i] + word[i + 1:]
    return word[: i - 1] + word[i] + word[i - 1] + word[i + 1:]


class _WordStream:
    """Words in seeded permutations of the vocabulary, one after another.
    Query cost depends strongly on the words, and a run sends about a
    hundred of them: drawing without replacement gives every seed nearly the
    same word mix, so seeds differ in order and pairing, not in cost mix."""

    def __init__(self, words: list[str], rng: np.random.RandomState):
        self.words, self.rng, self.queue = words, rng, []

    def __call__(self) -> str:
        if not self.queue:
            self.queue = [self.words[i] for i in self.rng.permutation(len(self.words))]
        return self.queue.pop()


def query_pool(seed: int, n: int) -> list[tuple[str, str]]:
    """``n`` (shape, query) pairs in round-robin shape order, so any prefix
    of the pool has the same shape mix to within one query. The six shapes
    in equal parts are a chosen coverage mix, one per query path, not a
    measured traffic mix. A shape's queries are distinct until its space is
    used up (70 single words, 140 short prefixes, so after ~420 queries);
    then that shape starts a new round over the same space."""
    rng = np.random.RandomState(rng_seed(seed, "queries"))
    word, rare = _WordStream(_WORDS, rng), _WordStream(_RARE_WORDS, rng)
    make = {
        "two_word": lambda: f"{word()} {word()}",
        "three_word": lambda: f"{word()} {word()} {word()}",
        "typo": lambda: f"{_typo(word(), rng)} {word()}",
        "short": lambda: word()[: int(rng.randint(1, 4))],
        "selective": lambda: f"{rare()} {word()}",
        "single": word,
    }
    seen: dict[str, set[str]] = {s: set() for s in SHAPES}
    taken: set[str] = set()
    out: list[tuple[str, str]] = []
    for i in range(n):
        shape = SHAPES[i % len(SHAPES)]
        for _ in range(_NEW_QUERY_TRIES):
            q = make[shape]()
            if q not in taken:
                break
        else:  # the shape's space is used up: a new round
            taken -= seen[shape]
            seen[shape].clear()
        seen[shape].add(q)
        taken.add(q)
        out.append((shape, q))
    return out


def zipf_log(seed: int, length: int) -> list[str]:
    """A query log of ``length`` drawn from ``BATCH_POOL`` distinct queries,
    the one at rank r with weight 1 / (r + ``ZIPF_Q``) ** ``ZIPF_S``. The pool
    keeps its round-robin shape order, so every seed gives each rank, and so
    each frequency, a query of the same shape."""
    pool = [q for _, q in query_pool(rng_seed(seed, "batch_pool"), BATCH_POOL)]
    rng = np.random.RandomState(rng_seed(seed, "zipf"))
    p = 1.0 / (np.arange(1, len(pool) + 1) + ZIPF_Q) ** ZIPF_S
    draws = rng.choice(len(pool), size=length, p=p / p.sum())
    return [pool[i] for i in draws]


def add_batch(seed: int, seq: int, pages: int) -> tuple[str, int, list[tuple[int, str]]]:
    """Add batch ``seq``: (nonce word, key of the page holding it, docs).
    Corpus keys are 64-bit URL hashes, so these small keys cannot collide
    with them in practice."""
    rng = np.random.RandomState(rng_seed(seed, f"add{seq}"))
    nonce = f"zq{seed % 997:03d}n{seq:04d}x"
    base = 9_000_000_000 + seq * 1000
    docs = []
    for j in range(pages):
        words = [_WORDS[int(i)] for i in rng.randint(0, len(_WORDS), 20 + int(rng.randint(60)))]
        if j == 0:
            words.insert(int(rng.randint(len(words))), nonce)
        docs.append((base + j, " ".join(words)))
    return nonce, base, docs


def planted_corpus(seed: int, near_share: float = 0.1, exact_share: float = 0.02):
    """The corpus as (doc_id, text) plus near-duplicate and exact copies.

    A near copy replaces one word in 30 (at least one) of a page, which keeps
    its word-3-gram Jaccard well above 0.5. Returns (table, near pairs, exact
    pairs), each pair as (original id, copy id)."""
    texts = corpus(seed)["text"].to_pylist()
    n = len(texts)
    rng = np.random.RandomState(rng_seed(seed, "planted"))
    picks = rng.choice(n, size=int(n * (near_share + exact_share)), replace=False)
    n_near = int(n * near_share)
    near, exact = [], []
    for k, src in enumerate(picks.tolist()):
        words = texts[src].split(" ")
        if k < n_near:
            for pos in rng.choice(len(words), size=max(1, len(words) // 30), replace=False):
                words[int(pos)] = _WORDS[int(rng.randint(len(_WORDS)))] + "x"
            near.append((src, len(texts)))
        else:
            exact.append((src, len(texts)))
        texts.append(" ".join(words))
    table = pa.table({"doc_id": pa.array(np.arange(len(texts)), pa.int64()), "text": texts})
    return table, near, exact


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def layout_digest(index_dir: str) -> str:
    """Digest of (segment name, doc count) over the index manifest."""
    with open(os.path.join(index_dir, "manifest.json")) as f:
        manifest = json.load(f)
    return digest([[s["name"], s["n_docs"]] for s in manifest["segments"]])
