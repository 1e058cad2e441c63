"""Distributed query serving: posting-list-holding shard actors + driver.

The north-star serving model (SURVEY §3.2 "Ray query shape"): the index's
doc-range segments are split into contiguous shards, each owned by one
``IndexShardActor`` that loads its segments ONCE (postings via np.memmap,
docmap, word-matcher tables, doc-prep caches — all per-actor state built in
``__init__``/first use). Queries fan out from the driver:

* stage 1: the two-phase tier protocol (phase A counts → global decide →
  phase B scoring) — identical math to the in-process engine, so results are
  rank-identical regardless of shard count. A single-level plan runs
  ``phase_b`` alone; any other plan runs one ``phase_ab`` round (counts plus
  speculative scoring at a guessed level) and a corrective ``phase_b`` round
  only when the global decision differs from the guess;
* coverage: one ``cov_fused`` round (``pipeline.coverage_shard``:
  WordMatcher split + candidate scoring per shard). Shard 0 scores the
  unique candidates the global cap is certain to keep as kept jobs, and
  every shard a speculative prefix after them; a ``run_jobs`` top-up, with
  the k-th best rank tuple of every shard's kept results as its pruning
  floor, covers only the allowed unique candidates still left. When only
  the other shards' stage-1 docs can complete shard 0's k-th best, shard 0
  leaves all its unique candidates to that top-up. The driver half is
  ``Engine._coverage_stage``, shared with the in-process engine; this
  class supplies only the fan-outs. Every doc's jobs land on the shard
  owning its segment, preserving the reference's memo semantics;
* short queries: per-shard scans with two small synchronization points
  (fuzzy-fallback gate, global max raw score); per-query scratch state stays
  inside the actor so only small aggregates cross the wire.

On a multi-node cluster each actor holds ~(index_size / num_shards); the
driver traffic per query is O(top_k + unique query terms), independent of
corpus size.
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np
import ray

from .. import vocabstats
from ..config import EngineConfig
from ..engine import Engine, config_from_manifest
from . import pipeline as qp
from . import shortquery as sq
from . import stage1 as s1


def _deadline(budget_s: float | None) -> float | None:
    """Shard-side deadline from the remaining query budget at dispatch
    (monotonic clocks are per-process, so the driver ships a relative
    budget, not an absolute deadline)."""
    return None if budget_s is None else time.monotonic() + budget_s


def _budget_s(deadline: float | None) -> float | None:
    if deadline is None:
        return None
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise qp.DeadlineExceeded
    return budget


@ray.remote
class IndexShardActor:
    """Owns a contiguous slice of index segments; all per-segment state
    (mmap'd postings, docmap, word tables, LRU fuzzy cache) lives here."""

    def __init__(self, index_dir: str, segment_indices: list[int], cfg: EngineConfig):
        self.engine = Engine.load(index_dir, cfg, segment_indices=segment_indices)
        self._sq_state: dict[str, tuple[dict, set]] = {}

    def set_deleted(self, keys) -> None:
        self.engine.deleted = set(keys)

    def field_rows(self, keys) -> dict:
        """Stored field rows for the subset of ``keys`` this shard owns
        (Query-API post-processing: filter/boost/sort/facet inputs)."""
        out = {}
        for k in keys:
            row = self.engine._field_row(int(k))
            if row:
                out[int(k)] = row
        return out

    def warm(self) -> int:
        """Pre-build word-matcher tables and coverage token tables
        (actor-init cost paid once, in parallel across the pool)."""
        cfg = self.engine.cfg
        for rec in self.engine.records.values():
            if cfg.enable_word_matcher:  # each property builds at first use
                rec.word_matcher
            if cfg.enable_coverage:
                rec.token_table
        return self.engine.total_docs

    # ---- stage 1 ------------------------------------------------------
    def fuzzy_df_batch(self, texts: list[str]) -> list[int]:
        return self.engine._fuzzy_global_df_batch(texts)

    def phase_a(self, plan) -> list[int]:
        return s1.sum_counts([r.stage1.phase_a(plan) for r in self.engine.records.values()]).tolist()

    def phase_b(self, plan, level: int, top_k: int, avgdl: float):
        per = [r.stage1.phase_b(plan, level, top_k, avgdl) for r in self.engine.records.values()]
        # packed columns: the driver merges 16 shards' results per query —
        # numpy columns cross the wire ~9x cheaper than Python tuples
        return s1.pack_topk(per, top_k)

    def phase_ab(self, plan, packed):
        """Fused cardinality + speculative scoring round: phase_a counts AND
        phase_b results at the driver's guessed level in ONE actor RTT. The
        driver uses the speculative results only when the globally decided
        level equals the guess (else it issues a corrective phase_b round),
        so ranks are identical to the two-round protocol by construction.
        Both phases share the per-plan memo, so a fused call costs the same
        compute as the two separate calls.

        ``packed`` = (guess_level, top_k, avgdl) as ONE tuple — Ray pays a
        fixed per-ARGUMENT serialization cost on every ``.remote()``
        (~0.05 ms each, profiled), so the scalar args ride in one slot;
        ``plan`` stays top-level because an ObjectRef only auto-derefs
        there."""
        guess_level, top_k, avgdl = packed
        counts = self.phase_a(plan)
        per = self.phase_b(plan, guess_level, top_k, avgdl)
        return counts, per

    # ---- coverage -----------------------------------------------------
    def cov_fused(self, ctx, packed):
        """This shard's coverage round, ``pipeline.coverage_shard``: the
        WordMatcher split and candidate scoring in ONE actor RTT (on a
        loaded host each 16-way fan-out costs 20-40 ms, so the round count
        IS the latency floor).

        ``packed`` = (s1_jobs, cap, spec_budget, sure, budget_s, top_k) as
        ONE tuple (fixed per-argument ``.remote()`` serialization cost — see
        phase_ab). Returns ("timeout",) when the budget expires mid-scan."""
        s1_jobs, cap, spec_budget, sure, budget_s, top_k = packed
        try:
            return qp.coverage_shard(
                self.engine, ctx, s1_jobs, cap, spec_budget, sure,
                _deadline(budget_s), top_k,
            )
        except qp.DeadlineExceeded:
            return ("timeout",)

    def prescreen_keys(self, words, keys):
        """Shard-local posting-union ∩ candidates for the lexical prescreen."""
        return qp.segment_prescreen_keys(self.engine.segments, words, keys)

    def run_jobs(self, ctx, jobs, best_chunk, packed):
        """Top-up scoring of ``jobs`` with one memo, pruned for the top k.
        ``best_chunk`` holds the best chunks of the jobs' keys only;
        ``packed`` = (budget_s, top_k, theta0), ``theta0`` the driver's
        k-th best rank tuple (``pipeline.kth_best``). Returns ("timeout", None)
        instead of raising so the sentinel crosses the actor boundary
        cleanly."""
        budget_s, top_k, theta0 = packed
        try:
            return qp.process_candidates(
                self.engine, ctx, jobs, best_chunk, _deadline(budget_s),
                (top_k, len(jobs), theta0),
            )
        except qp.DeadlineExceeded:
            return "timeout", None

    # ---- short queries ------------------------------------------------
    def short_doc_count(self, q: str) -> int:
        return sum(s.count_word_start_docs(q) for s in self.engine.shorts)

    def single_char(self, ch: str, top_k: int):
        # per-shard top-k (champion lists when k ≤ 64) — the global top-k is
        # contained in the union of per-shard top-ks
        return sq.run_single_char(self.engine.shorts, ch, top_k)

    def sq_phase1(self, qid: str, patterns, q: str) -> tuple[int, int, int | None]:
        """Fused phase 1: per-segment prefix passes PLUS a speculative local
        fuzzy pass. The reference's fuzzy-fallback gate is on the GLOBAL
        matched count (< FUZZY_FALLBACK_DOC_LIMIT, ShortQuery :221), and
        global < LIMIT implies every local count < LIMIT — so speculating
        whenever the LOCAL count is under the limit covers every case where
        the driver will decide to use fuzzy. One actor RTT replaces the old
        sq_prefix + sq_fuzzy rounds; results are identical by construction
        (the prefix snapshot is used when the global gate says no-fuzzy).

        Returns (matched doc count, prefix max score, fuzzy max or None).

        An engine's queries run one at a time, so a state left under the
        same engine qid prefix belongs to an earlier query that failed
        between the rounds and can no longer reach ``sq_final``: it is
        dropped here."""
        prefix = qid.rpartition("-")[0]
        for stale in [k for k in self._sq_state if k.rpartition("-")[0] == prefix]:
            del self._sq_state[stale]
        states = [s.prefix_pass(patterns, q) for s in self.engine.shorts]
        n = sum(len(ds) for ds, _ in states)
        pre_max = max((max(ds.values(), default=0) for ds, _ in states), default=0)
        fuzzy_states = None
        fuzzy_max = None
        if n < sq.FUZZY_FALLBACK_DOC_LIMIT:
            fuzzy_states = [(dict(ds), set(fp)) for ds, fp in states]
            for s, (ds, fp) in zip(self.engine.shorts, fuzzy_states):
                s.fuzzy_pass(patterns, q, ds, fp)
            fuzzy_max = max(
                (max(ds.values(), default=0) for ds, _ in fuzzy_states), default=0
            )
        self._sq_state[qid] = (states, fuzzy_states)
        return n, pre_max, fuzzy_max

    def sq_final(self, qid: str, use_fuzzy: bool, global_max: int, q: str, query_tokens):
        states, fuzzy_states = self._sq_state.pop(qid)
        if use_fuzzy:
            states = fuzzy_states
        out = []
        for s, (ds, fp) in zip(self.engine.shorts, states):
            out.extend(s.final_entries(ds, fp, global_max, q, query_tokens))
        return out


class DistributedEngine(Engine):
    """Driver-side engine: holds only global stats + the actor pool. All
    routing/decision logic is inherited from ``Engine``; the per-segment
    primitives fan out to shards."""

    def __init__(self, index_dir, cfg, df_lookup, word_df, total_docs, avgdl, actors, shard_of_seg):
        super().__init__(index_dir, cfg, [], df_lookup, word_df, total_docs, avgdl)
        self.actors = actors
        self.shard_of_seg = shard_of_seg
        # qid namespace unique per engine: several driver-side engines may
        # share one actor pool (concurrent serving threads), and the actors'
        # per-qid scratch must not collide across them
        import uuid as _uuid

        self._qid_prefix = _uuid.uuid4().hex[:8]
        self._qid = itertools.count()
        # (plan_key, top_k) → last globally decided candidate level: the
        # phase_ab guess for a repeat plan; a cold plan guesses the session's
        # last decided level (every decided level is ≥ 1)
        self._level_memo: dict = {}
        self._default_level = 1

    def shutdown(self) -> None:
        """Tear down the shard actor pool (SearchEngine.Dispose parity for
        the distributed engine). Idempotent; the index on disk is untouched
        — ``connect`` again to resume serving."""
        import ray

        for a in self.actors:
            try:
                ray.kill(a)
            except Exception:
                pass
        self.actors = []

    @classmethod
    def connect(
        cls,
        index_dir: str,
        num_shards: int | None = None,
        cfg: EngineConfig | None = None,
        warm: bool = True,
        num_cpus_per_actor: float = 1.0,
    ) -> "DistributedEngine":
        import json

        with open(os.path.join(index_dir, "manifest.json")) as f:
            manifest = json.load(f)
        if cfg is None:
            cfg = config_from_manifest(manifest)
        n_segments = len(manifest["segments"])
        if num_shards is None:
            num_shards = max(1, min(n_segments, int(ray.cluster_resources().get("CPU", 4)) - 1))
        num_shards = min(num_shards, n_segments)
        df_lookup = vocabstats.open_lookup(index_dir, "term", manifest)
        word_df = vocabstats.open_lookup(index_dir, "word", manifest)
        slices = np.array_split(np.arange(n_segments), num_shards)
        # max_restarts=-1: a shard killed by node loss / OOM is transparently
        # restarted and reloads its slice (incl. persisted tombstones) from
        # the index dir in __init__ — all cross-RTT state is per-query, so
        # the driver just retries the whole query once (see search_ex)
        actors = [
            IndexShardActor.options(
                num_cpus=num_cpus_per_actor, max_restarts=-1
            ).remote(index_dir, s.tolist(), cfg)
            for s in slices
            if len(s)
        ]
        shard_of_seg = {}
        for ai, s in enumerate([s for s in slices if len(s)]):
            for si in s.tolist():
                shard_of_seg[si] = ai
        stats = manifest["stats"]
        eng = cls(
            index_dir, cfg, df_lookup, word_df, stats["total_docs"],
            stats["avg_doc_len"], actors, shard_of_seg,
        )
        if warm:
            # a bounded wait turns "actors can never schedule" (cluster has
            # fewer free CPUs than num_shards × num_cpus_per_actor — e.g. a
            # leaked engine still holding its pool) into a diagnosable error
            # instead of a silent driver hang
            timeout_s = float(os.environ.get("INFIDEX_WARM_TIMEOUT_S", "600"))
            try:
                ray.get([a.warm.remote() for a in actors], timeout=timeout_s)
            except ray.exceptions.GetTimeoutError:
                for a in actors:
                    try:
                        ray.kill(a)
                    except Exception:
                        pass
                avail = ray.available_resources().get("CPU", 0)
                raise RuntimeError(
                    f"DistributedEngine.connect: {len(actors)} shard actors "
                    f"did not warm within {timeout_s:.0f}s — the cluster has "
                    f"{avail} free CPUs for {len(actors)} × "
                    f"{num_cpus_per_actor} CPU actors. Lower num_shards / "
                    "num_cpus_per_actor, shut down other engines, or raise "
                    "INFIDEX_WARM_TIMEOUT_S."
                ) from None
        return eng

    # ---- overridden primitives ---------------------------------------
    def _fuzzy_global_df_batch(self, texts: list[str]) -> list[int]:
        """All unknown terms probed in ONE fan-out round (per-term rounds
        made a two-typo query pay two sequential ~30 ms RTTs). The coverage
        ctx prep overlaps with this RTT too — typo queries reach the stage-1
        fan-out with the ctx already prepared.

        Warm repeats skip the round entirely: the index is immutable for
        the lifetime of this engine, so per-term fuzzy dfs are cached on
        the driver (bounded LRU-ish) — a repeated typo query goes straight
        to the stage-1 fan-out (2 RTTs, same as a clean query)."""
        cache = getattr(self, "_fuzzy_df_cache", None)
        if cache is None:
            cache = self._fuzzy_df_cache = {}
        need = [t for t in texts if t not in cache]
        if need:
            refs = [a.fuzzy_df_batch.remote(need) for a in self.actors]
            self._overlap_ctx_prep()
            parts = ray.get(refs)
            if len(cache) >= 4096:  # bounded: drop entries NOT in this
                # query (evicting a term `texts` already holds would
                # KeyError on the read below)
                keep = set(texts)
                for k in list(itertools.islice(
                    (k for k in cache if k not in keep), len(need)
                )):
                    cache.pop(k, None)
            for i, t in enumerate(need):
                cache[t] = sum(p[i] for p in parts)
        return [cache[t] for t in texts]

    def _pre_stage1(self, q: str, coverage_likely: bool) -> None:
        """Record the coverage query so ``stage1`` can prepare its context
        while the stage-1 fan-out is in flight."""
        self._cov_q = q if coverage_likely else None

    def stage1(self, norm_lower_query: str, top_k: int):
        plan = self.plan(norm_lower_query, self._fuzzy_global_df_batch)
        if plan is None:
            return []
        # plans pickle to ~1-2 KB / ~0.2 ms (profiled on the bench panel):
        # inlining into the task args costs ~3 ms/query across 16 actors,
        # while a ray.put measured ~9 ms median on the critical path — so
        # small plans are inlined and only unusually large ones (many fuzzy
        # expansions) go through the object store once
        plan_ref = plan if plan.approx_nbytes() < 64_000 else ray.put(plan)
        if plan.n_levels == 1:
            # single candidate level → decide_level is constant 1; skip the
            # phase-A cardinality fan-out entirely (one fewer RTT)
            refs = [
                a.phase_b.remote(plan_ref, 1, top_k, self.avgdl)
                for a in self.actors
            ]
            self._overlap_ctx_prep()
            per = ray.get(refs)
            return s1.merge_packed(per, top_k)
        # fused counts + speculative scoring at a guessed level in ONE round;
        # the speculative results are used only when the global decision
        # matches the guess, so ranks are identical to the two-round protocol
        # (corrective phase_b round on a miss). A cold plan guesses the
        # session's last decided level, clamped to the plan — decided levels
        # are heavily skewed in practice, so the guess usually holds
        memo_key = (s1.SegmentStage1._plan_key(plan), top_k)
        guess = self._level_memo.get(memo_key)
        if guess is None:
            guess = min(self._default_level, plan.n_levels)
        refs = [
            a.phase_ab.remote(plan_ref, (guess, top_k, self.avgdl))
            for a in self.actors
        ]
        self._overlap_ctx_prep()
        outs = ray.get(refs)
        total = s1.sum_counts([o[0] for o in outs])
        if len(total) == 0:
            return []
        level = s1.decide_level(plan, total, top_k)
        if len(self._level_memo) >= 256:  # bounded: drop an arbitrary entry
            self._level_memo.pop(next(iter(self._level_memo)))
        self._level_memo[memo_key] = level
        self._default_level = level
        if level == guess:
            per = [o[1] for o in outs]
        else:
            per = ray.get(
                [
                    a.phase_b.remote(plan_ref, level, top_k, self.avgdl)
                    for a in self.actors
                ]
            )
        return s1.merge_packed(per, top_k)

    # unique candidates each shard scores speculatively past its certain
    # prefix: shard 0's certain prefix undercounts its allowed share by the
    # other shards' stage-1 jobs that the word matcher does not find, and
    # other shards' shares are not known before the round. Speculation
    # saves the top-up round trip when it lands, but most of it is thrown
    # away: shard 0's unique list usually fills the whole cap, so the
    # driver discards the other shards' speculative results. That work runs
    # beside shard 0's, off the query's critical path when each shard has a
    # CPU of its own. No shard speculates when shard 0 waits for the
    # cross-shard floor (``Engine._coverage_stage``)
    SPEC_UNIQUE_BUDGET = 64

    def _shard_of(self, si: int) -> int:
        return self.shard_of_seg[si]

    def _ctx_for(self, q: str):
        """Coverage query context, cached for the current query. Depends
        only on (q, global stats) — NOT on stage-1 results — so ``stage1``
        builds it while the phase fan-out is in flight, taking ctx prep off
        the critical path. It pickles to a few hundred bytes, so it rides
        inline in each coverage call (an object-store put costs more than
        the bytes it saves)."""
        hit = getattr(self, "_ctx_cache", None)
        if hit is None or hit[0] != q:
            hit = self._ctx_cache = (q, super()._ctx_for(q))
        return hit[1]

    def _overlap_ctx_prep(self) -> None:
        """Called by ``stage1`` right after submitting a fan-out round (the
        driver would otherwise idle inside ray.get)."""
        q = getattr(self, "_cov_q", None)
        if q is not None:
            self._ctx_for(q)

    def _coverage_round(self, ctx, s1_jobs, cap, spec_budget, sure, deadline, top_k):
        budget_s = _budget_s(deadline)
        outs = ray.get(
            [
                a.cov_fused.remote(
                    ctx,
                    (s1_jobs.get(ai, []), cap, spec_budget, sure if ai == 0 else 0,
                     budget_s, top_k),
                )
                for ai, a in enumerate(self.actors)
            ]
        )
        if any(o[0] == "timeout" for o in outs):
            raise qp.DeadlineExceeded
        return outs

    def _coverage_top_up(self, ctx, top_up, deadline, top_k, theta0):
        budget_s = _budget_s(deadline)
        outs = ray.get(
            [
                self.actors[ai].run_jobs.remote(ctx, jobs, best_chunk, (budget_s, top_k, theta0))
                for ai, (jobs, best_chunk) in top_up.items()
            ]
        )
        if any(res == "timeout" for res, _m in outs):
            raise qp.DeadlineExceeded
        return outs

    def _prescreen_keys(self, words, keys) -> set[int]:
        return set().union(
            *ray.get([a.prescreen_keys.remote(words, keys) for a in self.actors])
        )

    def _run_single_char(self, q: str, top_k: int):
        entries = []
        for part in ray.get([a.single_char.remote(q, top_k) for a in self.actors]):
            entries.extend(part)
        entries.sort(key=lambda e: (-e[0], -e[2], e[1]))
        return entries[:top_k]

    def _run_short_query(self, q: str):
        from ..analyzer import _word_splitter

        qid = f"{self._qid_prefix}-{next(self._qid)}"
        patterns = sq.build_prefix_patterns(
            q, self.cfg.min_index_size, self.cfg.start_pad_size
        )
        phase1 = ray.get([a.sq_phase1.remote(qid, patterns, q) for a in self.actors])
        total_matched = sum(n for n, _pm, _fm in phase1)
        use_fuzzy = total_matched < sq.FUZZY_FALLBACK_DOC_LIMIT
        # global < LIMIT ⇒ every local count < LIMIT ⇒ every shard speculated
        # the fuzzy pass in phase 1 — no second fuzzy round needed
        maxes = [fm if use_fuzzy else pm for _n, pm, fm in phase1]
        global_max = max(maxes, default=0)
        splitter = _word_splitter(self.cfg.delimiters)
        query_tokens = [w for w in splitter.split(q) if w]
        entries = []
        for part in ray.get(
            [
                a.sq_final.remote(qid, use_fuzzy, global_max, q, query_tokens)
                for a in self.actors
            ]
        ):
            entries.extend(part)
        entries.sort(key=lambda e: (-e[0], -e[2], e[1]))
        return entries

    def _short_doc_count(self, q: str) -> int:
        return sum(ray.get([a.short_doc_count.remote(q) for a in self.actors]))

    # ---- driver-side APIs that need local segment state -----------------
    # (serving pool is read-only; do these through an in-process Engine)
    def doc_text_by_key(self, key: int):  # pragma: no cover
        raise NotImplementedError("use shard actors / the in-process Engine")

    # Query API (filters/boosts/sort/facets) is inherited from Engine: the
    # post-processing operates on stored rows fetched via the batched
    # _prefetch_field_rows fan-out above — no process-local segments needed.

    def search_ex(
        self,
        query_text: str,
        top_k: int = 10,
        enable_coverage: bool | None = None,
        timeout_ms: int | None = None,
    ):
        """One transparent retry on shard-actor death: actors restart
        automatically (max_restarts=-1) and reload their slice + persisted
        tombstones from disk in ``__init__``; every piece of cross-RTT
        state (stage-1 scratch, short-query state) is per-query,
        so re-running the whole query from scratch is rank-identical. The
        restart itself takes seconds (index reload), so retries back off
        until the pool is reachable again (bounded at ~30 s)."""
        deadline = time.monotonic() + 30.0
        while True:
            try:
                return super().search_ex(
                    query_text, top_k, enable_coverage, timeout_ms
                )
            except (
                ray.exceptions.RayActorError,
                ray.exceptions.ActorUnavailableError,
            ):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.5)

    def _prefetch_field_rows(self, keys) -> None:
        """ONE batched shard fan-out fetches every stored row the Query-API
        post-processing (filter → boosts → sort → facets) will touch; each
        shard returns only the keys it owns. Payload is result-sized
        (≤ max_results rows), never corpus-sized."""
        keys = [int(k) for k in keys]
        merged: dict[int, dict] = {}
        if keys:
            for part in ray.get([a.field_rows.remote(keys) for a in self.actors]):
                merged.update(part)
        self._row_cache = merged

    def _field_row(self, key: int) -> dict:
        return getattr(self, "_row_cache", {}).get(int(key), {})

    def get_document(self, document_key: int) -> dict | None:
        """GetDocument parity on the distributed engine: one shard fan-out
        for the single key (the inherited implementation reads only the
        last query's prefetch cache, which would be stale/empty here)."""
        rows = self.get_documents([document_key])
        return rows[0] if rows else None

    def get_documents(self, document_keys) -> list[dict]:
        """Batched GetDocuments: ONE fan-out; each shard returns only the
        keys it owns; input order preserved, unknown/tombstoned skipped."""
        keys = [int(k) for k in document_keys]
        merged: dict[int, dict] = {}
        if keys:
            for part in ray.get([a.field_rows.remote(keys) for a in self.actors]):
                merged.update(part)
        deleted = getattr(self, "deleted", set())
        return [merged[k] for k in keys if k in merged and k not in deleted]

    def _empty_query_with_facets(self, q):
        raise ValueError(
            "match-all facets are an in-process serving feature "
            "(Engine.load(...).query(...)); for corpus-scale facet jobs use "
            "infidex_ray.ops.facets.facet_counts_offline (streaming Ray groupby)"
        )

    def add_documents(self, docs, fields=None):  # pragma: no cover
        raise NotImplementedError(
            "mutations go through Engine.load(index_dir); reconnect the "
            "actor pool afterwards to pick up the new delta segment"
        )

    def delete_documents(self, keys) -> None:
        """Tombstone keys and broadcast to shards (stage-1 results are
        filtered on the driver; wm candidates are filtered shard-side)."""
        import json as _json

        self.deleted.update(int(k) for k in keys)
        with open(os.path.join(self.index_dir, "tombstones.json"), "w") as f:
            _json.dump(sorted(self.deleted), f)
        ray.get([a.set_deleted.remote(sorted(self.deleted)) for a in self.actors])
