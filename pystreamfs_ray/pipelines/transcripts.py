"""Transcript-table sources.

``read_transcripts`` reads a Parquet dir/file already in the
``input_hint`` shape (e.g. the synthesized FIXTURES.md tables).

``transcripts_from_events`` derives a deterministic transcript-shaped
table from the driver testdata ``events`` table so every transcript
operator is exercisable (and DuckDB-oracle-checkable) on
``/root/testdata/sf*``: each user is a conversation, events in
(ts, event_id) order are its turns. The mapping is pure SQL-expressible
(see ``__ray_entry__.oracle_sql``).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from pystreamfs_ray.sources import read_parquet

from pystreamfs_ray.stages.window import per_bucket, sort_entity
from pystreamfs_ray.util import RE2_SPACE, byte_class_counts

ROLE_OF_EVENT = {"click": "user", "view": "user", "purchase": "assistant",
                 "signup": "assistant", "error": "system"}
TOOL_OF_EVENT = {"purchase": "search", "signup": "code", "error": "calc"}


def _ws_tokens(texts: pd.Series) -> np.ndarray:
    """Whitespace-token count per text: RE2 ``\\S+`` runs, as the
    oracles' ``len(regexp_extract_all(x, '\\S+'))`` count them (``\\v``,
    NBSP and U+2028 are not whitespace there, unlike in Python's ``re``)."""
    return byte_class_counts(pa.array(texts, type=pa.string()), RE2_SPACE)[1].to_numpy()


def read_transcripts(path: str):
    return read_parquet(path)


def transcripts_from_events(sf_dir: str, *, num_buckets: int = 64):
    events = read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "event_type", "props"],
    )

    def _derive(group: pd.DataFrame) -> pd.DataFrame:
        group = sort_entity(group, entity_col="user_id", order_cols=("ts", "event_id"))
        turn_idx = group.groupby("user_id", sort=False).cumcount().astype(np.int32)
        out = pd.DataFrame(
            {
                "conv_id": group["user_id"].astype(str),
                "turn_idx": turn_idx,
                "role": group["event_type"].map(ROLE_OF_EVENT).fillna("tool"),
                "text": group["props"].astype(str),
                "tool": group["event_type"].map(TOOL_OF_EVENT).fillna(""),
                "ts": group["ts"],
            }
        )
        return out

    return per_bucket(
        events, _derive, entity_col="user_id", num_buckets=num_buckets,
    )


def render_chat(ts_ds, *, num_buckets: int = 64, sep: str = "\n"):
    """Flatten each conversation into one training-text row:
    ``role: text`` lines in turn order (the chat-template rendering
    step of an SFT data pipeline, minus the tokenizer-specific tags).
    One entity-hash shuffle; output is conversation-bounded (one row
    per conv), so nothing concentrates beyond a single conversation's
    length."""

    def _render(g: pd.DataFrame) -> pd.DataFrame:
        g = sort_entity(g, entity_col="conv_id", order_cols=("turn_idx",))
        line = g["role"].astype(str) + ": " + g["text"].astype(str)
        grp = g.groupby("conv_id", sort=False)
        out = pd.DataFrame({
            "conv_id": grp.size().index,
            "n_turns": grp.size().to_numpy(np.int64),
            "rendered": line.groupby(g["conv_id"].to_numpy(), sort=False)
                            .agg(sep.join).to_numpy(),
        })
        return out

    return per_bucket(ts_ds, _render, entity_col="conv_id",
                      num_buckets=num_buckets)


def sft_pairs(ts_ds, *, num_buckets: int = 64):
    """Extract (prompt, response) pairs: every user turn immediately
    followed (turn_idx + 1) by an assistant turn — the pair-mining
    step that turns raw transcripts into SFT examples. Vectorized
    shift comparison inside each entity bucket; one shuffle."""

    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = sort_entity(g, entity_col="conv_id", order_cols=("turn_idx",))
        conv = g["conv_id"].to_numpy()
        role = g["role"].to_numpy()
        idx = g["turn_idx"].to_numpy()
        text = g["text"].to_numpy()
        nxt_same = conv[:-1] == conv[1:]
        m = np.zeros(len(g), dtype=bool)
        m[:-1] = (nxt_same & (role[:-1] == "user")
                  & (role[1:] == "assistant") & (idx[1:] == idx[:-1] + 1))
        i = np.flatnonzero(m)
        return pd.DataFrame({
            "conv_id": conv[i],
            "turn_idx": idx[i].astype(np.int64),
            "prompt": text[i],
            "response": text[i + 1],
        })

    return per_bucket(ts_ds, _pairs, entity_col="conv_id",
                      num_buckets=num_buckets)


def export_sft_jsonl(sf_dir: str, out_dir: str, *, num_shards: int = 16,
                     num_buckets: int = 64, resume: bool = False):
    """End-to-end SFT export: derive transcripts from the event log,
    mine (prompt, response) pairs, and write them as deterministic
    hash-sharded JSONL (the interchange format most SFT trainers
    ingest). Returns the shard manifest DataFrame — rows stream from
    the pair miner straight into the shard writers, never the driver.
    Re-running with ``resume=True`` skips finished shards."""
    from pystreamfs_ray.sources import export_jsonl_sharded

    pairs = sft_pairs(transcripts_from_events(sf_dir,
                                              num_buckets=num_buckets),
                      num_buckets=num_buckets)
    return export_jsonl_sharded(pairs, out_dir, by="conv_id",
                                num_shards=num_shards, resume=resume,
                                sort_cols=["conv_id", "turn_idx"])


def best_of_n(ts_ds, *, num_buckets: int = 64):
    """Best-of-n response selection: per DISTINCT prompt text, keep the
    single highest-scoring candidate response — the rejection-sampling
    / RLHF candidate-pool reduction step. Deterministic score =
    response whitespace-token count (the stand-in for a reward model;
    swap the score expression, keep the shape); ties break on the
    lexicographically smallest (conv_id, turn_idx).

    Scale shape: pair mining rides the conv_id bucket shuffle, then ONE
    bucketed prompt-content-hash shuffle co-locates each prompt's
    candidate pool (same shape as ``exact_dedup_keep_best``,
    stages/dedup.py:1136); inside a bucket the argmax is one vectorized
    sort + groupby-first, never a per-prompt Python loop. Prompt text
    moves once; candidate pools never meet the driver.

    Output: (prompt, conv_id, turn_idx, score, n_candidates).
    """
    pairs = sft_pairs(ts_ds, num_buckets=num_buckets)

    def add_score(df: pd.DataFrame):
        from pystreamfs_ray.util import arrow_block, content_hash64

        out = pd.DataFrame({
            "prompt": df["prompt"],
            "conv_id": df["conv_id"],
            "turn_idx": df["turn_idx"].astype(np.int64),
            "score": _ws_tokens(df["response"]),
        })
        out["__h"] = (content_hash64(out["prompt"].to_numpy())
                      % np.uint64(num_buckets)).astype(np.int64)
        return arrow_block(out)

    def argmax(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["prompt", "score", "conv_id", "turn_idx"],
                          ascending=[True, False, True, True],
                          kind="mergesort")
        grp = g.groupby("prompt", sort=False)
        out = grp.agg(conv_id=("conv_id", "first"),
                      turn_idx=("turn_idx", "first"),
                      score=("score", "first"),
                      n_candidates=("score", "size")).reset_index()
        out["n_candidates"] = out["n_candidates"].astype(np.int64)
        return out

    from pystreamfs_ray.util import arrow_combiner

    return (pairs.map_batches(arrow_combiner(add_score),
                              batch_format="pyarrow")
            .groupby("__h").map_groups(argmax, batch_format="pandas"))


def dpo_pairs(ts_ds, *, num_buckets: int = 64):
    """Preference-pair construction (the DPO/RLHF dataset step): for
    every DISTINCT prompt with ≥ 2 candidate responses, emit the
    (chosen, rejected) pair — chosen = highest-scoring candidate,
    rejected = lowest — plus the score margin. Deterministic score =
    response whitespace-token count (the reward-model stand-in shared
    with ``best_of_n``; swap the score expression, keep the shape).
    Tie rules make the pair unique: chosen breaks ties to the
    lexicographically SMALLEST (conv_id, turn_idx), rejected to the
    LARGEST, so an all-equal pool still yields two distinct rows.

    Scale shape: identical to ``best_of_n`` — pair mining rides the
    conv bucket shuffle, then ONE prompt-content-hash shuffle
    co-locates each candidate pool; both extremes come from two
    vectorized sorts + groupby-first inside the bucket. Output is one
    row per multi-candidate prompt."""
    pairs = sft_pairs(ts_ds, num_buckets=num_buckets)

    def add_score(df: pd.DataFrame):
        from pystreamfs_ray.util import arrow_block, content_hash64

        out = pd.DataFrame({
            "prompt": df["prompt"],
            "conv_id": df["conv_id"],
            "turn_idx": df["turn_idx"].astype(np.int64),
            "score": _ws_tokens(df["response"]),
        })
        out["__h"] = (content_hash64(out["prompt"].to_numpy())
                      % np.uint64(num_buckets)).astype(np.int64)
        return arrow_block(out)

    def extremes(g: pd.DataFrame) -> pd.DataFrame:
        ch = (g.sort_values(["prompt", "score", "conv_id", "turn_idx"],
                            ascending=[True, False, True, True],
                            kind="mergesort")
              .groupby("prompt", sort=False)
              .agg(chosen_conv_id=("conv_id", "first"),
                   chosen_turn_idx=("turn_idx", "first"),
                   chosen_score=("score", "first"),
                   n_candidates=("score", "size")))
        rj = (g.sort_values(["prompt", "score", "conv_id", "turn_idx"],
                            ascending=[True, True, False, False],
                            kind="mergesort")
              .groupby("prompt", sort=False)
              .agg(rejected_conv_id=("conv_id", "first"),
                   rejected_turn_idx=("turn_idx", "first"),
                   rejected_score=("score", "first")))
        out = ch.join(rj).reset_index()
        out = out[out["n_candidates"] >= 2]
        for c in ("chosen_turn_idx", "chosen_score", "rejected_turn_idx",
                  "rejected_score", "n_candidates"):
            out[c] = out[c].astype(np.int64)
        out["margin"] = out["chosen_score"] - out["rejected_score"]
        return out.reset_index(drop=True)

    from pystreamfs_ray.util import arrow_combiner

    return (pairs.map_batches(arrow_combiner(add_score),
                              batch_format="pyarrow")
            .groupby("__h").map_groups(extremes, batch_format="pandas"))


def loss_spans(ts_ds, *, num_buckets: int = 64):
    """SFT loss-mask spans: lay each conversation's turns end-to-end in
    turn_idx order (whitespace token counts, matching ``token_stats``)
    and emit, for every ASSISTANT turn, the [tok_start, tok_end) window
    of the concatenated token stream where the training loss applies —
    the mask every chat-SFT trainer needs next to the packed tokens.

    Rides the standard conv_id bucket shuffle; the per-conversation
    exclusive cumsum is one vectorized ``groupby().cumsum()`` per
    bucket. Output: (conv_id, turn_idx, tok_start, tok_end).
    """

    def spans(g: pd.DataFrame) -> pd.DataFrame:
        g = sort_entity(g, entity_col="conv_id", order_cols=("turn_idx",))
        tok = _ws_tokens(g["text"])
        g = g.assign(__tok=tok)
        start = (g.groupby("conv_id", sort=False)["__tok"].cumsum()
                 .to_numpy(np.int64) - tok)
        m = (g["role"] == "assistant").to_numpy()
        return pd.DataFrame({
            "conv_id": g["conv_id"].to_numpy()[m],
            "turn_idx": g["turn_idx"].to_numpy(np.int64)[m],
            "tok_start": start[m],
            "tok_end": start[m] + tok[m],
        })

    return per_bucket(ts_ds, spans, entity_col="conv_id",
                      num_buckets=num_buckets)


def snapshot_renders(ts_ds, *, num_buckets: int = 64, sep: str = "\n"):
    """Cumulative per-turn renderings — the agent-snapshot table: one
    row per (conversation, turn k) holding the ``render_chat`` text of
    turns 0..k. Models retry/checkpoint logging where every snapshot of
    a growing transcript was persisted; ``prefix_dedup`` then recovers
    exactly the maximal (latest) snapshots.

    One conv_id bucket shuffle. Output volume is Θ(Σ_conv n·len̄)
    (quadratic per conversation) — at 100 TB run it on a hash-sampled
    cohort or cap turns upstream; the per-bucket accumulate is
    O(output chars), never re-renders from scratch per row.
    """
    import itertools

    def _snaps(g: pd.DataFrame) -> pd.DataFrame:
        g = sort_entity(g, entity_col="conv_id", order_cols=("turn_idx",))
        line = (g["role"].astype(str) + ": " + g["text"].astype(str)).to_numpy()
        conv = g["conv_id"].to_numpy()
        snap = np.empty(len(g), dtype=object)
        seg = np.flatnonzero(np.r_[True, conv[1:] != conv[:-1], True])
        for s0, s1 in zip(seg[:-1], seg[1:]):
            snap[s0:s1] = list(itertools.accumulate(
                line[s0:s1], lambda a, b: a + sep + b))
        return pd.DataFrame({
            "conv_id": conv,
            "turn_idx": g["turn_idx"].to_numpy(np.int64),
            "snap": snap,
        })

    return per_bucket(ts_ds, _snaps, entity_col="conv_id",
                      num_buckets=num_buckets)


def truncate_context(ts_ds, *, budget_tokens: int = 64,
                     num_buckets: int = 64):
    """Context-window truncation audit: for each conversation, the
    longest turn SUFFIX whose total whitespace-token count fits in
    ``budget_tokens`` (what an inference server keeps when the context
    overflows). Emits (conv_id, first_kept_turn, n_kept, tok_kept);
    conversations whose final turn alone exceeds the budget emit
    nothing. Reverse cumulative sums are exact int64 via
    total − inclusive-prefix + self; one entity shuffle, output is one
    row per conversation."""

    def _trunc(g: pd.DataFrame) -> pd.DataFrame:
        g = sort_entity(g, entity_col="conv_id", order_cols=("turn_idx",))
        tok = _ws_tokens(g["text"])
        s = pd.Series(tok, index=g.index)
        grp = s.groupby(g["conv_id"], sort=False)
        rcum = grp.transform("sum").to_numpy(np.int64) \
            - grp.cumsum().to_numpy(np.int64) + tok
        k = g.loc[rcum <= budget_tokens, ["conv_id", "turn_idx"]].assign(
            __tok=tok[rcum <= budget_tokens])
        out = (k.groupby("conv_id", sort=False)
                .agg(first_kept_turn=("turn_idx", "min"),
                     n_kept=("turn_idx", "size"),
                     tok_kept=("__tok", "sum"))
                .reset_index())
        for c in ("first_kept_turn", "n_kept", "tok_kept"):
            out[c] = out[c].astype(np.int64)
        return out

    return per_bucket(ts_ds, _trunc, entity_col="conv_id",
                      num_buckets=num_buckets)


def vocab_novelty(g: pd.DataFrame) -> pd.DataFrame:
    """Per-turn never-seen-before token counts for an entity-sorted
    bucket (the Heaps-law novelty curve). One duplicated() over the
    exploded token stream; reduceat runs only over token-bearing rows
    (a trailing zero-token turn's start offset == flat.size and would
    raise; interleaved empty turns contribute no elements to the
    enclosing segment, so skipping them is exact)."""
    from pystreamfs_ray.stages.window import sort_entity

    g = sort_entity(g, entity_col="conv_id", order_cols=("turn_idx",))
    toks = g["text"].str.lower().str.findall(r"[a-z0-9_]+")
    n_tok = toks.str.len().to_numpy(np.int64)
    conv = np.repeat(g["conv_id"].to_numpy(), n_tok)
    flat = np.concatenate(toks.to_list()) if len(g) else np.array([])
    new_per_row = np.zeros(len(g), dtype=np.int64)
    if flat.size:
        first = ~pd.DataFrame({"c": conv, "w": flat}).duplicated(
            ["c", "w"], keep="first").to_numpy()
        starts = np.r_[0, np.cumsum(n_tok)[:-1]]
        has = n_tok > 0
        new_per_row[has] = np.add.reduceat(
            first.astype(np.int64), starts[has])
    return pd.DataFrame({
        "conv_id": g["conv_id"].to_numpy(),
        "turn_idx": g["turn_idx"].to_numpy(np.int64),
        "n_new_tokens": new_per_row.astype(np.int64),
    })
