"""Train/eval decontamination — flag corpus documents that share any
word n-gram with a held-out evaluation set (the standard benchmark-
contamination check run before pre-training; cf. GPT-3 appendix C /
PaLM §7 n-gram overlap definitions).

Design for 100 TB: both sides reduce to DISTINCT (doc, gram-hash)
pairs built with one vectorized pass per batch (no per-row Python).
The eval side (a benchmark suite) is tiny relative to the corpus, so
corpus grams filter against its gram hashes through
``stages/joins.lookup``: broadcast and probed per batch when it fits
(ONE shuffle total), else a hash semi join.
Gram hashes are md5-low-64 (`dedup._md5_lower64`) so every result is
DuckDB-oracle-checkable via ``md5_number_lower``. Membership in the
eval set is a deterministic hash predicate on the id (same rule as
``sources.sample_by_hash``) — no driver-side id list.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from pystreamfs_ray.stages.dedup import _md5_lower64


def ngram_hash_pairs(ds, *, n: int = 4, id_col: str = "doc_id",
                     text_col: str = "text"):
    """DISTINCT (id, gram-hash) pairs for word n-grams (words = ``\\S+``
    runs). Vectorized: one findall pass, numpy repeat/shift for gram
    assembly, md5 over the batch's UNIQUE gram strings only."""

    def fn(df: pd.DataFrame) -> pa.Table:
        ids = np.asarray([], dtype=np.int64)
        ghs = np.asarray([], dtype=np.int64)
        words = df[text_col].str.findall(r"\S+")
        wlen = words.str.len().to_numpy(dtype=np.int64)
        wdoc = np.repeat(np.arange(len(df)), wlen)
        wflat = np.fromiter((x for sub in words for x in sub), dtype=object,
                            count=int(wlen.sum()))
        if len(wflat) >= n:
            valid = wdoc[n - 1:] == wdoc[: len(wdoc) - n + 1]
            parts = [pd.Series(wflat[i: len(wflat) - (n - 1 - i)][valid]) for i in range(n)]
            grams = parts[0].str.cat(parts[1:], sep=" ")
            out = pd.DataFrame({
                id_col: df[id_col].to_numpy()[wdoc[: len(wdoc) - n + 1][valid]],
                "g": grams.to_numpy(),
            }).drop_duplicates()
            uniq, inv = np.unique(out["g"].to_numpy(), return_inverse=True)
            ids = out[id_col].to_numpy(dtype=np.int64)
            # signed view: Ray's hash join promotes mixed blocks to
            # int64 — the hash is join-internal, so the
            # reinterpretation is lossless
            ghs = _md5_lower64(list(uniq))[inv].view(np.int64)
        # Arrow out: the downstream groupby/join shuffles compact C++
        # buffers and the metadata-free schema keeps Ray's shuffle
        # schema-dedup fast path on (see window.per_bucket)
        return pa.table({id_col: pa.array(ids), "gh": pa.array(ghs)})

    return ds.map_batches(fn, batch_format="pandas")


def eval_mask_expr(id_col: str, rate: float) -> str:
    """The deterministic eval-membership predicate (engine side uses the
    vectorized equivalent in ``sources.sample_by_hash``).

    The threshold is computed ONCE in Python (``int(rate * 65536)``,
    truncating) and inlined as an integer literal so the SQL mirror uses
    the identical cutoff for any rate — DuckDB's ``CAST(0.10*65536 AS
    UBIGINT)`` ROUNDS to 6554 while Python truncates to 6553, so the
    previous CAST-based expression diverged on hash value 6553."""
    thresh = int(rate * 65536)
    return (f"md5_number_lower(CAST({id_col} AS VARCHAR)) % 65536 "
            f"< {thresh}")


def _hash_member_mask(ids, rate: float) -> np.ndarray:
    thresh = np.uint64(int(rate * 65536))
    hv = _md5_lower64([str(i) for i in ids]) % np.uint64(65536)
    return hv < thresh


def decontaminate(ds, *, n: int = 4, eval_rate: float = 0.10,
                  id_col: str = "doc_id", text_col: str = "text"):
    """(id, n_shared) for every NON-eval document sharing at least one
    word n-gram with any eval document. ``n_shared`` counts the
    document's distinct contaminated grams.

    The eval side (a benchmark suite) is tiny relative to the corpus by
    construction, so corpus grams meet its gram hashes in a
    ``stages/joins.lookup`` semi join: broadcast and probed per batch
    when it fits — leaving ONE shuffle total (the final grouped
    count) — else a hash semi join, the path for eval-vs-eval style
    jobs where neither side is small."""
    from ray.data.aggregate import Count

    from pystreamfs_ray.stages.joins import lookup

    def split(member: bool):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            m = _hash_member_mask(df[id_col].to_numpy(), eval_rate)
            return df[m if member else ~m]

        return fn

    corpus_grams = ngram_hash_pairs(
        ds.map_batches(split(False), batch_format="pandas"),
        n=n, id_col=id_col, text_col=text_col)
    eval_grams = ngram_hash_pairs(
        ds.map_batches(split(True), batch_format="pandas"),
        n=n, id_col=id_col, text_col=text_col).select_columns(["gh"])
    hits = lookup(corpus_grams, eval_grams, "gh", how="semi")
    return hits.groupby(id_col).aggregate(Count(alias_name="n_shared"))


def dup_ngram_stats(ds, *, n: int = 5, id_col: str = "doc_id",
                    text_col: str = "text", min_docs: int = 2):
    """Per-document duplicated-shingle accounting — for every document,
    how many of its distinct word ``n``-grams also appear in at least
    ``min_docs - 1`` OTHER documents (the repeated-n-gram signal behind
    C4/RefinedWeb-style sub-document dedup decisions).

    100-TB shape: documents reduce to DISTINCT (doc, gram-hash) pairs
    once (`ngram_hash_pairs` — a doc lives in one batch row, so
    per-batch dedup IS global dedup); gram document-frequencies come
    from ONE groupby over those pairs. Each pair is then marked by a
    ``stages/joins.lookup`` against the DUPLICATED gram hashes
    (broadcast and probed per batch when they fit — no second shuffle
    — else a hash join). A final per-doc count aggregate emits
    (n_grams, n_dup). Text never shuffles; every exchanged row is two
    int64s."""
    from ray.data.aggregate import Count, Sum

    from pystreamfs_ray.stages.joins import lookup

    # `pairs` is a diamond: it feeds BOTH the frequency groupby and the
    # membership mark below. Materialize it once (int64 pairs in the
    # object store, spillable) — re-deriving it means a second full
    # text scan + findall pass, the dominant cost (measured 12.8 s →
    # 3.5 s at sf0.01; same reason minhash_lsh_pairs materializes its
    # signatures).
    pairs = ngram_hash_pairs(ds, n=n, id_col=id_col,
                             text_col=text_col).materialize()
    freqs = pairs.groupby("gh").aggregate(Count(alias_name="nd"))
    dup_ghs = freqs.filter(expr=f"nd >= {min_docs}").select_columns(["gh"])

    def dup_flag(t: pa.Table) -> pa.Table:
        return pa.table({id_col: t[id_col],
                         "dup": pa.array(t["dup"].to_numpy(zero_copy_only=False)
                                         .astype(np.int64))})

    marked = lookup(pairs, dup_ghs, "gh", how="mark", mark="dup").map_batches(
        dup_flag, batch_format="pyarrow")
    return (marked.groupby(id_col)
            .aggregate(Count(alias_name="n_grams"),
                       Sum("dup", alias_name="n_dup")))


def split_leakage(ds, *, id_col: str = "doc_id", text_col: str = "text",
                  splits=(("train", 0.8), ("val", 0.1), ("test", 0.1))):
    """Holdout-boundary contamination audit: for every ordered split
    pair (train-val, train-test, val-test), how many EXACT-duplicate
    text groups straddle the pair, and how many documents of the
    later (eval-side) split are contaminated by them — the report a
    training run wants before trusting its held-out loss (the split
    itself is `sources.split_assign`'s hash rule, so this audits the
    exact assignment the export pipeline ships).

    100-TB shape: each batch reduces to per-content-hash one-hot split
    counts (text never leaves the read task — only int64 hash +
    3 counters shuffle ONCE), a mergeable Sum groupby resolves global
    per-group counts, and a second combiner collapses those to 3 rows.
    Content identity is md5-low-64 (`_md5_lower64` == DuckDB
    ``md5_number_lower``), so the whole audit is SQL-oracle-checkable;
    a 64-bit collision would merely co-count two unrelated texts, and
    identically so in the oracle."""
    from pystreamfs_ray.sources import split_cutoffs
    from pystreamfs_ray.util import combine_sum

    names = np.array([nm for nm, _ in splits], dtype=object)
    cuts = np.array(split_cutoffs(splits), dtype=np.uint64)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = _md5_lower64(df[text_col].tolist()).view(np.int64)
        sp = names[np.searchsorted(
            cuts,
            _md5_lower64([str(v) for v in df[id_col]]) % np.uint64(65536),
            side="right")]
        tmp = pd.DataFrame({"h": h})
        for nm in names:
            tmp[f"n_{nm}"] = (sp == nm).astype(np.int64)
        return tmp.groupby("h", sort=False).sum().reset_index()

    groups = combine_sum(ds, partial, "h", [f"n_{nm}" for nm in names])

    def flags(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for a, b in pairs:
            m = (df[f"n_{a}"] > 0) & (df[f"n_{b}"] > 0)
            rows.append({"pair": f"{a}-{b}",
                         "n_groups": np.int64(m.sum()),
                         "n_eval_docs": np.int64(df.loc[m, f"n_{b}"].sum())})
        return pd.DataFrame(rows)

    return combine_sum(groups, flags, "pair", ["n_groups", "n_eval_docs"])
