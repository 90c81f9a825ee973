"""Inverted index construction: term → (document frequency, posting
list) over a text column.

The reference never indexes (it streams feature matrices); a corpus
engine needs the inverted index for exact phrase/term search and for
df-based filters (the TF-IDF operator in ``stages/textstats`` already
computes df — this materializes the postings themselves).

Scale shape: the per-batch combiner dedups (term, doc) pairs locally,
so the single hash shuffle on the term carries one row per DISTINCT
(term, doc) pair, not one per occurrence. Posting lists concentrate on
the term's reducer — bounded by ``max_df`` (stopword-scale terms are
the skew hazard at corpus scale: a term in every document would gather
n_docs ids on one reducer; cap or drop them, which search engines do
anyway).

Tokens are ``\\S+`` runs, matching ``stages/textstats`` and the DuckDB
oracle's ``regexp_extract_all(text, '\\S+')``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from pystreamfs_ray.util import arrow_block, arrow_combiner, combine_sum


def inverted_index(ds, *, id_col: str = "doc_id", text_col: str = "text",
                   min_df: int = 2, max_df: int | None = None):
    """Dataset of ``(term, df, postings)`` where ``postings`` is the
    comma-joined ascending id list of documents containing the term
    (string form — hashable/portable, and the natural on-disk layout).
    Terms with ``df < min_df`` (or ``> max_df`` if set) are dropped."""

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        # combiner: unique (term, doc) within the batch
        s = df[text_col].str.findall(r"\S+")
        n = s.map(len).to_numpy(np.int64)
        out = pd.DataFrame({
            "term": np.concatenate([np.array(v, dtype=object) for v in s])
            if n.sum() else np.array([], dtype=object),
            id_col: np.repeat(df[id_col].to_numpy(), n),
        })
        return arrow_block(out.drop_duplicates())

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(g[id_col].to_numpy())
        df_count = len(ids)
        if df_count < min_df or (max_df is not None and df_count > max_df):
            return pd.DataFrame({"term": [], "df": pd.Series([], dtype=np.int64),
                                 "postings": []})
        return pd.DataFrame({
            "term": [g["term"].iloc[0]],
            "df": np.array([df_count], dtype=np.int64),
            "postings": [",".join(map(str, ids))],
        })

    return (ds.select_columns([id_col, text_col])
            .map_batches(arrow_combiner(pairs), batch_format="pyarrow")
            .groupby("term")
            .map_groups(finish, batch_format="pandas"))


def bm25_scores(ds, query_terms: list[str], *, id_col: str = "doc_id",
                text_col: str = "text", k1: float = 1.2, b: float = 0.75,
                ndigits: int = 6):
    """BM25 relevance of every document for a bag-of-terms query — the
    classic lexical ranker (the retrieval twin of the ANN operators in
    ``stages/similarity``). Lucene-style idf
    ``ln((N - df + 0.5)/(df + 0.5) + 1)``; ``avgdl`` counts all docs.

    Scale shape: the corpus-wide pass collects only three tiny
    aggregates — per-query-term document frequencies (|q| rows via the
    distinct-(term, doc) combiner), total docs, total tokens — which
    broadcast into a single doc-local scoring pass (tokenize once,
    count query-term hits vectorized). No shuffle touches row data;
    only docs with positive score are emitted."""
    import ray

    terms = list(dict.fromkeys(query_terms))

    import re

    # token-exact occurrence pattern: the term delimited by non-\S
    # boundaries (C-level regex count — no per-row Python list work)
    pats = [r"(?<!\S)" + re.escape(t) + r"(?!\S)" for t in terms]

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        txt = df[text_col]
        n_tok = int(txt.str.count(r"\S+").sum())
        dfs = np.array([int((txt.str.count(p) > 0).sum()) for p in pats],
                       dtype=np.int64)
        out = pd.DataFrame({"term_i": np.arange(len(terms), dtype=np.int64),
                            "df": dfs})
        out["n_docs"] = np.int64(len(df))
        out["n_toks"] = np.int64(n_tok)
        return out

    agg = (combine_sum(ds.select_columns([text_col]), counts, "term_i",
                       ["df", "n_docs", "n_toks"])
           .to_pandas())
    if len(agg) == 0:  # empty corpus → typed empty result
        return ds.select_columns([id_col]).map_batches(
            lambda df: pd.DataFrame({id_col: df[id_col],
                                     "score": np.full(len(df), np.nan)}
                                    ).iloc[0:0],
            batch_format="pandas")
    agg = agg.sort_values("term_i")
    n_docs = float(agg["n_docs"].iloc[0])
    avgdl = float(agg["n_toks"].iloc[0]) / n_docs
    dfreq = agg["df"].to_numpy(np.float64)
    idf = np.log((n_docs - dfreq + 0.5) / (dfreq + 0.5) + 1.0)
    ref = ray.put((terms, idf, avgdl))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        _, idf, avgdl = ray.get(ref)
        txt = df[text_col]
        dl = txt.str.count(r"\S+").to_numpy(np.float64)
        tf = np.zeros((len(df), len(pats)))
        for i, p in enumerate(pats):
            tf[:, i] = txt.str.count(p).to_numpy(np.float64)
        norm = k1 * (1.0 - b + b * dl[:, None] / avgdl)
        sc = (idf[None, :] * tf * (k1 + 1.0) / (tf + norm)).sum(axis=1)
        keep = sc > 0
        return pd.DataFrame({
            id_col: df[id_col].to_numpy()[keep],
            "score": np.round(sc[keep], ndigits),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pandas")


def topn_ranked(ds, *, score_col: str, id_col: str = "doc_id",
                n: int = 50, ndigits: int = 6) -> pd.DataFrame:
    """Top-n rows by (round(score) desc, id asc) with a dense 1-based
    ``rank`` column — the ranked-list primitive retrieval fusion
    consumes. The pull is bounded by ``n`` BY CONSTRUCTION (a top-k is
    the output, not an intermediate), so the driver materialization is
    the legitimate small-result case."""
    top = (ds.map_batches(
        lambda df: df.assign(**{score_col: df[score_col].round(ndigits)}),
        batch_format="pandas")
        .sort([score_col, id_col], descending=[True, False])
        .limit(n).to_pandas())
    if score_col not in top.columns:  # empty input → Ray drops columns
        top = pd.DataFrame({id_col: pd.Series([], dtype=np.int64),
                            score_col: pd.Series([], dtype=np.float64)})
    top = top.sort_values([score_col, id_col], ascending=[False, True],
                          ignore_index=True)
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    return top


def rrf_fuse(ranked_lists, *, id_col: str = "doc_id", rank_col: str = "rank",
             k: int = 60, topk: int = 10, ndigits: int = 6) -> pd.DataFrame:
    """Reciprocal-rank fusion (Cormack & Clarke 2009): fuse ranked
    lists from heterogeneous retrievers (lexical BM25 + vector ANN is
    the classic pair) by ``rrf(d) = Σ_lists 1/(k + rank_list(d))``,
    descending; ties break on id. ``n_lists`` counts how many lists
    surfaced the id.

    Inputs are top-n lists (pandas frames from :func:`topn_ranked` /
    `similarity.brute_force_topk`), so fusion is driver-local on
    ≤ Σn rows by construction; the distributed work lives in the
    retrievers themselves."""
    parts = []
    for lst in ranked_lists:
        df = lst.to_pandas() if hasattr(lst, "to_pandas") else lst
        parts.append(pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "__r": 1.0 / (k + df[rank_col].to_numpy(np.float64)),
        }))
    allp = pd.concat(parts, ignore_index=True)
    fused = allp.groupby(id_col, sort=False).agg(
        rrf=("__r", "sum"), n_lists=("__r", "size")).reset_index()
    fused["rrf"] = fused["rrf"].round(ndigits)
    fused["n_lists"] = fused["n_lists"].astype(np.int64)
    fused = fused.sort_values(["rrf", id_col], ascending=[False, True],
                              ignore_index=True).head(topk)
    fused["rank"] = np.arange(1, len(fused) + 1, dtype=np.int64)
    return fused
