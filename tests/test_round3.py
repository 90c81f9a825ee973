"""Round-3 fixes: join-path fallbacks for vocab-sized tables, spread
boundary sampling, hash-sampled IVF training, per-window memory metric,
decontamination threshold parity, HLL alpha correction."""

import numpy as np
import pandas as pd
import pytest


def _docs_ds(n=200, seed=3):
    import ray.data as rd

    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(words, size=rng.integers(3, 12)))
             for _ in range(n)]
    return rd.from_pandas(pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64), "text": texts}))


def test_tfidf_join_path_matches_broadcast(ray_session, broadcast_paths):
    """The "shuffle" path forces the distributed-vocab hash-join path;
    results must be identical to the broadcast path (VERDICT r2 #2)."""
    from pystreamfs_ray.stages.textstats import tfidf_top_term

    docs = _docs_ds()
    a, b = (tfidf_top_term(docs).to_pandas()
            .sort_values("doc_id", ignore_index=True)
            for _ in broadcast_paths())
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)


def test_pmi_join_path_matches_broadcast(ray_session, broadcast_paths):
    from pystreamfs_ray.stages.textstats import pmi_bigrams

    docs = _docs_ds()
    a, b = (pmi_bigrams(docs, min_count=2).to_pandas()
            .sort_values(["w1", "w2"], ignore_index=True)
            for _ in broadcast_paths())
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)


def test_spread_sample_covers_sorted_input(ray_session):
    """On a value-SORTED input, boundary sampling must span the full
    range — ds.limit() sampling collapsed every boundary into the
    leading range (ADVICE r2). With 8 points per block over 4 blocks of
    sorted data, the sample must include values from every quartile."""
    import ray.data as rd

    from pystreamfs_ray.util import quantile_bounds, spread_sample_values

    n = 4000
    df = pd.DataFrame({"v": np.arange(n, dtype=np.float64)})
    ds = rd.from_pandas(df).repartition(4)
    vals = spread_sample_values(ds, "v")
    # sample spans the whole sorted range, not just its head
    assert vals.min() < n * 0.05 and vals.max() > n * 0.95
    bounds = quantile_bounds(vals, 8)
    # boundaries are spread: no more than half the mass below the median bound
    assert bounds.min() < n / 2 < bounds.max()


def test_percent_rank_balanced_on_sorted_input(ray_session):
    """End-to-end: global_percent_rank on a sorted column still matches
    the exact rank (correctness never depended on boundaries; this
    guards the sampling refactor)."""
    import ray.data as rd

    from pystreamfs_ray.stages.rank import global_percent_rank

    n = 1000
    df = pd.DataFrame({"id": np.arange(n, dtype=np.int64),
                       "v": np.sort(np.arange(n, dtype=np.float64))})
    ds = rd.from_pandas(df).repartition(8)
    out = (global_percent_rank(ds, value_col="v", id_col="id")
           .to_pandas().sort_values("id", ignore_index=True))
    want = np.round(np.arange(n) / (n - 1), 6)
    np.testing.assert_allclose(out["pr"].to_numpy(), want)


def test_ivf_recall_on_cluster_sorted_input(ray_session):
    """IVF trains its coarse quantizer on a hash-spread sample; on input
    SORTED BY CLUSTER the old ds.limit() sample saw only one cluster and
    recall collapsed (VERDICT r2 #4). Require ≥0.9 recall@10 vs brute
    force at nprobe=n_cells/2."""
    import ray.data as rd

    from pystreamfs_ray.stages.similarity import brute_force_topk, ivf_topk

    rng = np.random.default_rng(11)
    centers = rng.standard_normal((4, 16)) * 6.0
    rows = []
    vid = 0
    for c in range(4):  # sorted by cluster: all of c0, then c1, ...
        for _ in range(120):
            rows.append((vid, (centers[c] + rng.standard_normal(16)).tolist()))
            vid += 1
    emb = rd.from_pandas(pd.DataFrame(
        {"vec_id": [r[0] for r in rows], "embedding": [r[1] for r in rows]}
    )).repartition(8)
    qids = np.array([0, 150, 300, 450], dtype=np.int64)
    qmat = np.stack([rows[q][1] for q in qids])

    exact = brute_force_topk(emb, qids, qmat, k=10).to_pandas()
    approx = ivf_topk(emb, qids, qmat, k=10, n_cells=8, nprobe=4,
                      train_sample=256).to_pandas()
    hits = 0
    for q in qids:
        e = set(exact[exact["query_id"] == q]["vec_id"])
        a = set(approx[approx["query_id"] == q]["vec_id"])
        hits += len(e & a)
    assert hits / (10 * len(qids)) >= 0.9


def test_memory_metric_in_stats_and_selector(ray_session):
    """The reference records per-window USS (pystreamfs.py:74); the
    engine analog is a per-window RSS probe in both the sequential
    oracle stats dict and the selector output schema (VERDICT r2 #5)."""
    import ray.data as rd

    from pystreamfs_ray.api import plot_data, simulate_stream
    from pystreamfs_ray.stages.selector import run_selector

    rng = np.random.default_rng(0)
    X = rng.standard_normal((200, 6))
    Y = (rng.random(200) > 0.5).astype(np.int8)
    stats = simulate_stream(X, Y, "ofs", {"batch_size": 50, "num_features": 3})
    assert len(stats["memory_measures"]) == 4
    assert all(m > 0 for m in stats["memory_measures"])
    assert stats["memory_avg"] > 0
    assert len(stats["time_measures"]) == 4 and stats["time_avg"] >= 0
    pd_ = plot_data(stats, [f"f{i}" for i in range(6)], {})
    assert pd_["avg_mem"] > 0 and len(pd_["y_mem"]) == 4
    assert pd_["avg_time"] >= 0 and len(pd_["y_time"]) == 4

    feats = pd.DataFrame({
        "conv_id": ["c0"] * 100,
        "turn_idx": np.arange(100, dtype=np.int32),
        "label": Y[:100].astype(np.int8),
        **{f"f{i}": X[:100, i] for i in range(6)},
    })
    out = run_selector(rd.from_pandas(feats), kernel="ofs", batch_size=50,
                       num_features=3,
                       feature_cols=[f"f{i}" for i in range(6)],
                       ts_col=None, num_buckets=2).to_pandas()
    assert "mem_bytes" in out.columns
    assert (out["mem_bytes"] > 0).all()


def test_decontam_threshold_truncates_like_engine():
    """eval_mask_expr inlines int(rate*65536): for rate=0.10 that is
    6553 (truncation), where DuckDB's CAST(0.10*65536 AS UBIGINT)
    ROUNDS to 6554 — the SQL mirror must use the engine's cutoff
    (ADVICE r2)."""
    import duckdb

    from pystreamfs_ray.stages.decontam import _hash_member_mask, eval_mask_expr

    expr = eval_mask_expr("doc_id", 0.10)
    assert "6553" in expr and "6554" not in expr and "CAST(0.1" not in expr

    ids = np.arange(20000, dtype=np.int64)
    engine = _hash_member_mask(ids, 0.10)
    con = duckdb.connect()
    sql = con.execute(
        f"SELECT {expr} FROM (SELECT unnest(range(20000)) AS doc_id)"
    ).df().iloc[:, 0].to_numpy(dtype=bool)
    np.testing.assert_array_equal(engine, sql)


def test_hll_alpha_branches():
    """Flajolet constants: fixed alpha only for m=16/32/64; the
    bias-correction formula for m>=128 (ADVICE r2 had the branch
    inverted, biasing b>=7 estimates ~1% low)."""
    from pystreamfs_ray.stages.sketch import hll_estimate

    # large-range estimate at b=7 (m=128) must use 0.7213/(1+1.079/128)
    m = 128
    regs = pd.DataFrame({"reg": np.arange(m), "rho_max": np.full(m, 10)})
    est = hll_estimate(regs, b=7)
    alpha = 0.7213 / (1 + 1.079 / m)
    want = alpha * m * m / np.sum(np.power(2.0, -np.full(m, 10.0)))
    assert est == pytest.approx(want)
    # and the m=64 fixed constant still applies
    m = 64
    regs = pd.DataFrame({"reg": np.arange(m), "rho_max": np.full(m, 10)})
    est64 = hll_estimate(regs, b=6)
    want64 = 0.709 * m * m / np.sum(np.power(2.0, -np.full(m, 10.0)))
    assert est64 == pytest.approx(want64)


def test_rrf_fuse_semantics():
    """RRF: score = Σ 1/(k+rank); ties break on id; n_lists counts the
    lists that surfaced the id (Cormack & Clarke 2009)."""
    from pystreamfs_ray.stages.index import rrf_fuse

    a = pd.DataFrame({"doc_id": [1, 2, 3], "rank": [1, 2, 3]})
    b = pd.DataFrame({"doc_id": [3, 4], "rank": [1, 2]})
    out = rrf_fuse([a, b], k=60, topk=10)
    # doc 3 appears in both lists: 1/63 + 1/61
    r3 = round(1 / 63 + 1 / 61, 6)
    assert out.iloc[0]["doc_id"] == 3 and out.iloc[0]["rrf"] == r3
    assert out[out["doc_id"] == 3]["n_lists"].iloc[0] == 2
    # docs 1 (rank1, list a) and 4... doc1=1/61 > doc4=1/62 > doc2=1/62? no:
    # doc2 = 1/62 (rank2 in a), doc4 = 1/62 (rank2 in b) → tie → id order
    assert list(out["doc_id"]) == [3, 1, 2, 4]
    assert list(out["rank"]) == [1, 2, 3, 4]


def test_topn_ranked_rounding_ties(ray_session):
    """topn_ranked ranks by (round(score,6) desc, id asc) — the same
    convention as brute_force_topk, so fused ranks are reproducible."""
    import ray.data as rd

    from pystreamfs_ray.stages.index import topn_ranked

    df = pd.DataFrame({"doc_id": [10, 2, 7, 5],
                       "score": [0.1234564, 0.1234561, 0.5, 0.1234567]})
    out = topn_ranked(rd.from_pandas(df), score_col="score", n=4)
    # 0.5 first; 0.1234567→0.123457 next; 0.1234564 and 0.1234561 both
    # round to 0.123456 → tie → id asc (2 before 10)
    assert list(out["doc_id"]) == [7, 5, 2, 10]
    assert list(out["rank"]) == [1, 2, 3, 4]


def test_temperature_mix_semantics(ray_session):
    """T=1 keeps weight proportions; large T flattens all rates toward
    base_rate; membership is a pure function of the key (identical
    kept-set at any parallelism)."""
    import ray.data as rd

    from pystreamfs_ray.sources import temperature_mix, temperature_rates

    w = {"a": 4.0, "b": 1.0}
    r1 = temperature_rates(w, temperature=1.0)
    assert r1["a"] == 1.0 and r1["b"] == pytest.approx(0.25)
    rflat = temperature_rates(w, temperature=100.0)
    assert rflat["b"] > 0.95  # flattened toward base_rate

    n = 4000
    df = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                       "source": np.where(np.arange(n) % 2 == 0, "a", "b")})
    kept2 = temperature_mix(rd.from_pandas(df).repartition(2),
                            "source", "doc_id", w, temperature=2.0).to_pandas()
    kept8 = temperature_mix(rd.from_pandas(df).repartition(8),
                            "source", "doc_id", w, temperature=2.0).to_pandas()
    assert set(kept2["doc_id"]) == set(kept8["doc_id"])  # parallelism-invariant
    frac = kept2["source"].value_counts() / df["source"].value_counts()
    # T=2: r_a = 1.0, r_b = sqrt(1/4) = 0.5 (within hash-sampling noise)
    assert frac["a"] == 1.0
    assert abs(frac["b"] - 0.5) < 0.05


def test_unigram_logprob_paths_match(ray_session, broadcast_paths):
    """Broadcast and join paths of the unigram-LM quality proxy return
    identical (doc, n_tokens, nll); values match a local reference."""
    import ray.data as rd

    from pystreamfs_ray.stages.textstats import unigram_logprob

    docs = pd.DataFrame({
        "doc_id": np.arange(4, dtype=np.int64),
        "text": ["a a b", "b c", "", "c c c a"],
    })
    ds = rd.from_pandas(docs).repartition(2)
    a, b = (unigram_logprob(ds).to_pandas()
            .sort_values("doc_id", ignore_index=True)
            for _ in broadcast_paths())
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)
    # local reference: counts a=3, b=2, c=4, N=9
    import math

    p = {"a": 3 / 9, "b": 2 / 9, "c": 4 / 9}
    want0 = -(2 * math.log(p["a"]) + math.log(p["b"])) / 3
    assert a.loc[a["doc_id"] == 0, "nll"].iloc[0] == round(want0, 6)
    assert 2 not in set(a["doc_id"])  # empty doc omitted
    assert list(a["n_tokens"]) == [3, 2, 4]


def test_cross_source_dup_matrix(ray_session):
    """Overlap matrix counts DISTINCT shared keys per (a<b) source pair,
    regardless of how many rows repeat the key."""
    import ray.data as rd

    from pystreamfs_ray.stages.dedup import cross_source_dup_matrix

    df = pd.DataFrame({
        "text": ["x", "x", "x", "y", "y", "z", "x"],
        "source": ["s1", "s2", "s2", "s1", "s3", "s2", "s3"],
    })
    out = (cross_source_dup_matrix(rd.from_pandas(df), num_buckets=4)
           .to_pandas().sort_values(["source_a", "source_b"],
                                    ignore_index=True))
    want = pd.DataFrame({
        "source_a": ["s1", "s1", "s2"],
        "source_b": ["s2", "s3", "s3"],
        "n_texts": [1, 2, 1],  # x:{s1,s2,s3} → 3 pairs; y:{s1,s3} → 1
    })
    pd.testing.assert_frame_equal(out[want.columns], want, check_dtype=False)


def test_pca_project_matches_numpy(ray_session):
    """Distributed PCA projection equals the local numpy reference with
    the same sign convention, at any partitioning."""
    import ray.data as rd

    from pystreamfs_ray.stages.cluster import pca_project

    rng = np.random.default_rng(13)
    X = rng.standard_normal((300, 6)) @ np.diag([5, 3, 2, 1, 0.5, 0.1])
    df = pd.DataFrame({"vec_id": np.arange(300, dtype=np.int64),
                       "embedding": [r.tolist() for r in X]})
    out = (pca_project(rd.from_pandas(df).repartition(5), k=3)
           .to_pandas().sort_values(["vec_id", "component"],
                                    ignore_index=True))
    # local reference with the identical convention
    mu = X.mean(axis=0)
    cov = (X.T @ X) / len(X) - np.outer(mu, mu)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(-evals, kind="stable")[:3]
    W = evecs[:, order]
    flip = np.sign(W[np.argmax(np.abs(W), axis=0), np.arange(3)])
    P = np.round((X - mu) @ (W * flip), 6)
    got = out["value"].to_numpy().reshape(300, 3)
    np.testing.assert_allclose(got, P, atol=1e-9)


def test_windowed_exact_dedup(ray_session):
    """First occurrence per (text, epoch-anchored window); the same
    text re-enters in a later window."""
    import ray.data as rd

    from pystreamfs_ray.stages.dedup import windowed_exact_dedup

    base = pd.Timestamp("2024-01-01")  # epoch-aligned enough for 1-day windows
    df = pd.DataFrame({
        "event_id": np.arange(5, dtype=np.int64),
        "ts": [base, base + pd.Timedelta(hours=1),       # same day, dup
               base + pd.Timedelta(days=2),              # later window
               base, base + pd.Timedelta(minutes=5)],    # other text
        "text": ["x", "x", "x", "y", "y"],
    })
    out = (windowed_exact_dedup(rd.from_pandas(df), id_col="event_id",
                                text_col="text", ts_col="ts",
                                window_s=86400, num_buckets=4)
           .to_pandas().sort_values("event_id", ignore_index=True))
    # kept: id0 (x, day w), id2 (x, day w+2), id3 (y)
    assert list(out["event_id"]) == [0, 2, 3]
    assert list(out["n_dupes"]) == [2, 1, 2]


def test_round3_empty_input_safety(ray_session):
    """Every round-3 operator returns a clean empty result on an empty
    input instead of crashing (Ray's empty aggregates lose columns)."""
    import ray.data as rd

    from pystreamfs_ray.sources import temperature_mix
    from pystreamfs_ray.stages.dedup import (cross_source_dup_matrix,
                                             windowed_exact_dedup)
    from pystreamfs_ray.stages.index import rrf_fuse, topn_ranked
    from pystreamfs_ray.stages.textstats import unigram_logprob

    docs = rd.from_pandas(pd.DataFrame({
        "doc_id": pd.Series([], dtype=np.int64),
        "text": pd.Series([], dtype=str),
        "source": pd.Series([], dtype=str)}))
    ev = rd.from_pandas(pd.DataFrame({
        "event_id": pd.Series([], dtype=np.int64),
        "ts": pd.Series([], dtype="datetime64[us]"),
        "text": pd.Series([], dtype=str)}))
    scored = rd.from_pandas(pd.DataFrame({
        "doc_id": pd.Series([], dtype=np.int64),
        "score": pd.Series([], dtype=np.float64)}))

    results = [
        unigram_logprob(docs),
        cross_source_dup_matrix(docs),
        windowed_exact_dedup(ev),
        temperature_mix(docs, "source", "doc_id", {"a": 1.0}),
    ]
    for r in results:
        assert r.count() == 0
    top = topn_ranked(scored, score_col="score")
    assert len(top) == 0
    fused = rrf_fuse([top, top.copy()])
    assert len(fused) == 0


def test_embedding_neardup_pair_distinct_vectorized(ray_session):
    """Pair dedup across LSH tables goes through the fixed-bucket
    vectorized distinct — same results as before, no per-pair Python
    group call (VERDICT r2 #3)."""
    import ray.data as rd

    from pystreamfs_ray.stages.dedup import embedding_neardup_pairs

    rng = np.random.default_rng(5)
    base = rng.standard_normal((20, 8))
    vecs = list(base) + [base[i] + rng.standard_normal(8) * 1e-3
                         for i in range(5)]  # 5 obvious near-dups
    ds = rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(len(vecs), dtype=np.int64),
        "embedding": [v.tolist() for v in vecs]}))
    out = embedding_neardup_pairs(ds, threshold=0.99).to_pandas()
    got = set(zip(out["id_a"], out["id_b"]))
    assert {(i, 20 + i) for i in range(5)} <= got
    # distinct: no duplicated pair rows survive the multi-table union
    assert len(out) == len(out.drop_duplicates(["id_a", "id_b"]))
