"""Semantics tests for distributed k-means, the inverted index, exact
NTILE bucketing, and the per-group deterministic sampler."""
import numpy as np
import pandas as pd
import pytest


def test_kmeans_fit_matches_local_lloyd(ray_session):
    """Distributed combiner updates == a plain local Lloyd's run with
    the same deterministic smallest-id init, bit-for-bit per iteration
    count; invariant to partitioning."""
    import ray.data as rd

    from pystreamfs_ray.stages.cluster import kmeans_fit

    rng = np.random.default_rng(7)
    k, d, n = 3, 8, 300
    centers = rng.normal(size=(k, d)) * 4
    X = np.concatenate([centers[i] + rng.normal(size=(n // k, d))
                        for i in range(k)])
    ids = np.arange(n, dtype=np.int64)
    df = pd.DataFrame({"vec_id": ids, "embedding": [r for r in X]})

    # local reference: same init (k smallest ids), same update rule
    C = X[:k].copy()
    for _ in range(5):
        diff = X[:, None, :] - C[None, :, :]
        idx = np.argmin(np.einsum("nkd,nkd->nk", diff, diff), axis=1)
        for c in range(k):
            m = idx == c
            if m.sum():
                C[c] = X[m].sum(axis=0) / m.sum()

    got = kmeans_fit(rd.from_pandas(df).repartition(4), k, iters=5,
                     batch_size=64)
    # partial-sum order differs from the local single sum → allclose
    np.testing.assert_allclose(got, C, rtol=1e-12, atol=1e-12)


def test_kmeans_assign_tie_breaks_to_smallest_cid(ray_session):
    import ray.data as rd

    from pystreamfs_ray.stages.cluster import kmeans_assign

    # two identical centroids: every vector is equidistant → cid 10 wins
    C = np.array([[1.0, 0.0], [1.0, 0.0]])
    df = pd.DataFrame({"vec_id": [0, 1],
                       "embedding": [[0.0, 0.0], [2.0, 2.0]]})
    out = (kmeans_assign(rd.from_pandas(df), [10, 20], C)
           .to_pandas().sort_values("vec_id", ignore_index=True))
    assert out["cid"].tolist() == [10, 10]


def test_inverted_index_postings(ray_session):
    import ray.data as rd

    from pystreamfs_ray.stages.index import inverted_index

    df = pd.DataFrame({
        "doc_id": np.array([5, 3, 9], dtype=np.int64),
        "text": ["cat dog  cat", "dog fish", "fish dog cat"],
    })
    out = (inverted_index(rd.from_pandas(df).repartition(3), min_df=2)
           .to_pandas().sort_values("term", ignore_index=True))
    # 'fish' df=2, 'cat' df=2 (dup within doc 5 collapses), 'dog' df=3
    assert out["term"].tolist() == ["cat", "dog", "fish"]
    assert out["df"].tolist() == [2, 3, 2]
    assert out["postings"].tolist() == ["5,9", "3,5,9", "3,9"]
    # min_df drops singletons entirely
    only = inverted_index(rd.from_pandas(df), min_df=4).to_pandas()
    assert len(only) == 0


def test_global_ntile_matches_sql(ray_session):
    """Exact NTILE(n) OVER (ORDER BY v, id) — uneven buckets, ties,
    partition-count invariance."""
    import duckdb
    import ray.data as rd

    from pystreamfs_ray.stages.rank import global_ntile

    rng = np.random.default_rng(3)
    df = pd.DataFrame({"id": np.arange(103, dtype=np.int64),
                       "v": rng.integers(0, 12, size=103).astype(np.float64)})
    want = duckdb.sql(
        "SELECT id, CAST(NTILE(7) OVER (ORDER BY v, id) AS BIGINT) AS bucket "
        "FROM df").df().sort_values("id", ignore_index=True)
    for nparts in (1, 5):
        got = (global_ntile(rd.from_pandas(df).repartition(4), 7,
                            value_col="v", id_col="id",
                            num_partitions=nparts)
               .to_pandas().sort_values("id", ignore_index=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sample_n_per_group_deterministic(ray_session):
    import ray.data as rd

    from pystreamfs_ray.sources import sample_n_per_group

    df = pd.DataFrame({
        "g": np.repeat(["a", "b"], 50),
        "id": np.arange(100, dtype=np.int64),
    })

    def run(n, nparts):
        return (sample_n_per_group(rd.from_pandas(df).repartition(nparts),
                                   "g", "id", n)
                .to_pandas().sort_values("id", ignore_index=True))

    s3a, s3b = run(3, 2), run(3, 7)
    pd.testing.assert_frame_equal(s3a, s3b)          # parallelism-invariant
    assert s3a.groupby("g").size().tolist() == [3, 3]  # exact n per group
    s5 = run(5, 4)
    assert set(map(tuple, s3a.values)) <= set(map(tuple, s5.values))  # nested


def test_label_centroids_known_values(ray_session):
    import ray.data as rd

    from pystreamfs_ray.stages.cluster import label_centroids

    df = pd.DataFrame({
        "label": np.array([0, 0, 1], dtype=np.int64),
        "embedding": [[1.0, 3.0], [3.0, 5.0], [10.0, -2.0]],
    })
    out = label_centroids(rd.from_pandas(df).repartition(3))
    assert out[["label", "dim"]].values.tolist() == [[0, 1], [0, 2],
                                                     [1, 1], [1, 2]]
    assert out["c"].tolist() == [2.0, 4.0, 10.0, -2.0]


def test_grouped_corr_matches_numpy(ray_session):
    import ray.data as rd

    from pystreamfs_ray.stages.grouped import grouped_corr

    rng = np.random.default_rng(5)
    x = rng.normal(size=200)
    df = pd.DataFrame({
        "g": np.repeat(["a", "b"], 100),
        "x": x,
        "y": np.concatenate([2 * x[:100] + rng.normal(size=100) * 0.1,
                             rng.normal(size=100)]),
    })
    out = (grouped_corr(rd.from_pandas(df).repartition(4), "g", "x", "y")
           .to_pandas().sort_values("g", ignore_index=True))
    for i, g in enumerate(["a", "b"]):
        sub = df[df["g"] == g]
        want = round(float(np.corrcoef(sub["x"], sub["y"])[0, 1]), 6)
        assert out.loc[i, "r"] == pytest.approx(want, abs=1e-6)
    # zero-variance side -> null
    cdf = pd.DataFrame({"g": ["c"] * 5, "x": [1.0] * 5,
                        "y": [1.0, 2.0, 3.0, 4.0, 5.0]})
    z = grouped_corr(rd.from_pandas(cdf), "g", "x", "y").to_pandas()
    assert z["r"].isna().all()


def test_pmi_bigrams_known_counts(ray_session):
    import ray.data as rd

    from pystreamfs_ray.stages.textstats import pmi_bigrams

    # "a b" twice (never across the doc seam), tokens N=6, bigrams M=4
    df = pd.DataFrame({"text": ["a b a", "b a b"]})
    out = (pmi_bigrams(rd.from_pandas(df).repartition(2), min_count=2)
           .to_pandas().sort_values(["w1", "w2"], ignore_index=True))
    assert out[["w1", "w2"]].values.tolist() == [["a", "b"], ["b", "a"]]
    assert out["c"].tolist() == [2, 2]
    want = round(float(np.log(2 * 6 * 6 / (4 * 3 * 3))), 6)
    assert out["pmi"].tolist() == [want, want]


def test_pmi_bigrams_broadcasts_unigrams_once(ray_session, monkeypatch,
                                             broadcast_paths):
    """The unigram table is put once, as the lookup's sorted keys plus
    Arrow count rows — no per-entry Python dict — and both w1 and w2
    probe that one copy."""
    import ray
    import ray.data as rd

    from pystreamfs_ray.stages.textstats import pmi_bigrams

    put = ray.put
    puts = []

    def spy(obj, *args, **kwargs):
        puts.append(obj)
        return put(obj, *args, **kwargs)

    monkeypatch.setattr(ray, "put", spy)
    df = pd.DataFrame({"text": ["a b a", "b a b"]})
    for _ in broadcast_paths("broadcast"):
        out = pmi_bigrams(rd.from_pandas(df).repartition(2),
                          min_count=2).to_pandas()
    assert len(out) == 2
    assert not any(isinstance(o, dict) for o in puts)
    (keys, _, counts), = [o for o in puts if isinstance(o, tuple)]
    assert list(keys) == ["a", "b"]
    assert counts["cu"].to_pylist() == [3, 3]


def test_feature_hash_slots_and_counts(ray_session):
    import duckdb
    import ray.data as rd

    from pystreamfs_ray.stages.textstats import feature_hash

    df = pd.DataFrame({"doc_id": np.array([1, 2], dtype=np.int64),
                       "text": ["a b a c", "b  b"]})
    out = (feature_hash(rd.from_pandas(df).repartition(2), num_buckets=8)
           .to_pandas().sort_values(["doc_id", "bucket"], ignore_index=True))
    want = duckdb.sql("""
        WITH toks AS (SELECT doc_id,
               unnest(regexp_extract_all(text, '\\S+')) AS w FROM df)
        SELECT doc_id, CAST(md5_number_lower(w) % 8 AS BIGINT) AS bucket,
               COUNT(*) AS n
        FROM toks GROUP BY doc_id, bucket ORDER BY doc_id, bucket
    """).df()
    pd.testing.assert_frame_equal(out, want, check_dtype=False)
    # doc 1 has 4 tokens total across its slots; doc 2 has 2
    assert out.groupby("doc_id")["n"].sum().tolist() == [4, 2]


def test_impute_group_mean(ray_session):
    import ray.data as rd

    from pystreamfs_ray.stages.grouped import impute_group_mean

    df = pd.DataFrame({
        "id": np.arange(6, dtype=np.int64),
        "g": ["a", "a", "a", "b", "b", "c"],
        "v": [1.0, np.nan, 3.0, np.nan, 8.0, np.nan],
    })
    out = (impute_group_mean(rd.from_pandas(df).repartition(3), "g", "v",
                             id_col="id", out_col="v")
           .to_pandas().sort_values("id", ignore_index=True))
    # a: null -> mean(1,3)=2; b: null -> 8; c: all-null stays null
    assert out["v"].tolist()[:5] == [1.0, 2.0, 3.0, 8.0, 8.0]
    assert np.isnan(out["v"].iloc[5])


def test_target_encode_loo(ray_session):
    import ray.data as rd

    from pystreamfs_ray.stages.grouped import target_encode_loo

    df = pd.DataFrame({
        "id": np.arange(5, dtype=np.int64),
        "g": ["a", "a", "a", "b", "c"],
        "v": [1.0, 2.0, 6.0, 4.0, 9.0],
    })
    out = (target_encode_loo(rd.from_pandas(df).repartition(3), "g", "v",
                             id_col="id")
           .to_pandas().sort_values("id", ignore_index=True))
    # a: (9-1)/2=4, (9-2)/2=3.5, (9-6)/2=1.5; singletons b, c -> null
    assert out["enc"].tolist()[:3] == [4.0, 3.5, 1.5]
    assert out["enc"].iloc[3:].isna().all()


def test_embedding_covariance_matches_numpy(ray_session):
    import ray.data as rd

    from pystreamfs_ray.stages.cluster import embedding_covariance

    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 3))
    df = pd.DataFrame({"embedding": [r for r in X]})
    out = embedding_covariance(rd.from_pandas(df).repartition(4))
    want = np.cov(X.T, bias=True)
    got = out["cov"].to_numpy().reshape(3, 3)
    np.testing.assert_allclose(got, np.round(want, 6), atol=2e-6)
    assert out[["i", "j"]].values.tolist()[:4] == [[1, 1], [1, 2], [1, 3],
                                                   [2, 1]]


def test_target_encode_fixed_point(ray_session):
    """scale=100 (cents) path: integer round-half-up, exact."""
    import ray.data as rd

    from pystreamfs_ray.stages.grouped import target_encode_loo

    df = pd.DataFrame({
        "id": np.arange(4, dtype=np.int64),
        "g": ["a", "a", "a", "b"],
        "v": [0.01, 0.02, 0.04, 1.0],
    })
    out = (target_encode_loo(rd.from_pandas(df).repartition(2), "g", "v",
                             id_col="id", out_col="enc_cents", scale=100)
           .to_pandas().sort_values("id", ignore_index=True))
    # a (cents sum 7): (7-1)/2 = 3; (7-2)/2 = 2.5 -> half-up 3;
    # (7-4)/2 = 1.5 -> half-up 2; b singleton -> null
    assert out["enc_cents"].tolist()[:3] == [3, 3, 2]
    assert pd.isna(out["enc_cents"].iloc[3])


def test_ncm_confusion_separable(ray_session):
    """Well-separated classes give a diagonal confusion matrix; a
    planted near-other-centroid vector lands off-diagonal."""
    import ray.data as rd

    from pystreamfs_ray.stages.cluster import ncm_confusion

    rng = np.random.default_rng(21)
    a = rng.normal(size=(20, 4)) * 0.05 + np.array([5.0, 0, 0, 0])
    b = rng.normal(size=(20, 4)) * 0.05 + np.array([0, 5.0, 0, 0])
    stray = np.array([[0, 4.9, 0, 0]])  # labeled 0, sits on b's centroid
    X = np.concatenate([a, b, stray])
    df = pd.DataFrame({
        "label": np.array([0] * 20 + [1] * 20 + [0], dtype=np.int64),
        "embedding": [r for r in X],
    })
    out = (ncm_confusion(rd.from_pandas(df).repartition(4))
           .to_pandas().sort_values(["label", "pred"], ignore_index=True))
    got = {(r.label, r.pred): r.n for r in out.itertuples()}
    assert got[(0, 0)] == 20 and got[(1, 1)] == 20 and got[(0, 1)] == 1


def test_group_minmax_scale(ray_session):
    import ray.data as rd

    from pystreamfs_ray.stages.grouped import group_minmax_scale

    df = pd.DataFrame({
        "id": np.arange(5, dtype=np.int64),
        "g": ["a", "a", "a", "b", "b"],
        "v": [10.0, 20.0, 30.0, 7.0, 7.0],
    })
    out = (group_minmax_scale(rd.from_pandas(df).repartition(3), "g", "v",
                              id_col="id")
           .to_pandas().sort_values("id", ignore_index=True))
    assert out["mm"].tolist()[:3] == [0.0, 0.5, 1.0]
    assert out["mm"].iloc[3:].isna().all()  # constant group -> null


def test_group_robust_zscore(ray_session):
    import ray.data as rd

    from pystreamfs_ray.stages.grouped import group_robust_zscore

    # g=a: median 3, residuals |1-3|,|3-3|,|7-3| = [2,0,4] -> MAD 2
    df = pd.DataFrame({
        "id": np.arange(4, dtype=np.int64),
        "g": ["a", "a", "a", "b"],
        "v": [1.0, 3.0, 7.0, 5.0],
    })
    out = (group_robust_zscore(rd.from_pandas(df).repartition(2), "g", "v",
                               id_col="id")
           .to_pandas().sort_values("id", ignore_index=True))
    assert out["rz"].tolist()[:3] == [-1.0, 0.0, 2.0]
    assert pd.isna(out["rz"].iloc[3])  # singleton: MAD 0 -> null


def test_normalize_text(ray_session):
    import ray.data as rd

    from pystreamfs_ray.stages.textstats import normalize_text

    df = pd.DataFrame({"doc_id": np.array([1, 2], dtype=np.int64),
                       "text": ["  Hello\t\tWORLD \n", " \t "]})
    out = (normalize_text(rd.from_pandas(df))
           .to_pandas().sort_values("doc_id", ignore_index=True))
    assert out["text_norm"].tolist() == ["hello world", ""]


def test_table_audit_counts(ray_session):
    import ray.data as rd

    from pystreamfs_ray.stages.audit import table_audit

    df = pd.DataFrame({
        "k": [1, 2, 2, 3, 3, 3, None],
        "v": [5.0, -1.0, 2.0, np.nan, 0.5, 9.0, 1.0],
    })
    out = table_audit(rd.from_pandas(df).repartition(3), key_col="k",
                      numeric_col="v", min_value=0.0)
    row = out.iloc[0]
    assert row["n_rows"] == 7
    assert row["n_dup_keys"] == 2        # keys 2 and 3
    assert row["n_null_key"] == 1
    assert row["n_null_num"] == 1
    assert row["n_below_min"] == 1       # -1.0
    assert row["min_num"] == -1.0 and row["max_num"] == 9.0


def test_budget_sample_greedy_and_nested(ray_session):
    """Admission stops at the budget, is parallelism-invariant, and a
    bigger budget admits a superset."""
    import ray.data as rd

    from pystreamfs_ray.sources import budget_sample

    df = pd.DataFrame({
        "g": ["a"] * 6 + ["b"] * 2,
        "id": np.arange(8, dtype=np.int64),
        "w": [40, 40, 40, 40, 40, 40, 100, 100],
    })

    def run(budget, nparts):
        return (budget_sample(rd.from_pandas(df).repartition(nparts),
                              "g", "id", "w", budget, num_buckets=4)
                .to_pandas().sort_values("id", ignore_index=True))

    s1, s2 = run(120, 2), run(120, 5)
    pd.testing.assert_frame_equal(s1, s2)
    assert s1[s1["g"] == "a"]["w"].sum() <= 120   # 3 of the 40s
    assert len(s1[s1["g"] == "a"]) == 3
    assert len(s1[s1["g"] == "b"]) == 1           # one 100 fits, two don't
    big = run(240, 3)
    assert set(s1["id"]) <= set(big["id"])        # nested in larger budget


def test_hll_by_type_matches_global_per_group(ray_session):
    """Per-group registers estimate each group's distinct count within
    HLL error, and equal the single-group registers computed alone."""
    import ray.data as rd

    from pystreamfs_ray.stages.sketch import (hll_estimate, hll_registers,
                                              hll_registers_by)

    rng = np.random.default_rng(17)
    df = pd.DataFrame({
        "g": np.repeat(["a", "b"], 2000),
        "v": np.concatenate([rng.integers(0, 300, 2000),
                             rng.integers(0, 40, 2000)]),
    })
    regs = (hll_registers_by(rd.from_pandas(df).repartition(4), "g", "v")
            .to_pandas())
    for g, true_n in (("a", df[df.g == "a"]["v"].nunique()),
                      ("b", df[df.g == "b"]["v"].nunique())):
        sub = regs[regs["g"] == g][["reg", "rho_max"]]
        est = hll_estimate(sub)
        assert abs(est - true_n) / true_n < 0.35
        solo = (hll_registers(
            rd.from_pandas(df[df.g == g][["v"]]), "v").to_pandas()
            .sort_values("reg", ignore_index=True))
        pd.testing.assert_frame_equal(
            sub.sort_values("reg", ignore_index=True), solo)


def test_bm25_single_doc_formula(ray_session):
    import ray.data as rd

    from pystreamfs_ray.stages.index import bm25_scores

    # 3 docs, query 'cat': df=2, N=3, avgdl=(2+2+2)/3=2
    df = pd.DataFrame({"doc_id": np.array([1, 2, 3], dtype=np.int64),
                       "text": ["cat cat", "cat dog", "dog dog"]})
    out = (bm25_scores(rd.from_pandas(df).repartition(2), ["cat"])
           .to_pandas().sort_values("doc_id", ignore_index=True))
    idf = np.log((3 - 2 + 0.5) / (2 + 0.5) + 1)
    def s(tf):
        return round(idf * tf * 2.2 / (tf + 1.2 * (0.25 + 0.75 * 1.0)), 6)
    assert out["doc_id"].tolist() == [1, 2]      # doc 3 scores 0 -> dropped
    assert out["score"].tolist() == [s(2), s(1)]
    assert out["score"].iloc[0] > out["score"].iloc[1]  # tf saturation


def test_empty_input_safety(ray_session):
    """Every round-2 operator returns a clean empty result on an empty
    corpus instead of crashing (Ray's empty aggregates lose columns)."""
    import ray.data as rd

    from pystreamfs_ray.sources import budget_sample, sample_n_per_group
    from pystreamfs_ray.stages.grouped import (group_minmax_scale,
                                               group_zscore,
                                               impute_group_mean,
                                               target_encode_loo)
    from pystreamfs_ray.stages.index import bm25_scores, inverted_index
    from pystreamfs_ray.stages.rank import global_ntile, global_percent_rank
    from pystreamfs_ray.stages.temporal import first_seen_counts, funnel_counts
    from pystreamfs_ray.stages.textstats import (feature_hash, normalize_text,
                                                 pmi_bigrams)

    docs = rd.from_pandas(pd.DataFrame({
        "doc_id": pd.Series([], dtype=np.int64),
        "text": pd.Series([], dtype=str),
        "source": pd.Series([], dtype=str)}))
    vals = rd.from_pandas(pd.DataFrame({
        "id": pd.Series([], dtype=np.int64),
        "g": pd.Series([], dtype=str),
        "v": pd.Series([], dtype=np.float64)}))
    ev = rd.from_pandas(pd.DataFrame({
        "user_id": pd.Series([], dtype=np.int64),
        "ts": pd.Series([], dtype="datetime64[us]"),
        "event_type": pd.Series([], dtype=str)}))

    results = [
        global_percent_rank(vals, value_col="v", id_col="id"),
        global_ntile(vals, 5, value_col="v", id_col="id"),
        group_zscore(vals, "g", "v", id_col="id"),
        impute_group_mean(vals, "g", "v", id_col="id"),
        target_encode_loo(vals, "g", "v", id_col="id"),
        target_encode_loo(vals, "g", "v", id_col="id", scale=100),
        group_minmax_scale(vals, "g", "v", id_col="id"),
        inverted_index(docs),
        bm25_scores(docs, ["cat"]),
        feature_hash(docs),
        pmi_bigrams(docs),
        normalize_text(docs),
        sample_n_per_group(docs, "source", "doc_id", 3),
        first_seen_counts(ev),
        funnel_counts(ev, ["view", "click"]),
    ]
    for r in results:
        n = len(r) if isinstance(r, pd.DataFrame) else r.count()
        assert n == 0


def test_hist_registers_by_matches_manual(ray_session):
    """Per-group registers reproduce each group's exact bin counts and
    are layout-invariant; degenerate (constant) groups bin to 0."""
    import ray.data as rd

    from pystreamfs_ray.stages.sketch import hist_registers_by

    rng = np.random.default_rng(23)
    df = pd.DataFrame({
        "g": np.repeat(["a", "b", "c"], 100),
        "v": np.concatenate([rng.uniform(0, 10, 100),
                             rng.uniform(5, 50, 100),
                             np.full(100, 7.0)]),   # constant group
    })

    def manual(sub, bins=8):
        lo, hi = sub.min(), sub.max()
        if hi <= lo:
            hi = lo + 1.0
        b = np.clip(np.floor((sub - lo) * bins / (hi - lo)).astype(np.int64),
                    0, bins - 1)
        return pd.Series(b).value_counts().sort_index()

    for nparts in (2, 5):
        regs, bounds = hist_registers_by(
            rd.from_pandas(df).repartition(nparts), "g", "v", bins=8)
        got = regs.to_pandas().sort_values(["g", "bin"], ignore_index=True)
        for g in ("a", "b", "c"):
            want = manual(df[df.g == g]["v"].to_numpy())
            sub = got[got.g == g]
            assert sub["bin"].tolist() == want.index.tolist()
            assert sub["n"].tolist() == want.values.tolist()
    # constant group: single bin 0 with all rows
    c = got[got.g == "c"]
    assert c["bin"].tolist() == [0] and c["n"].tolist() == [100]


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_grouped_ops_randomized_vs_duckdb(ray_session, seed):
    """Randomized cross-check of the grouped feature-engineering
    operators against DuckDB on data with ties, skewed groups, and a
    singleton — catches tie/null handling a fixed fixture can miss."""
    import duckdb
    import ray.data as rd

    from pystreamfs_ray.stages.grouped import (group_minmax_scale,
                                               group_zscore, grouped_corr,
                                               target_encode_loo)

    rng = np.random.default_rng(seed)
    n = 300
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "g": rng.choice(["a", "b", "c", "solo"], p=[0.5, 0.3, 0.19, 0.01],
                        size=n),
        "v": rng.integers(0, 20, size=n).astype(np.float64),  # heavy ties
        "y": rng.normal(size=n).round(3),
    })
    ds = rd.from_pandas(df).repartition(4)
    con = duckdb.connect()
    con.register("t", df)

    z = (group_zscore(ds, "g", "v", id_col="id").to_pandas()
         .sort_values("id", ignore_index=True))
    wz = con.execute("""
        SELECT id, ROUND((v - AVG(v) OVER (PARTITION BY g))
               / NULLIF(STDDEV_POP(v) OVER (PARTITION BY g), 0), 6) AS z
        FROM t ORDER BY id""").df()
    pd.testing.assert_frame_equal(z, wz, check_dtype=False)

    mm = (group_minmax_scale(ds, "g", "v", id_col="id").to_pandas()
          .sort_values("id", ignore_index=True))
    wmm = con.execute("""
        SELECT id, ROUND((v - MIN(v) OVER (PARTITION BY g))
               / NULLIF(CAST(MAX(v) OVER (PARTITION BY g)
                             - MIN(v) OVER (PARTITION BY g) AS DOUBLE), 0),
               6) AS mm
        FROM t ORDER BY id""").df()
    pd.testing.assert_frame_equal(mm, wmm, check_dtype=False)

    r = (grouped_corr(ds, "g", "v", "y").to_pandas()
         .sort_values("g", ignore_index=True))
    wr = con.execute("""
        SELECT g, ROUND(corr(v, y), 6) AS r FROM t GROUP BY g ORDER BY g
    """).df()
    # corr to 1e-6 (sum-order differences below the rounding digit)
    assert r["g"].tolist() == wr["g"].tolist()
    np.testing.assert_allclose(r["r"].to_numpy(np.float64),
                               wr["r"].to_numpy(np.float64), atol=2e-6)

    enc = (target_encode_loo(ds, "g", "v", id_col="id", out_col="e",
                             scale=1).to_pandas()
           .sort_values("id", ignore_index=True))
    wenc = con.execute("""
        WITH s AS (SELECT id, CAST(v AS BIGINT) AS vc,
                   CAST(SUM(CAST(v AS BIGINT)) OVER (PARTITION BY g)
                        AS BIGINT) AS sc,
                   COUNT(*) OVER (PARTITION BY g) AS n FROM t)
        SELECT id, CASE WHEN n > 1 THEN
          (2*(sc - vc) + (n-1)) // (2*(n-1)) END AS e
        FROM s ORDER BY id""").df()
    pd.testing.assert_frame_equal(enc.astype({"e": "Int64"}),
                                  wenc.astype({"e": "Int64"}),
                                  check_dtype=False)


def test_hist_quantile_by_within_bin_error(ray_session):
    """Grouped sketch quantiles land within one bin width of exact."""
    import ray.data as rd

    from pystreamfs_ray.stages.sketch import hist_quantile_by, hist_registers_by

    rng = np.random.default_rng(31)
    df = pd.DataFrame({
        "g": np.repeat(["a", "b"], 500),
        "v": np.concatenate([rng.uniform(0, 100, 500),
                             rng.normal(500, 50, 500)]),
    })
    regs, bounds = hist_registers_by(rd.from_pandas(df).repartition(3),
                                     "g", "v", bins=64)
    out = hist_quantile_by(regs.to_pandas(), bounds, "g", [0.25, 0.5, 0.9],
                           bins=64)
    for g in ("a", "b"):
        sub = df[df.g == g]["v"].to_numpy()
        width = (sub.max() - sub.min()) / 64
        for q, col in ((0.25, "q25"), (0.5, "q50"), (0.9, "q90")):
            exact = np.quantile(sub, q)
            got = float(out[out.g == g][col].iloc[0])
            assert abs(got - exact) <= width + 1e-9


def test_cms_registers_by_matches_solo(ray_session):
    """Per-group CMS registers equal the single-group sketch computed
    alone, and point estimates never underestimate."""
    import ray.data as rd

    from pystreamfs_ray.stages.sketch import (cms_estimate, cms_registers,
                                              cms_registers_by)

    rng = np.random.default_rng(13)
    df = pd.DataFrame({
        "g": np.repeat(["a", "b"], 1000),
        "v": np.concatenate([rng.integers(0, 50, 1000),
                             rng.integers(0, 10, 1000)]),
    })
    regs = (cms_registers_by(rd.from_pandas(df).repartition(4), "g", "v",
                             depth=4, width=128).to_pandas())
    for g in ("a", "b"):
        sub = (regs[regs["g"] == g][["r", "cell", "n"]]
               .sort_values(["r", "cell"], ignore_index=True))
        solo = (cms_registers(rd.from_pandas(df[df.g == g][["v"]]), "v",
                              depth=4, width=128).to_pandas()
                .sort_values(["r", "cell"], ignore_index=True))
        pd.testing.assert_frame_equal(sub, solo)
        true = df[df.g == g]["v"].value_counts()
        est = cms_estimate(sub, true.index.to_numpy(), depth=4, width=128)
        assert (np.asarray(est) >= true.to_numpy()).all()
