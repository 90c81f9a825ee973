"""Dedup / similarity / text-analysis / multimodal operator tests."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pystreamfs_ray.stages import dedup as D
from pystreamfs_ray.stages import multimodal as M
from pystreamfs_ray.stages import similarity as S
from pystreamfs_ray.stages import textstats as T

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def docs_with_dups() -> pa.Table:
    """50 base docs + exact dups + near-dups (few words changed)."""
    rng = np.random.default_rng(17)
    vocab = [f"tok{i}" for i in range(80)]
    base = [" ".join(rng.choice(vocab, size=40)) for _ in range(50)]
    texts, ids = [], []
    i = 0
    for b in base:
        texts.append(b); ids.append(i); i += 1
    for b in base[:10]:  # exact duplicates
        texts.append(b); ids.append(i); i += 1
    for b in base[10:20]:  # near-duplicates: change 2 of 40 words
        w = b.split(); w[5] = "CHANGED"; w[20] = "ALSO"
        texts.append(" ".join(w)); ids.append(i); i += 1
    return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                     "text": pa.array(texts, type=pa.string())})


def test_exact_dedup(ray_session, docs_with_dups):
    import ray.data as rd

    out = D.exact_dedup(rd.from_arrow(docs_with_dups)).to_pandas()
    assert len(out) == 60  # 50 distinct base + 10 near-dups
    dup_rows = out[out["n_dupes"] == 2]
    assert len(dup_rows) == 10
    assert (dup_rows["doc_id"] < 50).all()  # keeper is the smallest id


def test_minhash_join_path_equals_broadcast(ray_session, docs_with_dups,
                                            broadcast_paths):
    """The hash-join verification (scale path) == the broadcast path."""
    import ray.data as rd

    a, b = (D.minhash_lsh_pairs(rd.from_arrow(docs_with_dups),
                                threshold=0.5).to_pandas()
            for _ in broadcast_paths())
    key = ["id_a", "id_b"]
    a = a.sort_values(key, ignore_index=True)
    b = b.sort_values(key, ignore_index=True)
    assert len(a) == len(b)
    assert (a[key].to_numpy() == b[key].to_numpy()).all()
    assert (a["jaccard_est"].to_numpy() == b["jaccard_est"].to_numpy()).all()


def test_minhash_lsh_near_dups(ray_session, docs_with_dups):
    import ray.data as rd

    pairs = D.minhash_lsh_pairs(
        rd.from_arrow(docs_with_dups), threshold=0.5
    ).to_pandas()
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    # all 10 exact-dup pairs (jaccard 1.0) must be found
    for j, orig in enumerate(range(0, 10)):
        assert (orig, 50 + j) in got
    # near-dup pairs (2/40 words changed → high jaccard) mostly found
    near_found = sum((orig, 60 + j) in got for j, orig in enumerate(range(10, 20)))
    assert near_found >= 8
    # estimates are sane vs exact n-gram jaccard
    texts = docs_with_dups["text"].to_pylist()
    for _, r in pairs.iterrows():
        exact = D.ngram_jaccard(texts[int(r.id_a)], texts[int(r.id_b)], 3)
        assert abs(r.jaccard_est - exact) < 0.25


def test_simhash_pairs(ray_session, docs_with_dups):
    import ray.data as rd

    pairs = D.simhash_pairs(rd.from_arrow(docs_with_dups),
                            max_hamming=6).to_pandas()
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    for j, orig in enumerate(range(0, 10)):
        assert (orig, 50 + j) in got  # exact dups → hamming 0
    ham0 = pairs[pairs["hamming"] == 0]
    assert len(ham0) >= 10


def test_embedding_neardup_and_ann(ray_session):
    import ray.data as rd

    emb = rd.read_parquet(f"{SF}/embeddings.parquet")
    pdf = emb.to_pandas()
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in pdf["embedding"]])
    nmat = mat / np.linalg.norm(mat, axis=1, keepdims=True)

    # brute-force top-k vs numpy oracle
    qids = pdf["vec_id"].to_numpy()[:5]
    qmat = mat[:5]
    out = S.brute_force_topk(emb, qids, qmat, k=10).to_pandas()
    sims = (qmat / np.linalg.norm(qmat, axis=1, keepdims=True)) @ nmat.T
    for qi, qid in enumerate(qids):
        mine = out[out.query_id == qid].sort_values("rank")["vec_id"].to_numpy()
        order = np.lexsort((pdf["vec_id"].to_numpy(), -np.round(sims[qi], 6)))
        want = pdf["vec_id"].to_numpy()[order][:10]
        assert list(mine) == list(want), f"query {qid}"

    # IVF recall vs brute force
    ivf = S.ivf_topk(emb, qids, qmat, k=10, n_cells=8, nprobe=3).to_pandas()
    recalls = []
    for qid in qids:
        bf = set(out[out.query_id == qid]["vec_id"])
        iv = set(ivf[ivf.query_id == qid]["vec_id"])
        recalls.append(len(bf & iv) / 10)
    assert np.mean(recalls) >= 0.5, recalls

    # LSH near-dup: self-pairs excluded, found pairs verified ≥ threshold
    dup = pdf.head(3).copy()
    dup["vec_id"] = dup["vec_id"] + 10_000  # exact duplicate vectors
    both = rd.from_arrow(pa.Table.from_pandas(pd.concat([pdf, dup]), preserve_index=False))
    pairs = D.embedding_neardup_pairs(both, threshold=0.99).to_pandas()
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    for v in dup["vec_id"]:
        assert (v - 10_000, v) in got
    assert (pairs["cosine"] >= 0.99).all()


def test_semantic_dedup_query(ray_session):
    """q_semantic_dedup: the 5 probe duplicates (vec_id >= 1_000_000)
    must be dropped (keep-first), every other id must survive."""
    from pystreamfs_ray.pipelines.queries import q_semantic_dedup

    kept = q_semantic_dedup(SF).to_pandas()["vec_id"].to_numpy()
    n_orig = pd.read_parquet(f"{SF}/embeddings.parquet").shape[0]
    assert not (kept >= 1_000_000).any()  # all probes dropped
    assert len(kept) == n_orig  # nothing else near-duplicated at 0.95


def test_connected_components(ray_session):
    import pyarrow as pa_
    import ray.data as rd

    # components: {1,2,3,4} (chain), {10,11}, {20,21,22} (star on 21)
    pairs = pa_.table({
        "id_a": pa_.array([1, 2, 3, 10, 21, 21], type=pa_.int64()),
        "id_b": pa_.array([2, 3, 4, 11, 20, 22], type=pa_.int64()),
    })
    out = D.connected_components(rd.from_arrow(pairs)).to_pandas()
    got = dict(zip(out["node"], out["component"]))
    assert got == {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10, 20: 20, 21: 20, 22: 20}


def test_connected_components_long_chain(ray_session):
    """30-hop chain: pointer doubling must converge well inside
    max_rounds (the old propagate-only loop silently capped at 12)."""
    import pyarrow as pa_
    import ray.data as rd

    n = 31  # diameter 30 chain 0-1-...-30
    pairs = pa_.table({
        "id_a": pa_.array(list(range(n - 1)), type=pa_.int64()),
        "id_b": pa_.array(list(range(1, n)), type=pa_.int64()),
    })
    out = D.connected_components(rd.from_arrow(pairs), max_rounds=8).to_pandas()
    got = dict(zip(out["node"], out["component"]))
    assert got == {i: 0 for i in range(n)}


def test_connected_components_warns_on_round_cap(ray_session,
                                                 broadcast_paths):
    import pyarrow as pa_
    import ray.data as rd

    n = 9  # diameter 8 — one doubling round can't finish
    pairs = pa_.table({
        "id_a": pa_.array(list(range(n - 1)), type=pa_.int64()),
        "id_b": pa_.array(list(range(1, n)), type=pa_.int64()),
    })
    # the round cap applies to the distributed loop; pin it on — the
    # driver path always converges
    for _ in broadcast_paths("shuffle"):
        with pytest.warns(RuntimeWarning, match="still converging"):
            D.connected_components(rd.from_arrow(pairs),
                                   max_rounds=1).to_pandas()


def test_connected_components_driver_vs_distributed(ray_session,
                                                    broadcast_paths):
    """The size-gated driver fast path computes the identical labeling
    to the distributed min-label loop on a random multi-component
    graph (and on string node ids, where min-index must equal
    lexicographic min-value)."""
    import pyarrow as pa_
    import ray.data as rd

    rng = np.random.default_rng(17)
    # ~60 components of random sizes with random internal edges
    ia, ib = [], []
    base = 0
    for size in rng.integers(1, 40, size=60):
        size = int(size)
        if size >= 2:
            # spanning chain + extra random intra-component edges
            perm = base + rng.permutation(size)
            ia.extend(perm[:-1]); ib.extend(perm[1:])
            extra = rng.integers(0, size, size=(size // 2, 2)) + base
            ia.extend(extra[:, 0]); ib.extend(extra[:, 1])
        base += size
    m = np.array(ia) != np.array(ib)
    pairs = pa_.table({"id_a": pa_.array(np.array(ia)[m], type=pa_.int64()),
                       "id_b": pa_.array(np.array(ib)[m], type=pa_.int64())})
    ds = rd.from_arrow(pairs).repartition(5)
    fast, dist = (D.connected_components(ds).to_pandas()
                  .sort_values("node", ignore_index=True)
                  for _ in broadcast_paths())
    pd.testing.assert_frame_equal(fast, dist)

    # string node ids
    spairs = pa_.table({
        "id_a": pa_.array(["d%03d" % i for i in pairs["id_a"].to_pylist()]),
        "id_b": pa_.array(["d%03d" % i for i in pairs["id_b"].to_pylist()])})
    sds = rd.from_arrow(spairs)
    sfast, sdist = (D.connected_components(sds).to_pandas()
                    .sort_values("node", ignore_index=True)
                    for _ in broadcast_paths())
    pd.testing.assert_frame_equal(sfast, sdist)


def test_exact_dup_chain_pairs(ray_session, docs_with_dups):
    import ray.data as rd

    pairs = D.exact_dup_chain_pairs(rd.from_arrow(docs_with_dups)).to_pandas()
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    # each of the 10 exact-dup groups {orig, 50+j} yields exactly one edge
    assert got == {(orig, 50 + j) for j, orig in enumerate(range(0, 10))}


def test_simhash_batch_equals_scalar(ray_session, docs_with_dups):
    df = docs_with_dups.to_pandas().head(20)
    sh = D.SimHasher()
    batch = sh(df.copy())["simhash"].to_numpy(dtype=np.uint64)
    scalar = np.array([sh.simhash64(t) for t in df["text"]], dtype=np.uint64)
    assert np.array_equal(batch, scalar)


def test_minhash_batch_equals_scalar(ray_session, docs_with_dups):
    df = docs_with_dups.to_pandas().head(20)
    mh = D.MinHasher(num_perm=32)
    tab = mh(df.copy())
    sigs = np.frombuffer(b"".join(tab["sig"].to_pylist()), dtype=np.uint64).reshape(-1, 32)
    scalar = np.stack([mh.signature(t) for t in df["text"]])
    assert np.array_equal(sigs, scalar)


def test_rolling_fingerprint_matches_naive():
    texts = ["", "a", "hello world", "x" * 300, "Ünïcode ÷ bytes"]

    def naive(s):
        h = 0
        for ch in s.encode("utf-8"):
            h = (h * 257 + ch) % ((1 << 61) - 1)
        return h

    got = T.rolling_fingerprint(pd.Series(texts))
    want = np.array([naive(s) for s in texts], dtype=np.uint64)
    assert np.array_equal(got, want)


def test_dedup_groups_from_minhash(ray_session, docs_with_dups):
    import ray.data as rd

    pairs = D.minhash_lsh_pairs(rd.from_arrow(docs_with_dups), threshold=0.5)
    groups = D.dedup_groups(pairs).to_pandas()
    got = dict(zip(groups["node"], groups["component"]))
    # each exact duplicate joins its original's group (keeper = min id)
    for j, orig in enumerate(range(0, 10)):
        assert got[50 + j] == orig
    assert all(comp <= node for node, comp in got.items())


def test_token_stats_and_fingerprint(ray_session):
    import hashlib

    import ray.data as rd

    docs = rd.read_parquet(f"{SF}/documents.parquet")
    out = T.token_stats(docs).to_pandas()
    row = out.iloc[0]
    assert row["n_tokens"] == len(row["text"].split())
    assert row["n_chars_f"] == len(row["text"])

    fp = T.fingerprint(docs.limit(50)).to_pandas()
    for _, r in fp.head(5).iterrows():
        assert r["md5"] == hashlib.md5(r["text"].encode()).hexdigest()
    # rolling fp deterministic
    fp2 = T.fingerprint(docs.limit(50)).to_pandas()
    assert (fp.sort_values("doc_id")["rolling_fp"].to_numpy()
            == fp2.sort_values("doc_id")["rolling_fp"].to_numpy()).all()


def test_quality_and_langid(ray_session):
    import ray.data as rd

    docs = rd.read_parquet(f"{SF}/documents.parquet")
    q = T.quality_score(docs).to_pandas()
    assert ((q["quality_score"] >= 0) & (q["quality_score"] <= 1)).all()
    assert ((q["stopword_ratio"] >= 0) & (q["stopword_ratio"] <= 1)).all()

    lid = T.lang_id(docs).to_pandas()
    assert set(lid["pred_lang"]) <= {"en", "de", "fr", "es", "zh"}
    # deterministic
    lid2 = T.lang_id(docs).to_pandas()
    a = lid.sort_values("doc_id")["pred_lang"].to_numpy()
    b = lid2.sort_values("doc_id")["pred_lang"].to_numpy()
    assert (a == b).all()


def test_multimodal_stub(ray_session):
    import ray.data as rd

    media = M.synth_media_table(100, seed=21)
    out = M.decode_features(rd.from_arrow(media),
                            batch_size=16).to_pandas()
    assert len(out) == 100
    assert "payload" not in out.columns  # bytes dropped after decode
    assert ((out["width"] >= 64) & (out["width"] < 256)).all()
    # deterministic decode
    out2 = M.decode_features(rd.from_arrow(media)).to_pandas()
    a = out.sort_values("media_id")["mean_val"].to_numpy()
    b = out2.sort_values("media_id")["mean_val"].to_numpy()
    assert np.array_equal(a, b)


def test_ngram_jaccard_pairs_exact(ray_session):
    """Distributed char-k-gram Jaccard == a pure-Python reference on
    the same pairs; threshold filters; short docs drop out."""
    import pyarrow as pa
    import ray.data as rd

    from pystreamfs_ray.stages.dedup import ngram_jaccard_pairs

    texts = {
        1: "the quick brown fox jumps over the lazy dog",
        2: "the quick brown fox jumped over a lazy dog",
        3: "completely different content here",
        4: "ab",  # shorter than k=3 → dropped
        5: "THE QUICK BROWN FOX JUMPS OVER THE LAZY DOG",  # case-folds to 1
    }
    docs = rd.from_arrow(pa.table({
        "doc_id": list(texts), "text": list(texts.values())
    })).repartition(2)
    pairs = rd.from_arrow(pa.table({
        "id_a": [1, 1, 1, 2], "id_b": [2, 3, 4, 5]
    }))
    out = ngram_jaccard_pairs(pairs, docs, k=3, num_partitions=2).to_pandas()
    out = out.set_index(["id_a", "id_b"]).sort_index()

    def ref(a, b):
        ga = {a.lower()[i:i + 3] for i in range(len(a) - 2)}
        gb = {b.lower()[i:i + 3] for i in range(len(b) - 2)}
        return len(ga & gb), len(ga | gb)

    assert (1, 4) not in out.index  # short doc dropped by the join
    for (ia, ib) in [(1, 2), (1, 3), (2, 5)]:
        ni, nu = ref(texts[ia], texts[ib])
        row = out.loc[(ia, ib)]
        assert row["n_inter"] == ni and row["n_union"] == nu
        assert row["jaccard"] == ni / nu
    # near-dup (casefolded) pair is similar but not identical
    assert 0.5 < out.loc[(2, 5)]["jaccard"] < 1.0
    out2 = ngram_jaccard_pairs(pairs, docs, k=3, threshold=0.5,
                               num_partitions=2).to_pandas()
    assert (out2["jaccard"] >= 0.5).all()
    assert len(out2) < len(out)


def test_curate_corpus_matches_stagewise(ray_session):
    """The composed curation pipeline equals running its stages
    one-by-one in pandas on the same input (incl. dup removal and the
    exact integer-micro quality sum)."""
    import pyarrow as pa
    import ray.data as rd

    from pystreamfs_ray.pipelines.curation import curate_corpus
    from pystreamfs_ray.stages.textstats import LangId, QualityScorer

    base = (
        "the quick brown fox and the lazy dog met in a field of "
        "data and it is that for " * 12
    )
    texts = [base + f" tail{i}" for i in range(20)]
    texts += texts[:5]  # exact duplicates (different ids, later sources)
    texts += ["der die das und ist ein eine nicht mit zu " * 20]  # German
    texts += ["x"]  # too short → quality below threshold
    srcs = [f"s{i % 2}" for i in range(len(texts))]
    docs_pdf = pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": texts, "source": srcs,
    })
    ds = rd.from_arrow(pa.Table.from_pandas(docs_pdf, preserve_index=False))
    got = curate_corpus(ds.repartition(3), lang="en",
                        quality_min=0.3).to_pandas()
    got = got.sort_values("source", ignore_index=True)

    # stagewise pandas reference using the engine's own scalar stages
    ref = docs_pdf.sort_values("doc_id").drop_duplicates("text")
    ref = QualityScorer()(ref.copy())
    ref = LangId()(ref)
    ref = ref[(ref["pred_lang"] == "en") & (ref["quality_score"] >= 0.3)]
    ref["n_tokens"] = ref["text"].str.split().map(len)
    ref["q_micro"] = np.floor(ref["quality_score"] * 1e6 + 0.5).astype(np.int64)
    want = ref.groupby("source").agg(
        n_docs=("doc_id", "size"), total_tokens=("n_tokens", "sum"),
        q_micro=("q_micro", "sum"),
    ).reset_index()
    want["avg_quality"] = want["q_micro"] / 1e6 / want["n_docs"]
    want = want.drop(columns="q_micro").sort_values("source", ignore_index=True)

    assert got["source"].tolist() == want["source"].tolist()
    assert got["n_docs"].tolist() == want["n_docs"].tolist()
    assert got["total_tokens"].tolist() == want["total_tokens"].tolist()
    np.testing.assert_array_equal(got["avg_quality"].to_numpy(),
                                  want["avg_quality"].to_numpy())


def test_multimodal_resize_and_frames(ray_session):
    """Resize keeps non-image payloads untouched and shrinks image
    payloads; frame sampling expands videos to one row per frame,
    deterministically."""
    import ray.data as rd

    media = M.synth_media_table(120, seed=21)
    ds = rd.from_arrow(media).repartition(2)

    resized = M.resize_images(ds, width=32, height=32).to_pandas()
    src = media.to_pandas().set_index("media_id")
    budget = (32 * 32) // 64
    for _, r in resized.iterrows():
        orig = src.loc[r["media_id"], "payload"]
        if r["kind"] == "image":
            assert len(r["payload"]) <= budget < len(orig)
        else:
            assert r["payload"] == orig

    frames = M.sample_frames(ds, every_s=1.0).to_pandas()
    assert set(frames.columns) == {"media_id", "frame_idx", "frame_ts_s", "frame_payload"}
    vids = src[src["kind"] == "video"]
    assert set(frames["media_id"]) <= set(vids.index)
    # per-video frame counts are deterministic and contiguous from 0
    for mid, g in frames.groupby("media_id"):
        assert sorted(g["frame_idx"]) == list(range(len(g)))
        assert (g["frame_payload"].str.len() > 0).all()
    # two runs identical
    frames2 = M.sample_frames(ds, every_s=1.0).to_pandas()
    a = frames.sort_values(["media_id", "frame_idx"], ignore_index=True)
    b = frames2.sort_values(["media_id", "frame_idx"], ignore_index=True)
    pd.testing.assert_frame_equal(a, b)


def test_quality_langid_batch_equals_scalar():
    """Vectorized batch paths == per-row scalar definitions, incl.
    empty/zh/tie cases."""
    from pystreamfs_ray.stages.textstats import LangId, QualityScorer, STOPWORDS

    texts = [
        "the and of to a in is it that for common english text here",
        "der die das und ist ein eine nicht mit zu deutsch",
        "le la les et est un une pas pour que francais",
        "el la los y es un una no por que espanol",
        "这 是 中文 文本",          # zh via CJK chars
        "",                       # empty
        "zzz qqq www",            # no stopwords at all → tie → en
        "the der le el",          # one stopword of each → tie → en
    ] * 5
    df = pd.DataFrame({"text": texts})
    li = LangId()
    batch = li(df.copy())["pred_lang"].tolist()
    scalar = [li._score(t) for t in texts]
    assert batch == scalar

    qs = QualityScorer()
    out = qs(df.copy())
    allstop = set().union(*STOPWORDS.values())
    import re
    wre = re.compile(r"[a-z0-9_一-鿿]+")
    for t, ratio in zip(texts, out["stopword_ratio"]):
        ws = wre.findall(t.lower())
        want = sum(w in allstop for w in ws) / max(len(ws), 1)
        assert ratio == want, t


def test_chunk_documents_coverage(ray_session):
    """Every token is covered; consecutive chunks overlap by exactly
    `overlap`; short/empty docs produce one chunk."""
    import pyarrow as pa
    import ray.data as rd

    from pystreamfs_ray.stages.textstats import chunk_documents

    texts = {
        0: " ".join(f"t{i}" for i in range(150)),
        1: "a b c",   # shorter than one chunk
        2: "",        # empty
    }
    ds = rd.from_arrow(pa.table({"doc_id": list(texts), "text": list(texts.values())}))
    out = chunk_documents(ds, chunk_tokens=64, overlap=16).to_pandas()
    out = out.sort_values(["doc_id", "chunk_id"], ignore_index=True)

    d0 = out[out["doc_id"] == 0]
    assert d0["chunk_id"].tolist() == [0, 1, 2]  # starts 0, 48, 96
    toks0 = [c.split() for c in d0["chunk_text"]]
    assert toks0[0][-16:] == toks0[1][:16]  # exact overlap
    covered = set().union(*[set(t) for t in toks0])
    assert covered == {f"t{i}" for i in range(150)}
    assert d0["n_chunk_tokens"].tolist() == [64, 64, 150 - 96]

    assert out[out["doc_id"] == 1]["chunk_text"].tolist() == ["a b c"]
    assert out[out["doc_id"] == 2]["chunk_text"].tolist() == [""]
    assert out[out["doc_id"] == 2]["n_chunk_tokens"].tolist() == [0]


def test_bpe_token_count(ray_session):
    """Pre-tokenizer segment counts on known strings."""
    import ray.data as rd

    t = pa.table({"doc_id": pa.array([0, 1, 2], type=pa.int64()),
                  "text": ["I don't know.", "abc123  x!", ""]})
    out = T.bpe_token_count(rd.from_arrow(t)).to_pandas().sort_values("doc_id")
    # "I don't know." → [I][ don]['t][ know][.]  = 5
    # "abc123  x!"    → [abc][123][ ][ x][!]     = 5
    assert list(out["n_bpe_tokens"]) == [5, 5, 0]


def test_repetition_stats_known_values(ray_session):
    """Hand-computed Gopher/C4 repetition signals on crafted docs."""
    import ray.data as rd

    texts = {
        0: "a b a b a b",            # bigrams: 'a b'x3, 'b a'x2 → top 3/5
        1: "x\ny\nx\nz",             # 4 lines, 'x' duplicated
        2: " ".join(f"w{i}" for i in range(20)),  # no repetition at all
        3: "p q r p q r p q r",      # every trigram repeats except none unique
    }
    t = pa.table({"doc_id": pa.array(list(texts), type=pa.int64()),
                  "text": list(texts.values())})
    out = (T.repetition_stats(rd.from_arrow(t)).to_pandas()
           .sort_values("doc_id", ignore_index=True))

    assert out["n_lines"].tolist() == [1, 4, 1, 1]
    # doc 1: 3 distinct of 4 lines → dup_line_frac 1/4; dup chars = 2
    # occurrences of 'x' (1 char each) of 4 total chars → 0.5
    assert out.loc[1, "dup_line_frac"] == 0.25
    assert out.loc[1, "dup_line_char_frac"] == 0.5
    assert out.loc[0, "top_bigram_frac"] == 0.6
    assert out.loc[2, "top_bigram_frac"] == round(1 / 19, 6)
    assert out.loc[2, "dup_trigram_frac"] == 0.0
    # doc 3 trigrams: pqr x3, qrp x2, rpq x2 → all 7 occurrences repeat
    assert out.loc[3, "dup_trigram_frac"] == 1.0
    assert bool(out.loc[2, "keep_gopher"]) is True
    assert bool(out.loc[0, "keep_gopher"]) is False


def test_decontaminate_planted_overlap(ray_session, broadcast_paths):
    """A corpus doc sharing exactly two distinct 4-grams with an eval
    doc is flagged with n_shared=2; clean docs are absent."""
    import ray.data as rd
    from pystreamfs_ray.stages.decontam import _hash_member_mask, decontaminate

    # find one eval id and some corpus ids under the 50% hash rule
    ids = list(range(40))
    mask = _hash_member_mask(ids, 0.5)
    ev = [i for i, m in zip(ids, mask) if m][0]
    co = [i for i, m in zip(ids, mask) if not m][:3]

    shared = "alpha beta gamma delta epsilon"  # two distinct 4-grams
    texts = {
        ev: f"PRE {shared} POST",
        co[0]: f"x y {shared} z",              # contaminated, 2 grams
        co[1]: "totally different words here no overlap at all",
        co[2]: "alpha beta gamma QQQ epsilon",  # only 3-gram overlap → clean
    }
    t = pa.table({"doc_id": pa.array(list(texts), type=pa.int64()),
                  "text": list(texts.values())})
    out, out2 = (decontaminate(rd.from_arrow(t), n=4,
                               eval_rate=0.5).to_pandas()
                 for _ in broadcast_paths())
    got = dict(zip(out["doc_id"], out["n_shared"]))
    assert got == {co[0]: 2}

    # join fallback (eval too big to broadcast) must agree exactly
    assert dict(zip(out2["doc_id"], out2["n_shared"])) == got


def test_pack_sequences_contiguous_and_partition_invariant(ray_session):
    """Spans tile the token stream exactly (no gaps/overlaps) and the
    layout is identical at any partition count (two-phase scan is
    exact, boundaries only affect balance)."""
    import ray.data as rd
    from pystreamfs_ray.stages.packing import pack_sequences

    rng = np.random.default_rng(7)
    texts = [" ".join(f"t{i}" for i in range(rng.integers(0, 40))) for _ in range(300)]
    t = pa.table({"doc_id": pa.array(range(300), type=pa.int64()), "text": texts})

    out = (pack_sequences(rd.from_arrow(t), seq_len=64, num_partitions=7)
           .to_pandas().sort_values("doc_id", ignore_index=True))
    assert out["tok_start"].iloc[0] == 0
    assert (out["tok_start"].iloc[1:].to_numpy()
            == out["tok_end"].iloc[:-1].to_numpy()).all()
    total = out["n_tokens"].sum()
    assert out["tok_end"].iloc[-1] == total
    assert out["pack_last"].max() == (total - 1) // 64
    nonempty = out[out["n_tokens"] > 0]
    assert (nonempty["n_packs"]
            == nonempty["pack_last"] - nonempty["pack_first"] + 1).all()
    assert (out.loc[out["n_tokens"] == 0, "n_packs"] == 0).all()

    single = (pack_sequences(rd.from_arrow(t), seq_len=64, num_partitions=1)
              .to_pandas().sort_values("doc_id", ignore_index=True))
    pd.testing.assert_frame_equal(out, single)


def test_tfidf_top_term_known_values(ray_session):
    """Hand-computed smooth TF-IDF (ln((N+1)/(df+1))+1) on crafted docs,
    including the (score desc, term asc) tie-break."""
    import math

    import ray.data as rd

    texts = {
        0: "apple apple banana",     # tf(apple)=2 beats banana
        1: "banana cherry",          # both tf=1, df=2 → tie, term-asc → banana
        2: "date date cherry",       # tf(date)=2, df(date)=1
        3: "egg fig",                # tie on tf and df → term-asc picks egg
    }
    t = pa.table({"doc_id": pa.array(list(texts), type=pa.int64()),
                  "text": list(texts.values())})
    out = (T.tfidf_top_term(rd.from_arrow(t)).to_pandas()
           .sort_values("doc_id", ignore_index=True))

    def idf(df):
        return math.log((4 + 1.0) / (df + 1.0)) + 1.0

    assert out["top_term"].tolist() == ["apple", "banana", "date", "egg"]
    assert out.loc[0, "score"] == round(2 * idf(1), 6)
    assert out.loc[1, "score"] == round(1 * idf(2), 6)
    assert out.loc[3, "score"] == round(1 * idf(1), 6)


def test_exact_dedup_keep_best(ray_session):
    """Keep the preferred-source copy per duplicate group (curated
    beats crawl), tie-break smallest id."""
    import ray.data as rd

    df = pd.DataFrame({
        "doc_id": np.arange(5, dtype=np.int64),
        "text": ["same", "same", "same", "uniq", "same"],
        "source": ["2_crawl", "1_curated", "1_curated", "2_crawl", "3_web"],
    })
    out = (D.exact_dedup_keep_best(rd.from_pandas(df).repartition(3),
                                   num_buckets=4)
           .to_pandas().sort_values("doc_id", ignore_index=True))
    # 'same' group → doc 1 (curated, smaller id than doc 2); 'uniq' → doc 3
    assert out["doc_id"].tolist() == [1, 3]
    assert out["source"].tolist() == ["1_curated", "2_crawl"]
    assert out["n_dupes"].tolist() == [4, 1]
