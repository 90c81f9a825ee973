"""End-to-end training-data curation over the testdata documents +
embeddings tables — the LLM-pipeline side of the engine (no reference
analog; the reference is the feature-selection side).

Stages (each streaming, Arrow-native — see SCALE.md for the shuffle
accounting):

  normalize → exact dedup (keep-best by source preference) →
  quality + language filters → decontaminate vs a held-out eval split
  → token accounting per source → ANN sanity probe on embeddings

Run: ``python examples/example_corpus_pipeline.py [sf_dir]``
(defaults to /root/testdata/sf0.001; owns its own local Ray session).
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(sf_dir: str = "/root/testdata/sf0.001") -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from pystreamfs_ray.sources import read_parquet
    from pystreamfs_ray.stages.cluster import seed_centroids, cluster_sizes
    from pystreamfs_ray.stages.decontam import decontaminate
    from pystreamfs_ray.stages.dedup import exact_dedup_keep_best
    from pystreamfs_ray.stages.textstats import normalize_text, token_stats

    docs = read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["doc_id", "text", "source", "lang"])

    # 1. canonical cleanup, then keep the preferred copy per duplicate
    norm = normalize_text(docs)
    joined = docs.drop_columns(["text"]).join(
        norm, "inner", num_partitions=4, on=("doc_id",))
    kept = exact_dedup_keep_best(joined, text_col="text_norm",
                                 pref_col="source")
    print("docs after keep-best dedup:", kept.count())

    # 2. decontaminate against the hash-keyed 10% eval split
    #    (reproducible at any parallelism; the split rule is built in)
    flagged = decontaminate(docs, eval_rate=0.10)
    print("train docs sharing n-grams with the eval split:",
          flagged.count())

    # 3. per-source token accounting on the surviving corpus
    stats = token_stats(docs).groupby("source").sum("n_tokens")
    print(stats.to_pandas().head())

    # 4. embedding-space sanity probe: k=4 nearest-centroid sizes
    emb = read_parquet(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding"])
    cids, C = seed_centroids(emb, 4)
    print(cluster_sizes(emb, cids, C))

    # 5. temperature-flattened source mixing (T=2 over 2^-i weights):
    #    deterministic md5-of-key membership, shuffle-free
    from pystreamfs_ray.sources import temperature_mix

    weights = {f"src{i}": 2.0 ** (-i) for i in range(20)}
    mixed = temperature_mix(docs.select_columns(["doc_id", "source"]),
                            "source", "doc_id", weights, temperature=2.0)
    print("docs kept by T=2 mixing:", mixed.count())

    # 6. unigram-LM quality proxy (CCNet-style): both nll tails are
    #    filter candidates
    from pystreamfs_ray.stages.textstats import unigram_logprob

    nll = unigram_logprob(docs.select_columns(["doc_id", "text"]))
    print("nll summary:", nll.to_pandas()["nll"].describe()[["mean", "min", "max"]].round(3).to_dict())

    # 7. hybrid retrieval probe: RRF of BM25 and cosine top-n
    import numpy as np

    from pystreamfs_ray.stages.index import bm25_scores, rrf_fuse, topn_ranked
    from pystreamfs_ray.stages.similarity import brute_force_topk

    bm_top = topn_ranked(bm25_scores(docs, ["join", "filter"]),
                         score_col="score", n=20)
    qdf = emb.filter(expr="vec_id == 0").to_pandas()
    qmat = np.stack([np.asarray(v, dtype=np.float64)
                     for v in qdf["embedding"]])
    ann = (brute_force_topk(emb, qdf["vec_id"].to_numpy(), qmat, k=20)
           .to_pandas().rename(columns={"vec_id": "doc_id"}))
    fused = rrf_fuse([bm_top, ann], topk=5)
    print("RRF top-5 doc ids:", list(fused["doc_id"]))

    ray.shutdown()


if __name__ == "__main__":
    main(*sys.argv[1:])
