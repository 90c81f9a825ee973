"""Similarity search at scale: build a persisted int8-quantized vector
index once, then serve approximate cosine top-k scans from it — the
storage/bandwidth-side of 100-TB embedding search (the quantized table
is 4× smaller than float32, so every query scan moves a quarter of the
bytes; quality is recall-gated against the float exact path).

Run 0 (index): quantize the embedding table → write partitioned parquet.
Run N (query): read the int8 index → int8_topk for a query batch →
               report recall@k vs the float brute-force on the spot.

Run: ``python examples/example_similarity_search.py [sf_dir] [out_dir]``
(defaults to /root/testdata/sf0.001 and a temp dir; owns its own local
Ray session).
"""
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(sf_dir: str = "/root/testdata/sf0.001",
         out_dir: str | None = None) -> None:
    import numpy as np
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import ray.data as rd

    from pystreamfs_ray.sources import read_parquet
    from pystreamfs_ray.stages.similarity import (brute_force_topk,
                                                  int8_topk,
                                                  quantize_embeddings)

    out_dir = out_dir or tempfile.mkdtemp(prefix="similarity_")
    index_dir = os.path.join(out_dir, "int8_index")

    emb = read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                       columns=["vec_id", "embedding"])

    # ---- run 0: build + persist the quantized index ------------------
    quantize_embeddings(emb).write_parquet(index_dir)
    idx = rd.read_parquet(index_dir)
    n = idx.count()
    print(f"index: {n} int8 vectors -> {index_dir}")

    # ---- run N: query the persisted index ----------------------------
    qdf = emb.filter(expr="vec_id < 8").to_pandas()
    qids = qdf["vec_id"].to_numpy()
    qmat = np.stack([np.asarray(v, dtype=np.float64)
                     for v in qdf["embedding"]])

    approx = int8_topk(idx, qids, qmat, k=10).to_pandas()
    exact = brute_force_topk(emb, qids, qmat, k=10).to_pandas()

    recalls = []
    for qid in qids:
        true = set(exact.loc[exact["query_id"] == qid, "vec_id"])
        got = set(approx.loc[approx["query_id"] == qid, "vec_id"])
        recalls.append(len(true & got) / len(true))
    print(f"recall@10 over {len(qids)} queries: "
          f"mean={np.mean(recalls):.3f} min={min(recalls):.3f}")
    top1 = (approx[approx["rank"] == 1]
            .sort_values("query_id")[["query_id", "vec_id", "cosine_q"]])
    print(top1.to_string(index=False))
    ray.shutdown()


if __name__ == "__main__":
    main(*sys.argv[1:])
