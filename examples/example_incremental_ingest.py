"""Incremental corpus ingestion with a persisted dedup index — the
production loop a 100-TB training-data pipeline runs per arrival batch
(no reference analog; the reference is the feature-selection side).

Run 0 (bootstrap): fingerprint the initial corpus → write the index.
Run N (ingest):    dedup the arrival batch against itself, drop every
                   doc whose md5 identity the index already holds
                   (exact partitioned anti-join — Bloom false positives
                   would drop genuinely-new docs), append the kept docs
                   to the corpus, and union the new fingerprints into
                   the index for run N+1.

Everything streams: text shuffles once per batch (the bucketed dedup),
the index is 32-byte hex rows, and both outputs are partitioned parquet
a failed run can resume over.

Run: ``python examples/example_incremental_ingest.py [sf_dir] [out_dir]``
(defaults to /root/testdata/sf0.001 and a temp dir; owns its own local
Ray session).
"""
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(sf_dir: str = "/root/testdata/sf0.001",
         out_dir: str | None = None) -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import ray.data as rd

    from pystreamfs_ray.sources import read_parquet, split_labels
    from pystreamfs_ray.stages.dedup import (fingerprint_index,
                                             incremental_exact_dedup,
                                             incremental_minhash_pairs,
                                             minhash_signatures)

    out_dir = out_dir or tempfile.mkdtemp(prefix="incremental_ingest_")
    index_dir = os.path.join(out_dir, "fpindex")
    sig_dir = os.path.join(out_dir, "sigindex")
    kept_dir = os.path.join(out_dir, "kept")

    docs = read_parquet(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"])

    # three deterministic "arrival batches" via the holdout hash rule
    def batch_of(name: str):
        def fn(df):
            return df[split_labels(df["doc_id"].to_numpy()) == name]

        return fn

    def read_index():
        # write_parquet of a fully-empty dataset writes ZERO files (an
        # empty bootstrap corpus is legal), so read the dir defensively
        import pyarrow as pa
        files = ([f for f in os.listdir(index_dir) if f.endswith(".parquet")]
                 if os.path.isdir(index_dir) else [])
        if not files:
            return rd.from_arrow(
                pa.schema([("fp", pa.string())]).empty_table())
        return rd.read_parquet(index_dir)

    def read_sigs():
        import pyarrow as pa
        files = ([f for f in os.listdir(sig_dir) if f.endswith(".parquet")]
                 if os.path.isdir(sig_dir) else [])
        if not files:
            return rd.from_arrow(pa.schema(
                [("doc_id", pa.int64()),
                 ("sig", pa.binary())]).empty_table())
        return rd.read_parquet(sig_dir)

    # ---- run 0: bootstrap both indexes from the first batch ----------
    first = docs.map_batches(batch_of("train"), batch_format="pandas")
    fingerprint_index(first).write_parquet(index_dir)
    minhash_signatures(first).write_parquet(sig_dir)
    n_idx = read_index().count()
    print(f"bootstrap: {n_idx} fingerprints -> {index_dir}")

    # ---- runs 1..N: ingest each arrival batch against the index ------
    for run, batch_name in enumerate(("val", "test"), start=1):
        arrivals = docs.map_batches(batch_of(batch_name),
                                    batch_format="pandas")
        index = read_index()
        kept = incremental_exact_dedup(arrivals, index).materialize()
        n_kept = kept.count()
        # near-dup tier: flag exact-new docs whose MinHash signature
        # near-matches the persisted corpus index (cross-side-only
        # banding — the corpus's internal pairs are never formed)
        near = incremental_minhash_pairs(
            kept.select_columns(["doc_id", "text"]), read_sigs(),
            threshold=0.5).materialize()
        n_near = near.count()
        kept.write_parquet(os.path.join(kept_dir, f"run={run}"))
        # union the new fingerprints + signatures in for the next run
        new_fps = fingerprint_index(kept.select_columns(["doc_id", "text"]))
        new_fps.write_parquet(index_dir)  # appends new files to the dir
        minhash_signatures(kept.select_columns(["doc_id", "text"])
                           ).write_parquet(sig_dir)
        n_idx = rd.read_parquet(index_dir).count()
        print(f"run {run} ({batch_name}): kept {n_kept} new docs "
              f"({n_near} flagged as near-dups of the corpus), "
              f"index now {n_idx} fingerprints")

    print(f"kept docs under {kept_dir}, index under {index_dir}")
    ray.shutdown()


if __name__ == "__main__":
    main(*sys.argv[1:])
