"""Corpus-curation CLI — the training-data job surface (the sibling of
``cli.py``'s feature-selection flagship):

    python -m pystreamfs_ray.cli_curate \
        --documents /data/documents --out /data/curated \
        --lang en --quality-min 0.3 --dedup keep-best \
        [--budget-tokens 1000000] [--decontaminate]

Pipeline: [normalize] → exact dedup (first or keep-best by source) →
quality + language filters → optional per-source token-budget
admission → partitioned Parquet under ``--out/docs`` (one directory
per source — resumable, reader-prunable) + a per-source stats JSON.

Owns its Ray session (guarded init), like ``cli.py`` and ``bench.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pystreamfs_ray.curate",
        description="Ray-Data corpus curation (dedup/quality/lang/budget)")
    p.add_argument("--documents", required=True,
                   help="Parquet path/dir with (doc_id, text, source)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--lang", default="en")
    p.add_argument("--quality-min", type=float, default=0.3)
    p.add_argument("--dedup", choices=["first", "keep-best"], default="first",
                   help="exact-dedup keeper rule (keep-best prefers the "
                        "lexicographically-smallest source)")
    p.add_argument("--normalize", action="store_true",
                   help="lowercase + collapse whitespace before dedup")
    p.add_argument("--budget-tokens", type=int, default=None,
                   help="per-source token budget (md5-order admission)")
    p.add_argument("--resume", action="store_true",
                   help="skip sources whose output directory already "
                        "exists under --out/docs (Hive layout = the "
                        "resume unit)")
    p.add_argument("--join-partitions", type=int, default=4,
                   help="hash-join partition count (size to data: "
                        "~128MB probe side per partition)")
    p.add_argument("--num-cpus", type=int, default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from pystreamfs_ray.sources import (budget_sample, read_parquet,
                                        strip_schema_metadata,
                                        write_partitioned_parquet)
    from pystreamfs_ray.stages.dedup import exact_dedup, exact_dedup_keep_best
    from pystreamfs_ray.stages.textstats import (lang_id, normalize_text,
                                                 quality_score, token_stats)

    t0 = time.perf_counter()
    docs = read_parquet(args.documents, columns=["doc_id", "text", "source"])

    text_col = "text"
    if args.normalize:
        norm = strip_schema_metadata(normalize_text(docs))
        docs = docs.drop_columns(["text"]).join(
            norm, "inner", num_partitions=args.join_partitions,
            on=("doc_id",))
        text_col = "text_norm"

    if args.dedup == "keep-best":
        keepers = exact_dedup_keep_best(docs, text_col=text_col,
                                        pref_col="source")
        kept_ids = strip_schema_metadata(keepers.select_columns(["doc_id"]))
        deduped = docs.join(kept_ids, "inner",
                            num_partitions=args.join_partitions,
                            on=("doc_id",))
    else:
        deduped = exact_dedup(docs, text_col=text_col,
                              extra_cols=("source",))
        if text_col != "text":
            deduped = deduped.rename_columns({text_col: "text"})
            text_col = "text"

    tagged = lang_id(quality_score(deduped, text_col=text_col),
                     text_col=text_col)
    kept = tagged.filter(
        expr=f"pred_lang == '{args.lang}' and "
             f"quality_score >= {args.quality_min}")
    kept = token_stats(kept, text_col=text_col)

    if args.budget_tokens:
        admitted = budget_sample(
            kept.select_columns(["source", "doc_id", "n_tokens"]),
            "source", "doc_id", "n_tokens", args.budget_tokens)
        kept = kept.join(
            strip_schema_metadata(admitted.select_columns(["doc_id"])),
            "inner", num_partitions=args.join_partitions, on=("doc_id",))

    out_cols = ["doc_id", "source", text_col, "n_tokens", "quality_score",
                "pred_lang"]
    final = kept.select_columns(out_cols)
    docs_dir = os.path.join(args.out, "docs")
    if args.resume and os.path.isdir(docs_dir):
        import glob as _glob

        done = {os.path.basename(d).split("=", 1)[1]
                for d in _glob.glob(os.path.join(docs_dir, "source=*"))
                if _glob.glob(os.path.join(d, "*.parquet"))}
        if done:
            import pyarrow as _pa
            import pyarrow.compute as _pc

            done_arr = _pa.array(sorted(done))
            final = final.map_batches(
                lambda t: t.filter(_pc.invert(
                    _pc.is_in(t["source"], value_set=done_arr))),
                batch_format="pyarrow", zero_copy_batch=True)
        write_partitioned_parquet(final, docs_dir, by="source",
                                  mode="append")
    else:
        write_partitioned_parquet(final, docs_dir, by="source")
    # stats always reflect the FULL on-disk corpus (pre-existing +
    # newly written partitions)
    from pystreamfs_ray.sources import read_parquet as _rp

    final = _rp(docs_dir).select_columns(["source", "n_tokens"])

    stats = (final.select_columns(["source", "n_tokens"])
             .groupby("source").sum("n_tokens").to_pandas()
             .rename(columns={"sum(n_tokens)": "total_tokens"}))
    counts = (final.select_columns(["source"]).groupby("source").count()
              .to_pandas().rename(columns={"count()": "n_docs"}))
    report_df = stats.merge(counts, on="source").sort_values(
        "source", ignore_index=True)
    report = {
        "sources": report_df.to_dict(orient="records"),
        "n_docs": int(report_df["n_docs"].sum()),
        "total_tokens": int(report_df["total_tokens"].sum()),
        "wall_s": round(time.perf_counter() - t0, 2),
        "out": args.out,
    }
    with open(os.path.join(args.out, "report.json"), "w") as f:
        json.dump(report, f)
    print(json.dumps({k: report[k] for k in
                      ("n_docs", "total_tokens", "wall_s", "out")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
