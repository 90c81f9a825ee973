"""CLI entry point — the `ray job submit` surface (SURVEY.md §3.4).

    python -m pystreamfs_ray.cli \
        --transcripts /data/transcripts --labels /data/labels \
        --kernel ofs efs --batch-size 50 --num-features 5 \
        --evaluate knn --max-history 10000 \
        --out /data/out --checkpoint-dir /data/ckpt --num-buckets 256

Writes under --out two Parquet directories of part files, windows/ and
joined/ (joined/ only with --labels), and one summary.parquet file.
With --checkpoint-dir every selector bucket also writes its windows and
a MANIFEST.json (rows/s, watermark lag) to bucket=<id>/ there. A rerun
recomputes every bucket: the CLI never reads those checkpoints back
(``state.checkpoint.resume_selector`` is the resume path).

Owns its Ray session (guarded init) — the only module besides bench.py
and the test fixture allowed to.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pystreamfs_ray",
                                description="Ray-Data streaming feature-selection engine")
    p.add_argument("--transcripts", required=True,
                   help="Parquet path/dir in the transcript input shape")
    p.add_argument("--labels", default=None, help="Parquet path/dir of label events")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--kernel", nargs="+", default=["ofs"],
                   help="one or more of: ofs efs fsds mcnn cancelout")
    p.add_argument("--batch-size", type=int, default=50)
    p.add_argument("--num-features", type=int, default=5)
    p.add_argument("--evaluate", default=None,
                   choices=[None, "knn", "logistic", "tree", "svm"])
    p.add_argument("--max-history", type=int, default=None)
    p.add_argument("--num-buckets", type=int, default=64)
    p.add_argument("--checkpoint-dir", default=None)
    p.add_argument("--num-cpus", type=int, default=None,
                   help="ray.init num_cpus when starting a fresh local session")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from pystreamfs_ray.sources import read_parquet

    from pystreamfs_ray.pipelines.flagship import flagship
    from pystreamfs_ray.util import params_fingerprint

    t0 = time.perf_counter()
    trans = read_parquet(args.transcripts)
    labels = read_parquet(args.labels) if args.labels else None

    windows, joined, summary = flagship(
        trans, labels,
        kernel=args.kernel if len(args.kernel) > 1 else args.kernel[0],
        batch_size=args.batch_size, num_features=args.num_features,
        evaluate=args.evaluate, max_history=args.max_history,
        num_buckets=args.num_buckets,
        checkpoint_dir=args.checkpoint_dir,
    )

    os.makedirs(args.out, exist_ok=True)
    windows.write_parquet(os.path.join(args.out, "windows"))
    n_joined = 0
    if joined is not None:
        joined = joined.materialize()
        joined.write_parquet(os.path.join(args.out, "joined"))
        n_joined = joined.count()
    sdf = summary if not hasattr(summary, "to_pandas") else summary.to_pandas()
    sdf.to_parquet(os.path.join(args.out, "summary.parquet"))

    report = {
        "windows": windows.count(),
        "joined": n_joined,
        "wall_s": round(time.perf_counter() - t0, 2),
        "kernels": args.kernel,
        "params_fingerprint": params_fingerprint(vars(args)),
        "out": args.out,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
