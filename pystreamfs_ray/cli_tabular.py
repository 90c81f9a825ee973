"""Tabular feature-materialization CLI — the model-ready-table job
surface (sibling of ``cli.py``'s streaming flagship and
``cli_curate.py``'s corpus job):

    python -m pystreamfs_ray.cli_tabular \
        --events /data/events --out /data/features \
        [--shards 16] [--resume] [--num-cpus N]

Fit-then-transform in the classic sklearn shape, distributed: the FIT
phase is three tiny combiner aggregates (per-type counts + cent sums,
global mean/std moments) whose outputs broadcast; the TRANSFORM phase
is ONE stateless vectorized pass over a single pruned read emitting
the encoded feature row per event — frequency encoding, ordinal-by-
target code, global z-score, cyclical hour/dow, and the degree-2
value² term. Output is Hive-partitioned Parquet by a 16-way md5 shard
of event_id (resumable: ``--resume`` skips shards whose directory
already exists), plus ``report.json`` with the decile calibration
table and per-type distribution moments — the data card for the
feature table.

Feature semantics are pinned to the standalone operators
(q_freq_encode / q_ordinal_encode / q_standard_scale /
q_cyclical_time) by ``tests/test_cli_tabular.py``.

Owns its Ray session (guarded init), like the sibling CLIs.
"""

from __future__ import annotations

import argparse
import json
import os
import time


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pystreamfs_ray.tabular",
        description="Ray-Data tabular feature materialization")
    p.add_argument("--events", required=True,
                   help="Parquet path/dir with (event_id, ts, user_id, "
                        "event_type, value)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--shards", type=int, default=16,
                   help="md5 shard count (Hive partition = resume unit)")
    p.add_argument("--resume", action="store_true",
                   help="skip shards whose output directory exists")
    p.add_argument("--num-cpus", type=int, default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    import numpy as np
    import pandas as pd
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from pystreamfs_ray.sources import read_parquet, write_partitioned_parquet
    from pystreamfs_ray.stages.dedup import _md5_lower64
    from pystreamfs_ray.util import combine_sum, ensure_cols

    t0 = time.perf_counter()
    cols = ["event_id", "ts", "event_type", "value"]
    ev = read_parquet(args.events, columns=cols)

    # ---- FIT: one combiner aggregate carries every per-type stat ----
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = np.floor(df["value"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.int64)
        g = (pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                           "n": np.ones(len(df), dtype=np.int64),
                           "s1": c, "s2": c * c})
             .groupby("event_type", sort=False, as_index=False).sum())
        return g

    stats = (combine_sum(ev, partial, "event_type", ["n", "s1", "s2"])
             .to_pandas())
    stats = ensure_cols(stats, {"event_type": object, "n": np.int64,
                                "s1": np.int64, "s2": np.int64})
    total = int(stats["n"].sum())
    s1_all = sum(int(x) for x in stats["s1"])
    s2_all = sum(int(x) for x in stats["s2"])
    mean_c = float(s1_all) / float(total)
    import math
    std_c = math.sqrt((float(s2_all) - float(s1_all * s1_all)
                       / float(total)) / float(total - 1))
    type_mean = (stats["s1"].to_numpy(np.int64).astype(np.float64)
                 / stats["n"].to_numpy(np.int64).astype(np.float64))
    order = np.lexsort((stats["event_type"].to_numpy(), -type_mean))
    keys = stats["event_type"].to_numpy()[order]
    codes = np.arange(1, len(keys) + 1, dtype=np.int64)
    counts = stats["n"].to_numpy(np.int64)[order]
    fitted = ray.put((keys, codes, counts, total, mean_c, std_c))

    # ---- resume bookkeeping: shard = md5(event_id) % shards ----
    feat_dir = os.path.join(args.out, "features")
    done: set[int] = set()
    if args.resume and os.path.isdir(feat_dir):
        done = {int(os.path.basename(d).split("=", 1)[1])
                for d in os.listdir(feat_dir) if d.startswith("shard=")}
    done_ref = ray.put(np.array(sorted(done), dtype=np.int64))
    n_shards = args.shards

    # ---- TRANSFORM: one vectorized pass, no further exchange ----
    def encode(df: pd.DataFrame) -> pd.DataFrame:
        keys, codes, cnts, tot, m, sd = ray.get(fitted)
        skip = ray.get(done_ref)
        ids = df["event_id"].to_numpy(np.int64)
        shard = (_md5_lower64([str(i) for i in ids])
                 % np.uint64(n_shards)).astype(np.int64)
        keep = ~np.isin(shard, skip)
        if not keep.all():
            df = df.iloc[keep]
            ids, shard = ids[keep], shard[keep]
        pos = pd.Index(keys).get_indexer(df["event_type"])
        c = np.floor(df["value"].to_numpy(np.float64) * 100.0 + 0.5)
        tsi = df["ts"].astype("int64").to_numpy()
        hour = ((tsi % 86_400_000_000) // 3_600_000_000).astype(np.float64)
        dow = ((tsi // 86_400_000_000 + 4) % 7).astype(np.float64)
        two_pi = 2.0 * np.pi
        v = df["value"].to_numpy(np.float64)
        return pd.DataFrame({
            "event_id": ids,
            "shard": shard,
            "event_type": df["event_type"].to_numpy(),
            "type_count": cnts[pos],
            "freq": cnts[pos].astype(np.float64) / float(tot),
            "ord_code": codes[pos],
            "z_value": np.round((c - m) / sd, 6),
            "hour_sin": np.round(np.sin(two_pi * hour / 24.0), 6),
            "hour_cos": np.round(np.cos(two_pi * hour / 24.0), 6),
            "dow_sin": np.round(np.sin(two_pi * dow / 7.0), 6),
            "dow_cos": np.round(np.cos(two_pi * dow / 7.0), 6),
            "value_sq": v * v,
        })

    encoded = ev.map_batches(encode, batch_format="pandas")
    write_partitioned_parquet(encoded, feat_dir, by="shard",
                              mode="append" if done else "overwrite")

    # ---- data card: per-type moments + row accounting ----
    by_type = {
        str(t): {"n": int(n), "mean_value": round(float(mu) / 100.0, 6)}
        for t, n, mu in zip(stats["event_type"], stats["n"], type_mean)
    }
    report = {
        "rows": total,
        "shards": n_shards,
        "resumed_shards_skipped": sorted(int(s) for s in done),
        "global_mean_value": round(mean_c / 100.0, 6),
        "global_std_value": round(std_c / 100.0, 6),
        "ordinal_codes": {str(k): int(c) for k, c in zip(keys, codes)},
        "by_type": by_type,
        "wall_sec": round(time.perf_counter() - t0, 3),
    }
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(json.dumps({"rows": total, "out": feat_dir,
                      "skipped": len(done),
                      "wall_sec": report["wall_sec"]}))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
