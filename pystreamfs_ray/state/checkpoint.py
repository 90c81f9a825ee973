"""Per-partition (bucket) checkpointing, lineage and resume.

The reference has no fault tolerance (single sequential loop,
`/root/reference/pystreamfs/pystreamfs.py:59`); at 10^12-turn scale the
selector stage must be resumable. Layout under ``checkpoint_dir``::

    bucket=<id>/data.parquet        # that bucket's selector output rows
    bucket=<id>/MANIFEST.json       # lineage + throughput metrics

Writes are atomic (temp file + ``os.replace``), keyed by bucket id, so a
re-run is idempotent: ``resume_selector`` filters finished buckets out of
the input *before* the shuffle and unions their saved outputs back in.
A manifest is only trusted when its kernel/params/input fingerprints
match the current run (stale lineage → recompute).
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from pystreamfs_ray.util import params_fingerprint


def _bucket_dir(root: str, bucket_id: int) -> str:
    return os.path.join(root, f"bucket={bucket_id}")


def write_bucket_checkpoint(root: str, bucket_id: int, table: pa.Table, *,
                            kernel: str, params_fp: str, input_fp: str,
                            n_convs: int, rows_done: int, wall_s: float,
                            window_lag_s: float | None = None) -> None:
    d = _bucket_dir(root, bucket_id)
    os.makedirs(d, exist_ok=True)
    tmp_data = os.path.join(d, ".data.parquet.tmp")
    pq.write_table(table, tmp_data)
    os.replace(tmp_data, os.path.join(d, "data.parquet"))
    manifest = {
        "bucket_id": bucket_id,
        "kernel": kernel,
        "params_fingerprint": params_fp,
        "input_fingerprint": input_fp,
        "n_convs": n_convs,
        "n_windows": table.num_rows,
        "rows_done": rows_done,
        "wall_s": wall_s,
        "rows_per_sec": rows_done / wall_s if wall_s > 0 else None,
        "window_lag_s": window_lag_s,
    }
    tmp_m = os.path.join(d, ".MANIFEST.json.tmp")
    with open(tmp_m, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp_m, os.path.join(d, "MANIFEST.json"))


def write_bucket_state(root: str, bucket_id: int, states: dict, *,
                       lineage: dict | None = None) -> None:
    """Per-bucket streaming-continuation state (kernel state, pending
    partial-window rows, bounded eval history, next window id per
    entity) — pickled atomically. This is the 'kernel_state_blob' of the
    checkpoint design (SURVEY.md §4). ``lineage`` (kernel name +
    params/input fingerprints) is stored alongside the blob so a resume
    with different kernels/params/input rejects the state instead of
    silently continuing from a mismatched stream."""
    import pickle

    d = _bucket_dir(root, bucket_id)
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, ".state.pkl.tmp")
    with open(tmp, "wb") as f:
        pickle.dump({"__lineage__": lineage, "states": states}, f)
    os.replace(tmp, os.path.join(d, "state.pkl"))


def read_bucket_state(root: str, bucket_id: int, *,
                      lineage: dict | None = None) -> dict:
    """Stored state, or ``{}`` when absent or the stored lineage does
    not match ``lineage`` (same trust rule as ``completed_buckets``)."""
    import pickle

    p = os.path.join(_bucket_dir(root, bucket_id), "state.pkl")
    if not os.path.exists(p):
        return {}
    with open(p, "rb") as f:
        blob = pickle.load(f)
    if not (isinstance(blob, dict) and "states" in blob):  # pre-lineage layout
        return {}
    if lineage is not None and blob.get("__lineage__") != lineage:
        return {}
    return blob["states"]


def completed_buckets(root: str, *, kernel: str, params_fp: str, input_fp: str) -> dict[int, dict]:
    """Bucket ids whose manifest exists and matches the current lineage."""
    done: dict[int, dict] = {}
    if not os.path.isdir(root):
        return done
    for name in os.listdir(root):
        if not name.startswith("bucket="):
            continue
        mpath = os.path.join(root, name, "MANIFEST.json")
        dpath = os.path.join(root, name, "data.parquet")
        if not (os.path.exists(mpath) and os.path.exists(dpath)):
            continue
        try:
            with open(mpath) as f:
                m = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue
        if (
            m.get("kernel") == kernel
            and m.get("params_fingerprint") == params_fp
            and m.get("input_fingerprint") == input_fp
        ):
            done[int(m["bucket_id"])] = m
    return done


def resume_selector(features_ds, *, checkpoint_dir: str, kernel: str,
                    kernel_params: dict, fingerprint: str,
                    num_buckets: int, entity_col: str = "conv_id",
                    **selector_kwargs):
    """Run the selector stage, skipping checkpointed buckets.

    Returns a Dataset equal to a from-scratch ``run_selector`` run with
    the same arguments (tests assert equality).
    """
    from pystreamfs_ray.sources import read_parquet

    from pystreamfs_ray.stages.selector import run_selector
    from pystreamfs_ray.util import bucket_array

    params = dict(kernel_params or {})
    params.setdefault("num_features", selector_kwargs.get("num_features", 5))
    params_fp = params_fingerprint(params)
    done = completed_buckets(
        checkpoint_dir, kernel=kernel, params_fp=params_fp, input_fp=fingerprint
    )

    pending = features_ds
    if done:
        done_ids = set(done)

        def _drop_done(batch):
            import numpy as np

            keep = ~np.isin(
                bucket_array(batch[entity_col].tolist(), num_buckets), list(done_ids)
            )
            return batch[keep]

        pending = features_ds.map_batches(_drop_done, batch_format="pandas")

    fresh = run_selector(
        pending,
        kernel=kernel,
        kernel_params=kernel_params,
        num_buckets=num_buckets,
        entity_col=entity_col,
        checkpoint_dir=checkpoint_dir,
        fingerprint=fingerprint,
        **selector_kwargs,
    )
    if not done:
        return fresh
    saved = read_parquet(
        [os.path.join(_bucket_dir(checkpoint_dir, b), "data.parquet") for b in sorted(done)]
    )
    return fresh.union(saved)


def lineage_summary(root: str) -> list[dict]:
    """All manifests under a checkpoint root (for metrics/lineage views)."""
    out = []
    if not os.path.isdir(root):
        return out
    for name in sorted(os.listdir(root)):
        mpath = os.path.join(root, name, "MANIFEST.json")
        if os.path.exists(mpath):
            try:
                with open(mpath) as f:
                    out.append(json.load(f))
            except (OSError, json.JSONDecodeError):
                pass
    return out
