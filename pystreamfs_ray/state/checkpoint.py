"""Per-partition (bucket) checkpointing, lineage and resume.

The reference has no fault tolerance (single sequential loop,
`/root/reference/pystreamfs/pystreamfs.py:59`); at 10^12-turn scale the
selector stage must be resumable. Layout under ``checkpoint_dir``::

    bucket=<id>/data.parquet        # that bucket's selector output rows
    bucket=<id>/MANIFEST.json       # lineage + throughput metrics

Writes are atomic (temp file + ``os.replace``), keyed by bucket id, so a
re-run is idempotent: ``resume_selector`` filters finished buckets out of
the input *before* the shuffle and unions their saved outputs back in.
A manifest is only trusted when its lineage record (``selector_lineage``:
kernels, params, input fingerprint, bucket count, window size and eval
settings) matches the current run's (stale lineage → recompute).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _bucket_dir(root: str, bucket_id: int) -> str:
    return os.path.join(root, f"bucket={bucket_id}")


def selector_lineage(*, kernel: str, params_fp: str, input_fp: str,
                     num_buckets: int | None, batch_size: int,
                     evaluate: str | None = None,
                     max_history: int | None = None) -> dict:
    """The lineage record of one selector bucket: the kernels, their
    params, the input fingerprint, and the arguments that decide which
    entities share a bucket and how their rows cut into windows and
    are scored (bucket count, window size, evaluator, eval history).
    Manifests and state blobs store it; a resume trusts a bucket only
    when the stored record equals the current run's."""
    return {
        "kernel": kernel,
        "params_fingerprint": params_fp,
        "input_fingerprint": input_fp,
        "num_buckets": num_buckets,
        "batch_size": batch_size,
        "evaluate": evaluate,
        "max_history": max_history,
    }


def write_bucket_checkpoint(root: str, bucket_id: int, table: pa.Table, *,
                            lineage: dict, n_convs: int, rows_done: int,
                            wall_s: float,
                            window_lag_s: float | None = None) -> None:
    d = _bucket_dir(root, bucket_id)
    os.makedirs(d, exist_ok=True)
    tmp_data = os.path.join(d, ".data.parquet.tmp")
    pq.write_table(table, tmp_data)
    os.replace(tmp_data, os.path.join(d, "data.parquet"))
    manifest = {
        "bucket_id": bucket_id,
        **lineage,
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
    checkpoint design (SURVEY.md §4). ``lineage`` (the
    ``selector_lineage`` record) is stored alongside the blob so a
    resume with different kernels/params/input/bucketing rejects the
    state instead of silently continuing from a mismatched stream."""
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


def completed_buckets(root: str, lineage: dict) -> dict[int, dict]:
    """Bucket ids whose manifest exists and holds ``lineage``, the
    current run's ``selector_lineage`` record."""
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
        if all(m.get(k) == v for k, v in lineage.items()):
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

    from pystreamfs_ray.stages.selector import BucketSelector, run_selector
    from pystreamfs_ray.util import bucket_array

    # the selector the run builds, for its lineage (defaults included)
    selector = BucketSelector(kernel=kernel, kernel_params=kernel_params,
                              fingerprint=fingerprint, num_buckets=num_buckets,
                              entity_col=entity_col, **selector_kwargs)
    done = completed_buckets(checkpoint_dir, selector.lineage())

    pending = features_ds
    if done:
        done_ids = list(done)

        def _drop_done(batch: pa.Table) -> pa.Table:
            # Arrow, not pandas: no pandas schema metadata in the exchange
            buckets = bucket_array(batch[entity_col].to_pandas(), num_buckets)
            return batch.filter(pa.array(~np.isin(buckets, done_ids)))

        pending = features_ds.map_batches(_drop_done, batch_format="pyarrow")

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
    # partitioning=None: the ``bucket=<id>`` directory names are not a
    # column of the selector output
    saved = read_parquet(
        [os.path.join(_bucket_dir(checkpoint_dir, b), "data.parquet") for b in sorted(done)],
        partitioning=None,
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
