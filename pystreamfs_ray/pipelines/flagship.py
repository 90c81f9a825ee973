"""Flagship pipeline: transcripts → featurize → selector → as-of join →
metrics (SURVEY.md §3.4 lifecycle).

Stages and shuffles:

1. ``read_parquet`` (column-pruned) → stateless ``map_batches``
   featurizer (Arrow, zero-copy);
2. shuffle #1: hash-bucket entities → per-bucket stable sort, lag
   features, tumbling windows, sequential kernel fold per entity
   (one stateless group task per bucket), optional inline
   prequential evaluation in the same fold, per-bucket checkpoint.
   ``flagship`` materializes the window Dataset here, so the fold runs
   once for the join and the summary below;
3. as-of join of window-end feature state onto label timestamps (zero
   leakage, ``stages/asof.py``). When ``stages/joins.broadcast`` admits
   the window side it is broadcast and each label batch probes it in
   one ``map_batches`` (no shuffle); otherwise both sides go through
   shuffle #2, a hash shuffle on the entity. Windows of several
   kernels share (conv_id, ts_end) and the ``kernel`` column is not
   joined: the tie goes to the window that comes last in the window
   Dataset, on either path;
4. metrics over the same materialized windows: one plain task per
   window block, no Ray Data execution (``metrics.global_summary``).
"""

from __future__ import annotations

from typing import Any

from pystreamfs_ray.stages.asof import asof_join
from pystreamfs_ray.stages.featurize import featurize
from pystreamfs_ray.stages.selector import run_selector
from pystreamfs_ray.pipelines.metrics import global_summary


def feature_windows(
    transcripts_ds,
    *,
    kernel: str = "ofs",
    batch_size: int = 50,
    num_features: int = 5,
    kernel_params: dict[str, Any] | None = None,
    evaluate: str | None = None,
    max_history: int | None = None,
    num_buckets: int = 64,
    checkpoint_dir: str | None = None,
    fingerprint: str = "",
    streaming: bool = False,
    flush: bool = True,
    load_state: bool = False,
):
    """transcripts → per-(entity, window) selector output Dataset (lazy).

    The prequential evaluation runs inline in the selector fold, so a
    mega-conversation stays one sequential task (the per-entity contract
    has no intra-entity parallelism)."""
    return run_selector(
        featurize(transcripts_ds),
        kernel=kernel,
        batch_size=batch_size,
        num_features=num_features,
        kernel_params=kernel_params,
        order_cols=("turn_idx",),
        evaluate=evaluate,
        max_history=max_history,
        num_buckets=num_buckets,
        checkpoint_dir=checkpoint_dir,
        fingerprint=fingerprint,
        streaming=streaming,
        flush=flush,
        load_state=load_state,
    )


def flagship(
    transcripts_ds,
    labels_ds=None,
    *,
    kernel: str | list = "ofs",
    batch_size: int = 50,
    num_features: int = 5,
    evaluate: str | None = None,
    max_history: int | None = None,
    num_buckets: int = 64,
    checkpoint_dir: str | None = None,
):
    """Full pipeline; returns (windows_ds, joined_ds_or_None, summary_df).

    ``windows_ds`` is materialized: the as-of join and the summary both
    read it, and the selector fold runs once for the two of them."""
    windows = feature_windows(
        transcripts_ds,
        kernel=kernel,
        batch_size=batch_size,
        num_features=num_features,
        evaluate=evaluate,
        max_history=max_history,
        num_buckets=num_buckets,
        checkpoint_dir=checkpoint_dir,
    ).materialize()
    joined = None
    if labels_ds is not None:
        joined = asof_join(
            labels_ds,
            windows.select_columns(["conv_id", "window_id", "ts_end", "w", "selected"]),
            by="conv_id",
            left_on="ts",
            right_on="ts_end",
            how="inner",
            num_buckets=num_buckets,
        )
    return windows, joined, global_summary(windows)
