"""Per-entity windowing toolkit: sessionize, tumbling/sliding windows,
lag/lead, backfill.

The reference's only window is the count-based tumbling batch slicer
(`/root/reference/pystreamfs/pystreamfs.py:59,68`); the north rule
generalizes it to sliding windows, lag/lead and backfill over entity
(`conv_id`) streams ordered by (turn_idx, ts).

Execution model: ONE hash shuffle — entities are bucketed
(``hash(conv_id) % num_buckets``) and each bucket is processed as a
group (`groupby("__bucket").map_groups`), with every per-entity
operation *vectorized across the whole bucket* via pandas groupby
transforms (no Python loop per entity). Entities are mutually unordered
(embarrassingly parallel); order within an entity is recovered by a
stable sort inside the bucket — never assumed from input order.

At cluster scale the bucket count is the partitioning knob: buckets ≫
cores → even load; a mega-conversation is still one group (its kernel
fold is inherently sequential) but shares its bucket with nothing else
when ``num_buckets`` is large.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd

from pystreamfs_ray.util import bucket_array

DEFAULT_BUCKETS = 64


def add_bucket(ds, entity_col: str = "conv_id", num_buckets: int = DEFAULT_BUCKETS,
               keep: list[str] | None = None):
    """Append the ``__bucket`` hash-partition column, keeping blocks in
    ARROW format: the downstream groupby sort then shuffles compact
    Arrow buffers (C++ sort/take, no GIL) instead of pandas blocks full
    of per-row Python string objects — the latter inflated shuffle CPU
    ~10× at high core counts (allocator/refcount contention).

    ``keep`` prunes each batch, in the same map, to the listed columns
    it has (in list order) before the column is added: the shuffle
    carries only them, and no schema is probed up front to learn which
    columns exist."""
    import pyarrow as pa

    def _assign(t: pa.Table) -> pa.Table:
        if keep is not None:
            t = t.select([c for c in keep if c in t.column_names])
        keys = t[entity_col].to_pandas()
        return t.append_column(
            "__bucket", pa.array(bucket_array(keys, num_buckets), type=pa.int32())
        )

    return ds.map_batches(_assign, batch_format="pyarrow", zero_copy_batch=True)


def per_bucket(
    ds,
    fn: Callable[[pd.DataFrame], pd.DataFrame],
    *,
    entity_col: str = "conv_id",
    num_buckets: int = DEFAULT_BUCKETS,
    drop_bucket: bool = True,
):
    """Hash-bucket entities and apply ``fn`` to each bucket's DataFrame.
    The rows reach ``fn`` in no particular order: a ``fn`` that needs
    them in entity/time order sorts first, itself or through a helper
    that sorts (``sort_entity``, ``rolling_time_sum``)."""

    def _run(group: pd.DataFrame):
        import pyarrow as pa

        out = fn(group)
        if drop_bucket and "__bucket" in out.columns:
            out = out.drop(columns="__bucket")
        # hand back Arrow without the pandas schema metadata blob — a
        # metadata-bearing schema is unhashable and disables Ray's
        # shuffle schema-dedup fast path downstream (see sources.py)
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    grouped = add_bucket(ds, entity_col, num_buckets).groupby("__bucket")
    return grouped.map_groups(_run, batch_format="pandas")


def sort_entity(df: pd.DataFrame, entity_col: str = "conv_id",
                order_cols: tuple = ("turn_idx",)) -> pd.DataFrame:
    """Stable (mergesort) per-entity ordering — 'stable turn ordering'."""
    return df.sort_values([entity_col, *order_cols], kind="mergesort", ignore_index=True)


# --- vectorized per-entity transforms (operate on a sorted bucket) ---


def add_lag_delta(df: pd.DataFrame, *, entity_col="conv_id", ts_col="ts",
                  out_col="f_ts_delta_s") -> pd.DataFrame:
    """Lag-1 timestamp gap in seconds, backfilled with 0.0 for each
    entity's first turn (FIXTURES.md F2 ``f_ts_delta_s``)."""
    delta = df.groupby(entity_col, sort=False)[ts_col].diff()
    df[out_col] = (delta.dt.total_seconds()).fillna(0.0)
    return df


def lag_delta_seconds(entity: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """``add_lag_delta``'s values, bit for bit, on numpy arrays sorted by
    entity then turn: the integer tick gap to the previous turn of the
    same entity over ticks per second (as pandas' ``total_seconds``),
    0.0 on each entity's first turn and next to a null timestamp."""
    ticks = ts.view(np.int64)
    per_s = np.timedelta64(1, "s") / np.timedelta64(1, np.datetime_data(ts.dtype)[0])
    out = np.zeros(len(ts))
    if len(ts) > 1:
        ok = (entity[1:] == entity[:-1]) & ~np.isnat(ts[1:]) & ~np.isnat(ts[:-1])
        out[1:][ok] = np.diff(ticks)[ok] / per_s
    return out


def assign_tumbling(df: pd.DataFrame, size: int, *, entity_col="conv_id",
                    out_col="window_id") -> pd.DataFrame:
    """Count-based tumbling window id = seq // size (short tail window
    included), the reference's batch slicer semantics."""
    seq = df.groupby(entity_col, sort=False).cumcount()
    df[out_col] = (seq // size).astype(np.int64)
    return df


def add_lag_lead(df: pd.DataFrame, col: str, *, entity_col="conv_id",
                 lag: int = 1, lead: int = 1) -> pd.DataFrame:
    g = df.groupby(entity_col, sort=False)[col]
    if lag:
        df[f"{col}_lag{lag}"] = g.shift(lag)
    if lead:
        df[f"{col}_lead{lead}"] = g.shift(-lead)
    return df


def backfill(df: pd.DataFrame, col: str, *, entity_col="conv_id",
             out_col: str | None = None) -> pd.DataFrame:
    """Forward-fill (carry last observed value) within each entity."""
    df[out_col or f"{col}_ffill"] = df.groupby(entity_col, sort=False)[col].ffill()
    return df


def sessionize(df: pd.DataFrame, gap_s: float, *, entity_col="conv_id",
               ts_col="ts", out_col="session_id") -> pd.DataFrame:
    """Gap-based session ids per entity: a new session starts when the
    time since the previous event exceeds ``gap_s`` seconds."""
    delta = df.groupby(entity_col, sort=False)[ts_col].diff().dt.total_seconds()
    new_session = (delta > gap_s) | delta.isna()
    df[out_col] = new_session.groupby(df[entity_col], sort=False).cumsum().astype(np.int64) - 1
    return df


def assign_sliding(df: pd.DataFrame, size: int, stride: int, *,
                   entity_col="conv_id", seq_col: str | None = None,
                   out_col="window_start") -> pd.DataFrame:
    """Overlapping count-based sliding windows: window w covers rows
    [w*stride, w*stride + size) of each entity's sequence. Rows are
    flat-expanded to every window that contains them (replication factor
    ≈ size/stride), so a plain groupby on (entity, window_start) gives
    sliding aggregates. ``seq_col=None`` uses the per-entity row rank."""
    if seq_col is None:
        seq = df.groupby(entity_col, sort=False).cumcount().to_numpy()
    else:
        seq = df[seq_col].to_numpy()
    w_last = seq // stride
    w_first = np.maximum(np.ceil((seq - size + 1) / stride), 0).astype(np.int64)
    reps = (w_last - w_first + 1).astype(np.int64)
    idx = np.repeat(np.arange(len(df)), reps)
    offsets = np.concatenate(([0], np.cumsum(reps)))
    pos = np.arange(int(reps.sum())) - np.repeat(offsets[:-1], reps)
    starts = (w_first[idx] + pos) * stride
    out = df.iloc[idx].copy()
    out[out_col] = starts.astype(np.int64)
    return out.reset_index(drop=True)


def rolling_mean(df: pd.DataFrame, col: str, window: int, *, entity_col="conv_id",
                 out_col: str | None = None) -> pd.DataFrame:
    """Sliding count-window mean over the current + (window-1) preceding
    rows per entity (partial windows at the head use what exists)."""
    r = (
        df.groupby(entity_col, sort=False)[col]
        .rolling(window=window, min_periods=1)
        .mean()
        .reset_index(level=0, drop=True)
    )
    df[out_col or f"{col}_roll{window}"] = r
    return df


def welford_running(df: pd.DataFrame, col: str, *, entity_col="conv_id") -> pd.DataFrame:
    """Running mean / (population) variance per entity up to each row —
    the streaming-moments analog of MCNN's cluster statistics
    (`/root/reference/pystreamfs/algorithms/mcnn.py:339-344`), computed
    via vectorized cumulative sums (numerically the same recurrence)."""
    g = df.groupby(entity_col, sort=False)[col]
    n = g.cumcount() + 1
    s1 = g.cumsum()
    s2 = df[col].pow(2).groupby(df[entity_col], sort=False).cumsum()
    mean = s1 / n
    var = (s2 / n - mean**2).clip(lower=0.0)
    df[f"{col}_runmean"] = mean
    df[f"{col}_runvar"] = var
    return df


def rolling_time_sum(df: pd.DataFrame, col: str, window_s: float, *,
                     entity_col="conv_id", ts_col="ts",
                     out_col: str | None = None) -> pd.DataFrame:
    """Time-RANGE rolling sum per entity: for each row, the sum of
    ``col`` over rows with ts in ``[ts - window_s, ts]`` — including
    ALL peers at the current timestamp, i.e. SQL's
    ``RANGE BETWEEN <w> PRECEDING AND CURRENT ROW`` frame semantics.

    Vectorized: one stable sort per bucket, then two ``searchsorted``
    passes against the entity's timestamp run + a cumulative sum —
    O(n log n), no per-row Python. Works on integer-quantized values
    for exact (order-independent) sums; the caller picks the dtype."""
    df = sort_entity(df, entity_col=entity_col, order_cols=(ts_col,))
    vals = df[col].to_numpy()
    ts = df[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
    ent = df[entity_col].to_numpy()
    out = np.zeros(len(df), dtype=vals.dtype)
    # entity run boundaries on the sorted frame
    bounds = np.flatnonzero(np.concatenate(([True], ent[1:] != ent[:-1])))
    ends = np.concatenate((bounds[1:], [len(df)]))
    win_us = np.int64(round(window_s * 1e6))
    for s, e in zip(bounds, ends):
        t = ts[s:e]
        cum = np.concatenate(([0], np.cumsum(vals[s:e])))
        lo = np.searchsorted(t, t - win_us, side="left")
        hi = np.searchsorted(t, t, side="right")  # all current-ts peers
        out[s:e] = cum[hi] - cum[lo]
    df[out_col or f"{col}_tsum"] = out
    return df


def interval_join_pairs(df: pd.DataFrame, *, left_mask_col: str,
                        window_s: float, entity_col="conv_id", ts_col="ts",
                        include_self: bool = False,
                        suffixes=("_l", "_r")) -> pd.DataFrame:
    """Per-entity INTERVAL (range) join: for every row where
    ``left_mask_col`` is true, emit one pair row per same-entity row
    with ``ts in [left.ts - window_s, left.ts)`` (strictly before;
    ``include_self=True`` widens to ``<=`` and keeps the self pair).

    Vectorized: sort once, entity-run boundaries, two ``searchsorted``
    passes clamped to the run, then a repeat/cumsum expansion — the
    same shape as ``assign_sliding``, no per-row Python. Replication
    factor = average rows per window; SQL equivalent:
    ``JOIN ON same entity AND r.ts BETWEEN l.ts - w AND l.ts``."""
    df = sort_entity(df, entity_col=entity_col, order_cols=(ts_col,))
    ts = df[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
    ent = df[entity_col].to_numpy()
    runs = np.flatnonzero(np.concatenate(([True], ent[1:] != ent[:-1])))
    run_ends = np.concatenate((runs[1:], [len(df)]))

    # ts is sorted only WITHIN an entity run — searchsorted per run
    # (vectorized across the run's rows; the loop is over entities)
    win_us = np.int64(round(window_s * 1e6))
    side = "right" if include_self else "left"
    lo = np.empty(len(df), dtype=np.int64)
    hi = np.empty(len(df), dtype=np.int64)
    for s, e in zip(runs, run_ends):
        t = ts[s:e]
        lo[s:e] = s + np.searchsorted(t, t - win_us, side="left")
        hi[s:e] = s + np.searchsorted(t, t, side=side)

    left_idx = np.flatnonzero(df[left_mask_col].to_numpy())
    lo, hi = lo[left_idx], hi[left_idx]
    reps = np.maximum(hi - lo, 0)
    li = np.repeat(left_idx, reps)
    offsets = np.concatenate(([0], np.cumsum(reps)))
    pos = np.arange(int(reps.sum())) - np.repeat(offsets[:-1], reps)
    ri = np.repeat(lo, reps) + pos
    if not include_self:
        keep = li != ri
        li, ri = li[keep], ri[keep]

    lpart = df.iloc[li].reset_index(drop=True).drop(columns=[left_mask_col])
    rpart = df.iloc[ri].reset_index(drop=True).drop(
        columns=[left_mask_col, entity_col]
    )
    lpart.columns = [entity_col if c == entity_col else c + suffixes[0]
                     for c in lpart.columns]
    rpart.columns = [c + suffixes[1] for c in rpart.columns]
    return pd.concat([lpart, rpart], axis=1)


def add_window_funcs(df: pd.DataFrame, *, entity_col="conv_id", ts_col="ts",
                     value_col="value", id_col=None) -> pd.DataFrame:
    """SQL-style analytic window functions per entity, on a sorted
    bucket: ``row_number`` (1-based, time order), ``rank`` /
    ``dense_rank`` of ``value_col`` descending (SQL tie semantics =
    pandas method 'min' / 'dense'), and the running ``cum_<value>``
    in time order. The running sum is accumulated over CENT-quantized
    integers so it is bit-equal to the SQL oracle regardless of the
    engine's float summation order."""
    order = [entity_col, ts_col] + ([id_col] if id_col else [])
    df = df.sort_values(order, kind="mergesort", ignore_index=True)
    grp = df.groupby(entity_col, sort=False)
    df["row_number"] = (grp.cumcount() + 1).astype(np.int64)
    vgrp = grp[value_col]
    df[f"rank_{value_col}"] = vgrp.rank(method="min", ascending=False).astype(np.int64)
    df[f"dense_rank_{value_col}"] = vgrp.rank(method="dense", ascending=False).astype(np.int64)
    cents = np.floor(df[value_col].to_numpy(dtype=np.float64) * 100.0 + 0.5).astype(np.int64)
    df[f"cum_{value_col}"] = (
        pd.Series(cents).groupby(df[entity_col], sort=False).cumsum() / 100.0
    )
    return df


def recency_features(df: pd.DataFrame, *, entity_col="user_id",
                     ts_col="ts", type_col="event_type",
                     count_types=("purchase",), since_types=("error",)):
    """Per-row recency features over each entity's ordered history —
    the classic online feature-engineering columns: ``n_prior_<t>``
    (count of strictly-preceding type-t rows), ``us_since_<t>``
    (microseconds since the latest strictly-preceding type-t row, -1
    if none) and ``us_since_prev`` (lag-1 gap, -1 on the first row).

    Caller passes an entity-sorted bucket (per_bucket + sort_entity).
    Everything is cythonized groupby shift/cumsum/cummax — no Python
    loop. Timestamps are rebased to the bucket minimum before the
    float cummax so epoch-µs (≈1.7e18, beyond float64's 2^53 exact
    range) never loses integer exactness; only differences are
    emitted, so the rebase cancels.
    """
    ts_us = df[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
    base = ts_us.min() if len(ts_us) else 0
    rel = (ts_us - base).astype(np.float64)
    key = df[entity_col]
    rel_s = pd.Series(rel, index=df.index)
    prev = rel_s.groupby(key, sort=False).shift(1)
    df["us_since_prev"] = np.where(
        prev.isna(), -1, rel - prev.to_numpy()).astype(np.int64)
    for t in count_types:
        is_t = df[type_col] == t
        cnt = is_t.groupby(key, sort=False).cumsum() - is_t.astype(np.int64)
        df[f"n_prior_{t}"] = cnt.to_numpy(np.int64)
    for t in since_types:
        s = pd.Series(np.where(df[type_col] == t, rel, np.nan), index=df.index)
        # cummax → ffill → shift = max over rows STRICTLY before i
        # (groupby.cummax leaves NaN rows NaN instead of carrying the
        # running max, so the ffill is what propagates it)
        prior = (s.groupby(key, sort=False).cummax()
                  .groupby(key, sort=False).ffill()
                  .groupby(key, sort=False).shift(1))
        df[f"us_since_{t}"] = np.where(
            prior.isna(), -1, rel - prior.to_numpy()).astype(np.int64)
    return df
