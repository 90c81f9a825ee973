"""Temporal / behavioral analytics over event streams: first-seen
(cohort) counts and ordered-sequence funnels.

These generalize the reference's stream bookkeeping (window ids and
per-window stats threaded in event order — `/root/reference/pystreamfs/
pystreamfs.py:59-99`) to the entity dimension: instead of "which window
is this row in", they answer "when did this entity first appear" and
"how far through an ordered event sequence did it get".

Scale shapes:

- ``first_seen_counts``: one combiner-friendly ``groupby(entity).min(ts)``
  shuffle (Ray aggregates pre-combine per block, so only per-block
  partial minima move), then a time-bucket roll-up whose cardinality is
  bounded by the calendar, not the data — the running total over that
  tiny table is driver-side by design.
- ``funnel_counts``: ONE hash shuffle on the entity key; each bucket
  resolves every stage for all its entities with vectorized pandas
  passes (one merge + groupby-min per stage, never a per-entity Python
  loop). Rows not matching any funnel stage are filtered before the
  shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from pystreamfs_ray.stages.window import per_bucket


def first_seen_counts(ds, *, entity_col: str = "user_id",
                      ts_col: str = "ts", freq: str = "D") -> pd.DataFrame:
    """Per time-bucket count of entities whose FIRST event falls in that
    bucket, plus the running cumulative total (the classic new-users /
    cumulative-users curve). Returns a small pandas frame (bucket
    cardinality is calendar-bounded)."""
    from ray.data.aggregate import Min

    firsts = (ds.select_columns([entity_col, ts_col])
              .groupby(entity_col).aggregate(Min(ts_col, alias_name="__fts")))

    def to_bucket(df: pd.DataFrame) -> pd.DataFrame:
        day = pd.to_datetime(df["__fts"]).dt.floor(freq)
        vc = day.value_counts()
        return pd.DataFrame({"day": vc.index, "pc": vc.to_numpy(np.int64)})

    from pystreamfs_ray.util import ensure_cols

    raw = ensure_cols(firsts.map_batches(to_bucket, batch_format="pandas")
                      .to_pandas(), {"day": "datetime64[us]",
                                     "pc": np.int64})
    out = (raw.groupby("day", as_index=False)["pc"].sum()
           .sort_values("day", ignore_index=True))
    return pd.DataFrame({
        "day": out["day"],
        "new_users": out["pc"].astype(np.int64),
        "cum_users": out["pc"].cumsum().astype(np.int64),
    })


from pystreamfs_ray.util import ensure_cols


def funnel_counts(ds, stages: list[str], *, entity_col: str = "user_id",
                  ts_col: str = "ts", type_col: str = "event_type",
                  num_buckets: int = 64) -> pd.DataFrame:
    """Strict ordered funnel: an entity reaches stage *k* iff it has an
    event of type ``stages[k]`` STRICTLY LATER than the timestamp at
    which it reached stage *k-1* (earliest-completion semantics: the
    reach time of stage k is the minimum such timestamp). Returns one
    row per stage: ``(stage_idx, stage, n_users)``."""
    stages = list(stages)

    import pyarrow.compute as pc

    def keep_stage_rows(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t[type_col], value_set=pa.array(stages)))

    filtered = (ds.select_columns([entity_col, ts_col, type_col])
                .map_batches(keep_stage_rows, batch_format="pyarrow",
                             zero_copy_batch=True))

    def bucket_funnel(g: pd.DataFrame) -> pd.DataFrame:
        # reach[entity] = ts at which the entity completed the previous
        # stage; advance one vectorized pass per stage
        reach = None  # None → stage 0: no lower bound
        counts = np.zeros(len(stages), dtype=np.int64)
        for k, s in enumerate(stages):
            rows = g[g[type_col].to_numpy() == s]
            if reach is None:
                cur = rows.groupby(entity_col, sort=False)[ts_col].min()
            else:
                m = rows.merge(reach.rename("__prev"), left_on=entity_col,
                               right_index=True, how="inner")
                m = m[m[ts_col].to_numpy() > m["__prev"].to_numpy()]
                cur = m.groupby(entity_col, sort=False)[ts_col].min()
            counts[k] = len(cur)
            if len(cur) == 0:
                break
            reach = cur
        return pd.DataFrame({"stage_idx": np.arange(len(stages), dtype=np.int64),
                             "n_users_pc": counts})

    partials = per_bucket(filtered, bucket_funnel, entity_col=entity_col,
                          num_buckets=num_buckets)
    tot = ensure_cols(partials.to_pandas(),
                      {"stage_idx": np.int64, "n_users_pc": np.int64})
    tot = (tot.groupby("stage_idx", as_index=False)["n_users_pc"].sum()
           .sort_values("stage_idx", ignore_index=True))
    return pd.DataFrame({
        "stage_idx": tot["stage_idx"].astype(np.int64),
        "stage": [stages[i] for i in tot["stage_idx"]],
        "n_users": tot["n_users_pc"].astype(np.int64),
    })


def late_event_stats(ds, *, entity_col: str = "user_id",
                     order_col: str = "event_id", ts_col: str = "ts",
                     num_buckets: int = 32):
    """Out-of-order (late-arrival) audit per entity: walking each
    entity's events in ARRIVAL order (``order_col`` — the ingest
    sequence), count events whose event-time ``ts`` is EARLIER than the
    entity's running maximum, and the worst lateness in exact integer
    µs. This is the disorder statistic that sizes streaming watermarks
    and backfill windows (how late can data be before a window must
    reopen).

    Scale shape: columns pruned to (entity, order, ts) before ONE
    entity-hash shuffle; each bucket resolves all its entities with a
    vectorized grouped cummax (C-backed, no per-entity Python loop).
    Output is entity-count-sized."""

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([entity_col, order_col],
                            kind="mergesort", ignore_index=True)
        ts_i = df[ts_col].to_numpy("datetime64[us]").view(np.int64)
        df["__ts_i"] = ts_i
        g = df.groupby(entity_col, sort=False)
        cm = g["__ts_i"].cummax()
        prev = cm.shift(1)
        first = ~df[entity_col].duplicated()  # segment starts
        prev[first.to_numpy()] = np.nan
        late = prev.notna().to_numpy() & (ts_i < prev.fillna(-1).to_numpy())
        lateness = np.where(late, prev.fillna(0).to_numpy() - ts_i, 0)
        out = pd.DataFrame({entity_col: df[entity_col], "__late": late,
                            "__lateness": lateness.astype(np.int64)})
        agg = (out.groupby(entity_col, sort=False)
               .agg(n_events=("__late", "size"), n_late=("__late", "sum"),
                    max_late_us=("__lateness", "max")).reset_index())
        return agg.astype({"n_events": np.int64, "n_late": np.int64,
                           "max_late_us": np.int64})

    return per_bucket(ds.select_columns([entity_col, order_col, ts_col]),
                      bucket_fn, entity_col=entity_col,
                      num_buckets=num_buckets)


SCD2_OPEN_END_US = 253_402_300_799_000_000  # 9999-12-31T23:59:59 (µs)


def scd2_intervals(ds, *, entity_col: str = "user_id",
                   state_col: str = "event_type", ts_col: str = "ts",
                   tiebreak_col: str = "event_id", num_buckets: int = 32):
    """Slowly-changing-dimension (type 2) interval build: compress each
    entity's time-ordered state stream into validity intervals
    ``[valid_from_us, valid_to_us)`` — one row per maximal run of equal
    consecutive states, the standard feature-store / warehouse history
    table. The open (current) interval ends at the conventional high
    date ``SCD2_OPEN_END_US`` instead of NULL so the output stays a
    non-nullable int64 column.

    Generalizes the reference's in-order stream walk (`/root/reference/
    pystreamfs/pystreamfs.py:59-99`) to per-entity run compression.
    Scale shape: ONE hash shuffle on the entity key; inside a bucket the
    change-point scan is a single vectorized shift-compare (no
    per-entity loop), and because every entity boundary is itself a
    change point, run lengths from ``diff`` of the change indices never
    cross entities. Output is change-point-sized, usually far smaller
    than the input (the compaction is the point).
    """

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([entity_col, ts_col, tiebreak_col],
                            kind="mergesort", ignore_index=True)
        n = len(df)
        if n == 0:
            return pd.DataFrame({entity_col: np.array([], np.int64),
                                 state_col: np.array([], object),
                                 "valid_from_us": np.array([], np.int64),
                                 "valid_to_us": np.array([], np.int64),
                                 "run_len": np.array([], np.int64)})
        t = df[ts_col].to_numpy("datetime64[us]").view(np.int64)
        ent = df[entity_col].to_numpy()
        st = df[state_col].to_numpy()
        chg = np.ones(n, dtype=bool)
        chg[1:] = (ent[1:] != ent[:-1]) | (st[1:] != st[:-1])
        idx = np.flatnonzero(chg)
        run_len = np.diff(idx, append=n)
        valid_from = t[idx]
        # next change in the SAME entity closes the interval; else open
        nxt = np.empty(len(idx), dtype=np.int64)
        nxt[:-1] = np.where(ent[idx[1:]] == ent[idx[:-1]],
                            valid_from[1:], SCD2_OPEN_END_US)
        nxt[-1] = SCD2_OPEN_END_US
        return pd.DataFrame({entity_col: ent[idx], state_col: st[idx],
                             "valid_from_us": valid_from,
                             "valid_to_us": nxt,
                             "run_len": run_len.astype(np.int64)})

    return per_bucket(
        ds.select_columns([entity_col, state_col, ts_col, tiebreak_col]),
        bucket_fn, entity_col=entity_col, num_buckets=num_buckets)


def resample_ffill(ds, *, entity_col: str = "user_id", ts_col: str = "ts",
                   value_col: str = "value", tiebreak_col: str = "event_id",
                   freq_us: int = 86_400_000_000, num_buckets: int = 32):
    """Resample an irregular event stream onto a fixed time grid with
    per-entity forward-fill: for each entity, one row per ``freq_us``
    bucket from its first to its last event bucket, carrying the LAST
    observed value at-or-before that bucket's end — the daily
    feature-snapshot materialization of a feature store.

    Scale shape: ONE entity hash shuffle; inside a bucket the grid is
    built with a repeat/arange expansion and the fill is one grouped
    ``ffill`` — no per-entity Python loop. Output size is the sum of
    per-entity bucket spans (calendar-bounded per entity), produced
    inside the bucket task so nothing is materialized on the driver.
    A pathological entity spanning years of empty grid is the skew to
    watch at scale; cap spans upstream if the calendar is unbounded.
    """

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([entity_col, ts_col, tiebreak_col],
                            kind="mergesort", ignore_index=True)
        if len(df) == 0:
            return pd.DataFrame({entity_col: np.array([], np.int64),
                                 "day": np.array([], np.int64),
                                 value_col: np.array([], np.float64)})
        t = df[ts_col].to_numpy("datetime64[us]").view(np.int64)
        day = t // freq_us
        obs = pd.DataFrame({entity_col: df[entity_col], "day": day,
                            value_col: df[value_col].to_numpy()})
        # last positional row per (entity, day) = latest event that day
        obs = obs.groupby([entity_col, "day"], sort=False,
                          as_index=False).last()
        span = obs.groupby(entity_col, sort=False)["day"].agg(["min", "max"])
        width = (span["max"] - span["min"] + 1).to_numpy(np.int64)
        ent_grid = np.repeat(span.index.to_numpy(), width)
        # vectorized ragged arange: position-within-span + span start
        total = int(width.sum())
        seg_start = np.repeat(np.cumsum(width) - width, width)
        day_grid = (np.arange(total, dtype=np.int64) - seg_start
                    + np.repeat(span["min"].to_numpy(np.int64), width))
        grid = pd.DataFrame({entity_col: ent_grid, "day": day_grid})
        out = grid.merge(obs, on=[entity_col, "day"], how="left")
        out[value_col] = out.groupby(entity_col, sort=False)[value_col].ffill()
        return out

    return per_bucket(
        ds.select_columns([entity_col, ts_col, value_col, tiebreak_col]),
        bucket_fn, entity_col=entity_col, num_buckets=num_buckets)
