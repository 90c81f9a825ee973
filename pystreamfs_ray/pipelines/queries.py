"""Driver-contract query implementations.

Each function takes ``sf_dir`` (a /root/testdata/sf* directory) and
returns a Ray Dataset / pandas DataFrame. Every SQL-expressible query
has a matching DuckDB oracle in ``__ray_entry__.oracle_sql`` with
IDENTICAL column names and float rounding (the driver compares
row-count + schema + order-insensitive value hash).

Float policy: computed floats are rounded (2 decimals for large
monetary sums, 6 for unit-scale values) on BOTH sides so double
summation-order differences can't flip the hash.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as _pds

import ray
import ray.data as rd

from pystreamfs_ray.sources import read_parquet
from ray.data.aggregate import Count, Max, Min, Sum

from pystreamfs_ray.pipelines.flagship import feature_windows
from pystreamfs_ray.pipelines.transcripts import transcripts_from_events
from pystreamfs_ray.stages import window as W
from pystreamfs_ray.stages.asof import asof_join
from pystreamfs_ray.stages.featurize import featurize
from pystreamfs_ray.util import combine_sum

_BUCKETS = 32


def _p(sf_dir: str, table: str) -> str:
    return os.path.join(sf_dir, f"{table}.parquet")


def _round_cols(ds, spec: dict[str, int]):
    def fn(t: pa.Table) -> pa.Table:
        for col, nd in spec.items():
            i = t.column_names.index(col)
            t = t.set_column(i, col, pc.round(t[col], ndigits=nd))
        return t

    return ds.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------- relational


def _quantize(x, scale: float):
    """floor(x*scale + 0.5) as int64 — decimal values become exact
    integers, so distributed sums are order-independent and hash-equal to
    the DuckDB oracle (same expression on identical doubles)."""
    return pc.cast(pc.floor(pc.add(pc.multiply(x, scale), 0.5)), pa.int64())


def q1_lineitem_agg(sf_dir: str):
    """TPC-H Q1-style grouped aggregate with map-side partial combine.

    Money columns are quantized to integer cents/bps before summing
    (exact, order-independent); averages derive from the exact sums.
    """
    ds = read_parquet(
        _p(sf_dir, "lineitem"),
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_tax", "l_shipdate",
        ],
    )

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], pa.scalar(pd.Timestamp("1998-09-02"))))
        disc = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        charge = pc.multiply(disc, pc.add(pa.scalar(1.0), t["l_tax"]))
        return (
            t.select(["l_returnflag", "l_linestatus", "l_quantity"])
            .append_column("base_c", _quantize(t["l_extendedprice"], 100.0))
            .append_column("disc_c", _quantize(disc, 10000.0))
            .append_column("charge_c", _quantize(charge, 1000000.0))
            .append_column("disc100", _quantize(t["l_discount"], 100.0))
        )

    agg = (
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("base_c", alias_name="_sb"),
            Sum("disc_c", alias_name="_sd"),
            Sum("charge_c", alias_name="_sc"),
            Sum("disc100", alias_name="_s100"),
            Count(alias_name="count_order"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        n = pc.cast(t["count_order"], pa.float64())
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "sum_qty": t["sum_qty"],
                "sum_base_price": pc.divide(pc.cast(t["_sb"], pa.float64()), 100.0),
                "sum_disc_price": pc.divide(pc.cast(t["_sd"], pa.float64()), 10000.0),
                "sum_charge": pc.divide(pc.cast(t["_sc"], pa.float64()), 1000000.0),
                "avg_qty": pc.divide(t["sum_qty"], n),
                "avg_disc": pc.divide(pc.divide(pc.cast(t["_s100"], pa.float64()), 100.0), n),
                "count_order": t["count_order"],
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def q_filter_project(sf_dir: str):
    """Vectorized filter + projection + computed column."""
    ds = read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def fn(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater(t["l_quantity"], 45.0), pc.less(t["l_discount"], 0.05)
        )
        t = t.filter(m)
        # per-row product of identical doubles — bit-equal to the oracle
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        t = t.append_column("revenue", rev)
        return t.select(["l_orderkey", "l_linenumber", "l_quantity", "revenue"])

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def q_topk_orders(sf_dir: str):
    """Global top-10 by price (distributed sort + limit), stable tiebreak."""
    ds = read_parquet(_p(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10)


def q_join_agg(sf_dir: str):
    """orders ⋈ customer via broadcast small side (ray.put once on the
    driver; each task fetches the shared copy from the local object
    store — no shuffle), then grouped aggregate."""
    cust = read_parquet(
        _p(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    ).to_arrow_refs()
    dim = pa.concat_tables(ray.get(cust)).combine_chunks()  # small dimension table
    ref = ray.put({"keys": dim["c_custkey"].combine_chunks(),
                   "seg": dim["c_mktsegment"].combine_chunks()})

    def attach(t: pa.Table) -> pa.Table:
        # vectorized Arrow dimension lookup: index_in + take, no per-row
        # Python dict probing
        d = ray.get(ref)
        pos = pc.index_in(t["o_custkey"], value_set=d["keys"])
        return t.append_column("c_mktsegment", pc.take(d["seg"], pos))

    ds = read_parquet(_p(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"])

    def quant(t: pa.Table) -> pa.Table:
        return t.append_column("price_c", _quantize(t["o_totalprice"], 100.0))

    agg = (
        ds.map_batches(quant, batch_format="pyarrow")
        .map_batches(attach, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .aggregate(Sum("price_c", alias_name="_pc"), Count(alias_name="n_orders"))
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_mktsegment": t["c_mktsegment"],
                "total_price": pc.divide(pc.cast(t["_pc"], pa.float64()), 100.0),
                "n_orders": t["n_orders"],
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def q_join_shuffle(sf_dir: str):
    """orders ⋈ lineitem as a DISTRIBUTED hash-shuffle join
    (``Dataset.join``: both sides hash-partition on the key — the
    pattern for fact⋈fact where neither side fits a broadcast), then
    grouped revenue per order priority."""
    li = read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def quant(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"l_orderkey": t["l_orderkey"], "rev_c": _quantize(rev, 10000.0)})

    num_partitions = _join_partitions(li)  # data-sized actor pool
    li = li.map_batches(quant, batch_format="pyarrow")
    ords = read_parquet(_p(sf_dir, "orders"),
                           columns=["o_orderkey", "o_orderpriority"])
    joined = li.join(ords, join_type="inner", num_partitions=num_partitions,
                     on=("l_orderkey",), right_on=("o_orderkey",))
    agg = joined.groupby("o_orderpriority").aggregate(
        Sum("rev_c", alias_name="_rc"), Count(alias_name="n_items")
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderpriority": t["o_orderpriority"],
                "revenue": pc.divide(pc.cast(t["_rc"], pa.float64()), 10000.0),
                "n_items": t["n_items"],
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _join_partitions(ds, *, target_bytes: int = 128 << 20,
                     lo: int = 2, hi: int = 256) -> int:
    """Hash-join partition count from the probe side's (pre-execution,
    parquet-metadata) size estimate — each partition is an actor with
    non-trivial spin-up, so small inputs get few, 100 TB gets many."""
    nbytes = ds.size_bytes() or 0
    return max(lo, min(hi, nbytes // target_bytes + 1))


def q_region_revenue(sf_dir: str):
    """Star join: orders ⋈ customer via a distributed hash join (both
    sides big at scale), then the nation→region dimension chain applied
    as ONE composed broadcast lookup (the tiny side pre-joined on the
    driver), grouped revenue per region. The canonical mixed strategy:
    shuffle only what must shuffle, broadcast the rest."""
    ords = read_parquet(_p(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"])

    def quant(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": t["o_custkey"],
            "price_c": _quantize(t["o_totalprice"], 100.0),
        })

    cust = read_parquet(_p(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"])
    # size the join's aggregator pool to the DATA, not the CPU count:
    # each hash-join partition is an actor with real spin-up cost, so
    # tiny inputs want few partitions while 100 TB wants hundreds
    # (~128 MB of probe side per partition, parquet-metadata estimate)
    num_partitions = _join_partitions(ords)
    ords = ords.map_batches(quant, batch_format="pyarrow")
    joined = ords.join(cust, join_type="inner", num_partitions=num_partitions,
                       on=("o_custkey",), right_on=("c_custkey",))

    # nation ⋈ region composed once on the driver (both tiny), shipped
    # as one broadcast map
    nat = read_parquet(_p(sf_dir, "nation"),
                       columns=["n_nationkey", "n_regionkey"]).to_pandas()
    reg = read_parquet(_p(sf_dir, "region"),
                       columns=["r_regionkey", "r_name"]).to_pandas()
    dim = nat.merge(reg, left_on="n_regionkey", right_on="r_regionkey")
    ref = ray.put({
        "keys": pa.array(dim["n_nationkey"].to_numpy()),
        "r_name": pa.array(dim["r_name"]),
    })

    def attach_region(t: pa.Table) -> pa.Table:
        d = ray.get(ref)
        pos = pc.index_in(t["c_nationkey"], value_set=d["keys"])
        return pa.table({
            "r_name": pc.take(d["r_name"], pos),
            "price_c": t["price_c"],
        })

    out = (
        joined.map_batches(attach_region, batch_format="pyarrow")
        .groupby("r_name")
        .aggregate(Count(alias_name="n_orders"), Sum("price_c", alias_name="_rev_c"))
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "r_name": t["r_name"],
            "n_orders": t["n_orders"],
            "revenue": pc.divide(pc.cast(t["_rev_c"], pa.float64()), 100.0),
        })

    return out.map_batches(finish, batch_format="pyarrow")


def q_part_supplier_revenue(sf_dir: str):
    """Two-dimension star join on the fact table: lineitem revenue per
    (part brand × supplier nation). Both dimension chains (part,
    supplier∘nation) broadcast once; the fact table streams through a
    single vectorized double-lookup stage — zero shuffles before the
    final small aggregate."""
    part = read_parquet(_p(sf_dir, "part"),
                        columns=["p_partkey", "p_brand"]).to_pandas()
    supp = read_parquet(_p(sf_dir, "supplier"),
                        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    nat = read_parquet(_p(sf_dir, "nation"),
                       columns=["n_nationkey", "n_name"]).to_pandas()
    sn = supp.merge(nat, left_on="s_nationkey", right_on="n_nationkey")
    ref = ray.put({
        "pkeys": pa.array(part["p_partkey"].to_numpy()),
        "brand": pa.array(part["p_brand"]),
        "skeys": pa.array(sn["s_suppkey"].to_numpy()),
        "nation": pa.array(sn["n_name"]),
    })

    li = read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def attach(t: pa.Table) -> pa.Table:
        d = ray.get(ref)
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({
            "p_brand": pc.take(d["brand"],
                               pc.index_in(t["l_partkey"], value_set=d["pkeys"])),
            "n_name": pc.take(d["nation"],
                              pc.index_in(t["l_suppkey"], value_set=d["skeys"])),
            "rev_c": _quantize(rev, 10000.0),
        })

    agg = (
        li.map_batches(attach, batch_format="pyarrow")
        .groupby(["p_brand", "n_name"])
        .aggregate(Sum("rev_c", alias_name="_rc"), Count(alias_name="n_items"))
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "p_brand": t["p_brand"], "n_name": t["n_name"],
            "n_items": t["n_items"],
            "revenue": pc.divide(pc.cast(t["_rc"], pa.float64()), 10000.0),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def q_semi_join(sf_dir: str):
    """Lineitems of urgent orders — broadcast semi join (no shuffle)."""
    from pystreamfs_ray.stages.joins import semi_join

    urgent = read_parquet(_p(sf_dir, "orders"),
                             columns=["o_orderkey", "o_orderpriority"])
    keys = (urgent.filter(expr="o_orderpriority == '1-URGENT'")
            .map_batches(lambda t: pa.table({"l_orderkey": t["o_orderkey"]}),
                         batch_format="pyarrow"))
    li = read_parquet(_p(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_linenumber", "l_quantity"])
    return semi_join(li, keys, on="l_orderkey")


def q_anti_join(sf_dir: str):
    """Customers with no urgent orders — broadcast anti join."""
    from pystreamfs_ray.stages.joins import anti_join

    urgent = read_parquet(_p(sf_dir, "orders"),
                             columns=["o_custkey", "o_orderpriority"])
    keys = (urgent.filter(expr="o_orderpriority == '1-URGENT'")
            .map_batches(lambda t: pa.table({"c_custkey": t["o_custkey"]}),
                         batch_format="pyarrow"))
    cust = read_parquet(_p(sf_dir, "customer"),
                           columns=["c_custkey", "c_name", "c_mktsegment"])
    return anti_join(cust, keys, on="c_custkey")


def q_grouped_topk(sf_dir: str):
    """Top-3 events by value per event_type: per-batch partial top-k
    combiner → one hash shuffle → per-group final rank."""
    from pystreamfs_ray.stages.grouped import grouped_topk

    ds = read_parquet(_p(sf_dir, "events"),
                      columns=["event_type", "event_id", "value"])
    out = grouped_topk(ds, "event_type", "value", 3,
                       tiebreak_col="event_id", descending=True)
    return out.select_columns(["event_type", "event_id", "value", "rank"])


def q_grouped_quantiles(sf_dir: str):
    """Exact per-event_type median / p90 of value (linear
    interpolation, = DuckDB quantile_cont)."""
    from pystreamfs_ray.stages.grouped import grouped_quantiles

    ds = read_parquet(_p(sf_dir, "events"), columns=["event_type", "value"])
    return grouped_quantiles(ds, "event_type", "value",
                             [0.5, 0.9], ["median_value", "p90_value"])


def q_pivot_events(sf_dir: str):
    """Long → wide: per-user counts of each event type (two-level
    aggregation; shuffle bounded by user cardinality)."""
    from pystreamfs_ray.stages.grouped import pivot_counts

    ds = read_parquet(_p(sf_dir, "events"), columns=["user_id", "event_type"])
    return pivot_counts(ds, "user_id", "event_type",
                        ["click", "view", "purchase", "signup", "error"])


def q_stratified_sample(sf_dir: str):
    """Per-source deterministic sampling (corpus re-weighting): src0
    25%, src1 75%, everything else 50%."""
    from pystreamfs_ray.sources import stratified_sample_by_hash

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "source"])
    return stratified_sample_by_hash(
        docs, "source", "doc_id",
        {"src0": 0.25, "src1": 0.75}, default_rate=0.5)


def q_distinct_events(sf_dir: str):
    ds = read_parquet(_p(sf_dir, "events"), columns=["event_type", "value"])

    def quant(t: pa.Table) -> pa.Table:
        return t.append_column("value_c", _quantize(t["value"], 100.0))

    agg = ds.map_batches(quant, batch_format="pyarrow").groupby("event_type").aggregate(
        Count(alias_name="n"), Sum("value_c", alias_name="_vc")
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t["event_type"],
                "n": t["n"],
                "sum_value": pc.divide(pc.cast(t["_vc"], pa.float64()), 100.0),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


# ------------------------------------------------------- transcript pipeline


def _cast_turn64(ds):
    def fn(t: pa.Table) -> pa.Table:
        i = t.column_names.index("turn_idx")
        return t.set_column(i, "turn_idx", t["turn_idx"].cast(pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow")


def q_transcripts(sf_dir: str):
    """events → transcript shape (sessionize + stable turn ordering)."""
    return _cast_turn64(transcripts_from_events(sf_dir, num_buckets=_BUCKETS))


def q_featurize(sf_dir: str):
    """Full m=14 featurizer incl. the per-entity lag feature."""
    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    feats = featurize(t)

    def add_lag(g: pd.DataFrame) -> pd.DataFrame:
        g = W.sort_entity(g)
        return W.add_lag_delta(g)

    out = W.per_bucket(feats, add_lag, num_buckets=_BUCKETS)
    out = _cast_turn64(out.drop_columns(["role", "tool", "ts"]))
    return _round_cols(out, {"f_text_avg_word_len": 6, "f_ts_delta_s": 6, "f_turn_idx_norm": 6})


def q_tumbling(sf_dir: str):
    """Per-entity tumbling count windows (size 50) with in-bucket
    aggregation — grouping keys are bucket-local, so no second shuffle."""
    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    feats = featurize(t)

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        g = W.sort_entity(g)
        g = W.assign_tumbling(g, 50)
        out = (
            g.groupby(["conv_id", "window_id"], sort=False)
            .agg(
                n_turns=("turn_idx", "size"),
                sum_words=("f_text_words", "sum"),
                n_labels=("label", "sum"),
                ts_end=("ts", "max"),
            )
            .reset_index()
        )
        out["n_turns"] = out["n_turns"].astype(np.int64)
        out["n_labels"] = out["n_labels"].astype(np.int64)
        # sum of integer-valued doubles — exact, no rounding needed
        return out

    return W.per_bucket(feats, agg, num_buckets=_BUCKETS)


def q_sliding(sf_dir: str):
    """Sliding count window: rolling mean of chars over 10 rows."""
    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    feats = featurize(t).select_columns(["conv_id", "turn_idx", "f_text_chars"])

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort", ignore_index=True)
        g = W.rolling_mean(g, "f_text_chars", 10, out_col="chars_roll10")
        g["chars_roll10"] = g["chars_roll10"].round(6)
        return g[["conv_id", "turn_idx", "chars_roll10"]]

    return _cast_turn64(W.per_bucket(feats, roll, num_buckets=_BUCKETS))


def q_sliding_stride(sf_dir: str):
    """Overlapping sliding windows (size 10, stride 4) per entity —
    flat-expanded membership + in-bucket aggregation."""
    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    feats = featurize(t).select_columns(["conv_id", "turn_idx", "f_text_chars"])

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort", ignore_index=True)
        g = W.assign_sliding(g, size=10, stride=4, seq_col="turn_idx")
        out = (
            g.groupby(["conv_id", "window_start"], sort=False)
            .agg(n_rows=("turn_idx", "size"), sum_chars=("f_text_chars", "sum"))
            .reset_index()
        )
        out["n_rows"] = out["n_rows"].astype(np.int64)
        return out

    return W.per_bucket(feats, agg, num_buckets=_BUCKETS)


def q_union_counts(sf_dir: str):
    """Dataset.union of two filtered event streams + grouped count."""
    ev = read_parquet(_p(sf_dir, "events"), columns=["event_id", "event_type"])
    a = ev.filter(expr="event_type == 'click'")
    b = ev.filter(expr="event_type == 'purchase'")
    return a.union(b).groupby("event_type").aggregate(Count(alias_name="n"))


def q_lag_lead(sf_dir: str):
    ds = read_parquet(_p(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"])

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort", ignore_index=True)
        g = W.add_lag_lead(g, "value", lag=1, lead=1, entity_col="user_id")
        return g[["event_id", "user_id", "value", "value_lag1", "value_lead1"]]

    return W.per_bucket(ds, fn, entity_col="user_id", num_buckets=_BUCKETS)


def q_window_funcs(sf_dir: str):
    """SQL analytic functions per entity — row_number / rank /
    dense_rank / running sum — via ONE hash shuffle + vectorized
    grouped kernels per bucket (no per-row Python)."""
    ds = read_parquet(_p(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"])

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = W.add_window_funcs(g, entity_col="user_id", ts_col="ts",
                               value_col="value", id_col="event_id")
        return g[["event_id", "user_id", "row_number", "rank_value",
                  "dense_rank_value", "cum_value"]]

    return W.per_bucket(ds, fn, entity_col="user_id", num_buckets=_BUCKETS)


def q_backfill(sf_dir: str):
    """Forward-fill: carry the last purchase value onto later events."""
    ds = read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "user_id", "ts", "event_type", "value"]
    )

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort", ignore_index=True)
        g["purchase_value"] = g["value"].where(g["event_type"] == "purchase")
        g = W.backfill(g, "purchase_value", entity_col="user_id", out_col="last_purchase_value")
        return g[["event_id", "user_id", "last_purchase_value"]]

    return W.per_bucket(ds, fn, entity_col="user_id", num_buckets=_BUCKETS)


def q_sessionize(sf_dir: str):
    """Gap-based sessions (30 min) per user over the events stream."""
    ds = read_parquet(_p(sf_dir, "events"), columns=["event_id", "user_id", "ts"])

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort", ignore_index=True)
        g = W.sessionize(g, gap_s=1800, entity_col="user_id")
        out = (
            g.groupby(["user_id", "session_id"], sort=False)
            .agg(n_events=("event_id", "size"), ts_start=("ts", "min"), ts_end=("ts", "max"))
            .reset_index()
        )
        out["n_events"] = out["n_events"].astype(np.int64)
        return out

    return W.per_bucket(ds, fn, entity_col="user_id", num_buckets=_BUCKETS)


def q_rolling_1h(sf_dir: str):
    """Time-RANGE rolling sum: per user, sum of event value over the
    trailing 1 hour (peers at the current ts included) — SQL's
    ``RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW``.
    Values quantize to integer cents first so the windowed sums are
    exact and order-independent."""
    from pystreamfs_ray.stages.window import per_bucket, rolling_time_sum

    ds = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "user_id", "ts", "value"])

    def quant(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t["event_id"], "user_id": t["user_id"],
            "ts": t["ts"], "value_c": _quantize(t["value"], 100.0),
        })

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        out = rolling_time_sum(g, "value_c", 3600.0, entity_col="user_id",
                               ts_col="ts", out_col="sum_1h_c")
        out["sum_1h"] = out["sum_1h_c"] / 100.0
        return out[["event_id", "user_id", "ts", "sum_1h"]]

    return per_bucket(ds.map_batches(quant, batch_format="pyarrow"), fn,
                      entity_col="user_id", num_buckets=_BUCKETS)


def q_asof_events(sf_dir: str):
    """Point-in-time join: each purchase ← latest prior non-purchase event."""
    ev = read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "user_id", "ts", "event_type", "value"]
    )
    left = ev.filter(expr="event_type == 'purchase'").select_columns(
        ["event_id", "user_id", "ts", "value"]
    )
    right = ev.filter(expr="event_type != 'purchase'").select_columns(
        ["user_id", "ts", "value"]
    )
    out = asof_join(
        left, right, by="user_id", left_on="ts", right_on="ts",
        how="inner", num_buckets=_BUCKETS,
    )
    return out.select_columns(["event_id", "user_id", "ts", "value", "ts_matched", "value_r"])


def q_asof_forward(sf_dir: str):
    """FORWARD as-of join: each purchase → earliest non-purchase event
    strictly after it (time-to-next-event labeling). Same one-shuffle
    bucketed design as the backward form, direction flipped."""
    ev = read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "user_id", "ts", "event_type", "value"]
    )
    left = ev.filter(expr="event_type == 'purchase'").select_columns(
        ["event_id", "user_id", "ts", "value"]
    )
    right = ev.filter(expr="event_type != 'purchase'").select_columns(
        ["user_id", "ts", "value"]
    )
    out = asof_join(
        left, right, by="user_id", left_on="ts", right_on="ts",
        how="inner", direction="forward", allow_exact_matches=False,
        num_buckets=_BUCKETS,
    )
    return out.select_columns(["event_id", "user_id", "ts", "value", "ts_matched", "value_r"])


# ----------------------------------------------------------- selector kernels


def _kernel_query(sf_dir: str, kernel: str):
    """feature_windows over events-derived transcripts (rows-only check;
    numeric parity is covered by the pytest oracle suite)."""
    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    wds = feature_windows(t, kernel=kernel, batch_size=50, num_features=5,
                          num_buckets=_BUCKETS)

    def fmt(tb: pa.Table) -> pa.Table:
        sel = pa.array(
            [",".join(map(str, s)) for s in tb["selected"].to_pylist()], type=pa.string()
        )
        wsum = pc.round(
            pa.array([float(np.sum(np.abs(v))) for v in tb["w"].to_pylist()]), ndigits=6
        )
        return pa.table(
            {
                "conv_id": tb["conv_id"],
                "window_id": tb["window_id"],
                "n_rows": tb["n_rows"].cast(pa.int64()),
                "selected_str": sel,
                "w_l1": wsum,
                "fscr": tb["fscr"],
            }
        )

    return wds.map_batches(fmt, batch_format="pyarrow")


def q_select_ofs(sf_dir: str):
    return _kernel_query(sf_dir, "ofs")


def q_select_efs(sf_dir: str):
    return _kernel_query(sf_dir, "efs")


def q_select_fsds(sf_dir: str):
    return _kernel_query(sf_dir, "fsds")


def q_select_mcnn(sf_dir: str):
    return _kernel_query(sf_dir, "mcnn")


def q_select_cancelout(sf_dir: str):
    return _kernel_query(sf_dir, "cancelout")


def q_interval_join(sf_dir: str):
    """Per-user INTERVAL (range) join: each purchase paired with every
    same-user event in the strictly-preceding 30 minutes — one shuffle,
    vectorized searchsorted range expansion inside buckets."""
    from pystreamfs_ray.stages.window import interval_join_pairs, per_bucket

    ds = read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "user_id", "ts", "event_type"]
    )

    def mark(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__is_l", pc.equal(t["event_type"], "purchase")
        )

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        return interval_join_pairs(
            g.drop(columns="__bucket"), left_mask_col="__is_l",
            window_s=1800.0, entity_col="user_id", ts_col="ts",
        )

    return per_bucket(ds.map_batches(mark, batch_format="pyarrow"), fn,
                      entity_col="user_id", num_buckets=_BUCKETS)


def q_asof_global(sf_dir: str):
    """KEYLESS (global) as-of join via time-range partitioning: each
    purchase ← the latest prior 'view' event of ANY user (global-state
    lookup, e.g. latest price tick). Tie-broken on event_id so the
    result is deterministic and SQL-exact."""
    from pystreamfs_ray.stages.asof import asof_join_time

    ev = read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "ts", "event_type", "value"]
    )
    left = ev.filter(expr="event_type == 'purchase'").select_columns(
        ["event_id", "ts", "value"]
    )
    right = ev.filter(expr="event_type == 'view'").select_columns(
        ["event_id", "ts", "value"]
    )
    return asof_join_time(left, right, left_on="ts", right_on="ts",
                          how="inner", right_tiebreak="event_id",
                          num_partitions=8)


def q_window_counts(sf_dir: str):
    """Selector windowing skeleton (ids/sizes only) — SQL-checkable even
    though the kernels themselves are not."""
    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    wds = feature_windows(t, kernel="ofs", batch_size=50, num_features=5,
                          num_buckets=_BUCKETS)

    def fmt(tb: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": tb["conv_id"],
                "window_id": tb["window_id"],
                "n_rows": tb["n_rows"].cast(pa.int64()),
                "ts_end": tb["ts_end"],
            }
        )

    return wds.map_batches(fmt, batch_format="pyarrow")


# ------------------------------------------- dedup / similarity / text ops


def q_sample_docs(sf_dir: str):
    """Deterministic hash-keyed 25% sample of documents — the
    reproducible-split pattern (same rows kept at any parallelism)."""
    from pystreamfs_ray.sources import sample_by_hash

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "source"])
    return sample_by_hash(docs, "doc_id", 0.25)


def q_chunk_docs(sf_dir: str):
    """Overlapping token-window chunking (64-token chunks, 16-token
    overlap) — the standard pre-training/RAG corpus step, as a
    row-expanding vectorized stage."""
    from pystreamfs_ray.stages.textstats import chunk_documents

    import pyarrow.dataset as pds

    # predicate pushed INTO the read: the table is id-sorted, so
    # row-group stats prune everything past doc_id 200 at the scan
    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"],
                        filter=(pds.field("doc_id") < 200))
    return chunk_documents(docs, chunk_tokens=64, overlap=16)


def q_word_topk(sf_dir: str):
    """Exact corpus-wide top-20 words: the canonical COMBINER pattern —
    each batch pre-aggregates its own word counts (the shuffle moves
    (word, partial_count) rows, ~vocabulary-sized, not one row per
    token), then a small groupby-sum and a tiny sort."""
    ev = read_parquet(_p(sf_dir, "documents"), columns=["text"])

    def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        words = df["text"].str.lower().str.findall(r"[a-z0-9_]+").explode()
        vc = words.value_counts()
        return pd.DataFrame({"word": vc.index.astype(str),
                             "n_total": vc.to_numpy()})

    total = combine_sum(ev, partial_counts, "word", ["n_total"])
    return (
        total.sort(["n_total", "word"], descending=[True, False]).limit(20)
    )


def q_hll_users(sf_dir: str):
    """HyperLogLog register table for distinct user_id (b=6 → 64
    registers). Registers are exact integers (md5 hash + integer bit
    length), so the distributed sketch state itself is SQL-oracle
    checked; the float estimate is pytest-gated separately."""
    from pystreamfs_ray.stages.sketch import hll_registers

    ev = read_parquet(_p(sf_dir, "events"), columns=["user_id"])
    return hll_registers(ev, "user_id", b=6)


def q_cms_users(sf_dir: str):
    """Count-Min register table (depth 4 × width 1024) for user_id
    event frequencies — the sum-mergeable sketch state is SQL-oracle
    checked; point-estimate bounds are pytest-gated."""
    from pystreamfs_ray.stages.sketch import cms_registers

    ev = read_parquet(_p(sf_dir, "events"), columns=["user_id"])
    return cms_registers(ev, "user_id", depth=4, width=1024)


def q_hist_value(sf_dir: str):
    """Equi-width histogram registers over events.value (the mergeable
    approximate-quantile sketch) — register state oracle-checked."""
    from pystreamfs_ray.stages.sketch import hist_registers

    ds = read_parquet(_p(sf_dir, "events"), columns=["value"])
    regs, _, _ = hist_registers(ds, "value", bins=64)
    return regs


def q_dedup_exact(sf_dir: str):
    from pystreamfs_ray.stages.dedup import exact_dedup

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    return exact_dedup(docs)


def q_token_stats(sf_dir: str):
    from pystreamfs_ray.stages.textstats import token_stats

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    out = token_stats(docs).drop_columns(["text"])
    return out


def q_bpe_tokens(sf_dir: str):
    """GPT-2-style pre-tokenizer token counts (RE2 on both sides →
    bit-identical to the DuckDB oracle)."""
    from pystreamfs_ray.stages.textstats import bpe_token_count

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    return bpe_token_count(docs).drop_columns(["text"])


def q_fingerprint(sf_dir: str):
    from pystreamfs_ray.stages.textstats import fingerprint

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def fmt(df: pd.DataFrame) -> pd.DataFrame:
        return df[["doc_id", "md5"]]

    return fingerprint(docs).map_batches(fmt, batch_format="pandas")


def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-10 for the first 10 vectors as queries."""
    from pystreamfs_ray.stages.similarity import brute_force_topk

    import pyarrow.dataset as pds

    emb = read_parquet(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    # query side: row-group-pruned read of 10 vectors, never a corpus scan
    qdf = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"],
                       filter=(pds.field("vec_id") < 10)).to_pandas()
    qmat = np.stack([np.asarray(v, dtype=np.float64) for v in qdf["embedding"]])
    out = brute_force_topk(emb, qdf["vec_id"].to_numpy(), qmat, k=10)

    def fmt(df: pd.DataFrame) -> pd.DataFrame:
        return df[["query_id", "vec_id", "cosine", "rank"]]

    return out.map_batches(fmt, batch_format="pandas")


def q_ivf_topk(sf_dir: str):
    """IVF top-10 at FULL probe (nprobe = n_cells): exercises the whole
    IVF machinery — centroid training, cell assignment, probe-masked
    scoring — while scanning every cell, so the result is exact and
    shares the brute-force SQL oracle. The approximate scale path
    (nprobe < n_cells) is recall-gated in pytest
    (`test_embedding_neardup_and_ann`)."""
    from pystreamfs_ray.stages.similarity import ivf_topk

    import pyarrow.dataset as pds

    emb = read_parquet(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    qdf = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"],
                       filter=(pds.field("vec_id") < 10)).to_pandas()
    qmat = np.stack([np.asarray(v, dtype=np.float64) for v in qdf["embedding"]])
    out = ivf_topk(emb, qdf["vec_id"].to_numpy(), qmat, k=10, n_cells=16,
                   nprobe=16)
    return out.map_batches(
        lambda df: df[["query_id", "vec_id", "cosine", "rank"]], batch_format="pandas"
    )


def q_minhash_pairs(sf_dir: str):
    from pystreamfs_ray.stages.dedup import minhash_lsh_pairs

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    return minhash_lsh_pairs(docs, threshold=0.2)


def q_simhash(sf_dir: str):
    from pystreamfs_ray.stages.dedup import SimHasher

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        out = SimHasher()(df)
        # reinterpret the u64 as i64 (two's complement) — int64 is what
        # the driver's schema/hash normalization handles portably
        out["simhash"] = out["simhash"].to_numpy(dtype=np.uint64).view(np.int64)
        return out

    return docs.map_batches(fn, batch_format="pandas")


def q_simhash_pairs(sf_dir: str):
    """SimHash near-dup pairs (banded LSH + Hamming verify). Exact vs
    SQL: hamming ≤ h implies a shared band (pigeonhole over h+1 bands),
    so the engine's banding finds exactly the pairs the all-pairs SQL
    oracle keeps."""
    from pystreamfs_ray.stages.dedup import simhash_pairs

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    return simhash_pairs(docs, max_hamming=3)


def q_embedding_neardup(sf_dir: str):
    """LSH near-dup over the embeddings table plus 5 known duplicate
    probes (vec_id + 1_000_000) — the probes guarantee true near-dups
    exist (the raw table's max pairwise cosine is < 0.5)."""
    from pystreamfs_ray.stages.dedup import embedding_neardup_pairs

    emb = read_parquet(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])

    def probes(t: pa.Table) -> pa.Table:
        mask = pc.less(t["vec_id"], 5)
        dup = t.filter(mask)
        dup = dup.set_column(
            0, "vec_id", pc.add(dup["vec_id"], pa.scalar(1_000_000, type=pa.int64()))
        )
        return pa.concat_tables([t, dup])

    with_probes = emb.map_batches(probes, batch_format="pyarrow")
    return embedding_neardup_pairs(with_probes, threshold=0.95)


def q_semantic_dedup(sf_dir: str):
    """SEMANTIC dedup composition — the training-data flow: embedding
    LSH near-dup pairs → drop every vector that near-duplicates a
    lower id (keep-first). Uses the probe-augmented set so true
    near-dups exist; the 5 probe duplicates must vanish."""
    from pystreamfs_ray.stages.dedup import embedding_neardup_pairs
    from pystreamfs_ray.stages.joins import anti_join

    emb = read_parquet(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])

    def probes(t: pa.Table) -> pa.Table:
        mask = pc.less(t["vec_id"], 5)
        dup = t.filter(mask)
        dup = dup.set_column(
            0, "vec_id", pc.add(dup["vec_id"], pa.scalar(1_000_000, type=pa.int64()))
        )
        return pa.concat_tables([t, dup])

    with_probes = emb.map_batches(probes, batch_format="pyarrow")
    pairs = embedding_neardup_pairs(with_probes, threshold=0.95)
    dup_ids = pairs.map_batches(lambda t: pa.table({"vec_id": t["id_b"]}),
                                batch_format="pyarrow")
    return anti_join(with_probes.select_columns(["vec_id"]), dup_ids,
                     on="vec_id")


def q_dedup_groups(sf_dir: str):
    """Duplicate groups: near-dup pairs → connected components (the
    probes guarantee non-trivial components exist)."""
    from pystreamfs_ray.stages.dedup import dedup_groups

    return dedup_groups(q_embedding_neardup(sf_dir))


def q_dedup_groups_exact(sf_dir: str):
    """Connected components over CHAINED exact-duplicate pairs: docs
    0..9 are replicated at +1M/+2M/+3M id offsets, so each duplicate
    group is a 4-node chain (diameter 3 — multi-hop label propagation
    actually exercised). SQL oracle: min id per text group."""
    from pystreamfs_ray.stages.dedup import dedup_groups, exact_dup_chain_pairs

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def probes(t: pa.Table) -> pa.Table:
        base = t.filter(pc.less(t["doc_id"], 10))
        parts = [t]
        for off in (1_000_000, 2_000_000, 3_000_000):
            parts.append(
                base.set_column(
                    base.column_names.index("doc_id"), "doc_id",
                    pc.add(base["doc_id"], pa.scalar(off, type=pa.int64())),
                )
            )
        return pa.concat_tables(parts)

    aug = docs.map_batches(probes, batch_format="pyarrow")
    return dedup_groups(exact_dup_chain_pairs(aug))


def q_ngram_jaccard(sf_dir: str):
    """Exact char-trigram Jaccard over a deterministic candidate-pair
    set (consecutive doc ids) — the LSH-verification stage run
    standalone so it gets a full SQL oracle."""
    from pystreamfs_ray.stages.dedup import ngram_jaccard_pairs

    import pyarrow.dataset as pds

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"],
                        filter=(pds.field("doc_id") < 100))

    def mk_pairs(t: pa.Table) -> pa.Table:
        ids = t.filter(
            pc.equal(pc.bit_wise_and(t["doc_id"], 1), 0)
        )["doc_id"]
        return pa.table({"id_a": ids, "id_b": pc.add(ids, 1)})

    pairs = docs.map_batches(mk_pairs, batch_format="pyarrow")
    return ngram_jaccard_pairs(pairs, docs, k=3, num_partitions=4)


def q_corpus_curation(sf_dir: str):
    """End-to-end curation: dedup → quality → lang-ID → filter →
    per-source token accounting, one streaming pipeline."""
    from pystreamfs_ray.pipelines.curation import curate_corpus

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "text", "source"])
    return curate_corpus(docs, lang="en", quality_min=0.3)


def q_text_quality(sf_dir: str):
    from pystreamfs_ray.stages.textstats import quality_score

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    return quality_score(docs).map_batches(
        lambda df: df[["doc_id", "stopword_ratio", "quality_score"]],
        batch_format="pandas",
    )


def q_lang_id(sf_dir: str):
    from pystreamfs_ray.stages.textstats import lang_id

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text", "lang"])
    return lang_id(docs).map_batches(
        lambda df: df[["doc_id", "lang", "pred_lang"]], batch_format="pandas"
    )


def q_tfidf(sf_dir: str):
    """Per-document top TF-IDF term — combiner-style document
    frequencies (vocab-sized shuffle only) + broadcast idf table."""
    from pystreamfs_ray.stages.textstats import tfidf_top_term

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    return tfidf_top_term(docs)


def q_json_extract(sf_dir: str):
    """Semi-structured extraction: pull the integer field ``k`` out of
    the JSON ``props`` column with a zero-copy Arrow RE2 kernel
    (`pc.extract_regex`), then a grouped roll-up. The oracle parses
    with DuckDB's real JSON reader — a cross-implementation check that
    the vectorized extraction equals true JSON semantics here."""
    ds = read_parquet(_p(sf_dir, "events"), columns=["event_type", "props"])

    def fn(t: pa.Table) -> pa.Table:
        x = pc.extract_regex(t["props"], r'"k"\s*:\s*(?P<k>-?[0-9]+)')
        k = pc.cast(pc.struct_field(x, "k"), pa.int64())
        return pa.table({"event_type": t["event_type"], "k": k})

    return (ds.map_batches(fn, batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(Sum("k", alias_name="sum_k"),
                       Max("k", alias_name="max_k"),
                       Count(alias_name="n")))


def q_pack_sequences(sf_dir: str):
    """GPT-style concat-and-chunk packing layout (512-token sequences)
    over the document corpus — a two-phase distributed prefix scan
    (O(P) driver state) + vectorized span math."""
    from pystreamfs_ray.stages.packing import pack_sequences

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    return pack_sequences(docs, seq_len=512)


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination: corpus docs sharing any word 4-gram
    with the (10% hash-sampled) eval split, with distinct-gram overlap
    counts — one distributed hash join on 64-bit gram hashes."""
    from pystreamfs_ray.stages.decontam import decontaminate

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    return decontaminate(docs, n=4, eval_rate=0.10)


def q_repetition(sf_dir: str):
    """Gopher/C4-style repetition quality signals (dup-line fraction,
    top-bigram share, dup-trigram fraction) + the published keep
    thresholds — doc-local, shuffle-free at any scale."""
    from pystreamfs_ray.stages.textstats import repetition_stats

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    return repetition_stats(docs)


def q_decode_media(sf_dir: str):
    """Multimodal plumbing: synthesized binary payloads → decode-stub
    stage → numeric features (deterministic; rows-only check)."""
    from pystreamfs_ray.stages.multimodal import decode_features, synth_media_table

    media = rd.from_arrow(synth_media_table(500, seed=21))
    return decode_features(media, batch_size=64)


def q_decode_bmp(sf_dir: str):
    """REAL image decode (no stub, no codec library): 200 genuine
    BMP containers (BI_RGB 24bpp — file+info headers, bottom-up BGR
    rows, 4-byte row padding) are synthesized from the published pixel
    formula, then PARSED back by the pure-numpy ``BmpDecoder`` stage
    into geometry + exact per-channel pixel sums. The oracle
    re-derives the same integers from the formula alone, so any parse
    error (padding, row order, channel order, header offsets) breaks
    the hash. Payloads never shuffle; output is one scalar row per
    media."""
    from pystreamfs_ray.stages.codecs import (decode_bmp_features,
                                              synth_codec_table)

    media = rd.from_arrow(synth_codec_table(200, "bmp")).repartition(8)
    return decode_bmp_features(media, batch_size=32)


def q_decode_wav(sf_dir: str):
    """REAL audio decode (no stub, no codec library): 200 genuine
    RIFF/WAVE PCM16 containers are synthesized from the published
    sample formula, then PARSED back by the pure-numpy ``WavDecoder``
    stage (chunk walk, fmt parse, exact Σs/Σs²/peak PCM stats in
    int64). The oracle recomputes every stat from the formula via
    generate_series — a full synth → container bytes → parse → stats
    round trip with zero float anywhere."""
    from pystreamfs_ray.stages.codecs import (decode_wav_features,
                                              synth_codec_table)

    media = rd.from_arrow(synth_codec_table(200, "wav")).repartition(8)
    return decode_wav_features(media, batch_size=32)


def q_accuracy_over_time(sf_dir: str):
    """Accuracy mean + Q1/Q3 band per window ordinal across entities
    (reference plot panel analog; wall-free → deterministic)."""
    from pystreamfs_ray.pipelines.metrics import accuracy_over_time

    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    wds = feature_windows(t, kernel="ofs", batch_size=50, num_features=5,
                          num_buckets=_BUCKETS, evaluate="knn")
    out = accuracy_over_time(wds)

    def fmt(df: pd.DataFrame) -> pd.DataFrame:
        for c in ("acc_mean", "acc_q1", "acc_q3", "fscr_mean"):
            df[c] = df[c].astype(np.float64).round(6)
        return df

    return out.map_batches(fmt, batch_format="pandas")


def q_eval_salted(sf_dir: str, model: str = "knn"):
    """Salted distributed prequential evaluation over window chunks
    (the mega-entity skew path; equality vs inline eval is pytest-gated).
    ``model`` picks the evaluation model — "knn" | "logistic" | "tree" |
    "svm" — mirroring the reference examples' KNeighbors / DecisionTree /
    SVC choices (`/root/reference/pystreamfs/utils.py:48-51`)."""
    from pystreamfs_ray.stages.evaluate import evaluate_windows
    from pystreamfs_ray.stages.featurize import featurize as _feat

    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    specs = feature_windows(t, kernel="ofs", batch_size=50, num_features=5,
                            num_buckets=_BUCKETS)
    acc = evaluate_windows(
        _feat(transcripts_from_events(sf_dir, num_buckets=_BUCKETS)),
        specs.select_columns(["kernel", "conv_id", "window_id", "selected"]),
        batch_size=50, max_history=2000, model=model,
        chunk_windows=50, num_buckets=16,
    )

    def fmt(df: pd.DataFrame) -> pd.DataFrame:
        df["acc"] = df["acc"].round(6)
        return df

    return acc.map_batches(fmt, batch_format="pandas")


def q_metrics_summary(sf_dir: str):
    """Global stats means (reference stats dict analog) — rows-only
    (wall-clock fields are nondeterministic by nature)."""
    from pystreamfs_ray.pipelines.metrics import global_summary

    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    wds = feature_windows(t, kernel="ofs", batch_size=50, num_features=5,
                          num_buckets=_BUCKETS)
    return global_summary(wds)


def q_funnel(sf_dir: str):
    """Ordered event funnel view→click→purchase: entities advance only
    on a strictly-later event of the next stage (earliest-completion
    semantics); one entity-hash shuffle, per-stage vectorized passes."""
    from pystreamfs_ray.stages.temporal import funnel_counts

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["user_id", "ts", "event_type"])
    return funnel_counts(ev, ["view", "click", "purchase"])


def q_new_users(sf_dir: str):
    """New-entities-per-day + running cumulative total: combiner
    groupby-min on the entity key, calendar-bounded roll-up."""
    from pystreamfs_ray.stages.temporal import first_seen_counts

    ev = read_parquet(_p(sf_dir, "events"), columns=["user_id", "ts"])
    return first_seen_counts(ev)


def q_percent_rank(sf_dir: str):
    """Global percent-rank of customer balance WITHOUT a global sort:
    range-partition + two-phase prefix counts (P integers to driver),
    exact SQL PERCENT_RANK tie semantics."""
    from pystreamfs_ray.stages.rank import global_percent_rank

    cust = read_parquet(_p(sf_dir, "customer"),
                        columns=["c_custkey", "c_acctbal"])
    return global_percent_rank(cust, value_col="c_acctbal",
                               id_col="c_custkey", out_col="pr")


def q_group_zscore(sf_dir: str):
    """Per-source standardization of document length (grouped feature
    scaling): combiner moment partials → broadcast stats → local score."""
    from pystreamfs_ray.stages.grouped import group_zscore

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "source", "n_chars"])
    return group_zscore(docs, "source", "n_chars", id_col="doc_id")


def q_dedup_keep_best(sf_dir: str):
    """Exact dedup keeping the preferred-source copy (curated beats
    crawl) instead of first-seen; single bucketed content-hash shuffle."""
    from pystreamfs_ray.stages.dedup import exact_dedup_keep_best

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "text", "source"])
    return exact_dedup_keep_best(docs)


def q_kmeans_assign(sf_dir: str):
    """Nearest-centroid assignment of every embedding to k=4 fixed
    (smallest-vec_id) centroids: broadcast centroid matrix, one
    vectorized distance pass per batch, zero shuffles."""
    from pystreamfs_ray.stages.cluster import kmeans_assign, seed_centroids

    emb = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"])
    cids, C = seed_centroids(emb, 4)
    return kmeans_assign(emb, cids, C)


def q_kmeans(sf_dir: str):
    """Per-cluster size + mean distance for the k=4 fixed-centroid
    assignment (the clustering summary a SemDeDup/IVF pass starts
    from); exchange volume is k rows."""
    from pystreamfs_ray.stages.cluster import cluster_sizes, seed_centroids

    emb = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"])
    cids, C = seed_centroids(emb, 4)
    return cluster_sizes(emb, cids, C)


def q_inverted_index(sf_dir: str):
    """Term → (df, ascending posting list) over documents; per-batch
    (term, doc) combiner, one term-hash shuffle."""
    from pystreamfs_ray.stages.index import inverted_index

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "text"])
    return inverted_index(docs, min_df=2)


def q_ntile(sf_dir: str):
    """Decile bucketing of customer balance with exact SQL NTILE
    semantics (ORDER BY value, id) — range-partition + prefix counts,
    no global sort."""
    from pystreamfs_ray.stages.rank import global_ntile

    cust = read_parquet(_p(sf_dir, "customer"),
                        columns=["c_custkey", "c_acctbal"])
    return global_ntile(cust, 10, value_col="c_acctbal",
                        id_col="c_custkey", out_col="bucket")


def q_group_sample(sf_dir: str):
    """Deterministic exact-5-per-source document sample (fixed-size
    stratified split, reproducible at any parallelism)."""
    from pystreamfs_ray.sources import sample_n_per_group

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "source"])
    return sample_n_per_group(docs, "source", "doc_id", 5)


def q_grouped_corr(sf_dir: str):
    """Per-group Pearson correlation (quantity vs price per return
    flag) via the six-number sufficient-statistics combiner."""
    from pystreamfs_ray.stages.grouped import grouped_corr

    li = read_parquet(_p(sf_dir, "lineitem"),
                      columns=["l_returnflag", "l_quantity",
                               "l_extendedprice"])
    return grouped_corr(li, "l_returnflag", "l_quantity",
                        "l_extendedprice")


def q_label_centroids(sf_dir: str):
    """Per-label mean embedding (class centroids, long form) via the
    (count, sum-vector) combiner; exchange is n_blocks x n_labels rows."""
    from pystreamfs_ray.stages.cluster import label_centroids

    emb = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["label", "embedding"])
    out = label_centroids(emb)
    out["label"] = out["label"].astype(np.int64)
    return out


def q_pmi_bigrams(sf_dir: str):
    """Adjacent-word PMI collocations over documents: vocab-bounded
    combiner aggregations + broadcast unigram table."""
    from pystreamfs_ray.stages.textstats import pmi_bigrams

    docs = read_parquet(_p(sf_dir, "documents"), columns=["text"])
    return pmi_bigrams(docs, min_count=5)


def q_render_chat(sf_dir: str):
    """Chat-template rendering: each conversation flattened to one
    ordered 'role: text' training document; one entity shuffle."""
    from pystreamfs_ray.pipelines.transcripts import render_chat

    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    return render_chat(t, num_buckets=_BUCKETS)


def q_sft_pairs(sf_dir: str):
    """SFT pair mining: (user turn, immediately-following assistant
    turn) pairs via vectorized shift comparison per entity bucket."""
    from pystreamfs_ray.pipelines.transcripts import sft_pairs

    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    return sft_pairs(t, num_buckets=_BUCKETS)


def q_feature_hash(sf_dir: str):
    """Hashing-trick bag-of-words (16 md5 slots, long form) — the
    vocabulary-free text featurizer; doc-local, zero shuffles."""
    from pystreamfs_ray.stages.textstats import feature_hash

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "text"])
    return feature_hash(docs, num_buckets=16)


def q_impute_value(sf_dir: str):
    """Per-user mean imputation of a deterministically-nulled value
    column (error events → null): combiner stats, broadcast means,
    batch-local fill."""
    from pystreamfs_ray.stages.grouped import impute_group_mean

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "user_id", "event_type", "value"])

    def nullify(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy(np.float64).copy()
        v[df["event_type"].to_numpy() == "error"] = np.nan
        return pd.DataFrame({"event_id": df["event_id"].to_numpy(),
                             "user_id": df["user_id"].to_numpy(),
                             "v": v})

    nulled = ev.map_batches(nullify, batch_format="pandas")
    return impute_group_mean(nulled, "user_id", "v", id_col="event_id",
                             out_col="value_f")


def q_target_encode(sf_dir: str):
    """Leave-one-out target encoding of user_id by event value (the
    leakage-safe categorical mean encoding); combiner stats +
    broadcast finish. Fixed-point cents mode (value is an exact
    2-decimal) so the result is bit-exact and summation-order
    independent. Singleton users encode to null."""
    from pystreamfs_ray.stages.grouped import target_encode_loo

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "user_id", "value"])
    return target_encode_loo(ev, "user_id", "value", id_col="event_id",
                             out_col="enc_cents", scale=100)


def q_embedding_cov(sf_dir: str):
    """Population covariance matrix of the embedding space (long form)
    via one-row-per-batch (n, Σx, XᵀX) combiner partials."""
    from pystreamfs_ray.stages.cluster import embedding_covariance

    emb = read_parquet(_p(sf_dir, "embeddings"), columns=["embedding"])
    return embedding_covariance(emb)


def q_ncm_confusion(sf_dir: str):
    """Nearest-class-mean classifier eval over embeddings: combiner
    centroid fit → broadcast assignment → confusion counts."""
    from pystreamfs_ray.stages.cluster import ncm_confusion

    emb = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["label", "embedding"])
    return ncm_confusion(emb)


def q_minmax_scale(sf_dir: str):
    """Per-source min-max scaling of document length; combiner
    (min, max) partials + broadcast + batch-local scale."""
    from pystreamfs_ray.stages.grouped import group_minmax_scale

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "source", "n_chars"])
    return group_minmax_scale(docs, "source", "n_chars", id_col="doc_id")


def q_robust_zscore(sf_dir: str):
    """Per-source median/MAD robust z-score of document length; two
    (group, value)-only shuffles."""
    from pystreamfs_ray.stages.grouped import group_robust_zscore

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "source", "n_chars"])
    return group_robust_zscore(docs, "source", "n_chars", id_col="doc_id")


def q_normalize_text(sf_dir: str):
    """Canonical text cleanup (lower + whitespace collapse + trim);
    zero-copy Arrow RE2 kernels, shuffle-free."""
    from pystreamfs_ray.stages.textstats import normalize_text

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "text"])
    return normalize_text(docs)


def q_audit_orders(sf_dir: str):
    """One-row data-quality audit of orders (row/dup-key/null/range
    counts + value bounds); combiner partials, key-bounded shuffle."""
    from pystreamfs_ray.stages.audit import table_audit

    orders = read_parquet(_p(sf_dir, "orders"),
                          columns=["o_orderkey", "o_totalprice"])
    return table_audit(orders, key_col="o_orderkey",
                       numeric_col="o_totalprice", min_value=0.0)


def q_dedup_prompts(sf_dir: str):
    """Exact dedup of mined SFT prompts (the dedup-before-train step on
    pair data): keep the lexicographically-first pair id per distinct
    prompt, with the duplicate count."""
    from pystreamfs_ray.pipelines.transcripts import sft_pairs
    from pystreamfs_ray.stages.dedup import exact_dedup

    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    pairs = sft_pairs(t, num_buckets=_BUCKETS)

    def add_pair_id(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "pair_id": df["conv_id"].astype(str) + ":" +
                       df["turn_idx"].astype(str),
            "prompt": df["prompt"],
        })

    keyed = pairs.map_batches(add_pair_id, batch_format="pandas")
    return exact_dedup(keyed, id_col="pair_id", text_col="prompt")


def q_lang_entropy(sf_dir: str):
    """Per-source Shannon entropy (nats) of the language distribution —
    the corpus-diversity report; (source, lang) combiner counts, tiny
    final table."""
    ev = read_parquet(_p(sf_dir, "documents"),
                      columns=["source", "lang"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["source", "lang"], sort=False).size().reset_index(
            name="c")
        g["c"] = g["c"].astype(np.int64)
        from pystreamfs_ray.util import arrow_block

        return arrow_block(g)

    counts = combine_sum(ev, partial, ["source", "lang"], ["c"]).to_pandas()

    def entropy(g: pd.DataFrame) -> float:
        p = g["c"].to_numpy(np.float64) / g["c"].sum()
        return round(float(-(p * np.log(p)).sum()), 6)

    out = (counts.groupby("source")
           .apply(entropy, include_groups=False).reset_index(name="h"))
    n = counts.groupby("source")["c"].sum().reset_index(name="n_docs")
    out = out.merge(n, on="source")
    out["n_docs"] = out["n_docs"].astype(np.int64)
    return out


def q_budget_sample(sf_dir: str):
    """Greedy token-budget corpus assembly: per source, admit documents
    in md5-of-doc_id order until 1000 cumulative tokens."""
    from pystreamfs_ray.sources import budget_sample
    from pystreamfs_ray.stages.textstats import token_stats

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "source", "text"])
    with_tokens = token_stats(docs).select_columns(
        ["doc_id", "source", "n_tokens"])
    return budget_sample(with_tokens, "source", "doc_id", "n_tokens", 1000)


def q_kfold(sf_dir: str):
    """Deterministic 5-fold assignment by md5-of-key (reproducible CV
    splits at any parallelism) with per-fold size and token mass —
    the split-balance report. Shuffle: fold-cardinality combiner only."""
    from pystreamfs_ray.stages.dedup import _md5_lower64
    from pystreamfs_ray.stages.textstats import token_stats

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "text"])

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        fold = (_md5_lower64([str(v) for v in df["doc_id"]])
                % np.uint64(5)).astype(np.int64)
        g = (pd.DataFrame({"fold": fold,
                           "n_tokens": df["n_tokens"].to_numpy(np.int64)})
             .groupby("fold", as_index=False)
             .agg(n_docs=("n_tokens", "size"), n_tokens=("n_tokens", "sum")))
        g["n_docs"] = g["n_docs"].astype(np.int64)
        from pystreamfs_ray.util import arrow_block

        return arrow_block(g)

    stats = token_stats(docs).select_columns(["doc_id", "n_tokens"])
    return combine_sum(stats, assign, "fold", ["n_docs", "n_tokens"])


def q_hll_by_type(sf_dir: str):
    """Per-event-type approximate-distinct-user HLL registers (the
    grouped mergeable sketch; shuffle bounded by groups x 2^b)."""
    from pystreamfs_ray.stages.sketch import hll_registers_by

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_type", "user_id"])
    return hll_registers_by(ev, "event_type", "user_id")


def q_bm25(sf_dir: str):
    """BM25 lexical retrieval scores for a two-term query over the
    corpus; |q|-row corpus aggregates broadcast into one doc-local
    scoring pass."""
    from pystreamfs_ray.stages.index import bm25_scores

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "text"])
    return bm25_scores(docs, ["join", "filter"])


def q_hist_by_source(sf_dir: str):
    """Per-source document-length histogram registers (grouped
    sum-mergeable sketch; shuffle bounded by groups x bins)."""
    from pystreamfs_ray.stages.sketch import hist_registers_by

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["source", "n_chars"])
    regs, _ = hist_registers_by(docs, "source", "n_chars", bins=16)
    return regs


def q_latest_event(sf_dir: str):
    """Changelog compaction: the LATEST event per user (deterministic
    (ts, event_id) tie-break) — the CDC keep-latest primitive, via the
    partial-top-k combiner so each batch ships at most one row per
    user."""
    from pystreamfs_ray.stages.grouped import grouped_topk

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["user_id", "event_id", "ts", "event_type"])

    out = grouped_topk(ev, "user_id", "ts", 1, tiebreak_col="event_id",
                       descending=True)
    return out.drop_columns(["rank"])


def q_bloom_semi(sf_dir: str):
    """Semi join at scale: Bloom prefilter (recall-exact, ~1% false
    positives) cuts the big side BEFORE an exact distributed join on
    the survivors — the two-stage pattern for key sets too large to
    broadcast exactly. Result is identical to the exact semi join, so
    the same SQL oracle gates it."""
    from pystreamfs_ray.sources import strip_schema_metadata
    from pystreamfs_ray.stages.joins import BloomFilter, bloom_semi_join

    urgent = read_parquet(_p(sf_dir, "orders"),
                          columns=["o_orderkey", "o_orderpriority"])
    keys = (urgent.filter(expr="o_orderpriority == '1-URGENT'")
            .select_columns(["o_orderkey"]))
    key_arr = keys.to_pandas()["o_orderkey"].to_numpy()
    bloom = BloomFilter(len(key_arr))
    bloom.add(key_arr)

    li = read_parquet(_p(sf_dir, "lineitem"),
                      columns=["l_orderkey", "l_linenumber", "l_quantity"])
    prefiltered = bloom_semi_join(li, bloom, on="l_orderkey")
    # exact verify: small surviving side ⋈ key set (kills the ~fp_rate
    # false positives); at scale both sides stay distributed
    verified = prefiltered.join(
        strip_schema_metadata(keys.select_columns(["o_orderkey"])),
        "inner", num_partitions=_join_partitions(li),
        on=("l_orderkey",), right_on=("o_orderkey",))
    return verified.select_columns(["l_orderkey", "l_linenumber",
                                    "l_quantity"])


def _urgent_keys_ds(sf_dir: str):
    from pystreamfs_ray.sources import strip_schema_metadata

    urgent = read_parquet(_p(sf_dir, "orders"),
                          columns=["o_orderkey", "o_orderpriority"])
    return strip_schema_metadata(
        urgent.filter(expr="o_orderpriority == '1-URGENT'")
        .select_columns(["o_orderkey"]))


def q_semi_shuffle(sf_dir: str):
    """Fully-distributed LEFT SEMI join (native shuffle hash join, no
    broadcast anywhere) — the both-sides-big scale path; same oracle
    as the broadcast form."""
    li = read_parquet(_p(sf_dir, "lineitem"),
                      columns=["l_orderkey", "l_linenumber", "l_quantity"])
    return li.join(_urgent_keys_ds(sf_dir), "left_semi",
                   num_partitions=_join_partitions(li),
                   on=("l_orderkey",), right_on=("o_orderkey",))


def q_anti_shuffle(sf_dir: str):
    """Fully-distributed LEFT ANTI join (customers with no urgent
    orders) — the exact anti-join scale path (a Bloom prefilter CANNOT
    serve anti semantics: its false positives would drop valid rows);
    same oracle as the broadcast form."""
    from pystreamfs_ray.sources import strip_schema_metadata

    urgent = read_parquet(_p(sf_dir, "orders"),
                          columns=["o_custkey", "o_orderpriority"])
    keys = strip_schema_metadata(
        urgent.filter(expr="o_orderpriority == '1-URGENT'")
        .select_columns(["o_custkey"]))
    cust = read_parquet(_p(sf_dir, "customer"),
                        columns=["c_custkey", "c_name", "c_mktsegment"])
    return cust.join(keys, "left_anti",
                     num_partitions=_join_partitions(cust),
                     on=("c_custkey",), right_on=("o_custkey",))


def q_cms_by_type(sf_dir: str):
    """Per-event-type Count-Min registers over user ids (grouped
    frequency sketch; groups x depth x width exchange)."""
    from pystreamfs_ray.stages.sketch import cms_registers_by

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_type", "user_id"])
    return cms_registers_by(ev, "event_type", "user_id",
                            depth=4, width=256)


def q_trending(sf_dir: str):
    """Trending: top-3 event types per day by count — calendar × rank
    composition (two-level count combiner, then per-day top-k)."""
    from pystreamfs_ray.stages.grouped import grouped_topk

    ev = read_parquet(_p(sf_dir, "events"), columns=["ts", "event_type"])

    def day_counts(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.to_datetime(df["ts"]).dt.floor("D")
        g = (pd.DataFrame({"day": d, "event_type": df["event_type"]})
             .groupby(["day", "event_type"], sort=False).size()
             .reset_index(name="n"))
        g["n"] = g["n"].astype(np.int64)
        return g

    counts = combine_sum(ev, day_counts, ["day", "event_type"], ["n"])
    out = grouped_topk(counts, "day", "n", 3, tiebreak_col="event_type")
    return out


def q_retention(sf_dir: str):
    """Weekly retention cohorts: for each first-seen week (cohort) and
    week offset, how many of the cohort's users were active — the
    product-analytics retention matrix. Combiner groupby-min for the
    cohort, distinct (user, week) activity, one join, calendar-bounded
    output."""
    from pystreamfs_ray.sources import strip_schema_metadata
    from pystreamfs_ray.util import arrow_combiner

    ev = read_parquet(_p(sf_dir, "events"), columns=["user_id", "ts"])

    firsts = ev.groupby("user_id").aggregate(Min("ts", alias_name="fts"))

    def to_cohort(df: pd.DataFrame) -> pd.DataFrame:
        wk = pd.to_datetime(df["fts"]).dt.to_period("W-SUN").dt.start_time
        return pd.DataFrame({"user_id": df["user_id"].to_numpy(),
                             "cohort": wk})

    cohorts = strip_schema_metadata(
        firsts.map_batches(arrow_combiner(to_cohort),
                           batch_format="pyarrow"))

    def active_weeks(df: pd.DataFrame) -> pd.DataFrame:
        wk = pd.to_datetime(df["ts"]).dt.to_period("W-SUN").dt.start_time
        return (pd.DataFrame({"user_id": df["user_id"], "week": wk})
                .drop_duplicates())

    # per-batch dedup is only a combiner — finish the GLOBAL distinct
    # (a (user, week) pair spans batches) with one groupby
    activity = (ev.map_batches(arrow_combiner(active_weeks),
                               batch_format="pyarrow")
                .groupby(["user_id", "week"])
                .aggregate(Count(alias_name="__c"))
                .drop_columns(["__c"]))
    nparts = _join_partitions(ev)
    # coalesce the post-shuffle micro-blocks (empty blocks carry no
    # schema, which the hash join rejects on tiny inputs)
    joined = (activity.repartition(nparts)
              .join(cohorts.repartition(nparts), "inner",
                    num_partitions=nparts, on=("user_id",)))

    def to_offset(df: pd.DataFrame) -> pd.DataFrame:
        # (user, week) is globally unique here and weeks are aligned
        # starts, so each (cohort, offset, user) occurs exactly once
        off = ((pd.to_datetime(df["week"]) - pd.to_datetime(df["cohort"]))
               .dt.days // 7).astype(np.int64)
        g = (pd.DataFrame({"cohort": df["cohort"], "week_offset": off})
             .groupby(["cohort", "week_offset"], sort=False).size()
             .reset_index(name="n_active"))
        g["n_active"] = g["n_active"].astype(np.int64)
        return g

    return combine_sum(joined, to_offset, ["cohort", "week_offset"],
                       ["n_active"])


def q_rrf(sf_dir: str):
    """Hybrid retrieval: reciprocal-rank fusion of a lexical BM25
    top-50 and a vector cosine top-50 (query = embedding of vec 0;
    embeddings.vec_id aligns with documents.doc_id in the fixture) —
    the standard training-data-mining fused ranker. The two retrievers
    are fully distributed; the fusion itself runs on the two bounded
    top-n lists (driver-local by construction)."""
    from pystreamfs_ray.stages.index import bm25_scores, rrf_fuse, topn_ranked
    from pystreamfs_ray.stages.similarity import brute_force_topk

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    bm_top = topn_ranked(bm25_scores(docs, ["join", "filter"]),
                         score_col="score", id_col="doc_id", n=50)

    emb = read_parquet(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    qdf = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"],
                       filter=(_pds.field("vec_id") == 0)).to_pandas()
    qmat = np.stack([np.asarray(v, dtype=np.float64) for v in qdf["embedding"]])
    ann = (brute_force_topk(emb, qdf["vec_id"].to_numpy(), qmat, k=50)
           .to_pandas().rename(columns={"vec_id": "doc_id"}))

    return rrf_fuse([bm_top, ann], id_col="doc_id", k=60, topk=10)


def q_temperature_mix(sf_dir: str):
    """Temperature-flattened corpus mixing (T=2) over exponentially
    decaying source weights: high-weight sources keep ~all docs,
    low-weight ones keep the flattened fraction — deterministic
    md5-of-key membership, shuffle-free."""
    from pystreamfs_ray.sources import temperature_mix

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "source"])
    weights = {f"src{i}": 2.0 ** (-i) for i in range(20)}
    return temperature_mix(docs, "source", "doc_id", weights,
                           temperature=2.0, base_rate=1.0)


def q_unigram_logprob(sf_dir: str):
    """CCNet-style quality proxy: per-doc mean token −ln p(w) under the
    corpus unigram LM (one vocab-sized aggregate + broadcast scoring;
    join path above the broadcast gate)."""
    from pystreamfs_ray.stages.textstats import unigram_logprob

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    return unigram_logprob(docs)


def q_dup_matrix(sf_dir: str):
    """Cross-source overlap matrix keyed on the 2-token document prefix
    (a template-reuse fingerprint; exact-text overlap is empty on this
    corpus): distinct keys present in BOTH sources of each (a < b)
    pair — single bucketed content-hash shuffle, |sources|²-sized
    result."""
    from pystreamfs_ray.stages.dedup import cross_source_dup_matrix

    docs = read_parquet(_p(sf_dir, "documents"), columns=["text", "source"])

    def prefix_key(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "fp": df["text"].str.split().str[:2].str.join(" "),
            "source": df["source"].to_numpy(),
        })

    keyed = docs.map_batches(prefix_key, batch_format="pandas")
    return cross_source_dup_matrix(keyed, text_col="fp")


def q_asof_tolerance(sf_dir: str):
    """Point-in-time join with a staleness bound: each purchase ← the
    latest prior non-purchase event, kept only when that match is at
    most 1 hour old — the 'feature freshness' contract of production
    feature stores. Composition: the standard one-shuffle as-of join
    plus a row-local filter on the matched-age delta."""
    ev = read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "user_id", "ts", "event_type", "value"]
    )
    left = ev.filter(expr="event_type == 'purchase'").select_columns(
        ["event_id", "user_id", "ts", "value"]
    )
    right = ev.filter(expr="event_type != 'purchase'").select_columns(
        ["user_id", "ts", "value"]
    )
    out = asof_join(
        left, right, by="user_id", left_on="ts", right_on="ts",
        how="inner", num_buckets=_BUCKETS,
    )

    def fresh(df: pd.DataFrame) -> pd.DataFrame:
        age_s = (df["ts"] - df["ts_matched"]).dt.total_seconds()
        return df[age_s <= 3600.0]

    return out.map_batches(fresh, batch_format="pandas").select_columns(
        ["event_id", "user_id", "ts", "value", "ts_matched", "value_r"]
    )


def q_hll_by_window(sf_dir: str):
    """Per-DAY approximate-distinct-user HLL registers — the windowed
    mergeable sketch (time window × sketch composition); shuffle
    bounded by days × 2^b rows regardless of input size."""
    from pystreamfs_ray.stages.sketch import hll_registers_by

    ev = read_parquet(_p(sf_dir, "events"), columns=["ts", "user_id"])

    def add_day(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"day": df["ts"].dt.strftime("%Y-%m-%d"),
                             "user_id": df["user_id"].to_numpy()})

    return hll_registers_by(
        ev.map_batches(add_day, batch_format="pandas"), "day", "user_id")


def q_conv_stats(sf_dir: str):
    """Per-conversation transcript profile: turn count, per-role counts,
    tool-call count, wall duration — the conversation-level summary a
    transcript-curation pipeline filters on (too-short / no-assistant /
    tool-free convs). One combiner aggregate over the derived
    transcript stream; shuffle bounded by n_convs rows."""
    from pystreamfs_ray.util import arrow_combiner

    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        base = df.groupby("conv_id", sort=False).agg(
            n_turns=("turn_idx", "size"),
            ts_min=("ts", "min"),
            ts_max=("ts", "max"),
        )
        # vectorized per-role matrix: one crosstab, no per-group Python
        roles = (pd.crosstab(df["conv_id"], df["role"])
                 .reindex(columns=["user", "assistant", "system", "tool"],
                          fill_value=0)
                 .add_prefix("n_"))
        tc = (df.assign(__tc=(df["tool"] != "").astype(np.int64))
              .groupby("conv_id", sort=False)["__tc"].sum()
              .rename("n_tool_calls"))
        out = base.join(roles).join(tc).reset_index()
        out["n_turns"] = out["n_turns"].astype(np.int64)
        return out

    agg = (t.map_batches(arrow_combiner(partial), batch_format="pyarrow")
           .groupby("conv_id")
           .aggregate(Sum("n_turns", alias_name="n_turns"),
                      Sum("n_user", alias_name="n_user"),
                      Sum("n_assistant", alias_name="n_assistant"),
                      Sum("n_system", alias_name="n_system"),
                      Sum("n_tool", alias_name="n_tool"),
                      Sum("n_tool_calls", alias_name="n_tool_calls"),
                      Min("ts_min", alias_name="ts_min"),
                      Max("ts_max", alias_name="ts_max")))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["duration_s"] = np.round(
            (df["ts_max"] - df["ts_min"]).dt.total_seconds(), 6)
        for c in ("n_turns", "n_user", "n_assistant", "n_system",
                  "n_tool", "n_tool_calls"):
            df[c] = df[c].astype(np.int64)
        return df.drop(columns=["ts_min", "ts_max"])

    return agg.map_batches(finish, batch_format="pandas")


def q_pca_project(sf_dir: str):
    """Top-8 PCA projection of the embedding space (whitening-prep for
    embedding dedup/clustering): d×d covariance via combiner partials,
    driver eigh with a fixed sign convention, broadcast projection.
    Oracle (round 4): the projection is linear, so independently
    re-derived components are inlined as SQL literals and the
    distributed projection is checked with list_inner_product; the
    eigh itself stays pytest-gated vs numpy."""
    from pystreamfs_ray.stages.cluster import pca_project

    emb = read_parquet(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    return pca_project(emb, k=8)


def q_left_outer_join(sf_dir: str):
    """Native distributed LEFT OUTER join: every customer with their
    order count and revenue, keeping order-less customers as zeros —
    Ray's hash-partitioned join (both sides big), then a row-local
    null-fill. Counts pre-aggregated BEFORE the join (combiner side),
    so the join carries one row per custkey, not per order."""
    from pystreamfs_ray.util import arrow_combiner

    cust = read_parquet(_p(sf_dir, "customer"),
                        columns=["c_custkey", "c_mktsegment"])

    def cents(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_custkey": df["o_custkey"].to_numpy(),
            "cents": np.floor(df["o_totalprice"].to_numpy(np.float64)
                              * 100.0 + 0.5).astype(np.int64),
        })

    orders = (read_parquet(_p(sf_dir, "orders"),
                           columns=["o_custkey", "o_totalprice"])
              .map_batches(arrow_combiner(cents), batch_format="pyarrow")
              .groupby("o_custkey")
              .aggregate(Count(alias_name="n_orders"),
                         Sum("cents", alias_name="cents")))

    from pystreamfs_ray.util import drop_empty_blocks

    # size the aggregator pool by DATA (parquet metadata), not CPUs:
    # each join partition is an actor with real spin-up cost
    np_join = _join_partitions(cust)
    joined = cust.join(drop_empty_blocks(orders, np_join),
                       join_type="left_outer",
                       num_partitions=np_join,
                       on=("c_custkey",), right_on=("o_custkey",))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "c_custkey": df["c_custkey"].to_numpy(),
            "c_mktsegment": df["c_mktsegment"].to_numpy(),
            "n_orders": df["n_orders"].fillna(0).to_numpy(np.int64),
            "revenue": np.round(
                df["cents"].fillna(0).to_numpy(np.float64) / 100.0, 2),
        })

    return joined.map_batches(finish, batch_format="pandas")


def q_full_outer_join(sf_dir: str):
    """Native FULL OUTER join of two daily aggregates (purchases vs
    signups): days where either side is missing survive with zero — the
    reconciliation-report join shape. Both sides pre-aggregate to one
    row per day before the shuffle."""
    ev = read_parquet(_p(sf_dir, "events"), columns=["ts", "event_type"])

    def day_of(df: pd.DataFrame, etype: str) -> pd.DataFrame:
        df = df[df["event_type"] == etype]
        return pd.DataFrame({"day": df["ts"].dt.strftime("%Y-%m-%d")})

    from pystreamfs_ray.util import arrow_combiner

    buys = (ev.map_batches(arrow_combiner(lambda d: day_of(d, "purchase")),
                           batch_format="pyarrow")
            .groupby("day").aggregate(Count(alias_name="n_purchases")))
    signups = (ev.map_batches(arrow_combiner(lambda d: day_of(d, "signup")),
                              batch_format="pyarrow")
               .groupby("day").aggregate(Count(alias_name="n_signups")))
    signups = signups.map_batches(
        lambda t: t.rename_columns(["day_s", "n_signups"]),
        batch_format="pyarrow")

    from pystreamfs_ray.util import drop_empty_blocks

    joined = drop_empty_blocks(buys, 8).join(
        drop_empty_blocks(signups, 8), join_type="full_outer",
        num_partitions=8, on=("day",), right_on=("day_s",))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        # Ray's outer join coalesces the right key into the left key
        # column, so "day" is already total
        return pd.DataFrame({
            "day": df["day"].to_numpy(),
            "n_purchases": df["n_purchases"].fillna(0).to_numpy(np.int64),
            "n_signups": df["n_signups"].fillna(0).to_numpy(np.int64),
        })

    return joined.map_batches(finish, batch_format="pandas")


def q_rollup_revenue(sf_dir: str):
    """ROLLUP aggregation: order revenue at (region, nation) grain plus
    per-region subtotals and a grand total ('ALL' labels). The fine
    grain runs distributed (broadcast dimension chain + one small
    aggregate, same shape as q_region_revenue); the coarser levels
    derive from the FINE result — a 25-row frame — so rollup costs
    nothing extra at any scale."""
    import ray

    ords = read_parquet(_p(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"])
    cust = read_parquet(_p(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"])

    def quant(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": t["o_custkey"],
            "price_c": _quantize(t["o_totalprice"], 100.0),
        })

    joined = ords.map_batches(quant, batch_format="pyarrow").join(
        cust, join_type="inner", num_partitions=_join_partitions(ords),
        on=("o_custkey",), right_on=("c_custkey",))

    nat = read_parquet(_p(sf_dir, "nation"),
                       columns=["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    reg = read_parquet(_p(sf_dir, "region"),
                       columns=["r_regionkey", "r_name"]).to_pandas()
    dim = nat.merge(reg, left_on="n_regionkey", right_on="r_regionkey")
    ref = ray.put({
        "keys": pa.array(dim["n_nationkey"].to_numpy()),
        "r_name": pa.array(dim["r_name"]),
        "n_name": pa.array(dim["n_name"]),
    })

    def attach(t: pa.Table) -> pa.Table:
        d = ray.get(ref)
        pos = pc.index_in(t["c_nationkey"], value_set=d["keys"])
        return pa.table({
            "r_name": pc.take(d["r_name"], pos),
            "n_name": pc.take(d["n_name"], pos),
            "price_c": t["price_c"],
        })

    fine = (joined.map_batches(attach, batch_format="pyarrow")
            .groupby(["r_name", "n_name"])
            .aggregate(Sum("price_c", alias_name="cents"))
            .to_pandas())  # |regions × nations| rows — tiny by construction

    sub = (fine.groupby("r_name", as_index=False)["cents"].sum()
           .assign(n_name="ALL"))
    total = pd.DataFrame({"r_name": ["ALL"], "n_name": ["ALL"],
                          "cents": [fine["cents"].sum()]})
    allrows = pd.concat([fine, sub, total], ignore_index=True)
    return pd.DataFrame({
        "r_name": allrows["r_name"].to_numpy(),
        "n_name": allrows["n_name"].to_numpy(),
        "revenue": np.round(allrows["cents"].to_numpy(np.float64) / 100.0, 2),
    })


def q_dedup_windowed(sf_dir: str):
    """Time-scoped dedup over the event stream: first occurrence of
    each props payload per 7-day window (epoch-anchored) — one bucketed
    content-hash shuffle, window id row-local."""
    from pystreamfs_ray.stages.dedup import windowed_exact_dedup

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "ts", "props"])
    return windowed_exact_dedup(ev, id_col="event_id", text_col="props",
                                ts_col="ts")


def q_session_stats(sf_dir: str):
    """Per-user session rollup on top of gap-based sessionization:
    session count, total events, total in-session seconds — the
    engagement profile. Outputs are EXACT integers / µs-quantized
    seconds (means are quotients of exact decimals, the oracle
    rounding trap — derive them client-side). Sessions stay
    bucket-local (per-entity gaps-and-islands inside the ONE entity
    shuffle), so the rollup costs a second tiny aggregate only."""
    ds = read_parquet(_p(sf_dir, "events"), columns=["event_id", "user_id", "ts"])

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort",
                          ignore_index=True)
        g = W.sessionize(g, gap_s=1800, entity_col="user_id")
        sess = (g.groupby(["user_id", "session_id"], sort=False)
                .agg(n_events=("event_id", "size"), ts_start=("ts", "min"),
                     ts_end=("ts", "max"))
                .reset_index())
        sess["dur_us"] = (sess["ts_end"] - sess["ts_start"]).astype(
            "timedelta64[us]").astype(np.int64)
        out = (sess.groupby("user_id", sort=False)
               .agg(n_sessions=("session_id", "size"),
                    n_events=("n_events", "sum"),
                    dur_us=("dur_us", "sum"))
               .reset_index())
        out["n_sessions"] = out["n_sessions"].astype(np.int64)
        out["n_events"] = out["n_events"].astype(np.int64)
        out["total_dur_s"] = np.round(
            out["dur_us"].to_numpy(np.float64) / 1e6, 6)
        return out.drop(columns=["dur_us"])

    return W.per_bucket(ds, fn, entity_col="user_id", num_buckets=_BUCKETS)


# ---------------------------------------------------------------- round 4


def q_heavy_users(sf_dir: str):
    """Exact top-20 users by event count via the bounded-summary
    heavy-hitter two-pass (candidates from per-batch truncated counts
    with a sound n/cap slack, exact recount of candidates only) — the
    shuffle is capacity-bounded, never cardinality-bounded."""
    from pystreamfs_ray.stages.sketch import heavy_hitters

    ev = read_parquet(_p(sf_dir, "events"), columns=["user_id"])

    def to_str(t: pa.Table) -> pa.Table:
        return t.set_column(0, "user_id", pc.cast(t["user_id"], pa.string()))

    return heavy_hitters(ev.map_batches(to_str, batch_format="pyarrow"),
                         "user_id", 20)


def q_mask_pii(sf_dir: str):
    """PII masking over documents: deterministic synthetic emails/phones
    are planted (the corpus itself is PII-free), then masked with
    RE2-compatible patterns; emits per-doc match counts. Doc-local,
    shuffle-free."""
    from pystreamfs_ray.stages.pii import mask_pii

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        did = df["doc_id"].to_numpy()
        txt = df["text"].astype(str)
        em = pd.Series([f" contact user{d}@example.com now" if d % 5 == 0
                        else "" for d in did], index=df.index)
        ph = pd.Series([f" call 555-123-{1000 + d % 9000}" if d % 7 == 0
                        else "" for d in did], index=df.index)
        df["text"] = txt + em + ph
        return df

    masked = mask_pii(docs.map_batches(plant, batch_format="pandas"))
    return masked.select_columns(["doc_id", "masked", "n_emails", "n_phones"])


def q_pseudonymize(sf_dir: str):
    """Salted md5 pseudonyms for user ids over the purchase events —
    deterministic keyed rename so joins survive de-identification."""
    from pystreamfs_ray.stages.pii import pseudonymize

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "user_id", "event_type"])
    ev = ev.filter(expr="event_type == 'purchase'")
    out = pseudonymize(ev, "user_id", salt="s1")
    return out.select_columns(["event_id", "user_id_pseudo"])


def q_first_last(sf_dir: str):
    """Per-user first/last event (type and value) under the (ts,
    event_id) total order, plus event count — in-batch combiner keeps
    ≤ 2 rows per user per batch ahead of the shuffle."""
    from pystreamfs_ray.stages.grouped import grouped_first_last

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["user_id", "ts", "event_id", "event_type",
                               "value"])
    out = grouped_first_last(ev, "user_id", ["ts", "event_id"],
                             ["event_type", "value"])
    return out.select_columns(["user_id", "first_event_type", "first_value",
                               "last_event_type", "last_value", "n"])


def q_mad_outliers(sf_dir: str):
    """Per-event-type robust outlier stats (median / MAD / count above
    3·MAD) in exact integer cent arithmetic — bit-stable across
    partitionings, integer-mode SQL oracle."""
    from pystreamfs_ray.stages.grouped import mad_outliers

    ev = read_parquet(_p(sf_dir, "events"), columns=["event_type", "value"])
    return mad_outliers(ev, "event_type", "value", z=3)


def q_weighted_sample(sf_dir: str):
    """Probability-proportional-to-size document sample (inclusion
    ∝ min(n_chars, 1000)) in exact unsigned integer arithmetic —
    deterministic, parallelism-invariant, single streaming pass."""
    from pystreamfs_ray.sources import weighted_sample

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "source", "n_chars"])
    return weighted_sample(docs, "doc_id", "n_chars",
                           k_bits=54, weight_cap=1000)


def q_quality_filter(sf_dir: str):
    """Percentile-based corpus quality gate: keep documents at or above
    the corpus 25th quality percentile. The cutoff is never
    materialized — every doc gets its global percent-rank (two-phase
    range-partition + prefix counts, no global sort) and the filter is
    a row-local compare, so the pattern holds at any corpus size."""
    from pystreamfs_ray.stages.rank import global_percent_rank
    from pystreamfs_ray.stages.textstats import quality_score

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    qs = quality_score(docs).map_batches(
        lambda df: df[["doc_id", "quality_score"]], batch_format="pandas")
    pr = global_percent_rank(qs, value_col="quality_score",
                             id_col="doc_id")
    return pr.filter(expr="pr >= 0.25")


def q_heavy_terms(sf_dir: str):
    """Exact top-15 corpus terms via the capacity-bounded heavy-hitter
    two-pass over the EXPLODED word column — the shuffle stays
    ≤ cap+1 rows per batch no matter how large the vocabulary is
    (a full word groupby ships one partial per distinct word per
    block; see q_word_topk for the exact-groupby form)."""
    import re

    from pystreamfs_ray.stages.sketch import heavy_hitters

    word_re = re.compile(r"[a-z0-9_一-鿿]+")  # textstats tokenizer class

    def words(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.lower().str.findall(word_re)
        return pd.DataFrame({"word": np.concatenate(
            [np.array(t, dtype=object) for t in toks] or
            [np.array([], dtype=object)])})

    docs = read_parquet(_p(sf_dir, "documents"), columns=["text"])
    ws = docs.map_batches(words, batch_format="pandas")
    return heavy_hitters(ws, "word", 15)


def q_split_assign(sf_dir: str):
    """Deterministic 80/10/10 train/val/test holdout assignment by
    md5-of-doc_id — row-local, shuffle-free, stable as the corpus
    grows (see sources.split_assign)."""
    from pystreamfs_ray.sources import split_assign

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "source"])
    return split_assign(docs, "doc_id")


def q_dup_ngrams(sf_dir: str):
    """Per-document duplicated 5-gram accounting (the repeated-n-gram
    signal behind C4/RefinedWeb sub-document dedup): distinct
    (doc, gram-hash) pairs → one gram-frequency groupby → hash-join
    back → per-doc (n_grams, n_dup). Text never shuffles."""
    from pystreamfs_ray.stages.decontam import dup_ngram_stats

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "text"])
    return dup_ngram_stats(docs, n=5)


def q_corpus_stopwords(sf_dir: str):
    """Corpus-driven stopword mining: words whose document frequency is
    at least half the corpus. The cutoff ceil(0.5·n_docs) is computed
    from parquet metadata (no extra scan) and applied as a row-local
    filter on the word-frequency aggregate."""
    import math

    from pystreamfs_ray.stages.textstats import document_frequency

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "text"])
    thr = math.ceil(0.5 * docs.count())
    return document_frequency(docs).filter(expr=f"df >= {thr}")


def q_gap_quantiles(sf_dir: str):
    """Median / p90 inter-event gap per event type as EXACT integer
    order statistics: per-user lag diff in integer µs inside entity
    buckets (one user shuffle), then per-type 2×median (the sum of the
    two central order stats — the q_mad_outliers doubling trick) and
    the lower-p90 element. All-integer outputs sidestep the 6-digit
    rounding boundary that interpolated quantiles of decimal-grid
    values land on exactly (µs/1e6 medians end in ...5). Exact order
    stats co-locate each group like grouped_quantiles' exact path; the
    sketch path there is the documented approximate scale fallback."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "user_id", "ts", "event_type"])

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort", ignore_index=True)
        t = g["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        gap = np.diff(t, prepend=t[:1])
        new_user = g["user_id"].ne(g["user_id"].shift()).to_numpy()
        out = pd.DataFrame({"event_type": g["event_type"], "gap_us": gap})
        return out[~new_user]

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(df["gap_us"].to_numpy(np.int64))
        n = len(v)
        return pd.DataFrame({
            "event_type": [df["event_type"].iloc[0]],
            "median2_gap_us": [np.int64(v[(n - 1) // 2] + v[n // 2])],
            "p90lo_gap_us": [v[int(np.floor(0.9 * (n - 1)))]],
            "n": [np.int64(n)],
        })

    pairs = W.per_bucket(ev, gaps, entity_col="user_id",
                         num_buckets=_BUCKETS)
    return pairs.groupby("event_type").map_groups(
        stats, batch_format="pandas")


def _recall_frame(exact: pd.DataFrame, approx: pd.DataFrame,
                  id_col: str = "vec_id") -> pd.DataFrame:
    """Shared recall@k computation for every ANN quality-gate query:
    per exact-top-k query, the fraction of true neighbors the
    approximate result recovered (one definition, one rounding)."""
    rows = []
    for qid, grp in exact.groupby("query_id"):
        true = set(grp[id_col])
        got = set(approx.loc[approx["query_id"] == qid, id_col])
        rows.append((int(qid), len(true & got), len(true)))
    out = pd.DataFrame(rows, columns=["query_id", "n_hits", "k"])
    out["recall"] = np.round(out["n_hits"] / out["k"], 6)
    return out


def q_ann_recall(sf_dir: str):
    """Recall@10 of the APPROXIMATE IVF path (nprobe=10 of 16 cells)
    against the brute-force exact top-k — the quality gate that keeps
    the ANN scale path honest (q_ivf_topk's full-probe run shares the
    exact SQL oracle; this measures what partial probing costs).
    Probe budget rationale: the sf* embeddings are near-uniform (no
    cluster structure), so partial-probe recall tracks the probed cell
    mass — measured mean recall at nprobe=10 is 0.83 (sf0.001) / 0.91
    (sf0.01), deterministic (seeded k-means), gated ≥ 0.8 by pytest
    alongside a full-probe ≥ 0.99 gate; real clustered embeddings
    recover more recall per probe. Non-SQL (IVF training is
    iterative); driver checks rows-only and pytest bounds mean recall.
    Both result sets are queries×k rows — driver-side compare is
    O(100), never data-sized."""
    from pystreamfs_ray.stages.similarity import brute_force_topk, ivf_topk

    emb = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"])
    qdf = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"],
                       filter=(_pds.field("vec_id") < 10)).to_pandas()
    qmat = np.stack([np.asarray(v, dtype=np.float64)
                     for v in qdf["embedding"]])
    qids = qdf["vec_id"].to_numpy()
    exact = brute_force_topk(emb, qids, qmat, k=10).to_pandas()
    approx = ivf_topk(emb, qids, qmat, k=10, n_cells=16, nprobe=10).to_pandas()
    return _recall_frame(exact, approx)


def q_ann_lsh(sf_dir: str):
    """Recall@10 of the LSH-bucketed ANN path (signed random
    projections, 8 planes × 12 tables, Hamming-1 multiprobe) vs the
    brute-force exact top-k — the training-free hash-partition scale
    path next to IVF (new data buckets without re-clustering; the
    SURVEY-named 'LSH-bucketed variant'). On the UNCLUSTERED sf
    fixtures measured mean recall is 0.77 at ~42% candidate mass
    (near-random vectors are LSH's worst case, same story as the IVF
    probe budget); on a clustered fixture the same code reads 1.00 at
    ~7% mass (pytest-gated ≥ 0.9). Non-SQL (probe-set membership);
    rows-only + pytest bounds."""
    from pystreamfs_ray.stages.similarity import brute_force_topk, lsh_topk

    emb = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"])
    qdf = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"],
                       filter=(_pds.field("vec_id") < 10)).to_pandas()
    qmat = np.stack([np.asarray(v, dtype=np.float64)
                     for v in qdf["embedding"]])
    qids = qdf["vec_id"].to_numpy()
    exact = brute_force_topk(emb, qids, qmat, k=10).to_pandas()
    approx = lsh_topk(emb, qids, qmat, k=10, n_planes=8,
                      n_tables=12).to_pandas()
    return _recall_frame(exact, approx)


def q_mmr_select(sf_dir: str):
    """Maximal-marginal-relevance diversity selection: the top-10
    redundancy-penalized neighbors of vec_id 0 (λ=0.7) — how a
    curation pipeline picks a DIVERSE retrieval set instead of ten
    near-copies of the best hit. Distributed relevance top-m prefilter
    (per-block combiners, ≤ m rows leave each block) + bounded greedy
    driver finish. Iterative greedy argmax is not SQL (rows-only);
    pytest pins the diversity property and a brute-force replica."""
    from pystreamfs_ray.stages.similarity import mmr_select

    emb = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"])
    qvec = (read_parquet(_p(sf_dir, "embeddings"),
                         columns=["vec_id", "embedding"],
                         filter=(_pds.field("vec_id") == 0))
            .to_pandas()["embedding"].iloc[0])
    return mmr_select(emb, np.asarray(qvec, dtype=np.float64),
                      k=10, lam=0.7)


def q_split_leakage(sf_dir: str):
    """Holdout contamination audit: exact-duplicate text groups that
    straddle the train/val/test hash split, per split pair (see
    stages.decontam.split_leakage). The sf* documents fixture has no
    exact duplicates, so — like q_dedup_groups_exact — the query
    plants id-shifted copies of the first 60 docs on BOTH sides to
    make the audit non-trivial."""
    from pystreamfs_ray.stages.decontam import split_leakage

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def shift(t: pa.Table) -> pa.Table:
        return t.set_column(t.column_names.index("doc_id"), "doc_id",
                            pc.add(t["doc_id"], 1_000_000))

    planted = (docs.filter(expr="doc_id < 60")
               .map_batches(shift, batch_format="pyarrow"))
    return split_leakage(docs.union(planted))


def q_turn_latency(sf_dir: str):
    """Assistant response latency per conversation — for every
    assistant turn whose immediately preceding turn is a user turn,
    gap = ts_assistant - ts_user in EXACT integer µs; per conversation
    emit the response count, 2×median (sum of the two central order
    stats — the q_gap_quantiles trick, no float interpolation) and the
    max. Rides the standard conv_id bucket shuffle; each bucket
    resolves ALL its conversations with one vectorized sorted pass
    (cumsum group offsets), so per-conv work is O(1) Python calls per
    bucket, not per conversation."""
    ts_ds = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)

    def lat(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"],
                          kind="mergesort", ignore_index=True)
        conv = g["conv_id"].to_numpy()
        role = g["role"].to_numpy()
        t = g["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        m = (conv[1:] == conv[:-1]) & (role[1:] == "assistant") \
            & (role[:-1] == "user")
        d = pd.DataFrame({"conv_id": conv[1:][m],
                          "gap": t[1:][m] - t[:-1][m]})
        if not len(d):
            return pd.DataFrame({"conv_id": pd.Series(dtype=object),
                                 "n_responses": pd.Series(dtype=np.int64),
                                 "median2_us": pd.Series(dtype=np.int64),
                                 "max_us": pd.Series(dtype=np.int64)})
        d = d.sort_values(["conv_id", "gap"], kind="mergesort",
                          ignore_index=True)
        cnt = d.groupby("conv_id", sort=False).size()
        n = cnt.to_numpy(dtype=np.int64)
        start = np.concatenate([[0], np.cumsum(n[:-1])])
        v = d["gap"].to_numpy()
        return pd.DataFrame({
            "conv_id": cnt.index.to_numpy(),
            "n_responses": n,
            "median2_us": v[start + (n - 1) // 2] + v[start + n // 2],
            "max_us": v[start + n - 1],
        })

    return W.per_bucket(ts_ds, lat, entity_col="conv_id",
                        num_buckets=_BUCKETS)


def q_neardup_leakage(sf_dir: str):
    """NEAR-duplicate holdout contamination — the realistic leakage
    threat exact-hash audits miss: MinHash-LSH candidate pairs
    (est. Jaccard >= 0.2, same machinery as q_minhash_pairs) whose two
    documents land in DIFFERENT train/val/test splits. Split labels
    are the row-local `sources.split_labels` rule applied to the pair
    ids — a per-batch map over the (already tiny) pair set, zero
    additional shuffle on top of the LSH banding."""
    from pystreamfs_ray.sources import split_labels
    from pystreamfs_ray.stages.dedup import minhash_lsh_pairs

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    pairs = minhash_lsh_pairs(docs, threshold=0.2)

    def add_splits(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["split_a"] = split_labels(df["id_a"])
        df["split_b"] = split_labels(df["id_b"])
        return df[df["split_a"] != df["split_b"]]

    return pairs.map_batches(add_splits, batch_format="pandas")


def q_data_card(sf_dir: str):
    """Corpus data card: per (split, source, lang) document, character
    and word totals — the summary table a training-data release
    publishes. Pure combiner shape: each batch collapses to at most
    |splits|x|sources|x|langs| partial rows before ONE tiny mergeable
    groupby; split labels are row-local (`sources.split_labels`), so
    the whole card costs a single pruned scan at any corpus size."""
    from pystreamfs_ray.sources import split_labels

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "text", "lang", "source"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "split": split_labels(df["doc_id"]),
            "source": df["source"].to_numpy(),
            "lang": df["lang"].to_numpy(),
            "n_docs": np.int64(1),
            "n_chars": df["text"].str.len().to_numpy(dtype=np.int64),
            "n_words": df["text"].str.count(r"\S+").to_numpy(dtype=np.int64),
        })
        return (out.groupby(["split", "source", "lang"], sort=False)
                .sum().reset_index())

    return combine_sum(docs, partial, ["split", "source", "lang"],
                       ["n_docs", "n_chars", "n_words"])


def q_tool_error_rate(sf_dir: str):
    """Tool-call outcome accounting over transcripts: per tool, how
    many calls (turns with a non-empty tool) and how many are followed
    IMMEDIATELY by a system/error turn in the same conversation — the
    agent-quality signal a transcript pipeline reports per tool. Same
    conv-bucket + vectorized-shift shape as q_turn_latency; buckets
    emit per-tool partial counts, one tiny mergeable Sum groupby
    finishes (output is |tools| rows)."""
    ts_ds = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)

    def part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"],
                          kind="mergesort", ignore_index=True)
        conv = g["conv_id"].to_numpy()
        role = g["role"].to_numpy()
        tool = g["tool"].to_numpy()
        nxt_err = np.zeros(len(g), dtype=np.int64)
        nxt_err[:-1] = ((conv[1:] == conv[:-1])
                        & (role[1:] == "system")).astype(np.int64)
        d = pd.DataFrame({"tool": tool, "err": nxt_err})[tool != ""]
        out = (d.groupby("tool", sort=False)
               .agg(n_calls=("err", "size"), n_err_next=("err", "sum"))
               .reset_index())
        out["n_calls"] = out["n_calls"].astype(np.int64)
        return out

    partials = W.per_bucket(ts_ds, part, entity_col="conv_id",
                            num_buckets=_BUCKETS)
    return (partials.groupby("tool")
            .aggregate(Sum("n_calls", alias_name="n_calls"),
                       Sum("n_err_next", alias_name="n_err_next")))


def q_neardup_canonical(sf_dir: str):
    """Canonical-copy selection per near-duplicate group: MinHash-LSH
    candidate pairs (same banding/threshold as q_minhash_pairs) →
    connected components → per component keep the LONGEST member
    (tie-break smallest doc_id). One row per duplicate group."""
    from pystreamfs_ray.stages.dedup import minhash_lsh_pairs, neardup_canonical

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    pairs = minhash_lsh_pairs(docs, threshold=0.2)
    attrs = read_parquet(_p(sf_dir, "documents"),
                         columns=["doc_id", "n_chars"])
    return neardup_canonical(pairs, attrs, id_col="doc_id",
                             score_col="n_chars")


def q_split_drift(sf_dir: str):
    """Embedding-centroid drift across the deterministic train/val/test
    holdout: cosine between every split pair's mean embedding — the
    embedding-space companion to the exact/near contamination audits
    (a drifted val/test centroid flags a skewed holdout)."""
    from pystreamfs_ray.stages.cluster import split_centroid_drift

    emb = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"])
    return split_centroid_drift(emb)


def q_score_docs(sf_dir: str):
    """Model-inference document scoring: logistic quality score over
    md5-hashed bag-of-words features with a hashed weight table —
    the fasttext-style linear-classifier shape, doc-local and
    shuffle-free (weights build once per stage, batches score via one
    vectorized hash + bincount)."""
    from pystreamfs_ray.stages.textstats import linear_score

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    return linear_score(docs)


def q_incremental_dedup(sf_dir: str):
    """Incremental-ingestion dedup: the 'train' split plays the
    already-ingested corpus (reduced to its fingerprint index — in
    production that index is persisted parquet reloaded per run), the
    val+test splits play the arrival batch. Arrivals dedup among
    themselves (keep min doc_id) and drop anything whose md5 identity
    the corpus already holds, via an exact partitioned anti-join."""
    from pystreamfs_ray.sources import split_labels
    from pystreamfs_ray.stages.dedup import (fingerprint_index,
                                             incremental_exact_dedup)

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def side(member: bool):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            m = split_labels(df["doc_id"].to_numpy()) == "train"
            return df[m if member else ~m]

        return fn

    existing = docs.map_batches(side(True), batch_format="pandas")
    arrivals = docs.map_batches(side(False), batch_format="pandas")
    return incremental_exact_dedup(arrivals, fingerprint_index(existing))


def q_bigram_logprob(sf_dir: str):
    """Per-document mean conditional bigram NLL under the corpus's own
    bigram LM — the 2-gram sharpening of q_unigram_logprob (catches
    shuffled-word noise that unigram counts miss). Docs with <2 tokens
    are omitted."""
    from pystreamfs_ray.stages.textstats import bigram_logprob

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    return bigram_logprob(docs)


def q_length_buckets(sf_dir: str):
    """Power-of-two token-length bucket profile over the corpus — the
    statistic that sizes length-bucketed packed training batches."""
    from pystreamfs_ray.stages.textstats import length_buckets

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    return length_buckets(docs)


def q_ann_int8(sf_dir: str):
    """Recall@10 of int8-quantized brute-force cosine vs float exact —
    the quality gate on the 4× storage/bandwidth quantization path.
    Non-SQL (per-vector quantization + float32 matmul); driver checks
    rows-only, pytest bounds mean recall ≥ 0.9. Both result sets are
    queries×k rows — the compare is O(100), never data-sized."""
    from pystreamfs_ray.stages.similarity import (brute_force_topk,
                                                  int8_topk,
                                                  quantize_embeddings)

    emb = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"])
    qdf = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"],
                       filter=(_pds.field("vec_id") < 10)).to_pandas()
    qmat = np.stack([np.asarray(v, dtype=np.float64)
                     for v in qdf["embedding"]])
    qids = qdf["vec_id"].to_numpy()
    exact = brute_force_topk(emb, qids, qmat, k=10).to_pandas()
    approx = int8_topk(quantize_embeddings(emb), qids, qmat, k=10).to_pandas()
    return _recall_frame(exact, approx)


def q_ann_ivf_int8(sf_dir: str):
    """Recall@10 of the fully composed scale path — IVF probe limiting
    (compute pruning) over the int8-quantized persisted index shape
    (bandwidth pruning) — against float exact. Non-SQL (iterative IVF
    training + quantization); driver checks rows-only, pytest pins
    full-probe == flat-int8 exactly and bounds partial-probe recall."""
    from pystreamfs_ray.stages.similarity import (brute_force_topk,
                                                  ivf_int8_topk,
                                                  quantize_embeddings,
                                                  train_centroids)

    emb = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"])
    qdf = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"],
                       filter=(_pds.field("vec_id") < 10)).to_pandas()
    qmat = np.stack([np.asarray(v, dtype=np.float64)
                     for v in qdf["embedding"]])
    qids = qdf["vec_id"].to_numpy()
    cents = train_centroids(emb, n_cells=16)
    quant = quantize_embeddings(emb, centroids=cents)
    exact = brute_force_topk(emb, qids, qmat, k=10).to_pandas()
    approx = ivf_int8_topk(quant, qids, qmat, cents, k=10,
                           nprobe=4).to_pandas()
    return _recall_frame(exact, approx)


def q_late_events(sf_dir: str):
    """Per-user out-of-order audit over a deterministically scrambled
    ingest order (md5 of event_id — the sf* events fixture is fully
    time-ordered, so, like q_split_leakage's planted duplicates, the
    scramble makes the audit non-trivial while staying exactly
    SQL-mirrorable): n_events, n_late (event-time below the running
    max), worst lateness in exact integer µs."""
    from pystreamfs_ray.stages.dedup import _md5_hex
    from pystreamfs_ray.stages.temporal import late_event_stats

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["user_id", "event_id", "ts"])

    def scramble(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["arrival"] = _md5_hex(
            df["event_id"].astype(str).to_numpy(dtype=object))
        return df.drop(columns=["event_id"])

    return late_event_stats(ev.map_batches(scramble, batch_format="pandas"),
                            order_col="arrival")


def q_snapshot_diff(sf_dir: str):
    """Corpus snapshot audit: diff two versions of the documents table
    (B = A minus every 10th doc, with every 7th doc's text revised and
    an id-shifted copy of every 37th doc added — all deterministic and
    SQL-mirrorable) → per-source added/removed/changed/unchanged
    counts. Only md5 identities move through the full-outer join."""
    from pystreamfs_ray.stages.dedup import snapshot_diff

    cols = ["doc_id", "source", "text"]
    a = read_parquet(_p(sf_dir, "documents"), columns=cols)

    def to_b(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["doc_id"] % 10 != 0].copy()
        rev = df["doc_id"] % 7 == 0
        df.loc[rev, "text"] = df.loc[rev, "text"] + " v2"
        added = df[df["doc_id"] % 37 == 0].copy()
        added["doc_id"] = added["doc_id"] + 2_000_000
        return pd.concat([df, added], ignore_index=True)

    b = read_parquet(_p(sf_dir, "documents"), columns=cols).map_batches(
        to_b, batch_format="pandas")
    return snapshot_diff(a, b)


def q_chunk_dedup(sf_dir: str):
    """Chunk-level exact dedup — dedup at CHUNK granularity (boilerplate
    headers/footers repeat across documents even when full texts
    differ): chunk the corpus, then keep the smallest composite id per
    distinct chunk text. Pure composition of chunk_documents →
    exact_dedup; the chunk table (not the raw text) is what shuffles."""
    from pystreamfs_ray.stages.dedup import exact_dedup
    from pystreamfs_ray.stages.textstats import chunk_documents

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    chunks = chunk_documents(docs.filter(expr="doc_id < 200"),
                             chunk_tokens=64, overlap=16)

    def cid(t: pa.Table) -> pa.Table:
        # 2^20 chunk slots per doc: collision-free up to ~50M-token docs
        # (the guard makes an overflow loud — a silent collision would
        # corrupt the dedup identity AND its mirrored oracle equally,
        # invisible to the gate)
        if t.num_rows and pc.max(t["chunk_id"]).as_py() >= 1 << 20:
            raise ValueError("chunk_id >= 2^20: composite cid would collide")
        c = pc.add(pc.multiply(pc.cast(t["doc_id"], pa.int64()),
                               np.int64(1 << 20)),
                   pc.cast(t["chunk_id"], pa.int64()))
        return pa.table({"cid": pc.cast(c, pa.int64()),
                         "chunk_text": t["chunk_text"]})

    return exact_dedup(chunks.map_batches(cid, batch_format="pyarrow"),
                       id_col="cid", text_col="chunk_text")


def q_pii_rate(sf_dir: str):
    """Per-source PII exposure audit — the go/no-go gate a curation run
    checks before export: document counts with ≥1 email / ≥1 phone plus
    total match counts, per source (same deterministic planting as
    q_mask_pii; the corpus itself is PII-free). Doc-local detection,
    then a combiner partial so the shuffle is source-count-sized."""
    from pystreamfs_ray.stages.pii import mask_pii

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "source", "text"])

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        did = df["doc_id"].to_numpy()
        txt = df["text"].astype(str)
        em = pd.Series([f" contact user{d}@example.com now" if d % 5 == 0
                        else "" for d in did], index=df.index)
        ph = pd.Series([f" call 555-123-{1000 + d % 9000}" if d % 7 == 0
                        else "" for d in did], index=df.index)
        df["text"] = txt + em + ph
        return df

    masked = mask_pii(docs.map_batches(plant, batch_format="pandas"))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("source", sort=False)
        out = pd.DataFrame({
            "n_docs": g.size(),
            "n_email_docs": g["n_emails"].agg(lambda s: int((s > 0).sum())),
            "n_phone_docs": g["n_phones"].agg(lambda s: int((s > 0).sum())),
            "n_emails": g["n_emails"].sum(),
            "n_phones": g["n_phones"].sum(),
        }).reset_index()
        return out.astype({c: np.int64 for c in out.columns
                           if c != "source"})

    return combine_sum(masked, partial, "source",
                       ["n_docs", "n_email_docs", "n_phone_docs", "n_emails",
                        "n_phones"])


def q_best_of_n(sf_dir: str):
    """Best-of-n response selection per distinct prompt (rejection
    sampling over the mined SFT candidate pool): deterministic score =
    response token count, ties to the smallest (conv_id, turn_idx);
    one conv-bucket shuffle + one prompt-content-hash shuffle."""
    from pystreamfs_ray.pipelines.transcripts import best_of_n

    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    return best_of_n(t, num_buckets=_BUCKETS)


def q_dpo_pairs(sf_dir: str):
    """Preference-pair construction (DPO/RLHF dataset step): per
    distinct prompt with ≥2 candidates, the (chosen, rejected) extreme
    pair with its score margin — deterministic tie rules make the pair
    unique even for all-equal pools (chosen → smallest
    (conv_id, turn_idx), rejected → largest). Same two-shuffle shape
    as q_best_of_n."""
    from pystreamfs_ray.pipelines.transcripts import dpo_pairs

    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    return dpo_pairs(t, num_buckets=_BUCKETS)


def q_loss_spans(sf_dir: str):
    """SFT loss-mask spans: per conversation laid end-to-end in
    turn_idx order (whitespace token counts), the [tok_start, tok_end)
    window of every assistant turn — integer-exact, one entity
    shuffle."""
    from pystreamfs_ray.pipelines.transcripts import loss_spans

    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    return loss_spans(t, num_buckets=_BUCKETS)


def q_nucleus_vocab(sf_dir: str):
    """Top-p (90%) nucleus vocabulary over the document corpus: minimal
    (count desc, word asc) vocab prefix covering 9/10 of all tokens.
    Combiner word counts + the packing two-phase prefix sum; the
    coverage test is integer on both sides (10*(cum-n) < 9*total)."""
    from pystreamfs_ray.stages.textstats import nucleus_vocab

    docs = read_parquet(_p(sf_dir, "documents"), columns=["text"])
    return nucleus_vocab(docs)


def q_ann_pq(sf_dir: str):
    """Recall@10 of product-quantized ADC search vs float exact — the
    quality gate on the 32× compression path (64-dim float64 row →
    16 uint8 codes at m=16, n_codes=256). Non-SQL (seeded per-subspace
    k-means + ADC); driver checks rows-only, pytest bounds the recall
    (and separately tests the exact-rerank refine path). Both result
    sets are queries×k rows."""
    from pystreamfs_ray.stages.similarity import (brute_force_topk,
                                                  pq_encode, pq_topk,
                                                  train_pq_codebook)

    emb = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"])
    qdf = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"],
                       filter=(_pds.field("vec_id") < 10)).to_pandas()
    qmat = np.stack([np.asarray(v, dtype=np.float64)
                     for v in qdf["embedding"]])
    qids = qdf["vec_id"].to_numpy()
    exact = brute_force_topk(emb, qids, qmat, k=10).to_pandas()
    book = train_pq_codebook(emb, m=16, n_codes=256)
    codes = pq_encode(emb, book)
    approx = pq_topk(codes, qids, qmat, book, k=10).to_pandas()
    return _recall_frame(exact, approx)


def q_winsorize(sf_dir: str):
    """Per-priority winsorized order value: clamp o_totalprice cents to
    the group's exact [p05, p95] order statistics — the standard
    feature-eng tail-taming transform. Bounds pass is group-count-
    sized; the clamp pass is broadcast + shuffle-free."""
    from pystreamfs_ray.stages.grouped import winsorize

    orders = read_parquet(_p(sf_dir, "orders"),
                          columns=["o_orderkey", "o_orderpriority",
                                   "o_totalprice"])
    return winsorize(orders, "o_orderpriority", "o_totalprice",
                     id_col="o_orderkey")


def q_tool_chains(sf_dir: str):
    """Tool-transition bigrams: for every pair of CONSECUTIVE tool
    calls inside a conversation (both turns have a non-empty tool,
    intervening non-tool turns skipped), count (tool_from, tool_to) —
    the agent-behavior transition matrix a transcript pipeline reports.
    Same conv-bucket + vectorized-shift shape as q_turn_latency on the
    tool-call subsequence; buckets emit |tools|² partial counts, one
    tiny mergeable Sum groupby finishes."""
    ts_ds = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)

    def part(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["tool"] != ""].sort_values(
            ["conv_id", "turn_idx"], kind="mergesort", ignore_index=True)
        conv = g["conv_id"].to_numpy()
        tool = g["tool"].to_numpy()
        m = conv[1:] == conv[:-1]
        d = pd.DataFrame({"tool_from": tool[:-1][m], "tool_to": tool[1:][m]})
        out = (d.groupby(["tool_from", "tool_to"], sort=False)
               .size().reset_index(name="n"))
        out["n"] = out["n"].astype(np.int64)
        return out

    partials = W.per_bucket(ts_ds, part, entity_col="conv_id",
                            num_buckets=_BUCKETS)
    return (partials.groupby(["tool_from", "tool_to"])
            .aggregate(Sum("n", alias_name="n")))


def q_ann_matryoshka(sf_dir: str):
    """Recall@10 of truncated-dimension search (first 16 of 64 dims,
    renormalized — the matryoshka-embedding serving trade-off) vs the
    full-dimension exact top-k: the quality gate that tells you how
    much recall a 4× dimension cut costs BEFORE you re-embed a corpus.
    Non-SQL; driver checks rows-only, pytest bounds the recall."""
    from pystreamfs_ray.stages.similarity import brute_force_topk

    trunc_d = 16
    emb = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"])
    qdf = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"],
                       filter=(_pds.field("vec_id") < 10)).to_pandas()
    qmat = np.stack([np.asarray(v, dtype=np.float64)
                     for v in qdf["embedding"]])
    qids = qdf["vec_id"].to_numpy()
    exact = brute_force_topk(emb, qids, qmat, k=10).to_pandas()

    def trunc(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "vec_id": df["vec_id"].to_numpy(),
            "embedding": [np.asarray(v, dtype=np.float64)[:trunc_d]
                          for v in df["embedding"]],
        })

    half = emb.map_batches(trunc, batch_format="pandas")
    approx = brute_force_topk(half, qids, qmat[:, :trunc_d], k=10).to_pandas()
    return _recall_frame(exact, approx)


def q_dedup_convs(sf_dir: str):
    """Conversation-level exact dedup: render each conversation to its
    canonical chat text (role: text lines in turn order), then keep the
    lexicographically-first conv_id per distinct rendering with the
    duplicate count — the whole-conversation dedup step before SFT.
    Composition: render_chat (one entity shuffle) → exact_dedup (one
    bucketed content-hash shuffle; renderings move once)."""
    from pystreamfs_ray.pipelines.transcripts import render_chat
    from pystreamfs_ray.stages.dedup import exact_dedup

    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    rendered = render_chat(t, num_buckets=_BUCKETS).drop_columns(["n_turns"])
    return exact_dedup(rendered, id_col="conv_id", text_col="rendered")


def q_dedup_snapshots(sf_dir: str):
    """Agent-snapshot dedup: build the cumulative per-turn rendering
    table (every checkpoint of every growing conversation), then keep
    only the maximal snapshots — rows whose rendering is not a strict
    prefix of any other snapshot. Survivors are each conversation's
    final rendering UNLESS that rendering is itself a prefix of another
    conversation's snapshot (cross-conversation containment), which the
    range-partitioned distinct-successor test catches exactly.
    Composition: snapshot_renders (one entity shuffle) → prefix_dedup
    (one text-range shuffle + pruned min scan)."""
    from pystreamfs_ray.pipelines.transcripts import snapshot_renders
    from pystreamfs_ray.stages.dedup import prefix_dedup

    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    snaps = snapshot_renders(t, num_buckets=_BUCKETS)
    kept = prefix_dedup(snaps, text_col="snap", num_partitions=_BUCKETS)

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "conv_id": df["conv_id"].to_numpy(),
            "turn_idx": df["turn_idx"].to_numpy(np.int64),
            "snap_len": df["snap"].str.len().to_numpy(np.int64),
        })

    return kept.map_batches(project, batch_format="pandas")


def q_recency(sf_dir: str):
    """Online recency features per event: prior-purchase count, µs
    since the latest preceding error, µs since the previous event —
    the strictly-causal (no-leakage) feature columns a streaming model
    consumes. One entity shuffle; cythonized shift/cumsum/cummax per
    bucket; integer-exact µs gaps (timestamps rebased below 2^53
    before the float cummax)."""
    from pystreamfs_ray.stages.window import recency_features

    events = read_parquet(_p(sf_dir, "events"),
                          columns=["event_id", "ts", "user_id",
                                   "event_type"])

    def _feats(g: pd.DataFrame) -> pd.DataFrame:
        g = W.sort_entity(g, entity_col="user_id",
                          order_cols=("ts", "event_id"))
        g = recency_features(g, entity_col="user_id")
        return g[["event_id", "n_prior_purchase", "us_since_error",
                  "us_since_prev"]]

    return W.per_bucket(events, _feats, entity_col="user_id",
                        num_buckets=_BUCKETS)


def q_truncate_context(sf_dir: str):
    """Context-window truncation audit: per conversation the longest
    turn suffix fitting a 64-token budget (first kept turn, turns and
    tokens kept); conversations whose final turn alone overflows emit
    nothing."""
    from pystreamfs_ray.pipelines.transcripts import truncate_context

    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    return truncate_context(t, budget_tokens=64, num_buckets=_BUCKETS)


def q_psi_drift(sf_dir: str):
    """Day-over-day PSI drift of the event value distribution
    (10 fixed cent-bins, Laplace-smoothed shares) — the feature-drift
    monitor; one combiner aggregate, D×B driver table."""
    from pystreamfs_ray.stages.grouped import psi_drift

    events = read_parquet(_p(sf_dir, "events"), columns=["ts", "value"])
    return psi_drift(events, value_col="value", ts_col="ts", bins=10,
                     lo_cents=0, hi_cents=50_000)


def q_leakage_corr(sf_dir: str):
    """Feature→future-label leakage audit: Pearson correlation of each
    integer-valued text feature with the NEXT turn's label inside the
    same conversation, from exact int64 partial sums (combiner
    aggregate; the float expression mirrors the oracle op-for-op)."""
    from pystreamfs_ray.stages.audit import feature_leakage_corr

    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    feats = featurize(t)
    return feature_leakage_corr(
        feats, feature_cols=["f_text_chars", "f_text_words", "f_role_user"],
        num_buckets=_BUCKETS)


def q_incremental_minhash(sf_dir: str):
    """Incremental NEAR-dup ingestion: even doc_ids play the persisted
    corpus (reduced to its minhash signature index), odd doc_ids play
    the arrival batch; emit (doc_id, dup_of, jaccard_est) for every
    arrival near-matching an indexed doc. Cross-side-only pair
    generation — the corpus's internal pairs are never formed."""
    from pystreamfs_ray.stages.dedup import (incremental_minhash_pairs,
                                             minhash_signatures)

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def side(parity: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return df[df["doc_id"].to_numpy() % 2 == parity]
        return fn

    # ONE signature pass signs the whole table, then the signature
    # stream splits by parity (index + arrivals)
    sigs = minhash_signatures(docs).materialize()
    index_sigs = sigs.map_batches(side(0), batch_format="pandas")
    return incremental_minhash_pairs(
        sigs.map_batches(side(1), batch_format="pandas"),
        index_sigs, threshold=0.2, new_presigned=True)


def q_prior_ctr(sf_dir: str):
    """Expanding causal label mean (the 'prior CTR' feature): for each
    event, the purchase rate over the user's strictly-preceding events
    — exact int64 running sums/counts, float division mirrored
    op-for-op in the oracle (-1.0 marks no history)."""
    events = read_parquet(_p(sf_dir, "events"),
                          columns=["event_id", "ts", "user_id",
                                   "event_type"])

    def _feats(g: pd.DataFrame) -> pd.DataFrame:
        g = W.sort_entity(g, entity_col="user_id",
                          order_cols=("ts", "event_id"))
        is_p = (g["event_type"] == "purchase")
        key = g["user_id"]
        cnt_prior = key.groupby(key, sort=False).cumcount().to_numpy(np.int64)
        sum_prior = (is_p.groupby(key, sort=False).cumsum()
                     - is_p.astype(np.int64)).to_numpy(np.int64)
        ctr = np.where(cnt_prior == 0, -1.0,
                       sum_prior.astype(np.float64)
                       / cnt_prior.astype(np.float64))
        return pd.DataFrame({"event_id": g["event_id"].to_numpy(np.int64),
                             "prior_ctr": ctr})

    return W.per_bucket(events, _feats, entity_col="user_id",
                        num_buckets=_BUCKETS)


def q_bpe_train(sf_dir: str):
    """BPE tokenizer training: top-32 byte-pair merges learned from one
    distributed word-count aggregate + the bounded vocab-table merge
    loop (iterative — rows-only check; pytest compares a naive
    sequential reference)."""
    from pystreamfs_ray.stages.textstats import bpe_train

    docs = read_parquet(_p(sf_dir, "documents"), columns=["text"])
    return bpe_train(docs, num_merges=32)


def q_bpe_encode(sf_dir: str):
    """Tokenizer APPLICATION: train a 64-merge BPE table on the corpus
    (bounded vocab-table loop), then encode every document with it —
    the train-once/encode-corpus lifecycle a pretraining pipeline runs
    to budget true token counts before packing. Encoding is one
    doc-local pass (ranks dict built once, per-distinct-word
    memoization); non-SQL like q_bpe_train (rows-only; pytest pins the
    sequential-reference parity and the merge monotonicity)."""
    from pystreamfs_ray.stages.textstats import bpe_encode_counts, bpe_train

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    merges = bpe_train(docs, num_merges=64)
    return bpe_encode_counts(docs, merges)


def q_footer_stats(sf_dir: str):
    """Shard-planning audit: per-row-group min/max/null stats of every
    plain-int64 column across all table files, read from parquet
    FOOTERS only (no data pages) — metadata-sized even at a
    million-shard layout."""
    import glob

    from pystreamfs_ray.sources import parquet_footer_stats

    paths = sorted(glob.glob(os.path.join(sf_dir, "*.parquet")))
    return parquet_footer_stats(paths)


def q_zorder(sf_dir: str):
    """Z-order (Morton) layout keys over (user_id, day-of-month): the
    space-filling-curve clustering key computed with pure vectorized
    bit interleaving; bit-for-bit SQL-mirrorable."""
    from pystreamfs_ray.stages.rank import zorder_keys

    events = read_parquet(_p(sf_dir, "events"),
                          columns=["event_id", "ts", "user_id"])

    def add_day(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64),
            "user_id": df["user_id"].to_numpy(np.int64),
            "day": df["ts"].dt.day.to_numpy(np.int64),
        })

    keyed = zorder_keys(events.map_batches(add_day, batch_format="pandas"),
                        "user_id", "day", bits=16)
    return keyed.select_columns(["event_id", "zkey"])


def _sessionized_rel(g: pd.DataFrame, *, gap_s: float = 1800.0):
    """Shared session preamble: (ts, event_id)-sorted frame with
    session_id plus the 2^53-safe rebased float-µs timestamp series
    (only µs DIFFERENCES are ever emitted, so the rebase cancels)."""
    g = g.sort_values(["user_id", "ts", "event_id"],
                      kind="mergesort", ignore_index=True)
    g = W.sessionize(g, gap_s=gap_s, entity_col="user_id")
    ts_us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    base = ts_us.min() if len(ts_us) else 0
    rel = pd.Series((ts_us - base).astype(np.float64), index=g.index)
    return g, rel


def q_attribution(sf_dir: str):
    """Session-level conversion attribution (first-touch): for each
    purchase, the event type that OPENED its 30-min gap session and the
    µs elapsed from session start — the classic marketing/behavior
    feature. One entity shuffle; sessionize + vectorized first-touch
    via cythonized groupby transform."""
    ds = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "user_id", "ts", "event_type"])

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g, rel = _sessionized_rel(g)
        key = [g["user_id"], g["session_id"]]
        first_type = g.groupby(key, sort=False)["event_type"].transform("first")
        start = rel.groupby(key, sort=False).transform("min")
        m = (g["event_type"] == "purchase").to_numpy()
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(np.int64)[m],
            "src_event_type": first_type.to_numpy()[m],
            "us_from_start": (rel - start).to_numpy()[m].astype(np.int64),
        })

    return W.per_bucket(ds, fn, entity_col="user_id", num_buckets=_BUCKETS)


def q_range_search(sf_dir: str):
    """Cosine range search: all corpus vectors with ROUND(cos,6) ≥ 0.3
    of each of the first 10 query vectors — a pure streaming filter
    (zero shuffles, no reduce)."""
    from pystreamfs_ray.stages.similarity import range_search

    emb = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"])
    qdf = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"],
                       filter=(_pds.field("vec_id") < 10)).to_pandas()
    qmat = np.stack([np.asarray(v, dtype=np.float64)
                     for v in qdf["embedding"]])
    return range_search(emb, qdf["vec_id"].to_numpy(), qmat,
                        threshold=0.3)


def q_context_window(sf_dir: str):
    """SFT context assembly stats: for each assistant turn, the size of
    the previous-4-turn rendered context (chars incl. 'role: ' tags and
    separators, token count, turns present) — the window every context-
    bounded trainer materializes. Vectorized cumsum-difference per
    conversation; one entity shuffle."""
    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = W.sort_entity(g, entity_col="conv_id", order_cols=("turn_idx",))
        line_len = (g["role"].astype(str).str.len() + 2
                    + g["text"].astype(str).str.len()).to_numpy(np.int64)
        tok = g["text"].str.count(r"\S+").to_numpy(np.int64)
        key = g["conv_id"]
        pos = key.groupby(key, sort=False).cumcount().to_numpy(np.int64)

        def window_sum(vals):
            c = (pd.Series(vals, index=g.index)
                 .groupby(key, sort=False).cumsum().to_numpy(np.int64))
            excl = c - vals                      # sum of rows < i
            back = np.minimum(pos, 4)            # rows available, max 4
            # grouped-exclusive cumsum at the window start row i-back:
            # excl[i] - excl[i-back] = sum of rows [i-back, i), and
            # back <= pos keeps i-back inside the same conversation
            idx = np.arange(len(vals)) - back
            return excl - np.where(back > 0, excl[idx], 0)
        ctx_chars = window_sum(line_len)
        ctx_tok = window_sum(tok)
        n_ctx = np.minimum(pos, 4)
        # separators: one per joint between context turns
        ctx_chars = ctx_chars + np.maximum(n_ctx - 1, 0)
        m = (g["role"] == "assistant").to_numpy()
        return pd.DataFrame({
            "conv_id": g["conv_id"].to_numpy()[m],
            "turn_idx": g["turn_idx"].to_numpy(np.int64)[m],
            "ctx_chars": ctx_chars[m],
            "ctx_tokens": ctx_tok[m],
            "n_ctx_turns": n_ctx[m],
        })

    return W.per_bucket(t, fn, entity_col="conv_id", num_buckets=_BUCKETS)


def q_session_lag(sf_dir: str):
    """Session-scoped lag features: µs since the previous event WITHIN
    the same 30-min gap session (-1 at each session start — the gap
    never leaks across sessions, unlike a plain per-entity lag). The
    sessionize × lag composition the point-in-time feature rule calls
    for; one entity shuffle."""
    ds = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "user_id", "ts"])

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g, rel = _sessionized_rel(g)
        prev = rel.groupby([g["user_id"], g["session_id"]],
                           sort=False).shift(1)
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(np.int64),
            "session_id": g["session_id"].to_numpy(np.int64),
            "us_in_session": np.where(prev.isna(), -1,
                                      rel - prev.to_numpy()).astype(np.int64),
        })

    return W.per_bucket(ds, fn, entity_col="user_id", num_buckets=_BUCKETS)


def q_rolling_distinct(sf_dir: str):
    """Windowed distinct count: how many DISTINCT tools the previous 4
    turns of the conversation used (the anti-repetition / diversity
    feature). k=4 unrolls to 4 shifted arrays + 6 pairwise compares —
    fully vectorized, one entity shuffle."""
    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = W.sort_entity(g, entity_col="conv_id", order_cols=("turn_idx",))
        key = g["conv_id"]
        pos = key.groupby(key, sort=False).cumcount().to_numpy(np.int64)
        tool = g["tool"].astype(str)
        sh = [tool.groupby(key, sort=False).shift(i).to_numpy(dtype=object)
              for i in range(1, 5)]
        valid = [pos >= i for i in range(1, 5)]
        # v_i counts iff valid and != every nearer (still-valid) lag
        distinct = np.zeros(len(g), dtype=np.int64)
        for i in range(4):
            new = valid[i].copy()
            for j in range(i):
                new &= ~(valid[j] & (sh[i] == sh[j]))
            distinct += new.astype(np.int64)
        return pd.DataFrame({
            "conv_id": g["conv_id"].to_numpy(),
            "turn_idx": g["turn_idx"].to_numpy(np.int64),
            "n_distinct_tools": distinct,
        })

    return W.per_bucket(t, fn, entity_col="conv_id", num_buckets=_BUCKETS)


def q_lang_outliers(sf_dir: str):
    """Per-source language-consistency audit: each source's majority
    language (ties to the lexicographically smallest) and how many of
    its docs deviate — the curation signal for mislabeled/mixed-source
    shards. ONE combiner aggregate builds the (source, lang) count
    table; majority and outlier counts both derive from it (no second
    corpus scan)."""
    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "source", "lang"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby(["source", "lang"], sort=False)
               .size().rename("n").reset_index())
        out["n"] = out["n"].astype(np.int64)
        return out

    counts = combine_sum(docs, partial, ["source", "lang"], ["n"])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        # |sources|×|langs| rows — bounded; majority = (max n, min lang)
        df = df.sort_values(["source", "n", "lang"],
                            ascending=[True, False, True],
                            kind="mergesort")
        grp = df.groupby("source", sort=False)
        top = grp.head(1).rename(columns={"lang": "majority_lang"})
        tot = grp["n"].sum()
        out = top[["source", "majority_lang"]].copy()
        out["n_docs"] = tot.loc[out["source"]].to_numpy(np.int64)
        out["n_outliers"] = (out["n_docs"]
                             - top["n"].to_numpy(np.int64))
        return out.reset_index(drop=True)

    # coalesce the bounded count table to ONE block first — finish
    # needs every (source, lang) row of a source in the same batch
    return counts.repartition(1).map_batches(finish,
                                             batch_format="pandas",
                                             batch_size=None)


def q_frame_plan(sf_dir: str):
    """Multimodal frame-sampling plan: run the row-expanding video
    frame sampler (payload slices ride along exactly as a
    pyav sampler's frames would) and roll up per-media plan stats —
    the oracle re-derives frame counts independently from the decode
    stub's published duration spec."""
    from pystreamfs_ray.stages.multimodal import (sample_frames,
                                                  synth_media_table)

    media = rd.from_arrow(synth_media_table(500, seed=21))
    frames = sample_frames(media, every_s=1.0, max_frames=16, batch_size=32)
    return (frames.groupby("media_id")
            .aggregate(Count(alias_name="n_frames"),
                       Max("frame_ts_s", alias_name="last_ts_s")))


def q_label_propagate(sf_dir: str):
    """Weak-supervision label propagation: embedding near-dup pairs →
    connected components → each component's MAJORITY label (ties to the
    smallest) assigned to every member — how a curation pipeline
    spreads sparse quality labels across duplicate clusters. Component
    labels resolve via one partitioned hash join + a bounded
    (component, label) count table; members get the verdict through a
    second keyed join."""
    from pystreamfs_ray.stages.dedup import dedup_groups
    from pystreamfs_ray.util import drop_empty_blocks

    comp = dedup_groups(q_embedding_neardup(sf_dir))  # (node, component)
    emb = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "label"])
    nparts = _join_partitions(emb)  # data-sized actor pool

    lab = emb.map_batches(
        lambda t: t.rename_columns(["node", "label"]),
        batch_format="pyarrow")
    joined = drop_empty_blocks(comp, nparts).join(
        drop_empty_blocks(lab, nparts), join_type="inner",
        num_partitions=nparts, on=("node",))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby(["component", "label"], sort=False)
               .size().rename("n").reset_index())
        out["n"] = out["n"].astype(np.int64)
        return out

    counts = combine_sum(joined, partial, ["component", "label"], ["n"])

    def majority(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["component", "n", "label"],
                           ascending=[True, False, True],
                           kind="mergesort")
        top = d.groupby("component", sort=False).head(1)
        return pd.DataFrame({
            "component": top["component"].to_numpy(np.int64),
            "prop_label": top["label"].to_numpy(np.int64),
        })

    verdict = counts.repartition(1).map_batches(
        majority, batch_format="pandas", batch_size=None)
    out = drop_empty_blocks(joined.select_columns(["node", "component",
                                                   "label"]),
                            nparts).join(
        drop_empty_blocks(verdict, nparts), join_type="inner",
        num_partitions=nparts, on=("component",))
    return out.select_columns(["node", "component", "label",
                               "prop_label"])


def q_vocab_growth(sf_dir: str):
    """Vocabulary growth (Heaps-law) per conversation: how many tokens
    each turn introduces that the conversation has never used before —
    the repetition/novelty curve of a dialog. Conversations co-locate
    via the entity bucket, so first-occurrence detection is one local
    pandas duplicated() over the exploded token stream; no extra
    shuffle."""
    from pystreamfs_ray.pipelines.transcripts import vocab_novelty

    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    return W.per_bucket(t, vocab_novelty, entity_col="conv_id",
                        num_buckets=_BUCKETS)


def q_peak_rate(sf_dir: str):
    """Burstiness: each user's busiest 5-minute bucket (events in it)
    and total buckets touched — two nested grouped counts riding one
    entity shuffle."""
    ds = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "user_id", "ts"])

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        ts_us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        bucket = ts_us // (300 * 1_000_000)
        c = (pd.DataFrame({"u": g["user_id"].to_numpy(np.int64),
                           "b": bucket})
             .groupby(["u", "b"], sort=False).size().rename("n")
             .reset_index())
        out = (c.groupby("u", sort=False)
               .agg(peak_rate=("n", "max"), n_buckets=("b", "size"))
               .reset_index().rename(columns={"u": "user_id"}))
        for col in ("peak_rate", "n_buckets"):
            out[col] = out[col].astype(np.int64)
        return out

    return W.per_bucket(ds, fn, entity_col="user_id",
                        num_buckets=_BUCKETS)


def q_ncm_kappa(sf_dir: str):
    """Cohen's kappa + accuracy of the nearest-class-mean classifier,
    finished on the bounded (labels²-row) confusion table: kappa =
    (D·N − E)/(N² − E) from exact integer counts (D diagonal, E sum of
    row×col marginal products), one float division mirrored in the
    oracle."""
    df = q_ncm_confusion(sf_dir).to_pandas()
    N = int(df["n"].sum())
    D = int(df.loc[df["label"] == df["pred"], "n"].sum())
    rk = df.groupby("label")["n"].sum()
    ck = df.groupby("pred")["n"].sum()
    E = sum(int(rk.get(k, 0)) * int(ck.get(k, 0))
            for k in set(rk.index) | set(ck.index))
    denom = N * N - E
    if denom == 0:
        # degenerate single-label table: DuckDB's DOUBLE division gives
        # nan (0/0, all correct) or -inf (chance beats a wrong model)
        kappa = float("nan") if D == N else float("-inf")
    else:
        kappa = float(D * N - E) / float(denom)
    return pd.DataFrame({
        "n": np.array([N], dtype=np.int64),
        "accuracy": [float(D) / float(N)],
        "kappa": [kappa],
    })


def q_curriculum(sf_dir: str):
    """Curriculum difficulty buckets: NTILE(4) over the CCNet-style
    unigram NLL quality proxy — easy→hard training phases without a
    global sort (composition: vocab-bounded LM scoring → two-phase
    range-partitioned NTILE)."""
    from pystreamfs_ray.stages.rank import global_ntile
    from pystreamfs_ray.stages.textstats import unigram_logprob

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    nll = unigram_logprob(docs)
    # global_ntile emits (id, bucket) — the assignment IS the result
    return global_ntile(nll, 4, value_col="nll", id_col="doc_id",
                        num_partitions=_BUCKETS)


def q_needle_scan(sf_dir: str):
    """Exact-needle contamination scan: count documents containing each
    of 5 probe substrings (20 chars lifted from the first docs) — the
    benchmark-canary check run before a training snapshot ships.
    Needles broadcast in the closure; per-batch vectorized substring
    containment (no regex compilation, plain find) + a 5-row count
    aggregate."""
    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    probe = (docs.filter(expr="doc_id < 5").to_pandas()
             .sort_values("doc_id"))
    needles = [t[10:30] for t in probe["text"] if len(t) >= 30]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = [(nd, int(df["text"].str.contains(nd, regex=False).sum()))
                for nd in needles]
        return pd.DataFrame(rows, columns=["needle", "n_docs"]).astype(
            {"n_docs": np.int64})

    return combine_sum(docs, partial, "needle", ["n_docs"])


def q_tool_loops(sf_dir: str):
    """Agent tool-loop detection: each conversation's longest run of
    CONSECUTIVE turns calling the same tool (loop bugs show up as long
    runs). Gaps-and-islands run-length per bucket, all vectorized; one
    entity shuffle. Tool-less turns ('') break runs and never count."""
    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = W.sort_entity(g, entity_col="conv_id", order_cols=("turn_idx",))
        conv = g["conv_id"].to_numpy()
        tool = g["tool"].astype(str).to_numpy()
        new_run = np.r_[True, (conv[1:] != conv[:-1])
                        | (tool[1:] != tool[:-1])]
        run_id = np.cumsum(new_run)
        d = pd.DataFrame({"conv_id": conv, "tool": tool, "rid": run_id})
        d = d[d["tool"] != ""]
        if not len(d):
            return pd.DataFrame({"conv_id": pd.Series(dtype=object),
                                 "max_run": pd.Series(dtype=np.int64)})
        runs = (d.groupby(["conv_id", "rid"], sort=False)
                .size().rename("n").reset_index())
        out = (runs.groupby("conv_id", sort=False)["n"].max()
               .rename("max_run").reset_index())
        out["max_run"] = out["max_run"].astype(np.int64)
        return out

    return W.per_bucket(t, fn, entity_col="conv_id", num_buckets=_BUCKETS)


def q_alternation(sf_dir: str):
    """Turn-taking balance: per conversation, how many adjacent turn
    pairs change speaker (role) and the total pairs — the dialog-
    structure feature separating monologues from interactions."""
    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = W.sort_entity(g, entity_col="conv_id", order_cols=("turn_idx",))
        conv = g["conv_id"].to_numpy()
        role = g["role"].to_numpy()
        same_conv = np.r_[False, conv[1:] == conv[:-1]]
        switch = np.r_[False, role[1:] != role[:-1]] & same_conv
        d = pd.DataFrame({"conv_id": conv,
                          "sw": switch.astype(np.int64),
                          "pair": same_conv.astype(np.int64)})
        out = (d.groupby("conv_id", sort=False)
               .agg(n_switches=("sw", "sum"), n_pairs=("pair", "sum"))
               .reset_index())
        for c in ("n_switches", "n_pairs"):
            out[c] = out[c].astype(np.int64)
        return out

    return W.per_bucket(t, fn, entity_col="conv_id", num_buckets=_BUCKETS)


def q_collapse_repeats(sf_dir: str):
    """Streaming transcript cleaning: collapse IMMEDIATELY-consecutive
    duplicate turns (same role, identical text — the stuck-agent
    stutter that inflates context windows) and report per-conversation
    kept/dropped counts. One entity shuffle; the adjacency test is a
    vectorized shift inside the bucket; all-integer output."""
    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = W.sort_entity(g, entity_col="conv_id", order_cols=("turn_idx",))
        conv = g["conv_id"].to_numpy()
        role = g["role"].to_numpy()
        text = g["text"].to_numpy()
        same = np.r_[False, (conv[1:] == conv[:-1])
                     & (role[1:] == role[:-1])
                     & (text[1:] == text[:-1])]
        d = pd.DataFrame({"conv_id": conv,
                          "drop": same.astype(np.int64),
                          "one": np.int64(1)})
        out = (d.groupby("conv_id", sort=False)
               .agg(n_turns=("one", "sum"), n_dropped=("drop", "sum"))
               .reset_index())
        out["n_kept"] = out["n_turns"] - out["n_dropped"]
        for c in ("n_turns", "n_dropped", "n_kept"):
            out[c] = out[c].astype(np.int64)
        return out

    return W.per_bucket(t, fn, entity_col="conv_id", num_buckets=_BUCKETS)


def q_self_repetition(sf_dir: str):
    """Context-rot signal: per conversation, how many assistant turns
    REPEAT the exact text of an earlier assistant turn in the same
    conversation (a looping/stuck agent repeats itself). Rides the
    entity bucket; the repeat test is a vectorized per-conversation
    ``duplicated()`` over the assistant subsequence — no shuffles
    beyond the one entity exchange, all-integer output."""
    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        a = g[g["role"].to_numpy() == "assistant"]
        if not len(a):
            return pd.DataFrame({
                "conv_id": pd.Series([], dtype=g["conv_id"].dtype),
                "n_assistant": pd.Series([], dtype=np.int64),
                "n_repeats": pd.Series([], dtype=np.int64)})
        a = W.sort_entity(a, entity_col="conv_id", order_cols=("turn_idx",))
        rep = a.duplicated(subset=["conv_id", "text"]).to_numpy()
        d = pd.DataFrame({"conv_id": a["conv_id"].to_numpy(),
                          "rep": rep.astype(np.int64),
                          "one": np.int64(1)})
        out = (d.groupby("conv_id", sort=False)
               .agg(n_assistant=("one", "sum"), n_repeats=("rep", "sum"))
               .reset_index())
        for c in ("n_assistant", "n_repeats"):
            out[c] = out[c].astype(np.int64)
        return out

    return W.per_bucket(t, fn, entity_col="conv_id", num_buckets=_BUCKETS)


def q_echo_rate(sf_dir: str):
    """Parroting signal over mined SFT pairs: the fraction of each
    response's word-3-grams that already appear in its prompt (a
    response that mostly echoes the prompt teaches nothing). Doc-local
    after the pair mining's conv shuffle — per pair, two hashed
    3-gram sets and one intersection; ``echo_ppm`` is an exact
    integer floor division (responses with <3 words report -1).

    Words are Python ``str.split()`` tokens; the oracle splits
    ``trim(x)`` on RE2 ``\\s+``. They agree on the fixtures' text but
    not on every string: Python also splits at ``\\v`` and Unicode
    whitespace (NBSP, U+2028, ...), which RE2's ASCII-only ``\\s``
    keeps inside a word, and DuckDB's ``trim`` strips only spaces, so
    a leading or trailing tab or newline gives the oracle an empty
    first or last word."""
    from pystreamfs_ray.pipelines.transcripts import sft_pairs

    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)
    pairs = sft_pairs(t, num_buckets=_BUCKETS)

    def _distinct_grams(texts: pd.Series) -> pd.DataFrame:
        """(row, gram) table of DISTINCT word-3-grams per row — the
        flattened-shingle idiom (seam knockout over the concatenated
        token stream), no per-row Python."""
        s = texts.str.split()
        n = s.map(len).to_numpy(np.int64)
        if int(n.sum()) < 3:
            return pd.DataFrame({"row": pd.Series([], dtype=np.int64),
                                 "g": pd.Series([], dtype=object)})
        flat = np.concatenate([np.asarray(v, dtype=object) for v in s])
        doc_of = np.repeat(np.arange(len(n), dtype=np.int64), n)
        valid = doc_of[:-2] == doc_of[2:]
        a = flat[:-2][valid].astype(str)
        b = flat[1:-1][valid].astype(str)
        c = flat[2:][valid].astype(str)
        key = np.char.add(np.char.add(np.char.add(a, "\x1f"), b),
                          np.char.add(np.full(len(a), "\x1f"), c))
        return (pd.DataFrame({"row": doc_of[:-2][valid], "g": key})
                .drop_duplicates())

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        rg = _distinct_grams(df["response"])
        pg = _distinct_grams(df["prompt"])
        n_g = (rg.groupby("row")["g"].size()
               .reindex(range(len(df)), fill_value=0).to_numpy(np.int64))
        hit = rg.merge(pg, on=["row", "g"], how="inner")
        n_hit = (hit.groupby("row")["g"].size()
                 .reindex(range(len(df)), fill_value=0).to_numpy(np.int64))
        echo = np.where(n_g > 0, n_hit * 1_000_000 // np.maximum(n_g, 1),
                        np.int64(-1))
        return pd.DataFrame({
            "conv_id": df["conv_id"].to_numpy(),
            "turn_idx": df["turn_idx"].to_numpy(np.int64),
            "n_resp_grams": n_g,
            "n_echoed": n_hit,
            "echo_ppm": echo.astype(np.int64),
        })

    return pairs.map_batches(fn, batch_format="pandas")


def q_substr_dup(sf_dir: str):
    """Exact-substring duplicate coverage (the character-level
    'ExactSubstr' dedup signal — Lee et al. 2022): per document, the
    characters covered by some 30-char substring occurring anywhere
    else in the corpus. Stride-1 gram-count combiner exchange →
    size-gated repeated-set broadcast → doc-local interval-union
    scoring (equal-length union identity, exact integers). See
    stages/dedup.substr_dup_coverage for the 100-TB trade notes."""
    from pystreamfs_ray.stages.dedup import substr_dup_coverage

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    return substr_dup_coverage(docs, gram_len=30)


def q_dup_rate_by_source(sf_dir: str):
    """Curation dashboard metric: per source, distinct-text count vs
    total docs (the duplicate rate that decides which feed needs
    upstream dedup). One (source, md5) content-hash shuffle — text
    never moves — then a source-keyed rollup of the hash table."""
    from pystreamfs_ray.stages.dedup import _md5_hex

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["source", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = (pd.DataFrame({"source": df["source"].to_numpy(),
                             "fp": _md5_hex(df["text"].to_numpy())})
               .groupby(["source", "fp"], sort=False)
               .size().rename("n").reset_index())
        out["n"] = out["n"].astype(np.int64)
        return out

    per_hash = combine_sum(docs, partial, ["source", "fp"], ["n"])

    def rollup(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"source": df["source"].to_numpy(),
                            "one": np.ones(len(df), dtype=np.int64),
                            "n": df["n"].to_numpy(np.int64)})
        return (out.groupby("source", sort=False, as_index=False).sum()
                .rename(columns={"one": "n_distinct", "n": "n_docs"}))

    return combine_sum(per_hash, rollup, "source", ["n_distinct", "n_docs"])


def q_tool_entropy(sf_dir: str):
    """Per-conversation Shannon entropy (nats) of the tool-usage
    distribution over tool-calling turns — the agent-behavior
    diversity feature (a conversation that only ever calls one tool
    scores 0). Entity-hash bucketing makes per-conv tool counts
    complete inside one bucket, so the float entropy is computed once
    from exact integer counts; output is one row per tool-using
    conversation. Shuffle: the single conv-bucket exchange."""
    ts_ds = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)

    def part(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["tool"] != ""]
        if len(g) == 0:
            return pd.DataFrame({"conv_id": pd.Series([], dtype=str),
                                 "n_calls": pd.Series([], dtype=np.int64),
                                 "h": pd.Series([], dtype=np.float64)})
        c = (g.groupby(["conv_id", "tool"], sort=True)
             .size().rename("c").reset_index())
        n = c.groupby("conv_id", sort=False)["c"].transform("sum")
        p = c["c"].to_numpy(np.float64) / n.to_numpy(np.float64)
        contrib = pd.Series(-p * np.log(p), index=c.index)
        out = pd.DataFrame({
            "conv_id": c["conv_id"],
            "n_calls": c["c"].astype(np.int64),
            "h": contrib,
        }).groupby("conv_id", sort=False, as_index=False).sum()
        out["n_calls"] = out["n_calls"].astype(np.int64)
        out["h"] = out["h"].round(6)
        return out

    return W.per_bucket(ts_ds, part, entity_col="conv_id",
                        num_buckets=_BUCKETS)


def q_len_slope(sf_dir: str):
    """Per-conversation OLS slope of text length over turn_idx — the
    within-conversation verbosity-drift feature (do turns grow or
    shrink as the conversation progresses?). All moments (n, Σx, Σy,
    Σxy, Σxx) are exact int64 inside the conv bucket (bounds: n ≤ 1e4
    turns × len ≤ 1e6 chars keeps n·Σxy < 2^62), so engine and oracle
    divide the SAME two exact integers in IEEE double — bit-identical
    before the 6-digit round. Convs with a single turn are excluded
    (slope undefined). Shuffle: the single conv-bucket exchange."""
    ts_ds = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)

    def part(g: pd.DataFrame) -> pd.DataFrame:
        x = g["turn_idx"].to_numpy(np.int64)
        y = np.char.str_len(g["text"].to_numpy(str)).astype(np.int64)
        d = pd.DataFrame({"conv_id": g["conv_id"].to_numpy(),
                          "one": np.ones(len(g), dtype=np.int64),
                          "sx": x, "sy": y, "sxy": x * y, "sxx": x * x})
        s = d.groupby("conv_id", sort=False, as_index=False).sum()
        s = s[s["one"] >= 2]
        n = s["one"].to_numpy(np.int64)
        num = n * s["sxy"].to_numpy(np.int64) - \
            s["sx"].to_numpy(np.int64) * s["sy"].to_numpy(np.int64)
        den = n * s["sxx"].to_numpy(np.int64) - \
            s["sx"].to_numpy(np.int64) ** 2
        return pd.DataFrame({
            "conv_id": s["conv_id"],
            "n_turns": n,
            "slope": np.round(num.astype(np.float64) /
                              den.astype(np.float64), 6),
        })

    return W.per_bucket(ts_ds, part, entity_col="conv_id",
                        num_buckets=_BUCKETS)


def q_burstiness(sf_dir: str):
    """Per-user Fano factor (var/mean) of hourly event counts over the
    user's ACTIVE hours — the burstiness feature that separates steady
    producers from spike traffic (Fano 0 = perfectly regular, >1 =
    bursty). Two mergeable integer stages: (user, hour) partial counts
    → Sum, then per-user moment partials (n_hours, Σc, Σc²) → Sum; the
    one float division happens once on exact int64 moments, identical
    to the oracle's. Shuffle: two small keyed aggregates; raw events
    never move."""
    ev = read_parquet(_p(sf_dir, "events"), columns=["user_id", "ts"])

    def hours(df: pd.DataFrame) -> pd.DataFrame:
        hr = df["ts"].astype("int64").to_numpy() // 3_600_000_000
        out = (pd.DataFrame({"user_id": df["user_id"].to_numpy(),
                             "hr": hr})
               .groupby(["user_id", "hr"], sort=False)
               .size().rename("c").reset_index())
        out["c"] = out["c"].astype(np.int64)
        return out

    per_hour = combine_sum(ev, hours, ["user_id", "hr"], ["c"])

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        c = df["c"].to_numpy(np.int64)
        d = pd.DataFrame({"user_id": df["user_id"].to_numpy(),
                          "n_hours": np.ones(len(df), dtype=np.int64),
                          "s": c, "q": c * c})
        return d.groupby("user_id", sort=False, as_index=False).sum()

    agg = combine_sum(per_hour, moments, "user_id", ["n_hours", "s", "q"])

    def fano(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n_hours"].to_numpy(np.int64)
        s = df["s"].to_numpy(np.int64)
        q = df["q"].to_numpy(np.int64)
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "n_hours": n,
            "n_events": s,
            "fano": np.round((n * q - s * s).astype(np.float64) /
                             (n * s).astype(np.float64), 6),
        })

    return agg.map_batches(fano, batch_format="pandas")


def q_tool_cooccur(sf_dir: str):
    """Tool co-occurrence: for every unordered pair of DISTINCT tools
    used inside the same conversation, count conversations — the
    capability-bundle signal (which tools travel together) an agent
    analytics pipeline reports. Each conv's distinct-tool set is
    complete inside its entity bucket, so buckets emit exact pair
    partials; one tiny |tools|²-keyed Sum finishes."""
    ts_ds = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)

    def part(g: pd.DataFrame) -> pd.DataFrame:
        d = (g[g["tool"] != ""][["conv_id", "tool"]]
             .drop_duplicates())
        pairs = d.merge(d, on="conv_id", suffixes=("_a", "_b"))
        pairs = pairs[pairs["tool_a"] < pairs["tool_b"]]
        out = (pairs.groupby(["tool_a", "tool_b"], sort=False)
               .size().rename("n_convs").reset_index())
        out["n_convs"] = out["n_convs"].astype(np.int64)
        return out

    partials = W.per_bucket(ts_ds, part, entity_col="conv_id",
                            num_buckets=_BUCKETS)
    return (partials.groupby(["tool_a", "tool_b"])
            .aggregate(Sum("n_convs", alias_name="n_convs")))


def q_chi2_cells(sf_dir: str):
    """Chi-squared contingency cells for lang × source over documents:
    observed count, expected count under independence, and the cell's
    chi² contribution — the category-association audit that flags a
    source feeding one language disproportionately. Counts are exact
    int64 combiner partials; the float expected/contrib math runs once
    on the tiny |lang|×|source| table with the same IEEE ops as the
    oracle (no cross-cell summation, so no association-order risk)."""
    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["lang", "source"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby(["lang", "source"], sort=False)
               .size().rename("observed").reset_index())
        out["observed"] = out["observed"].astype(np.int64)
        return out

    cells = (combine_sum(docs, partial, ["lang", "source"], ["observed"])
             .to_pandas())
    # tiny driver-side finish: |lang| x |source| rows
    row_tot = cells.groupby("lang")["observed"].transform("sum")
    col_tot = cells.groupby("source")["observed"].transform("sum")
    n = np.int64(cells["observed"].sum())
    e = ((row_tot.to_numpy(np.int64) * col_tot.to_numpy(np.int64))
         .astype(np.float64) / np.float64(n))
    o = cells["observed"].to_numpy(np.int64).astype(np.float64)
    cells["expected"] = np.round(e, 6)
    cells["contrib"] = np.round((o - e) * (o - e) / e, 6)
    cells["observed"] = cells["observed"].astype(np.int64)
    return cells


def q_profile_events(sf_dir: str):
    """Per-column dataset profile of the events table: null count and
    exact distinct count — the schema-health report a pipeline runs
    before training. Single-pass design: one combiner emits per-batch
    null partials and batch-deduped (column, md5-128) identity rows,
    one (column, fp) groupby + per-column rollup finishes — 1 read +
    1 exchange for ANY column count (vs N+1 reads / N full-row
    shuffles naively; 7.0 s -> ~2 s on 2.7M rows). Scale path: HLL
    per column (stages/sketch.py) when approximate counts suffice."""
    from pystreamfs_ray.stages.profile import profile_columns

    cols = ["event_id", "ts", "user_id", "event_type", "value", "props"]
    ev = read_parquet(_p(sf_dir, "events"), columns=cols)
    return profile_columns(ev, cols)



def q_ewma_value(sf_dir: str):
    """Per-event bounded exponential smoothing of ``value``: a 4-tap
    EWMA over the user's last 4 events (weights 1, 1/2, 1/4, 1/8,
    renormalized when fewer lags exist) — the denoised-signal feature a
    streaming feature store serves next to the raw value. Each user's
    event sequence is complete inside its entity bucket, so the lag
    taps are exact; the float expression is written in the same
    left-associated order as the oracle's, making the doubles
    bit-identical before the 6-digit round. Shuffle: one user-bucket
    exchange."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "ts", "user_id", "value"])

    def part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort", ignore_index=True)
        u = g["user_id"].to_numpy()
        x = g["value"].to_numpy(np.float64)
        n = len(g)
        taps, masks = [], []
        for k in (1, 2, 3):
            xs = np.zeros(n, dtype=np.float64)
            ms = np.zeros(n, dtype=np.float64)
            if n > k:
                same = u[k:] == u[:-k]
                xs[k:] = np.where(same, x[:-k], 0.0)
                ms[k:] = same.astype(np.float64)
            taps.append(xs)
            masks.append(ms)
        num = x + 0.5 * taps[0] + 0.25 * taps[1] + 0.125 * taps[2]
        den = 1.0 + 0.5 * masks[0] + 0.25 * masks[1] + 0.125 * masks[2]
        return pd.DataFrame({
            "user_id": u,
            "event_id": g["event_id"].to_numpy(np.int64),
            "ewma": np.round(num / den, 6),
        })

    return W.per_bucket(ev, part, entity_col="user_id",
                        num_buckets=_BUCKETS)


def q_feature_cross(sf_dir: str):
    """Hashed feature cross of role × tool over transcript turns: each
    (role, tool) combination hashes into 64 md5 slots; per slot, the
    turn count and the number of DISTINCT combinations that landed
    there (the collision audit a hashed-cross featurizer ships so
    downstream knows which slots are pure). Combiner partials keyed by
    the tiny (role, tool) domain, one mergeable Sum, then a driver-side
    finish on the ≤|roles|×|tools| table. Zero data shuffles."""
    from pystreamfs_ray.stages.dedup import _md5_lower64

    ts_ds = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby(["role", "tool"], sort=False)
               .size().rename("n").reset_index())
        out["n"] = out["n"].astype(np.int64)
        return out

    pairs = combine_sum(ts_ds, partial, ["role", "tool"], ["n"]).to_pandas()
    key = (pairs["role"].astype(str) + "|" + pairs["tool"].astype(str))
    pairs["bucket"] = (_md5_lower64(list(key))
                       % np.uint64(64)).astype(np.int64)
    out = (pairs.groupby("bucket", as_index=False)
           .agg(n_turns=("n", "sum"), n_pairs=("n", "size")))
    out["n_turns"] = out["n_turns"].astype(np.int64)
    out["n_pairs"] = out["n_pairs"].astype(np.int64)
    return out


def q_span_corrupt(sf_dir: str):
    """Deterministic T5-style span corruption over documents: every 4th
    token (phase 1) masked into ``input_text``/``target_text`` pairs —
    the denoising-objective prep stage of a pretraining pipeline,
    RNG-free so it is reproducible at any parallelism. Doc-local, zero
    shuffles."""
    from pystreamfs_ray.stages.textstats import span_corrupt

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "text"])
    return span_corrupt(docs, every=4, phase=1)


def q_audience_overlap(sf_dir: str):
    """Audience Jaccard between event types: for each unordered pair of
    event types, |users(a) ∩ users(b)| / |users(a) ∪ users(b)| — the
    segment-overlap report behind feature-bundle decisions. Shape:
    batch-deduped (type, user) identity rows → one distinct groupby;
    each user's type set (≤|types|) expands to pairs inside a user
    bucket; intersections Sum-merge and unions come from marginals —
    the float division happens once per pair on exact int64 counts.
    Output is |types|² rows; raw events shuffle once as deduped pairs."""
    from pystreamfs_ray.util import arrow_combiner

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["user_id", "event_type"])

    def dedup(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(ignore_index=True)

    pairs_ds = (ev.map_batches(arrow_combiner(dedup),
                               batch_format="pyarrow")
                .groupby(["user_id", "event_type"])
                .aggregate(Count(alias_name="_c")))

    def per_user_pairs(g: pd.DataFrame) -> pd.DataFrame:
        d = g[["user_id", "event_type"]]
        m = d.merge(d, on="user_id", suffixes=("_a", "_b"))
        m = m[m["event_type_a"] < m["event_type_b"]]
        out = (m.groupby(["event_type_a", "event_type_b"], sort=False)
               .size().rename("n_both").reset_index())
        out["n_both"] = out["n_both"].astype(np.int64)
        return out

    inter = (W.per_bucket(pairs_ds, per_user_pairs, entity_col="user_id",
                          num_buckets=_BUCKETS)
             .groupby(["event_type_a", "event_type_b"])
             .aggregate(Sum("n_both", alias_name="n_both"))
             .to_pandas())

    def marg(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby("event_type", sort=False)
               .size().rename("n_users").reset_index())
        out["n_users"] = out["n_users"].astype(np.int64)
        return out

    marginals = (combine_sum(pairs_ds, marg, "event_type", ["n_users"])
                 .to_pandas().set_index("event_type")["n_users"])
    na = inter["event_type_a"].map(marginals).to_numpy(np.int64)
    nb = inter["event_type_b"].map(marginals).to_numpy(np.int64)
    both = inter["n_both"].to_numpy(np.int64)
    union = na + nb - both
    inter["n_union"] = union
    inter["jaccard"] = np.round(both.astype(np.float64) /
                                union.astype(np.float64), 6)
    return inter


def q_activity_streak(sf_dir: str):
    """Longest consecutive-day activity streak per user (the
    engagement feature): distinct (user, day) via batch dedup + one
    groupby, then a gaps-and-islands scan inside the user bucket —
    vectorized diff over the sorted day integers. Exact integer
    output; one deduped-pair shuffle."""
    from pystreamfs_ray.util import arrow_combiner

    ev = read_parquet(_p(sf_dir, "events"), columns=["user_id", "ts"])

    def days(df: pd.DataFrame) -> pd.DataFrame:
        d = df["ts"].astype("int64").to_numpy() // 86_400_000_000
        return (pd.DataFrame({"user_id": df["user_id"].to_numpy(),
                              "day": d})
                .drop_duplicates(ignore_index=True))

    per_day = (ev.map_batches(arrow_combiner(days),
                              batch_format="pyarrow")
               .groupby(["user_id", "day"])
               .aggregate(Count(alias_name="_c")))

    def streak(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "day"], kind="mergesort",
                          ignore_index=True)
        u = g["user_id"].to_numpy()
        d = g["day"].to_numpy(np.int64)
        brk = np.ones(len(g), dtype=bool)
        brk[1:] = (u[1:] != u[:-1]) | (d[1:] != d[:-1] + 1)
        run_id = np.cumsum(brk)
        t = pd.DataFrame({"user_id": u, "run": run_id})
        runs = (t.groupby(["user_id", "run"], sort=False)
                .size().rename("len").reset_index())
        out = (runs.groupby("user_id", sort=False, as_index=False)
               .agg(best_streak=("len", "max"),
                    n_active_days=("len", "sum")))
        out["best_streak"] = out["best_streak"].astype(np.int64)
        out["n_active_days"] = out["n_active_days"].astype(np.int64)
        return out

    return W.per_bucket(per_day, streak, entity_col="user_id",
                        num_buckets=_BUCKETS)


def q_embedding_diversity(sf_dir: str):
    """Per-label embedding diversity: the MEAN PAIRWISE COSINE among
    L2-normalized member vectors, computed WITHOUT materializing pairs
    via the sum-vector identity mean = (||Σv̂||² − n) / (n(n−1)) — the
    intra-class-compactness audit that tells you which label's corpus
    has collapsed to near-duplicates. Shape: per-batch normalized sum
    partials flattened to (label, dim) rows → one tiny mergeable Sum →
    driver finish on the |labels|×d table. O(n·d) work for an O(n²)
    statistic; embeddings shuffle never."""
    emb = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["label", "embedding"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack([np.asarray(v, dtype=np.float64)
                        for v in df["embedding"]])
        mat = mat / np.sqrt((mat * mat).sum(axis=1, keepdims=True))
        lab = df["label"].to_numpy(np.int64)
        frames = []
        for b in np.unique(lab):
            m = lab == b
            s = mat[m].sum(axis=0)
            frames.append(pd.DataFrame({
                "label": np.int64(b),
                "dim": np.arange(len(s), dtype=np.int64),
                "s": s,
                "n": np.int64(m.sum()),
            }))
        return pd.concat(frames, ignore_index=True)

    agg = combine_sum(emb, partial, ["label", "dim"], ["s", "n"]).to_pandas()
    out_rows = []
    for b, g in agg.groupby("label"):
        s2 = float((g["s"].to_numpy(np.float64) ** 2).sum())
        n = float(g["n"].max())  # every dim row carries the label count
        out_rows.append({
            "label": np.int64(b),
            "n_vecs": np.int64(n),
            "diversity": round((s2 - n) / (n * (n - 1.0)), 6),
        })
    return pd.DataFrame(out_rows)


def q_pareto_share(sf_dir: str):
    """Revenue concentration (the 80/20 report): how many top users —
    by cent-quantized total value, descending — does it take to cover
    80% of all value, and what exact share do they hold. Per-user cents
    via combiner + one keyed Sum; the global descending order is a
    composite int64 key fed to the two-phase distributed prefix sum
    (``stages/packing.distributed_prefix_sum`` — per-partition totals,
    driver scan of P integers, per-partition offset cumsum), so the
    cutoff test ``5·prefix < 4·total`` is evaluated row-locally in
    exact integer arithmetic and the full ranking never lands on the
    driver. Key-packing bound: cents·2²¹ needs cents < 2⁴², i.e. per-
    user totals under ~$44B with user_id < 2²¹ per key block — re-shard
    the key at larger id spaces."""
    from pystreamfs_ray.stages.packing import distributed_prefix_sum

    ev = read_parquet(_p(sf_dir, "events"), columns=["user_id", "value"])

    def cents(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "cents": np.floor(df["value"].to_numpy(np.float64)
                              * 100.0 + 0.5).astype(np.int64),
        })
        return out.groupby("user_id", sort=False, as_index=False).sum()

    per_user = combine_sum(ev, cents, "user_id", ["cents"])

    def ordkey(t: pa.Table) -> pa.Table:
        c = t["cents"].to_numpy(zero_copy_only=False).astype(np.int64)
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # descending by cents, ascending user_id tiebreak, one int64
        key = (-c) * (1 << 21) + u
        return t.append_column("ordkey", pa.array(key))

    keyed = per_user.map_batches(ordkey, batch_format="pyarrow")
    with_pfx = distributed_prefix_sum(keyed, order_col="ordkey",
                                      value_col="cents")

    def mark(t: pa.Table) -> pa.Table:
        return pa.table({
            "cents": t["cents"],
            "pfx": t["prefix_excl"],
            "one": pa.array(np.ones(len(t), dtype=np.int64)),
        })

    # consumed twice (global totals, then the cutoff pass) and already
    # reduced to one row per user — materialize instead of re-running
    # the prefix-sum pipeline
    flat = with_pfx.map_batches(mark, batch_format="pyarrow").materialize()
    total = flat.aggregate(Sum("cents", alias_name="s"),
                           Sum("one", alias_name="n"))
    total_cents, n_users = int(total["s"]), int(total["n"])

    def in_top(t: pa.Table) -> pa.Table:
        pfx = t["pfx"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = 5 * pfx < 4 * total_cents
        c = t["cents"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "top_cents": pa.array([np.int64(c[keep].sum())]),
            "n_top": pa.array([np.int64(keep.sum())]),
        })

    top = (flat.map_batches(in_top, batch_format="pyarrow")
           .aggregate(Sum("top_cents", alias_name="tc"),
                      Sum("n_top", alias_name="nt")))
    tc, nt = int(top["tc"]), int(top["nt"])
    return pd.DataFrame([{
        "n_users": np.int64(n_users),
        "n_top_users": np.int64(nt),
        "top_cents": np.int64(tc),
        "total_cents": np.int64(total_cents),
        "top_share": round(float(np.float64(tc) / np.float64(total_cents)), 6),
    }])


def q_user_features(sf_dir: str):
    """Feature-store materialization: the full per-user feature vector
    (event count, active hours, hourly-burstiness Fano, longest daily
    streak, active days, cent-exact total value, distinct event types)
    computed in ONE user-bucket pass — each user's whole history is
    co-located by the single entity shuffle, so every feature is a
    vectorized in-bucket aggregate and no second exchange or join
    exists. This is the one-row-per-entity serving table the north-star
    pipeline ships to the online store; the oracle rebuilds it as a
    three-CTE join."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["user_id", "ts", "value", "event_type"])

    def feats(g: pd.DataFrame) -> pd.DataFrame:
        t = g["ts"].astype("int64").to_numpy()
        base = pd.DataFrame({
            "user_id": g["user_id"].to_numpy(np.int64),
            "hr": t // 3_600_000_000,
            "day": t // 86_400_000_000,
            "cents": np.floor(g["value"].to_numpy(np.float64)
                              * 100.0 + 0.5).astype(np.int64),
            "event_type": g["event_type"].to_numpy(),
        })
        per_hr = (base.groupby(["user_id", "hr"], sort=False)
                  .size().rename("c").reset_index())
        c = per_hr["c"].to_numpy(np.int64)
        per_hr["q"] = c * c
        mom = (per_hr.groupby("user_id", sort=False)
               .agg(n_hours=("c", "size"), s=("c", "sum"),
                    q=("q", "sum")))
        n, s, q = (mom["n_hours"].to_numpy(np.int64),
                   mom["s"].to_numpy(np.int64),
                   mom["q"].to_numpy(np.int64))
        mom["fano"] = np.round((n * q - s * s).astype(np.float64) /
                               (n * s).astype(np.float64), 6)

        days = (base[["user_id", "day"]].drop_duplicates()
                .sort_values(["user_id", "day"], kind="mergesort",
                             ignore_index=True))
        u = days["user_id"].to_numpy()
        d = days["day"].to_numpy(np.int64)
        brk = np.ones(len(days), dtype=bool)
        brk[1:] = (u[1:] != u[:-1]) | (d[1:] != d[:-1] + 1)
        days["run"] = np.cumsum(brk)
        runs = (days.groupby(["user_id", "run"], sort=False)
                .size().rename("len").reset_index())
        streak = (runs.groupby("user_id", sort=False)
                  .agg(best_streak=("len", "max"),
                       n_active_days=("len", "sum")))

        tot = (base.groupby("user_id", sort=False)
               .agg(total_cents=("cents", "sum"),
                    n_types=("event_type", "nunique")))

        out = mom.join(streak).join(tot).reset_index()
        out = out.rename(columns={"s": "n_events"}).drop(columns=["q"])
        for col in ("n_events", "n_hours", "best_streak",
                    "n_active_days", "total_cents", "n_types"):
            out[col] = out[col].astype(np.int64)
        return out[["user_id", "n_events", "n_hours", "fano",
                    "best_streak", "n_active_days", "total_cents",
                    "n_types"]]

    return W.per_bucket(ev, feats, entity_col="user_id",
                        num_buckets=_BUCKETS)


def q_compression(sf_dir: str):
    """Per-document zlib compressibility (the Gopher quality signal).
    DuckDB ships no zlib, so the oracle inlines an independent
    sequential re-derivation as a VALUES table (plumbing check); the
    zlib math itself is pytest-pinned by planted repetitive vs random
    fixtures."""
    from pystreamfs_ray.stages.textstats import compression_ratio

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "text"])
    return compression_ratio(docs)


def _ndcg_frame(exact: pd.DataFrame, approx: pd.DataFrame,
                id_col: str = "vec_id") -> pd.DataFrame:
    """nDCG@k of an approximate ranking against the exact top-k:
    graded relevance = k − true_rank (the exact list's order is the
    ground truth), DCG discount log2(position + 1). Complements
    recall@k (set overlap) by ALSO scoring the order the ANN returned."""
    rows = []
    for qid, grp in exact.groupby("query_id"):
        ranked = grp.sort_values("cosine", ascending=False,
                                 kind="mergesort")
        k = len(ranked)
        rel = {v: k - i for i, v in enumerate(ranked[id_col])}
        ap = (approx[approx["query_id"] == qid]
              .sort_values("cosine", ascending=False, kind="mergesort"))
        dcg = sum(rel.get(v, 0) / np.log2(i + 2.0)
                  for i, v in enumerate(ap[id_col]))
        idcg = sum((k - i) / np.log2(i + 2.0) for i in range(k))
        rows.append((int(qid), round(float(dcg / idcg), 6)))
    return pd.DataFrame(rows, columns=["query_id", "ndcg"])


def q_ann_ndcg(sf_dir: str):
    """nDCG@10 of partial-probe IVF against brute-force exact — the
    rank-aware ANN quality gate (recall@k treats a shuffled top-k as
    perfect; nDCG does not). Non-SQL (iterative IVF training); driver
    checks rows-only, pytest bounds the score on both an identity
    ranking (=1) and a planted reversal."""
    from pystreamfs_ray.stages.similarity import brute_force_topk, ivf_topk

    emb = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"])
    qdf = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"],
                       filter=(_pds.field("vec_id") < 10)).to_pandas()
    qmat = np.stack([np.asarray(v, dtype=np.float64)
                     for v in qdf["embedding"]])
    qids = qdf["vec_id"].to_numpy()
    exact = brute_force_topk(emb, qids, qmat, k=10).to_pandas()
    approx = ivf_topk(emb, qids, qmat, k=10, n_cells=16, nprobe=4).to_pandas()
    return _ndcg_frame(exact, approx)


def q_k_anonymity(sf_dir: str):
    """k-anonymity audit over the (lang, source) quasi-identifier of
    documents: for each k in {2, 5, 10}, how many documents sit in an
    equivalence class smaller than k (re-identification risk before a
    corpus release), plus the class count and the minimum class size.
    One combiner-count groupby over the tiny quasi-id domain; the
    threshold sweep is a driver finish on the class-size table."""
    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["lang", "source"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby(["lang", "source"], sort=False)
               .size().rename("n").reset_index())
        out["n"] = out["n"].astype(np.int64)
        return out

    classes = combine_sum(docs, partial, ["lang", "source"], ["n"]).to_pandas()
    sizes = classes["n"].to_numpy(np.int64)
    rows = [{
        "k": np.int64(k),
        "n_at_risk": np.int64(sizes[sizes < k].sum()),
        "n_classes": np.int64(len(sizes)),
        "min_class": np.int64(sizes.min()),
    } for k in (2, 5, 10)]
    return pd.DataFrame(rows)


def q_shard_plan(sf_dir: str):
    """Shard-balance write plan: assign every document to the output
    shard ``floor(exclusive_char_prefix / 4096)`` in doc_id order and
    report per-shard doc counts and char mass — the layout step that
    sizes resumable partitioned parquet writes to a byte budget
    instead of a row count (one straggler-free shard per ~target
    bytes; a failed 100 TB run skips finished shards). Exact two-phase
    prefix scan (O(P) driver ints, stages/packing.py) — no global sort
    — then a |shards|-bounded count/sum reduce. Oracle: running-sum
    window // target."""
    from pystreamfs_ray.stages.packing import distributed_prefix_sum

    target = 4096
    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "n_chars"])
    pre = distributed_prefix_sum(docs, order_col="doc_id",
                                 value_col="n_chars",
                                 out_col="prefix_excl", num_partitions=16)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        shard = df["prefix_excl"].to_numpy(np.int64) // target
        out = pd.DataFrame({"shard": shard,
                            "n_chars": df["n_chars"].to_numpy(np.int64)})
        g = (out.groupby("shard", sort=False)
             .agg(n_docs=("n_chars", "size"),
                  total_chars=("n_chars", "sum")).reset_index())
        g["n_docs"] = g["n_docs"].astype(np.int64)
        return g

    return combine_sum(pre, partial, "shard", ["n_docs", "total_chars"])


def q_l_diversity(sf_dir: str):
    """l-diversity audit over the (lang, source) quasi-identifier
    (Machanavajjhala et al., the companion to q_k_anonymity): a class
    can be k-anonymous yet leak its sensitive attribute if every
    member shares one value. Sensitive attribute: the 256-char length
    bucket of the document. For each l in {2, 3, 5}: documents in
    classes with fewer than l distinct sensitive values, class count,
    and the minimum diversity. One combiner pass over the bounded
    (lang, source, bucket) cell domain; the threshold sweep is a
    driver finish on the cell table."""
    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["lang", "source", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(sb=(df["n_chars"].to_numpy(np.int64) // 256))
        out = (df.groupby(["lang", "source", "sb"], sort=False)
               .size().rename("n").reset_index())
        out["n"] = out["n"].astype(np.int64)
        return out

    cells = (combine_sum(docs, partial, ["lang", "source", "sb"], ["n"])
             .to_pandas())
    cls = (cells.groupby(["lang", "source"])
           .agg(l=("sb", "size"), n=("n", "sum")))
    ls = cls["l"].to_numpy(np.int64)
    ns = cls["n"].to_numpy(np.int64)
    rows = [{
        "l_threshold": np.int64(l),
        "n_at_risk": np.int64(ns[ls < l].sum()),
        "n_classes": np.int64(len(cls)),
        "min_l": np.int64(ls.min()),
    } for l in (2, 3, 5)]
    return pd.DataFrame(rows)


def q_t_closeness(sf_dir: str):
    """t-closeness audit (Li/Li/Venkatasubramanian), completing the
    k-anonymity → l-diversity → t-closeness privacy trio: a class can
    be diverse yet still leak if its sensitive-value DISTRIBUTION
    differs sharply from the corpus's. Sensitive attribute: the
    256-char length bucket (ordered), distance = the ordered-bucket
    earth-mover's distance ``EMD = Σ_i |Σ_{j≤i}(p_j − q_j)| / (B−1)``.
    EXACT integers throughout: the cumulative difference is computed
    on the common denominator ``n_c·N`` (``Σ_{j≤i} (n_cj·N − N_j·n_c)``,
    int64), and the reported ``emd_ppm`` is ONE integer floor division
    — no float anywhere. Shape: the same bounded
    (lang, source, bucket) combiner cell table as q_l_diversity; the
    per-class finish is |classes|×B driver work."""
    from pystreamfs_ray.util import ensure_cols

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["lang", "source", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(sb=(df["n_chars"].to_numpy(np.int64) // 256))
        out = (df.groupby(["lang", "source", "sb"], sort=False)
               .size().rename("n").reset_index())
        out["n"] = out["n"].astype(np.int64)
        return out

    cells = (combine_sum(docs, partial, ["lang", "source", "sb"], ["n"])
             .to_pandas())
    cells = ensure_cols(cells, {"lang": object, "source": object,
                                "sb": np.int64, "n": np.int64})
    buckets = np.sort(cells["sb"].unique())
    B = len(buckets)
    tot_b = (cells.groupby("sb")["n"].sum()
             .reindex(buckets, fill_value=0).to_numpy(np.int64))
    N = int(tot_b.sum())
    rows = []
    for (lang, source), g in cells.groupby(["lang", "source"], sort=True):
        n_cb = (g.set_index("sb")["n"]
                .reindex(buckets, fill_value=0).to_numpy(np.int64))
        n_c = int(n_cb.sum())
        # cum_i = Σ_{j≤i} (n_cj·N − N_j·n_c) — exact on denominator n_c·N
        cum = np.cumsum(n_cb * N - tot_b * n_c)
        emd_num = int(np.abs(cum).sum())
        emd_ppm = (0 if B <= 1 else
                   emd_num * 1_000_000 // (n_c * N * (B - 1)))
        rows.append({"lang": lang, "source": source,
                     "n_docs": np.int64(n_c),
                     "emd_ppm": np.int64(emd_ppm)})
    return pd.DataFrame(rows)


def q_xcorr_daily(sf_dir: str):
    """Lagged cross-correlation between the calendar-complete daily
    click series and the purchase series shifted k ∈ {0..3} days later
    — the lead/lag feature-screening statistic ('do clicks predict
    purchases days ahead?'). One bounded (day, x, y) combiner exchange
    (missing days zero-filled on both engines); the 4 Pearson
    coefficients are a driver finish over the days-long series.
    Oracle: generate_series calendar + DuckDB ``corr()``."""
    ev = read_parquet(_p(sf_dir, "events"), columns=["ts", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        day = df["ts"].to_numpy("datetime64[D]")
        et = df["event_type"].to_numpy()
        out = pd.DataFrame({"day": day,
                            "x": (et == "click").astype(np.int64),
                            "y": (et == "purchase").astype(np.int64)})
        return (out.groupby("day", sort=False, as_index=False)
                [["x", "y"]].sum())

    daily = combine_sum(ev, partial, "day", ["x", "y"]).to_pandas()
    daily["day"] = daily["day"].to_numpy("datetime64[D]")
    daily = daily.sort_values("day", ignore_index=True)
    d0, d1 = daily["day"].iloc[0], daily["day"].iloc[-1]
    cal = pd.DataFrame({"day": np.arange(d0, d1 + np.timedelta64(1, "D"),
                                         dtype="datetime64[D]")})
    s = cal.merge(daily, on="day", how="left").fillna(0)
    x = s["x"].to_numpy(np.float64)
    y = s["y"].to_numpy(np.float64)
    rows = []
    for k in (0, 1, 2, 3):
        a = x[:len(x) - k] if k else x
        b = y[k:]
        rows.append({
            "lag_days": np.int64(k),
            "n_days": np.int64(len(a)),
            # ROUND 6 on both sides: engine corrcoef vs DuckDB corr()
            # agree only to last-ulp (different op order / libm)
            "xcorr": round(float(np.corrcoef(a, b)[0, 1]), 6),
        })
    return pd.DataFrame(rows)


def q_gini(sf_dir: str):
    """Exact Gini coefficient of per-user total value — the inequality
    metric next to q_pareto_share's 80/20 cut, via the rank formula
    G = (2·Σ rank·c − (n+1)·Σc) / (n·Σc) on cent-exact integers. The
    global ascending rank comes from the two-phase distributed prefix
    sum COUNTING ones (rank = prefix_excl + 1), so no sorted ranking
    ever lands on the driver; the one float division runs on two exact
    int64 moments, identical to the oracle's. Bounds: Σ rank·cents
    needs n·max_cents < 2⁶³ — switch the moment to float128/HUGEINT
    partials beyond ~10⁹ users × $10⁷ cents."""
    from pystreamfs_ray.stages.packing import distributed_prefix_sum

    ev = read_parquet(_p(sf_dir, "events"), columns=["user_id", "value"])

    def cents(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "cents": np.floor(df["value"].to_numpy(np.float64)
                              * 100.0 + 0.5).astype(np.int64),
        })
        return out.groupby("user_id", sort=False, as_index=False).sum()

    per_user = combine_sum(ev, cents, "user_id", ["cents"])

    def ordkey(t: pa.Table) -> pa.Table:
        c = t["cents"].to_numpy(zero_copy_only=False).astype(np.int64)
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = c * (1 << 21) + u  # ascending cents, user_id tiebreak
        one = np.ones(len(t), dtype=np.int64)
        return (t.append_column("ordkey", pa.array(key))
                .append_column("one", pa.array(one)))

    keyed = per_user.map_batches(ordkey, batch_format="pyarrow")
    ranked = distributed_prefix_sum(keyed, order_col="ordkey",
                                    value_col="one")

    def moments(t: pa.Table) -> pa.Table:
        c = t["cents"].to_numpy(zero_copy_only=False).astype(np.int64)
        rk = t["prefix_excl"].to_numpy(
            zero_copy_only=False).astype(np.int64) + 1
        return pa.table({
            "s1": pa.array([np.int64(c.sum())]),
            "srk": pa.array([np.int64((rk * c).sum())]),
            "n": pa.array([np.int64(len(c))]),
        })

    agg = (ranked.map_batches(moments, batch_format="pyarrow")
           .aggregate(Sum("s1", alias_name="s1"),
                      Sum("srk", alias_name="srk"),
                      Sum("n", alias_name="n")))
    s1, srk, n = int(agg["s1"]), int(agg["srk"]), int(agg["n"])
    return pd.DataFrame([{
        "n_users": np.int64(n),
        "total_cents": np.int64(s1),
        "gini": round(float(np.float64(2 * srk - (n + 1) * s1)
                            / np.float64(n * s1)), 6),
    }])


def q_window_heavy(sf_dir: str):
    """Per-day top-3 users by event count (deterministic user_id
    tiebreak) — the windowed heavy-hitter dashboard. Exact (day, user)
    combiner counts → one mergeable Sum → per-day top-k inside day
    groups (each day's count table is user-bounded). 100-TB path: the
    capacity-bounded candidate pass of `sketch.heavy_hitters` slots in
    per window before the exact recount, same as the global query."""
    ev = read_parquet(_p(sf_dir, "events"), columns=["user_id", "ts"])

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        day = df["ts"].astype("int64").to_numpy() // 86_400_000_000
        out = (pd.DataFrame({"day": day,
                             "user_id": df["user_id"].to_numpy()})
               .groupby(["day", "user_id"], sort=False)
               .size().rename("n").reset_index())
        out["n"] = out["n"].astype(np.int64)
        return out

    per_day = combine_sum(ev, counts, ["day", "user_id"], ["n"])

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n", "user_id"], ascending=[False, True],
                          kind="mergesort", ignore_index=True).head(3)
        g["rk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        g["day"] = g["day"].astype(np.int64)
        g["user_id"] = g["user_id"].astype(np.int64)
        g["n"] = g["n"].astype(np.int64)
        return g[["day", "rk", "user_id", "n"]]

    return per_day.groupby("day").map_groups(topk, batch_format="pandas")


def q_asof_nearest(sf_dir: str):
    """NEAREST as-of join — the missing direction next to backward /
    forward / tolerance: each purchase matches its temporally CLOSEST
    non-purchase event of the same user, ties broken toward the past
    (pandas merge_asof semantics, mirrored by the oracle's
    ``(l.ts − b.ts) <= (f.ts − l.ts)`` chooser over two DuckDB ASOF
    joins). Same single bucketed shuffle as every as-of variant."""
    ev = read_parquet(
        _p(sf_dir, "events"),
        columns=["event_id", "user_id", "ts", "event_type", "value"])
    left = ev.filter(expr="event_type == 'purchase'").select_columns(
        ["event_id", "user_id", "ts", "value"])
    right = ev.filter(expr="event_type != 'purchase'").select_columns(
        ["user_id", "ts", "value"])
    out = asof_join(
        left, right, by="user_id", left_on="ts", right_on="ts",
        how="inner", direction="nearest", allow_exact_matches=True,
        num_buckets=_BUCKETS,
    )
    return out.select_columns(
        ["event_id", "user_id", "ts", "value", "ts_matched", "value_r"])


def q_tool_sequences(sf_dir: str):
    """Top-10 agent tool-sequence motifs: each conversation's ordered
    tool-call sequence rendered to one arrow-joined string (conv
    complete inside its entity bucket), counted across the corpus, top
    10 by count with a deterministic sequence tiebreak — the behavior
    motif table an agent-analytics pipeline reports. Shuffle: one
    entity exchange + one sequence-keyed Sum; the top-k finish runs on
    the bounded motif table."""
    ts_ds = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)

    def seq(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["tool"] != ""].sort_values(
            ["conv_id", "turn_idx"], kind="mergesort", ignore_index=True)
        if len(g) == 0:
            return pd.DataFrame({"seq": pd.Series([], dtype=str),
                                 "n": pd.Series([], dtype=np.int64)})
        s = (g.groupby("conv_id", sort=False)["tool"]
             .agg("->".join).rename("seq").reset_index())
        out = s.groupby("seq", sort=False).size().rename("n").reset_index()
        out["n"] = out["n"].astype(np.int64)
        return out

    motifs = (W.per_bucket(ts_ds, seq, entity_col="conv_id",
                           num_buckets=_BUCKETS)
              .groupby("seq")
              .aggregate(Sum("n", alias_name="n"))
              .to_pandas())
    motifs = motifs.sort_values(["n", "seq"], ascending=[False, True],
                                ignore_index=True).head(10)
    motifs["rk"] = np.arange(1, len(motifs) + 1, dtype=np.int64)
    motifs["n"] = motifs["n"].astype(np.int64)
    return motifs[["rk", "seq", "n"]]


def q_charset_profile(sf_dir: str):
    """Per-document script-mix profile: counts of ASCII letters,
    digits, whitespace, and CJK codepoints plus their parts-per-million
    fractions of the total character count — the charset sanity check
    that catches mojibake and wrong-script contamination before lang-ID
    trusts the text. Fractions ship as half-up-rounded integer ppm
    (FLOOR(x·10⁶+0.5)) because a ratio with a power-of-two denominator
    lands EXACTLY on the 6-digit rounding boundary, where numpy
    (half-even) and SQL ROUND (half-away) disagree — the one rounding
    mode both engines compute identically is floor of the same double.
    Doc-local vectorized regex counts; zero shuffles."""
    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "text"])

    def prof(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].astype(str)
        n = s.str.len().to_numpy(np.int64)
        alpha = s.str.count(r"[A-Za-z]").to_numpy(np.int64)
        digit = s.str.count(r"[0-9]").to_numpy(np.int64)
        space = s.str.count(r"\s").to_numpy(np.int64)
        cjk = s.str.count(r"[一-鿿]").to_numpy(np.int64)
        nz = np.maximum(n, 1).astype(np.float64)
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(np.int64),
            "n_chars": n,
            "n_alpha": alpha,
            "n_digit": digit,
            "n_space": space,
            "n_cjk": cjk,
            "alpha_ppm": np.floor(alpha.astype(np.float64) / nz
                                  * 1e6 + 0.5).astype(np.int64),
            "cjk_ppm": np.floor(cjk.astype(np.float64) / nz
                                * 1e6 + 0.5).astype(np.int64),
        })

    return docs.map_batches(prof, batch_format="pandas")


def q_dedup_savings(sf_dir: str):
    """Dedup impact in TOKEN mass, per source: if exact dedup kept one
    copy per distinct text, how many whitespace tokens disappear — the
    metric that decides whether a feed's duplication is worth a dedup
    pass at all (doc counts under-weight long duplicated documents).
    One (source, md5) content-hash shuffle carrying (copies, tokens)
    pairs — text itself never moves; per-source rollup computes
    saved = Σ (copies−1)·tok and the exact savings fraction."""
    from pystreamfs_ray.stages.dedup import _md5_hex
    from pystreamfs_ray.util import arrow_combiner

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["source", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        tok = df["text"].str.count(r"\S+").to_numpy(np.int64)
        out = pd.DataFrame({
            "source": df["source"].to_numpy(),
            "fp": _md5_hex(df["text"].to_numpy()),
            "n": np.ones(len(df), dtype=np.int64),
            "tok": tok,
        })
        return (out.groupby(["source", "fp"], sort=False, as_index=False)
                .agg(n=("n", "sum"), tok=("tok", "max")))

    per_fp = (docs.map_batches(arrow_combiner(partial),
                               batch_format="pyarrow")
              .groupby(["source", "fp"])
              .aggregate(Sum("n", alias_name="n"),
                         Max("tok", alias_name="tok")))

    def rollup(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy(np.int64)
        tok = df["tok"].to_numpy(np.int64)
        out = pd.DataFrame({
            "source": df["source"].to_numpy(),
            "total_tokens": n * tok,
            "saved_tokens": (n - 1) * tok,
        })
        return out.groupby("source", sort=False, as_index=False).sum()

    agg = (combine_sum(per_fp, rollup, "source",
                       ["total_tokens", "saved_tokens"])
           .to_pandas())
    agg["total_tokens"] = agg["total_tokens"].astype(np.int64)
    agg["saved_tokens"] = agg["saved_tokens"].astype(np.int64)
    agg["saved_frac"] = np.round(
        agg["saved_tokens"].to_numpy(np.float64)
        / np.maximum(agg["total_tokens"].to_numpy(np.int64), 1)
        .astype(np.float64), 6)
    return agg


def q_value_autocorr(sf_dir: str):
    """Lag-1 autocorrelation of the (cent-quantized) value per user —
    the temporal-persistence feature separating habitual spend patterns
    from noise. Consecutive-event pairs form inside the user bucket
    (vectorized shift); all five Pearson moments are exact int64 sums
    over cents, and the one float expression (numerator over the
    product of the two sqrt'd variance terms) is written in the same
    operation order as the oracle. Users with <3 events or zero
    variance on either side are excluded (undefined). Shuffle: one
    user-bucket exchange. Moment bound: n·Σxy < 2⁶³ holds to ~10⁸
    pairs × $10⁴ events."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "user_id", "ts", "value"])

    def part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort", ignore_index=True)
        u = g["user_id"].to_numpy(np.int64)
        c = np.floor(g["value"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.int64)
        same = u[1:] == u[:-1]
        x, y, uu = c[:-1][same], c[1:][same], u[1:][same]
        d = pd.DataFrame({
            "user_id": uu, "one": np.ones(len(uu), dtype=np.int64),
            "sx": x, "sy": y, "sxy": x * y, "sxx": x * x, "syy": y * y,
        })
        s = d.groupby("user_id", sort=False, as_index=False).sum()
        n = s["one"].to_numpy(np.int64)
        sx, sy = s["sx"].to_numpy(np.int64), s["sy"].to_numpy(np.int64)
        sxy = s["sxy"].to_numpy(np.int64)
        sxx, syy = s["sxx"].to_numpy(np.int64), s["syy"].to_numpy(np.int64)
        num = (n * sxy - sx * sy).astype(np.float64)
        vx = (n * sxx - sx * sx).astype(np.float64)
        vy = (n * syy - sy * sy).astype(np.float64)
        keep = (n >= 2) & (vx > 0) & (vy > 0)
        return pd.DataFrame({
            "user_id": s["user_id"].to_numpy(np.int64)[keep],
            "n_pairs": n[keep],
            "autocorr": np.round(num[keep]
                                 / (np.sqrt(vx[keep])
                                    * np.sqrt(vy[keep])), 6),
        })

    return W.per_bucket(ev, part, entity_col="user_id",
                        num_buckets=_BUCKETS)


def q_churn_dataset(sf_dir: str):
    """Leakage-safe churn training set: features from events STRICTLY
    BEFORE the cutoff (corpus max ts − 7 days), the label (churned = no
    activity at-or-after cutoff) from the other side — the point-in-
    time dataset-assembly discipline of the north-star pipeline applied
    to a supervised table. One metadata-sized Max aggregate fixes the
    integer-µs cutoff; one user-bucket pass computes pre-cutoff
    features (count, cent total, active days, recency at cutoff) AND
    the post-cutoff presence bit together, so no row is read twice and
    nothing can leak: the feature arrays are masked to ts < cutoff by
    construction. Cold-start users (no pre-cutoff events) are excluded."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["user_id", "ts", "value"])
    max_us = int(pd.Timestamp(
        ev.aggregate(Max("ts", alias_name="m"))["m"]).value // 1000)
    cutoff_us = max_us - 7 * 86_400_000_000

    def part(g: pd.DataFrame) -> pd.DataFrame:
        t = g["ts"].astype("int64").to_numpy()
        u = g["user_id"].to_numpy(np.int64)
        cents = np.floor(g["value"].to_numpy(np.float64)
                         * 100.0 + 0.5).astype(np.int64)
        pre = t < cutoff_us
        d = pd.DataFrame({
            "user_id": u,
            "pre": pre.astype(np.int64),
            "post": (~pre).astype(np.int64),
            "cents": np.where(pre, cents, 0),
            "pre_ts": np.where(pre, t, np.int64(-1)),
            "day": np.where(pre, t // 86_400_000_000, np.int64(-1)),
        })
        days = (d[d["pre"] == 1][["user_id", "day"]]
                .drop_duplicates()
                .groupby("user_id", sort=False).size()
                .rename("n_active_days"))
        agg = (d.groupby("user_id", sort=False)
               .agg(n_events=("pre", "sum"),
                    n_post=("post", "sum"),
                    total_cents=("cents", "sum"),
                    last_ts=("pre_ts", "max")))
        agg = agg.join(days)
        agg = agg[agg["n_events"] > 0].reset_index()
        rec = (cutoff_us - agg["last_ts"].to_numpy(np.int64)) \
            // 86_400_000_000
        return pd.DataFrame({
            "user_id": agg["user_id"].astype(np.int64),
            "n_events": agg["n_events"].astype(np.int64),
            "total_cents": agg["total_cents"].astype(np.int64),
            "n_active_days": agg["n_active_days"].astype(np.int64),
            "recency_days": rec.astype(np.int64),
            "churned": (agg["n_post"].to_numpy(np.int64) == 0)
            .astype(np.int64),
        })

    return W.per_bucket(ev, part, entity_col="user_id",
                        num_buckets=_BUCKETS)


def q_scd2(sf_dir: str):
    """SCD2 validity intervals from the event stream: each user's
    time-ordered event_type sequence compressed into [valid_from_us,
    valid_to_us) runs with run lengths — the warehouse history-table
    build. One entity shuffle, vectorized change-point scan; the open
    interval carries the conventional 9999-12-31 high date so the
    column stays plain int64 (no nullable ints in the hash compare)."""
    from pystreamfs_ray.stages.temporal import scd2_intervals

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["user_id", "event_type", "ts", "event_id"])
    return scd2_intervals(ev, entity_col="user_id",
                          state_col="event_type", ts_col="ts",
                          tiebreak_col="event_id", num_buckets=_BUCKETS)


def q_resample_daily(sf_dir: str):
    """Daily feature-snapshot grid: per user one row per calendar day
    from first to last activity, forward-filling the last observed
    value — the fixed-cadence materialization a feature store serves
    from. Values pass through untouched (bit-exact vs the oracle's
    LAST_VALUE IGNORE NULLS); day is the µs-epoch floor-div day
    index."""
    from pystreamfs_ray.stages.temporal import resample_ffill

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["user_id", "ts", "value", "event_id"])
    return resample_ffill(ev, entity_col="user_id", ts_col="ts",
                          value_col="value", tiebreak_col="event_id",
                          num_buckets=_BUCKETS)


def q_multi_horizon(sf_dir: str):
    """Multi-horizon trailing-window features at a fixed cutoff (the
    corpus max ts): per user, event counts in the trailing 1/7/30-day
    windows ending at the cutoff (inclusive), distinct event types and
    integer-cent spend in the 7/30-day windows, and the 1d:7d velocity
    ratio — the classic point-in-time lookback feature vector. One
    metadata-sized Max fixes the cutoff; one entity-bucket pass
    computes every horizon from the same masked arrays (no row is read
    twice, no window leaks past the cutoff by construction). Users with
    no event in the 30-day window are dropped."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["user_id", "ts", "event_type", "value"])
    cutoff_us = int(pd.Timestamp(
        ev.aggregate(Max("ts", alias_name="m"))["m"]).value // 1000)
    day_us = 86_400_000_000

    def part(g: pd.DataFrame) -> pd.DataFrame:
        t = g["ts"].astype("int64").to_numpy()
        u = g["user_id"].to_numpy(np.int64)
        cents = np.floor(g["value"].to_numpy(np.float64)
                         * 100.0 + 0.5).astype(np.int64)
        in30 = (t > cutoff_us - 30 * day_us) & (t <= cutoff_us)
        in7 = in30 & (t > cutoff_us - 7 * day_us)
        in1 = in7 & (t > cutoff_us - day_us)
        d = pd.DataFrame({
            "user_id": u,
            "n_1d": in1.astype(np.int64),
            "n_7d": in7.astype(np.int64),
            "n_30d": in30.astype(np.int64),
            "cents_30d": np.where(in30, cents, 0),
            "t7": np.where(in7, g["event_type"].to_numpy(object), None),
        })
        types7 = (d[d["n_7d"] == 1][["user_id", "t7"]]
                  .drop_duplicates()
                  .groupby("user_id", sort=False).size()
                  .rename("d_types_7d"))
        agg = (d.groupby("user_id", sort=False)
               .agg(n_1d=("n_1d", "sum"), n_7d=("n_7d", "sum"),
                    n_30d=("n_30d", "sum"), cents_30d=("cents_30d", "sum")))
        agg = agg.join(types7)
        agg = agg[agg["n_30d"] > 0].reset_index()
        n7 = agg["n_7d"].to_numpy(np.int64)
        n1 = agg["n_1d"].to_numpy(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            vel = np.where(n7 == 0, 0.0,
                           np.round(n1 / np.maximum(n7, 1), 6))
        return pd.DataFrame({
            "user_id": agg["user_id"].astype(np.int64),
            "n_1d": agg["n_1d"].astype(np.int64),
            "n_7d": agg["n_7d"].astype(np.int64),
            "n_30d": agg["n_30d"].astype(np.int64),
            "d_types_7d": agg["d_types_7d"].fillna(0).astype(np.int64),
            "cents_30d": agg["cents_30d"].astype(np.int64),
            "velocity_ratio": vel,
        })

    return W.per_bucket(ev, part, entity_col="user_id",
                        num_buckets=_BUCKETS)


def q_event_transitions(sf_dir: str):
    """First-order Markov transition table over per-user event-type
    sequences — the behavioral-grammar feature (what follows what)
    used for next-action models and anomaly scoring. Consecutive
    pairs form inside the user bucket (vectorized shift under the
    (ts, event_id) total order); each bucket pre-aggregates to local
    (prev, cur) counts so the global reduce is |types|²-bounded; the
    row-conditional probability is one mirrored float division over
    exact int64 counts. Shuffle: one user-bucket exchange + one
    bounded pair reduce."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "user_id", "ts", "event_type"])

    def part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort",
                          ignore_index=True)
        u = g["user_id"].to_numpy(np.int64)
        t = g["event_type"].to_numpy(object)
        same = u[1:] == u[:-1]
        d = pd.DataFrame({"prev_type": t[:-1][same],
                          "event_type": t[1:][same]})
        out = (d.groupby(["prev_type", "event_type"], sort=False)
               .size().reset_index(name="n_trans"))
        out["n_trans"] = out["n_trans"].astype(np.int64)
        return out

    agg = (W.per_bucket(ev, part, entity_col="user_id",
                        num_buckets=_BUCKETS)
           .groupby(["prev_type", "event_type"])
           .aggregate(Sum("n_trans", alias_name="n_trans"))
           .to_pandas())  # |types|²-bounded
    n = agg["n_trans"].to_numpy(np.int64)
    tot = (agg.groupby("prev_type")["n_trans"].transform("sum")
           .to_numpy(np.int64))
    agg["prob"] = np.round(n.astype(np.float64) / tot.astype(np.float64), 6)
    return agg.sort_values(["prev_type", "event_type"], ignore_index=True)


def q_target_encode_m(sf_dir: str):
    """m-estimate target encoding of event_type by mean event value —
    the smoothed categorical encoder (enc = (Σy + m·prior)/(n + m),
    m=20) that backs high-cardinality features without per-row
    leakage of rare-category noise. Per-type (count, cent-sum)
    partials combine per batch, so the exchange is |types|-bounded;
    the prior and the encoding are each ONE float expression written
    in the oracle's operation order over exact int64 moments."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame({
            "event_type": df["event_type"].to_numpy(object),
            "sc": np.floor(df["value"].to_numpy(np.float64)
                           * 100.0 + 0.5).astype(np.int64),
            "n_events": np.ones(len(df), dtype=np.int64),
        })
        return d.groupby("event_type", sort=False, as_index=False).sum()

    agg = (combine_sum(ev, partial, "event_type", ["sc", "n_events"])
           .to_pandas())  # |types|-bounded
    gs = int(agg["sc"].sum())
    gn = int(agg["n_events"].sum())
    prior = float(gs) / float(gn)
    sc = agg["sc"].to_numpy(np.int64).astype(np.float64)
    n = agg["n_events"].to_numpy(np.int64).astype(np.float64)
    return pd.DataFrame({
        "event_type": agg["event_type"].to_numpy(object),
        "n_events": agg["n_events"].to_numpy(np.int64),
        "target_enc": np.round((sc + 20.0 * prior) / (n + 20.0) / 100.0, 6),
    }).sort_values("event_type", ignore_index=True)


def q_ab_lift(sf_dir: str):
    """One-vs-rest A/B lift per event type: success := event value
    above 50.00 (an exact integer compare on cents), each arm compared
    against the pooled rest with the two-proportion z statistic — the
    experiment-readout primitive. Per-type (n, n_success) int64
    partials combine per batch so the exchange is |types|-bounded;
    rate/lift/z are float expressions written in the oracle's
    operation order over exact counts."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(df["value"].to_numpy(np.float64)
                         * 100.0 + 0.5).astype(np.int64)
        d = pd.DataFrame({
            "event_type": df["event_type"].to_numpy(object),
            "n": np.ones(len(df), dtype=np.int64),
            "n_succ": (cents > 5000).astype(np.int64),
        })
        return d.groupby("event_type", sort=False, as_index=False).sum()

    agg = (combine_sum(ev, partial, "event_type", ["n", "n_succ"])
           .to_pandas())  # |types|-bounded
    n = agg["n"].to_numpy(np.int64).astype(np.float64)
    s = agg["n_succ"].to_numpy(np.int64).astype(np.float64)
    tn = float(int(agg["n"].sum()))
    ts = float(int(agg["n_succ"].sum()))
    rate = s / n
    rest = (ts - s) / (tn - n)
    p = ts / tn
    z = (rate - rest) / np.sqrt(p * (1.0 - p) * (1.0 / n + 1.0 / (tn - n)))
    return pd.DataFrame({
        "event_type": agg["event_type"].to_numpy(object),
        "n": agg["n"].to_numpy(np.int64),
        "n_succ": agg["n_succ"].to_numpy(np.int64),
        "rate": np.round(rate, 6),
        "lift": np.round(rate - rest, 6),
        "z": np.round(z, 6),
    }).sort_values("event_type", ignore_index=True)


def q_survival(sf_dir: str):
    """Kaplan-Meier risk table over user lifetimes: duration = whole
    days between a user's first and last event; churned if the last
    event precedes corpus max ts by >30 days, else right-censored.
    Emits per distinct duration the at-risk count (reverse cumulative
    of exact int64 tallies), churn/censor counts, and the KM hazard
    d/n_risk as ONE float division — the survival building block
    without the cumulative-product float hazard. One metadata-sized
    Max fixes the censoring horizon; one user-bucket pass co-locates
    each user's history so the bucket emits day-level tallies and the
    global exchange is day-bounded."""
    ev = read_parquet(_p(sf_dir, "events"), columns=["user_id", "ts"])
    max_us = int(pd.Timestamp(
        ev.aggregate(Max("ts", alias_name="m"))["m"]).value // 1000)
    horizon_us = max_us - 30 * 86_400_000_000

    def part(g: pd.DataFrame) -> pd.DataFrame:
        t = g["ts"].astype("int64").to_numpy()
        u = g["user_id"].to_numpy(np.int64)
        d = pd.DataFrame({"u": u, "t": t})
        mm = d.groupby("u", sort=False).agg(f=("t", "min"), l=("t", "max"))
        dur = (mm["l"].to_numpy(np.int64)
               - mm["f"].to_numpy(np.int64)) // 86_400_000_000
        ch = (mm["l"].to_numpy(np.int64) <= horizon_us).astype(np.int64)
        out = pd.DataFrame({"dur_days": dur, "n_churned": ch,
                            "n_censored": 1 - ch})
        return (out.groupby("dur_days", sort=False, as_index=False).sum())

    tbl = (W.per_bucket(ev, part, entity_col="user_id",
                        num_buckets=_BUCKETS)
           .groupby("dur_days")
           .aggregate(Sum("n_churned", alias_name="n_churned"),
                      Sum("n_censored", alias_name="n_censored"))
           .to_pandas()
           .sort_values("dur_days", ignore_index=True))  # day-bounded
    dd = tbl["n_churned"].to_numpy(np.int64) + tbl["n_censored"].to_numpy(np.int64)
    total = int(dd.sum())
    n_risk = total - (np.cumsum(dd) - dd)  # exact ints
    tbl["dur_days"] = tbl["dur_days"].astype(np.int64)
    tbl["n_risk"] = n_risk.astype(np.int64)
    tbl["hazard"] = np.round(
        tbl["n_churned"].to_numpy(np.int64).astype(np.float64)
        / n_risk.astype(np.float64), 6)
    return tbl[["dur_days", "n_risk", "n_churned", "n_censored", "hazard"]]


def q_rfm(sf_dir: str):
    """RFM segmentation: per-user recency (whole days since last
    event at corpus max ts), frequency (event count) and monetary
    (exact cent total) each bucketed into quintiles with exact SQL
    NTILE(5) semantics under the (metric, user_id) total order — the
    classic customer-value grid (score 1 = most recent / least
    frequent / lowest spend). One user-bucket pass builds the feature
    table (materialized once, |users| rows); three two-phase
    range-partition NTILEs rank it without a global sort; two keyed
    hash joins assemble the final grid."""
    from pystreamfs_ray.stages.rank import global_ntile
    from pystreamfs_ray.util import drop_empty_blocks

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["user_id", "ts", "value"])
    max_us = int(pd.Timestamp(
        ev.aggregate(Max("ts", alias_name="m"))["m"]).value // 1000)

    def part(g: pd.DataFrame) -> pd.DataFrame:
        t = g["ts"].astype("int64").to_numpy()
        d = pd.DataFrame({
            "user_id": g["user_id"].to_numpy(np.int64),
            "t": t,
            "cents": np.floor(g["value"].to_numpy(np.float64)
                              * 100.0 + 0.5).astype(np.int64),
        })
        agg = (d.groupby("user_id", sort=False)
               .agg(freq=("t", "size"), l=("t", "max"),
                    m_cents=("cents", "sum")).reset_index())
        agg["r_days"] = (max_us - agg["l"].to_numpy(np.int64)) \
            // 86_400_000_000
        agg["freq"] = agg["freq"].astype(np.int64)
        return agg[["user_id", "r_days", "freq", "m_cents"]]

    feats = W.per_bucket(ev, part, entity_col="user_id",
                         num_buckets=_BUCKETS).materialize()
    # size BOTH the ntile range partitions and the join pools to the
    # DATA (feats is materialized so size_bytes is exact), never the
    # CPU count: 64 range partitions × 3 ntiles over a thousand-row
    # feature table is pure task overhead, and chained hash joins
    # over-provision small clusters
    np_join = _join_partitions(feats)
    r = global_ntile(feats, 5, value_col="r_days", id_col="user_id",
                     out_col="r_score", num_partitions=np_join * 2)
    f = global_ntile(feats, 5, value_col="freq", id_col="user_id",
                     out_col="f_score", num_partitions=np_join * 2)
    m = global_ntile(feats, 5, value_col="m_cents", id_col="user_id",
                     out_col="m_score", num_partitions=np_join * 2)
    # map_groups outputs can hold schema-less empty blocks → guard joins
    out = drop_empty_blocks(r, np_join).join(
        drop_empty_blocks(f, np_join), join_type="inner",
        num_partitions=np_join, on=("user_id",))
    out = drop_empty_blocks(out, np_join).join(
        drop_empty_blocks(m, np_join), join_type="inner",
        num_partitions=np_join, on=("user_id",))
    return out


def q_benford(sf_dir: str):
    """Benford's-law first-digit audit of event values (the classic
    fabricated-data / instrumentation-bug detector): leading digit of
    the exact cent amount tallied per batch (9-row partials), share
    and deviation from log10(1+1/d) as float expressions in the
    oracle's operation order. The digit is extracted via the decimal
    string on BOTH engines so there is no float-log edge case."""
    ev = read_parquet(_p(sf_dir, "events"), columns=["value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(df["value"].to_numpy(np.float64)
                         * 100.0 + 0.5).astype(np.int64)
        cents = cents[cents > 0]
        first = pd.Series(cents).astype(str).str[0].astype(np.int64)
        d = pd.DataFrame({"digit": first,
                          "n": np.ones(len(first), dtype=np.int64)})
        return d.groupby("digit", sort=False, as_index=False).sum()

    agg = combine_sum(ev, partial, "digit", ["n"]).to_pandas()  # ≤9 rows
    total = float(int(agg["n"].sum()))
    n = agg["n"].to_numpy(np.int64).astype(np.float64)
    d = agg["digit"].to_numpy(np.int64).astype(np.float64)
    share = n / total
    expected = np.log10(1.0 + 1.0 / d)
    return pd.DataFrame({
        "digit": agg["digit"].to_numpy(np.int64),
        "n": agg["n"].to_numpy(np.int64),
        "share": np.round(share, 6),
        "expected": np.round(expected, 6),
        "dev": np.round(share - expected, 6),
    }).sort_values("digit", ignore_index=True)


def q_dow_profile(sf_dir: str):
    """Day-of-week seasonality profile per event type (the weekly
    traffic shape features a scheduler or forecaster consumes):
    (type, dow) int64 tallies combine per batch so the exchange is
    |types|×7-bounded; the within-type share is one mirrored float
    division. dow is 0=Sunday, computed from epoch days on the
    engine and dayofweek(ts) in the oracle."""
    ev = read_parquet(_p(sf_dir, "events"), columns=["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        days = df["ts"].astype("int64").to_numpy() // 86_400_000_000
        d = pd.DataFrame({
            "event_type": df["event_type"].to_numpy(object),
            "dow": (days + 4) % 7,  # 1970-01-01 is a Thursday
            "n": np.ones(len(df), dtype=np.int64),
        })
        return d.groupby(["event_type", "dow"], sort=False,
                         as_index=False).sum()

    agg = (combine_sum(ev, partial, ["event_type", "dow"], ["n"])
           .to_pandas())  # |types|×7-bounded
    tot = (agg.groupby("event_type")["n"].transform("sum")
           .to_numpy(np.int64))
    agg["dow"] = agg["dow"].astype(np.int64)
    agg["n"] = agg["n"].astype(np.int64)
    agg["share"] = np.round(
        agg["n"].to_numpy(np.int64).astype(np.float64)
        / tot.astype(np.float64), 6)
    return agg.sort_values(["event_type", "dow"], ignore_index=True)


def q_prefix_cache(sf_dir: str):
    """Prompt-prefix sharing analysis over conversation openers (the
    serving-side prefix-cache / template-reuse signal): the first 8
    whitespace tokens of each conversation's turn 0, counted, keeping
    prefixes shared by ≥2 conversations. Only turn-0 rows leave the
    transcript pass; the prefix tally combines per batch so the final
    exchange is |distinct shared prefixes|-bounded. Tokenization
    mirrors regexp_split_to_array(text, '\\s+') exactly (a leading
    empty token survives) so the oracle splits identically."""
    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["turn_idx"] == 0]
        toks = df["text"].astype(str).str.split(r"\s+", regex=True)
        prefix = toks.map(lambda ws: " ".join(ws[:8]))
        d = pd.DataFrame({"prefix": prefix.to_numpy(object),
                          "n_convs": np.ones(len(df), dtype=np.int64)})
        return d.groupby("prefix", sort=False, as_index=False).sum()

    agg = combine_sum(t, partial, "prefix", ["n_convs"])
    return agg.filter(expr="n_convs >= 2")


def q_containment(sf_dir: str):
    """Asymmetric char-trigram containment over the deterministic
    consecutive-id candidate pairs — the quote/subset near-dup metric
    Jaccard misses (a contained short doc union-normalizes to a low
    Jaccard but containment_a ≈ 1). Candidate-only verification; both
    directions as single divisions over exact gram counts."""
    from pystreamfs_ray.stages.dedup import ngram_containment_pairs

    import pyarrow.dataset as pds

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"],
                        filter=(pds.field("doc_id") < 100))

    def mk_pairs(t: pa.Table) -> pa.Table:
        ids = t.filter(
            pc.equal(pc.bit_wise_and(t["doc_id"], 1), 0)
        )["doc_id"]
        return pa.table({"id_a": ids, "id_b": pc.add(ids, 1)})

    pairs = docs.map_batches(mk_pairs, batch_format="pyarrow")
    return ngram_containment_pairs(pairs, docs, k=3, num_partitions=4)


def q_sorted_neighborhood(sf_dir: str):
    """Sorted-neighborhood (merge/purge) near-dup blocking: global
    (normalized-key-prefix, id) order, an 8-row sliding neighborhood,
    and Levenshtein ≤ 2 verification of the 12-char blocking keys —
    the classic entity-resolution blocking family, complementary to
    MinHash/SimHash (catches short typo'd/truncated keys; candidate
    volume hard-bounded at n×(window−1) regardless of key skew). One
    (key, id) range exchange, exact O(P×window) boundary carry; text
    never shuffles. Oracle: ROW_NUMBER self-join + ``levenshtein()``."""
    from pystreamfs_ray.stages.dedup import sorted_neighborhood_pairs

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    # data-sized range partitions: only (key, id) shuffles, so target
    # finer partitions than a payload join would
    return sorted_neighborhood_pairs(
        docs, window=8, key_len=12, max_edit=2,
        num_partitions=_join_partitions(docs, target_bytes=32 << 20))


def q_group_kfold(sf_dir: str):
    """GROUP-aware 5-fold CV assignment: the fold is a function of
    user_id (md5-of-key), so ALL of a user's events land in one fold
    by construction — the split that prevents same-user leakage
    across CV folds (a random row split puts one user's history on
    both sides). Per-user partial counts collapse per batch, one user
    exchange, then a 5-row fold report with the event share as one
    mirrored division."""
    from pystreamfs_ray.stages.dedup import _md5_lower64

    ev = read_parquet(_p(sf_dir, "events"), columns=["user_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame({"user_id": df["user_id"].to_numpy(np.int64),
                          "n": np.ones(len(df), dtype=np.int64)})
        return d.groupby("user_id", sort=False, as_index=False).sum()

    per_user = combine_sum(ev, partial, "user_id", ["n"])

    def to_fold(df: pd.DataFrame) -> pd.DataFrame:
        fold = (_md5_lower64([str(v) for v in df["user_id"]])
                % np.uint64(5)).astype(np.int64)
        d = pd.DataFrame({"fold": fold,
                          "n_users": np.ones(len(df), dtype=np.int64),
                          "n_events": df["n"].to_numpy(np.int64)})
        return d.groupby("fold", sort=False, as_index=False).sum()

    agg = (combine_sum(per_user, to_fold, "fold", ["n_users", "n_events"])
           .to_pandas())  # 5 rows
    tot = float(int(agg["n_events"].sum()))
    agg["fold"] = agg["fold"].astype(np.int64)
    agg["n_users"] = agg["n_users"].astype(np.int64)
    agg["n_events"] = agg["n_events"].astype(np.int64)
    agg["pct_events"] = np.round(
        agg["n_events"].to_numpy(np.int64).astype(np.float64) / tot, 6)
    return agg.sort_values("fold", ignore_index=True)


def q_time_split(sf_dir: str):
    """Temporal 80/20 train/val split at the first day whose cumulative
    event count reaches 80% (exact integer test 5·cum ≥ 4·total — no
    float quantile) — the leakage-safe alternative to hash/random
    splits when the model predicts the future. Day-level tallies
    combine per batch so the exchange is day-bounded; the cutoff and
    the per-split report are exact-integer driver math on that
    bounded table."""
    ev = read_parquet(_p(sf_dir, "events"), columns=["ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        days = df["ts"].astype("int64").to_numpy() // 86_400_000_000
        d = pd.DataFrame({"day": days,
                          "n": np.ones(len(df), dtype=np.int64)})
        return d.groupby("day", sort=False, as_index=False).sum()

    tbl = (combine_sum(ev, partial, "day", ["n"])
           .to_pandas()
           .sort_values("day", ignore_index=True))  # day-bounded
    n = tbl["n"].to_numpy(np.int64)
    cum = np.cumsum(n)
    tot = int(cum[-1])
    cutoff = int(tbl["day"][5 * cum >= 4 * tot].iloc[0])
    day = tbl["day"].to_numpy(np.int64)
    out = []
    for split, mask in (("train", day <= cutoff), ("val", day > cutoff)):
        if mask.any():
            out.append({"split": split,
                        "n_events": int(n[mask].sum()),
                        "min_day": int(day[mask].min()),
                        "max_day": int(day[mask].max())})
    res = pd.DataFrame(out)
    res["n_events"] = res["n_events"].astype(np.int64)
    res["min_day"] = res["min_day"].astype(np.int64)
    res["max_day"] = res["max_day"].astype(np.int64)
    return res.sort_values("split", ignore_index=True)


def q_dup_cluster_hist(sf_dir: str):
    """Duplicate-cluster size histogram (how big are the exact-dup
    groups — the observability readout that tunes dedup keep rules):
    per-batch content-md5 partial counts → one hash-keyed reduce
    (text never shuffles) → bounded (size, n_groups) finish. Groups
    of size 1 (unique docs) are excluded. The sf* corpus has no raw
    exact dups, so probes plant them: docs 0-9 gain one extra copy
    (even ids) or two (odd ids) → sizes 2 and 3 by construction."""
    from pystreamfs_ray.stages.dedup import _md5_lower64

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "text"])
    base10 = read_parquet(_p(sf_dir, "documents"),
                          columns=["doc_id", "text"],
                          filter=(_pds.field("doc_id") < 10))

    def replicate(t: pa.Table) -> pa.Table:
        odd = t.filter(pc.equal(pc.bit_wise_and(t["doc_id"], 1), 1))
        return pa.concat_tables([t, odd])

    docs = docs.union(base10.map_batches(replicate, batch_format="pyarrow"))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # reinterpret the unsigned hash as int64: arrow-safe key, same
        # injectivity (pure bit pattern, wraparound irrelevant)
        h = _md5_lower64([str(t) for t in df["text"]]).view(np.int64)
        d = pd.DataFrame({"h": h, "n": np.ones(len(df), dtype=np.int64)})
        return d.groupby("h", sort=False, as_index=False).sum()

    sizes = combine_sum(docs, partial, "h", ["n"])

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["n"] >= 2]
        out = (pd.DataFrame({"group_size": d["n"].to_numpy(np.int64),
                             "n_groups": np.ones(len(d), dtype=np.int64)})
               .groupby("group_size", sort=False, as_index=False).sum())
        return out

    agg = (combine_sum(sizes, hist, "group_size", ["n_groups"])
           .to_pandas())  # |distinct sizes|-bounded
    agg["group_size"] = agg["group_size"].astype(np.int64)
    agg["n_groups"] = agg["n_groups"].astype(np.int64)
    return agg.sort_values("group_size", ignore_index=True)


def q_pack_efficiency(sf_dir: str):
    """Packing-efficiency report over the concat-and-chunk layout:
    total docs/tokens, the exact pack count ceil(total/512), how many
    docs straddle a pack boundary (each costs an attention-mask reset
    or a truncation), and mean docs per pack — the readout that tunes
    seq_len against the document length distribution. One combiner
    pass over the pack layout; every stat is exact-integer except the
    one mirrored division."""
    from pystreamfs_ray.stages.packing import pack_sequences
    from pystreamfs_ray.util import arrow_combiner

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    packed = pack_sequences(docs, seq_len=512)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "n_docs": [np.int64(len(df))],
            "n_tokens": [np.int64(df["n_tokens"].sum())],
            "n_boundary_docs": [np.int64((df["n_packs"] > 1).sum())],
        })

    agg = (packed.map_batches(arrow_combiner(partial),
                              batch_format="pyarrow")
           .sum(["n_docs", "n_tokens", "n_boundary_docs"]))
    n_docs = int(agg["sum(n_docs)"])
    n_tokens = int(agg["sum(n_tokens)"])
    n_boundary = int(agg["sum(n_boundary_docs)"])
    n_packs = (n_tokens + 511) // 512
    return pd.DataFrame({
        "n_docs": np.array([n_docs], dtype=np.int64),
        "n_tokens": np.array([n_tokens], dtype=np.int64),
        "n_packs": np.array([n_packs], dtype=np.int64),
        "n_boundary_docs": np.array([n_boundary], dtype=np.int64),
        "docs_per_pack": np.round(
            np.array([float(n_docs) / float(n_packs)]), 6),
    })


def q_role_transitions(sf_dir: str):
    """Dialog-grammar Markov table: (previous role → role) counts over
    consecutive turns within each conversation, with the
    row-conditional probability — the structural readout that catches
    malformed transcripts (assistant→assistant runs, orphan tool
    turns) before they reach SFT. Pairs form in the conv bucket via
    the vectorized shift; per-bucket partials bound the exchange at
    |roles|² rows."""
    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)

    def part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort",
                          ignore_index=True)
        conv = g["conv_id"].to_numpy()
        role = g["role"].to_numpy(object)
        same = conv[1:] == conv[:-1]
        d = pd.DataFrame({"prev_role": role[:-1][same],
                          "role": role[1:][same]})
        out = (d.groupby(["prev_role", "role"], sort=False)
               .size().reset_index(name="n_trans"))
        out["n_trans"] = out["n_trans"].astype(np.int64)
        return out

    agg = (W.per_bucket(t, part, entity_col="conv_id",
                        num_buckets=_BUCKETS)
           .groupby(["prev_role", "role"])
           .aggregate(Sum("n_trans", alias_name="n_trans"))
           .to_pandas())  # |roles|²-bounded
    n = agg["n_trans"].to_numpy(np.int64)
    tot = (agg.groupby("prev_role")["n_trans"].transform("sum")
           .to_numpy(np.int64))
    agg["prob"] = np.round(n.astype(np.float64) / tot.astype(np.float64), 6)
    return agg.sort_values(["prev_role", "role"], ignore_index=True)


def q_tool_latency(sf_dir: str):
    """Per-tool latency order statistics: for every tool turn with a
    successor in the same conversation, gap = next turn ts − tool ts
    in EXACT integer µs; per tool the call count, 2×median (sum of the
    two central order stats — no float interpolation) and the max —
    the ops readout that names the slow tool. One conv bucket shuffle;
    each bucket resolves all its tools with one vectorized sorted
    pass."""
    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)

    def part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort",
                          ignore_index=True)
        conv = g["conv_id"].to_numpy()
        tool = g["tool"].to_numpy(object)
        ts = g["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        m = (conv[1:] == conv[:-1]) & (tool[:-1] != "")
        return pd.DataFrame({"tool": tool[:-1][m],
                             "gap": ts[1:][m] - ts[:-1][m]})

    gaps = W.per_bucket(t, part, entity_col="conv_id",
                        num_buckets=_BUCKETS)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["tool", "gap"], kind="mergesort",
                            ignore_index=True)
        cnt = df.groupby("tool", sort=False).size()
        n = cnt.to_numpy(np.int64)
        start = np.concatenate([[0], np.cumsum(n[:-1])])
        v = df["gap"].to_numpy(np.int64)
        return pd.DataFrame({
            "tool": cnt.index.to_numpy(object),
            "n_calls": n,
            "median2_us": v[start + (n - 1) // 2] + v[start + n // 2],
            "max_us": v[start + n - 1],
        })

    # |tools| is bounded: collapse the gap rows per tool on the driver
    # side of ONE |gaps|-row pull is avoided by a per-tool map_groups
    from pystreamfs_ray.util import drop_empty_blocks

    return (drop_empty_blocks(gaps, 8)
            .groupby("tool")
            .map_groups(finish, batch_format="pandas"))


def q_cube_counts(sf_dir: str):
    """CUBE aggregation over (event_type, day-of-week): all four
    grouping combinations — fine cells, both one-way margins, grand
    total — with 'ALL' labels (completing the subtotal family next to
    q_rollup_revenue's ROLLUP). The fine grain is one |types|×7
    combiner exchange; every coarser level derives from that bounded
    frame on the driver, so CUBE costs nothing extra at any scale."""
    ev = read_parquet(_p(sf_dir, "events"), columns=["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        days = df["ts"].astype("int64").to_numpy() // 86_400_000_000
        d = pd.DataFrame({
            "event_type": df["event_type"].to_numpy(object),
            "dow": ((days + 4) % 7).astype(np.int64),
            "n": np.ones(len(df), dtype=np.int64),
        })
        return d.groupby(["event_type", "dow"], sort=False,
                         as_index=False).sum()

    base = (combine_sum(ev, partial, ["event_type", "dow"], ["n"])
            .to_pandas())  # |types|×7-bounded
    base["dow"] = base["dow"].astype(np.int64).astype(str)
    base["n"] = base["n"].astype(np.int64)
    by_type = (base.groupby("event_type", as_index=False)["n"].sum()
               .assign(dow="ALL"))
    by_dow = (base.groupby("dow", as_index=False)["n"].sum()
              .assign(event_type="ALL"))
    total = pd.DataFrame({"event_type": ["ALL"], "dow": ["ALL"],
                          "n": [np.int64(base["n"].sum())]})
    out = pd.concat([base, by_type, by_dow, total], ignore_index=True)
    out["n"] = out["n"].astype(np.int64)
    return (out[["event_type", "dow", "n"]]
            .sort_values(["event_type", "dow"], ignore_index=True))


def q_woe_encode(sf_dir: str):
    """Weight-of-evidence categorical encoding of event_type against
    the binary outcome value > 50.00 (exact integer compare on cents)
    — the credit-scoring encoder that maps a category to the log odds
    ratio of its outcome distribution, with the per-category
    information-value (IV) term that ranks categories by predictive
    power. Per-type (n_pos, n_neg) int64 partials combine per batch so
    the exchange is |types|-bounded; woe/iv are per-row float
    expressions over exact counts (0.5 Laplace smoothing, no float
    sums anywhere), written in the oracle's operation order."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(df["value"].to_numpy(np.float64)
                         * 100.0 + 0.5).astype(np.int64)
        pos = (cents > 5000).astype(np.int64)
        d = pd.DataFrame({
            "event_type": df["event_type"].to_numpy(object),
            "n_pos": pos,
            "n_neg": np.int64(1) - pos,
        })
        return d.groupby("event_type", sort=False, as_index=False).sum()

    agg = (combine_sum(ev, partial, "event_type", ["n_pos", "n_neg"])
           .to_pandas())  # |types|-bounded
    tp = float(int(agg["n_pos"].sum()))
    tn = float(int(agg["n_neg"].sum()))
    dp = (agg["n_pos"].to_numpy(np.int64).astype(np.float64) + 0.5) / tp
    dn = (agg["n_neg"].to_numpy(np.int64).astype(np.float64) + 0.5) / tn
    woe = np.log(dp / dn)
    return pd.DataFrame({
        "event_type": agg["event_type"].to_numpy(object),
        "n_pos": agg["n_pos"].to_numpy(np.int64),
        "n_neg": agg["n_neg"].to_numpy(np.int64),
        "woe": np.round(woe, 6),
        "iv": np.round((dp - dn) * woe, 6),
    }).sort_values("event_type", ignore_index=True)


def q_mi_features(sf_dir: str):
    """Distributed mutual-information feature ranking: MI(X; y) for
    each candidate categorical feature of the events table
    (event_type, day-of-week, hour-of-day) against the binary outcome
    value > 50.00 — the corpus-scale filter-method feature selector.
    ONE combiner pass melts each row into its three (feature, level,
    y) cells and tallies batch-locally, so the single exchange is
    Σ|levels|×2-bounded regardless of row count; the driver finish
    computes each feature's MI from exact int64 margins with per-cell
    float terms summed over a canonically sorted, bounded cell table
    (Σ of ≤ 2·|levels| doubles — rounding to 6 digits absorbs
    order-of-summation ulps)."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_type", "ts", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(df["value"].to_numpy(np.float64)
                         * 100.0 + 0.5).astype(np.int64)
        y = (cents > 5000).astype(np.int64)
        tsi = df["ts"].astype("int64").to_numpy()
        days = tsi // 86_400_000_000
        dow = ((days + 4) % 7).astype(np.int64)  # 0 = Sunday (SQL parity)
        hour = (tsi % 86_400_000_000) // 3_600_000_000
        et = df["event_type"].to_numpy(object)
        d = pd.DataFrame({
            "feature": np.repeat(
                np.array(["event_type", "dow", "hour"], dtype=object),
                len(df)),
            "level": np.concatenate([
                et, dow.astype(str).astype(object),
                hour.astype(np.int64).astype(str).astype(object)]),
            "y": np.tile(y, 3),
            "c": np.ones(3 * len(df), dtype=np.int64),
        })
        return d.groupby(["feature", "level", "y"], sort=False,
                         as_index=False).sum()

    cells = (combine_sum(ev, partial, ["feature", "level", "y"], ["c"])
             .to_pandas())  # Σ|levels|×2-bounded
    out = []
    for feat, g in cells.groupby("feature", sort=True):
        g = g.sort_values(["level", "y"], ignore_index=True)
        c = g["c"].to_numpy(np.int64)
        n = float(int(c.sum()))
        cx = g.groupby("level")["c"].transform("sum").to_numpy(np.int64)
        cy = g.groupby("y")["c"].transform("sum").to_numpy(np.int64)
        cf = c.astype(np.float64)
        mi = float(np.sum((cf / n) * np.log(
            (cf * n) / (cx.astype(np.float64) * cy.astype(np.float64)))))
        out.append((feat, np.int64(g["level"].nunique()), round(mi, 6)))
    return pd.DataFrame(out, columns=["feature", "n_levels", "mi"])


def q_causal_zscore(sf_dir: str):
    """Leakage-safe causal z-score: each event's value standardized
    against the mean/std of the user's STRICTLY-PRECEDING events (the
    point-in-time normalization feature — no statistic ever sees the
    row it scores or its future). One user-bucket pass; prior moments
    are exact int64 cent cumsums, the z is one float expression in the
    oracle's operation order. Null until the user has ≥2 prior events
    with nonzero spread."""
    events = read_parquet(_p(sf_dir, "events"),
                          columns=["event_id", "ts", "user_id", "value"])

    def _feats(g: pd.DataFrame) -> pd.DataFrame:
        g = W.sort_entity(g, entity_col="user_id",
                          order_cols=("ts", "event_id"))
        c = np.floor(g["value"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.int64)
        key = g["user_id"]
        grp = pd.Series(c).groupby(key.to_numpy(), sort=False)
        n = grp.cumcount().to_numpy(np.int64)
        s = grp.cumsum().to_numpy(np.int64) - c
        ss = pd.Series(c * c).groupby(
            key.to_numpy(), sort=False).cumsum().to_numpy(np.int64) - c * c
        nf = n.astype(np.float64)
        sf_, ssf = s.astype(np.float64), ss.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            num = ssf - (sf_ * s) / nf          # CAST(ss) - CAST(s)*s/n
            z = (c - sf_ / nf) / np.sqrt(num / (nf - 1.0))
        ok = (n >= 2) & (num > 0)
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(np.int64),
            "z_prior": np.where(ok, np.round(z, 6), np.nan),
        })

    return W.per_bucket(events, _feats, entity_col="user_id",
                        num_buckets=_BUCKETS)


def q_target_encode_cv(sf_dir: str):
    """Out-of-fold (K-fold) target encoding: each event's type is
    encoded by the mean value of the OTHER four md5-folds — the
    leakage-robust encoder variant used for model training (the row's
    own fold never contributes to its statistic; complements the LOO
    and m-estimate encoders). Pass 1 is a |types|×5-bounded (count,
    cent-sum) combiner; the finish broadcasts the tiny fold table into
    a stateless vectorized map, so nothing data-sized ever shuffles."""
    from pystreamfs_ray.stages.dedup import _md5_lower64

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        fold = (_md5_lower64([str(v) for v in df["event_id"]])
                % np.uint64(5)).astype(np.int64)
        d = pd.DataFrame({
            "event_type": df["event_type"].to_numpy(object),
            "fold": fold,
            "n": np.ones(len(df), dtype=np.int64),
            "sc": np.floor(df["value"].to_numpy(np.float64)
                           * 100.0 + 0.5).astype(np.int64),
        })
        return d.groupby(["event_type", "fold"], sort=False,
                         as_index=False).sum()

    folds = (combine_sum(ev, partial, ["event_type", "fold"], ["n", "sc"])
             .to_pandas())  # |types|×5-bounded
    tot = folds.groupby("event_type", as_index=False).agg(
        tn=("n", "sum"), tsc=("sc", "sum"))
    enc = folds.merge(tot, on="event_type")
    rest_n = (enc["tn"] - enc["n"]).to_numpy(np.int64)
    rest_sc = (enc["tsc"] - enc["sc"]).to_numpy(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.round(rest_sc.astype(np.float64)
                       / rest_n.astype(np.float64) / 100.0, 6)
    enc_map = {(t, f): (v if n > 0 else np.nan)
               for t, f, n, v in zip(enc["event_type"], enc["fold"],
                                     rest_n, val)}

    small = pd.DataFrame(
        [(t, f, v) for (t, f), v in enc_map.items()],
        columns=["event_type", "fold", "enc_oof"])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64),
            "event_type": df["event_type"].to_numpy(object),
            "fold": (_md5_lower64([str(v) for v in df["event_id"]])
                     % np.uint64(5)).astype(np.int64),
        })
        out = out.merge(small, on=["event_type", "fold"], how="left")
        return out[["event_id", "enc_oof"]]

    return ev.map_batches(finish, batch_format="pandas")


def q_cyclical_time(sf_dir: str):
    """Cyclical calendar features: sin/cos of hour-of-day and
    day-of-week per event — the standard periodic encoding that keeps
    23:00 adjacent to 00:00 (a raw hour integer puts them 23 apart).
    Shuffle-free stateless vectorized map; the trig expressions are
    written in the oracle's operation order over the same integer
    hour/dow derivations the CUBE/MI queries use."""
    ev = read_parquet(_p(sf_dir, "events"), columns=["event_id", "ts"])

    def feats(df: pd.DataFrame) -> pd.DataFrame:
        tsi = df["ts"].astype("int64").to_numpy()
        days = tsi // 86_400_000_000
        dow = ((days + 4) % 7).astype(np.float64)   # 0 = Sunday
        hour = ((tsi % 86_400_000_000)
                // 3_600_000_000).astype(np.float64)
        two_pi = 2.0 * np.pi
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64),
            "hour_sin": np.round(np.sin(two_pi * hour / 24.0), 6),
            "hour_cos": np.round(np.cos(two_pi * hour / 24.0), 6),
            "dow_sin": np.round(np.sin(two_pi * dow / 7.0), 6),
            "dow_cos": np.round(np.cos(two_pi * dow / 7.0), 6),
        })

    return ev.map_batches(feats, batch_format="pandas")


def q_grouped_moments(sf_dir: str):
    """Per-event-type distribution shape: mean, std, skewness and
    excess kurtosis from EXACT integer cent power sums (S1..S4 as
    arbitrary-precision Python ints shipped as decimal strings), so
    the single int->float conversion and the fixed +,-,*,/,sqrt
    expression chain are bit-identical to the oracle's HUGEINT sums.
    Shuffle: groups x blocks tiny string partials only."""
    from pystreamfs_ray.stages.grouped import grouped_moments

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_type", "value"])
    return grouped_moments(ev, "event_type", "value", scale=100)


def q_freq_encode(sf_dir: str):
    """Frequency encoding of event_type: each event carries its
    category's count and relative frequency — the cheapest categorical
    encoder (no target, no leakage surface). Combiner counts per type
    (|types| rows) + broadcast batch-local merge; the one float is a
    single division of two exact int64 counts, identical in the
    oracle. Shuffle: the |types|-row count aggregate only."""
    from pystreamfs_ray.util import ensure_cols

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("event_type", sort=False).size().rename("c")
        return pd.DataFrame({"event_type": g.index,
                             "c": g.to_numpy(np.int64)})

    stats = combine_sum(ev, partial, "event_type", ["c"]).to_pandas()
    stats = ensure_cols(stats, {"event_type": object, "c": np.int64})
    total = int(stats["c"].sum())
    ref = ray.put((stats["event_type"].to_numpy(),
                   stats["c"].to_numpy(np.int64), total))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        keys, cnt, tot = ray.get(ref)
        pos = pd.Index(keys).get_indexer(df["event_type"])
        c = cnt[pos]
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64),
            "event_type": df["event_type"].to_numpy(),
            "type_count": c,
            "freq": c.astype(np.float64) / float(tot),
        })

    return ev.map_batches(finish, batch_format="pandas")


def q_onehot(sf_dir: str):
    """Long-format one-hot encoding of event_type: one (event,
    category, indicator) row per event x distinct category —
    pivot-ready and schema-stable without hardcoding the category
    list. Distinct categories come from a |types|-row combiner and are
    broadcast; each batch emits its n x k rows with vectorized
    repeat/tile (no per-row loop). Shuffle: none beyond the tiny
    distinct aggregate."""
    from pystreamfs_ray.util import arrow_combiner, ensure_cols

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": df["event_type"].unique()})

    cats = (ev.map_batches(arrow_combiner(partial),
                           batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(Count(alias_name="_c"))
            .to_pandas())
    cats = ensure_cols(cats, {"event_type": object})
    cat_arr = np.sort(cats["event_type"].to_numpy())
    ref = ray.put(cat_arr)

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        cats = ray.get(ref)
        k, n = len(cats), len(df)
        ids = np.repeat(df["event_id"].to_numpy(np.int64), k)
        row_cat = np.repeat(df["event_type"].to_numpy(), k)
        cat_col = np.tile(cats, n)
        return pd.DataFrame({
            "event_id": ids,
            "category": cat_col,
            "ind": (row_cat == cat_col).astype(np.int64),
        })

    return ev.map_batches(expand, batch_format="pandas")


def q_class_weights(sf_dir: str):
    """Inverse-frequency class weights over the embedding labels —
    sklearn's 'balanced' heuristic w_c = n / (k * n_c) for loss
    reweighting on imbalanced data. One |labels|-row count combiner;
    the weight is one float expression over three exact int64 counts
    in the oracle's operation order."""
    from pystreamfs_ray.util import ensure_cols

    emb = read_parquet(_p(sf_dir, "embeddings"), columns=["label"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("label", sort=False).size()
        return pd.DataFrame({"label": g.index.to_numpy(np.int64),
                             "n_label": g.to_numpy(np.int64)})

    stats = combine_sum(emb, partial, "label", ["n_label"]).to_pandas()
    stats = ensure_cols(stats, {"label": np.int64, "n_label": np.int64})
    n = float(int(stats["n_label"].sum()))
    k = float(len(stats))
    out = pd.DataFrame({
        "label": stats["label"].to_numpy(np.int64),
        "n_label": stats["n_label"].to_numpy(np.int64),
        "weight": n / (k * stats["n_label"].to_numpy(np.float64)),
    })
    return out.sort_values("label", ignore_index=True)


def q_ordinal_encode(sf_dir: str):
    """Target-guided ordinal encoding: categories ranked by mean event
    value (descending, category name as the deterministic tiebreak)
    and each event tagged with its category's rank — the monotone
    integer encoding tree models split on. Means are single divisions
    of exact int64 cent sums (bit-identical to the oracle); the rank
    table is |types| rows on the driver, broadcast into a batch-local
    map. Shuffle: the |types|-row stats aggregate only."""
    from pystreamfs_ray.util import ensure_cols

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = np.floor(df["value"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.int64)
        g = (pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                           "n": np.ones(len(df), dtype=np.int64),
                           "s1": c})
             .groupby("event_type", sort=False, as_index=False).sum())
        return g

    stats = combine_sum(ev, partial, "event_type", ["n", "s1"]).to_pandas()
    stats = ensure_cols(stats, {"event_type": object, "n": np.int64,
                                "s1": np.int64})
    mean = (stats["s1"].to_numpy(np.int64).astype(np.float64)
            / stats["n"].to_numpy(np.int64).astype(np.float64))
    order = np.lexsort((stats["event_type"].to_numpy(), -mean))
    keys = stats["event_type"].to_numpy()[order]
    codes = np.arange(1, len(keys) + 1, dtype=np.int64)
    ref = ray.put((keys, codes))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        keys, codes = ray.get(ref)
        pos = pd.Index(keys).get_indexer(df["event_type"])
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64),
            "event_type": df["event_type"].to_numpy(),
            "ord_code": codes[pos],
        })

    return ev.map_batches(finish, batch_format="pandas")


def q_anova_f(sf_dir: str):
    """One-way ANOVA F of event value across event types — the
    f_classif feature-selection statistic (does the categorical
    feature explain variance in the target?). Everything that can be
    exact IS exact: per-group cent sums are int64 combiner partials,
    and the cross-group sum-of-squares term Σ S1_g²/n_g is split by
    integer divmod into an exact arbitrary-precision quotient plus a
    <1-per-group float residue, so summation order can only perturb
    the result below the double's ulp. The final float chain mirrors
    the oracle op-for-op. Shuffle: the |types|-row stats aggregate."""
    from pystreamfs_ray.util import ensure_cols

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = np.floor(df["value"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.int64)
        g = (pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                           "n_g": np.ones(len(df), dtype=np.int64),
                           "s1_g": c, "s2_g": c * c})
             .groupby("event_type", sort=False, as_index=False).sum())
        return g

    stats = (combine_sum(ev, partial, "event_type", ["n_g", "s1_g", "s2_g"])
             .to_pandas())
    stats = ensure_cols(stats, {"event_type": object, "n_g": np.int64,
                                "s1_g": np.int64, "s2_g": np.int64})
    k = len(stats)
    n = int(stats["n_g"].sum())
    s1 = sum(int(x) for x in stats["s1_g"])
    s2 = sum(int(x) for x in stats["s2_g"])
    # T2 = Σ s1_g²/n_g exactly: integer quotient + tiny float residue
    q_int, res = 0, 0.0
    for s1g, ng in zip(stats["s1_g"], stats["n_g"]):
        sq = int(s1g) * int(s1g)
        q_int += sq // int(ng)
        res += float(sq % int(ng)) / float(int(ng))
    t2 = float(q_int) + res
    ssw = float(s2) - t2
    ssb = t2 - float(s1 * s1) / float(n)
    f_stat = (ssb / float(k - 1)) / (ssw / float(n - k))
    eta_sq = ssb / (ssb + ssw)
    return pd.DataFrame({
        "k": np.array([k], dtype=np.int64),
        "n": np.array([n], dtype=np.int64),
        "f_stat": [np.round(f_stat, 6)],
        "eta_sq": [np.round(eta_sq, 6)],
    })


def q_cramers_v(sf_dir: str):
    """Cramér's V association strength between lang and source over
    documents — the normalized chi² that ranks categorical feature
    pairs for redundancy pruning. Reuses the q_chi2_cells combiner
    shape; the cross-cell chi² sum uses the same exact-divmod split as
    q_anova_f (chi² = Σ (o·n − rt·ct)² / (n·rt·ct); the integer
    quotient is exact, the float residue is <1 per cell), so the
    one-row output is order-independent to below the double's ulp."""
    from pystreamfs_ray.util import ensure_cols

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["lang", "source"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby(["lang", "source"], sort=False)
               .size().rename("observed").reset_index())
        out["observed"] = out["observed"].astype(np.int64)
        return out

    cells = (combine_sum(docs, partial, ["lang", "source"], ["observed"])
             .to_pandas())
    cells = ensure_cols(cells, {"lang": object, "source": object,
                                "observed": np.int64})
    # chi² runs over the FULL cross product: an absent (lang, source)
    # combo is an observed-0 cell that still contributes E
    full = pd.MultiIndex.from_product(
        [sorted(cells["lang"].unique()), sorted(cells["source"].unique())],
        names=["lang", "source"])
    cells = (cells.set_index(["lang", "source"])
             .reindex(full, fill_value=0).reset_index())
    cells["observed"] = cells["observed"].astype(np.int64)
    row_tot = cells.groupby("lang")["observed"].transform("sum")
    col_tot = cells.groupby("source")["observed"].transform("sum")
    n = int(cells["observed"].sum())
    q_int, res = 0, 0.0
    for o, rt, ct in zip(cells["observed"], row_tot, col_tot):
        num = (int(o) * n - int(rt) * int(ct)) ** 2
        den = n * int(rt) * int(ct)
        q_int += num // den
        res += float(num % den) / float(den)
    chi2 = float(q_int) + res
    r = cells["lang"].nunique()
    c = cells["source"].nunique()
    dof = (r - 1) * (c - 1)
    import math
    v = math.sqrt((chi2 / float(n)) / float(min(r, c) - 1))
    return pd.DataFrame({
        "n": np.array([n], dtype=np.int64),
        "dof": np.array([dof], dtype=np.int64),
        "chi2": [np.round(chi2, 6)],
        "cramers_v": [np.round(v, 6)],
    })


def q_equal_width_bins(sf_dir: str):
    """Equal-width discretization profile of event value: global
    (min, max) from a combiner pass, 10 equal bins, per-bin counts and
    edges — the KBinsDiscretizer('uniform') fit report. Bin assignment
    is PURE integer arithmetic on cents (bin = (v−min)·10 // (max−min+1),
    exact and edge-stable), so engine and oracle can never disagree on
    a boundary row. Shuffles: two tiny aggregates (minmax, bin counts);
    values never move."""
    from pystreamfs_ray.util import arrow_combiner, ensure_cols

    ev = read_parquet(_p(sf_dir, "events"), columns=["value"])

    def mm(df: pd.DataFrame) -> pd.DataFrame:
        c = np.floor(df["value"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.int64)
        return pd.DataFrame({"k": [0], "lo": [c.min()], "hi": [c.max()]})

    bounds = (ev.map_batches(arrow_combiner(mm), batch_format="pyarrow")
              .groupby("k")
              .aggregate(Min("lo", alias_name="lo"),
                         Max("hi", alias_name="hi"))
              .to_pandas())
    lo = int(bounds["lo"].iloc[0])
    hi = int(bounds["hi"].iloc[0])
    span = hi - lo + 1  # half-open integer bins; max lands in bin 9
    nbins = 10

    def binned(df: pd.DataFrame) -> pd.DataFrame:
        c = np.floor(df["value"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.int64)
        b = (c - lo) * nbins // span
        g = pd.Series(b).value_counts()
        return pd.DataFrame({"bin": g.index.to_numpy(np.int64),
                             "n": g.to_numpy(np.int64)})

    counts = combine_sum(ev, binned, "bin", ["n"]).to_pandas()
    counts = ensure_cols(counts, {"bin": np.int64, "n": np.int64})
    b = counts["bin"].to_numpy(np.int64)
    # integer cent edges: first/last cent whose bin index is b
    edge_lo = lo + (b * span + nbins - 1) // nbins
    edge_hi = lo + ((b + 1) * span + nbins - 1) // nbins - 1
    out = pd.DataFrame({
        "bin": b, "n": counts["n"].to_numpy(np.int64),
        "lo_value": edge_lo.astype(np.float64) / 100.0,
        "hi_value": edge_hi.astype(np.float64) / 100.0,
    })
    return out.sort_values("bin", ignore_index=True)


def q_calibration(sf_dir: str):
    """Calibration table: events bucketed into value deciles (exact
    SQL NTILE semantics over (value, event_id)) × purchase rate per
    decile — the binned target-rate curve that sanity-checks a score
    or feature against the label before training. The label rides the
    ntile range exchange as a passthrough column (no join back); the
    rate is one float division of two exact int64 counts. Shuffles:
    the one ntile range partition + a 10-row count aggregate."""
    from pystreamfs_ray.stages.rank import global_ntile
    from pystreamfs_ray.util import ensure_cols

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "event_type", "value"])
    tiled = global_ntile(ev, 10, value_col="value", id_col="event_id",
                         out_col="decile", extra_cols=["event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        is_p = (df["event_type"].to_numpy() == "purchase").astype(np.int64)
        g = (pd.DataFrame({"decile": df["decile"].to_numpy(np.int64),
                           "n": np.ones(len(df), dtype=np.int64),
                           "purchases": is_p})
             .groupby("decile", sort=False, as_index=False).sum())
        return g

    out = combine_sum(tiled, partial, "decile", ["n", "purchases"]).to_pandas()
    out = ensure_cols(out, {"decile": np.int64, "n": np.int64,
                            "purchases": np.int64})
    out["rate"] = (out["purchases"].to_numpy(np.int64).astype(np.float64)
                   / out["n"].to_numpy(np.int64).astype(np.float64))
    return out.sort_values("decile", ignore_index=True)


def q_rolling_median(sf_dir: str):
    """Per-user rolling median of value over the last 5 events (SQL
    ``ROWS BETWEEN 4 PRECEDING AND CURRENT ROW``) — the outlier-robust
    smoothing feature next to q_ewma_value's mean smoother. The user's
    sequence is complete inside its entity bucket, so the 5 lag taps
    are exact; medians run on integer cents (average-of-two-middles is
    exact: int sums halved), so engine and oracle agree bit-for-bit
    before the 6-digit round. Shuffle: one user-bucket exchange."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "ts", "user_id", "value"])

    def part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort", ignore_index=True)
        u = g["user_id"].to_numpy()
        c = np.floor(g["value"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.float64)
        n = len(g)
        taps = np.full((n, 5), np.nan)
        taps[:, 0] = c
        for j in range(1, 5):
            same = np.zeros(n, dtype=bool)
            same[j:] = u[j:] == u[:-j]
            taps[j:, j] = np.where(same[j:], c[:-j], np.nan)
        med = np.nanmedian(taps, axis=1)
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(np.int64),
            "roll_med": np.round(med / 100.0, 6),
        })

    return W.per_bucket(ev, part, entity_col="user_id",
                        num_buckets=_BUCKETS)


def q_feature_ttest(sf_dir: str):
    """Welch's t-test of the value feature between the deterministic
    md5 train and test splits — the split-sanity audit that catches a
    holdout whose feature distribution drifted from training. Per-split
    moments are exact int64 cent sums from one combiner pass; the t
    statistic is a fixed float chain over those exact integers,
    mirrored op-for-op by the oracle (no cross-group float sums — two
    groups, every term exact until the final chain)."""
    from pystreamfs_ray.sources import split_labels
    from pystreamfs_ray.util import ensure_cols

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        lab = split_labels(df["event_id"].to_numpy())
        c = np.floor(df["value"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.int64)
        g = (pd.DataFrame({"split": lab,
                           "n": np.ones(len(df), dtype=np.int64),
                           "s1": c, "s2": c * c})
             .groupby("split", sort=False, as_index=False).sum())
        return g

    stats = combine_sum(ev, partial, "split", ["n", "s1", "s2"]).to_pandas()
    stats = ensure_cols(stats, {"split": object, "n": np.int64,
                                "s1": np.int64, "s2": np.int64})
    row = {r["split"]: (int(r["n"]), int(r["s1"]), int(r["s2"]))
           for _, r in stats.iterrows()}
    (n1, a1, b1), (n2, a2, b2) = row["train"], row["test"]
    m1 = float(a1) / float(n1)
    m2 = float(a2) / float(n2)
    v1 = (float(b1) - float(a1 * a1) / float(n1)) / float(n1 - 1)
    v2 = (float(b2) - float(a2 * a2) / float(n2)) / float(n2 - 1)
    se1 = v1 / float(n1)
    se2 = v2 / float(n2)
    import math
    t = (m1 - m2) / math.sqrt(se1 + se2)
    dof = ((se1 + se2) * (se1 + se2)
           / (se1 * se1 / float(n1 - 1) + se2 * se2 / float(n2 - 1)))
    return pd.DataFrame({
        "n_train": np.array([n1], dtype=np.int64),
        "n_test": np.array([n2], dtype=np.int64),
        "mean_train": [np.round(m1 / 100.0, 6)],
        "mean_test": [np.round(m2 / 100.0, 6)],
        "t_stat": [np.round(t, 6)],
        "welch_dof": [np.round(dof, 6)],
    })


def q_activity_slope(sf_dir: str):
    """Per-user OLS slope of daily event count over the day index —
    the engagement-trend feature (is the user ramping up or churning
    out?). Daily counts and all OLS moments (n, Σx, Σy, Σxy, Σxx) are
    exact int64 inside the user's entity bucket; the slope is one
    division of two exact integers, bit-identical to the oracle before
    the 6-digit round. Users active on <2 distinct days are excluded
    (slope undefined). Shuffle: one user-bucket exchange."""
    ev = read_parquet(_p(sf_dir, "events"), columns=["user_id", "ts"])

    def part(g: pd.DataFrame) -> pd.DataFrame:
        day = (g["ts"].astype("int64").to_numpy()
               // 86_400_000_000).astype(np.int64)
        d = (pd.DataFrame({"user_id": g["user_id"].to_numpy(), "day": day})
             .groupby(["user_id", "day"], sort=False)
             .size().rename("c").reset_index())
        x = d["day"].to_numpy(np.int64)
        y = d["c"].to_numpy(np.int64)
        s = pd.DataFrame({"user_id": d["user_id"].to_numpy(),
                          "n": np.ones(len(d), dtype=np.int64),
                          "sx": x, "sy": y, "sxy": x * y, "sxx": x * x})
        s = s.groupby("user_id", sort=False, as_index=False).sum()
        s = s[s["n"] >= 2]
        n = s["n"].to_numpy(np.int64)
        num = (n * s["sxy"].to_numpy(np.int64)
               - s["sx"].to_numpy(np.int64) * s["sy"].to_numpy(np.int64))
        den = (n * s["sxx"].to_numpy(np.int64)
               - s["sx"].to_numpy(np.int64) ** 2)
        return pd.DataFrame({
            "user_id": s["user_id"].to_numpy(np.int64),
            "n_days": n,
            "slope": np.round(num.astype(np.float64)
                              / den.astype(np.float64), 6),
        })

    return W.per_bucket(ev, part, entity_col="user_id",
                        num_buckets=_BUCKETS)


def q_rare_categories(sf_dir: str):
    """Rare-category consolidation of user_id: users contributing
    fewer than 0.5% of all events collapse to '__other__' — the
    cardinality-capping encoder that keeps one-hot/target encodings
    bounded when a categorical column has a long tail. The cutoff is
    EXACT integer arithmetic (total·5 // 1000), the per-user counts are
    one combiner aggregate, and the keep-set broadcasts into a
    batch-local relabel. Shuffle: the |users|-row count aggregate."""
    from pystreamfs_ray.util import ensure_cols

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "user_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", sort=False).size().rename("c")
        return pd.DataFrame({"user_id": g.index.to_numpy(np.int64),
                             "c": g.to_numpy(np.int64)})

    counts = combine_sum(ev, partial, "user_id", ["c"]).to_pandas()
    counts = ensure_cols(counts, {"user_id": np.int64, "c": np.int64})
    total = int(counts["c"].sum())
    cutoff = total * 5 // 1000
    keep = set(counts.loc[counts["c"].to_numpy(np.int64) >= cutoff,
                          "user_id"].astype(np.int64))
    ref = ray.put(np.array(sorted(keep), dtype=np.int64))

    def relabel(df: pd.DataFrame) -> pd.DataFrame:
        kept = ray.get(ref)
        u = df["user_id"].to_numpy(np.int64)
        is_kept = np.isin(u, kept)
        cat = np.where(is_kept, u.astype(str), "__other__")
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64),
            "user_cat": cat,
        })

    return ev.map_batches(relabel, batch_format="pandas")


def q_standard_scale(sf_dir: str):
    """Global StandardScaler of event value: z = (v − mean)/std with
    mean/std from exact int64 cent sums (sample std) — the canonical
    numeric feature normalization. One combiner aggregate for (n, Σc,
    Σc²), broadcast scalars, batch-local vectorized z; every float op
    mirrors the oracle. Shuffle: a 1-row aggregate."""
    from pystreamfs_ray.util import ensure_cols

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = np.floor(df["value"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.int64)
        return pd.DataFrame({"k": np.zeros(1, dtype=np.int64),
                             "n": [np.int64(len(df))],
                             "s1": [c.sum()], "s2": [(c * c).sum()]})

    stats = combine_sum(ev, partial, "k", ["n", "s1", "s2"]).to_pandas()
    stats = ensure_cols(stats, {"k": np.int64, "n": np.int64,
                                "s1": np.int64, "s2": np.int64})
    n = int(stats["n"].iloc[0])
    s1 = int(stats["s1"].iloc[0])
    s2 = int(stats["s2"].iloc[0])
    import math
    m = float(s1) / float(n)
    sd = math.sqrt((float(s2) - float(s1 * s1) / float(n))
                   / float(n - 1))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        c = np.floor(df["value"].to_numpy(np.float64)
                     * 100.0 + 0.5)
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64),
            "z_value": np.round((c - m) / sd, 6),
        })

    return ev.map_batches(finish, batch_format="pandas")


def q_user_type_profile(sf_dir: str):
    """Per-(user, event_type) count and within-user share — the
    entity×category preference profile a feature store serves as the
    user's behavioral fingerprint (long form, pivot-ready). One
    (user, type) combiner exchange; the share is one float division of
    two exact int64 counts computed inside a per-user map_groups over
    the ALREADY-AGGREGATED |users|×|types| table (bounded by |types|
    rows per group — never raw events, never a driver-side total)."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["user_id", "event_type"], sort=False)
             .size().rename("c").reset_index())
        g["c"] = g["c"].astype(np.int64)
        return g

    agg = combine_sum(ev, partial, ["user_id", "event_type"], ["c"])

    def share(g: pd.DataFrame) -> pd.DataFrame:
        tot = int(g["c"].sum())
        c = g["c"].to_numpy(np.int64)
        return pd.DataFrame({
            "user_id": g["user_id"].to_numpy(np.int64),
            "event_type": g["event_type"].to_numpy(),
            "n": c,
            "share": c.astype(np.float64) / float(tot),
        })

    return agg.groupby("user_id").map_groups(share,
                                             batch_format="pandas")


def q_poly_features(sf_dir: str):
    """Degree-2 polynomial/interaction features per event: value²,
    value × hour-of-day, and the hour² term — the PolynomialFeatures
    expansion that lets linear models fit curvature. Shuffle-free
    stateless vectorized map; every product is a single IEEE float op
    mirrored by the oracle (value is used as-read, hour is an exact
    small integer)."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "ts", "value"])

    def feats(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy(np.float64)
        tsi = df["ts"].astype("int64").to_numpy()
        hour = ((tsi % 86_400_000_000)
                // 3_600_000_000).astype(np.float64)
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64),
            "value_sq": v * v,
            "value_x_hour": v * hour,
            "hour_sq": hour * hour,
        })

    return ev.map_batches(feats, batch_format="pandas")


def q_date_parts(sf_dir: str):
    """Calendar feature bundle per event: day-of-month, month,
    ISO-ish week index, weekend flag, and days-until-month-end — the
    date-part expansion every tabular pipeline derives from a
    timestamp. Shuffle-free row-local integer arithmetic on epoch
    micros (the same day/dow derivations as q_cyclical_time), exactly
    mirrorable in SQL."""
    ev = read_parquet(_p(sf_dir, "events"), columns=["event_id", "ts"])

    def feats(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["ts"]
        dt = ts.dt
        tsi = ts.astype("int64").to_numpy()
        days = tsi // 86_400_000_000
        dow = ((days + 4) % 7).astype(np.int64)  # 0 = Sunday
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64),
            "day": dt.day.to_numpy(np.int64),
            "month": dt.month.to_numpy(np.int64),
            "week": ((days + 4) // 7).astype(np.int64),  # epoch weeks,
            # anchored so week boundaries fall on Sundays like dow
            "is_weekend": ((dow == 0) | (dow == 6)).astype(np.int64),
            "days_to_month_end": (dt.days_in_month.to_numpy(np.int64)
                                  - dt.day.to_numpy(np.int64)),
        })

    return ev.map_batches(feats, batch_format="pandas")


def q_pct_change(sf_dir: str):
    """Per-user percent change of value vs the user's previous event —
    the 'returns' transform that converts levels into relative moves.
    Lag-1 is exact inside the user's entity bucket; the ratio is one
    float expression over two exact int64 cent values in the oracle's
    op order, emitted UNROUNDED (the quotient is bit-identical on both
    sides; a 6-digit round would hit half-even-vs-half-away ties on
    the dyadic quotients that power-of-two cent denominators produce).
    Null on each user's first event and where the previous value is 0.
    Shuffle: one user-bucket exchange."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "ts", "user_id", "value"])

    def part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort", ignore_index=True)
        u = g["user_id"].to_numpy()
        c = np.floor(g["value"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.int64)
        prev = np.empty(len(g), dtype=np.float64)
        prev[0] = np.nan
        prev[1:] = np.where(u[1:] == u[:-1], c[:-1], np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            pct = (c - prev) / prev
        pct = np.where(prev == 0, np.nan, pct)
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(np.int64),
            "pct_change": pct,
        })

    return W.per_bucket(ev, part, entity_col="user_id",
                        num_buckets=_BUCKETS)


def q_running_total(sf_dir: str):
    """Per-user running total of value up to and including each event
    — the expanding cumulative-spend feature a serving store keeps hot.
    Exact int64 cent cumsum inside the user's entity bucket, one
    division by 100 at the end; bit-identical to the oracle's window
    SUM. Shuffle: one user-bucket exchange."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "ts", "user_id", "value"])

    def part(g: pd.DataFrame) -> pd.DataFrame:
        g = W.sort_entity(g, entity_col="user_id",
                          order_cols=("ts", "event_id"))
        c = np.floor(g["value"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.int64)
        run = (pd.Series(c).groupby(g["user_id"].to_numpy(), sort=False)
               .cumsum().to_numpy(np.int64))
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(np.int64),
            "running_total": run.astype(np.float64) / 100.0,
        })

    return W.per_bucket(ev, part, entity_col="user_id",
                        num_buckets=_BUCKETS)


def q_ks_drift(sf_dir: str):
    """EXACT Kolmogorov–Smirnov statistic of the value feature between
    the md5 train and test splits — the distribution-drift test next
    to q_feature_ttest's mean test and q_psi_drift's binned score.
    Exactness: value quantizes to integer cents, so the support is
    BOUNDED (≤ max-cents distinct points); one (split, cent) count
    aggregate shuffles ≤2·|support| int rows, the ECDF difference is
    a per-point float expression on exact integer cumsums, and MAX is
    order-free — engine and oracle agree bit-for-bit with no rounding.
    (For unbounded/continuous features the scale path is the binned
    KS over hist_registers.)"""
    from pystreamfs_ray.sources import split_labels
    from pystreamfs_ray.util import ensure_cols

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        lab = split_labels(df["event_id"].to_numpy())
        keep = (lab == "train") | (lab == "test")
        c = np.floor(df["value"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.int64)[keep]
        g = (pd.DataFrame({"split": lab[keep], "v": c})
             .groupby(["split", "v"], sort=False)
             .size().rename("c").reset_index())
        g["c"] = g["c"].astype(np.int64)
        return g

    counts = combine_sum(ev, partial, ["split", "v"], ["c"]).to_pandas()
    counts = ensure_cols(counts, {"split": object, "v": np.int64,
                                  "c": np.int64})
    piv = (counts.pivot_table(index="v", columns="split", values="c",
                              aggfunc="sum", fill_value=0)
           .reindex(columns=["train", "test"], fill_value=0)
           .sort_index())
    a = piv["train"].to_numpy(np.int64).cumsum()
    b = piv["test"].to_numpy(np.int64).cumsum()
    n1, n2 = int(a[-1]), int(b[-1])
    d = np.abs(a.astype(np.float64) / float(n1)
               - b.astype(np.float64) / float(n2))
    return pd.DataFrame({
        "n_train": np.array([n1], dtype=np.int64),
        "n_test": np.array([n2], dtype=np.int64),
        "ks_stat": [float(d.max())],
    })


def q_hist2d(sf_dir: str):
    """Day-of-week × hour-of-day activity matrix (long form): event
    count and mean value per calendar cell — the seasonality heatmap
    behind q_dow_profile, now with the intra-day axis. One
    ≤7×24-row combiner aggregate; the mean is one division of exact
    int64 cent sums. Shuffle: the 168-row cell aggregate."""
    from pystreamfs_ray.util import ensure_cols

    ev = read_parquet(_p(sf_dir, "events"), columns=["ts", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        tsi = df["ts"].astype("int64").to_numpy()
        days = tsi // 86_400_000_000
        dow = ((days + 4) % 7).astype(np.int64)
        hour = ((tsi % 86_400_000_000) // 3_600_000_000).astype(np.int64)
        c = np.floor(df["value"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.int64)
        g = (pd.DataFrame({"dow": dow, "hour": hour,
                           "n": np.ones(len(df), dtype=np.int64),
                           "s": c})
             .groupby(["dow", "hour"], sort=False, as_index=False).sum())
        return g

    cells = combine_sum(ev, partial, ["dow", "hour"], ["n", "s"]).to_pandas()
    cells = ensure_cols(cells, {"dow": np.int64, "hour": np.int64,
                                "n": np.int64, "s": np.int64})
    cells["mean_value"] = np.round(
        (cells["s"].to_numpy(np.int64).astype(np.float64)
         / cells["n"].to_numpy(np.int64).astype(np.float64)) / 100.0, 6)
    return (cells[["dow", "hour", "n", "mean_value"]]
            .sort_values(["dow", "hour"], ignore_index=True))


def q_corr_matrix(sf_dir: str):
    """Pairwise Pearson correlation matrix (long form) over the three
    base numeric features value-cents / hour / dow — the redundancy
    screen run before feature selection. ONE wide combiner row per
    batch carries every cross-moment (n, Σx.., Σxy..); the correlation
    numerator/denominator terms are computed as EXACT integers first
    and cross into float with one correctly-rounded cast each, in the
    oracle's op order. Shuffle: a 1-row aggregate."""
    from pystreamfs_ray.util import ensure_cols

    ev = read_parquet(_p(sf_dir, "events"), columns=["ts", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = np.floor(df["value"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.int64)
        tsi = df["ts"].astype("int64").to_numpy()
        h = ((tsi % 86_400_000_000) // 3_600_000_000).astype(np.int64)
        d = ((tsi // 86_400_000_000 + 4) % 7).astype(np.int64)
        return pd.DataFrame({
            "k": np.zeros(1, dtype=np.int64),
            "n": [np.int64(len(df))],
            "sx": [c.sum()], "sy": [h.sum()], "sz": [d.sum()],
            "sxx": [(c * c).sum()], "syy": [(h * h).sum()],
            "szz": [(d * d).sum()],
            "sxy": [(c * h).sum()], "sxz": [(c * d).sum()],
            "syz": [(h * d).sum()],
        })

    agg = combine_sum(ev, partial, "k",
                      ["n", "sx", "sy", "sz", "sxx", "syy", "szz", "sxy",
                       "sxz", "syz"]).to_pandas()
    agg = ensure_cols(agg, {c: np.int64 for c in
                            ("k", "n", "sx", "sy", "sz", "sxx", "syy",
                             "szz", "sxy", "sxz", "syz")})
    r = {c: int(agg[c].iloc[0]) for c in agg.columns}
    n = r["n"]
    import math

    def corr(sab, sa, sb, saa, sbb):
        num = n * sab - sa * sb            # exact int
        da = n * saa - sa * sa             # exact int
        db = n * sbb - sb * sb             # exact int
        return float(num) / math.sqrt(float(da) * float(db))

    rows = [
        ("value", "hour", corr(r["sxy"], r["sx"], r["sy"],
                               r["sxx"], r["syy"])),
        ("value", "dow", corr(r["sxz"], r["sx"], r["sz"],
                              r["sxx"], r["szz"])),
        ("hour", "dow", corr(r["syz"], r["sy"], r["sz"],
                             r["syy"], r["szz"])),
    ]
    return pd.DataFrame({
        "feat_a": [a for a, _, _ in rows],
        "feat_b": [b for _, b, _ in rows],
        "corr": [c for _, _, c in rows],
    })


def q_variance_filter(sf_dir: str):
    """VarianceThreshold feature screen: sample variance of each base
    feature (value in dollars, hour, dow, is_weekend) plus the keep
    flag at the 0.01 threshold — the first filter of any selection
    pipeline (a near-constant feature carries nothing). All moments
    are exact int64 combiner sums; each variance is one float division
    of two exact integers. Shuffle: a 1-row aggregate."""
    from pystreamfs_ray.util import ensure_cols

    ev = read_parquet(_p(sf_dir, "events"), columns=["ts", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = np.floor(df["value"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.int64)
        tsi = df["ts"].astype("int64").to_numpy()
        h = ((tsi % 86_400_000_000) // 3_600_000_000).astype(np.int64)
        d = ((tsi // 86_400_000_000 + 4) % 7).astype(np.int64)
        w = ((d == 0) | (d == 6)).astype(np.int64)
        return pd.DataFrame({
            "k": np.zeros(1, dtype=np.int64),
            "n": [np.int64(len(df))],
            "sv": [c.sum()], "svv": [(c * c).sum()],
            "sh": [h.sum()], "shh": [(h * h).sum()],
            "sd": [d.sum()], "sdd": [(d * d).sum()],
            "sw": [w.sum()], "sww": [(w * w).sum()],
        })

    agg = combine_sum(ev, partial, "k",
                      ["n", "sv", "svv", "sh", "shh", "sd", "sdd", "sw",
                       "sww"]).to_pandas()
    agg = ensure_cols(agg, {c: np.int64 for c in agg.columns})
    r = {c: int(agg[c].iloc[0]) for c in agg.columns}
    n = r["n"]

    def var(s, ss, scale_sq=1.0):
        num = n * ss - s * s               # exact int
        den = n * (n - 1)                  # exact int
        return float(num) / float(den) / scale_sq

    rows = [
        ("value", var(r["sv"], r["svv"], 10000.0)),
        ("hour", var(r["sh"], r["shh"])),
        ("dow", var(r["sd"], r["sdd"])),
        ("is_weekend", var(r["sw"], r["sww"])),
    ]
    return pd.DataFrame({
        "feature": [f for f, _ in rows],
        "variance": [v for _, v in rows],
        "keep": np.array([v > 0.01 for _, v in rows], dtype=np.int64),
    })


def q_spearman(sf_dir: str):
    """EXACT distributed Spearman rank correlation between value and
    hour-of-day — the monotone-relationship screen that Pearson
    misses. Both variables quantize to bounded integer support (cents,
    hours), so the average-rank-with-ties table is a support-sized
    aggregate: rank2(v) = 2·cum_before + count + 1 (TWICE the average
    rank — an exact integer, no .5 halves). The doubled ranks broadcast
    into a second pass that accumulates exact int64 cross-moments;
    Pearson on the doubled ranks IS Spearman (affine invariance), and
    the float chain mirrors the oracle op-for-op. Shuffles: two
    support-sized count aggregates + a 1-row moment aggregate."""
    from pystreamfs_ray.util import ensure_cols

    ev = read_parquet(_p(sf_dir, "events"), columns=["ts", "value"])

    def _vh(df: pd.DataFrame):
        v = np.floor(df["value"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.int64)
        tsi = df["ts"].astype("int64").to_numpy()
        h = ((tsi % 86_400_000_000) // 3_600_000_000).astype(np.int64)
        return v, h

    def counts_of(col: str):
        def partial(df: pd.DataFrame) -> pd.DataFrame:
            v, h = _vh(df)
            x = v if col == "v" else h
            g = pd.Series(x).value_counts()
            return pd.DataFrame({"x": g.index.to_numpy(np.int64),
                                 "c": g.to_numpy(np.int64)})

        agg = combine_sum(ev, partial, "x", ["c"]).to_pandas()
        agg = ensure_cols(agg, {"x": np.int64, "c": np.int64})
        agg = agg.sort_values("x", ignore_index=True)
        c = agg["c"].to_numpy(np.int64)
        cum_before = np.concatenate(([0], c.cumsum()[:-1]))
        r2 = 2 * cum_before + c + 1  # exact doubled average rank
        return agg["x"].to_numpy(np.int64), r2

    vx, vr2 = counts_of("v")
    hx, hr2 = counts_of("h")
    ref = ray.put((vx, vr2, hx, hr2))

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        vx, vr2, hx, hr2 = ray.get(ref)
        v, h = _vh(df)
        x = vr2[np.searchsorted(vx, v)]
        y = hr2[np.searchsorted(hx, h)]
        return pd.DataFrame({
            "k": np.zeros(1, dtype=np.int64),
            "n": [np.int64(len(df))],
            "sx": [x.sum()], "sy": [y.sum()],
            "sxx": [(x * x).sum()], "syy": [(y * y).sum()],
            "sxy": [(x * y).sum()],
        })

    agg = combine_sum(ev, moments, "k",
                      ["n", "sx", "sy", "sxx", "syy", "sxy"]).to_pandas()
    agg = ensure_cols(agg, {c: np.int64 for c in agg.columns})
    r = {c: int(agg[c].iloc[0]) for c in agg.columns}
    n = r["n"]
    import math
    num = n * r["sxy"] - r["sx"] * r["sy"]
    da = n * r["sxx"] - r["sx"] * r["sx"]
    db = n * r["syy"] - r["sy"] * r["sy"]
    rho = float(num) / math.sqrt(float(da) * float(db))
    return pd.DataFrame({"n": np.array([n], dtype=np.int64),
                         "spearman": [rho]})


def q_psi_split(sf_dir: str):
    """PSI of the value distribution between the md5 train and test
    splits — the third leg of the split-drift family (q_feature_ttest
    tests the mean, q_ks_drift the exact distribution, PSI the binned
    industry score with its 0.1/0.25 rules of thumb). Same fixed
    cent-bin + Laplace smoothing scheme as q_psi_drift; one
    2×10-cell combiner aggregate, driver finish."""
    from pystreamfs_ray.sources import split_labels
    from pystreamfs_ray.util import ensure_cols

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "value"])
    bins, lo_c, hi_c = 10, 0, 50_000
    width = (hi_c - lo_c) // bins

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        lab = split_labels(df["event_id"].to_numpy())
        keep = (lab == "train") | (lab == "test")
        cents = np.floor(df["value"].to_numpy(np.float64)
                         * 100.0 + 0.5).astype(np.int64)[keep]
        b = np.clip((cents - lo_c) // width, 0, bins - 1)
        g = (pd.DataFrame({"split": lab[keep], "bin": b})
             .groupby(["split", "bin"], sort=False)
             .size().rename("cnt").reset_index())
        g["cnt"] = g["cnt"].astype(np.int64)
        return g

    counts = combine_sum(ev, partial, ["split", "bin"], ["cnt"]).to_pandas()
    counts = ensure_cols(counts, {"split": object, "bin": np.int64,
                                  "cnt": np.int64})
    piv = (counts.pivot_table(index="bin", columns="split",
                              values="cnt", aggfunc="sum", fill_value=0)
           .reindex(index=range(bins), columns=["train", "test"],
                    fill_value=0))
    ct = piv["train"].to_numpy(np.int64)
    cs = piv["test"].to_numpy(np.int64)
    n1, n2 = int(ct.sum()), int(cs.sum())
    p = (ct + 1).astype(np.float64) / float(n1 + bins)
    q_ = (cs + 1).astype(np.float64) / float(n2 + bins)
    psi = float(((q_ - p) * np.log(q_ / p)).sum())
    return pd.DataFrame({
        "n_train": np.array([n1], dtype=np.int64),
        "n_test": np.array([n2], dtype=np.int64),
        "psi": [psi],
    })


def q_auc(sf_dir: str):
    """EXACT distributed ROC AUC of the value score against the
    purchase label — the Mann-Whitney rank-sum form with proper tie
    handling, computed without ever materializing a global sort: the
    (cent-value, total-count, positive-count) support table is one
    bounded aggregate, doubled average ranks make every term an exact
    integer (same trick as q_spearman), and
    AUC = (Σ 2·rank⁺ − n⁺(n⁺+1)) / (2·n⁺·n⁻) is ONE float division of
    two exact integers — bit-identical to the oracle. Shuffle: the
    |support|-row count aggregate."""
    from pystreamfs_ray.util import ensure_cols

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = np.floor(df["value"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.int64)
        y = (df["event_type"].to_numpy() == "purchase").astype(np.int64)
        g = (pd.DataFrame({"v": v,
                           "c": np.ones(len(df), dtype=np.int64),
                           "cp": y})
             .groupby("v", sort=False, as_index=False).sum())
        return g

    counts = combine_sum(ev, partial, "v", ["c", "cp"]).to_pandas()
    counts = ensure_cols(counts, {"v": np.int64, "c": np.int64,
                                  "cp": np.int64})
    counts = counts.sort_values("v", ignore_index=True)
    c = counts["c"].to_numpy(np.int64)
    cp = counts["cp"].to_numpy(np.int64)
    cum_before = np.concatenate(([0], c.cumsum()[:-1]))
    r2 = 2 * cum_before + c + 1
    s2 = int((cp * r2).sum())          # Σ doubled ranks of positives
    n1 = int(cp.sum())
    n = int(c.sum())
    n0 = n - n1
    auc = float(s2 - n1 * (n1 + 1)) / float(2 * n1 * n0)
    return pd.DataFrame({
        "n_pos": np.array([n1], dtype=np.int64),
        "n_neg": np.array([n0], dtype=np.int64),
        "auc": [auc],
    })


def q_lift_curve(sf_dir: str):
    """Cumulative gains / lift table: events ranked into value deciles
    (exact NTILE, same machinery as q_calibration), walked from the
    top decile down — what fraction of all purchases the top-k% of the
    score captures, and the lift over random targeting. The decile
    counts are exact int64; gain and lift are single divisions of
    exact integers in the oracle's op order. Shuffles: the one ntile
    range exchange + a 10-row aggregate."""
    from pystreamfs_ray.stages.rank import global_ntile
    from pystreamfs_ray.util import ensure_cols

    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "event_type", "value"])
    tiled = global_ntile(ev, 10, value_col="value", id_col="event_id",
                         out_col="decile", extra_cols=["event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        is_p = (df["event_type"].to_numpy() == "purchase").astype(np.int64)
        g = (pd.DataFrame({"decile": df["decile"].to_numpy(np.int64),
                           "n": np.ones(len(df), dtype=np.int64),
                           "purchases": is_p})
             .groupby("decile", sort=False, as_index=False).sum())
        return g

    per = combine_sum(tiled, partial, "decile", ["n", "purchases"]).to_pandas()
    per = ensure_cols(per, {"decile": np.int64, "n": np.int64,
                            "purchases": np.int64})
    # bucket 1 = TOP decile (highest values): walk deciles descending
    per = per.sort_values("decile", ascending=False, ignore_index=True)
    cum_n = per["n"].to_numpy(np.int64).cumsum()
    cum_p = per["purchases"].to_numpy(np.int64).cumsum()
    tot_n, tot_p = int(cum_n[-1]), int(cum_p[-1])
    gain = cum_p.astype(np.float64) / float(tot_p)
    frac = cum_n.astype(np.float64) / float(tot_n)
    return pd.DataFrame({
        "bucket": np.arange(1, len(per) + 1, dtype=np.int64),
        "cum_n": cum_n,
        "cum_purchases": cum_p,
        "gain": gain,
        "lift": gain / frac,
    })


def q_interval_union(sf_dir: str):
    """Per-user merged-interval coverage: each event claims the span
    ``[ts, ts + round(value)·1s]`` (variable-length — NOT reducible to
    a fixed-gap sessionize), overlapping/touching spans are merged by
    the classic gaps-and-islands scan, and the output is the exact
    integer union length, merged-interval count and event count per
    user. One entity shuffle; inside the bucket the running max-end is
    a vectorized grouped cummax (no Python row loop). All-integer
    output, so no float-rounding policy is needed."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "user_id", "ts", "value"])

    def union(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort", ignore_index=True)
        s = g["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        # value has 2 decimals, so value*1e6 is integral up to float
        # noise — np.round (half-even) and SQL ROUND (half-away) agree
        dur = np.round(g["value"].to_numpy(np.float64) * 1e6).astype(np.int64)
        e = s + dur
        u = g["user_id"].to_numpy()
        # keep the running max-end in int64: µs epochs exceed 2^53, so
        # a float (NaN-shift) path would round ends to ~256 µs grains
        cm = (pd.Series(e).groupby(u, sort=False)
              .cummax().to_numpy(np.int64))
        prev_max_e = np.empty(len(g), dtype=np.int64)
        prev_max_e[0] = np.iinfo(np.int64).min
        prev_max_e[1:] = cm[:-1]
        first = np.ones(len(g), dtype=bool)
        first[1:] = u[1:] != u[:-1]
        new_island = first | (s > prev_max_e)
        island = np.cumsum(new_island)
        t = pd.DataFrame({"user_id": u, "island": island, "s": s, "e": e})
        isl = (t.groupby(["user_id", "island"], sort=False, as_index=False)
               .agg(lo=("s", "min"), hi=("e", "max")))
        out = (isl.assign(covered_us=isl["hi"] - isl["lo"])
               .groupby("user_id", sort=False, as_index=False)
               .agg(covered_us=("covered_us", "sum"),
                    n_intervals=("covered_us", "size")))
        cnt = (t.groupby("user_id", sort=False, as_index=False)
               .agg(n_events=("s", "size")))
        out = out.merge(cnt, on="user_id")
        for c in ("covered_us", "n_intervals", "n_events"):
            out[c] = out[c].astype(np.int64)
        return out

    return W.per_bucket(ev, union, entity_col="user_id",
                        num_buckets=_BUCKETS)


def q_kmv_distinct(sf_dir: str):
    """Per-event-type distinct-user estimate via a KMV (bottom-k /
    k-minimum-values) sketch — the third mergeable-sketch family next
    to HLL and CMS. Each batch keeps at most k=16 distinct
    md5-low-64 hashes per type (a combiner), the per-type merge keeps
    the k smallest of the union (bottom-k is closed under union, so
    the sketch is layout- and parallelism-invariant), and the
    estimate is exact when fewer than k hashes exist, else
    ``(k-1) / (kth_hash / 2^64)``. State shuffled is ≤ k rows per
    (type, block) — never the raw users."""
    from pystreamfs_ray.stages.dedup import _md5_lower64
    from pystreamfs_ray.util import arrow_combiner

    K = 16
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[["event_type", "user_id"]].drop_duplicates()
        h = _md5_lower64([str(v) for v in d["user_id"].tolist()])
        t = pd.DataFrame({"event_type": d["event_type"].to_numpy(),
                          "hv": h})
        t = t.drop_duplicates()
        t = t.sort_values(["event_type", "hv"], kind="mergesort")
        return t.groupby("event_type", sort=False).head(K)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        hv = np.unique(g["hv"].to_numpy(np.uint64))[:K]
        n_kept = len(hv)
        kth_norm = float(hv[-1]) / 18446744073709551616.0
        if n_kept < K:
            est = float(n_kept)
        else:
            est = round((K - 1) / kth_norm, 6)
        return pd.DataFrame({
            "event_type": [g["event_type"].iloc[0]],
            "n_kept": [np.int64(n_kept)],
            "kth_norm": [round(kth_norm, 9)],
            "est_distinct": [est],
        })

    return (ev.map_batches(arrow_combiner(partial),
                           batch_format="pyarrow")
            .groupby("event_type")
            .map_groups(finish, batch_format="pandas"))


def q_js_divergence(sf_dir: str):
    """Pairwise Jensen-Shannon divergence (base 2) between the
    per-source document-length distributions on a 16-bin equal-width
    grid over the GLOBAL [min, max] char range: a drift/contrast
    metric across corpus feeds. Bin assignment is exact integer
    arithmetic; the shuffled state is the |sources|×16 count table (a
    combiner pre-aggregates per batch), and the ≤ C(|sources|,2)
    divergences finish on the driver. Float determinism: per-bin terms
    use the oracle's exact op order (``0.5·p·log2(p / (0.5·(p+q)))``)
    and accumulate SEQUENTIALLY in ascending bin order, mirrored in SQL
    by ``list_sum(list(term ORDER BY bin))`` — a plain SUM's summation
    order is unspecified and a numpy pairwise sum differs, so ROUND 6
    of differently-ordered sums could flip near a 1e-6 boundary
    (ADVICE r4). The only residual cross-engine risk is a log2 ulp."""
    from pystreamfs_ray.util import ensure_cols

    BINS = 16
    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["source", "n_chars"])
    lohi = docs.aggregate(Min("n_chars"), Max("n_chars"))
    lo, hi = int(lohi["min(n_chars)"]), int(lohi["max(n_chars)"])
    width = hi - lo + 1

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        b = (df["n_chars"].to_numpy(np.int64) - lo) * BINS // width
        return (pd.DataFrame({"source": df["source"].to_numpy(),
                              "bin": b,
                              "n": np.ones(len(df), dtype=np.int64)})
                .groupby(["source", "bin"], sort=False, as_index=False)
                .sum())

    per = combine_sum(docs, partial, ["source", "bin"], ["n"]).to_pandas()
    per = ensure_cols(per, {"source": object, "bin": np.int64,
                            "n": np.int64})
    sources = sorted(per["source"].unique())
    dense = np.zeros((len(sources), BINS), dtype=np.float64)
    s_idx = {s: i for i, s in enumerate(sources)}
    for s, b, n in per.itertuples(index=False):  # |sources|×16 rows
        dense[s_idx[s], int(b)] = float(n)
    probs = dense / dense.sum(axis=1, keepdims=True)

    def _js(p: np.ndarray, q: np.ndarray) -> float:
        # sequential ascending-bin accumulation, op-for-op the oracle's
        # per-row expression (see docstring)
        total = np.float64(0.0)
        for k in range(BINS):
            pa_, pb_ = p[k], q[k]
            m = 0.5 * (pa_ + pb_)
            ta = 0.5 * pa_ * np.log2(pa_ / m) if pa_ > 0 else 0.0
            tb = 0.5 * pb_ * np.log2(pb_ / m) if pb_ > 0 else 0.0
            total = total + (ta + tb)
        return float(total)

    rows = []
    for i, a in enumerate(sources):
        for b in sources[i + 1:]:
            rows.append({
                "source_a": a, "source_b": b,
                "n_a": np.int64(dense[s_idx[a]].sum()),
                "n_b": np.int64(dense[s_idx[b]].sum()),
                "js_div": round(_js(probs[s_idx[a]], probs[s_idx[b]]), 6),
            })
    return pd.DataFrame(rows)


def q_discounted_return(sf_dir: str):
    """Per-event discounted return over the user's next H=8 events
    (gamma 0.9) — RL-style credit assignment over agent-transcript
    streams: ``G_i = Σ_{j<H} 0.9^j · value_{i+j}`` within the user, in
    (ts, event_id) order. EXACT arithmetic: value is quantized to
    integer cents and each term weighted by the integer
    ``9^j · 10^(H-1-j)``, so ``ret_scaled = G · 10^9`` is an int64 (a
    ROUND-4 float variant hit a decimal-tie boundary at sf0.001 —
    0.9^j has exactly j decimal digits, so true returns land ON round
    boundaries and summation-order noise flips them). The bounded
    horizon keeps the scan a fixed 8-shift vectorized add inside the
    entity bucket (one shuffle, no per-row loop). Output stays in the
    scaled-integer domain: ``/1e9`` terminates in decimal, so ANY float
    rounding of it has exact ties where half-even (numpy) and
    half-away (SQL ROUND) disagree — consumers divide at display
    time."""
    H = 8
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "user_id", "ts", "value"])
    weights = np.array([9 ** j * 10 ** (H - 1 - j) for j in range(H)],
                       dtype=np.int64)

    def ret(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort", ignore_index=True)
        u = g["user_id"].to_numpy()
        vc = np.round(g["value"].to_numpy(np.float64) * 100).astype(np.int64)
        n = len(g)
        acc = np.zeros(n, dtype=np.int64)
        for j in range(min(H, n)):
            same = u[j:] == u[: n - j]
            acc[: n - j] += np.where(same, vc[j:], 0) * weights[j]
        rn = (g.groupby("user_id", sort=False).cumcount()
              .to_numpy(np.int64))
        return pd.DataFrame({"user_id": u, "rn": rn,
                             "ret_scaled": acc})

    return W.per_bucket(ev, ret, entity_col="user_id",
                        num_buckets=_BUCKETS)


def q_bottomk_sample(sf_dir: str):
    """Exact-k deterministic uniform sample: the k=64 documents with
    the smallest md5-low-64 of their id (a bottom-k sample — the
    sampling twin of the KMV sketch). Unlike the rate-based
    ``sample_by_hash`` this yields EXACTLY k rows, is reproducible,
    and is partition-invariant: each batch pre-cuts to its local k
    smallest (a combiner), so the global sort-limit touches ≤ k rows
    per block, never the corpus."""
    from pystreamfs_ray.stages.dedup import _md5_lower64
    from pystreamfs_ray.util import arrow_combiner

    K = 64
    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = _md5_lower64([str(v) for v in df["doc_id"].tolist()])
        t = pd.DataFrame({"doc_id": df["doc_id"].to_numpy(np.int64),
                          # full-width uint64 hash: a float cast would
                          # quantize to 53 bits and could reorder ties
                          # near the rank-k boundary vs the SQL oracle
                          "hv": h})
        return t.nsmallest(K, ["hv", "doc_id"])

    pre = (docs.map_batches(arrow_combiner(partial),
                            batch_format="pyarrow")
           .to_pandas())  # ≤ k rows per block
    pre = pre.sort_values(["hv", "doc_id"], ignore_index=True).head(K)
    return pd.DataFrame({
        "rank": np.arange(1, len(pre) + 1, dtype=np.int64),
        "doc_id": pre["doc_id"].to_numpy(np.int64),
    })


def q_proportional_sample(sf_dir: str):
    """Exact proportional stratified sampling via the largest-remainder
    (Hamilton) method: K=200 documents allocated across sources so
    every stratum gets EXACTLY ``floor(n_s·K/N)`` plus one of the
    ``K − Σfloor`` leftovers by remainder rank (remainder desc, source
    asc tie-break) — the exact-count complement to the rate-based
    ``stratified_sample_by_hash`` (which only approximates stratum
    sizes). Selection within a stratum is the deterministic md5 order,
    so the sample is reproducible and partition-invariant. Shape: a
    bounded per-source count exchange → driver allocation on the
    |sources| table → per-batch per-source k_s-smallest combiner (≤ K
    rows leave each block) → final |sources|-grouped cut. All-integer;
    the allocation arithmetic is exact (n_s·K ≪ 2^63)."""
    from pystreamfs_ray.stages.dedup import _md5_lower64
    from pystreamfs_ray.util import arrow_combiner, ensure_cols

    K = 200
    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "source"])
    counts = ensure_cols(
        docs.groupby("source").aggregate(Count(alias_name="ns")).to_pandas(),
        {"source": object, "ns": np.int64})
    N = int(counts["ns"].sum())
    counts["base"] = counts["ns"].to_numpy(np.int64) * K // N
    counts["rem"] = counts["ns"].to_numpy(np.int64) * K % N
    leftovers = K - int(counts["base"].sum())
    counts = counts.sort_values(["rem", "source"],
                                ascending=[False, True],
                                kind="mergesort", ignore_index=True)
    counts["k_s"] = counts["base"] + (
        np.arange(len(counts)) < leftovers).astype(np.int64)
    alloc = dict(zip(counts["source"], counts["k_s"].astype(int)))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = _md5_lower64([str(v) for v in df["doc_id"].tolist()])
        t = pd.DataFrame({"source": df["source"].to_numpy(),
                          "doc_id": df["doc_id"].to_numpy(np.int64),
                          "hv": h})
        # per-source local k_s-smallest (full-width uint64 order)
        t = t.sort_values(["source", "hv", "doc_id"], kind="mergesort")
        keep = t.groupby("source", sort=False).cumcount().to_numpy()
        ks = t["source"].map(alloc).to_numpy(np.int64)
        return t[keep < ks]

    pre = (docs.map_batches(arrow_combiner(partial),
                            batch_format="pyarrow")
           .to_pandas())  # ≤ K rows per block
    pre = pre.sort_values(["source", "hv", "doc_id"], kind="mergesort",
                          ignore_index=True)
    rnk = pre.groupby("source", sort=False).cumcount().to_numpy() + 1
    ks = pre["source"].map(alloc).to_numpy(np.int64)
    out = pre[rnk <= ks]
    return pd.DataFrame({
        "source": out["source"].to_numpy(),
        "doc_id": out["doc_id"].to_numpy(np.int64),
        "rank_in_source": rnk[rnk <= ks].astype(np.int64),
    })


def q_unpivot_metrics(sf_dir: str):
    """Wide→long reshape (melt / UNPIVOT): the four lineitem measure
    columns become (metric, value) rows — the layout step feeding any
    metric-generic downstream (per-metric stats, drift, histograms).
    Pure row-expanding Arrow concat inside ``map_batches``: zero
    shuffles, zero Python row loops, 4× the input rows out. Values
    pass through untouched (no arithmetic → no rounding policy)."""
    MEASURES = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    li = read_parquet(_p(sf_dir, "lineitem"),
                      columns=["l_orderkey", "l_linenumber"] + MEASURES)

    def melt(t: pa.Table) -> pa.Table:
        parts = []
        for m in MEASURES:
            parts.append(pa.table({
                "l_orderkey": t["l_orderkey"],
                "l_linenumber": t["l_linenumber"],
                "metric": pa.array([m] * len(t), type=pa.string()),
                "value": t[m].cast(pa.float64()),
            }))
        return pa.concat_tables(parts)

    return li.map_batches(melt, batch_format="pyarrow")


def q_daily_ffill(sf_dir: str):
    """Per-user daily calendar densification with forward fill: the
    observed per-day spend (exact integer cents) is re-indexed onto
    every day between the user's first and last active day, missing
    days carry the last observed value (the classic
    as-of/ffill feature-store fill). Row expansion is bounded by
    users × day-span; the fill is a vectorized grouped ffill inside
    the entity bucket — one shuffle, all-integer output."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["user_id", "ts", "value"])

    def fill(g: pd.DataFrame) -> pd.DataFrame:
        day = (g["ts"].to_numpy("datetime64[us]").astype(np.int64)
               // 86_400_000_000)
        cents = np.round(g["value"].to_numpy(np.float64) * 100).astype(np.int64)
        d = (pd.DataFrame({"user_id": g["user_id"].to_numpy(),
                           "day": day, "cents": cents})
             .groupby(["user_id", "day"], sort=True, as_index=False)
             .agg(cents=("cents", "sum")))
        spans = (d.groupby("user_id", sort=False)["day"]
                 .agg(["min", "max"]))
        n_days = (spans["max"] - spans["min"] + 1).to_numpy(np.int64)
        uid = np.repeat(spans.index.to_numpy(), n_days)
        base = np.repeat(spans["min"].to_numpy(np.int64), n_days)
        offs = np.concatenate([np.arange(n, dtype=np.int64)
                               for n in n_days]) if len(n_days) else \
            np.array([], dtype=np.int64)
        grid = pd.DataFrame({"user_id": uid, "day": base + offs})
        out = grid.merge(d, on=["user_id", "day"], how="left")
        out["is_observed"] = out["cents"].notna()
        out["cents"] = (out.groupby("user_id", sort=False)["cents"]
                        .ffill().astype(np.int64))
        out["day"] = out["day"].astype(np.int64)
        return out

    return W.per_bucket(ev, fill, entity_col="user_id",
                        num_buckets=_BUCKETS)


def q_turns_since_tool(sf_dir: str):
    """Backward-looking distance feature over transcripts: for each
    turn, how many turns since the conversation's PREVIOUS tool-using
    turn (strictly earlier — leakage-safe by construction; turns with
    no prior tool use are omitted). A vectorized grouped cummax over
    the tool-turn indices inside the entity bucket; exact integers."""
    t = transcripts_from_events(sf_dir, num_buckets=_BUCKETS)

    def dist(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort",
                          ignore_index=True)
        rn = g["turn_idx"].to_numpy(np.int64)
        is_tool = (g["tool"].astype(str) != "").to_numpy()
        marked = np.where(is_tool, rn, np.int64(-1))
        at_or_before = (pd.Series(marked)
                        .groupby(g["conv_id"].to_numpy(), sort=False)
                        .cummax().to_numpy(np.int64))
        prev = np.empty(len(g), dtype=np.int64)
        prev[0] = -1
        prev[1:] = at_or_before[:-1]
        first = np.ones(len(g), dtype=bool)
        conv = g["conv_id"].to_numpy()
        first[1:] = conv[1:] != conv[:-1]
        prev[first] = -1
        keep = prev >= 0
        return pd.DataFrame({
            "conv_id": conv[keep],
            "turn_idx": rn[keep],
            "turns_since_tool": rn[keep] - prev[keep],
        })

    out = W.per_bucket(t, dist, entity_col="conv_id",
                       num_buckets=_BUCKETS)
    return out


def q_cusum(sf_dir: str):
    """Per-user CUSUM change-point peak over the daily spend series:
    the day where the cumulative deviation from the user's own mean
    peaks, plus the peak magnitude — the classic drift/shift detector
    as a FEATURE. Exact integer arithmetic end to end: with daily
    cents ``d_t``, prefix ``P_t``, total ``T`` over ``n`` days, the
    n-scaled statistic ``|n·P_t − t·T|`` avoids the mean division, so
    peaks and argmax (earliest-day tie-break) are layout-invariant
    integers. One entity shuffle; everything else is grouped cumsums
    inside the bucket."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["user_id", "ts", "value"])

    def cusum(g: pd.DataFrame) -> pd.DataFrame:
        day = (g["ts"].to_numpy("datetime64[us]").astype(np.int64)
               // 86_400_000_000)
        cents = np.round(g["value"].to_numpy(np.float64) * 100).astype(np.int64)
        d = (pd.DataFrame({"user_id": g["user_id"].to_numpy(),
                           "day": day, "cents": cents})
             .groupby(["user_id", "day"], sort=True, as_index=False)
             .agg(cents=("cents", "sum")))
        grp = d.groupby("user_id", sort=False)
        pre = grp["cents"].cumsum().to_numpy(np.int64)
        t = (grp.cumcount() + 1).to_numpy(np.int64)
        total = grp["cents"].transform("sum").to_numpy(np.int64)
        n = grp["cents"].transform("size").to_numpy(np.int64)
        a = np.abs(n * pre - t * total)
        s = pd.DataFrame({"user_id": d["user_id"], "day": d["day"],
                          "a": a, "n": n})
        # earliest day wins ties: stable sort desc by a, asc by day
        s = s.sort_values(["user_id", "a", "day"],
                          ascending=[True, False, True],
                          kind="mergesort", ignore_index=True)
        out = s.groupby("user_id", sort=False, as_index=False).first()
        return pd.DataFrame({
            "user_id": out["user_id"],
            "n_days": out["n"].astype(np.int64),
            "peak_day": out["day"].astype(np.int64),
            "cusum_abs_scaled": out["a"].astype(np.int64),
        })

    return W.per_bucket(ev, cusum, entity_col="user_id",
                        num_buckets=_BUCKETS)


def q_embedding_anomaly(sf_dir: str):
    """Per-vector anomaly score: the diagonal-covariance (standardized
    Euclidean) Mahalanobis distance of each embedding from the corpus
    centroid. Embeddings are quantized to an exact 2^12 integer grid
    FIRST, so the per-dimension sums (Σq, Σq²) are layout-invariant
    int64 and both engine and oracle derive bit-identical per-dim
    doubles ``a=n·q−S``, ``b=n·SS−S²``. Each dimension contributes the
    exact integer ``floor(a²/b · 10⁶)`` (every op IEEE-deterministic on
    identical inputs), so the cross-dimension total is an ORDER-FREE
    int64 add — no float summation anywhere (the earlier ROUND-6
    float-sum variant depended on numpy pairwise vs SQL sequential
    summation order agreeing, an unproven tie risk — ADVICE r4).
    Zero-variance dimensions (``b == 0``) are skipped explicitly on
    both sides instead of relying on engine-specific inf/NaN division.
    Combiner shape: one (Σq, Σq²) vector pair per batch, O(blocks·d)
    exchange; scoring is a broadcast vectorized pass. At 10^12 rows the
    int64 power sums need the same arbitrary-precision escalation as
    the grouped-moment operators (documented there); the grid keeps
    sf-scale sums ≪2^63."""
    GRID = 4096.0
    emb = read_parquet(_p(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        X = np.stack(df["embedding"].to_numpy())
        F = np.floor(X.astype(np.float64) * GRID)
        Q = F.astype(np.int64)
        return pd.DataFrame({"n": [len(Q)],
                             "s": [Q.sum(axis=0)],
                             "ss": [(Q * Q).sum(axis=0)],
                             "ss_f": [(F * F).sum(axis=0)]})

    parts = emb.map_batches(partial, batch_format="pandas").to_pandas()
    n = int(parts["n"].sum())
    # every int64 value below (q², Σq², (Σq)², n·q) is at most n·Σq²,
    # so the power sums are exact iff n·Σq² < 2^63 — where the
    # oracle's BIGINT products overflow too; raise instead of wrapping
    ss_f = np.sum(np.stack(parts["ss_f"].to_list()), axis=0)
    if n * ss_f.max(initial=0.0) >= 2.0**63:
        raise OverflowError("q_embedding_anomaly: n·Σq² reaches 2^63 on "
                            "the 2^12 grid; the int64 power sums would wrap")
    S = np.sum(np.stack(parts["s"].to_list()), axis=0).astype(np.int64)
    SS = np.sum(np.stack(parts["ss"].to_list()), axis=0).astype(np.int64)
    b_int = n * SS - S * S                   # n²·var per dim, exact int64
    b = b_int.astype(np.float64)
    live = b_int != 0                        # skip zero-variance dims

    def score(df: pd.DataFrame) -> pd.DataFrame:
        X = np.stack(df["embedding"].to_numpy())
        Q = np.floor(X.astype(np.float64) * GRID).astype(np.int64)
        a = (n * Q - S).astype(np.float64)   # n·(q−mean) per dim, exact
        # per-dim exact integer ppm terms; the sum is order-free int64
        terms = np.floor((a[:, live] * a[:, live]) / b[live] * 1e6)
        # a² ≤ (n−1)·b bounds each term by (n−1)·10⁶, but the row total
        # over d dims can still pass 2^63 (the oracle's CAST fails there)
        if (terms.sum(axis=1) >= 2.0**63).any():
            raise OverflowError("q_embedding_anomaly: a ppm total reaches "
                                "2^63; the int64 cast would wrap")
        return pd.DataFrame({
            "vec_id": df["vec_id"].to_numpy(np.int64),
            "anomaly_ppm": terms.astype(np.int64).sum(axis=1),
        })

    return emb.map_batches(score, batch_format="pandas")


def q_markov_baseline(sf_dir: str):
    """First-order Markov baseline for next-event prediction: per
    current event type, the majority next type (count-desc,
    lexicographic tie-break) and its exact hit count over every
    consecutive within-user pair — the sanity baseline any sequence
    model over the transcript stream has to beat. Pair extraction is
    a vectorized shift inside the entity bucket; the reduce is the
    |types|² count table. All-integer output — accuracy ships as exact
    floor-divided parts-per-million (a float n/total can land exactly
    on a rounding tie, e.g. 5/80000)."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "user_id", "ts", "event_type"])

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort", ignore_index=True)
        u = g["user_id"].to_numpy()
        t = g["event_type"].to_numpy()
        same = u[1:] == u[:-1]
        return (pd.DataFrame({"cur": t[:-1][same], "nxt": t[1:][same],
                              "n": np.int64(1)})
                .groupby(["cur", "nxt"], sort=False, as_index=False)
                .sum())

    counts = (W.per_bucket(ev, pairs, entity_col="user_id",
                           num_buckets=_BUCKETS)
              .groupby(["cur", "nxt"])
              .aggregate(Sum("n", alias_name="n"))
              .to_pandas())
    counts["n"] = counts["n"].astype(np.int64)
    counts = counts.sort_values(["cur", "n", "nxt"],
                                ascending=[True, False, True],
                                kind="mergesort", ignore_index=True)
    top = counts.groupby("cur", sort=False, as_index=False).first()
    tot = (counts.groupby("cur", sort=False, as_index=False)
           .agg(n_total=("n", "sum")))
    out = top.merge(tot, on="cur")
    return pd.DataFrame({
        "event_type": out["cur"],
        "majority_next": out["nxt"],
        "n_correct": out["n"].astype(np.int64),
        "n_total": out["n_total"].astype(np.int64),
        "acc_ppm": (out["n"].to_numpy(np.int64) * 1_000_000
                    // out["n_total"].to_numpy(np.int64)),
    })


_MRR_QUERIES = [("join", "filter"), ("sort", "merge"),
                ("window", "hash"), ("stream", "batch")]


def q_mrr(sf_dir: str):
    """MRR@10 of BM25 lexical retrieval — the ranking-quality eval for
    the lexical side of the retrieval family (the vector side has
    recall@k and nDCG). For each fixed two-term query, docs rank by
    (ROUND-6 BM25 desc, doc_id asc) — identical to ``q_rrf``'s proven
    ordering — and a doc is relevant iff it contains BOTH terms.
    Per-block top-10 combiners keep the rank cut distributed; the
    single relevance pass scans the corpus once for all queries but
    emits only the ≤ |Q|·10 candidate ids. Reciprocal rank ships as
    exact floor ppm."""
    import re as _re

    from pystreamfs_ray.stages.index import bm25_scores
    from pystreamfs_ray.util import arrow_combiner, ensure_cols

    K = 10
    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "text"])

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["score", "doc_id"],
                              ascending=[False, True]).head(K)

    tops = {}
    for qi, terms in enumerate(_MRR_QUERIES):
        scored = bm25_scores(docs, list(terms))
        top = ensure_cols(
            scored.map_batches(arrow_combiner(topk),
                               batch_format="pyarrow").to_pandas(),
            {"doc_id": "int64", "score": "float64"})
        tops[qi] = (top.sort_values(["score", "doc_id"],
                                    ascending=[False, True],
                                    ignore_index=True).head(K))

    cand = sorted(set().union(*(set(t["doc_id"]) for t in tops.values())))
    pats = [(qi,
             _re.compile(r"(?<!\S)" + _re.escape(a) + r"(?!\S)"),
             _re.compile(r"(?<!\S)" + _re.escape(b) + r"(?!\S)"))
            for qi, (a, b) in enumerate(_MRR_QUERIES)]

    def rel(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[df["doc_id"].isin(cand)]
        qid, did = [], []
        for qi, p1, p2 in pats:
            m = sub[(sub["text"].str.count(p1) > 0)
                    & (sub["text"].str.count(p2) > 0)]
            qid.extend([qi] * len(m))
            did.extend(m["doc_id"].tolist())
        return pd.DataFrame({"query_id": np.array(qid, dtype=np.int64),
                             "doc_id": np.array(did, dtype=np.int64)})

    rel_pairs = set(map(tuple, docs.map_batches(
        rel, batch_format="pandas").to_pandas().itertuples(index=False)))

    rows = []
    for qi, (a, b) in enumerate(_MRR_QUERIES):
        rank = 0
        for r, doc in enumerate(tops[qi]["doc_id"].tolist(), start=1):
            if (qi, doc) in rel_pairs:
                rank = r
                break
        rows.append({"query_id": np.int64(qi), "term_a": a, "term_b": b,
                     "first_rel_rank": np.int64(rank),
                     "rr_ppm": np.int64(1_000_000 // rank if rank else 0)})
    return pd.DataFrame(rows)


def q_expanding_minmax(sf_dir: str):
    """Causal expanding min-max normalization per user — the
    reference's per-window min-max scaling (pystreamfs prepares
    features with min-max per batch, pystreamfs.py:61 area) recast as
    a STREAMING feature: each event's value is positioned within the
    user's history SO FAR ([0,1] over the expanding min..max), so the
    feature is leakage-safe by construction. Grouped cummin/cummax
    (vectorized) inside the entity bucket; the position ships as exact
    floor ppm over integer cents — a float ratio of small-denominator
    rationals can terminate exactly on a ROUND tie. Rows before the
    user's range opens (max == min) are emitted with pos_ppm = -1."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "user_id", "ts", "value"])

    def pos(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort", ignore_index=True)
        u = g["user_id"].to_numpy()
        vc = np.round(g["value"].to_numpy(np.float64) * 100).astype(np.int64)
        grp = pd.Series(vc).groupby(u, sort=False)
        mn = grp.cummin().to_numpy(np.int64)
        mx = grp.cummax().to_numpy(np.int64)
        rn = (g.groupby("user_id", sort=False).cumcount()
              .to_numpy(np.int64))
        span = mx - mn
        ppm = np.where(span > 0, (vc - mn) * 1_000_000 // np.maximum(span, 1),
                       np.int64(-1))
        return pd.DataFrame({"user_id": u, "rn": rn,
                             "cents": vc, "pos_ppm": ppm})

    return W.per_bucket(ev, pos, entity_col="user_id",
                        num_buckets=_BUCKETS)


def q_lsh_quality(sf_dir: str):
    """Precision/recall audit of the MinHash-LSH near-dup detector
    against EXACT word-3-shingle Jaccard ground truth on the bounded
    doc_id<100 audit subset (the sampled-eval methodology: production
    dedup stays LSH; this measures what it buys). The threshold
    compare is integer cross-multiplied (5·|∩| ≥ |∪| for τ=0.2), so
    truth has no float anywhere; shingle identity uses md5-low-64 on
    BOTH sides. Ratios ship as exact floor ppm."""
    import pyarrow.dataset as pds

    from pystreamfs_ray.stages.dedup import (_md5_lower64, _shingle_set,
                                             minhash_lsh_pairs)
    from pystreamfs_ray.util import ensure_cols

    docs = read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"],
                        filter=(pds.field("doc_id") < 100))
    cand = ensure_cols(minhash_lsh_pairs(docs, threshold=0.2).to_pandas(),
                       {"id_a": "int64", "id_b": "int64"})
    cand_set = set(zip(cand["id_a"].tolist(), cand["id_b"].tolist()))

    def shingles(df: pd.DataFrame) -> pd.DataFrame:
        hs = [np.unique(_md5_lower64(_shingle_set(t, 3)))
              for t in df["text"]]
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(np.int64),
                             "hs": hs})

    sh = docs.map_batches(shingles, batch_format="pandas").to_pandas()
    sets = {int(r.doc_id): set(r.hs.tolist()) for r in sh.itertuples()}
    ids = sorted(sets)
    truth = set()
    for i, a in enumerate(ids):          # bounded audit subset only
        sa = sets[a]
        for b in ids[i + 1:]:
            inter = len(sa & sets[b])
            if 5 * inter >= len(sa) + len(sets[b]) - inter:
                truth.add((a, b))

    n_cand, n_truth = len(cand_set), len(truth)
    n_hit = len(cand_set & truth)
    return pd.DataFrame({
        "n_candidates": [np.int64(n_cand)],
        "n_truth": [np.int64(n_truth)],
        "n_hit": [np.int64(n_hit)],
        "precision_ppm": [np.int64(n_hit * 1_000_000 // n_cand
                                   if n_cand else 0)],
        "recall_ppm": [np.int64(n_hit * 1_000_000 // n_truth
                                if n_truth else 0)],
    })


def q_tail_mean(sf_dir: str):
    """Per-user tail risk: the mean of the user's top-decile event
    values (expected-shortfall style — the heavy-spend feature a
    mean hides). k = ceil(n/10) top values by (cents desc, event_id
    asc); the sum and k are exact int64 and the mean is ONE division
    of identical integers on both sides (bit-equal without rounding).
    One entity shuffle; per-bucket vectorized sort + grouped head."""
    ev = read_parquet(_p(sf_dir, "events"),
                      columns=["event_id", "user_id", "value"])

    def tail(g: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(g["value"].to_numpy(np.float64) * 100).astype(np.int64)
        t = pd.DataFrame({"user_id": g["user_id"].to_numpy(),
                          "cents": cents,
                          "event_id": g["event_id"].to_numpy(np.int64)})
        t = t.sort_values(["user_id", "cents", "event_id"],
                          ascending=[True, False, True],
                          kind="mergesort", ignore_index=True)
        grp = t.groupby("user_id", sort=False)
        rn = grp.cumcount().to_numpy(np.int64)
        n = grp["cents"].transform("size").to_numpy(np.int64)
        k = -(-n // 10)   # ceil(n/10)
        kept = t[rn < k]
        out = (kept.groupby("user_id", sort=False, as_index=False)
               .agg(k=("cents", "size"), tail_sum_cents=("cents", "sum")))
        out["k"] = out["k"].astype(np.int64)
        out["tail_sum_cents"] = out["tail_sum_cents"].astype(np.int64)
        out["tail_mean_cents"] = (
            out["tail_sum_cents"].to_numpy(np.float64)
            / out["k"].to_numpy(np.float64))
        return out

    return W.per_bucket(ev, tail, entity_col="user_id",
                        num_buckets=_BUCKETS)


def q_day_overlap(sf_dir: str):
    """Day-over-day audience Jaccard: for each consecutive observed
    day pair, |users active both days| / |users active either day| —
    the stickiness curve behind retention. The intersection is counted
    INSIDE the user bucket (a user's sorted distinct days: each
    (d, d+1) adjacency contributes one), so only per-day int counts
    shuffle; Jaccard ships as exact floor ppm."""
    from pystreamfs_ray.util import ensure_cols

    ev = read_parquet(_p(sf_dir, "events"), columns=["user_id", "ts"])

    def days(g: pd.DataFrame) -> pd.DataFrame:
        day = (g["ts"].to_numpy("datetime64[us]").astype(np.int64)
               // 86_400_000_000)
        d = (pd.DataFrame({"user_id": g["user_id"].to_numpy(),
                           "day": day})
             .drop_duplicates().sort_values(["user_id", "day"],
                                            kind="mergesort",
                                            ignore_index=True))
        u = d["user_id"].to_numpy()
        dy = d["day"].to_numpy(np.int64)
        adj = (u[1:] == u[:-1]) & (dy[1:] == dy[:-1] + 1)
        act = pd.DataFrame({"day": dy, "n_act": np.int64(1),
                            "n_next": np.int64(0)})
        nxt = pd.DataFrame({"day": dy[:-1][adj],
                            "n_act": np.int64(0),
                            "n_next": np.int64(1)})
        return (pd.concat([act, nxt], ignore_index=True)
                .groupby("day", sort=False, as_index=False).sum())

    per_day = (W.per_bucket(ev, days, entity_col="user_id",
                            num_buckets=_BUCKETS)
               .groupby("day")
               .aggregate(Sum("n_act", alias_name="n_act"),
                          Sum("n_next", alias_name="n_next"))
               .to_pandas())
    per_day = ensure_cols(per_day, {"day": np.int64, "n_act": np.int64,
                                    "n_next": np.int64})
    per_day = per_day.sort_values("day", ignore_index=True)
    d = per_day["day"].to_numpy(np.int64)
    act = per_day["n_act"].to_numpy(np.int64)
    inter = per_day["n_next"].to_numpy(np.int64)
    keep = np.zeros(len(d), dtype=bool)
    keep[:-1] = d[1:] == d[:-1] + 1
    day_a = d[keep]
    i_ = inter[keep]
    n_a = act[keep]
    n_b = act[np.roll(keep, 1)]
    union = n_a + n_b - i_
    return pd.DataFrame({
        "day": day_a,
        "n_day": n_a,
        "n_next_day": n_b,
        "n_both": i_,
        "jaccard_ppm": i_ * 1_000_000 // union,
    })


def q_ttr(sf_dir: str):
    """Type-token ratio (lexical diversity) per document — the repeat-
    vocabulary quality signal next to the repetition filters: distinct
    words / words, doc-local and shuffle-free. The counts are exact
    ints (explode + grouped nunique, C-level — no Python row loop);
    the ratio ships as floor ppm."""
    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "text"])

    def ttr(df: pd.DataFrame) -> pd.DataFrame:
        words = df["text"].str.strip().str.split(r"\s+")
        ex = words.explode()
        grp = ex.groupby(level=0)
        n_tokens = grp.size().to_numpy(np.int64)
        n_types = grp.nunique().to_numpy(np.int64)
        empty = df["text"].str.strip().eq("").to_numpy()
        n_tokens = np.where(empty, 0, n_tokens)
        n_types = np.where(empty, 0, n_types)
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(np.int64),
            "n_tokens": n_tokens,
            "n_types": n_types,
            "ttr_ppm": np.where(n_tokens > 0,
                                n_types * 1_000_000
                                // np.maximum(n_tokens, 1),
                                np.int64(0)),
        })

    return docs.map_batches(ttr, batch_format="pandas")


def q_ngram_novelty(sf_dir: str):
    """Corpus novelty curve: per document (in doc_id order), how many
    of its distinct word-3-shingles appear in NO earlier document —
    the diminishing-returns signal dataset curation reads before
    adding a feed. Shingles hash to md5-low-64 (text never shuffles);
    one grouped MIN(doc_id) attributes each shingle to its first doc,
    and both per-doc tallies (distinct shingles, novel shingles) are
    bounded combiner aggregates joined on doc_id. Novelty ships as
    exact floor ppm."""
    from pystreamfs_ray.stages.dedup import _md5_lower64, _shingle_set
    from pystreamfs_ray.util import arrow_combiner, ensure_cols

    docs = read_parquet(_p(sf_dir, "documents"),
                        columns=["doc_id", "text"])

    def grams(df: pd.DataFrame) -> pd.DataFrame:
        ids, hs = [], []
        for d, t in zip(df["doc_id"].to_numpy(np.int64), df["text"]):
            u = np.unique(_md5_lower64(_shingle_set(t, 3)))
            ids.append(np.full(len(u), d, dtype=np.int64))
            # int64 two's-complement view: h is only ever a GROUP key
            # (bijective, same groups) and Ray's shuffle falls back to
            # pickled objects on uint64 columns
            hs.append(u.view(np.int64))
        return pd.DataFrame({
            "doc_id": np.concatenate(ids) if ids else
            np.array([], dtype=np.int64),
            "h": np.concatenate(hs) if hs else
            np.array([], dtype=np.int64),
        })

    pairs = docs.map_batches(arrow_combiner(grams),
                             batch_format="pyarrow")
    # two tallies re-keyed onto doc_id and merged by ONE aggregate —
    # no |docs|-sized driver table (the docs axis is data-sized at
    # 10^12 turns, so the per-doc join must stay distributed)

    def tag_total(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"],
                         "n_grams": t["_cnt"].cast(pa.int64()),
                         "n_novel": pa.array([0] * len(t),
                                             type=pa.int64())})

    def tag_novel(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["first_doc"],
                         "n_grams": pa.array([0] * len(t),
                                             type=pa.int64()),
                         "n_novel": t["_cnt"].cast(pa.int64())})

    total = (pairs.groupby("doc_id")
             .aggregate(Count(alias_name="_cnt"))
             .map_batches(tag_total, batch_format="pyarrow"))
    novel = (pairs.groupby("h")
             .aggregate(Min("doc_id", alias_name="first_doc"))
             .groupby("first_doc")
             .aggregate(Count(alias_name="_cnt"))
             .map_batches(tag_novel, batch_format="pyarrow"))
    merged = (total.union(novel)
              .groupby("doc_id")
              .aggregate(Sum("n_grams", alias_name="n_grams"),
                         Sum("n_novel", alias_name="n_novel"))
              .to_pandas())
    merged = ensure_cols(merged, {"doc_id": np.int64, "n_grams": np.int64,
                                  "n_novel": np.int64})
    for c in ("doc_id", "n_grams", "n_novel"):
        merged[c] = merged[c].astype(np.int64)
    merged["novelty_ppm"] = (
        merged["n_novel"].to_numpy(np.int64) * 1_000_000
        // np.maximum(merged["n_grams"].to_numpy(np.int64), 1))
    return merged
