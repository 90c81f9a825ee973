"""Salted distributed prequential evaluation.

The reference evaluates every window by training on the temporal prefix
(`/root/reference/pystreamfs/utils.py:35-52`). Done inline per entity,
a mega-conversation makes one straggler task (its whole eval is
sequential). This stage SALTS the work: each entity's windows are split
into chunks of ``chunk_windows``; a chunk's eval needs only the rows in
``[chunk_start*bs - max_history, chunk_end*bs)``, so feature rows are
replicated to just the chunks that need them (replication factor
1 + max_history/(chunk_windows*bs), and only entities longer than one
chunk pay it). Chunks of the same entity land in different groups →
a hot entity's evaluation parallelizes across the cluster while
remaining bit-identical to the inline computation (tested).

Requires ``order_col`` to be a dense per-entity rank (turn_idx is, by
construction, for both the synthesized transcripts and the
events-derived ones) — that is what lets a row know its window without
a prior global sort.

Output: one row per (kernel, conv_id, window_id) with ``acc``.

The per-entity replication cap is broadcast when it passes
``util.fits_broadcast`` (the one broadcast gate), else hash-joined.

A standalone operator (driver query ``q_eval_salted``): the flagship
pipeline evaluates inline in the selector fold, because routing the
mega-conversations' eval through this stage lost end to end on every
machine it was measured on (SCALE.md, "Eval skew router").
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from pystreamfs_ray.models import MODELS, gather_selected
from pystreamfs_ray.schema import FEATURE_COLS, LABEL_COL
from pystreamfs_ray.stages.window import lag_delta_seconds
from pystreamfs_ray.util import (bucket_array, drop_empty_blocks,
                                 fits_broadcast, shuffle_partitions)


def evaluate_windows(
    features_ds,
    specs_ds,
    *,
    batch_size: int = 50,
    max_history: int = 10_000,
    model: str = "knn",
    entity_col: str = "conv_id",
    order_col: str = "turn_idx",
    ts_col: str = "ts",
    feature_cols: list[str] | None = None,
    label_col: str = LABEL_COL,
    chunk_windows: int = 200,
    num_buckets: int = 64,
):
    """specs_ds: (kernel, conv_id, window_id, selected) — selector output."""
    feature_cols = list(feature_cols or FEATURE_COLS)
    in_cols = set(features_ds.schema().names)
    # lag feature missing upstream → recompute per chunk from ts; one
    # extra window of margin rows so every used row's predecessor is local
    lag_local = "f_ts_delta_s" in feature_cols and "f_ts_delta_s" not in in_cols
    hist_windows = int(np.ceil(max_history / batch_size)) + (1 if lag_local else 0)

    fschema = pa.schema(
        [pa.field(entity_col, pa.string()), pa.field("__side", pa.int8()),
         pa.field("__chunk", pa.int32()), pa.field(order_col, pa.int64()),
         pa.field(label_col, pa.int64())]
        + ([pa.field(ts_col, pa.timestamp("us"))] if lag_local else [])
        + [pa.field(c, pa.float64()) for c in feature_cols if not (lag_local and c == "f_ts_delta_s")]
        + [pa.field("kernel", pa.string()), pa.field("window_id", pa.int64()),
           pa.field("selected", pa.list_(pa.int32()))]
    )

    def explode_features(t: pa.Table, cap_chunk: np.ndarray) -> pa.Table:
        order = pc.cast(t[order_col], pa.int64()).to_numpy(zero_copy_only=False)
        w = order // batch_size
        first = (w // chunk_windows).astype(np.int64)
        last = np.minimum(((w + hist_windows) // chunk_windows).astype(np.int64),
                          np.maximum(cap_chunk, first))
        reps = (last - first + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(order)), reps)
        # chunk id per replicated row: first[i] .. last[i], vectorized
        offsets = np.concatenate(([0], np.cumsum(reps)))
        pos_in_rep = np.arange(int(reps.sum())) - np.repeat(offsets[:-1], reps)
        chunk = (first[idx] + pos_in_rep).astype(np.int32)
        base = t.take(pa.array(idx))
        n = len(base)
        arrays = []
        for f in fschema:
            if f.name == "__side":
                arrays.append(pa.array(np.zeros(n, dtype=np.int8)))
            elif f.name == "__chunk":
                arrays.append(pa.array(chunk, type=pa.int32()))
            elif f.name in base.column_names:
                arrays.append(base[f.name].cast(f.type))
            else:
                arrays.append(pa.nulls(n, f.type))
        return pa.Table.from_arrays(arrays, schema=fschema)

    def explode_specs(t: pa.Table) -> pa.Table:
        wid = pc.cast(t["window_id"], pa.int64()).to_numpy(zero_copy_only=False)
        chunk = (wid // chunk_windows).astype(np.int32)
        n = len(t)
        arrays = []
        for f in fschema:
            if f.name == "__side":
                arrays.append(pa.array(np.ones(n, dtype=np.int8)))
            elif f.name == "__chunk":
                arrays.append(pa.array(chunk, type=pa.int32()))
            elif f.name in t.column_names:
                arrays.append(t[f.name].cast(f.type))
            else:
                arrays.append(pa.nulls(n, f.type))
        return pa.Table.from_arrays(arrays, schema=fschema)

    # Replication cap: a row never needs chunks beyond its entity's last
    # window. The per-entity max window comes from the (small) specs side
    # — broadcast once when it fits; above the gate (10^9 entities
    # would be a driver-side materialization) fall back to a distributed
    # hash join of the cap onto the feature rows. Without the cap every
    # SHORT conversation would be replicated 1 + hist/chunk times and
    # the shuffle volume explodes.
    import ray
    from ray.data.aggregate import Max

    maxw_ds = (
        specs_ds.groupby(entity_col)
        .aggregate(Max("window_id", alias_name="__maxw"))
        .materialize()
    )
    if fits_broadcast(maxw_ds):
        maxw_pdf = maxw_ds.to_pandas()
        maxw_ref = ray.put(
            dict(zip(maxw_pdf[entity_col], maxw_pdf["__maxw"].astype(np.int64)))
        )

        def explode_features_capped(t: pa.Table) -> pa.Table:
            maxw = ray.get(maxw_ref)
            ents = t[entity_col].to_pylist()
            cap = np.fromiter((maxw.get(e, 0) for e in ents), dtype=np.int64,
                              count=len(ents)) // chunk_windows
            return explode_features(t, cap)

        lt = features_ds.map_batches(explode_features_capped, batch_format="pyarrow")
    else:
        num_partitions = shuffle_partitions()
        capped = features_ds.join(
            drop_empty_blocks(maxw_ds, num_partitions),
            join_type="inner", num_partitions=num_partitions,
            on=(entity_col,), right_on=(entity_col,),
        )

        def explode_features_joined(t: pa.Table) -> pa.Table:
            cap = (
                pc.cast(t["__maxw"], pa.int64()).to_numpy(zero_copy_only=False)
                // chunk_windows
            )
            return explode_features(t.drop_columns(["__maxw"]), cap)

        lt = capped.map_batches(explode_features_joined, batch_format="pyarrow")
    rt = specs_ds.map_batches(explode_specs, batch_format="pyarrow")
    both = lt.union(rt)

    def assign_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__bucket",
            pa.array(bucket_array(t[entity_col].to_pylist(), num_buckets),
                     type=pa.int32()),
        )

    def eval_group(g: pa.Table) -> pa.Table:
        rows = g.filter(pc.equal(g["__side"], 0))
        specs = g.filter(pc.equal(g["__side"], 1))
        if len(specs) == 0:
            return pa.table({"kernel": pa.array([], pa.string()),
                             entity_col: pa.array([], pa.string()),
                             "window_id": pa.array([], pa.int64()),
                             "acc": pa.array([], pa.float64())})
        rdf = pd.DataFrame(
            {entity_col: rows[entity_col].to_pandas(),
             order_col: rows[order_col].to_pandas(),
             label_col: rows[label_col].to_pandas()}
        )
        if lag_local and len(rows):
            # recompute the lag feature locally, in (entity, rank) order
            ent = rdf[entity_col].to_numpy()
            o = np.lexsort((rdf[order_col].to_numpy(), ent))
            delta = np.empty(len(o))
            delta[o] = lag_delta_seconds(ent[o], rows[ts_col].to_numpy()[o])
        mats = []
        for c in feature_cols:
            if lag_local and c == "f_ts_delta_s":
                mats.append(delta)
            else:
                mats.append(rows[c].to_numpy(zero_copy_only=False))
        feats = np.column_stack(mats) if len(rows) else np.zeros((0, len(feature_cols)))

        out_k, out_c, out_w, out_a = [], [], [], []
        sdf = pd.DataFrame(
            {"kernel": specs["kernel"].to_pandas(),
             entity_col: specs[entity_col].to_pandas(),
             "window_id": specs["window_id"].to_pandas(),
             "selected": specs["selected"].to_pylist()}
        )
        rgroups = {cid: grp for cid, grp in rdf.groupby(entity_col, sort=False)}
        for cid, sgrp in sdf.groupby(entity_col, sort=False):
            conv_rows = rgroups.get(cid)
            if conv_rows is None:
                continue
            order = np.argsort(conv_rows[order_col].to_numpy(), kind="stable")
            ridx = conv_rows.index.to_numpy()[order]
            ranks = rdf.loc[ridx, order_col].to_numpy()
            X = feats[ridx]
            Y = rdf.loc[ridx, label_col].to_numpy()
            for _, spec in sgrp.iterrows():
                wid = int(spec["window_id"])
                sel = np.asarray(spec["selected"], dtype=np.int64)
                i0 = wid * batch_size
                test_m = (ranks >= i0) & (ranks < i0 + batch_size)
                if not test_m.any():
                    continue
                x_test = gather_selected(X[test_m], sel)
                y_test = Y[test_m]
                if wid == 0:
                    x_train, y_train = x_test, y_test
                else:
                    lo = max(0, i0 - max_history)
                    train_m = (ranks >= lo) & (ranks < i0)
                    x_train = gather_selected(X[train_m], sel)
                    y_train = Y[train_m]
                m = MODELS[model]()
                m.fit(x_train, y_train)
                acc = float(np.mean(m.predict(x_test) == y_test.astype(np.int64)))
                out_k.append(spec["kernel"])
                out_c.append(cid)
                out_w.append(wid)
                out_a.append(acc)
        return pa.table({"kernel": pa.array(out_k, pa.string()),
                         entity_col: pa.array(out_c, pa.string()),
                         "window_id": pa.array(out_w, pa.int64()),
                         "acc": pa.array(out_a, pa.float64())})

    return (
        both.map_batches(assign_bucket, batch_format="pyarrow")
        .groupby(["__bucket", "__chunk"])
        .map_groups(eval_group, batch_format="pyarrow")
    )
