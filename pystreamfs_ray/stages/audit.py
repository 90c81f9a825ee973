"""Data-quality audit: one summary row of integrity counts for a
table — row count, duplicate-key count, out-of-range values, null
counts, value bounds.

The reference trusts its inputs (numpy matrices prepared in-process);
a corpus engine ingesting external parquet needs the audit pass that
gates a pipeline run ("refuse to train if keys collide or prices go
negative"). Everything here is the combiner pattern: per-batch partial
counts (a handful of int64s per batch) plus one groupby-count on the
key column for duplicate detection — the only shuffle, keyed and
combiner-pre-aggregated, so the exchange is key-cardinality-bounded.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from pystreamfs_ray.util import arrow_block, arrow_combiner, combine_sum


def table_audit(ds, *, key_col: str, numeric_col: str,
                min_value: float = 0.0) -> pd.DataFrame:
    """One-row integrity summary:

    - ``n_rows``: total rows
    - ``n_dup_keys``: keys appearing more than once
    - ``n_null_key`` / ``n_null_num``: nulls in the key / numeric col
    - ``n_below_min``: numeric values below ``min_value``
    - ``min_num`` / ``max_num``: numeric bounds (rounded to 6)
    """
    from ray.data.aggregate import Max, Min, Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df[numeric_col]
        vn = v.to_numpy(np.float64)
        ok = ~np.isnan(vn)
        return arrow_block(pd.DataFrame({
            "n_rows": [np.int64(len(df))],
            "n_null_key": [np.int64(df[key_col].isna().sum())],
            "n_null_num": [np.int64((~ok).sum())],
            "n_below_min": [np.int64((vn[ok] < min_value).sum())],
            "mn": [float(vn[ok].min()) if ok.any() else np.nan],
            "mx": [float(vn[ok].max()) if ok.any() else np.nan],
        }))

    sums = (ds.select_columns([key_col, numeric_col])
            .map_batches(arrow_combiner(partial), batch_format="pyarrow")
            .aggregate(Sum("n_rows", alias_name="n_rows"),
                       Sum("n_null_key", alias_name="n_null_key"),
                       Sum("n_null_num", alias_name="n_null_num"),
                       Sum("n_below_min", alias_name="n_below_min"),
                       Min("mn", alias_name="mn"),
                       Max("mx", alias_name="mx")))

    # duplicate keys: combiner per-batch value_counts → groupby-sum →
    # count of keys with total > 1 (key-cardinality-bounded shuffle)
    def key_counts(df: pd.DataFrame):
        vc = df[key_col].value_counts()
        return arrow_block(pd.DataFrame({key_col: vc.index,
                                         "c": vc.to_numpy(np.int64)}))

    kc = combine_sum(ds.select_columns([key_col]), key_counts, key_col, ["c"])
    n_dup = int(kc.map_batches(
        lambda df: pd.DataFrame({"d": [np.int64((df["c"] > 1).sum())]}),
        batch_format="pandas").sum("d") or 0)

    return pd.DataFrame({
        "n_rows": [np.int64(sums["n_rows"])],
        "n_dup_keys": [np.int64(n_dup)],
        "n_null_key": [np.int64(sums["n_null_key"])],
        "n_null_num": [np.int64(sums["n_null_num"])],
        "n_below_min": [np.int64(sums["n_below_min"])],
        "min_num": [round(float(sums["mn"]), 6)],
        "max_num": [round(float(sums["mx"]), 6)],
    })


def feature_leakage_corr(ds, *, feature_cols, label_col="label",
                         entity_col="conv_id", order_col="turn_idx",
                         num_buckets=64):
    """Leakage audit: Pearson correlation of each (integer-valued)
    feature with the NEXT turn's label inside the same conversation —
    the pre-training check that a feature doesn't trivially encode the
    target it will be asked to predict one step later.

    Shape: one entity-bucket shuffle to form lead(label), then the
    combiner pattern — each batch emits per-feature partial integer
    sums (n, Σx, Σy, Σx², Σxy, Σy²) and a feature-keyed groupby-sum
    reduces |features| rows. The correlation itself is computed from
    the exact int64 sums with a FIXED float expression
    (f(n)·f(Σxy) − f(ΣxΣy)) / sqrt(f(nΣx²−Σx²)·f(nΣy²−Σy²)) that the
    SQL oracle mirrors operation-for-operation, so the float result is
    bit-identical, not just close. Feature values must be
    integer-valued (char/word counts are); label is 0/1.
    """
    from pystreamfs_ray.stages.window import per_bucket, sort_entity

    cols = list(feature_cols)

    def lead_label(g: pd.DataFrame) -> pd.DataFrame:
        g = sort_entity(g, entity_col=entity_col, order_cols=(order_col,))
        y = g.groupby(entity_col, sort=False)[label_col].shift(-1)
        g = g.assign(__y=y)
        return g.loc[y.notna(), cols + ["__y"]]

    led = per_bucket(ds, lead_label, entity_col=entity_col,
                     num_buckets=num_buckets)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        y = df["__y"].to_numpy(np.int64)
        rows = []
        for c in cols:
            x = df[c].to_numpy(np.float64).astype(np.int64)
            rows.append((c, len(x), int(x.sum()), int(y.sum()),
                         int((x * x).sum()), int((x * y).sum()),
                         int((y * y).sum())))
        return pd.DataFrame(rows, columns=["feature", "n", "sx", "sy",
                                           "sxx", "sxy", "syy"])

    sums = combine_sum(led, partial, "feature",
                       ["n", "sx", "sy", "sxx", "sxy", "syy"])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for r in df.itertuples(index=False):  # |features| rows, bounded
            n, sx, sy = int(r.n), int(r.sx), int(r.sy)
            sxx, sxy, syy = int(r.sxx), int(r.sxy), int(r.syy)
            vx, vy = n * sxx - sx * sx, n * syy - sy * sy
            if vx == 0 or vy == 0:
                corr = 0.0
            else:
                corr = ((float(n) * float(sxy) - float(sx * sy))
                        / np.sqrt(float(vx) * float(vy)))
            out.append((r.feature, n, corr))
        return pd.DataFrame(out, columns=["feature", "n", "leak_corr"])

    return sums.map_batches(finish, batch_format="pandas")
