"""Grouped order-statistics operators: per-group top-k and exact
per-group quantiles.

Both are one-shuffle designs keyed on the group column:

- ``grouped_topk`` runs a per-batch COMBINER first (each input batch
  contributes at most k rows per group it contains), so the shuffle
  moves O(k x groups-per-batch) rows per block instead of the whole
  table — the standard partial-top-k trick that keeps a "top 3 per key"
  query cheap at 100 TB even with millions of rows per key.
- ``grouped_quantiles`` shuffles only ``(group, value)`` pairs and
  sorts within each group. Exact quantiles are not combinable, so the
  per-group value list must co-locate; project the two columns before
  calling so nothing else rides the shuffle. At extreme per-group
  cardinality the scale path is a mergeable sketch (t-digest / KLL)
  with bounded error — this operator is the exact form.

No reference analog (beyond-reference engine addition, like
``stages/joins.py``); tie-breaking and interpolation are pinned so the
DuckDB oracles (row_number window / quantile_cont) hash-match exactly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from pystreamfs_ray.util import arrow_block, arrow_combiner, combine_sum


def grouped_topk(ds, group_col: str, order_col: str, k: int, *,
                 tiebreak_col: str, descending: bool = True):
    """Top-``k`` rows per group by ``order_col`` (desc by default) with
    a deterministic ``(order_col, tiebreak_col)`` ordering; emits an
    additional 1-based ``rank`` column. One hash shuffle on
    ``group_col``, volume pre-cut by the in-batch combiner."""
    ascending = [not descending, True]
    sort_cols = [order_col, tiebreak_col]

    def partial(df: pd.DataFrame):
        # combiner: a batch can never contribute more than k rows per
        # group to the final answer (Arrow out: pandas blocks cost ~60x
        # through the sort shuffle)
        return arrow_block(
            df.sort_values(sort_cols, ascending=ascending, kind="mergesort")
              .groupby(group_col, sort=False).head(k))

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.sort_values(sort_cols, ascending=ascending, kind="mergesort")
                 .head(k).reset_index(drop=True))
        out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
        return out

    return (ds.map_batches(arrow_combiner(partial),
                           batch_format="pyarrow")
              .groupby(group_col)
              .map_groups(final, batch_format="pandas"))


def pivot_counts(ds, key_col: str, pivot_col: str, values: list[str]):
    """Long → wide: one row per key with an ``n_<value>`` count column
    per pivoted value. The in-batch combiner (indicator columns +
    per-batch groupby-sum) shrinks the shuffle to distinct-keys-per-
    batch rows; the global groupby then sums partials — the standard
    two-level aggregation, so the exchange volume is bounded by key
    cardinality, not input size."""
    cols = [f"n_{v}" for v in values]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({key_col: df[key_col]})
        for v, c in zip(values, cols):
            out[c] = (df[pivot_col] == v).to_numpy(dtype=np.int64)
        return arrow_block(
            out.groupby(key_col, as_index=False, sort=False).sum())

    return combine_sum(ds, partial, key_col, cols)


def grouped_quantiles(ds, group_col: str, value_col: str,
                      qs: list[float], names: list[str], *,
                      ndigits: int = 6, sketch_threshold: int | None = None):
    """Per-group quantiles, one output row per group.

    ``sketch_threshold=None`` (default): exact linear-interpolation
    quantiles (numpy default == DuckDB ``quantile_cont``) — the whole
    group's value list co-locates in one ``map_groups`` task, which is
    the right call until a single group outgrows a worker heap.

    ``sketch_threshold=B``: the MERGEABLE-SKETCH scale path. Each input
    batch emits, per group, either its exact sorted values (when the
    group has ≤ B rows in that batch) or a compression to B equal-count
    (centroid, weight) pairs. The merge concatenates partials — ≤ B
    points per batch per group, never the raw rows — and interpolates
    the quantile over centroid mid-ranks, carrying exact min/max.
    Groups whose every partial stayed exact (in particular any group
    with ≤ B total rows) reproduce the exact path bit-for-bit; hot
    groups get rank error ≤ n_g/B (each batch-level compaction merges
    runs of ≤ count_in_batch/B rows). No task ever holds a whole hot
    group: per-task memory is O(B × batches-touching-the-group), the
    t-digest/KLL memory shape, vs O(n_g) for the exact path."""
    if sketch_threshold is None:
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            v = df[value_col].to_numpy(dtype=np.float64)
            v = v[~np.isnan(v)]
            row: dict = {group_col: [df[group_col].iloc[0]]}
            for q, nm in zip(qs, names):
                row[nm] = [round(float(np.quantile(v, q)), ndigits)] if len(v) else [None]
            row["n"] = [np.int64(len(v))]
            return pd.DataFrame(row)

        return (ds.select_columns([group_col, value_col])
                  .groupby(group_col)
                  .map_groups(fn, batch_format="pandas"))

    B = int(sketch_threshold)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        groups, cents, wts, vmins, vmaxs, ns = [], [], [], [], [], []
        for g, sub in df.groupby(group_col, sort=False):
            v = sub[value_col].to_numpy(dtype=np.float64)
            v = np.sort(v[~np.isnan(v)])
            if len(v) == 0:
                continue
            if len(v) <= B:
                cent, wt = v, np.ones(len(v), dtype=np.float64)
            else:
                cent, wt = _equal_count_compress(v, B)
            groups.append(g)
            cents.append(cent)
            wts.append(wt)
            vmins.append(v[0])
            vmaxs.append(v[-1])
            ns.append(len(v))
        return arrow_block(pd.DataFrame({
            group_col: groups, "__cent": cents, "__wt": wts,
            "__vmin": np.array(vmins, dtype=np.float64),
            "__vmax": np.array(vmaxs, dtype=np.float64),
            "__n": np.array(ns, dtype=np.int64),
        }))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        cent = np.concatenate([np.asarray(c, dtype=np.float64)
                               for c in df["__cent"]])
        wt = np.concatenate([np.asarray(w, dtype=np.float64)
                             for w in df["__wt"]])
        order = np.argsort(cent, kind="mergesort")
        cent, wt = cent[order], wt[order]
        n = int(df["__n"].sum())
        row: dict = {group_col: [df[group_col].iloc[0]]}
        if (wt == 1.0).all():
            # every partial exact → merged multiset IS the group
            for q, nm in zip(qs, names):
                row[nm] = [round(float(np.quantile(cent, q)), ndigits)]
        else:
            vmin = float(df["__vmin"].min())
            vmax = float(df["__vmax"].max())
            # centroid i stands for ranks [cumw-w, cumw) → mid-rank
            # cumw - (w+1)/2 on the 0-based scale np.quantile uses;
            # exact extremes pin ranks 0 and n-1 (a centroid whose mean
            # sits strictly inside (vmin, vmax) has weight > 1, so its
            # mid-rank is strictly inside (0, n-1) — xp stays increasing)
            xp = np.cumsum(wt) - (wt + 1.0) / 2.0
            fp = cent
            if fp[0] > vmin:
                xp = np.concatenate([[0.0], xp])
                fp = np.concatenate([[vmin], fp])
            if fp[-1] < vmax:
                xp = np.concatenate([xp, [n - 1.0]])
                fp = np.concatenate([fp, [vmax]])
            for q, nm in zip(qs, names):
                est = float(np.interp(q * (n - 1), xp, fp))
                row[nm] = [round(min(max(est, vmin), vmax), ndigits)]
        row["n"] = [np.int64(n)]
        return pd.DataFrame(row)

    return (ds.select_columns([group_col, value_col])
              .map_batches(arrow_combiner(partial), batch_format="pyarrow")
              .groupby(group_col)
              .map_groups(finish, batch_format="pandas"))


def _equal_count_compress(v_sorted: np.ndarray, b: int):
    """Compress a sorted value array to ``b`` equal-count (centroid,
    weight) pairs — centroid = bucket mean. Deterministic, mergeable by
    concatenation; rank error of any quantile read off the summary is
    bounded by the largest bucket, ≤ ⌈n/b⌉."""
    n = len(v_sorted)
    edges = (np.arange(1, b + 1, dtype=np.int64) * n) // b
    starts = np.concatenate([[0], edges[:-1]])
    wt = (edges - starts).astype(np.float64)
    keep = wt > 0
    csum = np.concatenate([[0.0], np.cumsum(v_sorted)])
    cent = (csum[edges[keep]] - csum[starts[keep]]) / wt[keep]
    return cent, wt[keep]


def grouped_corr(ds, group_col: str, x_col: str, y_col: str, *,
                 out_col: str = "r", ndigits: int = 6):
    """Per-group Pearson correlation via the sufficient-statistics
    combiner: each batch contributes (n, Σx, Σy, Σx², Σy², Σxy) per
    group, the global groupby sums six numbers per group, and the
    driver-free finish computes r — the shuffle is group-cardinality-
    sized regardless of input size (same shape the reference uses for
    per-window stats, generalized to sample covariance). Zero-variance
    sides yield null, matching SQL ``corr``."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df[x_col].to_numpy(np.float64)
        y = df[y_col].to_numpy(np.float64)
        t = pd.DataFrame({group_col: df[group_col], "__x": x, "__y": y,
                          "__xx": x * x, "__yy": y * y, "__xy": x * y})
        g = t.groupby(group_col, sort=False).agg(
            n=("__x", "size"), sx=("__x", "sum"), sy=("__y", "sum"),
            sxx=("__xx", "sum"), syy=("__yy", "sum"), sxy=("__xy", "sum"))
        return arrow_block(g.reset_index())

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy(np.float64)
        sx, sy = df["sx"].to_numpy(), df["sy"].to_numpy()
        cov = df["sxy"].to_numpy() - sx * sy / n
        vx = df["sxx"].to_numpy() - sx * sx / n
        vy = df["syy"].to_numpy() - sy * sy / n
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.round(cov / np.sqrt(vx * vy), ndigits)
        r[(vx <= 0) | (vy <= 0) | (n < 2)] = np.nan
        return pd.DataFrame({group_col: df[group_col], out_col: r})

    return (combine_sum(ds.select_columns([group_col, x_col, y_col]), partial,
                        group_col, ["n", "sx", "sy", "sxx", "syy", "sxy"])
            .map_batches(finish, batch_format="pandas"))


def group_zscore(ds, group_col: str, value_col: str, *,
                 id_col: str, out_col: str = "z", ndigits: int = 6):
    """Per-group standardization z = (v - mean_g) / std_pop_g — the
    grouped form of the reference's per-row min-max scaling
    (`/root/reference/pystreamfs/algorithms/efs.py` normalization step),
    used to normalize features within a source/domain before mixing.

    Scale shape: per-batch (group, n, sum, sumsq) partials — the
    combiner pattern — so the only shuffle is group-cardinality-sized;
    the finished stats table is broadcast once (``ray.put``) and the
    scoring pass is batch-local. Zero-variance groups yield null."""
    import ray

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df[value_col].to_numpy(dtype=np.float64)
        g = df.groupby(group_col, sort=False)[value_col]
        agg = g.agg(["count", "sum"])
        sq = (pd.Series(v * v, index=df.index)
              .groupby(df[group_col], sort=False).sum())
        return arrow_block(pd.DataFrame(
            {group_col: agg.index,
             "n": agg["count"].to_numpy(np.int64),
             "s": agg["sum"].to_numpy(np.float64),
             "ss": sq.to_numpy(np.float64)}))

    stats = (combine_sum(ds.select_columns([group_col, value_col]), partial,
                         group_col, ["n", "s", "ss"])
             .to_pandas())
    from pystreamfs_ray.util import ensure_cols

    stats = ensure_cols(stats, {group_col: object, "n": np.int64,
                                "s": np.float64, "ss": np.float64})
    n = stats["n"].to_numpy(np.float64)
    mean = stats["s"].to_numpy(np.float64) / n
    var = stats["ss"].to_numpy(np.float64) / n - mean * mean
    std = np.sqrt(np.maximum(var, 0.0))
    ref = ray.put((stats[group_col].to_numpy(), mean, std))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        keys, mean, std = ray.get(ref)
        pos = pd.Index(keys).get_indexer(df[group_col])  # C hash lookup
        v = df[value_col].to_numpy(dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.round((v - mean[pos]) / std[pos], ndigits)
        z[std[pos] == 0.0] = np.nan
        return pd.DataFrame({id_col: df[id_col].to_numpy(), out_col: z})

    return ds.select_columns([id_col, group_col, value_col]).map_batches(
        score, batch_format="pandas")


def impute_group_mean(ds, group_col: str, value_col: str, *,
                      id_col: str, out_col: str | None = None,
                      ndigits: int = 6):
    """Fill nulls in ``value_col`` with the group's mean over the
    NON-null values — the distributed form of per-group mean
    imputation (feature cleaning before scaling/training). Same
    two-phase shape as :func:`group_zscore`: per-batch (group, n, sum)
    partials over non-null rows → group-cardinality shuffle →
    broadcast stats → batch-local fill. A group with no non-null
    values stays null."""
    import ray

    out_col = out_col or value_col

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df[value_col]
        ok = v.notna()
        g = df.loc[ok].groupby(group_col, sort=False)[value_col].agg(
            ["count", "sum"])
        return arrow_block(pd.DataFrame(
            {group_col: g.index,
             "n": g["count"].to_numpy(np.int64),
             "s": g["sum"].to_numpy(np.float64)}))

    stats = (combine_sum(ds.select_columns([group_col, value_col]), partial,
                         group_col, ["n", "s"])
             .to_pandas())
    from pystreamfs_ray.util import ensure_cols

    stats = ensure_cols(stats, {group_col: object, "n": np.int64,
                                "s": np.float64})
    mean = stats["s"].to_numpy(np.float64) / stats["n"].to_numpy(np.float64)
    ref = ray.put((stats[group_col].to_numpy(), mean))

    def fill(df: pd.DataFrame) -> pd.DataFrame:
        keys, mean = ray.get(ref)
        pos = pd.Index(keys).get_indexer(df[group_col])
        v = df[value_col].to_numpy(dtype=np.float64)
        filler = np.where(pos >= 0, mean[np.clip(pos, 0, None)], np.nan)
        filled = np.where(np.isnan(v), filler, v)
        return pd.DataFrame({id_col: df[id_col].to_numpy(),
                             out_col: np.round(filled, ndigits)})

    return ds.select_columns([id_col, group_col, value_col]).map_batches(
        fill, batch_format="pandas")


def target_encode_loo(ds, group_col: str, target_col: str, *,
                      id_col: str, out_col: str = "enc",
                      ndigits: int = 6, scale: int | None = None):
    """Leave-one-out target encoding: each row's category is encoded
    as the mean of the OTHER rows' targets in its group —
    ``(Σ_g - v_i) / (n_g - 1)`` — the standard leakage-safe form of
    categorical mean encoding. Singleton groups yield null.

    Same two-phase shape as :func:`group_zscore`: (group, n, sum)
    combiner partials → group-cardinality shuffle → broadcast →
    batch-local finish; the subtraction of the row's own target is
    what makes LOO encoding impossible to express as a plain join,
    but it is still one vectorized expression per batch.

    ``scale``: fixed-point mode for targets that are exact decimals
    (e.g. ``scale=100`` for 2-decimal values). Targets become exact
    int64 at that scale, and the output is the INTEGER round-half-up
    of the LOO mean at the same scale (nullable int64) — bit-exact
    and summation-order independent, where the float path's quotients
    of terminating decimals land exactly on ``ndigits`` rounding
    boundaries and flip on last-ulp sum differences."""
    import ray

    fixed = scale is not None

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df[target_col].to_numpy(np.float64)
        v = np.rint(t * scale).astype(np.int64) if fixed else t
        g = pd.DataFrame({group_col: df[group_col], "__v": v}).groupby(
            group_col, sort=False)["__v"].agg(["count", "sum"])
        return arrow_block(pd.DataFrame(
            {group_col: g.index,
             "n": g["count"].to_numpy(np.int64),
             "s": g["sum"].to_numpy(np.int64 if fixed else np.float64)}))

    stats = (combine_sum(ds.select_columns([group_col, target_col]), partial,
                         group_col, ["n", "s"])
             .to_pandas())
    from pystreamfs_ray.util import ensure_cols

    stats = ensure_cols(stats, {group_col: object, "n": np.int64,
                                "s": np.float64})
    ref = ray.put((stats[group_col].to_numpy(),
                   stats["n"].to_numpy(np.int64 if fixed else np.float64),
                   stats["s"].to_numpy(np.int64 if fixed else np.float64)))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        keys, n, s = ray.get(ref)
        pos = pd.Index(keys).get_indexer(df[group_col])
        t = df[target_col].to_numpy(np.float64)
        if fixed:
            v = np.rint(t * scale).astype(np.int64)
            d = n[pos] - 1
            num = s[pos] - v
            enc = pd.array((2 * num + d) // np.maximum(2 * d, 1),
                           dtype="Int64")
            enc[d <= 0] = pd.NA
        else:
            d = n[pos] - 1.0
            with np.errstate(divide="ignore", invalid="ignore"):
                enc = np.round((s[pos] - t) / d, ndigits)
            enc[d <= 0] = np.nan
        return pd.DataFrame({id_col: df[id_col].to_numpy(), out_col: enc})

    return ds.select_columns([id_col, group_col, target_col]).map_batches(
        finish, batch_format="pandas")


def group_minmax_scale(ds, group_col: str, value_col: str, *,
                       id_col: str, out_col: str = "mm",
                       ndigits: int = 6):
    """Per-group min-max scaling ``(v - min_g) / (max_g - min_g)`` —
    the grouped form of the reference's per-ROW min-max normalize
    (`/root/reference/pystreamfs/algorithms/efs.py` scaling step).
    Combiner (group, min, max) partials → group-cardinality shuffle →
    broadcast → batch-local scale. Constant groups yield null."""
    import ray
    from ray.data.aggregate import Max, Min

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(group_col, sort=False)[value_col].agg(["min", "max"])
        return arrow_block(pd.DataFrame(
            {group_col: g.index,
             "lo": g["min"].to_numpy(np.float64),
             "hi": g["max"].to_numpy(np.float64)}))

    stats = (ds.select_columns([group_col, value_col])
             .map_batches(arrow_combiner(partial), batch_format="pyarrow")
             .groupby(group_col)
             .aggregate(Min("lo", alias_name="lo"), Max("hi", alias_name="hi"))
             .to_pandas())
    from pystreamfs_ray.util import ensure_cols

    stats = ensure_cols(stats, {group_col: object, "lo": np.float64,
                                "hi": np.float64})
    ref = ray.put((stats[group_col].to_numpy(),
                   stats["lo"].to_numpy(np.float64),
                   stats["hi"].to_numpy(np.float64)))

    def scale(df: pd.DataFrame) -> pd.DataFrame:
        keys, lo, hi = ray.get(ref)
        pos = pd.Index(keys).get_indexer(df[group_col])
        v = df[value_col].to_numpy(np.float64)
        rng = hi[pos] - lo[pos]
        with np.errstate(divide="ignore", invalid="ignore"):
            mm = np.round((v - lo[pos]) / rng, ndigits)
        mm[rng == 0.0] = np.nan
        return pd.DataFrame({id_col: df[id_col].to_numpy(), out_col: mm})

    return ds.select_columns([id_col, group_col, value_col]).map_batches(
        scale, batch_format="pandas")


def group_robust_zscore(ds, group_col: str, value_col: str, *,
                        id_col: str, out_col: str = "rz",
                        ndigits: int = 6):
    """Robust per-group standardization ``(v - median_g) / MAD_g``
    (MAD = median of |v - median|, the outlier-insensitive z-score used
    for quality-score outlier cuts). Medians are not combinable, so
    this costs TWO (group, value)-only shuffles: one for the median,
    one for the MAD of residuals — still nothing but the two projected
    columns moves, and the two stat tables broadcast. Zero-MAD groups
    yield null. At extreme per-group cardinality substitute the
    histogram sketch (`stages/sketch.hist_quantile`) for the exact
    medians."""
    import ray

    two = ds.select_columns([id_col, group_col, value_col])

    def med_of(col_ds):
        def fn(g: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                group_col: [g[group_col].iloc[0]],
                "m": [float(np.median(g["__v"].to_numpy(np.float64)))],
            })

        return (col_ds.groupby(group_col).map_groups(fn, batch_format="pandas")
                .to_pandas())

    vals = two.map_batches(
        arrow_combiner(lambda df: pd.DataFrame(
            {group_col: df[group_col],
             "__v": df[value_col].to_numpy(np.float64)})),
        batch_format="pyarrow")
    med = med_of(vals)
    mref = ray.put((med[group_col].to_numpy(), med["m"].to_numpy()))

    def residual(df: pd.DataFrame) -> pd.DataFrame:
        keys, m = ray.get(mref)
        pos = pd.Index(keys).get_indexer(df[group_col])
        return pd.DataFrame({
            group_col: df[group_col],
            "__v": np.abs(df[value_col].to_numpy(np.float64) - m[pos]),
        })

    mad = med_of(ds.select_columns([group_col, value_col]).map_batches(
        arrow_combiner(residual), batch_format="pyarrow"))
    aref = ray.put((mad[group_col].to_numpy(), mad["m"].to_numpy()))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        keys, m = ray.get(mref)
        akeys, a = ray.get(aref)
        pos = pd.Index(keys).get_indexer(df[group_col])
        apos = pd.Index(akeys).get_indexer(df[group_col])
        v = df[value_col].to_numpy(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            rz = np.round((v - m[pos]) / a[apos], ndigits)
        rz[a[apos] == 0.0] = np.nan
        return pd.DataFrame({id_col: df[id_col].to_numpy(), out_col: rz})

    return two.map_batches(score, batch_format="pandas")


def grouped_first_last(ds, group_col: str, order_cols: list[str],
                       value_cols: list[str]):
    """Per-group first and last row's values under a deterministic
    ``order_cols`` total order (arg_min/arg_max generalized to several
    payload columns), plus the group count.

    In-batch combiner first: each batch contributes at most its own
    first+last row per group (plus a count partial), so the shuffle
    moves ≤ 2 rows per group per batch — never the table. Output
    columns: ``first_<v>``/``last_<v>`` per value column and ``n``."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(order_cols, kind="mergesort")
        g = d.groupby(group_col, sort=False)
        ends = pd.concat([g.head(1), g.tail(1)])
        ends = ends[~ends.index.duplicated()]  # 1-row groups appear once
        keep = ends[[group_col, *order_cols, *value_cols]].copy()
        # the batch count rides on ONE partial row per group (summed at
        # finish into the exact group size)
        cnt = g.size()
        keep["__cnt"] = np.int64(0)
        first_mask = ~keep.duplicated(subset=[group_col], keep="first")
        keep.loc[first_mask, "__cnt"] = cnt.loc[
            keep.loc[first_mask, group_col]].to_numpy(dtype=np.int64)
        return arrow_block(keep.reset_index(drop=True))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(order_cols, kind="mergesort", ignore_index=True)
        row: dict = {group_col: [d[group_col].iloc[0]]}
        for v in value_cols:
            row[f"first_{v}"] = [d[v].iloc[0]]
        for v in value_cols:
            row[f"last_{v}"] = [d[v].iloc[-1]]
        row["n"] = [np.int64(d["__cnt"].sum())]
        return pd.DataFrame(row)

    return (ds.select_columns([group_col, *order_cols, *value_cols])
              .map_batches(arrow_combiner(partial), batch_format="pyarrow")
              .groupby(group_col)
              .map_groups(finish, batch_format="pandas"))


def mad_outliers(ds, group_col: str, value_col: str, *, z: int = 3):
    """Per-group robust outlier stats: median, MAD (median absolute
    deviation) and the count of rows with ``|x − median| > z·MAD``.

    All order statistics run in EXACT integer cent arithmetic
    (``2·median`` of cents is a sum of two integer order stats), so the
    result is bit-stable across partitionings and reproducible by an
    integer-mode SQL oracle — the float-quotient rounding pitfalls
    don't apply. One (group, cents) shuffle; for extreme per-group
    cardinality the same sketch escape hatch as
    :func:`grouped_quantiles` applies (this is the exact form)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        v = df[value_col].to_numpy(dtype=np.float64)
        v = v[~np.isnan(v)]
        c = np.floor(v * 100.0 + 0.5).astype(np.int64)
        cs = np.sort(c)
        n = len(cs)
        row: dict = {group_col: [df[group_col].iloc[0]]}
        if n == 0:
            row.update({"med": [None], "mad": [None],
                        "n_outliers": [np.int64(0)], "n": [np.int64(0)]})
            return pd.DataFrame(row)
        med2 = int(cs[(n - 1) // 2]) + int(cs[n // 2])
        ad2 = np.abs(2 * c - med2)
        ads = np.sort(ad2)
        mad2x = int(ads[(n - 1) // 2]) + int(ads[n // 2])
        row["med"] = [med2 / 200.0]
        row["mad"] = [mad2x / 400.0]
        row["n_outliers"] = [np.int64(int((2 * ad2 > z * mad2x).sum()))]
        row["n"] = [np.int64(n)]
        return pd.DataFrame(row)

    return (ds.select_columns([group_col, value_col])
              .groupby(group_col)
              .map_groups(fn, batch_format="pandas"))


def winsorize(ds, group_col: str, value_col: str, *, id_col: str,
              p_lo: float = 0.05, p_hi: float = 0.95):
    """Per-group winsorization: clamp ``value_col`` to the group's
    [p_lo, p_hi] EXACT integer-cent order statistics (lower order stat
    at index ``floor(p·(n−1))`` — the same IEEE product the SQL oracle
    computes, so bounds match bit-for-bit; no float interpolation).

    Two passes: (1) a column-pruned (group, cents) shuffle reduces each
    group to ONE bounds row — group-count-sized, driver-safe; the exact
    form shares :func:`grouped_quantiles`'s documented sketch escape
    hatch for extreme per-group cardinality. (2) the bounds dict is
    broadcast (``ray.put``) and every batch clamps vectorized —
    shuffle-free, input-sized output, original rows never re-keyed."""
    import ray

    def bounds(df: pd.DataFrame) -> pd.DataFrame:
        v = df[value_col].to_numpy(dtype=np.float64)
        v = v[~np.isnan(v)]
        cs = np.sort(np.floor(v * 100.0 + 0.5).astype(np.int64))
        n = len(cs)
        if n == 0:
            return pd.DataFrame({group_col: [df[group_col].iloc[0]],
                                 "lo": [np.int64(0)], "hi": [np.int64(0)]})
        return pd.DataFrame({
            group_col: [df[group_col].iloc[0]],
            "lo": [cs[int(np.floor(p_lo * (n - 1)))]],
            "hi": [cs[int(np.floor(p_hi * (n - 1)))]],
        })

    bdf = (ds.select_columns([group_col, value_col])
           .groupby(group_col)
           .map_groups(bounds, batch_format="pandas").to_pandas())
    lo_of = dict(zip(bdf[group_col], bdf["lo"].astype(np.int64)))
    hi_of = dict(zip(bdf[group_col], bdf["hi"].astype(np.int64)))
    bref = ray.put((lo_of, hi_of))

    def clamp(df: pd.DataFrame) -> pd.DataFrame:
        lo_d, hi_d = ray.get(bref) if isinstance(bref, ray.ObjectRef) \
            else bref
        c = np.floor(df[value_col].to_numpy(np.float64) * 100.0
                     + 0.5).astype(np.int64)
        lo = df[group_col].map(lo_d).to_numpy(np.int64)
        hi = df[group_col].map(hi_d).to_numpy(np.int64)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            group_col: df[group_col].to_numpy(),
            "w_cents": np.clip(c, lo, hi),
        })

    return ds.select_columns([id_col, group_col, value_col]).map_batches(
        clamp, batch_format="pandas")


def psi_drift(ds, *, value_col="value", ts_col="ts", bins=10,
              lo_cents=0, hi_cents=50_000):
    """Population-Stability-Index drift monitor: PSI of the
    ``value_col`` histogram between every pair of CONSECUTIVE observed
    days — the standard production check that a feature's distribution
    hasn't shifted under the model. PSI_d = Σ_b (p_b − q_b)·ln(p_b/q_b)
    with Laplace-smoothed shares p = (cnt+1)/(n+bins) so empty bins
    stay finite and both sides of the oracle compute the same exact
    rationals.

    Distributed part is ONE tiny combiner aggregate: per-batch
    (day, bin) partial counts (cent-quantized, fixed-width clipped
    bins) → groupby-sum. The D×B count table (calendar days × bins,
    never data-sized) finishes on the driver with vectorized numpy —
    the same bounded-summary shape as the sketch operators.
    """
    width = (hi_cents - lo_cents) // bins
    if width * bins != hi_cents - lo_cents:
        raise ValueError("bin range must divide evenly")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(
            df[value_col].to_numpy(np.float64) * 100.0 + 0.5).astype(np.int64)
        b = np.clip((cents - lo_cents) // width, 0, bins - 1)
        day = df[ts_col].dt.strftime("%Y-%m-%d")
        out = (pd.DataFrame({"day": day, "bin": b.astype(np.int64)})
               .groupby(["day", "bin"], sort=False).size()
               .rename("cnt").reset_index())
        out["cnt"] = out["cnt"].astype(np.int64)
        return out

    counts = combine_sum(ds, partial, ["day", "bin"], ["cnt"]).to_pandas()
    if counts.empty:
        return pd.DataFrame({"day": pd.Series([], dtype=object),
                             "psi": pd.Series([], dtype=np.float64)})
    days = np.sort(counts["day"].unique())
    mat = np.zeros((len(days), bins), dtype=np.int64)
    di = {d: i for i, d in enumerate(days)}
    mat[counts["day"].map(di).to_numpy(),
        counts["bin"].to_numpy(np.int64)] = counts["cnt"].to_numpy(np.int64)
    p = (mat + 1).astype(np.float64) / (mat.sum(axis=1, keepdims=True) + bins)
    cur, prv = p[1:], p[:-1]
    # ROUND 6 on both sides: the 10-term float sum is summation-order
    # dependent vs the SQL aggregate (and np.log vs ln differ in ulps)
    psi = np.round(((cur - prv) * np.log(cur / prv)).sum(axis=1), 6)
    return pd.DataFrame({"day": days[1:], "psi": psi})


def grouped_moments(ds, group_col: str, value_col: str, *,
                    scale: int = 100, ndigits: int = 6):
    """Per-group mean / std / skewness / excess kurtosis from EXACT
    integer power sums at fixed-point ``scale`` (cents for 2-decimal
    values).

    Why exact: float power sums are summation-order dependent, so a
    distributed engine and a sequential oracle would drift in the last
    ulps and flip 6-digit rounds. Here each batch quantizes to int64
    cents and accumulates S1..S4 per group as PYTHON ints (pandas
    object-dtype groupby-sum — arbitrary precision, no overflow at any
    row count), ships the per-batch partials as decimal strings, and
    merges them per group with ``map_groups`` over the tiny
    (groups x blocks) partial table. The single int->float conversion
    happens once per group at the end, and every float expression is
    written in the DuckDB oracle's operation order (+, -, *, /, sqrt
    only — all IEEE-deterministic; no pow), so engine and oracle are
    bit-identical before the round.

    Scale: the shuffle moves groups x blocks string rows (bytes per
    group per block), never data; skew/kurtosis are scale-invariant so
    the cent quantization cancels; mean/std divide by ``scale`` once.
    """
    import ray  # noqa: F401  (symmetry with siblings)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = np.floor(df[value_col].to_numpy(np.float64)
                     * float(scale) + 0.5).astype(np.int64)
        # per-element powers exact in Python ints via object dtype
        co = pd.Series(c, dtype=object)
        g = pd.DataFrame({
            group_col: df[group_col].to_numpy(),
            "n": np.ones(len(df), dtype=np.int64),
            "s1": co, "s2": co * co, "s3": co * co * co,
            "s4": (co * co) * (co * co),
        }).groupby(group_col, sort=False, as_index=False).sum()
        return arrow_block(pd.DataFrame({
            group_col: g[group_col],
            "n": g["n"].astype(np.int64),
            "s1": g["s1"].map(str), "s2": g["s2"].map(str),
            "s3": g["s3"].map(str), "s4": g["s4"].map(str),
        }))

    partials = (ds.select_columns([group_col, value_col])
                .map_batches(arrow_combiner(partial),
                             batch_format="pyarrow"))

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        n = int(g["n"].sum())
        s1 = sum(int(x) for x in g["s1"])
        s2 = sum(int(x) for x in g["s2"])
        s3 = sum(int(x) for x in g["s3"])
        s4 = sum(int(x) for x in g["s4"])
        nf = float(n)
        m = float(s1) / nf
        r2 = float(s2) / nf
        r3 = float(s3) / nf
        r4 = float(s4) / nf
        q2 = r2 - m * m
        m3 = r3 - 3.0 * m * r2 + 2.0 * (m * m * m)
        m4 = (r4 - 4.0 * m * r3 + 6.0 * (m * m) * r2
              - 3.0 * ((m * m) * (m * m)))
        import math
        sq = math.sqrt(q2) if q2 > 0.0 else 0.0
        return pd.DataFrame({
            group_col: [g[group_col].iloc[0]],
            "n": np.array([n], dtype=np.int64),
            "mean_value": [np.round(m / float(scale), ndigits)],
            "std_value": [np.round(sq / float(scale), ndigits)],
            "skewness": [np.round(m3 / (q2 * sq), ndigits)
                         if q2 > 0.0 else np.nan],
            "kurtosis": [np.round(m4 / (q2 * q2) - 3.0, ndigits)
                         if q2 > 0.0 else np.nan],
        })

    return partials.groupby(group_col).map_groups(
        merge, batch_format="pandas")
