"""Distributed sketches over a Dataset column: HyperLogLog
(cardinality, max-mergeable registers) and Count-Min (point
frequencies, sum-mergeable registers).

The register state is the distributable object: each batch computes its
observed (register, max-rho) pairs locally (vectorized md5 hashing +
exact integer bit-length — no float log2, so the registers are
bit-identical to the DuckDB oracle), then ONE tiny groupby-max merges
them — registers are max-mergeable, so this runs at any parallelism
and any block layout with an identical result. The float estimate is
derived from the integer registers at the end (driver-side, 2^b rows).

Complements the engine's other sketches (Frequent-Directions in
kernels/fsds.py, MinHash signatures in stages/dedup.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ray.data.aggregate import Max

from pystreamfs_ray.util import arrow_combiner as _combiner


def _bit_length_u64(v: np.ndarray) -> np.ndarray:
    """Exact vectorized bit length of uint64 (no float log2 — a 58-bit
    value near a power of two would round the exponent)."""
    v = v.copy()
    bl = np.zeros(v.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        m = v >= np.uint64(1 << s)
        bl[m] += s
        v[m] >>= np.uint64(s)
    bl[v > 0] += 1
    return bl


def hll_partials(values, *, b: int = 6) -> pd.DataFrame:
    """Observed (reg, rho) pairs for one batch of values (pre-maxed)."""
    from pystreamfs_ray.stages.dedup import _md5_lower64

    h = _md5_lower64([str(v) for v in values])
    rest_bits = 64 - b
    reg = (h >> np.uint64(rest_bits)).astype(np.int64)
    rest = h & np.uint64((1 << rest_bits) - 1)
    # rho: 1-based position of the first set bit from the top of the
    # rest_bits field; all-zero rest → rest_bits + 1
    rho = np.where(rest > 0, rest_bits - _bit_length_u64(rest) + 1,
                   rest_bits + 1).astype(np.int64)
    df = pd.DataFrame({"reg": reg, "rho": rho})
    return df.groupby("reg", sort=False)["rho"].max().reset_index()


def hll_registers(ds, col: str, *, b: int = 6):
    """Dataset → (reg, rho_max) register table (only observed regs)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return hll_partials(df[col].to_numpy(), b=b)

    return (
        ds.map_batches(_combiner(partial), batch_format="pyarrow")
        .groupby("reg")
        .aggregate(Max("rho", alias_name="rho_max"))
    )


def hll_estimate(registers: pd.DataFrame, *, b: int = 6) -> float:
    """Standard HLL estimate (with small-range linear counting) from a
    (reg, rho_max) frame; unobserved registers count as zero."""
    m = 1 << b
    regs = np.zeros(m, dtype=np.int64)
    regs[registers["reg"].to_numpy()] = registers["rho_max"].to_numpy()
    # Flajolet et al. 2007: fixed constants ONLY for m=16/32/64; the
    # bias-correction formula applies for m >= 128.
    alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(m, 0.7213 / (1 + 1.079 / m))
    raw = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int(np.sum(regs == 0))
    if raw <= 2.5 * m and zeros > 0:
        return float(m * np.log(m / zeros))
    return float(raw)


def approx_distinct(ds, col: str, *, b: int = 6) -> float:
    """Approximate COUNT(DISTINCT col) — one pass, one tiny shuffle."""
    return hll_estimate(hll_registers(ds, col, b=b).to_pandas(), b=b)


# ------------------------------------------------------- Count-Min sketch

def cms_partials(values, *, depth: int = 4, width: int = 1024) -> pd.DataFrame:
    """Observed (r, cell, n) increments for one batch (pre-summed).
    Row-r hash = md5-low-64 of ``f"{r}|{value}"`` — replayable in SQL
    (``md5_number_lower(r || '|' || value) % width``)."""
    from pystreamfs_ray.stages.dedup import _md5_lower64

    svals = [str(v) for v in values]
    frames = []
    for r in range(depth):
        h = _md5_lower64([f"{r}|{s}" for s in svals])
        frames.append(pd.DataFrame({
            "r": np.int64(r),
            "cell": (h % np.uint64(width)).astype(np.int64),
        }))
    df = pd.concat(frames, ignore_index=True)
    return df.groupby(["r", "cell"], sort=False).size().reset_index(name="n")


def cms_registers(ds, col: str, *, depth: int = 4, width: int = 1024):
    """Dataset → Count-Min register table (r, cell, n) — registers are
    SUM-mergeable, so per-batch partials + one tiny grouped sum give a
    layout-invariant result (same structure as ``hll_registers``).
    Point-frequency estimates come from ``cms_estimate``; error is
    bounded by 2N/width with prob 1 - 2^-depth, never an underestimate."""
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return cms_partials(df[col].to_numpy(), depth=depth, width=width)

    return (ds.map_batches(_combiner(partial), batch_format="pyarrow")
              .groupby(["r", "cell"])
              .aggregate(Sum("n", alias_name="n")))


def cms_estimate(registers: pd.DataFrame, keys, *,
                 depth: int = 4, width: int = 1024) -> np.ndarray:
    """min over depth rows of the key's cell count (0 if unobserved)."""
    from pystreamfs_ray.stages.dedup import _md5_lower64

    lut = {(int(r), int(c)): int(n)
           for r, c, n in registers[["r", "cell", "n"]].itertuples(index=False)}
    out = np.empty(len(keys), dtype=np.int64)
    for i, k in enumerate(keys):
        out[i] = min(
            lut.get((r, int(_md5_lower64([f"{r}|{k}"])[0] % np.uint64(width))), 0)
            for r in range(depth)
        )
    return out


# ------------------------------------------------------- histogram sketch


def hist_registers(ds, col: str, *, bins: int = 64,
                   lo: float | None = None, hi: float | None = None):
    """Equi-width histogram registers (bin, n) over a numeric column —
    the sum-mergeable sketch behind approximate quantiles / CDFs at
    scale (one tiny groupby of ≤ ``bins`` rows; layout-invariant).
    Range defaults to the column's exact [min, max] (one cheap
    aggregate pass). The bin expression mirrors the DuckDB oracle
    token-for-token, so registers are bit-identical."""
    import pyarrow as pa
    from ray.data.aggregate import Count, Max, Min

    if lo is None or hi is None:
        mm = ds.aggregate(Min(col), Max(col))
        lo = float(mm[f"min({col})"]) if lo is None else lo
        hi = float(mm[f"max({col})"]) if hi is None else hi
    if hi <= lo:
        hi = lo + 1.0

    def binify(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        b = np.floor(((v - lo) * bins) / (hi - lo)).astype(np.int64)
        b = np.minimum(np.maximum(b, 0), bins - 1)
        return pa.table({"bin": pa.array(b)})

    regs = (ds.map_batches(binify, batch_format="pyarrow")
            .groupby("bin").aggregate(Count(alias_name="n")))
    return regs, float(lo), float(hi)


def hist_quantile(registers: pd.DataFrame, qs, *, lo: float, hi: float,
                  bins: int = 64) -> list[float]:
    """Approximate quantiles from histogram registers by linear
    interpolation inside the located bin (error ≤ one bin width)."""
    full = np.zeros(bins, dtype=np.int64)
    full[registers["bin"].to_numpy()] = registers["n"].to_numpy()
    cum = np.cumsum(full)
    total = cum[-1]
    w = (hi - lo) / bins
    out = []
    for q in np.atleast_1d(qs):
        target = q * total
        b = int(np.searchsorted(cum, target, side="left"))
        b = min(b, bins - 1)
        prev = cum[b - 1] if b > 0 else 0
        frac = (target - prev) / max(full[b], 1)
        out.append(lo + (b + min(max(frac, 0.0), 1.0)) * w)
    return out


def hll_registers_by(ds, group_col: str, col: str, *, b: int = 6):
    """Per-group HLL registers ``(group, reg, rho_max)`` — approximate
    COUNT(DISTINCT col) PER KEY in one pass. The max-mergeable register
    rows are the combiner, so the shuffle is bounded by
    ``groups × 2^b`` rows regardless of input size — the scale answer
    when exact per-group distinct (a groups×values shuffle) is too
    wide. Feed each group's rows to :func:`hll_estimate` for the
    count."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for g, grp in df.groupby(group_col, sort=False):
            p = hll_partials(grp[col].to_numpy(), b=b)
            p.insert(0, group_col, g)
            outs.append(p)
        from pystreamfs_ray.util import arrow_block

        return arrow_block(pd.concat(outs) if outs else pd.DataFrame(
            {group_col: [], "reg": pd.Series([], dtype=np.int64),
             "rho": pd.Series([], dtype=np.int64)}))

    from pystreamfs_ray.util import arrow_combiner

    return (ds.select_columns([group_col, col])
            .map_batches(arrow_combiner(partial), batch_format="pyarrow")
            .groupby([group_col, "reg"])
            .aggregate(Max("rho", alias_name="rho_max")))


def hist_registers_by(ds, group_col: str, col: str, *, bins: int = 32):
    """Per-group equi-width histogram registers
    ``(group, bin, n)`` — approximate value DISTRIBUTIONS per key
    (per-domain document-length profiles, per-source quality curves) in
    two combiner passes: (1) per-group exact [min, max] bounds
    (group-cardinality shuffle), broadcast; (2) per-batch per-(group,
    bin) counts → groupby-sum, shuffle bounded by ``groups × bins``
    rows. The bin expression mirrors :func:`hist_registers` (and its
    DuckDB oracle) per group, so registers are bit-identical. A
    degenerate group (hi == lo) uses width 1, same as the global form.
    Returns ``(registers_dataset, bounds_frame)``."""
    import ray
    from ray.data.aggregate import Sum

    def mm_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(group_col, sort=False)[col].agg(["min", "max"])
        return pd.DataFrame({group_col: g.index,
                             "lo": g["min"].to_numpy(np.float64),
                             "hi": g["max"].to_numpy(np.float64)})

    from ray.data.aggregate import Max as _Max, Min as _Min

    bounds = (ds.select_columns([group_col, col])
              .map_batches(_combiner(mm_partial), batch_format="pyarrow")
              .groupby(group_col)
              .aggregate(_Min("lo", alias_name="lo"),
                         _Max("hi", alias_name="hi"))
              .to_pandas())
    from pystreamfs_ray.util import ensure_cols

    bounds = ensure_cols(bounds, {group_col: object, "lo": np.float64,
                                  "hi": np.float64})
    hi_adj = np.where(bounds["hi"].to_numpy() <= bounds["lo"].to_numpy(),
                      bounds["lo"].to_numpy() + 1.0,
                      bounds["hi"].to_numpy())
    bounds = pd.DataFrame({group_col: bounds[group_col],
                           "lo": bounds["lo"].to_numpy(np.float64),
                           "hi": hi_adj})
    ref = ray.put((bounds[group_col].to_numpy(),
                   bounds["lo"].to_numpy(), bounds["hi"].to_numpy()))

    def binify(df: pd.DataFrame) -> pd.DataFrame:
        keys, lo, hi = ray.get(ref)
        pos = pd.Index(keys).get_indexer(df[group_col])
        v = df[col].to_numpy(np.float64)
        b = np.floor(((v - lo[pos]) * bins) / (hi[pos] - lo[pos])).astype(np.int64)
        b = np.minimum(np.maximum(b, 0), bins - 1)
        t = pd.DataFrame({group_col: df[group_col], "bin": b})
        g = t.groupby([group_col, "bin"], sort=False).size().reset_index(name="n")
        g["n"] = g["n"].astype(np.int64)
        return g

    regs = (ds.select_columns([group_col, col])
            .map_batches(_combiner(binify), batch_format="pyarrow")
            .groupby([group_col, "bin"])
            .aggregate(Sum("n", alias_name="n")))
    return regs, bounds


def hist_quantile_by(regs: pd.DataFrame, bounds: pd.DataFrame,
                     group_col: str, qs, *, bins: int = 32) -> pd.DataFrame:
    """Per-group approximate quantiles from :func:`hist_registers_by`
    output — the mergeable-sketch substitution for
    ``grouped_quantiles`` / the robust-z medians when per-group
    cardinality makes exact value co-location too wide (error ≤ one
    bin width per group). Driver-side finish over the tiny
    groups × bins register table."""
    qs = list(np.atleast_1d(qs))
    rows = []
    for _, b in bounds.iterrows():
        g = b[group_col]
        sub = regs[regs[group_col] == g]
        vals = hist_quantile(sub.rename(columns={})[["bin", "n"]], qs,
                             lo=float(b["lo"]), hi=float(b["hi"]), bins=bins)
        rows.append([g, *[round(v, 6) for v in vals]])
    out = pd.DataFrame(rows, columns=[group_col,
                                      *[f"q{int(q*100)}" for q in qs]])
    return out.sort_values(group_col, ignore_index=True)


def cms_registers_by(ds, group_col: str, col: str, *, depth: int = 4,
                     width: int = 256):
    """Per-group Count-Min registers ``(group, r, cell, n)`` — point
    frequency estimates PER KEY (per-domain heavy-hitter screening)
    with the shuffle bounded by ``groups × depth × width`` rows
    regardless of input size. Same row-salted md5 cell hash as
    :func:`cms_partials`, so registers are SQL-replayable. Feed each
    group's rows to :func:`cms_estimate` for point queries."""
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for g, grp in df.groupby(group_col, sort=False):
            p = cms_partials(grp[col].to_numpy(), depth=depth, width=width)
            p.insert(0, group_col, g)
            outs.append(p)
        return pd.concat(outs) if outs else pd.DataFrame(
            {group_col: [], "r": pd.Series([], dtype=np.int64),
             "cell": pd.Series([], dtype=np.int64),
             "n": pd.Series([], dtype=np.int64)})

    return (ds.select_columns([group_col, col])
            .map_batches(_combiner(partial), batch_format="pyarrow")
            .groupby([group_col, "r", "cell"])
            .aggregate(Sum("n", alias_name="n")))


def heavy_hitters(ds, col: str, k: int, *, summary_capacity: int = 4096,
                  tiebreak_asc: bool = True):
    """Exact top-``k`` most frequent values of ``col`` without a
    full-cardinality shuffle — the Misra-Gries-style two-pass used
    throughout the engine for skew work, generalized to a query
    operator.

    Pass 1 (bounded summary): each batch emits (value, local_count)
    only for values with local_count > len(batch)/cap, plus a sentinel
    row carrying len(batch); summed, any value's undercount is ≤ n/cap.
    Let P_k be the k-th largest summed partial: every true top-k value
    has partial ≥ P_k − n/cap, so that slack-adjusted cut is a SOUND
    candidate filter (no false negatives) at any block count. Pass 2
    recounts ONLY the candidates exactly (broadcast set) and takes the
    top k by (count desc, value asc). Shuffle volume: ≤ cap+1 rows per
    batch in pass 1, |candidates| × blocks in pass 2 — bounded by the
    capacity, never by the column's cardinality (a plain
    groupby().count() ships one partial row per distinct value per
    block: input-sized for high-cardinality columns).
    """
    import ray
    from ray.data.aggregate import Sum

    from pystreamfs_ray.util import arrow_block

    cap = int(summary_capacity)
    sentinel = "\x00__rows__"

    def local_heavy(df: pd.DataFrame) -> pd.DataFrame:
        floor = max(1, len(df) // cap)
        vc = df[col].astype(str).value_counts()
        vc = vc[vc > floor]
        return arrow_block(pd.DataFrame({
            col: np.concatenate([vc.index.to_numpy(dtype=object), [sentinel]]),
            "__n": np.concatenate([vc.to_numpy(dtype=np.int64), [len(df)]]),
        }))

    colds = ds.select_columns([col])
    partial = (colds.map_batches(_combiner(local_heavy), batch_format="pyarrow")
               .groupby(col).aggregate(Sum("__n", alias_name="__n"))
               .to_pandas())
    if len(partial) == 0 or col not in partial.columns:
        import ray.data as rd

        return rd.from_pandas(pd.DataFrame({
            col: pd.Series([], dtype=str),
            "n": pd.Series([], dtype=np.int64),
            "rank": pd.Series([], dtype=np.int64)}))
    is_sent = partial[col] == sentinel
    n_total = int(partial.loc[is_sent, "__n"].sum())
    vals = partial.loc[~is_sent].sort_values(
        ["__n", col], ascending=[False, tiebreak_asc])
    slack = n_total // cap

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df.sort_values(["n", col], ascending=[False, tiebreak_asc],
                             ignore_index=True).head(k)
        out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
        return out

    import ray.data as rd

    if len(vals) < k or int(vals["__n"].iloc[min(k, max(len(vals), 1)) - 1]) <= slack:
        # degenerate: the k-th hitter is within the summary slack (no
        # actual heavy tail, or cap too small) — values the summaries
        # never surfaced could belong to the top-k, so fall back to the
        # exact full count (correct at any input, input-cardinality
        # shuffle)
        exact_all = (colds.groupby(col).count().to_pandas()
                     .rename(columns={"count()": "n"}))
        exact_all[col] = exact_all[col].astype(str)
        exact_all["n"] = exact_all["n"].astype(np.int64)
        return rd.from_pandas(finish(exact_all))

    kth = int(vals["__n"].iloc[k - 1])
    cand = frozenset(vals.loc[vals["__n"] >= kth - slack, col])
    cand_ref = ray.put(cand)

    def recount(df: pd.DataFrame) -> pd.DataFrame:
        c = ray.get(cand_ref)
        s = df[col].astype(str)
        vc = s[s.isin(c)].value_counts()
        return arrow_block(pd.DataFrame(
            {col: vc.index.to_numpy(dtype=object),
             "n": vc.to_numpy(dtype=np.int64)}))

    exact = (colds.map_batches(_combiner(recount), batch_format="pyarrow")
             .groupby(col).aggregate(Sum("n", alias_name="n"))
             .to_pandas())  # |candidates| rows — driver-scale by design
    return rd.from_pandas(finish(exact))
