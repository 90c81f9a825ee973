"""As-of (point-in-time) join — the engine's leakage-free centerpiece.

The reference's only join-like computation is the prequential prefix
rule: the model scored at window *i* trains only on rows before *i*
(`/root/reference/pystreamfs/utils.py:35-45`). Generalized over entity
time-series: for every left row (label event) take the latest right row
(feature state) of the same entity with ``right.ts <= left.ts``
(direction="backward", exact matches allowed) — zero temporal leakage by
construction, asserted by a property test.

Execution: ``stages/joins.broadcast`` takes the one broadcast-or-join
decision on the right side (materialized once, Arrow bytes read from
the block metadata — no ``count()``/``schema()`` pass). It picks one
of two paths that differ only in how rows meet; both hand one left
table and the right rows of its entities to the same per-entity merge
(``_merge``):

- **broadcast** (the right side fits the ``stages/joins`` gate):
  the helper gathers the right rows in Dataset order, they are indexed
  once (a stable sort on a hash of the entity key, plus the row range
  of each distinct hash) and put in the object store. ONE
  ``map_batches`` over the left side
  probes each batch against it — no union, no bucket column, no sort
  shuffle. The index is Arrow and numpy buffers, which a task maps
  without copying; a batch binary-searches its distinct keys and
  gathers only their rows, so its cost follows the batch and its
  entities' right rows, not the whole right side.
- **shuffle** (larger right sides — at the 10¹²-turn design scale the
  window side is ≈10¹⁰ rows): both sides are projected onto a common
  Arrow schema with a side tag, unioned, hash-bucketed by the entity key
  and merged per bucket. A mega-entity's rows all land in one bucket,
  but the merge is O(n log n) sort + O(n) scan — no quadratic blowup;
  raise ``num_buckets`` so a hot key shares its bucket with little else.

Blocks stay **Arrow end-to-end** (list/nested payload columns like weight
vectors survive untouched); only a minimal (key, ts, row-index) frame
goes through ``pandas.merge_asof`` and payloads are gathered back with
Arrow ``take``. Right rows that share one (key, timestamp) are tied;
the merge breaks ties by the rows' order in the right Dataset (backward
takes the last, forward the first — ``merge_asof``'s rule). The shuffle
path carries that order as a position column, so both paths pick the
same winner.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from pystreamfs_ray.stages.joins import _to_arrow, broadcast
from pystreamfs_ray.stages.window import DEFAULT_BUCKETS
from pystreamfs_ray.util import bucket_array

_RTS = "__rts"
_SIDE = "__side"
_BUCKET = "__bucket"
_RPOS = "__rpos"
_RPREFIX = "__r."


def _ensure_arrow(ds):
    """Return (ds, {name: pyarrow type}) with Arrow blocks. Unless ``ds``
    already knows an Arrow schema without executing (a materialized
    Arrow Dataset), it is re-blocked by an identity map that fuses with
    its upstream, whatever its block format (a pandas-block schema
    reports numpy dtypes), and that schema is probed once."""
    sch = ds.schema(fetch_if_missing=False)
    if sch is None or not isinstance(sch.base_schema, pa.Schema):
        ds = ds.map_batches(lambda t: t, batch_format="pyarrow",
                            zero_copy_batch=True)
        sch = ds.schema()
    return ds, dict(zip(sch.names, sch.types))


def _merge(left: pa.Table, right: pa.Table, *, by: str, left_on: str,
           how: str, direction: str, allow_exact_matches: bool,
           right_suffix: str, matched: str) -> pa.Table:
    """As-of merge of ``left`` rows onto ``right`` rows of the same
    entities. ``right`` holds ``by``, ``_RTS`` and the payload columns,
    tied rows in right-Dataset order. Output: ``by``, the other left
    columns, ``matched``, the payload (``right_suffix`` on a name the
    left side already uses)."""
    left = left.select([by] + [c for c in left.column_names if c != by])
    if right.schema.field(by).type != left.schema.field(by).type:
        right = right.set_column(0, by, right[by].cast(left.schema.field(by).type))
    if len(left) and len(right):
        # minimal frames: (key, ts, row-index); payloads stay in Arrow
        ldf = pd.DataFrame({
            by: left[by].to_pandas(),
            "__lts": left[left_on].to_pandas(),
            "__li": np.arange(len(left), dtype=np.int64),
        }).sort_values("__lts", kind="mergesort", ignore_index=True)
        rdf = pd.DataFrame({
            by: right[by].to_pandas(),
            _RTS: right[_RTS].to_pandas(),
            "__ri": np.arange(len(right), dtype=np.int64),
        }).sort_values(_RTS, kind="mergesort", ignore_index=True)
        m = pd.merge_asof(ldf, rdf, left_on="__lts", right_on=_RTS, by=by,
                          direction=direction,
                          allow_exact_matches=allow_exact_matches)
        li = m["__li"].to_numpy(np.int64)
        ri = m["__ri"].to_numpy(np.float64)  # NaN = no match
    else:
        li = np.arange(len(left), dtype=np.int64)
        ri = np.full(len(left), np.nan)
    miss = np.isnan(ri)
    if how == "inner":
        li, ri, miss = li[~miss], ri[~miss], miss[~miss]
    right_sel = right.take(
        pa.array(np.where(miss, 0, ri).astype(np.int64), mask=miss))
    payload = right.column_names[2:]
    names = left.column_names + [matched] + [
        c + right_suffix if c in left.column_names else c for c in payload]
    return pa.Table.from_arrays(
        left.take(pa.array(li)).columns + right_sel.columns[1:], names=names)


def _key_hash(keys) -> np.ndarray:
    """uint64 hash per entity key. A collision only adds another
    entity's rows to a probe; the merge matches ``by`` exactly."""
    return pd.util.hash_array(keys.to_numpy(zero_copy_only=False))


def _index_right(t: pa.Table, by: str, right_on: str):
    """The gathered right side as one Arrow table (``by``, ``_RTS``,
    payload) with the rows of each key hash contiguous and in Dataset
    order, the sorted distinct key hashes, and the row bounds of each
    hash's run."""
    if by not in t.column_names:  # no typed block
        t = pa.table({by: pa.nulls(0), right_on: pa.nulls(0)})
    payload = [c for c in t.column_names if c not in (by, right_on)]
    t = t.select([by, right_on, *payload]).rename_columns([by, _RTS, *payload])
    h = _key_hash(t[by])
    order = np.argsort(h, kind="stable")  # stable: ties keep Dataset order
    h = h[order]
    first = (np.flatnonzero(np.r_[True, h[1:] != h[:-1]]) if len(h)
             else np.zeros(0, np.int64))
    return t.take(pa.array(order)), h[first], np.append(first, len(h))


def _with_position(block, offset: int) -> pa.Table:
    """One right block as Arrow with its rows' Dataset positions."""
    t = _to_arrow(block)
    return t.append_column(
        _RPOS, pa.array(np.arange(offset, offset + len(t), dtype=np.int64)))


def asof_join(
    left_ds,
    right_ds,
    *,
    by: str = "conv_id",
    left_on: str = "ts",
    right_on: str = "ts",
    how: str = "inner",
    direction: str = "backward",
    allow_exact_matches: bool = True,
    right_suffix: str = "_r",
    matched_name: str | None = None,
    num_buckets: int = DEFAULT_BUCKETS,
):
    """Point-in-time join of ``right_ds`` features onto ``left_ds`` rows.

    Broadcasts the right side when ``joins.broadcast`` admits it,
    else shuffles both sides into ``num_buckets`` entity buckets; the
    output is the same either way."""
    def merge(left: pa.Table, right: pa.Table) -> pa.Table:
        return _merge(left, right, by=by, left_on=left_on, how=how,
                      direction=direction,
                      allow_exact_matches=allow_exact_matches,
                      right_suffix=right_suffix,
                      matched=matched_name or f"{right_on}_matched")

    right, ref = broadcast(right_ds, lambda t: _index_right(t, by, right_on))
    if ref is not None:

        def probe(batch: pa.Table) -> pa.Table:
            table, hashes, bounds = ray.get(ref)
            rows = np.zeros(0, dtype=np.int64)
            if len(hashes):
                keys = pc.unique(batch[by]).cast(table.schema.field(by).type)
                q = _key_hash(keys)
                i = np.minimum(np.searchsorted(hashes, q), len(hashes) - 1)
                i = i[hashes[i] == q]
                lens = bounds[i + 1] - bounds[i]
                # the aranges bounds[i] .. bounds[i + 1], concatenated
                rows = np.arange(lens.sum()) + np.repeat(
                    bounds[i] - np.cumsum(lens) + lens, lens)
            return merge(batch, table.take(pa.array(rows, type=pa.int64())))

        return left_ds.map_batches(probe, batch_format="pyarrow",
                                   batch_size=None)
    blocks = [b for bundle in right.iter_internal_ref_bundles()
              for b in bundle.blocks]
    return _shuffle_join(left_ds, blocks, merge, by=by, right_on=right_on,
                         num_buckets=num_buckets)


def _shuffle_join(left_ds, blocks, merge, *, by: str, right_on: str,
                  num_buckets: int):
    """Both sides through one hash shuffle on ``by``; each bucket's rows
    go to ``merge``, right rows in Dataset order."""
    import ray.data as rd

    left_ds, ltypes = _ensure_arrow(left_ds)
    position = ray.remote(_with_position)
    offsets = np.cumsum([0] + [meta.num_rows or 0 for _, meta in blocks])
    right_ds = rd.from_arrow_refs([
        position.remote(ref, int(off))
        for (ref, meta), off in zip(blocks, offsets) if meta.num_rows])
    sch = right_ds.schema()
    rtypes = dict(zip(sch.names, sch.types))

    left_cols = [c for c in ltypes if c != by]
    payload = [c for c in rtypes if c not in (by, right_on, _RPOS)]
    union_schema = pa.schema(
        [pa.field(by, ltypes[by]), pa.field(_SIDE, pa.int8())]
        + [pa.field(c, ltypes[c]) for c in left_cols]
        + [pa.field(_RTS, rtypes[right_on])]
        + [pa.field(_RPREFIX + c, rtypes[c]) for c in payload]
        + [pa.field(_RPOS, pa.int64())]
    )

    def _project(side: int, src_names: dict[str, str]):
        def fn(t: pa.Table) -> pa.Table:
            n = len(t)
            arrays = []
            for field in union_schema:
                if field.name == _SIDE:
                    arrays.append(pa.array(np.full(n, side, dtype=np.int8)))
                elif field.name in src_names:
                    arrays.append(t[src_names[field.name]].cast(field.type))
                else:
                    arrays.append(pa.nulls(n, field.type))
            out = pa.Table.from_arrays(arrays, schema=union_schema)
            keys = out[by].cast(pa.string()).to_pylist()
            return out.append_column(
                _BUCKET,
                pa.array(bucket_array(keys, num_buckets), type=pa.int32()))

        return fn

    lmap = {c: c for c in (by, *left_cols)}
    rmap = {by: by, _RTS: right_on, _RPOS: _RPOS,
            **{_RPREFIX + c: c for c in payload}}
    both = left_ds.map_batches(_project(0, lmap), batch_format="pyarrow").union(
        right_ds.map_batches(_project(1, rmap), batch_format="pyarrow"))

    def _bucket(group: pa.Table) -> pa.Table:
        if isinstance(group, dict):  # map_groups may hand dict-of-numpy
            group = pa.table(group)
        left_t = group.filter(pc.equal(group[_SIDE], 0)).select([by, *left_cols])
        right_t = group.filter(pc.equal(group[_SIDE], 1))
        right_t = right_t.take(pc.sort_indices(right_t[_RPOS]))
        right_t = right_t.select(
            [by, _RTS, *(_RPREFIX + c for c in payload)]
        ).rename_columns([by, _RTS, *payload])
        return merge(left_t, right_t)

    return both.groupby(_BUCKET).map_groups(_bucket, batch_format="pyarrow")


def asof_join_time(
    left_ds,
    right_ds,
    *,
    left_on: str = "ts",
    right_on: str = "ts",
    how: str = "inner",
    allow_exact_matches: bool = True,
    right_suffix: str = "_r",
    matched_name: str | None = None,
    num_partitions: int = 32,
    boundary_sample: int = 4096,
    right_tiebreak: str | None = None,
):
    """GLOBAL (keyless) backward as-of join — the time-RANGE-partitioned
    variant for when there is no entity key to hash on (e.g. join every
    event to the latest preceding global state/price tick).

    Execution: time-range partition both sides on boundaries sampled
    from the right side, then fix the partition-edge case exactly: the
    latest right row of every PRECEDING partition is computed (one tiny
    per-partition argmax pass), cumulated on the driver (P rows), and
    the relevant carry row is replicated into each partition — so a
    left row at the start of a partition still sees its true
    predecessor. Output is EXACT for any boundary choice; boundary
    quality affects only balance. Payloads stay in Arrow; only
    timestamps and row indices are compared.

    ``right_tiebreak`` names a right column that breaks ties among
    right rows sharing the matched timestamp (the max value wins) —
    set it when right timestamps can repeat, so the join is
    deterministic and SQL-oracle-exact.
    """
    left_ds, ltypes = _ensure_arrow(left_ds)
    right_ds, rtypes = _ensure_arrow(right_ds)
    import ray.data as rd

    left_cols = list(ltypes)
    right_payload = [c for c in rtypes if c != right_on]
    rename_right = {c: (c + right_suffix if c in ltypes else c) for c in right_payload}
    matched = matched_name or f"{right_on}_matched"

    fields = [pa.field(_SIDE, pa.int8()), pa.field(_RTS, rtypes[right_on])]
    fields += [pa.field(c, ltypes[c]) for c in left_cols]
    fields += [pa.field(rename_right[c], rtypes[c]) for c in right_payload]
    union_schema = pa.schema(fields)
    right_out_cols = [rename_right[c] for c in right_payload]
    out_schema = pa.schema(
        [pa.field(c, ltypes[c]) for c in left_cols]
        + [pa.field(matched, rtypes[right_on])]
        + [pa.field(rename_right[c], rtypes[c]) for c in right_payload]
    )

    # boundaries from a cheap right-side sample (exactness does NOT
    # depend on them — only partition balance does)
    from pystreamfs_ray.util import quantile_bounds, spread_sample_values

    # spread sample (not .limit() — prefix-biased on time-sorted input)
    ts_sample = spread_sample_values(
        right_ds, right_on, max_blocks=max(boundary_sample // 8, 1)
    ).astype("datetime64[us]").astype(np.int64)
    bounds = quantile_bounds(ts_sample, num_partitions).astype(np.int64)

    def _ts64(arr) -> np.ndarray:
        return arr.cast(pa.timestamp("us")).to_numpy(zero_copy_only=False).astype(np.int64)

    def _project(side: int, src_names: dict[str, str], on_col: str):
        def fn(t: pa.Table) -> pa.Table:
            n = len(t)
            arrays = []
            for field in union_schema:
                if field.name == _SIDE:
                    arrays.append(pa.array(np.full(n, side, dtype=np.int8)))
                elif field.name == _RTS:
                    arrays.append(t[on_col].cast(field.type))
                elif field.name in src_names:
                    arrays.append(t[src_names[field.name]].cast(field.type))
                else:
                    arrays.append(pa.nulls(n, field.type))
            out = pa.Table.from_arrays(arrays, schema=union_schema)
            part = np.searchsorted(bounds, _ts64(out[_RTS]), side="left")
            return out.append_column("__part", pa.array(part.astype(np.int32)))

        return fn

    lt = left_ds.map_batches(
        _project(0, {c: c for c in left_cols}, left_on), batch_format="pyarrow"
    )
    rt = right_ds.map_batches(
        _project(1, {rename_right[c]: c for c in right_payload}, right_on),
        batch_format="pyarrow",
    )

    # per-partition latest right row → cumulative carry (P rows total)
    def _latest(group: pa.Table) -> pa.Table:
        if isinstance(group, dict):
            group = pa.table(group)
        r = group.filter(pc.equal(group[_SIDE], 1))
        if len(r) == 0:
            return group.schema.empty_table()
        ts = _ts64(r[_RTS])
        if right_tiebreak is not None:
            tb = r[rename_right.get(right_tiebreak, right_tiebreak)].to_numpy(zero_copy_only=False)
            i = int(np.lexsort((tb, ts))[-1])
        else:
            i = int(np.argmax(ts))
        return r.slice(i, 1)

    latest_pdf = (
        rt.groupby("__part").map_groups(_latest, batch_format="pyarrow").to_pandas()
    )
    carries = []
    if len(latest_pdf):
        latest_pdf = latest_pdf.sort_values("__part", ignore_index=True)
        best = None  # latest right row among parts <= current
        by_part = {int(r["__part"]): r for _, r in latest_pdf.iterrows()}
        for p in range(len(bounds) + 1):
            if best is not None:
                c = best.copy()
                c["__part"] = p
                carries.append(c)
            cand = by_part.get(p)
            if cand is not None and (best is None or cand[_RTS] >= best[_RTS]):
                best = cand
    both = lt.union(rt)
    if carries:
        carry_t = pa.Table.from_pandas(
            pd.DataFrame(carries), preserve_index=False
        ).select([f.name for f in union_schema] + ["__part"])
        carry_t = pa.table(
            {
                **{f.name: carry_t[f.name].cast(f.type) for f in union_schema},
                "__part": carry_t["__part"].cast(pa.int32()),
            }
        )
        both = both.union(rd.from_arrow(carry_t))

    def _merge(group: pa.Table) -> pa.Table:
        if isinstance(group, dict):
            group = pa.table(group)
        left_t = group.filter(pc.equal(group[_SIDE], 0))
        right_t = group.filter(pc.equal(group[_SIDE], 1))
        if len(left_t) == 0:
            return out_schema.empty_table()
        lts = _ts64(left_t[_RTS])
        rts = _ts64(right_t[_RTS])
        if right_tiebreak is not None and len(right_t):
            tb = right_t[rename_right.get(right_tiebreak, right_tiebreak)].to_numpy(zero_copy_only=False)
            order = np.lexsort((tb, rts))
        else:
            order = np.argsort(rts, kind="stable")
        rts_sorted = rts[order]
        side = "right" if allow_exact_matches else "left"
        pos = np.searchsorted(rts_sorted, lts, side=side) - 1
        have = pos >= 0
        if how == "inner":
            keep = np.flatnonzero(have)
        else:
            keep = np.arange(len(left_t))
        ri = pa.array(
            [int(order[pos[i]]) if have[i] else None for i in keep], type=pa.int64()
        )
        left_sel = left_t.take(pa.array(keep.astype(np.int64)))
        right_sel = right_t.take(ri)
        arrays = [left_sel[c] for c in left_cols]
        arrays.append(right_sel[_RTS])
        arrays += [right_sel[c] for c in right_out_cols]
        return pa.Table.from_arrays(arrays, schema=out_schema)

    return both.groupby("__part").map_groups(_merge, batch_format="pyarrow")
