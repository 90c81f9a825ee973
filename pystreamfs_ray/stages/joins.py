"""Broadcast-or-join: the one place that decides whether a small side
is gathered and broadcast or stays distributed, the lookups built on
that decision, and broadcast semi / anti joins with a Bloom-filter path
for key sets too big to broadcast exactly.

``broadcast`` is the decision. It materializes the side, re-blocks a
pandas-block side to Arrow (so the gate reads Arrow bytes whatever
format the side arrived in), sums the block-metadata bytes and rows,
asks ``fits_broadcast``, and when the side fits gathers its blocks in
Dataset order, builds the caller's structure from them and puts it in
the object store once. Every stage that gathers a small side goes
through it:

- ``lookup`` attaches a keyed side's columns to the rows of a big
  Dataset (inner), marks which rows have a key in the side (mark), or
  keeps / drops them (semi / anti). Broadcast: one ``map_batches``
  probe, a ``searchsorted`` over the side's sorted distinct keys plus
  an Arrow ``take``. Otherwise: one hash join on the key.
- ``lookup_docs`` runs a per-document lookup. ``rows_fn`` turns a doc
  batch into keyed rows and ``finish`` reduces the looked-up rows of
  whole documents; broadcast calls both inside one ``map_batches`` (no
  extra shuffle), the join path hash-joins the rows and reduces them in
  doc-hash buckets.
- ``stages/asof.asof_join`` and ``stages/dedup.connected_components``
  take the decision and the gathered side from ``broadcast`` and keep
  their own distributed paths.

The filtering pattern for a big fact table and a (much smaller) key
set is ``semi_join``/``anti_join``: no shuffle of the big side when the
keys fit. At extreme key-set sizes the exact set can be replaced by a
``BloomFilter`` (~1.2 GB per 10^9 keys at 1% FP vs ~8 GB of raw int64
keys): membership gains a bounded false-positive rate, so the Bloom
path is a *prefilter* — exact for recall (every true match survives),
approximate for precision. Chain an exact join after it when exact
semantics are required; never use it for anti joins (a false positive
would silently DROP a valid row — ``anti_join`` therefore has no bloom
method).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from pystreamfs_ray.util import (arrow_block, arrow_combiner, bucket_array,
                                 drop_empty_blocks, shuffle_partitions)

# Largest small side (Arrow bytes, from block metadata) that is gathered
# into the calling process and broadcast instead of kept distributed. It
# bounds the gather, the structure built from it, and the copy each node
# keeps in its object store. 32 MiB was chosen from measured driver
# peaks of the Python dicts the sites broadcast before this module
# owned the decision: ~0.5 GiB of RSS for the ``evaluate_windows`` and
# ``pmi_bigrams`` dicts and ~0.3 GiB for ``minhash_lsh_pairs``; a
# lookup now broadcasts the side's own Arrow columns plus a numpy array
# of its sorted keys. Tests patch it to force either side.
BROADCAST_MAX_BYTES = 32 * 1024 * 1024

# the join type that implements each lookup flavour off the broadcast path
_JOIN_TYPE = {"inner": "inner", "mark": "left_outer", "semi": "left_semi",
              "anti": "left_anti"}


def fits_broadcast(nbytes: int, nrows: int) -> bool:
    """The one broadcast-or-join gate: a side with no rows, or with at
    most ``BROADCAST_MAX_BYTES`` of Arrow blocks, is broadcast."""
    return nbytes <= BROADCAST_MAX_BYTES or nrows == 0


def _blocks(ds) -> list:
    return [b for bundle in ds.iter_internal_ref_bundles() for b in bundle.blocks]


def _to_arrow(block) -> pa.Table:
    from ray.data.block import BlockAccessor

    return BlockAccessor.for_block(block).to_arrow()


def _arrow_side(side):
    """``side`` materialized, with Arrow blocks in Dataset order: a
    pandas-block side is re-blocked by one task per block, an Arrow
    side gains no operator. The schema is read from metadata."""
    side = side.materialize()
    schema = side.schema()
    if schema is None or isinstance(schema.base_schema, pa.Schema):
        return side
    import ray.data as rd

    convert = ray.remote(_to_arrow)
    return rd.from_arrow_refs([convert.remote(ref) for ref, _ in _blocks(side)])


def broadcast(side, build=None, *, put: bool = True):
    """The one broadcast-or-join decision. Returns ``(side, small)``:
    ``side`` materialized with Arrow blocks, and ``small`` None when
    ``side`` stays distributed, else ``build`` (default: identity) of
    the gathered side as one Arrow table, in Dataset order — put in the
    object store (an ObjectRef) unless ``put`` is False. Zero-row
    blocks are dropped before the concat: Ray may hand them without a
    schema."""
    side = _arrow_side(side)
    blocks = _blocks(side)
    if not fits_broadcast(sum(m.size_bytes or 0 for _, m in blocks),
                          sum(m.num_rows or 0 for _, m in blocks)):
        return side, None
    tables = [_to_arrow(b) for b in ray.get([ref for ref, _ in blocks])]
    typed = ([t for t in tables if t.num_rows]
             or [t for t in tables if t.num_columns])
    table = (pa.concat_tables(typed, promote_options="permissive")
             if typed else pa.table({}))
    small = build(table) if build else table
    return side, (ray.put(small) if put else small)


def _sorted_side(table: pa.Table, key: str):
    """(sorted distinct keys as numpy, their type, the other columns of
    each key's first row). Null keys never match, so they are dropped."""
    if key not in table.column_names:  # no typed block: nothing matches
        return np.zeros(0, np.int64), pa.int64(), table
    table = table.filter(pc.is_valid(table[key]))
    table = table.take(pc.sort_indices(table[key]))
    keys = table[key].to_numpy()
    first = np.r_[True, keys[1:] != keys[:-1]] if len(keys) else np.zeros(0, bool)
    return (keys[first], table.schema.field(key).type,
            table.filter(pa.array(first)).drop_columns([key]))


def _find(keys: np.ndarray, key_type, col) -> tuple[np.ndarray, np.ndarray]:
    """The one sorted-key probe: for each value of ``col``, its row in
    the sorted distinct ``keys`` and whether it is there. Nulls never
    hit."""
    n = len(col)
    pos, hit = np.zeros(n, np.int64), np.zeros(n, bool)
    if not (len(keys) and n):
        return pos, hit
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.type != key_type:
        col = col.cast(key_type)
    valid = (col.is_valid().to_numpy(zero_copy_only=False) if col.null_count
             else slice(None))
    v = col.drop_null().to_numpy(zero_copy_only=False)
    p = np.minimum(np.searchsorted(keys, v), len(keys) - 1)
    pos[valid], hit[valid] = p, keys[p] == v
    return pos, hit


def _probe(t: pa.Table, small, on: str, how: str, rename: dict,
           mark: str) -> pa.Table:
    keys, key_type, values = small
    pos, hit = _find(keys, key_type, t[on])
    if how == "mark":
        return t.append_column(mark, pa.array(hit))
    t = t.filter(pa.array(hit if how != "anti" else ~hit))
    if how == "inner":
        got = values.take(pa.array(pos[hit]))
        for name, col in zip(got.column_names, got.columns):
            t = t.append_column(rename.get(name, name), col)
    return t


class KeyedSide:
    """A side table keyed on its column ``key``, decided once by
    ``broadcast`` so several lookups share one gather and one put:
    ``ref`` holds the sorted distinct keys and their rows when the side
    fits, else it is None and ``ds`` (Arrow blocks) stays distributed.
    Inner and mark lookups need unique keys on the distributed path."""

    def __init__(self, ds, key: str):
        self.key = key
        self.ds, self.ref = broadcast(ds, partial(_sorted_side, key=key))


def lookup(ds, side, on: str, *, how: str = "inner",
           rename: dict | None = None, mark: str = "__found"):
    """Probe ``ds``'s ``on`` column against ``side`` (a ``KeyedSide``,
    or a Dataset keyed on ``on``). ``how``: "inner" appends the side's
    other columns (named through ``rename``) to the rows whose key it
    holds; "mark" appends a bool column ``mark`` to every row; "semi"
    and "anti" keep or drop the rows whose key it holds. The output
    columns are the same on both paths."""
    side = side if isinstance(side, KeyedSide) else KeyedSide(side, on)
    rename = rename or {}
    if side.ref is not None:
        ref = side.ref

        def probe(t: pa.Table) -> pa.Table:
            return _probe(t, ray.get(ref), on, how, rename, mark)

        return ds.map_batches(probe, batch_format="pyarrow",
                              zero_copy_batch=True)
    names = {side.key: on, **rename}
    right = side.ds
    if how != "inner":
        right = right.select_columns([side.key])
    if how == "mark":
        right = right.map_batches(
            lambda t: t.append_column(mark, pa.array(np.ones(len(t), bool))),
            batch_format="pyarrow")
    right = right.map_batches(
        lambda t: t.rename_columns([names.get(c, c) for c in t.column_names]),
        batch_format="pyarrow")
    n = shuffle_partitions()
    # aggregate and join outputs carry schema-less empty blocks, which
    # break the hash join (util.drop_empty_blocks)
    out = drop_empty_blocks(ds, n).join(
        drop_empty_blocks(right, n), join_type=_JOIN_TYPE[how],
        num_partitions=n, on=(on,))
    if how == "mark":
        out = out.map_batches(
            lambda t: t.set_column(t.column_names.index(mark), mark,
                                   pc.fill_null(t[mark], False)),
            batch_format="pyarrow")
    return out


def lookup_docs(ds, side, on: str, rows_fn, finish, *, doc_col: str,
                how: str = "inner", buckets: int = 64):
    """Per-document ``lookup`` (a "mark" adds ``__found``). ``rows_fn``
    (pandas doc batch → pandas or Arrow rows carrying ``doc_col`` and
    ``on``) and ``finish`` (pandas frame holding every looked-up row of
    whole documents → pandas rows) run on both paths: broadcast
    computes ``finish(lookup(rows_fn(batch)))`` inside one
    ``map_batches``; otherwise the rows hash-join the side and
    ``finish`` reduces them per hash bucket of ``doc_col``, so a bucket
    holds all rows of its documents. ``finish`` must not depend on row
    order."""
    side = side if isinstance(side, KeyedSide) else KeyedSide(side, on)
    if side.ref is not None:
        ref = side.ref

        def per_batch(df: pd.DataFrame) -> pa.Table:
            rows = rows_fn(df)
            if not isinstance(rows, pa.Table):
                rows = arrow_block(rows)
            found = _probe(rows, ray.get(ref), on, how, {}, "__found")
            return arrow_block(finish(found.to_pandas()))

        return ds.map_batches(per_batch, batch_format="pandas")

    def bucket(t: pa.Table) -> pa.Table:
        keys = t[doc_col].to_numpy(zero_copy_only=False)
        return t.append_column("__b", pa.array(bucket_array(keys, buckets)))

    rows = ds.map_batches(arrow_combiner(rows_fn), batch_format="pyarrow")
    return (lookup(rows, side, on, how=how)
            .map_batches(bucket, batch_format="pyarrow")
            .groupby("__b")
            .map_groups(arrow_combiner(lambda df: finish(df.drop(columns="__b"))),
                        batch_format="pyarrow"))


def _hash2(vals) -> tuple[np.ndarray, np.ndarray]:
    """Two independent vectorized 64-bit hash lanes (double hashing)."""
    h1 = pd.util.hash_array(np.asarray(vals), categorize=False)
    # splitmix64 finalizer on h1 → an independent second lane
    z = (h1 + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z ^= z >> np.uint64(30)
    z = (z * np.uint64(0xBF58476D1CE4E5B9)).astype(np.uint64)
    z ^= z >> np.uint64(27)
    z = (z * np.uint64(0x94D049BB133111EB)).astype(np.uint64)
    h2 = (z ^ (z >> np.uint64(31))) | np.uint64(1)  # odd → full stride
    return h1, h2


class BloomFilter:
    """Vectorized numpy Bloom filter (double hashing, k derived from
    the target false-positive rate). Build once, ``ray.put`` once, test
    whole batches with one numpy pass."""

    def __init__(self, capacity: int, fp_rate: float = 0.01):
        capacity = max(1, int(capacity))
        m = int(np.ceil(-capacity * np.log(fp_rate) / (np.log(2) ** 2)))
        self.m = np.uint64(max(64, m))
        self.k = max(1, int(round(m / capacity * np.log(2))))
        self.bits = np.zeros((int(self.m) + 7) // 8, dtype=np.uint8)

    def _positions(self, vals) -> np.ndarray:
        h1, h2 = _hash2(vals)
        i = np.arange(self.k, dtype=np.uint64)[:, None]
        return ((h1[None, :] + i * h2[None, :]) % self.m).astype(np.int64)

    def add(self, vals) -> None:
        pos = self._positions(vals).ravel()
        np.bitwise_or.at(self.bits, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))

    def contains(self, vals) -> np.ndarray:
        """Boolean mask; no false negatives, FP rate ≈ ``fp_rate``."""
        pos = self._positions(vals)
        hit = (self.bits[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
        return hit.all(axis=0).astype(bool)


def build_bloom(keys_ds, on: str, *, fp_rate: float = 0.01,
                capacity: int | None = None) -> BloomFilter:
    """Build a BloomFilter from a key Dataset: batches stream through
    the driver, only bits are kept. When ``capacity`` must be probed,
    the projected key column (not the full table) is materialized once
    so the count and the bit-fill don't recompute the upstream. (At
    multi-node scale, build per-partition filters in ``map_batches``
    and OR-reduce the bitarrays — same structure, kept simple here.)"""
    if capacity is None:
        # the count probe and the bit-fill below both consume the key
        # dataset — materialize the (projected) keys once instead of
        # re-deriving them per consumer
        keys_ds = keys_ds.select_columns([on]).materialize()
        capacity = keys_ds.count()
    bf = BloomFilter(capacity, fp_rate)
    for batch in keys_ds.select_columns([on]).iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        bf.add(batch[on].to_numpy(zero_copy_only=False))
    return bf


def bloom_semi_join(ds, bloom: BloomFilter, on: str):
    """Semi join against a Bloom filter: keeps every true match plus a
    ~fp_rate fraction of non-matches. The scale path when the key set
    is too large to broadcast exactly."""
    ref = ray.put(bloom)

    def fn(t: pa.Table) -> pa.Table:
        bf = ray.get(ref)
        mask = bf.contains(t[on].to_numpy(zero_copy_only=False))
        return t.filter(pa.array(mask))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _key_side(keys, on: str):
    """A key Dataset, or an in-memory key collection as one."""
    import ray.data as rd

    if isinstance(keys, rd.Dataset):
        return keys
    return rd.from_arrow(pa.table(
        {on: keys if isinstance(keys, pa.Array) else pa.array(list(keys))}))


def semi_join(ds, keys, on: str):
    """Rows of ``ds`` whose ``on`` value IS in ``keys`` (a Dataset with
    an ``on`` column, a key collection, or a ``BloomFilter``)."""
    if isinstance(keys, BloomFilter):
        return bloom_semi_join(ds, keys, on)
    return lookup(ds, _key_side(keys, on).select_columns([on]), on, how="semi")


def anti_join(ds, keys, on: str):
    """Rows of ``ds`` whose ``on`` value is NOT in ``keys`` (a Dataset
    with an ``on`` column, or a key collection). Exact-set only — a
    Bloom's false positives would silently drop valid rows."""
    return lookup(ds, _key_side(keys, on).select_columns([on]), on, how="anti")
