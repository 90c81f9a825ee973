"""Sequence packing for pre-training: lay documents end-to-end in a
deterministic global order and cut the token stream into fixed-length
training sequences ("concat-and-chunk", the standard GPT-style packing).

The hard part at scale is the GLOBAL exclusive prefix sum of token
counts: every doc needs the total number of tokens before it. The
classic two-phase distributed scan does it with ONE pass plus O(P)
driver state: range-partition on the order key, reduce each partition
to a single token total (tiny), exclusive-scan those P totals on the
driver, broadcast the per-partition offsets back, and cumsum inside
each partition. Nothing but P integers ever reaches the driver, and
partition boundaries come from a sample — balance, not correctness,
depends on them.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from pystreamfs_ray.util import RE2_SPACE, byte_class_counts

_PART = "__part"


def distributed_prefix_sum(ds, *, order_col: str, value_col: str,
                           out_col: str = "prefix_excl",
                           num_partitions: int = 32,
                           boundary_sample: int = 4096):
    """Append the EXCLUSIVE prefix sum of ``value_col`` taken in global
    ``order_col`` order (``order_col`` values must be unique — they are
    the total order). Two-phase scan: per-partition totals → driver
    exclusive scan of P integers → per-partition sorted cumsum + offset.
    """
    from pystreamfs_ray.util import quantile_bounds, spread_sample_values

    # spread sample (not ds.limit — prefix-biased on sorted input)
    keys = spread_sample_values(
        ds, order_col, max_blocks=max(boundary_sample // 8, 1))
    bounds = quantile_bounds(keys, num_partitions)

    def assign(t: pa.Table) -> pa.Table:
        part = np.searchsorted(bounds, t[order_col].to_numpy(zero_copy_only=False),
                               side="left")
        return t.append_column(_PART, pa.array(part.astype(np.int32)))

    parted = ds.map_batches(assign, batch_format="pyarrow")

    # phase 1: one integer per partition
    from ray.data.aggregate import Sum

    totals = (parted.select_columns([_PART, value_col]).groupby(_PART)
              .aggregate(Sum(value_col, alias_name="__t")).to_pandas()
              .sort_values(_PART, ignore_index=True))
    offsets = np.zeros(len(bounds) + 1, dtype=np.int64)
    run = 0
    by_part = dict(zip(totals[_PART].astype(int), totals["__t"].astype(np.int64)))
    for p in range(len(bounds) + 1):
        offsets[p] = run
        run += int(by_part.get(p, 0))

    # phase 2: per-partition sorted cumsum + broadcast offset
    def scan(group: pa.Table) -> pa.Table:
        if isinstance(group, dict):
            group = pa.table(group)
        order = pc.sort_indices(group[order_col])
        g = group.take(order)
        v = g[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        part = int(g[_PART][0].as_py())
        prefix = np.cumsum(v) - v + offsets[part]
        return g.append_column(out_col, pa.array(prefix)).drop_columns([_PART])

    return parted.groupby(_PART).map_groups(scan, batch_format="pyarrow")


def pack_sequences(ds, *, seq_len: int = 512, id_col: str = "doc_id",
                   text_col: str | None = "text", tokens_col: str | None = None,
                   num_partitions: int = 32):
    """Concat-and-chunk packing layout: per doc, its global token span
    ``[tok_start, tok_end)`` and the training sequences ("packs") it
    lands in (``pack_first..pack_last``; a doc crossing a boundary is
    split across those packs). ``tokens_col`` supplies precomputed
    counts; otherwise tokens are RE2 ``\\S+`` runs of ``text_col``
    counted from its UTF-8 bytes (``util.byte_class_counts``)."""
    if tokens_col is None:
        def count(t: pa.Table) -> pa.Table:
            n = byte_class_counts(t[text_col], RE2_SPACE)[1]
            return t.append_column("n_tokens", n).drop_columns([text_col])

        ds = ds.map_batches(count, batch_format="pyarrow")
        tokens_col = "n_tokens"

    scanned = distributed_prefix_sum(ds, order_col=id_col, value_col=tokens_col,
                                     out_col="tok_start",
                                     num_partitions=num_partitions)

    def layout(t: pa.Table) -> pa.Table:
        start = t["tok_start"].to_numpy(zero_copy_only=False)
        n = t[tokens_col].to_numpy(zero_copy_only=False)
        end = start + n
        first = start // seq_len
        last = np.where(n > 0, (end - 1) // seq_len, first)
        n_packs = np.where(n > 0, last - first + 1, 0)
        return (t.append_column("tok_end", pa.array(end))
                 .append_column("pack_first", pa.array(first))
                 .append_column("pack_last", pa.array(last))
                 .append_column("n_packs", pa.array(n_packs.astype(np.int64))))

    return scanned.map_batches(layout, batch_format="pyarrow")
