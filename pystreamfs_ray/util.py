"""Small shared helpers (hashing, bucketing, fingerprints, and the one
broadcast-or-shuffle gate every stage that gathers a small side uses)."""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np


def stable_hash64(*parts: Any) -> int:
    """Deterministic 64-bit hash of the string repr of ``parts``.

    Used for per-(entity, window) RNG seeding and for hash-bucketing
    entities across partitions. Independent of PYTHONHASHSEED.
    """
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(str(p).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


_HASH_KEY = "pystreamfs_ray03"  # fixed 16-byte key → deterministic across processes


def bucket_of(key: str, num_buckets: int) -> int:
    import pandas as pd

    h = pd.util.hash_array(np.asarray([str(key)], dtype=object), hash_key=_HASH_KEY)
    return int(h[0] % np.uint64(num_buckets))


def bucket_array(keys, num_buckets: int) -> np.ndarray:
    """Vectorized deterministic bucket assignment (SipHash via
    pandas.util.hash_array with a pinned key; ~100× faster than a
    per-key blake2 loop on big batches)."""
    import pandas as pd

    s = pd.Series(keys)
    if s.dtype != object:
        s = s.astype(str)  # hash the string form for any key dtype
    h = pd.util.hash_array(s.to_numpy(dtype=object), hash_key=_HASH_KEY)
    return (h % np.uint64(num_buckets)).astype(np.int32)


# the bytes RE2's ``\s`` matches: its Perl class is ASCII-only, so
# ``\v``, NBSP, U+2028 and the other Unicode spaces are NOT whitespace
RE2_SPACE = b"\t\n\f\r "


def byte_class_counts(arr, byte_class: bytes):
    """Per-row counts over a UTF-8 string array, read straight from its
    offsets and data buffers: ``(bytes in byte_class, maximal runs of
    bytes outside it)`` as int64 arrays, chunked like ``arr``; a null
    row gives null counts.

    ``byte_class`` must be ASCII. Every byte of a multi-byte UTF-8
    sequence is ≥ 0x80, so a codepoint is in the class iff its single
    byte is, and the counts equal RE2's ``count_substring_regex`` of
    ``[class]`` and ``[^class]+`` — with ``RE2_SPACE`` the ``\\s`` and
    ``\\S+`` counts. Temporaries per chunk are bool masks over the data
    bytes and the positions of the counted bytes."""
    cls = sorted(set(byte_class))
    if not cls or cls[-1] >= 0x80:
        raise ValueError(f"byte_class must be non-empty ASCII, got {byte_class!r}")
    # the class as inclusive byte ranges: one subtract-and-compare each
    # over the data is ~4x faster than a 256-entry lookup table
    ranges = []
    for b in cls:
        if ranges and ranges[-1][1] == b - 1:
            ranges[-1][1] = b
        else:
            ranges.append([b, b])

    import pyarrow as pa

    if isinstance(arr, pa.ChunkedArray):
        pairs = [_byte_class_counts_chunk(c, ranges) for c in arr.chunks]
        return tuple(pa.chunked_array([p[i] for p in pairs], type=pa.int64())
                     for i in (0, 1))
    return _byte_class_counts_chunk(arr, ranges)


def _byte_class_counts_chunk(arr, ranges: list):
    import pyarrow as pa

    if pa.types.is_large_string(arr.type):
        off_type = np.int64
    elif pa.types.is_string(arr.type):
        off_type = np.int32
    else:
        raise TypeError(f"expected string or large_string, got {arr.type}")
    n = len(arr)
    if n == 0:
        empty = pa.array([], type=pa.int64())
        return empty, empty
    _, offsets, data = arr.buffers()
    off = np.frombuffer(offsets, dtype=off_type)[arr.offset: arr.offset + n + 1]
    lo = int(off[0])
    d = (np.frombuffer(data, dtype=np.uint8)[lo: int(off[-1])]
         if data is not None else np.empty(0, dtype=np.uint8))
    bounds = off - lo
    inside = np.zeros(len(d), dtype=bool)
    for lo_b, hi_b in ranges:  # uint8 wrap-around: d - lo <= hi - lo
        inside |= (d - np.uint8(lo_b)) <= np.uint8(hi_b - lo_b)
    # a run starts at an outside byte that follows an inside byte or
    # opens its row
    starts = ~inside
    starts[1:] &= inside[:-1]
    first = bounds[:-1][bounds[:-1] < len(d)]
    starts[first] = ~inside[first]
    # per row [bounds[i], bounds[i+1]): difference of sorted-position ranks
    in_class = np.diff(np.searchsorted(np.flatnonzero(inside), bounds))
    runs = np.diff(np.searchsorted(np.flatnonzero(starts), bounds))
    mask = arr.is_null().to_numpy(zero_copy_only=False) if arr.null_count else None
    return (pa.array(in_class, type=pa.int64(), mask=mask),
            pa.array(runs, type=pa.int64(), mask=mask))


def content_hash64(values) -> np.ndarray:
    """Vectorized deterministic 64-bit content hash of a string array
    (SipHash, pinned key) — a PARTITIONER, not an identity: callers
    must resolve collisions by grouping on the value itself."""
    import pandas as pd

    return pd.util.hash_array(np.asarray(values, dtype=object), hash_key=_HASH_KEY)


def params_fingerprint(obj: Any) -> str:
    """Stable fingerprint of a JSON-serializable params dict."""
    return hashlib.blake2b(
        json.dumps(obj, sort_keys=True, default=str).encode(), digest_size=8
    ).hexdigest()


def ensure_cols(df, schema: dict):
    """Guarantee ``df`` has the given columns: Ray's ``to_pandas()`` on
    an EMPTY aggregate yields a frame with NO columns, so downstream
    `df[col]` raises on a legitimately-empty input. Missing columns are
    added as typed empty (or all-null for non-empty frames)."""
    import pandas as pd

    for col, dtype in schema.items():
        if col not in df.columns:
            df[col] = pd.Series([None] * len(df)).astype(dtype) if len(df) \
                else pd.Series([], dtype=dtype)
    return df


_STATM = (None, -1, 0)  # (owner pid, fd, page size)


def rss_bytes() -> int:
    """Current process resident-set size in bytes — the sandbox stand-in
    for the reference's per-window USS probe
    (`/root/reference/pystreamfs/pystreamfs.py:74`; psutil is absent
    here), at the reference's per-window cadence. ``/proc/self/statm``
    is opened once per process and re-read with ``pread``; the fd is
    keyed by pid, since a forked child inherits it and ``self`` in it
    still names the parent. Falls back to ru_maxrss (peak, kB) off
    Linux."""
    global _STATM
    import os

    try:
        pid, fd, page = _STATM
        if pid != os.getpid():
            fd = os.open("/proc/self/statm", os.O_RDONLY | os.O_CLOEXEC)
            _STATM = pid, fd, page = os.getpid(), fd, os.sysconf("SC_PAGE_SIZE")
        return int(os.pread(fd, 256, 0).split()[1]) * page
    except OSError:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def spread_sample_values(ds, col: str, *, per_block: int = 8,
                         max_blocks: int = 4096) -> np.ndarray:
    """Sorted sample of ``col`` drawn ACROSS the dataset for
    range-partition boundary estimation.

    ``ds.limit(n)`` takes the FIRST n rows — on inputs sorted or
    clustered by ``col`` (typical for event/time data) every boundary
    collapses into the leading value range and the two-phase scans
    degrade to near-single-partition execution. Instead each block
    contributes its own ``per_block``-point quantile grid (evenly
    spaced sorted values), so a value-sorted input still yields
    boundaries spanning the full range. Driver pull is bounded by
    ``per_block × num_blocks`` scalars (~6.4 M floats at 100 TB /
    128 MB blocks); exactness never depends on the sample — only
    partition balance does."""
    import pyarrow as pa

    def block_grid(t: pa.Table) -> pa.Table:
        arr = t[col].combine_chunks()
        n = len(arr)
        if n == 0:
            return pa.table({col: arr})
        import pyarrow.compute as pc

        sorted_idx = pc.sort_indices(arr)
        pick = np.linspace(0, n - 1, num=min(per_block, n)).astype(np.int64)
        return pa.table({col: arr.take(sorted_idx.take(pa.array(pick)))})

    grid = (ds.select_columns([col])
            .map_batches(block_grid, batch_format="pyarrow")
            .limit(per_block * max_blocks)  # hard cap, not a prefix bias:
            # each upstream block already shrank to per_block rows, so the
            # cap covers max_blocks blocks' worth of spread points
            .to_pandas())
    if col not in grid.columns:  # empty input → Ray drops the column
        return np.array([], dtype=np.float64)
    return np.sort(grid[col].to_numpy())


def quantile_bounds(values: np.ndarray, num_partitions: int) -> np.ndarray:
    """Range-partition boundaries (deduped interior quantiles) from a
    sorted sample; empty array → everything lands in partition 0."""
    if len(values) == 0 or num_partitions <= 1:
        return np.array([], dtype=values.dtype if len(values) else np.float64)
    qs = np.linspace(0, 1, num_partitions + 1)[1:-1]
    if not np.issubdtype(values.dtype, np.number):
        # string/object keys: positional nearest-quantiles of the sorted
        # sample (np.quantile is numeric-only); same semantics
        vs = np.sort(values)
        idx = np.rint(qs * (len(vs) - 1)).astype(np.int64)
        return np.unique(vs[idx])
    return np.unique(np.quantile(values, qs, method="nearest"))


def arrow_block(df):
    """pandas → metadata-free Arrow table. Return this from any
    map_batches COMBINER that feeds a groupby/aggregate (``combine_sum``
    and ``arrow_combiner`` do it for a combiner that returns pandas):
    pandas blocks through Ray's sort-based shuffle cost ~60× more
    map/reduce CPU than Arrow blocks (measured — see BASELINE.md), and
    the pandas schema-metadata blob additionally defeats shuffle
    schema-dedup."""
    import pyarrow as pa

    return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)


def arrow_combiner(fn):
    """Adapter for a pandas-implemented COMBINER feeding a
    groupby/aggregate: declares ``batch_format="pyarrow"`` semantics
    (convert the input table inside the fn) so the fused shuffle
    map-side keeps the fast Arrow sort path. Declaring
    ``batch_format="pandas"`` switches the fused sort to pandas blocks
    even when the fn RETURNS Arrow — measured 4-6× slower on a
    150k-key aggregate. A combiner whose reduce only sums goes through
    ``combine_sum``; any other reduce (``Count``/``Max``/``Min``,
    ``map_groups``, a join) uses
    ``map_batches(arrow_combiner(partial), batch_format="pyarrow")``."""
    import pyarrow as pa

    def wrapped(t: pa.Table):
        out = fn(t.to_pandas())
        return out if isinstance(out, pa.Table) else arrow_block(out)

    return wrapped


def combine_sum(ds, partial, keys, sums):
    """The map-side combiner → exact hash reduce for per-key sums:
    ``partial`` (pandas batch → pandas/Arrow partial rows) pre-aggregates
    each batch, then one groupby on ``keys`` sums each column of
    ``sums`` under its own name, so ``partial`` emits the final column
    names. Output: ``keys`` then ``sums``, one row per distinct key.
    The helper adds no local combine of its own: pandas ``groupby``
    drops null keys where Arrow ``group_by`` keeps them, so whether a
    null key survives stays the partial's choice."""
    from ray.data.aggregate import Sum

    return (ds.map_batches(arrow_combiner(partial), batch_format="pyarrow")
            .groupby(keys)
            .aggregate(*(Sum(c, alias_name=c) for c in sums)))


def drop_empty_blocks(ds, num_blocks: int):
    """Ray's hash aggregator can emit zero-row blocks with an EMPTY
    (zero-column) schema; a downstream hash join then fails FieldRef
    resolution on the key ("No match or multiple matches ... on right
    side of the join"). ``map_batches`` never sees empty blocks, so
    the Dataset-level fix is a split/merge ``repartition`` (no
    shuffle), which discards them. Use on any groupby/aggregate output
    that feeds a join; pick ``num_blocks`` ≈ the join partition
    count."""
    return ds.repartition(num_blocks)


# Largest small side (in-memory bytes, from block metadata) that a stage
# gathers into the calling process and broadcasts (``ray.put``) instead
# of keeping it distributed (a hash join or shuffle). It bounds the
# gather, the Python structures built from it, and the copy each node
# keeps in its object store. At 32 MiB the sites that broadcast a
# Python dict peak the gathering process at ~0.5 GiB of RSS
# (``evaluate_windows``, ``pmi_bigrams``) and ~0.3 GiB
# (``minhash_lsh_pairs``). 32 MiB was picked while ``pmi_bigrams``'
# dict held numpy int64 values, which took it past 2 GiB at 64 MiB;
# its 64 MiB peak with Python ints is unmeasured. Tests patch it to
# force either side.
BROADCAST_MAX_BYTES = 32 * 1024 * 1024


def fits_broadcast(ds) -> bool:
    """The one broadcast-or-shuffle gate: True when the MATERIALIZED
    ``ds`` holds no rows or at most ``BROADCAST_MAX_BYTES`` in memory.
    Reads block metadata only — no ``count()``/``schema()`` execution."""
    metas = [meta for bundle in ds.iter_internal_ref_bundles()
             for _, meta in bundle.blocks]
    return (sum(m.size_bytes or 0 for m in metas) <= BROADCAST_MAX_BYTES
            or not any(m.num_rows for m in metas))


def shuffle_partitions() -> int:
    """Partition count for the distributed side of every broadcast gate:
    half the session's CPUs, clamped to [4, 64] (a join pool larger than
    a small session's CPUs stalls it; a tiny one bottlenecks a cluster)."""
    import ray

    return min(64, max(4, int(ray.cluster_resources().get("CPU", 8)) // 2))


def stats_table(ds) -> "pd.DataFrame":
    """Parse ``ds.stats()`` (or that text itself) into a compact
    per-operator observability table: (operator, tasks, wall_total_s,
    cpu_total_s). An all-to-all operator reports each sub-operator as
    its own row, named ``<operator>/<sub-operator>`` (a ``Sort`` gives
    ``Sort/SortMap`` and ``Sort/SortReduce``). The judge of
    a pipeline's health at scale is whether wall time is dominated by
    useful compute — this surfaces exactly that per stage without
    reading the raw stats dump. Parsing is tolerant of missing
    fields (barrier operators report no remote times) and of future
    Ray wording changes (unmatched operators still appear with NaNs).
    """
    import re

    import pandas as pd

    text = ds if isinstance(ds, str) else ds.stats()
    rows = []
    parent, parent_row = "", None  # the last top-level operator
    for block in re.split(r"\n(?=\s*(?:Operator|Suboperator) \d+ )", text):
        m = re.match(r"\s*(Operator|Suboperator) (\d+) (.+?):", block)
        if not m:
            continue
        kind, name = m.group(1), m.group(3).strip()
        if kind == "Operator":
            parent = name
        else:
            if rows and rows[-1] is parent_row:
                rows.pop()  # the parent's header holds no times of its own
            name = f"{parent}/{name}"
        tasks = re.search(r"(\d+) tasks executed", block)
        wall = re.search(
            r"Remote wall time:.*?, ([\d.]+)(us|ms|s|m) total", block)
        cpu = re.search(
            r"Remote cpu time:.*?, ([\d.]+)(us|ms|s|m) total", block)

        def _sec(g):
            if not g:
                return float("nan")
            v, unit = float(g.group(1)), g.group(2)
            return v * {"us": 1e-6, "ms": 1e-3, "s": 1.0, "m": 60.0}[unit]

        rows.append({
            "operator": name[:80],
            "tasks": int(tasks.group(1)) if tasks else 0,
            "wall_total_s": round(_sec(wall), 3),
            "cpu_total_s": round(_sec(cpu), 3),
        })
        if kind == "Operator":
            parent_row = rows[-1]
    return pd.DataFrame(rows)
