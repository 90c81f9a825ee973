"""Dataset sources: Parquet (primary) and CSV (reference parity, S1).

The reference ingests CSV via pandas (`/root/reference/examples/
example_ofs.py:8-10`: ``pd.read_csv('credit.csv')`` → ``.values``); the
engine's primary source is column-pruned Parquet. Both wrappers here
also strip the writer-embedded ``pandas`` schema metadata from every
block: pyarrow 16's ``Schema.__hash__`` chokes on the metadata dict,
which disables Ray Data's schema-deduplication fast path inside every
shuffle ("Failed to hash the schemas" warning spam in reduce tasks) and
forces repeated full schema unification. Stripping at the read (the
map fuses with the read task — no extra stage at runtime) keeps every
downstream block schema hashable.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

from pystreamfs_ray.util import read_blocks, session_cpus


def _strip_meta(t: pa.Table) -> pa.Table:
    return t.replace_schema_metadata(None) if t.schema.metadata else t


def strip_schema_metadata(ds):
    """Drop per-block schema metadata (zero-copy; fuses with the read)."""
    return ds.map_batches(_strip_meta, batch_format="pyarrow", zero_copy_batch=True)


def _list_files(paths):
    """``[(path, on-disk bytes)]`` of the files a read of ``paths``
    covers, in Ray's listing order: a file as given, a directory walked
    recursively (Hive partition directories included), skipping names
    that start with ``.`` or ``_`` as Ray does. One ``os.stat`` per
    file and no footer read. None when a path is not a local file or
    directory (a URI, a glob, a missing path)."""
    import os

    out = []
    for p in paths if isinstance(paths, (list, tuple)) else [paths]:
        if not isinstance(p, str):
            return None
        if os.path.isfile(p):
            out.append((p, os.path.getsize(p)))
        elif os.path.isdir(p):
            found = []
            for root, dirs, names in os.walk(p):
                dirs[:] = [d for d in dirs if not d.startswith((".", "_"))]
                found += [os.path.join(root, n) for n in names
                          if not n.startswith((".", "_"))]
            out += [(f, os.path.getsize(f)) for f in sorted(found)]
        else:
            return None
    return out


def _clean_schema(paths, files, columns):
    """Metadata-free read schema (projected to ``columns``) from the
    first listed file's footer — one footer read. Passing it to
    ``read_parquet`` keeps the READ op's own block schemas hashable
    too (the post-read strip only covers downstream ops), so Ray's
    schema-dedup fast path works everywhere. Returns None when the
    first path is neither a file nor a directory holding ``.parquet``
    files at its top level: a Hive-partitioned directory adds its
    partition columns to the rows, which a footer schema lacks."""
    import os

    import pyarrow.parquet as pq

    p = paths[0] if isinstance(paths, (list, tuple)) else paths
    if files is None or not isinstance(p, str):
        return None
    if os.path.isdir(p):
        top = [f for f, _ in files
               if os.path.normpath(os.path.dirname(f)) == os.path.normpath(p)
               and f.endswith(".parquet")]
        if not top:
            return None
        p = top[0]
    try:
        full = pq.read_schema(p).remove_metadata()
        if columns is None:
            return full
        return pa.schema([full.field(c) for c in columns])
    except Exception:
        return None


def read_parquet(paths, **kwargs):
    """``ray.data.read_parquet`` with hashable (metadata-free) block
    schemas and a block count sized from the input. Pass
    ``columns=[...]`` so only needed columns leave storage, and
    ``filter=pyarrow.dataset.Expression`` to push row predicates into
    the scan (row-group stats prune whole groups when the predicate
    hits the table's sort column).

    Block count: unless the caller passes ``override_num_blocks`` or
    ``parallelism``, the read asks for ``util.read_blocks(bytes, cpus)``
    = max(2 × session CPUs, ceil(bytes / target_max_block_size))
    blocks. ``bytes`` is the on-disk size of the listed files — known
    from the listing alone, with no footer scan and no Ray Data
    execution; it ignores a column projection, so it can only
    over-count and err toward more, smaller blocks. Ray still splits
    any output block larger than ``target_max_block_size``.
    When a path is not a local file or directory (a URI, a glob) or
    Ray is not initialized yet, Ray's default applies."""
    files = _list_files(paths)
    if "schema" not in kwargs:
        schema = _clean_schema(paths, files, kwargs.get("columns"))
        if schema is not None:
            kwargs["schema"] = schema
    if (files is not None and "override_num_blocks" not in kwargs
            and "parallelism" not in kwargs):
        cpus = session_cpus()
        if cpus:
            kwargs["override_num_blocks"] = read_blocks(
                sum(n for _, n in files), cpus)
    return strip_schema_metadata(rd.read_parquet(paths, **kwargs))


def read_csv(paths, **kwargs):
    """``ray.data.read_csv`` with hashable block schemas (S1 parity
    source — the reference's datasets ship as CSV)."""
    return strip_schema_metadata(rd.read_csv(paths, **kwargs))


def read_jsonl(paths, **kwargs):
    """``ray.data.read_json`` (newline-delimited JSON — the common
    interchange format for LLM transcript corpora) with hashable block
    schemas. Prefer Parquet for anything reread more than once; JSONL
    is the ingest edge."""
    return strip_schema_metadata(rd.read_json(paths, **kwargs))


def write_partitioned_parquet(ds, path: str, *, by: str | list[str],
                              mode: str = "overwrite", **kwargs) -> None:
    """Resumable-layout sink: one Hive-style directory per value of
    ``by`` (``path/by=value/part-*.parquet``) — a failed run reruns
    only the partitions whose directories are missing, and readers
    prune partitions at the path level. Never one giant file."""
    cols = [by] if isinstance(by, str) else list(by)
    ds.write_parquet(path, partition_cols=cols, mode=mode, **kwargs)


def csv_stream_source(path: str, *, target_col: str = "target",
                      entity: str | None = None, shuffle: bool = False,
                      seed: int | None = None):
    """A reference CSV dataset as a transcript-shaped stream Dataset.

    Columns become ``f00..fNN`` float64 features plus ``label``; rows
    become turns of one entity (``conv_id``, ``turn_idx``) in file
    order — the reference's row-order-is-stream-order contract
    (`/root/reference/pystreamfs/pystreamfs.py:29`). The file is read
    as ONE block per file because CSV carries no intrinsic order key to
    recover ordering from; at scale, convert to Parquet with an
    explicit order column instead (this source exists for parity with
    the reference's small CSV datasets).

    ``shuffle=True`` applies the reference's opt-in whole-dataset
    shuffle (`/root/reference/pystreamfs/pystreamfs.py:20-21`) as a
    seeded ``Dataset.random_shuffle`` — O2 in SURVEY.md §2.
    """
    ds = read_csv(path, override_num_blocks=1)
    ent = entity if entity is not None else "stream"

    def to_stream(t: pa.Table) -> pa.Table:
        cols = [c for c in t.column_names if c != target_col]
        n = len(t)
        arrays = {
            "conv_id": pa.array(np.full(n, ent, dtype=object), type=pa.string()),
            "turn_idx": pa.array(np.arange(n, dtype=np.int32)),
        }
        for i, c in enumerate(cols):
            arrays[f"f{i:02d}"] = t[c].cast(pa.float64(), safe=False)
        arrays["label"] = t[target_col].cast(pa.int8(), safe=False)
        return pa.table(arrays)

    # batch_size=None → whole block in one call, so turn_idx is the
    # contiguous file row number
    ds = ds.map_batches(to_stream, batch_format="pyarrow", batch_size=None)
    if shuffle:
        ds = shuffle_stream(ds, seed=seed)
    return ds


def sample_by_hash(ds, col: str, rate: float, *, salt: str = ""):
    """Deterministic content-keyed sampling: keep rows where
    ``md5(salt || col) mod 2^16 < rate * 2^16``. Unlike random
    sampling, the decision is a pure function of the KEY — the same
    row is kept in every run, on every cluster, at any parallelism
    (reproducible train/eval splits, consistent downsampling across
    derived tables keyed on the same id). SQL-mirrorable via
    ``md5_number_lower``."""
    import numpy as np

    from pystreamfs_ray.stages.dedup import _md5_lower64

    threshold = int(rate * 65536)

    def keep(t: pa.Table) -> pa.Table:
        h = _md5_lower64([salt + str(v) for v in t[col].to_pylist()])
        mask = (h % np.uint64(65536)) < threshold
        return t.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def temperature_rates(weights: dict[str, float], *, temperature: float = 1.0,
                      base_rate: float = 1.0) -> dict[str, float]:
    """Temperature-flattened mixing rates: ``r_s = base ·
    w_s^(1/T) / max_s w_s^(1/T)`` — T=1 keeps the weights' proportions,
    T→∞ flattens every source to ``base_rate`` (the multilingual /
    multi-source rebalancing rule from the GPT-3 / XLM-R data recipes).
    Shared by the engine (→ ``stratified_sample_by_hash``) and the SQL
    oracle so both inline the IDENTICAL integer thresholds."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    pw = {s: float(w) ** (1.0 / temperature) for s, w in weights.items()}
    mx = max(pw.values())
    return {s: base_rate * v / mx for s, v in pw.items()}


def temperature_mix(ds, strata_col: str, key_col: str,
                    weights: dict[str, float], *, temperature: float = 1.0,
                    base_rate: float = 1.0, salt: str = ""):
    """Deterministic temperature-weighted corpus mixing: per-source keep
    rates from :func:`temperature_rates`, membership by md5-of-key
    threshold (reproducible at any parallelism, shuffle-free — one
    streaming filter). Sources absent from ``weights`` are dropped."""
    rates = temperature_rates(weights, temperature=temperature,
                              base_rate=base_rate)
    return stratified_sample_by_hash(ds, strata_col, key_col, rates,
                                     default_rate=0.0, salt=salt)


def stratified_sample_by_hash(ds, strata_col: str, key_col: str,
                              rates: dict[str, float], *,
                              default_rate: float = 0.0, salt: str = ""):
    """Deterministic per-stratum sampling: each stratum keeps its own
    fraction (corpus mixing / source re-weighting), same md5-threshold
    rule as ``sample_by_hash`` so the kept set is a pure function of
    the key — identical at any parallelism. Shuffle-free: one
    streaming filter."""
    import numpy as np

    from pystreamfs_ray.stages.dedup import _md5_lower64

    thresholds = {s: np.uint64(int(r * 65536)) for s, r in rates.items()}
    default_t = np.uint64(int(default_rate * 65536))

    def keep(t: pa.Table) -> pa.Table:
        h = _md5_lower64([salt + str(v) for v in t[key_col].to_pylist()])
        strata = t[strata_col].to_pandas()
        thr = strata.map(thresholds).fillna(default_t).to_numpy(dtype=np.uint64)
        return t.filter(pa.array((h % np.uint64(65536)) < thr))

    return ds.map_batches(keep, batch_format="pyarrow")


def sample_n_per_group(ds, group_col: str, key_col: str, n: int, *,
                       salt: str = ""):
    """Deterministic EXACT-n sample per group: each group keeps the n
    rows with the smallest ``md5(salt || key)`` (tie-break on the key) —
    the fixed-size counterpart of ``stratified_sample_by_hash`` (which
    keeps a *fraction*). Distributed reservoir without randomness: the
    kept set is a pure function of the keys, identical at any
    parallelism, and refining n later keeps a superset. Built on the
    ``grouped_topk`` combiner (≤ n rows per group leave each batch)."""
    import numpy as np

    from pystreamfs_ray.stages.dedup import _md5_lower64
    from pystreamfs_ray.stages.grouped import grouped_topk

    def add_hash(t: pa.Table) -> pa.Table:
        h = _md5_lower64([salt + str(v) for v in t[key_col].to_pylist()])
        return t.append_column("__hv", pa.array(h.astype(np.uint64)))

    picked = grouped_topk(
        ds.select_columns([group_col, key_col]).map_batches(
            add_hash, batch_format="pyarrow"),
        group_col, "__hv", n, tiebreak_col=key_col, descending=False)
    return picked.drop_columns(["__hv", "rank"])


def random_shuffle(ds, *, seed: int | None = None):
    """Opt-in whole-dataset physical shuffle — the Dataset-path analog
    of the reference's pre-stream shuffle flag
    (`/root/reference/pystreamfs/pystreamfs.py:20-21`). A seeded
    all-to-all exchange; use only when randomized ROW PLACEMENT is the
    goal (e.g. decorrelating storage order before sampling). Stream
    ORDER is carried by (conv_id, turn_idx), which this does not touch —
    for randomized stream order use ``shuffle_stream``."""
    return ds.random_shuffle(seed=seed)


def shuffle_stream(ds, *, seed: int = 0, entity_col: str = "conv_id",
                   order_col: str = "turn_idx", num_buckets: int = 64):
    """Randomize each entity's STREAM ORDER (O2 stream semantics).

    The reference shuffles the matrix before the stream loop, so
    position in the shuffled order becomes the new stream order; with
    one matrix == one entity, the distributed lift is a seeded
    permutation of each entity's ``order_col`` ranks. The permutation
    is derived from ``(seed, entity)`` only, so the result is
    independent of block layout and task scheduling (tested)."""
    import pandas as pd

    from pystreamfs_ray.stages.window import per_bucket, sort_entity
    from pystreamfs_ray.util import stable_hash64

    def permute(group: pd.DataFrame) -> pd.DataFrame:
        group = sort_entity(group, entity_col=entity_col, order_cols=(order_col,))
        out = []
        for ent, g in group.groupby(entity_col, sort=False):
            rng = np.random.default_rng([seed, stable_hash64(ent) & 0x7FFFFFFF])
            g = g.copy()
            g[order_col] = g[order_col].to_numpy()[rng.permutation(len(g))]
            out.append(g)
        return pd.concat(out) if out else group

    return per_bucket(ds, permute, entity_col=entity_col,
                      num_buckets=num_buckets)


def write_jsonl(ds, path: str, **kwargs) -> None:
    """Newline-delimited JSON sink (one file per block — resumable,
    never one giant file); the interchange twin of ``read_jsonl``."""
    ds.write_json(path, **kwargs)


def budget_sample(ds, group_col: str, key_col: str, weight_col: str,
                  budget: int, *, salt: str = "", num_buckets: int = 64):
    """Token-budget corpus assembly: per group (source/domain), admit
    rows in deterministic md5-of-key order until the group's cumulative
    ``weight_col`` (token count) reaches ``budget`` — the greedy
    fixed-budget form of corpus mixing (vs ``stratified_sample_by_hash``
    which fixes a RATE, and ``sample_n_per_group`` which fixes a row
    COUNT). A row is kept iff the running total INCLUDING it is ≤
    budget; hash order makes the kept set a pure function of the keys
    (any parallelism, any run) and growing the budget keeps a superset.

    One group-hash shuffle; the per-group pass is a vectorized sort +
    cumsum. Per-group volume is the group's rows — for groups too big
    for one task, range-partition the hash space and use
    ``stages/packing.distributed_prefix_sum`` instead (same result)."""
    import numpy as np
    import pandas as pd

    from pystreamfs_ray.stages.dedup import _md5_lower64
    from pystreamfs_ray.stages.window import per_bucket

    def add_hash(t: pa.Table) -> pa.Table:
        h = _md5_lower64([salt + str(v) for v in t[key_col].to_pylist()])
        return t.append_column("__hv", pa.array(h.astype(np.uint64)))

    def admit(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, grp in g.groupby(group_col, sort=False):
            order = np.lexsort((grp[key_col].to_numpy(), grp["__hv"].to_numpy()))
            w = grp[weight_col].to_numpy(np.int64)[order]
            keep = order[np.cumsum(w) <= budget]
            out.append(grp.iloc[np.sort(keep)])
        res = pd.concat(out) if out else g.iloc[:0]
        return res.drop(columns=["__hv"])

    keyed = ds.select_columns([group_col, key_col, weight_col]).map_batches(
        add_hash, batch_format="pyarrow")
    return per_bucket(keyed, admit, entity_col=group_col,
                      num_buckets=num_buckets)


def weighted_sample(ds, id_col: str, weight_col: str, *,
                    k_bits: int = 54, weight_cap: int = 1000,
                    salt: str = ""):
    """Weighted Bernoulli (probability-proportional-to-size) sample:
    keep a row iff ``md5_low64(salt || id) < min(weight, cap) << k_bits``
    — inclusion probability min(w, cap)/2^(64−k_bits), EXACT unsigned
    integer arithmetic end to end (no float keys, no pow/ln, so the
    DuckDB oracle replays it bit-for-bit via ``md5_number_lower``).
    Deterministic, parallelism-invariant, one streaming pass; the cap
    bounds the 64-bit product (cap · 2^k_bits < 2^64 required)."""
    from pystreamfs_ray.stages.dedup import _md5_lower64

    if weight_cap << k_bits >= 1 << 64:
        raise ValueError("weight_cap << k_bits must stay below 2^64")
    scale = np.uint64(1 << k_bits)

    def fn(df):
        import pandas as pd  # noqa: F401

        h = _md5_lower64([salt + str(v) for v in df[id_col]])
        w = np.minimum(df[weight_col].to_numpy(np.int64), weight_cap)
        w = np.maximum(w, 0).astype(np.uint64)
        return df[h < w * scale]

    return ds.map_batches(fn, batch_format="pandas")


def split_cutoffs(splits) -> list[int]:
    """Cumulative 16-bit hash cutoffs for a ratio split, computed ONCE
    in Python (truncating ``int``) so the engine and any SQL mirror use
    the identical integer boundaries — ``CAST(rate*65536 AS UBIGINT)``
    in DuckDB ROUNDS and diverges on boundary hash values (the
    ``decontam.eval_mask_expr`` lesson)."""
    cum, cuts = 0.0, []
    for _, rate in splits[:-1]:
        cum += rate
        cuts.append(int(cum * 65536))
    return cuts


def split_labels(values,
                 splits=(("train", 0.8), ("val", 0.1), ("test", 0.1)),
                 salt: str = "") -> np.ndarray:
    """Vector form of the holdout rule: the split name per key value
    (md5-of-key vs `split_cutoffs`' truncating-integer boundaries).
    Row-local — usable on any id column of any batch."""
    from pystreamfs_ray.stages.dedup import _md5_lower64

    names = np.array([name for name, _ in splits], dtype=object)
    cuts = np.array(split_cutoffs(splits), dtype=np.uint64)
    h = _md5_lower64([salt + str(v) for v in values]) % np.uint64(65536)
    return names[np.searchsorted(cuts, h, side="right")]


def split_assign(ds, key_col: str,
                 splits=(("train", 0.8), ("val", 0.1), ("test", 0.1)),
                 salt: str = ""):
    """Deterministic train/val/test assignment by md5-of-key: the split
    boundary is a row-local hash compare against Python-truncated
    integer cutoffs (`split_cutoffs`), so the assignment is reproducible
    at any parallelism, stable when the corpus grows (a document never
    changes split), and needs no shuffle at all — the canonical holdout
    split for training-data pipelines (vs `q_kfold`'s fold aggregate)."""

    def fn(df):
        out = df.copy()
        out["split"] = split_labels(df[key_col], splits, salt)
        return out

    return ds.map_batches(fn, batch_format="pandas")


def export_jsonl_sharded(ds, path: str, *, by: str = "conv_id",
                         num_shards: int = 16, resume: bool = False,
                         sort_cols=None):
    """Sharded JSONL sink for training-data export (SFT pairs, rendered
    chats): rows hash-partition by ``by`` into ``num_shards`` files,
    each written ATOMICALLY (tmp + rename) by its own group task with
    a deterministic name (``shard=NNNNN.jsonl``) and deterministic
    row order — so a failed run reruns only missing shards
    (``resume=True`` skips shards whose file already exists) and two
    runs produce byte-identical output. Eager sink (like
    ``write_parquet``): returns the manifest as a pandas DataFrame
    (shard, n_rows, skipped, path) — always these four columns, even
    for an empty input (Ray's ``to_pandas`` drops the schema of a
    zero-row dataset, so a Dataset return could not promise that).
    The manifest is <= ``num_shards`` rows; shard payloads never
    touch the driver.
    Serialization is pandas ``to_json(lines=True)`` — C-level, no
    per-row Python. Local/shared-filesystem paths; at cluster scale
    point ``path`` at a mounted shared FS or adapt with pyarrow.fs."""
    import os

    import pandas as pd

    from pystreamfs_ray.stages.dedup import _md5_lower64

    keys = list(sort_cols) if sort_cols else [by]

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["__shard"] = (_md5_lower64([str(v) for v in df[by]])
                          % np.uint64(num_shards)).astype(np.int64)
        return out

    def write_group(g: pd.DataFrame) -> pd.DataFrame:
        shard = int(g["__shard"].iloc[0])
        fp = os.path.join(path, f"shard={shard:05d}.jsonl")
        if resume and os.path.exists(fp):
            return pd.DataFrame({"shard": [shard], "n_rows": [np.int64(-1)],
                                 "skipped": [True], "path": [fp]})
        g = (g.drop(columns="__shard")
             .sort_values(keys, kind="mergesort", ignore_index=True))
        tmp = fp + f".tmp-{os.getpid()}"
        g.to_json(tmp, orient="records", lines=True, force_ascii=False)
        os.replace(tmp, fp)
        return pd.DataFrame({"shard": [shard], "n_rows": [np.int64(len(g))],
                             "skipped": [False], "path": [fp]})

    os.makedirs(path, exist_ok=True)
    keyed = ds.map_batches(add_shard, batch_format="pandas")
    manifest = keyed.groupby("__shard").map_groups(
        write_group, batch_format="pandas")
    mdf = manifest.to_pandas()
    if len(mdf) == 0:
        mdf = pd.DataFrame({"shard": pd.Series([], dtype=np.int64),
                            "n_rows": pd.Series([], dtype=np.int64),
                            "skipped": pd.Series([], dtype=bool),
                            "path": pd.Series([], dtype=str)})
    return mdf


def parquet_footer_stats(paths):
    """Shard-planning audit from parquet FOOTERS only — per row group,
    per plain-int64 column (physical INT64, no logical type — i.e. not
    timestamps): value count, null count, and the min/max the engine's
    row-group pruning relies on. No data pages are read: one footer
    fetch per file, parallelized as a Dataset over the path list, so
    auditing a million-shard 100 TB layout is a metadata-sized job.
    The same rule a `read_parquet(columns=..., filter=...)` planner
    applies — this is the operator that VERIFIES pruning is possible.
    """
    import pandas as pd
    import pyarrow.types as pat
    import ray.data as rd

    def footers(df: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as pq

        rows = []
        for path in df["path"]:
            pf = pq.ParquetFile(path)
            sa = pf.schema_arrow
            int_cols = {f.name for f in sa if pat.is_int64(f.type)}
            md = pf.metadata
            name_of = {i: md.schema.column(i).path
                       for i in range(md.num_columns)}
            for rg_i in range(md.num_row_groups):
                rg = md.row_group(rg_i)
                for ci in range(rg.num_columns):
                    if name_of[ci] not in int_cols:
                        continue
                    col = rg.column(ci)
                    st = col.statistics
                    # statistics can be absent (write_statistics=False)
                    # and min/max unset (all-null chunk) — emit NULLs
                    # like DuckDB's parquet_metadata, never crash
                    nulls = (int(st.null_count) if st is not None
                             and st.has_null_count else None)
                    mn = (int(st.min) if st is not None
                          and st.has_min_max else None)
                    mx = (int(st.max) if st is not None
                          and st.has_min_max else None)
                    rows.append((path, rg_i, name_of[ci],
                                 int(col.num_values), nulls, mn, mx))
        import pyarrow as pa

        out = pd.DataFrame(rows, columns=[
            "file_name", "row_group_id", "column_name", "num_values",
            "null_count", "min_v", "max_v"])
        # explicit Arrow schema: a file with no plain-int64 columns
        # yields an EMPTY frame whose object columns otherwise break
        # Ray's block size estimation (and schema unification)
        return pa.Table.from_pandas(out, preserve_index=False).cast(
            pa.schema([("file_name", pa.string()),
                       ("row_group_id", pa.int64()),
                       ("column_name", pa.string()),
                       ("num_values", pa.int64()),
                       ("null_count", pa.int64()),
                       ("min_v", pa.int64()),
                       ("max_v", pa.int64())])).replace_schema_metadata(None)

    return rd.from_items(
        [{"path": p} for p in paths],
        override_num_blocks=max(1, len(paths)),
    ).map_batches(footers, batch_format="pandas")


def read_orc(paths, *, columns=None):
    """ORC source (Ray 2.49 ships no ``read_orc``): the path list fans
    out one task per file, each decoding via ``pyarrow.orc`` with
    column pruning pushed into the reader. A sharded 100-TB ORC layout
    (many files) parallelizes file-per-task, matching how the parquet
    reader assigns blocks; single giant ORC files should be re-sharded
    upstream (stripe-level splitting needs a dedicated datasource)."""
    import glob as _glob
    import os as _os

    import pyarrow as pa
    import ray.data as rd

    if isinstance(paths, str):
        paths = (sorted(_glob.glob(_os.path.join(paths, "*.orc")))
                 if _os.path.isdir(paths) else [paths])

    def load(df) -> pa.Table:
        import pyarrow.orc as orc

        tables = [orc.read_table(p, columns=columns) for p in df["path"]]
        return (pa.concat_tables(tables).replace_schema_metadata(None)
                if tables else pa.table({}))

    return rd.from_items(
        [{"path": p} for p in paths],
        override_num_blocks=max(1, len(paths)),
    ).map_batches(load, batch_format="pandas")


def write_orc(ds, out_dir: str, *, overwrite: bool = False) -> int:
    """ORC sink: one file per streamed block. Names combine the block's
    content hash with a per-writer uuid so byte-identical blocks (or
    Arrow layout variants of the same values) NEVER collapse or race —
    a sink must preserve row multiplicity. Idempotency is directory-
    level, like ``write_partitioned_parquet``: the target must be empty
    (or pass ``overwrite=True`` to clear it), so a re-run replaces the
    output instead of appending duplicates. Returns the file count."""
    import os as _os
    import shutil as _shutil

    import pyarrow as pa

    if _os.path.isdir(out_dir) and _os.listdir(out_dir):
        if not overwrite:
            raise FileExistsError(
                f"{out_dir} is not empty; pass overwrite=True "
                "(appending would duplicate rows on re-runs)")
        _shutil.rmtree(out_dir)
    _os.makedirs(out_dir, exist_ok=True)

    def dump(t: pa.Table) -> pa.Table:
        import hashlib
        import uuid

        import pyarrow.orc as orc

        if len(t) == 0:
            return pa.table({"path": pa.array([], type=pa.string())})
        h = hashlib.md5()
        for name in sorted(t.column_names):
            arr = t[name].combine_chunks()  # one contiguous Array
            for buf in (b for b in arr.buffers() if b is not None):
                h.update(buf)
        stem = f"part-{h.hexdigest()[:16]}-{uuid.uuid4().hex[:8]}"
        path = _os.path.join(out_dir, stem + ".orc")
        tmp = path + ".tmp"
        orc.write_table(t, tmp)
        _os.replace(tmp, path)  # atomic publish
        return pa.table({"path": pa.array([path], type=pa.string())})

    files = ds.map_batches(dump, batch_format="pyarrow",
                           batch_size=None).to_pandas()
    return len(files)


def read_ipc(paths, *, columns=None):
    """Arrow IPC / Feather V2 source (Ray 2.49 ships no feather
    reader): one task per file, decoding via ``pyarrow.feather`` with
    column pruning pushed into the reader (IPC is a random-access
    format, so unneeded columns are never touched). Sharded layouts
    parallelize file-per-task like :func:`read_orc`; record-batch-level
    splitting of one giant file needs a dedicated datasource."""
    import glob as _glob
    import os as _os

    import pyarrow as pa
    import ray.data as rd

    if isinstance(paths, str):
        paths = (sorted(_glob.glob(_os.path.join(paths, "*.arrow")))
                 if _os.path.isdir(paths) else [paths])

    def load(df) -> pa.Table:
        import pyarrow.feather as feather

        tables = [feather.read_table(p, columns=columns)
                  for p in df["path"]]
        return (pa.concat_tables(tables).replace_schema_metadata(None)
                if tables else pa.table({}))

    return rd.from_items(
        [{"path": p} for p in paths],
        override_num_blocks=max(1, len(paths)),
    ).map_batches(load, batch_format="pandas")


def write_ipc(ds, out_dir: str, *, overwrite: bool = False) -> int:
    """Arrow IPC / Feather V2 sink, same contract as :func:`write_orc`:
    one file per streamed block, content-hash + uuid names so
    byte-identical blocks never collapse or race (multiplicity is
    preserved), directory-level idempotency (target must be empty
    unless ``overwrite=True``). Returns the file count."""
    import os as _os
    import shutil as _shutil

    import pyarrow as pa

    if _os.path.isdir(out_dir) and _os.listdir(out_dir):
        if not overwrite:
            raise FileExistsError(
                f"{out_dir} is not empty; pass overwrite=True "
                "(appending would duplicate rows on re-runs)")
        _shutil.rmtree(out_dir)
    _os.makedirs(out_dir, exist_ok=True)

    def dump(t: pa.Table) -> pa.Table:
        import hashlib
        import uuid

        import pyarrow.feather as feather

        if len(t) == 0:
            return pa.table({"path": pa.array([], type=pa.string())})
        h = hashlib.md5()
        for name in sorted(t.column_names):
            arr = t[name].combine_chunks()
            for buf in (b for b in arr.buffers() if b is not None):
                h.update(buf)
        stem = f"part-{h.hexdigest()[:16]}-{uuid.uuid4().hex[:8]}"
        path = _os.path.join(out_dir, stem + ".arrow")
        tmp = path + ".tmp"
        feather.write_feather(t, tmp, version=2)
        _os.replace(tmp, path)
        return pa.table({"path": pa.array([path], type=pa.string())})

    files = ds.map_batches(dump, batch_format="pyarrow",
                           batch_size=None).to_pandas()
    return len(files)
