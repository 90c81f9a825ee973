"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Scale shapes (per the Ray Data dedup playbook):

- exact: content-hash column per batch (vectorized) → hash-partitioned
  group → keep the smallest id. One shuffle of (hash, id) — text never
  shuffles twice.
- MinHash-LSH: shingle→minhash per batch (numpy, no Python loop over
  permutations) → explode to (band_id, band_hash, doc_id) rows →
  groupby banding buckets → candidate pairs → verify with the
  *signature-estimated* Jaccard against the signature table (no O(n²)
  text comparison), looked up per pair through ``stages/joins.lookup``
  (broadcast when it fits, else two hash joins — no driver
  materialization), the switch every small side in this module uses.
- SimHash: 64-bit signature per doc, banded into 16-bit blocks for
  candidate generation, Hamming-verified.
- embedding near-dup: random-hyperplane LSH buckets → exact cosine
  verify inside buckets.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_MERSENNE = np.uint64((1 << 61) - 1)


def _arrow_type_of(t, default: pa.DataType) -> pa.DataType:
    """Best-effort Arrow type from a Ray ``Dataset.schema().types``
    entry: pandas-backed datasets report numpy dtypes / Python classes
    there instead of Arrow types. Object/str dtypes map to string (in
    this engine object columns are text); anything unmappable falls
    back to ``default``."""
    if isinstance(t, pa.DataType):
        return t
    try:
        dt = np.dtype(t) if t is not None else None
    except TypeError:
        return default
    if dt is None:
        return default
    if dt == np.dtype(object) or dt.kind in ("U", "S"):
        return pa.string()
    try:
        return pa.from_numpy_dtype(dt)
    except (TypeError, pa.ArrowNotImplementedError):
        return default


def _md5_lower64(strings) -> np.ndarray:
    """md5-low-64 per string: the LAST 8 digest bytes, little-endian —
    exactly DuckDB's ``md5_number_lower``, so every operator built on it
    has a SQL oracle. One C-level md5 call per string, zero per-bit
    Python work (callers hash UNIQUE strings only)."""
    buf = b"".join(hashlib.md5(s.encode()).digest()[8:] for s in strings)
    return np.frombuffer(buf, dtype="<u8")


# ------------------------------------------------------------------- exact


def exact_dedup(ds, *, id_col: str = "doc_id", text_col: str = "text",
                extra_cols: tuple = (), num_buckets: int = 64):
    """Keep the smallest ``id_col`` per distinct ``text_col`` value.
    Shuffles on ``content_hash % num_buckets`` — a FIXED bucket count,
    not the raw hash: grouping on a near-unique hash would pay one
    Python ``keep_first`` call per distinct text (measured ~8 ms × n_docs),
    while a bucket's call resolves ALL its texts in one vectorized
    pandas groupby. Hash collisions only co-locate extra texts, never
    corrupt. ``extra_cols`` ride through, carrying the kept (min-id)
    row's values. Scale ``num_buckets`` with the corpus (the knob is
    rows-per-bucket, same rule as the selector's entity buckets)."""
    extra = [c for c in extra_cols]

    def add_hash(df: pd.DataFrame) -> pd.DataFrame:
        from pystreamfs_ray.util import content_hash64

        df = df[[id_col, text_col, *extra]].copy()
        df["__h"] = content_hash64(df[text_col].to_numpy()) % np.uint64(num_buckets)
        return df

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col, kind="mergesort")
        grp = g.groupby(text_col, sort=False)
        out = grp.agg(
            **{id_col: (id_col, "first"), "n_dupes": (id_col, "size"),
               **{c: (c, "first") for c in extra}}
        ).reset_index()
        out["n_dupes"] = out["n_dupes"].astype(np.int64)
        return out[[id_col, "n_dupes", text_col, *extra]]

    from pystreamfs_ray.util import arrow_combiner

    return (
        ds.map_batches(arrow_combiner(add_hash), batch_format="pyarrow")
        .groupby("__h")
        .map_groups(keep_first, batch_format="pandas")
    )


def _md5_hex(strings) -> np.ndarray:
    """Full 128-bit md5 hex per string — matches DuckDB ``md5(s)``.
    This is the collision-safe content IDENTITY a persisted dedup
    index stores; the low-64 variant above is for bucketing/banding,
    not identity."""
    return np.array([hashlib.md5(s.encode()).hexdigest() for s in strings],
                    dtype=object)


def fingerprint_index(ds, *, text_col: str = "text", num_buckets: int = 64):
    """Distinct md5 fingerprints of a corpus — the persistable dedup
    index for incremental ingestion (``write_parquet`` it once, reload
    on the next ingest run). Per-batch distinct first, then the
    fixed-bucket vectorized distinct (same shape as ``exact_dedup``);
    32-byte hex rows shuffle, never text."""
    from pystreamfs_ray.util import arrow_block, arrow_combiner, content_hash64

    def part(df: pd.DataFrame) -> pd.DataFrame:
        fp = _md5_hex(df[text_col].drop_duplicates().to_numpy())
        return arrow_block(pd.DataFrame({
            "fp": fp,
            "__b": (content_hash64(fp)
                    % np.uint64(num_buckets)).astype(np.int64),
        }))

    def distinct(g: pd.DataFrame) -> pa.Table:
        # Arrow out: keeps the index dataset's block type uniform with
        # read-back-from-parquet indexes (incremental_exact_dedup
        # unions a sentinel row — Ray's union asserts on mixed
        # pandas/arrow block types)
        return pa.table({"fp": pa.array(
            g["fp"].drop_duplicates(), type=pa.string())})

    return (ds.map_batches(arrow_combiner(part), batch_format="pyarrow")
            .groupby("__b").map_groups(distinct, batch_format="pandas"))


def incremental_exact_dedup(new_ds, index_ds, *, id_col: str = "doc_id",
                            text_col: str = "text", num_buckets: int = 64):
    """Incremental-ingestion dedup: dedup the arrival batch exactly
    (keep min id per text), then drop every arrival whose fingerprint
    is already in the persisted index — an exact distributed LEFT ANTI
    join on the md5 identity. A Bloom prefilter cannot serve the anti
    side (its false positives would drop genuinely-new docs), so the
    index joins partitioned; only the already-deduped arrivals carry
    text through it. Output matches ``exact_dedup``:
    ``(id, n_dupes, text)`` for rows NEW to the corpus; ``n_dupes``
    counts copies within the arrival batch."""
    deduped = exact_dedup(new_ds, id_col=id_col, text_col=text_col,
                          num_buckets=num_buckets)

    def add_fp(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["fp"] = _md5_hex(df[text_col].to_numpy())
        return df

    from pystreamfs_ray.util import drop_empty_blocks, shuffle_partitions

    num_partitions = shuffle_partitions()
    # both sides are groupby/map_groups outputs — schema-less empty
    # blocks break the hash join (see util.drop_empty_blocks). The
    # deduped arrival batch is materialized anyway (it feeds exactly
    # one join and is far smaller than the raw arrivals), which also
    # gives a cheap emptiness probe for the no-arrivals short-circuit
    # (a FULLY empty left side has no schema-carrying block at all).
    from pystreamfs_ray.util import arrow_combiner

    # arrow blocks through the join's hash shuffle: pandas blocks cost
    # more map/reduce CPU AND their schema defeats Ray's shuffle
    # schema-dedup ("Failed to hash the schemas" warnings)
    withfp = (drop_empty_blocks(deduped, num_partitions)
              .map_batches(arrow_combiner(add_fp), batch_format="pyarrow")
              .materialize())
    if withfp.count() == 0:
        import ray.data as rd

        in_schema = new_ds.schema()
        tmap = (dict(zip(in_schema.names, in_schema.types))
                if in_schema is not None else {})

        return rd.from_arrow(pa.schema(
            [(id_col, _arrow_type_of(tmap.get(id_col), pa.int64())),
             ("n_dupes", pa.int64()),
             (text_col, _arrow_type_of(tmap.get(text_col),
                                       pa.string()))]).empty_table())
    # The index side needs the symmetric guard: a FULLY empty index
    # (bootstrap run against a zero-doc corpus) has no schema-carrying
    # block either, and repartition can't conjure one. A count/
    # materialize probe would SERIALIZE the index build against the
    # arrival dedup (measured 4.1 s → 12.2 s at sf0.1) — instead union
    # one sentinel row whose fp is the empty string (a real fp is
    # always 32 hex chars, so it can never match an arrival): the
    # right side now always carries a schema, stays lazy, and the
    # anti-join semantics are unchanged.
    import ray.data as rd

    sentinel = rd.from_arrow(
        pa.table({"fp": pa.array([""], type=pa.string())}))
    # identity map normalizes any pandas-block index to arrow (union
    # asserts on mixed block types; empty aggregate blocks are already
    # arrow and pass through untouched)
    idx_arrow = index_ds.map_batches(lambda t: t, batch_format="pyarrow",
                                     zero_copy_batch=True)
    idx = drop_empty_blocks(idx_arrow.union(sentinel), num_partitions)
    return (withfp
            .join(idx, "left_anti",
                  num_partitions=num_partitions, on=("fp",))
            .select_columns([id_col, "n_dupes", text_col]))


def exact_dup_chain_pairs(ds, *, id_col: str = "doc_id", text_col: str = "text",
                          num_buckets: int = 64):
    """Consecutive-id pairs within each exact-duplicate group (sorted by
    id): a group of n identical texts yields an n-1 edge CHAIN — the
    worst-case diameter input for ``connected_components``, with a
    trivial SQL oracle (min id per text group). Same bucketed single
    shuffle as ``exact_dedup``."""

    def add_hash(df: pd.DataFrame) -> pd.DataFrame:
        df = df[[id_col, text_col]].copy()
        df["__h"] = _md5_lower64(df[text_col].tolist()) % np.uint64(num_buckets)
        return df

    def chain(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g.duplicated(text_col, keep=False)]  # only dup groups loop
        frames = []
        for _, grp in g.groupby(text_col, sort=False):
            ids = np.sort(grp[id_col].to_numpy())
            if len(ids) >= 2:
                frames.append(pd.DataFrame({"id_a": ids[:-1], "id_b": ids[1:]}))
        if not frames:
            return pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                                 "id_b": pd.Series(dtype=np.int64)})
        return pd.concat(frames, ignore_index=True)

    from pystreamfs_ray.util import arrow_combiner

    return (
        ds.map_batches(arrow_combiner(add_hash), batch_format="pyarrow")
        .groupby("__h")
        .map_groups(chain, batch_format="pandas")
    )


# -------------------------------------------------------------- minhash-LSH


def _shingle_set(text: str, k: int) -> list[str]:
    """Distinct k-word shingles of ``text`` (whole text when < k words)."""
    words = text.split()
    if len(words) < k:
        return [" ".join(words)] if words else [""]
    return sorted({" ".join(words[i:i + k]) for i in range(len(words) - k + 1)})


def _perm_params(num_perm: int, seed: int = 12345):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, int(_MERSENNE), size=num_perm, dtype=np.uint64)
    b = rng.integers(0, int(_MERSENNE), size=num_perm, dtype=np.uint64)
    return a, b


class MinHasher:
    """Scorer: permutation parameters generated once per instance.

    Shingle hash is md5-low-64 (``_md5_lower64``) and the permutation is
    ``((h*a + b) mod 2^64) mod (2^61-1)`` — both exactly expressible in
    DuckDB (``md5_number_lower`` + HUGEINT arithmetic), which is what
    gives ``q_minhash_pairs`` a SQL oracle. The batch path hashes only
    the UNIQUE shingles of a batch and reduces per-doc minima with
    ``np.minimum.reduceat`` — no per-row Python hashing loop."""

    def __init__(self, id_col="doc_id", text_col="text", num_perm=128, shingle_k=3,
                 seed=12345):
        self.id_col, self.text_col = id_col, text_col
        self.num_perm, self.k = num_perm, shingle_k
        self.a, self.b = _perm_params(num_perm, seed)

    def signature(self, text: str) -> np.ndarray:
        """Single-doc reference path (tests / verification)."""
        h = _md5_lower64(_shingle_set(text, self.k))
        with np.errstate(over="ignore"):
            vals = (h[:, None] * self.a[None, :] + self.b[None, :]) % _MERSENNE
        return vals.min(axis=0)

    def __call__(self, df: pd.DataFrame) -> pa.Table:
        sh_lists = [_shingle_set(t, self.k) for t in df[self.text_col]]
        counts = np.fromiter((len(s) for s in sh_lists), dtype=np.int64,
                             count=len(sh_lists))
        alls = np.asarray([s for l in sh_lists for s in l], dtype=object)
        if len(alls):
            uniq, inv = np.unique(alls, return_inverse=True)
            h_uniq = _md5_lower64(uniq)
            with np.errstate(over="ignore"):
                vals_uniq = (h_uniq[:, None] * self.a[None, :]
                             + self.b[None, :]) % _MERSENNE
            per_sh = vals_uniq[inv]  # (total_shingles, num_perm)
            offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
            sigs = np.ascontiguousarray(
                np.minimum.reduceat(per_sh, offsets, axis=0)
            )
        else:
            sigs = np.zeros((0, self.num_perm), dtype=np.uint64)
        # signatures travel as binary blobs: primitive type → survives
        # pandas round-trips and Arrow hash joins untouched
        raw = sigs.tobytes()
        stride = self.num_perm * 8
        blobs = [raw[i * stride:(i + 1) * stride] for i in range(len(sigs))]
        return pa.table(
            {
                self.id_col: pa.array(df[self.id_col].to_numpy()),
                "sig": pa.array(blobs, type=pa.binary()),
            }
        )


def minhash_signatures(ds, *, id_col="doc_id", text_col="text", num_perm=128,
                       shingle_k=3, batch_size=512):
    return ds.map_batches(
        MinHasher(id_col, text_col, num_perm, shingle_k),
        batch_format="pandas", batch_size=batch_size,
    )


def _sig_matrix(blobs, num_perm: int) -> np.ndarray:
    """(n, num_perm) uint64 matrix from a column of signature blobs."""
    n = len(blobs)
    if n == 0:
        return np.zeros((0, num_perm), dtype=np.uint64)
    return np.frombuffer(b"".join(blobs), dtype=np.uint64).reshape(n, num_perm)


def _explode_bands(df: pd.DataFrame, id_col: str, num_perm: int,
                   bands: int) -> pd.DataFrame:
    """(id, band_id, band_hash) rows — one per document per band. The
    band key is a vectorized 64-bit xor-multiply-shift mix of the
    band's raw signature lanes (no per-row Python); collisions only
    ever ADD candidates, which estimate-threshold verification then
    filters."""
    n = len(df)
    rows_per_band = num_perm // bands
    lanes = _sig_matrix(df["sig"].tolist(), num_perm).reshape(
        n, bands, rows_per_band
    )
    h = np.zeros((n, bands), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(rows_per_band):
            h = (h ^ lanes[:, :, j]) * np.uint64(0x9E3779B97F4A7C15)
            h ^= h >> np.uint64(29)
    return pd.DataFrame({
        id_col: np.repeat(df[id_col].to_numpy(), bands),
        "band_id": np.tile(np.arange(bands, dtype=np.int64), n),
        "band_hash": (h >> np.uint64(1)).astype(np.int64).ravel(),
    })


def minhash_lsh_pairs(ds, *, id_col="doc_id", text_col="text", num_perm=128,
                      bands=32, shingle_k=3, threshold=0.5):
    """Candidate pairs via LSH banding, Jaccard estimated from the full
    signatures (no text shuffle). Returns (id_a, id_b, jaccard_est)
    with id_a < id_b, est >= threshold.

    Band buckets key on a 64-bit mix of the band's raw signature lanes —
    collisions only ever ADD candidates, which the est>=threshold
    verification then filters, so the output equals "pairs sharing >=1
    exact band" (the form the DuckDB oracle computes) w.h.p.

    Verification side: distinct candidate pairs look up both
    signatures through ``stages/joins.lookup`` — broadcast once and
    probed per batch when the signature table fits, else two
    partitioned hash joins (the 10^9-doc scale path)."""
    assert num_perm % bands == 0
    rows_per_band = num_perm // bands

    sigs = minhash_signatures(
        ds, id_col=id_col, text_col=text_col, num_perm=num_perm,
        shingle_k=shingle_k,
    ).materialize()  # reused twice (banding + verification join)

    def explode_bands(df: pd.DataFrame) -> pd.DataFrame:
        return _explode_bands(df, id_col, num_perm, bands)

    # Banding buckets are mostly singletons (that is the point of LSH):
    # a groupby keyed on (band_id, band_hash) would pay a per-GROUP
    # Python call for ~n_docs×bands tiny groups. Instead the band rows
    # hash-partition into a FIXED number of buckets and each bucket
    # generates every group's pairs in one vectorized pass (group
    # boundaries via sorted-run detection; the inner loop touches only
    # groups with >=2 members — a vanishing fraction).
    pair_buckets = 64

    def assign_pb(df: pd.DataFrame) -> pd.DataFrame:
        with np.errstate(over="ignore"):
            mix = (df["band_hash"].to_numpy().astype(np.uint64)
                   * np.uint64(0x9E3779B97F4A7C15)
                   + df["band_id"].to_numpy().astype(np.uint64))
            mix ^= mix >> np.uint64(31)
        df["__pb"] = (mix % np.uint64(pair_buckets)).astype(np.int32)
        return df

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        bid = g["band_id"].to_numpy()
        bh = g["band_hash"].to_numpy()
        ids = g[id_col].to_numpy()
        order = np.lexsort((ids, bh, bid))
        bid, bh, ids = bid[order], bh[order], ids[order]
        change = np.flatnonzero((bid[1:] != bid[:-1]) | (bh[1:] != bh[:-1])) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(g)]))
        out_a, out_b = [], []
        for gi in np.flatnonzero(ends - starts >= 2):
            seg = ids[starts[gi]:ends[gi]]  # already sorted within group
            ia, ib = np.triu_indices(len(seg), k=1)
            out_a.append(seg[ia])
            out_b.append(seg[ib])
        if not out_a:
            return pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                                 "id_b": pd.Series(dtype=np.int64)})
        return pd.DataFrame({"id_a": np.concatenate(out_a),
                             "id_b": np.concatenate(out_b)})

    from ray.data.aggregate import Count

    from pystreamfs_ray.stages.joins import KeyedSide, lookup
    from pystreamfs_ray.util import arrow_combiner

    # distinct pairs (a pair fires in many bands) via a C-backed hash
    # aggregate — no per-group Python
    cand = (
        sigs.map_batches(arrow_combiner(explode_bands), batch_format="pyarrow")
        .map_batches(arrow_combiner(assign_pb), batch_format="pyarrow")
        .groupby("__pb")
        .map_groups(bucket_pairs, batch_format="pandas")
        .groupby(["id_a", "id_b"])
        .aggregate(Count(alias_name="__nb"))
        .drop_columns(["__nb"])
    )
    side = KeyedSide(sigs, id_col)
    joined = lookup(lookup(cand, side, "id_a", rename={"sig": "sig_a"}),
                    side, "id_b", rename={"sig": "sig_b"})

    def estimate(df: pd.DataFrame) -> pd.DataFrame:
        sa = _sig_matrix(df["sig_a"].tolist(), num_perm)
        sb = _sig_matrix(df["sig_b"].tolist(), num_perm)
        out = df[["id_a", "id_b"]].copy()
        # k/num_perm is exact in double — no rounding, so the DuckDB
        # oracle (SUM(eq)/num_perm) is bit-equal
        out["jaccard_est"] = (sa == sb).mean(axis=1) if len(df) else np.zeros(0)
        return out[out["jaccard_est"] >= threshold]

    return joined.map_batches(estimate, batch_format="pandas")


def ngram_jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    """Exact word-k-gram Jaccard (verification primitive / test oracle)."""
    a = set(map(tuple, zip(*[text_a.split()[i:] for i in range(k)]))) or {(text_a,)}
    b = set(map(tuple, zip(*[text_b.split()[i:] for i in range(k)]))) or {(text_b,)}
    return len(a & b) / max(1, len(a | b))


def _char_grams(text: str, k: int) -> set:
    s = text.lower()
    return {s[i:i + k] for i in range(len(s) - k + 1)}


def ngram_jaccard_pairs(pairs_ds, docs_ds, *, k=3, id_a="id_a", id_b="id_b",
                        id_col="doc_id", text_col="text", threshold=0.0,
                        num_partitions=8):
    """Exact character-k-gram Jaccard for candidate pairs — the
    verification stage that follows LSH candidate generation (MinHash /
    SimHash emit candidates; this confirms them exactly).

    Texts are attached via TWO distributed hash joins (pair←text_a,
    pair←text_b): no broadcast, both sides shuffle on doc id — the
    scalable shape when the pair list and the corpus are both large.
    The per-pair gram-set intersection is a Python set op, but it runs
    only on CANDIDATE pairs (a vanishing fraction of the corpus after
    LSH), never all-pairs. Documents shorter than ``k`` chars are
    dropped (no gram set), matching the SQL-oracle semantics.

    Returns (id_a, id_b, n_inter, n_union, jaccard) with
    jaccard = n_inter / n_union (exact integer division → bit-stable
    across engines)."""
    docs = docs_ds.map_batches(
        lambda t: t.filter(
            pc.greater_equal(pc.utf8_length(t[text_col]), k)
        ).select([id_col, text_col]),
        batch_format="pyarrow",
    )

    def side(name_id, name_text):
        return docs.map_batches(
            lambda t, ni=name_id, nt=name_text: t.rename_columns([ni, nt]),
            batch_format="pyarrow",
        )

    from pystreamfs_ray.util import drop_empty_blocks

    # pairs_ds is often a groupby/map_groups output — guard its blocks
    j = drop_empty_blocks(pairs_ds, num_partitions).join(
        side(id_a, "__ta"), join_type="inner",
        num_partitions=num_partitions, on=(id_a,))
    j = drop_empty_blocks(j, num_partitions).join(
        side(id_b, "__tb"), join_type="inner",
        num_partitions=num_partitions, on=(id_b,))

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        n_i = np.zeros(len(df), dtype=np.int64)
        n_u = np.zeros(len(df), dtype=np.int64)
        for r, (a, b) in enumerate(zip(df["__ta"], df["__tb"])):
            ga, gb = _char_grams(a, k), _char_grams(b, k)
            n_i[r] = len(ga & gb)
            n_u[r] = len(ga | gb)
        out = pd.DataFrame({
            id_a: df[id_a].to_numpy(), id_b: df[id_b].to_numpy(),
            "n_inter": n_i, "n_union": n_u,
            "jaccard": n_i / np.maximum(n_u, 1),
        })
        return out[out["jaccard"] >= threshold]

    return j.map_batches(verify, batch_format="pandas")


# ------------------------------------------------------------------ simhash


class SimHasher:
    """64-bit SimHash over word features (weight = term frequency).

    Word hash is md5-low-64 (DuckDB ``md5_number_lower``), so the whole
    operator has a SQL oracle. The batch path hashes UNIQUE words once,
    unpacks their bit matrix, and segment-sums signed bits per document
    (``np.add.reduceat``) — no per-row / per-bit Python loop."""

    def __init__(self, id_col="doc_id", text_col="text"):
        self.id_col, self.text_col = id_col, text_col

    @staticmethod
    def simhash64(text: str) -> int:
        """Scalar reference path (tests)."""
        acc = np.zeros(64, dtype=np.int64)
        for w in text.split():
            h = _md5_lower64([w])[0]
            bits = (h >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
            acc += np.where(bits.astype(bool), 1, -1)
        out = 0
        for i in range(64):
            if acc[i] > 0:
                out |= 1 << i
        return out

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        toks = [t.split() for t in df[self.text_col]]
        counts = np.fromiter((len(l) for l in toks), dtype=np.int64, count=len(toks))
        simh = np.zeros(len(toks), dtype=np.uint64)
        nz = counts > 0
        if nz.any():
            allw = np.asarray([w for l in toks for w in l], dtype=object)
            uniq, inv = np.unique(allw, return_inverse=True)
            h = _md5_lower64(uniq)
            bits = np.unpackbits(
                h.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
            ).astype(np.int32)
            signs = bits * 2 - 1            # (n_uniq, 64) in {-1, +1}
            per_word = signs[inv]           # (total_words, 64)
            offsets = np.concatenate(([0], np.cumsum(counts[nz])))[:-1]
            acc = np.add.reduceat(per_word, offsets, axis=0)
            packed = np.packbits(acc > 0, axis=1, bitorder="little")
            simh[nz] = np.ascontiguousarray(packed).view("<u8").ravel()
        out = df[[self.id_col]].copy()
        out["simhash"] = simh
        return out


def simhash_pairs(ds, *, id_col="doc_id", text_col="text", max_hamming=3):
    """Near-dup pairs by SimHash: band the 64 bits into ``max_hamming+1``
    equal-width keys (pigeonhole: a pair within Hamming ≤ max_hamming
    must agree on at least one whole band), then verify Hamming distance
    inside buckets."""
    n_bands = max_hamming + 1
    if 64 % n_bands != 0:
        # round the band count up to the next divisor of 64 — more bands
        # only ADD candidate recall, never lose it
        n_bands = next(d for d in (1, 2, 4, 8, 16, 32, 64) if d >= n_bands)
    band_bits = 64 // n_bands
    band_mask = np.uint64((1 << band_bits) - 1)
    sigs = ds.map_batches(SimHasher(id_col, text_col), batch_format="pandas")

    # Same shape as minhash_lsh_pairs: banding buckets are mostly
    # singletons, so hash-partition band rows into a FIXED bucket count
    # and generate every group's pairs vectorized per bucket — no
    # per-(band,key) Python call. A second pair-keyed shuffle does
    # distinct (a close pair fires in several bands).
    pair_buckets = 64

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        sh = df["simhash"].to_numpy(dtype=np.uint64)
        out = []
        for band in range(n_bands):
            key = (sh >> np.uint64(band * band_bits)) & band_mask
            out.append(pd.DataFrame({
                id_col: df[id_col].to_numpy(), "simhash": sh,
                "band_id": band, "band_key": key.astype(np.int64),
            }))
        df2 = pd.concat(out, ignore_index=True)
        with np.errstate(over="ignore"):
            mix = (df2["band_key"].to_numpy().astype(np.uint64)
                   * np.uint64(0x9E3779B97F4A7C15)
                   + df2["band_id"].to_numpy().astype(np.uint64))
            mix ^= mix >> np.uint64(31)
        df2["__pb"] = (mix % np.uint64(pair_buckets)).astype(np.int32)
        return df2

    def _hamming(x: np.ndarray) -> np.ndarray:
        ham = np.zeros(len(x), dtype=np.int64)
        for _ in range(64):
            ham += (x & np.uint64(1)).astype(np.int64)
            x >>= np.uint64(1)
        return ham

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        bid = g["band_id"].to_numpy()
        bk = g["band_key"].to_numpy()
        ids = g[id_col].to_numpy()
        sh = g["simhash"].to_numpy(dtype=np.uint64)
        order = np.lexsort((ids, bk, bid))
        bid, bk, ids, sh = bid[order], bk[order], ids[order], sh[order]
        change = np.flatnonzero((bid[1:] != bid[:-1]) | (bk[1:] != bk[:-1])) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(g)]))
        out_a, out_b, out_h = [], [], []
        for gi in np.flatnonzero(ends - starts >= 2):
            s, e = starts[gi], ends[gi]
            ia, ib = np.triu_indices(e - s, k=1)
            ham = _hamming(sh[s:e][ia] ^ sh[s:e][ib])
            keep = ham <= max_hamming
            out_a.append(ids[s:e][ia][keep])
            out_b.append(ids[s:e][ib][keep])
            out_h.append(ham[keep])
        if not out_a:
            return pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                                 "id_b": pd.Series(dtype=np.int64),
                                 "hamming": pd.Series(dtype=np.int64)})
        return pd.DataFrame({"id_a": np.concatenate(out_a),
                             "id_b": np.concatenate(out_b),
                             "hamming": np.concatenate(out_h)})

    def assign_vb(df: pd.DataFrame) -> pd.DataFrame:
        with np.errstate(over="ignore"):
            mix = (df["id_a"].to_numpy().astype(np.uint64)
                   * np.uint64(0x9E3779B97F4A7C15)
                   + df["id_b"].to_numpy().astype(np.uint64))
            mix ^= mix >> np.uint64(31)
        df["__vb"] = (mix % np.uint64(pair_buckets)).astype(np.int32)
        return df

    def distinct(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["id_a", "id_b"])[["id_a", "id_b", "hamming"]]

    from pystreamfs_ray.util import arrow_combiner

    return (
        sigs.map_batches(arrow_combiner(explode), batch_format="pyarrow")
        .groupby("__pb")
        .map_groups(bucket_pairs, batch_format="pandas")
        .map_batches(arrow_combiner(assign_vb), batch_format="pyarrow")
        .groupby("__vb")
        .map_groups(distinct, batch_format="pandas")
    )


# ------------------------------------------------- duplicate-group assembly


def connected_components(pairs_ds, *, id_a="id_a", id_b="id_b",
                         max_rounds: int = 12):
    """Duplicate groups from near-dup pairs: distributed min-label
    propagation with POINTER DOUBLING — each round every node adopts
    the smallest of (its label, its neighbors' labels, its label's
    label). The label-of-label hop halves the remaining distance to the
    component minimum, so convergence is O(log diameter) rounds: the
    default ``max_rounds=12`` covers diameters up to ~2^12. All-Dataset:
    per round one cogroup (union + sort-based groupby) fans labels out
    along edges and pointer hops, one groupby-min adopts them — no
    driver-side union-find, so components of any size fit; convergence
    is detected by the monotonically decreasing label sum (no join).

    If the label sum is still decreasing when ``max_rounds`` is
    exhausted a ``RuntimeWarning`` is emitted — results would be split
    groups, never merged-wrong ones.

    Returns (node, component) where component = min node id reachable.

    Size gate (``stages/joins.broadcast``, the one broadcast-or-join
    decision): when the DIRECTED edge table fits, the identical min-label +
    pointer-doubling recurrence runs vectorized on the driver — each
    numpy pass is O(E), so millions of edges converge in milliseconds,
    versus ~1 s of fixed shuffle/barrier overhead PER ROUND for the
    distributed loop. The pair graph is LSH candidates (pair-sized,
    never corpus-sized); above the gate the all-Dataset path keeps
    components of any size off the driver.
    """
    import pandas as pd
    import ray.data as rd

    def to_edges(df: pd.DataFrame) -> pd.DataFrame:
        fwd = pd.DataFrame({"src": df[id_a], "dst": df[id_b]})
        rev = pd.DataFrame({"src": df[id_b], "dst": df[id_a]})
        return pd.concat([fwd, rev], ignore_index=True)

    from pystreamfs_ray.stages.joins import broadcast
    from pystreamfs_ray.util import shuffle_partitions

    num_partitions = shuffle_partitions()
    # block-count discipline: every per-round sort's output partition
    # count tracks its input block count, so WITHOUT a repartition the
    # label dataset's blocks compound each round (16 → 48 → 112 → ...)
    # and the sort's O(blocks²) shuffle-object cost quadruples per
    # round. Pinning to a fixed num_partitions keeps every round the
    # same price.
    edges = (
        pairs_ds.map_batches(to_edges, batch_format="pandas")
        .repartition(num_partitions)
        .materialize()
    )
    if edges.schema() is None:
        # fully empty pair set (map_batches never runs on empty blocks,
        # so no block carries a schema) — no nodes, no groups
        import ray.data as rd

        in_schema = pairs_ds.schema()
        node_type = (dict(zip(in_schema.names, in_schema.types))[id_a]
                     if in_schema is not None else pa.int64())
        return rd.from_arrow(pa.schema(
            [("node", node_type), ("component", node_type)]).empty_table())
    node_type = _arrow_type_of(
        dict(zip(edges.schema().names, edges.schema().types))["src"],
        pa.int64())
    label_schema = pa.schema([("node", node_type), ("component", node_type)])

    edges, small = broadcast(edges, put=False)
    if small is not None:
        # driver fast path: same recurrence, numpy-vectorized.
        # np.unique sorts, so index order == value order and min-index
        # labels equal the distributed min-value labels for ints AND
        # strings alike.
        src = small["src"].to_numpy()
        dst = small["dst"].to_numpy()
        nodes, inv = np.unique(np.concatenate([src, dst]),
                               return_inverse=True)
        a, b = inv[:len(src)], inv[len(src):]
        lab = np.arange(len(nodes), dtype=np.int64)
        while True:
            new = lab.copy()
            # edges carry both directions (to_edges emits fwd+rev), so
            # one scatter covers neighbor adoption in both directions
            np.minimum.at(new, a, lab[b])
            new = np.minimum(new, new[new])  # pointer-doubling hop
            if np.array_equal(new, lab):
                break
            lab = new
        return rd.from_arrow(pa.table({
            "node": pa.array(nodes).cast(node_type),
            "component": pa.array(nodes[lab]).cast(node_type)},
            schema=label_schema))

    def norm(t: pa.Table) -> pa.Table:
        # empty shuffle partitions arrive as schema-less blocks, which
        # crash downstream Arrow joins — pin the schema everywhere
        if t.num_rows == 0 or "node" not in t.column_names:
            return label_schema.empty_table()
        return pa.table({"node": t["node"].cast(node_type),
                         "component": t["component"].cast(node_type)})

    def to_nodes(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": df["src"].unique()})

    from ray.data.aggregate import Count as _Count

    from pystreamfs_ray.util import arrow_combiner as _ac

    labels = (
        edges.map_batches(_ac(to_nodes), batch_format="pyarrow")
        .groupby("node")
        .aggregate(_Count(alias_name="__c"))  # C-backed distinct
        .map_batches(lambda df: pd.DataFrame({"node": df["node"],
                                              "component": df["node"]}),
                     batch_format="pandas")
        .map_batches(norm, batch_format="pyarrow")
        .repartition(num_partitions)
        .materialize()
    )

    # cogroup union schema: edges tagged side=0 keyed by src, labels
    # tagged side=1 keyed by node (sort-based groupby only — Ray's hash
    # join operator chokes on empty partitions' schema-less blocks)
    co_schema = pa.schema([("key", node_type), ("dst", node_type),
                           ("component", node_type), ("side", pa.int8())])

    def tag_edges(df: pd.DataFrame) -> pa.Table:
        return pa.table({
            "key": pa.array(df["src"], type=node_type),
            "dst": pa.array(df["dst"], type=node_type),
            "component": pa.nulls(len(df), node_type),
            "side": pa.array(np.zeros(len(df), dtype=np.int8)),
        }, schema=co_schema)

    tagged_edges = edges.map_batches(tag_edges, batch_format="pandas").materialize()

    from ray.data.aggregate import Min, Sum

    def propagate(g: pd.DataFrame) -> pd.DataFrame:
        # one call per HASH BUCKET of keys (not per key): a vectorized
        # label lookup joins each edge to its source's label
        lab = g[g["side"] == 1]
        ed = g[g["side"] == 0]
        if len(lab) == 0 or len(ed) == 0:
            return pd.DataFrame({"node": [], "component": []})
        comp = ed["key"].map(pd.Series(lab["component"].to_numpy(),
                                       index=lab["key"].to_numpy()))
        out = pd.DataFrame({"node": ed["dst"].to_numpy(), "component": comp.to_numpy()})
        return out[out["component"].notna()]

    def tag_labels(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return co_schema.empty_table()
        return pa.table({
            "key": t["node"].cast(node_type),
            "dst": pa.nulls(len(t), node_type),
            "component": t["component"].cast(node_type),
            "side": pa.array(np.ones(len(t), dtype=np.int8)),
        }, schema=co_schema)

    def tag_ptr_edges(t: pa.Table) -> pa.Table:
        # pointer-doubling hop: an "edge" from each node's LABEL back to
        # the node, so the node learns component(component(node))
        if t.num_rows == 0:
            return co_schema.empty_table()
        return pa.table({
            "key": t["component"].cast(node_type),
            "dst": t["node"].cast(node_type),
            "component": pa.nulls(len(t), node_type),
            "side": pa.array(np.zeros(len(t), dtype=np.int8)),
        }, schema=co_schema)

    is_str_node = (pa.types.is_string(node_type)
                   or pa.types.is_large_string(node_type))

    def label_sum(ds_):
        # convergence witness: labels only ever change (downward), so
        # the fixed point is exactly "no change". For ints the plain
        # sum is the witness; for string node ids sum a 61-bit hash of
        # each label instead (equal sums across a round ⇒ converged,
        # up to a ~2^-61 per-round collision — the failure mode would
        # be split groups, same as the round cap)
        if not is_str_node:
            return ds_.aggregate(Sum("component", alias_name="s"))["s"]

        def h(t: pa.Table) -> pa.Table:
            v = (_md5_lower64(t["component"].to_pylist())
                 % _MERSENNE).astype(np.int64)
            return pa.table({"h": pa.array(v, type=pa.int64())})

        return (ds_.map_batches(h, batch_format="pyarrow")
                .aggregate(Sum("h", alias_name="s"))["s"])

    prev_sum = label_sum(labels)
    converged = False
    for _ in range(max_rounds):
        lt = labels.map_batches(tag_labels, batch_format="pyarrow")
        ptr = labels.map_batches(tag_ptr_edges, batch_format="pyarrow")

        def assign_cb(t: pa.Table) -> pa.Table:
            if pa.types.is_integer(t["key"].type):
                k = t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
                with np.errstate(over="ignore"):
                    mix = k * np.uint64(0x9E3779B97F4A7C15)
                    mix ^= mix >> np.uint64(31)
                b = (mix % np.uint64(num_partitions)).astype(np.int32)
            else:
                from pystreamfs_ray.util import bucket_array

                b = bucket_array(t["key"].to_pandas(), num_partitions)
            return t.append_column("__cb", pa.array(b, type=pa.int32()))

        msgs = (
            tagged_edges.union(ptr).union(lt)
            .map_batches(assign_cb, batch_format="pyarrow")
            .groupby("__cb")
            .map_groups(propagate, batch_format="pandas")
            .map_batches(norm, batch_format="pyarrow")
        )
        new_labels = (
            msgs.union(labels.select_columns(["node", "component"]))
            .groupby("node")
            .aggregate(Min("component", alias_name="component"))
            .map_batches(norm, batch_format="pyarrow")
            .repartition(num_partitions)
            .materialize()
        )
        # labels only ever decrease → the total is a convergence witness
        new_sum = label_sum(new_labels)
        labels = new_labels
        if new_sum == prev_sum:
            converged = True
            break
        prev_sum = new_sum
    if not converged:
        warnings.warn(
            f"connected_components: label propagation still converging after "
            f"{max_rounds} rounds — groups may be split; raise max_rounds "
            f"(each round doubles the reachable diameter)",
            RuntimeWarning,
        )
    return labels


def dedup_groups(pairs_ds, **kw):
    """(node, component) groups from a near-dup pair Dataset; the
    canonical keeper of each duplicate group is its min id."""
    return connected_components(pairs_ds, **kw)


def neardup_canonical(pairs_ds, attrs_ds, *, id_col: str = "doc_id",
                      score_col: str = "n_chars"):
    """Canonical-copy selection over the near-dup graph: connected
    components of the candidate-pair graph, then ONE keeper per
    component — the member with the largest ``score_col`` (tie-break
    smallest id). One row per duplicate group:
    ``(component, keep_id, best_score, n_members)`` — the curation form
    where the longest/highest-quality copy survives instead of the
    arbitrary min-id one.

    Scale shape: components cost O(log diameter) label rounds over the
    pair-sized edge set (never corpus-sized); the attribute join ships
    only ``(id, score)`` for nodes that ARE in components; the argmax
    reduces through a per-batch combiner partial (one row per component
    per block), then one vectorized finish per hash bucket of
    components — text never shuffles, and no component ever needs to
    fit on the driver. The attribute lookup is ``stages/joins.lookup``:
    the component map is broadcast when it fits (one attrs scan, no
    shuffle of attrs), else hash-joined."""
    import ray.data as rd

    from pystreamfs_ray.stages.joins import lookup
    from pystreamfs_ray.util import arrow_block, arrow_combiner

    comps = connected_components(pairs_ds)  # (node, component), materialized
    if comps.count() == 0:  # no pairs → no duplicate groups
        return rd.from_arrow(pa.schema(
            [("component", pa.int64()), ("keep_id", pa.int64()),
             ("best_score", pa.int64()),
             ("n_members", pa.int64())]).empty_table())
    attrs = attrs_ds.select_columns([id_col, score_col]).map_batches(
        lambda t: t.rename_columns(["node", "__score"]),
        batch_format="pyarrow")
    joined = lookup(attrs, comps, "node")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["component", "__score", "node"],
                            ascending=[True, False, True], kind="mergesort")
        best = df.drop_duplicates("component")
        n = df.groupby("component", sort=False).size()
        return arrow_block(pd.DataFrame({
            "component": best["component"].to_numpy(np.int64),
            "keep_id": best["node"].to_numpy(np.int64),
            "best_score": best["__score"].to_numpy(np.int64),
            "n_members": n.loc[best["component"]].to_numpy(np.int64),
        }))

    def final(p: pd.DataFrame) -> pd.DataFrame:
        n_tot = p.groupby("component", sort=False)["n_members"].sum()
        best = p.sort_values(["best_score", "keep_id"],
                             ascending=[False, True],
                             kind="mergesort").drop_duplicates("component")
        return pd.DataFrame({
            "component": best["component"].to_numpy(np.int64),
            "keep_id": best["keep_id"].to_numpy(np.int64),
            "best_score": best["best_score"].to_numpy(np.int64),
            "n_members": n_tot.loc[best["component"]].to_numpy(np.int64),
        })

    def bucket(t: pa.Table) -> pa.Table:
        return t.append_column("__b", pc.cast(
            pc.bit_wise_and(t["component"], 63), pa.int32()))

    return (joined.map_batches(arrow_combiner(partial), batch_format="pyarrow")
            .map_batches(bucket, batch_format="pyarrow")
            .groupby("__b")
            .map_groups(arrow_combiner(lambda p: final(p.drop(columns="__b"))),
                        batch_format="pyarrow"))


def embedding_neardup_pairs(ds, *, id_col="vec_id", vec_col="embedding",
                            threshold=0.95, n_planes=10, n_tables=8, seed=99):
    """Near-duplicate vector pairs by random-hyperplane LSH with
    ``n_tables`` independent hash tables of ``n_planes`` sign bits each
    (multi-probe recall, same trick as MinHash banding), then exact
    cosine verification inside buckets and pair dedup across tables
    (the scale path; the brute-force baseline lives in
    stages/similarity.py)."""

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        vecs = np.stack([np.asarray(v, dtype=np.float64) for v in df[vec_col]])
        rng = np.random.default_rng(seed)  # same planes in every task
        planes = rng.standard_normal((vecs.shape[1], n_planes * n_tables))
        bits = (vecs @ planes) > 0
        frames = []
        weights = 1 << np.arange(n_planes)
        for t in range(n_tables):
            key = bits[:, t * n_planes:(t + 1) * n_planes] @ weights
            f = df[[id_col, vec_col]].copy()
            f["table_id"] = t
            f["bucket"] = key.astype(np.int64)
            frames.append(f)
        return pd.concat(frames, ignore_index=True)

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(subset=[id_col]).sort_values(id_col)
        ids = g[id_col].to_numpy()
        if len(ids) < 2:
            return pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                                 "id_b": pd.Series(dtype=np.int64),
                                 "cosine": pd.Series(dtype=np.float64)})
        vecs = np.stack([np.asarray(v, dtype=np.float64) for v in g[vec_col]])
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        sims = (vecs / norms) @ (vecs / norms).T
        ia, ib = np.triu_indices(len(ids), k=1)
        keep = sims[ia, ib] >= threshold
        return pd.DataFrame({
            "id_a": ids[ia][keep], "id_b": ids[ib][keep],
            "cosine": np.round(sims[ia, ib][keep], 6),
        })

    from pystreamfs_ray.util import arrow_combiner

    pairs = (
        ds.map_batches(arrow_combiner(bucketize), batch_format="pyarrow")
        .groupby(["table_id", "bucket"])
        .map_groups(verify, batch_format="pandas")
    )

    # a pair can fire in several tables — keep one. Fixed-bucket
    # vectorized distinct (one drop_duplicates per BUCKET, not one
    # Python call per PAIR as groupby([id_a,id_b]).map_groups would pay)
    pair_buckets = 64

    def assign_vb(df: pd.DataFrame) -> pd.DataFrame:
        with np.errstate(over="ignore"):
            mix = (df["id_a"].to_numpy().astype(np.uint64)
                   * np.uint64(0x9E3779B97F4A7C15)
                   + df["id_b"].to_numpy().astype(np.uint64))
            mix ^= mix >> np.uint64(31)
        df["__vb"] = (mix % np.uint64(pair_buckets)).astype(np.int32)
        return df

    def distinct(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["id_a", "id_b"])[["id_a", "id_b", "cosine"]]

    return (
        pairs.map_batches(arrow_combiner(assign_vb), batch_format="pyarrow")
        .groupby("__vb")
        .map_groups(distinct, batch_format="pandas")
    )


def exact_dedup_keep_best(ds, *, id_col: str = "doc_id",
                          text_col: str = "text", pref_col: str = "source",
                          num_buckets: int = 64):
    """Exact dedup keeping the PREFERRED copy instead of the first: per
    distinct ``text_col`` value keep the row with the smallest
    ``pref_col`` (tie-break smallest ``id_col``) — the corpus-curation
    form where a duplicate found in a curated source beats the same
    text from a crawl. Same single-shuffle shape as ``exact_dedup``
    (bucketed content hash; text shuffles once)."""

    def add_hash(df: pd.DataFrame):
        from pystreamfs_ray.util import arrow_block, content_hash64

        df = df[[id_col, text_col, pref_col]].copy()
        df["__h"] = (content_hash64(df[text_col].to_numpy())
                     % np.uint64(num_buckets)).astype(np.int64)
        return arrow_block(df)

    def keep_best(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([pref_col, id_col], kind="mergesort")
        grp = g.groupby(text_col, sort=False)
        out = grp.agg(**{id_col: (id_col, "first"),
                         pref_col: (pref_col, "first"),
                         "n_dupes": (id_col, "size")}).reset_index()
        out["n_dupes"] = out["n_dupes"].astype(np.int64)
        return out[[id_col, pref_col, "n_dupes"]]

    from pystreamfs_ray.util import arrow_combiner

    return (ds.map_batches(arrow_combiner(add_hash), batch_format="pyarrow")
            .groupby("__h")
            .map_groups(keep_best, batch_format="pandas"))


def cross_source_dup_matrix(ds, *, text_col: str = "text",
                            source_col: str = "source",
                            num_buckets: int = 64):
    """Provenance-overlap matrix for corpus curation: for every source
    pair (a < b), how many DISTINCT texts appear in both — the report
    that tells you which crawls/dumps re-publish each other before you
    pick per-source budgets. Output (source_a, source_b, n_texts).

    Scale shape: same single bucketed content-hash shuffle as
    ``exact_dedup`` (only (text, source) distinct pairs move, texts of
    one value always co-locate); inside each bucket the per-text
    distinct-source sets expand to pairs vectorized, and the final
    groupby-sum is |sources|²-sized — trivially small."""

    def add_hash(df: pd.DataFrame) -> pd.DataFrame:
        from pystreamfs_ray.util import content_hash64

        df = df[[text_col, source_col]].drop_duplicates()
        df["__h"] = (content_hash64(df[text_col].to_numpy())
                     % np.uint64(num_buckets)).astype(np.int32)
        from pystreamfs_ray.util import arrow_block

        return arrow_block(df)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = (g[[text_col, source_col]].drop_duplicates()
             .sort_values([text_col, source_col], kind="mergesort"))
        srcs = g[source_col].to_numpy()
        txt = g[text_col].to_numpy()
        change = np.flatnonzero(txt[1:] != txt[:-1]) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(g)]))
        out_a, out_b = [], []
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            ia, ib = np.triu_indices(e - s, k=1)
            out_a.append(srcs[s:e][ia])
            out_b.append(srcs[s:e][ib])
        if not out_a:
            return pd.DataFrame({"source_a": pd.Series([], dtype=object),
                                 "source_b": pd.Series([], dtype=object),
                                 "pc": pd.Series([], dtype=np.int64)})
        df = pd.DataFrame({"source_a": np.concatenate(out_a),
                           "source_b": np.concatenate(out_b)})
        vc = df.value_counts(["source_a", "source_b"])
        out = vc.reset_index(name="pc")
        out["pc"] = out["pc"].astype(np.int64)
        return out

    from ray.data.aggregate import Sum

    from pystreamfs_ray.util import arrow_combiner

    return (
        ds.map_batches(add_hash, batch_format="pandas")
        .groupby("__h")
        .map_groups(arrow_combiner(pairs), batch_format="pyarrow")
        .groupby(["source_a", "source_b"])
        .aggregate(Sum("pc", alias_name="n_texts"))
    )


def windowed_exact_dedup(ds, *, id_col: str = "event_id",
                         text_col: str = "text", ts_col: str = "ts",
                         window_s: int = 7 * 86400, num_buckets: int = 64):
    """Time-scoped exact dedup: keep the FIRST occurrence (earliest ts,
    then smallest id) of each distinct ``text_col`` value within each
    epoch-anchored ``window_s`` window — the recency-aware crawl rule
    (a page unchanged for months re-enters the corpus once per window;
    a same-week duplicate doesn't). Output (id, win, n_dupes).

    Same single bucketed content-hash shuffle as ``exact_dedup``; the
    window id is row-local arithmetic, so the time dimension adds no
    extra exchange."""
    win_us = np.int64(window_s) * np.int64(1_000_000)

    def add_key(df: pd.DataFrame) -> pd.DataFrame:
        from pystreamfs_ray.util import arrow_block, content_hash64

        out = df[[id_col, text_col]].copy()
        out["win"] = (df[ts_col].astype("datetime64[us]").astype(np.int64)
                      // win_us).astype(np.int64)
        out["__ts"] = df[ts_col].astype("datetime64[us]").astype(np.int64)
        out["__h"] = (content_hash64(df[text_col].to_numpy())
                      % np.uint64(num_buckets)).astype(np.int32)
        return arrow_block(out)

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["__ts", id_col], kind="mergesort")
        grp = g.groupby([text_col, "win"], sort=False)
        out = grp.agg(**{id_col: (id_col, "first"),
                         "n_dupes": (id_col, "size")}).reset_index()
        out["n_dupes"] = out["n_dupes"].astype(np.int64)
        return out[[id_col, "win", "n_dupes"]]

    return (
        ds.map_batches(add_key, batch_format="pandas")
        .groupby("__h")
        .map_groups(keep_first, batch_format="pandas")
    )


def snapshot_diff(a_ds, b_ds, *, id_col: str = "doc_id",
                  text_col: str = "text", group_col: str = "source"):
    """Corpus snapshot diff — the audit between two training-corpus
    versions: per ``group_col``, how many docs were ADDED (id only in
    B), REMOVED (id only in A), CHANGED (same id, different md5
    identity) and UNCHANGED. Only ``(md5(id), group, md5(text))`` rows
    move through the full-outer join — text never shuffles, and the
    output is group-count-sized.

    Both sides join on the md5-hex of the id (not the raw id), which
    buys empty-input safety for free: each side unions one sentinel
    row with join key '' — a real key is always 32 hex chars — so a
    fully empty snapshot still carries a schema into the join (the
    two sentinels pair up and are dropped after classification; no
    materialize/count probe, both sides stay lazy — see SCALE.md on
    the probe-serialization trap)."""
    import ray.data as rd

    from pystreamfs_ray.util import (arrow_combiner, drop_empty_blocks,
                                     shuffle_partitions)

    num_partitions = shuffle_partitions()

    def side(tag: str):
        k, g, f, s = f"k_{tag}", f"grp_{tag}", f"fp_{tag}", f"sent_{tag}"

        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                k: _md5_hex(df[id_col].astype(str).to_numpy(dtype=object)),
                g: df[group_col].astype(str).to_numpy(dtype=object),
                f: _md5_hex(df[text_col].to_numpy(dtype=object)),
                s: np.zeros(len(df), dtype=np.int8),
            })

        sentinel = rd.from_arrow(pa.table({
            k: pa.array([""], type=pa.string()),
            g: pa.array([""], type=pa.string()),
            f: pa.array([""], type=pa.string()),
            s: pa.array([np.int8(1)], type=pa.int8()),
        }))
        ds = (a_ds if tag == "a" else b_ds)
        mapped = ds.map_batches(fn, batch_format="pandas").map_batches(
            lambda t: t, batch_format="pyarrow", zero_copy_batch=True)
        return drop_empty_blocks(mapped.union(sentinel), num_partitions)

    joined = side("a").join(side("b"), join_type="full_outer",
                            num_partitions=num_partitions,
                            on=("k_a",), right_on=("k_b",))

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        # Ray's outer join coalesces the right key into k_a; sentinel
        # rows pair with each other (only key that can be '') — drop
        sent = (df.get("sent_a").fillna(0).to_numpy(np.int8)
                | df.get("sent_b").fillna(0).to_numpy(np.int8))
        df = df[sent == 0]
        fa = df["fp_a"]
        fb = df["fp_b"]
        added = fa.isna().to_numpy()
        removed = fb.isna().to_numpy()
        both = ~added & ~removed
        changed = both & (fa.to_numpy() != fb.to_numpy())
        grp = np.where(added, df["grp_b"].to_numpy(dtype=object),
                       df["grp_a"].to_numpy(dtype=object))
        out = pd.DataFrame({
            group_col: grp,
            "n_added": added.astype(np.int64),
            "n_removed": removed.astype(np.int64),
            "n_changed": changed.astype(np.int64),
            "n_unchanged": (both & ~changed).astype(np.int64),
        })
        return (out.groupby(group_col, sort=False, as_index=False).sum())

    from ray.data.aggregate import Sum

    partials = (drop_empty_blocks(joined, num_partitions)
                .map_batches(arrow_combiner(classify),
                             batch_format="pyarrow"))
    return (partials.groupby(group_col)
            .aggregate(Sum("n_added", alias_name="n_added"),
                       Sum("n_removed", alias_name="n_removed"),
                       Sum("n_changed", alias_name="n_changed"),
                       Sum("n_unchanged", alias_name="n_unchanged")))


def prefix_dedup(ds, *, text_col: str = "text", num_partitions: int = 32,
                 boundary_per_block: int = 8):
    """Keep only rows whose ``text_col`` is NOT a strict prefix of any
    OTHER row's text — the agent-snapshot dedup: when every checkpoint
    of a growing transcript was persisted, only the maximal renderings
    survive. Equal texts all survive (equality is not a strict prefix;
    compose with ``exact_dedup`` to collapse those).

    Execution (one text shuffle + one pruned scan):
    range-partition rows on the text itself (spread-sampled
    boundaries), then inside each partition sort the DISTINCT texts and
    test each against its immediate distinct successor — a string s is
    a strict prefix of SOME string in the set iff it is a prefix of the
    smallest string strictly greater than it (any string between them
    would itself extend s). The partition-edge case is exact: the
    minimum text of every partition is computed by a per-block partial
    pass (P·B driver rows), suffix-min'd on the driver, and carried
    into the preceding partition as the cross-boundary successor.
    Because equal texts share a searchsorted bucket, the carry is
    always strictly greater than the partition max. Boundary quality
    affects only balance, never correctness. The prefix test itself is
    adjacent-distinct-pairs only — O(m) C-level ``startswith`` calls,
    never O(n²).
    """
    import ray.data  # noqa: F401  (Dataset ops only)

    from pystreamfs_ray.util import quantile_bounds, spread_sample_values

    sample = spread_sample_values(ds, text_col, per_block=boundary_per_block)
    bounds = quantile_bounds(np.asarray(sample, dtype=object), num_partitions)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        part = np.searchsorted(bounds, df[text_col].to_numpy(dtype=object),
                               side="left")
        return df.assign(__part=part.astype(np.int32))

    parted = ds.map_batches(assign, batch_format="pandas").materialize()

    # per-block (part, min_text) partials → driver suffix-min: the
    # smallest text living in any LATER partition, i.e. the true
    # lexicographic successor of each partition's max.
    def block_min(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("__part", sort=False)[text_col].min()
        return pd.DataFrame({"__part": g.index.to_numpy(np.int32),
                             "__min": g.to_numpy(dtype=object)})

    # combiner mins per block, then a P-row Min aggregate — the driver
    # receives ONE text per partition, not one per block (snapshot
    # texts can be MB-scale; a blocks-sized pull of them would be a
    # driver OOM at the 100 TB shape)
    from ray.data.aggregate import Min as _Min

    from pystreamfs_ray.util import arrow_combiner

    partials = (parted.select_columns(["__part", text_col])
                .map_batches(arrow_combiner(block_min),
                             batch_format="pyarrow")
                .groupby("__part")
                .aggregate(_Min("__min", alias_name="__min"))
                .to_pandas())
    next_min: dict[int, str] = {}
    if len(partials):
        mins = partials.groupby("__part")["__min"].min().sort_index()
        carry = None
        for p in mins.index[::-1]:
            next_min[int(p)] = carry
            carry = mins[p] if carry is None else min(mins[p], carry)

    def verdict(g: pd.DataFrame) -> pd.DataFrame:
        part = int(g["__part"].iloc[0])
        texts = g[text_col].to_numpy(dtype=object)
        uniq, inv = np.unique(texts, return_inverse=True)
        nxt = np.empty(len(uniq), dtype=object)
        nxt[:-1] = uniq[1:]
        nxt[-1] = next_min.get(part)
        pref = np.fromiter(
            ((n is not None) and n.startswith(s)
             for s, n in zip(uniq, nxt)),
            dtype=bool, count=len(uniq))
        return g.loc[~pref[inv]].drop(columns=["__part"])

    return parted.groupby("__part").map_groups(verdict, batch_format="pandas")


def incremental_minhash_pairs(new_ds, index_sigs, *, id_col="doc_id",
                              text_col="text", num_perm=128, bands=32,
                              shingle_k=3, threshold=0.5, pair_buckets=64,
                              new_presigned=False):
    """Incremental near-dup ingestion: match an ARRIVAL batch against a
    PERSISTED corpus signature index (``minhash_signatures`` output,
    e.g. read back from parquet) and emit
    ``(doc_id, dup_of, jaccard_est)`` for every arrival whose estimated
    Jaccard against some indexed doc passes ``threshold``.

    Scale shape — the cost an ingestion batch pays must track the
    BATCH, not the corpus: band explosion runs on both sides (the
    index side is (id, band, hash) rows only — signatures stay put),
    and pair generation is CROSS-SIDE ONLY; index×index candidates —
    the corpus's internal near-dup pairs, a corpus-quadratic cost —
    are never formed. Arrival signatures broadcast once (`ray.put`,
    batch-sized); index signatures reach the surviving candidates via
    ONE partitioned hash join keyed on the indexed id. Re-running with
    the same batch is idempotent; arrivals matching nothing simply
    emit no row (compose with ``incremental_exact_dedup`` for the
    exact-identity tier).

    ``new_presigned=True`` means ``new_ds`` already IS a signature
    dataset (``minhash_signatures`` schema) — callers that sign both
    sides from one source (or load persisted arrival signatures) skip
    the second signature pass entirely."""
    import ray
    import ray.data as rd

    from pystreamfs_ray.util import (arrow_combiner, drop_empty_blocks,
                                     shuffle_partitions)

    assert num_perm % bands == 0

    if new_presigned:
        new_sigs = new_ds.materialize()
    else:
        new_sigs = minhash_signatures(
            new_ds, id_col=id_col, text_col=text_col, num_perm=num_perm,
            shingle_k=shingle_k,
        ).materialize()  # reused: banding + broadcast verification

    if new_sigs.count() == 0:
        # empty arrival batch: 0-row to_pandas drops the schema, so
        # build the typed empty result directly (id dtype follows the
        # caller's input schema)
        in_schema = new_ds.schema()
        tmap = (dict(zip(in_schema.names, in_schema.types))
                if in_schema is not None else {})
        id_t = _arrow_type_of(tmap.get(id_col), pa.int64())
        return rd.from_arrow(pa.schema(
            [(id_col, id_t), ("dup_of", id_t),
             ("jaccard_est", pa.float64())]).empty_table())

    def explode_side(side: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            out = _explode_bands(df, id_col, num_perm, bands)
            out["__side"] = np.int8(side)
            return out
        return fn

    idx_bands = index_sigs.map_batches(
        arrow_combiner(explode_side(0)), batch_format="pyarrow")
    new_bands = new_sigs.map_batches(
        arrow_combiner(explode_side(1)), batch_format="pyarrow")

    def assign_pb(df: pd.DataFrame) -> pd.DataFrame:
        with np.errstate(over="ignore"):
            mix = (df["band_hash"].to_numpy().astype(np.uint64)
                   * np.uint64(0x9E3779B97F4A7C15)
                   + df["band_id"].to_numpy().astype(np.uint64))
            mix ^= mix >> np.uint64(31)
        df["__pb"] = (mix % np.uint64(pair_buckets)).astype(np.int32)
        return df

    def cross_pairs(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({id_col: pd.Series(dtype=np.int64),
                                 "dup_of": pd.Series(dtype=np.int64)})
        bid = g["band_id"].to_numpy()
        bh = g["band_hash"].to_numpy()
        ids = g[id_col].to_numpy()
        side = g["__side"].to_numpy()
        order = np.lexsort((ids, side, bh, bid))
        bid, bh, ids, side = bid[order], bh[order], ids[order], side[order]
        change = np.flatnonzero(
            (bid[1:] != bid[:-1]) | (bh[1:] != bh[:-1])) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(g)]))
        # per group, rows sort index-side first; only groups holding
        # BOTH sides produce pairs (new × index mesh, never new × new
        # or index × index)
        out_new, out_idx = [], []
        n_new_per = np.add.reduceat(side.astype(np.int64), starts)
        sizes = ends - starts
        for gi in np.flatnonzero((n_new_per >= 1) & (sizes - n_new_per >= 1)):
            s0, s1 = starts[gi], ends[gi]
            k_idx = int(s1 - s0 - n_new_per[gi])
            idx_ids = ids[s0:s0 + k_idx]
            new_ids = ids[s0 + k_idx:s1]
            mesh_n, mesh_i = np.meshgrid(new_ids, idx_ids, indexing="ij")
            out_new.append(mesh_n.ravel())
            out_idx.append(mesh_i.ravel())
        if not out_new:
            return pd.DataFrame({id_col: pd.Series(dtype=ids.dtype),
                                 "dup_of": pd.Series(dtype=ids.dtype)})
        return pd.DataFrame({id_col: np.concatenate(out_new),
                             "dup_of": np.concatenate(out_idx)})

    cand = (idx_bands.union(new_bands)
            .map_batches(arrow_combiner(assign_pb), batch_format="pyarrow")
            .groupby("__pb")
            .map_groups(cross_pairs, batch_format="pandas"))

    # distinct (a pair fires in many bands) via the C-backed aggregate
    from ray.data.aggregate import Count as _Count

    cand = (cand.groupby([id_col, "dup_of"])
            .aggregate(_Count(alias_name="__nb")).drop_columns(["__nb"]))

    num_partitions = shuffle_partitions()
    sig_idx = index_sigs.map_batches(
        lambda t: t.rename_columns(["dup_of", "sig_idx"]),
        batch_format="pyarrow")
    joined = drop_empty_blocks(cand, num_partitions).join(
        drop_empty_blocks(sig_idx, num_partitions), join_type="inner",
        num_partitions=num_partitions, on=("dup_of",))

    new_pdf = new_sigs.to_pandas()
    ref = ray.put(dict(zip(new_pdf[id_col], new_pdf["sig"])))

    def estimate(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            out = df[[id_col, "dup_of"]].copy()
            out["jaccard_est"] = np.zeros(0)
            return out
        table = ray.get(ref)
        sa = _sig_matrix([table[a] for a in df[id_col]], num_perm)
        sb = _sig_matrix(df["sig_idx"].tolist(), num_perm)
        out = df[[id_col, "dup_of"]].copy()
        out["jaccard_est"] = (sa == sb).mean(axis=1)
        return out[out["jaccard_est"] >= threshold]

    return joined.map_batches(estimate, batch_format="pandas")


def ngram_containment_pairs(pairs_ds, docs_ds, *, k=3, id_a="id_a",
                            id_b="id_b", id_col="doc_id",
                            text_col="text", num_partitions=8):
    """Asymmetric char-k-gram containment for candidate pairs — the
    quote/subset detector (a short doc wholly contained in a long one
    scores ~1.0 here but low on Jaccard, which union-normalizes away
    the asymmetry; RefinedWeb-style pipelines gate on containment for
    exactly that case). Same two-hash-join shape as
    :func:`ngram_jaccard_pairs` — texts attach only to CANDIDATE
    pairs, never all-pairs. Returns both directions
    (containment_a = |A∩B|/|A|, containment_b = |A∩B|/|B|) as single
    divisions over exact integer gram counts."""
    docs = docs_ds.map_batches(
        lambda t: t.filter(
            pc.greater_equal(pc.utf8_length(t[text_col]), k)
        ).select([id_col, text_col]),
        batch_format="pyarrow",
    )

    def side(name_id, name_text):
        return docs.map_batches(
            lambda t, ni=name_id, nt=name_text: t.rename_columns([ni, nt]),
            batch_format="pyarrow",
        )

    from pystreamfs_ray.util import drop_empty_blocks

    j = drop_empty_blocks(pairs_ds, num_partitions).join(
        side(id_a, "__ta"), join_type="inner",
        num_partitions=num_partitions, on=(id_a,))
    j = drop_empty_blocks(j, num_partitions).join(
        side(id_b, "__tb"), join_type="inner",
        num_partitions=num_partitions, on=(id_b,))

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        n_i = np.zeros(len(df), dtype=np.int64)
        n_a = np.zeros(len(df), dtype=np.int64)
        n_b = np.zeros(len(df), dtype=np.int64)
        for r, (a, b) in enumerate(zip(df["__ta"], df["__tb"])):
            ga, gb = _char_grams(a, k), _char_grams(b, k)
            n_i[r] = len(ga & gb)
            n_a[r] = len(ga)
            n_b[r] = len(gb)
        return pd.DataFrame({
            id_a: df[id_a].to_numpy(), id_b: df[id_b].to_numpy(),
            "n_inter": n_i, "n_a": n_a, "n_b": n_b,
            "containment_a": n_i / np.maximum(n_a, 1),
            "containment_b": n_i / np.maximum(n_b, 1),
        })

    return j.map_batches(verify, batch_format="pandas")


def levenshtein_batch(a, b) -> np.ndarray:
    """Unit-cost Levenshtein distance for paired string arrays,
    vectorized ACROSS the pair axis: the DP table is walked cell by
    cell (``max_len²`` iterations of O(n_pairs) numpy ops), never pair
    by pair — the per-pair Python loop is ~100× slower at blocking
    candidate volumes. Semantics match DuckDB ``levenshtein()``
    exactly (insert/delete/substitute all cost 1). Intended for
    BOUNDED key/candidate columns (sorted-neighborhood blocking keys),
    not whole documents; callers keep keys in an ascii-normalized
    domain ([a-z0-9]) where byte comparison equals DuckDB's character
    comparison."""
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    n = len(a)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    enc_a = [s.encode() for s in a]
    enc_b = [s.encode() for s in b]
    la = np.fromiter((len(s) for s in enc_a), dtype=np.int64, count=n)
    lb = np.fromiter((len(s) for s in enc_b), dtype=np.int64, count=n)
    ma, mb = int(la.max()), int(lb.max())
    # padded byte matrices; pads are distinct out-of-band sentinels so
    # padding never equals a real byte (or the other side's padding)
    mat_a = np.full((n, max(ma, 1)), 256, dtype=np.int32)
    mat_b = np.full((n, max(mb, 1)), 257, dtype=np.int32)
    for r, bs in enumerate(enc_a):
        if bs:
            mat_a[r, :len(bs)] = np.frombuffer(bs, dtype=np.uint8)
    for r, bs in enumerate(enc_b):
        if bs:
            mat_b[r, :len(bs)] = np.frombuffer(bs, dtype=np.uint8)
    out = np.empty(n, dtype=np.int64)
    rows = np.arange(n)
    prev = np.broadcast_to(np.arange(mb + 1, dtype=np.int64),
                           (n, mb + 1)).copy()
    done = la == 0
    out[done] = lb[done]  # empty a → pure insertions
    for i in range(1, ma + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        ai = mat_a[:, i - 1]
        for j in range(1, mb + 1):
            cost = (ai != mat_b[:, j - 1]).astype(np.int64)
            cur[:, j] = np.minimum(
                np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1),
                prev[:, j - 1] + cost)
        at_end = la == i
        if at_end.any():
            out[at_end] = cur[rows[at_end], lb[at_end]]
        prev = cur
    return out


def _snm_key(texts: pa.ChunkedArray, key_len: int) -> pa.Array:
    """Sorted-neighborhood blocking key: first ``key_len`` characters
    of the lowercased text with everything outside [a-z0-9] stripped —
    ascii-only by construction, so byte order == character order and
    the key mirrors SQL ``substr(regexp_replace(lower(text),
    '[^a-z0-9]', '', 'g'), 1, key_len)`` exactly. Zero-copy Arrow (RE2)
    end to end."""
    k = pc.utf8_lower(texts)
    k = pc.replace_substring_regex(k, pattern="[^a-z0-9]", replacement="")
    return pc.utf8_slice_codeunits(k, 0, key_len)


def sorted_neighborhood_pairs(ds, *, id_col: str = "doc_id",
                              text_col: str = "text", window: int = 8,
                              key_len: int = 12, max_edit: int = 2,
                              num_partitions: int = 32,
                              boundary_per_block: int = 8):
    """Sorted-neighborhood (SNM) near-dup blocking: order the corpus by
    a normalized key prefix, slide a ``window``-row neighborhood over
    the GLOBAL (key, id) order, and keep candidate pairs whose keys are
    within ``max_edit`` Levenshtein — the classic entity-resolution
    blocking family (Hernández & Stolfo's merge/purge), complementary
    to MinHash/SimHash: it catches short near-identical keys (typos,
    truncated openers) that shingle signatures blur, and its candidate
    volume is HARD-BOUNDED at n×(window−1) regardless of key skew.

    Execution (one (key, id) exchange — text never shuffles):
    range-partition rows on the key (spread-sampled boundaries, ties
    never straddle because equal keys share a searchsorted bucket);
    inside each partition sort by (key, id) and form pairs within the
    window — contiguous in the global order, so within-partition pairs
    are exact. Pairs that straddle partitions are recovered exactly
    from an O(P × window) boundary carry: every partition ships its
    first/last ``window−1`` (key, id, local-rank) rows plus its row
    count to the driver, which reconstructs true global ranks from the
    partition-count prefix sum and forms the missing cross-partition
    pairs with the same predicate. Any hidden interior row would put a
    candidate pair ≥ window apart, so the carry is complete, not a
    heuristic. Boundary sample quality affects balance only, never the
    result. Returns (doc_a, doc_b, gap, edit) with doc_a the lower
    global rank and gap its rank distance ∈ [1, window).

    100 TB shape: candidates bounded linearly, keys are ≤ key_len
    ascii bytes, the only exchange moves (key, id), and the driver
    holds P × 2×window tiny rows. Raise ``num_partitions`` with the
    corpus (data-sized, like every range partition in this engine)."""
    from pystreamfs_ray.util import quantile_bounds, spread_sample_values

    w = int(window)
    if w < 2:
        raise ValueError("window must be ≥ 2")

    def keyed(t: pa.Table) -> pa.Table:
        return pa.table({
            id_col: t[id_col],
            "__key": _snm_key(t[text_col], key_len),
        })

    kd = ds.map_batches(keyed, batch_format="pyarrow")
    sample = spread_sample_values(kd, "__key",
                                  per_block=boundary_per_block)
    bounds = quantile_bounds(np.asarray(sample, dtype=object),
                             num_partitions)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        part = np.searchsorted(bounds, df["__key"].to_numpy(dtype=object),
                               side="left")
        return df.assign(__part=part.astype(np.int32))

    parted = kd.map_batches(assign, batch_format="pandas")

    def _pairs_from(keys, ia, ib):
        """Verify candidate index pairs (rank order ia < ib): length
        prefilter, then the batched DP. Returns (ia, ib, edit) of the
        surviving pairs as INDEX arrays so callers align ids/gaps."""
        ka, kb = keys[ia], keys[ib]
        # cheap length prefilter: |len_a − len_b| > max_edit can never
        # pass the DP
        lena = np.fromiter((len(s) for s in ka), dtype=np.int64,
                           count=len(ka))
        lenb = np.fromiter((len(s) for s in kb), dtype=np.int64,
                           count=len(kb))
        keep = np.abs(lena - lenb) <= max_edit
        ia, ib, ka, kb = ia[keep], ib[keep], ka[keep], kb[keep]
        if len(ia) == 0:
            return ia, ib, np.zeros(0, dtype=np.int64)
        edit = levenshtein_batch(ka, kb)
        ok = edit <= max_edit
        return ia[ok], ib[ok], edit[ok]

    def local_pairs(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g[id_col].to_numpy(),
                            g["__key"].to_numpy(dtype=object)))
        ids = g[id_col].to_numpy(np.int64)[order]
        keys = g["__key"].to_numpy(dtype=object)[order]
        npart = len(g)
        part = int(g["__part"].iloc[0])
        frames = []
        for s in range(1, min(w, npart)):
            cand = np.arange(npart - s, dtype=np.int64)
            ia, ib, edit = _pairs_from(keys, cand, cand + s)
            if len(ia):
                frames.append(pd.DataFrame({
                    "doc_a": ids[ia], "doc_b": ids[ib],
                    "gap": np.full(len(ia), s, dtype=np.int64),
                    "edit": edit}))
        pairs = (pd.concat(frames, ignore_index=True) if frames
                 else pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                                    "doc_b": pd.Series([], dtype=np.int64),
                                    "gap": pd.Series([], dtype=np.int64),
                                    "edit": pd.Series([], dtype=np.int64)}))
        pairs.insert(0, "__kind", np.zeros(len(pairs), dtype=np.int8))
        # boundary carry: first/last (w−1) rows in rank order (deduped
        # when the partition is shorter than two windows)
        lidx = np.unique(np.concatenate([
            np.arange(min(w - 1, npart), dtype=np.int64),
            np.arange(max(npart - (w - 1), 0), npart, dtype=np.int64)]))
        border = pd.DataFrame({
            "__kind": np.ones(len(lidx), dtype=np.int8),
            "doc_a": ids[lidx], "doc_b": np.zeros(len(lidx), np.int64),
            "gap": lidx, "edit": np.zeros(len(lidx), np.int64),
        })
        border["__bkey"] = keys[lidx]
        border["__part2"] = np.full(len(lidx), part, dtype=np.int64)
        border["__npart"] = np.full(len(lidx), npart, dtype=np.int64)
        pairs["__bkey"] = [""] * len(pairs)
        pairs["__part2"] = np.zeros(len(pairs), dtype=np.int64)
        pairs["__npart"] = np.zeros(len(pairs), dtype=np.int64)
        return pd.concat([pairs, border], ignore_index=True)

    both = parted.groupby("__part").map_groups(
        local_pairs, batch_format="pandas").materialize()

    out_cols = ["doc_a", "doc_b", "gap", "edit"]
    pairs_ds = both.filter(expr="__kind == 0").select_columns(out_cols)

    borders = both.filter(expr="__kind == 1").to_pandas()
    cross = None
    if len(borders):
        borders = borders.sort_values(["__part2", "gap"],
                                      ignore_index=True)  # gap = local idx
        counts = (borders.groupby("__part2")["__npart"].first())
        offsets = counts.cumsum().shift(fill_value=0)
        grank = (borders["gap"].to_numpy(np.int64)
                 + offsets.reindex(borders["__part2"]).to_numpy(np.int64))
        ids = borders["doc_a"].to_numpy(np.int64)
        keys = borders["__bkey"].to_numpy(dtype=object)
        parts = borders["__part2"].to_numpy(np.int64)
        frames = []
        m = len(borders)
        for s in range(1, w):  # list-shift: any <w-gap pair has every
            # interior row present in the border list (see docstring)
            cand = np.arange(m - s, dtype=np.int64)
            sel = ((grank[cand + s] - grank[cand] < w)
                   & (parts[cand] != parts[cand + s]))  # same-part
            # pairs were already emitted distributedly
            cand = cand[sel]
            if len(cand) == 0:
                continue
            ia, ib, edit = _pairs_from(keys, cand, cand + s)
            if len(ia):
                frames.append(pd.DataFrame({
                    "doc_a": ids[ia], "doc_b": ids[ib],
                    "gap": grank[ib] - grank[ia],
                    "edit": edit}))
        if frames:
            cross = pd.concat(frames, ignore_index=True)
    if cross is not None and len(cross):
        import ray.data as rd

        pairs_ds = pairs_ds.union(rd.from_pandas(cross[out_cols]))
    return pairs_ds


# ------------------------------------------------- exact-substring coverage


def substr_dup_coverage(ds, *, id_col: str = "doc_id",
                        text_col: str = "text", gram_len: int = 30,
                        hash_kind: str = "md5"):
    """Exact-substring duplicate coverage — the character-level
    "ExactSubstr" signal from the training-data-dedup literature
    (Lee et al. 2022, "Deduplicating Training Data Makes Language
    Models Better"): for every document, how many of its characters
    are covered by some length-``gram_len`` substring that occurs
    ANYWHERE ELSE in the corpus (including elsewhere in the same
    document). Catches verbatim boilerplate and quotations that
    word-shingle Jaccard dilutes away.

    Two passes. Pass 1: stride-1 character-gram md5-low-64 counts via
    per-batch combiners → one gram-vocabulary-sized exchange → the
    repeated set (count ≥ 2). Pass 2 (doc-local): each doc's repeated
    positions merge into covered intervals with the equal-length
    union identity ``covered = Σ min(gap, L) + L`` — exact integers,
    one vectorized diff per doc batch, no per-row loop.

    Scale notes: pass 2 is a ``stages/joins.lookup_docs`` of each doc's
    (id, pos, hash) gram rows against the repeated set. When the set
    fits it is broadcast into the doc-local scoring pass (zero extra
    shuffles); above it the gram rows hash-join the set and reduce per
    doc bucket, which ships ~40 B per corpus character — at that scale
    the rolling hash below keeps pass 1 and the gram rows cheap (the
    md5 gram hash exists for DuckDB-oracle parity). Output: one row per
    doc (id, n_chars, n_rep_grams, covered_chars, dup_ppm); a doc with
    no repeated gram keeps its row with zero coverage.

    ``hash_kind="rolling"`` is the production screen: a vectorized
    Rabin-Karp-style polynomial gram hash (uint64 wraparound, odd
    multiplier) — no per-position md5 calls, ~10× cheaper per char,
    identical shapes. Collisions can only ADD coverage (a screen, not
    a verdict), so the rolling screen upper-bounds the md5 one; it
    has no SQL mirror (pytest-gated against the md5 path instead)."""
    from pystreamfs_ray.stages.joins import lookup_docs
    from pystreamfs_ray.util import combine_sum

    L = gram_len

    _pows_cache: list = []

    def _doc_grams(text: str) -> np.ndarray:
        n = len(text)
        if n < L:
            return np.array([], dtype=np.int64)
        if hash_kind == "rolling":
            # vectorized Rabin-Karp: codepoints × B^(L-1-j) summed per
            # sliding window, uint64 wraparound (odd multiplier keeps
            # per-term products bijective)
            if not _pows_cache:
                B = np.uint64(0x9E3779B97F4A7C15)
                pows = np.empty(L, dtype=np.uint64)
                acc = np.uint64(1)
                with np.errstate(over="ignore"):
                    for j in range(L - 1, -1, -1):
                        pows[j] = acc
                        acc = acc * B
                _pows_cache.append(pows)
            c = np.frombuffer(text.encode("utf-32-le"),
                              dtype=np.uint32).astype(np.uint64)
            win = np.lib.stride_tricks.sliding_window_view(c, L)
            with np.errstate(over="ignore"):
                h = (win * _pows_cache[0]).sum(axis=1)
            return h.view(np.int64)
        # int64 VIEW of the uint64 hash: Arrow blocks carry int64
        # natively (a uint64 column above 2^63 silently falls back to
        # pickled python objects); the hash is engine-internal, so
        # only internal consistency matters
        return _md5_lower64(
            [text[i:i + L] for i in range(n - L + 1)]).view(np.int64)

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        gs = [_doc_grams(t) for t in df[text_col]]
        flat = (np.concatenate(gs) if gs
                else np.array([], dtype=np.int64))
        if not len(flat):
            return pd.DataFrame({"h": pd.Series([], dtype=np.int64),
                                 "n": pd.Series([], dtype=np.int64)})
        vc = pd.Series(flat).value_counts()
        return pd.DataFrame({"h": vc.index.to_numpy(np.int64),
                             "n": vc.to_numpy(np.int64)})

    counts = combine_sum(ds, count_partial, "h", ["n"])
    rep = counts.filter(expr="n >= 2").select_columns(["h"])

    def gram_rows(df: pd.DataFrame) -> pa.Table:
        """(id, pos, h, n_chars) per gram, plus a pos -1 row per doc so
        a doc without grams keeps its row."""
        gs = [_doc_grams(t) for t in df[text_col]]
        lens = np.array([len(g) for g in gs], dtype=np.int64) + 1
        starts = np.cumsum(lens) - lens
        pos = np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(starts, lens) - 1
        h = np.concatenate([np.r_[np.int64(0), g] for g in gs]) if gs \
            else np.zeros(0, np.int64)
        return pa.table({id_col: np.repeat(df[id_col].to_numpy(), lens),
                         "pos": pos, "h": h,
                         "n_chars": np.repeat(df[text_col].str.len()
                                              .to_numpy(np.int64), lens)})

    def cover(df: pd.DataFrame) -> pd.DataFrame:
        docs = df[df["pos"] < 0]
        hit = df[(df["pos"] >= 0) & df["__found"]].sort_values(
            [id_col, "pos"], kind="mergesort")
        # equal-length union: a doc's first hit covers L chars, each
        # later one min(gap, L)
        hid, hpos = hit[id_col].to_numpy(), hit["pos"].to_numpy(np.int64)
        first = np.r_[True, hid[1:] != hid[:-1]] if len(hid) else np.zeros(0, bool)
        gain = np.where(first, L, np.minimum(np.diff(hpos, prepend=0), L))
        per = pd.DataFrame({id_col: hid, "g": gain}).groupby(id_col)["g"]
        n_rep = per.size().reindex(docs[id_col], fill_value=0).to_numpy(np.int64)
        covered = per.sum().reindex(docs[id_col], fill_value=0).to_numpy(np.int64)
        n_chars = docs["n_chars"].to_numpy(np.int64)
        return pd.DataFrame({
            id_col: docs[id_col].to_numpy(),
            "n_chars": n_chars,
            "n_rep_grams": n_rep,
            "covered_chars": covered,
            "dup_ppm": np.where(
                n_chars > 0,
                covered * 1_000_000 // np.maximum(n_chars, 1),
                np.int64(0)).astype(np.int64),
        })

    return lookup_docs(ds, rep, "h", gram_rows, cover, doc_col=id_col,
                       how="mark")
