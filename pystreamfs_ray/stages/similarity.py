"""Similarity search over an embedding column (``list<float>``).

Baseline: brute-force cosine top-k — the query matrix ships once with
the stage's scorer, every batch does one numpy matmul against it, per-batch
partial top-k rows are emitted, and the tiny (n_queries × k × n_blocks)
partial set is reduced to the global top-k. The full corpus streams;
only partial winners move.

Scale path: ``stages/dedup.embedding_neardup_pairs`` (random-hyperplane
LSH buckets) and ``ivf_topk`` here (coarse-quantizer IVF: assign each
vector to its nearest of C seeded centroids, probe the closest P lists
only).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray


def _as_matrix(col) -> np.ndarray:
    return np.stack([np.asarray(v, dtype=np.float64) for v in col])


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _reduce_topk(score_col: str, id_col: str, k: int):
    """The ONE ranking policy — (round(score,6) desc, id asc), stable
    mergesort — shared by every ANN reduce so per-batch truncation, the
    global reduce and the DuckDB oracle can never disagree."""

    def reduce_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g[score_col] = g[score_col].round(6)
        g = g.sort_values([score_col, id_col], ascending=[False, True],
                          kind="mergesort").head(k)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return reduce_topk


def _topk_rounded(sims: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Indices of the top-k by (round(sim,6) desc, id asc) — the same
    ordering the global reduce (and the DuckDB oracle) ranks by, so
    per-batch truncation agrees with the final rank at tie boundaries."""
    return np.lexsort((ids, -np.round(sims, 6)))[:k]


class BruteForceScorer:
    """Normalizes the query matrix once, when the stage is built."""

    def __init__(self, q: dict, id_col: str, vec_col: str, k: int):
        self.qids = q["qids"]
        self.qmat = _normalize(q["qmat"])
        self.id_col, self.vec_col, self.k = id_col, vec_col, k

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        vecs = _normalize(_as_matrix(df[self.vec_col]))
        sims = self.qmat @ vecs.T  # (nq, batch)
        k = min(self.k, sims.shape[1])
        rows_q, rows_id, rows_sim = [], [], []
        ids = df[self.id_col].to_numpy()
        for qi in range(sims.shape[0]):
            # truncate with the FINAL ordering (round-6 desc, id asc) so a
            # rounded tie at the k boundary can't cut the wrong candidate
            top = _topk_rounded(sims[qi], ids, k)
            rows_q.extend([self.qids[qi]] * k)
            rows_id.extend(ids[top])
            rows_sim.extend(sims[qi, top])
        return pd.DataFrame({
            "query_id": np.array(rows_q, dtype=np.int64),
            self.id_col: np.array(rows_id, dtype=np.int64),
            "cosine": np.array(rows_sim, dtype=np.float64),
        })


def brute_force_topk(ds, query_ids, query_matrix, *, k=10, id_col="vec_id",
                     vec_col="embedding", batch_size=4096):
    """Global cosine top-k per query. Returns (query_id, id, cosine, rank)
    with deterministic (round(cosine,6) desc, id asc) ranking."""
    q = {"qids": np.asarray(query_ids, dtype=np.int64),
         "qmat": np.asarray(query_matrix, dtype=np.float64)}
    partials = ds.map_batches(
        BruteForceScorer(q, id_col, vec_col, k), batch_format="pandas",
        batch_size=batch_size,
    )

    return partials.groupby("query_id").map_groups(
        _reduce_topk("cosine", id_col, k), batch_format="pandas")


class IVFScorer:
    """IVF probe: score only vectors whose coarse cell is among the
    ``nprobe`` cells closest to each query."""

    def __init__(self, s: dict, id_col: str, vec_col: str, k: int,
                 nprobe: int):
        self.qids, self.qmat = s["qids"], _normalize(s["qmat"])
        self.centroids = s["centroids"]
        self.id_col, self.vec_col, self.k = id_col, vec_col, k
        # cells each query probes
        qc = self.qmat @ self.centroids.T
        self.probe = np.argsort(-qc, axis=1)[:, :nprobe]

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        vecs = _normalize(_as_matrix(df[self.vec_col]))
        cell = np.argmax(vecs @ self.centroids.T, axis=1)
        ids = df[self.id_col].to_numpy()
        out_q, out_id, out_sim = [], [], []
        for qi in range(len(self.qids)):
            mask = np.isin(cell, self.probe[qi])
            if not mask.any():
                continue
            sims = self.qmat[qi] @ vecs[mask].T
            k = min(self.k, sims.shape[0])
            top = _topk_rounded(sims, ids[mask], k)
            out_q.extend([self.qids[qi]] * k)
            out_id.extend(ids[mask][top])
            out_sim.extend(sims[top])
        return pd.DataFrame({
            "query_id": np.array(out_q, dtype=np.int64),
            self.id_col: np.array(out_id, dtype=np.int64),
            "cosine": np.array(out_sim, dtype=np.float64),
        })


def train_centroids(ds, *, n_cells=16, id_col="vec_id",
                    vec_col="embedding", train_sample: int = 2048,
                    seed=7) -> np.ndarray:
    """Seeded k-means-lite coarse quantizer: a hash-keyed uniform
    sample of the WHOLE dataset (``ds.limit()`` would take the first
    blocks — on cluster-sorted input that trains on one cluster and
    skews every probe), five Lloyd iterations on the driver."""
    from pystreamfs_ray.sources import sample_by_hash

    n = ds.count()
    if n > train_sample:
        sample = sample_by_hash(ds, id_col, train_sample / n).to_pandas()
    else:
        sample = ds.to_pandas()
    if len(sample) == 0:  # degenerate rate rounding on tiny inputs
        sample = ds.limit(min(n, train_sample)).to_pandas()
    mat = _normalize(_as_matrix(sample[vec_col]))
    rng = np.random.default_rng(seed)
    centroids = mat[rng.choice(len(mat), size=min(n_cells, len(mat)),
                               replace=False)]
    for _ in range(5):
        assign = np.argmax(mat @ centroids.T, axis=1)
        for c in range(centroids.shape[0]):
            pts = mat[assign == c]
            if len(pts):
                v = pts.mean(axis=0)
                v_norm = np.linalg.norm(v)
                if v_norm > 0:
                    centroids[c] = v / v_norm
    return centroids


def ivf_topk(ds, query_ids, query_matrix, *, k=10, n_cells=16, nprobe=4,
             id_col="vec_id", vec_col="embedding",
             train_sample: int = 2048, seed=7):
    """Approximate top-k: seeded k-means-lite centroids (a few Lloyd
    iterations over a driver-side sample), then probe-limited scoring.

    The training sample is hash-keyed on ``id_col`` (uniform across the
    WHOLE dataset) — ``ds.limit()`` would take the first blocks, which
    on cluster-sorted input trains the coarse quantizer on one cluster
    and skews every probe."""
    centroids = train_centroids(ds, n_cells=n_cells, id_col=id_col,
                                vec_col=vec_col, train_sample=train_sample,
                                seed=seed)

    s = {"qids": np.asarray(query_ids, dtype=np.int64),
         "qmat": np.asarray(query_matrix, dtype=np.float64),
         "centroids": centroids}
    partials = ds.map_batches(
        IVFScorer(s, id_col, vec_col, k, nprobe), batch_format="pandas")

    return partials.groupby("query_id").map_groups(
        _reduce_topk("cosine", id_col, k), batch_format="pandas")


def quantize_matrix(vecs: np.ndarray, *,
                    normalized: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Pure quantization kernel (Ray-free, property-tested): L2-normalize
    each row, then int8 with per-vector scale ``s = max|x|/127`` so
    ``cosine(q, v) ≈ (q · v8) * s`` with per-component error ≤ s/2.
    ``normalized=True`` skips the norm pass when the caller already
    holds unit vectors (the ingest path normalizes once per batch)."""
    vecs = np.asarray(vecs, dtype=np.float64)
    if not normalized:
        vecs = _normalize(vecs)
    if vecs.size:
        scale = np.abs(vecs).max(axis=1) / 127.0
        scale[scale == 0] = 1.0
        q8 = np.clip(np.round(vecs / scale[:, None]), -127, 127)
    else:
        scale = np.zeros(0)
        q8 = vecs
    return q8, scale


def quantize_embeddings(ds, *, id_col: str = "vec_id",
                        vec_col: str = "embedding", centroids=None):
    """Int8 per-vector quantization of an embedding column — the
    storage/bandwidth artifact for 100-TB similarity search. Each
    vector is L2-normalized, then mapped to int8 with a per-vector
    scale ``s = max|x| / 127`` so that ``cosine(q, v) ≈ (q · v8) * s``
    with per-component error ≤ s/2 (|error| ≤ ||q||₁ · s/2 total).

    Output: ``(id, q8: list<int8>, scale: float64)``. Written to
    parquet this is 4× smaller than float32 (8× vs the float64 the
    fixture carries) — a query scan over the quantized table moves a
    quarter of the bytes through storage, object store and memory bus,
    which is where brute-force ANN spends its wall at scale. Doc-local,
    shuffle-free, stateless ``map_batches``.

    With ``centroids`` (a ``train_centroids`` matrix, broadcast via
    ``ray.put`` once) each row also gets its coarse IVF ``cell`` —
    the persisted IVF-int8 index ``ivf_int8_topk`` scans probe-limited:
    IVF prunes the COMPUTE (only nprobe cells score), int8 prunes the
    BANDWIDTH (every scanned byte is a quarter of float32)."""
    cref = ray.put(np.asarray(centroids, dtype=np.float64)) \
        if centroids is not None else None

    def quant(t: pa.Table) -> pa.Table:
        # normalize ONCE per batch: the int8 step and the cell
        # assignment share the unit vectors
        vecs = _normalize(_as_matrix(t[vec_col].to_pylist()))
        q8, scale = quantize_matrix(vecs, normalized=True)
        cols = {
            id_col: t[id_col],
            "q8": pa.array([row.astype(np.int8) for row in q8],
                           type=pa.list_(pa.int8())),
            "scale": pa.array(scale, type=pa.float64()),
        }
        if cref is not None:
            cents = ray.get(cref)
            cols["cell"] = pa.array(
                np.argmax(vecs @ cents.T, axis=1).astype(np.int32),
                type=pa.int32())
        return pa.table(cols)

    return ds.map_batches(quant, batch_format="pyarrow")


class Int8Scorer:
    """Brute-force cosine over the int8-quantized table. The float
    query matrix is normalized once, when the stage is built; each
    batch does one (nq × d) @ (d × batch) matmul over the DEQUANT-FREE
    int8 codes upcast in registers, then rescales by the per-vector
    scale — the stored/shuffled representation stays int8 end to end."""

    def __init__(self, q: dict, id_col: str, k: int):
        self.qids = q["qids"]
        self.qmat = _normalize(q["qmat"]).astype(np.float32)
        self.id_col, self.k = id_col, k

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        codes = np.stack([np.asarray(v, dtype=np.int8) for v in df["q8"]])
        scales = df["scale"].to_numpy(np.float64)
        # int8 → float32 upcast happens in the matmul input, never in
        # storage; sims are rescaled per corpus vector afterwards
        sims = (self.qmat @ codes.T.astype(np.float32)) * scales[None, :]
        ids = df[self.id_col].to_numpy()
        k = min(self.k, sims.shape[1])
        rows_q, rows_id, rows_sim = [], [], []
        for qi in range(sims.shape[0]):
            top = _topk_rounded(sims[qi], ids, k)
            rows_q.extend([self.qids[qi]] * k)
            rows_id.extend(ids[top])
            rows_sim.extend(sims[qi, top])
        return pd.DataFrame({
            "query_id": np.array(rows_q, dtype=np.int64),
            self.id_col: np.array(rows_id, dtype=np.int64),
            "cosine_q": np.array(rows_sim, dtype=np.float64),
        })


def int8_topk(quant_ds, query_ids, query_matrix, *, k=10, id_col="vec_id",
              batch_size=4096):
    """Global approximate cosine top-k per query over a
    ``quantize_embeddings`` table. Same partial-top-k-then-reduce shape
    as ``brute_force_topk``: the corpus streams, only
    (n_queries × k × n_blocks) partial winners move."""
    q = {"qids": np.asarray(query_ids, dtype=np.int64),
         "qmat": np.asarray(query_matrix, dtype=np.float64)}
    partials = quant_ds.map_batches(
        Int8Scorer(q, id_col, k), batch_format="pandas",
        batch_size=batch_size,
    )

    return partials.groupby("query_id").map_groups(
        _reduce_topk("cosine_q", id_col, k), batch_format="pandas")


class IVFInt8Scorer(Int8Scorer):
    """Probe-limited int8 scoring: only rows whose coarse ``cell`` is
    among each query's ``nprobe`` closest cells are scored — IVF prunes
    the matmul, int8 pruned the bytes that got here."""

    def __init__(self, s: dict, id_col: str, k: int, nprobe: int):
        super().__init__({"qids": s["qids"], "qmat": s["qmat"]}, id_col, k)
        qc = _normalize(s["qmat"]) @ s["centroids"].T
        self.probe = np.argsort(-qc, axis=1)[:, :nprobe]

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        codes = np.stack([np.asarray(v, dtype=np.int8) for v in df["q8"]])
        scales = df["scale"].to_numpy(np.float64)
        cell = df["cell"].to_numpy()
        ids = df[self.id_col].to_numpy()
        out_q, out_id, out_sim = [], [], []
        for qi in range(len(self.qids)):
            mask = np.isin(cell, self.probe[qi])
            if not mask.any():
                continue
            sims = ((self.qmat[qi] @ codes[mask].T.astype(np.float32))
                    * scales[mask])
            k = min(self.k, sims.shape[0])
            top = _topk_rounded(sims, ids[mask], k)
            out_q.extend([self.qids[qi]] * k)
            out_id.extend(ids[mask][top])
            out_sim.extend(sims[top])
        return pd.DataFrame({
            "query_id": np.array(out_q, dtype=np.int64),
            self.id_col: np.array(out_id, dtype=np.int64),
            "cosine_q": np.array(out_sim, dtype=np.float64),
        })


def ivf_int8_topk(quant_ds, query_ids, query_matrix, centroids, *, k=10,
                  nprobe=4, id_col="vec_id", batch_size=4096):
    """Approximate top-k over a cell-tagged ``quantize_embeddings``
    table (the persisted IVF-int8 index): the composition of the two
    scale paths — IVF limits which vectors score (compute), int8 limits
    the bytes every scan moves (bandwidth). Same partial-top-k reduce
    as the flat paths."""
    s = {"qids": np.asarray(query_ids, dtype=np.int64),
         "qmat": np.asarray(query_matrix, dtype=np.float64),
         "centroids": np.asarray(centroids, dtype=np.float64)}
    partials = quant_ds.map_batches(
        IVFInt8Scorer(s, id_col, k, nprobe), batch_format="pandas",
        batch_size=batch_size,
    )

    return partials.groupby("query_id").map_groups(
        _reduce_topk("cosine_q", id_col, k), batch_format="pandas")


def train_pq_codebook(ds, *, m: int = 8, n_codes: int = 16,
                      id_col: str = "vec_id", vec_col: str = "embedding",
                      train_sample: int = 2048, seed: int = 7) -> np.ndarray:
    """Product-quantization codebook: split each L2-normalized vector
    into ``m`` contiguous subvectors and k-means each subspace to
    ``n_codes`` centroids — (m, n_codes, d/m). Training mirrors
    ``train_centroids``: a hash-keyed uniform sample (never
    ``ds.limit()``, which on cluster-sorted input trains on one
    cluster), five seeded Lloyd iterations per subspace on the driver.
    Codebook size is m·n_codes·(d/m) floats — KBs, broadcast-cheap."""
    from pystreamfs_ray.sources import sample_by_hash

    n = ds.count()
    if n > train_sample:
        sample = sample_by_hash(ds, id_col, train_sample / n).to_pandas()
    else:
        sample = ds.to_pandas()
    if len(sample) == 0:
        sample = ds.limit(min(n, train_sample)).to_pandas()
    mat = _normalize(_as_matrix(sample[vec_col]))
    d = mat.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    sub = d // m
    rng = np.random.default_rng(seed)
    book = np.empty((m, n_codes, sub), dtype=np.float64)
    for j in range(m):
        x = mat[:, j * sub:(j + 1) * sub]
        c = x[rng.choice(len(x), size=min(n_codes, len(x)), replace=False)]
        for _ in range(5):
            # nearest by Euclidean distance within the subspace, via the
            # ||x-c||² == -2(x·c - ||c||²/2) identity: one sgemm, no
            # (n × n_codes × sub) broadcast tensor
            assign = np.argmax(x @ c.T - 0.5 * (c ** 2).sum(-1), axis=1)
            for ci in range(c.shape[0]):
                pts = x[assign == ci]
                if len(pts):
                    c[ci] = pts.mean(axis=0)
        if c.shape[0] < n_codes:  # tiny sample: pad by repeating
            c = np.vstack([c] * (n_codes // c.shape[0] + 1))[:n_codes]
        book[j] = c
    return book


def pq_encode(ds, codebook: np.ndarray, *, id_col: str = "vec_id",
              vec_col: str = "embedding"):
    """Encode every vector as ``m`` uint8 centroid codes (4 bits used
    at n_codes=16) — the 100-TB memory lever: a 64-dim float64 row
    (512 B) becomes 8 B of codes, so a billion-vector index fits in a
    few workers' object store instead of a rack. One streaming pass,
    broadcast codebook, vectorized subspace argmin per batch."""
    book_ref = ray.put(codebook)

    def encode(df: pd.DataFrame) -> pd.DataFrame:
        book = ray.get(book_ref) if isinstance(book_ref, ray.ObjectRef) \
            else book_ref
        vecs = _normalize(_as_matrix(df[vec_col]))
        m, n_codes, sub = book.shape
        codes = np.empty((len(vecs), m), dtype=np.uint8)
        for j in range(m):
            x = vecs[:, j * sub:(j + 1) * sub]
            # ||x-c||² argmin == argmax(x·c - ||c||²/2), one sgemm
            dots = x @ book[j].T - 0.5 * (book[j] ** 2).sum(-1)
            codes[:, j] = np.argmax(dots, axis=1).astype(np.uint8)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "codes": [row for row in codes],
        })

    return ds.map_batches(encode, batch_format="pandas")


class PQScorer:
    """Asymmetric-distance (ADC) scoring — per query a
    (m × n_codes) lookup table of subquery·centroid dot products is
    built ONCE in __init__; each batch is m uint8 gathers + a sum,
    no float vector ever touched."""

    def __init__(self, s: dict, id_col: str, k: int):
        self.qids = s["qids"]
        qmat = _normalize(s["qmat"])
        book = s["book"]                       # (m, n_codes, sub)
        m, n_codes, sub = book.shape
        # LUT[q, j, c] = q_sub_j · book[j, c]
        self.lut = np.einsum("qjs,jcs->qjc",
                             qmat.reshape(len(qmat), m, sub), book)
        self.id_col, self.k, self.m = id_col, k, m

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        codes = np.stack(df["codes"].to_numpy())   # (N, m) uint8
        ids = df[self.id_col].to_numpy()
        nq = len(self.qids)
        scores = np.zeros((nq, len(ids)), dtype=np.float64)
        for j in range(self.m):                    # m gathers, vectorized
            scores += self.lut[:, j, :][:, codes[:, j]]
        rows_q, rows_id, rows_s = [], [], []
        k = min(self.k, len(ids))
        for qi in range(nq):
            top = _topk_rounded(scores[qi], ids, k)
            rows_q.extend([self.qids[qi]] * k)
            rows_id.extend(ids[top])
            rows_s.extend(scores[qi][top])
        return pd.DataFrame({
            "query_id": np.array(rows_q, dtype=np.int64),
            self.id_col: np.array(rows_id, dtype=np.int64),
            "cosine_pq": np.array(rows_s, dtype=np.float64),
        })


def pq_topk(codes_ds, query_ids, query_matrix, codebook, *, k: int = 10,
            id_col: str = "vec_id", rerank_ds=None, vec_col: str = "embedding",
            shortlist_factor: int = 4):
    """Approximate top-k over the PQ-encoded index: broadcast
    (queries, codebook) once, ADC-score each batch of codes, reduce
    per-batch partial winners with the shared ranking policy.

    ``rerank_ds`` enables the FAISS-style refine step: the ADC pass
    shortlists ``k × shortlist_factor`` candidates per query (a tiny
    queries×shortlist frame), then ONE more column-pruned pass over
    the float corpus exact-scores ONLY shortlisted rows — quantization
    error never decides the final ranking, it only prunes. At 100 TB
    the shortlist id-set is KBs (broadcast), and the refine pass
    streams the same blocks the ADC pass did but matmuls ~0.01% of
    them."""
    qids = np.asarray(query_ids, dtype=np.int64)
    qmat = np.asarray(query_matrix, dtype=np.float64)
    s = {"qids": qids, "qmat": qmat,
         "book": np.asarray(codebook, dtype=np.float64)}
    k_adc = k * shortlist_factor if rerank_ds is not None else k
    partials = codes_ds.map_batches(PQScorer(s, id_col, k_adc),
                                    batch_format="pandas")
    adc = partials.groupby("query_id").map_groups(
        _reduce_topk("cosine_pq", id_col, k_adc), batch_format="pandas")
    if rerank_ds is None:
        return adc

    cand = np.unique(adc.select_columns([id_col]).to_pandas()[id_col]
                     .to_numpy())
    cand_ref = ray.put(cand)

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        ids = ray.get(cand_ref) if isinstance(cand_ref, ray.ObjectRef) \
            else cand_ref
        return df[np.isin(df[id_col].to_numpy(), ids)]

    filtered = rerank_ds.map_batches(keep, batch_format="pandas")
    return brute_force_topk(filtered, qids, qmat, k=k, id_col=id_col,
                            vec_col=vec_col)


class RangeScorer:
    """Emit every (query, vector) pair whose ROUND(cosine, 6) clears
    the threshold — queries normalized once, when the stage is built."""

    def __init__(self, q: dict, id_col: str, vec_col: str,
                 threshold: float):
        self.qids = q["qids"]
        self.qmat = _normalize(q["qmat"])
        self.id_col, self.vec_col = id_col, vec_col
        self.threshold = threshold

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        vecs = _normalize(_as_matrix(df[self.vec_col]))
        sims = np.round(self.qmat @ vecs.T, 6)  # (nq, batch)
        qi, vi = np.nonzero(sims >= self.threshold)
        ids = df[self.id_col].to_numpy()
        return pd.DataFrame({
            "query_id": self.qids[qi].astype(np.int64),
            self.id_col: ids[vi].astype(np.int64),
            "cosine": sims[qi, vi].astype(np.float64),
        })


def range_search(ds, query_ids, query_matrix, *, threshold=0.3,
                 id_col="vec_id", vec_col="embedding", batch_size=4096):
    """Cosine RANGE search: every corpus vector within the similarity
    radius of each query — the all-neighbors complement of top-k
    (retrieval recall floors, near-dup sweeps around a probe set).

    Unlike top-k there is NO reduce step: the operator is a pure
    streaming filter over the corpus (zero shuffles, nothing
    materialized), so wall time is the column scan + one matmul per
    batch and the output streams straight to the consumer. Thresholding
    happens on ROUND(cosine, 6) — the same quantization the oracle and
    the top-k ranking use — so the boundary is deterministic.
    """
    q = {"qids": np.asarray(query_ids, dtype=np.int64),
         "qmat": np.asarray(query_matrix, dtype=np.float64)}
    return ds.map_batches(
        RangeScorer(q, id_col, vec_col, threshold), batch_format="pandas",
        batch_size=batch_size,
    )


class _MmrCandidateScorer:
    """Per-block relevance top-m prefilter that KEEPS the
    candidate vectors (the MMR loop needs pairwise sims)."""

    def __init__(self, q: np.ndarray, id_col: str, vec_col: str, m: int):
        self.q = _normalize(np.asarray(q, dtype=np.float64)[None, :])[0]
        self.id_col, self.vec_col, self.m = id_col, vec_col, m

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        vecs = _normalize(_as_matrix(df[self.vec_col]))
        ids = df[self.id_col].to_numpy(np.int64)
        sims = vecs @ self.q
        keep = _topk_rounded(sims, ids, min(self.m, len(ids)))
        return pd.DataFrame({
            self.id_col: ids[keep],
            "relevance": np.round(sims[keep], 6),
            "__vec": list(vecs[keep]),
        })


def mmr_select(ds, query_vec, *, k=10, lam=0.7, candidate_factor=4,
               id_col="vec_id", vec_col="embedding", batch_size=4096):
    """Maximal-marginal-relevance diversity selection (Carbonell &
    Goldstein 1998): greedily pick k vectors maximizing
    ``λ·cos(q,d) − (1−λ)·max_{s∈S} cos(d,s)`` — the standard
    redundancy-penalized retrieval used to build diverse eval/SFT
    subsets instead of k near-duplicates of the single best hit.

    Scale shape: a distributed relevance top-m prefilter
    (m = candidate_factor·k) with per-block partial top-m combiners —
    only ≤ m (id, relevance, vector) rows leave each block — then the
    greedy k-step loop runs on the m-candidate table (k·m dot
    products, driver-side, bounded). The prefilter is the documented
    MMR-at-scale approximation: any pick must sit in the global
    relevance top-m (λ ≥ 0.5 keeps this tight in practice). Fully
    deterministic: round-6 scores, id-asc ties at every boundary."""
    m = candidate_factor * k
    pre = ds.map_batches(
        _MmrCandidateScorer(query_vec, id_col, vec_col, m),
        batch_format="pandas", batch_size=batch_size,
    ).to_pandas()
    # Ray drops the schema of a zero-row dataset — guard BEFORE sorting
    if not len(pre) or "relevance" not in pre.columns:
        return pd.DataFrame({id_col: pd.Series(dtype=np.int64),
                             "mmr_rank": pd.Series(dtype=np.int64),
                             "relevance": pd.Series(dtype=np.float64),
                             "mmr_score": pd.Series(dtype=np.float64)})
    pre = pre.sort_values(["relevance", id_col], ascending=[False, True],
                          kind="mergesort", ignore_index=True).head(m)
    ids = pre[id_col].to_numpy(np.int64)
    rel = pre["relevance"].to_numpy(np.float64)
    vecs = np.stack(pre["__vec"].to_numpy())
    pair = np.round(vecs @ vecs.T, 6)          # m×m, bounded
    chosen: list[int] = []
    max_sim = np.zeros(len(ids))
    picked = np.zeros(len(ids), dtype=bool)
    rows = []
    for rank in range(min(k, len(ids))):
        score = np.round(lam * rel - (0.0 if not chosen else 1.0)
                         * (1.0 - lam) * max_sim, 6)
        score[picked] = -np.inf
        # (score desc, id asc) deterministic pick
        best = np.lexsort((ids, -score))[0]
        picked[best] = True
        chosen.append(best)
        max_sim = np.maximum(max_sim, pair[best])
        rows.append({id_col: ids[best],
                     "mmr_rank": np.int64(rank + 1),
                     "relevance": rel[best],
                     "mmr_score": float(score[best])})
    return pd.DataFrame(rows)


def _lsh_planes(dim: int, n_planes: int, seed: int) -> np.ndarray:
    """Seeded random hyperplanes — regenerated identically anywhere
    from (dim, n_planes, seed), so nothing d×b ships to workers."""
    return np.random.default_rng(seed).normal(size=(n_planes, dim))


def _lsh_bucket(vecs: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Signed-random-projection bucket key per vector: b sign bits
    packed into an int64 (b ≤ 62)."""
    bits = (vecs @ planes.T) > 0
    return bits.astype(np.int64) @ (1 << np.arange(planes.shape[0],
                                                   dtype=np.int64))


class _LshScorer:
    """Probe-set membership filter + exact rerank. Each query
    probes its own bucket plus every Hamming-1 neighbor (flip one
    plane's bit) — the standard multiprobe that rescues vectors
    sitting just across one hyperplane."""

    def __init__(self, q: dict, id_col: str, vec_col: str, k: int,
                 n_planes: int, n_tables: int, seed: int):
        self.qids = q["qids"]
        self.qmat = _normalize(q["qmat"])
        self.id_col, self.vec_col, self.k = id_col, vec_col, k
        self.n_planes, self.n_tables, self.seed = n_planes, n_tables, seed
        self.planes = None  # lazily sized from the first batch's dim
        self.probe: list[list[set]] = []

    def _setup(self, dim: int):
        # L independent plane sets (seed offset per table); a vector's
        # candidacy for a query is the UNION over tables
        self.planes = [_lsh_planes(dim, self.n_planes, self.seed + t)
                       for t in range(self.n_tables)]
        flips = 1 << np.arange(self.n_planes, dtype=np.int64)
        self.probe = []
        for planes in self.planes:
            qb = _lsh_bucket(self.qmat, planes)
            self.probe.append(
                [set((b ^ np.concatenate(([0], flips))).tolist())
                 for b in qb])

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        vecs = _normalize(_as_matrix(df[self.vec_col]))
        if self.planes is None:
            self._setup(vecs.shape[1])
        cells = [_lsh_bucket(vecs, p) for p in self.planes]
        ids = df[self.id_col].to_numpy()
        rows_q, rows_id, rows_sim = [], [], []
        for qi in range(len(self.qids)):
            mask = np.zeros(len(ids), dtype=bool)
            for t in range(self.n_tables):
                mask |= np.isin(cells[t], list(self.probe[t][qi]))
            if not mask.any():
                continue
            sims = self.qmat[qi] @ vecs[mask].T
            k = min(self.k, sims.shape[0])
            top = _topk_rounded(sims, ids[mask], k)
            rows_q.extend([self.qids[qi]] * k)
            rows_id.extend(ids[mask][top])
            rows_sim.extend(sims[top])
        return pd.DataFrame({
            "query_id": np.array(rows_q, dtype=np.int64),
            self.id_col: np.array(rows_id, dtype=np.int64),
            "cosine": np.array(rows_sim, dtype=np.float64),
        })


def lsh_topk(ds, query_ids, query_matrix, *, k=10, n_planes=10,
             n_tables=4, seed=7, id_col="vec_id", vec_col="embedding",
             batch_size=4096):
    """LSH-bucketed approximate top-k — the hash-partition scale path
    next to IVF (SURVEY's 'IVF or LSH-bucketed variant'): vectors land
    in signed-random-projection buckets; each query scores only the
    vectors in its own bucket and its Hamming-1 multiprobe ring, then
    the per-block partial top-k reduce ranks exactly like every other
    ANN path (round-6 desc, id asc). Unlike IVF there is NO training
    pass — the planes regenerate from the seed anywhere — which is the
    operational win for incremental ingestion (new data buckets
    without re-clustering). Expected candidate mass ≈ (b+1)/2^b of the
    corpus at b planes."""
    q = {"qids": np.asarray(query_ids, dtype=np.int64),
         "qmat": np.asarray(query_matrix, dtype=np.float64)}
    partials = ds.map_batches(
        _LshScorer(q, id_col, vec_col, k, n_planes, n_tables, seed),
        batch_format="pandas", batch_size=batch_size,
    )
    return partials.groupby("query_id").map_groups(
        _reduce_topk("cosine", id_col, k), batch_format="pandas")
