"""Distributed k-means over an embedding column (``list<float>``).

The reference's MCNN kernel maintains per-cluster centroids
incrementally inside one process (`/root/reference/pystreamfs/
algorithms/mcnn.py` — centroid = mean of the cluster's instance
matrix); at corpus scale the analogous need is clustering the WHOLE
embedding table (SemDeDup-style semantic buckets, domain discovery,
IVF coarse quantizers). Classic Lloyd's iterations, Ray-Data-shaped:

- **assign** is embarrassingly parallel: the (k, d) centroid matrix is
  broadcast once per iteration (``ray.put``), each batch does one
  vectorized distance computation and an argmin. Nothing shuffles.
- **update** uses the combiner pattern: each batch emits at most k
  partial rows (cluster, count, sum-vector); only ``n_blocks × k``
  tiny rows reach the driver, which finishes the k sums. No
  per-vector data ever concentrates anywhere.

Distances are computed via explicit differences ``Σ (x_j - c_j)²``
(not the ``‖x‖² - 2x·c`` expansion) so results match an element-wise
oracle (DuckDB ``list_distance``) without cancellation error; ties
break to the smallest cluster id, same as ``ORDER BY dist, cid``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray


def _as_matrix(col) -> np.ndarray:
    return np.stack([np.asarray(v, dtype=np.float64) for v in col])


def _assign_batch(X: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(argmin index, euclidean distance) per row; first-occurrence
    argmin == smallest centroid index on exact ties."""
    diff = X[:, None, :] - C[None, :, :]
    d2 = np.einsum("nkd,nkd->nk", diff, diff)
    idx = np.argmin(d2, axis=1)
    return idx, np.sqrt(d2[np.arange(len(X)), idx])


def seed_centroids(ds, k: int, *, id_col: str = "vec_id",
                   vec_col: str = "embedding") -> tuple[np.ndarray, np.ndarray]:
    """Deterministic init: the k vectors with the smallest ids (stable
    across partitioning and runs; the driver-side pull is k rows)."""
    rows = (ds.select_columns([id_col, vec_col])
            .sort(id_col).limit(k).to_pandas())
    return rows[id_col].to_numpy(), _as_matrix(rows[vec_col])


def kmeans_assign(ds, centroid_ids, centroids, *, id_col: str = "vec_id",
                  vec_col: str = "embedding", with_dist: bool = False,
                  batch_size: int = 4096):
    """Nearest-centroid assignment of every vector. Returns a Dataset of
    ``(id_col, cid[, dist])``; ``cid`` is the centroid's label from
    ``centroid_ids``. Broadcast once, stream everything."""
    ref = ray.put((np.asarray(centroid_ids, dtype=np.int64),
                   np.asarray(centroids, dtype=np.float64)))

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        cids, C = ray.get(ref)
        idx, dist = _assign_batch(_as_matrix(df[vec_col]), C)
        out = {id_col: df[id_col].to_numpy(),
               "cid": cids[idx]}
        if with_dist:
            out["dist"] = np.round(dist, 6)
        return pd.DataFrame(out)

    return ds.select_columns([id_col, vec_col]).map_batches(
        assign, batch_format="pandas", batch_size=batch_size)


def kmeans_fit(ds, k: int, *, iters: int = 10, id_col: str = "vec_id",
               vec_col: str = "embedding", batch_size: int = 4096,
               tol: float = 0.0) -> np.ndarray:
    """Lloyd's k-means: deterministic smallest-id init, then ``iters``
    rounds of broadcast-assign + combiner partial sums. Returns the
    final (k, d) centroid matrix. An empty cluster keeps its previous
    centroid (no respawn — deterministic)."""
    _, C = seed_centroids(ds, k, id_col=id_col, vec_col=vec_col)
    vecs = ds.select_columns([vec_col])

    for _ in range(iters):
        ref = ray.put(C)

        def partial(df: pd.DataFrame, _ref=ref) -> pd.DataFrame:
            Cc = ray.get(_ref)
            X = _as_matrix(df[vec_col])
            idx, _ = _assign_batch(X, Cc)
            rows = []
            for c in np.unique(idx):
                m = idx == c
                rows.append((int(c), int(m.sum()), X[m].sum(axis=0)))
            return pd.DataFrame({
                "cid": np.array([r[0] for r in rows], dtype=np.int64),
                "n": np.array([r[1] for r in rows], dtype=np.int64),
                "vsum": [r[2] for r in rows],
            })

        # n_blocks × k tiny rows; finish the k sums on the driver
        parts = vecs.map_batches(partial, batch_size=batch_size,
                                 batch_format="pandas").to_pandas()
        newC = C.copy()
        for c, g in parts.groupby("cid"):
            n = int(g["n"].sum())
            if n > 0:
                newC[c] = np.sum(np.stack(g["vsum"].to_list()), axis=0) / n
        shift = float(np.sqrt(((newC - C) ** 2).sum(axis=1)).max())
        C = newC
        if shift <= tol:
            break
    return C


def label_centroids(ds, *, label_col: str = "label",
                    vec_col: str = "embedding", ndigits: int = 6) -> pd.DataFrame:
    """Per-label mean embedding in long form ``(label, dim, c)`` — the
    class-centroid table used for nearest-class-mean classification and
    embedding-space drift checks. Same combiner shape as the k-means
    update: each batch emits one (count, sum-vector) row per label it
    saw, so the exchange is ``n_blocks × n_labels`` rows of d floats;
    the finish is a tiny driver reduce."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        X = _as_matrix(df[vec_col])
        labels = df[label_col].to_numpy()
        uniq = np.unique(labels)
        return pd.DataFrame({
            label_col: uniq,
            "n": [int((labels == u).sum()) for u in uniq],
            "vsum": [X[labels == u].sum(axis=0) for u in uniq],
        })

    parts = (ds.select_columns([label_col, vec_col])
             .map_batches(partial, batch_format="pandas").to_pandas())
    rows = []
    for lab, g in parts.groupby(label_col):
        n = int(g["n"].sum())
        c = np.sum(np.stack(g["vsum"].to_list()), axis=0) / n
        for dim, v in enumerate(c):
            rows.append((lab, dim + 1, round(float(v), ndigits)))
    out = pd.DataFrame(rows, columns=[label_col, "dim", "c"])
    out["dim"] = out["dim"].astype(np.int64)
    return out.sort_values([label_col, "dim"], ignore_index=True)


def split_centroid_drift(ds, *, id_col: str = "vec_id",
                         vec_col: str = "embedding",
                         splits=(("train", 0.8), ("val", 0.1), ("test", 0.1)),
                         salt: str = "", ndigits: int = 6) -> pd.DataFrame:
    """Distribution-shift check across the holdout split: the embedding
    centroid of each split (same deterministic md5 rule as
    ``sources.split_assign``), then the cosine between every split
    pair. A val/test centroid that drifts away from train's flags a
    skewed holdout — the embedding-space companion to the exact/near
    contamination audits in ``stages.decontam``.

    Output one row per unordered pair, lexicographic ``split_a <
    split_b``: ``(split_a, split_b, n_a, n_b, cosine)``. Same combiner
    shape as ``label_centroids`` (one (count, sum-vector) row per split
    per block), so the exchange is ``n_blocks × n_splits`` rows of d
    floats and the pairwise finish is a driver-side k×k matrix."""
    from pystreamfs_ray.sources import split_labels

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        X = _as_matrix(df[vec_col])
        labs = split_labels(df[id_col].to_numpy(), splits, salt=salt)
        uniq = np.unique(labs)
        return pd.DataFrame({
            "split": uniq,
            "n": [int((labs == u).sum()) for u in uniq],
            "vsum": [X[labs == u].sum(axis=0) for u in uniq],
        })

    from pystreamfs_ray.util import ensure_cols

    # Ray's to_pandas drops the schema of a 0-row dataset
    parts = ensure_cols(
        (ds.select_columns([id_col, vec_col])
         .map_batches(partial, batch_format="pandas").to_pandas()),
        {"split": object, "n": np.int64, "vsum": object})
    cent, cnt = {}, {}
    for s, g in parts.groupby("split"):
        n = int(g["n"].sum())
        cnt[s] = n
        cent[s] = np.sum(np.stack(g["vsum"].to_list()), axis=0) / n
    names = sorted(cent)
    rows = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            ca, cb = cent[a], cent[b]
            cos = float(ca @ cb
                        / (np.linalg.norm(ca) * np.linalg.norm(cb)))
            rows.append((a, b, cnt[a], cnt[b], round(cos, ndigits)))
    out = pd.DataFrame(rows,
                       columns=["split_a", "split_b", "n_a", "n_b", "cosine"])
    out["n_a"] = out["n_a"].astype(np.int64)
    out["n_b"] = out["n_b"].astype(np.int64)
    return out


def cluster_sizes(ds, centroid_ids, centroids, *, id_col: str = "vec_id",
                  vec_col: str = "embedding") -> pd.DataFrame:
    """Per-cluster count + mean distance (rounded) — the usual
    clustering summary; the only exchange is the k-row aggregate."""
    from ray.data.aggregate import Count, Mean

    assigned = kmeans_assign(ds, centroid_ids, centroids, id_col=id_col,
                             vec_col=vec_col, with_dist=True)
    out = (assigned.groupby("cid")
           .aggregate(Count(alias_name="n"), Mean("dist", alias_name="avg_dist"))
           .to_pandas().sort_values("cid", ignore_index=True))
    out["n"] = out["n"].astype(np.int64)
    out["avg_dist"] = np.round(out["avg_dist"].to_numpy(np.float64), 6)
    return out


def embedding_covariance(ds, *, vec_col: str = "embedding",
                         ndigits: int = 6) -> pd.DataFrame:
    """Population covariance matrix of the embedding column in long
    form ``(i, j, cov)`` (1-based dims) — the input to PCA / whitening
    over a corpus's embedding space. Combiner shape: each batch emits
    ONE row carrying (count, Σx vector, XᵀX matrix); the driver sums
    ``n_blocks`` of these d×d partials and finishes
    ``cov = XᵀX/n − μμᵀ``. Nothing row-level ever concentrates; the
    exchange is O(blocks · d²) floats, independent of corpus size."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        X = _as_matrix(df[vec_col])
        return pd.DataFrame({"n": [len(X)], "sx": [X.sum(axis=0)],
                             "xtx": [(X.T @ X).ravel()]})

    parts = ds.select_columns([vec_col]).map_batches(
        partial, batch_format="pandas").to_pandas()
    n = float(parts["n"].sum())
    sx = np.sum(np.stack(parts["sx"].to_list()), axis=0)
    xtx = np.sum(np.stack(parts["xtx"].to_list()), axis=0)
    d = len(sx)
    mu = sx / n
    cov = xtx.reshape(d, d) / n - np.outer(mu, mu)
    ii, jj = np.meshgrid(np.arange(1, d + 1), np.arange(1, d + 1),
                         indexing="ij")
    return pd.DataFrame({"i": ii.ravel().astype(np.int64),
                         "j": jj.ravel().astype(np.int64),
                         "cov": np.round(cov.ravel(), ndigits)})


def ncm_confusion(ds, *, label_col: str = "label",
                  vec_col: str = "embedding"):
    """Nearest-class-mean confusion matrix: fit per-label centroids
    (one combiner pass), assign every vector to its nearest centroid
    (broadcast, zero shuffles), and count (true, predicted) pairs —
    a complete distributed eval of the simplest embedding classifier.
    Centroids are the ROUNDED (6-digit) class means so the assignment
    is reproducible against a decimal oracle. Ties go to the smallest
    predicted label."""
    cent = label_centroids(ds, label_col=label_col, vec_col=vec_col)
    labels = np.sort(cent[label_col].unique())
    d = int(cent["dim"].max())
    C = np.zeros((len(labels), d))
    pos = {lab: i for i, lab in enumerate(labels)}
    C[[pos[l] for l in cent[label_col]], cent["dim"].to_numpy() - 1] = \
        cent["c"].to_numpy()
    ref = ray.put((np.asarray(labels, dtype=np.int64), C))

    def conf(df: pd.DataFrame) -> pd.DataFrame:
        labs, Cc = ray.get(ref)
        idx, _ = _assign_batch(_as_matrix(df[vec_col]), Cc)
        t = pd.DataFrame({
            label_col: df[label_col].to_numpy(np.int64),
            "pred": labs[idx],
        })
        out = t.groupby([label_col, "pred"], sort=False).size().reset_index(
            name="n")
        out["n"] = out["n"].astype(np.int64)
        return out

    from pystreamfs_ray.util import combine_sum

    return combine_sum(ds.select_columns([label_col, vec_col]), conf,
                       [label_col, "pred"], ["n"])


def pca_project(ds, *, k: int = 8, id_col: str = "vec_id",
                vec_col: str = "embedding", ndigits: int = 6):
    """Distributed PCA projection: fit the (d×d) covariance with the
    same one-row-per-batch (n, Σx, XᵀX) combiner as
    :func:`embedding_covariance`, eigendecompose on the driver (a d×d
    symmetric matrix — trivial at any corpus size), then broadcast the
    top-``k`` components and project every vector batch-locally
    (``(x−μ) @ W``). Output is long form ``(id, component, value)``.

    Determinism: eigenvector SIGN is fixed by the convention that each
    component's largest-|·| coordinate is positive (numpy's eigh sign
    is otherwise arbitrary), and components order by eigenvalue
    descending with index-ascending tie-break — the projection is then
    a pure function of the data. The eigendecomposition is pytest-gated
    against a local numpy reference; the driver additionally checks the
    distributed PROJECTION against a DuckDB oracle with independently
    re-derived components inlined as literals (__ray_entry__._pca_oracle)."""
    import ray

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        X = _as_matrix(df[vec_col])
        return pd.DataFrame({"n": [len(X)], "sx": [X.sum(axis=0)],
                             "xtx": [(X.T @ X).ravel()]})

    parts = ds.select_columns([vec_col]).map_batches(
        partial, batch_format="pandas").to_pandas()
    n = float(parts["n"].sum())
    sx = np.sum(np.stack(parts["sx"].to_list()), axis=0)
    xtx = np.sum(np.stack(parts["xtx"].to_list()), axis=0)
    d = len(sx)
    mu = sx / n
    cov = xtx.reshape(d, d) / n - np.outer(mu, mu)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(-evals, kind="stable")[:k]
    W = evecs[:, order]
    # sign convention: largest-|coordinate| of each component positive
    flip = np.sign(W[np.argmax(np.abs(W), axis=0), np.arange(W.shape[1])])
    flip[flip == 0] = 1.0
    W = W * flip
    ref = ray.put((mu, W))

    def project(df: pd.DataFrame) -> pd.DataFrame:
        mu, W = ray.get(ref)
        X = _as_matrix(df[vec_col])
        P = np.round((X - mu) @ W, ndigits)
        nk = W.shape[1]
        ids = np.repeat(df[id_col].to_numpy(), nk)
        comp = np.tile(np.arange(1, nk + 1, dtype=np.int64), len(df))
        return pd.DataFrame({id_col: ids, "component": comp,
                             "value": P.ravel()})

    return ds.select_columns([id_col, vec_col]).map_batches(
        project, batch_format="pandas")
