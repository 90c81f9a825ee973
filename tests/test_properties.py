"""Property-based invariants (hypothesis) for window ops and kernels —
no Ray needed; complements the example-based and oracle tests."""

import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from pystreamfs_ray.kernels import get_kernel
from pystreamfs_ray.kernels.base import fscr, top_m_features
from pystreamfs_ray.kernels.mutual_info import digamma, mutual_info_classif
from pystreamfs_ray.stages import window as W


def _entity_frame(n_entities, rows_per_entity, seed):
    rng = np.random.default_rng(seed)
    frames = []
    base = pd.Timestamp("2024-01-01")
    for k in range(n_entities):
        n = rows_per_entity[k % len(rows_per_entity)]
        gaps = rng.integers(1, 4000, size=n)
        frames.append(pd.DataFrame({
            "conv_id": f"c{k}",
            "turn_idx": np.arange(n, dtype=np.int32),
            "ts": base + pd.to_timedelta(np.cumsum(gaps), unit="s"),
            "value": rng.normal(size=n),
        }))
    df = pd.concat(frames, ignore_index=True)
    return df.iloc[rng.permutation(len(df))].reset_index(drop=True)


@given(st.integers(1, 6), st.lists(st.integers(1, 40), min_size=1, max_size=4),
       st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_sessionize_and_lag_invariants(n_entities, rows_per_entity, seed):
    df = W.sort_entity(_entity_frame(n_entities, rows_per_entity, seed))
    df = W.add_lag_delta(df)
    df = W.sessionize(df, gap_s=1800)
    g = df.groupby("conv_id")
    # lag: first row 0, others strictly positive (ts strictly increasing)
    assert (g["f_ts_delta_s"].first() == 0.0).all()
    assert (g["f_ts_delta_s"].apply(lambda s: (s.iloc[1:] > 0).all())).all()
    # sessions: ids start at 0, non-decreasing, +1 only across >gap_s
    for _, grp in g:
        sid = grp["session_id"].to_numpy()
        assert sid[0] == 0
        d = np.diff(sid)
        assert ((d == 0) | (d == 1)).all()
        gaps = grp["f_ts_delta_s"].to_numpy()[1:]
        np.testing.assert_array_equal(d == 1, gaps > 1800)


@given(st.integers(1, 50), st.integers(1, 12), st.integers(1, 12),
       st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_sliding_window_membership(n_rows, size, stride, seed):
    df = pd.DataFrame({"conv_id": "c0", "turn_idx": np.arange(n_rows, dtype=np.int64)})
    out = W.assign_sliding(df, size=size, stride=stride, seq_col="turn_idx")
    # every (row, window) pair is valid and complete
    r = out["turn_idx"].to_numpy()
    s = out["window_start"].to_numpy()
    assert ((r >= s) & (r < s + size) & (s % stride == 0) & (s >= 0)).all()
    # exhaustive: every valid pair is present exactly once
    expect = {(row, w * stride) for row in range(n_rows)
              for w in range(0, row // stride + 1)
              if w * stride + size > row}
    assert set(zip(r, s)) == expect
    assert len(out) == len(expect)


@given(st.integers(2, 30), st.integers(1, 8), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_ofs_truncation_sparsity(n_rows, num_features, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_rows, 10))
    Y = rng.integers(0, 2, size=n_rows)
    k = get_kernel("ofs")
    w, _ = k.update(k.init_state(10, {}), X, Y, num_features=num_features)
    assert np.count_nonzero(w) <= max(num_features, 10 if num_features >= 10 else num_features)
    assert np.all(np.isfinite(w))


@given(st.integers(2, 30), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_efs_weights_nonnegative(n_rows, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_rows, 7))
    Y = rng.integers(0, 2, size=n_rows)
    k = get_kernel("efs")
    w, (u, v) = k.update(k.init_state(7, {}), X, Y)
    assert (w >= 0).all() and np.isfinite(w).all()
    # multiplicative updates stay non-negative; exactly 0 is reachable
    # (reference: v_j *= beta*(1-x_j) with x_j = 1 → absorbing zero)
    assert (u >= 0).all() and (v >= 0).all()


@given(st.integers(5, 60), st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_mcnn_bounded_buffers(n_rows, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_rows, 4))
    Y = rng.integers(0, 2, size=n_rows)
    k = get_kernel("mcnn")
    state = k.init_state(4, {})
    w, state = k.update(state, X, Y, max_n=8, e_threshold=2)
    for c in state["clusters"].values():
        assert c.n <= 8 and c.instances.shape[0] == c.n
        assert np.isfinite(c.centroid).all()
    assert (w >= 0).all()


@given(st.integers(1, 200))
@settings(max_examples=50, deadline=None)
def test_digamma_recurrence(n):
    # psi(x+1) = psi(x) + 1/x
    a = digamma(np.array([n + 1.0]))[0]
    b = digamma(np.array([float(n)]))[0] + 1.0 / n
    assert abs(a - b) < 1e-10


@given(st.integers(10, 80), st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_mutual_info_properties(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, 2, size=n)
    mi = mutual_info_classif(X, y, random_state=0)
    assert mi.shape == (3,)
    assert (mi >= 0).all()  # clipped at zero, as sklearn
    # deterministic for fixed random_state
    np.testing.assert_array_equal(mi, mutual_info_classif(X, y, random_state=0))


@given(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True),
       st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True))
@settings(max_examples=50, deadline=None)
def test_fscr_bounds(prev, cur):
    n = max(len(prev), len(cur))
    v = fscr(prev, cur, n)
    assert 0.0 <= v <= 1.0
    assert fscr(prev, prev, n) == 0.0


@given(st.integers(1, 14), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_top_m_is_argmax_set(m, seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=14)
    sel = top_m_features(w, m)
    assert len(sel) == m
    thresh = np.sort(np.abs(w))[-m]
    assert (np.abs(w[sel]) >= thresh).all()


@given(st.integers(1, 4), st.integers(2, 60), st.integers(1, 3600),
       st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_rolling_time_sum_vs_bruteforce(n_ents, n_rows, window_s, seed):
    """Time-RANGE rolling sum equals the O(n²) definition on random
    entity streams with duplicate timestamps."""
    rng = np.random.default_rng(seed)
    base = np.datetime64("2024-01-01", "s")
    ent = rng.integers(0, n_ents, size=n_rows)
    # coarse offsets force ts duplicates (peer semantics)
    off = rng.integers(0, max(2, window_s * 2), size=n_rows)
    df = pd.DataFrame({
        "conv_id": [f"e{i}" for i in ent],
        "ts": base + off.astype("timedelta64[s]"),
        "v": rng.integers(-5, 10, size=n_rows).astype(np.int64),
    })
    out = W.rolling_time_sum(df.copy(), "v", float(window_s), ts_col="ts")
    for _, row in out.iterrows():
        m = (out["conv_id"] == row["conv_id"]) & \
            (out["ts"] >= row["ts"] - pd.Timedelta(seconds=window_s)) & \
            (out["ts"] <= row["ts"])
        assert row["v_tsum"] == out.loc[m, "v"].sum()


@given(st.integers(1, 3), st.integers(2, 40), st.integers(1, 1800),
       st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_interval_join_vs_bruteforce(n_ents, n_rows, window_s, seed):
    """Interval join pair set equals the O(n²) definition (strictly
    before, same entity) on random streams with duplicate timestamps."""
    rng = np.random.default_rng(seed)
    base = np.datetime64("2024-01-01", "s")
    df = pd.DataFrame({
        "conv_id": [f"e{i}" for i in rng.integers(0, n_ents, size=n_rows)],
        "ts": base + rng.integers(0, max(2, window_s * 2), size=n_rows).astype("timedelta64[s]"),
        "eid": np.arange(n_rows, dtype=np.int64),
        "is_l": rng.random(n_rows) < 0.4,
    })
    out = W.interval_join_pairs(df.copy(), left_mask_col="is_l",
                                window_s=float(window_s), ts_col="ts")
    got = set(zip(out["eid_l"], out["eid_r"]))
    want = set()
    for _, l in df[df["is_l"]].iterrows():
        m = df[(df["conv_id"] == l["conv_id"])
               & (df["ts"] >= l["ts"] - pd.Timedelta(seconds=window_s))
               & (df["ts"] < l["ts"])]
        want |= {(l["eid"], r) for r in m["eid"]}
    assert got == want


@given(st.integers(1, 40), st.floats(1.0, 50.0), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_temperature_rates_properties(n_sources, temperature, seed):
    """Rates preserve the weight ORDER, cap at base_rate, and flatten
    monotonically toward base_rate as T grows."""
    from pystreamfs_ray.sources import temperature_rates

    rng = np.random.default_rng(seed)
    weights = {f"s{i}": float(w) for i, w in
               enumerate(rng.uniform(0.01, 10.0, size=n_sources))}
    r = temperature_rates(weights, temperature=temperature)
    assert max(r.values()) == 1.0
    # order preserved: heavier source never gets a lower rate
    ks = sorted(weights, key=weights.get)
    rates_sorted = [r[k] for k in ks]
    assert all(a <= b + 1e-12 for a, b in zip(rates_sorted, rates_sorted[1:]))
    # flattening: T' = 2T moves every rate toward 1
    r2 = temperature_rates(weights, temperature=2 * temperature)
    assert all(r2[k] >= r[k] - 1e-12 for k in weights)


@given(st.integers(1, 5), st.integers(1, 30), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_rrf_list_order_invariance(n_lists, n_ids, seed):
    """RRF output is invariant to the ORDER the ranked lists are given
    in (the sum is commutative; ties break on id)."""
    from pystreamfs_ray.stages.index import rrf_fuse

    rng = np.random.default_rng(seed)
    lists = []
    for _ in range(n_lists):
        ids = rng.choice(np.arange(n_ids, dtype=np.int64),
                         size=rng.integers(1, n_ids + 1), replace=False)
        lists.append(pd.DataFrame({
            "doc_id": ids,
            "rank": np.arange(1, len(ids) + 1, dtype=np.int64)}))
    a = rrf_fuse(lists, topk=n_ids)
    b = rrf_fuse(lists[::-1], topk=n_ids)
    pd.testing.assert_frame_equal(a, b)


@given(st.integers(2, 64), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_quantile_bounds_properties(num_partitions, seed):
    """Boundaries are sorted, deduped, interior (within the sample
    range), and at most num_partitions-1 of them."""
    from pystreamfs_ray.util import quantile_bounds

    rng = np.random.default_rng(seed)
    vals = np.sort(rng.normal(size=rng.integers(1, 500)))
    b = quantile_bounds(vals, num_partitions)
    assert len(b) <= num_partitions - 1
    assert (np.diff(b) > 0).all()
    if len(b):
        assert b.min() >= vals.min() and b.max() <= vals.max()


@given(st.lists(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=5),
                         min_size=0, max_size=30),
                min_size=1, max_size=8),
       st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_linear_scorer_invariants(docs_tokens, dup_factor):
    """The hashed-BoW logistic score is (0,1)-bounded, order-invariant
    within a doc (bag semantics), invariant under duplicating the whole
    token multiset (mean logit), and exactly 0.5 for empty docs."""
    from pystreamfs_ray.stages.textstats import LinearScorer

    sc = LinearScorer()
    texts = [" ".join(t) for t in docs_tokens]
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                       "text": texts})
    out = sc(df)
    assert ((out["score"] > 0) & (out["score"] < 1)).all()
    assert (out.loc[out["n_tokens"] == 0, "score"] == 0.5).all()

    rng = np.random.default_rng(7)
    shuf = [" ".join(rng.permutation(np.asarray(t, dtype=object)))
            if t else "" for t in docs_tokens]
    out_shuf = sc(pd.DataFrame({"doc_id": df["doc_id"], "text": shuf}))
    assert np.array_equal(out["score"].to_numpy(), out_shuf["score"].to_numpy())

    dup = [" ".join(t * dup_factor) for t in docs_tokens]
    out_dup = sc(pd.DataFrame({"doc_id": df["doc_id"], "text": dup}))
    # mean logit is invariant under multiset duplication → same score
    # up to the 6-digit rounding both outputs share
    assert np.allclose(out["score"], out_dup["score"], atol=2e-6)


@given(st.lists(st.text(min_size=0, max_size=24), min_size=1, max_size=12))
@settings(max_examples=15, deadline=None)
def test_md5_hex_identity_matches_duckdb(strings):
    """The fingerprint index's content identity is bit-identical to
    DuckDB's md5() over arbitrary unicode — the property the
    q_incremental_dedup oracle relies on."""
    import duckdb

    from pystreamfs_ray.stages.dedup import _md5_hex

    got = _md5_hex(np.array(strings, dtype=object))
    con = duckdb.connect()
    want = [con.execute("SELECT md5(?)", [s]).fetchone()[0]
            for s in strings]
    assert list(got) == want


@given(st.integers(2, 48), st.integers(1, 64), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_int8_quantization_error_bound(d, n, seed):
    """Pure-kernel property: for ANY vectors, the int8 approximate
    cosine deviates from the exact normalized dot by at most
    ||q||_1 * s / 2 per corpus vector (each component errs <= s/2),
    and every code is within [-127, 127] with scale > 0."""
    from pystreamfs_ray.stages.similarity import _normalize, quantize_matrix

    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(n, d)) * rng.lognormal(0, 2, size=(n, 1))
    q8, s = quantize_matrix(mat)
    assert q8.shape == (n, d) and s.shape == (n,)
    assert (np.abs(q8) <= 127).all() and (s > 0).all()

    norm = _normalize(np.asarray(mat, dtype=np.float64))
    q = norm[0]
    approx = (q8 @ q) * s
    exact = norm @ q
    bound = np.abs(q).sum() * s / 2 + 1e-9
    assert (np.abs(approx - exact) <= bound).all()


def _fsds_update_unpatched(state, X, k):
    """The FSDS update as it was before short windows were handled;
    windows with at least k rows must still match it bit for bit."""
    ell = state["ell"]
    Yt = np.ascontiguousarray(X.T)
    if state["B"] is None:
        C = np.hstack((Yt[:, :ell], Yt[:, ell:]))
    else:
        C = np.hstack((state["B"], Yt))
    U, s, _ = np.linalg.svd(C, full_matrices=False)
    U, s = U[:, :ell], s[:ell]
    with np.errstate(invalid="ignore"):
        s = np.nan_to_num(np.sqrt(s**2 - s[-1] ** 2))
    alpha = (2**3) * s[k - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        D = np.nan_to_num(np.diag(s[:k] / (s[:k] ** 2 + alpha)))
    w = np.amax(np.abs(np.dot(U[:, :k], D)), axis=1)
    return w, {"B": np.dot(U, np.diag(s)), "ell": ell}


@given(st.integers(1, 3), st.integers(1, 8), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_fsds_short_first_window(k, n_first, seed):
    """An entity whose first window has fewer than k rows has fewer than
    k singular values: the missing ones count as 0 and the stream goes
    on with finite weights. Windows of k or more rows are unchanged."""
    kern = get_kernel("fsds")
    X = np.random.default_rng(seed).normal(size=(n_first + 30, 10))
    state = kern.init_state(10, {})
    for lo, hi in ((0, n_first), (n_first, n_first + 30)):
        prior = state
        w, state = kern.update(state, X[lo:hi], None, k=k)
        assert w.shape == (10,) and np.isfinite(w).all()
        if hi - lo >= k:
            w_ref, ref = _fsds_update_unpatched(prior, X[lo:hi], k)
            assert np.array_equal(w, w_ref)
            assert np.array_equal(state["B"], ref["B"])


@given(st.integers(2, 24), st.integers(0, 6), st.integers(1, 6),
       st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_fsds_frequent_directions_error_bound(m, ell, n_windows, seed):
    """The Frequent Directions guarantee ("Optimal Matrix Sketching over
    Sliding Windows", VLDB 2024): with Y every window's rows stacked,
    features as rows (m × N), and B the final m × ell sketch,
    ‖YYᵀ − BBᵀ‖₂ ≤ ‖Y‖²_F / ell. Each update shrinks by its ell-th
    σ² = δ and loses at least ell·δ of squared Frobenius mass, so the
    δ's sum to at most ‖Y‖²_F / ell. Windows hold ≥ ell rows."""
    kern = get_kernel("fsds")
    rng = np.random.default_rng(seed)
    state = kern.init_state(m, {"ell": min(ell, m)})  # 0 → ⌊√m⌋
    ell = state["ell"]
    # columns of very different scale, so a few directions dominate
    scale = rng.lognormal(0.0, 1.5, size=m)
    windows = [rng.normal(size=(int(rng.integers(ell, 3 * ell + 5)), m)) * scale
               for _ in range(n_windows)]
    for X in windows:
        _, state = kern.update(state, X, None, k=1)
    Y = np.vstack(windows).T
    B = state["B"]
    assert B.shape == (m, ell)
    err = np.linalg.norm(Y @ Y.T - B @ B.T, ord=2)
    assert err <= np.linalg.norm(Y, "fro") ** 2 / ell * (1 + 1e-9)


def test_fsds_error_bound_on_late_direction():
    """A stream on which a sketch that only truncates (no shrink) breaks
    the bound: one heavy window in e1, e2, then 30 light windows in e3.
    Truncation keeps e1, e2 and drops every e3 row (error 30 > 50 / 2);
    the shrink empties the sketch after the first window and keeps e3."""
    kern = get_kernel("fsds")
    state = kern.init_state(3, {"ell": 2})
    heavy = np.sqrt(10.0) * np.array([[1.0, 0, 0], [0, 1, 0]])
    light = np.array([[0, 0, 1.0], [0, 0, 0]])   # windows hold >= ell rows
    windows = [heavy] + [light] * 30
    for X in windows:
        _, state = kern.update(state, X, None, k=1)
    Y, B = np.vstack(windows).T, state["B"]
    err = np.linalg.norm(Y @ Y.T - B @ B.T, ord=2)
    assert np.isclose(err, 10.0)
    assert err <= np.linalg.norm(Y, "fro") ** 2 / 2
