"""The selector fold's per-window work: the KNN neighbour order, the
EFS update, the cross-kernel eval cache, the Arrow-native bucket input
and the per-window memory probe. Each cheaper form is checked against
the plain computation it replaces."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pystreamfs_ray.kernels.efs import EFSKernel, row_minmax
from pystreamfs_ray.models import KNNClassifier


def _tie_fixture(rng, n):
    """4 binary columns and 1 ternary: 48 distinct points, so most
    distances tie with many others."""
    return np.column_stack([rng.integers(0, 2, (n, 4)),
                            rng.integers(0, 3, (n, 1))]).astype(np.float64)


def _stable_knn(X_train, y_train, X_test, k):
    """Brute force: the k first train rows of a stable argsort of the
    float32 distances, majority vote, ties to the smallest label."""
    Xf, Xt = X_train.astype(np.float32), X_test.astype(np.float32)
    d2 = np.einsum("ij,ij->i", Xf, Xf)[None, :] - 2.0 * (Xt @ Xf.T)
    votes = y_train[np.argsort(d2, axis=1, kind="stable")[:, :k]]
    counts = np.stack([(votes == c).sum(axis=1)
                       for c in range(int(y_train.max()) + 1)], axis=1)
    return np.argmax(counts, axis=1)


@pytest.mark.parametrize("chunk", [7, 100, 4096, 10**6])
def test_knn_ties_take_the_earlier_train_row(monkeypatch, chunk):
    rng = np.random.default_rng(0)
    X_train, X_test = _tie_fixture(rng, 9000), _tie_fixture(rng, 500)
    y_train = rng.integers(0, 3, 9000)
    monkeypatch.setattr(KNNClassifier, "_TRAIN_CHUNK", chunk)
    got = KNNClassifier(5).fit(X_train, y_train).predict(X_test)
    want = _stable_knn(X_train, y_train, X_test, 5)
    assert int((got != want).sum()) == 0


def _efs_per_row(state, X, Y, *, alpha=1.5, beta=0.5, threshold=1.0, M=1.0):
    """The EFS update one row at a time, as the reference writes it."""
    u, v = state
    for x, y in zip(X, Y):
        yy = -1.0 if y == 0 else 1.0
        xn = row_minmax(x)
        score = np.dot(xn, u) - np.dot(xn, v) - threshold
        if score * yy <= M:
            if yy > 0:
                u = u * alpha * (1.0 + xn)
                v = v * beta * (1.0 - xn)
            else:
                u = u * beta * (1.0 - xn)
                v = v * alpha * (1.0 + xn)
    return np.abs(u - v), (u, v)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def _run_both(windows, m, params=None, **kw):
    """Both updates over ``windows``; the states after each window."""
    kernel = EFSKernel()
    fast = slow = kernel.init_state(m, params or {})
    states = []
    for X, Y in windows:
        w1, fast = kernel.update(fast, X, Y, {}, **kw)
        w2, slow = _efs_per_row(slow, X, Y, **kw)
        assert _same_bits(w1, w2)
        assert _same_bits(fast[0], slow[0]) and _same_bits(fast[1], slow[1])
        states.append(fast)
    return states


def test_efs_random_windows_bit_equal():
    rng = np.random.default_rng(1)
    for scale in (1e-3, 1.0, 1e3):
        windows = [(rng.normal(size=(50, 14)) * scale, rng.integers(0, 2, 50))
                   for _ in range(60)]
        _run_both(windows, 14)


def test_efs_constant_zero_and_one_row_windows_bit_equal():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 6))
    X[::3] = 0.0  # all-zero rows
    X[1::3] = 7.5  # constant rows
    Y = rng.integers(0, 2, 40)
    _run_both([(X, Y)] + [(X[i:i + 1], Y[i:i + 1]) for i in range(40)], 6)


def test_efs_margin_exactly_at_M_bit_equal():
    # xn = (0, 1) after min-max; u - v = (0, 2); threshold 1 → score 1,
    # which is a mistake (<= M) for y = 1 and not one for y = 0
    X = np.array([[0.0, 1.0]] * 6)
    params = {"u": np.array([1.0, 3.0]), "v": np.array([1.0, 1.0])}
    for y in (0, 1):
        Y = np.full(6, y)
        _run_both([(X[:1], Y[:1])], 2, params)
        _run_both([(X, Y)], 2, params, M=1.0)
    # margins of exactly M after a promote: a row pair that lands on it
    X = np.array([[0.0, 1.0], [0.0, 0.5], [1.0, 0.0]])
    _run_both([(X, np.array([1, 1, 0]))], 2, params, threshold=0.0, M=0.0)


def test_efs_overflow_stream_bit_equal():
    # with M = inf every row is a mistake until u overflows to inf; from
    # then on 0 * inf makes every margin nan, so no row is a mistake
    rng = np.random.default_rng(3)
    windows = [(rng.random((50, 8)), np.full(50, y, dtype=np.int64))
               for y in [1] * 60 + [0] * 10]
    states = _run_both(windows, 8, M=np.inf)
    assert np.isinf(states[59][0]).any()
    assert _same_bits(states[-1][0], states[59][0])


def _bucket(seed=5, n_convs=6):
    """One selector bucket as a pyarrow table, rows in shuffled order."""
    from pystreamfs_ray.stages.featurize import featurize_batch
    from pystreamfs_ray.synth import generate_transcripts

    t = featurize_batch(generate_transcripts(n_convs, seed=seed, mega_convs=1,
                                             mega_turns=400))
    perm = np.random.default_rng(seed).permutation(t.num_rows)
    t = t.take(pa.array(perm))
    return t.append_column("__bucket", pa.array(np.zeros(t.num_rows, np.int64)))


def _selector(kernel, **kw):
    from pystreamfs_ray.stages.selector import BucketSelector

    return BucketSelector(kernel=kernel, batch_size=20, num_features=4,
                          evaluate="knn", max_history=200, **kw)


def test_shared_set_gets_every_kernel_the_same_acc(monkeypatch):
    """Three kernels in one pass evaluate a shared set once; each must
    still get the acc a run of that kernel alone gets."""
    group = _bucket()
    calls = []
    predict = KNNClassifier.predict
    monkeypatch.setattr(KNNClassifier, "predict",
                        lambda self, X: calls.append(1) or predict(self, X))
    kernels = ["ofs", "efs", "fsds"]
    both = _selector(kernels)(group).to_pandas()
    shared_calls = len(calls)
    key = ["conv_id", "window_id"]
    for k in kernels:
        alone = _selector(k)(group).to_pandas()
        mine = both[both["kernel"] == k].reset_index(drop=True)
        assert mine[key].equals(alone[key])
        assert np.array_equal(mine["acc"].to_numpy(), alone["acc"].to_numpy())
    sets = both["selected"].map(lambda s: tuple(sorted(s)))
    distinct = len(set(zip(both["conv_id"], both["window_id"], sets)))
    assert shared_calls == distinct < len(both)


def test_bucket_output_matches_per_row_construction():
    """The Arrow-native read and the flat list columns give the table the
    plain per-row construction gives."""
    from pystreamfs_ray.kernels.base import top_m_features
    from pystreamfs_ray.schema import SELECTOR_OUTPUT_SCHEMA
    from pystreamfs_ray.stages.window import add_lag_delta

    group = _bucket()
    out = _selector(["ofs", "efs"])(group)
    assert out.schema.equals(SELECTOR_OUTPUT_SCHEMA)
    rebuilt = pa.table(
        {c: out[c] for c in out.column_names if c not in ("w", "selected")}
        | {"w": pa.array(out["w"].to_pylist(), pa.list_(pa.float64())),
           "selected": pa.array(out["selected"].to_pylist(),
                                pa.list_(pa.int32()))},
        schema=SELECTOR_OUTPUT_SCHEMA)
    assert out.equals(rebuilt)
    for w, s in zip(out["w"].to_pylist(), out["selected"].to_pylist()):
        assert np.array_equal(top_m_features(np.array(w), 4), s)

    # f_ts_delta_s from the Arrow read equals the pandas lag helper
    sel = _selector("ofs")
    df = group.to_pandas().sort_values(["conv_id", "turn_idx"],
                                       kind="mergesort", ignore_index=True)
    want = add_lag_delta(df)["f_ts_delta_s"].to_numpy()
    assert "f_ts_delta_s" not in group.column_names
    _, X_all, _, _ = sel._read_bucket(group)
    got = X_all[:, sel.feature_cols.index("f_ts_delta_s")]
    assert np.array_equal(got, want)


def test_lag_delta_null_timestamps_match_pandas():
    from pystreamfs_ray.stages.window import add_lag_delta, lag_delta_seconds

    ts = pa.array([1_000_000, None, 3_500_000, 4_000_001, 10, 20],
                  pa.timestamp("us"))
    conv = np.array(["a", "a", "a", "a", "b", "b"], dtype=object)
    df = pd.DataFrame({"conv_id": conv, "ts": ts.to_pandas()})
    want = add_lag_delta(df)["f_ts_delta_s"].to_numpy()
    got = lag_delta_seconds(conv, ts.to_numpy(zero_copy_only=False))
    assert np.array_equal(got, want)


def test_streaming_history_is_float32(tmp_path):
    from pystreamfs_ray.state.checkpoint import read_bucket_state

    group = _bucket()
    _selector(["ofs"], streaming=True, flush=False,
              checkpoint_dir=str(tmp_path))(group)
    states = read_bucket_state(str(tmp_path), 0)
    assert states
    assert all(s["hist_X"].dtype == np.float32 for s in states.values())


def test_rss_probe_follows_fork():
    from pystreamfs_ray.util import rss_bytes

    page = os.sysconf("SC_PAGE_SIZE")

    def statm():
        with open("/proc/self/statm", "rb") as f:
            return int(f.read().split()[1]) * page

    assert abs(rss_bytes() - statm()) < 1 << 22
    pid = os.fork()
    if pid == 0:
        # the child must read its own statm, not the inherited fd's
        # owner's: grow the child only and compare
        ok = False
        try:
            grow = bytearray(64 << 20)
            grow[::page] = b"\x01" * len(grow[::page])
            ok = abs(rss_bytes() - statm()) < 1 << 22
        finally:
            os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
