"""Ray-stage tests: featurizer, windowing ops, selector-vs-oracle,
as-of join leakage, checkpoint/resume."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import pystreamfs_ray.synth as synth
from pystreamfs_ray.oracle import run_stream
from pystreamfs_ray.schema import FEATURE_COLS, STATELESS_FEATURE_COLS
from pystreamfs_ray.stages.featurize import featurize, featurize_batch
from pystreamfs_ray.stages import window as W


def _read_all(dirpath) -> pa.Table:
    import glob

    return pa.concat_tables(
        [pq.read_table(p) for p in sorted(glob.glob(f"{dirpath}/*.parquet"))]
    )


def test_featurize_batch_no_ray():
    t = synth.generate_transcripts(5, seed=3, mega_convs=0)
    out = featurize_batch(t)
    assert set(STATELESS_FEATURE_COLS + ["label"]).issubset(out.column_names)
    df = out.to_pandas()
    # hand-check one row
    row = df.iloc[0]
    assert row["f_text_chars"] == len(row["text"])
    assert row["f_text_words"] == len(row["text"].split())
    toks = row["text"].split()
    assert np.isclose(row["f_text_avg_word_len"], sum(len(w) for w in toks) / len(toks))
    onehots = df[[c for c in STATELESS_FEATURE_COLS if c.startswith("f_role_")]].sum(axis=1)
    assert (onehots == 1.0).all()
    lbl = ((df["role"] == "assistant") & (df["tool"] != "")).astype(int)
    assert (df["label"] == lbl).all()


def test_window_ops_no_ray():
    t = synth.generate_transcripts(6, seed=5, mega_convs=0).to_pandas()
    df = W.sort_entity(t)
    df = W.add_lag_delta(df)
    # first turn of each conv backfilled to 0.0; others positive
    firsts = df.groupby("conv_id").head(1)
    assert (firsts["f_ts_delta_s"] == 0.0).all()
    assert (df.groupby("conv_id").tail(-1)["f_ts_delta_s"] > 0).all()

    df = W.assign_tumbling(df, 10)
    g = df[df.conv_id == df.conv_id.iloc[0]]
    assert (g["window_id"].to_numpy() == np.arange(len(g)) // 10).all()

    df = W.add_lag_lead(df, "turn_idx", lag=1, lead=1)
    g = df[df.conv_id == df.conv_id.iloc[0]]
    assert np.isnan(g["turn_idx_lag1"].iloc[0])
    assert g["turn_idx_lag1"].iloc[1] == g["turn_idx"].iloc[0]
    assert g["turn_idx_lead1"].iloc[0] == g["turn_idx"].iloc[1]

    df["maybe"] = df["f_ts_delta_s"].where(df["turn_idx"] % 3 == 0)
    df = W.backfill(df, "maybe")
    g = df[df.conv_id == df.conv_id.iloc[0]]
    assert g["maybe_ffill"].iloc[1] == g["maybe"].iloc[0]  # carried forward

    df = W.sessionize(df, gap_s=600)
    assert (df.groupby("conv_id")["session_id"].first() == 0).all()
    df = W.rolling_mean(df, "f_ts_delta_s", 5)
    df = W.welford_running(df, "f_ts_delta_s")
    g = df[df.conv_id == df.conv_id.iloc[0]]
    x = g["f_ts_delta_s"].to_numpy()
    assert np.isclose(g["f_ts_delta_s_runmean"].iloc[-1], x.mean())
    assert np.isclose(g["f_ts_delta_s_runvar"].iloc[-1], x.var())


@pytest.mark.parametrize("kernel", ["ofs", "efs", "fsds", "mcnn", "cancelout"])
def test_selector_matches_oracle(ray_session, synth_dirs, kernel):
    """Engine output == sequential oracle per entity×window (allclose w,
    set-equal selected, exact fscr) on shuffled multi-file input."""
    import ray.data as rd

    from pystreamfs_ray.pipelines.flagship import feature_windows

    bs = 20
    ds = rd.read_parquet(synth_dirs["transcripts"])
    out = feature_windows(
        ds, kernel=kernel, batch_size=bs, num_features=5, num_buckets=8
    ).to_pandas()

    # oracle: per entity on the sorted full table
    t = _read_all(synth_dirs["transcripts"])
    df = W.sort_entity(featurize_batch(t).to_pandas())
    df = W.add_lag_delta(df)
    n_checked = 0
    for cid, g in df.groupby("conv_id"):
        X = g[FEATURE_COLS].to_numpy(dtype=np.float64)
        Y = g["label"].to_numpy()
        oracle = run_stream(X, Y, kernel, batch_size=bs, num_features=5, conv_id=cid)
        mine = out[out.conv_id == cid].sort_values("window_id")
        assert len(mine) == len(oracle)
        for _, row in mine.iterrows():
            o = oracle[int(row["window_id"])]
            np.testing.assert_allclose(np.array(row["w"]), o["w"], rtol=1e-9, atol=1e-12)
            assert set(row["selected"]) == set(o["selected"])
            if o["fscr"] is None:
                assert pd.isna(row["fscr"])
            else:
                assert row["fscr"] == o["fscr"]
        n_checked += 1
        if kernel in ("mcnn", "cancelout") and n_checked >= 4:
            break  # slow kernels: spot-check a few entities


def test_selector_text_order_invariance(ray_session, synth_dirs):
    """Per-turn text equality under stable turn ordering: sessionized
    rows reproduce the generator's per-entity text sequence exactly."""
    import ray.data as rd

    ds = rd.read_parquet(synth_dirs["transcripts"])
    got = W.per_bucket(ds, lambda g: W.sort_entity(g), num_buckets=8).to_pandas()
    got = got.sort_values(["conv_id", "turn_idx"], ignore_index=True)
    want = W.sort_entity(_read_all(synth_dirs["transcripts"]).to_pandas())
    assert (got["text"].to_numpy() == want["text"].to_numpy()).all()
    assert (got["turn_idx"].to_numpy() == want["turn_idx"].to_numpy()).all()


def test_selector_evaluation(ray_session, synth_dirs):
    import ray.data as rd

    from pystreamfs_ray.pipelines.flagship import feature_windows

    ds = rd.read_parquet(synth_dirs["transcripts"])
    out = feature_windows(
        ds, kernel="ofs", batch_size=20, num_features=5, num_buckets=8, evaluate="knn"
    ).to_pandas()
    assert out["acc"].notna().all()
    assert ((out["acc"] >= 0) & (out["acc"] <= 1)).all()


def test_asof_join_leakage_and_duckdb(ray_session, synth_dirs, broadcast_paths):
    import duckdb
    import ray.data as rd

    from pystreamfs_ray.stages.asof import asof_join

    con = duckdb.connect()
    want = con.execute(
        f"""
        SELECT l.conv_id, l.ts, l.label, t.turn_idx, t.ts AS ts_matched
        FROM read_parquet('{synth_dirs["labels"]}/*.parquet') l
        ASOF JOIN read_parquet('{synth_dirs["transcripts"]}/*.parquet') t
          ON l.conv_id = t.conv_id AND l.ts >= t.ts
        """
    ).df()
    b = want.sort_values(["conv_id", "ts", "label"], ignore_index=True)
    n_labels = _read_all(synth_dirs["labels"]).num_rows
    for path in broadcast_paths():
        labels = rd.read_parquet(synth_dirs["labels"])
        trans = rd.read_parquet(synth_dirs["transcripts"]).select_columns(
            ["conv_id", "turn_idx", "ts"]
        )
        joined = asof_join(
            labels, trans, by="conv_id", left_on="ts", right_on="ts",
            how="inner", num_buckets=8,
        ).to_pandas()

        # zero-leakage property: matched feature ts <= label ts, always
        assert (joined["ts_matched"] <= joined["ts"]).all(), path

        a = joined[["conv_id", "ts", "label", "turn_idx", "ts_matched"]].sort_values(
            ["conv_id", "ts", "label"], ignore_index=True
        )
        assert len(a) == len(b), path
        assert (a["turn_idx"].to_numpy() == b["turn_idx"].to_numpy()).all(), path
        assert (a["ts_matched"].to_numpy() == b["ts_matched"].to_numpy()).all(), path
        # the no-match probe (label before first turn) must be dropped by inner
        assert len(a) < n_labels, path


def test_checkpoint_resume(ray_session, synth_dirs, tmp_path, monkeypatch):
    import ray.data as rd

    from pystreamfs_ray.pipelines.flagship import feature_windows
    from pystreamfs_ray.state.checkpoint import (
        completed_buckets,
        lineage_summary,
        resume_selector,
        selector_lineage,
    )
    from pystreamfs_ray.stages.featurize import featurize
    from pystreamfs_ray.util import params_fingerprint

    ckpt = str(tmp_path / "ckpt")
    ds = rd.read_parquet(synth_dirs["transcripts"])
    full = feature_windows(
        ds, kernel="ofs", batch_size=20, num_buckets=8,
        checkpoint_dir=ckpt, fingerprint="fixture-v1",
    ).to_pandas()

    params_fp = params_fingerprint({"num_features": 5})
    lineage = dict(kernel="ofs", params_fp=params_fp, num_buckets=8,
                   batch_size=20)
    done = completed_buckets(
        ckpt, selector_lineage(input_fp="fixture-v1", **lineage))
    assert len(done) > 0
    mani = lineage_summary(ckpt)
    assert all(m["rows_per_sec"] > 0 for m in mani)

    # simulate partial failure: drop some buckets, resume, expect equality
    import shutil, os

    victims = sorted(done)[: len(done) // 2]
    for b in victims:
        shutil.rmtree(os.path.join(ckpt, f"bucket={b}"))

    # the selector input that skips the done buckets, kept for a look
    import pystreamfs_ray.stages.selector as selector_mod

    pending, run_selector = [], selector_mod.run_selector
    monkeypatch.setattr(selector_mod, "run_selector",
                        lambda ds, **kw: run_selector(pending.append(ds) or ds, **kw))
    feats = featurize(rd.read_parquet(synth_dirs["transcripts"]))
    resumed = resume_selector(
        feats, checkpoint_dir=ckpt, kernel="ofs", kernel_params=None,
        fingerprint="fixture-v1", num_buckets=8, batch_size=20,
    ).to_pandas()
    # Arrow blocks without pandas schema metadata go into the exchange
    import ray

    (pending,) = pending
    blocks = ray.get(pending.to_arrow_refs())
    assert sum(b.num_rows for b in blocks) > 0
    assert all(b"pandas" not in (b.schema.metadata or {}) for b in blocks)

    key = ["conv_id", "window_id"]
    assert list(resumed.columns) == list(full.columns)
    a = full.sort_values(key, ignore_index=True)
    b = resumed.sort_values(key, ignore_index=True)
    assert len(a) == len(b)
    assert (a["conv_id"] == b["conv_id"]).all()
    for x, y in zip(a["w"], b["w"]):
        np.testing.assert_array_equal(np.array(x), np.array(y))
    # wrong lineage is not trusted
    assert completed_buckets(
        ckpt, selector_lineage(input_fp="other", **lineage)) == {}


@pytest.mark.parametrize("first,second", [
    (dict(num_buckets=4, batch_size=20), dict(num_buckets=8, batch_size=20)),
    (dict(num_buckets=4, batch_size=20), dict(num_buckets=4, batch_size=30)),
], ids=["buckets_4_to_8", "batch_20_to_30"])
def test_resume_over_changed_bucketing_equals_fresh_run(
        ray_session, synth_dirs, tmp_path, first, second):
    """A resume whose bucket count or window size differs from the
    checkpointed run's trusts no bucket: it recomputes, and equals a
    fresh run (it used to union stale or mis-bucketed windows in)."""
    from pystreamfs_ray.pipelines.flagship import feature_windows
    from pystreamfs_ray.sources import read_parquet
    from pystreamfs_ray.stages.featurize import featurize
    from pystreamfs_ray.state.checkpoint import lineage_summary, resume_selector

    src = synth_dirs["transcripts"]
    ckpt = str(tmp_path / "ckpt")
    feature_windows(read_parquet(src), kernel="ofs", checkpoint_dir=ckpt,
                    fingerprint="fp", **first).materialize()
    resumed = resume_selector(
        featurize(read_parquet(src)), checkpoint_dir=ckpt, kernel="ofs",
        kernel_params=None, fingerprint="fp", **second).to_pandas()
    fresh = feature_windows(read_parquet(src), kernel="ofs",
                            **second).to_pandas()

    assert {(m["num_buckets"], m["batch_size"]) for m in lineage_summary(ckpt)
            if m["bucket_id"] < second["num_buckets"]} == {
        (second["num_buckets"], second["batch_size"])}
    key = ["kernel", "conv_id", "window_id"]
    assert not resumed.duplicated(key).any()
    drop = ["wall_ms", "mem_bytes"]
    a = fresh.drop(columns=drop).sort_values(key, ignore_index=True)
    b = resumed.drop(columns=drop).sort_values(key, ignore_index=True)
    assert len(a) == len(b)
    for col in a.columns:
        for x, y in zip(a[col], b[col]):
            if isinstance(x, (list, np.ndarray)):
                np.testing.assert_array_equal(np.asarray(x), np.asarray(y))
            else:
                assert x == y or (pd.isna(x) and pd.isna(y)), col


def test_rolling_time_sum_range_semantics():
    """RANGE-frame semantics: peers at the current ts all included,
    boundary exactly window_s ago included, per-entity isolation."""
    import pandas as pd

    from pystreamfs_ray.stages.window import rolling_time_sum

    ts = pd.to_datetime([
        "2024-01-01 00:00:00", "2024-01-01 00:30:00",
        "2024-01-01 01:00:00",  # exactly 1h after row 0 → includes it
        "2024-01-01 01:00:00",  # peer of previous row (same ts)
        "2024-01-01 02:30:01",  # all prior rows out of the 1h window
        "2024-01-01 00:10:00",  # other entity
    ])
    df = pd.DataFrame({
        "conv_id": ["a"] * 5 + ["b"],
        "ts": ts,
        "v": [1, 2, 4, 8, 16, 100],
    })
    out = rolling_time_sum(df, "v", 3600.0, ts_col="ts")
    got = dict(zip(out["v"], out["v_tsum"]))
    assert got[1] == 1
    assert got[2] == 3           # 1+2
    assert got[4] == 15          # 1+2+4+8 (boundary + peer included)
    assert got[8] == 15          # peer sees the same frame
    assert got[16] == 16         # everything else aged out
    assert got[100] == 100       # entity isolation


def test_asof_join_time_boundary_exact(ray_session):
    """Global as-of: result is exact regardless of range partitioning —
    matches a brute-force reference even when the true predecessor
    lives many partitions earlier (carry propagation)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from pystreamfs_ray.stages.asof import asof_join_time

    rng = np.random.default_rng(9)
    # sparse right side: long gaps force cross-partition carries
    r_ts = np.sort(rng.choice(1_000_000, size=12, replace=False))
    l_ts = np.sort(rng.choice(1_000_000, size=200, replace=False))
    base = np.datetime64("2024-01-01", "us")
    right = pd.DataFrame({
        "event_id": np.arange(12, dtype=np.int64),
        "ts": base + r_ts.astype("timedelta64[us]") * 1000,
        "value": rng.random(12),
    })
    left = pd.DataFrame({
        "event_id": 1000 + np.arange(200, dtype=np.int64),
        "ts": base + l_ts.astype("timedelta64[us]") * 1000,
        "value": rng.random(200),
    })
    for nparts in (1, 4, 16):
        out = asof_join_time(
            rd.from_arrow(pa.Table.from_pandas(left, preserve_index=False)).repartition(3),
            rd.from_arrow(pa.Table.from_pandas(right, preserve_index=False)).repartition(2),
            how="inner", right_tiebreak="event_id", num_partitions=nparts,
        ).to_pandas().sort_values("event_id", ignore_index=True)
        # brute-force reference
        rows = []
        for _, lrow in left.iterrows():
            elig = right[right["ts"] <= lrow["ts"]]
            if len(elig):
                m = elig.sort_values(["ts", "event_id"]).iloc[-1]
                rows.append((lrow["event_id"], m["ts"], m["event_id"], m["value"]))
        want = pd.DataFrame(rows, columns=["event_id", "ts_matched", "event_id_r", "value_r"])
        assert len(out) == len(want), nparts
        assert (out["event_id"].to_numpy() == want["event_id"].to_numpy()).all()
        assert (out["ts_matched"].to_numpy() == want["ts_matched"].to_numpy()).all()
        assert (out["event_id_r"].to_numpy() == want["event_id_r"].to_numpy()).all()
        np.testing.assert_array_equal(out["value_r"].to_numpy(), want["value_r"].to_numpy())


def test_interval_join_pairs_semantics():
    """Range-join window edges: strictly-before default, BETWEEN with
    include_self, entity isolation, multi-entity interleaved ts."""
    import pandas as pd

    from pystreamfs_ray.stages.window import interval_join_pairs

    base = pd.Timestamp("2024-01-01")
    mins = lambda m: base + pd.Timedelta(minutes=m)
    df = pd.DataFrame({
        "conv_id": ["a", "a", "a", "a", "b", "b"],
        "ts": [mins(0), mins(20), mins(30), mins(45), mins(29), mins(30)],
        "eid": [1, 2, 3, 4, 10, 11],
        "is_l": [False, False, True, True, False, True],
    })
    out = interval_join_pairs(df, left_mask_col="is_l", window_s=1800.0,
                              ts_col="ts")
    pairs = set(zip(out["eid_l"], out["eid_r"]))
    # eid 3 (t=30): window [0, 30) → eid 1 (t=0, boundary incl), eid 2
    # eid 4 (t=45): window [15, 45) → eid 2, eid 3
    # eid 11 (b, t=30): window [0,30) → eid 10 only (entity isolation)
    assert pairs == {(3, 1), (3, 2), (4, 2), (4, 3), (11, 10)}

    out2 = interval_join_pairs(df, left_mask_col="is_l", window_s=1800.0,
                               ts_col="ts", include_self=True)
    pairs2 = set(zip(out2["eid_l"], out2["eid_r"]))
    # BETWEEN keeps self and current-ts peers
    assert pairs2 == {(3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4),
                      (11, 10), (11, 11)}


def test_hll_accuracy_and_merge_invariance(ray_session):
    """HLL estimate within the expected error band; register state is
    independent of block layout (max-mergeable)."""
    import pyarrow as pa
    import ray.data as rd

    from pystreamfs_ray.stages.sketch import approx_distinct, hll_registers

    true_n = 5000
    vals = np.repeat(np.arange(true_n, dtype=np.int64), 3)  # dups don't matter
    ds = rd.from_arrow(pa.table({"x": vals}))
    est = approx_distinct(ds, "x", b=6)
    # sigma = 1.04/sqrt(64) ≈ 13%; md5 of this exact value set is a
    # fixed (unlucky, ~2.9σ) draw — bound at ~4σ
    assert abs(est - true_n) / true_n < 0.5

    a = hll_registers(ds.repartition(1), "x").to_pandas().sort_values("reg", ignore_index=True)
    b = hll_registers(ds.repartition(7), "x").to_pandas().sort_values("reg", ignore_index=True)
    pd.testing.assert_frame_equal(a, b)

    # higher precision tightens the estimate
    est12 = approx_distinct(ds, "x", b=12)
    assert abs(est12 - true_n) / true_n < 0.1


def test_grouped_topk_and_quantiles(ray_session):
    """Grouped top-k (combiner → shuffle → final rank) and exact grouped
    quantiles vs a pandas oracle, block-layout independent."""
    import ray.data as rd

    from pystreamfs_ray.stages.grouped import grouped_quantiles, grouped_topk

    rng = np.random.default_rng(11)
    n = 5000
    df = pd.DataFrame({
        "g": rng.choice(["a", "b", "c"], size=n),
        "id": np.arange(n, dtype=np.int64),
        "v": np.round(rng.normal(100, 25, size=n), 2),
    })
    # ties at the boundary: force duplicate values inside one group
    df.loc[df.index[:20], "v"] = 555.0
    df.loc[df.index[:20], "g"] = "a"

    for n_blocks in (1, 7):
        ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)) \
               .repartition(n_blocks)
        top = grouped_topk(ds, "g", "v", 5, tiebreak_col="id").to_pandas()
        for g, sub in df.groupby("g"):
            want = sub.sort_values(["v", "id"], ascending=[False, True]).head(5)
            mine = top[top.g == g].sort_values("rank")
            assert list(mine["id"]) == list(want["id"]), (g, n_blocks)
            assert list(mine["rank"]) == [1, 2, 3, 4, 5]

        qt = grouped_quantiles(ds, "g", "v", [0.5, 0.9], ["med", "p90"]).to_pandas()
        for g, sub in df.groupby("g"):
            row = qt[qt.g == g].iloc[0]
            assert row["med"] == round(float(np.quantile(sub["v"], 0.5)), 6)
            assert row["p90"] == round(float(np.quantile(sub["v"], 0.9)), 6)
            assert row["n"] == len(sub)


def test_pivot_counts(ray_session):
    """Long→wide pivot vs a pandas crosstab oracle, layout-invariant."""
    import ray.data as rd

    from pystreamfs_ray.stages.grouped import pivot_counts

    rng = np.random.default_rng(5)
    df = pd.DataFrame({
        "k": rng.integers(0, 40, size=3000),
        "ev": rng.choice(["x", "y", "z"], size=3000),
    })
    want = pd.crosstab(df["k"], df["ev"]).reindex(columns=["x", "y", "z"],
                                                  fill_value=0)
    for n_blocks in (1, 6):
        ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)) \
               .repartition(n_blocks)
        out = pivot_counts(ds, "k", "ev", ["x", "y", "z"]).to_pandas() \
            .set_index("k").sort_index()
        assert (out[["n_x", "n_y", "n_z"]].to_numpy()
                == want.to_numpy()).all(), n_blocks


def test_cms_bounds_and_merge_invariance(ray_session):
    """Count-Min: never underestimates, tight on heavy keys, and the
    register state is layout-invariant (sum-mergeable partials)."""
    import ray.data as rd

    from pystreamfs_ray.stages.sketch import cms_estimate, cms_registers

    rng = np.random.default_rng(3)
    # zipf-ish: key 0 appears 2000x, key 1 500x, 1000 singleton keys
    vals = np.concatenate([
        np.zeros(2000, dtype=np.int64),
        np.ones(500, dtype=np.int64),
        np.arange(10, 1010, dtype=np.int64),
    ])
    rng.shuffle(vals)
    ds = rd.from_arrow(pa.table({"k": vals}))

    regs = cms_registers(ds, "k", depth=4, width=1024).to_pandas()
    true = pd.Series(vals).value_counts()
    keys = [0, 1, 10, 999999]  # heavy, medium, singleton, absent
    est = cms_estimate(regs, keys, depth=4, width=1024)
    for k, e in zip(keys, est):
        t = int(true.get(k, 0))
        assert e >= t  # CMS never underestimates
        assert e <= t + 2 * len(vals) / 1024 + 1  # standard error bound

    a = regs.sort_values(["r", "cell"], ignore_index=True)
    b = cms_registers(ds.repartition(9), "k", depth=4, width=1024) \
        .to_pandas().sort_values(["r", "cell"], ignore_index=True)
    pd.testing.assert_frame_equal(a, b)


def test_asof_forward_strictly_after(ray_session, broadcast_paths):
    """Forward as-of: every matched event is STRICTLY after the left
    row (the mirror of the backward form's zero-leakage property)."""
    from pystreamfs_ray.pipelines.queries import q_asof_forward
    from tests.test_entry_contract import SF_DIR

    for path in broadcast_paths():
        out = q_asof_forward(SF_DIR).to_pandas()
        assert len(out) > 0, path
        assert (out["ts_matched"] > out["ts"]).all(), path


def test_add_window_funcs_sql_tie_semantics(ray_session):
    """RANK leaves gaps on ties, DENSE_RANK doesn't; running sum is
    cent-exact in time order."""
    import pandas as pd
    from pystreamfs_ray.stages import window as W

    df = pd.DataFrame({
        "user_id": [1, 1, 1, 1, 2],
        "ts": pd.to_datetime([1, 2, 3, 4, 1], unit="s"),
        "event_id": [10, 11, 12, 13, 14],
        "value": [5.0, 7.0, 7.0, 1.0, 3.0],
    })
    out = W.add_window_funcs(df, entity_col="user_id", ts_col="ts",
                             value_col="value", id_col="event_id")
    u1 = out[out["user_id"] == 1]
    assert u1["row_number"].tolist() == [1, 2, 3, 4]
    assert u1["rank_value"].tolist() == [3, 1, 1, 4]        # gap after tie
    assert u1["dense_rank_value"].tolist() == [2, 1, 1, 3]  # no gap
    assert u1["cum_value"].tolist() == [5.0, 12.0, 19.0, 20.0]
    assert out[out["user_id"] == 2]["row_number"].tolist() == [1]


def test_hist_sketch_quantiles_and_merge_invariance(ray_session):
    """Histogram registers are layout-invariant (sum-mergeable) and the
    derived quantiles land within one bin width of the exact ones."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from pystreamfs_ray.stages.sketch import hist_quantile, hist_registers

    rng = np.random.default_rng(11)
    vals = rng.gamma(2.0, 3.0, size=20_000)
    ds = rd.from_arrow(pa.table({"v": vals}))

    regs, lo, hi = hist_registers(ds, "v", bins=128)
    a = regs.to_pandas().sort_values("bin", ignore_index=True)
    regs2, _, _ = hist_registers(ds.repartition(13), "v", bins=128)
    b = regs2.to_pandas().sort_values("bin", ignore_index=True)
    pd.testing.assert_frame_equal(a, b)
    assert a["n"].sum() == len(vals)

    w = (hi - lo) / 128
    approx = hist_quantile(a, [0.25, 0.5, 0.9], lo=lo, hi=hi, bins=128)
    exact = np.quantile(vals, [0.25, 0.5, 0.9])
    assert np.all(np.abs(np.array(approx) - exact) <= w + 1e-9)


@pytest.mark.parametrize("keys", ["k1", ["k1", "k2"]])
def test_combine_sum_matches_pandas_groupby_sum(ray_session, keys):
    import ray.data as rd

    from pystreamfs_ray.util import combine_sum

    rng = np.random.default_rng(11)
    frames = []
    for i in range(3):
        n = 40 + 7 * i
        frames.append(pd.DataFrame({
            # "all" is in every block; the other keys differ per block
            "k1": np.where(rng.random(n) < 0.4, "all",
                           rng.choice([f"b{i}", "x", "y"], n)),
            "k2": rng.integers(0, 3, n),
            "a": rng.integers(-50, 50, n),
            "b": rng.integers(0, 1000, n),
        }))
    ds = rd.from_pandas(frames)
    assert ds.materialize().num_blocks() == 3
    assert all((f["k1"] == "all").any() for f in frames)
    by = [keys] if isinstance(keys, str) else keys

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(by, as_index=False, sort=False)[["a", "b"]].sum()

    got = (combine_sum(ds, partial, keys, ["a", "b"]).to_pandas()
           .sort_values(by, ignore_index=True))
    whole = pd.concat(frames, ignore_index=True)
    want = whole.groupby(by, as_index=False)[["a", "b"]].sum()
    pd.testing.assert_frame_equal(got, want)


def test_combine_sum_zero_rows(ray_session):
    import ray.data as rd

    from pystreamfs_ray.util import combine_sum

    empty = pd.DataFrame({"k": pd.Series([], dtype=object),
                          "a": pd.Series([], dtype=np.int64)})

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", as_index=False, sort=False)[["a"]].sum()

    got = combine_sum(rd.from_pandas(empty), partial, "k", ["a"]).to_pandas()
    want = empty.groupby("k")[["a"]].sum()
    assert len(got) == len(want) == 0
