"""Semantics tests for temporal analytics (funnel, first-seen) and the
distributed global percent-rank."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _events(rows):
    df = pd.DataFrame(rows, columns=["user_id", "ts", "event_type"])
    df["ts"] = pd.to_datetime(df["ts"])
    return df


def test_funnel_strict_ordering(ray_session):
    """A stage counts only events STRICTLY LATER than the previous
    stage's earliest completion; order of input rows is irrelevant."""
    import ray.data as rd

    from pystreamfs_ray.stages.temporal import funnel_counts

    df = _events([
        # user 1: full funnel in order
        (1, "2024-01-01 00:00", "view"),
        (1, "2024-01-01 00:01", "click"),
        (1, "2024-01-01 00:02", "purchase"),
        # user 2: click BEFORE view → stalls at view
        (2, "2024-01-01 00:00", "click"),
        (2, "2024-01-01 00:01", "view"),
        # user 3: click simultaneous with view → strict '>' rejects it
        (3, "2024-01-01 00:00", "view"),
        (3, "2024-01-01 00:00", "click"),
        # user 4: view→click, purchase earlier than click → stalls at click;
        # ALSO: earliest-completion means the FIRST view (00:00) is the
        # threshold, so the 00:01 click counts even though a later view exists
        (4, "2024-01-01 00:00", "view"),
        (4, "2024-01-01 00:01", "click"),
        (4, "2024-01-01 00:00", "purchase"),
        (4, "2024-01-01 00:05", "view"),
        # user 5: purchase only → never enters
        (5, "2024-01-01 00:00", "purchase"),
    ])
    out = funnel_counts(rd.from_pandas(df).repartition(3),
                        ["view", "click", "purchase"], num_buckets=4)
    assert out["stage"].tolist() == ["view", "click", "purchase"]
    assert out["n_users"].tolist() == [4, 2, 1]


def test_first_seen_counts(ray_session):
    import ray.data as rd

    from pystreamfs_ray.stages.temporal import first_seen_counts

    df = _events([
        (1, "2024-01-01 05:00", "view"),
        (1, "2024-01-03 05:00", "view"),   # not new on day 3
        (2, "2024-01-01 23:59", "view"),
        (3, "2024-01-02 00:00", "view"),
    ])[["user_id", "ts"]]
    out = first_seen_counts(rd.from_pandas(df).repartition(2))
    assert out["new_users"].tolist() == [2, 1]
    assert out["cum_users"].tolist() == [2, 3]
    assert out["day"].dt.strftime("%Y-%m-%d").tolist() == [
        "2024-01-01", "2024-01-02"]


def test_global_percent_rank_ties_and_partition_invariance(ray_session):
    """Matches SQL PERCENT_RANK exactly, including ties, regardless of
    the partition count."""
    import duckdb
    import ray.data as rd

    from pystreamfs_ray.stages.rank import global_percent_rank

    rng = np.random.default_rng(11)
    vals = rng.integers(0, 50, size=400)  # heavy ties
    df = pd.DataFrame({"id": np.arange(400, dtype=np.int64),
                       "v": vals.astype(np.float64)})
    want = duckdb.sql(
        "SELECT id, ROUND(PERCENT_RANK() OVER (ORDER BY v), 6) AS pr FROM df"
    ).df().sort_values("id", ignore_index=True)
    for nparts in (1, 7):
        got = (global_percent_rank(rd.from_pandas(df).repartition(5),
                                   value_col="v", id_col="id", out_col="pr",
                                   num_partitions=nparts)
               .to_pandas().sort_values("id", ignore_index=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_group_zscore_known_values(ray_session):
    import ray.data as rd

    from pystreamfs_ray.stages.grouped import group_zscore

    df = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "source": ["a", "a", "a", "b", "b", "c"],
        "n_chars": [1, 2, 3, 10, 10, 7],
    })
    out = (group_zscore(rd.from_pandas(df).repartition(3), "source",
                        "n_chars", id_col="doc_id")
           .to_pandas().sort_values("doc_id", ignore_index=True))
    std_a = np.sqrt(2.0 / 3.0)  # population std of [1,2,3]
    assert out["z"].tolist()[:3] == [round(-1 / std_a, 6), 0.0,
                                     round(1 / std_a, 6)]
    # zero-variance group b → null; singleton group c → null
    assert out["z"].iloc[3:].isna().all()


def _transcript_df():
    return pd.DataFrame({
        "conv_id": ["c1"] * 4 + ["c2"] * 3,
        "turn_idx": np.array([0, 1, 2, 3, 0, 1, 2], dtype=np.int32),
        "role": ["user", "assistant", "user", "user",
                 "assistant", "user", "assistant"],
        "text": ["hi", "hello", "bye", "really", "sys", "q", "a"],
    })


def test_render_chat_order_and_shape(ray_session):
    import ray.data as rd

    from pystreamfs_ray.pipelines.transcripts import render_chat

    out = (render_chat(rd.from_pandas(_transcript_df()).repartition(3),
                       num_buckets=4)
           .to_pandas().sort_values("conv_id", ignore_index=True))
    assert out["conv_id"].tolist() == ["c1", "c2"]
    assert out["n_turns"].tolist() == [4, 3]
    assert out.loc[0, "rendered"] == (
        "user: hi\nassistant: hello\nuser: bye\nuser: really")
    assert out.loc[1, "rendered"] == "assistant: sys\nuser: q\nassistant: a"


def test_sft_pairs_adjacency(ray_session):
    """Only user turns IMMEDIATELY followed by an assistant turn pair
    up; user→user and assistant-first rows don't."""
    import ray.data as rd

    from pystreamfs_ray.pipelines.transcripts import sft_pairs

    out = (sft_pairs(rd.from_pandas(_transcript_df()).repartition(3),
                     num_buckets=4)
           .to_pandas().sort_values(["conv_id", "turn_idx"],
                                    ignore_index=True))
    assert out[["conv_id", "prompt", "response"]].values.tolist() == [
        ["c1", "hi", "hello"], ["c2", "q", "a"]]
    assert out["turn_idx"].tolist() == [0, 1]


def test_retention_cohorts_known_values(ray_session):
    """Users land in their first-seen week's cohort; later activity
    counts once per (cohort, offset) regardless of event volume."""
    import ray.data as rd

    from pystreamfs_ray.pipelines.queries import q_retention  # noqa: F401
    # exercise the shape through the queries entry on a temp parquet dir
    import pyarrow as pa
    import pyarrow.parquet as pq
    import tempfile, os

    df = _events([
        # user 1: first seen week of Mon 2024-01-01, active again wk+2 (3 events)
        (1, "2024-01-02 10:00", "view"),
        (1, "2024-01-16 10:00", "view"),
        (1, "2024-01-17 10:00", "view"),
        (1, "2024-01-18 10:00", "view"),
        # user 2: first seen wk of 2024-01-08, never returns
        (2, "2024-01-08 00:00", "view"),
    ])
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(pa.Table.from_pandas(
            df.rename(columns={"event_type": "event_type"}),
            preserve_index=False), os.path.join(d, "events.parquet"))
        out = (q_retention(d).to_pandas()
               .sort_values(["cohort", "week_offset"], ignore_index=True))
    got = {(str(r.cohort.date()), int(r.week_offset)): int(r.n_active)
           for r in out.itertuples()}
    assert got == {("2024-01-01", 0): 1, ("2024-01-01", 2): 1,
                   ("2024-01-08", 0): 1}


def test_late_event_stats_hand_case(ray_session):
    """Hand-verifiable disorder: user A's arrival order carries one
    event 5 µs late and one 2 µs late (max 5); user B is fully ordered;
    ties (equal ts) are NOT late; empty input returns zero rows."""
    import ray.data as rd

    from pystreamfs_ray.stages.temporal import late_event_stats

    base = np.datetime64("2026-01-01T00:00:00", "us")
    df = pd.DataFrame({
        "user_id": ["A", "A", "A", "A", "B", "B", "C"],
        "arrival": [1, 2, 3, 4, 1, 2, 1],
        "ts": [base + np.timedelta64(t, "us")
               for t in (10, 5, 8, 10, 3, 3, 7)],
    })
    out = (late_event_stats(rd.from_pandas(df).repartition(3),
                            order_col="arrival", num_buckets=2)
           .to_pandas().set_index("user_id").sort_index())
    # A: arrivals ts 10,5,8,10 → late: 5 (by 5), 8 (by 2); 10==max not late
    assert out.loc["A", "n_events"] == 4
    assert out.loc["A", "n_late"] == 2
    assert out.loc["A", "max_late_us"] == 5
    # B: 3,3 — equal ts is not late
    assert out.loc["B", "n_late"] == 0 and out.loc["B", "max_late_us"] == 0
    assert out.loc["C", "n_events"] == 1 and out.loc["C", "n_late"] == 0

    empty = rd.from_pandas(pd.DataFrame({
        "user_id": pd.Series([], dtype=str),
        "arrival": pd.Series([], dtype=np.int64),
        "ts": pd.Series([], dtype="datetime64[us]")}))
    assert late_event_stats(empty, order_col="arrival").count() == 0
