"""As-of join edge cases, each run on both sides of the broadcast gate
(``util.BROADCAST_MAX_BYTES``): the broadcast probe and the
bucketed shuffle must return the same rows, payloads and tie winners."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

US = pa.timestamp("us")


def _left() -> pa.Table:
    return pa.table({
        "k": ["a", "a", "b", "b", "c", "d"],
        "ts": pa.array([5, 12, 3, 20, 7, 1], US),
        "lab": [0, 1, 1, 0, 1, 0],
    })


def _right_blocks() -> list[pa.Table]:
    """Two blocks; (a, 10) and (b, 3) are each shared by several rows
    with different payloads, across and within blocks."""
    b1 = pa.table({
        "k": ["a", "a", "b", "c"],
        "ts": pa.array([2, 10, 3, 9], US),
        "v": [1.0, 2.0, 3.0, 4.0],
        "w": pa.array([[1.0], [2.0], [3.0], [4.0]], pa.list_(pa.float64())),
    })
    b2 = pa.table({
        "k": ["b", "a", "a", "b"],
        "ts": pa.array([3, 10, 10, 15], US),
        "v": [5.0, 6.0, 7.0, 8.0],
        "w": pa.array([[5.0], [6.0], [7.0], [8.0]], pa.list_(pa.float64())),
    })
    return [b1, b2]


def _replay(left: pa.Table, right: pa.Table, *, how="inner",
            direction="backward", allow_exact_matches=True) -> pd.DataFrame:
    """Per-row definition: the latest (backward) or earliest (forward)
    right row of the same key; among rows sharing that timestamp the
    last (backward) or first (forward) in Dataset order."""
    lp, rp = left.to_pandas(), right.to_pandas()
    out = []
    for _, row in lp.iterrows():
        c = rp[rp["k"] == row["k"]]
        if direction == "backward":
            c = c[c["ts"] <= row["ts"]] if allow_exact_matches else c[c["ts"] < row["ts"]]
            pick = c[c["ts"] == c["ts"].max()].tail(1)
        else:
            c = c[c["ts"] >= row["ts"]] if allow_exact_matches else c[c["ts"] > row["ts"]]
            pick = c[c["ts"] == c["ts"].min()].head(1)
        if len(pick):
            r = pick.iloc[0]
            out.append({**row, "ts_matched": r["ts"], "v": r["v"],
                        "w": list(r["w"]) if "w" in r else None})
        elif how == "left":
            out.append({**row, "ts_matched": pd.NaT, "v": np.nan, "w": None})
    return _canon(pd.DataFrame(out, columns=["k", "ts", "lab", "ts_matched", "v", "w"]))


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    if len(df) == 0:  # Ray may hand back a zero-row frame without columns
        return df
    df = df.copy()
    for c in ("ts", "ts_matched"):
        if c in df.columns:
            df[c] = pd.to_datetime(df[c]).astype("datetime64[ns]")
    if "w" in df.columns:
        df["w"] = [None if w is None else tuple(w) for w in df["w"]]
    return df.sort_values(["k", "ts", "lab"], ignore_index=True)


def _join(left_ds, right_ds, **kw) -> pd.DataFrame:
    from pystreamfs_ray.stages.asof import asof_join

    out = asof_join(left_ds, right_ds, by="k", left_on="ts", right_on="ts",
                    num_buckets=3, **kw).to_pandas()
    return _canon(out)


@pytest.mark.parametrize("direction,exact", [("backward", True), ("forward", False)])
def test_asof_ties_same_winner_both_paths(ray_session, broadcast_paths, direction, exact):
    import ray.data as rd

    want = _replay(_left(), pa.concat_tables(_right_blocks()),
                   direction=direction, allow_exact_matches=exact)
    for path in broadcast_paths():
        got = _join(rd.from_arrow(_left()), rd.from_arrow(_right_blocks()),
                    direction=direction, allow_exact_matches=exact)
        pd.testing.assert_frame_equal(got, want, check_dtype=False, obj=path)


def test_asof_zero_row_schemaless_right_blocks(ray_session, broadcast_paths):
    import ray.data as rd

    b1, b2 = _right_blocks()
    want = _replay(_left(), pa.concat_tables([b1, b2]))
    for path in broadcast_paths():
        right = rd.from_arrow([pa.table({}), b1, pa.table({}), b2, pa.table({})])
        got = _join(rd.from_arrow(_left()), right)
        pd.testing.assert_frame_equal(got, want, check_dtype=False, obj=path)


@pytest.mark.parametrize("how", ["inner", "left"])
@pytest.mark.parametrize("schema", [True, False])
def test_asof_empty_right(ray_session, broadcast_paths, how, schema):
    import ray.data as rd

    empty = _right_blocks()[0].slice(0, 0) if schema else pa.table({})
    for path in broadcast_paths():
        got = _join(rd.from_arrow(_left()), rd.from_arrow(empty), how=how)
        if how == "inner":
            assert len(got) == 0, path
            continue
        assert len(got) == len(_left()), path
        assert got["ts_matched"].isna().all(), path
        assert got[["k", "ts", "lab"]].equals(_canon(_left().to_pandas())), path
        if schema:
            assert got["v"].isna().all() and got["w"].isna().all(), path


@pytest.mark.parametrize("how", ["inner", "left"])
def test_asof_pandas_block_inputs(ray_session, broadcast_paths, how):
    """Pandas blocks on both sides. Ray turns the ``w`` column of a
    pandas block into a fixed-shape tensor column, which cannot hold the
    nulls of unmatched left rows, so the left join drops it."""
    import ray.data as rd

    blocks = _right_blocks()
    if how == "left":
        blocks = [b.drop_columns(["w"]) for b in blocks]
    want = _replay(_left(), pa.concat_tables(blocks), how=how)
    if how == "left":
        want = want.drop(columns=["w"])
    for path in broadcast_paths():
        got = _join(rd.from_pandas(_left().to_pandas()),
                    rd.from_pandas([b.to_pandas() for b in blocks]), how=how)
        pd.testing.assert_frame_equal(got, want, check_dtype=False, obj=path)


def test_flagship_kernel_ties_same_winner(ray_session, synth_dirs, broadcast_paths):
    """flagship() joins the windows of several kernels without the
    ``kernel`` column: every (conv_id, ts_end) is tied once per kernel.
    Both paths pick the same row, the last kernel's window."""
    import ray.data as rd

    from pystreamfs_ray.pipelines.flagship import flagship

    kernels = ["ofs", "efs", "fsds"]
    joined = {}
    for path in broadcast_paths():
        windows, j, _ = flagship(
            rd.read_parquet(synth_dirs["transcripts"]),
            rd.read_parquet(synth_dirs["labels"]),
            kernel=kernels, batch_size=20, num_buckets=4)
        joined[path] = j.to_pandas().sort_values(
            ["conv_id", "ts", "label"], ignore_index=True)
        wins = windows.to_pandas()
        last = wins[wins["kernel"] == kernels[-1]].set_index(
            ["conv_id", "window_id"])["w"]
        got = joined[path]
        assert len(got) > 0, path
        for cid, wid, w in zip(got["conv_id"], got["window_id"], got["w"]):
            np.testing.assert_array_equal(w, last[(cid, wid)], err_msg=path)
    a, b = joined["broadcast"], joined["shuffle"]
    assert a.drop(columns=["w", "selected"]).equals(b.drop(columns=["w", "selected"]))
    for col in ("w", "selected"):
        for x, y in zip(a[col], b[col]):
            np.testing.assert_array_equal(x, y)

