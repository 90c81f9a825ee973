"""Ray Data executions per job, and the summary that runs without one.

Every ``StreamingExecutor`` is one Ray Data execution: a schema probe
on a lazy Dataset is one, and so is ``Dataset.aggregate``. The counts
below pin how many a pipeline step launches. ``global_summary`` is
checked against the ``Dataset.aggregate`` call it replaces."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

WINDOW_COLS = ["conv_id", "window_id", "ts_end", "w", "selected"]
MEANS = ["time_avg_ms", "memory_avg_bytes", "fscr_avg", "acc_avg"]


@pytest.fixture
def executions(monkeypatch):
    """``executions()`` returns the number of Ray Data executions
    started since the last call."""
    from ray.data._internal.execution import streaming_executor as se

    started = []
    init = se.StreamingExecutor.__init__

    def counting(self, *args, **kwargs):
        started.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(se.StreamingExecutor, "__init__", counting)

    def since_last():
        n = len(started)
        started.clear()
        return n

    return since_last


@pytest.fixture
def zero_row_dir(synth_dirs, tmp_path):
    """A directory holding one zero-row Parquet file with the
    transcripts schema."""
    src = os.path.join(synth_dirs["transcripts"],
                       sorted(os.listdir(synth_dirs["transcripts"]))[0])
    out = tmp_path / "zero"
    out.mkdir()
    pq.write_table(pq.read_schema(src).empty_table(), str(out / "part-0.parquet"))
    return str(out)


def _windows(path, **kw):
    from pystreamfs_ray.pipelines.flagship import feature_windows
    from pystreamfs_ray.sources import read_parquet

    kw = {"kernel": "ofs", "batch_size": 20, "num_buckets": 4, **kw}
    return feature_windows(read_parquet(path), **kw)


def _aggregate(ds) -> pd.DataFrame:
    """The ``Dataset.aggregate`` call ``global_summary`` replaced."""
    from ray.data.aggregate import Count, Max, Mean, Sum

    return pd.DataFrame([ds.aggregate(
        Count(alias_name="n_windows"),
        Mean("wall_ms", alias_name="time_avg_ms"),
        Mean("mem_bytes", alias_name="memory_avg_bytes"),
        Mean("fscr", alias_name="fscr_avg"),
        Mean("acc", alias_name="acc_avg"),
        Sum("n_rows", alias_name="rows_total"),
        Max("window_id", alias_name="max_window_id"),
    )])


def _assert_same_summary(got: pd.DataFrame, want: pd.DataFrame):
    assert list(got.columns) == list(want.columns)
    assert got.dtypes.to_dict() == want.dtypes.to_dict()
    g, w = got.iloc[0].to_dict(), want.iloc[0].to_dict()
    for col in ("n_windows", "rows_total", "max_window_id"):
        assert g[col] == w[col], col
    for col in MEANS:
        if w[col] is None:
            assert g[col] is None, col
        else:
            np.testing.assert_allclose(g[col], w[col], rtol=1e-12, err_msg=col)


def test_zero_row_input_gives_zero_windows(ray_session, zero_row_dir):
    """An input whose only file has no rows: no windows, and a summary
    with ``n_windows`` 0 and None everywhere else, as
    ``Dataset.aggregate`` gives (object dtypes included)."""
    from pystreamfs_ray.pipelines.metrics import global_summary

    windows = _windows(zero_row_dir).materialize()
    assert windows.count() == 0
    got = global_summary(windows)
    summary = got.iloc[0].to_dict()
    assert summary.pop("n_windows") == 0
    assert summary == dict.fromkeys(summary)
    _assert_same_summary(got, _aggregate(windows))


@pytest.mark.parametrize("evaluate", ["knn", None])
def test_global_summary_matches_aggregate(ray_session, synth_dirs, evaluate):
    """Counts, sum and max equal, means to 1e-12, same dtypes: over a
    materialized windows Dataset of several blocks (``acc_avg`` None
    with object dtype when nothing is evaluated), and over a lazy
    Dataset that yields the same rows."""
    from pystreamfs_ray.pipelines.metrics import global_summary

    windows = _windows(synth_dirs["transcripts"], evaluate=evaluate,
                       max_history=100).materialize()
    assert windows.num_blocks() >= 3
    want = _aggregate(windows)
    assert want["n_windows"][0] > 0
    assert (want["acc_avg"][0] is None) == (evaluate is None)
    _assert_same_summary(global_summary(windows), want)
    lazy = windows.map_batches(lambda t: t, batch_format="pyarrow")
    _assert_same_summary(global_summary(lazy), want)


def test_job_executions(ray_session, synth_dirs, executions):
    """The windows run as one execution, the as-of join as two (its
    right side is materialized, then the labels are probed), the
    summary of materialized windows as none, of lazy ones as one."""
    from pystreamfs_ray.pipelines.metrics import global_summary
    from pystreamfs_ray.sources import read_parquet
    from pystreamfs_ray.stages.asof import asof_join

    executions()
    windows = _windows(synth_dirs["transcripts"],
                       kernel=["ofs", "efs", "fsds"]).materialize()
    assert executions() == 1
    asof_join(read_parquet(synth_dirs["labels"]),
              windows.select_columns(WINDOW_COLS), by="conv_id",
              left_on="ts", right_on="ts_end").materialize()
    assert executions() == 2
    global_summary(windows)
    assert executions() == 0
    global_summary(_windows(synth_dirs["transcripts"]))
    assert executions() == 1


def test_resume_leg_executions(ray_session, synth_dirs, tmp_path, executions):
    """Each streaming leg, the one that checkpoints and the one that
    resumes, is one execution."""
    t = pq.read_table(synth_dirs["transcripts"])
    ts = t["ts"].cast(pa.int64()).to_numpy()
    early = ts <= np.median(ts)
    legs = {}
    for leg, rows in (("leg1", early), ("leg2", ~early)):
        part = t.filter(pa.array(rows))
        assert part.num_rows
        legs[leg] = tmp_path / leg
        legs[leg].mkdir()
        pq.write_table(part, str(legs[leg] / "part-0.parquet"))
    kw = dict(streaming=True, checkpoint_dir=str(tmp_path / "ckpt"))
    executions()
    _windows(str(legs["leg1"]), flush=False, **kw).materialize()
    assert executions() == 1
    _windows(str(legs["leg2"]), flush=True, load_state=True, **kw).materialize()
    assert executions() == 1


def test_shuffle_asof_probes_left_schema_once(ray_session, broadcast_paths,
                                               executions):
    """On the shuffle path a lazy pandas-block left side is re-blocked
    to Arrow by a map that fuses with it and probed once: one
    execution for the probe and one for the join. A materialized Arrow
    left side knows its schema and is not probed."""
    import ray.data as rd

    from pystreamfs_ray.stages.asof import asof_join

    left = pd.DataFrame({"k": ["a", "b", "a"], "lab": [0, 1, 1],
                         "ts": pd.to_datetime([5, 6, 12], unit="us")})
    right = rd.from_arrow(pa.table({
        "k": ["a", "b"], "ts": pa.array([2000, 3000], pa.timestamp("ns")),
        "v": [1.0, 2.0]})).materialize()
    sides = [  # (left side, executions: probe + join)
        (rd.from_pandas(left).map_batches(lambda df: df, batch_format="pandas"), 2),
        (rd.from_arrow(pa.Table.from_pandas(left, preserve_index=False)).materialize(), 1),
    ]
    for _ in broadcast_paths("shuffle"):
        for side, n in sides:
            executions()
            out = asof_join(side, right, by="k", left_on="ts", right_on="ts",
                            num_buckets=2).materialize()
            assert executions() == n
            assert sorted(out.to_pandas()["v"]) == [1.0, 1.0, 2.0]
