"""Read blocks sized from the input: ``sources.read_parquet`` asks for
``util.read_blocks(on-disk bytes, session CPUs)`` blocks unless the
caller names a count, and no engine output depends on the count."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

REPO = Path(__file__).resolve().parents[1]
MIB = 1 << 20


def test_read_blocks_arithmetic():
    from ray.data import DataContext

    from pystreamfs_ray.util import read_blocks

    target = DataContext.get_current().target_max_block_size
    assert read_blocks(0, 1) == 2
    assert read_blocks(0, 4) == 8
    assert read_blocks(3 * MIB, 1) == 2  # a few MB: no 1 MiB-per-block term
    assert read_blocks(target, 1) == 2  # exactly one target block
    assert read_blocks(target + 1, 1) == 2
    assert read_blocks(3 * target, 1) == 3
    assert read_blocks(10 * target, 4) == 10
    assert read_blocks(10 * target + 1, 4) == 11
    assert read_blocks(8 * target, 4) == 8


@pytest.fixture(scope="module")
def wide_table():
    """~12.8 MB of incompressible floats: Ray's own default reads it as
    about one block per MiB, more than the 8 of a 4-CPU session."""
    rng = np.random.default_rng(3)
    n = 400_000
    return pa.table({
        "k": pa.array(np.arange(n) % 3, type=pa.int64()),
        **{f"x{i}": rng.standard_normal(n) for i in range(4)},
    })


@pytest.fixture(scope="module")
def wide_dir(wide_table, tmp_path_factory):
    d = tmp_path_factory.mktemp("wide")
    half = wide_table.num_rows // 2
    pq.write_table(wide_table.slice(0, half), str(d / "part-0.parquet"))
    pq.write_table(wide_table.slice(half), str(d / "part-1.parquet"))
    return str(d)


def _blocks(ds) -> int:
    return ds.materialize().num_blocks()


def test_default_read_is_sized(ray_session, wide_dir):
    import ray.data as rd

    from pystreamfs_ray.sources import read_parquet

    assert _blocks(rd.read_parquet(wide_dir)) > 8
    assert _blocks(read_parquet(wide_dir)) == 8
    assert _blocks(read_parquet(wide_dir, override_num_blocks=2)) == 2


def test_file_list_and_hive_dir_are_sized(ray_session, wide_dir, tmp_path):
    import ray.data as rd

    from pystreamfs_ray.sources import (_list_files, read_parquet,
                                        write_partitioned_parquet)

    files = sorted(os.path.join(wide_dir, f) for f in os.listdir(wide_dir))
    assert _blocks(read_parquet(files)) == 8

    hive = str(tmp_path / "hive")
    write_partitioned_parquet(read_parquet(wide_dir), hive, by="k")
    listed = _list_files(hive)
    assert listed and all("k=" in p for p, _ in listed)
    assert sum(n for _, n in listed) == sum(
        os.path.getsize(os.path.join(r, f))
        for r, _, fs in os.walk(hive) for f in fs)
    assert _blocks(rd.read_parquet(hive)) > 8
    ds = read_parquet(hive)
    assert _blocks(ds) == 8
    assert ds.count() == 400_000
    assert sorted(ds.unique("k")) == ["0", "1", "2"]  # partition column kept


def test_unlisted_path_falls_back_to_ray_default(ray_session, wide_dir):
    """A URI is not stat-ed locally: the read takes Ray's own count."""
    import ray.data as rd

    from pystreamfs_ray.sources import _list_files, read_parquet

    uri = "file://" + wide_dir
    assert _list_files(uri) is None
    assert _blocks(read_parquet(uri)) == _blocks(rd.read_parquet(uri)) > 8


_BEFORE_INIT = """
import sys
sys.path.insert(0, {repo!r})
import ray
from pystreamfs_ray.sources import read_parquet
assert not ray.is_initialized()
ds = read_parquet({path!r})
print(ds.count())
ray.shutdown()
"""


def test_read_parquet_before_ray_init(synth_dirs):
    """Before ``ray.init()`` there are no session CPUs to size from:
    the read falls back to Ray's default and Ray starts itself."""
    path = synth_dirs["transcripts"]
    want = sum(pq.read_metadata(os.path.join(path, f)).num_rows
               for f in os.listdir(path))
    env = {**os.environ, "RAY_ADDRESS": "local"}
    out = subprocess.run(
        [sys.executable, "-c", _BEFORE_INIT.format(repo=str(REPO), path=path)],
        env=env, capture_output=True, text=True, timeout=300,
        start_new_session=True)
    assert out.returncode == 0, out.stderr[-2000:]
    assert int(out.stdout.strip().splitlines()[-1]) == want


def test_outputs_do_not_depend_on_block_count(ray_session, synth_dirs):
    """The same transcripts read as 1, 2 and 8 blocks and with the
    derived count give the same windows in the same order, the same
    as-of join rows and the same summary."""
    from pystreamfs_ray.pipelines.flagship import feature_windows
    from pystreamfs_ray.pipelines.metrics import global_summary
    from pystreamfs_ray.sources import read_parquet
    from pystreamfs_ray.stages.asof import asof_join

    runs = []
    for blocks in (None, 1, 2, 8):
        kw = {} if blocks is None else {"override_num_blocks": blocks}
        src = read_parquet(synth_dirs["transcripts"], **kw)
        assert _blocks(src) == (8 if blocks is None else blocks)
        windows = feature_windows(
            src, kernel=["ofs", "efs", "fsds"], batch_size=20,
            num_features=5, evaluate="knn", max_history=60, num_buckets=8,
        ).materialize()
        joined = asof_join(
            read_parquet(synth_dirs["labels"]),
            windows.select_columns(["conv_id", "window_id", "ts_end", "w",
                                    "selected"]),
            by="conv_id", left_on="ts", right_on="ts_end", how="inner",
        ).to_pandas()
        runs.append((windows.to_pandas().drop(columns=["wall_ms", "mem_bytes"]),
                     joined, global_summary(windows)))

    base_w, base_j, base_s = runs[0]
    assert len(base_w) and len(base_j)
    key = [c for c in base_j.columns if c not in ("w", "selected")]
    base_j = base_j.sort_values(key, ignore_index=True)
    for w, j, s in runs[1:]:
        assert len(w) == len(base_w) and len(j) == len(base_j)
        for col in base_w.columns:
            for a, b in zip(base_w[col], w[col]):
                if isinstance(a, (list, np.ndarray)):
                    np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
                else:
                    assert (a == b) or (pd.isna(a) and pd.isna(b)), col
        j = j.sort_values(key, ignore_index=True)
        pd.testing.assert_frame_equal(j[key], base_j[key])
        for col in ("w", "selected"):
            for a, b in zip(base_j[col], j[col]):
                np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
        for col in ("n_windows", "rows_total", "max_window_id"):
            assert s[col].iloc[0] == base_s[col].iloc[0]
        for col in ("fscr_avg", "acc_avg"):
            np.testing.assert_allclose(s[col].iloc[0], base_s[col].iloc[0],
                                       rtol=1e-12)
