"""CLI surface: flagship over parquet paths → partitioned outputs."""

import glob
import json

import pyarrow.parquet as pq


def test_cli_end_to_end(ray_session, synth_dirs, tmp_path, capsys):
    from pystreamfs_ray.cli import main

    out = str(tmp_path / "out")
    rc = main([
        "--transcripts", synth_dirs["transcripts"],
        "--labels", synth_dirs["labels"],
        "--out", out,
        "--kernel", "ofs",
        "--batch-size", "20",
        "--evaluate", "knn", "--max-history", "100",
        "--checkpoint-dir", str(tmp_path / "ckpt"),
        "--num-buckets", "8",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["windows"] > 0 and report["joined"] > 0

    assert glob.glob(f"{out}/windows/*.parquet")
    assert glob.glob(f"{out}/joined/*.parquet")
    s = pq.read_table(f"{out}/summary.parquet").to_pandas()
    assert 0 <= float(s["acc_avg"][0]) <= 1

    # manifests carry lineage + throughput + watermark lag
    from pystreamfs_ray.state.checkpoint import lineage_summary

    mani = lineage_summary(str(tmp_path / "ckpt"))
    assert mani and all(m["rows_per_sec"] > 0 for m in mani)
    assert all(m.get("window_lag_s") is not None for m in mani)


def test_cli_eval_path_matches_direct_run(ray_session, synth_dirs, tmp_path,
                                          capsys):
    """The CLI with --evaluate writes the same windows/ and
    summary.parquet as feature_windows() + global_summary() on the same
    input (wall_ms and mem_bytes are timings and left out)."""
    import numpy as np
    import pandas as pd

    from pystreamfs_ray.cli import main
    from pystreamfs_ray.pipelines.flagship import feature_windows
    from pystreamfs_ray.pipelines.metrics import global_summary
    from pystreamfs_ray.sources import read_parquet

    out = str(tmp_path / "out")
    assert main([
        "--transcripts", synth_dirs["transcripts"],
        "--out", out,
        "--kernel", "ofs",
        "--batch-size", "20",
        "--evaluate", "knn", "--max-history", "100",
        "--num-buckets", "4",
    ]) == 0
    capsys.readouterr()
    direct = feature_windows(
        read_parquet(synth_dirs["transcripts"]), kernel="ofs", batch_size=20,
        num_features=5, evaluate="knn", max_history=100, num_buckets=4,
    ).materialize()

    key = ["kernel", "conv_id", "window_id"]
    timing = ["wall_ms", "mem_bytes"]
    got = (pq.read_table(f"{out}/windows").to_pandas().drop(columns=timing)
           .sort_values(key, ignore_index=True))
    want = (direct.to_pandas().drop(columns=timing)
            .sort_values(key, ignore_index=True))
    assert len(got) == len(want) > 0
    assert got["acc"].notna().any()
    assert list(got.columns) == list(want.columns)
    for col in got.columns:
        if col in ("w", "selected"):
            for a, b in zip(got[col], want[col]):
                np.testing.assert_array_equal(a, b, err_msg=col)
        else:
            pd.testing.assert_series_equal(got[col], want[col], obj=col)

    s_got = pq.read_table(f"{out}/summary.parquet").to_pandas()
    s_want = global_summary(direct)
    cols = [c for c in s_want.columns
            if c not in ("time_avg_ms", "memory_avg_bytes")]
    # means are summed per block, then combined: compare them to 1e-12
    pd.testing.assert_frame_equal(s_got[cols], s_want[cols],
                                  check_exact=False, rtol=1e-12)


def test_flagship_runs_selector_once(ray_session, synth_dirs, tmp_path,
                                     monkeypatch, capsys):
    """flagship() (and the CLI on top of it) executes the selector fold
    once, although the as-of join and the summary both read its output.
    Every selector output row passes a marker stage that logs its batch
    size to a file, so the logged rows add up to n_windows per run of
    the fold."""
    import os
    import uuid

    import ray.data as rd

    import pystreamfs_ray.pipelines.flagship as F
    from pystreamfs_ray.cli import main

    marks = tmp_path / "marks"
    marks.mkdir()
    run_selector = F.run_selector

    def marked_selector(*args, **kwargs):
        d = str(marks)

        def mark(batch):
            with open(os.path.join(d, uuid.uuid4().hex), "w") as fh:
                fh.write(str(batch.num_rows))
            return batch

        return run_selector(*args, **kwargs).map_batches(
            mark, batch_format="pyarrow")

    def logged_rows() -> int:
        n = sum(int(p.read_text()) for p in marks.iterdir())
        for p in marks.iterdir():
            p.unlink()
        return n

    monkeypatch.setattr(F, "run_selector", marked_selector)
    windows, joined, summary = F.flagship(
        rd.read_parquet(synth_dirs["transcripts"]),
        rd.read_parquet(synth_dirs["labels"]),
        kernel="ofs", batch_size=20, evaluate="knn", max_history=100,
        num_buckets=4)
    n_windows = int(summary["n_windows"][0])
    assert joined.count() > 0 and windows.count() == n_windows > 0
    assert logged_rows() == n_windows

    assert main([
        "--transcripts", synth_dirs["transcripts"],
        "--labels", synth_dirs["labels"],
        "--out", str(tmp_path / "out"),
        "--kernel", "ofs", "--batch-size", "20",
        "--evaluate", "knn", "--max-history", "100",
        "--num-buckets", "4",
    ]) == 0
    capsys.readouterr()
    assert logged_rows() == n_windows


def test_cli_curate_end_to_end(ray_session, tmp_path, capsys):
    """Curation CLI: dedup+filters+budget → Hive layout + report."""
    from pystreamfs_ray.cli_curate import main

    out = str(tmp_path / "curated")
    rc = main([
        "--documents", "/root/testdata/sf0.001/documents.parquet",
        "--out", out,
        "--lang", "en", "--quality-min", "0.2",
        "--dedup", "keep-best", "--budget-tokens", "1200",
        "--join-partitions", "2",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["n_docs"] > 0 and report["total_tokens"] > 0

    # resumable Hive layout: one directory per source
    src_dirs = glob.glob(f"{out}/docs/source=*")
    assert len(src_dirs) > 1
    t = pq.read_table(src_dirs[0])
    assert {"doc_id", "n_tokens", "quality_score"} <= set(t.column_names)
    # per-source budget respected
    full = json.load(open(f"{out}/report.json"))
    assert all(s["total_tokens"] <= 1200 for s in full["sources"])


def test_cli_curate_resume_skips_done_sources(ray_session, tmp_path, capsys):
    """--resume leaves finished source partitions alone and the report
    still covers the full on-disk corpus."""
    import os

    from pystreamfs_ray.cli_curate import main

    out = str(tmp_path / "curated_r")
    args = ["--documents", "/root/testdata/sf0.001/documents.parquet",
            "--out", out, "--lang", "en", "--quality-min", "0.2",
            "--join-partitions", "2"]
    assert main(args) == 0
    first = json.load(open(f"{out}/report.json"))
    src_dirs = sorted(glob.glob(f"{out}/docs/source=*"))
    # tamper-proof marker: file count per done partition must not change
    before = {d: len(glob.glob(f"{d}/*.parquet")) for d in src_dirs}
    mtimes = {d: max(os.path.getmtime(f) for f in glob.glob(f"{d}/*.parquet"))
              for d in src_dirs}

    capsys.readouterr()
    assert main(args + ["--resume"]) == 0
    second = json.load(open(f"{out}/report.json"))
    # nothing rewritten...
    after = {d: len(glob.glob(f"{d}/*.parquet")) for d in src_dirs}
    mtimes2 = {d: max(os.path.getmtime(f) for f in glob.glob(f"{d}/*.parquet"))
               for d in src_dirs}
    assert after == before and mtimes2 == mtimes
    # ...and the report still reflects the full corpus
    assert second["n_docs"] == first["n_docs"]
    assert second["total_tokens"] == first["total_tokens"]
