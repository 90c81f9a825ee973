"""Streaming continuation: split a stream into two runs with carried
kernel state + pending rows + bounded eval history → identical output
to one full run (exact mid-stream resume, SURVEY.md §2.8/§4)."""

import glob

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _split_by_turn(dirpath, frac=0.45):
    t = pa.concat_tables([pq.read_table(p) for p in sorted(glob.glob(f"{dirpath}/*.parquet"))])
    df = t.to_pandas()
    cut = df.groupby("conv_id")["turn_idx"].transform(
        lambda s: int(len(s) * frac)
    )
    part1 = df[df["turn_idx"] < cut]
    part2 = df[df["turn_idx"] >= cut]
    return (pa.Table.from_pandas(part1, preserve_index=False),
            pa.Table.from_pandas(part2, preserve_index=False))


@pytest.mark.parametrize("evaluate,max_history", [(None, None), ("knn", 60)])
def test_two_run_streaming_equals_one_shot(ray_session, synth_dirs, tmp_path,
                                           evaluate, max_history):
    import ray.data as rd

    from pystreamfs_ray.pipelines.flagship import feature_windows

    bs = 20
    ckpt = str(tmp_path / f"stream_ckpt_{evaluate}")
    common = dict(kernel=["ofs", "efs"], batch_size=bs, num_features=5,
                  num_buckets=8, evaluate=evaluate, max_history=max_history)

    full = feature_windows(
        rd.read_parquet(synth_dirs["transcripts"]), **common
    ).to_pandas()

    p1, p2 = _split_by_turn(synth_dirs["transcripts"])
    out1 = feature_windows(
        rd.from_arrow(p1), **common,
        streaming=True, flush=False, checkpoint_dir=ckpt,
    ).to_pandas()
    out2 = feature_windows(
        rd.from_arrow(p2), **common,
        streaming=True, flush=True, load_state=True, checkpoint_dir=ckpt,
    ).to_pandas()

    both = pd.concat([out1, out2], ignore_index=True)
    key = ["kernel", "conv_id", "window_id"]
    a = full.sort_values(key, ignore_index=True)
    b = both.sort_values(key, ignore_index=True)
    assert len(a) == len(b)
    assert (a["window_id"].to_numpy() == b["window_id"].to_numpy()).all()
    assert (a["n_rows"].to_numpy() == b["n_rows"].to_numpy()).all()
    for wa, wb in zip(a["w"], b["w"]):
        np.testing.assert_array_equal(np.array(wa), np.array(wb))
    fa, fb = a["fscr"].to_numpy(), b["fscr"].to_numpy()
    assert ((fa == fb) | (np.isnan(fa) & np.isnan(fb))).all()
    if evaluate:
        ea, eb = a["acc"].to_numpy(), b["acc"].to_numpy()
        np.testing.assert_array_equal(ea, eb)


def test_bucket_state_lineage_validation(tmp_path):
    """State written under one kernel/params/input lineage is rejected
    (→ {}) when read back under a different lineage (ADVICE r1)."""
    from pystreamfs_ray.state.checkpoint import read_bucket_state, write_bucket_state

    root = str(tmp_path / "ckpt")
    lin_a = {"kernel": "ofs", "params_fingerprint": "p1", "input_fingerprint": "i1"}
    lin_b = {"kernel": "fsds", "params_fingerprint": "p2", "input_fingerprint": "i1"}
    states = {"conv-0": {"next_window": 7}}
    write_bucket_state(root, 3, states, lineage=lin_a)
    assert read_bucket_state(root, 3, lineage=lin_a) == states
    assert read_bucket_state(root, 3, lineage=lin_b) == {}
    assert read_bucket_state(root, 99, lineage=lin_a) == {}


def test_entity_absent_from_middle_leg_keeps_state(ray_session, tmp_path):
    """Three streaming legs; one entity has no rows in the middle leg.
    Its carried state must survive that leg (its bucket is rewritten
    there for the other entities), so all three legs together still
    equal one full run, that entity included."""
    import ray.data as rd

    from pystreamfs_ray.pipelines.flagship import feature_windows
    from pystreamfs_ray.synth import generate_transcripts

    df = generate_transcripts(6, seed=11, mega_convs=0).to_pandas()
    skip = df["conv_id"].iloc[0]
    n = df.groupby("conv_id")["turn_idx"].transform("size")
    leg = np.where(df["turn_idx"] < 0.35 * n, 0,
                   np.where(df["turn_idx"] < 0.7 * n, 1, 2))
    leg[(df["conv_id"] == skip).to_numpy() & (leg == 1)] = 2
    assert (leg[(df["conv_id"] == skip).to_numpy()] != 1).all()

    ckpt = str(tmp_path / "ckpt")
    common = dict(kernel=["ofs", "efs"], batch_size=7, num_features=5,
                  num_buckets=1, evaluate="knn", max_history=40)
    full = feature_windows(rd.from_pandas(df), **common).to_pandas()
    outs = []
    for i, extra in enumerate([dict(flush=False), dict(flush=False, load_state=True),
                               dict(flush=True, load_state=True)]):
        part = df[leg == i].reset_index(drop=True)
        outs.append(feature_windows(rd.from_pandas(part), **common, streaming=True,
                                    checkpoint_dir=ckpt, **extra).to_pandas())
    key = ["kernel", "conv_id", "window_id"]
    a = full.sort_values(key, ignore_index=True)
    b = pd.concat(outs, ignore_index=True).sort_values(key, ignore_index=True)
    assert (b["conv_id"] == skip).any()
    pd.testing.assert_frame_equal(a[key + ["n_rows", "ts_end"]], b[key + ["n_rows", "ts_end"]])
    for wa, wb in zip(a["w"], b["w"]):
        np.testing.assert_array_equal(np.array(wa), np.array(wb))
    np.testing.assert_array_equal(a["acc"].to_numpy(), b["acc"].to_numpy())
