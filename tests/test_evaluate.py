"""Salted distributed evaluation == inline per-entity evaluation."""

import numpy as np
import pandas as pd
import pytest


@pytest.mark.parametrize("model", ["knn", "tree"])
def test_salted_eval_matches_inline(ray_session, synth_dirs, model):
    import ray.data as rd

    from pystreamfs_ray.pipelines.flagship import feature_windows
    from pystreamfs_ray.stages.evaluate import evaluate_windows
    from pystreamfs_ray.stages.featurize import featurize

    ds = rd.read_parquet(synth_dirs["transcripts"])
    bs, hist = 20, 100

    inline = feature_windows(
        ds, kernel="ofs", batch_size=bs, num_features=5, num_buckets=8,
        evaluate=model, max_history=hist,
    ).to_pandas()

    # two-phase: selector without eval → salted eval stage.
    # chunk_windows small (3) so several chunks per entity exercise the
    # replication/salting path.
    specs = feature_windows(
        ds, kernel="ofs", batch_size=bs, num_features=5, num_buckets=8,
    )
    feats = featurize(rd.read_parquet(synth_dirs["transcripts"]))

    def add_lag(g: pd.DataFrame) -> pd.DataFrame:
        from pystreamfs_ray.stages import window as W

        return W.add_lag_delta(W.sort_entity(g))

    from pystreamfs_ray.stages.window import per_bucket

    feats = per_bucket(feats, add_lag, num_buckets=8)
    acc = evaluate_windows(
        feats,
        specs.select_columns(["kernel", "conv_id", "window_id", "selected"]),
        batch_size=bs, max_history=hist, model=model,
        chunk_windows=3, num_buckets=8,
    ).to_pandas()

    key = ["conv_id", "window_id"]
    a = inline[[*key, "acc"]].sort_values(key, ignore_index=True)
    b = acc[[*key, "acc"]].sort_values(key, ignore_index=True)
    assert len(a) == len(b)
    assert (a["conv_id"] == b["conv_id"]).all()
    assert (a["window_id"].to_numpy() == b["window_id"].to_numpy()).all()
    np.testing.assert_array_equal(a["acc"].to_numpy(), b["acc"].to_numpy())


def test_eval_join_fallback_matches_broadcast(ray_session, synth_dirs,
                                              broadcast_paths):
    """The "shuffle" path forces the distributed hash-join cap path;
    output must equal the broadcast-map path bit for bit."""
    import ray.data as rd

    from pystreamfs_ray.pipelines.flagship import feature_windows
    from pystreamfs_ray.stages.evaluate import evaluate_windows
    from pystreamfs_ray.stages.featurize import featurize
    from pystreamfs_ray.stages.window import per_bucket

    ds = rd.read_parquet(synth_dirs["transcripts"])
    bs, hist = 20, 100
    specs = feature_windows(
        ds, kernel="ofs", batch_size=bs, num_features=5, num_buckets=8,
    ).select_columns(["kernel", "conv_id", "window_id", "selected"])

    def add_lag(g: pd.DataFrame) -> pd.DataFrame:
        from pystreamfs_ray.stages import window as W

        return W.add_lag_delta(W.sort_entity(g))

    feats = per_bucket(featurize(rd.read_parquet(synth_dirs["transcripts"])),
                       add_lag, num_buckets=8)
    kw = dict(batch_size=bs, max_history=hist, model="knn",
              chunk_windows=3, num_buckets=8)
    a, b = (evaluate_windows(feats, specs, **kw).to_pandas()
            for _ in broadcast_paths())
    key = ["kernel", "conv_id", "window_id"]
    a = a.sort_values(key, ignore_index=True)
    b = b.sort_values(key, ignore_index=True)
    pd.testing.assert_frame_equal(a, b)
