"""Flagship pipeline: transcripts → featurize → selector → as-of join →
metrics (SURVEY.md §3.4 lifecycle).

Stages and shuffles:

1. ``read_parquet`` (column-pruned) → stateless ``map_batches``
   featurizer (Arrow, zero-copy);
2. shuffle #1: hash-bucket entities → per-bucket stable sort, lag
   features, tumbling windows, sequential kernel fold per entity
   (stateful actor pool when ``concurrency`` is set), optional
   prequential evaluation, per-bucket checkpoint;
3. as-of join of window-end feature state onto label timestamps (zero
   leakage, ``stages/asof.py``). The window side is materialized once;
   at most ``asof.BROADCAST_MAX_BYTES`` in memory it is broadcast and
   each label batch probes it in one ``map_batches`` (no shuffle),
   above that both sides go through shuffle #2, a hash shuffle on the
   entity. Windows of several kernels share (conv_id, ts_end) and the
   ``kernel`` column is not joined: the tie goes to the window that
   comes last in the window Dataset, on either path;
4. metrics aggregation (tiny).
"""

from __future__ import annotations

from typing import Any

from pystreamfs_ray.stages.asof import asof_join
from pystreamfs_ray.stages.featurize import featurize
from pystreamfs_ray.stages.selector import run_selector
from pystreamfs_ray.pipelines.metrics import global_summary


def feature_windows(
    transcripts_ds,
    *,
    kernel: str = "ofs",
    batch_size: int = 50,
    num_features: int = 5,
    kernel_params: dict[str, Any] | None = None,
    evaluate: str | None = None,
    max_history: int | None = None,
    num_buckets: int = 64,
    concurrency=None,
    checkpoint_dir: str | None = None,
    fingerprint: str = "",
    streaming: bool = False,
    flush: bool = True,
    load_state: bool = False,
    salt_eval_threshold: int | None = None,
    salt_chunk_windows: int = 25,
    mem_probe_every: int = 1,
):
    """transcripts → per-(entity, window) selector output Dataset.

    ``salt_eval_threshold`` turns on the SKEW ROUTER for the prequential
    evaluation: the kernel fold is sequential per entity by contract,
    but the eval of a mega-conversation (one entity with ≫ threshold
    turns) is the straggler task that caps utilization. Entities above
    the threshold keep their fold inline but have their eval offloaded
    to the salted parallel evaluator (stages/evaluate.py, bit-identical
    by test) in ``salt_chunk_windows``-window chunks, then the acc
    values are patched back. Mega entities are by definition FEW (the
    skew tail), so the patch table broadcast is bounded; requires
    ``evaluate`` and a bounded ``max_history``.

    Streaming/checkpoint runs salt too (round 4): on a resumed run
    (``load_state=True``) the mega entities' carried eval history +
    pending rows are reconstructed from the bucket state as feature
    rows at their original turn ranks, and the chunk's own rows get
    their lag feature recomputed with the carried boundary timestamp —
    exactly the inline selector's resume math, so the salted eval stays
    bit-equal across a kill/resume boundary (tested). Note the
    per-bucket checkpoint PARQUET stores the unpatched (null) acc for
    skipped entities; the router re-patches on every run, so the
    returned Dataset is always complete."""
    feats = featurize(transcripts_ds)
    salting = bool(salt_eval_threshold and evaluate and max_history)
    mega_ids: frozenset = frozenset()
    if salting:
        # count on the RAW transcripts (one pruned column), not on the
        # featurized rows — the counts pass must not pay the featurizer
        mega_ids = _entities_above(
            transcripts_ds.select_columns(["conv_id"]), "conv_id",
            salt_eval_threshold)
        salting = bool(mega_ids)
    windows = run_selector(
        feats,
        kernel=kernel,
        batch_size=batch_size,
        num_features=num_features,
        kernel_params=kernel_params,
        order_cols=("turn_idx",),
        evaluate=evaluate,
        max_history=max_history,
        num_buckets=num_buckets,
        concurrency=concurrency,
        checkpoint_dir=checkpoint_dir,
        fingerprint=fingerprint,
        streaming=streaming,
        flush=flush,
        load_state=load_state,
        skip_eval_ids=mega_ids,
        mem_probe_every=mem_probe_every,
    )
    if not salting:
        return windows
    # read the PRIOR bucket state before anything executes: running the
    # selector (the materialize below) overwrites it with the post-run
    # state, and the salted evaluator needs the pre-run history
    state_feats, boundary_ts = (None, {})
    if load_state and checkpoint_dir is not None:
        state_feats, boundary_ts = _mega_state_features(
            checkpoint_dir, mega_ids, kernel=kernel,
            kernel_params=kernel_params, num_features=num_features,
            batch_size=batch_size, num_buckets=num_buckets,
            fingerprint=fingerprint)
    # windows feed BOTH the spec extraction and the patch base —
    # materialize so the selector fold runs once (its output is
    # n_windows rows, ~batch_size× smaller than the input; at true
    # scale this is the point where you'd write_parquet instead)
    windows = windows.materialize()
    import ray
    from pystreamfs_ray.stages.evaluate import evaluate_windows

    ids_ref = ray.put(mega_ids)

    def only_mega(t):
        import pyarrow as pa
        import pyarrow.compute as pc

        ids = ray.get(ids_ref)
        return t.filter(pc.is_in(t["conv_id"], value_set=pa.array(list(ids))))

    specs_mega = windows.map_batches(only_mega, batch_format="pyarrow") \
        .select_columns(["kernel", "conv_id", "window_id", "selected"])
    # featurize AFTER the id filter (stateless per row, so filter and
    # featurize commute) — only the few mega entities' rows pay it twice
    feats_mega = featurize(
        transcripts_ds.map_batches(only_mega, batch_format="pyarrow"))
    if state_feats is not None:
        # resumed run: the chunk's lag feature must be computed with the
        # carried boundary timestamp (the inline selector's resume
        # patch), and the carried history/pending rows join the feature
        # side at their original turn ranks — then the evaluator sees
        # the identical per-rank matrix the inline path rebuilds
        import numpy as np
        import ray.data as rd

        from pystreamfs_ray.schema import FEATURE_COLS

        bts_ref = ray.put(boundary_ts)

        def lag_with_boundary(g):
            import pandas as pd  # noqa: F401 (map_groups pandas batch)

            from pystreamfs_ray.stages.window import add_lag_delta

            g = g.sort_values("turn_idx", kind="mergesort", ignore_index=True)
            g = add_lag_delta(g)
            bts = ray.get(bts_ref).get(g["conv_id"].iloc[0])
            if bts is not None and len(g):
                g.loc[0, "f_ts_delta_s"] = float(
                    (g["ts"].to_numpy()[0] - bts) / np.timedelta64(1, "ns")
                ) / 1e9
            return g

        keep_cols = ["conv_id", "turn_idx", "label"] + list(FEATURE_COLS)
        feats_mega = (feats_mega.groupby("conv_id")
                      .map_groups(lag_with_boundary, batch_format="pandas")
                      .select_columns(keep_cols))
        if len(state_feats):
            feats_mega = feats_mega.union(
                rd.from_pandas(state_feats[keep_cols]))
    accs = evaluate_windows(
        feats_mega, specs_mega, batch_size=batch_size,
        max_history=max_history, model=evaluate,
        chunk_windows=salt_chunk_windows,
        num_buckets=min(num_buckets, 64),
    ).to_pandas()  # bounded: windows of the FEW mega entities only
    patch_ref = ray.put({
        (k, c, int(w)): a
        for k, c, w, a in zip(accs["kernel"], accs["conv_id"],
                              accs["window_id"], accs["acc"])
    })

    def patch_acc(df):
        import numpy as np
        import pandas as pd

        ids = ray.get(ids_ref)
        lut = ray.get(patch_ref)
        m = df["conv_id"].isin(ids).to_numpy()
        if m.any():
            keys = list(zip(df.loc[m, "kernel"], df.loc[m, "conv_id"],
                            df.loc[m, "window_id"].astype(int)))
            df = df.copy()
            df.loc[m, "acc"] = pd.array(
                [lut.get(k, np.nan) for k in keys], dtype="float64")
        return df

    return windows.map_batches(patch_acc, batch_format="pandas")


def _mega_state_features(checkpoint_dir: str, mega_ids: frozenset, *,
                         kernel, kernel_params, num_features: int,
                         batch_size: int, num_buckets: int,
                         fingerprint: str):
    """Reconstruct the carried eval history + pending rows of the mega
    entities from the streaming bucket state, as FEATURE ROWS at their
    original per-entity turn ranks.

    The inline selector resumes a window fold with ``Xfull =
    concat(hist, pending, new)``; the salted evaluator instead slices
    train windows by rank, so giving it the hist rows at ranks
    ``[W0·bs − |hist|, W0·bs)`` and the pending rows at ``[W0·bs,
    W0·bs + |pending|)`` (W0 = carried next_window) reproduces the
    identical training sets. Returns ``(rows_df, boundary_ts)`` where
    ``boundary_ts[cid]`` is the timestamp the first NEW row's lag delta
    must be computed against (the selector's resume patch,
    stages/selector.py)."""
    import numpy as np
    import pandas as pd

    from pystreamfs_ray.schema import FEATURE_COLS
    from pystreamfs_ray.state.checkpoint import read_bucket_state
    from pystreamfs_ray.util import bucket_array, params_fingerprint

    names = [kernel] if isinstance(kernel, str) else list(kernel)
    params = dict(kernel_params or {})
    params.setdefault("num_features", num_features)
    lineage = {
        "kernel": ",".join(names),
        "params_fingerprint": params_fingerprint(params),
        "input_fingerprint": fingerprint,
    }
    ids = sorted(mega_ids)
    frames = []
    boundary_ts: dict = {}
    buckets = bucket_array(ids, num_buckets)
    for b in sorted(set(int(x) for x in buckets)):
        states = read_bucket_state(checkpoint_dir, b, lineage=lineage)
        for cid in (set(ids) & set(states)):
            st = states[cid]
            pend_ts = st.get("pending_ts")
            boundary_ts[cid] = (
                pend_ts[-1] if pend_ts is not None and len(pend_ts)
                else st.get("last_ts")
            )
            mat = np.concatenate([st["hist_X"], st["pending_X"]])
            if not len(mat):
                continue
            lab = np.concatenate([st["hist_Y"], st["pending_Y"]])
            w0 = int(st["next_window"])
            start = w0 * batch_size - len(st["hist_X"])
            df = pd.DataFrame(mat, columns=list(FEATURE_COLS))
            df.insert(0, "conv_id", cid)
            df.insert(1, "turn_idx",
                      np.arange(start, start + len(mat), dtype=np.int32))
            df.insert(2, "label", lab.astype(np.int8))
            frames.append(df)
    rows = (pd.concat(frames, ignore_index=True) if frames
            else pd.DataFrame(columns=["conv_id", "turn_idx", "label",
                                       *FEATURE_COLS]))
    return rows, boundary_ts


def _entities_above(ds, entity_col: str, threshold: int,
                    summary_capacity: int = 4096) -> frozenset:
    """Entity ids with row count > threshold, as a SKEW DETECTOR.

    A full per-entity count aggregate would shuffle one partial row per
    (entity, block) — with millions of entities that is as large as the
    input (measured: the naive groupby cost 8 s where the whole counts
    pass should cost well under 1 s). Instead:

    1. candidate pass (bounded-summary heavy hitters): each batch emits
       (id, local_count) only for ids with local_count > len(batch)/k
       (k = ``summary_capacity``; at most k ids can clear that floor),
       plus one sentinel row carrying len(batch). Summing the partials,
       any id's undercount is ≤ Σ len(batch)/k = n/k — the Misra-Gries
       bound — so every entity with true count > threshold has summed
       count > threshold − n/k. Ids above that slack-adjusted cutoff
       are the candidates. Sound at ANY batch/block count (the round-3
       version pigeonholed on an assumed ≤64 blocks and silently went
       lossy beyond it); shuffle ≤ (k+1) rows per batch regardless of
       entity cardinality.
    2. exact pass: count ONLY the candidates (broadcast set, vectorized
       filter) — a shuffle of |candidates| × blocks partial rows —
       because pass-1 sums are undercounts and include near-misses.

    Requires a string-typed ``entity_col`` (the sentinel rides in-band).
    """
    import numpy as np
    import pandas as pd

    import ray
    from pystreamfs_ray.util import arrow_block

    k = int(summary_capacity)
    sentinel = "\x00__rows__"

    def local_heavy(df: pd.DataFrame) -> pd.DataFrame:
        floor = max(1, len(df) // k)
        vc = df[entity_col].value_counts()
        vc = vc[vc > floor]
        return arrow_block(pd.DataFrame({
            entity_col: np.concatenate(
                [vc.index.to_numpy(dtype=object), [sentinel]]),
            "__n": np.concatenate(
                [vc.to_numpy(dtype=np.int64), [len(df)]]),
        }))

    from ray.data.aggregate import Sum

    col = ds.select_columns([entity_col])
    partial = (col.map_batches(local_heavy, batch_format="pandas")
               .groupby(entity_col).aggregate(Sum("__n", alias_name="__n"))
               .to_pandas())
    if len(partial) == 0 or entity_col not in partial.columns:
        return frozenset()
    is_sent = partial[entity_col] == sentinel
    n_total = int(partial.loc[is_sent, "__n"].sum())
    cutoff = int(threshold) - (n_total // k)  # slack-adjusted: no false negatives
    cand_pdf = partial.loc[~is_sent & (partial["__n"] > cutoff)]
    if len(cand_pdf) == 0:
        return frozenset()
    candidates = frozenset(cand_pdf[entity_col])
    cand_ref = ray.put(candidates)

    def count_candidates(df: pd.DataFrame) -> pd.DataFrame:
        cand = ray.get(cand_ref)
        vc = df.loc[df[entity_col].isin(cand), entity_col].value_counts()
        return arrow_block(pd.DataFrame(
            {entity_col: vc.index.to_numpy(), "__n": vc.to_numpy()}))

    from ray.data.aggregate import Sum

    exact = (col.map_batches(count_candidates, batch_format="pandas")
             .groupby(entity_col).aggregate(Sum("__n", alias_name="__n"))
             .filter(expr=f"__n > {int(threshold)}")
             .to_pandas())
    if len(exact) == 0 or entity_col not in exact.columns:
        return frozenset()
    return frozenset(exact[entity_col])


def flagship(
    transcripts_ds,
    labels_ds=None,
    *,
    kernel: str | list = "ofs",
    batch_size: int = 50,
    num_features: int = 5,
    evaluate: str | None = None,
    max_history: int | None = None,
    num_buckets: int = 64,
    concurrency=None,
    checkpoint_dir: str | None = None,
    salt_eval_threshold: int | None = None,
    salt_chunk_windows: int = 25,
):
    """Full pipeline; returns (windows_ds, joined_ds_or_None, summary_df)."""
    windows = feature_windows(
        transcripts_ds,
        kernel=kernel,
        batch_size=batch_size,
        num_features=num_features,
        evaluate=evaluate,
        max_history=max_history,
        num_buckets=num_buckets,
        concurrency=concurrency,
        checkpoint_dir=checkpoint_dir,
        salt_eval_threshold=salt_eval_threshold,
        salt_chunk_windows=salt_chunk_windows,
    )
    joined = None
    if labels_ds is not None:
        joined = asof_join(
            labels_ds,
            windows.select_columns(["conv_id", "window_id", "ts_end", "w", "selected"]),
            by="conv_id",
            left_on="ts",
            right_on="ts_end",
            how="inner",
            num_buckets=num_buckets,
        )
    return windows, joined, global_summary(windows)
