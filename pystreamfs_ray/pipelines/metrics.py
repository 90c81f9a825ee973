"""Metrics over selector output — the engine analog of the reference's
stats dict averages (`/root/reference/pystreamfs/pystreamfs.py:95-98`)
and accuracy percentiles (`:139-140`)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.compute as pc
import ray

from pystreamfs_ray.stages.joins import _to_arrow

# summary column -> the selector-output column it averages
_MEANS = {"time_avg_ms": "wall_ms", "memory_avg_bytes": "mem_bytes",
          "fscr_avg": "fscr", "acc_avg": "acc"}


def _block_partials(block) -> tuple:
    """One block's partials: its row count, the (sum, non-null count)
    of each averaged column, the sum of ``n_rows`` and the max of
    ``window_id``. A sum or max over no values is None."""
    t = _to_arrow(block)
    if not t.num_rows:  # Ray may hand a zero-row block without a schema
        return 0, [(None, 0)] * len(_MEANS), None, None
    means = [(pc.sum(t[c]).as_py(), pc.count(t[c]).as_py())
             for c in _MEANS.values()]
    return (t.num_rows, means, pc.sum(t["n_rows"]).as_py(),
            pc.max(t["window_id"]).as_py())


def _present(values) -> list:
    return [v for v in values if v is not None]


def global_summary(selector_ds) -> pd.DataFrame:
    """One-row DataFrame: window count, mean wall/memory/fscr/acc, total
    rows and the largest window id. One plain task per block computes
    that block's partials as the block arrives; they are combined here
    in block order. A materialized input costs no Ray Data execution, a
    lazy one the execution that makes its blocks. A value over no rows
    is None (object dtype), so a zero-row input gives ``n_windows`` 0
    and None elsewhere."""
    partials = ray.remote(_block_partials)
    parts = ray.get([partials.remote(ref)
                     for bundle in selector_ds.iter_internal_ref_bundles()
                     for ref, _ in bundle.blocks])
    row = {"n_windows": sum(p[0] for p in parts)}
    for i, name in enumerate(_MEANS):
        sums = _present(p[1][i][0] for p in parts)
        count = sum(p[1][i][1] for p in parts)
        row[name] = sum(sums) / count if count else None
    rows, tops = _present(p[2] for p in parts), _present(p[3] for p in parts)
    row["rows_total"] = sum(rows) if rows else None
    row["max_window_id"] = max(tops) if tops else None
    return pd.DataFrame([row])


def accuracy_over_time(selector_ds):
    """Accuracy mean + Q1/Q3 band per window ordinal across entities
    (the reference's accuracy plot panel, pystreamfs.py:136-140)."""

    def _q(g: pd.DataFrame) -> pd.DataFrame:
        acc = g["acc"].dropna().to_numpy()
        fscr = g["fscr"].dropna().to_numpy()
        return pd.DataFrame(
            {
                "window_id": [g["window_id"].iloc[0]],
                "n_entities": [len(g)],
                "acc_mean": [float(np.mean(acc)) if acc.size else None],
                "acc_q1": [float(np.percentile(acc, 25)) if acc.size else None],
                "acc_q3": [float(np.percentile(acc, 75)) if acc.size else None],
                "fscr_mean": [float(np.mean(fscr)) if fscr.size else None],
            }
        )

    return selector_ds.groupby("window_id").map_groups(_q, batch_format="pandas")
