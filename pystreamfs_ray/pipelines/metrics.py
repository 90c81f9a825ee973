"""Metrics over selector output — the engine analog of the reference's
stats dict averages (`/root/reference/pystreamfs/pystreamfs.py:95-98`)
and accuracy percentiles (`:139-140`)."""

from __future__ import annotations

import numpy as np
import pandas as pd

from ray.data.aggregate import Count, Max, Mean, Sum


def global_summary(selector_ds) -> pd.DataFrame:
    """One-row DataFrame: window count, mean wall/fscr/acc, total rows
    (``Dataset.aggregate`` returns a plain row dict)."""
    row = selector_ds.aggregate(
        Count(alias_name="n_windows"),
        Mean("wall_ms", alias_name="time_avg_ms"),
        Mean("mem_bytes", alias_name="memory_avg_bytes"),
        Mean("fscr", alias_name="fscr_avg"),
        Mean("acc", alias_name="acc_avg"),
        Sum("n_rows", alias_name="rows_total"),
        Max("window_id", alias_name="max_window_id"),
    )
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
