"""Output checks, run on every job outside its timed region.

- Window count and the sum of ``n_rows`` follow from the generated
  conversation lengths.
- The as-of join leaks nothing (every ``ts_end_matched <= ts``) and
  matches a pandas ``merge_asof`` of the same inputs row for row.
- For a fixed sample of entities, one of them a mega-conversation when
  the workload has them, ``w`` is allclose to ``oracle.run_stream`` and
  ``selected``, ``acc`` and ``fscr`` equal it. For ``stream_resume``
  the sample spans the cut and the two legs' windows are concatenated.
- ``acc_avg`` and ``fscr_avg`` of ``global_summary`` match the window
  rows and the run's first job to 1e-9 relative (the ``Mean``
  aggregation order moves the last ulp between runs).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from pystreamfs_ray.oracle import run_stream
from pystreamfs_ray.schema import FEATURE_COLS
from pystreamfs_ray.stages.featurize import featurize_batch
from pystreamfs_ray.stages.window import add_lag_delta

from workloads import BATCH_SIZE, NUM_FEATURES, Fixture, JobOutput, Workload

SUMMARY_RTOL = 1e-9
SAMPLE_SIZE = 4


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def _turns_per_leg(fx: Fixture) -> pd.DataFrame:
    """Turns per conversation, split at the cut for a resume workload:
    columns ``n1`` (before the cut, or all) and ``n2`` (after it)."""
    pdf = pd.DataFrame({"conv_id": fx.transcripts["conv_id"].to_numpy(),
                        "leg2": False})
    if fx.cut_ts is not None:
        ts = fx.transcripts["ts"].cast(pa.int64()).to_numpy()
        pdf["leg2"] = ts > fx.cut_ts
    n = pdf.groupby(["conv_id", "leg2"]).size().unstack(fill_value=0)
    return pd.DataFrame({"n1": n.get(False, 0), "n2": n.get(True, 0)})


class Checker:
    """Expected outputs of one fixture, derived once, checked per job."""

    def __init__(self, wl: Workload, fx: Fixture):
        self.wl, self.fx = wl, fx
        legs = _turns_per_leg(fx)
        total = legs["n1"] + legs["n2"]
        if wl.resume_cut is None:
            windows = -(-total // BATCH_SIZE)
            rows = total
        else:
            # leg 1 carries its partial tail window; only leg 2 flushes,
            # so an entity absent from leg 2 never emits that tail
            flushed = legs["n2"] > 0
            windows = np.where(flushed, -(-total // BATCH_SIZE),
                               legs["n1"] // BATCH_SIZE)
            rows = np.where(flushed, total, legs["n1"] // BATCH_SIZE * BATCH_SIZE)
        k = len(wl.kernels)
        self.n_windows = int(windows.sum()) * k
        self.n_rows = int(rows.sum()) * k
        self.sample = self._pick_sample(legs)
        self._oracle: dict | None = None  # computed on the first check
        self._first_summary: dict | None = None

    def _pick_sample(self, legs: pd.DataFrame) -> list[str]:
        """Fixed entities: a mega-conversation if there is one, the
        longest, the median and the shortest of the rest. A resume
        workload samples only entities that span the cut."""
        if self.wl.resume_cut is not None:
            legs = legs[(legs["n1"] > 0) & (legs["n2"] > 0)]
        total = (legs["n1"] + legs["n2"]).sort_values(kind="mergesort")
        picks = []
        if self.wl.mega_turns is not None:
            megas = total[total >= self.wl.mega_turns]
            if len(megas):
                picks.append(megas.index[0])
        rest = total.drop(picks)
        if len(rest):
            picks += [rest.index[-1], rest.index[len(rest) // 2], rest.index[0]]
        return list(dict.fromkeys(picks))[:SAMPLE_SIZE]

    def _oracle_windows(self) -> dict:
        out = {}
        conv = self.fx.transcripts["conv_id"]
        for cid in self.sample:
            t = self.fx.transcripts.filter(pc.equal(conv, cid)).sort_by("turn_idx")
            feats = add_lag_delta(featurize_batch(t).to_pandas())
            X = feats[list(FEATURE_COLS)].to_numpy(dtype=np.float64)
            Y = feats["label"].to_numpy()
            for k in self.wl.kernels:
                out[(k, cid)] = run_stream(
                    X, Y, k, batch_size=BATCH_SIZE, num_features=NUM_FEATURES,
                    conv_id=cid, evaluate=self.wl.evaluate,
                    max_history=self.wl.max_history)
        return out

    def check(self, job: JobOutput) -> None:
        windows = pd.concat([w.to_pandas() for w in job.windows],
                            ignore_index=True)
        self._check_counts(windows)
        self._check_oracle(windows)
        if job.joined is not None:
            self._check_join(job.joined.to_pandas(), windows)
        if job.summary is not None:
            self._check_summary(job.summary.iloc[0].to_dict(), windows)

    def _check_counts(self, windows: pd.DataFrame) -> None:
        _require(len(windows) == self.n_windows,
                 f"{len(windows)} windows, expected {self.n_windows}")
        n_rows = int(windows["n_rows"].sum())
        _require(n_rows == self.n_rows,
                 f"sum(n_rows) = {n_rows}, expected {self.n_rows}")
        dup = windows.duplicated(["kernel", "conv_id", "window_id"]).sum()
        _require(dup == 0, f"{dup} duplicate (kernel, conv_id, window_id) rows")

    def _check_oracle(self, windows: pd.DataFrame) -> None:
        if self._oracle is None:
            self._oracle = self._oracle_windows()
        sub = windows[windows["conv_id"].isin(self.sample)]
        for (k, cid), want in self._oracle.items():
            got = sub[(sub["kernel"] == k) & (sub["conv_id"] == cid)] \
                .sort_values("window_id")
            tag = f"{k}/{cid}"
            _require(len(got) == len(want),
                     f"{tag}: {len(got)} windows, oracle has {len(want)}")
            _require(list(got["window_id"]) == [r["window_id"] for r in want],
                     f"{tag}: window ids differ from the oracle")
            for (_, g), r in zip(got.iterrows(), want):
                wid = r["window_id"]
                _require(int(g["n_rows"]) == r["n_rows"],
                         f"{tag} window {wid}: n_rows differs")
                _require(np.allclose(np.asarray(g["w"], dtype=np.float64), r["w"]),
                         f"{tag} window {wid}: w differs")
                _require(np.array_equal(np.asarray(g["selected"]), r["selected"]),
                         f"{tag} window {wid}: selected differs")
                _require(_same(g["acc"], r["acc"]),
                         f"{tag} window {wid}: acc {g['acc']} vs {r['acc']}")
                _require(_same(g["fscr"], r["fscr"]),
                         f"{tag} window {wid}: fscr {g['fscr']} vs {r['fscr']}")

    def _check_join(self, joined: pd.DataFrame, windows: pd.DataFrame) -> None:
        leak = int((joined["ts_end_matched"] > joined["ts"]).sum())
        _require(leak == 0, f"{leak} joined rows match a window after the label")
        left = self.fx.labels.to_pandas().sort_values("ts", kind="mergesort")
        right = (windows[["conv_id", "ts_end"]].drop_duplicates()
                 .sort_values("ts_end", kind="mergesort"))
        want = pd.merge_asof(left, right, left_on="ts", right_on="ts_end",
                             by="conv_id", direction="backward",
                             allow_exact_matches=True).dropna(subset=["ts_end"])
        _require(len(joined) == len(want),
                 f"{len(joined)} joined rows, merge_asof gives {len(want)}")
        key = ["conv_id", "ts", "ts_end"]
        got = joined.rename(columns={"ts_end_matched": "ts_end"})[key]
        same = (got.sort_values(key, ignore_index=True)
                .equals(want[key].sort_values(key, ignore_index=True)))
        _require(same, "joined (conv_id, ts, ts_end) rows differ from merge_asof")

    def _check_summary(self, summary: dict, windows: pd.DataFrame) -> None:
        _require(int(summary["n_windows"]) == self.n_windows,
                 f"summary n_windows {summary['n_windows']}, expected {self.n_windows}")
        _require(int(summary["rows_total"]) == self.n_rows,
                 f"summary rows_total {summary['rows_total']}, expected {self.n_rows}")
        for col, name in (("acc", "acc_avg"), ("fscr", "fscr_avg")):
            _require(_close(summary[name], windows[col].mean()),
                     f"summary {name} {summary[name]} vs window mean {windows[col].mean()}")
        if self._first_summary is None:
            self._first_summary = summary
        for name in ("acc_avg", "fscr_avg"):
            _require(_close(summary[name], self._first_summary[name]),
                     f"summary {name} changed between jobs")


def _isnan(x) -> bool:
    return x is None or (isinstance(x, float) and math.isnan(x))


def _same(a, b) -> bool:
    if _isnan(a) or _isnan(b):
        return _isnan(a) and _isnan(b)
    return float(a) == float(b)


def _close(a, b) -> bool:
    if _isnan(a) or _isnan(b):
        return _isnan(a) and _isnan(b)
    return math.isclose(float(a), float(b), rel_tol=SUMMARY_RTOL, abs_tol=0.0)
