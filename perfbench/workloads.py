"""The benchmark's three workloads: fixture, timed job and traced pass.

Every workload is a closed-loop batch job: one job at a time, timed
from submit to the fully materialized result. The engine is driven
only through its public functions.

- ``flagship``: Zipf-length conversations plus capped
  mega-conversations; kernels ofs, efs and fsds; prequential KNN
  evaluation; an as-of join onto sparse labels; ``global_summary``.
- ``ingest_join``: the same schema, wide and shallow: no
  mega-conversations, one cheap kernel, no evaluation, dense labels.
- ``stream_resume``: the flagship transcripts cut by one global
  timestamp into two deltas; leg 1 checkpoints its state, leg 2
  resumes from it.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import statistics
import time
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from pystreamfs_ray.pipelines.flagship import feature_windows
from pystreamfs_ray.pipelines.metrics import global_summary
from pystreamfs_ray.sources import read_parquet
from pystreamfs_ray.stages.asof import asof_join
from pystreamfs_ray.stages.featurize import featurize
from pystreamfs_ray.stages.selector import run_selector
from pystreamfs_ray.state.checkpoint import lineage_summary, read_bucket_state
from pystreamfs_ray.synth import generate_labels, generate_transcripts, write_shuffled

from dsstats import layer_sections

BATCH_SIZE = 50
NUM_FEATURES = 5
SELECTOR_BUCKETS = 16
ASOF_BUCKETS = 8
TRANSCRIPT_FILES = 8
LABEL_FILES = 4
WINDOW_COLS = ["conv_id", "window_id", "ts_end", "w", "selected"]
ALL_KERNELS = ("ofs", "efs", "fsds")
WARMUP_SHARE = 0.05  # the warm-up job runs on this share of the turns


@dataclass(frozen=True)
class Workload:
    name: str
    turns: int  # input turns, to the nearest conversation boundary
    mega_convs: int
    mega_turns: int | None
    kernels: tuple[str, ...]
    evaluate: str | None
    max_history: int | None
    label_every: int  # about one label per this many turns; 0 = no join
    resume_cut: float | None = None  # share of turns before the cut

    def scaled(self, share: float) -> "Workload":
        """The same workload on ``share`` of the turns."""
        mega = None if self.mega_turns is None else max(
            2 * BATCH_SIZE, int(self.mega_turns * share))
        return dataclasses.replace(
            self, turns=max(20 * BATCH_SIZE, int(self.turns * share)),
            mega_turns=mega)


# Sizes keep one job near 2 s on one Ray CPU, so a 15-second run takes
# the median of six or seven jobs.
_FLAGSHIP = Workload(
    name="flagship", turns=20_000, mega_convs=4, mega_turns=1_000,
    kernels=ALL_KERNELS, evaluate="knn", max_history=10_000, label_every=20)

WORKLOADS = {
    "flagship": _FLAGSHIP,
    "ingest_join": Workload(
        name="ingest_join", turns=40_000, mega_convs=0, mega_turns=None,
        kernels=("ofs",), evaluate=None, max_history=None, label_every=4),
    "stream_resume": dataclasses.replace(
        _FLAGSHIP, name="stream_resume", max_history=1_000, label_every=0,
        resume_cut=0.7),
}


@dataclass
class Fixture:
    transcripts: pa.Table  # conversation order, kept for the checks
    labels: pa.Table | None
    dirs: dict[str, str]  # Parquet directories the jobs read
    checkpoint_dir: str
    cut_ts: int | None = None  # leg 1 holds the turns with ts <= cut_ts


def _transcripts(wl: Workload, seed: int) -> pa.Table:
    """About ``wl.turns`` turns of whole conversations: generate enough
    conversations, then keep those before the conversation boundary
    nearest ``wl.turns`` (rows come in conversation order)."""
    n_convs = wl.turns // 30 + wl.mega_convs + 8
    while True:
        t = generate_transcripts(n_convs, seed=seed, mega_convs=wl.mega_convs,
                                 mega_turns=wl.mega_turns)
        if t.num_rows > wl.turns:
            break
        n_convs *= 2
    starts = np.flatnonzero(t["turn_idx"].to_numpy() == 0)
    ends = np.append(starts[1:], t.num_rows)
    return t.slice(0, int(ends[np.argmin(np.abs(ends - wl.turns))]))


def make_fixture(wl: Workload, seed: int, root: str) -> Fixture:
    """Generate the workload's inputs from ``seed`` under ``root``."""
    shutil.rmtree(root, ignore_errors=True)
    t = _transcripts(wl, seed)
    dirs = {}
    labels = cut_ts = None
    if wl.resume_cut is not None:
        ts = t["ts"].cast(pa.int64()).to_numpy()
        cut_ts = int(np.quantile(ts, wl.resume_cut))
        before = ts <= cut_ts
        dirs["leg1"] = os.path.join(root, "leg1")
        dirs["leg2"] = os.path.join(root, "leg2")
        write_shuffled(t.filter(pa.array(before)), dirs["leg1"],
                       n_files=TRANSCRIPT_FILES, seed=seed + 1)
        write_shuffled(t.filter(pa.array(~before)), dirs["leg2"],
                       n_files=TRANSCRIPT_FILES, seed=seed + 2)
    else:
        dirs["transcripts"] = os.path.join(root, "transcripts")
        dirs["labels"] = os.path.join(root, "labels")
        write_shuffled(t, dirs["transcripts"], n_files=TRANSCRIPT_FILES,
                       seed=seed + 1)
        labels = generate_labels(t, seed=seed + 2, per_turns=wl.label_every)
        write_shuffled(labels, dirs["labels"], n_files=LABEL_FILES,
                       seed=seed + 3)
    return Fixture(transcripts=t, labels=labels, dirs=dirs,
                   checkpoint_dir=os.path.join(root, "checkpoint"),
                   cut_ts=cut_ts)


@dataclass
class JobOutput:
    wall_s: float
    resume_s: float  # time until newly arrived turns are in the result
    windows: list  # materialized selector outputs (one per leg)
    joined: object = None
    summary: object = None


def _selector_kwargs(wl: Workload) -> dict:
    return dict(kernel=list(wl.kernels), batch_size=BATCH_SIZE,
                num_features=NUM_FEATURES, evaluate=wl.evaluate,
                max_history=wl.max_history, num_buckets=SELECTOR_BUCKETS)


def _join(labels_ds, windows_ds):
    return asof_join(labels_ds, windows_ds.select_columns(WINDOW_COLS),
                     by="conv_id", left_on="ts", right_on="ts_end",
                     how="inner", num_buckets=ASOF_BUCKETS)


def run_job(wl: Workload, fx: Fixture) -> JobOutput:
    """One timed job. A batch job recomputes everything, so the time
    until new turns show (``resume_s``) is its whole wall time."""
    kw = _selector_kwargs(wl)
    if wl.resume_cut is not None:
        shutil.rmtree(fx.checkpoint_dir, ignore_errors=True)
        kw.update(streaming=True, checkpoint_dir=fx.checkpoint_dir)
        t0 = time.perf_counter()
        w1 = feature_windows(read_parquet(fx.dirs["leg1"]), flush=False,
                             **kw).materialize()
        t1 = time.perf_counter()
        w2 = feature_windows(read_parquet(fx.dirs["leg2"]), flush=True,
                             load_state=True, **kw).materialize()
        t2 = time.perf_counter()
        return JobOutput(wall_s=t2 - t0, resume_s=t2 - t1, windows=[w1, w2])
    t0 = time.perf_counter()
    windows = feature_windows(read_parquet(fx.dirs["transcripts"]),
                              **kw).materialize()
    joined = _join(read_parquet(fx.dirs["labels"]), windows).materialize()
    summary = global_summary(windows)
    wall = time.perf_counter() - t0
    return JobOutput(wall_s=wall, resume_s=wall, windows=[windows],
                     joined=joined, summary=summary)


# Per-layer metrics: name -> (unit, better). Layers a workload does not
# run report 0.
LAYER_METRICS = {
    "sources.read_s": ("s", "lower"),
    "sources.rows": ("count", "higher"),
    "featurize.wall_s": ("s", "lower"),
    "featurize.cpu_s": ("s", "lower"),
    "exchange.cpu_s": ("s", "lower"),
    "selector.wall_s": ("s", "lower"),
    "selector.overhead_s": ("s", "lower"),
    "fold.cpu_s": ("s", "lower"),
    "fold.tasks": ("count", "lower"),
    "fold.max_task_s": ("s", "lower"),
    "fold.mean_task_s": ("s", "lower"),
    "fold.other_cpu_s": ("s", "lower"),
    **{f"kernels.{k}.update_s": ("s", "lower") for k in ALL_KERNELS},
    "asof.wall_s": ("s", "lower"),
    "asof.cpu_s": ("s", "lower"),
    "asof.overhead_s": ("s", "lower"),
    "asof.rows_out": ("count", "higher"),
    "metrics.summary_s": ("s", "lower"),
    "checkpoint.leg1_s": ("s", "lower"),
    "checkpoint.state_bytes": ("bytes", "lower"),
    "checkpoint.data_bytes": ("bytes", "lower"),
    "checkpoint.read_state_s": ("s", "lower"),
    "checkpoint.manifest_rows_per_s": ("rows/s", "higher"),
    "checkpoint.state_entities": ("count", "higher"),
    "checkpoint.seen_entities": ("count", "higher"),
    "setup.ray_init_s": ("s", "lower"),
    "setup.fixture_s": ("s", "lower"),
    "setup.warmup_s": ("s", "lower"),
}


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _selector_layer(m: dict, windows, feats, wall: float) -> float:
    """Add one selector run's exchange and fold figures to ``m``; returns
    the fold's summed task wall time."""
    secs = layer_sections(windows, feats)
    fold = [s for s in secs if "BucketSelector" in s.name]
    if len(fold) != 1:
        raise RuntimeError(f"expected one BucketSelector operator, got "
                           f"{[s.name for s in secs]}")
    fold = fold[0]
    exchange = sum(s.cpu_total_s for s in secs if s is not fold)
    m["selector.wall_s"] += wall
    m["exchange.cpu_s"] += exchange
    m["selector.overhead_s"] += wall - exchange - fold.cpu_total_s
    m["fold.cpu_s"] += fold.cpu_total_s
    m["fold.tasks"] += fold.tasks
    m["fold.max_task_s"] = max(m["fold.max_task_s"], fold.wall_max_s)
    return fold.wall_total_s


def _kernel_updates(m: dict, windows) -> None:
    """Sum of the selector's own per-window kernel update time."""
    pdf = windows.select_columns(["kernel", "wall_ms"]).to_pandas()
    for k, ms in pdf.groupby("kernel")["wall_ms"].sum().items():
        m[f"kernels.{k}.update_s"] += ms / 1000.0


def traced_pass(wl: Workload, fx: Fixture) -> tuple[dict, JobOutput]:
    """The job again, materialized at every layer boundary, with a span
    around each layer call and ``Dataset.stats()`` parsed per layer."""
    t_start = time.perf_counter()
    m = {name: 0.0 for name in LAYER_METRICS if not name.startswith("setup.")}
    kw = _selector_kwargs(wl)
    legs = ["leg1", "leg2"] if wl.resume_cut is not None else ["transcripts"]

    t0 = time.perf_counter()
    srcs = [read_parquet(fx.dirs[leg]).materialize() for leg in legs]
    labels = (read_parquet(fx.dirs["labels"]).materialize()
              if "labels" in fx.dirs else None)
    m["sources.read_s"] = time.perf_counter() - t0
    m["sources.rows"] = sum(s.count() for s in srcs) + (
        labels.count() if labels is not None else 0)

    feats = []
    for src in srcs:
        f, wall = _timed(lambda: featurize(src).materialize())
        m["featurize.wall_s"] += wall
        m["featurize.cpu_s"] += sum(s.cpu_total_s for s in layer_sections(f, src))
        feats.append(f)

    windows, walls, fold_wall = [], [], 0.0
    if wl.resume_cut is not None:
        shutil.rmtree(fx.checkpoint_dir, ignore_errors=True)
        kw.update(streaming=True, checkpoint_dir=fx.checkpoint_dir)
        leg_kw = [dict(flush=False), dict(flush=True, load_state=True)]
    else:
        leg_kw = [{}]
    for f, extra in zip(feats, leg_kw):
        w, wall = _timed(lambda: run_selector(f, order_cols=("turn_idx",),
                                              **kw, **extra).materialize())
        fold_wall += _selector_layer(m, w, f, wall)
        _kernel_updates(m, w)
        windows.append(w)
        walls.append(wall)
    m["fold.mean_task_s"] = fold_wall / max(1, m["fold.tasks"])
    m["fold.other_cpu_s"] = m["fold.cpu_s"] - sum(
        m[f"kernels.{k}.update_s"] for k in ALL_KERNELS)

    joined = summary = None
    if labels is not None:
        joined, wall = _timed(lambda: _join(labels, windows[0]).materialize())
        cpu = sum(s.cpu_total_s for s in layer_sections(joined, labels, windows[0]))
        m["asof.wall_s"] = wall
        m["asof.cpu_s"] = cpu
        m["asof.overhead_s"] = wall - cpu
        m["asof.rows_out"] = joined.count()
        summary, m["metrics.summary_s"] = _timed(lambda: global_summary(windows[0]))
    if wl.resume_cut is not None:
        m["checkpoint.leg1_s"] = walls[0]
        _checkpoint_layer(m, fx)
    total = time.perf_counter() - t_start
    out = JobOutput(wall_s=total, resume_s=total, windows=windows,
                    joined=joined, summary=summary)
    return m, out


def _checkpoint_layer(m: dict, fx: Fixture) -> None:
    """State and data written by the two streaming legs, read back from
    outside through the checkpoint module's public readers."""
    sizes = {"state.pkl": 0, "data.parquet": 0}
    for dirpath, _, files in os.walk(fx.checkpoint_dir):
        for f in files:
            if f in sizes:
                sizes[f] += os.path.getsize(os.path.join(dirpath, f))
    m["checkpoint.state_bytes"] = sizes["state.pkl"]
    m["checkpoint.data_bytes"] = sizes["data.parquet"]
    t0 = time.perf_counter()
    states = [read_bucket_state(fx.checkpoint_dir, b)
              for b in range(SELECTOR_BUCKETS)]
    m["checkpoint.read_state_s"] = time.perf_counter() - t0
    m["checkpoint.state_entities"] = sum(len(s) for s in states)
    m["checkpoint.seen_entities"] = len(set(
        fx.transcripts["conv_id"].to_pylist()))
    rates = [r["rows_per_sec"] for r in lineage_summary(fx.checkpoint_dir)
             if r.get("rows_per_sec")]
    m["checkpoint.manifest_rows_per_s"] = statistics.median(rates) if rates else 0.0
