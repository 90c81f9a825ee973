"""Selector stage: per-entity sequential kernel folds, parallel across
entity buckets, as one stateless ``map_groups`` task per bucket.

This is the engine form of the reference's ``simulate_stream`` loop
(`/root/reference/pystreamfs/pystreamfs.py:59-90`): within one entity
the kernel state is threaded window-to-window (strictly sequential —
the reference contract forbids intra-entity parallelism); across
entities everything is parallel. Entities are hash-bucketed once
(shuffle #1) and each bucket runs as one group task. The bucket map
(``window.add_bucket``) also prunes each batch to the columns the fold
reads; it fuses with the read → featurize maps, so the stage probes no
schema and the whole stage is one Ray Data execution. The stage passes
a constructed ``BucketSelector``, so the kernel registry resolves once,
in ``__init__``, when the stage is built. ``map_groups`` hands each
bucket over as a pyarrow table; the stage sorts and reads it as numpy
and never builds a pandas frame.

Per entity × window the stage emits: weight vector ``w``, top-m
``selected`` set, ``fscr`` vs the previous window
(`/root/reference/pystreamfs/utils.py:4-18`), optional prequential
accuracy (`utils.py:21-54`), window-end timestamp and kernel wall time.

Optional per-bucket checkpointing (see ``state/checkpoint.py``): each
bucket atomically writes its rows + a manifest line; a resumed run skips
finished buckets entirely.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from pystreamfs_ray.kernels.base import fscr as fscr_score
from pystreamfs_ray.kernels.base import top_m_features
from pystreamfs_ray.models import MODELS, gather_selected
from pystreamfs_ray.util import rss_bytes
from pystreamfs_ray.schema import FEATURE_COLS, SELECTOR_OUTPUT_SCHEMA
from pystreamfs_ray.stages.window import add_bucket, lag_delta_seconds
from pystreamfs_ray.util import params_fingerprint


def _list_column(rows: list[np.ndarray], dtype) -> pa.ListArray:
    """One list<dtype> column from per-row vectors: one flat values array
    plus offsets, no per-element Python objects."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    flat = np.concatenate(rows).astype(dtype, copy=False) if rows else np.zeros(0, dtype)
    return pa.ListArray.from_arrays(pa.array(offsets), pa.array(flat))


def _entity_slices(keys: np.ndarray) -> list[tuple[int, int]]:
    """[start, end) slices of equal consecutive keys (input pre-sorted)."""
    if len(keys) == 0:
        return []
    bounds = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(keys)]))
    return list(zip(starts, ends))


class BucketSelector:
    """Callable-class group runner: one call = one entity bucket."""

    __name__ = "BucketSelector"  # map_groups expects named callables

    def __init__(
        self,
        kernel: str | list[str] = "ofs",
        batch_size: int = 50,
        num_features: int = 5,
        kernel_params: dict[str, Any] | None = None,
        entity_col: str = "conv_id",
        order_cols: tuple = ("turn_idx",),
        feature_cols: list[str] | None = None,
        label_col: str = "label",
        ts_col: str | None = "ts",
        evaluate: str | None = None,
        max_history: int | None = None,
        checkpoint_dir: str | None = None,
        fingerprint: str = "",
        streaming: bool = False,
        flush: bool = True,
        load_state: bool = False,
        num_buckets: int | None = None,
    ):
        # resolve kernels once, when the stage is built, not per bucket.
        # A list runs several kernels per entity in ONE pass — the shuffle
        # is paid once and amortized over every kernel's fold.
        from pystreamfs_ray.kernels import get_kernel

        names = [kernel] if isinstance(kernel, str) else list(kernel)
        self.kernels = [(n, get_kernel(n)) for n in names]
        self.kernel_name = ",".join(names)
        self.batch_size = batch_size
        self.num_features = num_features
        self.kernel_params = dict(kernel_params or {})
        self.kernel_params.setdefault("num_features", num_features)
        self.entity_col = entity_col
        self.order_cols = tuple(order_cols)
        self.feature_cols = list(feature_cols or FEATURE_COLS)
        self.label_col = label_col
        self.ts_col = ts_col
        self.evaluate = evaluate
        self.max_history = max_history
        self.checkpoint_dir = checkpoint_dir
        self.fingerprint = fingerprint
        self.num_buckets = num_buckets  # recorded in the lineage only
        # streaming continuation: don't emit the short tail window —
        # carry it (plus bounded eval history) in per-bucket state so a
        # later run over NEW rows continues the same stream exactly
        # (reference semantics resume mid-stream). flush=True emits the
        # tail (reference one-shot behavior, pystreamfs.py:59).
        self.streaming = streaming
        self.flush = flush
        self.load_state = load_state
        if streaming and evaluate and max_history is None:
            raise ValueError(
                "streaming continuation with evaluation needs a bounded "
                "max_history (the unbounded prefix cannot be carried)"
            )

    def lineage(self) -> dict:
        """The lineage record stored with per-bucket state and manifests
        and checked on load — the trust rule of ``completed_buckets``."""
        from pystreamfs_ray.state.checkpoint import selector_lineage

        return selector_lineage(
            kernel=self.kernel_name,
            params_fp=params_fingerprint(self.kernel_params),
            input_fp=self.fingerprint, num_buckets=self.num_buckets,
            batch_size=self.batch_size, evaluate=self.evaluate,
            max_history=self.max_history)

    def _classify(self, Xfull, Yfull, hist_n, i, selected, model, first: bool,
                  sel_cache: dict, acc_cache: dict):
        """Prequential eval with cross-run history: train on (carried
        history + this run's prefix), bounded by max_history — identical
        to oracle.classify_window when history is empty.

        ``Xfull`` = concat(history, run rows), built ONCE per entity.
        The model sees the set through ``gather_selected``, so the
        result depends on the set, not on a kernel's ranking of it.
        Two per-entity caches, keyed by the sorted set: ``acc_cache``
        maps (window start, set) to the accuracy, so kernels that agree
        on a window's set evaluate it once; ``sel_cache`` holds the last
        8 sets' gathers and row norms: the selected set is stable across
        most windows, so the whole-prefix column gather + norm pass
        amortize to ~once per entity instead of once per window. Values
        are identical to the uncached path."""
        key = tuple(np.sort(selected).tolist())
        acc = acc_cache.get((i, key))
        if acc is not None:
            return acc
        ent = sel_cache.get(key)
        if ent is None:
            if len(sel_cache) >= 8:  # tiny LRU: drop the oldest gather
                sel_cache.pop(next(iter(sel_cache)))
            Xsel = gather_selected(Xfull, selected)
            ent = (Xsel, np.einsum("ij,ij->i", Xsel, Xsel))
            sel_cache[key] = ent
        Xsel, norms = ent
        hi = hist_n + i
        x_test = Xsel[hi:hi + self.batch_size]
        y_test = Yfull[hi:hi + self.batch_size]
        if first and i == 0 and hist_n == 0:
            # reference window-0 case: train on itself
            model.fit(x_test, y_test, norms[hi:hi + self.batch_size])
        else:
            lo = 0 if self.max_history is None else max(0, hi - self.max_history)
            model.fit(Xsel[lo:hi], Yfull[lo:hi], norms[lo:hi])
        pred = model.predict(x_test)
        acc = float(np.mean(pred == np.asarray(y_test, dtype=np.int64)))
        acc_cache[(i, key)] = acc
        return acc

    def _read_bucket(self, group: pa.Table):
        """Sort the bucket by (entity, order columns) and read it as
        numpy: entity keys, float64 features, labels and timestamps.

        A missing ``f_ts_delta_s`` is computed here, after the one
        shuffle, since the lag needs entity order."""
        order = pc.sort_indices(group, sort_keys=[
            (c, "ascending") for c in (self.entity_col, *self.order_cols)
        ]).to_numpy()

        def col(name):
            return group.column(name).to_numpy()[order]

        conv = col(self.entity_col)
        ts_all = (col(self.ts_col)
                  if self.ts_col and self.ts_col in group.column_names else None)
        X_all = np.empty((len(order), len(self.feature_cols)))
        for j, c in enumerate(self.feature_cols):
            if c in group.column_names:
                X_all[:, j] = col(c)
            elif c == "f_ts_delta_s" and ts_all is not None:
                X_all[:, j] = lag_delta_seconds(conv, ts_all)
            else:
                raise KeyError(c)
        return conv, X_all, col(self.label_col), ts_all

    def __call__(self, group: pa.Table) -> pa.Table:
        t_start = time.perf_counter()
        bucket_id = (int(group.column("__bucket")[0].as_py())
                     if "__bucket" in group.column_names else -1)
        conv, X_all, Y_all, ts_all = self._read_bucket(group)

        o_kern: list[str] = []
        o_conv: list[str] = []
        o_wid: list[int] = []
        o_tsend: list = []
        o_nrows: list[int] = []
        o_w: list[np.ndarray] = []
        o_sel: list[np.ndarray] = []
        o_fscr: list = []
        o_acc: list = []
        o_wall: list[float] = []
        o_mem: list[int] = []

        prior_states: dict = {}
        if self.load_state and self.checkpoint_dir is not None and bucket_id >= 0:
            from pystreamfs_ray.state.checkpoint import read_bucket_state

            prior_states = read_bucket_state(
                self.checkpoint_dir, bucket_id, lineage=self.lineage()
            )
        # entities absent from this run keep their carried state as is
        new_states: dict = dict(prior_states)

        bs = self.batch_size
        n_convs = 0
        for s, e in _entity_slices(conv):
            n_convs += 1
            cid = conv[s]
            prior = prior_states.get(cid)
            Xn, Yn = X_all[s:e], Y_all[s:e]
            tsn = ts_all[s:e] if ts_all is not None else None
            if (
                prior is not None
                and tsn is not None
                and len(Xn)
                and "f_ts_delta_s" in self.feature_cols
            ):
                # the first new row's lag-delta predecessor lives in the
                # previous run: patch it from the carried timestamp
                pend_ts = prior.get("pending_ts")
                last_ts = (
                    pend_ts[-1] if pend_ts is not None and len(pend_ts)
                    else prior.get("last_ts")
                )
                if last_ts is not None:
                    li = self.feature_cols.index("f_ts_delta_s")
                    Xn[0, li] = float(
                        (tsn[0] - last_ts) / np.timedelta64(1, "ns")
                    ) / 1e9
            if prior is not None:
                X = np.concatenate([prior["pending_X"], Xn])
                Y = np.concatenate([prior["pending_Y"], Yn])
                tsv = (np.concatenate([prior["pending_ts"], tsn])
                       if tsn is not None and prior["pending_ts"] is not None else tsn)
                hist_X, hist_Y = prior["hist_X"], prior["hist_Y"]
                wid0 = prior["next_window"]
            else:
                X, Y, tsv = Xn, Yn, tsn
                hist_X = np.zeros((0, X_all.shape[1]), dtype=np.float32)
                hist_Y = np.zeros((0,), dtype=Y_all.dtype)
                wid0 = 0

            n_full = (X.shape[0] // bs) * bs
            stop = X.shape[0] if (not self.streaming or self.flush) else n_full

            hist_n = hist_X.shape[0]
            if self.evaluate:
                # one concatenate + one float32 cast per entity; every
                # window slices views of it (the float32 copy halves the
                # per-window gather traffic; values are identical to
                # casting each slice, since the cast is elementwise)
                Xfull = np.concatenate([hist_X, X]) if hist_n else X
                Xfull = Xfull.astype(np.float32)
                Yfull = np.concatenate([hist_Y, Y]) if hist_n else Y
            sel_cache: dict = {}  # per-entity (selected → gather) cache
            acc_cache: dict = {}  # per-entity ((window, set) → acc) cache
            kstates = {}
            for kname, kernel in self.kernels:
                if prior is not None:
                    state = prior["kstate"][kname]
                    prev_sel = prior["prev_sel"][kname]
                else:
                    state = kernel.init_state(X.shape[1], self.kernel_params)
                    prev_sel = None
                model = MODELS[self.evaluate]() if self.evaluate else None
                for wid, i in enumerate(range(0, stop, bs)):
                    gwid = wid0 + wid
                    t0 = time.perf_counter()
                    w, state = kernel.update(
                        state, X[i:i + bs], Y[i:i + bs],
                        {"conv_id": cid, "window_id": gwid},
                        **self.kernel_params,
                    )
                    selected = top_m_features(w, self.num_features)
                    wall_ms = (time.perf_counter() - t0) * 1000.0
                    mem = rss_bytes()  # one probe per window, as the reference

                    acc = None
                    if model is not None:
                        acc = self._classify(Xfull, Yfull, hist_n, i, selected,
                                             model, first=(gwid == 0),
                                             sel_cache=sel_cache,
                                             acc_cache=acc_cache)
                    o_kern.append(kname)
                    o_conv.append(cid)
                    o_wid.append(gwid)
                    o_tsend.append(
                        tsv[min(X.shape[0] - 1, i + bs - 1)] if tsv is not None else None
                    )
                    o_nrows.append(min(bs, X.shape[0] - i))
                    o_w.append(w)
                    o_sel.append(selected)
                    o_fscr.append(
                        fscr_score(prev_sel, selected, self.num_features)
                        if gwid >= 1 and prev_sel is not None else None
                    )
                    o_acc.append(acc)
                    o_wall.append(wall_ms)
                    o_mem.append(mem)
                    prev_sel = selected
                kstates[kname] = (state, prev_sel)

            if self.streaming:
                keep = self.max_history or 0
                # float32, as the eval casts it anyway (bit-equal acc)
                hist_all = np.concatenate([hist_X, X[:n_full].astype(np.float32)])
                histY_all = np.concatenate([hist_Y, Y[:n_full]])
                new_states[cid] = {
                    "pending_X": X[n_full:] if not self.flush else X[:0],
                    "pending_Y": Y[n_full:] if not self.flush else Y[:0],
                    "pending_ts": (tsv[n_full:] if tsv is not None else None)
                    if not self.flush else (tsv[:0] if tsv is not None else None),
                    "hist_X": hist_all[-keep:] if keep else hist_all[:0],
                    "hist_Y": histY_all[-keep:] if keep else histY_all[:0],
                    "next_window": wid0 + stop // bs + (1 if self.flush and stop % bs else 0),
                    "kstate": {k: st for k, (st, _) in kstates.items()},
                    "prev_sel": {k: ps for k, (_, ps) in kstates.items()},
                    "last_ts": tsv[-1] if tsv is not None and len(tsv) else None,
                }

        out = pa.table(
            {
                "kernel": pa.array(o_kern, type=pa.string()),
                "conv_id": pa.array(o_conv, type=pa.string()),
                "window_id": pa.array(o_wid, type=pa.int64()),
                "ts_end": pa.array(o_tsend, type=pa.timestamp("us")),
                "n_rows": pa.array(o_nrows, type=pa.int32()),
                "w": _list_column(o_w, np.float64),
                "selected": _list_column(o_sel, np.int32),
                "fscr": pa.array(o_fscr, type=pa.float64()),
                "acc": pa.array(o_acc, type=pa.float64()),
                "wall_ms": pa.array(o_wall, type=pa.float64()),
                "mem_bytes": pa.array(o_mem, type=pa.int64()),
            },
            schema=SELECTOR_OUTPUT_SCHEMA,
        )

        if self.streaming and self.checkpoint_dir is not None and bucket_id >= 0:
            from pystreamfs_ray.state.checkpoint import write_bucket_state

            write_bucket_state(self.checkpoint_dir, bucket_id, new_states,
                               lineage=self.lineage())

        if self.checkpoint_dir is not None and bucket_id >= 0:
            from pystreamfs_ray.state.checkpoint import write_bucket_checkpoint

            wall_s = time.perf_counter() - t_start
            # watermark age: wall-clock at checkpoint minus the newest
            # event time processed (the live-stream window-lag metric;
            # large for historical backfills, by definition)
            lag_s = None
            if o_tsend and o_tsend[-1] is not None:
                watermark = max(t for t in o_tsend if t is not None)
                lag_s = time.time() - (
                    np.datetime64(watermark, "us").astype(np.int64) / 1e6)
            write_bucket_checkpoint(
                self.checkpoint_dir,
                bucket_id,
                out,
                lineage=self.lineage(),
                n_convs=n_convs,
                rows_done=len(conv),
                wall_s=wall_s,
                window_lag_s=lag_s,
            )
        return out


def run_selector(
    features_ds,
    *,
    kernel: str = "ofs",
    batch_size: int = 50,
    num_features: int = 5,
    kernel_params: dict[str, Any] | None = None,
    entity_col: str = "conv_id",
    order_cols: tuple = ("turn_idx",),
    feature_cols: list[str] | None = None,
    label_col: str = "label",
    ts_col: str | None = "ts",
    evaluate: str | None = None,
    max_history: int | None = None,
    num_buckets: int = 64,
    checkpoint_dir: str | None = None,
    fingerprint: str = "",
    streaming: bool = False,
    flush: bool = True,
    load_state: bool = False,
):
    """features Dataset → selector-output Dataset (one shuffle)."""
    selector = BucketSelector(
        streaming=streaming,
        flush=flush,
        load_state=load_state,
        kernel=kernel,
        batch_size=batch_size,
        num_features=num_features,
        kernel_params=kernel_params,
        entity_col=entity_col,
        order_cols=order_cols,
        feature_cols=feature_cols,
        label_col=label_col,
        ts_col=ts_col,
        evaluate=evaluate,
        max_history=max_history,
        checkpoint_dir=checkpoint_dir,
        fingerprint=fingerprint,
        num_buckets=num_buckets,
    )
    keep = [entity_col, *order_cols, label_col]
    if ts_col:
        keep.append(ts_col)
    keep += list(feature_cols or FEATURE_COLS)
    # the bucket map prunes each batch to the columns the fold needs, so
    # the shuffle carries only them and no schema probe runs first
    bucketed = add_bucket(features_ds, entity_col, num_buckets,
                          keep=list(dict.fromkeys(keep)))
    return bucketed.groupby("__bucket").map_groups(selector,
                                                   batch_format="pyarrow")
