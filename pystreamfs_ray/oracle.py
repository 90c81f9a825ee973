"""Single-process sequential oracle — the executable spec for the engine.

Replicates the reference's ``simulate_stream`` loop
(`/root/reference/pystreamfs/pystreamfs.py:29-100`) for ONE entity: slice
the (X, Y) matrix into tumbling count windows, thread kernel state from
window to window, rank the top-m features by |w|, optionally run the
prequential train-on-prefix / test-on-window evaluation
(`/root/reference/pystreamfs/utils.py:21-54`), and record fscr for t≥1.

The distributed engine must be ``np.allclose``-equal to this per
entity × window; tests assert it.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from pystreamfs_ray.kernels import get_kernel
from pystreamfs_ray.kernels.base import fscr, top_m_features
from pystreamfs_ray.models import MODELS, gather_selected


def run_stream(
    X: np.ndarray,
    Y: np.ndarray,
    kernel_name: str,
    *,
    batch_size: int = 50,
    num_features: int = 5,
    kernel_params: dict[str, Any] | None = None,
    conv_id: str = "",
    evaluate: str | None = None,
    max_history: int | None = None,
) -> list[dict[str, Any]]:
    """Run the sequential stream simulation over one entity's matrix.

    ``max_history`` bounds the training prefix (sliding landmark) — the
    reference default is the unbounded prefix (``None``).
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y)
    kernel = get_kernel(kernel_name)
    params = dict(kernel_params or {})
    params.setdefault("num_features", num_features)
    state = kernel.init_state(X.shape[1], params)

    model = MODELS[evaluate]() if evaluate else None
    out: list[dict[str, Any]] = []
    prev_selected: np.ndarray | None = None

    import time

    from pystreamfs_ray.util import rss_bytes

    for wid, i in enumerate(range(0, X.shape[0], batch_size)):
        Xw = X[i:i + batch_size]
        Yw = Y[i:i + batch_size]
        ctx = {"conv_id": conv_id, "window_id": wid}
        t0 = time.perf_counter()
        w, state = kernel.update(state, Xw, Yw, ctx, **params)
        selected = top_m_features(w, num_features)
        # time + memory probes at the reference's cadence
        # (pystreamfs.py:73-74; RSS stands in for USS — no psutil here)
        time_s = time.perf_counter() - t0
        mem = rss_bytes()

        acc = None
        if model is not None:
            acc = classify_window(X, Y, i, batch_size, selected, model,
                                  max_history=max_history)

        f = fscr(prev_selected, selected, num_features) if wid >= 1 else None
        out.append(
            {
                "window_id": wid,
                "n_rows": Xw.shape[0],
                "w": np.array(w, dtype=np.float64, copy=True),
                "selected": selected.copy(),
                "fscr": f,
                "acc": acc,
                "time_s": time_s,
                "mem_bytes": mem,
            }
        )
        prev_selected = selected
    return out


def classify_window(X, Y, i, batch_size, selected, model, max_history=None) -> float:
    """Prequential evaluation with the zero-leakage prefix contract:
    train on rows [0, i), never on row ≥ i (utils.py:35-52). Window 0
    trains on itself (reference degenerate case).

    The model sees the selected columns in ascending column order
    (``models.gather_selected``), never in the kernel's ranking order:
    a feature set is a set, so two kernels that select the same one get
    the same accuracy, and the selector's inline eval and the salted
    eval stage, which gather the same way, match this bit for bit."""
    x_test = gather_selected(X[i:i + batch_size], selected)
    y_test = Y[i:i + batch_size]
    if i == 0:
        x_train, y_train = x_test, y_test
    else:
        lo = 0 if max_history is None else max(0, i - max_history)
        x_train = gather_selected(X[lo:i], selected)
        y_train = Y[lo:i]
    model.fit(x_train, y_train)
    pred = model.predict(x_test)
    return float(np.mean(pred == np.asarray(y_test, dtype=np.int64)))
