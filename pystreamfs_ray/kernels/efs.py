"""EFS — Extremal Feature Selection (Carvalho & Cohen 2006), numpy.

Semantics match `/root/reference/pystreamfs/algorithms/efs.py:5-52`:
per-instance Modified Balanced Winnow over per-row min-max-normalized
inputs; multiplicative promote/demote of positive model ``u`` and
negative model ``v`` on margin mistakes; importance ``w = |u - v|``.

The reference's per-feature Python loop and its per-row
``MinMaxScaler().fit_transform`` are replaced by equivalent vectorized
numpy expressions (same elementwise operation order → bit-identical).
sklearn's zero-range handling maps a constant row to all-zeros. The
window is normalized in one pass, and only rows whose margin can be a
mistake are decided one at a time.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from pystreamfs_ray.kernels.base import register


def row_minmax(x: np.ndarray) -> np.ndarray:
    """Per-row min-max normalization, sklearn ``MinMaxScaler`` semantics on
    a single column vector (constant input → zeros)."""
    lo = x.min()
    rng = x.max() - lo
    if rng == 0:
        return x - lo  # all zeros, matching handle_zeros_in_scale (divisor 1)
    return (x - lo) / rng


def window_minmax(X: np.ndarray) -> np.ndarray:
    """``row_minmax`` of every row of ``X`` at once, bit-equal to it row
    by row (dividing a zero-range row by 1 leaves ``x - lo`` as is)."""
    lo = X.min(axis=1, keepdims=True)
    rng = X.max(axis=1, keepdims=True) - lo
    return (X - lo) / np.where(rng == 0, 1.0, rng)


class EFSKernel:
    name = "efs"

    def init_state(self, m: int, params: dict[str, Any]) -> tuple[np.ndarray, np.ndarray]:
        # defaults from examples/example_efs.py:22-28
        u = np.asarray(params.get("u", np.ones(m) * 2.0), dtype=np.float64).copy()
        v = np.asarray(params.get("v", np.ones(m)), dtype=np.float64).copy()
        return u, v

    def update(self, state: tuple[np.ndarray, np.ndarray], X: np.ndarray, Y: np.ndarray,
               ctx: dict[str, Any] | None = None,
               *, alpha: float = 1.5, beta: float = 0.5,
               threshold: float = 1.0, M: float = 1.0,
               **_: Any) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        u, v = state
        XN = window_minmax(np.asarray(X, dtype=np.float64))
        yy = np.where(np.asarray(Y) == 0, -1.0, 1.0)
        i, n = 0, XN.shape[0]
        while i < n:
            # skip to the next row that can be a mistake: the window-wide
            # gemv margin differs from the per-row np.dot one by rounding
            # only, far below the slack, so every row it puts above
            # M + slack is above M exactly too (a NaN margin, never a
            # mistake, is skipped as well). The tiny floor covers
            # subnormal rounding when u, v and threshold all vanish.
            rest = XN[i:]
            s = (rest @ u - rest @ v - threshold) * yy[i:]
            slack = 1e-12 * (rest @ np.abs(u) + rest @ np.abs(v) + abs(threshold)) \
                + np.finfo(np.float64).tiny
            for j in np.flatnonzero(s <= M + slack) + i:
                xn = XN[j]
                # the row's exact decision, in the reference's expression
                if (np.dot(xn, u) - np.dot(xn, v) - threshold) * yy[j] <= M:
                    if yy[j] > 0:
                        u = u * alpha * (1.0 + xn)
                        v = v * beta * (1.0 - xn)
                    else:
                        u = u * beta * (1.0 - xn)
                        v = v * alpha * (1.0 + xn)
                    i = j + 1
                    break
            else:
                break
        w = np.abs(u - v)
        return w, (u, v)


register(EFSKernel())
