"""FSDS — Feature Selection on Data Streams (Huang et al. 2015), numpy.

Semantics match `/root/reference/pystreamfs/algorithms/fsds.py:5-74`:
unsupervised batch-level Frequent-Directions matrix sketching. The batch
is transposed to features-as-rows; sketch ``B`` (m×ell, ell=⌈√m⌉ by
default) is combined with the incoming columns, thin-SVD'd, singular
values shrunk by the smallest retained σ², and feature weights derived
from a ridge solution over the top-k singular directions
(α = 2³·σ_k per the paper's §5.1 pre-experiment). State = B.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from pystreamfs_ray.kernels.base import register


class FSDSKernel:
    name = "fsds"

    def init_state(self, m: int, params: dict[str, Any]) -> dict[str, Any]:
        ell = int(params.get("ell", 0))
        if ell < 1:
            ell = int(np.sqrt(m))
        return {"B": None, "ell": ell}

    def update(self, state: dict[str, Any], X: np.ndarray, Y: np.ndarray = None,
               ctx: dict[str, Any] | None = None,
               *, k: int = 2, **_: Any) -> tuple[np.ndarray, dict[str, Any]]:
        ell = state["ell"]
        Yt = np.ascontiguousarray(X.T)  # m × n, features as rows
        if state["B"] is None:
            B = Yt[:, :ell]
            C = np.hstack((B, Yt[:, ell:]))
        else:
            C = np.hstack((state["B"], Yt))

        U, s, _ = np.linalg.svd(C, full_matrices=False)
        U = U[:, :ell]
        s = s[:ell]

        # Frequent Directions shrink; nan_to_num mirrors the reference's
        # guard for tiny first windows (fsds.py:52,68), skipped when finite
        delta = s[-1] ** 2
        with np.errstate(invalid="ignore"):
            s = np.sqrt(s**2 - delta)
        s = s if np.isfinite(s).all() else np.nan_to_num(s)

        B = np.dot(U, np.diag(s))

        # a window of fewer than k rows has fewer than k singular values;
        # the missing ones are 0 (the 0/0 terms then fall to nan_to_num)
        alpha = (2**3) * (s[k - 1] if len(s) >= k else 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            D = np.diag(s[:k] / (s[:k] ** 2 + alpha))
        D = D if np.isfinite(D).all() else np.nan_to_num(D)

        Xk = np.dot(U[:, :k], D)
        w = np.amax(np.abs(Xk), axis=1)
        return w, {"B": B, "ell": ell}


register(FSDSKernel())
