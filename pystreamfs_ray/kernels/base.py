"""SelectorKernel protocol + registry.

The reference plug-in contract is ``fn(X, Y, w, param) -> (w, param)``
(`/root/reference/README.md:103-122`, call site
`/root/reference/pystreamfs/pystreamfs.py:68-69`). We reshape it into an
explicit state machine so state can be checkpointed and threaded through
distributed execution::

    state = kernel.init_state(m, params)
    w, state = kernel.update(state, X, Y, ctx)

``ctx`` carries (conv_id, window_id) for deterministic per-(entity,
window) seeding (needed by CancelOut). State must be picklable.
"""

from __future__ import annotations

from typing import Any, Protocol

import numpy as np


class SelectorKernel(Protocol):
    name: str

    def init_state(self, m: int, params: dict[str, Any]) -> Any: ...

    def update(self, state: Any, X: np.ndarray, Y: np.ndarray,
               ctx: dict[str, Any] | None = None) -> tuple[np.ndarray, Any]: ...


KERNELS: dict[str, SelectorKernel] = {}


def register(kernel: SelectorKernel) -> SelectorKernel:
    KERNELS[kernel.name] = kernel
    return kernel


def get_kernel(name: str) -> SelectorKernel:
    try:
        return KERNELS[name]
    except KeyError:
        raise KeyError(f"unknown kernel {name!r}; available: {sorted(KERNELS)}") from None


def top_m_features(w: np.ndarray, num_features: int) -> np.ndarray:
    """Top-m feature indices by |w|, reference tie semantics.

    Mirrors ``np.argsort(abs(w))[::-1][:m]``
    (`/root/reference/pystreamfs/pystreamfs.py:70`). Tie order is not
    contractual (compare as sets), but we reproduce the exact expression
    so single-entity runs are bit-identical to the reference.
    """
    return np.argsort(np.abs(w))[::-1][:num_features].astype(np.int64)


def fscr(prev_selected, cur_selected, num_features: int) -> float:
    """Feature-selection change rate: |prev \\ cur| / m
    (`/root/reference/pystreamfs/utils.py:4-18`)."""
    return len(set(prev_selected).difference(set(cur_selected))) / num_features
