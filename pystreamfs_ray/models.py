"""Numpy stand-ins for the sklearn evaluation models.

The reference re-fits an sklearn model per window on the temporal prefix
(`/root/reference/pystreamfs/utils.py:21-54`; KNN / DecisionTree / SVC in
the examples). The sandbox has no sklearn, so these numpy models define
the engine's evaluation spec: same ``.fit`` / ``.predict`` protocol, the
same prequential train-on-prefix / test-on-window contract.
"""

from __future__ import annotations

import numpy as np


class KNNClassifier:
    """Brute-force k-nearest-neighbor majority vote (euclidean).

    Neighbour order: smaller distance first, then the earlier train row.
    The k neighbours are therefore exactly ``np.argsort(d2,
    kind="stable")[:, :k]`` of the float32 distances, whatever the train
    tile size, so a refit on the same rows always votes with the same
    neighbours. Ties in the vote resolve to the smallest label; k shrinks
    to the training size when the prefix is smaller than k.

    Memory-bandwidth discipline (the prequential eval streams a
    ~max_history×m train matrix per window, so traffic — not flops —
    bounds multi-core scaling): float32 matrices (half the bytes),
    train-side squared norms cached at fit, and the test-side ``‖x‖²``
    term dropped from the distance (a per-row constant — it cannot
    change that row's argpartition ranking).
    """

    def __init__(self, k: int = 5):
        self.k = k
        self._X = None
        self._y = None
        self._norms = None

    def fit(self, X: np.ndarray, y: np.ndarray, norms: np.ndarray | None = None) -> "KNNClassifier":
        """``norms`` (precomputed ‖row‖²) lets a caller that slides a
        window over one big matrix skip the per-fit norm pass — the
        values are identical either way."""
        self._X = np.ascontiguousarray(X, dtype=np.float32)
        self._y = np.asarray(y, dtype=np.int64)
        self._norms = norms if norms is not None else np.einsum("ij,ij->i", self._X, self._X)
        return self

    _TRAIN_CHUNK = 4096  # d2 tile (test × chunk) stays cache-resident

    @staticmethod
    def _tile_topk(d2: np.ndarray, kc: int) -> np.ndarray:
        """Column indices of each row's ``kc`` nearest entries under the
        neighbour order: every entry below the kc-th smallest value, then
        the earliest entries equal to it. ``argpartition`` alone keeps an
        arbitrary subset of the ties at the boundary, so the rows with
        more boundary ties than free slots are re-ranked."""
        idx = np.argpartition(d2, kc - 1, axis=1)[:, :kc]
        if kc == d2.shape[1]:
            return idx
        kth = np.take_along_axis(d2, idx[:, kc - 1:kc], axis=1)
        le = d2 <= kth
        rows = np.flatnonzero(le.sum(axis=1) > kc)
        if rows.size:
            lt = d2[rows] < kth[rows]
            eq = le[rows] & ~lt
            free = kc - lt.sum(axis=1, keepdims=True)
            keep = lt | (eq & (np.cumsum(eq, axis=1) <= free))
            idx[rows] = np.nonzero(keep)[1].reshape(rows.size, kc)
        return idx

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float32)
        n_train = self._X.shape[0]
        k = min(self.k, n_train)
        preds = np.empty(X.shape[0], dtype=np.int64)
        n_classes = int(self._y.max()) + 1 if self._y.size else 1
        ch = self._TRAIN_CHUNK
        for s in range(0, X.shape[0], 4096):
            xb = X[s:s + 4096]
            # tile over the train side: each d2 tile is computed, top-k
            # selected, and DISCARDED while still cache-hot — the full
            # (test × n_train) distance matrix never touches DRAM
            best_d = best_i = None
            for c0 in range(0, n_train, ch):
                Xc = self._X[c0:c0 + ch]
                d2 = self._norms[c0:c0 + ch][None, :] - 2.0 * (xb @ Xc.T)
                idx = self._tile_topk(d2, min(k, Xc.shape[0]))
                dch = np.take_along_axis(d2, idx, axis=1)
                ich = idx + c0
                if best_d is None:
                    best_d, best_i = dch, ich
                else:
                    # (distance, train row) order: earlier tiles hold the
                    # earlier rows, so ties keep the earlier neighbour
                    cat_d = np.concatenate([best_d, dch], axis=1)
                    cat_i = np.concatenate([best_i, ich], axis=1)
                    sel = np.lexsort((cat_i, cat_d), axis=1)[:, :min(k, cat_d.shape[1])]
                    best_d = np.take_along_axis(cat_d, sel, axis=1)
                    best_i = np.take_along_axis(cat_i, sel, axis=1)
            votes = self._y[best_i]
            counts = np.zeros((xb.shape[0], n_classes), dtype=np.int64)
            for c in range(n_classes):
                counts[:, c] = np.sum(votes == c, axis=1)
            preds[s:s + 4096] = np.argmax(counts, axis=1)
        return preds


def gather_selected(X: np.ndarray, selected) -> np.ndarray:
    """The model input for one selected feature set: ``X``'s selected
    columns in ascending column order, as one contiguous copy.

    Every prequential evaluator (the selector's inline eval, the
    sequential oracle and the salted eval stage) gathers through here,
    so one set gives one matrix whatever order the kernel ranked it in,
    and the three paths fit every model on the same bits."""
    return np.ascontiguousarray(X[:, np.sort(np.asarray(selected, dtype=np.int64))])


class LogisticSGD:
    """Deterministic full-batch logistic regression (gradient descent)."""

    def __init__(self, lr: float = 0.1, epochs: int = 50, l2: float = 1e-4):
        self.lr, self.epochs, self.l2 = lr, epochs, l2
        self.w = None
        self.b = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray, norms=None) -> "LogisticSGD":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n, m = X.shape
        self.w = np.zeros(m)
        self.b = 0.0
        for _ in range(self.epochs):
            z = X @ self.w + self.b
            p = 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))
            g = p - y
            self.w -= self.lr * (X.T @ g / n + self.l2 * self.w)
            self.b -= self.lr * float(np.mean(g))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        z = np.asarray(X, dtype=np.float64) @ self.w + self.b
        return (z > 0).astype(np.int64)


class DecisionTreeCART:
    """Deterministic CART classifier (gini), numpy stand-in for the
    sklearn ``DecisionTreeClassifier`` the reference examples pass in
    (`/root/reference/examples/example_fsds.py`,
    `/root/reference/pystreamfs/utils.py:48-51` accepts any model with
    fit/predict). Split search is fully vectorized per (node, feature):
    stable sort + prefix class counts + gini over all boundary
    positions. Ties resolve to the lowest feature index, then the
    smallest threshold, so refits are bit-reproducible.
    """

    def __init__(self, max_depth: int = 8, min_samples_split: int = 2):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split

    def _best_split(self, X: np.ndarray, Y1h: np.ndarray):
        """Return (feature, threshold, weighted_gini) or None. ``Y1h`` is
        the one-hot label matrix for the node's rows."""
        n, m = X.shape
        total = Y1h.sum(axis=0)
        best = None  # (gini, j, thr)
        for j in range(m):
            xs = X[:, j]
            order = np.argsort(xs, kind="stable")
            xv = xs[order]
            cum = np.cumsum(Y1h[order], axis=0)  # class counts of left side
            # candidate split AFTER position i only where the value changes
            bnd = np.nonzero(xv[:-1] < xv[1:])[0]
            if bnd.size == 0:
                continue
            nl = (bnd + 1).astype(np.float64)
            nr = n - nl
            lc = cum[bnd]
            rc = total[None, :] - lc
            gini_l = 1.0 - np.sum((lc / nl[:, None]) ** 2, axis=1)
            gini_r = 1.0 - np.sum((rc / nr[:, None]) ** 2, axis=1)
            wg = nl * gini_l + nr * gini_r
            i = int(np.argmin(wg))  # first minimum → smallest threshold
            if best is None or wg[i] < best[0] - 1e-12:
                thr = (xv[bnd[i]] + xv[bnd[i] + 1]) / 2.0
                best = (float(wg[i]), j, float(thr))
        return best

    @staticmethod
    def _as64(X: np.ndarray) -> np.ndarray:
        """float32-round then widen: callers feed float32 (selector) or
        float64 (salted eval) views of the same rows; rounding through
        float32 makes both paths bit-identical (KNN does the same)."""
        return np.asarray(X, dtype=np.float32).astype(np.float64)

    def fit(self, X: np.ndarray, y: np.ndarray, norms=None) -> "DecisionTreeCART":
        X = self._as64(X)
        y = np.asarray(y, dtype=np.int64)
        n_classes = int(y.max()) + 1 if y.size else 1
        Y1h = np.zeros((len(y), n_classes), dtype=np.float64)
        if y.size:
            Y1h[np.arange(len(y)), y] = 1.0
        # flat node arrays; children appended breadth-first
        feat, thr, left, right, leaf = [], [], [], [], []

        def majority(idx) -> int:
            c = Y1h[idx].sum(axis=0)
            return int(np.argmax(c))  # tie → smallest label

        stack = [(np.arange(len(y)), 0, -1, False)]  # idx, depth, parent, is_right
        while stack:
            idx, depth, parent, is_right = stack.pop()
            node = len(feat)
            if parent >= 0:
                (right if is_right else left)[parent] = node
            feat.append(-1); thr.append(0.0); left.append(-1); right.append(-1)
            leaf.append(majority(idx) if len(idx) else 0)
            if (
                depth >= self.max_depth
                or len(idx) < self.min_samples_split
                or len(np.unique(y[idx])) <= 1
            ):
                continue
            split = self._best_split(X[idx], Y1h[idx])
            if split is None:
                continue
            _, j, t = split
            mask = X[idx, j] <= t
            if not mask.any() or mask.all():
                continue
            feat[node], thr[node], leaf[node] = j, t, -1
            # push right first so the left child is materialized first
            stack.append((idx[~mask], depth + 1, node, True))
            stack.append((idx[mask], depth + 1, node, False))

        self._feat = np.array(feat, dtype=np.int64)
        self._thr = np.array(thr, dtype=np.float64)
        self._left = np.array(left, dtype=np.int64)
        self._right = np.array(right, dtype=np.int64)
        self._leaf = np.array(leaf, dtype=np.int64)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = self._as64(X)
        node = np.zeros(len(X), dtype=np.int64)
        for _ in range(self.max_depth + 1):
            active = self._leaf[node] < 0
            if not active.any():
                break
            f = self._feat[node[active]]
            go_left = X[active, f] <= self._thr[node[active]]
            nxt = np.where(go_left, self._left[node[active]], self._right[node[active]])
            node[active] = nxt
        return self._leaf[node]


class LinearSVM:
    """Deterministic full-batch soft-margin linear SVM (subgradient on
    the hinge loss), the numpy stand-in for the reference examples'
    ``SVC()`` (`/root/reference/examples/example_mcnn.py`). Binary
    {0,1} labels, mapped internally to ±1."""

    def __init__(self, lr: float = 0.1, epochs: int = 100, l2: float = 1e-3):
        self.lr, self.epochs, self.l2 = lr, epochs, l2
        self.w = None
        self.b = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray, norms=None) -> "LinearSVM":
        X = DecisionTreeCART._as64(X)
        ypm = 2.0 * np.asarray(y, dtype=np.float64) - 1.0
        n, m = X.shape if X.ndim == 2 else (len(X), 1)
        self.w = np.zeros(m)
        self.b = 0.0
        for _ in range(self.epochs):
            margins = ypm * (X @ self.w + self.b)
            viol = margins < 1.0
            gw = self.l2 * self.w - (X[viol] * ypm[viol, None]).sum(axis=0) / n
            gb = -ypm[viol].sum() / n
            self.w -= self.lr * gw
            self.b -= self.lr * gb
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        z = DecisionTreeCART._as64(X) @ self.w + self.b
        return (z > 0).astype(np.int64)


MODELS = {
    "knn": lambda: KNNClassifier(5),
    "logistic": lambda: LogisticSGD(),
    "tree": lambda: DecisionTreeCART(),
    "svm": lambda: LinearSVM(),
}
