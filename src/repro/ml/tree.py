"""CART decision tree classifier.

The classic greedy CART algorithm, grown without a Python loop over
features or thresholds:

* **Index-partitioned growth.**  The fit's X stays whole; each node is
  an array of row indices, split into two by the chosen threshold and
  grown from an explicit stack, so depth is bounded by memory, not by
  the interpreter's recursion limit.  Nodes are numbered in pre-order.
* **One split search per node.**  A node gathers only its candidate
  columns, then one stable 2-D argsort, one gather of the sorted labels
  and one cumsum per class score every boundary of every candidate
  feature at once, with exact integer class counts.
* **A counting path for 0/1 matrices** (nPrint's bit vectors): each
  column's only boundary lies between its zeros and ones, so per-class
  counts of ones, exact integer sums, score every column of a node in
  one pass without sorting.  The path is chosen from the input alone.

The chosen split is the first candidate feature holding the highest
gain, at its first boundary holding it: the same tree, node for node,
as scanning the features one at a time and keeping strict improvements.

Supports gini and entropy criteria, depth/size regularisation and
per-node feature subsampling (used by the random forest).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import BaseEstimator, check_array, check_random_state, check_X_y


@dataclass
class _Node:
    """One tree node; leaves carry a class distribution."""

    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    distribution: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left < 0


def _impurity(counts: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of class-count rows (last axis is the class axis)."""
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        proportions = np.where(totals > 0, counts / np.maximum(totals, 1), 0.0)
    if criterion == "gini":
        return 1.0 - (proportions**2).sum(axis=-1)
    if criterion == "entropy":
        logs = np.where(proportions > 0, np.log2(np.maximum(proportions, 1e-300)), 0.0)
        return -(proportions * logs).sum(axis=-1)
    raise ValueError(f"unknown criterion: {criterion!r}")


class DecisionTreeClassifier(BaseEstimator):
    """Greedy CART classifier.

    Parameters mirror the sklearn names the surveyed papers quote:
    ``max_depth``, ``min_samples_split``, ``min_samples_leaf``,
    ``criterion`` and ``max_features`` (``None``, ``"sqrt"`` or an int).
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        criterion: str = "gini",
        max_features: int | str | None = None,
        seed: int | None = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.criterion = criterion
        self.max_features = max_features
        self.seed = seed

    # ------------------------------------------------------------------

    def fit(self, X, y) -> "DecisionTreeClassifier":
        array, labels = check_X_y(X, y)
        self.classes_, encoded = np.unique(labels, return_inverse=True)
        self.n_features_ = array.shape[1]
        self._rng = check_random_state(self.seed)
        self.nodes_ = self._grow(array, encoded.astype(np.int64))
        del self._rng
        return self

    def _n_candidate_features(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if isinstance(self.max_features, int):
            return max(1, min(self.max_features, self.n_features_))
        raise ValueError(f"bad max_features: {self.max_features!r}")

    def _grow(self, X: np.ndarray, y: np.ndarray) -> list[_Node]:
        """Grow the tree depth-first, partitioning row-index arrays.

        Nodes are numbered in pre-order (a node, its left subtree, then
        its right subtree), so a split node's left child is always the
        next node; the stack carries each right child's parent id.
        """
        n_classes = len(self.classes_)
        binary = ((X == 0.0) | (X == 1.0)).all()
        bits = X.astype(bool) if binary else None
        nodes: list[_Node] = []
        stack: list[tuple[np.ndarray, int, int]] = [(np.arange(len(y)), 0, -1)]
        while stack:
            idx, depth, parent = stack.pop()
            node_id = len(nodes)
            node = _Node()
            nodes.append(node)
            if parent >= 0:
                nodes[parent].right = node_id
            labels = y[idx]
            counts = np.bincount(labels, minlength=n_classes).astype(np.float64)
            node.distribution = counts / counts.sum()

            if (
                len(idx) < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or counts.max() == counts.sum()  # pure node
            ):
                continue

            split = self._best_split(X, bits, idx, labels, counts)
            if split is None:
                continue
            feature, threshold = split
            left_mask = X[idx, feature] <= threshold
            node.feature = feature
            node.threshold = threshold
            node.left = node_id + 1
            stack.append((idx[~left_mask], depth + 1, node_id))
            stack.append((idx[left_mask], depth + 1, -1))
        return nodes

    def _best_split(
        self,
        X: np.ndarray,
        bits: np.ndarray | None,
        idx: np.ndarray,
        labels: np.ndarray,
        counts: np.ndarray,
    ) -> tuple[int, float] | None:
        """The (feature, threshold) of the node's best split, or None.

        Scores every boundary of every candidate feature in one pass.
        The winner is the first candidate feature holding the highest
        gain, at its first boundary holding it: the tie-break of
        scanning the features one by one and keeping strict improvements.
        """
        n_samples = len(idx)
        parent_impurity = _impurity(counts[None, :], self.criterion)[0]
        n_candidates = self._n_candidate_features()
        if n_candidates < self.n_features_:
            features = self._rng.choice(
                self.n_features_, size=n_candidates, replace=False
            )
        else:
            features = None

        def gather(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
            if features is None:
                return matrix[rows]
            return matrix[np.ix_(rows, features)]

        if bits is not None:
            # 0/1 matrix: a column's only boundary lies between its zeros
            # and its ones, and the left child takes the zeros.
            ones = np.stack(
                [
                    np.count_nonzero(gather(bits, idx[labels == c]), axis=0)
                    for c in range(len(counts))
                ],
                axis=1,
            )
            left_n = n_samples - ones.sum(axis=1)
            lowest = max(self.min_samples_leaf, 1)
            (feature_pos,) = np.nonzero(
                (left_n >= lowest) & (n_samples - left_n >= lowest)
            )
            if feature_pos.size == 0:
                return None
            left_counts = counts - ones[feature_pos]
            left_n = left_n[feature_pos]
        else:
            values = gather(X, idx)
            order = np.argsort(values, axis=0, kind="stable")
            sorted_values = np.take_along_axis(values, order, axis=0)
            left_sizes = np.arange(1, n_samples)[:, None]
            boundary = (sorted_values[:-1] < sorted_values[1:]) & (
                (left_sizes >= self.min_samples_leaf)
                & (n_samples - left_sizes >= self.min_samples_leaf)
            )
            # feature-major, so the flat argmax below keeps the tie-break
            feature_pos, boundary_pos = np.nonzero(boundary.T)
            if feature_pos.size == 0:
                return None
            sorted_labels = labels[order]
            left_counts = np.empty((feature_pos.size, len(counts)))
            for c in range(len(counts)):
                # one (rows, features) prefix count per class, not one
                # (rows, features, classes) array, bounds a node's memory
                prefix = np.cumsum(sorted_labels == c, axis=0, dtype=np.int32)
                left_counts[:, c] = prefix[boundary_pos, feature_pos]
            left_n = boundary_pos + 1

        right_counts = counts[None, :] - left_counts
        left_n = left_n.astype(np.float64)
        right_n = n_samples - left_n
        weighted = (
            left_n * _impurity(left_counts, self.criterion)
            + right_n * _impurity(right_counts, self.criterion)
        ) / n_samples
        gains = parent_impurity - weighted
        best = int(np.argmax(gains))
        if not gains[best] > 1e-12:
            return None
        column = int(feature_pos[best])
        feature = column if features is None else int(features[column])
        if bits is not None:
            return feature, (0.0 + 1.0) / 2.0
        boundary = int(boundary_pos[best])
        low, high = sorted_values[boundary : boundary + 2, column]
        return feature, float((low + high) / 2.0)

    # ------------------------------------------------------------------

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted("nodes_")
        array = check_array(X, allow_empty=True)
        if array.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {array.shape[1]}"
            )
        out = np.empty((len(array), len(self.classes_)))
        # Route samples through the tree level by level, in bulk.
        stack: list[tuple[int, np.ndarray]] = [(0, np.arange(len(array)))]
        while stack:
            node_id, indices = stack.pop()
            node = self.nodes_[node_id]
            if node.is_leaf:
                out[indices] = node.distribution
                continue
            go_left = array[indices, node.feature] <= node.threshold
            left_idx = indices[go_left]
            right_idx = indices[~go_left]
            if left_idx.size:
                stack.append((node.left, left_idx))
            if right_idx.size:
                stack.append((node.right, right_idx))
        return out

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

    @property
    def depth_(self) -> int:
        """Actual depth of the fitted tree (a root-only tree has depth 0)."""
        self._check_fitted("nodes_")
        depth = 0
        stack = [(0, 0)]
        while stack:
            node_id, level = stack.pop()
            node = self.nodes_[node_id]
            if node.is_leaf:
                depth = max(depth, level)
            else:
                stack += [(node.left, level + 1), (node.right, level + 1)]
        return depth

    @property
    def n_leaves_(self) -> int:
        self._check_fitted("nodes_")
        return sum(1 for node in self.nodes_ if node.is_leaf)

    def feature_importances(self) -> np.ndarray:
        """Split-count based importances (normalised)."""
        self._check_fitted("nodes_")
        importances = np.zeros(self.n_features_)
        for node in self.nodes_:
            if not node.is_leaf:
                importances[node.feature] += 1.0
        total = importances.sum()
        return importances / total if total else importances
