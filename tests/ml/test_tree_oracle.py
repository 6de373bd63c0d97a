"""CART growth against its reference oracle.

``DecisionTreeClassifier`` once grew trees recursively and scored one
feature at a time in a Python loop.  It now partitions row-index arrays
down an explicit stack and scores every candidate feature of a node in
one pass, with a counting path for 0/1 matrices.  The recursive,
per-feature ``_build``/``_best_split`` live on here, verbatim, as the
reference oracle.  The contract is byte-equality: the same feature,
threshold, children and ``distribution`` bytes at every node, hence
byte-equal forest probabilities and AutoML leaderboards.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import automl, forest
from repro.ml.automl import AutoML
from repro.ml.base import check_random_state, check_X_y
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, _impurity, _Node


# ----------------------------------------------------------------------
# Reference oracle: the retired recursive, per-feature growth, verbatim
# ----------------------------------------------------------------------


class ReferenceTree(DecisionTreeClassifier):
    """The per-feature, recursive CART of earlier releases."""

    def fit(self, X, y) -> "DecisionTreeClassifier":
        array, labels = check_X_y(X, y)
        self.classes_, encoded = np.unique(labels, return_inverse=True)
        self.n_features_ = array.shape[1]
        self._rng = check_random_state(self.seed)
        self._nodes: list[_Node] = []
        self._build(array, encoded.astype(np.int64), depth=0)
        self.nodes_ = self._nodes
        del self._rng
        return self


    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> int:
        """Recursively grow the subtree for (X, y); returns the node id."""
        node_id = len(self._nodes)
        node = _Node()
        self._nodes.append(node)
        counts = np.bincount(y, minlength=len(self.classes_)).astype(np.float64)
        node.distribution = counts / counts.sum()

        if (
            len(y) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or counts.max() == counts.sum()  # pure node
        ):
            return node_id

        split = self._best_split(X, y, counts)
        if split is None:
            return node_id
        feature, threshold = split
        left_mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[left_mask], y[left_mask], depth + 1)
        node.right = self._build(X[~left_mask], y[~left_mask], depth + 1)
        return node_id

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, counts: np.ndarray
    ) -> tuple[int, float] | None:
        n_samples = len(y)
        n_classes = len(self.classes_)
        parent_impurity = _impurity(counts[None, :], self.criterion)[0]
        n_candidates = self._n_candidate_features()
        if n_candidates < self.n_features_:
            features = self._rng.choice(
                self.n_features_, size=n_candidates, replace=False
            )
        else:
            features = np.arange(self.n_features_)

        best_gain = 1e-12
        best: tuple[int, float] | None = None
        one_hot = np.zeros((n_samples, n_classes))
        one_hot[np.arange(n_samples), y] = 1.0

        for feature in features:
            values = X[:, feature]
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
            prefix = np.cumsum(one_hot[order], axis=0)
            # valid split positions: value changes between i and i+1
            boundaries = np.flatnonzero(sorted_values[:-1] < sorted_values[1:])
            if boundaries.size == 0:
                continue
            left_n = boundaries + 1
            right_n = n_samples - left_n
            valid = (left_n >= self.min_samples_leaf) & (
                right_n >= self.min_samples_leaf
            )
            if not valid.any():
                continue
            boundaries = boundaries[valid]
            left_counts = prefix[boundaries]
            right_counts = counts[None, :] - left_counts
            left_n = (boundaries + 1).astype(np.float64)
            right_n = n_samples - left_n
            weighted = (
                left_n * _impurity(left_counts, self.criterion)
                + right_n * _impurity(right_counts, self.criterion)
            ) / n_samples
            gains = parent_impurity - weighted
            best_idx = int(np.argmax(gains))
            if gains[best_idx] > best_gain:
                best_gain = float(gains[best_idx])
                boundary = boundaries[best_idx]
                threshold = (
                    sorted_values[boundary] + sorted_values[boundary + 1]
                ) / 2.0
                best = (int(feature), float(threshold))
        return best



# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def node_arrays(tree: DecisionTreeClassifier) -> list[tuple]:
    """Every node's fields as bytes, in node-id order."""
    return [
        (
            node.feature,
            np.float64(node.threshold).tobytes(),
            node.left,
            node.right,
            node.distribution.tobytes(),
        )
        for node in tree.nodes_
    ]


def assert_same_tree(X, y, **params) -> DecisionTreeClassifier:
    grown = DecisionTreeClassifier(**params).fit(X, y)
    reference = ReferenceTree(**params).fit(X, y)
    assert node_arrays(grown) == node_arrays(reference)
    return grown


def _column(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    if kind == "binary":
        return (rng.random(n) < rng.random()).astype(np.float64)
    if kind == "ties":
        return rng.integers(-2, 3, size=n).astype(np.float64)
    if kind == "constant":
        return np.full(n, float(rng.integers(-3, 4)))
    return rng.normal(size=n)


@st.composite
def datasets(draw, max_rows: int = 80):
    """A random (X, y) whose columns are binary, tied, continuous or
    constant -- all of one kind, or mixed column by column."""
    n_rows = draw(st.integers(2, max_rows))
    n_features = draw(st.integers(1, 8))
    n_classes = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["binary", "ties", "continuous", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = (
        rng.choice(["binary", "ties", "continuous", "constant"], n_features)
        if kind == "mixed"
        else [kind] * n_features
    )
    X = np.column_stack([_column(rng, k, n_rows) for k in kinds])
    y = rng.integers(0, n_classes, size=n_rows)
    return X, y


tree_params = st.fixed_dictionaries(
    {
        "criterion": st.sampled_from(["gini", "entropy"]),
        "min_samples_leaf": st.sampled_from([1, 3]),
        "max_features": st.sampled_from([None, "sqrt", 2]),
        "max_depth": st.sampled_from([None, 1, 3]),
        "seed": st.integers(0, 1000),
    }
)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(datasets(), tree_params)
def test_tree_matches_oracle(data, params):
    X, y = data
    assert_same_tree(X, y, **params)


@settings(max_examples=25, deadline=None)
@given(datasets(max_rows=50), tree_params)
def test_forest_probabilities_match_oracle(data, params):
    X, y = data
    params.pop("seed")
    kwargs = dict(n_estimators=4, seed=7, **params)
    proba = RandomForestClassifier(**kwargs).fit(X, y).predict_proba(X)
    with mock.patch.object(forest, "DecisionTreeClassifier", ReferenceTree):
        reference = RandomForestClassifier(**kwargs).fit(X, y).predict_proba(X)
    assert proba.tobytes() == reference.tobytes()


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_many_classes_match_oracle(criterion):
    # eight or more classes take numpy's unrolled summation path
    rng = np.random.default_rng(5)
    X = np.column_stack([rng.normal(size=300), rng.integers(0, 4, 300)])
    y = rng.integers(0, 11, size=300)
    assert_same_tree(X, y, criterion=criterion)


def test_binary_matrix_matches_oracle():
    rng = np.random.default_rng(11)
    X = (rng.random((400, 40)) < 0.3).astype(np.float64)
    X[:, 5] = 0.0  # constant columns of both values
    X[:, 6] = 1.0
    y = (X[:, 0] + X[:, 1] + rng.random(400) > 1.2).astype(int)
    for params in ({}, {"max_features": "sqrt", "seed": 3},
                   {"min_samples_leaf": 3, "criterion": "entropy"}):
        assert_same_tree(X, y, **params)


# ----------------------------------------------------------------------
# AutoML on the nPrint features (A02 trained on P1)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def nprint_p1():
    from repro.algorithms import ALGORITHMS
    from repro.bench.runner import _featurize_with_attacks
    from repro.core import ExecutionEngine

    spec = ALGORITHMS["A02"]
    engine = ExecutionEngine(use_cache=False, track_memory=False)
    X, y, _, _ = _featurize_with_attacks(spec, "P1", engine)
    return spec, X, y


def test_nprint_features_take_the_binary_path(nprint_p1):
    _, X, _ = nprint_p1
    assert np.isin(X, (0.0, 1.0)).all()


def test_automl_leaderboard_matches_oracle(nprint_p1):
    spec, X, y = nprint_p1
    model = spec.build_model()
    assert isinstance(model, AutoML)
    model.fit(X, y)
    reference = spec.build_model()
    with mock.patch.object(forest, "DecisionTreeClassifier", ReferenceTree), \
            mock.patch.object(automl, "DecisionTreeClassifier", ReferenceTree):
        reference.fit(X, y)
    assert model.leaderboard_ == reference.leaderboard_
    assert model.best_family_ == reference.best_family_
    assert (
        model.predict_proba(X).tobytes()
        == reference.predict_proba(X).tobytes()
    )
