"""A small AutoML: model-family search with per-family grids.

nPrint (algorithms A01-A04) pairs its packet representation with AutoML
(AutoGluon in the original).  This class searches a fixed portfolio of
model families and per-family hyperparameter grids by cross-validated F1
and refits the winner -- the same contract at benchmark scale.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_array, check_X_y, clone
from repro.ml.forest import RandomForestClassifier
from repro.ml.linear import LogisticRegression
from repro.ml.metrics import f1_score
from repro.ml.model_selection import KFold
from repro.ml.naive_bayes import GaussianNB
from repro.ml.neighbors import KNeighborsClassifier
from repro.ml.tree import DecisionTreeClassifier


def default_portfolio(seed: int = 0) -> list[tuple[str, BaseEstimator, dict]]:
    """The default (family, prototype, grid) portfolio."""
    return [
        (
            "random_forest",
            RandomForestClassifier(seed=seed),
            {"n_estimators": [15, 30], "max_depth": [None, 10]},
        ),
        (
            "decision_tree",
            DecisionTreeClassifier(seed=seed),
            {"max_depth": [None, 8]},
        ),
        ("naive_bayes", GaussianNB(), {}),
        ("knn", KNeighborsClassifier(), {"n_neighbors": [3, 7]}),
        ("logistic", LogisticRegression(seed=seed), {"n_epochs": [50]}),
    ]


class AutoML(BaseEstimator):
    """Portfolio model search with k-fold cross-validation.

    ``time_budget`` caps how many (family, configuration) candidates are
    evaluated, mimicking the wall-clock budget real AutoML systems take;
    candidates are tried in portfolio order.
    """

    def __init__(
        self,
        n_splits: int = 3,
        time_budget: int = 32,
        seed: int = 0,
    ) -> None:
        self.n_splits = n_splits
        self.time_budget = time_budget
        self.seed = seed

    def _candidates(self):
        import itertools

        for name, prototype, grid in default_portfolio(self.seed):
            if not grid:
                yield name, prototype, {}
                continue
            keys = sorted(grid)
            for values in itertools.product(*(grid[k] for k in keys)):
                yield name, prototype, dict(zip(keys, values))

    def fit(self, X, y) -> "AutoML":
        array, labels = check_X_y(X, y)
        n_splits = min(self.n_splits, max(2, len(labels) // 4))
        folds = list(KFold(n_splits, seed=self.seed).split(len(labels)))
        self.leaderboard_: list[tuple[str, dict, float]] = []
        best_score = -np.inf
        best_model: BaseEstimator | None = None
        best_name = ""
        for count, (name, prototype, params) in enumerate(self._candidates()):
            if count >= self.time_budget:
                break
            scores = []
            for train_idx, test_idx in folds:
                if len(np.unique(labels[train_idx])) < 2:
                    continue
                model = clone(prototype).set_params(**params)
                model.fit(array[train_idx], labels[train_idx])
                scores.append(
                    f1_score(labels[test_idx], model.predict(array[test_idx]))
                )
            mean_score = float(np.mean(scores)) if scores else 0.0
            self.leaderboard_.append((name, params, mean_score))
            if mean_score > best_score:
                best_score = mean_score
                best_model = clone(prototype).set_params(**params)
                best_name = name
        if best_model is None:
            raise ValueError("AutoML evaluated no candidates")
        best_model.fit(array, labels)
        self.best_model_ = best_model
        self.best_family_ = best_name
        self.best_score_ = best_score
        self.n_folds_ = len(folds)
        self.classes_ = np.unique(labels)
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted("best_model_")
        return self.best_model_.predict(check_array(X, allow_empty=True))

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted("best_model_")
        if hasattr(self.best_model_, "predict_proba"):
            return self.best_model_.predict_proba(check_array(X, allow_empty=True))
        predictions = self.predict(X)
        one_hot = np.zeros((len(predictions), len(self.classes_)))
        for j, value in enumerate(self.classes_):
            one_hot[predictions == value, j] = 1.0
        return one_hot
