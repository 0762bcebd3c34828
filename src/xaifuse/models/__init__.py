"""Classifier families, their default hyperparameters, and a training dispatch.

Six families feed the feature-ranking stage (tree, forest, neural net, knn,
svm, adaboost). Two more serve only as independent judges of fused feature
subsets (two gradient-boosting presets and logistic regression), kept apart
so the evaluation never reuses a ranked model.
"""

from __future__ import annotations

import inspect
from enum import Enum

import numpy as np

from ..seeding import derive_seed
from .boosting import AdaBoost, GradientBoosting
from .forest import RandomForest
from .knn import KnnClassifier
from .linear import LogisticRegression
from .mlp import MlpClassifier
from .svm import SvmRbf
from .tree import DecisionTree

__all__ = [
    "AdaBoost",
    "DecisionTree",
    "GradientBoosting",
    "KnnClassifier",
    "LogisticRegression",
    "MlpClassifier",
    "ModelFamily",
    "RANKED_FAMILIES",
    "EVALUATION_FAMILIES",
    "RandomForest",
    "SvmRbf",
    "default_params",
    "family_class",
    "train_model",
]


class ModelFamily(str, Enum):
    DECISION_TREE = "decision_tree"
    RANDOM_FOREST = "random_forest"
    MLP = "mlp"
    KNN = "knn"
    SVM_RBF = "svm_rbf"
    ADABOOST = "adaboost"
    GBDT_LGBM_LIKE = "gbdt_lgbm_like"
    GBDT_CATBOOST_LIKE = "gbdt_catboost_like"
    LOGISTIC_REGRESSION = "logistic_regression"


RANKED_FAMILIES = (
    ModelFamily.DECISION_TREE,
    ModelFamily.RANDOM_FOREST,
    ModelFamily.MLP,
    ModelFamily.KNN,
    ModelFamily.SVM_RBF,
    ModelFamily.ADABOOST,
)

EVALUATION_FAMILIES = (
    ModelFamily.GBDT_CATBOOST_LIKE,
    ModelFamily.GBDT_LGBM_LIKE,
    ModelFamily.LOGISTIC_REGRESSION,
)


# Each family's class and the defaults in which the family differs from its
# constructor. The constructor signature is the only list of hyperparameters.
_FAMILIES = {
    ModelFamily.DECISION_TREE: (DecisionTree, {"min_samples_leaf": 4}),
    ModelFamily.RANDOM_FOREST: (RandomForest, {}),
    ModelFamily.MLP: (MlpClassifier, {}),
    ModelFamily.KNN: (KnnClassifier, {}),
    ModelFamily.SVM_RBF: (SvmRbf, {}),
    ModelFamily.ADABOOST: (AdaBoost, {}),
    ModelFamily.GBDT_LGBM_LIKE: (GradientBoosting, {}),
    # the two judge presets differ only in tree depth
    ModelFamily.GBDT_CATBOOST_LIKE: (GradientBoosting, {"max_depth": 6}),
    ModelFamily.LOGISTIC_REGRESSION: (LogisticRegression, {}),
}


def family_class(family: ModelFamily | str) -> type:
    """The class that trains a family; its constructor's annotations type
    the family's hyperparameters."""
    return _FAMILIES[ModelFamily(family)][0]


def default_params(family: ModelFamily | str) -> dict:
    """Settable hyperparameter names and defaults; the seed is not one."""
    cls, preset = _FAMILIES[ModelFamily(family)]
    params = inspect.signature(cls).parameters
    return {
        **{name: p.default for name, p in params.items() if name != "seed"},
        **preset,
    }


def resolve_params(family: ModelFamily | str, overrides: dict | None) -> dict:
    """Default hyperparameters with a dict of overrides applied."""
    base = default_params(family)
    overrides = overrides or {}
    unknown = set(overrides) - set(base)
    if unknown:
        raise ValueError(
            f"unknown hyperparameters for {ModelFamily(family).value}: {sorted(unknown)}"
        )
    return {**base, **overrides}


def train_model(
    family: ModelFamily | str,
    X: np.ndarray,
    y: np.ndarray,
    seed: int = 0,
    overrides: dict | None = None,
):
    """Construct and fit one classifier. Stochastic families draw sub-seeds
    from (seed, family) so training order never matters."""
    family = ModelFamily(family)
    cls = family_class(family)
    params = resolve_params(family, overrides)
    if "seed" in inspect.signature(cls).parameters:
        params["seed"] = derive_seed(seed, "train", family.value)
    return cls(**params).fit(X, y)
