"""Versioned JSON persistence for trained models.

A saved document carries the spec, feature ordering, importance, and enough
fitted state to reconstruct predictions exactly; loading rebuilds a
TrainedModel whose outputs are bit-identical to the original's.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import SchemaError
from .base import Algorithm, RegressorSpec, TrainedModel
from .tree import RegressionTree

MODEL_SCHEMA_VERSION = "1"

# the state entries each algorithm saves; the rest (importance, flags, GB's
# train_mse_curve) are either saved beside the state or not needed to predict
_SAVED_STATE = {
    Algorithm.LR: ("coef", "intercept"),
    Algorithm.LaR: ("coef", "intercept"),
    Algorithm.RR: ("coef", "intercept"),
    Algorithm.BLaR: ("coef", "intercept"),
    Algorithm.SVM: ("w", "b", "y_std", "y_mean"),
    Algorithm.KNN: ("k", "train_X", "train_y"),
    Algorithm.DT: ("tree",),
    Algorithm.NN: ("W1", "b1", "W2", "b2"),
    Algorithm.RF: ("trees",),
    Algorithm.AdaDT: ("trees", "weights"),
    Algorithm.GB: ("trees", "base", "learning_rate"),
}


def _tree_to_doc(tree: RegressionTree) -> dict:
    return {
        "feature": list(tree.feature),
        "threshold": list(tree.threshold),
        "left": list(tree.left),
        "right": list(tree.right),
        "value": list(tree.value),
    }


def _tree_from_doc(doc: dict) -> RegressionTree:
    tree = RegressionTree()
    tree.feature = [int(v) for v in doc["feature"]]
    tree.threshold = [float(v) for v in doc["threshold"]]
    tree.left = [int(v) for v in doc["left"]]
    tree.right = [int(v) for v in doc["right"]]
    tree.value = [float(v) for v in doc["value"]]
    return tree


def _value_to_doc(value):
    if isinstance(value, RegressionTree):
        return _tree_to_doc(value)
    if isinstance(value, list):
        return [_value_to_doc(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _value_from_doc(key: str, value):
    if key == "tree":
        return _tree_from_doc(value)
    if key == "trees":
        return [_tree_from_doc(v) for v in value]
    if isinstance(value, list):
        return np.asarray(value)
    return value


def model_to_doc(model: TrainedModel) -> dict:
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "algorithm": model.spec.algorithm.value,
        "hyperparameters": {k: v for k, v in model.spec.hyperparameters.items()},
        "seed": model.spec.seed,
        "feature_names": list(model.feature_names),
        "importance": None if model.importance is None
        else np.asarray(model.importance).tolist(),
        "flags": list(model.flags),
        "state": {key: _value_to_doc(model.state[key])
                  for key in _SAVED_STATE[model.spec.algorithm]},
    }


def model_from_doc(doc: dict) -> TrainedModel:
    """Rebuild a model from a saved document; a malformed one raises SchemaError."""
    if not isinstance(doc, dict):
        raise SchemaError("a model document must be a JSON object")
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported model schema version {doc.get('schema_version')!r}")
    try:
        algorithm = Algorithm(doc["algorithm"])
        spec = RegressorSpec(algorithm, dict(doc["hyperparameters"]), doc["seed"])
        state = {key: _value_from_doc(key, doc["state"][key])
                 for key in _SAVED_STATE[algorithm]}
        importance = doc["importance"]
        state["importance"] = None if importance is None else np.asarray(importance)
        state["flags"] = tuple(doc["flags"])
        return TrainedModel(spec, doc["feature_names"], state)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed model document: {exc!r}") from exc


def save_model(model: TrainedModel, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(model_to_doc(model), sort_keys=True) + "\n",
                    encoding="utf-8")


def load_model(path: str | Path) -> TrainedModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"model file is not valid JSON: {exc}") from exc
    return model_from_doc(doc)
