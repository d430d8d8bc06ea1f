"""Model files: JSON with exact-round-trip weights and the feature map.

Floats are serialized with Python's shortest-round-trip repr, so a saved
model reloads bit-for-bit.  A PermutationProduct map stores both its seed
and the explicit permutation; they must agree at load time.  A file that
is not such a model fails to load with a ValueError naming the file.
"""

from __future__ import annotations

import json

import numpy as np

from .features import FeatureMapKind, PermutationProduct, feature_map_from_name
from .network import Layer, Mlp

FORMAT = "symdigits-model-v1"


def feature_map_to_dict(kind: FeatureMapKind) -> dict:
    if isinstance(kind, PermutationProduct):
        return {
            "kind": kind.name,
            "seed": kind.seed,
            "permutation": kind.perm.tolist(),
            "fixed_points": kind.fixed_points,
        }
    return {"kind": kind.name}


def feature_map_from_dict(d: dict) -> FeatureMapKind:
    kind = d.get("kind")
    seed = d["seed"] if kind == "perm" else 0
    if type(seed) is not int:  # neither a float nor a bool passes for a seed
        raise ValueError(f"stored permutation seed {seed!r} is not an integer")
    fm = feature_map_from_name(str(kind), seed)
    if isinstance(fm, PermutationProduct) and not np.array_equal(
            np.asarray(d["permutation"], dtype=np.int64), fm.perm):
        raise ValueError("stored permutation does not match its seed")
    return fm


def model_to_dict(mlp: Mlp, feature_map: FeatureMapKind) -> dict:
    return {
        "format": FORMAT,
        "dims": list(mlp.dims),
        "use_bias": mlp.use_bias,
        "feature_map": feature_map_to_dict(feature_map),
        "layers": [
            {
                "weights": layer.weights.tolist(),  # row-major (fan_out rows)
                "bias": None if layer.bias is None else layer.bias.tolist(),
            }
            for layer in mlp.layers
        ],
    }


def model_from_dict(d: dict) -> tuple[Mlp, FeatureMapKind]:
    if d.get("format") != FORMAT:
        raise ValueError(f"not a {FORMAT} file")
    layers = [
        Layer(np.array(entry["weights"], dtype=np.float64),
              None if entry["bias"] is None else np.array(entry["bias"], dtype=np.float64))
        for entry in d["layers"]
    ]
    mlp = Mlp(layers)  # validates dimension chaining
    if not all(np.isfinite(a).all() for l in mlp.layers for a in (l.weights, l.bias)
               if a is not None):
        raise ValueError("stored weights are not all finite")
    if list(mlp.dims) != list(d["dims"]):
        raise ValueError(f"stored dims {d['dims']} do not match weight shapes {list(mlp.dims)}")
    if not isinstance(d["use_bias"], bool):
        raise ValueError(f"stored bias flag {d['use_bias']!r} is not a boolean")
    if mlp.use_bias != d["use_bias"]:
        raise ValueError("stored bias flag does not match layer contents")
    return mlp, feature_map_from_dict(d["feature_map"])


def write_json(path, payload: dict) -> None:
    """The one JSON writer, for model files and every report: ASCII,
    one-space indent and a final newline."""
    with open(path, "w", encoding="ascii") as f:
        json.dump(payload, f, indent=1)
        f.write("\n")


def save_model(path, mlp: Mlp, feature_map: FeatureMapKind) -> None:
    write_json(path, model_to_dict(mlp, feature_map))


def load_model(path) -> tuple[Mlp, FeatureMapKind]:
    """Read a model file; any malformed content is a ValueError naming the path."""
    try:
        with open(path, "r", encoding="ascii") as f:
            return model_from_dict(json.load(f))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, OverflowError,
            RecursionError) as exc:
        raise ValueError(f"malformed model file {path}: {type(exc).__name__}: {exc}") from None
