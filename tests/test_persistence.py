import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from symdigits.features import (FEATURE_NAMES, Identity, NeighborProduct, PermutationProduct,
                                feature_map_from_name)
from symdigits.network import Layer, Mlp, init_mlp
from symdigits.persistence import load_model, model_to_dict, save_model


@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("kind", [Identity(), NeighborProduct(), PermutationProduct(4)])
def test_round_trip_is_bit_exact(tmp_path, use_bias, kind):
    mlp = init_mlp((64, 10, 5, 10), use_bias, 13)
    for layer in mlp.layers:  # make biases nontrivial too
        if layer.bias is not None:
            layer.bias += np.random.default_rng(1).normal(size=layer.bias.shape)
    path = tmp_path / "model.json"
    save_model(path, mlp, kind)
    loaded, loaded_kind = load_model(path)
    assert loaded_kind == kind
    assert loaded.dims == mlp.dims and loaded.use_bias == use_bias
    for got, want in zip(loaded.layers, mlp.layers):
        assert np.array_equal(got.weights, want.weights)
        if want.bias is None:
            assert got.bias is None
        else:
            assert np.array_equal(got.bias, want.bias)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)  # -0.0 and subnormals too


@st.composite
def models(draw):
    """A model of any shape and bias mode, with any finite weights."""
    dims = [draw(st.integers(1, 80)), *draw(st.lists(st.integers(1, 12), min_size=2,
                                                     max_size=4))]
    use_bias = draw(st.booleans())
    return Mlp([Layer(draw(arrays(np.float64, (fan_out, fan_in), elements=_FINITE)),
                      draw(arrays(np.float64, fan_out, elements=_FINITE)) if use_bias else None)
                for fan_in, fan_out in zip(dims[:-1], dims[1:])])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(mlp=models(), name=st.sampled_from(FEATURE_NAMES), perm_seed=st.integers(0, 2**32 - 1))
def test_any_model_round_trips_bytewise(tmp_path, mlp, name, perm_seed):
    kind = feature_map_from_name(name, perm_seed)
    path = tmp_path / "model.json"
    save_model(path, mlp, kind)
    loaded, loaded_kind = load_model(path)
    assert loaded_kind == kind
    assert (loaded.dims, loaded.use_bias) == (mlp.dims, mlp.use_bias)
    for got, want in zip(loaded.layers, mlp.layers):
        for a, b in ((got.weights, want.weights), (got.bias, want.bias)):
            assert (a is None and b is None) or (
                a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes())


def test_permutation_seed_mismatch_is_a_load_error(tmp_path):
    mlp = init_mlp((64, 4, 10), False, 0)
    path = tmp_path / "model.json"
    save_model(path, mlp, PermutationProduct(2))
    doc = json.loads(path.read_text())
    doc["feature_map"]["permutation"][:2] = doc["feature_map"]["permutation"][1::-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="permutation"):
        load_model(path)


@pytest.mark.parametrize("feature_map", [{"kind": "cubic"}, {}],
                         ids=["unknown-kind", "missing-kind"])
def test_unknown_feature_map_is_a_load_error(tmp_path, feature_map):
    path = tmp_path / "model.json"
    save_model(path, init_mlp((64, 4, 10), False, 0), Identity())
    doc = json.loads(path.read_text())
    doc["feature_map"] = feature_map
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unknown feature map"):
        load_model(path)


def test_tampered_dims_rejected(tmp_path):
    mlp = init_mlp((64, 4, 10), False, 0)
    path = tmp_path / "model.json"
    save_model(path, mlp, Identity())
    doc = json.loads(path.read_text())
    doc["dims"] = [64, 5, 10]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="dims"):
        load_model(path)


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError, match="format|file"):
        load_model(path)


def _edited_model(edit):
    """The text of a valid bias model with a perm map of seed 1, after ``edit``;
    the edits below once loaded as that model, coerced."""
    doc = model_to_dict(init_mlp((64, 10), True, 0), PermutationProduct(1))
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("content", [
    '{"format": "symdigits-model-v1"}',
    '{"format": "symdigits-model-v1", "dims": [64, 10], "use_bias": false,'
    ' "feature_map": {"kind": "identity"}, "layers": [1]}',
    '{"format": "symdigits-model-v1", "dims": [64, 10], "use_bias": false,'
    ' "feature_map": {"kind": "identity"}, "layers": [{"weights": [[1.0]]}]}',
    '{"format": "symdigits-model-v1", "dims": [2, 1], "use_bias": false,'
    ' "feature_map": {"kind": "identity"}, "layers": [{"weights": [[NaN, 1.0]], "bias": null}]}',
    '[1, 2]',
    '{"format": ',
    '{"format": "caf\u00e9"}',
    _edited_model(lambda doc: doc["feature_map"].update(seed=1.7)),
    _edited_model(lambda doc: doc["feature_map"].update(seed=True)),
    _edited_model(lambda doc: doc.update(use_bias="no")),
], ids=["no-layers", "int-layer", "no-bias-key", "nan-weight", "not-an-object", "truncated",
        "non-ascii", "float-seed", "bool-seed", "string-bias-flag"])
def test_malformed_model_file_is_a_value_error_naming_it(tmp_path, content):
    path = tmp_path / "broken.json"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError, match="malformed model file .*broken.json"):
        load_model(path)


# valid documents to mutate: both bias modes, with and without a permutation
_VALID_DOCS = [model_to_dict(init_mlp((6, 3, 2), use_bias, 0), kind)
               for use_bias in (False, True) for kind in (Identity(), PermutationProduct(1))]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=8)
# JSON text that no json.dumps of a Python value writes: integers beyond any
# float, floats that parse as inf, and lists nested past the recursion limit
_RAW_FRAGMENTS = (st.integers(309, 5000).map(lambda k: "-" * (k % 2) + "1" + "0" * k)
                  | st.sampled_from(["1e400", "-1e400"])
                  | st.integers(1, 100_000).map(lambda depth: "[" * depth + "]" * depth))
_FRAGMENT = "@fragment@"


def _key_paths(node, prefix=()):
    """The path of every value below the root of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


@st.composite
def mutated_model_files(draw):
    """The bytes of a valid model file after one mutation."""
    doc = copy.deepcopy(draw(st.sampled_from(_VALID_DOCS)))
    *parents, key = draw(st.sampled_from(list(_key_paths(doc))))
    parent = doc
    for step in parents:
        parent = parent[step]
    how = draw(st.sampled_from(["delete", "value", "raw", "permutation", "byte", "outputs"]))
    if how == "delete":
        del parent[key]
    elif how == "value":
        parent[key] = draw(_JSON_VALUES)
    elif how == "raw":
        parent[key] = _FRAGMENT
    elif how == "permutation":
        length = draw(st.integers(0, 130).filter(lambda n: n != 64))
        doc["feature_map"]["permutation"] = (list(range(64)) * 3)[:length]
    elif how == "outputs":  # the last layer's shape, with or without the stored dims
        width = draw(st.integers(0, 12).filter(lambda n: n != 2))
        last = doc["layers"][-1]
        last["weights"] = [[0.5] * 3] * width
        last["bias"] = None if last["bias"] is None else [0.0] * width
        if draw(st.booleans()):
            doc["dims"][-1] = width
    text = json.dumps(doc)
    if how == "raw":
        text = text.replace(json.dumps(_FRAGMENT), draw(_RAW_FRAGMENTS), 1)
    data = text.encode("ascii")
    if how == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]
    return data


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=mutated_model_files())
def test_mutated_model_file_loads_or_is_a_value_error_naming_it(tmp_path, data):
    path = tmp_path / "mutated.json"
    path.write_bytes(data)
    try:
        load_model(path)
    except ValueError as exc:
        assert str(exc).startswith(f"malformed model file {path}: ")
