"""Round-trip and error-path tests for model serialization."""

import json
import re

import numpy as np
import pytest

from tschmm.data import DimensionSplit
from tschmm.gaussian import GaussianState
from tschmm.hmm import HmmModel
from tschmm.model_io import FORMAT_VERSION, load_model, save_model
from tschmm.tsc import TscModel


def _hmm(seed=0, num_states=3, dim=4):
    rng = np.random.default_rng(seed)
    priors = rng.dirichlet(np.full(num_states, 2.0))
    trans = rng.dirichlet(np.full(num_states, 2.0), size=num_states)
    emissions = []
    for _ in range(num_states):
        a = rng.normal(size=(dim, dim))
        emissions.append(GaussianState(rng.normal(size=dim), a @ a.T + np.eye(dim)))
    split = DimensionSplit(tuple(range(dim // 2)), tuple(range(dim // 2, dim)))
    return HmmModel(priors, trans, tuple(emissions), split)


def _assert_same_hmm(a, b):
    assert np.array_equal(a.priors, b.priors)
    assert np.array_equal(a.transitions, b.transitions)
    assert a.split == b.split
    assert len(a.emissions) == len(b.emissions)
    for ga, gb in zip(a.emissions, b.emissions):
        assert np.array_equal(ga.mean, gb.mean)
        assert np.array_equal(ga.cov, gb.cov)


def test_tsc_round_trip_is_exact(tmp_path):
    model = TscModel(base=_hmm(seed=2), transition=_hmm(seed=3), window=4)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert json.loads(path.read_text())["model"]["mode"] == "gate"
    loaded = load_model(path)
    assert isinstance(loaded, TscModel)
    assert loaded.window == 4 and not loaded.fallback
    _assert_same_hmm(loaded.base, model.base)
    _assert_same_hmm(loaded.transition, model.transition)


def test_window_of_any_integer_type_round_trips_as_int(tmp_path):
    model = TscModel(base=_hmm(seed=7), transition=None, window=np.int64(3))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert type(loaded.window) is int and loaded.window == 3


def test_fallback_round_trip_keeps_null_transition(tmp_path):
    model = TscModel(base=_hmm(seed=4), transition=None, window=2)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert doc["model"]["transition"] is None
    loaded = load_model(path)
    assert loaded.fallback and loaded.transition is None
    _assert_same_hmm(loaded.base, model.base)


def test_file_layout(tmp_path):
    path = tmp_path / "model.json"
    save_model(TscModel(_hmm(), None, 2), path)
    text = path.read_text()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["format_version"] == FORMAT_VERSION
    assert doc["model_kind"] == "tsc"


def test_loaded_model_revalidates(tmp_path):
    path = tmp_path / "model.json"
    save_model(TscModel(_hmm(), None, 2), path)
    doc = json.loads(path.read_text())
    doc["model"]["base"]["priors"] = [0.5, 0.5, 0.5]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_model(path)


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(ValueError, match="not a model file"):
        load_model(path)
    path.write_text('{"weights": [1, 2, 3]}\n')
    with pytest.raises(ValueError, match="unsupported format_version"):
        load_model(path)


def test_load_rejects_future_version(tmp_path):
    path = tmp_path / "model.json"
    save_model(TscModel(_hmm(), None, 2), path)
    doc = json.loads(path.read_text())
    doc["format_version"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unsupported format_version"):
        load_model(path)


def test_load_rejects_unknown_kind(tmp_path):
    path = tmp_path / "model.json"
    save_model(TscModel(_hmm(), None, 2), path)
    doc = json.loads(path.read_text())
    # an hmm-kind file of earlier releases held the bare HMM as its model
    for kind, model in [("forest", doc["model"]), ("hmm", doc["model"]["base"])]:
        path.write_text(json.dumps({**doc, "model_kind": kind, "model": model}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: unknown model_kind "
                                             f"'{kind}'$"):
            load_model(path)


def test_save_rejects_other_objects(tmp_path):
    for model in ({"not": "a model"}, _hmm()):
        with pytest.raises(TypeError, match=f"cannot serialize {type(model).__name__}"):
            save_model(model, tmp_path / "model.json")
    assert not (tmp_path / "model.json").exists()


def _saved_tsc_doc(tmp_path):
    path = tmp_path / "model.json"
    save_model(TscModel(base=_hmm(seed=5), transition=_hmm(seed=6), window=2), path)
    return path, json.loads(path.read_text())


@pytest.mark.parametrize(
    "where, key",
    [
        (("base",), "split"),
        (("base",), "emissions"),
        (("base",), "priors"),
        (("base",), "transitions"),
        (("transition",), "split"),
        (("base", "emissions", 1), "cov"),
        ((), "window"),
        ((), "fallback"),
        (("transition", "emissions", 0), "mean"),
        ((), "base"),
        ((), "transition"),
    ],
)
def test_load_names_a_missing_key(tmp_path, where, key):
    path, doc = _saved_tsc_doc(tmp_path)
    node = doc["model"]
    for step in where:
        node = node[step]
    del node[key]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"is missing the required key '{key}'"):
        load_model(path)


def test_load_names_a_mistyped_key(tmp_path):
    path, doc = _saved_tsc_doc(tmp_path)
    doc["model"]["base"]["emissions"] = {"mean": [0.0]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"model\.base\.emissions must be a list, got dict"):
        load_model(path)
    doc["model"]["base"]["emissions"] = [{"mean": [0.0, "a"], "cov": [[1.0]]}]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"emissions\[0\]\.mean must hold numbers"):
        load_model(path)
    path, doc = _saved_tsc_doc(tmp_path)
    doc["model"]["window"] = True
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"model\.window must be an integer, got bool"):
        load_model(path)
    doc["model"]["window"] = 2
    doc["model"]["base"]["split"]["robot_idx"] = [2, 3.5]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"split\.robot_idx must hold integers"):
        load_model(path)
    doc["model"] = None
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="model must be a JSON object, got NoneType"):
        load_model(path)


def test_load_accepts_a_file_without_mode(tmp_path):
    path, doc = _saved_tsc_doc(tmp_path)
    del doc["model"]["mode"]
    path.write_text(json.dumps(doc))
    loaded = load_model(path)
    _assert_same_hmm(loaded.base, _hmm(seed=5))
    _assert_same_hmm(loaded.transition, _hmm(seed=6))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["model"].update(mode="blend"),
         r"model\.mode 'blend' is no longer supported"),
        (lambda doc: doc.update(format_version=True),
         "unsupported format_version True, expected 1"),
        (lambda doc: doc["model"].update(fallback=True),
         r"model\.transition must be null when fallback is true"),
        (lambda doc: doc["model"]["base"]["emissions"][1].update(
            cov=np.zeros((4, 4)).tolist()),
         r"model\.base\.emissions\[1\]\.cov is not positive definite"),
        (lambda doc: doc["model"]["transition"]["emissions"][0].update(
            cov=[[1.0, 2.0, 0, 0], [2.0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]]),
         r"model\.transition\.emissions\[0\]\.cov is not positive definite"),
    ],
    ids=["blend-mode", "bool-version", "fallback-with-transition", "zero-cov",
         "indefinite-cov"],
)
def test_load_rejects_a_malformed_tsc_file(tmp_path, edit, message):
    path, doc = _saved_tsc_doc(tmp_path)
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_model(path)
