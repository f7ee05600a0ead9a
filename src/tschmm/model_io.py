"""Versioned JSON persistence for trained models.

Parameters are stored as plain decimal JSON numbers (shortest repr), so a
save/load round trip reproduces every value exactly. Files carry an explicit
format_version; unknown versions are rejected rather than guessed at.
"""

from __future__ import annotations

import json

import numpy as np

from .data import DimensionSplit, _float_array, _index_tuple
from .gaussian import GaussianState
from .hmm import HmmModel
from .tsc import TscModel

__all__ = ["FORMAT_VERSION", "save_model", "load_model"]

FORMAT_VERSION = 1


def _hmm_to_dict(model: HmmModel) -> dict:
    return {
        "priors": model.priors.tolist(),
        "transitions": model.transitions.tolist(),
        "emissions": [
            {"mean": g.mean.tolist(), "cov": g.cov.tolist()} for g in model.emissions
        ],
        "split": {
            "human_idx": list(model.split.human_idx),
            "robot_idx": list(model.split.robot_idx),
        },
    }


_JSON_TYPES = {list: "a list", dict: "an object", str: "a string", int: "an integer",
               bool: "true or false", type(None): "null"}


def _field(d, key: str, kind: type, where: str):
    """d[key], checked to be present and of the JSON type `kind`."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(d).__name__}")
    if key not in d:
        raise ValueError(f"{where} is missing the required key {key!r}")
    value = d[key]
    # JSON true/false load as bool, which Python also counts as an int
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(
            f"{where}.{key} must be {_JSON_TYPES[kind]}, got {type(value).__name__}"
        )
    return value


def _array(d, key: str, where: str) -> np.ndarray:
    """d[key], nested lists of JSON numbers, as floats; numpy would take "1" and true."""
    todo = [_field(d, key, list, where)]
    for leaf in todo:  # grows as the loop walks it
        if isinstance(leaf, list):
            todo.extend(leaf)
        elif isinstance(leaf, bool) or not isinstance(leaf, (int, float)):
            raise ValueError(f"{where}.{key} must hold numbers, got {_JSON_TYPES[type(leaf)]}")
    return _float_array(f"{where}.{key}", todo[0])


def _indices(d, key: str, where: str) -> tuple[int, ...]:
    return _index_tuple(f"{where}.{key}", _field(d, key, list, where))


def _built(where: str, make, *args):
    """make(*args), a ValueError of the type's own checks prefixed by `where`."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _emission(e, where: str) -> GaussianState:
    g = _built(where, GaussianState, _array(e, "mean", where), _array(e, "cov", where))
    try:
        np.linalg.cholesky(g.cov)
    except np.linalg.LinAlgError:
        raise ValueError(f"{where}.cov is not positive definite") from None
    return g


def _hmm_from_dict(d, where: str) -> HmmModel:
    priors = _array(d, "priors", where)
    transitions = _array(d, "transitions", where)
    emissions = _field(d, "emissions", list, where)
    split = _field(d, "split", dict, where)
    states = tuple(
        _emission(e, f"{where}.emissions[{k}]") for k, e in enumerate(emissions)
    )
    idx = [_indices(split, key, f"{where}.split") for key in ("human_idx", "robot_idx")]
    split = _built(f"{where}.split", DimensionSplit, *idx)
    return _built(where, HmmModel, priors, transitions, states, split)


def save_model(model, path) -> None:
    """Write the TscModel `model` to `path` as a `tsc`-kind model file; keep an
    HMM-only model as `save_model(TscModel(hmm, None, window), path)`. Raises
    TypeError for any other object and OSError if `path` cannot be written."""
    if not isinstance(model, TscModel):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    payload = {
        "base": _hmm_to_dict(model.base),
        "transition": None if model.fallback else _hmm_to_dict(model.transition),
        "window": model.window,
        # gate is the only prediction rule; the key stays so that
        # releases which still require it can read these files
        "mode": "gate",
        "fallback": model.fallback,
    }
    doc = {"format_version": FORMAT_VERSION, "model_kind": "tsc", "model": payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path):
    """The TscModel in the `tsc`-kind model file at `path`. Raises OSError if it
    cannot be read, and ValueError naming `path` if it is not JSON, has another
    format_version or model_kind, or has a missing, mistyped or invalid field."""
    with open(path, "r", encoding="utf-8") as fh:
        # decode and JSON errors name a line but not the file; nesting too
        # deep for the decoder raises RecursionError
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a model file")
    version = doc.get("format_version")
    # JSON true loads as a bool, which Python counts as equal to 1
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported format_version {version!r}, expected {FORMAT_VERSION}"
        )
    kind = doc.get("model_kind")
    if kind != "tsc":
        raise ValueError(f"{path}: unknown model_kind {kind!r}")
    payload = doc.get("model")
    where = f"{path}: model"
    fallback = _field(payload, "fallback", bool, where)
    # null after a fallback; otherwise checked as an HMM below
    transition = _field(payload, "transition", object, where)
    if fallback and transition is not None:
        raise ValueError(f"{where}.transition must be null when fallback is true")
    mode = payload.get("mode", "gate")
    if mode != "gate":
        raise ValueError(f"{where}.mode {mode!r} is no longer supported; use 'gate'")
    base = _hmm_from_dict(_field(payload, "base", dict, where), f"{where}.base")
    if not fallback:
        transition = _hmm_from_dict(transition, f"{where}.transition")
    window = _field(payload, "window", int, where)
    return _built(where, TscModel, base, transition, window)
