"""Versioned JSON persistence for trained models.

Parameters are stored as plain decimal JSON numbers (shortest repr), so a
save/load round trip reproduces every value exactly. Files carry an explicit
format_version; unknown versions are rejected rather than guessed at.
"""

from __future__ import annotations

import json

import numpy as np

from .data import DimensionSplit
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
               bool: "true or false"}


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
    value = _field(d, key, list, where)
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(
            f"{where}.{key} must hold numbers, or lists of numbers of equal length"
        ) from None


def _indices(d, key: str, where: str) -> tuple[int, ...]:
    value = _field(d, key, list, where)
    if not all(isinstance(i, int) and not isinstance(i, bool) for i in value):
        raise ValueError(f"{where}.{key} must hold only integers")
    return tuple(value)


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
    if isinstance(model, TscModel):
        payload = {
            "base": _hmm_to_dict(model.base),
            "transition": None if model.fallback else _hmm_to_dict(model.transition),
            "window": model.window,
            # gate is the only prediction rule; the key stays so that
            # releases which still require it can read these files
            "mode": "gate",
            "fallback": model.fallback,
        }
        kind = "tsc"
    elif isinstance(model, HmmModel):
        payload = _hmm_to_dict(model)
        kind = "hmm"
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    doc = {"format_version": FORMAT_VERSION, "model_kind": kind, "model": payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a model file")
    version = doc.get("format_version")
    # JSON true loads as a bool, which Python counts as equal to 1
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported format_version {version!r}, expected {FORMAT_VERSION}"
        )
    kind = doc.get("model_kind")
    payload = doc.get("model")
    where = f"{path}: model"
    if kind == "hmm":
        return _hmm_from_dict(payload, where)
    if kind == "tsc":
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
        return _built(where, TscModel, base, transition, window, fallback)
    raise ValueError(f"{path}: unknown model_kind {kind!r}")
