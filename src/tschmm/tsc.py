"""Transition-state clustering on top of a trained joint HMM.

Frames where the most-likely state under the human-only observations
disagrees with the most-likely state under the joint observations mark
transitions between interaction phases. Those frames, widened by a window,
train a second small HMM over the same feature space; at prediction time its
states take over wherever they explain the human observation better than the
base mixture does. With too few such frames there is no second HMM, and the
model predicts exactly as its base HMM does.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import FeatureSequence, _check_arg, _check_type, _float_array
from .hmm import (
    HmmModel,
    TrainingError,
    _check_em_args,
    _check_split,
    _demo_frames,
    _filtered_labels,
    _gmr,
    _human_frames,
    _human_marginal,
    baum_welch,
    init_temporal_bins,
)

__all__ = [
    "TscModel",
    "dilate_mask",
    "detect_transition_states",
    "fit",
    "predict",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TscModel:
    """Base HMM plus the transition HMM trained on windowed mismatch frames.

    transition is None when too few transition samples existed to train the
    second model (a fallback model); predictions then equal the base model's.
    window, the dilation that segmentation applies to mismatches, is an int.
    """

    base: HmmModel
    transition: HmmModel | None
    window: int

    def __post_init__(self):
        _check_type("base", self.base, HmmModel)
        _check_arg("window", self.window, "int", 0)
        object.__setattr__(self, "window", int(self.window))
        if self.transition is not None:
            _check_type("transition", self.transition, HmmModel)
            if self.transition.split != self.base.split:
                raise ValueError("transition HMM split differs from the base split")

    @property
    def fallback(self) -> bool:
        """True when there is no transition HMM."""
        return self.transition is None


def dilate_mask(mask, w: int) -> np.ndarray:
    """Widen every true entry by w frames on each side, clipped to bounds."""
    _check_arg("window", w, "int", 0)
    w = int(w)
    mask = _float_array("mask", mask) != 0.0
    if mask.ndim != 1:
        raise ValueError("mask must be a 1-D sequence of truth values")
    if mask.size == 0:
        return mask.copy()
    # a window of T - 1 already reaches every frame from every frame
    w = min(w, mask.size - 1)
    # the full convolution, cut to the input's span: "same" would return
    # 2w + 1 entries for a mask shorter than the kernel
    full = np.convolve(mask.astype(float), np.ones(2 * w + 1), mode="full")
    return full[w : w + mask.size] > 0.0


def _segmentation(
    base: HmmModel, seqs: Sequence[np.ndarray], w: int
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Per joint frame matrix: its labels under the joint model, its labels
    under the human-only marginal (each labelling one batched forward pass),
    and the frames where the two differ, dilated by w."""
    _check_split(base)
    human_idx = list(base.split.human_idx)
    joint = _filtered_labels(base, seqs, np.arange(base.dim))
    human = _filtered_labels(base, [f[:, human_idx] for f in seqs], human_idx)
    masks = [dilate_mask(j != h, w) for j, h in zip(joint, human)]
    return joint, human, masks


def detect_transition_states(
    base: HmmModel, demos: Sequence, w: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Windowed label-mismatch frames across a demo batch.

    A frame mismatches when the most-likely state from the human-only
    forward pass differs from the most-likely state from the joint pass.
    Returns the pooled joint observations at masked frames as an (N, D)
    array plus one dilated boolean mask per demo.
    """
    _check_type("base", base, HmmModel)
    _check_arg("window", w, "int", 0)
    seqs = _demo_frames(demos, base.dim)
    if not seqs:
        return np.zeros((0, base.dim)), []
    _, _, masks = _segmentation(base, seqs, w)
    pooled = np.vstack([f[m] for f, m in zip(seqs, masks)])
    return pooled, masks


def _run_lengths(mask: np.ndarray) -> np.ndarray:
    """Lengths of the contiguous masked stretches, in order."""
    edges = np.flatnonzero(np.diff(mask.astype(np.int8), prepend=0, append=0))
    return edges[1::2] - edges[::2]


def fit(
    base: HmmModel,
    demos: Sequence,
    num_states: int = 3,
    w: int = 2,
    eps: float = 1e-2,
    max_iter: int = 40,
    tol: float = 1e-4,
) -> TscModel:
    """Detect transition frames and train the transition HMM on them.

    Requires at least num_states * (D + 1) pooled samples to attempt a fit;
    otherwise returns a fallback model. Contiguous masked runs are kept as
    separate training sequences so no artificial transitions appear between
    unrelated events. `demos` may be any iterable; it is read once.
    """
    _check_arg("num_states", num_states, "int", 1)
    _check_em_args(max_iter, tol, eps)
    samples, masks = detect_transition_states(base, demos, w)
    return _fit_detected(base, samples, masks, num_states, w, eps, max_iter, tol)


def _fit_detected(
    base: HmmModel,
    samples: np.ndarray,
    masks: list[np.ndarray],
    num_states: int,
    w: int,
    eps: float,
    max_iter: int,
    tol: float,
) -> TscModel:
    """The fitting half of `fit`, given detect_transition_states' output."""
    if len(samples) < num_states * (base.dim + 1):
        logger.info(
            "only %d transition samples for %d states over %d dims; falling back "
            "to the base model",
            len(samples),
            num_states,
            base.dim,
        )
        return TscModel(base=base, transition=None, window=w)

    # each demo's masked stretches lie back to back in `samples`
    lengths = np.concatenate([_run_lengths(m) for m in masks])
    runs = [FeatureSequence(r, base.split) for r in np.split(samples, np.cumsum(lengths)[:-1])]
    # bins need sequences at least num_states long; short corpora fall back
    # to initializing from the pooled samples as one stretch
    init_runs = [r for r in runs if len(r) >= num_states]
    if not init_runs:
        init_runs = [FeatureSequence(samples, base.split)]
    init = init_temporal_bins(init_runs, num_states, eps)
    transition, _ = baum_welch(init, runs, max_iter, tol, eps)
    return TscModel(base=base, transition=transition, window=w)


def predict(model: TscModel, human_obs) -> FeatureSequence:
    """Predict robot dims, letting transition states take over where they win.

    A frame switches to the transition model when its best transition state
    explains the human observation better than the forward-weighted base
    mixture does; it then weights the transition states' conditional means
    by their human densities alone. Every other frame, and every frame of a
    model without a transition HMM, reproduces the base prediction
    (`gmr_predict`) exactly.
    """
    _check_type("model", model, TscModel)
    base = model.base
    frames = _human_frames(base, human_obs)
    out = _predict(model, frames, np.array([len(frames)]))
    return FeatureSequence(out, base.split.restrict(base.split.robot_idx))


def _predict(model: TscModel, frames: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """`predict`'s (F, R) rows for checked human frames of sequences stored back to back."""
    # gmr_predict's rows, with the arrays the gate weighs them by
    out, h, log_b_base = _gmr(model.base, frames, lengths)
    if model.transition is not None:
        log_b_trans, trans_cond = _human_marginal(model.transition, frames)
        with np.errstate(divide="ignore"):
            log_mix_base = _logsumexp_rows(np.log(h) + log_b_base)
        fire = log_b_trans.max(axis=1) > log_mix_base
        if np.any(fire):
            resp = _softmax_rows(log_b_trans[fire])
            out[fire] = np.einsum("ts,tsr->tr", resp, trans_cond[fire])
    return out


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    peak = a.max(axis=1)
    safe = np.where(np.isfinite(peak), peak, 0.0)
    return safe + np.log(np.exp(a - safe[:, None]).sum(axis=1))


def _softmax_rows(a: np.ndarray) -> np.ndarray:
    peak = a.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(peak)):
        raise TrainingError("responsibility weights collapsed to zero mass")
    e = np.exp(a - peak)
    return e / e.sum(axis=1, keepdims=True)
