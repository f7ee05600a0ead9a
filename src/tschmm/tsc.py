"""Transition-state clustering on top of a trained joint HMM.

Frames where the most-likely state under the human-only observations
disagrees with the most-likely state under the joint observations mark
transitions between interaction phases. Those frames, widened by a window,
train a second small HMM over the same feature space; at prediction time its
states take over wherever they explain the human observation better than the
base mixture does.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import FeatureSequence
from .hmm import (
    HmmModel,
    TrainingError,
    _filtered_labels,
    _frames_of,
    _gmr,
    _human_frames,
    _human_marginal,
    baum_welch,
    gmr_predict,
    init_temporal_bins,
    marginal_model,
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

    fallback is set when too few transition samples existed to train the
    second model; predictions then defer entirely to the base model.
    """

    base: HmmModel
    transition: HmmModel | None
    window: int
    fallback: bool = False

    def __post_init__(self):
        if self.window < 0:
            raise ValueError("window must be non-negative")
        if self.fallback:
            if self.transition is not None:
                raise ValueError("fallback model must not carry a transition HMM")
        else:
            if self.transition is None:
                raise ValueError("non-fallback model requires a transition HMM")
            if self.transition.dim != self.base.dim:
                raise ValueError(
                    f"transition HMM dimension {self.transition.dim} "
                    f"differs from base {self.base.dim}"
                )
            if self.transition.split != self.base.split:
                raise ValueError("transition HMM split differs from the base split")


def dilate_mask(mask, w: int) -> np.ndarray:
    """Widen every true entry by w frames on each side, clipped to bounds."""
    if w < 0:
        raise ValueError("window must be non-negative")
    mask = np.asarray(mask, dtype=bool)
    if w == 0 or mask.size == 0:
        return mask.copy()
    # the full convolution, cut to the input's span: "same" would return
    # 2w + 1 entries for a mask shorter than the kernel
    full = np.convolve(mask.astype(float), np.ones(2 * w + 1), mode="full")
    return full[w : w + mask.size] > 0.0


def _joint_and_human_labels(
    base: HmmModel, seqs: Sequence[np.ndarray]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-frame labels of each joint frame matrix under the joint model and
    under its human-only marginal, each in one batched forward pass."""
    human_idx = list(base.split.human_idx)
    joint = _filtered_labels(base, seqs)
    human = _filtered_labels(
        marginal_model(base, human_idx), [f[:, human_idx] for f in seqs]
    )
    return joint, human


def detect_transition_states(
    base: HmmModel, demos: Sequence, w: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Windowed label-mismatch frames across a demo batch.

    A frame mismatches when the most-likely state from the human-only
    forward pass differs from the most-likely state from the joint pass.
    Returns the pooled joint observations at masked frames as an (N, D)
    array plus one dilated boolean mask per demo.
    """
    seqs = [_frames_of(d) for d in demos]
    if not seqs:
        return np.zeros((0, base.dim)), []
    joint, human = _joint_and_human_labels(base, seqs)
    masks = [dilate_mask(j != h, w) for j, h in zip(joint, human)]
    pooled = np.vstack([f[m] for f, m in zip(seqs, masks)])
    return pooled, masks


def _masked_runs(frames: np.ndarray, mask: np.ndarray) -> list[np.ndarray]:
    """Contiguous masked stretches as separate short sequences."""
    edges = np.flatnonzero(np.diff(mask.astype(np.int8), prepend=0, append=0))
    return [frames[a:b] for a, b in zip(edges[::2], edges[1::2])]


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
    if num_states < 1:
        raise ValueError("num_states must be at least 1")
    seqs = [_frames_of(d) for d in demos]
    samples, masks = detect_transition_states(base, seqs, w)
    return _fit_detected(base, seqs, samples, masks, num_states, w, eps, max_iter, tol)


def _fit_detected(
    base: HmmModel,
    seqs: list[np.ndarray],
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
        return TscModel(base=base, transition=None, window=w, fallback=True)

    runs = [
        FeatureSequence(r, base.split)
        for frames, mask in zip(seqs, masks)
        for r in _masked_runs(frames, mask)
    ]
    # bins need sequences at least num_states long; short corpora fall back
    # to initializing from the pooled samples as one stretch
    init_runs = [r for r in runs if len(r) >= num_states]
    if not init_runs:
        init_runs = [FeatureSequence(samples, base.split)]
    init = init_temporal_bins(init_runs, num_states, eps)
    transition, _ = baum_welch(init, runs, max_iter, tol, eps)
    return TscModel(base=base, transition=transition, window=w, fallback=False)


def predict(model: TscModel, human_obs) -> FeatureSequence:
    """Predict robot dims, letting transition states take over where they win.

    A frame switches to the transition model when its best transition state
    explains the human observation better than the forward-weighted base
    mixture does; it then weights the transition states' conditional means
    by their human densities alone. Every other frame, and every frame of a
    fallback model, reproduces the base prediction (`gmr_predict`) exactly.
    """
    base = model.base
    if model.fallback:
        return gmr_predict(base, human_obs)

    # gmr_predict's rows, with the arrays the gate weighs them by
    frames = _human_frames(base, human_obs)
    out, h, log_b_base = _gmr(base, frames)
    log_b_trans, trans_cond = _human_marginal(model.transition, frames)

    with np.errstate(divide="ignore"):
        log_mix_base = _logsumexp_rows(np.log(h) + log_b_base)
    fire = log_b_trans.max(axis=1) > log_mix_base
    if np.any(fire):
        resp = _softmax_rows(log_b_trans[fire])
        out[fire] = np.einsum("ts,tsr->tr", resp, trans_cond[fire])
    return FeatureSequence(out, base.split.restrict(base.split.robot_idx))


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
