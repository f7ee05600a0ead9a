"""Gaussian-emission hidden Markov models over paired trajectories.

Provides temporal-bin initialization, the per-step normalized (scaled)
forward recursion with log-likelihood recovered from the scaling constants,
Baum-Welch re-estimation with covariance regularization, marginal sub-models
over a dimension subset, per-frame most-likely-state labels, and conditional
prediction of the unobserved dimensions by Gaussian mixture regression.

One kernel runs every forward and backward recursion: the E-step, the
per-frame labels and prediction all pad their sequences into an (N, T, S)
batch of emission densities and step through time once for the whole
batch, each sequence stopping at its own length. A single sequence is a
batch of one.

Emission densities enter the recursions through their log values; each step
shifts by the largest log density before exponentiating, so the scaled
recursion never underflows even for long, high-dimensional sequences.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .data import DimensionSplit, FeatureSequence
from .gaussian import (
    GaussianState,
    _conditional_affine,
    _log_density,
    log_density,
    marginalize,
    regularize,
)

__all__ = [
    "HmmModel",
    "ForwardResult",
    "TrainingError",
    "DimensionSplit",
    "init_temporal_bins",
    "forward",
    "baum_welch",
    "marginal_model",
    "gmr_predict",
    "viterbi_labels",
]

logger = logging.getLogger(__name__)

_SIMPLEX_ATOL = 1e-9
# below this total responsibility a state is considered collapsed
_RESP_FLOOR = 1e-12


class TrainingError(RuntimeError):
    """A numerical failure that makes a model untrainable or unevaluable."""


@dataclass(frozen=True)
class HmmModel:
    """Immutable Gaussian-emission HMM.

    priors:      state distribution at the first frame, length S
    transitions: row-stochastic S x S matrix
    emissions:   one GaussianState per hidden state, all of dimension D
    split:       partition of the D dims into human and robot indices
    """

    priors: np.ndarray
    transitions: np.ndarray
    emissions: tuple[GaussianState, ...]
    split: DimensionSplit

    def __post_init__(self):
        priors = np.array(self.priors, dtype=float)
        trans = np.array(self.transitions, dtype=float)
        emissions = tuple(self.emissions)
        if priors.ndim != 1 or priors.size == 0:
            raise ValueError("priors must be a non-empty vector")
        s = priors.size
        if not np.all(np.isfinite(priors)) or np.any(priors < 0):
            raise ValueError("priors must be finite and non-negative")
        if abs(priors.sum() - 1.0) > _SIMPLEX_ATOL:
            raise ValueError(f"priors sum to {float(priors.sum())!r}, expected 1")
        if trans.shape != (s, s):
            raise ValueError(f"transitions must be {s}x{s}, got {trans.shape}")
        if not np.all(np.isfinite(trans)) or np.any(trans < 0):
            raise ValueError("transitions must be finite and non-negative")
        row_err = np.max(np.abs(trans.sum(axis=1) - 1.0))
        if row_err > _SIMPLEX_ATOL:
            raise ValueError(f"transition rows deviate from 1 by {float(row_err)!r}")
        if len(emissions) != s:
            raise ValueError(f"expected {s} emissions, got {len(emissions)}")
        dims = {g.dim for g in emissions}
        if len(dims) != 1:
            raise ValueError(f"emissions disagree on dimension: {sorted(dims)}")
        d = emissions[0].dim
        if self.split.dim != d:
            raise ValueError(f"split covers {self.split.dim} dims, emissions have {d}")
        priors.setflags(write=False)
        trans.setflags(write=False)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "transitions", trans)
        object.__setattr__(self, "emissions", emissions)

    @property
    def num_states(self) -> int:
        return self.priors.size

    @property
    def dim(self) -> int:
        return self.emissions[0].dim


@dataclass(frozen=True)
class ForwardResult:
    """Forward pass output: h rows are the normalized forward variables."""

    h: np.ndarray
    log_alpha: np.ndarray
    log_likelihood: float

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        la = np.asarray(self.log_alpha, dtype=float)
        h.setflags(write=False)
        la.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "log_alpha", la)


def _frames_of(obs) -> np.ndarray:
    """Accept a FeatureSequence or a raw (T, D) array."""
    frames = obs.frames if isinstance(obs, FeatureSequence) else np.asarray(obs, dtype=float)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ValueError("observations must be a non-empty (T, D) matrix")
    if not np.all(np.isfinite(frames)):
        raise ValueError("observations must be finite")
    return frames


def _log_emissions(emissions: Sequence[GaussianState], frames: np.ndarray) -> np.ndarray:
    return np.column_stack([log_density(frames, g) for g in emissions])


def _pad(pooled: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Rows of consecutive sequences as a zero-padded (N, T, ...) batch."""
    valid = np.arange(lengths.max()) < lengths[:, None]
    out = np.zeros(valid.shape + pooled.shape[1:])
    out[valid] = pooled
    return out


def _failed_frame(bad: np.ndarray, backward: bool = False) -> str:
    """Name the frame where the first flagged sequence failed: its first
    flagged frame, or its last when the recursion ran backward in time
    (a failure leaves every frame the recursion reaches after it flagged)."""
    n = int(np.argmax(bad.any(axis=1)))
    frames = np.flatnonzero(bad[n])
    t = frames[-1] if backward else frames[0]
    return f"frame {t}" if bad.shape[0] == 1 else f"frame {t} of sequence {n}"


class _Passes(NamedTuple):
    a_hat: np.ndarray  # (N, T, S) normalized forward variables
    log_c: np.ndarray  # (N, T) log scaling constants, 0 past each length
    b_hat: np.ndarray  # (N, T, S) shifted emission likelihoods, 1 on padding
    beta_hat: np.ndarray | None  # (N, T, S) renormalized backward variables


def _forward_backward(
    priors: np.ndarray,
    trans: np.ndarray,
    log_b: np.ndarray,
    lengths: np.ndarray,
    backward: bool = False,
) -> _Passes:
    """Scaled forward (and optionally backward) passes over a padded batch.

    `log_b` holds (N, T, S) emission log-densities, zero past each
    sequence's length. Each frame is shifted by its largest log density
    before exponentiating; the forward variables are normalized per step
    and the log of each normalizer plus the shift is that step's scaling
    constant, so a sequence's log-likelihood is the sum of its constants
    (Rabiner 1989, section V-A). The backward variables are renormalized
    per step as well, the scale cancelling in the posteriors, and restart
    at 1 on each sequence's own last frame. Padded frames are computed but
    never used.

    The batch steps through time together. Each forward step is a stack of
    per-sequence vector-matrix products rather than one matrix product, so
    every sequence's forward variables equal, bit for bit, those of a batch
    holding that sequence alone.
    """
    n, t_max, s = log_b.shape
    valid = np.arange(t_max) < lengths[:, None]
    # the padding is zero and so can fail none of the checks below
    shift = log_b.max(axis=2)
    if not np.isfinite(shift).all():
        bad = ~np.isfinite(shift)
        raise TrainingError(f"all states have zero emission likelihood at {_failed_frame(bad)}")
    # time-major, so each step reads and writes contiguous (N, S) blocks
    b_hat = np.exp(log_b - shift[:, :, None]).transpose(1, 0, 2).copy()

    a_hat = np.empty((t_max, n, s))
    total = np.empty((t_max, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        a = priors * b_hat[0]
        for t in range(t_max):
            if t:
                a = np.matmul(a_hat[t - 1, :, None, :], trans)[:, 0]
                a *= b_hat[t]
            total[t] = a.sum(axis=1)
            np.divide(a, total[t, :, None], out=a_hat[t])
        total = total.T
        ok = np.isfinite(total) & (total > 0.0)
        if not ok.all():
            raise TrainingError(f"forward mass vanished at {_failed_frame(~ok)}")
        log_c = (np.log(total) + shift) * valid

        beta_hat = None
        if backward:
            beta_hat = np.empty((t_max, n, s))
            beta_hat[-1] = 1.0
            # the sequences whose last frame is t, keyed by t
            ends: dict[int, list[int]] = {}
            for k, length in enumerate(lengths.tolist()):
                ends.setdefault(length - 1, []).append(k)
            norm = np.ones((t_max, n))
            for t in range(t_max - 2, -1, -1):
                v = (b_hat[t + 1] * beta_hat[t + 1]) @ trans.T
                norm[t] = v.sum(axis=1)
                np.divide(v, norm[t, :, None], out=beta_hat[t])
                if t in ends:
                    beta_hat[t, ends[t]] = 1.0
            ok = np.isfinite(norm.T) & (norm.T > 0.0)
            if not ok.all():
                raise TrainingError(
                    f"backward mass vanished at {_failed_frame(~ok, backward=True)}"
                )
            beta_hat = beta_hat.transpose(1, 0, 2)
    return _Passes(
        a_hat.transpose(1, 0, 2), log_c, b_hat.transpose(1, 0, 2), beta_hat
    )


def _filtered_labels(model: HmmModel, seqs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per-frame argmax of the forward variables of each (T, D) matrix,
    all sequences in one batched pass; ties go to the lowest state."""
    lengths = np.array([len(f) for f in seqs])
    log_b = _pad(_log_emissions(model.emissions, np.vstack(seqs)), lengths)
    a_hat = _forward_backward(model.priors, model.transitions, log_b, lengths).a_hat
    return [labels[:n] for labels, n in zip(np.argmax(a_hat, axis=2), lengths)]


def _restricted(
    model: HmmModel, obs, dims: Sequence[int] | None
) -> tuple[HmmModel, np.ndarray]:
    """The model marginalized to `dims` (itself when dims is None or all of
    its dims) and the frames of `obs`, checked to have one column per dim."""
    frames = _frames_of(obs)
    dims = list(range(model.dim)) if dims is None else [int(d) for d in dims]
    if frames.shape[1] != len(dims):
        raise ValueError(
            f"observations have {frames.shape[1]} dims but {len(dims)} were requested"
        )
    sub = model if dims == list(range(model.dim)) else marginal_model(model, dims)
    return sub, frames


def forward(model: HmmModel, obs, dims: Sequence[int] | None = None) -> ForwardResult:
    """Scaled forward recursion over the model restricted to `dims`.

    The first frame uses priors times emission density; later frames apply
    the transition-weighted sum. `obs` must have one column per entry of
    `dims` (all model dimensions when dims is None).
    """
    sub, frames = _restricted(model, obs, dims)
    log_b = _log_emissions(sub.emissions, frames)
    passes = _forward_backward(
        sub.priors, sub.transitions, log_b[None], np.array([len(frames)])
    )
    a_hat = passes.a_hat[0]
    log_cum = np.cumsum(passes.log_c[0])
    with np.errstate(divide="ignore"):
        log_alpha = np.log(a_hat) + log_cum[:, None]
    return ForwardResult(h=a_hat, log_alpha=log_alpha, log_likelihood=float(log_cum[-1]))


def init_temporal_bins(demos: Sequence, num_states: int, eps: float) -> HmmModel:
    """Initialize emissions from S contiguous temporal bins per sequence.

    Each sequence is cut into S near-equal bins, earlier bins taking the
    remainder; bin k pooled across sequences yields emission k's mean and
    eps-regularized covariance. Priors and transition rows start uniform.
    """
    if num_states < 1:
        raise ValueError("num_states must be at least 1")
    demos = list(demos)
    if not demos:
        raise ValueError("demo list is empty")
    seqs = [_frames_of(d) for d in demos]
    dim = seqs[0].shape[1]
    split = None
    for k, (demo, seq) in enumerate(zip(demos, seqs)):
        if seq.shape[1] != dim:
            raise ValueError(f"demo {k} has dimension {seq.shape[1]}, expected {dim}")
        if len(seq) < num_states:
            raise ValueError(
                f"demo {k} has {len(seq)} frames, fewer than {num_states} bins"
            )
        if isinstance(demo, FeatureSequence):
            if split is None:
                split = demo.split
            elif demo.split != split:
                raise ValueError("demos carry inconsistent dimension splits")
    if split is None:
        split = DimensionSplit(tuple(range(dim)), ())

    bins: list[list[np.ndarray]] = [[] for _ in range(num_states)]
    for seq in seqs:
        for k, chunk in enumerate(np.array_split(seq, num_states)):
            bins[k].append(chunk)

    emissions = []
    for chunks in bins:
        x = np.vstack(chunks)
        mean = x.mean(axis=0)
        centered = x - mean
        cov = (centered.T @ centered) / len(x)
        cov = regularize(0.5 * (cov + cov.T), eps)
        emissions.append(GaussianState(mean, cov))

    priors = np.full(num_states, 1.0 / num_states)
    trans = np.full((num_states, num_states), 1.0 / num_states)
    return HmmModel(priors, trans, tuple(emissions), split)


def marginal_model(model: HmmModel, dims: Sequence[int]) -> HmmModel:
    """Same chain, emissions marginalized to `dims`, split remapped."""
    dims = [int(d) for d in dims]
    emissions = tuple(marginalize(g, dims) for g in model.emissions)
    return HmmModel(model.priors, model.transitions, emissions, model.split.restrict(dims))


class _EStats(NamedTuple):
    pi_acc: np.ndarray
    trans_acc: np.ndarray
    resp: np.ndarray
    mean_acc: np.ndarray
    gamma: np.ndarray  # (F, S) state posteriors of the pooled frames


def _e_step(model: HmmModel, pooled: np.ndarray, lengths: np.ndarray) -> tuple[_EStats, float]:
    """Posterior statistics of sequences stored back to back in `pooled`."""
    trans = model.transitions
    # one Cholesky per state for the whole batch
    log_b = _pad(_log_emissions(model.emissions, pooled), lengths)
    a_hat, log_c, b_hat, beta_hat = _forward_backward(
        model.priors, trans, log_b, lengths, backward=True
    )
    valid = np.arange(a_hat.shape[1]) < lengths[:, None]
    joint = a_hat[valid] * beta_hat[valid]
    row_tot = joint.sum(axis=1, keepdims=True)
    if not np.all(np.isfinite(row_tot)) or np.any(row_tot <= 0):
        raise TrainingError("state posterior collapsed to zero mass")
    gamma = joint / row_tot

    # pairwise posteriors a_t(i) A(i, j) c_t+1(j) / Z_t, each summing to 1
    # over (i, j), accumulated without forming the (N, T-1, S, S) tensor
    pair = valid[:, 1:]
    a_prev = a_hat[:, :-1][pair]
    c_next = (b_hat * beta_hat)[:, 1:][pair]
    slice_tot = np.einsum("fi,ij,fj->f", a_prev, trans, c_next)
    if not np.all(np.isfinite(slice_tot)) or np.any(slice_tot <= 0):
        raise TrainingError("pairwise posterior collapsed to zero mass")
    trans_acc = trans * ((a_prev / slice_tot[:, None]).T @ c_next)

    stats = _EStats(
        pi_acc=gamma[np.cumsum(lengths) - lengths].sum(axis=0),
        trans_acc=trans_acc,
        resp=gamma.sum(axis=0),
        mean_acc=gamma.T @ pooled,
        gamma=gamma,
    )
    return stats, float(log_c.sum(axis=1).sum())


def _m_step(
    model: HmmModel,
    stats: _EStats,
    pooled: np.ndarray,
    eps: float,
    global_cov: np.ndarray,
) -> HmmModel:
    priors = stats.pi_acc / stats.pi_acc.sum()

    trans = np.array(model.transitions)
    row_sum = stats.trans_acc.sum(axis=1)
    seen = row_sum > 0
    trans[seen] = stats.trans_acc[seen] / row_sum[seen, None]

    emissions = []
    for i in range(model.num_states):
        if stats.resp[i] < _RESP_FLOOR:
            logger.warning(
                "state %d received responsibility %.3g; resetting its covariance "
                "to the regularized global covariance",
                i,
                stats.resp[i],
            )
            emissions.append(GaussianState(model.emissions[i].mean, global_cov))
            continue
        mean = stats.mean_acc[i] / stats.resp[i]
        centered = pooled - mean
        acc = (stats.gamma[:, i] * centered.T) @ centered
        cov = regularize(0.5 * (acc + acc.T) / stats.resp[i], eps)
        try:
            emissions.append(GaussianState(mean, cov))
        except ValueError as exc:
            raise TrainingError(f"state {i} re-estimation produced {exc}") from exc
    return HmmModel(priors, trans, tuple(emissions), model.split)


def baum_welch(
    model: HmmModel,
    demos: Sequence,
    max_iter: int = 40,
    tol: float = 1e-4,
    eps: float = 1e-2,
) -> tuple[HmmModel, list[float]]:
    """EM re-estimation over a batch of sequences, all weighted equally.

    Returns the refined model and the log-likelihood history; history[0] is
    the likelihood of the input model and one entry is appended per accepted
    iteration. Stops at max_iter, when the improvement drops below tol, or
    when a regularized update would lower the likelihood (the update is then
    discarded, keeping the history non-decreasing).
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if tol < 0 or eps < 0:
        raise ValueError("tol and eps must be non-negative")
    demos = list(demos)
    if not demos:
        raise ValueError("demo list is empty")
    seqs = [_frames_of(d) for d in demos]
    for k, seq in enumerate(seqs):
        if seq.shape[1] != model.dim:
            raise ValueError(f"demo {k} has dimension {seq.shape[1]}, expected {model.dim}")

    pooled = np.vstack(seqs)
    lengths = np.array([len(seq) for seq in seqs])
    centered = pooled - pooled.mean(axis=0)
    global_cov = (centered.T @ centered) / len(pooled)
    global_cov = regularize(0.5 * (global_cov + global_cov.T), eps)
    global_cov.setflags(write=False)

    current = model
    stats, ll = _e_step(current, pooled, lengths)
    history = [ll]
    for _ in range(max_iter):
        candidate = _m_step(current, stats, pooled, eps, global_cov)
        new_stats, new_ll = _e_step(candidate, pooled, lengths)
        if new_ll < ll:
            # the eps floor on covariances can push the update off the EM
            # ascent direction; keep the better previous model
            logger.info(
                "discarding EM update that lowered log-likelihood (%.6g -> %.6g)",
                ll,
                new_ll,
            )
            break
        history.append(new_ll)
        gain = new_ll - ll
        current, stats, ll = candidate, new_stats, new_ll
        if gain < tol:
            break
    return current, history


def _human_frames(model: HmmModel, human_obs) -> np.ndarray:
    """The (T, D_human) frames that regression conditions on, checked
    against the model's split."""
    human_idx = model.split.human_idx
    if not human_idx or not model.split.robot_idx:
        raise ValueError("model split must include human and robot dimensions")
    frames = _frames_of(human_obs)
    if frames.shape[1] != len(human_idx):
        raise ValueError(
            f"human observations have {frames.shape[1]} dims, expected {len(human_idx)}"
        )
    return frames


def _human_marginal(model: HmmModel, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each state's human-marginal log density of the (T, D_human) frames,
    (T, S), and its conditional mean of the robot dims given them, (T, S, R).

    One Cholesky factor of each state's human block serves both: the
    density solves against it and the regression gain is built from it.
    The conditional mean is affine in the frame. It is applied by einsum,
    not by a matrix product, because BLAS takes another path for a single
    frame whose rounding differs: every row here depends on its own frame
    only, so predicting on a prefix gives the first rows of predicting on
    the whole sequence, bit for bit.
    """
    human_idx = np.array(model.split.human_idx)
    robot_idx = np.array(model.split.robot_idx)
    log_b = np.empty((len(frames), model.num_states))
    cond = np.empty((len(frames), model.num_states, len(robot_idx)))
    for i, g in enumerate(model.emissions):
        chol, gain, offset = _conditional_affine(g, human_idx, robot_idx)
        log_b[:, i] = _log_density(frames, g.mean[human_idx], chol)
        cond[:, i] = np.einsum("th,rh->tr", frames, gain) + offset
    return log_b, cond


def _gmr(model: HmmModel, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mixture regression of the robot dims on checked (T, D_human) frames:
    the (T, R) prediction, the forward variables of the human marginal
    (T, S) that weight it, and the states' human log densities (T, S)."""
    log_b, cond = _human_marginal(model, frames)
    h = _forward_backward(
        model.priors, model.transitions, log_b[None], np.array([len(frames)])
    ).a_hat[0]
    return np.einsum("ts,tsr->tr", h, cond), h, log_b


def gmr_predict(model: HmmModel, human_obs) -> FeatureSequence:
    """Predict robot dims from human dims by Gaussian mixture regression.

    Per frame, responsibilities come from the forward pass over the human
    marginal; the output is the responsibility-weighted sum of each state's
    conditional mean given the frame's human observation.
    """
    rows, _, _ = _gmr(model, _human_frames(model, human_obs))
    return FeatureSequence(rows, model.split.restrict(model.split.robot_idx))


def viterbi_labels(model: HmmModel, obs, dims: Sequence[int] | None = None) -> np.ndarray:
    """(T,) per-frame argmax of the normalized forward variable over the
    model restricted to `dims`; ties -> lowest.

    Despite the name this is not a Viterbi path: each label is the most
    likely state given the frames up to and including its own (the
    filtered estimate), so consecutive labels need not form a likely, or
    even a possible, state path.
    """
    sub, frames = _restricted(model, obs, dims)
    return _filtered_labels(sub, [frames])[0]
