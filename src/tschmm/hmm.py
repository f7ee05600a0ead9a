"""Gaussian-emission hidden Markov models over paired trajectories.

Provides temporal-bin initialization, the per-step normalized (scaled)
forward recursion with log-likelihood recovered from the scaling constants,
Baum-Welch re-estimation with covariance regularization, per-frame
most-likely-state labels, and conditional prediction of the unobserved
dimensions by Gaussian mixture regression.

One kernel runs every recursion: the E-step, the per-frame labels and
prediction hand it the emission densities of sequences stored back to
back, and one loop steps the batch through time, the E-step's backward
pass in its forward pass's steps. Labels and prediction get the rows a
batch of one would; the E-step, whose statistics ignore each row's scale,
need not, and normalizes only every few steps.

Emission densities enter the recursions through their log values; each step
shifts by the largest log density before exponentiating, so the scaled
recursion never underflows even for long, high-dimensional sequences.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .data import (DimensionSplit, FeatureSequence, _check_arg, _check_type, _float_array,
                   _index_tuple, _sequence)
from .gaussian import (
    GaussianState,
    _cholesky,
    _conditional_affine,
    _log_densities,
    _log_norm,
    _solve_lower,
)

__all__ = [
    "HmmModel",
    "ForwardResult",
    "TrainingError",
    "init_temporal_bins",
    "forward",
    "baum_welch",
    "gmr_predict",
    "viterbi_labels",
]

logger = logging.getLogger(__name__)

_SIMPLEX_ATOL = 1e-9
# below this total responsibility a state is considered collapsed
_RESP_FLOOR = 1e-12
_EM_INTERVAL = 8  # the E-step's renormalization interval, see `_forward_backward`
_RENORM_FLOOR = 2.0**-400  # its square is still far above the subnormals


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

    # a sum beyond the float range reads inf, and is refused
    @np.errstate(over="ignore")
    def __post_init__(self):
        priors = _float_array("priors", self.priors)
        trans = _float_array("transitions", self.transitions)
        emissions = _sequence("emissions", self.emissions, "GaussianState")
        for i, g in enumerate(emissions):
            _check_type(f"emissions[{i}]", g, GaussianState)
        _check_type("split", self.split, DimensionSplit)
        if priors.ndim != 1 or priors.size == 0:
            raise ValueError("priors must be a non-empty vector")
        s = priors.size
        if np.any(priors < 0):
            raise ValueError("priors must be non-negative")
        if abs(priors.sum() - 1.0) > _SIMPLEX_ATOL:
            raise ValueError(f"priors sum to {float(priors.sum())!r}, expected 1")
        if trans.shape != (s, s):
            raise ValueError(f"transitions must be {s}x{s}, got {trans.shape}")
        if np.any(trans < 0):
            raise ValueError("transitions must be non-negative")
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

    @functools.cached_property
    def _regression(self) -> _Regression:
        """The states' regression factors, built on first use and kept in
        the instance `__dict__`, not as a field: EM builds a model per M-step
        and predicts with none of them. A failed factorization is not kept,
        so every later call fails the same way."""
        human_idx = np.array(self.split.human_idx)
        robot_idx = np.array(self.split.robot_idx)
        states = []
        for g in self.emissions:
            chol, gain, offset = _conditional_affine(g, human_idx, robot_idx)
            inv_chol = _solve_lower(chol, np.eye(len(chol)))
            states.append((g.mean[human_idx], inv_chol, _log_norm(chol), gain, offset))
        split = DimensionSplit((), tuple(range(len(robot_idx))))
        return _Regression(*map(np.array, zip(*states)), split)


class _Regression(NamedTuple):
    """The states' factors for regression on the human dims, stacked C-ordered."""

    means: np.ndarray  # (S, H): the human blocks of the means
    inv_chols: np.ndarray  # (S, H, H): inverse lower Cholesky factors of the human blocks
    log_norms: np.ndarray  # (S,): H log 2 pi + log det of each block, `_log_norm`
    gains: np.ndarray  # (S, R, H): the conditional robot mean is gain @ x + offset
    offsets: np.ndarray  # (S, R)
    split: DimensionSplit  # of the predicted rows: robot dims only, renumbered from 0


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


def _frames_of(name: str, obs, width: int | None) -> np.ndarray:
    """The frames of `obs`, a FeatureSequence or an array, as a non-empty (T, width)
    matrix (any width if None): the package's one rule for frame matrices."""
    frames = obs.frames if isinstance(obs, FeatureSequence) else _float_array(name, obs)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty (T, D) matrix")
    if width is not None and frames.shape[1] != width:
        raise ValueError(f"{name} has dimension {frames.shape[1]}, expected {width}")
    return frames


def _demo_frames(demos: Sequence, dim: int | None) -> list[np.ndarray]:
    """Each demo's frames, checked to be `dim` wide (demo 0's width if None)."""
    seqs = []
    for k, demo in enumerate(_sequence("demos", demos, "frame matrices")):
        seqs.append(_frames_of(f"demo {k}", demo, dim))
        dim = seqs[0].shape[1]
    return seqs


def _regularize(cov: np.ndarray, eps: float) -> np.ndarray:
    """cov + eps * I."""
    return cov + eps * np.eye(len(cov))


def _pooled_moments(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean and eps-regularized covariance of the rows of `x`. Coordinates
    too large to square within the float range raise ValueError, not a
    warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        centered = x - mean
        cov = (centered.T @ centered) / len(x)
        cov = _regularize(0.5 * (cov + cov.T), eps)
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise ValueError(
            f"the covariance of {len(x)} frames overflows the float range: "
            f"coordinates reach {float(np.abs(x).max()):.3g}"
        )
    return mean, cov


def _log_emissions(model: HmmModel, frames: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """(T, S) log densities of the frames under each state's marginal on
    `dims`, read off the model with one Cholesky factor per state.

    The first of the two density paths: each state's centred frames are
    multiplied by the inverse of its factor, one D x D triangular inversion
    and one (T, D) by (D, D) BLAS product per state. A frame's rounding may
    then depend on how many share the call, which EM and labelling do not
    mind; stacking the states as prediction does (`gaussian._log_densities`)
    gave the same bits but was slower on EM's batches. A frame too far out
    for its residual or its square to stay finite has density 0.
    """
    out = np.empty((len(frames), model.num_states))
    eye = np.eye(len(dims))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, g in enumerate(model.emissions):
            chol = _cholesky(g.cov[np.ix_(dims, dims)], "the covariance")
            y = (frames - g.mean[dims]) @ _solve_lower(chol, eye).T
            # an overflowing residual can leave NaN, which fmin takes as inf
            quad = np.fmin(np.einsum("td,td->t", y, y), np.inf)
            out[:, i] = -0.5 * (_log_norm(chol) + quad)
    return out


def _failed_frame(bad: np.ndarray, valid: np.ndarray, backward: bool = False) -> str:
    """Name the frame where the first flagged sequence failed, from flags on
    the stored rows and the (N, T) mask of each sequence's frames: its first
    flagged frame, or its last when the recursion ran backward in time
    (a failure leaves every frame the recursion reaches after it flagged)."""
    flags = np.zeros(valid.shape, dtype=bool)
    flags[valid] = bad
    n = int(np.argmax(flags.any(axis=1)))
    frames = np.flatnonzero(flags[n])
    t = frames[-1] if backward else frames[0]
    return f"frame {t}" if flags.shape[0] == 1 else f"frame {t} of sequence {n}"


class _Passes(NamedTuple):
    a_hat: np.ndarray  # (F, S) forward variables, normalized at each renormalizing step
    log_c: np.ndarray  # (N, T) log scaling constants, 0 past each length
    beta_hat: np.ndarray | None  # (F, S) backward variables, rows of sum 1 but each last (1s)
    c_hat: np.ndarray | None  # (F, S) b_hat * beta_hat, each row to a scale of its own


def _forward_backward(
    priors: np.ndarray,
    trans: np.ndarray,
    log_b: np.ndarray,
    lengths: np.ndarray,
    backward: bool = False,
    interval: int = 1,
) -> _Passes:
    """Scaled forward (and optionally backward) passes over a batch.

    `log_b` holds (F, S) emission log-densities of sequences stored back to
    back, and the passes return rows in the same order; only the scaling
    constants come back padded, as an (N, T) array. Each frame is shifted by
    its largest log density before exponentiating; the forward variables are
    normalized per step and the log of each normalizer plus the shift is
    that step's scaling constant, so a sequence's log-likelihood is the sum
    of its constants (Rabiner 1989, section V-A).

    One loop steps the batch through time on rows padded time-major, one
    contiguous block per step; padded frames are computed but never used.
    Without `backward` the block is (N, 1, S), a stack of per-sequence
    vector-matrix products, so each sequence's forward variables equal, bit
    for bit, those of a batch holding it alone. With it the block is
    (2, N, S), one product per member: member 0 is the forward pass, and
    member 1 runs c_t = b_hat_t * beta_t = b_hat_t * (c_t+1 @ trans.T) back
    from each sequence's last frame, where beta is 1, so its step j holds
    frame T_k - 1 - j of sequence k. One product then recovers each beta_t
    as c_t+1 @ trans.T, scaled to sum to 1. The E-step's statistics cancel
    each row's scale, so its forward rows need not round like a batch of one.

    With `interval` k > 1 (the E-step's), the block normalizes only every
    k-th step and at its last; a last frame no normalization fell on adds
    the log of its mass to its constant. As b_hat <= 1 and rows of trans sum
    to 1, forward mass can only fall, so a normalizer or a backward row sum
    at or below `_RENORM_FLOOR` reruns the call at interval 1, whose errors
    are the per-step ones.
    """
    valid = np.arange(lengths.max()) < lengths[:, None]
    n, t_max, s = *valid.shape, log_b.shape[1]
    shift = functools.reduce(np.maximum, log_b.T)
    if not np.isfinite(shift).all():
        raise TrainingError("all states have zero emission likelihood at "
                            f"{_failed_frame(~np.isfinite(shift), valid)}")
    # the padding reads the last row, whose b_hat of 1 can fail none of the checks below
    b_hat = np.zeros((len(log_b) + 1, s))
    np.subtract(log_b, shift[:, None], out=b_hat[:-1])
    np.exp(b_hat, out=b_hat)

    m = 2 if backward else 1
    # frame t of sequence k is padded row t * m * n + k, member 1's rows follow
    pos = np.arange(t_max * m * n).reshape(t_max, m, n)[:, 0].T[valid]
    src = np.full(t_max * m * n, len(log_b))  # the row of b_hat each padded row reads
    src[pos] = np.arange(len(log_b))
    init, step = priors, trans
    if backward:
        ends = np.cumsum(lengths) - 1  # the stored row of each sequence's last frame
        # member 1 steps through each sequence from its last frame back
        rpos = pos[np.repeat(2 * ends - lengths + 1, lengths) - np.arange(len(log_b))] + n
        src[rpos] = np.arange(len(log_b))
        init, step = np.stack([priors, np.ones(s)])[:, None], np.stack([trans, trans.T])
    # take() gathers rows far faster than fancy indexing does
    b = np.take(b_hat, src, axis=0).reshape(t_max, *((2, n) if backward else (n, 1)), s)

    # step j normalizes if j % interval == interval - 1 or it is the last
    marks = ([False] * (interval - 1) + [True]) * (t_max // interval + 1)
    marks[t_max - 1] = True
    a = np.empty_like(b)
    total = np.ones((*b.shape[:-1], 1))
    floor = 0.0 if interval == 1 else _RENORM_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(init, b[0], out=a[0])
        # stepping over per-frame views spares indexing by t on every step
        a_prev = None
        for a_t, b_t, total_t, renorm in zip(a, b, total, marks):
            if a_prev is not None:
                np.matmul(a_prev, step, out=a_t)
                a_t *= b_t
            if renorm:
                np.add.reduce(a_t, axis=-1, keepdims=True, out=total_t)
                a_t /= total_t
            a_prev = a_t
        rows = a.reshape(t_max * m * n, s)
        total = total.reshape(t_max, m * n)  # the forward normalizers, then member 1's
        if interval > 1:  # a last frame no normalization fell on adds the log of its mass
            k = np.flatnonzero(~np.array(marks)[lengths - 1])
            total[lengths[k] - 1, k] = rows[(lengths[k] - 1) * m * n + k].sum(axis=1)
        ok = np.isfinite(total) & (total > floor)
        if interval > 1 and not ok.all():
            return _forward_backward(priors, trans, log_b, lengths, backward)
        if not ok[:, :n].all():
            bad = ~ok[:, :n].T[valid]
            raise TrainingError(f"forward mass vanished at {_failed_frame(bad, valid)}")
        log_c = np.zeros((n, t_max))
        log_c[valid] = np.log(total[:, :n].T[valid]) + shift

        beta_hat = c_hat = None
        if backward:
            c_hat = np.take(rows, rpos, axis=0)
            beta_hat = np.empty_like(c_hat)
            np.matmul(c_hat[1:], trans.T, out=beta_hat[:-1])
            beta_hat[ends] = 1.0
            mass = functools.reduce(np.add, beta_hat.T)
            ok = np.isfinite(mass) & (mass > floor)
            if not ok.all():
                if interval > 1:
                    return _forward_backward(priors, trans, log_b, lengths, backward)
                raise TrainingError(
                    f"backward mass vanished at {_failed_frame(~ok, valid, backward=True)}"
                )
            beta_hat /= mass[:, None]
            beta_hat[ends] = 1.0
    return _Passes(np.take(rows, pos, axis=0), log_c, beta_hat, c_hat)


def _filtered_labels(model: HmmModel, seqs: Sequence, dims: Sequence[int]) -> list[np.ndarray]:
    """Per-frame argmax of the forward variables of each (T, len(dims))
    matrix under the model's marginal on `dims`, all sequences in one
    batched pass; ties go to the lowest state."""
    lengths = np.array([len(f) for f in seqs])
    log_b = _log_emissions(model, np.vstack(seqs), dims)
    a_hat = _forward_backward(model.priors, model.transitions, log_b, lengths).a_hat
    return np.split(np.argmax(a_hat, axis=1), np.cumsum(lengths)[:-1])


def forward(model: HmmModel, obs, dims: Sequence[int] | None = None) -> ForwardResult:
    """Scaled forward recursion over the model restricted to `dims`.

    The first frame uses priors times emission density; later frames apply
    the transition-weighted sum. `obs` must have one column per entry of
    `dims` (all model dimensions when dims is None).
    """
    _check_type("model", model, HmmModel)
    dims = list(_index_tuple("dims", range(model.dim) if dims is None else dims, model.dim))
    frames = _frames_of("obs", obs, len(dims))
    log_b = _log_emissions(model, frames, dims)
    passes = _forward_backward(model.priors, model.transitions, log_b, np.array([len(frames)]))
    log_cum = np.cumsum(passes.log_c)  # flattens the (1, T) constants of a batch of one
    with np.errstate(divide="ignore"):
        log_alpha = np.log(passes.a_hat) + log_cum[:, None]
    return ForwardResult(h=passes.a_hat, log_alpha=log_alpha, log_likelihood=float(log_cum[-1]))


def init_temporal_bins(demos: Sequence, num_states: int, eps: float) -> HmmModel:
    """Initialize emissions from S contiguous temporal bins per sequence.

    Each sequence is cut into S near-equal bins, earlier bins taking the
    remainder; bin k pooled across sequences yields emission k's mean and
    eps-regularized covariance. Priors and transition rows start uniform.
    """
    _check_arg("num_states", num_states, "int", 1)
    _check_arg("eps", eps, "float", 0)
    demos = _sequence("demos", demos, "frame matrices")  # read twice: frames, then splits
    seqs = _demo_frames(demos, None)
    if not seqs:
        raise ValueError("demo list is empty")
    for k, seq in enumerate(seqs):
        if len(seq) < num_states:
            raise ValueError(
                f"demo {k} has {len(seq)} frames, fewer than {num_states} bins"
            )
    splits = {demo.split for demo in demos if isinstance(demo, FeatureSequence)}
    if len(splits) > 1:
        raise ValueError("demos carry inconsistent dimension splits")
    split = splits.pop() if splits else DimensionSplit(tuple(range(seqs[0].shape[1])), ())

    bins: list[list[np.ndarray]] = [[] for _ in range(num_states)]
    for seq in seqs:
        for k, chunk in enumerate(np.array_split(seq, num_states)):
            bins[k].append(chunk)

    emissions = []
    for chunks in bins:
        emissions.append(GaussianState(*_pooled_moments(np.vstack(chunks), eps)))

    priors = np.full(num_states, 1.0 / num_states)
    trans = np.full((num_states, num_states), 1.0 / num_states)
    return HmmModel(priors, trans, tuple(emissions), split)


class _EStats(NamedTuple):
    pi_acc: np.ndarray
    trans_acc: np.ndarray
    resp: np.ndarray
    mean_acc: np.ndarray
    gamma: np.ndarray  # (F, S) state posteriors of the pooled frames


def _pairs(lengths: np.ndarray) -> np.ndarray:
    """(F - 1,) mask of the pooled rows whose successor belongs to the same
    sequence, for sequences of `lengths` stored back to back."""
    return np.diff(np.repeat(np.arange(len(lengths)), lengths)) == 0


def _e_step(
    model: HmmModel, pooled: np.ndarray, lengths: np.ndarray, pair: np.ndarray
) -> tuple[_EStats, float]:
    """Posterior statistics of sequences stored back to back in `pooled`;
    `pair` is `_pairs(lengths)`."""
    trans = model.transitions
    # one Cholesky per state for the whole batch
    log_b = _log_emissions(model, pooled, np.arange(model.dim))
    a_hat, log_c, beta_hat, c_hat = _forward_backward(
        model.priors, trans, log_b, lengths, backward=True, interval=_EM_INTERVAL
    )
    joint = a_hat * beta_hat
    row_tot = functools.reduce(np.add, joint.T)  # far faster than sum(axis=1) on thin rows
    if not np.all(np.isfinite(row_tot)) or np.any(row_tot <= 0):
        raise TrainingError("state posterior collapsed to zero mass")
    gamma = joint / row_tot[:, None]

    # pairwise posteriors a_t(i) A(i, j) c_t+1(j) / Z_t, each summing to 1
    # over (i, j), accumulated without forming the (F-1, S, S) tensor; a
    # row pairs with the next one when both belong to the same sequence
    a_prev = np.compress(pair, a_hat[:-1], axis=0)  # compress() outpaces a mask index
    c_next = np.compress(pair, c_hat[1:], axis=0)
    slice_tot = functools.reduce(np.add, ((a_prev @ trans) * c_next).T)
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
        cov = _regularize(0.5 * (acc + acc.T) / stats.resp[i], eps)
        try:
            emissions.append(GaussianState(mean, cov))
        except ValueError as exc:
            raise TrainingError(f"state {i} re-estimation produced {exc}") from exc
    return HmmModel(priors, trans, tuple(emissions), model.split)


def _check_em_args(max_iter: int, tol: float, eps: float) -> None:
    _check_arg("max_iter", max_iter, "int", 1)
    _check_arg("tol", tol, "float", 0)
    _check_arg("eps", eps, "float", 0)


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
    _check_type("model", model, HmmModel)
    _check_em_args(max_iter, tol, eps)
    seqs = _demo_frames(demos, model.dim)
    if not seqs:
        raise ValueError("demo list is empty")

    pooled = np.vstack(seqs)
    lengths = np.array([len(seq) for seq in seqs])
    pair = _pairs(lengths)

    current = model
    stats, ll = _e_step(current, pooled, lengths, pair)
    history = [ll]
    # after the first E-step, which names a frame the model cannot score
    _, global_cov = _pooled_moments(pooled, eps)
    global_cov.setflags(write=False)
    for _ in range(max_iter):
        candidate = _m_step(current, stats, pooled, eps, global_cov)
        new_stats, new_ll = _e_step(candidate, pooled, lengths, pair)
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


def _check_split(model: HmmModel) -> None:
    """Regression and segmentation need human and robot dims."""
    if not model.split.human_idx or not model.split.robot_idx:
        raise ValueError("model split must include human and robot dimensions")


def _human_frames(model: HmmModel, human_obs) -> np.ndarray:
    """The (T, D_human) frames that regression conditions on, checked
    against the model's split."""
    _check_split(model)
    return _frames_of("human_obs", human_obs, len(model.split.human_idx))


def _human_marginal(model: HmmModel, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each state's human-marginal log density of the (T, D_human) frames,
    (T, S), and its conditional mean of the robot dims given them, (T, S, R).

    One Cholesky factor of each state's human block serves both, through
    the stacked factors the model keeps (`_regression`). The densities take
    prediction's density path (`gaussian._log_densities`) and the
    conditional means one einsum over C-ordered frames, so every row
    depends on its own frame's values only: a prefix, or frames in any
    memory layout, give the same rows bit for bit. A frame too far out to
    score has density 0 and may have a non-finite conditional mean, which
    no caller reaches: the forward pass fails on it.
    """
    reg = model._regression
    log_b = _log_densities(frames, reg.means, reg.inv_chols, reg.log_norms)
    with np.errstate(over="ignore", invalid="ignore"):
        cond = np.einsum("srh,th->tsr", reg.gains, np.ascontiguousarray(frames)) + reg.offsets
    return log_b, cond


def _gmr(
    model: HmmModel, frames: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mixture regression of the robot dims on checked (F, D_human) frames
    of sequences stored back to back: the (F, R) prediction, the forward
    variables of the human marginal (F, S) that weight it, and the states'
    human log densities (F, S)."""
    log_b, cond = _human_marginal(model, frames)
    h = _forward_backward(model.priors, model.transitions, log_b, lengths).a_hat
    return np.einsum("ts,tsr->tr", h, cond), h, log_b


def gmr_predict(model: HmmModel, human_obs) -> FeatureSequence:
    """Predict robot dims from human dims by Gaussian mixture regression.

    Per frame, responsibilities come from the forward pass over the human
    marginal; the output is the responsibility-weighted sum of each state's
    conditional mean given the frame's human observation.
    """
    _check_type("model", model, HmmModel)
    frames = _human_frames(model, human_obs)
    rows, _, _ = _gmr(model, frames, np.array([len(frames)]))
    return FeatureSequence(rows, model._regression.split)


def viterbi_labels(model: HmmModel, obs, dims: Sequence[int] | None = None) -> np.ndarray:
    """(T,) per-frame argmax of the normalized forward variable over the
    model restricted to `dims`; ties -> lowest.

    Despite the name this is not a Viterbi path: each label is the most
    likely state given the frames up to and including its own (the
    filtered estimate), so consecutive labels need not form a likely, or
    even a possible, state path.
    """
    return np.argmax(forward(model, obs, dims).h, axis=1)
