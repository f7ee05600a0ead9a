"""Multivariate Gaussian primitives: density, marginals, conditionals.

All covariance algebra goes through Cholesky factorizations; covariance
matrices are never inverted explicitly. Densities are evaluated in log
space so that products over long observation sequences do not underflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular

__all__ = [
    "GaussianState",
    "log_density",
    "marginalize",
    "condition",
    "regularize",
]

_LOG_2PI = float(np.log(2.0 * np.pi))
_SYMMETRY_ATOL = 1e-12


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GaussianState:
    """One emission distribution: mean vector and covariance matrix.

    Immutable after construction; the wrapped arrays are defensive,
    read-only copies.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _as_readonly(np.atleast_1d(self.mean))
        cov = _as_readonly(np.atleast_2d(self.cov))
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("cov must be a square matrix")
        if cov.shape[0] != mean.shape[0]:
            raise ValueError(
                f"mean has length {mean.shape[0]} but cov is {cov.shape[0]}x{cov.shape[1]}"
            )
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise ValueError("mean and cov must be finite")
        if np.max(np.abs(cov - cov.T), initial=0.0) > _SYMMETRY_ATOL:
            raise ValueError("cov must be symmetric to within 1e-12")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def _cholesky(cov: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor, with a readable error on failure."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"Cholesky factorization of {what} failed (matrix not positive "
            f"definite); consider increasing the diagonal regularization"
        ) from exc


def _log_density(pts: np.ndarray, mean: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """(N,) log densities of the rows of `pts` under N(mean, chol chol^T).

    Solves L y = (x - mu)^T; the squared norm of y is the Mahalanobis term.
    A lone point is solved beside a copy of itself: BLAS takes another path
    for one right-hand side, and its rounding differs from the batch's, so
    a frame's density would depend on how many share a call.
    """
    rhs = (pts - mean).T
    y = solve_triangular(chol, rhs if len(pts) > 1 else rhs[:, [0, 0]], lower=True)
    quad = np.sum(y * y, axis=0)[: len(pts)]
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (len(mean) * _LOG_2PI + log_det + quad)


def log_density(x: np.ndarray, g: GaussianState) -> np.ndarray | float:
    """Log density ln N(x; g.mean, g.cov).

    `x` may be a single vector of length D or an (N, D) batch; returns a
    scalar or an (N,) array correspondingly.
    """
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if pts.shape[1] != g.dim:
        raise ValueError(f"x has dimension {pts.shape[1]}, expected {g.dim}")
    out = _log_density(pts, g.mean, _cholesky(g.cov, "the covariance"))
    return float(out[0]) if x.ndim == 1 else out


def _check_index_list(idx: Sequence[int], dim: int, name: str = "idx") -> np.ndarray:
    idx = np.asarray(idx, dtype=int)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError(f"{name} must be a non-empty index list")
    if np.any(idx < 0) or np.any(idx >= dim):
        raise ValueError(f"{name} contains out-of-range entries for dimension {dim}")
    if np.any(np.diff(idx) <= 0):
        raise ValueError(f"{name} must be strictly increasing with no duplicates")
    return idx


def marginalize(g: GaussianState, idx: Sequence[int]) -> GaussianState:
    """Marginal distribution over the selected dimensions."""
    idx = _check_index_list(idx, g.dim)
    return GaussianState(g.mean[idx], g.cov[np.ix_(idx, idx)])


def _conditional_affine(
    g: GaussianState, obs_idx: np.ndarray, free_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Affine map of the conditional: mean(obs) = offset + gain @ obs.

    Takes checked, disjoint index arrays. Returns (chol, gain, offset): the
    lower Cholesky factor of the observed block, which also serves that
    block's density (`_log_density`), and the map onto the `free_idx` dims.
    """
    s12 = g.cov[np.ix_(obs_idx, free_idx)]
    try:
        chol = np.linalg.cholesky(g.cov[np.ix_(obs_idx, obs_idx)])
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "observed-block covariance is singular; regularize the covariance "
            "before conditioning"
        ) from exc
    # gain = S21 S11^-1, computed as (L^-T L^-1 S12)^T
    y = solve_triangular(chol, s12, lower=True)
    gain = solve_triangular(chol, y, lower=True, trans="T").T
    return chol, gain, g.mean[free_idx] - gain @ g.mean[obs_idx]


def condition(g: GaussianState, obs_idx: Sequence[int], obs_val: np.ndarray) -> GaussianState:
    """Condition on observed dimensions; returns the Gaussian over the rest.

    mean = mu2 + S21 S11^-1 (obs_val - mu1)
    cov  = S22 - S21 S11^-1 S12
    """
    obs_idx = _check_index_list(obs_idx, g.dim, "obs_idx")
    obs_val = np.asarray(obs_val, dtype=float)
    if obs_val.shape != (obs_idx.size,):
        raise ValueError(
            f"obs_val has shape {obs_val.shape}, expected ({obs_idx.size},)"
        )
    free_idx = np.setdiff1d(np.arange(g.dim), obs_idx)
    if free_idx.size == 0:
        raise ValueError("cannot condition on every dimension")
    _, gain, offset = _conditional_affine(g, obs_idx, free_idx)
    cond_cov = g.cov[np.ix_(free_idx, free_idx)] - gain @ g.cov[np.ix_(obs_idx, free_idx)]
    return GaussianState(offset + gain @ obs_val, 0.5 * (cond_cov + cond_cov.T))


def regularize(cov: np.ndarray, eps: float) -> np.ndarray:
    """cov + eps * I."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("cov must be a square matrix")
    if eps < 0:
        raise ValueError("eps must be non-negative")
    return cov + eps * np.eye(cov.shape[0])
