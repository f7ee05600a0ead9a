"""Multivariate Gaussian primitives: density, marginals, conditional means.

One factor path and one solve path: every covariance factor is a lower
Cholesky factor taken by `_cholesky`, which holds the one error path, and
every triangular solve against such a factor goes through `_solve_lower`.
Covariance matrices are never inverted explicitly. Densities are evaluated
in log space so that products over long observation sequences do not
underflow. Prediction and `log_density` take `_log_densities`, whose rows
depend on their own point alone; EM takes the faster `hmm._log_emissions`.
Arrays and index lists are checked by `data`'s rules, not in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import get_lapack_funcs

from .data import _check_type, _float_array, _index_tuple

__all__ = [
    "GaussianState",
    "log_density",
    "marginalize",
]

_LOG_2PI = float(np.log(2.0 * np.pi))
_SYMMETRY_ATOL = 1e-12
# LAPACK's triangular solve, bound once: scipy.linalg's wrapper around it
# checks and converts its arguments on every call, which at these sizes
# costs several times the solve
_TRTRS = get_lapack_funcs("trtrs", dtype=np.float64)


@dataclass(frozen=True)
class GaussianState:
    """One emission distribution: mean vector and covariance matrix.

    Immutable after construction; the wrapped arrays are defensive,
    read-only copies.
    """

    mean: np.ndarray
    cov: np.ndarray

    # an asymmetry beyond the float range reads inf, and is refused
    @np.errstate(over="ignore")
    def __post_init__(self):
        mean = np.atleast_1d(_float_array("mean", self.mean))
        cov = np.atleast_2d(_float_array("cov", self.cov))
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("cov must be a square matrix")
        if cov.shape[0] != mean.shape[0]:
            raise ValueError(
                f"mean has length {mean.shape[0]} but cov is {cov.shape[0]}x{cov.shape[1]}"
            )
        if np.max(np.abs(cov - cov.T), initial=0.0) > _SYMMETRY_ATOL:
            raise ValueError("cov must be symmetric to within 1e-12")
        mean.setflags(write=False)
        cov.setflags(write=False)
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


def _solve_lower(chol: np.ndarray, rhs: np.ndarray, trans: int = 0) -> np.ndarray:
    """L^-1 rhs, or L^-T rhs with trans=1, for a C-ordered lower factor L.

    LAPACK gets the arguments that scipy.linalg's wrapper passes it for such
    a factor (L^T as an upper factor in Fortran order, the transpose flag
    flipped), so the results are the wrapper's, bit for bit. Non-finite
    entries of `rhs` propagate; nothing scans for them.
    """
    x, info = _TRTRS(chol.T, rhs, lower=0, trans=1 - trans)
    if info:
        raise np.linalg.LinAlgError(f"triangular solve failed (LAPACK info {info})")
    return x


def _log_norm(chol: np.ndarray) -> float:
    """D log 2 pi + log det of the covariance whose lower Cholesky factor is `chol`."""
    return len(chol) * _LOG_2PI + 2.0 * np.sum(np.log(np.diag(chol)))


def _log_densities(
    pts: np.ndarray, means: np.ndarray, inv_chols: np.ndarray, log_norms: np.ndarray
) -> np.ndarray:
    """(N, S) log densities of the rows of `pts` under S Gaussians, given
    each one's mean, inverse lower Cholesky factor L^-1 and `_log_norm`.

    |L^-1 (x - mu)|^2 is two einsum calls, `optimize` left off, over
    C-ordered residuals and factors: no BLAS product or strided loop, whose
    rounding depends on the batch or the layout, so each row depends on its
    own point alone. A point too far out to square its residual has density 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        res = np.subtract(pts[:, None, :], means, order="C")
        y = np.einsum("skh,tsh->tsk", np.ascontiguousarray(inv_chols), res)
        # an overflowing residual can leave NaN, which fmin takes as inf
        quad = np.fmin(np.einsum("tsk,tsk->ts", y, y), np.inf)
    return -0.5 * (log_norms + quad)


def log_density(x: np.ndarray, g: GaussianState) -> np.ndarray | float:
    """Log density ln N(x; g.mean, g.cov).

    `x` may be a single vector of length D or an (N, D) batch; returns a
    scalar or an (N,) array correspondingly.
    """
    _check_type("g", g, GaussianState)
    x = _float_array("x", x)
    if x.ndim not in (1, 2):
        raise ValueError(f"x must be a vector or an (N, D) matrix, got {x.ndim} axes")
    pts = np.atleast_2d(x)
    if pts.shape[1] != g.dim:
        raise ValueError(f"x has dimension {pts.shape[1]}, expected {g.dim}")
    chol = _cholesky(g.cov, "the covariance")
    out = _log_densities(pts, [g.mean], [_solve_lower(chol, np.eye(g.dim))], [_log_norm(chol)])
    return float(out[0, 0]) if x.ndim == 1 else out[:, 0]


def marginalize(g: GaussianState, idx: Sequence[int]) -> GaussianState:
    """Marginal distribution over the selected dimensions."""
    _check_type("g", g, GaussianState)
    idx = list(_index_tuple("idx", idx, g.dim))
    return GaussianState(g.mean[idx], g.cov[np.ix_(idx, idx)])


def _conditional_affine(
    g: GaussianState, obs_idx: np.ndarray, free_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Affine map of the conditional: mean(obs) = offset + gain @ obs.

    Takes checked, disjoint index arrays. Returns (chol, gain, offset): the
    lower Cholesky factor of the observed block, whose inverse also serves
    that block's density (`_log_densities`), and the map onto the
    `free_idx` dims.
    """
    s12 = g.cov[np.ix_(obs_idx, free_idx)]
    chol = _cholesky(g.cov[np.ix_(obs_idx, obs_idx)], "the observed-block covariance")
    # gain = S21 S11^-1, computed as (L^-T L^-1 S12)^T
    gain = _solve_lower(chol, _solve_lower(chol, s12), trans=1).T
    return chol, gain, g.mean[free_idx] - gain @ g.mean[obs_idx]
