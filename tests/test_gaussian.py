"""Tests for the multivariate Gaussian primitives."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from tschmm.gaussian import (
    GaussianState,
    _log_densities,
    _log_norm,
    _solve_lower,
    log_density,
    marginalize,
)

# ln N(0; 0, 1) = -0.5 * ln(2*pi), checked against scipy.stats.norm
LOG_STD_NORMAL_AT_ZERO = -0.9189385332046727
# ln N([1,2]; [0,0], [[2,.5],[.5,1]]), frozen from scipy.stats.multivariate_normal
LOG_BIVARIATE_FROZEN = -4.117684960377057


def _random_pd_cov(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T + 0.5 * np.eye(d)


def test_log_density_standard_normal_at_zero():
    g = GaussianState(np.zeros(1), np.eye(1))
    assert log_density(np.zeros(1), g) == pytest.approx(LOG_STD_NORMAL_AT_ZERO, abs=1e-12)


def test_log_density_matches_frozen_bivariate_value():
    g = GaussianState([0.0, 0.0], [[2.0, 0.5], [0.5, 1.0]])
    assert log_density(np.array([1.0, 2.0]), g) == pytest.approx(
        LOG_BIVARIATE_FROZEN, abs=1e-12
    )


def test_log_density_batch_agrees_with_single_rows():
    # bit for bit: a frame's density does not depend on the batch it is in
    rng = np.random.default_rng(7)
    for dim in (1, 3, 6, 12):
        g = GaussianState(rng.normal(size=dim), _random_pd_cov(rng, dim))
        xs = rng.normal(size=(11, dim))
        batch = log_density(xs, g)
        assert batch.shape == (11,)
        assert log_density(xs[:0], g).shape == (0,)
        for t in range(11):
            assert batch[t] == log_density(xs[t], g)
            assert np.array_equal(log_density(xs[: t + 1], g), batch[: t + 1])


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(states=st.integers(1, 5), dim=st.integers(1, 8), frames=st.integers(1, 24),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_densities_give_prefix_rows_bit_for_bit(states, dim, frames, seed):
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(states, dim))
    covs = [_random_pd_cov(rng, dim) for _ in range(states)]
    chols = [np.linalg.cholesky(cov) for cov in covs]
    log_norms = np.array([_log_norm(chol) for chol in chols])
    # LAPACK returns each inverse factor Fortran-ordered, and np.stack
    # keeps that order within each factor
    fortran_factors = np.stack([_solve_lower(chol, np.eye(dim)) for chol in chols])
    inv_chols = np.ascontiguousarray(fortran_factors)
    pts = rng.normal(size=(frames, dim)) * 3.0
    whole = _log_densities(pts, means, inv_chols, log_norms)
    assert whole.shape == (frames, states)
    want = np.column_stack([
        _oracles.solve_log_density(pts, mean, cov) for mean, cov in zip(means, covs)
    ])
    np.testing.assert_allclose(whole, want, rtol=1e-10, atol=1e-10)
    for k in range(1, frames + 1):
        for prefix in (pts[:k], np.asfortranarray(pts[:k]), pts[k - 1:k].copy()):
            for factors in (inv_chols, fortran_factors, np.asfortranarray(inv_chols)):
                got = _log_densities(prefix, means, factors, log_norms)
                assert np.array_equal(got[-1], whole[k - 1]), (k, prefix.strides, factors.strides)


@pytest.mark.parametrize("trans", [0, 1])
def test_solve_lower_equals_scipy_bit_for_bit(trans):
    rng = np.random.default_rng(11)
    for dim in range(1, 13):
        chol = np.linalg.cholesky(_random_pd_cov(rng, dim))
        residuals = (rng.normal(size=(148, dim)) * 3.0 - rng.normal(size=dim)).T
        lone = residuals[:, :1]
        # one right-hand side, many (Fortran- and C-ordered), and a lone
        # right-hand side beside a copy of itself
        for rhs in (lone, residuals, np.ascontiguousarray(residuals), lone[:, [0, 0]]):
            want = scipy.linalg.solve_triangular(chol, rhs, lower=True, trans=trans)
            assert np.array_equal(_solve_lower(chol, rhs, trans), want), (dim, rhs.shape)


def test_log_density_of_an_overflowing_residual_is_minus_inf():
    # the residual overflows to inf in both coordinates; the correlated
    # factor then turns the solve's second entry into inf - inf = NaN
    g = GaussianState([-1e308, -1e308], [[1.0, 0.5], [0.5, 1.0]])
    assert log_density(np.array([1e308, 1e308]), g) == -np.inf
    out = log_density(np.array([[1e308, 1e308], [-1e308, -1e308]]), g)
    assert out[0] == -np.inf and np.isfinite(out[1])


def test_log_density_rejects_wrong_width():
    g = GaussianState(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError, match="dimension"):
        log_density(np.zeros((4, 3)), g)


@pytest.mark.parametrize("x, message", [
    ({}, "x must hold numbers"),
    ("ab", "x must hold numbers"),
    ([[0.0, 1.0], [0.0]], "x must hold numbers"),
    ([np.nan, 0.0], "x must be finite"),
    (np.zeros((2, 2, 2)), r"x must be a vector or an \(N, D\) matrix, got 3 axes"),
    (0.0, r"x must be a vector or an \(N, D\) matrix, got 0 axes"),
])
def test_log_density_reads_x_by_the_array_rule(x, message):
    g = GaussianState(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError, match=f"^{message}"):
        log_density(x, g)


def test_log_density_of_an_empty_batch_is_empty():
    out = log_density(np.zeros((0, 2)), GaussianState(np.zeros(2), np.eye(2)))
    assert isinstance(out, np.ndarray) and out.shape == (0,)


def test_gaussian_state_validates_inputs():
    with pytest.raises(ValueError, match="square"):
        GaussianState(np.zeros(2), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="length 2"):
        GaussianState(np.zeros(2), np.eye(3))
    with pytest.raises(ValueError, match="finite"):
        GaussianState(np.array([np.nan]), np.eye(1))
    with pytest.raises(ValueError, match="symmetric"):
        GaussianState(np.zeros(2), np.array([[1.0, 0.2], [0.1, 1.0]]))


def test_gaussian_state_arrays_are_read_only_copies():
    mean = np.zeros(2)
    g = GaussianState(mean, np.eye(2))
    mean[0] = 99.0
    assert g.mean[0] == 0.0
    with pytest.raises(ValueError):
        g.mean[0] = 1.0
    with pytest.raises(ValueError):
        g.cov[0, 0] = 5.0


def test_marginalize_slices_mean_and_cov():
    mean = np.array([1.0, 2.0, 3.0])
    cov = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
    m = marginalize(GaussianState(mean, cov), [0, 2])
    assert np.array_equal(m.mean, [1.0, 3.0])
    assert np.array_equal(m.cov, [[4.0, 0.5], [0.5, 2.0]])


def test_marginalize_rejects_bad_index_lists():
    g = GaussianState(np.zeros(3), np.eye(3))
    with pytest.raises(ValueError, match="non-empty"):
        marginalize(g, [])
    with pytest.raises(ValueError, match="out-of-range"):
        marginalize(g, [0, 3])
    with pytest.raises(ValueError, match="strictly increasing"):
        marginalize(g, [1, 1])
    with pytest.raises(ValueError, match="strictly increasing"):
        marginalize(g, [2, 0])


def test_index_lists_reject_non_integer_entries():
    g = GaussianState(np.zeros(3), np.eye(3))
    # integral in value or not, a float or a bool is not an index
    for bad in ([0.5, 2.7], [True, 2], np.array([0.0, 2.0]), np.array([True, False])):
        with pytest.raises(ValueError, match="idx must hold integers"):
            marginalize(g, bad)
    assert marginalize(g, np.array([0, 2], dtype=np.uint8)).dim == 2
    assert marginalize(g, (0, np.int64(2))).dim == 2
