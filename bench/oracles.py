"""Independent reference computations for the benchmark's output checks.

Built on numpy and scipy only; nothing here imports or calls tschmm. Models
enter as plain arrays (see `Hmm`), read either from a model object's public
fields or straight from a saved model JSON, so a fault shared by the program
and its own helpers cannot hide here.

- `gmr`: Gaussian mixture regression, filtering in log space with
  `scipy.stats.multivariate_normal` and conditioning by explicit solves
  (the program normalises each step and uses Cholesky factors instead).
- `gate`: the gate rule and the transition-mixture regression it selects.
- `dilate`: mask dilation by a sliding window (the program convolves).
- `mse`: mean squared error on robot positions, in cm^2.

Run this file to check every oracle against hand-derived values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, softmax
from scipy.stats import multivariate_normal


@dataclass(frozen=True)
class Hmm:
    """Plain-array HMM: priors (S,), transitions (S, S), means (S, D),
    covs (S, D, D), and the human/robot feature columns."""

    priors: np.ndarray
    transitions: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    human_idx: tuple
    robot_idx: tuple


def hmm_from_model(model) -> Hmm:
    """Read the public fields of an HmmModel."""
    return Hmm(
        np.array(model.priors),
        np.array(model.transitions),
        np.array([g.mean for g in model.emissions]),
        np.array([g.cov for g in model.emissions]),
        tuple(model.split.human_idx),
        tuple(model.split.robot_idx),
    )


def hmm_from_json(d: dict) -> Hmm:
    """Read one HMM payload of a saved model file."""
    return Hmm(
        np.array(d["priors"], dtype=float),
        np.array(d["transitions"], dtype=float),
        np.array([e["mean"] for e in d["emissions"]], dtype=float),
        np.array([e["cov"] for e in d["emissions"]], dtype=float),
        tuple(d["split"]["human_idx"]),
        tuple(d["split"]["robot_idx"]),
    )


def features(human_pos: np.ndarray) -> np.ndarray:
    """Human feature rows: position and per-frame difference (0 at t=0)."""
    pos = np.asarray(human_pos, dtype=float)
    diff = np.zeros_like(pos)
    diff[1:] = pos[1:] - pos[:-1]
    return np.hstack([pos, diff])


def _human_log_densities(m: Hmm, x: np.ndarray) -> np.ndarray:
    """(T, S) log N(x_t; human marginal of state s)."""
    h = list(m.human_idx)
    cols = [
        multivariate_normal(m.means[s, h], m.covs[s][np.ix_(h, h)]).logpdf(x)
        for s in range(len(m.priors))
    ]
    return np.atleast_2d(np.column_stack(cols))


def _conditional_means(m: Hmm, x: np.ndarray) -> np.ndarray:
    """(T, S, R) conditional robot means given each human row."""
    h, r = list(m.human_idx), list(m.robot_idx)
    out = []
    for s in range(len(m.priors)):
        s_hh = m.covs[s][np.ix_(h, h)]
        s_rh = m.covs[s][np.ix_(r, h)]
        # mu_r + S_rh S_hh^-1 (x - mu_h), with the solve on the human block
        delta = np.linalg.solve(s_hh, (x - m.means[s, h]).T)
        out.append(m.means[s, r] + (s_rh @ delta).T)
    return np.stack(out, axis=1)


def filtered_responsibilities(m: Hmm, x: np.ndarray) -> np.ndarray:
    """(T, S) p(state_t | x_1..t) by the log-space forward recursion."""
    log_b = _human_log_densities(m, x)
    with np.errstate(divide="ignore"):
        log_a = np.log(m.transitions)
        log_alpha = np.log(m.priors) + log_b[0]
    out = np.empty_like(log_b)
    out[0] = softmax(log_alpha)
    for t in range(1, len(x)):
        log_alpha = logsumexp(log_alpha[:, None] + log_a, axis=0) + log_b[t]
        out[t] = softmax(log_alpha)
    return out


def gmr(m: Hmm, x: np.ndarray) -> np.ndarray:
    """(T, R) robot prediction from human feature rows x (T, H)."""
    h = filtered_responsibilities(m, x)
    return np.einsum("ts,tsr->tr", h, _conditional_means(m, x))


def gate(base: Hmm, trans: Hmm, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gate margin per frame and the transition-mixture regression.

    A frame fires when its margin is positive: the best transition state's
    human log density exceeds the log density of the base mixture weighted
    by the filtered responsibilities. A fired frame predicts the
    transition-state conditional means weighted by the softmax of their
    human log densities.
    """
    with np.errstate(divide="ignore"):
        log_mix = logsumexp(
            np.log(filtered_responsibilities(base, x)) + _human_log_densities(base, x),
            axis=1,
        )
    log_bt = _human_log_densities(trans, x)
    margin = log_bt.max(axis=1) - log_mix
    pred = np.einsum("ts,tsr->tr", softmax(log_bt, axis=1), _conditional_means(trans, x))
    return margin, pred


def dilate(mask, w: int) -> np.ndarray:
    """Frame t is set when any frame within w of t is set."""
    mask = np.asarray(mask, dtype=bool)
    n = mask.size
    return np.array([mask[max(0, t - w) : t + w + 1].any() for t in range(n)], dtype=bool)


def mse(pred_pos: np.ndarray, true_pos: np.ndarray) -> float:
    """Mean squared robot-position error in cm^2 (inputs in meters)."""
    diff = 100.0 * (np.asarray(pred_pos, dtype=float) - np.asarray(true_pos, dtype=float))
    return float(np.mean(diff**2))


# --- checks against hand-derived values -------------------------------------


def _two_state() -> Hmm:
    # human dim 0, robot dim 1; robot independent of human within a state,
    # so each conditional mean is the state's robot mean
    return Hmm(
        priors=np.array([0.5, 0.5]),
        transitions=np.array([[0.9, 0.1], [0.1, 0.9]]),
        means=np.array([[0.0, 0.0], [2.0, 4.0]]),
        covs=np.array([np.eye(2), np.eye(2)]),
        human_idx=(0,),
        robot_idx=(1,),
    )


def _check(name: str, got, want, tol: float = 1e-12) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=0.0, atol=tol):
        raise AssertionError(f"oracle self-check {name}: got {got!r}, want {want!r}")


def selfcheck() -> None:
    """Raise AssertionError if an oracle disagrees with a hand-derived value."""
    # one state: E[r | h=3] = 2 + (1/2)(3 - 1) = 3 for mean (1, 2), cov [[2,1],[1,3]]
    one = Hmm(np.array([1.0]), np.array([[1.0]]), np.array([[1.0, 2.0]]),
              np.array([[[2.0, 1.0], [1.0, 3.0]]]), (0,), (1,))
    _check("gmr/conditioning", gmr(one, np.array([[3.0]])), [[3.0]])

    # two states: x=1 is equidistant from the human means 0 and 2, so the
    # first frame weights both 1/2 (prediction (0 + 4)/2 = 2); at x=0 the
    # predicted weights stay 1/2 each and the likelihood ratio is e^2, so
    # the second frame weights state 1 by q = e^-2 / (1 + e^-2)
    q = np.exp(-2.0) / (1.0 + np.exp(-2.0))
    two = _two_state()
    x = np.array([[1.0], [0.0]])
    _check("gmr/filtering", filtered_responsibilities(two, x), [[0.5, 0.5], [1 - q, q]])
    _check("gmr/regression", gmr(two, x), [[2.0], [4.0 * q]])

    # gate at x=1: the base mixture density is N(1;0,1) = N(1;2,1) = c*e^-1/2.
    # A transition state centred on 1 has density c > c*e^-1/2: margin +1/2.
    # One centred on 3 has c*e^-2: margin -3/2.
    trans = Hmm(np.array([0.5, 0.5]), np.eye(2) * 0.5 + 0.25,
                np.array([[1.0, 10.0], [3.0, 20.0]]), np.array([np.eye(2), np.eye(2)]),
                (0,), (1,))
    margin, pred = gate(two, trans, np.array([[1.0]]))
    _check("gate/margin-fire", margin, [0.5])
    # softmax of log densities (-1/2 log 2pi) and (-2 - 1/2 log 2pi)
    p = 1.0 / (1.0 + np.exp(-2.0))
    _check("gate/transition-regression", pred, [[10.0 * p + 20.0 * (1 - p)]])
    far = Hmm(trans.priors, trans.transitions, np.array([[3.0, 0.0], [3.0, 0.0]]),
              trans.covs, (0,), (1,))
    _check("gate/margin-hold", gate(two, far, np.array([[1.0]]))[0], [-1.5])

    _check("dilate/w1", dilate([0, 0, 1, 0, 0, 0, 1], 1), [0, 1, 1, 1, 0, 1, 1])
    _check("dilate/w0", dilate([1, 0, 1], 0), [1, 0, 1])
    _check("dilate/clip", dilate([1, 0, 0, 0, 0], 2), [1, 1, 1, 0, 0])

    # 1 cm error on x only, averaged over three coordinates: 1/3 cm^2
    _check("mse", mse([[0.01, 0.0, 0.0]], [[0.0, 0.0, 0.0]]), 1.0 / 3.0)
    _check("mse/two-rows", mse([[0.02, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0.01]]),
           (4.0 + 1.0) / 6.0)

    _check("features", features([[1.0, 2.0, 3.0], [1.5, 2.0, 2.0]]),
           [[1.0, 2.0, 3.0, 0.0, 0.0, 0.0], [1.5, 2.0, 2.0, 0.5, 0.0, -1.0]])


if __name__ == "__main__":
    selfcheck()
    print("oracle self-checks passed")
