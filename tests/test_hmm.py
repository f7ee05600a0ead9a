"""Tests for the Gaussian-emission HMM: forward pass, EM, marginals, GMR."""

import dataclasses
import itertools
import logging
import re

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

import _oracles
from _oracles import brute_force_log_likelihood, random_hmm_params
from tschmm import hmm, tsc
from tschmm.data import (SYNTH_KINDS, Demonstration, DimensionSplit, FeatureSequence,
                         build_features, sample_batch, synth_generate)
from tschmm.gaussian import GaussianState, marginalize
from tschmm.hmm import (
    HmmModel,
    TrainingError,
    _e_step,
    _forward_backward,
    _log_emissions,
    _pairs,
    baum_welch,
    forward,
    gmr_predict,
    init_temporal_bins,
    viterbi_labels,
)

# Two-state reference model: pi=[.5,.5], T=[[.9,.1],[.1,.9]], N(0,1) and N(3,1).
# Expected values frozen from an explicit path-enumeration oracle (scipy.stats):
# obs [0.0]            alpha = (0.19947114020071635, 0.002215924205969)
# obs [0.0, 3.0] t=2   alpha = (0.00079660533435073, 0.00875337042492818)
HAND_ALPHA_1 = np.array([0.19947114020071635, 0.002215924205969])
HAND_H_1 = np.array([0.9890130573694068, 0.01098694263059318])
HAND_LL_1 = -1.6010379689160241
HAND_ALPHA_2 = np.array([0.00079660533435073, 0.00875337042492818])
HAND_H_2 = np.array([0.08341438286654639, 0.9165856171334535])
HAND_LL_2 = -4.651216662788123


def hand_model():
    return HmmModel(
        priors=np.array([0.5, 0.5]),
        transitions=np.array([[0.9, 0.1], [0.1, 0.9]]),
        emissions=(
            GaussianState([0.0], [[1.0]]),
            GaussianState([3.0], [[1.0]]),
        ),
        split=DimensionSplit((0,), ()),
    )


def _model_from_params(priors, trans, means, covs, split=None):
    emissions = tuple(GaussianState(m, c) for m, c in zip(means, covs))
    split = split or DimensionSplit(tuple(range(means.shape[1])), ())
    return HmmModel(priors, trans, emissions, split)


# --- HmmModel validation ------------------------------------------------------

def test_model_validates_simplexes():
    g = (GaussianState([0.0], [[1.0]]), GaussianState([1.0], [[1.0]]))
    split = DimensionSplit((0,), ())
    with pytest.raises(ValueError, match="priors sum"):
        HmmModel([0.6, 0.6], [[0.5, 0.5], [0.5, 0.5]], g, split)
    with pytest.raises(ValueError, match="transition rows"):
        HmmModel([0.5, 0.5], [[0.7, 0.5], [0.5, 0.5]], g, split)
    with pytest.raises(ValueError, match="non-negative"):
        HmmModel([1.5, -0.5], [[0.5, 0.5], [0.5, 0.5]], g, split)
    with pytest.raises(ValueError, match="finite"):
        HmmModel([np.nan, 1.0], [[0.5, 0.5], [0.5, 0.5]], g, split)


def test_model_validates_emissions_and_split():
    split = DimensionSplit((0,), ())
    g1 = GaussianState([0.0], [[1.0]])
    g2 = GaussianState([0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError, match="expected 2 emissions"):
        HmmModel([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], (g1,), split)
    with pytest.raises(ValueError, match="disagree on dimension"):
        HmmModel([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], (g1, g2), split)
    with pytest.raises(ValueError, match="split covers"):
        HmmModel([1.0], [[1.0]], (g2,), split)


_G1 = GaussianState([0.0], [[1.0]])
_SPLIT1 = DimensionSplit((0,), ())


@pytest.mark.parametrize("cls, args, message", [
    pytest.param(GaussianState, ([0.0], "x"), "cov must ", id="cov-text"),
    pytest.param(GaussianState, ("x", [[1.0]]), "mean must ", id="mean-text"),
    pytest.param(GaussianState, (None, [[1.0]]), "mean must ", id="mean-None"),
    pytest.param(GaussianState, ([0.0], {}), "cov must ", id="cov-dict"),
    pytest.param(GaussianState, ([[0.0], [0.0, 1.0]], np.eye(2)), "mean must ", id="mean-ragged"),
    pytest.param(GaussianState, ([[0.0], [1.0]], np.eye(2)), "mean must be a vector",
                 id="mean-matrix"),
    pytest.param(HmmModel, (["a"], [[1.0]], (_G1,), _SPLIT1), "priors must ", id="priors-text"),
    pytest.param(HmmModel, ([1.0], None, (_G1,), _SPLIT1), "transitions must ",
                 id="transitions-None"),
    pytest.param(HmmModel, ([1.0], [[object()]], (_G1,), _SPLIT1), "transitions must ",
                 id="transitions-object"),
    pytest.param(HmmModel, ([], [[1.0]], (_G1,), _SPLIT1), "priors must be a non-empty vector",
                 id="priors-empty"),
    pytest.param(HmmModel, ([0.5, 0.5], [[1.5, -0.5], [0.5, 0.5]], (_G1, _G1), _SPLIT1),
                 "transitions must be non-negative", id="transitions-negative"),
    pytest.param(FeatureSequence, (np.zeros(1), _SPLIT1), "frames must be a (T, D) matrix",
                 id="frames-vector"),
    pytest.param(DimensionSplit, (None, (1,)), "human_idx must ", id="human_idx-None"),
    pytest.param(DimensionSplit, ((0,), "1"), "robot_idx must ", id="robot_idx-text"),
    pytest.param(DimensionSplit, ((0.0,), (1,)), "human_idx must ", id="human_idx-float"),
    pytest.param(DimensionSplit, ((0,), (True,)), "robot_idx must ", id="robot_idx-bool"),
])
def test_constructors_name_the_bad_field(cls, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        cls(*args)


# --- forward -------------------------------------------------------------------

def test_forward_single_state_is_degenerate():
    model = _model_from_params(
        np.array([1.0]), np.array([[1.0]]), np.zeros((1, 1)), np.ones((1, 1, 1))
    )
    res = forward(model, np.array([[0.3], [1.2], [-0.5]]))
    assert np.array_equal(res.h, np.ones((3, 1)))


def test_forward_hand_model_one_observation():
    res = forward(hand_model(), np.array([[0.0]]))
    assert np.max(np.abs(res.h[0] - HAND_H_1)) < 1e-12
    assert res.log_likelihood == pytest.approx(HAND_LL_1, abs=1e-12)
    assert np.max(np.abs(res.log_alpha[0] - np.log(HAND_ALPHA_1))) < 1e-12


def test_forward_hand_model_two_observations():
    res = forward(hand_model(), np.array([[0.0], [3.0]]))
    assert np.max(np.abs(res.h[1] - HAND_H_2)) < 1e-12
    assert res.log_likelihood == pytest.approx(HAND_LL_2, abs=1e-12)
    assert np.max(np.abs(res.log_alpha[1] - np.log(HAND_ALPHA_2))) < 1e-12


def test_forward_rows_are_normalized():
    rng = np.random.default_rng(3)
    model = _model_from_params(*random_hmm_params(rng, 3, 2))
    res = forward(model, rng.normal(size=(40, 2)))
    assert np.max(np.abs(res.h.sum(axis=1) - 1.0)) < 1e-9
    assert res.h.min() >= 0.0 and res.h.max() <= 1.0


def test_forward_log_likelihood_matches_path_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = int(rng.integers(2, 4))
        d = int(rng.integers(1, 3))
        n = int(rng.integers(2, 9))
        priors, trans, means, covs = random_hmm_params(rng, s, d)
        obs = rng.normal(0.0, 2.0, size=(n, d))
        want = brute_force_log_likelihood(priors, trans, means, covs, obs)
        res = forward(_model_from_params(priors, trans, means, covs), obs)
        assert res.log_likelihood == pytest.approx(want, abs=1e-8)
        # the last log_alpha row must integrate to the same likelihood
        assert logsumexp(res.log_alpha[-1]) == pytest.approx(want, abs=1e-8)


def _marginal_model(model, dims):
    """The model's marginal on its human `dims` built as a sub-model, the
    reference that forward(dims=) must match without building one."""
    emissions = tuple(marginalize(g, dims) for g in model.emissions)
    split = DimensionSplit(tuple(range(len(dims))), ())
    return HmmModel(model.priors, model.transitions, emissions, split)


def test_forward_dims_equivalent_to_marginal_model():
    rng = np.random.default_rng(23)
    priors, trans, means, covs = random_hmm_params(rng, 3, 4)
    split = DimensionSplit((0, 1), (2, 3))
    model = _model_from_params(priors, trans, means, covs, split)
    obs = rng.normal(size=(25, 2))
    via_dims = forward(model, obs, [0, 1])
    via_marginal = forward(_marginal_model(model, [0, 1]), obs)
    assert np.max(np.abs(via_dims.h - via_marginal.h)) < 1e-10
    assert via_dims.log_likelihood == pytest.approx(
        via_marginal.log_likelihood, abs=1e-10
    )


def test_forward_underflow_raises_training_error():
    # the squared Mahalanobis distance overflows to inf, which is the
    # intended route to the all-states-at-zero error
    with np.errstate(over="ignore"), pytest.raises(
        TrainingError, match="zero emission likelihood at frame 0"
    ):
        forward(hand_model(), np.array([[1e200]]))


def test_overflowing_residuals_give_density_zero_without_a_warning():
    # residuals from the far state overflow to inf, and its correlated
    # factor turns them into NaN in the solve; that state gets density 0
    cov = [[1.0, 0.5], [0.5, 1.0]]
    model = HmmModel([0.5, 0.5], np.full((2, 2), 0.5),
                     (GaussianState([-1e308, -1e308], cov), GaussianState([1e308, 1e308], cov)),
                     DimensionSplit((0, 1), ()))
    frames = np.full((3, 2), 1e308)
    assert np.array_equal(forward(model, frames).h, [[0.0, 1.0]] * 3)
    assert np.array_equal(viterbi_labels(model, frames[:, :1], [0]), [1, 1, 1])
    # no state can score a frame whose residual overflows under each
    frames[1] = [1e308, -1e308]
    for call in (lambda: forward(model, frames), lambda: viterbi_labels(model, frames, [0, 1])):
        with pytest.raises(TrainingError, match="zero emission likelihood at frame 1$"):
            call()


def test_forward_validates_observation_width():
    with pytest.raises(ValueError, match="dimension"):
        forward(hand_model(), np.zeros((4, 2)))
    with pytest.raises(ValueError, match="non-empty"):
        forward(hand_model(), np.zeros((0, 1)))


def test_dims_must_be_integers():
    model = _model_from_params(*random_hmm_params(np.random.default_rng(3), 2, 3))
    frames = np.zeros((4, 2))
    for bad in ([0.5, 1], [True, 2]):
        with pytest.raises(ValueError, match="^dims must hold integers"):
            forward(model, frames, bad)
        with pytest.raises(ValueError, match="^dims must hold integers"):
            viterbi_labels(model, frames, bad)


@pytest.mark.parametrize("dims, message", [
    ([99], "contains out-of-range entries for dimension 12"),
    ([-1], "contains out-of-range entries for dimension 12"),
    ([], "must be a non-empty index list"),
    (5, "must be a sequence of integers, got int"),
    ([0.5], "must hold integers"),
    ([6, 0], "must be strictly increasing"),
])
def test_forward_reads_dims_by_the_index_rule(dims, message):
    model = _model_from_params(*random_hmm_params(np.random.default_rng(3), 2, 12))
    for call in (forward, viterbi_labels):
        with pytest.raises(ValueError, match=f"^dims {re.escape(message)}$"):
            call(model, np.zeros((2, 12)), dims)


# --- init_temporal_bins ---------------------------------------------------------

def test_init_bins_even_split_means():
    frames = np.arange(8.0)[:, None]
    model = init_temporal_bins([frames], 4, eps=0.1)
    means = [g.mean[0] for g in model.emissions]
    assert means == [0.5, 2.5, 4.5, 6.5]


def test_init_bins_remainder_goes_to_front():
    frames = np.arange(10.0)[:, None]
    model = init_temporal_bins([frames], 4, eps=0.1)
    # bin lengths [3, 3, 2, 2]
    means = [g.mean[0] for g in model.emissions]
    assert means == [1.0, 4.0, 6.5, 8.5]


def test_init_bins_pools_across_demos_and_regularizes():
    a = np.array([[0.0], [2.0]])
    b = np.array([[4.0], [6.0]])
    model = init_temporal_bins([a, b], 2, eps=0.25)
    # bin 0 pools frames {0, 4}: mean 2, empirical covariance 4
    assert model.emissions[0].mean[0] == 2.0
    assert model.emissions[0].cov[0, 0] == pytest.approx(4.0 + 0.25)
    assert model.emissions[1].mean[0] == 4.0


def test_init_bins_starts_uniform():
    model = init_temporal_bins([np.arange(9.0)[:, None]], 3, eps=0.1)
    assert np.array_equal(model.priors, np.full(3, 1 / 3))
    assert np.array_equal(model.transitions, np.full((3, 3), 1 / 3))


def test_init_bins_split_handling():
    rng = np.random.default_rng(0)
    demo = Demonstration(rng.normal(size=(8, 3)), rng.normal(size=(8, 3)))
    model = init_temporal_bins([build_features(demo)], 2, eps=0.1)
    assert model.split.human_idx == tuple(range(6))
    assert model.split.robot_idx == tuple(range(6, 12))
    raw = init_temporal_bins([rng.normal(size=(8, 2))], 2, eps=0.1)
    assert raw.split.human_idx == (0, 1) and raw.split.robot_idx == ()


def test_init_bins_recovers_piecewise_phases():
    rng = np.random.default_rng(5)
    phase_values = [0.0, 5.0, 10.0]
    sigma = 0.01
    demos = []
    for _ in range(2):
        signal = np.repeat(phase_values, 10)[:, None]
        demos.append(signal + rng.normal(0.0, sigma, signal.shape))
    model = init_temporal_bins(demos, 3, eps=1e-6)
    for g, want in zip(model.emissions, phase_values):
        assert abs(g.mean[0] - want) < sigma


def test_init_bins_validates_inputs():
    with pytest.raises(ValueError, match="num_states"):
        init_temporal_bins([np.zeros((4, 1))], 0, eps=0.1)
    with pytest.raises(ValueError, match="empty"):
        init_temporal_bins([], 2, eps=0.1)
    with pytest.raises(ValueError, match="fewer than 3 bins"):
        init_temporal_bins([np.zeros((2, 1))], 3, eps=0.1)
    with pytest.raises(ValueError, match="dimension"):
        init_temporal_bins([np.zeros((4, 1)), np.zeros((4, 2))], 2, eps=0.1)
    split_demos = [FeatureSequence(np.zeros((4, 2)), DimensionSplit((0, 1), ())),
                   FeatureSequence(np.zeros((4, 2)), DimensionSplit((0,), (1,)))]
    with pytest.raises(ValueError, match="^demos carry inconsistent dimension splits$"):
        init_temporal_bins(split_demos, 2, eps=0.1)


# --- baum_welch -------------------------------------------------------------------

def _sample_hand_sequences(rng, n_seqs, length):
    priors = np.array([0.5, 0.5])
    trans = np.array([[0.9, 0.1], [0.1, 0.9]])
    means = [0.0, 3.0]
    seqs = []
    for _ in range(n_seqs):
        state = rng.choice(2, p=priors)
        obs = np.empty((length, 1))
        for t in range(length):
            if t:
                state = rng.choice(2, p=trans[state])
            obs[t, 0] = means[state] + rng.normal()
        seqs.append(obs)
    return seqs


def test_baum_welch_history_starts_at_input_likelihood():
    rng = np.random.default_rng(1)
    seqs = _sample_hand_sequences(rng, 5, 20)
    model = hand_model()
    initial_ll = sum(forward(model, s).log_likelihood for s in seqs)
    _, history = baum_welch(model, seqs, max_iter=3, tol=0.0, eps=1e-3)
    assert history[0] == pytest.approx(initial_ll, abs=1e-9)
    assert len(history) <= 4


def test_baum_welch_is_monotone_and_improves():
    rng = np.random.default_rng(4)
    seqs = _sample_hand_sequences(rng, 10, 30)
    model = init_temporal_bins(seqs, 2, eps=1e-3)
    trained, history = baum_welch(model, seqs, max_iter=40, tol=1e-6, eps=1e-3)
    assert np.all(np.diff(history) >= -1e-8)
    assert history[-1] >= history[0]
    assert np.max(np.abs(trained.priors.sum() - 1.0)) < 1e-9
    assert np.max(np.abs(trained.transitions.sum(axis=1) - 1.0)) < 1e-9


def test_baum_welch_recovers_separated_means():
    # sticky 2-state source with means 0 and 5; the asymmetric start state
    # keeps the temporal-bin initialization off the symmetric saddle point
    rng = np.random.default_rng(8)
    priors = np.array([0.95, 0.05])
    trans = np.array([[0.95, 0.05], [0.05, 0.95]])
    means = np.array([0.0, 5.0])
    seqs = []
    for _ in range(100):
        state = rng.choice(2, p=priors)
        obs = np.empty((30, 1))
        for t in range(30):
            if t:
                state = rng.choice(2, p=trans[state])
            obs[t, 0] = means[state] + rng.normal()
        seqs.append(obs)
    model = init_temporal_bins(seqs, 2, eps=1e-2)
    trained, _ = baum_welch(model, seqs, max_iter=40, tol=1e-4, eps=1e-2)
    got = sorted(g.mean[0] for g in trained.emissions)
    assert abs(got[0] - 0.0) < 0.2
    assert abs(got[1] - 5.0) < 0.2


def test_baum_welch_rescues_starved_state(caplog):
    rng = np.random.default_rng(6)
    data = [rng.normal(0.0, 1.0, size=(40, 1))]
    far = HmmModel(
        priors=np.array([1.0, 0.0]),
        transitions=np.array([[1.0, 0.0], [0.5, 0.5]]),
        emissions=(
            GaussianState([0.0], [[1.0]]),
            GaussianState([1000.0], [[1.0]]),
        ),
        split=DimensionSplit((0,), ()),
    )
    with caplog.at_level(logging.WARNING, logger="tschmm.hmm"):
        trained, history = baum_welch(far, data, max_iter=5, tol=0.0, eps=1e-2)
    assert "responsibility" in caplog.text
    assert np.all(np.diff(history) >= -1e-8)
    # the starved state keeps its mean but receives the pooled covariance
    assert trained.emissions[1].mean[0] == 1000.0


def test_baum_welch_validates_inputs():
    model = hand_model()
    with pytest.raises(ValueError, match="max_iter"):
        baum_welch(model, [np.zeros((4, 1))], max_iter=0)
    with pytest.raises(ValueError, match="tol must be float >= 0"):
        baum_welch(model, [np.zeros((4, 1))], tol=-1.0)
    with pytest.raises(ValueError, match="empty"):
        baum_welch(model, [])
    with pytest.raises(ValueError, match="dimension"):
        baum_welch(model, [np.zeros((4, 2))])


def test_em_and_init_arguments_are_checked_by_type():
    model, demos = hand_model(), [np.zeros((4, 1))]
    for bad, message in (
        ({"max_iter": 2.5}, "max_iter must be int >= 1, got 2.5"),
        ({"max_iter": True}, "max_iter must be int >= 1, got True"),
        ({"tol": "x"}, "tol must be float >= 0, got 'x'"),
        ({"tol": np.nan}, "tol must be float >= 0, got nan"),
        ({"eps": False}, "eps must be float >= 0, got False"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            baum_welch(model, demos, **bad)
    for num_states, eps, message in (
        (2.5, 1e-2, "num_states must be int >= 1, got 2.5"),
        (True, 1e-2, "num_states must be int >= 1, got True"),
        (2, -1.0, "eps must be float >= 0, got -1.0"),
        (2, "x", "eps must be float >= 0, got 'x'"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            init_temporal_bins(demos, num_states, eps)
    # numpy scalars are numbers like any other
    assert init_temporal_bins(demos, np.int64(2), np.float64(0.1)).num_states == 2
    baum_welch(model, demos, max_iter=np.int32(1), tol=np.float32(0.0), eps=np.float64(0.1))


# --- gmr_predict --------------------------------------------------------------------

def test_gmr_single_state_independent_blocks_returns_robot_mean():
    model = HmmModel(
        priors=np.array([1.0]),
        transitions=np.array([[1.0]]),
        emissions=(GaussianState([1.0, -2.0], np.diag([1.0, 4.0])),),
        split=DimensionSplit((0,), (1,)),
    )
    out = gmr_predict(model, np.array([[0.0], [5.0], [-3.0]]))
    assert np.allclose(out.frames, -2.0)
    assert out.split.human_idx == ()
    assert out.split.robot_idx == (0,)


def test_gmr_single_state_matches_bivariate_conditioning():
    g = GaussianState([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
    model = HmmModel(
        priors=np.array([1.0]),
        transitions=np.array([[1.0]]),
        emissions=(g,),
        split=DimensionSplit((0,), (1,)),
    )
    out = gmr_predict(model, np.array([[1.0]]))
    assert out.frames[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_gmr_singular_human_block_raises():
    model = HmmModel(
        priors=np.array([1.0]),
        transitions=np.array([[1.0]]),
        emissions=(GaussianState(np.zeros(2), np.array([[0.0, 0.0], [0.0, 1.0]])),),
        split=DimensionSplit((0,), (1,)),
    )
    with pytest.raises(np.linalg.LinAlgError,
                       match="Cholesky factorization of the observed-block covariance failed"):
        gmr_predict(model, np.zeros((3, 1)))


def test_a_failed_factorization_is_not_kept():
    model = HmmModel(
        priors=np.array([1.0]),
        transitions=np.array([[1.0]]),
        emissions=(GaussianState(np.zeros(2), np.array([[0.0, 0.0], [0.0, 1.0]])),),
        split=DimensionSplit((0,), (1,)),
    )
    messages = []
    for call, target in ((gmr_predict, model), (tsc.predict, tsc.TscModel(model, None, 0))) * 2:
        with pytest.raises(np.linalg.LinAlgError) as info:
            call(target, np.zeros((3, 1)))
        messages.append(str(info.value))
    assert messages == [messages[0]] * 4
    assert "Cholesky factorization of the observed-block covariance failed" in messages[0]


def test_a_replaced_model_builds_its_own_factors():
    model = HmmModel(
        priors=np.array([0.5, 0.5]),
        transitions=np.array([[0.9, 0.1], [0.1, 0.9]]),
        emissions=(
            GaussianState([0.0, 5.0], [[1.0, 0.5], [0.5, 1.0]]),
            GaussianState([3.0, -7.0], np.eye(2)),
        ),
        split=DimensionSplit((0,), (1,)),
    )
    obs = np.linspace(-1.0, 4.0, 9)[:, None]
    before = gmr_predict(model, obs).frames
    emissions = (GaussianState([1.0, 2.0], [[2.0, -0.5], [-0.5, 1.0]]), model.emissions[1])
    replaced = dataclasses.replace(model, emissions=emissions)
    fresh = HmmModel(model.priors, model.transitions, emissions, model.split)
    assert np.array_equal(gmr_predict(replaced, obs).frames, gmr_predict(fresh, obs).frames)
    assert not np.array_equal(gmr_predict(replaced, obs).frames, before)
    assert np.array_equal(gmr_predict(model, obs).frames, before)


def test_gmr_follows_the_dominant_state():
    model = HmmModel(
        priors=np.array([0.5, 0.5]),
        transitions=np.array([[0.9, 0.1], [0.1, 0.9]]),
        emissions=(
            GaussianState([0.0, 5.0], np.eye(2)),
            GaussianState([100.0, -7.0], np.eye(2)),
        ),
        split=DimensionSplit((0,), (1,)),
    )
    obs = np.full((6, 1), 100.0)
    res = forward(model, obs, [0])
    assert res.h[-1, 1] > 0.999
    out = gmr_predict(model, obs)
    # independent blocks: the active state's conditional mean is its robot mean
    assert abs(out.frames[-1, 0] - (-7.0)) < 1e-3


def test_gmr_validates_model_and_observations():
    with pytest.raises(ValueError, match="human and robot"):
        gmr_predict(hand_model(), np.zeros((3, 1)))
    model = HmmModel(
        priors=np.array([1.0]),
        transitions=np.array([[1.0]]),
        emissions=(GaussianState([0.0, 0.0], np.eye(2)),),
        split=DimensionSplit((0,), (1,)),
    )
    with pytest.raises(ValueError, match="expected 1"):
        gmr_predict(model, np.zeros((3, 2)))


# --- viterbi_labels -----------------------------------------------------------------

def test_viterbi_single_state_all_zero():
    model = _model_from_params(
        np.array([1.0]), np.array([[1.0]]), np.zeros((1, 1)), np.ones((1, 1, 1))
    )
    labels = viterbi_labels(model, np.zeros((7, 1)))
    assert np.array_equal(labels, np.zeros(7, dtype=int))
    assert len(labels) == 7


def test_viterbi_step_signal_switches_once():
    model = hand_model()
    obs = np.concatenate([np.zeros(10), np.full(10, 3.0)])[:, None]
    labels = viterbi_labels(model, obs)
    switches = np.flatnonzero(np.diff(labels) != 0)
    assert len(switches) == 1
    assert labels[0] == 0 and labels[-1] == 1
    # labels are the argmax of the normalized forward variables
    assert np.array_equal(labels, np.argmax(forward(model, obs).h, axis=1))


def test_viterbi_breaks_ties_toward_lower_state():
    g = GaussianState([0.0], [[1.0]])
    model = HmmModel(
        priors=np.array([0.5, 0.5]),
        transitions=np.full((2, 2), 0.5),
        emissions=(g, g),
        split=DimensionSplit((0,), ()),
    )
    labels = viterbi_labels(model, np.zeros((5, 1)))
    assert np.array_equal(labels, np.zeros(5, dtype=int))


# --- batched kernel against the per-sequence reference ---------------------------

RAGGED_LENGTHS = [7, 1, 30, 2, 12, 2, 1]


def _ragged_batch(seed, num_states=3, dim=2):
    rng = np.random.default_rng(seed)
    model = _model_from_params(*random_hmm_params(rng, num_states, dim))
    seqs = [rng.normal(0.0, 2.0, size=(n, dim)) for n in RAGGED_LENGTHS]
    return model, seqs


def test_kernel_forward_backward_matches_per_sequence_reference():
    for seed in range(5):
        # 4 states: with 3, one batched product can round like per-row ones and
        # so pass the exact assert below (seen with OpenBLAS 0.3.31)
        model, seqs = _ragged_batch(seed, num_states=4, dim=3)
        lengths = np.array(RAGGED_LENGTHS)
        log_b = _log_emissions(model, np.vstack(seqs), np.arange(model.dim))
        got = _forward_backward(model.priors, model.transitions, log_b, lengths, backward=True)
        alone = _forward_backward(model.priors, model.transitions, log_b, lengths)
        for k, frames in enumerate(seqs):
            n = len(frames)
            rows = slice(sum(RAGGED_LENGTHS[:k]), sum(RAGGED_LENGTHS[:k]) + n)
            a_hat, log_c, b_hat = _oracles.scaled_forward(
                model.priors, model.transitions, log_b[rows]
            )
            beta_hat = _oracles.scaled_backward(model.transitions, b_hat)
            # forward-only steps are per-sequence vector-matrix products: exact,
            # as prediction relies on; with the backward pass they are one
            # product over the batch, which need not round like a batch of one
            assert np.array_equal(alone.a_hat[rows], a_hat)
            assert np.max(np.abs(got.a_hat[rows] - a_hat)) < 1e-10
            assert np.max(np.abs(got.beta_hat[rows] - beta_hat)) < 1e-10
            # the b_hat * beta_hat rows come each to a scale of its own
            c_hat, c = got.c_hat[rows], b_hat * beta_hat
            assert np.max(np.abs(c_hat / c_hat.sum(axis=1, keepdims=True)
                                 - c / c.sum(axis=1, keepdims=True))) < 1e-10
            assert got.log_c[k].sum() == pytest.approx(log_c.sum(), abs=1e-10)
            assert np.all(got.log_c[k, n:] == 0.0)


def test_kernel_e_step_matches_per_sequence_reference():
    for seed in range(5):
        model, seqs = _ragged_batch(seed, num_states=4, dim=3)
        lengths = np.array(RAGGED_LENGTHS)
        stats, ll = _e_step(model, np.vstack(seqs), lengths, _pairs(lengths))
        log_bs = [_log_emissions(model, f, np.arange(model.dim)) for f in seqs]
        pi_acc, trans_acc, resp, mean_acc, gammas, want_ll = _oracles.e_step(
            model.priors, model.transitions, log_bs, seqs
        )
        assert ll == pytest.approx(want_ll, abs=1e-10)
        assert np.max(np.abs(stats.gamma - np.vstack(gammas))) < 1e-10
        assert np.max(np.abs(stats.trans_acc - trans_acc)) < 1e-10
        assert np.max(np.abs(stats.pi_acc - pi_acc)) < 1e-10
        assert np.max(np.abs(stats.resp - resp)) < 1e-10
        assert np.max(np.abs(stats.mean_acc - mean_acc)) < 1e-10


def test_forward_single_sequence_is_bit_identical_to_reference():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 17, 72):
        s = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        model = _model_from_params(*random_hmm_params(rng, s, d))
        obs = rng.normal(0.0, 2.0, size=(n, d))
        res = forward(model, obs)
        a_hat, log_c, _ = _oracles.scaled_forward(
            model.priors, model.transitions, _log_emissions(model, obs, np.arange(model.dim))
        )
        log_cum = np.cumsum(log_c)
        with np.errstate(divide="ignore"):
            log_alpha = np.log(a_hat) + log_cum[:, None]
        assert np.array_equal(res.h, a_hat)
        assert np.array_equal(res.log_alpha, log_alpha)
        assert res.log_likelihood == float(log_cum[-1])


def test_kernel_names_the_first_bad_frame_of_a_batch():
    model, seqs = _ragged_batch(0)
    lengths = np.array(RAGGED_LENGTHS)
    log_b = _log_emissions(model, np.vstack(seqs), np.arange(model.dim))
    # every state at zero likelihood on frame 1 of sequence 3
    vanished = log_b.copy()
    vanished[sum(RAGGED_LENGTHS[:3]) + 1] = -np.inf
    with pytest.raises(TrainingError, match="zero emission likelihood at frame 1 of sequence 3"):
        _forward_backward(model.priors, model.transitions, vanished, lengths)
    # the chain cannot reach the only state with mass at frame 5 of sequence 2
    sticky = HmmModel(
        priors=np.array([1.0, 0.0]),
        transitions=np.eye(2),
        emissions=(GaussianState([0.0], [[1.0]]), GaussianState([0.0], [[1.0]])),
        split=DimensionSplit((0,), ()),
    )
    blocked = np.zeros((3 * 8, 2))
    blocked[2 * 8 + 5, 0] = -np.inf
    with pytest.raises(TrainingError, match="forward mass vanished at frame 5 of sequence 2"):
        _forward_backward(sticky.priors, sticky.transitions, blocked, np.array([8, 8, 8]))
    # a batch of one names the frame alone, as forward() always has
    with pytest.raises(TrainingError, match=r"forward mass vanished at frame 5$"):
        _forward_backward(sticky.priors, sticky.transitions, blocked[2 * 8:], np.array([8]))


def test_e_step_on_zero_likelihood_frame_raises():
    model, seqs = _ragged_batch(2)
    seqs[4][6] = 1e200
    with np.errstate(over="ignore"), pytest.raises(
        TrainingError, match="zero emission likelihood at frame 6 of sequence 4"
    ):
        baum_welch(model, seqs, max_iter=2)


# --- the E-step's renormalization interval -----------------------------------------

def _e_step_at(interval, monkeypatch, model, seqs):
    """`_e_step` on the batch with the passes renormalized every `interval` steps."""
    monkeypatch.setattr(hmm, "_EM_INTERVAL", interval)
    lengths = np.array([len(f) for f in seqs])
    return _e_step(model, np.vstack(seqs), lengths, _pairs(lengths))


@pytest.mark.parametrize("interval", [2, 3, 8])
def test_e_step_statistics_do_not_depend_on_the_interval(interval, monkeypatch):
    for seed in range(5):
        model, seqs = _ragged_batch(seed, num_states=4, dim=3)
        stats, ll = _e_step_at(interval, monkeypatch, model, seqs)
        want, want_ll = _e_step_at(1, monkeypatch, model, seqs)
        assert ll == pytest.approx(want_ll, rel=1e-12)
        for got, ref in zip(stats, want):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _flipping_batch(p):
    """Two sticky states, each leaving with probability p, and frames that
    alternate between them, each scored p by the other state: every two
    steps keep about p of the forward mass. Sequence lengths [9, 20, 4]."""
    half = np.sqrt(-np.log(p) / 2.0)
    g = (GaussianState([-half], [[1.0]]), GaussianState([half], [[1.0]]))
    model = HmmModel(np.full(2, 0.5), np.array([[1.0 - p, p], [p, 1.0 - p]]), g,
                     DimensionSplit((0,), ()))
    seqs = [half * (-1.0) ** np.arange(n)[:, None] for n in (9, 20, 4)]
    return model, seqs


def test_e_step_reruns_every_step_when_a_block_falls_below_the_floor(monkeypatch):
    # the first eight frames keep about 2**-530 of the mass, under the floor
    # though not zero; per-step normalization never nears it
    model, seqs = _flipping_batch(1e-40)
    log_b = _log_emissions(model, seqs[0][:8], [0])
    passes = _forward_backward(model.priors, model.transitions, log_b, np.array([8]))
    kept = (passes.log_c.sum() - log_b.max(axis=1).sum()) / np.log(2)
    assert -1074 < kept < np.log2(hmm._RENORM_FLOOR)
    want, want_ll = _e_step_at(1, monkeypatch, model, seqs)
    intervals = []

    def spy(*args, **kwargs):
        intervals.append(kwargs.get("interval", 1))
        return _forward_backward(*args, **kwargs)

    monkeypatch.setattr(hmm, "_forward_backward", spy)
    stats, ll = _e_step_at(8, monkeypatch, model, seqs)
    assert intervals == [8, 1]
    assert ll == want_ll
    for got, ref in zip(stats, want):
        assert np.array_equal(got, ref)


def test_e_step_names_the_frame_where_the_mass_vanished_mid_block(monkeypatch):
    # the chain stays in state 0, which cannot score frame 5 of sequence 1
    far = 1e200
    model = HmmModel(np.array([1.0, 0.0]), np.eye(2),
                     (GaussianState([0.0], [[1.0]]), GaussianState([far], [[1.0]])),
                     DimensionSplit((0,), ()))
    seqs = [np.zeros((12, 1)), np.zeros((12, 1)), np.zeros((3, 1))]
    seqs[1][5] = far
    for interval in (1, 8):
        with pytest.raises(TrainingError,
                           match=r"^forward mass vanished at frame 5 of sequence 1$"):
            _e_step_at(interval, monkeypatch, model, seqs)


def _model_bytes(model):
    return b"".join(a.tobytes() for a in (
        model.priors, model.transitions, *(x for g in model.emissions for x in (g.mean, g.cov))))


@pytest.mark.parametrize("kind", SYNTH_KINDS)
def test_training_does_not_depend_on_memory_layout(kind):
    """Frames C-ordered, Fortran-ordered or as strided views, demos given as
    a list, a tuple or a generator, and counts as int or numpy integers, all
    with equal values, train, detect and fit to the same bits (criterion 6's
    first split)."""
    ds, _ = synth_generate(kind, n_demos=30, noise_sigma=0.005, seed=0)
    feats = [build_features(d) for d in sample_batch(ds, 15, 0)[0].demos]

    def strided(frames):
        big = np.zeros((2 * len(frames), 2 * frames.shape[1]))
        big[::2, ::2] = frames
        return big[::2, ::2]

    def generator(items):
        return (x for x in items)

    cases = list(itertools.product((np.ascontiguousarray, np.asfortranarray, strided),
                                   (list, tuple, generator), (int, np.int64)))
    outputs = []
    for layout, box, count in cases:
        seqs = [layout(f.frames) for f in feats]
        demos = [FeatureSequence(x, f.split) for x, f in zip(seqs, feats)]
        init = init_temporal_bins(box(demos), count(4), 1e-2)
        base, history = baum_welch(init, box(seqs), max_iter=count(10))
        samples, masks = tsc.detect_transition_states(base, box(seqs), count(2))
        fitted = tsc.fit(base, box(demos), count(3), count(2), max_iter=count(10))
        outputs.append((_model_bytes(init), _model_bytes(base), history, samples.tobytes(),
                        [m.tobytes() for m in masks],
                        None if fitted.fallback else _model_bytes(fitted.transition)))
    for case, out in zip(cases[1:], outputs[1:]):
        assert out == outputs[0], case


# --- emission table against the triangular solve ---------------------------------

def _conditioned_cov(rng, d, cond):
    """A random D x D covariance whose condition number is `cond`."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    cov = (q * np.geomspace(1.0, 1.0 / cond, d) * rng.uniform(0.1, 10.0)) @ q.T
    return 0.5 * (cov + cov.T)


def _relative_error(got, want, cov):
    """Largest error relative to the size of the terms summed into each log
    density: D log(2 pi), |log det| and the Mahalanobis term."""
    d = len(cov)
    log_det = np.linalg.slogdet(cov)[1]
    quad = -2.0 * want - d * np.log(2.0 * np.pi) - log_det
    return float(np.max(np.abs(got - want) / (d * np.log(2.0 * np.pi) + abs(log_det) + quad)))


def test_emission_table_matches_the_solve_and_scipy():
    rng = np.random.default_rng(41)
    for d in range(1, 13):
        for cond in (1.0, 1e3, 1e4, 1e6):
            means = rng.normal(0.0, 3.0, size=(2, d))
            covs = np.array([_conditioned_cov(rng, d, cond) for _ in range(2)])
            model = _model_from_params(np.full(2, 0.5), np.full((2, 2), 0.5), means, covs)
            subsets = [np.arange(d), np.sort(rng.choice(d, size=max(1, d // 2), replace=False))]
            for dims in subsets:
                for t in (1, 500):
                    # frames spread over a few standard deviations of state 0
                    chol = np.linalg.cholesky(covs[0][np.ix_(dims, dims)])
                    frames = means[0, dims] + 2.0 * rng.normal(size=(t, len(dims))) @ chol.T
                    got = _log_emissions(model, frames, dims)
                    want = _oracles.solve_log_emissions(means, covs, frames, dims)
                    for i in range(2):
                        cov = covs[i][np.ix_(dims, dims)]
                        assert _relative_error(got[:, i], want[:, i], cov) < 1e-12
                        # scipy's eigendecomposition drifts by about 1e-11 at
                        # condition number 1e6 (against an 80-bit Cholesky), so
                        # it is held to 1e-12 up to 1e4 only
                        if cond <= 1e4:
                            ref = np.atleast_1d(
                                multivariate_normal(means[i, dims], cov).logpdf(frames))
                            assert _relative_error(got[:, i], ref, cov) < 1e-12


@pytest.mark.parametrize("kind", SYNTH_KINDS)
def test_baum_welch_with_the_solve_table_agrees(kind, monkeypatch):
    """Criterion 6's first split trains to the same iteration count and
    likelihoods whichever table scores the frames."""
    ds, _ = synth_generate(kind, n_demos=30, noise_sigma=0.005, seed=0)
    feats = [build_features(d) for d in sample_batch(ds, 15, 0)[0].demos]
    init = init_temporal_bins(feats, 4, 1e-2)
    _, history = baum_welch(init, feats)

    def solve_table(model, frames, dims):
        means = np.array([g.mean for g in model.emissions])
        covs = np.array([g.cov for g in model.emissions])
        return _oracles.solve_log_emissions(means, covs, frames, dims)

    monkeypatch.setattr(hmm, "_log_emissions", solve_table)
    _, want = baum_welch(init, feats)
    assert len(history) == len(want)
    assert np.max(np.abs(np.array(history) - want) / np.abs(want)) < 1e-10


# --- pooled covariance overflow ------------------------------------------------------

def test_pooled_covariance_overflow_raises_without_a_warning():
    rng = np.random.default_rng(5)
    seqs = [rng.normal(0.0, 1e200, size=(12, 2)) for _ in range(3)]
    # a RuntimeWarning fails the test, so the overflow must raise only
    with pytest.raises(ValueError, match=r"^the covariance of 12 frames overflows the "
                                         r"float range: coordinates reach \d\.\d\de\+200$"):
        init_temporal_bins(seqs, 3, 1e-2)
    # states wide enough to score frames whose squares overflow
    wide = GaussianState([0.0, 0.0], 1e300 * np.eye(2))
    model = HmmModel(np.full(2, 0.5), np.full((2, 2), 0.5), (wide, wide),
                     DimensionSplit((0, 1), ()))
    with pytest.raises(ValueError, match="^the covariance of 36 frames overflows"):
        baum_welch(model, [s * 1e-45 for s in seqs], max_iter=1)
