"""Tests for transition-state detection, the second-level HMM, and prediction."""

import numpy as np
import pytest
import scipy.linalg

import _oracles
from tschmm import gaussian, hmm, tsc
from tschmm.data import (
    SYNTH_KINDS,
    DimensionSplit,
    FeatureSequence,
    build_features,
    sample_batch,
    synth_generate,
)
from tschmm.gaussian import GaussianState, log_density, marginalize
from tschmm.hmm import (
    HmmModel,
    baum_welch,
    forward,
    gmr_predict,
    init_temporal_bins,
    viterbi_labels,
)
from tschmm.tsc import TscModel, detect_transition_states, dilate_mask, fit, predict


def _split2():
    return DimensionSplit((0,), (1,))


def _excursion_base():
    """Two states with identical human marginals but different robot means.

    Human-only forward passes cannot tell the states apart, so every
    human-side label stays at the prior-favored state while the joint pass
    follows the robot excursion.
    """
    return HmmModel(
        priors=np.array([0.9, 0.1]),
        transitions=np.array([[0.95, 0.05], [0.05, 0.95]]),
        emissions=(
            GaussianState([0.0, 0.0], np.eye(2)),
            GaussianState([0.0, 5.0], np.eye(2)),
        ),
        split=_split2(),
    )


def _excursion_demo(t_total=30, start=12, stop=18):
    frames = np.zeros((t_total, 2))
    frames[start:stop, 1] = 5.0
    return FeatureSequence(frames, _split2())


# --- dilate_mask ---------------------------------------------------------------

def test_dilate_single_hit_with_window_two():
    mask = np.zeros(20, dtype=bool)
    mask[10] = True
    out = dilate_mask(mask, 2)
    assert np.array_equal(np.flatnonzero(out), [8, 9, 10, 11, 12])


def test_dilate_clips_at_bounds():
    mask = np.zeros(5, dtype=bool)
    mask[0] = True
    assert np.array_equal(np.flatnonzero(dilate_mask(mask, 2)), [0, 1, 2])


def test_dilate_window_zero_copies():
    mask = np.array([True, False, True])
    out = dilate_mask(mask, 0)
    assert np.array_equal(out, mask)
    assert out is not mask


def test_dilate_monotone_in_window():
    rng = np.random.default_rng(0)
    mask = rng.random(50) < 0.1
    for w in range(4):
        small = dilate_mask(mask, w)
        large = dilate_mask(mask, w + 1)
        assert np.all(large[small])


def test_dilate_matches_brute_force_on_short_masks():
    # every mask of 1..10 frames, including those shorter than the 2w + 1 kernel
    assert dilate_mask([1, 0, 0, 0], 2).tolist() == [True, True, True, False]
    for t in range(1, 11):
        for bits in range(2**t):
            mask = np.array([(bits >> i) & 1 for i in range(t)], dtype=bool)
            for w in range(6):
                want = [mask[max(0, i - w) : i + w + 1].any() for i in range(t)]
                assert dilate_mask(mask, w).tolist() == want


def test_dilate_rejects_negative_window():
    with pytest.raises(ValueError, match="non-negative"):
        dilate_mask(np.zeros(3, dtype=bool), -1)


# --- detect_transition_states ----------------------------------------------------

def test_detect_single_state_never_mismatches():
    base = HmmModel(
        priors=np.array([1.0]),
        transitions=np.array([[1.0]]),
        emissions=(GaussianState([0.0, 0.0], np.eye(2)),),
        split=_split2(),
    )
    samples, masks = detect_transition_states(base, [_excursion_demo()], w=2)
    assert samples.shape == (0, 2)
    assert len(masks) == 1 and not masks[0].any()


def test_detect_marks_the_robot_excursion():
    base = _excursion_base()
    demo = _excursion_demo(t_total=30, start=12, stop=18)
    samples, masks = detect_transition_states(base, [demo], w=2)
    # joint labels switch to state 1 exactly on the excursion, human labels
    # never move, so the mismatch is 12..17 and the dilated mask 10..19
    assert np.array_equal(np.flatnonzero(masks[0]), np.arange(10, 20))
    assert samples.shape == (10, 2)
    assert np.array_equal(samples, demo.frames[10:20])


def test_detect_pools_samples_across_demos():
    base = _excursion_base()
    demos = [_excursion_demo(start=5, stop=9), _excursion_demo(start=20, stop=24)]
    samples, masks = detect_transition_states(base, demos, w=1)
    assert len(masks) == 2
    assert samples.shape == (12, 2)
    assert np.array_equal(samples[:6], demos[0].frames[4:10])
    assert np.array_equal(samples[6:], demos[1].frames[19:25])


# --- fit ---------------------------------------------------------------------------

def test_fit_returns_fallback_without_mismatches():
    base = HmmModel(
        priors=np.array([1.0]),
        transitions=np.array([[1.0]]),
        emissions=(GaussianState([0.0, 0.0], np.eye(2)),),
        split=_split2(),
    )
    model = fit(base, [_excursion_demo()], num_states=2, w=2)
    assert model.fallback and model.transition is None
    assert model.window == 2


def test_fit_falls_back_when_samples_are_scarce():
    base = _excursion_base()
    demos = [_excursion_demo() for _ in range(2)]
    # 20 pooled samples cannot support 12 states over 2 dims (12*3 needed)
    model = fit(base, demos, num_states=12, w=2)
    assert model.fallback


def test_fit_trains_transition_model_on_excursion_corpus():
    base = _excursion_base()
    demos = [_excursion_demo(start=10 + k, stop=16 + k) for k in range(4)]
    model = fit(base, demos, num_states=2, w=2, eps=1e-2)
    assert not model.fallback
    assert model.transition.num_states == 2
    assert model.transition.dim == base.dim
    assert model.transition.split == base.split
    # the transition states live where the masked frames are: robot values
    # between the resting 0 and the excursion 5
    for g in model.transition.emissions:
        assert -1.0 <= g.mean[1] <= 6.0


def test_fit_on_demos_shorter_than_the_dilation_kernel():
    # 4 frames against a window of 2: every mask covers its whole demo
    base = _excursion_base()
    demos = [_excursion_demo(t_total=4, start=1, stop=3) for _ in range(2)]
    samples, masks = detect_transition_states(base, demos, w=2)
    assert [m.tolist() for m in masks] == [[True] * 4] * 2
    assert samples.shape == (8, 2)
    assert not fit(base, demos, num_states=2, w=2).fallback


def test_fit_validates_num_states():
    with pytest.raises(ValueError, match="num_states"):
        fit(_excursion_base(), [_excursion_demo()], num_states=0)


def test_transition_states_concentrate_near_phase_boundaries():
    """On a handshake corpus the learned transition states sit close to the
    clasp and release waypoints, far from the rest poses."""
    ds, _ = synth_generate("handshake", n_demos=12, noise_sigma=0.02, seed=0)
    feats = [build_features(d) for d in ds.demos]
    init = init_temporal_bins(feats, 4, 1e-4)
    base, _ = baum_welch(init, feats, 40, 1e-4, 1e-4)
    model = fit(base, feats, num_states=3, w=2, eps=1e-4)
    assert not model.fallback
    clasp = np.array([0.0, -0.015, 0.95])
    release = clasp + np.array([0.04, 0.0, -0.06])
    rest_in = np.array([0.15, -0.40, 0.90])
    rest_out = np.array([0.35, -0.30, 0.80])
    for g in model.transition.emissions:
        pos = g.mean[0:3]
        to_boundary = min(
            np.linalg.norm(pos - clasp), np.linalg.norm(pos - release)
        )
        to_rest = min(
            np.linalg.norm(pos - rest_in), np.linalg.norm(pos - rest_out)
        )
        assert to_boundary < 0.10
        assert to_boundary < to_rest


# --- TscModel validation --------------------------------------------------------------

def test_tsc_model_invariants():
    base = _excursion_base()
    trans = _excursion_base()
    with pytest.raises(ValueError, match="window"):
        TscModel(base=base, transition=trans, window=-1)
    with pytest.raises(ValueError, match="fallback"):
        TscModel(base=base, transition=trans, window=2, fallback=True)
    with pytest.raises(ValueError, match="requires a transition"):
        TscModel(base=base, transition=None, window=2, fallback=False)
    small = HmmModel(
        priors=np.array([1.0]),
        transitions=np.array([[1.0]]),
        emissions=(GaussianState([0.0], [[1.0]]),),
        split=DimensionSplit((0,), ()),
    )
    with pytest.raises(ValueError, match="dimension"):
        TscModel(base=base, transition=small, window=2)
    other = HmmModel(trans.priors, trans.transitions, trans.emissions, DimensionSplit((1,), (0,)))
    with pytest.raises(ValueError, match="split differs"):
        TscModel(base=base, transition=other, window=2)


# --- predict ----------------------------------------------------------------------------

def test_predict_fallback_equals_base_prediction_exactly():
    base = _excursion_base()
    model = TscModel(base=base, transition=None, window=2, fallback=True)
    rng = np.random.default_rng(1)
    for _ in range(3):
        human = rng.normal(size=(17, 1))
        assert np.array_equal(
            predict(model, human).frames, gmr_predict(base, human).frames
        )


def test_predict_gate_stays_on_base_when_transition_states_are_remote():
    base = _excursion_base()
    remote = HmmModel(
        priors=np.array([1.0]),
        transitions=np.array([[1.0]]),
        emissions=(GaussianState([1e4, 1e4], np.eye(2)),),
        split=_split2(),
    )
    model = TscModel(base=base, transition=remote, window=2)
    human = np.random.default_rng(2).normal(size=(20, 1))
    assert np.array_equal(
        predict(model, human).frames, gmr_predict(base, human).frames
    )


def test_predict_gate_follows_documented_firing_rule():
    base = _excursion_base()
    tight = GaussianState([0.0, 1.0], np.diag([0.01, 0.01]))
    far = GaussianState([99.0, 0.0], np.eye(2))
    trans = HmmModel(
        priors=np.array([0.5, 0.5]),
        transitions=np.full((2, 2), 0.5),
        emissions=(tight, far),
        split=_split2(),
    )
    model = TscModel(base=base, transition=trans, window=2)
    human = np.array([[0.0], [1.0], [0.0], [2.0], [0.0]])

    out = predict(model, human).frames
    base_out = gmr_predict(base, human).frames

    # recompute the gate by hand: best transition-state human density
    # against the responsibility-weighted base mixture density
    human_idx = [0]
    h = forward(base, human, human_idx).h
    log_base = np.column_stack(
        [log_density(human, marginalize(g, human_idx)) for g in base.emissions]
    )
    mix = np.log(np.exp(np.log(h) + log_base).sum(axis=1))
    log_trans = np.column_stack(
        [log_density(human, marginalize(g, human_idx)) for g in trans.emissions]
    )
    fire = log_trans.max(axis=1) > mix
    assert fire.tolist() == [True, False, True, False, True]

    # unfired frames reproduce the base prediction bit for bit; fired frames
    # follow the transition-state regression (diagonal states: robot mean)
    assert np.array_equal(out[~fire], base_out[~fire])
    assert np.allclose(out[fire], 1.0, atol=1e-6)
    assert not np.allclose(base_out[fire], 1.0, atol=1e-2)


def test_predict_output_split_covers_robot_dims_only():
    base = _excursion_base()
    model = TscModel(base=base, transition=None, window=0, fallback=True)
    out = predict(model, np.zeros((4, 1)))
    assert out.split.human_idx == ()
    assert out.split.robot_idx == (0,)


def test_fit_reads_an_iterable_of_demos_once():
    base = _excursion_base()
    demos = [_excursion_demo(start=10 + k, stop=16 + k) for k in range(4)]
    from_list = fit(base, demos, num_states=2, w=2, eps=1e-2)
    from_generator = fit(base, (d for d in demos), num_states=2, w=2, eps=1e-2)
    assert not from_generator.fallback
    got, want = from_generator.transition, from_list.transition
    assert np.array_equal(got.priors, want.priors)
    assert np.array_equal(got.transitions, want.transitions)
    for g, h in zip(got.emissions, want.emissions):
        assert np.array_equal(g.mean, h.mean) and np.array_equal(g.cov, h.cov)
    samples, masks = detect_transition_states(base, (d for d in demos), w=2)
    want_samples, want_masks = detect_transition_states(base, demos, w=2)
    assert np.array_equal(samples, want_samples)
    assert all(np.array_equal(a, b) for a, b in zip(masks, want_masks))


def test_detect_matches_per_demo_labelling_on_a_corpus():
    ds, _ = synth_generate("rocket_fistbump", n_demos=8, noise_sigma=0.01, seed=2)
    feats = [build_features(d) for d in ds.demos]
    init = init_temporal_bins(feats, 4, 1e-2)
    base, _ = baum_welch(init, feats, 10, 1e-4, 1e-2)
    human_idx = list(base.split.human_idx)
    _, masks = detect_transition_states(base, feats, w=2)
    for feat, mask in zip(feats, masks):
        joint = viterbi_labels(base, feat)
        human = viterbi_labels(base, feat.frames[:, human_idx], human_idx)
        assert np.array_equal(mask, dilate_mask(joint != human, 2))
    assert any(m.any() for m in masks)


# --- predict on trained models ----------------------------------------------------------


@pytest.fixture(scope="module", params=SYNTH_KINDS)
def criterion6_split(request):
    """Criterion 6's synth seed 0 corpus and first split: the trained base
    HMM, the 15 training and the 15 held-out feature sequences."""
    ds, _ = synth_generate(request.param, n_demos=30, noise_sigma=0.005, seed=0)
    train, test = sample_batch(ds, 15, 0)
    feats = [build_features(d) for d in train.demos]
    base, _ = baum_welch(init_temporal_bins(feats, 4, 1e-2), feats)
    return base, feats, [build_features(d) for d in test.demos]


@pytest.fixture(scope="module")
def trained_kind(criterion6_split):
    """The fitted model of `criterion6_split` and the human frames of its
    held-out demos."""
    base, feats, held_out = criterion6_split
    model = fit(base, feats)
    assert not model.fallback
    human_idx = list(base.split.human_idx)
    return model, [f.frames[:, human_idx] for f in held_out]


def _hmm_params(model):
    return (
        model.priors,
        model.transitions,
        np.array([g.mean for g in model.emissions]),
        np.array([g.cov for g in model.emissions]),
    )


def test_predict_on_a_prefix_gives_the_first_rows_bit_for_bit(trained_kind):
    model, held_out = trained_kind
    for human in held_out:
        full_gmr = gmr_predict(model.base, human).frames
        full = predict(model, human).frames
        for k in range(1, len(human) + 1):
            assert np.array_equal(gmr_predict(model.base, human[:k]).frames, full_gmr[:k])
            assert np.array_equal(predict(model, human[:k]).frames, full[:k])


def test_predict_runs_the_forward_kernel_once(trained_kind, monkeypatch):
    model, held_out = trained_kind
    calls = []
    original = hmm._forward_backward

    def counted(*args, **kwargs):
        calls.append(args[2].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(hmm, "_forward_backward", counted)
    # tsc reaches the kernel through hmm; patched too in case it imports it
    monkeypatch.setattr(tsc, "_forward_backward", counted, raising=False)
    human = held_out[0]
    predict(model, human)
    assert calls == [(1, len(human), model.base.num_states)]


def test_human_terms_match_the_twice_factored_reference(trained_kind):
    model, held_out = trained_kind
    for m in (model.base, model.transition):
        h, r = m.split.human_idx, m.split.robot_idx
        # a one-frame prefix takes the lone-point path of the solve
        for human in [*held_out[:5], held_out[0][:1]]:
            log_b, cond = hmm._human_marginal(m, human)
            for i, g in enumerate(m.emissions):
                want_b, want_cond = _oracles.factored_twice_human_terms(
                    g.mean, g.cov, h, r, human
                )
                assert np.array_equal(log_b[:, i], want_b)
                assert np.array_equal(log_b[:, i], log_density(human, marginalize(g, h)))
                assert np.max(np.abs(cond[:, i] - want_cond)) < 1e-12


def test_predict_factors_each_human_block_once(trained_kind, monkeypatch):
    model, held_out = trained_kind
    factored = []
    for module, name in ((np.linalg, "cholesky"), (scipy.linalg, "cho_factor"),
                         (gaussian, "cho_factor")):
        original = getattr(module, name, None)

        def counted(a, *args, _original=original, **kwargs):
            factored.append(np.shape(a))
            return _original(a, *args, **kwargs)

        # gaussian has no cho_factor of its own to patch unless it imports one
        monkeypatch.setattr(module, name, counted, raising=False)
    predict(model, held_out[0])
    human = len(model.base.split.human_idx)
    states = model.base.num_states + model.transition.num_states
    assert factored == [(human, human)] * states


def test_predict_gate_and_blend_match_the_reference(trained_kind):
    model, held_out = trained_kind
    base, trans = _hmm_params(model.base), _hmm_params(model.transition)
    human_idx = list(model.base.split.human_idx)
    fired = 0
    for human in held_out:
        rows, gate, margin = _oracles.tsc_predict(base, trans, human_idx, human)
        # no frame sits so close to the threshold that rounding could flip it
        assert np.all(np.abs(margin) > 1e-9)
        base_rows = gmr_predict(model.base, human).frames
        out = predict(model, human).frames
        assert np.max(np.abs(base_rows - rows)) < 1e-12
        assert np.max(np.abs(out - gate)) < 1e-12
        # frames the gate holds are the base prediction, bit for bit
        hold = margin < 0.0
        assert np.array_equal(out[hold], base_rows[hold])
        fired += int((~hold).sum())
    assert fired > 0


def test_viterbi_labels_are_the_forward_argmax(criterion6_split):
    base, _, held_out = criterion6_split
    human_idx = list(base.split.human_idx)
    for feat in held_out:
        for frames, dims in ((feat.frames, None), (feat.frames[:, human_idx], human_idx)):
            labels = viterbi_labels(base, frames, dims)
            assert labels.shape == (len(frames),)
            assert np.array_equal(labels, np.argmax(forward(base, frames, dims).h, axis=1))


def test_predict_rejects_what_gmr_predict_rejects():
    base = _excursion_base()
    flat = HmmModel(base.priors, base.transitions, base.emissions, DimensionSplit((0, 1), ()))
    cases = [
        (base, "human observations have 2 dims, expected 1"),
        (flat, "model split must include human and robot dimensions"),
    ]
    for hmm_model, message in cases:
        model = TscModel(base=hmm_model, transition=hmm_model, window=2)
        for call, target in ((gmr_predict, hmm_model), (predict, model)):
            with pytest.raises(ValueError, match=message):
                call(target, np.zeros((5, 2)))
