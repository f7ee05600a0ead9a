"""Tests for transition-state detection, the second-level HMM, and prediction."""

import dataclasses
import re

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
    # every mask of 1..10 frames, including those shorter than the 2w + 1
    # kernel, and windows far beyond any mask
    assert dilate_mask([1, 0, 0, 0], 2).tolist() == [True, True, True, False]
    for t in range(1, 11):
        for bits in range(2**t):
            mask = np.array([(bits >> i) & 1 for i in range(t)], dtype=bool)
            for w in (*range(6), 9, 10**6, 10**30):
                want = [mask[max(0, i - w) : i + w + 1].any() for i in range(t)]
                assert dilate_mask(mask, w).tolist() == want


def test_dilate_rejects_negative_window():
    with pytest.raises(ValueError, match="^window must be int >= 0, got -1$"):
        dilate_mask(np.zeros(3, dtype=bool), -1)


def test_dilate_takes_a_one_dimensional_mask_only():
    # a 0-d mask used to come back as a 0-d array, a 2-D one as numpy's
    # "object too deep for desired array"
    for bad in (None, "abc", True, [[True, False]], np.zeros((2, 3), dtype=bool),
                [[True], [True, False]]):
        with pytest.raises(ValueError, match="^mask must "):
            dilate_mask(bad, 1)
    assert dilate_mask([], 1).tolist() == []


def test_window_must_be_a_non_negative_integer():
    base = _excursion_base()
    model = TscModel(base=base, transition=None, window=np.int64(3))
    assert type(model.window) is int and model.window == 3
    assert dilate_mask([False, True, False, False], np.int64(1)).tolist() == [
        True, True, True, False]
    for w in (-1, True, 2.5, np.float64(2.0)):
        message = f"^window must be int >= 0, got {re.escape(repr(w))}$"
        with pytest.raises(ValueError, match=message):
            TscModel(base=base, transition=None, window=w)
        with pytest.raises(ValueError, match=message):
            dilate_mask(np.zeros(3, dtype=bool), w)


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


def test_window_is_checked_before_any_labelling(monkeypatch):
    calls = []

    def counted(*args, _original=tsc._filtered_labels):
        calls.append(1)
        return _original(*args)

    monkeypatch.setattr(tsc, "_filtered_labels", counted)
    base = _excursion_base()
    with pytest.raises(ValueError, match="^window must be int >= 0, got -1$"):
        detect_transition_states(base, [], -1)
    with pytest.raises(ValueError, match="^window must be int >= 0, got -1$"):
        fit(base, [_excursion_demo(), _excursion_demo()], w=-1)
    assert calls == []
    fit(base, [_excursion_demo()], w=2)
    assert len(calls) == 2  # the counter does count the joint and human passes


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


@pytest.mark.parametrize("as_arrays", [False, True])
def test_fit_checks_each_demo_once(monkeypatch, as_arrays):
    calls = []

    def counted(demos, dim, _original=tsc._demo_frames):
        calls.append(dim)
        return _original(demos, dim)

    monkeypatch.setattr(tsc, "_demo_frames", counted)
    demos = [_excursion_demo(start=10 + k, stop=16 + k) for k in range(4)]
    if as_arrays:
        demos = [d.frames for d in demos]
    assert not fit(_excursion_base(), demos, num_states=2, w=2).fallback
    assert calls == [2]


def _recorded_runs(monkeypatch) -> list:
    """Filled with the frames of the runs each transition `baum_welch` call gets."""
    calls = []

    def recording(model, demos, *args):
        calls.append([d.frames for d in demos])
        return baum_welch(model, demos, *args)

    monkeypatch.setattr(tsc, "baum_welch", recording)
    return calls


def _bits(runs):
    return [(r.shape, r.tobytes()) for r in runs]


def test_transition_runs_meeting_at_a_demo_boundary_stay_apart(monkeypatch):
    base = _excursion_base()
    demos = [_excursion_demo(start=24, stop=30), _excursion_demo(start=0, stop=6)]
    _, masks = detect_transition_states(base, demos, w=2)
    # demo 0's mask ends on its last frame and demo 1's starts at frame 0
    assert masks[0][-1] and masks[1][0]
    calls = _recorded_runs(monkeypatch)
    assert not fit(base, demos, num_states=2, w=2).fallback
    expected = _oracles.masked_runs([d.frames for d in demos], masks)
    assert len(expected) == 2
    assert [_bits(runs) for runs in calls] == [_bits(expected)]


def test_transition_runs_equal_the_per_demo_cut_bit_for_bit(criterion6_split, monkeypatch):
    base, feats, _ = criterion6_split
    _, masks = detect_transition_states(base, feats, w=2)
    calls = _recorded_runs(monkeypatch)
    assert not fit(base, feats, w=2).fallback
    expected = _oracles.masked_runs([f.frames for f in feats], masks)
    assert [_bits(runs) for runs in calls] == [_bits(expected)]


def test_transition_hmm_without_a_long_run_initializes_from_the_pooled_samples(
        criterion6_split, monkeypatch):
    # with 7 states, every masked run is shorter than 7 frames, yet there are
    # enough samples: the bins come from all samples as one stretch
    base, feats, _ = criterion6_split
    samples, masks = detect_transition_states(base, feats, w=2)
    assert len(samples) >= 7 * (base.dim + 1)
    assert max(max(tsc._run_lengths(m), default=0) for m in masks) < 7
    seen = []

    def recorded(demos, num_states, eps):
        seen.append(demos)
        return init_temporal_bins(demos, num_states, eps)

    monkeypatch.setattr(tsc, "init_temporal_bins", recorded)
    model = fit(base, feats, num_states=7, w=2)
    assert not model.fallback and model.transition.num_states == 7
    [stretches] = seen
    assert len(stretches) == 1
    assert np.array_equal(stretches[0].frames, samples)
    assert stretches[0].split == base.split


def test_fit_and_detect_check_their_inputs_up_front():
    ds, _ = synth_generate("rocket_fistbump", n_demos=8, noise_sigma=0.005, seed=0)
    feats = [build_features(d) for d in ds.demos]
    base, _ = baum_welch(init_temporal_bins(feats, 4, 1e-2), feats, max_iter=3)
    short = [f.frames[:, :-1] for f in feats]
    for call in (detect_transition_states, fit):
        with pytest.raises(ValueError, match="demo 0 has dimension 11, expected 12"):
            call(base, short, w=2)
    # one demo falls back before any EM runs; the checks come first all the same
    for demos in (feats[:1], feats):
        with pytest.raises(ValueError, match="max_iter must be int >= 1, got 0"):
            fit(base, demos, max_iter=0)
        for name in ("eps", "tol"):
            with pytest.raises(ValueError, match=f"{name} must be float >= 0, got -1.0"):
                fit(base, demos, **{name: -1.0})


def test_fit_validates_num_states():
    with pytest.raises(ValueError, match="num_states"):
        fit(_excursion_base(), [_excursion_demo()], num_states=0)


def test_fit_checks_argument_types():
    for bad, message in (
        ({"num_states": 2.5}, "num_states must be int >= 1, got 2.5"),
        ({"num_states": True}, "num_states must be int >= 1, got True"),
        ({"max_iter": True}, "max_iter must be int >= 1, got True"),
        ({"tol": "x"}, "tol must be float >= 0, got 'x'"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            fit(_excursion_base(), [_excursion_demo()], **bad)


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

def test_tsc_model_fallback_is_derived_from_the_transition_hmm():
    base = _excursion_base()
    assert [f.name for f in dataclasses.fields(TscModel)] == ["base", "transition", "window"]
    assert TscModel(base=base, transition=None, window=2).fallback
    model = TscModel(base=base, transition=_excursion_base(), window=2)
    assert not model.fallback
    with pytest.raises(AttributeError):
        model.fallback = True


def test_tsc_model_invariants():
    base = _excursion_base()
    trans = _excursion_base()
    with pytest.raises(ValueError, match="window"):
        TscModel(base=base, transition=trans, window=-1)
    small = HmmModel(
        priors=np.array([1.0]),
        transitions=np.array([[1.0]]),
        emissions=(GaussianState([0.0], [[1.0]]),),
        split=DimensionSplit((0,), ()),
    )
    with pytest.raises(ValueError, match="split differs"):
        TscModel(base=base, transition=small, window=2)
    other = HmmModel(trans.priors, trans.transitions, trans.emissions, DimensionSplit((1,), (0,)))
    with pytest.raises(ValueError, match="split differs"):
        TscModel(base=base, transition=other, window=2)


# --- predict ----------------------------------------------------------------------------

def test_predict_fallback_equals_base_prediction_exactly():
    base = _excursion_base()
    model = TscModel(base=base, transition=None, window=2)
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
    model = TscModel(base=base, transition=None, window=0)
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


def test_detect_requires_human_and_robot_dims():
    base = _excursion_base()
    demo = _excursion_demo().frames
    for split in (DimensionSplit((), (0, 1)), DimensionSplit((0, 1), ())):
        one_sided = HmmModel(base.priors, base.transitions, base.emissions, split)
        with pytest.raises(
            ValueError, match="^model split must include human and robot dimensions$"
        ):
            detect_transition_states(one_sided, [demo], 2)


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


def test_predicted_rows_do_not_depend_on_memory_layout(trained_kind):
    model, held_out = trained_kind
    for human in held_out[:5]:
        # the held-out frames are Fortran-ordered columns of the feature matrix
        assert human.flags.f_contiguous and not human.flags.c_contiguous
        strided = np.repeat(human, 2, axis=1)[:, ::2]
        for fn, m in ((gmr_predict, model.base), (predict, model)):
            want = fn(m, np.ascontiguousarray(human)).frames
            for frames in (human, strided):
                assert np.array_equal(fn(m, frames).frames, want)
    human = held_out[0]
    full_gmr = gmr_predict(model.base, human).frames
    full = predict(model, human).frames
    for k in range(1, len(human) + 1):
        for prefix in (np.array(human[:k], order="C"), np.array(human[:k], order="F")):
            assert np.array_equal(gmr_predict(model.base, prefix).frames, full_gmr[:k])
            assert np.array_equal(predict(model, prefix).frames, full[:k])
    # an online step scores each frame as a fresh one-frame array
    for m in (model.base, model.transition):
        log_b, cond = hmm._human_marginal(m, human)
        for t, frame in enumerate(human.tolist()):
            one_b, one_cond = hmm._human_marginal(m, np.array([frame]))
            assert np.array_equal(one_b[0], log_b[t]) and np.array_equal(one_cond[0], cond[t])


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
    assert calls == [(len(human), model.base.num_states)]


def test_batched_prediction_equals_the_per_demo_route(trained_kind):
    model, held_out = trained_kind
    frames, lengths = np.vstack(held_out), np.array([len(h) for h in held_out])
    for m in (model, TscModel(model.base, None, model.window)):
        want = np.vstack([predict(m, human).frames for human in held_out])
        assert np.array_equal(tsc._predict(m, frames, lengths), want)
    want = np.vstack([gmr_predict(model.base, human).frames for human in held_out])
    assert np.array_equal(hmm._gmr(model.base, frames, lengths)[0], want)


def test_human_terms_match_the_twice_factored_reference(trained_kind):
    model, held_out = trained_kind
    for m in (model.base, model.transition):
        h, r = m.split.human_idx, m.split.robot_idx
        # the oracle solves a one-frame prefix beside a copy of itself
        for human in [*held_out[:5], held_out[0][:1]]:
            log_b, cond = hmm._human_marginal(m, human)
            for i, g in enumerate(m.emissions):
                want_b, want_cond = _oracles.factored_twice_human_terms(
                    g.mean, g.cov, h, r, human
                )
                np.testing.assert_allclose(log_b[:, i], want_b, rtol=1e-10, atol=0)
                assert np.array_equal(log_b[:, i], log_density(human, marginalize(g, h)))
                assert np.max(np.abs(cond[:, i] - want_cond)) < 1e-12


def test_predict_factors_each_human_block_once(trained_kind, monkeypatch):
    model, held_out = trained_kind
    # a model of the same parameters that has not predicted yet: the
    # fixture's has factored its blocks in earlier tests
    fresh = TscModel(*(HmmModel(m.priors, m.transitions, m.emissions, m.split)
                       for m in (model.base, model.transition)), model.window)
    factored = []
    for module, name in ((np.linalg, "cholesky"), (scipy.linalg, "cho_factor"),
                         (gaussian, "cho_factor")):
        original = getattr(module, name, None)

        def counted(a, *args, _original=original, **kwargs):
            factored.append(np.shape(a))
            return _original(a, *args, **kwargs)

        # gaussian has no cho_factor of its own to patch unless it imports one
        monkeypatch.setattr(module, name, counted, raising=False)
    normalized = []

    def log_norm(chol):
        normalized.append(np.shape(chol))
        return gaussian._log_norm(chol)

    monkeypatch.setattr(hmm, "_log_norm", log_norm)
    predict(fresh, held_out[0])
    predict(fresh, held_out[1])
    gmr_predict(fresh.base, held_out[2])
    human = len(model.base.split.human_idx)
    states = model.base.num_states + model.transition.num_states
    assert factored == [(human, human)] * states
    assert normalized == [(human, human)] * states


def test_prediction_builds_its_output_split_once_without_restrict(trained_kind, monkeypatch):
    model, held_out = trained_kind
    want = DimensionSplit((), tuple(range(len(model.base.split.robot_idx))))
    fresh_base, fresh_trans = (HmmModel(m.priors, m.transitions, m.emissions, m.split)
                               for m in (model.base, model.transition))
    built = []
    post_init = DimensionSplit.__post_init__

    def counted(split):
        built.append(split)
        post_init(split)

    monkeypatch.setattr(DimensionSplit, "__post_init__", counted)
    first = predict(TscModel(fresh_base, fresh_trans, model.window), held_out[0]).split
    assert gmr_predict(fresh_base, held_out[1]).split is first
    predict(TscModel(fresh_base, fresh_trans, model.window), held_out[2])
    # one output split per model, built with its regression factors
    assert built == [want, want]
    assert first == want


def test_training_builds_no_regression_factors(criterion6_split, monkeypatch):
    base, feats, _ = criterion6_split
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return gaussian._conditional_affine(*args, **kwargs)

    monkeypatch.setattr(hmm, "_conditional_affine", counted)
    init = init_temporal_bins(feats, 4, 1e-2)
    baum_welch(init, feats, max_iter=3)
    assert not fit(base, feats).fallback
    assert built == []


def test_far_out_human_frames_fail_without_a_warning(trained_kind):
    model, held_out = trained_kind
    human = held_out[0].copy()
    # finite, but too far from every state for the squared distance to stay finite
    human[:, 0] = np.where(np.arange(len(human)) % 2, 3e160, 1e160)
    message = "all states have zero emission likelihood at frame 0"
    for call, target in ((gmr_predict, model.base), (predict, model),
                         (predict, TscModel(model.base, None, model.window))):
        with pytest.raises(hmm.TrainingError, match=message):
            call(target, human)


def _shifted(model, dim, value):
    """The HMM with every state's mean set to `value` in dimension `dim`."""
    emissions = tuple(GaussianState(np.where(np.arange(model.dim) == dim, value, g.mean), g.cov)
                      for g in model.emissions)
    return HmmModel(model.priors, model.transitions, emissions, model.split)


def test_overflowing_human_residuals_fail_without_a_warning(trained_kind):
    model, held_out = trained_kind
    far = TscModel(_shifted(model.base, 0, -1e308), _shifted(model.transition, 0, -1e308),
                   model.window)
    human = held_out[0].copy()
    # every residual overflows in dimension 0
    human[:, 0] = 1e308
    message = "all states have zero emission likelihood at frame 0$"
    for call, target in ((gmr_predict, far.base), (predict, far),
                         (predict, TscModel(far.base, None, far.window))):
        with pytest.raises(hmm.TrainingError, match=message):
            call(target, human)
    joint = np.zeros((len(human), far.base.dim))
    joint[:, far.base.split.human_idx] = human
    with pytest.raises(hmm.TrainingError, match=message):
        detect_transition_states(far.base, [joint], far.window)


def test_predict_gate_matches_the_reference(trained_kind):
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


def _marginal_model(model, dims):
    """The model's marginal on its human `dims` built as a sub-model."""
    emissions = tuple(marginalize(g, dims) for g in model.emissions)
    split = DimensionSplit(tuple(range(len(dims))), ())
    return HmmModel(model.priors, model.transitions, emissions, split)


def _marginal_model_labels(base, seqs, dims):
    """Filtered labels by the route that built the marginal on `dims` as a
    sub-model and scored it through the public log density."""
    sub = _marginal_model(base, dims)
    lengths = np.array([len(f) for f in seqs])
    log_b = np.column_stack([log_density(np.vstack(seqs), g) for g in sub.emissions])
    a_hat = hmm._forward_backward(sub.priors, sub.transitions, log_b, lengths).a_hat
    return np.split(np.argmax(a_hat, axis=1), np.cumsum(lengths)[:-1])


def test_human_labels_match_the_marginal_model_route(criterion6_split):
    base, feats, held_out = criterion6_split
    human_idx = list(base.split.human_idx)
    _, human, _ = tsc._segmentation(base, [f.frames for f in feats], 2)
    want = _marginal_model_labels(base, [f.frames[:, human_idx] for f in feats], human_idx)
    assert all(np.array_equal(got, w) for got, w in zip(human, want, strict=True))
    seqs = [f.frames[:, human_idx] for f in held_out]
    want = _marginal_model_labels(base, seqs, human_idx)
    got = hmm._filtered_labels(base, seqs, human_idx)
    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
    sub = _marginal_model(base, human_idx)
    for frames in seqs:
        assert np.array_equal(forward(base, frames, human_idx).h, forward(sub, frames).h)
        assert np.array_equal(viterbi_labels(base, frames, human_idx),
                              viterbi_labels(sub, frames))


def test_labelling_on_a_dims_subset_builds_no_sub_model(criterion6_split, monkeypatch):
    base, feats, held_out = criterion6_split
    built = []

    def counted(*args, _original=gaussian.marginalize):
        built.append("marginalize")
        return _original(*args)

    monkeypatch.setattr(gaussian, "marginalize", counted)
    for cls in (HmmModel, GaussianState):
        original = cls.__post_init__

        def counted(self, _original=original, _name=cls.__name__):
            built.append(_name)
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    human_idx = list(base.split.human_idx)
    detect_transition_states(base, feats, 2)
    frames = held_out[0].frames[:, human_idx]
    forward(base, frames, human_idx)
    viterbi_labels(base, frames, human_idx)
    assert built == []


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda base: TscModel(None, None, 2), "base must be HmmModel, got NoneType"),
        (lambda base: TscModel(base, "x", 2), "transition must be HmmModel, got str"),
        (lambda base: HmmModel(base.priors, base.transitions, [[0.0], [0.0]], base.split),
         r"emissions\[0\] must be GaussianState, got list"),
        (lambda base: HmmModel(base.priors, base.transitions, None, base.split),
         "emissions must be a sequence of GaussianState, got NoneType"),
        (lambda base: HmmModel(base.priors, base.transitions, base.emissions, None),
         "split must be DimensionSplit, got NoneType"),
        (lambda base: predict(base, np.zeros((3, 1))), "model must be TscModel, got HmmModel"),
        (lambda base: gmr_predict(TscModel(base, None, 2), np.zeros((3, 1))),
         "model must be HmmModel, got TscModel"),
    ],
    ids=["tsc-base", "tsc-transition", "hmm-emission", "hmm-emissions", "hmm-split",
         "predict-model", "gmr-predict-model"],
)
def test_models_and_predictors_name_a_wrongly_typed_argument(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(_excursion_base())


def test_predict_rejects_what_gmr_predict_rejects():
    base = _excursion_base()
    flat = HmmModel(base.priors, base.transitions, base.emissions, DimensionSplit((0, 1), ()))
    cases = [
        (base, "human_obs has dimension 2, expected 1"),
        (flat, "model split must include human and robot dimensions"),
    ]
    for hmm_model, message in cases:
        model = TscModel(base=hmm_model, transition=hmm_model, window=2)
        for call, target in ((gmr_predict, hmm_model), (predict, model)):
            with pytest.raises(ValueError, match=message):
                call(target, np.zeros((5, 2)))
