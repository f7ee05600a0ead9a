"""Acceptance suite: eight pinned behavioral guarantees for the package.

Each test prints exactly one line, "criterion N: PASS - ..." or
"criterion N: FAIL - ...", so a full run doubles as a checklist. The
tolerances and runtime budgets are part of the contract and must not be
loosened to make a failing build green.
"""

import time

import numpy as np
import pytest
from scipy.special import logsumexp

from _oracles import brute_force_log_likelihood, random_hmm_params
from tschmm import tsc
from tschmm.data import (
    SYNTH_KINDS,
    build_features,
    save_csv,
    synth_generate,
)
from tschmm.evaluation import (
    ExperimentConfig,
    render_csv,
    run_experiment,
)
from tschmm.gaussian import GaussianState
from tschmm.hmm import (
    HmmModel,
    baum_welch,
    forward,
    gmr_predict,
    init_temporal_bins,
    viterbi_labels,
)
from tschmm.model_io import load_model, save_model
from tschmm.tsc import detect_transition_states
from test_hmm import (
    HAND_ALPHA_1,
    HAND_ALPHA_2,
    HAND_H_1,
    HAND_H_2,
    HAND_LL_2,
    hand_model,
)

NOISES = [0.0, 0.005, 0.01, 0.02]
BASE_STATES = {"handshake": 3, "rocket_fistbump": 4, "parachute_fistbump": 4}


class _criterion:
    """Prints the one-line verdict for an acceptance criterion."""

    def __init__(self, num, description):
        self.num = num
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.num}: {status} - {self.description}")
        return False


def _model_from(priors, trans, means, covs, split=None):
    from tschmm.data import DimensionSplit

    dim = means.shape[1]
    if split is None:
        split = DimensionSplit(tuple(range(dim)), ())
    emissions = tuple(GaussianState(m, c) for m, c in zip(means, covs))
    return HmmModel(np.asarray(priors), np.asarray(trans), emissions, split)


def test_criterion_1_forward_correctness():
    with _criterion(1, "forward pass matches hand values (1e-6) and "
                       "path enumeration (1e-8) within 10 s"):
        started = time.perf_counter()

        model = hand_model()
        one = forward(model, np.array([[0.0]]))
        assert np.allclose(np.exp(one.log_alpha[-1]), HAND_ALPHA_1, atol=1e-6)
        assert np.allclose(one.h[-1], HAND_H_1, atol=1e-6)
        two = forward(model, np.array([[0.0], [3.0]]))
        assert np.allclose(np.exp(two.log_alpha[-1]), HAND_ALPHA_2, atol=1e-6)
        assert np.allclose(two.h[-1], HAND_H_2, atol=1e-6)
        assert two.log_likelihood == pytest.approx(HAND_LL_2, abs=1e-6)

        # exhaustive-path oracle on random models; sequence lengths are
        # capped per state count so the enumeration stays exact and quick
        rng = np.random.default_rng(11)
        t_cap = {2: 17, 3: 10, 4: 8}
        for _ in range(100):
            s = int(rng.integers(2, 5))
            t_total = int(rng.integers(2, t_cap[s] + 1))
            dim = int(rng.integers(1, 4))
            priors, trans, means, covs = random_hmm_params(rng, s, dim)
            obs = rng.normal(0.0, 2.0, size=(t_total, dim))
            want = brute_force_log_likelihood(priors, trans, means, covs, obs)
            res = forward(_model_from(priors, trans, means, covs), obs)
            assert res.log_likelihood == pytest.approx(want, abs=1e-8)
            assert logsumexp(res.log_alpha[-1]) == pytest.approx(want, abs=1e-8)

        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_2_em_monotone_log_likelihood():
    with _criterion(2, "Baum-Welch log-likelihood never decreases "
                       "(50 seeds, 1e-8 slack) within 60 s"):
        started = time.perf_counter()
        for seed in range(50):
            kind = SYNTH_KINDS[seed % 3]
            noise = NOISES[seed % 4]
            ds, _ = synth_generate(kind, n_demos=8, noise_sigma=noise, seed=seed)
            feats = [build_features(d) for d in ds.demos]
            model = init_temporal_bins(feats, 4, eps=1e-2)
            _, history = baum_welch(model, feats, max_iter=40, tol=1e-4, eps=1e-2)
            diffs = np.diff(np.asarray(history))
            assert diffs.size > 0
            assert diffs.min() >= -1e-8, f"seed {seed} dropped by {-diffs.min()}"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def _sample_two_state_seq(rng, t_total=30):
    true_means = np.array([0.0, 5.0])
    trans = np.array([[0.95, 0.05], [0.05, 0.95]])
    priors = np.array([0.95, 0.05])
    states = np.empty(t_total, dtype=int)
    states[0] = rng.choice(2, p=priors)
    for t in range(1, t_total):
        states[t] = rng.choice(2, p=trans[states[t - 1]])
    return (true_means[states] + rng.normal(0.0, 1.0, t_total))[:, None]


def test_criterion_3_parameter_recovery():
    with _criterion(3, "EM recovers known 2-state emission means within 0.2 "
                       "on >= 19 of 20 seeds"):
        true_means = np.array([0.0, 5.0])
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            seqs = [_sample_two_state_seq(rng) for _ in range(200)]
            model = init_temporal_bins(seqs, 2, eps=1e-2)
            model, _ = baum_welch(model, seqs, max_iter=40, tol=1e-4, eps=1e-2)
            means = np.array([g.mean[0] for g in model.emissions])
            err = min(
                np.max(np.abs(means - true_means)),
                np.max(np.abs(means[::-1] - true_means)),
            )
            hits += err <= 0.2
        assert hits >= 19, f"recovered only {hits}/20 seeds"


def test_criterion_4_gmr_matches_closed_form():
    with _criterion(4, "single-state regression equals explicit-inverse "
                       "Gaussian conditioning to 1e-10"):
        from tschmm.data import DimensionSplit

        rng = np.random.default_rng(17)
        for _ in range(100):
            dim = int(rng.integers(2, 13))
            n_human = int(rng.integers(1, dim))
            split = DimensionSplit(tuple(range(n_human)), tuple(range(n_human, dim)))
            mean = rng.normal(0.0, 2.0, dim)
            a = rng.normal(size=(dim, dim))
            cov = a @ a.T + 0.5 * np.eye(dim)
            model = HmmModel(
                np.array([1.0]),
                np.array([[1.0]]),
                (GaussianState(mean, cov),),
                split,
            )
            obs = rng.normal(0.0, 2.0, size=(5, n_human))
            got = gmr_predict(model, obs).frames

            h, r = list(split.human_idx), list(split.robot_idx)
            s11 = cov[np.ix_(h, h)]
            s21 = cov[np.ix_(r, h)]
            want = mean[r] + (obs - mean[h]) @ np.linalg.inv(s11).T @ s21.T
            assert np.allclose(got, want, rtol=0.0, atol=1e-10)


def test_criterion_5_transition_localization():
    with _criterion(5, "across 10 seeds >= 60% of mismatch frames lie within "
                       "w+3 frames of a generator boundary"):
        w = 2
        tol_frames = w + 3
        near = total = 0
        for seed in range(10):
            kind = SYNTH_KINDS[seed % 3]
            noise = NOISES[seed % 4]
            ds, bounds = synth_generate(kind, n_demos=12, noise_sigma=noise,
                                        seed=seed)
            feats = [build_features(d) for d in ds.demos]
            model = init_temporal_bins(feats, BASE_STATES[kind], eps=1e-4)
            model, _ = baum_welch(model, feats, max_iter=40, tol=1e-4, eps=1e-4)
            human_idx = list(model.split.human_idx)
            for feat, truth in zip(feats, bounds):
                joint = viterbi_labels(model, feat)
                human = viterbi_labels(
                    model, feat.frames[:, human_idx], human_idx
                )
                idx = np.flatnonzero(joint != human)
                if idx.size == 0:
                    continue
                gaps = np.min(
                    np.abs(idx[:, None] - np.asarray(truth)[None, :]), axis=1
                )
                near += int(np.sum(gaps <= tol_frames))
                total += idx.size
        assert total > 0, "no mismatch frames detected anywhere"
        share = near / total
        print(f"[criterion 5 detail] {near}/{total} mismatch frames near a "
              f"boundary ({100.0 * share:.1f}%)")
        assert share >= 0.60, f"only {100.0 * share:.1f}% near a boundary"


def test_criterion_6_transition_model_improves_mse():
    with _criterion(6, "TSC-HMM mean MSE <= HMM mean MSE on all three "
                       "interaction kinds within 10 min"):
        started = time.perf_counter()
        cfg = ExperimentConfig(n_seeds=20)
        for kind in SYNTH_KINDS:
            ds, _ = synth_generate(kind, n_demos=30, noise_sigma=0.005, seed=0)
            row = run_experiment(ds, cfg).rows[0]
            print(f"[criterion 6 detail] {kind}: hmm {row.hmm_mse_mean:.3f} "
                  f"+- {row.hmm_mse_std:.3f}, tsc {row.tsc_mse_mean:.3f} "
                  f"+- {row.tsc_mse_std:.3f} ({row.n_runs} runs)")
            assert row.n_failed == 0
            assert row.tsc_mse_mean <= row.hmm_mse_mean, (
                f"{kind}: tsc {row.tsc_mse_mean:.3f} > hmm {row.hmm_mse_mean:.3f}"
            )
        elapsed = time.perf_counter() - started
        assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"


def test_criterion_7_fallback_is_bit_exact():
    with _criterion(7, "with no transition samples the combined model "
                       "reproduces base predictions bit for bit"):
        ds, _ = synth_generate("handshake", n_demos=6, noise_sigma=0.005, seed=5)
        feats = [build_features(d) for d in ds.demos]
        base = init_temporal_bins(feats, 1, eps=1e-2)
        samples, _ = detect_transition_states(base, feats, w=2)
        assert samples.shape[0] == 0

        model = tsc.fit(base, feats, num_states=3, w=2)
        assert model.fallback

        human_idx = list(base.split.human_idx)
        other, _ = synth_generate("handshake", n_demos=3, noise_sigma=0.02, seed=9)
        rng = np.random.default_rng(0)
        inputs = [build_features(d).frames[:, human_idx] for d in other.demos]
        inputs.append(rng.normal(size=(40, len(human_idx))))
        for human in inputs:
            assert np.array_equal(
                tsc.predict(model, human).frames,
                gmr_predict(base, human).frames,
            )


def test_criterion_8_determinism_and_round_trips(tmp_path):
    with _criterion(8, "same seeds give identical CSVs and reports; "
                       "saved models reload within 1e-12"):
        # byte-identical dataset synthesis
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        ds_a, bounds_a = synth_generate("rocket_fistbump", 8, 0.005, seed=3)
        ds_b, bounds_b = synth_generate("rocket_fistbump", 8, 0.005, seed=3)
        save_csv(ds_a, first)
        save_csv(ds_b, second)
        assert first.read_bytes() == second.read_bytes()
        assert bounds_a == bounds_b

        # identical experiment reports (timing metadata aside)
        cfg = ExperimentConfig(base_states=2, tsc_states=2, batch_size=4,
                               n_seeds=2, max_iter=15)
        ds, _ = synth_generate("handshake", n_demos=6, noise_sigma=0.005, seed=0)
        row_x = run_experiment(ds, cfg).rows[0]
        row_y = run_experiment(ds, cfg).rows[0]
        for field in ("hmm_mse_mean", "hmm_mse_std", "tsc_mse_mean",
                      "tsc_mse_std", "n_runs", "n_failed"):
            assert getattr(row_x, field) == getattr(row_y, field), field
        assert render_csv(run_experiment(ds, cfg)) == render_csv(
            run_experiment(ds, cfg)
        )

        # save/load round-trip on a trained combined model
        feats = [build_features(d) for d in ds.demos]
        init = init_temporal_bins(feats, 3, eps=1e-2)
        base, _ = baum_welch(init, feats, max_iter=20, tol=1e-4, eps=1e-2)
        model = tsc.fit(base, feats, num_states=2, w=2)
        assert not model.fallback
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        for got, want in (
            (loaded.base.priors, model.base.priors),
            (loaded.base.transitions, model.base.transitions),
            (loaded.transition.priors, model.transition.priors),
            (loaded.transition.transitions, model.transition.transitions),
        ):
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        for pair in zip(loaded.base.emissions, model.base.emissions):
            assert np.allclose(pair[0].mean, pair[1].mean, rtol=0.0, atol=1e-12)
            assert np.allclose(pair[0].cov, pair[1].cov, rtol=0.0, atol=1e-12)
        for pair in zip(loaded.transition.emissions, model.transition.emissions):
            assert np.allclose(pair[0].mean, pair[1].mean, rtol=0.0, atol=1e-12)
            assert np.allclose(pair[0].cov, pair[1].cov, rtol=0.0, atol=1e-12)
        assert (loaded.window, loaded.fallback) == (
            model.window, model.fallback,
        )
