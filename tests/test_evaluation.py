"""Tests for the scoring metric and the batch experiment driver."""

import numpy as np
import pytest

from tschmm import evaluation
from tschmm.data import (
    Dataset,
    Demonstration,
    DimensionSplit,
    FeatureSequence,
    standard_split,
)
from tschmm.evaluation import (
    REPORT_COLUMNS,
    ExperimentConfig,
    ExperimentReport,
    InteractionResult,
    TrainingError,
    mse,
    render_csv,
    render_table,
    run_experiment,
    run_single,
)


def _seq(frames, split=None):
    frames = np.asarray(frames, dtype=float)
    return FeatureSequence(frames, split or standard_split())


def _mirror_dataset(n_demos=8, t_total=80):
    """Demos whose robot track is an exact per-axis reflection of the human
    track, with no lag: the regression target is linear in the features."""
    demos = []
    for k in range(n_demos):
        t = np.arange(t_total) / t_total
        phase = 0.4 * k
        human = np.column_stack(
            [
                0.30 * np.sin(2 * np.pi * t + phase),
                0.20 * np.cos(2 * np.pi * t + phase) - 0.3,
                0.10 * np.sin(4 * np.pi * t + phase) + 0.9,
            ]
        )
        robot = human * np.array([1.0, -1.0, 1.0])
        demos.append(Demonstration(human, robot, label="mirror"))
    return Dataset(demos, name="mirror")


# --- mse --------------------------------------------------------------------

def test_mse_zero_for_identical_sequences():
    a = _seq(np.random.default_rng(0).normal(size=(9, 12)))
    assert mse(a, a) == 0.0


def test_mse_counts_centimeters_on_robot_positions():
    base = np.zeros((5, 12))
    shifted = base.copy()
    shifted[:, 6:9] += 0.01  # one centimeter on every robot position axis
    assert mse(_seq(base), _seq(shifted)) == pytest.approx(1.0)


def test_mse_ignores_robot_velocity_dims():
    base = np.zeros((5, 12))
    shifted = base.copy()
    shifted[:, 9:12] += 5.0
    assert mse(_seq(base), _seq(shifted)) == 0.0


def test_mse_ignores_human_dims():
    base = np.zeros((5, 12))
    shifted = base.copy()
    shifted[:, 0:6] += 5.0
    assert mse(_seq(base), _seq(shifted)) == 0.0


def test_mse_matches_plain_accumulation():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(14, 12))
    b = rng.normal(size=(14, 12))
    total = 0.0
    for t in range(14):
        for d in (6, 7, 8):
            total += ((a[t, d] - b[t, d]) * 100.0) ** 2
    assert mse(_seq(a), _seq(b)) == pytest.approx(total / (14 * 3), rel=1e-10)


def test_mse_is_symmetric():
    rng = np.random.default_rng(4)
    a = _seq(rng.normal(size=(6, 12)))
    b = _seq(rng.normal(size=(6, 12)))
    assert mse(a, b) == mse(b, a)


def test_mse_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        mse(_seq(np.zeros((4, 12))), _seq(np.zeros((5, 12))))


def test_mse_rejects_different_splits():
    a = FeatureSequence(np.zeros((3, 2)), DimensionSplit((0,), (1,)))
    b = FeatureSequence(np.zeros((3, 2)), DimensionSplit((1,), (0,)))
    with pytest.raises(ValueError, match="different dimension splits"):
        mse(a, b)


def test_mse_rejects_human_only_sequences():
    a = FeatureSequence(np.zeros((3, 2)), DimensionSplit((0, 1), ()))
    with pytest.raises(ValueError, match="no robot dimensions"):
        mse(a, a)


# --- run_single -----------------------------------------------------------------

def test_run_single_near_zero_error_on_linear_task():
    ds = _mirror_dataset()
    cfg = ExperimentConfig(
        base_states=2, tsc_states=2, reg_eps=1e-8, batch_size=6, n_seeds=1
    )
    hmm_mse, tsc_mse = run_single(ds, cfg, seed=0)
    assert hmm_mse < 1e-4
    assert tsc_mse < 1e-4


def test_run_single_is_deterministic_per_seed():
    ds = _mirror_dataset(n_demos=6, t_total=40)
    cfg = ExperimentConfig(base_states=2, tsc_states=2, batch_size=4, n_seeds=1)
    assert run_single(ds, cfg, seed=7) == run_single(ds, cfg, seed=7)


def test_run_single_fallback_scores_match_base():
    ds = _mirror_dataset(n_demos=6, t_total=40)
    # far more transition states than pooled mismatch samples forces the
    # second-level model into fallback, so both predictors coincide
    cfg = ExperimentConfig(base_states=2, tsc_states=50, batch_size=4, n_seeds=1)
    hmm_mse, tsc_mse = run_single(ds, cfg, seed=1)
    assert hmm_mse == tsc_mse


def test_run_single_requires_a_test_split():
    ds = _mirror_dataset(n_demos=5, t_total=40)
    cfg = ExperimentConfig(base_states=2, batch_size=5, n_seeds=1)
    with pytest.raises(ValueError, match="no demonstrations left"):
        run_single(ds, cfg, seed=0)


def test_run_single_wraps_training_failures():
    frames = np.zeros((30, 3))
    demos = [
        Demonstration(frames, frames, label="flat"),
        Demonstration(frames, frames, label="flat"),
        Demonstration(frames, frames, label="flat"),
    ]
    ds = Dataset(demos, name="flat")
    cfg = ExperimentConfig(base_states=2, reg_eps=0.0, batch_size=2, n_seeds=1)
    with pytest.raises(TrainingError, match="run failed for seed 0"):
        run_single(ds, cfg, seed=0)


@pytest.mark.parametrize("n_test", [15, 25])
def test_run_single_builds_its_splits_once_for_all_held_out_demos(n_test, monkeypatch):
    # the held-out demos are scored on column slices under splits built once
    # per call, so the count does not grow with the number of held-out demos
    ds = _mirror_dataset(n_demos=4 + n_test, t_total=40)
    # more transition states than mismatch samples: both runs fall back
    cfg = ExperimentConfig(base_states=2, tsc_states=50, batch_size=4, n_seeds=1)
    # one human split, and the output split of the base model's predictions
    want = [DimensionSplit((0, 1, 2, 3, 4, 5), ()), DimensionSplit((), (0, 1, 2, 3, 4, 5))]
    built = []
    post_init = DimensionSplit.__post_init__

    def counted(split):
        built.append(split)
        post_init(split)

    monkeypatch.setattr(DimensionSplit, "__post_init__", counted)
    run_single(ds, cfg, seed=0)
    assert built == want


# --- run_experiment --------------------------------------------------------------

def test_run_experiment_single_seed_matches_run_single():
    ds = _mirror_dataset(n_demos=6, t_total=40)
    cfg = ExperimentConfig(base_states=2, tsc_states=2, batch_size=4, n_seeds=1)
    report = run_experiment(ds, cfg)
    hmm_mse, tsc_mse = run_single(ds, cfg, seed=0)
    assert len(report.rows) == 1
    res = report.rows[0]
    assert res.interaction == "mirror"
    assert res.hmm_mse_mean == hmm_mse and res.hmm_mse_std == 0.0
    assert res.tsc_mse_mean == tsc_mse and res.tsc_mse_std == 0.0
    assert res.n_runs == 1 and res.n_failed == 0


def test_run_experiment_aggregates_population_moments():
    ds = _mirror_dataset(n_demos=7, t_total=40)
    cfg = ExperimentConfig(base_states=2, tsc_states=2, batch_size=4, n_seeds=3)
    report = run_experiment(ds, cfg)
    singles = [run_single(ds, cfg, seed=s) for s in range(3)]
    hmm_vals = np.array([s[0] for s in singles])
    res = report.rows[0]
    assert res.hmm_mse_mean == pytest.approx(hmm_vals.mean(), rel=1e-12)
    assert res.hmm_mse_std == pytest.approx(hmm_vals.std(ddof=0), rel=1e-12)
    assert res.n_runs == 3


def _failing_on(monkeypatch, failing):
    """Make run_single fail on the seeds in `failing` and score every other seed s as (s, 2s)."""

    def fake(ds, cfg, seed):
        if seed in failing:
            raise TrainingError(f"run failed for seed {seed}: planted")
        return float(seed), 2.0 * seed

    monkeypatch.setattr(evaluation, "run_single", fake)


def test_run_experiment_counts_failed_seeds(monkeypatch):
    _failing_on(monkeypatch, {1, 4})
    cfg = ExperimentConfig(n_seeds=6)
    report = run_experiment(_mirror_dataset(n_demos=2, t_total=8), cfg)
    res = report.rows[0]
    assert (res.n_runs, res.n_failed) == (4, 2)
    assert res.hmm_mse_mean == np.mean([0.0, 2.0, 3.0, 5.0])
    assert res.tsc_mse_mean == np.mean([0.0, 4.0, 6.0, 10.0])
    assert render_table(report).splitlines()[1].endswith("  4 (2 failed)")


def test_run_experiment_raises_when_every_seed_fails(monkeypatch):
    _failing_on(monkeypatch, set(range(3)))
    with pytest.raises(TrainingError, match="^all 3 seeds failed$"):
        run_experiment(_mirror_dataset(n_demos=2, t_total=8), ExperimentConfig(n_seeds=3))


# --- rendering --------------------------------------------------------------------

def _toy_report(n_failed=2):
    return ExperimentReport(
        rows=(
            InteractionResult(
                interaction="handshake",
                hmm_mse_mean=9.44,
                hmm_mse_std=0.26,
                tsc_mse_mean=9.45,
                tsc_mse_std=1.349,
                n_runs=100 - n_failed,
                n_failed=n_failed,
            ),
        )
    )


def test_render_table_rounds_half_up_to_one_decimal():
    table = render_table(_toy_report())
    assert "9.4 +- 0.3" in table
    assert "9.5 +- 1.3" in table
    assert "(2 failed)" in table
    assert "handshake" in table


def test_render_table_omits_failure_note_when_clean():
    assert "failed" not in render_table(_toy_report(n_failed=0))


def test_render_csv_shape_and_values():
    text = render_csv(_toy_report())
    lines = text.strip().split("\n")
    assert lines[0] == REPORT_COLUMNS
    hmm_row = lines[1].split(",")
    tsc_row = lines[2].split(",")
    assert hmm_row[:2] == ["handshake", "hmm"]
    assert tsc_row[:2] == ["handshake", "tsc"]
    assert hmm_row[2] == "9.4" and hmm_row[3] == "0.3"
    assert tsc_row[2] == "9.5" and tsc_row[3] == "1.3"
    assert hmm_row[4] == "98"


# --- config validation ---------------------------------------------------------------

@pytest.mark.parametrize(
    "field, value",
    [("n_seeds", 1.5), ("base_states", True), ("window", 2.0), ("max_iter", "40"),
     ("tol", "x"), ("reg_eps", True), ("tol", None)],
)
def test_config_rejects_values_of_the_wrong_type(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        ExperimentConfig(**{field: value})


def test_config_accepts_numpy_and_integral_numbers():
    cfg = ExperimentConfig(n_seeds=np.int64(2), window=np.uint8(0), tol=0, reg_eps=np.float32(0.5))
    assert cfg.n_seeds == 2 and cfg.window == 0 and cfg.tol == 0


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ExperimentConfig(base_states=0)
    with pytest.raises(ValueError):
        ExperimentConfig(batch_size=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n_seeds=0)
    with pytest.raises(ValueError):
        ExperimentConfig(reg_eps=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(window=-2)
