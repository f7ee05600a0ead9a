"""Experiment harness: MSE metric, per-seed runs, and aggregate reports.

A run samples a training batch, trains the base HMM and the transition-state
model on joint features, then scores both predictors on the held-out demos.
Errors are reported on robot position coordinates in centimeters, so the
squared-error numbers live on a centimeter scale.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from . import tsc
from .data import (Dataset, DimensionSplit, FeatureSequence, _check_arg, _check_type,
                   _position_dims, build_features, sample_batch)
from .hmm import TrainingError, baum_welch, gmr_predict, init_temporal_bins

__all__ = [
    "ExperimentConfig",
    "InteractionResult",
    "ExperimentReport",
    "mse",
    "run_single",
    "run_experiment",
    "render_table",
    "render_csv",
]

logger = logging.getLogger(__name__)

REPORT_COLUMNS = "interaction,predictor,mse_mean,mse_std,n_runs"


@dataclass(frozen=True)
class ExperimentConfig:
    base_states: int = 4
    tsc_states: int = 3
    reg_eps: float = 1e-2
    max_iter: int = 40
    tol: float = 1e-4
    batch_size: int = 15
    n_seeds: int = 100
    window: int = 2

    def __post_init__(self):
        for f in fields(self):
            _check_arg(f.name, getattr(self, f.name), *_config_rule(f.name))


def _config_rule(name: str) -> tuple[str, int]:
    """Kind and least value of the ExperimentConfig field `name`."""
    return ExperimentConfig.__annotations__[name], 0 if name in ("reg_eps", "tol", "window") else 1


@dataclass(frozen=True)
class InteractionResult:
    interaction: str
    hmm_mse_mean: float
    hmm_mse_std: float
    tsc_mse_mean: float
    tsc_mse_std: float
    n_runs: int
    n_failed: int


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[InteractionResult, ...]


def mse(pred: FeatureSequence, truth: FeatureSequence) -> float:
    """Mean squared error over robot position dims, in centimeters."""
    _check_type("pred", pred, FeatureSequence)
    _check_type("truth", truth, FeatureSequence)
    if pred.frames.shape != truth.frames.shape:
        raise ValueError(
            f"shape mismatch: {pred.frames.shape} vs {truth.frames.shape}"
        )
    if pred.split != truth.split:
        raise ValueError("prediction and truth carry different dimension splits")
    robot_idx = pred.split.robot_idx
    if not robot_idx:
        raise ValueError("no robot dimensions to score")
    score_dims = _position_dims(robot_idx)
    diff = 100.0 * (pred.frames[:, score_dims] - truth.frames[:, score_dims])
    return float(np.mean(diff * diff))


def run_single(ds: Dataset, cfg: ExperimentConfig, seed: int) -> tuple[float, float]:
    """Train on a seeded batch, score both predictors on the held-out demos."""
    _check_type("cfg", cfg, ExperimentConfig)
    train, test = sample_batch(ds, cfg.batch_size, seed)
    if not len(test):
        raise ValueError("no demonstrations left for evaluation after the batch")
    feats = [build_features(d) for d in train.demos]
    split = feats[0].split
    human_idx = list(split.human_idx)
    robot_idx = list(split.robot_idx)
    human_split = DimensionSplit(tuple(range(len(human_idx))), ())
    try:
        init = init_temporal_bins(feats, cfg.base_states, cfg.reg_eps)
        base, _ = baum_welch(init, feats, cfg.max_iter, cfg.tol, cfg.reg_eps)
        model = tsc.fit(
            base, feats, cfg.tsc_states, cfg.window, cfg.reg_eps, cfg.max_iter, cfg.tol
        )
        hmm_scores = []
        tsc_scores = []
        for demo in test.demos:
            frames = build_features(demo).frames
            human = FeatureSequence(frames[:, human_idx], human_split)
            base_pred = gmr_predict(base, human)
            # mse takes the truth under the split of the rows it scores
            truth = FeatureSequence(frames[:, robot_idx], base_pred.split)
            hmm_scores.append(mse(base_pred, truth))
            tsc_scores.append(mse(tsc.predict(model, human), truth))
    except (TrainingError, np.linalg.LinAlgError) as exc:
        raise TrainingError(f"run failed for seed {seed}: {exc}") from exc
    return float(np.mean(hmm_scores)), float(np.mean(tsc_scores))


def run_experiment(ds: Dataset, cfg: ExperimentConfig) -> ExperimentReport:
    """Aggregate run_single over seeds 0..n_seeds-1; failed seeds are counted."""
    _check_type("cfg", cfg, ExperimentConfig)
    results = []
    failed = 0
    for seed in range(cfg.n_seeds):
        try:
            results.append(run_single(ds, cfg, seed))
        except TrainingError as exc:
            failed += 1
            logger.warning("%s", exc)
    if not results:
        raise TrainingError(f"all {cfg.n_seeds} seeds failed")
    arr = np.array(results)
    row = InteractionResult(
        interaction=ds.name or "dataset",
        hmm_mse_mean=float(arr[:, 0].mean()),
        hmm_mse_std=float(arr[:, 0].std()),
        tsc_mse_mean=float(arr[:, 1].mean()),
        tsc_mse_std=float(arr[:, 1].std()),
        n_runs=len(results),
        n_failed=failed,
    )
    return ExperimentReport(rows=(row,))


def _round1(x: float) -> str:
    """One decimal place, ties away from zero (so 9.45 prints as 9.5)."""
    return str(Decimal(repr(float(x))).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def render_table(report: ExperimentReport) -> str:
    """Aligned plain-text table with one row per interaction."""
    header = ("interaction", "HMM", "TSC-HMM", "runs")
    body = []
    for row in report.rows:
        hmm_cell = f"{_round1(row.hmm_mse_mean)} +- {_round1(row.hmm_mse_std)}"
        tsc_cell = f"{_round1(row.tsc_mse_mean)} +- {_round1(row.tsc_mse_std)}"
        runs = str(row.n_runs) + (f" ({row.n_failed} failed)" if row.n_failed else "")
        body.append((row.interaction, hmm_cell, tsc_cell, runs))
    widths = [max(len(r[c]) for r in [header, *body]) for c in range(len(header))]
    lines = []
    for r in [header, *body]:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_csv(report: ExperimentReport) -> str:
    """Machine-readable rendering at the table's printed precision."""
    lines = [REPORT_COLUMNS]
    for row in report.rows:
        lines.append(
            f"{row.interaction},hmm,{_round1(row.hmm_mse_mean)},"
            f"{_round1(row.hmm_mse_std)},{row.n_runs}"
        )
        lines.append(
            f"{row.interaction},tsc,{_round1(row.tsc_mse_mean)},"
            f"{_round1(row.tsc_mse_std)},{row.n_runs}"
        )
    return "\n".join(lines) + "\n"
