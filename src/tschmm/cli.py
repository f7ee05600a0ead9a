"""Command-line interface: synth, train, predict, segment, eval.

Exit codes are stable for scripting: 0 success, 1 unexpected failure,
2 IO or usage problems, 3 training failure, 4 dimension mismatch between a
model and the supplied data. All randomness flows from explicit --seed
flags, so every command is deterministic given its arguments.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import data, tsc
from .data import SYNTH_KINDS, _check_arg, build_features, load_csv, save_csv, synth_generate
from .evaluation import ExperimentConfig, _config_rule, render_csv, render_table, run_experiment
from .hmm import TrainingError, _check_split, baum_welch, init_temporal_bins
from .model_io import load_model, save_model
from .tsc import TscModel, detect_transition_states

__all__ = ["main"]


class _DimensionMismatch(ValueError):
    """A model and its data disagree on the feature width (exit 4)."""


def _number(name: str, kind: str, least: int):
    """An argparse type checked by the library's rule, whose message names `name`."""
    def parse(text: str):
        value = (int if kind == "int" else float)(text)
        try:
            _check_arg(name, value, kind, least)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    parse.__name__ = kind  # argparse names it in "invalid int value: 'x'"
    return parse


def _config_flag(p: argparse.ArgumentParser, flag: str, field: str, text: str) -> None:
    """A flag stored under, defaulting to and checked like the ExperimentConfig
    `field`; usage still names its value after the flag."""
    metavar = flag[2:].replace("-", "_").upper()
    p.add_argument(flag, dest=field, type=_number(metavar, *_config_rule(field)),
                   default=getattr(ExperimentConfig(), field), metavar=metavar,
                   help=f"{text} (default %(default)s)")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    _config_flag(p, "--states", "base_states", "base HMM states")
    _config_flag(p, "--tsc-states", "tsc_states", "transition HMM states")
    _config_flag(p, "--reg", "reg_eps", "covariance regularization")
    _config_flag(p, "--max-iter", "max_iter", "EM iteration cap")
    _config_flag(p, "--tol", "tol", "EM convergence threshold")
    _config_flag(p, "--window", "window", "frames marked on each side of a mismatch")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tschmm",
        description="Learn joint human-robot interaction models and predict "
        "robot motion from observed human motion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic interaction dataset")
    p.add_argument("--kind", choices=SYNTH_KINDS, required=True)
    p.add_argument("--n", type=_number("N", "int", 1), default=30, help="demos (default 30)")
    p.add_argument("--noise", type=_number("NOISE", "float", 0), default=0.005,
                   help="measurement noise sigma in meters (default 0.005)")
    p.add_argument("--seed", type=_number("SEED", "int", 0), default=0)
    p.add_argument("--out", required=True, help="dataset CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the base HMM and transition model")
    p.add_argument("--data", required=True, help="dataset CSV path")
    _add_train_flags(p)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict robot positions from human motion")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="prediction CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("segment", help="emit per-frame labels and transition flags")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="segmentation CSV path")
    _config_flag(p, "--window", "window", "dilation window when the model file has none")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("eval", help="run the batched multi-seed experiment")
    p.add_argument("--data", required=True)
    _add_train_flags(p)
    _config_flag(p, "--batch", "batch_size", "training demos per seed")
    _config_flag(p, "--seeds", "n_seeds", "number of seeds")
    p.add_argument("--out", help="report CSV path (optional)")
    p.set_defaults(func=cmd_eval)

    return parser


def _boundaries_path(out: str) -> Path:
    p = Path(out)
    return p.with_name(p.stem + ".boundaries.csv")


def cmd_synth(args) -> int:
    ds, boundaries = synth_generate(args.kind, args.n, args.noise, args.seed)
    save_csv(ds, args.out)
    side = _boundaries_path(args.out)
    data._write_csv(side, "demo_id,t", ([bounds] for bounds in boundaries))
    print(f"wrote {len(ds.demos)} {args.kind} demos to {args.out} "
          f"(boundaries in {side})")
    return 0


def _features(path: str):
    """The dataset at `path` and its demos' features; errors name the file."""
    ds = load_csv(path)
    try:
        return ds, [build_features(d) for d in ds.demos]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _model_and_data(args, window: int):
    """The model file as a TscModel, the dataset and its features, checked
    to fit each other (`build_features` gives every demo one width). An
    hmm-kind file has no window: it becomes a TscModel without a
    transition HMM that dilates by `window`."""
    model = load_model(args.model)
    if not isinstance(model, TscModel):
        model = TscModel(model, None, window)
    try:
        _check_split(model.base)
    except ValueError as exc:
        raise ValueError(f"{args.model}: {exc}") from None
    ds, feats = _features(args.data)
    if model.base.dim != feats[0].width:
        raise _DimensionMismatch(
            f"model expects {model.base.dim} dims but the data has {feats[0].width}"
        )
    return model, ds, feats


def cmd_train(args) -> int:
    _, feats = _features(args.data)
    try:
        init = init_temporal_bins(feats, args.base_states, args.reg_eps)
        base, history = baum_welch(init, feats, args.max_iter, args.tol, args.reg_eps)
        samples, masks = detect_transition_states(base, feats, args.window)
        model = tsc._fit_detected(base, samples, masks, args.tsc_states,
                                  args.window, args.reg_eps, args.max_iter, args.tol)
    except np.linalg.LinAlgError:
        raise  # a ValueError too, but a training failure (exit 3)
    except ValueError as exc:
        # the flags are valid by now, so the dataset is at fault
        raise ValueError(f"{args.data}: {exc}") from None
    save_model(model, args.out)
    print(f"log-likelihood: {history[-1]!r} after {len(history) - 1} iterations")
    print(f"transition samples: {len(samples)}")
    if model.fallback:
        print("too few transition samples; model falls back to the base HMM")
    print(f"wrote model to {args.out}")
    return 0


def cmd_predict(args) -> int:
    # prediction never reads the window
    model, ds, feats = _model_and_data(args, window=0)
    human_idx = list(model.base.split.human_idx)
    lengths = np.array([len(f) for f in feats])
    frames = np.vstack([f.frames for f in feats])[:, human_idx]
    try:
        rows = tsc._predict(model, frames, lengths)
    except TrainingError as exc:
        # e.g. a frame too far from every state to score: name the data file
        raise TrainingError(f"{args.data}: {exc}") from None
    positions = rows[:, data._position_dims(range(rows.shape[1]))]
    tables = ([range(len(demo)), *pred.T.tolist(), *demo.robot_pos.T.tolist()]
              for demo, pred in zip(ds.demos, np.split(positions, np.cumsum(lengths)[:-1])))
    data._write_csv(args.out, "demo_id,t,pred_x,pred_y,pred_z,true_x,true_y,true_z", tables)
    print(f"wrote predictions for {len(ds.demos)} demos to {args.out}")
    return 0


def cmd_segment(args) -> int:
    model, ds, feats = _model_and_data(args, args.window)
    try:
        labels = tsc._segmentation(model.base, [f.frames for f in feats], model.window)
    except TrainingError as exc:
        raise TrainingError(f"{args.data}: {exc}") from None
    tables = ([range(len(joint)), joint.tolist(), human.tolist(),
               (joint != human).astype(int).tolist(), windowed.astype(int).tolist()]
              for joint, human, windowed in zip(*labels))
    data._write_csv(args.out, "demo_id,t,label_joint,label_human,mismatch,windowed", tables)
    print(f"wrote segmentation for {len(ds.demos)} demos to {args.out}")
    return 0


def cmd_eval(args) -> int:
    ds = load_csv(args.data)
    cfg = ExperimentConfig(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(ExperimentConfig)}
    )
    try:
        report = run_experiment(ds, cfg)
    except ValueError as exc:
        # the config is valid by now, so the dataset is at fault
        raise ValueError(f"{args.data}: {exc}") from None
    print(render_table(report), end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render_csv(report))
        print(f"wrote report to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TrainingError, np.linalg.LinAlgError) as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 3
    except _DimensionMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - last-resort contract
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
