"""End-to-end tests for the command-line interface.

Commands run in-process through main(argv), with stdout captured by
redirection so the tests do not depend on pytest's capture mode. A test of
how a command behaves when every warning is an error runs it in a child
interpreter under `-W error`.
"""

import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _oracles import CSV_COLUMNS, csv_bytes, dataset_rows
from tschmm import cli, hmm, tsc
from tschmm.cli import main
from tschmm.data import (Dataset, Demonstration, FeatureSequence, build_features, load_csv,
                         save_csv, synth_generate)
from tschmm.evaluation import REPORT_COLUMNS, ExperimentConfig, mse
from tschmm.hmm import HmmModel, init_temporal_bins, viterbi_labels
from tschmm.model_io import load_model, save_model
from tschmm.tsc import TscModel


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def data_csv(workdir):
    path = workdir / "handshake.csv"
    rc, out, _ = run_cli("synth", "--kind", "handshake", "--n", "6",
                         "--out", str(path))
    assert rc == 0
    assert "wrote 6 handshake demos" in out
    return path


@pytest.fixture(scope="module")
def trained(workdir, data_csv):
    path = workdir / "model.json"
    rc, out, _ = run_cli("train", "--data", str(data_csv), "--states", "3",
                         "--tsc-states", "2", "--max-iter", "20",
                         "--out", str(path))
    assert rc == 0
    return path, out


def test_flag_defaults_are_the_experiment_config_defaults():
    parser = cli._build_parser()
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    args = parser.parse_args(["eval", "--data", "d.csv"])
    assert ExperimentConfig(**{name: getattr(args, name) for name in fields}) == ExperimentConfig()
    args = parser.parse_args(["train", "--data", "d.csv", "--out", "m.json"])
    for name in ("base_states", "tsc_states", "reg_eps", "max_iter", "tol", "window"):
        assert getattr(args, name) == getattr(ExperimentConfig(), name)
    args = parser.parse_args(["segment", "--model", "m", "--data", "d", "--out", "o"])
    assert args.window == ExperimentConfig().window


def test_synth_writes_dataset_and_boundary_sidecar(data_csv):
    ds = load_csv(data_csv)
    assert len(ds.demos) == 6
    side = data_csv.with_name("handshake.boundaries.csv")
    rows = read_rows(side)
    assert rows[0] == ["demo_id", "t"]
    assert len(rows) == 1 + 6 * 2  # two phase boundaries per handshake demo
    for demo_id, demo in enumerate(ds.demos):
        bounds = [int(r[1]) for r in rows[1:] if int(r[0]) == demo_id]
        assert len(bounds) == 2 and bounds[0] < bounds[1] < len(demo.human_pos)


def test_synth_writes_the_reference_bytes(data_csv):
    ds, boundaries = synth_generate("handshake", 6, 0.005, 0)
    assert data_csv.read_bytes() == csv_bytes(
        CSV_COLUMNS, dataset_rows((d.human_pos, d.robot_pos, d.label) for d in ds.demos)
    )
    assert data_csv.with_name("handshake.boundaries.csv").read_bytes() == csv_bytes(
        ["demo_id", "t"], [[demo_id, t] for demo_id, b in enumerate(boundaries) for t in b]
    )


def test_synth_is_deterministic(workdir, data_csv):
    again = workdir / "again.csv"
    rc, _, _ = run_cli("synth", "--kind", "handshake", "--n", "6",
                       "--out", str(again))
    assert rc == 0
    assert again.read_bytes() == data_csv.read_bytes()
    assert (workdir / "again.boundaries.csv").read_text().split("\n")[1:] == (
        workdir / "handshake.boundaries.csv"
    ).read_text().split("\n")[1:]


def test_train_reports_progress_and_saves_model(trained):
    path, out = trained
    assert "log-likelihood: " in out
    assert "transition samples: " in out
    assert f"wrote model to {path}" in out
    model = load_model(path)
    assert isinstance(model, TscModel)
    assert not model.fallback


def test_train_detects_transition_states_once(workdir, data_csv, monkeypatch):
    import tschmm.cli

    found = []
    original = tsc.detect_transition_states

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        found.append(result[0])
        return result

    monkeypatch.setattr(tsc, "detect_transition_states", counted)
    monkeypatch.setattr(tschmm.cli, "detect_transition_states", counted)
    rc, out, _ = run_cli("train", "--data", str(data_csv), "--states", "3",
                         "--tsc-states", "2", "--max-iter", "20",
                         "--out", str(workdir / "once.json"))
    assert rc == 0
    assert len(found) == 1
    assert f"transition samples: {len(found[0])}" in out


def test_train_hands_detection_the_feature_sequences(workdir, data_csv, monkeypatch):
    seen = []

    def recording(base, demos, w):
        seen.extend(demos)
        return tsc.detect_transition_states(base, demos, w)

    monkeypatch.setattr(cli, "detect_transition_states", recording)
    rc, _, _ = run_cli("train", "--data", str(data_csv), "--states", "3",
                       "--tsc-states", "2", "--max-iter", "3",
                       "--out", str(workdir / "handed.json"))
    assert rc == 0
    assert len(seen) == 6 and all(isinstance(d, FeatureSequence) for d in seen)
    # a FeatureSequence's frames are read in place: detection copies none
    assert all(f is d.frames for f, d in zip(hmm._demo_frames(seen, None), seen))


def test_predict_writes_one_row_per_frame(workdir, data_csv, trained):
    model_path, _ = trained
    out_path = workdir / "pred.csv"
    rc, out, _ = run_cli("predict", "--model", str(model_path),
                         "--data", str(data_csv), "--out", str(out_path))
    assert rc == 0
    assert "wrote predictions for 6 demos" in out
    rows = read_rows(out_path)
    assert rows[0] == ["demo_id", "t", "pred_x", "pred_y", "pred_z",
                       "true_x", "true_y", "true_z"]
    ds = load_csv(data_csv)
    assert len(rows) - 1 == sum(len(d.human_pos) for d in ds.demos)


@pytest.mark.parametrize("kind, marginals", [("tsc", 2), ("fallback", 1), ("hmm", 1)])
def test_predict_runs_one_kernel_pass_per_file(workdir, data_csv, trained, kind, marginals,
                                               monkeypatch):
    tsc_model = load_model(trained[0])
    model = {"tsc": tsc_model, "fallback": TscModel(tsc_model.base, None, 2),
             "hmm": tsc_model.base}[kind]
    model_path = workdir / f"kernel_{kind}.json"
    save_model(model, model_path)
    calls = {"_forward_backward": 0, "_human_marginal": 0}
    for name in calls:
        original = getattr(hmm, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        # tsc imports _human_marginal by name; patch it there too
        for module in (hmm, tsc):
            monkeypatch.setattr(module, name, counted, raising=False)
    ds = load_csv(data_csv)
    for n in (1, len(ds.demos)):
        data_path = workdir / f"kernel_{n}.csv"
        save_csv(Dataset(ds.demos[:n]), data_path)
        calls.update(dict.fromkeys(calls, 0))
        assert run_cli("predict", "--model", str(model_path), "--data", str(data_path),
                       "--out", str(workdir / "kernel_pred.csv"))[0] == 0
        assert calls == {"_forward_backward": 1, "_human_marginal": marginals}


def test_predict_csv_agrees_with_library_score(workdir, data_csv, trained):
    model_path, _ = trained
    out_path = workdir / "pred.csv"
    run_cli("predict", "--model", str(model_path), "--data", str(data_csv),
            "--out", str(out_path))
    rows = read_rows(out_path)[1:]

    model = load_model(model_path)
    ds = load_csv(data_csv)
    human_idx = list(model.base.split.human_idx)
    robot_idx = list(model.base.split.robot_idx)
    for demo_id, demo in enumerate(ds.demos):
        feat = build_features(demo)
        pred = tsc.predict(model, feat.restrict(human_idx))
        truth = feat.restrict(robot_idx)
        want = mse(pred, truth)

        demo_rows = [r for r in rows if int(r[0]) == demo_id]
        err = np.array(
            [
                [(float(r[2 + d]) - float(r[5 + d])) * 100.0 for d in range(3)]
                for r in demo_rows
            ]
        )
        assert np.mean(err**2) == pytest.approx(want, rel=1e-12)


def test_predict_rejects_mismatched_dimensions(workdir, data_csv):
    from tschmm.data import DimensionSplit
    from tschmm.gaussian import GaussianState

    tiny = HmmModel(
        priors=np.array([1.0]),
        transitions=np.array([[1.0]]),
        emissions=(GaussianState([0.0, 0.0], np.eye(2)),),
        split=DimensionSplit((0,), (1,)),
    )
    model_path = workdir / "tiny.json"
    save_model(tiny, model_path)
    for command in ("predict", "segment"):
        rc, _, err = run_cli(command, "--model", str(model_path),
                             "--data", str(data_csv),
                             "--out", str(workdir / "nope.csv"))
        assert rc == 4
        assert err == "error: model expects 2 dims but the data has 12\n"


def test_segment_flags_are_internally_consistent(workdir, data_csv, trained):
    model_path, _ = trained
    out_path = workdir / "seg.csv"
    rc, _, _ = run_cli("segment", "--model", str(model_path),
                       "--data", str(data_csv), "--out", str(out_path))
    assert rc == 0
    rows = read_rows(out_path)
    assert rows[0] == ["demo_id", "t", "label_joint", "label_human",
                       "mismatch", "windowed"]
    body = np.array(rows[1:], dtype=int)
    joint, human, mismatch, windowed = body[:, 2], body[:, 3], body[:, 4], body[:, 5]
    assert np.array_equal(mismatch == 1, joint != human)
    assert np.all(windowed[mismatch == 1] == 1)
    assert mismatch.sum() > 0  # a handshake has clasp and release transitions


def test_segment_labels_match_per_demo_labelling(workdir, data_csv, trained):
    model_path, _ = trained
    out_path = workdir / "seg.csv"
    rc, _, _ = run_cli("segment", "--model", str(model_path),
                       "--data", str(data_csv), "--out", str(out_path))
    assert rc == 0
    body = np.array(read_rows(out_path)[1:], dtype=int)
    base = load_model(model_path).base
    human_idx = list(base.split.human_idx)
    for demo_id, demo in enumerate(load_csv(data_csv).demos):
        feat = build_features(demo)
        rows = body[body[:, 0] == demo_id]
        assert np.array_equal(rows[:, 2], viterbi_labels(base, feat))
        human = viterbi_labels(base, feat.frames[:, human_idx], human_idx)
        assert np.array_equal(rows[:, 3], human)


def test_predict_and_segment_write_the_reference_bytes(workdir, data_csv, trained):
    model_path, _ = trained
    model = load_model(model_path)
    ds = load_csv(data_csv)
    human_idx = list(model.base.split.human_idx)
    pred_rows, seg_rows = [], []
    for demo_id, demo in enumerate(ds.demos):
        feat = build_features(demo)
        pred = tsc.predict(model, feat.restrict(human_idx)).frames
        joint = viterbi_labels(model.base, feat)
        human = viterbi_labels(model.base, feat.frames[:, human_idx], human_idx)
        windowed = tsc.dilate_mask(joint != human, model.window)
        for t in range(len(feat)):
            pred_rows.append([demo_id, t]
                             + [repr(float(v)) for v in pred[t, :3]]
                             + [repr(float(v)) for v in demo.robot_pos[t]])
            seg_rows.append([demo_id, t, int(joint[t]), int(human[t]),
                             int(joint[t] != human[t]), int(windowed[t])])

    pred_path, seg_path = workdir / "bytes_pred.csv", workdir / "bytes_seg.csv"
    assert run_cli("predict", "--model", str(model_path), "--data", str(data_csv),
                   "--out", str(pred_path))[0] == 0
    assert run_cli("segment", "--model", str(model_path), "--data", str(data_csv),
                   "--out", str(seg_path))[0] == 0
    assert pred_path.read_bytes() == csv_bytes(
        ["demo_id", "t", "pred_x", "pred_y", "pred_z", "true_x", "true_y", "true_z"],
        pred_rows,
    )
    assert seg_path.read_bytes() == csv_bytes(
        ["demo_id", "t", "label_joint", "label_human", "mismatch", "windowed"], seg_rows
    )


def test_segment_single_state_model_never_mismatches(workdir, data_csv):
    ds = load_csv(data_csv)
    feats = [build_features(d) for d in ds.demos]
    flat = init_temporal_bins(feats, 1, 1e-2)
    model_path = workdir / "flat.json"
    save_model(flat, model_path)
    out_path = workdir / "seg1.csv"
    rc, _, _ = run_cli("segment", "--model", str(model_path),
                       "--data", str(data_csv), "--out", str(out_path))
    assert rc == 0
    body = np.array(read_rows(out_path)[1:], dtype=int)
    assert not body[:, 2:].any()


def test_eval_prints_table_and_writes_csv(workdir, data_csv):
    report_path = workdir / "report.csv"
    rc, out, _ = run_cli("eval", "--data", str(data_csv), "--seeds", "2",
                         "--batch", "4", "--states", "2", "--tsc-states", "2",
                         "--max-iter", "15", "--out", str(report_path))
    assert rc == 0
    assert "interaction" in out and "handshake" in out
    assert "+-" in out
    lines = report_path.read_text().strip().split("\n")
    assert lines[0] == REPORT_COLUMNS
    assert len(lines) == 3


def test_missing_data_file_exits_two(workdir):
    rc, _, err = run_cli("train", "--data", str(workdir / "absent.csv"),
                         "--out", str(workdir / "m.json"))
    assert rc == 2
    assert "error:" in err


def test_malformed_data_file_exits_two(workdir):
    bad = workdir / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    rc, _, err = run_cli("train", "--data", str(bad),
                         "--out", str(workdir / "m.json"))
    assert rc == 2
    assert "error:" in err


def test_predict_model_missing_a_key_exits_two(workdir, data_csv, trained):
    model_path, _ = trained
    doc = json.loads(model_path.read_text())
    del doc["model"]["base"]["split"]
    broken = workdir / "no_split.json"
    broken.write_text(json.dumps(doc))
    rc, _, err = run_cli("predict", "--model", str(broken),
                         "--data", str(data_csv), "--out", str(workdir / "nope.csv"))
    assert rc == 2
    assert "model.base is missing the required key 'split'" in err


def _edited_model(workdir, trained, name, edit):
    """A copy of the trained model file with `edit` applied to its JSON."""
    doc = json.loads(trained[0].read_text())
    edit(doc)
    path = workdir / name
    path.write_text(json.dumps(doc))
    return path


def test_predict_model_without_mode_writes_the_same_predictions(workdir, data_csv, trained):
    model_path, _ = trained
    assert json.loads(model_path.read_text())["model"]["mode"] == "gate"
    no_mode = _edited_model(workdir, trained, "no_mode.json",
                            lambda doc: doc["model"].pop("mode"))
    outs = [workdir / "with_mode.csv", workdir / "without_mode.csv"]
    for path, out in zip((model_path, no_mode), outs):
        assert run_cli("predict", "--model", str(path), "--data", str(data_csv),
                       "--out", str(out))[0] == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("blend.json", lambda doc: doc["model"].update(mode="blend"),
         "model.mode 'blend' is no longer supported"),
        ("not_pd.json",
         lambda doc: doc["model"]["base"]["emissions"][0].update(
             cov=np.zeros((12, 12)).tolist()),
         "model.base.emissions[0].cov is not positive definite"),
    ],
    ids=["blend-mode", "zero-cov"],
)
def test_predict_rejected_model_file_exits_two(workdir, data_csv, trained, name, edit,
                                               message):
    path = _edited_model(workdir, trained, name, edit)
    rc, _, err = run_cli("predict", "--model", str(path),
                         "--data", str(data_csv), "--out", str(workdir / "nope.csv"))
    assert rc == 2
    assert message in err


def _set_split(hmm_doc, human_idx, robot_idx):
    hmm_doc["split"] = {"human_idx": human_idx, "robot_idx": robot_idx}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m["base"]["emissions"][1]["cov"][0].__setitem__(1, 1.0),
         r"model\.base\.emissions\[1\]: cov must be symmetric to within 1e-12"),
        (lambda m: m.update(window=-1),
         r"model: window must be int >= 0, got -1"),
        (lambda m: _set_split(m["base"], [0, 1, 2, 3, 4, 99], list(range(6, 12))),
         r"model\.base\.split: human_idx and robot_idx must cover 0\.\.D-1"),
        (lambda m: m["base"]["priors"].__setitem__(0, m["base"]["priors"][0] + 0.5),
         r"model\.base: priors sum to 1\.[0-9]+, expected 1"),
        (lambda m: m["transition"]["emissions"][0]["mean"].__setitem__(2, float("nan")),
         r"model\.transition\.emissions\[0\]\.mean must be finite"),
        (lambda m: m["base"]["emissions"].pop(),
         r"model\.base: expected 3 emissions, got 2"),
        (lambda m: _set_split(m["transition"], list(range(7)), list(range(7, 12))),
         r"model: transition HMM split differs from the base split"),
    ],
    ids=["asymmetric-cov", "negative-window", "split-out-of-range", "priors-sum",
         "nan-mean", "missing-emission", "transition-split"],
)
def test_predict_model_rejected_by_its_type_names_the_file_and_key(
        workdir, data_csv, trained, edit, message):
    path = _edited_model(workdir, trained, "rejected.json", lambda doc: edit(doc["model"]))
    rc, _, err = run_cli("predict", "--model", str(path),
                         "--data", str(data_csv), "--out", str(workdir / "nope.csv"))
    assert rc == 2
    assert re.fullmatch(f"error: {re.escape(str(path))}: {message}\n", err), err


@pytest.mark.parametrize(
    "edit, key, kind",
    [
        (lambda m: m["base"]["priors"].__setitem__(0, str(m["base"]["priors"][0])),
         "model.base.priors", "a string"),
        (lambda m: m["base"]["emissions"][0]["mean"].__setitem__(0, True),
         "model.base.emissions[0].mean", "true or false"),
        (lambda m: m["transition"]["emissions"][1]["cov"][2].__setitem__(
            2, str(m["transition"]["emissions"][1]["cov"][2][2])),
         "model.transition.emissions[1].cov", "a string"),
    ],
    ids=["string", "bool", "nested-string"],
)
def test_predict_refuses_a_model_value_that_is_not_a_json_number(
        workdir, data_csv, trained, edit, key, kind):
    # numpy reads "0.5" as 0.5 and true as 1.0; the format stores numbers
    path = _edited_model(workdir, trained, "not_a_number.json", lambda doc: edit(doc["model"]))
    rc, _, err = run_cli("predict", "--model", str(path),
                         "--data", str(data_csv), "--out", str(workdir / "nope.csv"))
    assert rc == 2
    assert err == f"error: {path}: {key} must hold numbers, got {kind}\n"


@pytest.mark.parametrize("command", ["train", "eval"])
def test_mode_flag_is_an_unknown_argument(workdir, data_csv, command):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--data", str(data_csv), "--mode", "gate",
                "--out", str(workdir / "m.json"))
    assert exc.value.code == 2


def test_train_and_segment_on_demos_shorter_than_the_dilation_kernel(workdir, data_csv):
    # 4 frames per demo against the default window of 2 (a 5-frame kernel)
    short = Dataset(
        [Demonstration(d.human_pos[:4], d.robot_pos[:4]) for d in load_csv(data_csv).demos],
        name="short",
    )
    short_csv, model_path = workdir / "short.csv", workdir / "short.json"
    save_csv(short, short_csv)
    rc, _, err = run_cli("train", "--data", str(short_csv), "--out", str(model_path))
    assert rc == 0, err
    seg_path = workdir / "short_seg.csv"
    assert run_cli("segment", "--model", str(model_path), "--data", str(short_csv),
                   "--out", str(seg_path))[0] == 0
    body = np.array(read_rows(seg_path)[1:], dtype=int)
    assert len(body) == 4 * len(short.demos)
    for demo_id in range(len(short.demos)):
        rows = body[body[:, 0] == demo_id]
        assert np.array_equal(rows[:, 5], tsc.dilate_mask(rows[:, 4], 2))


def test_invalid_flag_value_exits_two(workdir, data_csv):
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--data", str(data_csv), "--tsc-states", "0",
                "--out", str(workdir / "m.json"))
    assert exc.value.code == 2


# every numeric flag: (command, flag, kind, least)
NUMERIC_FLAGS = [
    ("synth", "--n", "int", 1), ("synth", "--noise", "float", 0), ("synth", "--seed", "int", 0),
    *[(command, flag, kind, least) for command in ("train", "eval")
      for flag, kind, least in [("--states", "int", 1), ("--tsc-states", "int", 1),
                                ("--reg", "float", 0), ("--max-iter", "int", 1),
                                ("--tol", "float", 0), ("--window", "int", 0)]],
    ("segment", "--window", "int", 0),
    ("eval", "--batch", "int", 1), ("eval", "--seeds", "int", 1),
]

# refused texts by kind, each with its value as the rule's message shows
# it, or None where the text is no number of that kind
REFUSED_TEXTS = {"int": {"nan": None, "inf": None, "-1": "-1", "2.5": None, "x": None},
                 "float": {"nan": "nan", "inf": "inf", "-1": "-1.0", "x": None}}


@pytest.mark.parametrize("command, flag, kind, least", NUMERIC_FLAGS,
                         ids=[f"{command}{flag}" for command, flag, *_ in NUMERIC_FLAGS])
def test_numeric_flag_refuses_nan_inf_and_out_of_range_values(tmp_path, command, flag, kind,
                                                              least):
    required = {"synth": ["--kind", "handshake"], "train": ["--data", "d.csv"],
                "segment": ["--model", "m.json", "--data", "d.csv"],
                "eval": ["--data", "d.csv"]}[command]
    metavar = flag[2:].replace("-", "_").upper()
    out = tmp_path / "out.csv"
    for text, shown in REFUSED_TEXTS[kind].items():
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main([command, *required, flag, text, "--out", str(out)])
        message = (f"{metavar} must be {kind} >= {least}, got {shown}" if shown
                   else f"invalid {kind} value: {text!r}")
        assert exc.value.code == 2
        assert err.getvalue().startswith(f"usage: tschmm {command} "), err.getvalue()
        assert err.getvalue().endswith(
            f"tschmm {command}: error: argument {flag}: {message}\n"), err.getvalue()
        assert not out.exists()


def test_eval_names_the_data_file_when_the_batch_exceeds_it(workdir, data_csv):
    rc, _, err = run_cli("eval", "--data", str(data_csv), "--batch", "7", "--seeds", "1")
    assert rc == 2
    assert err == f"error: {data_csv}: requested batch of 7 from 6 demos\n"


def test_unwritable_output_exits_two(workdir):
    rc, _, err = run_cli("synth", "--kind", "handshake", "--n", "2",
                         "--out", str(workdir / "missing" / "deep.csv"))
    assert rc == 2
    assert "error:" in err


def test_degenerate_training_exits_three(workdir):
    frames = np.zeros((20, 3))
    ds = Dataset(
        [Demonstration(frames, frames, label="flat") for _ in range(3)],
        name="flat",
    )
    from tschmm.data import save_csv

    flat_csv = workdir / "flat.csv"
    save_csv(ds, flat_csv)
    rc, _, err = run_cli("train", "--data", str(flat_csv), "--states", "2",
                         "--reg", "0", "--out", str(workdir / "m.json"))
    assert rc == 3
    assert "training failed" in err


def test_synth_noise_that_overflows_exits_two_naming_noise_sigma(workdir):
    out = workdir / "noise308.csv"
    rc, _, err = run_cli("synth", "--kind", "handshake", "--n", "3", "--noise", "1e308",
                         "--out", str(out))
    assert rc == 2
    assert err.startswith("error: noise_sigma 1e+308 overflows the float range"), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_covariance_overflow_exits_two_naming_the_file(workdir, command):
    # finite coordinates whose squares overflow; a RuntimeWarning fails the test
    data = workdir / "noise200.csv"
    assert run_cli("synth", "--kind", "handshake", "--n", "3", "--noise", "1e200",
                   "--out", str(data))[0] == 0
    extra = {"train": ["--out", str(workdir / "m.json")],
             "eval": ["--batch", "2", "--seeds", "1"]}[command]
    rc, _, err = run_cli(command, "--data", str(data), *extra)
    assert rc == 2
    assert re.fullmatch(rf"error: {re.escape(str(data))}: the covariance of \d+ frames "
                        r"overflows the float range: coordinates reach \d\.\d\de\+200\n", err), err


def _raw_number(text: str, path, digits: str) -> str:
    """Model JSON text with the value at `path` under "model" written as
    the literal number `digits`."""
    doc = json.loads(text)
    node = doc["model"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "PLACEHOLDER"
    return json.dumps(doc).replace('"PLACEHOLDER"', digits)


def _oversize_field(text: str) -> bytes:
    lines = text.splitlines(keepends=True)
    lines[3] = lines[3].rsplit(",", 1)[0] + "," + "x" * 140_000 + "\n"
    return "".join(lines).encode()


def _one_sided_split(text: str, side: str) -> str:
    """Model JSON text whose HMMs put every dim on `side` of the split."""
    doc = json.loads(text)
    for key in ("base", "transition"):
        if doc["model"][key] is not None:
            split = doc["model"][key]["split"]
            dims = sorted(split["human_idx"] + split["robot_idx"])
            split.update(human_idx=[], robot_idx=[])
            split[side] = dims
    return json.dumps(doc)


def _bad_byte_on_line_6(text: str) -> bytes:
    lines = text.encode().splitlines(keepends=True)
    lines[5] = b"\xff" + lines[5]
    return b"".join(lines)


def _overflowing_positions(text: str) -> str:
    """Dataset CSV text whose first demo's hx is 1.7e308 at t=1 and -1.7e308
    at t=2: both finite, their difference not."""
    lines = text.splitlines(keepends=True)
    for k, value in ((2, "1.7e308"), (3, "-1.7e308")):
        fields = lines[k].split(",")
        fields[2] = value
        lines[k] = ",".join(fields)
    return "".join(lines)


@pytest.mark.parametrize(
    "command, kind, mangle, message",
    [
        ("train", "data", _oversize_field,
         r"line 4: field larger than field limit \(131072\)"),
        ("train", "data", _bad_byte_on_line_6,
         r"line 6: 'utf-8' codec can't decode byte 0xff .*"),
        ("predict", "model", lambda text: _raw_number(text, ("base", "priors", 0), "9" * 400),
         r"model\.base\.priors must hold numbers, or lists of numbers of equal length"),
        ("predict", "model",
         lambda text: _raw_number(text, ("transition", "emissions", 1, "mean", 4), "7" * 400),
         r"model\.transition\.emissions\[1\]\.mean must hold numbers, "
         r"or lists of numbers of equal length"),
        ("predict", "model", lambda text: text[:400],
         r"Expecting .*: line \d+ column \d+ \(char \d+\)"),
        ("segment", "model", lambda text: b"\xff" + text.encode(),
         r"'utf-8' codec can't decode byte 0xff in position 0: .*"),
        ("predict", "model", lambda text: "[" * 100_000,
         r"maximum recursion depth exceeded.*"),
        *[(command, "model", lambda text, side=side: _one_sided_split(text, side),
           r"model split must include human and robot dimensions")
          for command in ("predict", "segment") for side in ("robot_idx", "human_idx")],
        # the overflow must raise, not warn: a RuntimeWarning fails the test
        *[(command, "data", _overflowing_positions,
           r"position difference at frame 2 overflows")
          for command in ("train", "predict", "segment", "eval")],
    ],
    ids=["oversize-csv-field", "csv-not-utf8", "huge-int-prior", "huge-int-mean",
         "truncated-model", "model-not-utf8", "deeply-nested-model",
         "predict-no-human-dims", "predict-no-robot-dims",
         "segment-no-human-dims", "segment-no-robot-dims",
         "train-overflowing-positions", "predict-overflowing-positions",
         "segment-overflowing-positions", "eval-overflowing-positions"],
)
def test_malformed_file_exits_two_naming_the_file(workdir, data_csv, trained, command,
                                                   kind, mangle, message):
    source = data_csv if kind == "data" else trained[0]
    bad = workdir / f"mangled{source.suffix}"
    text = mangle(source.read_text(encoding="utf-8"))
    if isinstance(text, str):
        text = text.encode()
    bad.write_bytes(text)
    paths = {"data": data_csv, "model": trained[0], kind: bad}
    argv = {"train": ["--data", paths["data"]],
            "predict": ["--model", paths["model"], "--data", paths["data"]],
            "segment": ["--model", paths["model"], "--data", paths["data"]],
            "eval": ["--data", paths["data"], "--batch", "2", "--seeds", "1"]}[command]
    rc, _, err = run_cli(command, *map(str, argv), "--out", str(workdir / "nope.out"))
    assert rc == 2, err
    assert re.fullmatch(f"error: {re.escape(str(bad))}: {message}\n", err), err


def _far_out_positions(text: str, even: str = "1e160", odd: str = "3e160") -> str:
    """Dataset CSV text whose hx alternates between `even` and `odd`, by
    default 1e160 and 3e160: finite, with finite differences, but too far
    from every state to score."""
    lines = text.splitlines(keepends=True)
    for k in range(1, len(lines)):
        fields = lines[k].split(",")
        fields[2] = even if int(fields[1]) % 2 == 0 else odd
        lines[k] = ",".join(fields)
    return "".join(lines)


def _assert_exit_three_naming(bad, argv, out):
    """`argv` exits 3 naming the data file `bad` as no state can score its
    first frame, writes nothing to `out`, and warns of nothing: in process,
    where a RuntimeWarning fails the test, and with every warning an error."""
    want = (f"training failed: {bad}: all states have zero emission likelihood "
            "at frame 0 of sequence 0\n")
    rc, _, err = run_cli(*argv)
    assert (rc, err) == (3, want)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "tschmm", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (3, want)
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "segment"])
def test_far_out_frames_exit_three_naming_the_file(workdir, data_csv, trained, command):
    bad = workdir / "far.csv"
    bad.write_text(_far_out_positions(data_csv.read_text(encoding="utf-8")), encoding="utf-8")
    out = workdir / "far.out"
    _assert_exit_three_naming(bad, [command, "--model", str(trained[0]), "--data", str(bad),
                                    "--out", str(out)], out)


def _means_at(value: float):
    """A model edit setting dimension 0 of every state's mean to `value`."""
    def edit(doc):
        for hmm_doc in (doc["model"]["base"], doc["model"]["transition"]):
            for e in hmm_doc["emissions"]:
                e["mean"][0] = value
    return edit


@pytest.mark.parametrize("command", ["predict", "segment"])
def test_overflowing_residuals_exit_three_naming_the_file(workdir, data_csv, trained, command):
    # hx = 1e308 on every frame against state means at -1e308: each
    # residual overflows to inf, though every position difference is 0
    model = _edited_model(workdir, trained, "minus_max.json", _means_at(-1e308))
    bad = workdir / "plus_max.csv"
    bad.write_text(_far_out_positions(data_csv.read_text(encoding="utf-8"), "1e308", "1e308"),
                   encoding="utf-8")
    out = workdir / "plus_max.out"
    _assert_exit_three_naming(bad, [command, "--model", str(model), "--data", str(bad),
                                    "--out", str(out)], out)


def test_segment_window_beyond_every_demo_marks_whole_demos(workdir, data_csv, trained):
    path = _edited_model(workdir, trained, "wide.json",
                         lambda doc: doc["model"].update(window=10**30))
    out_path = workdir / "wide_seg.csv"
    rc, _, err = run_cli("segment", "--model", str(path), "--data", str(data_csv),
                         "--out", str(out_path))
    assert rc == 0, err
    body = np.array(read_rows(out_path)[1:], dtype=int)
    for demo_id in np.unique(body[:, 0]):
        rows = body[body[:, 0] == demo_id]
        assert np.all(rows[:, 5] == int(rows[:, 4].any()))
    assert body[:, 5].any()


def test_segment_window_flag_applies_to_hmm_files_only(workdir, data_csv, trained):
    model_path, _ = trained
    base_path = workdir / "base_only.json"
    save_model(load_model(model_path).base, base_path)
    outs = {}
    for name, path, window in [("tsc", model_path, None), ("tsc7", model_path, "7"),
                               ("hmm3", base_path, "3")]:
        outs[name] = workdir / f"seg_{name}.csv"
        flags = [] if window is None else ["--window", window]
        assert run_cli("segment", "--model", str(path), "--data", str(data_csv),
                       "--out", str(outs[name]), *flags)[0] == 0
    # a tsc file carries its window, so the flag changes nothing
    assert outs["tsc"].read_bytes() == outs["tsc7"].read_bytes()
    body = np.array(read_rows(outs["hmm3"])[1:], dtype=int)
    for demo_id in np.unique(body[:, 0]):
        rows = body[body[:, 0] == demo_id]
        assert np.array_equal(rows[:, 5], tsc.dilate_mask(rows[:, 4], 3))
