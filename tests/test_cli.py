"""End-to-end tests for the command-line interface.

Commands run in-process through main(argv), with stdout captured by
redirection so the tests do not depend on pytest's capture mode.
"""

import contextlib
import csv
import io
import json
import re

import numpy as np
import pytest

from tschmm import tsc
from tschmm.cli import main
from tschmm.data import Dataset, Demonstration, build_features, load_csv, save_csv
from tschmm.evaluation import REPORT_COLUMNS, mse
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
    rc, _, err = run_cli("predict", "--model", str(model_path),
                         "--data", str(data_csv),
                         "--out", str(workdir / "nope.csv"))
    assert rc == 4
    assert "model expects 2 dims but the data has 12" in err


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


def _reference_csv(header, rows) -> bytes:
    """The writer's bytes for rows of per-element values."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


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
    assert pred_path.read_bytes() == _reference_csv(
        ["demo_id", "t", "pred_x", "pred_y", "pred_z", "true_x", "true_y", "true_z"],
        pred_rows,
    )
    assert seg_path.read_bytes() == _reference_csv(
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
         r"model: window must be non-negative"),
        (lambda m: _set_split(m["base"], [0, 1, 2, 3, 4, 99], list(range(6, 12))),
         r"model\.base\.split: human_idx and robot_idx must cover 0\.\.D-1"),
        (lambda m: m["base"]["priors"].__setitem__(0, m["base"]["priors"][0] + 0.5),
         r"model\.base: priors sum to 1\.[0-9]+, expected 1"),
        (lambda m: m["transition"]["emissions"][0]["mean"].__setitem__(2, float("nan")),
         r"model\.transition\.emissions\[0\]: mean and cov must be finite"),
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
