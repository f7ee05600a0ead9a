"""Tests for trajectory ingestion, features, batching, and the generator."""

import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import _oracles
from tschmm import data, tsc
from tschmm.data import (
    CSV_COLUMNS,
    Dataset,
    Demonstration,
    DimensionSplit,
    FeatureSequence,
    SYNTH_KINDS,
    build_features,
    load_csv,
    sample_batch,
    save_csv,
    standard_split,
    synth_generate,
)
from tschmm.evaluation import ExperimentConfig, mse, run_experiment, run_single
from tschmm.gaussian import log_density, marginalize
from tschmm.hmm import baum_welch, init_temporal_bins


def _tiny_demo():
    human = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.3, 0.0, 0.0]])
    robot = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    return Demonstration(human_pos=human, robot_pos=robot, label="tiny")


# --- DimensionSplit ----------------------------------------------------------

def test_position_dims_are_the_first_half_of_the_robot_dims():
    assert data._position_dims(standard_split().robot_idx) == [6, 7, 8]
    assert data._position_dims((0, 1, 2, 3, 4)) == [0, 1]
    assert data._position_dims((4,)) == [4]


def test_split_validates_partition():
    with pytest.raises(ValueError, match="strictly increasing"):
        DimensionSplit((1, 0), (2,))
    with pytest.raises(ValueError, match="disjoint"):
        DimensionSplit((0, 1), (1, 2))
    with pytest.raises(ValueError, match="cover"):
        DimensionSplit((0,), (2,))


def test_standard_split_layout():
    split = standard_split()
    assert split.human_idx == (0, 1, 2, 3, 4, 5)
    assert split.robot_idx == (6, 7, 8, 9, 10, 11)
    assert split.dim == 12


def test_split_restrict_remaps_positions():
    split = standard_split()
    sub = split.restrict([4, 5, 6, 7])
    assert sub.human_idx == (0, 1)
    assert sub.robot_idx == (2, 3)
    robot_only = split.restrict(list(split.robot_idx))
    assert robot_only.human_idx == ()
    assert robot_only.robot_idx == (0, 1, 2, 3, 4, 5)


# --- Demonstration and FeatureSequence --------------------------------------

def test_demonstration_validates_shape_and_length():
    ok = np.zeros((2, 3))
    with pytest.raises(ValueError, match=r"\(T, 3\)"):
        Demonstration(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="share shape"):
        Demonstration(ok, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="at least 2"):
        Demonstration(np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.raises(ValueError, match="finite"):
        Demonstration(np.full((2, 3), np.nan), ok)


def test_feature_sequence_accessors_and_restrict():
    frames = np.arange(24.0).reshape(2, 12)
    feat = FeatureSequence(frames, standard_split())
    sub = feat.restrict([0, 6])
    assert sub.split.human_idx == (0,)
    assert sub.split.robot_idx == (1,)
    assert np.array_equal(sub.frames, frames[:, [0, 6]])


@pytest.mark.parametrize("dims, message", [
    ([99], "contains out-of-range entries for dimension 12"),
    ([-1], "contains out-of-range entries for dimension 12"),
    ([], "must be a non-empty index list"),
    (None, "must be a sequence of integers, got NoneType"),
    ([0.5], "must hold integers"),
    ([6, 0], "must be strictly increasing"),
])
def test_restrict_reads_dims_by_the_index_rule(dims, message):
    # an out-of-range dim used to give an empty split or numpy's IndexError
    feat = FeatureSequence(np.zeros((2, 12)), standard_split())
    for restrict in (feat.split.restrict, feat.restrict):
        with pytest.raises(ValueError, match=f"^dims {re.escape(message)}$"):
            restrict(dims)


def test_feature_sequence_rejects_width_mismatch():
    with pytest.raises(ValueError, match="width"):
        FeatureSequence(np.zeros((2, 5)), standard_split())


# --- build_features ----------------------------------------------------------

def test_build_features_layout_and_differences():
    feat = build_features(_tiny_demo())
    assert feat.frames.shape == (3, 12)
    assert feat.split == standard_split()
    # human x: positions [0, .1, .3] so differences are [0, .1, .2]
    assert np.allclose(feat.frames[:, 0], [0.0, 0.1, 0.3])
    assert np.allclose(feat.frames[:, 3], [0.0, 0.1, 0.2])
    # constant robot positions give all-zero differences
    assert np.array_equal(feat.frames[:, 9:12], np.zeros((3, 3)))


def test_build_features_first_difference_is_zero():
    rng = np.random.default_rng(0)
    demo = Demonstration(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
    feat = build_features(demo)
    assert np.array_equal(feat.frames[0, 3:6], np.zeros(3))
    assert np.array_equal(feat.frames[0, 9:12], np.zeros(3))
    assert np.allclose(feat.frames[1:, 3:6], np.diff(demo.human_pos, axis=0))


# --- CSV round trip ----------------------------------------------------------

def test_csv_round_trip_is_exact(tmp_path):
    ds, _ = synth_generate("handshake", n_demos=3, noise_sigma=0.01, seed=5)
    path = tmp_path / "ds.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert back.name == "ds"
    assert len(back.demos) == 3
    for a, b in zip(ds.demos, back.demos):
        assert np.array_equal(a.human_pos, b.human_pos)
        assert np.array_equal(a.robot_pos, b.robot_pos)
        assert b.label == "handshake"


def test_save_twice_is_byte_identical(tmp_path):
    ds, _ = synth_generate("rocket_fistbump", n_demos=2, noise_sigma=0.005, seed=1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(ds, p1)
    save_csv(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


# labels csv.writer quotes, or writes as they are
ODD_LABELS = ["", "a,b", 'say "hi"', "two\nlines", "Zürich ✓", " lead", "trail ", "plain"]


def test_save_csv_writes_the_reference_bytes_and_reads_back(tmp_path):
    ds, _ = synth_generate("parachute_fistbump", n_demos=len(ODD_LABELS), noise_sigma=0.01,
                           seed=2)
    demos = [(d.human_pos[: 3 + i], d.robot_pos[: 3 + i], label)
             for i, (d, label) in enumerate(zip(ds.demos, ODD_LABELS))]
    path = tmp_path / "labels.csv"
    save_csv(Dataset(tuple(Demonstration(*d) for d in demos)), path)
    assert path.read_bytes() == _oracles.csv_bytes(CSV_COLUMNS, _oracles.dataset_rows(demos))
    back = load_csv(path)
    assert [d.label for d in back.demos] == ODD_LABELS
    for (human, robot, _), got, want in zip(demos, back.demos, _oracles.load_csv_rows(path)):
        assert got.human_pos.tobytes() == human.tobytes() == want[0].tobytes()
        assert got.robot_pos.tobytes() == robot.tobytes() == want[1].tobytes()
    # csv.writer leaves a lone carriage return unquoted, so this label is
    # written as it writes it, but does not read back
    demos = [(demos[0][0], demos[0][1], "carriage\rreturn")]
    save_csv(Dataset((Demonstration(*demos[0]),)), path)
    assert path.read_bytes() == _oracles.csv_bytes(CSV_COLUMNS, _oracles.dataset_rows(demos))


def _write_rows(path, rows, header=None):
    lines = [",".join(header or CSV_COLUMNS)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    _write_rows(path, [], header=["demo", "t", "hx", "hy", "hz", "rx", "ry", "rz", "label"])
    with pytest.raises(ValueError, match="header"):
        load_csv(path)


def test_load_csv_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    row = [0, 0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, "x"]
    _write_rows(path, [row, [0, 2, *row[2:]]])
    with pytest.raises(ValueError, match="line 3.*expected t=1"):
        load_csv(path)


def test_load_csv_rejects_unsorted_rows(tmp_path):
    path = tmp_path / "bad.csv"
    r = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, "x"]
    _write_rows(path, [[1, 0, *r], [1, 1, *r], [0, 0, *r]])
    with pytest.raises(ValueError, match="line 4.*sorted"):
        load_csv(path)


def test_load_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "bad.csv"
    _write_rows(path, [[0, 0, "nan", 0.0, 0.0, 1.0, 1.0, 1.0, "x"]])
    with pytest.raises(ValueError, match="line 2.*non-finite"):
        load_csv(path)


def test_load_csv_rejects_single_frame_demo(tmp_path):
    path = tmp_path / "bad.csv"
    r = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, "x"]
    _write_rows(path, [[0, 0, *r], [0, 1, *r], [1, 0, *r]])
    with pytest.raises(ValueError, match="demo 1.*fewer than 2"):
        load_csv(path)


def test_load_csv_reports_the_earliest_of_two_faults(tmp_path):
    # an unsorted row on line 4 precedes a non-numeric field on line 5
    path = tmp_path / "bad.csv"
    r = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, "x"]
    _write_rows(path, [[0, 0, *r], [0, 1, *r], [0, 0, *r], [0, 3, "oops", *r[1:]]])
    with pytest.raises(ValueError, match=r"bad\.csv: line 4: rows not sorted"):
        load_csv(path)


def test_load_csv_numbers_physical_lines_after_a_multiline_field(tmp_path):
    # the first record's quoted label spans lines 2-3, so the t=3 fault is on line 5
    path = tmp_path / "bad.csv"
    r = ["0.0"] * 6
    rows = [f"0,0,{','.join(r)},\"a\nb\"", f"0,1,{','.join(r)},x", f"0,3,{','.join(r)},x"]
    path.write_text(",".join(CSV_COLUMNS) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.csv: line 5: demo 0 expected t=2, got t=3"):
        load_csv(path)


def test_load_csv_rejects_empty_and_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        load_csv(path)
    path.write_text(",".join(CSV_COLUMNS) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(path)


# --- sample_batch ------------------------------------------------------------

def test_sample_batch_partitions_deterministically():
    ds, _ = synth_generate("handshake", n_demos=10, noise_sigma=0.0, seed=0)
    train1, test1 = sample_batch(ds, 6, seed=3)
    train2, test2 = sample_batch(ds, 6, seed=3)
    assert len(train1) == 6 and len(test1) == 4
    assert [id(d) for d in train1.demos] == [id(d) for d in train2.demos]
    assert [id(d) for d in test1.demos] == [id(d) for d in test2.demos]
    picked = {id(d) for d in train1.demos} | {id(d) for d in test1.demos}
    assert picked == {id(d) for d in ds.demos}


def test_sample_batch_different_seeds_differ():
    ds, _ = synth_generate("handshake", n_demos=10, noise_sigma=0.0, seed=0)
    train1, _ = sample_batch(ds, 5, seed=0)
    train2, _ = sample_batch(ds, 5, seed=1)
    assert {id(d) for d in train1.demos} != {id(d) for d in train2.demos}


def test_sample_batch_rejects_oversized_batch():
    ds, _ = synth_generate("handshake", n_demos=3, noise_sigma=0.0, seed=0)
    with pytest.raises(ValueError, match="batch of 4"):
        sample_batch(ds, 4, seed=0)


@pytest.mark.parametrize("n", [0, -1])
def test_sample_batch_rejects_an_empty_or_negative_batch(n):
    ds, _ = synth_generate("handshake", n_demos=5, noise_sigma=0.0, seed=0)
    with pytest.raises(ValueError, match=f"^n must be int >= 1, got {n}$"):
        sample_batch(ds, n, seed=0)


# --- synthetic generator -----------------------------------------------------

def test_synth_generate_is_bit_reproducible():
    for kind in SYNTH_KINDS:
        a, ba = synth_generate(kind, n_demos=4, noise_sigma=0.01, seed=9)
        b, bb = synth_generate(kind, n_demos=4, noise_sigma=0.01, seed=9)
        assert ba == bb
        for da, db in zip(a.demos, b.demos):
            assert np.array_equal(da.human_pos, db.human_pos)
            assert np.array_equal(da.robot_pos, db.robot_pos)


def test_synth_generate_validates_arguments():
    with pytest.raises(ValueError, match="unknown interaction kind"):
        synth_generate("wave", 1, 0.0, 0)
    with pytest.raises(ValueError, match="n_demos"):
        synth_generate("handshake", 0, 0.0, 0)
    with pytest.raises(ValueError, match="noise_sigma"):
        synth_generate("handshake", 1, -0.1, 0)


def test_synth_noise_that_overflows_the_positions_names_noise_sigma():
    # a RuntimeWarning fails the test, so the overflow must raise only
    with pytest.raises(ValueError, match=r"^noise_sigma 1e\+308 overflows the float range"):
        synth_generate("handshake", 2, 1e308, 0)
    # large but representable noise still generates
    ds, _ = synth_generate("handshake", 2, 1e300, 0)
    assert np.isfinite(ds.demos[0].human_pos).all()


def test_synth_boundaries_partition_each_demo():
    expected_phases = {"handshake": 3, "rocket_fistbump": 4, "parachute_fistbump": 4}
    for kind in SYNTH_KINDS:
        ds, bounds = synth_generate(kind, n_demos=6, noise_sigma=0.0, seed=2)
        for demo, bb in zip(ds.demos, bounds):
            assert len(bb) == expected_phases[kind] - 1
            assert bb == sorted(bb)
            assert all(0 < b < len(demo) for b in bb)


def test_synth_partners_meet_at_contact_midpoint():
    for kind in SYNTH_KINDS:
        ds, bounds = synth_generate(kind, n_demos=5, noise_sigma=0.0, seed=4)
        for demo, bb in zip(ds.demos, bounds):
            mid = (bb[0] + bb[1]) // 2
            gap = np.linalg.norm(demo.human_pos[mid] - demo.robot_pos[mid])
            assert gap < 0.05, f"{kind}: partners {gap:.3f} m apart at contact"


def test_rocket_robot_rises_strictly_through_raise_phase():
    ds, bounds = synth_generate("rocket_fistbump", n_demos=5, noise_sigma=0.0, seed=6)
    for demo, bb in zip(ds.demos, bounds):
        rz = demo.robot_pos[bb[1] : bb[2], 2]
        assert np.all(np.diff(rz) > 0)


def test_synth_robot_mirrors_lagged_human_when_noiseless():
    ds, _ = synth_generate("parachute_fistbump", n_demos=3, noise_sigma=0.0, seed=8)
    flip = np.array([1.0, -1.0, 1.0])
    for demo in ds.demos:
        assert np.allclose(demo.robot_pos[2:], demo.human_pos[:-2] * flip)
        assert np.allclose(demo.robot_pos[0], demo.human_pos[0] * flip)
        assert np.allclose(demo.robot_pos[1], demo.human_pos[0] * flip)


def test_synth_noise_perturbs_trajectories():
    clean, _ = synth_generate("handshake", n_demos=2, noise_sigma=0.0, seed=11)
    noisy, _ = synth_generate("handshake", n_demos=2, noise_sigma=0.01, seed=11)
    assert not np.allclose(clean.demos[0].human_pos, noisy.demos[0].human_pos)


# --- the rule for counts and tolerances --------------------------------------

@pytest.fixture(scope="module")
def small():
    """A 3-demo dataset, its features and a 2-state HMM initialized on them."""
    ds, _ = synth_generate("handshake", n_demos=3, noise_sigma=0.005, seed=0)
    feats = [build_features(d) for d in ds.demos]
    return SimpleNamespace(ds=ds, feats=feats, base=init_temporal_bins(feats, 2, 1e-2))


# (entry point, argument as messages name it, kind, least, call with the value)
RULED_ARGS = [
    *[("ExperimentConfig", name, kind, least,
       lambda s, v, name=name: ExperimentConfig(**{name: v}))
      for name, kind, least in [("base_states", "int", 1), ("tsc_states", "int", 1),
                                ("reg_eps", "float", 0), ("max_iter", "int", 1),
                                ("tol", "float", 0), ("batch_size", "int", 1),
                                ("n_seeds", "int", 1), ("window", "int", 0)]],
    ("baum_welch", "max_iter", "int", 1, lambda s, v: baum_welch(s.base, s.feats, max_iter=v)),
    ("baum_welch", "tol", "float", 0, lambda s, v: baum_welch(s.base, s.feats, tol=v)),
    ("baum_welch", "eps", "float", 0, lambda s, v: baum_welch(s.base, s.feats, eps=v)),
    ("init_temporal_bins", "num_states", "int", 1,
     lambda s, v: init_temporal_bins(s.feats, v, 0.1)),
    ("init_temporal_bins", "eps", "float", 0, lambda s, v: init_temporal_bins(s.feats, 2, v)),
    ("tsc.fit", "num_states", "int", 1, lambda s, v: tsc.fit(s.base, s.feats, num_states=v)),
    ("tsc.fit", "window", "int", 0, lambda s, v: tsc.fit(s.base, s.feats, w=v)),
    ("tsc.fit", "eps", "float", 0, lambda s, v: tsc.fit(s.base, s.feats, eps=v)),
    ("tsc.fit", "max_iter", "int", 1, lambda s, v: tsc.fit(s.base, s.feats, max_iter=v)),
    ("tsc.fit", "tol", "float", 0, lambda s, v: tsc.fit(s.base, s.feats, tol=v)),
    ("TscModel", "window", "int", 0, lambda s, v: tsc.TscModel(s.base, None, v)),
    ("dilate_mask", "window", "int", 0, lambda s, v: tsc.dilate_mask([True, False], v)),
    ("synth_generate", "n_demos", "int", 1, lambda s, v: synth_generate("handshake", v, 0.0, 0)),
    ("synth_generate", "noise_sigma", "float", 0,
     lambda s, v: synth_generate("handshake", 1, v, 0)),
    ("synth_generate", "seed", "int", 0, lambda s, v: synth_generate("handshake", 1, 0.0, v)),
    ("sample_batch", "n", "int", 1, lambda s, v: sample_batch(s.ds, v, 0)),
    ("sample_batch", "seed", "int", 0, lambda s, v: sample_batch(s.ds, 1, v)),
]


@pytest.mark.parametrize("entry, name, kind, least, call", RULED_ARGS,
                         ids=[f"{entry}-{name}" for entry, name, *_ in RULED_ARGS])
def test_every_count_and_tolerance_is_checked_by_one_rule(small, entry, name, kind, least,
                                                          call):
    for value in (True, *([2.5] if kind == "int" else []), "x", math.nan, math.inf, least - 1):
        message = f"^{name} must be {kind} >= {least}, got {re.escape(repr(value))}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                call(small, value)


FLOAT_ARGS = [args for args in RULED_ARGS if args[2] == "float"]


@pytest.mark.parametrize("entry, name, kind, least, call", FLOAT_ARGS,
                         ids=[f"{entry}-{name}" for entry, name, *_ in FLOAT_ARGS])
def test_a_float_argument_must_fit_the_float_range(small, entry, name, kind, least, call):
    # an int past the float range compares below inf, so it used to pass
    # the rule and fail later with OverflowError
    with pytest.raises(ValueError, match=f"^{name} must be float >= {least}, got 1000"):
        call(small, 10**400)


# (entry point, argument as messages name it, call with the value)
TYPED_ARGS = [
    ("baum_welch", "model", lambda s, v: baum_welch(v, s.feats)),
    ("baum_welch", "demos", lambda s, v: baum_welch(s.base, v)),
    ("init_temporal_bins", "demos", lambda s, v: init_temporal_bins(v, 2, 0.1)),
    ("tsc.fit", "base", lambda s, v: tsc.fit(v, s.feats)),
    ("tsc.fit", "demos", lambda s, v: tsc.fit(s.base, v)),
    ("detect_transition_states", "base", lambda s, v: tsc.detect_transition_states(v, s.feats, 1)),
    ("detect_transition_states", "demos", lambda s, v: tsc.detect_transition_states(s.base, v, 1)),
    ("FeatureSequence", "split", lambda s, v: FeatureSequence(s.feats[0].frames, v)),
    ("build_features", "demo", lambda s, v: build_features(v)),
    ("sample_batch", "ds", lambda s, v: sample_batch(v, 1, 0)),
    ("Dataset", "demos", lambda s, v: Dataset(v)),
    ("mse", "pred", lambda s, v: mse(v, s.feats[0])),
    ("mse", "truth", lambda s, v: mse(s.feats[0], v)),
    ("run_single", "cfg", lambda s, v: run_single(s.ds, v, 0)),
    ("run_experiment", "cfg", lambda s, v: run_experiment(s.ds, v)),
    ("log_density", "g", lambda s, v: log_density(np.zeros(2), v)),
    ("marginalize", "g", lambda s, v: marginalize(v, [0])),
]


@pytest.mark.parametrize("entry, name, call", TYPED_ARGS,
                         ids=[f"{entry}-{name}" for entry, name, _ in TYPED_ARGS])
def test_an_argument_of_the_wrong_type_is_named(small, entry, name, call):
    # each of these raised AttributeError or TypeError, or named no argument
    for value in (None, "x", 3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must be "):
                call(small, value)
