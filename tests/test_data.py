"""Tests for trajectory ingestion, features, batching, and the generator."""

import numpy as np
import pytest

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


def _tiny_demo():
    human = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.3, 0.0, 0.0]])
    robot = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    return Demonstration(human_pos=human, robot_pos=robot, label="tiny")


# --- DimensionSplit ----------------------------------------------------------

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
    with pytest.raises(ValueError, match="rate_hz"):
        Demonstration(ok, ok, rate_hz=0.0)


def test_feature_sequence_accessors_and_restrict():
    frames = np.arange(24.0).reshape(2, 12)
    feat = FeatureSequence(frames, standard_split())
    assert np.array_equal(feat.human, frames[:, :6])
    assert np.array_equal(feat.robot, frames[:, 6:])
    sub = feat.restrict([0, 6])
    assert sub.split.human_idx == (0,)
    assert sub.split.robot_idx == (1,)
    assert np.array_equal(sub.frames, frames[:, [0, 6]])


def test_feature_sequence_rejects_width_mismatch():
    with pytest.raises(ValueError, match="width"):
        FeatureSequence(np.zeros((2, 5)), standard_split())


def test_dataset_rejects_mixed_rates():
    a = Demonstration(np.zeros((2, 3)), np.zeros((2, 3)), rate_hz=40.0)
    b = Demonstration(np.zeros((2, 3)), np.zeros((2, 3)), rate_hz=30.0)
    with pytest.raises(ValueError, match="rates"):
        Dataset((a, b))


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
    with pytest.raises(ValueError, match=f"batch size must be at least 1, got {n}"):
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
