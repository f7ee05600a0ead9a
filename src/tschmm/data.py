"""Trajectory data: ingestion, feature construction, and synthetic interactions.

A demonstration pairs a human and a robot end-effector trajectory in 3D
Cartesian space (meters). Features concatenate positions with per-frame
position differences (a velocity proxy), giving the 12-dimensional layout

    [human pos(3), human dpos(3), robot pos(3), robot dpos(3)]

The synthetic generator produces phase-structured paired interactions
(handshake and two fistbump styles) with ground-truth phase boundaries,
standing in for motion-capture recordings.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "DimensionSplit",
    "Demonstration",
    "FeatureSequence",
    "Dataset",
    "standard_split",
    "load_csv",
    "save_csv",
    "build_features",
    "sample_batch",
    "synth_generate",
    "SYNTH_KINDS",
]

CSV_COLUMNS = ["demo_id", "t", "hx", "hy", "hz", "rx", "ry", "rz", "label"]


@dataclass(frozen=True)
class DimensionSplit:
    """Partition of feature dimensions into human-observed and robot-predicted."""

    human_idx: tuple[int, ...]
    robot_idx: tuple[int, ...]

    def __post_init__(self):
        human = tuple(int(i) for i in self.human_idx)
        robot = tuple(int(i) for i in self.robot_idx)
        for name, idx in (("human_idx", human), ("robot_idx", robot)):
            if any(b <= a for a, b in zip(idx, idx[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        if set(human) & set(robot):
            raise ValueError("human_idx and robot_idx must be disjoint")
        dim = len(human) + len(robot)
        if set(human) | set(robot) != set(range(dim)):
            raise ValueError("human_idx and robot_idx must cover 0..D-1")
        object.__setattr__(self, "human_idx", human)
        object.__setattr__(self, "robot_idx", robot)

    @property
    def dim(self) -> int:
        return len(self.human_idx) + len(self.robot_idx)

    def restrict(self, dims: Sequence[int]) -> "DimensionSplit":
        """Split over the subspace selected by `dims`, with remapped positions."""
        dims = [int(d) for d in dims]
        human = tuple(p for p, d in enumerate(dims) if d in set(self.human_idx))
        robot = tuple(p for p, d in enumerate(dims) if d in set(self.robot_idx))
        return DimensionSplit(human, robot)


def standard_split() -> DimensionSplit:
    """The 12-dimensional layout: human dims 0-5, robot dims 6-11."""
    return DimensionSplit(tuple(range(6)), tuple(range(6, 12)))


@dataclass(frozen=True)
class Demonstration:
    """One paired human-robot trajectory, positions in meters."""

    human_pos: np.ndarray
    robot_pos: np.ndarray
    rate_hz: float = 40.0
    label: str = ""

    def __post_init__(self):
        human = np.array(self.human_pos, dtype=float)
        robot = np.array(self.robot_pos, dtype=float)
        if human.ndim != 2 or human.shape[1] != 3:
            raise ValueError("human_pos must have shape (T, 3)")
        if robot.shape != human.shape:
            raise ValueError("human_pos and robot_pos must share shape (T, 3)")
        if human.shape[0] < 2:
            raise ValueError("a demonstration needs at least 2 frames")
        if not (np.all(np.isfinite(human)) and np.all(np.isfinite(robot))):
            raise ValueError("positions must be finite")
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        human.setflags(write=False)
        robot.setflags(write=False)
        object.__setattr__(self, "human_pos", human)
        object.__setattr__(self, "robot_pos", robot)

    def __len__(self) -> int:
        return self.human_pos.shape[0]


@dataclass(frozen=True)
class FeatureSequence:
    """A (T, D) frame matrix plus the human/robot dimension split."""

    frames: np.ndarray
    split: DimensionSplit

    def __post_init__(self):
        frames = np.array(self.frames, dtype=float)
        if frames.ndim != 2:
            raise ValueError("frames must be a (T, D) matrix")
        if frames.shape[1] != self.split.dim:
            raise ValueError(
                f"frames have width {frames.shape[1]} but split covers {self.split.dim}"
            )
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def width(self) -> int:
        return self.frames.shape[1]

    @property
    def human(self) -> np.ndarray:
        return self.frames[:, list(self.split.human_idx)]

    @property
    def robot(self) -> np.ndarray:
        return self.frames[:, list(self.split.robot_idx)]

    def restrict(self, dims: Sequence[int]) -> "FeatureSequence":
        """Sub-sequence over the selected dimensions, split remapped."""
        dims = list(dims)
        return FeatureSequence(self.frames[:, dims], self.split.restrict(dims))


@dataclass(frozen=True)
class Dataset:
    """A named collection of demonstrations with a consistent frame rate.

    May be empty only as the leftover side of a train/test split.
    """

    demos: tuple[Demonstration, ...]
    name: str = ""

    def __post_init__(self):
        demos = tuple(self.demos)
        rates = {d.rate_hz for d in demos}
        if len(rates) > 1:
            raise ValueError(f"inconsistent frame rates in dataset: {sorted(rates)}")
        object.__setattr__(self, "demos", demos)

    def __len__(self) -> int:
        return len(self.demos)


def load_csv(path) -> Dataset:
    """Read a dataset from the demo_id,t,hx..rz,label CSV schema.

    Rows must be sorted by (demo_id, t) with t running 0,1,2,... per demo.
    Errors carry the 1-based file line number.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if header != CSV_COLUMNS:
            raise ValueError(
                f"{path}: header {header!r} does not match required columns {CSV_COLUMNS!r}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"{path}: line {lineno}: expected {len(CSV_COLUMNS)} fields")
            try:
                demo_id = int(row[0])
                t = int(row[1])
                vals = [float(v) for v in row[2:8]]
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"{path}: line {lineno}: non-finite coordinate")
            rows.append((demo_id, t, vals, row[8], lineno))

    if not rows:
        raise ValueError(f"{path}: no data rows")

    demos = []
    by_id: dict[int, list] = {}
    order: list[int] = []
    last_key = None
    for demo_id, t, vals, label, lineno in rows:
        key = (demo_id, t)
        if last_key is not None and key <= last_key:
            raise ValueError(f"{path}: line {lineno}: rows not sorted by (demo_id, t)")
        last_key = key
        if demo_id not in by_id:
            by_id[demo_id] = []
            order.append(demo_id)
        expected_t = len(by_id[demo_id])
        if t != expected_t:
            raise ValueError(
                f"{path}: line {lineno}: demo {demo_id} expected t={expected_t}, got t={t}"
            )
        by_id[demo_id].append((vals, label))

    for demo_id in order:
        frames = by_id[demo_id]
        if len(frames) < 2:
            raise ValueError(f"{path}: demo {demo_id} has fewer than 2 frames")
        coords = np.array([v for v, _ in frames])
        demos.append(
            Demonstration(
                human_pos=coords[:, 0:3],
                robot_pos=coords[:, 3:6],
                label=frames[0][1],
            )
        )

    from pathlib import Path

    return Dataset(tuple(demos), name=Path(path).stem)


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset in the load_csv schema; floats round-trip exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for demo_id, demo in enumerate(ds.demos):
            for t in range(len(demo)):
                h = demo.human_pos[t]
                r = demo.robot_pos[t]
                writer.writerow(
                    [demo_id, t]
                    + [repr(float(v)) for v in (*h, *r)]
                    + [demo.label]
                )


def build_features(demo: Demonstration) -> FeatureSequence:
    """Positions plus per-frame differences; the difference at t=0 is zero."""

    def with_diff(pos: np.ndarray) -> np.ndarray:
        d = np.zeros_like(pos)
        d[1:] = np.diff(pos, axis=0)
        return np.hstack([pos, d])

    frames = np.hstack([with_diff(demo.human_pos), with_diff(demo.robot_pos)])
    return FeatureSequence(frames, standard_split())


def sample_batch(ds: Dataset, n: int, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic random split into n training demos and the remainder."""
    if n < 1:
        raise ValueError(f"batch size must be at least 1, got {n}")
    if n > len(ds.demos):
        raise ValueError(f"requested batch of {n} from {len(ds.demos)} demos")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ds.demos))
    train_idx = np.sort(perm[:n])
    test_idx = np.sort(perm[n:])
    train = Dataset(tuple(ds.demos[i] for i in train_idx), name=ds.name)
    test = Dataset(tuple(ds.demos[i] for i in test_idx), name=ds.name)
    return train, test


# --- synthetic interaction generator ---------------------------------------

SYNTH_KINDS = ("handshake", "rocket_fistbump", "parachute_fistbump")

_ROBOT_LAG = 2  # frames the robot trails the (clean) human trajectory


def _minjerk(u: np.ndarray) -> np.ndarray:
    """Minimum-jerk time profile on [0, 1]; rest at both ends."""
    return u**3 * (10.0 - 15.0 * u + 6.0 * u**2)


def _arrive(u: np.ndarray) -> np.ndarray:
    """Start at rest, arrive at full speed (contact is an impact)."""
    return 1.0 - np.cos(0.5 * np.pi * u)


def _depart(u: np.ndarray) -> np.ndarray:
    """Leave at full speed (push-off from contact), settle to rest."""
    return np.sin(0.5 * np.pi * u)


def _linear(u: np.ndarray) -> np.ndarray:
    return u


def _segment(p0: np.ndarray, p1: np.ndarray, n: int, profile=_minjerk) -> np.ndarray:
    """n frames from p0 toward p1, end-exclusive so phases chain cleanly."""
    u = np.arange(n) / n
    s = profile(u)
    return p0 + s[:, None] * (p1 - p0)


def _phase_lengths(base: Sequence[int], rng: np.random.Generator) -> list[int]:
    # +-20% duration jitter per phase, never shorter than 4 frames
    return [max(4, int(round(b * rng.uniform(0.8, 1.2)))) for b in base]


def _handshake(rng: np.random.Generator) -> tuple[np.ndarray, list[int]]:
    rest = np.array([0.15, -0.40, 0.90]) + rng.normal(0.0, 0.02, 3)
    # the hand withdraws to a lower, wider pose than it started from
    rest_out = np.array([0.35, -0.30, 0.80]) + rng.normal(0.0, 0.02, 3)
    contact = np.array([0.0, -0.015, 0.95])
    n_app, n_shake, n_ret = _phase_lengths([45, 50, 45], rng)

    approach = _segment(rest, contact, n_app, _arrive)
    # the oscillation decays as the grip settles and the clasp drifts down
    # and sideways, so the release pose differs from the first-contact pose
    u = np.arange(n_shake) / n_shake
    drift = np.array([0.04, 0.0, -0.06])
    shake = contact + u[:, None] * drift
    shake[:, 2] += 0.03 * np.exp(-1.5 * u) * np.sin(2.0 * np.pi * 2.0 * u)
    release = contact + drift
    retract = _segment(release, rest_out, n_ret, _depart)

    human = np.vstack([approach, shake, retract])
    return human, [n_app, n_app + n_shake]


def _rocket(rng: np.random.Generator) -> tuple[np.ndarray, list[int]]:
    rest = np.array([0.15, -0.40, 0.80]) + rng.normal(0.0, 0.02, 3)
    rest_out = np.array([0.35, -0.30, 0.90]) + rng.normal(0.0, 0.02, 3)
    contact = np.array([0.0, -0.02, 0.80])
    top = np.array([0.0, -0.02, 1.25])
    n_app, n_bump, n_raise, n_ret = _phase_lengths([40, 14, 40, 40], rng)

    approach = _segment(rest, contact, n_app, _arrive)
    # fists pressed together while the lift begins: z climbs strictly so the
    # lagged robot stays strictly increasing throughout the raise phase
    bump = np.tile(contact, (n_bump, 1))
    bump[:, 2] += 0.02 * (np.arange(1, n_bump + 1) / (n_bump + 1))
    raise_ = _segment(contact + [0.0, 0.0, 0.02], top, n_raise, _depart)
    retract = _segment(top, rest_out, n_ret, _depart)

    human = np.vstack([approach, bump, raise_, retract])
    b1 = n_app
    b2 = b1 + n_bump
    b3 = b2 + n_raise
    return human, [b1, b2, b3]


def _parachute(rng: np.random.Generator) -> tuple[np.ndarray, list[int]]:
    rest = np.array([0.15, -0.40, 0.95]) + rng.normal(0.0, 0.02, 3)
    rest_out = np.array([0.35, -0.30, 0.85]) + rng.normal(0.0, 0.02, 3)
    contact = np.array([0.0, -0.02, 1.15])
    low = np.array([0.0, -0.06, 0.80])
    n_app, n_bump, n_osc, n_ret = _phase_lengths([40, 12, 50, 40], rng)

    approach = _segment(rest, contact, n_app, _arrive)
    bump = np.tile(contact, (n_bump, 1))
    u = np.arange(n_osc) / n_osc
    descend = _segment(contact, low, n_osc, _depart)
    descend[:, 0] += 0.05 * np.exp(-3.0 * u) * np.sin(2.0 * np.pi * 2.5 * u)
    retract = _segment(low, rest_out, n_ret, _depart)

    human = np.vstack([approach, bump, descend, retract])
    b1 = n_app
    b2 = b1 + n_bump
    b3 = b2 + n_osc
    return human, [b1, b2, b3]


_ARCHETYPES = {
    "handshake": _handshake,
    "rocket_fistbump": _rocket,
    "parachute_fistbump": _parachute,
}


def _mirror(pos: np.ndarray) -> np.ndarray:
    out = pos.copy()
    out[:, 1] *= -1.0
    return out


def synth_generate(
    kind: str, n_demos: int, noise_sigma: float, seed: int
) -> tuple[Dataset, list[list[int]]]:
    """Generate paired interaction demos plus true phase-boundary indices.

    The robot mirrors the clean human trajectory across the y=0 plane with a
    2-frame lag; measurement noise is then added to each agent independently.
    Phase durations are jittered per demo, so boundary indices vary.
    """
    if kind not in _ARCHETYPES:
        raise ValueError(f"unknown interaction kind {kind!r}; choose from {SYNTH_KINDS}")
    if n_demos < 1:
        raise ValueError("n_demos must be at least 1")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")

    rng = np.random.default_rng(seed)
    demos = []
    boundaries = []
    for _ in range(n_demos):
        human, bounds = _ARCHETYPES[kind](rng)
        lagged = np.vstack([np.tile(human[0], (_ROBOT_LAG, 1)), human[:-_ROBOT_LAG]])
        robot = _mirror(lagged)
        if noise_sigma > 0:
            human = human + rng.normal(0.0, noise_sigma, human.shape)
            robot = robot + rng.normal(0.0, noise_sigma, robot.shape)
        demos.append(Demonstration(human_pos=human, robot_pos=robot, label=kind))
        boundaries.append(bounds)
    return Dataset(tuple(demos), name=kind), boundaries
