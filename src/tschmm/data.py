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
import io
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from pathlib import Path
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
        human = _index_tuple("human_idx", self.human_idx)
        robot = _index_tuple("robot_idx", self.robot_idx)
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


def _check_arg(name: str, value, kind: str, least: int) -> None:
    """Reject `value` unless it is of `kind` ("int" or "float"), not a bool, finite and
    >= least: the package's one rule for counts and tolerances, kept in its lowest module."""
    cls = numbers.Integral if kind == "int" else numbers.Real
    ok = isinstance(value, cls) and not isinstance(value, bool)
    try:  # an int beyond the float range compares below inf but converts to no float
        ok = ok and least <= (value if kind == "int" else float(value)) < math.inf
    except OverflowError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be {kind} >= {least}, got {value!r}")


def _sequence(name: str, value, what: str) -> tuple:
    """`value` as a tuple, or a ValueError naming `name` unless it is an
    iterable other than text: the package's one rule for lists of inputs."""
    if isinstance(value, (str, bytes)) or not np.iterable(value):
        raise ValueError(f"{name} must be a sequence of {what}, got {type(value).__name__}")
    return tuple(value)


def _index_tuple(name: str, idx, dim: int | None = None) -> tuple[int, ...]:
    """`idx` as a tuple of ints, or a ValueError naming `name` unless it is a
    sequence of integers (bools are not) in strictly increasing order and,
    given `dim`, non-empty and within 0..dim-1: the package's one index rule."""
    items = _sequence(name, idx, "integers")
    if any(isinstance(i, bool) or not isinstance(i, numbers.Integral) for i in items):
        raise ValueError(f"{name} must hold integers")
    items = tuple(int(i) for i in items)
    if dim is not None and not items:
        raise ValueError(f"{name} must be a non-empty index list")
    if dim is not None and not all(0 <= i < dim for i in items):
        raise ValueError(f"{name} contains out-of-range entries for dimension {dim}")
    if any(b <= a for a, b in zip(items, items[1:])):
        raise ValueError(f"{name} must be strictly increasing")
    return items


def _float_array(name: str, value) -> np.ndarray:
    """`value` as a new C-ordered float array, so that sums over it do not
    depend on the input's layout, or a ValueError naming `name` unless it holds
    finite numbers, or lists of them of equal length: the one rule for arrays."""
    if value is None:
        raise ValueError(f"{name} must hold numbers, got None")
    # an integer beyond the float range raises OverflowError
    try:
        arr = np.array(value, dtype=float, order="C")
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"{name} must hold numbers, or lists of numbers of equal length"
        ) from None
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _check_type(name: str, value, cls: type) -> None:
    """Reject `value` unless it is a `cls`, with a message naming `name`."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be {cls.__name__}, got {type(value).__name__}")


def standard_split() -> DimensionSplit:
    """The 12-dimensional layout: human dims 0-5, robot dims 6-11, built once."""
    return _STANDARD_SPLIT


_STANDARD_SPLIT = DimensionSplit(tuple(range(6)), tuple(range(6, 12)))


@dataclass(frozen=True)
class Demonstration:
    """One paired human-robot trajectory, positions in meters."""

    human_pos: np.ndarray
    robot_pos: np.ndarray
    label: str = ""

    def __post_init__(self):
        human = _float_array("human_pos", self.human_pos)
        robot = _float_array("robot_pos", self.robot_pos)
        if human.ndim != 2 or human.shape[1] != 3:
            raise ValueError("human_pos must have shape (T, 3)")
        if robot.shape != human.shape:
            raise ValueError("human_pos and robot_pos must share shape (T, 3)")
        if human.shape[0] < 2:
            raise ValueError("a demonstration needs at least 2 frames")
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
        _check_type("split", self.split, DimensionSplit)
        frames = _float_array("frames", self.frames)
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


@dataclass(frozen=True)
class Dataset:
    """A named collection of demonstrations.

    May be empty only as the leftover side of a train/test split.
    """

    demos: tuple[Demonstration, ...]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "demos", _sequence("demos", self.demos, "Demonstration"))

    def __len__(self) -> int:
        return len(self.demos)


def load_csv(path) -> Dataset:
    """Read a dataset from the demo_id,t,hx..rz,label CSV schema.

    Rows must be sorted by (demo_id, t) with t running 0,1,2,... per demo.
    Errors carry the 1-based physical line number and name the fault that a
    row-by-row reader meets first, though each run of rows with one demo_id
    text is checked column-wise; only a faulty file is tokenized twice.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    demos, start = [], 0  # the demos read, and the number of data rows taken
    demo_id, label, parts, size = -math.inf, "", [], 0  # the demo being read and its row count

    def fault(row, message):  # the error for non-blank data row `row`, from 0
        again = csv.reader(io.StringIO(text, newline=""))
        next(itertools.islice(filter(None, again), row + 1, None))  # past the header
        return ValueError(f"{path}: line {again.line_num}: {message}")

    def close():  # its rows are the last `size` taken
        if size < 2:
            raise fault(start - size, f"demo {demo_id} has fewer than 2 frames") from None
        demos.append(Demonstration(*np.hsplit(np.concatenate(parts, axis=1).T, 2), label=label))

    def take(run):  # add a run to the demo being read, or return (row, message) of a fault
        # in it: each rule checks whole columns, in the order a row-by-row reader checks a row
        nonlocal demo_id, label, parts, size, start
        if set(map(len, run)) != {len(CSV_COLUMNS)}:
            n = next(j for j, row in enumerate(run) if len(row) != len(CSV_COLUMNS))
            return n, f"expected {len(CSV_COLUMNS)} fields"
        cols = list(zip(*run))
        try:  # numpy reads each text as float() does
            key, t = int(cols[0][0]), list(map(int, cols[1]))
            pos = np.array(cols[2:8], dtype=float)
        except ValueError:  # the first column that fails, at its first failing row
            for kind, texts in zip((int, int, *[float] * 6), cols):
                done = []
                try:
                    done.extend(map(kind, texts))  # keeps the values before a failure
                except ValueError as exc:
                    return len(done), str(exc)
        finite = np.isfinite(pos).all(axis=0)
        if not finite.all():
            return int(finite.argmin()), "non-finite coordinate"
        if key > demo_id:
            if size:
                close()
            demo_id, label, parts, size = key, run[0][8], [], 0
        if key != demo_id or t != list(range(size, size + len(t))):
            j = next(j for j, v in enumerate(t) if (key, v) != (demo_id, size + j))
            # a key below the one expected is out of order, unless the demo has no row yet
            unsorted = (key, t[j]) < (demo_id, size + j) and size + j > 0
            return j, ("rows not sorted by (demo_id, t)" if unsorted
                       else f"demo {demo_id} expected t={size + j}, got t={t[j]}")
        parts.append(pos)
        size += len(run)
        start += len(run)

    def check(run):  # take a run: a fault found at row n stands once the rows before it pass
        n, message = len(run), None
        while n and (found := take(run[:n])):
            n, message = found
        if message:
            raise fault(start, message) from None

    run = []
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: line 1: empty file")
        if header != CSV_COLUMNS:
            raise ValueError(f"{path}: line {reader.line_num}: header {header!r} "
                             f"does not match required columns {CSV_COLUMNS!r}")
        for _, group in itertools.groupby(filter(None, reader), key=operator.itemgetter(0)):
            run.extend(group)  # keeps the rows read before an error
            check(run)
            run = []
    except csv.Error as exc:
        check(run)  # the rows read before the error may hold an earlier fault
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not size:
        raise ValueError(f"{path}: line 1: no data rows")
    close()
    return Dataset(tuple(demos), name=Path(path).stem)


def _write_csv(path, header: str, tables) -> None:
    """csv.writer's bytes for `header` and each table's rows prefixed by its index,
    one `write` per table. A table is equal-length columns of csv-quoted text, or
    ints and floats from `.tolist()` (`str` of a float is its round-tripping repr)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for demo_id, columns in enumerate(tables):
            rows = zip(itertools.repeat(str(demo_id)), *(map(str, c) for c in columns))
            fh.write("\n".join([*map(",".join, rows), ""]))


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset in the load_csv schema; floats round-trip exactly."""
    def quoted(label):  # as csv.writer writes it as one field of a row
        out = io.StringIO()
        # the default "\r\n" terminator quotes a lone "\r" too, which reads as a line end
        csv.writer(out).writerow([label, ""])
        return out.getvalue()[:-3]

    _write_csv(path, ",".join(CSV_COLUMNS), (
        [range(len(d)), *d.human_pos.T.tolist(), *d.robot_pos.T.tolist(),
         [quoted(d.label)] * len(d)]
        for d in ds.demos
    ))


def build_features(demo: Demonstration) -> FeatureSequence:
    """Positions plus per-frame differences; the difference at t=0 is zero.
    A difference that overflows the float range raises ValueError."""

    def with_diff(pos: np.ndarray) -> np.ndarray:
        d = np.zeros_like(pos)
        with np.errstate(over="ignore"):
            d[1:] = np.diff(pos, axis=0)
        bad = ~np.isfinite(d).all(axis=1)
        if bad.any():
            raise ValueError(f"position difference at frame {bad.argmax()} overflows")
        return np.hstack([pos, d])

    _check_type("demo", demo, Demonstration)
    frames = np.hstack([with_diff(demo.human_pos), with_diff(demo.robot_pos)])
    return FeatureSequence(frames, standard_split())


def _position_dims(robot_idx: Sequence[int]) -> list[int]:
    """The position dims among `robot_idx`: they precede their differences."""
    return list(robot_idx[: max(1, len(robot_idx) // 2)])


def sample_batch(ds: Dataset, n: int, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic random split into n training demos and the remainder."""
    _check_type("ds", ds, Dataset)
    _check_arg("n", n, "int", 1)
    _check_arg("seed", seed, "int", 0)
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


def _arrive(u: np.ndarray) -> np.ndarray:
    """Start at rest, arrive at full speed (contact is an impact)."""
    return 1.0 - np.cos(0.5 * np.pi * u)


def _depart(u: np.ndarray) -> np.ndarray:
    """Leave at full speed (push-off from contact), settle to rest."""
    return np.sin(0.5 * np.pi * u)


def _segment(p0: np.ndarray, p1: np.ndarray, n: int, profile) -> np.ndarray:
    """n frames from p0 toward p1 along `profile`, end-exclusive so phases chain cleanly."""
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
    _check_arg("n_demos", n_demos, "int", 1)
    _check_arg("noise_sigma", noise_sigma, "float", 0)
    _check_arg("seed", seed, "int", 0)

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
        try:
            demos.append(Demonstration(human_pos=human, robot_pos=robot, label=kind))
        except ValueError:
            # the archetypes fix the shapes, so only noise can make positions non-finite
            raise ValueError(
                f"noise_sigma {noise_sigma!r} overflows the float range: "
                f"noisy positions reach infinity"
            ) from None
        boundaries.append(bounds)
    return Dataset(tuple(demos), name=kind), boundaries
