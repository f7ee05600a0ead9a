"""Seeded fuzz of model files and dataset CSVs through the command line,
and of the prediction, training and constructor entry points of the library.

Each command-line example mutates a saved model or a small dataset CSV
(truncation, a deleted key, a value of the wrong kind, a byte that is not
UTF-8, an oversize or non-numeric field, swapped rows) and runs the commands
that read it. A malformed file must end with exit 2 and a message that
names it, never with exit 1 or a traceback.

Each library example hands `gmr_predict`, `tsc.predict`, `forward`,
`viterbi_labels`, `log_density` or `marginalize` observations of the wrong
type, shape or width, with NaN, inf or finite values up to the float limit,
dimension lists of the wrong kind, or a model of the wrong type. Each
training or constructor example makes one argument of a valid call to
`init_temporal_bins`, `baum_welch`, `tsc.fit`, `detect_transition_states`,
`dilate_mask` or a model or data type wrong:
another type, an array cell made NaN, inf or huge, an array emptied, made
ragged or cut by a column, or an entry of a list made wrong in turn. The
call must return, or raise ValueError, TrainingError or LinAlgError (a
ValueError) with a message, and must not warn.

Each reader example edits a small valid dataset CSV (rows swapped, dropped
or repeated, a one-frame demo, odd number text, fields added or removed,
blank lines, quoted multi-line labels, a stray quote, a cut) and requires
`load_csv` to return what the row-by-row reader in `_oracles` returns, or
to raise its message. The examples are derandomized, so every run tries
the same inputs.
"""

import contextlib
import csv
import io
import itertools
import json
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import CSV_COLUMNS, load_csv_rows
from tschmm import tsc
from tschmm.cli import main
from tschmm.data import (Dataset, Demonstration, DimensionSplit, FeatureSequence, build_features,
                         load_csv, save_csv, synth_generate)
from tschmm.gaussian import GaussianState, log_density, marginalize
from tschmm.hmm import (HmmModel, TrainingError, baum_welch, forward, gmr_predict,
                        init_temporal_bins, viterbi_labels)
from tschmm.model_io import save_model
from tschmm.tsc import TscModel, predict

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=40)

TRAIN_FLAGS = ["--states", "2", "--tsc-states", "2", "--max-iter", "3"]

# JSON values of the wrong kind for any key of a model file
WRONG_VALUES = ["text", {}, True, None, float("nan"), float("inf"), 10**400,
                [[1.0], [1.0, 2.0]], -1]

# CSV fields a dataset must reject or read as numbers
BAD_FIELDS = ["x" * 140_000, "abc", "", "nan", "inf", "9" * 400, "-1", "1e400"]


@pytest.fixture(scope="module")
def short():
    """A 3-demo dataset of 16-frame demos."""
    ds, _ = synth_generate("handshake", 3, 0.005, 0)
    return Dataset(
        [Demonstration(d.human_pos[:16], d.robot_pos[:16], label=d.label) for d in ds.demos],
        name="short",
    )


@pytest.fixture(scope="module")
def model(short):
    """A model of the short dataset with a transition HMM."""
    feats = [build_features(d) for d in short.demos]
    return TscModel(init_temporal_bins(feats, 2, 1e-2), init_temporal_bins(feats, 2, 1e-1), 2)


@pytest.fixture(scope="module")
def clean(tmp_path_factory, short, model):
    """The short dataset's CSV and the model's file."""
    root = tmp_path_factory.mktemp("fuzz")
    save_csv(short, root / "data.csv")
    save_model(model, root / "model.json")
    return root


def _paths(node, path=()):
    """Paths into a JSON document: every object key, and the first and last
    entries of every list."""
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list) and node:
        children = sorted({0: node[0], len(node) - 1: node[-1]}.items())
    else:
        return []
    out = []
    for key, child in children:
        out.append(path + (key,))
        out += _paths(child, path + (key,))
    return out


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _mutated_model(text: str, data) -> bytes:
    kind = data.draw(st.sampled_from(["truncate", "delete", "replace", "byte"]))
    if kind == "truncate":
        return text[: data.draw(st.integers(0, len(text) - 1))].encode()
    if kind == "byte":
        at = data.draw(st.integers(0, len(text)))
        return text[:at].encode() + b"\xff" + text[at:].encode()
    doc = json.loads(text)
    if kind == "delete":
        path = data.draw(st.sampled_from([p for p in _paths(doc) if isinstance(p[-1], str)]))
        del _parent(doc, path)[path[-1]]
    else:
        path = data.draw(st.sampled_from(_paths(doc)))
        _parent(doc, path)[path[-1]] = data.draw(st.sampled_from(WRONG_VALUES))
    return json.dumps(doc).encode()


def _mutated_csv(text: str, data) -> bytes:
    lines = text.splitlines(keepends=True)
    kind = data.draw(st.sampled_from(["truncate", "byte", "field", "swap"]))
    if kind == "truncate":
        return text[: data.draw(st.integers(0, len(text) - 1))].encode()
    if kind == "byte":
        at = data.draw(st.integers(0, len(text)))
        return text[:at].encode() + b"\xff" + text[at:].encode()
    i = data.draw(st.integers(1, len(lines) - 1))
    if kind == "swap":
        j = data.draw(st.integers(1, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        fields = lines[i].rstrip("\n").split(",")
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(st.sampled_from(BAD_FIELDS))
        lines[i] = ",".join(fields) + "\n"
    return "".join(lines).encode()


def _check(argv, bad):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    err = err.getvalue()
    assert rc != 1, err
    assert "Traceback" not in out.getvalue() + err
    if rc == 2:
        assert str(bad) in err, err


@FUZZ
@given(data=st.data())
def test_mutated_model_file_is_named_or_read(clean, data):
    bad = clean / "mutated.json"
    bad.write_bytes(_mutated_model((clean / "model.json").read_text(encoding="utf-8"), data))
    for command in ("predict", "segment"):
        _check([command, "--model", bad, "--data", clean / "data.csv",
                "--out", clean / f"{command}.csv"], bad)


@FUZZ
@given(data=st.data())
def test_mutated_dataset_csv_is_named_or_read(clean, data):
    bad = clean / "mutated.csv"
    bad.write_bytes(_mutated_csv((clean / "data.csv").read_text(encoding="utf-8"), data))
    _check(["train", "--data", bad, *TRAIN_FLAGS, "--out", clean / "trained.json"], bad)
    _check(["eval", "--data", bad, *TRAIN_FLAGS, "--seeds", "1", "--batch", "2"], bad)
    for command in ("predict", "segment"):
        _check([command, "--model", clean / "model.json", "--data", bad,
                "--out", clean / f"{command}.csv"], bad)


# --- library entry points ----------------------------------------------------

# observations no entry point can read as a (T, D) matrix of numbers
WRONG_OBSERVATIONS = ["text", {}, None, True, 3, b"\x00", [], [[]], np.zeros(3),
                      np.zeros((0, 3)), [[0.0, 1.0], [0.0]], [["a", "b"]]]
# values a frame may hold: non-finite, huge, tiny, and a number's text
CELLS = [np.nan, np.inf, -np.inf, 1e308, -1e308, 1.7976931348623157e308, 1e200, 1e154,
         5e-324, "1.5"]
# dimension lists of the wrong kind, order or range, and an empty one
WRONG_DIMS = ["ab", 3, [0.5], [True], [1, 0], [0, 0], [], [[0]], [0, 99], [-1]]


def _observations(data, width: int):
    """Frames of `width` columns with extreme cells, or input of the wrong shape or kind."""
    kind = data.draw(st.sampled_from(["frames", "cells", "rows", "width", "wrong"]))
    if kind == "wrong":
        return data.draw(st.sampled_from(WRONG_OBSERVATIONS))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    frames = rng.normal(size=(data.draw(st.integers(1, 12)), width))
    if kind == "width":
        return frames[:, : data.draw(st.integers(0, width - 1))]
    if kind != "frames":
        value = data.draw(st.sampled_from(CELLS) | st.floats(width=64))
        frames = frames.astype(object)
        at = data.draw(st.integers(0, frames.size - 1))
        if kind == "rows":  # a whole frame, so no state can score it
            frames[at // width] = value
        else:
            frames.flat[at] = value
    return frames


def _dims(data, model):
    """A dimension list for `forward`, and the observation width it asks for."""
    dim = model.base.dim
    kind = data.draw(st.sampled_from(["all", "human", "some", "wrong"]))
    if kind == "wrong":
        return data.draw(st.sampled_from(WRONG_DIMS)), dim
    if kind == "all":
        return None, dim
    dims = list(model.base.split.human_idx) if kind == "human" else sorted(
        data.draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim)))
    return dims, len(dims)


ENTRY_POINTS = {"gmr_predict": gmr_predict, "predict": predict, "forward": forward,
                "viterbi_labels": viterbi_labels}


@settings(FUZZ, max_examples=60)
@given(data=st.data())
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_prediction_entry_point_returns_or_fails_with_a_message(model, name, data):
    call = ENTRY_POINTS[name]
    target = model if call is predict else model.base
    if call in (forward, viterbi_labels):
        dims, width = _dims(data, model)
        args = (dims,)
    else:
        args, width = (), len(model.base.split.human_idx)
    if data.draw(st.integers(0, 9)) == 0:
        target = data.draw(st.sampled_from(["model", None, model.base.emissions[0],
                                            model if target is model.base else model.base]))
    obs = _observations(data, width)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(target, obs, *args)
        except (ValueError, TrainingError, np.linalg.LinAlgError) as exc:
            assert str(exc)


DENSITY_CALLS = {"log_density": lambda g, x: log_density(x, g), "marginalize": marginalize}


@settings(FUZZ, max_examples=60)
@given(data=st.data())
@pytest.mark.parametrize("name", list(DENSITY_CALLS))
def test_density_entry_point_returns_or_fails_with_a_message(model, name, data):
    g = model.base.emissions[0]
    if name == "marginalize":
        arg, _ = _dims(data, model)
    else:
        arg = _observations(data, g.dim)
        if isinstance(arg, np.ndarray) and arg.ndim == 2 and len(arg):
            # one point, a batch, or a stack of batches
            arg = data.draw(st.sampled_from([arg[0], arg, arg[None]]))
    if data.draw(st.integers(0, 9)) == 0:
        g = data.draw(st.sampled_from(["g", None, model.base, g.mean]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            DENSITY_CALLS[name](g, arg)
        except (ValueError, np.linalg.LinAlgError) as exc:
            assert str(exc)


# --- training entry points and constructors ---------------------------------

# values of the wrong kind or range for any argument: text, nothing, bools,
# numbers where arrays belong and the reverse, empty and ragged lists, and
# numbers that are not finite or do not fit a float
WRONG_ARGS = ["text", b"\x00", None, True, False, 0, 3, -1, 2.5, {}, [], [[]], [True, False],
              [[0.0, 1.0], [0.0]], np.nan, np.inf, 1e308, 10**400]


def _mutated(data, value, others):
    """`value` with one part made wrong: a value of WRONG_ARGS or `others`
    in its place; for a float array one cell or every cell made extreme, or
    the array emptied, made ragged or cut by a column; for a list or tuple
    one entry made wrong in turn."""
    if isinstance(value, np.ndarray) and value.dtype == float and value.size:
        how = data.draw(st.sampled_from(["cell", "fill", "empty", "ragged", "column", "wrong"]))
        if how in ("cell", "fill"):
            out = value.astype(object)
            cell = data.draw(st.sampled_from(CELLS) | st.floats(width=64))
            if how == "fill":
                out[...] = cell
            else:
                out.flat[data.draw(st.integers(0, out.size - 1))] = cell
            return out
        if how == "empty":
            return value[:0]
        if how == "ragged" and value.ndim == 2:
            rows = value.tolist()
            rows[data.draw(st.integers(0, len(rows) - 1))].pop()
            return rows
        if how == "column":
            return value[..., :-1]
    elif isinstance(value, (list, tuple)) and value and data.draw(st.booleans()):
        out = list(value)
        i = data.draw(st.integers(0, len(out) - 1))
        out[i] = _mutated(data, out[i], others)
        return type(value)(out)
    return data.draw(st.sampled_from(WRONG_ARGS + others))


def _training_calls(model, feats):
    """Per entry point, the callable and the arguments of a valid call."""
    base = model.base
    g = base.emissions[0]
    demos = [f.frames for f in feats]
    return {
        "GaussianState": (GaussianState, [g.mean, g.cov]),
        "HmmModel": (HmmModel, [base.priors, base.transitions, list(base.emissions), base.split]),
        "TscModel": (TscModel, [base, model.transition, 2]),
        "DimensionSplit": (DimensionSplit, [(0, 1, 2), (3, 4)]),
        "Demonstration": (Demonstration, [demos[0][:, :3], demos[0][:, 6:9]]),
        "FeatureSequence": (FeatureSequence, [demos[0], base.split]),
        "init_temporal_bins": (init_temporal_bins, [demos, 2, 1e-2]),
        "baum_welch": (baum_welch, [base, demos, 2, 1e-4, 1e-2]),
        "tsc.fit": (tsc.fit, [base, demos, 2, 2, 1e-2, 2, 1e-4]),
        "detect_transition_states": (tsc.detect_transition_states, [base, demos, 2]),
        "dilate_mask": (tsc.dilate_mask, [(np.arange(16) % 3 == 0).astype(float), 2]),
    }


@settings(FUZZ, max_examples=30)
@given(data=st.data())
@pytest.mark.parametrize("name", ["GaussianState", "HmmModel", "TscModel", "DimensionSplit",
                                  "Demonstration", "FeatureSequence", "init_temporal_bins",
                                  "baum_welch", "tsc.fit", "detect_transition_states",
                                  "dilate_mask"])
def test_training_entry_point_returns_or_fails_with_a_message(short, model, name, data):
    feats = [build_features(d) for d in short.demos]
    call, args = _training_calls(model, feats)[name]
    # the wrong model type, and a model, a split or frames of another split
    # where an array or a list belongs
    others = [model, model.base, model.base.emissions[0], model.base.split,
              feats[0].restrict(range(6))]
    at = data.draw(st.integers(0, len(args) - 1))
    args[at] = _mutated(data, args[at], others)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(*args)
        except (ValueError, TrainingError) as exc:
            assert str(exc)


# --- load_csv against the row-by-row reader ----------------------------------

# fields in place of a number: text int() and float() read, or refuse, alike
ODD_NUMBERS = ["nan", "1e999", "inf", "-inf", "x", "", " 1", "01", "1_0", "1.0", "+0", "-0",
               "1e5", "١", '"']
LABELS = ["", "a,b", 'say "hi"', "two\nlines", "Zürich", " lead", "\r"]
# a column of the header renamed; rows swapped, dropped or repeated; demos
# shuffled; a demo cut to one frame; the rest of a demo given another id, or
# the same id spelt otherwise; a field made odd, added or removed; a label
# over csv's field limit; a blank line; an opening quote; the file cut short
CSV_EDITS = ["header", "swap", "drop", "repeat", "shuffle", "single", "renumber", "field",
             "extra", "missing", "oversize", "blank", "quote", "truncate"]


def _dataset_rows(rng) -> list[list[str]]:
    """The rows of a valid dataset of 0-4 demos of 2-4 frames each."""
    rows = []
    for demo_id in range(rng.randint(0, 4)):
        label = rng.choice(LABELS)
        for t in range(rng.randint(2, 4)):
            rows.append([str(demo_id), str(t),
                         *(repr(demo_id + t / 7 - j / 3) for j in range(6)), label])
    return rows


def _edited_csv(rows: list[list[str]], rng) -> str:
    """The CSV text of `rows` after one to three edits."""
    edits = rng.choices(CSV_EDITS, k=rng.randint(1, 3))
    header = list(CSV_COLUMNS)
    for edit in edits:
        i = rng.randrange(len(rows)) if rows else 0
        if edit == "header":
            header[rng.randrange(len(header))] = "x"
        elif edit == "swap" and rows:
            j = rng.randrange(len(rows))
            rows[i], rows[j] = rows[j], rows[i]
        elif edit == "drop" and rows:
            del rows[i]
        elif edit == "repeat" and rows:
            rows.insert(i, list(rows[i]))
        elif edit == "shuffle":
            demos = [list(g) for _, g in itertools.groupby(rows, key=lambda r: r[:1])]
            rng.shuffle(demos)
            rows = [r for demo in demos for r in demo]
        elif edit == "single":
            demo_id = str(rng.randint(0, 3))
            at = [n for n, r in enumerate(rows) if r[:1] == [demo_id]]
            for n in reversed(at[1:]):
                del rows[n]
        elif edit == "renumber" and rows and rows[i]:
            k = rows[i][0]
            at = [n for n, r in enumerate(rows) if r[:1] == [k]]
            text = rng.choice(["0", "-1", "9", f"0{k}", f" {k}"])
            for n in at[rng.choice([0, 0, 1]):]:
                rows[n][0] = text
        elif edit == "field" and rows and len(rows[i]) > 7:
            rows[i][rng.randint(0, 7)] = rng.choice(ODD_NUMBERS)
        elif edit == "extra" and rows:
            rows[i].append("0.5")
        elif edit == "missing" and rows and rows[i]:
            del rows[i][rng.randrange(len(rows[i]))]
        elif edit == "oversize" and rows:
            rows[i][-1:] = ["x" * 140_000]
        elif edit == "blank":
            rows.insert(i, [])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = out.getvalue()
    for edit in edits:
        if edit in ("quote", "truncate"):
            at = rng.randint(text.index("\n") + 1, len(text))
            text = text[:at] + '"' + text[at:] if edit == "quote" else text[:at]
    return text


def _read_with(read, path):
    """Each demo's positions as bytes and label, or the ValueError's message."""
    try:
        demos = read(path)
    except ValueError as exc:
        return str(exc)
    return [(np.ascontiguousarray(h).tobytes(), np.shape(h), np.ascontiguousarray(r).tobytes(),
             label) for h, r, label in demos]


@settings(FUZZ, max_examples=400)
@given(seed=st.integers(0, 2**32 - 1))
def test_load_csv_reads_as_the_row_by_row_reader(tmp_path_factory, seed):
    rng = random.Random(seed)
    path = tmp_path_factory.getbasetemp() / "load_csv_fuzz.csv"
    path.write_text(_edited_csv(_dataset_rows(rng), rng), encoding="utf-8", newline="")
    got = _read_with(lambda p: [(d.human_pos, d.robot_pos, d.label) for d in load_csv(p).demos],
                     path)
    assert got == _read_with(load_csv_rows, path)
