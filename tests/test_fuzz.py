"""Seeded fuzz of model files and dataset CSVs through the command line.

Each example mutates a saved model or a small dataset CSV (truncation, a
deleted key, a value of the wrong kind, a byte that is not UTF-8, an
oversize or non-numeric field, swapped rows) and runs the commands that
read it. A malformed file must end with exit 2 and a message that names
it, never with exit 1 or a traceback. The examples are derandomized, so
every run tries the same files.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tschmm.cli import main
from tschmm.data import Dataset, Demonstration, build_features, save_csv, synth_generate
from tschmm.hmm import init_temporal_bins
from tschmm.model_io import save_model
from tschmm.tsc import TscModel

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=40)

TRAIN_FLAGS = ["--states", "2", "--tsc-states", "2", "--max-iter", "3"]

# JSON values of the wrong kind for any key of a model file
WRONG_VALUES = ["text", {}, True, None, float("nan"), float("inf"), 10**400,
                [[1.0], [1.0, 2.0]], -1]

# CSV fields a dataset must reject or read as numbers
BAD_FIELDS = ["x" * 140_000, "abc", "", "nan", "inf", "9" * 400, "-1", "1e400"]


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A 3-demo, 16-frame dataset CSV and a model file with a transition HMM."""
    root = tmp_path_factory.mktemp("fuzz")
    ds, _ = synth_generate("handshake", 3, 0.005, 0)
    short = Dataset(
        [Demonstration(d.human_pos[:16], d.robot_pos[:16], label=d.label) for d in ds.demos],
        name="short",
    )
    save_csv(short, root / "data.csv")
    feats = [build_features(d) for d in short.demos]
    model = TscModel(init_temporal_bins(feats, 2, 1e-2), init_temporal_bins(feats, 2, 1e-1), 2)
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
