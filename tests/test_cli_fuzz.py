"""Fuzzed input files through the command line: every run exits 0, 2 or 3.

Each example starts from one small valid set of files (frames, training
and synth configs, model, gesture config, pipeline config), makes one
mutation to one of them, and runs every subcommand but ``lift`` (its fits
are slow) in process. A Python exception escaping ``main`` fails the test.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from handgest.cli import main
from handgest.heuristic import config_to_dict, default_config

MAX_EXAMPLES = 30

# one strategy per JSON type; a mutation swaps a value for one of another type
JSON_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-1000, 1000),
    "float": st.floats(-1e3, 1e3, allow_nan=False),
    "str": st.text(max_size=4),
    "list": st.lists(st.integers(-3, 3), max_size=3),
    "dict": st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
}


def json_type(value):
    if value is None:
        return "null"
    return {bool: "bool", int: "int", float: "float", str: "str",
            list: "list", dict: "dict"}[type(value)]


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def seed_docs(tmp_path_factory):
    """The valid documents, as decoded JSON; the frames file as a list of rows."""
    root = tmp_path_factory.mktemp("fuzz-seed")
    frames, model = root / "frames.jsonl", root / "model.json"
    train = {"epochs": 1, "batch_size": 4}
    (root / "train.json").write_text(json.dumps(train))
    assert run("synth", "--out", frames, "--per-gesture", 1, "--seed", 4,
               "--gestures", "OpenPalm,Victory,ClosedFist") == 0
    assert run("train", "--data", frames, "--config", root / "train.json",
               "--out", model) == 0
    return {
        "frames.jsonl": [json.loads(line) for line in frames.read_text().splitlines()],
        "train.json": train,
        "synth.json": {"seed": 3, "noise_px": 0.5, "tz_range": [0.4, 0.6]},
        "model.json": json.loads(model.read_text()),
        "gestures.json": config_to_dict(default_config()),
        "pipeline.json": {"schema": "pipeline/1", "max_detect_hz": 10.0,
                          "track_loss_frames": 2, "classifier": "heuristic",
                          "classifier_ref": "GESTURES"},
    }


def _paths(node, prefix=()):
    """Every (container, key) position below node, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _locate(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc, path[-1]


def _encode(name, doc):
    if name.endswith(".jsonl"):
        return "".join(json.dumps(row) + "\n" for row in doc).encode()
    return (json.dumps(doc) + "\n").encode()


@st.composite
def mutated_files(draw, docs):
    """All files as bytes, with exactly one of them mutated."""
    name = draw(st.sampled_from(sorted(docs)))
    doc = json.loads(json.dumps(docs[name]))
    kind = draw(st.sampled_from(["delete", "retype", "truncate", "utf8"]))
    if kind == "delete":
        keys = [p for p in _paths(doc) if isinstance(_locate(doc, p)[0], dict)]
        parent, key = _locate(doc, draw(st.sampled_from(keys)))
        del parent[key]
    elif kind == "retype":
        parent, key = _locate(doc, draw(st.sampled_from(list(_paths(doc)))))
        other = draw(st.sampled_from(
            [t for t in JSON_VALUES if t != json_type(parent[key])]))
        parent[key] = draw(JSON_VALUES[other])
    files = {n: _encode(n, doc if n == name else docs[n]) for n in docs}
    data = files[name]
    if kind == "truncate":
        lines = data.splitlines(keepends=True)
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i][:draw(st.integers(0, len(lines[i]) - 2))] + b"\n"
        files[name] = b"".join(lines)
    elif kind == "utf8":
        at = draw(st.integers(0, len(data) - 1))
        width = draw(st.integers(1, 3))
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80"]))
        files[name] = data[:at] + bad + data[at + width:]
    return files


@settings(max_examples=MAX_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_every_subcommand_exits_0_2_or_3(seed_docs, data):
    files = data.draw(mutated_files(seed_docs))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        ref = str(d / "gestures.json").encode()
        for name, content in files.items():
            (d / name).write_bytes(content.replace(b"GESTURES", ref))
        frames, out = d / "frames.jsonl", d / "out.jsonl"
        codes = [
            run("features", "--frames", frames, "--out", out),
            run("classify", "--frames", frames, "--out", d / "pred.jsonl"),
            run("classify", "--frames", frames, "--model", d / "model.json", "--out", out),
            run("classify", "--frames", frames, "--gestures", d / "gestures.json",
                "--out", out),
            run("train", "--data", frames, "--config", d / "train.json",
                "--out", d / "trained.json"),
            run("synth", "--config", d / "synth.json", "--out", out,
                "--per-gesture", 1, "--gestures", "OpenPalm,ThumbUp"),
            run("stream", "--frames", frames, "--pipeline", d / "pipeline.json",
                "--out", out, "--stats", d / "stats.json"),
            run("eval", "--pred", d / "pred.jsonl", "--truth", frames, "--out", out),
        ]
    assert set(codes) <= {0, 2, 3}, codes
