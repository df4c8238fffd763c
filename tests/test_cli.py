"""End-to-end runs of the handgest command line."""

import copy
import io
import json
import os
import stat
import subprocess
import sys
import threading
import warnings
from importlib.resources import files

import numpy as np
import pytest

from conftest import handgest_command, run_handgest
from handgest.cli import build_parser, main
from handgest.errors import DegenerateScale, DivergedFit
from handgest.features import feature_vector
from handgest import lifting, skeleton
from handgest.harness import SynthConfig, sample_rng, synth_pose
from handgest.heuristic import DEFAULT_CONFIG_JSON, classify_heuristic, default_config
from handgest.labels import ALL_GESTURES, CLASSES, NEGATIVE_GESTURES
from handgest.lifting import default_hand_model
from handgest.mlp import LAYER_SIZES, MlpModel, load_model
from handgest.skeleton import frame_from_dict, frame_to_dict


def run(*argv):
    return main([str(a) for a in argv])


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def frames_and_labels(path):
    """The frames of a dataset file, and its labels."""
    return (list(skeleton.read_jsonl(path, frame_from_dict)),
            [row["label"] for row in read_jsonl(path)])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Small shared dataset: 2 samples per gesture, 42 rows."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.jsonl"
    assert run("synth", "--out", data, "--per-gesture", 2, "--seed", 5) == 0
    return data


def test_synth_writes_labeled_dataset(corpus):
    frames, labels = frames_and_labels(corpus)
    assert len(frames) == 2 * len(ALL_GESTURES)
    assert set(labels) == set(ALL_GESTURES)
    assert all(f.hand is not None for f in frames)


def test_synth_gesture_subset(tmp_path):
    out = tmp_path / "subset.jsonl"
    assert run("synth", "--out", out, "--per-gesture", 3,
               "--gestures", "Victory,CallMe") == 0
    _, labels = frames_and_labels(out)
    assert labels == ["Victory"] * 3 + ["CallMe"] * 3


def test_synth_rejects_unknown_gesture(tmp_path):
    assert run("synth", "--out", tmp_path / "x.jsonl",
               "--gestures", "Wave") == 2


def test_synth_config_overrides(tmp_path):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"seed": 9, "width": 320, "height": 200}))
    out = tmp_path / "small.jsonl"
    assert run("synth", "--out", out, "--per-gesture", 1,
               "--gestures", "OpenPalm", "--config", cfg) == 0
    frames, _ = frames_and_labels(out)
    assert (frames[0].w, frames[0].h) == (320, 200)
    assert run("synth", "--out", out, "--config", cfg,
               "--gestures", "OpenPalm", "--per-gesture", 1, "--seed", 10) == 0
    frames10, _ = frames_and_labels(out)
    assert not np.allclose(frames10[0].hand.kp2d, frames[0].hand.kp2d)


def test_features_match_library(corpus, tmp_path):
    out = tmp_path / "feats.jsonl"
    assert run("features", "--frames", corpus, "--out", out) == 0
    rows = read_jsonl(out)
    frames, labels = frames_and_labels(corpus)
    assert len(rows) == len(frames)
    for row, frame, label in zip(rows, frames, labels):
        assert row["schema"] == "features/1"
        assert row["label"] == label
        assert row["t_us"] == frame.t_us
        fv = feature_vector(frame.hand.kp3d, frame.hand.handedness)
        np.testing.assert_allclose(row["euler"], fv[0:3])
        np.testing.assert_allclose(row["fingers"], fv[3:8])
        np.testing.assert_allclose(row["pairs"], fv[8:])


def test_classify_heuristic_from_features(corpus, tmp_path):
    feats = tmp_path / "feats.jsonl"
    preds = tmp_path / "preds.jsonl"
    assert run("features", "--frames", corpus, "--out", feats) == 0
    assert run("classify", "--features", feats, "--out", preds) == 0
    rows = read_jsonl(preds)
    frames, _ = frames_and_labels(corpus)
    cfg = default_config()
    assert len(rows) == len(frames)
    for row, frame in zip(rows, frames):
        assert row["schema"] == "prediction/1"
        fv = feature_vector(frame.hand.kp3d, frame.hand.handedness)
        assert row["label"] == classify_heuristic(fv, cfg)
        assert row["label"] in CLASSES


def test_classify_directly_from_frames(corpus, tmp_path):
    via_frames = tmp_path / "a.jsonl"
    assert run("classify", "--frames", corpus, "--out", via_frames) == 0
    feats = tmp_path / "feats.jsonl"
    via_features = tmp_path / "b.jsonl"
    assert run("features", "--frames", corpus, "--out", feats) == 0
    assert run("classify", "--features", feats, "--out", via_features) == 0
    a = [r["label"] for r in read_jsonl(via_frames)]
    b = [r["label"] for r in read_jsonl(via_features)]
    assert a == b


def test_train_calibrate_classify_nn(corpus, tmp_path):
    model_path = tmp_path / "model.json"
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({"epochs": 3, "batch_size": 16}))
    assert run("train", "--data", corpus, "--out", model_path,
               "--config", train_cfg, "--seed", 1) == 0
    model = load_model(model_path)
    assert model.tau == 0.0

    negs = tmp_path / "negs.jsonl"
    assert run("synth", "--out", negs, "--per-gesture", 2, "--seed", 77,
               "--gestures", "CallMe,OK,Loser") == 0
    assert run("calibrate", "--model", model_path, "--negatives", negs,
               "--fpr", 0.5) == 0
    calibrated = load_model(model_path)
    assert 0.0 <= calibrated.tau <= 1.0

    preds = tmp_path / "preds.jsonl"
    assert run("classify", "--frames", corpus, "--model", model_path,
               "--out", preds) == 0
    rows = read_jsonl(preds)
    assert len(rows) == 42
    assert all(r["label"] in CLASSES for r in rows)


def test_calibrate_rejects_positive_rows(corpus, tmp_path):
    model_path = tmp_path / "model.json"
    cfgf = tmp_path / "t.json"
    cfgf.write_text(json.dumps({"epochs": 1}))
    assert run("train", "--data", corpus, "--out", model_path, "--config", cfgf) == 0
    # corpus contains Victory rows: not a pure negative set
    assert run("calibrate", "--model", model_path, "--negatives", corpus,
               "--fpr", 0.1) == 2


def test_lift_recovers_3d(tmp_path):
    data = tmp_path / "lift_in.jsonl"
    assert run("synth", "--out", data, "--per-gesture", 1, "--seed", 3,
               "--gestures", "OpenPalm,Victory") == 0
    rows = read_jsonl(data)
    truth = [np.asarray(r["hand"]["kp3d"]) for r in rows]
    for r in rows:
        r["hand"]["kp3d"] = None
    data.write_text("".join(json.dumps(r) + "\n" for r in rows))

    out = tmp_path / "lifted.jsonl"
    assert run("lift", "--frames", data, "--out", out) == 0
    lifted = read_jsonl(out)
    assert len(lifted) == 2
    for row, gt in zip(lifted, truth):
        assert row["label"] in ("OpenPalm", "Victory")
        kp3d = np.asarray(row["hand"]["kp3d"])
        centered = kp3d - kp3d[9]
        expect = gt - gt[9]
        assert np.linalg.norm(centered - expect, axis=1).mean() < 0.02


def test_lift_fits_a_left_hand_in_the_mirror(tmp_path, capsys):
    # the hand model is a right hand: a left frame is fitted as its mirror
    # image (u -> 2 cx - u) and its points mirrored back (x -> -x), so it
    # lifts bit for bit like the right frame that mirror image is
    config, left = tmp_path / "left.json", tmp_path / "left.jsonl"
    config.write_text(json.dumps({"handedness": "Left"}))
    assert run("synth", "--out", left, "--config", config,
               "--per-gesture", 2, "--seed", 5) == 0
    rows = read_jsonl(left)
    mirrored = copy.deepcopy(rows)
    for row in mirrored:
        cx = row["w"] / 2.0
        row["hand"]["handedness"] = "Right"
        row["hand"]["kp2d"] = [[2.0 * cx - u, v] for u, v in row["hand"]["kp2d"]]
    right = tmp_path / "right.jsonl"
    right.write_text("".join(json.dumps(r) + "\n" for r in mirrored))
    capsys.readouterr()
    assert run("lift", "--frames", left, "--out", tmp_path / "left_3d.jsonl") == 0
    assert run("lift", "--frames", right, "--out", tmp_path / "right_3d.jsonl") == 0
    assert capsys.readouterr().err == ""
    errors = []
    for row, fitted, twin in zip(rows, read_jsonl(tmp_path / "left_3d.jsonl"),
                                 read_jsonl(tmp_path / "right_3d.jsonl")):
        assert fitted["hand"]["handedness"] == "Left"
        kp3d = np.asarray(fitted["hand"]["kp3d"], dtype=np.float64)
        assert kp3d.tobytes() == (np.asarray(twin["hand"]["kp3d"]) * (-1.0, 1.0, 1.0)).tobytes()
        truth = np.asarray(row["hand"]["kp3d"])
        errors.append(np.linalg.norm((kp3d - kp3d[9]) - (truth - truth[9]), axis=1).mean())
    assert len(errors) == 42 and np.mean(errors) < 0.01


def test_lift_writes_what_lift_keypoints_returns(tmp_path, capsys):
    # lift is a row loop around lifting.lift_keypoints, mirror included
    config, frames = tmp_path / "left.json", tmp_path / "left.jsonl"
    config.write_text(json.dumps({"handedness": "Left", "noise_px": 1.0}))
    assert run("synth", "--out", frames, "--config", config,
               "--per-gesture", 1, "--seed", 8) == 0
    out = tmp_path / "lifted.jsonl"
    capsys.readouterr()
    assert run("lift", "--frames", frames, "--out", out) == 0
    assert capsys.readouterr().err == ""
    model = default_hand_model()
    for row, lifted in zip(read_jsonl(frames), read_jsonl(out), strict=True):
        hand = frame_from_dict(row).hand
        want = lifting.lift_keypoints(hand.kp2d, hand.handedness, model,
                                      lifting.default_intrinsics(row["w"], row["h"]))
        assert np.asarray(lifted["hand"]["kp3d"], dtype=np.float64).tobytes() == want.tobytes()


def test_lift_notes_a_degraded_row_by_index(tmp_path, capsys):
    # a collapsed palm degrades its row to kp3d=null and the batch goes on;
    # the note names the row by its 0-based index and its t_us
    rows = [_frame_row(t_us=t) for t in (0, 33_333, 66_666)]
    rows[1]["hand"]["kp2d"] = [[320.0, 240.0]] * 21
    frames, out = tmp_path / "frames.jsonl", tmp_path / "lifted.jsonl"
    frames.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert run("lift", "--frames", frames, "--out", out) == 0
    lifted = read_jsonl(out)
    assert [r["hand"]["kp3d"] is None for r in lifted] == [False, True, False]
    err = capsys.readouterr().err
    assert err.startswith("row 1 (t_us 33333): ") and err.count("\n") == 1, err


def test_stream_outputs_and_stats(corpus, tmp_path):
    pipe = tmp_path / "pipe.json"
    pipe.write_text(json.dumps(
        {"schema": "pipeline/1", "max_detect_hz": 5.0, "classifier": "heuristic"}))
    out = tmp_path / "stream.jsonl"
    stats_path = tmp_path / "stats.json"
    assert run("stream", "--frames", corpus, "--pipeline", pipe,
               "--out", out, "--stats", stats_path) == 0
    rows = read_jsonl(out)
    assert len(rows) == 42
    assert all(r["schema"] == "frame_output/1" for r in rows)
    stats = json.loads(stats_path.read_text())
    assert stats["schema"] == "pipeline_stats/1"
    assert stats["classify_invocations"] <= 42
    assert stats["detect_invocations"] >= 1


def test_stream_survives_a_frame_it_cannot_classify(corpus, tmp_path):
    rows = read_jsonl(corpus)[:12]
    good = tmp_path / "good.jsonl"
    good.write_text("".join(json.dumps(r) + "\n" for r in rows))
    rows[5]["hand"]["kp3d"] = None
    holed = tmp_path / "holed.jsonl"
    holed.write_text("".join(json.dumps(r) + "\n" for r in rows))
    pipe = tmp_path / "pipe.json"
    pipe.write_text(json.dumps(_PIPE))
    outs, stats = {}, {}
    for name, frames in (("good", good), ("holed", holed)):
        out, stats_path = tmp_path / f"{name}.out", tmp_path / f"{name}.stats"
        assert run("stream", "--frames", frames, "--pipeline", pipe,
                   "--out", out, "--stats", stats_path) == 0
        outs[name], stats[name] = read_jsonl(out), json.loads(stats_path.read_text())
    assert len(outs["holed"]) == 12
    hole = outs["holed"].pop(5)
    assert outs["good"].pop(5)["actions"] == ["classify"]
    assert (hole["mode"], hole["label"], hole["actions"]) == ("Tracked", None, [])
    assert outs["holed"] == outs["good"]
    assert stats["holed"] == {**stats["good"],
                              "classify_invocations": stats["good"]["classify_invocations"] - 1}


@pytest.mark.parametrize("kind", ["rules", "gestures", "model"])
def test_stream_labels_tracked_frames_as_classify_does(corpus, tmp_path, kind):
    # classify and stream resolve the classifier through one function
    ref = tmp_path / "ref.json"
    if kind == "gestures":
        gestures = copy.deepcopy(DEFAULT_CONFIG_JSON)
        gestures["thresholds"]["straight_max_deg"] = [40.0] * 5
        ref.write_text(json.dumps(gestures))
    elif kind == "model":
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"epochs": 2}))
        assert run("train", "--data", corpus, "--out", ref, "--config", cfg) == 0
    flag = {"rules": [], "gestures": ["--gestures", ref], "model": ["--model", ref]}[kind]
    preds = tmp_path / "preds.jsonl"
    assert run("classify", "--frames", corpus, "--out", preds, *flag) == 0
    pipe = {"schema": "pipeline/1", "max_detect_hz": 5.0,
            "classifier": "nn" if kind == "model" else "heuristic",
            "classifier_ref": None if kind == "rules" else str(ref)}
    (tmp_path / "pipe.json").write_text(json.dumps(pipe))
    out = tmp_path / "stream.jsonl"
    assert run("stream", "--frames", corpus, "--pipeline", tmp_path / "pipe.json",
               "--out", out) == 0
    pairs = [(s["label"], p["label"]) for s, p in zip(read_jsonl(out), read_jsonl(preds))
             if s["mode"] == "Tracked" and "classify" in s["actions"]]
    assert len(pairs) == 42
    assert all(a == b for a, b in pairs)


def test_eval_report(corpus, tmp_path):
    preds = tmp_path / "preds.jsonl"
    report_path = tmp_path / "report.json"
    assert run("classify", "--frames", corpus, "--out", preds) == 0
    assert run("eval", "--pred", preds, "--truth", corpus,
               "--out", report_path) == 0
    report = json.loads(report_path.read_text())
    assert report["schema"] == "eval_report/1"
    assert report["n"] == 42
    assert set(report["recalls"]) == set(CLASSES[:-1])
    assert 0.0 <= report["fpr"] <= 1.0


def test_missing_file_exits_2(tmp_path):
    assert run("features", "--frames", tmp_path / "nope.jsonl") == 2


@pytest.mark.parametrize("content", [None, b"not json\n", b"\xff\xfe\x00binary"],
                         ids=["missing", "not-json", "not-utf8"])
def test_lift_unreadable_model_exits_2(tmp_path, capsys, content):
    frames = tmp_path / "frames.jsonl"
    kp2d = [[100.0 + 3.0 * i, 200.0 - 2.0 * i] for i in range(21)]
    frames.write_text(json.dumps(
        {"t_us": 0, "w": 640, "h": 480,
         "hand": {"handedness": "Right", "score": 1.0,
                  "kp2d": kp2d, "kp3d": None}}) + "\n")
    model = tmp_path / "model.json"
    if content is not None:
        model.write_bytes(content)
    assert run("lift", "--frames", frames, "--model", model) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_malformed_line_exits_2(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{this is not json\n")
    assert run("features", "--frames", bad) == 2


def test_frames_without_3d_exit_2(tmp_path, capsys):
    frames = tmp_path / "no3d.jsonl"
    kp2d = [[float(i), float(i)] for i in range(21)]
    frames.write_text(json.dumps(
        {"t_us": 0, "w": 640, "h": 480,
         "hand": {"handedness": "Right", "score": 1.0,
                  "kp2d": kp2d, "kp3d": None}}) + "\n")
    assert run("features", "--frames", frames) == 2
    assert capsys.readouterr().err == f"error: {frames}:1: frame has no 3D keypoints; run lift\n"


def test_degenerate_geometry_exits_3(tmp_path):
    frames = tmp_path / "flat.jsonl"
    point = [[1.0, 2.0, 3.0]] * 21
    kp2d = [[100.0, 100.0]] * 21
    frames.write_text(json.dumps(
        {"t_us": 0, "w": 640, "h": 480,
         "hand": {"handedness": "Right", "score": 1.0,
                  "kp2d": kp2d, "kp3d": point}}) + "\n")
    assert run("features", "--frames", frames) == 3


# -- every unreadable, undecodable or mistyped input exits 2 with one line --

def _frame_row(**overrides):
    """One valid dataset row, with top-level fields replaced."""
    frame, label = synth_pose("OpenPalm", SynthConfig(), sample_rng(0, 0))
    row = {"schema": "dataset/1", "label": label, **frame_to_dict(frame)}
    row.update(overrides)
    return row


def _hand_row(**fields):
    """One valid dataset row, with fields of its hand replaced."""
    row = _frame_row()
    row["hand"].update(fields)
    return row


def _misspelt_kp3d_row():
    """One valid dataset row whose hand spells kp3d as kp3D."""
    row = _frame_row()
    row["hand"]["kp3D"] = row["hand"].pop("kp3d")
    return row


def _gestures_with(**first):
    """The default gesture document, with fields of its first gesture replaced."""
    obj = copy.deepcopy(DEFAULT_CONFIG_JSON)
    obj["gestures"][0].update(first)
    return obj


def _term_with(gesture, term, **fields):
    """The default gesture document, with fields set on one top-level term
    of one gesture's expression."""
    obj = copy.deepcopy(DEFAULT_CONFIG_JSON)
    obj["gestures"][gesture]["expr"]["all"][term].update(fields)
    return obj


_FEATURE_ROW = {"t_us": 0, "euler": [0.0, 0.0, 0.0],
                "fingers": [0.0] * 5, "pairs": [0.5] * 4}
_PIPE = {"schema": "pipeline/1", "max_detect_hz": 5.0}
# a valid row, then a line that is not UTF-8
_BAD_UTF8 = json.dumps(_frame_row()).encode() + b'\n{"t_us": 1\xff}\n'
_MODEL = MlpModel([np.zeros((o, i)) for i, o in zip(LAYER_SIZES, LAYER_SIZES[1:])],
                  [np.zeros(o) for o in LAYER_SIZES[1:]],
                  np.zeros(12), np.ones(12)).to_dict()
_THRESHOLDS = DEFAULT_CONFIG_JSON["thresholds"]
NAN, INF = float("nan"), float("inf")
HUGE = 10 ** 400  # a JSON integer that float() cannot take
_FINGERS = json.loads((files("handgest") / "data" / "hand_model.json").read_text())["fingers"]

# (argv, content of {bad}, part of the error): None leaves {bad} missing,
# bytes are written as is, anything else as JSON; {nodir} does not exist
BAD_INPUTS = {
    # files that cannot be read or decoded
    "classify-model-missing": ("classify --frames {frames} --model {bad}", None,
                               "cannot read"),
    "classify-model-not-json": ("classify --frames {frames} --model {bad}", b"{nope",
                                "bad.json:1: Expecting property name"),
    "classify-gestures-missing": ("classify --frames {frames} --gestures {bad}", None,
                                  "cannot read"),
    "classify-gestures-not-json": ("classify --frames {frames} --gestures {bad}",
                                   b"nope", "bad.json:1: Expecting value"),
    "stream-pipeline-missing": ("stream --frames {frames} --pipeline {bad}", None,
                                "cannot read"),
    "stream-pipeline-not-json": ("stream --frames {frames} --pipeline {bad}", b"[1,",
                                 "bad.json:1: Expecting value"),
    "stream-heuristic-ref-missing": ("stream --frames {frames} --pipeline {bad}",
                                     {**_PIPE, "classifier_ref": "no-such-dir/g.json"},
                                     "cannot read no-such-dir/g.json"),
    "stream-nn-ref-missing": ("stream --frames {frames} --pipeline {bad}",
                              {**_PIPE, "classifier": "nn",
                               "classifier_ref": "no-such-dir/model.json"},
                              "cannot read no-such-dir/model.json"),
    "features-not-utf8": ("features --frames {bad}", _BAD_UTF8, "can't decode"),
    "stream-frames-not-utf8": ("stream --frames {bad} --pipeline {pipe}", _BAD_UTF8,
                               "can't decode"),
    "eval-pred-not-utf8": ("eval --pred {bad} --truth {frames}", _BAD_UTF8,
                           "can't decode"),
    "synth-config-not-utf8": ("synth --out {out} --config {bad}", b'{"seed": "\xff"}',
                              "can't decode"),
    # JSON nested past the parser's recursion limit, which escaped as a traceback
    "classify-gestures-too-deep": ("classify --frames {frames} --gestures {bad}",
                                   b'{"schema": "gestures/1", "x": ' + b"[" * 5000
                                   + b"]" * 5000 + b"}",
                                   "bad.json: maximum recursion depth exceeded"),
    "features-row-too-deep": ("features --frames {bad}",
                              b'{"t_us": 0, "x": ' + b"[" * 5000 + b"]" * 5000 + b"}\n",
                              "bad.json:1: maximum recursion depth exceeded"),
    "features-line-not-object": ("features --frames {bad}", b"[1]\n",
                                 "bad.json:1: expected a JSON object, got list"),
    "stream-stats-unwritable": ("stream --frames {frames} --pipeline {pipe} "
                                "--stats {nodir}/stats.json", None, "cannot write"),
    "train-out-unwritable": ("train --data {frames} --config {train} "
                             "--out {nodir}/model.json", None, "cannot write"),
    "synth-out-unwritable": ("synth --out {nodir}/data.jsonl --per-gesture 1 "
                             "--gestures OpenPalm", None, "cannot write"),
    # flat configs with a value of the wrong type or a missing key
    "train-epochs-string": ("train --data {frames} --out {out} --config {bad}",
                            {"epochs": "5"}, "epochs must be an integer, got '5'"),
    "train-gamma-bool": ("train --data {frames} --out {out} --config {bad}",
                         {"gamma": True}, "gamma must be a number, got True"),
    "stream-max-detect-hz-string": ("stream --frames {frames} --pipeline {bad}",
                                    {**_PIPE, "max_detect_hz": "5"},
                                    "max_detect_hz must be a number, got '5'"),
    "stream-track-loss-frames-string": ("stream --frames {frames} --pipeline {bad}",
                                        {**_PIPE, "track_loss_frames": "3"},
                                        "track_loss_frames must be an integer, got '3'"),
    "stream-max-detect-hz-missing": ("stream --frames {frames} --pipeline {bad}",
                                     {"schema": "pipeline/1"},
                                     "needs 'max_detect_hz'"),
    "synth-width-string": ("synth --out {out} --config {bad}", {"width": "640"},
                           "width must be an integer, got '640'"),
    "synth-tz-range-number": ("synth --out {out} --config {bad}", {"tz_range": 5},
                              "tz_range must be a pair [low, high], got 5"),
    "synth-tz-range-reversed": ("synth --out {out} --config {bad}",
                                {"tz_range": [1, 0.6]}, "low <= high"),
    "synth-handedness-lowercase": ("synth --out {out} --config {bad}",
                                   {"handedness": "right"}, "handedness must be one of"),
    "synth-score-above-one": ("synth --out {out} --config {bad}", {"score": 3},
                              "score must be a number in [0, 1], got 3"),
    # seeds that raised from numpy with a traceback, and image sizes whose
    # error named no file
    "synth-seed-negative": ("synth --out {out} --config {bad}", {"seed": -1},
                            "seed must be an integer in [0, inf), got -1"),
    "train-seed-negative": ("train --data {frames} --out {out} --config {bad}",
                            {"seed": -1}, "seed must be an integer in [0, inf), got -1"),
    "synth-width-zero": ("synth --out {out} --config {bad}", {"width": 0},
                         "width must be an integer in [1, inf), got 0"),
    # noise and jitter that were taken as zero, or written out as Infinity
    "synth-noise-px-negative": ("synth --out {out} --config {bad}", {"noise_px": -1.0},
                                "noise_px must be a number in [0, inf), got -1.0"),
    "synth-noise-px-nan": ("synth --out {out} --config {bad}", {"noise_px": NAN},
                           "noise_px must be a number in [0, inf), got nan"),
    "synth-noise-m-infinity": ("synth --out {out} --config {bad}", {"noise_m": INF},
                               "noise_m must be a number in [0, inf), got inf"),
    "synth-jitter-std-rad-nan": ("synth --out {out} --config {bad}",
                                 {"jitter_std_rad": NAN},
                                 "jitter_std_rad must be a number in [0, inf), got nan"),
    "synth-orientation-jitter-rad-nan": ("synth --out {out} --config {bad}",
                                         {"orientation_jitter_rad": NAN},
                                         "orientation_jitter_rad must be a number in "
                                         "[0, inf), got nan"),
    # depths at or behind the camera, which exited 3 naming no file
    "synth-tz-range-behind-camera": ("synth --out {out} --config {bad}",
                                     {"tz_range": [-1, -0.5]}, "tz_range must lie within"),
    "synth-tz-range-at-camera": ("synth --out {out} --config {bad}", {"tz_range": [0, 0]},
                                 "tz_range must lie within (0.05, 3.0) m, got (0, 0)"),
    # a range wider than a float, which raised OverflowError from numpy
    "synth-x-range-overflow": ("synth --out {out} --config {bad}",
                               {"x_range": [-1e308, 1e308]},
                               "x_range must have a finite high - low, got [-1e+308, 1e+308]"),
    # nested decoders
    "classify-model-layers-not-objects": ("classify --frames {frames} --model {bad}",
                                          {**_MODEL, "layers": [1]},
                                          "model layer must be an object, got 1"),
    "classify-gestures-priority-string": ("classify --frames {frames} --gestures {bad}",
                                          _gestures_with(priority="x"),
                                          "priority must be an integer, got 'x'"),
    # model and config files: numbers given as strings are not parsed
    "classify-model-tau-string": ("classify --frames {frames} --model {bad}",
                                  {**_MODEL, "tau": "0.5"},
                                  "tau must be a number, got '0.5'"),
    "classify-model-feat-mean-strings": ("classify --frames {frames} --model {bad}",
                                         {**_MODEL, "feat_mean": ["0"] * 12},
                                         "feat_mean must hold numbers"),
    "classify-gestures-priority-digits": ("classify --frames {frames} --gestures {bad}",
                                          _gestures_with(priority="1"),
                                          "priority must be an integer, got '1'"),
    "classify-gestures-thresholds-strings": (
        "classify --frames {frames} --gestures {bad}",
        {**DEFAULT_CONFIG_JSON,
         "thresholds": {**_THRESHOLDS,
                        "bent_min_deg": [str(a) for a in _THRESHOLDS["bent_min_deg"]]}},
        "bent_min_deg must hold numbers"),
    "lift-hand-model-lengths-strings": (
        "lift --frames {frames} --model {bad}",
        {"fingers": {**_FINGERS, "thumb": {**_FINGERS["thumb"], "lengths": [
            str(a) for a in _FINGERS["thumb"]["lengths"]]}}},
        "hand model 'thumb' lengths must hold numbers"),
    # gesture values that were reinterpreted, and nodes with another kind's key
    "classify-gestures-name-number": ("classify --frames {frames} --gestures {bad}",
                                      _gestures_with(name=5),
                                      "name must be a string, got 5"),
    "classify-gestures-lo-deg-bool": ("classify --frames {frames} --gestures {bad}",
                                      _term_with(3, 5, lo_deg=True),
                                      "lo_deg must be a number, got True"),
    "classify-gestures-not-node-with-all": (
        "classify --frames {frames} --gestures {bad}", _term_with(0, 5, all=[]),
        "unknown 'all' node keys: ['not']"),
    "classify-gestures-finger-node-with-lo-deg": (
        "classify --frames {frames} --gestures {bad}", _term_with(1, 0, lo_deg=3),
        "unknown 'finger' node keys: ['lo_deg']"),
    # unknown keys and schema tags that were ignored
    "classify-gestures-misspelt-priority": (
        "classify --frames {frames} --gestures {bad}", _gestures_with(priorty=9),
        "unknown gesture entry keys: ['priorty']"),
    "classify-gestures-thresholds-extra-key": (
        "classify --frames {frames} --gestures {bad}",
        {**DEFAULT_CONFIG_JSON, "thresholds": {**_THRESHOLDS, "straight_max": [30.0] * 5}},
        "unknown thresholds object keys: ['straight_max']"),
    "classify-model-misspelt-tau": ("classify --frames {frames} --model {bad}",
                                    {**_MODEL, "Tau": 0.5}, "unknown model keys: ['Tau']"),
    # Python's JSON reader takes NaN and Infinity; such a model loaded, and
    # lift then blamed the frames file for the non-finite pixels it projected
    **{f"lift-hand-model-direction-{name}": (
        "lift --frames {frames} --model {bad}",
        {"fingers": {**_FINGERS, "index": {**_FINGERS["index"], "direction": [
            value, *_FINGERS["index"]["direction"][1:]]}}},
        "non-finite finger direction in hand model")
       for name, value in (("nan", NAN), ("inf", INF))},
    "lift-hand-model-misspelt-lengths": (
        "lift --frames {frames} --model {bad}",
        {"schema": "hand_model/1", "fingers": {**_FINGERS, "ring": {
            "direction": _FINGERS["ring"]["direction"], "lenghts": _FINGERS["ring"]["lengths"]}}},
        "unknown hand model 'ring' keys: ['lenghts']"),
    "lift-hand-model-schema-2": ("lift --frames {frames} --model {bad}",
                                 {"schema": "hand_model/2", "fingers": _FINGERS},
                                 "schema must be one of ('hand_model/1',), got 'hand_model/2'"),
    # a tag of another document, which a synth or train config once took
    "synth-config-schema-train": ("synth --out {out} --config {bad}",
                                  {"schema": "train/1", "seed": 1},
                                  "schema must be one of ('synth/1',), got 'train/1'"),
    "train-config-schema-mlp": ("train --data {frames} --out {out} --config {bad}",
                                {"schema": "mlp/1", "epochs": 2},
                                "schema must be one of ('train/1',), got 'mlp/1'"),
    "classify-gestures-schema-9": ("classify --frames {frames} --gestures {bad}",
                                   {**DEFAULT_CONFIG_JSON, "schema": "gestures/9"},
                                   "schema must be one of ('gestures/1',), got 'gestures/9'"),
    "classify-gestures-no-schema": ("classify --frames {frames} --gestures {bad}",
                                    {k: v for k, v in DEFAULT_CONFIG_JSON.items()
                                     if k != "schema"},
                                    "gesture config needs 'schema'"),
    "classify-euler-number": ("classify --features {bad}",
                              {**_FEATURE_ROW, "euler": 5},
                              "euler must have shape (3,), got ()"),
    "classify-euler-not-numeric": ("classify --features {bad}",
                                   {**_FEATURE_ROW, "euler": [1, "a", 3]},
                                   "euler must hold numbers"),
    # numbers given as strings or bools are not parsed or cast
    "features-kp3d-strings": ("features --frames {bad}",
                              _hand_row(kp3d=[["0.1", "0.2", "0.5"]] * 21),
                              "kp3d must hold numbers"),
    "features-kp3d-bool-among-numbers": (
        "features --frames {bad}",
        _hand_row(kp3d=[[True, 0.5, 0.2]] + _frame_row()["hand"]["kp3d"][1:]),
        "kp3d must hold numbers, got a bool among them"),
    "features-kp2d-bools": ("features --frames {bad}",
                            _hand_row(kp2d=[[True, False]] * 21),
                            "kp2d must hold numbers"),
    "classify-euler-strings": ("classify --features {bad}",
                               {**_FEATURE_ROW, "euler": ["0.1", "0.2", "0.3"]},
                               "euler must hold numbers, got dtype <U3"),
    # integers that would be silently truncated or taken from a bool
    "features-t-us-fraction": ("features --frames {bad}", _frame_row(t_us=1.5),
                               "t_us must be an integer, got 1.5"),
    "features-t-us-bool": ("features --frames {bad}", _frame_row(t_us=True),
                           "t_us must be an integer, got True"),
    "features-w-fraction": ("features --frames {bad}", _frame_row(w=640.7),
                            "w must be an integer, got 640.7"),
    "features-no-hand": ("features --frames {bad}", _frame_row(hand=None),
                         "frame has no hand"),
    "classify-feature-t-us-fraction": ("classify --features {bad}",
                                       {**_FEATURE_ROW, "t_us": 1.5},
                                       "t_us must be an integer, got 1.5"),
    # non-finite numbers that were taken as they came
    "classify-features-nan": ("classify --features {bad} --model {model}",
                              {**_FEATURE_ROW, "fingers": [0.0, NAN, 0.0, 0.0, 0.0]},
                              "feature row must be finite"),
    "classify-features-infinity": ("classify --features {bad}",
                                   {**_FEATURE_ROW, "euler": [0.0, -INF, 0.0]},
                                   "feature row must be finite"),
    # angles outside the ranges features writes, which classified as OpenPalm
    "classify-features-negative-curls": ("classify --features {bad}",
                                         {**_FEATURE_ROW, "fingers": [-7] * 5},
                                         "feature row must be finite and in the ranges"),
    "classify-features-pitch-past-half-pi": ("classify --features {bad} --model {model}",
                                             {**_FEATURE_ROW, "euler": [0.0, 1.6, 0.0]},
                                             "feature row must be finite and in the ranges"),
    "classify-features-spread-past-pi": ("classify --features {bad}",
                                         {**_FEATURE_ROW, "pairs": [0.5, 0.5, 0.5, 3.2]},
                                         "feature row must be finite and in the ranges"),
    "train-learning-rate-nan": ("train --data {frames} --out {out} --config {bad}",
                                {"learning_rate": NAN},
                                "learning_rate must be a number in (0, inf), got nan"),
    "train-gamma-infinity": ("train --data {frames} --out {out} --config {bad}",
                             {"gamma": INF}, "gamma must be a number in [0, inf), got inf"),
    "classify-model-nan-weight": (
        "classify --frames {frames} --model {bad}",
        {**_MODEL, "layers": [{**_MODEL["layers"][0], "w": [[NAN] * 12] * 50},
                              *_MODEL["layers"][1:]]},
        "non-finite weights or biases"),
    "classify-gestures-lo-deg-nan": ("classify --frames {frames} --gestures {bad}",
                                     _term_with(3, 5, lo_deg=NAN),
                                     "lo_deg must be a number in (-inf, inf), got nan"),
    # JSON integers too large for a float, which raised OverflowError; the
    # message shows the first digits and the digit count
    **{f"{argv.split()[0]}-score-huge": (argv, _hand_row(score=HUGE),
                                         "score must be a number in [0, 1], "
                                         "got 10000000...(401 digits)")
       for argv in ("features --frames {bad}", "classify --frames {bad}",
                    "train --data {bad} --config {train} --out {out}",
                    "calibrate --model {model} --negatives {bad} --fpr 0.1 --out {out}",
                    "lift --frames {bad}",
                    "stream --frames {bad} --pipeline {pipe}")},
    # a misspelt kp3d that used to read as a 2D-only hand
    **{f"{argv.split()[0]}-kp3D": (argv, _misspelt_kp3d_row(),
                                   "unknown hand keys: ['kp3D']")
       for argv in ("features --frames {bad}", "stream --frames {bad} --pipeline {pipe}",
                    "lift --frames {bad}")},
    "lift-w-huge": ("lift --frames {bad}", _frame_row(w=HUGE),
                    "w must be an integer in [1, inf), got 10000000...(401 digits)"),
    "lift-h-huge": ("lift --frames {bad}", _frame_row(h=HUGE),
                    "h must be an integer in [1, inf), got 10000000...(401 digits)"),
    **{f"{argv.split()[0]}-t-us-huge": (argv, _frame_row(t_us=HUGE),
                                        "t_us must be an integer in (-inf, inf), "
                                        "got 10000000...(401 digits)")
       for argv in ("features --frames {bad}", "stream --frames {bad} --pipeline {pipe}")},
    **{f"synth-{key.replace('_', '-')}-huge": ("synth --out {out} --config {bad}",
                                               {key: value}, f"{key} must be {kind}, got "
                                               "10000000...(401 digits)")
       for key, value, kind in (("width", HUGE, "an integer in [1, inf)"),
                                ("height", HUGE, "an integer in [1, inf)"),
                                ("noise_px", HUGE, "a number in [0, inf)"),
                                ("tz_range", [0.4, HUGE], "a number in (-inf, inf)"))},
    **{f"train-{key.replace('_', '-')}-huge": (
        "train --data {frames} --out {out} --config {bad}", {key: HUGE},
        f"{key} must {kind}")
       for key, kind in (("learning_rate", "be a number in (0, inf), got 10000000...(401 digits)"),
                         ("gamma", "be a number in [0, inf), got 10000000...(401 digits)"),
                         ("alpha", "be a number in (-inf, inf), got 10000000...(401 digits)"))},
    "stream-max-detect-hz-huge": ("stream --frames {frames} --pipeline {bad}",
                                  {**_PIPE, "max_detect_hz": HUGE},
                                  "max_detect_hz must be a number in (0, inf], "
                                  "got 10000000...(401 digits)"),
}


def test_an_oversized_integer_is_quoted_short(tmp_path, capsys, monkeypatch):
    # the message used to repeat all 401 digits, a line of over 480 characters
    monkeypatch.chdir(tmp_path)
    with open("f.jsonl", "w") as fh:
        fh.write(json.dumps(_frame_row(w=HUGE)) + "\n")
    assert run("lift", "--frames", "f.jsonl") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: f.jsonl:1: ") and err.count("\n") == 1, err
    assert "got 10000000...(401 digits)\n" in err
    assert len(err) < 200


@pytest.fixture(scope="module")
def good_files(corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("good")
    pipe, train_cfg, model = root / "pipe.json", root / "train.json", root / "model.json"
    pipe.write_text(json.dumps(_PIPE))
    train_cfg.write_text(json.dumps({"epochs": 1}))
    model.write_text(json.dumps(_MODEL))
    return {"frames": corpus, "pipe": pipe, "train": train_cfg, "model": model}


@pytest.mark.parametrize("argv, content, expect", list(BAD_INPUTS.values()),
                         ids=list(BAD_INPUTS))
def test_bad_input_exits_2_with_one_line(good_files, tmp_path, capsys, argv, content,
                                         expect):
    bad = tmp_path / "bad.json"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    elif content is not None:
        bad.write_text(json.dumps(content) + "\n")
    paths = {**good_files, "bad": bad, "out": tmp_path / "out.json",
             "nodir": tmp_path / "no-such-dir"}
    argv = argv.format(**paths).split()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert expect in err
    # the file at fault: a referenced classifier file, a target in a
    # missing directory, or else the bad file itself
    if isinstance(content, dict) and "classifier_ref" in content:
        at_fault = content["classifier_ref"]
    else:
        at_fault = next((a for a in argv if a.startswith(str(paths["nodir"]))), str(bad))
    assert at_fault in err, err


# an empty path names no file; it is not an option left out. '' stands for
# the empty argument, {feats} for unlabeled feature rows (negatives)
EMPTY_PATHS = {
    "classify-model": ("classify --features {feats} --model ''", "cannot read"),
    "lift-model": ("lift --frames {frames} --model ''", "cannot read"),
    "synth-config": ("synth --out {out} --per-gesture 1 --config ''", "cannot read"),
    "train-config": ("train --data {frames} --out {out} --config ''", "cannot read"),
    "calibrate-out": ("calibrate --model {model} --negatives {feats} --fpr 0.1 --out ''",
                      "cannot write"),
    "stream-stats": ("stream --frames {frames} --pipeline {pipe} --stats ''",
                     "cannot write"),
    "features-out": ("features --frames {frames} --out ''", "cannot write"),
}


@pytest.mark.parametrize("argv, expect", list(EMPTY_PATHS.values()), ids=list(EMPTY_PATHS))
def test_empty_path_exits_2_with_one_line(good_files, tmp_path, capsys, monkeypatch, argv,
                                          expect):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    feats, model = work / "feats.jsonl", work / "model.json"
    feats.write_text(json.dumps(_FEATURE_ROW) + "\n")
    model.write_bytes(good_files["model"].read_bytes())
    argv = argv.format(**{**good_files, "feats": feats, "model": model,
                          "out": work / "out.json"}).split()
    assert run(*("" if a == "''" else a for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {expect} ") and err.count("\n") == 1, err
    # nothing written: no output, no new file beside the working directory,
    # and calibrate leaves --model as it was
    assert sorted(os.listdir(work)) == ["feats.jsonl", "model.json"]
    assert os.listdir(tmp_path) == ["work"]
    assert model.read_bytes() == good_files["model"].read_bytes()


@pytest.mark.parametrize("handedness", ["Right", "Left"])
def test_feature_rows_are_accepted_back(tmp_path, handedness):
    # every row features writes lies in the ranges classify --features takes
    cfg, data = tmp_path / "synth.json", tmp_path / "data.jsonl"
    cfg.write_text(json.dumps({"seed": 3, "handedness": handedness}))
    assert run("synth", "--out", data, "--per-gesture", 5, "--config", cfg) == 0
    feats, preds = tmp_path / "feats.jsonl", tmp_path / "preds.jsonl"
    assert run("features", "--frames", data, "--out", feats) == 0
    assert run("classify", "--features", feats, "--out", preds) == 0
    assert len(read_jsonl(preds)) == 5 * len(ALL_GESTURES)
    # and so do rows on the closed edges of every range
    edges = tmp_path / "edges.jsonl"
    edges.write_text("".join(json.dumps({"euler": [s * np.pi, s * np.pi / 2.0, s * np.pi],
                                         "fingers": [e] * 5, "pairs": [e] * 4}) + "\n"
                             for s, e in ((-1.0, 0.0), (1.0, np.pi))))
    assert run("classify", "--features", edges, "--out", preds) == 0


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A long run of 840 frames, a short one of 5, a pipeline config, and a
    trained model with negatives to calibrate it on."""
    root = tmp_path_factory.mktemp("runs")
    long, short, pipe = root / "long.jsonl", root / "short.jsonl", root / "pipe.json"
    assert run("synth", "--out", long, "--per-gesture", 40, "--seed", 5) == 0
    short.write_text("".join(long.read_text().splitlines(keepends=True)[:5]))
    pipe.write_text(json.dumps(_PIPE))
    negs, model, train_cfg = root / "negs.jsonl", root / "model.json", root / "train.json"
    assert run("synth", "--out", negs, "--per-gesture", 3, "--seed", 6,
               "--gestures", ",".join(NEGATIVE_GESTURES)) == 0
    train_cfg.write_text(json.dumps({"epochs": 1}))
    assert run("train", "--data", long, "--out", model, "--config", train_cfg) == 0
    return {"long": long, "short": short, "pipe": pipe, "negs": negs, "model": model}


@pytest.mark.parametrize("length, argv", [
    *((length, argv) for argv in ("features --frames {frames}",
                                  "stream --frames {frames} --pipeline {pipe}")
      for length in ("long", "short")),
    # tau is one short line, printed after the model file is written
    ("short", "calibrate --model {model} --negatives {negs} --fpr 0.1"),
])
def test_closed_stdout_exits_2_without_traceback(runs, tmp_path, capsys, length, argv):
    model = tmp_path / "model.json"
    model.write_bytes(runs["model"].read_bytes())
    argv = argv.format(frames=runs[length], pipe=runs["pipe"], model=model,
                       negs=runs["negs"]).split()
    assert run(*argv) == 0
    whole = capsys.readouterr().out.encode()
    written = model.read_bytes()
    model.write_bytes(runs["model"].read_bytes())
    # stdout block-buffered, as it is by default on a pipe
    command, env = handgest_command()
    env = {k: v for k, v in env.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([*command, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if length == "long":
        # the reader leaves with more than a pipe buffer unread: a write fails
        assert len(whole) > 65536
        proc.stdout.read(100)
    else:
        # the reader leaves before the first byte, and the output fits in
        # stdout's buffer: only the flush on leaving can fail
        assert len(whole) < io.DEFAULT_BUFFER_SIZE
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    if argv[0] == "calibrate":
        # the model file holds tau, saved before printing it failed
        assert model.read_bytes() == written
        assert whole == f"{load_model(model).tau:.6f}\n".encode() != b"0.000000\n"


@pytest.mark.parametrize("argv", ["classify --frames f.jsonl --config x.json",
                                  "lift --frames f.jsonl --seed 3"])
def test_seed_and_config_belong_to_synth_and_train(capsys, argv):
    # other subcommands would accept and silently ignore them
    with pytest.raises(SystemExit) as exc:
        run(*argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "unrecognized arguments" in err


@pytest.mark.parametrize("count", [0, -1])
def test_synth_rejects_a_count_below_one(tmp_path, capsys, count):
    # it used to write an empty dataset and exit 0
    out = tmp_path / "data.jsonl"
    assert run("synth", "--out", out, "--per-gesture", count) == 2
    err = capsys.readouterr().err
    assert err == f"error: per_gesture must be an integer in [1, inf), got {count}\n"
    assert not out.exists()


@pytest.mark.parametrize("names", [",", " , ", ""])
def test_synth_rejects_an_empty_gesture_list(tmp_path, capsys, names):
    # "," and " , " wrote an empty dataset and "" wrote all 21 gestures
    out = tmp_path / "data.jsonl"
    assert run("synth", "--out", out, "--gestures", names) == 2
    assert capsys.readouterr().err == "error: gestures must name at least one gesture\n"
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["synth --out {out} --per-gesture 1",
                                 "train --data {data} --out {out}"])
def test_seed_too_large_for_a_float_exits_2(corpus, tmp_path, capsys, cmd):
    # a config seed of 10**400 exits 2; the same seed on the command line
    # used to run, and now meets the config's own seed rule
    out = tmp_path / "out.json"
    argv = cmd.format(out=out, data=corpus).split() + ["--seed", str(HUGE)]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err == ("error: seed must be an integer in [0, inf), "
                   "got 10000000...(401 digits)\n")
    assert not out.exists()


def test_classify_model_and_gestures_exclude_each_other(capsys):
    # --gestures used to be silently ignored when --model was given
    with pytest.raises(SystemExit) as exc:
        run("classify", "--frames", "f.jsonl", "--model", "m.json", "--gestures", "g.json")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "not allowed with argument" in err


def test_classify_features_and_frames_exclude_each_other(capsys):
    # --frames used to be silently ignored when --features was given
    with pytest.raises(SystemExit) as exc:
        run("classify", "--features", "f.jsonl", "--frames", "f.jsonl")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "not allowed with argument" in err
    with pytest.raises(SystemExit) as exc:
        run("classify", "--model", "m.json")
    assert exc.value.code == 2
    assert "one of the arguments --features --frames is required" in capsys.readouterr().err


def test_main_builds_its_parser_once():
    # main rebuilt the parser on every call, 1.6 ms each
    assert build_parser() is build_parser()


# runs main on each argv in turn and prints [exit code, stdout, stderr] of
# each, then whether the parser was built only at the first call
_IN_ONE_PROCESS = """\
import contextlib, io, json, sys
from handgest import cli
built = [cli.build_parser.cache_info().currsize]
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
built.append(cli.build_parser.cache_info().misses)
print(json.dumps([results, built]))
"""


def test_commands_in_one_process_run_as_they_do_alone(tmp_path):
    # a usage error, then lift (a row it fits, one it notes) and classify:
    # each on the parser the one before it used
    rows = [_frame_row(t_us=t) for t in (0, 33_333)]
    (tmp_path / "frames.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    for row in rows:
        del row["hand"]["kp3d"]
    rows[1]["hand"]["kp2d"] = [[320.0, 240.0]] * 21
    (tmp_path / "frames-2d.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    argvs = [["lift", "--frames", "frames-2d.jsonl", "--seed", "3"],
             ["lift", "--frames", "frames-2d.jsonl"],
             ["classify", "--frames", "frames.jsonl"]]
    alone = [run_handgest(*argv, cwd=tmp_path) for argv in argvs]
    alone = [[proc.returncode, proc.stdout, proc.stderr] for proc in alone]
    proc = subprocess.run([sys.executable, "-c", _IN_ONE_PROCESS, json.dumps(argvs)],
                          cwd=tmp_path, env=handgest_command()[1], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    together, built = json.loads(proc.stdout)
    assert built == [0, 1]
    assert together == alone
    assert [code for code, _, _ in alone] == [2, 0, 0]
    assert alone[0][2].startswith("usage: handgest ")
    assert alone[1][2].startswith("row 1 (t_us 33333): ") and alone[1][1].count("\n") == 2
    assert alone[2][1].count("\n") == 2


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def test_importing_the_package_leaves_numpy_unloaded():
    # cli pins the BLAS threads, which works only while numpy is not loaded
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    code = ("import os, sys, handgest\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
            "from handgest import cli\n"
            f"print(*(os.environ[v] for v in {THREAD_VARS!r}))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"] * len(THREAD_VARS)


def test_decode_errors_name_path_and_line(tmp_path, capsys):
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(_BAD_UTF8)
    assert run("features", "--frames", frames) == 2
    assert f"{frames}:2: " in capsys.readouterr().err
    cfg = tmp_path / "synth.json"
    cfg.write_bytes(b'{\n"seed": 1,\n"width": \xff\n}')
    assert run("synth", "--out", tmp_path / "x.jsonl", "--config", cfg) == 2
    assert f"{cfg}:3: " in capsys.readouterr().err


# a file of three rows whose third is bad: every command names PATH:3 and
# keeps the exit code of the error underneath
_ROW_COMMANDS = {
    "features": "features --frames {bad}",
    "classify-rules": "classify --frames {bad}",
    "classify-model": "classify --frames {bad} --model {model}",
    "train": "train --data {bad} --out {out}",
    "calibrate": "calibrate --model {model} --negatives {bad} --fpr 0.1 --out {out}",
    "lift": "lift --frames {bad} --out {out}",
    "stream": "stream --frames {bad} --pipeline {pipe} --out {out}",
}
_FEATURE_COMMANDS = ("features", "classify-rules", "classify-model", "train", "calibrate")
# a negative label, so calibrate takes the first two rows
_GOOD_ROW = _frame_row(label="OK")
_COLLAPSED = [[1.0, 2.0, 3.0]] * 21


def _third(**fields):
    """A third row after two good ones, with fields of the frame and of its
    hand replaced; None deletes a field."""
    row = copy.deepcopy(_GOOD_ROW)
    row["t_us"] = 66_666
    for key, value in fields.items():
        target = row if key in row else row["hand"]
        if value is None:
            del target[key]
        else:
            target[key] = value
    return row


_ROW_CASES = {
    **{f"{cmd}-{kind}": (cmd, row, 2)
       for cmd in _ROW_COMMANDS
       for kind, row in (("kp2d-20", _third(kp2d=_GOOD_ROW["hand"]["kp2d"][:20])),
                         ("t-us-fraction", _third(t_us=1.5)),
                         ("w-fraction", _third(w=1.5)),
                         ("score-bool", _third(score=True)))},
    **{f"{cmd}-unknown-label": (cmd, _third(label="Wave"), 2) for cmd in _FEATURE_COMMANDS},
    **{f"{cmd}-collapsed-palm": (cmd, _third(kp3d=_COLLAPSED), 3)
       for cmd in _FEATURE_COMMANDS},
    "train-no-label": ("train", _third(label=None), 2),
    "calibrate-positive-label": ("calibrate", _third(label="Victory"), 2),
    "stream-timestamp-out-of-order": ("stream", _third(t_us=1), 2),
    "eval-pred-unknown-label": ("eval --pred {bad} --truth {good}", {"label": "Wave"}, 2),
    "eval-pred-outside-classes": ("eval --pred {bad} --truth {good}", {"label": "OK"}, 2),
    "eval-truth-unknown-label": ("eval --pred {good} --truth {bad}", {"label": "Wave"}, 2),
    "eval-truth-no-label": ("eval --pred {good} --truth {bad}", {"t_us": 0}, 2),
}


@pytest.mark.parametrize("cmd, third, code", list(_ROW_CASES.values()), ids=list(_ROW_CASES))
def test_row_errors_name_path_and_line(good_files, tmp_path, capsys, cmd, third, code):
    bad, good = tmp_path / "bad.jsonl", tmp_path / "good.jsonl"
    if cmd.startswith("eval"):
        good.write_text(json.dumps({"label": "OpenPalm"}) + "\n")
        first = [{"label": "OpenPalm"}, {"label": "Negative"}]
    else:
        cmd = _ROW_COMMANDS[cmd]
        first = [_GOOD_ROW, {**_GOOD_ROW, "t_us": 33_333}]
    bad.write_text("".join(json.dumps(row) + "\n" for row in first + [third]))
    argv = cmd.format(**good_files, bad=bad, good=good, out=tmp_path / "out.json").split()
    assert run(*argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: " if code == 2 else "numerical error: ")
    assert err.count("\n") == 1 and f"{bad}:3: " in err, err


# tests/test_installed.py's synth-range-wider-than-a-float row holds x_range
@pytest.mark.parametrize("config, words", [
    ({"y_range": [-1e308, 1e308]}, "y_range must have a finite high - low"),
    ({"noise_px": 1e308}, "beyond a float's range"),
    ({"noise_m": 1e308}, "beyond a float's range"),
    ({"noise_px": 1e306}, "beyond a float's range"),
    ({"x_range": [1e305, 1e305]}, "beyond a float's range"),
], ids=["y-range", "noise-px", "noise-m", "noise-px-rounds-to-inf", "x-far-off"])
def test_synth_past_a_float_exits_2_and_writes_nothing(tmp_path, config, words):
    # these exited 1 with an OverflowError, or 0 with rows of Infinity that
    # features then rejected
    cfg, out = tmp_path / "synth.json", tmp_path / "data.jsonl"
    cfg.write_text(json.dumps(config))
    # in its own process, so numpy's warnings reach its stderr rather than
    # pytest's warning capture
    proc = run_handgest("synth", "--config", cfg, "--out", out, "--per-gesture", 2)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert words in proc.stderr, proc.stderr
    assert not out.exists()


# -- numbers too large to measure: one error line, never a numpy warning ------

def _run_caught(*argv):
    """(exit code, numpy warnings) of one in-process run."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(*argv)
    return code, [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _scaled_row(key, scale):
    """One dataset row whose hand's ``key`` keypoints are multiplied by ``scale``."""
    row = _frame_row()
    row["hand"][key] = [[v * scale for v in p] for p in row["hand"][key]]
    return row


def _far_tip_row():
    """One dataset row whose index fingertip is 1e300 times farther out."""
    row = _frame_row()
    row["hand"]["kp3d"][8] = [v * 1e300 for v in row["hand"]["kp3d"][8]]
    return row


_HUGE_KP3D = {"1e300": _scaled_row("kp3d", 1e300), "1e150": _scaled_row("kp3d", 1e150),
              "tip-1e300": _far_tip_row()}


@pytest.mark.parametrize("cmd", ["features", "classify"])
@pytest.mark.parametrize("row", list(_HUGE_KP3D.values()), ids=list(_HUGE_KP3D))
def test_keypoints_too_large_to_measure_exit_3_with_one_line(tmp_path, capsys, cmd, row):
    # features wrote a row of NaN (x 1e300) or a finite row of zero angles
    # (x 1e150, or an index curl of pi/2 for the far tip) and exited 0, and
    # classify said Negative, each after numpy's overflow warning
    frames = tmp_path / "huge.jsonl"
    frames.write_text(json.dumps(row) + "\n")
    code, caught = _run_caught(cmd, "--frames", frames)
    err = capsys.readouterr().err
    assert (code, caught) == (3, []), err
    assert err.startswith(f"numerical error: {frames}:1: ")
    assert err.endswith(" is not finite\n") and err.count("\n") == 1, err


@pytest.mark.parametrize("row", list(_HUGE_KP3D.values()), ids=list(_HUGE_KP3D))
def test_stream_leaves_a_frame_too_large_to_measure_unlabeled(tmp_path, capsys, row):
    frames, pipe, out = tmp_path / "huge.jsonl", tmp_path / "pipe.json", tmp_path / "out.jsonl"
    frames.write_text(json.dumps(row) + "\n")
    pipe.write_text(json.dumps(_PIPE))
    code, caught = _run_caught("stream", "--frames", frames, "--pipeline", pipe, "--out", out)
    assert (code, caught, capsys.readouterr().err) == (0, [], "")
    [result] = read_jsonl(out)
    assert (result["mode"], result["label"], result["actions"]) == ("Tracked", None, ["detect"])


@pytest.mark.parametrize("row, error", [
    (_scaled_row("kp2d", 1e300), DegenerateScale),
    (_frame_row(w=10 ** 300, h=10 ** 300), DivergedFit),
], ids=["kp2d-1e300", "image-1e300"])
def test_lift_names_why_a_row_too_large_to_measure_has_no_fit(tmp_path, capsys, row, error):
    # the kp2d row was noted "initial pose places the hand at or behind the
    # camera", the wide image "fit ended (no_descent) at inf px rms", each
    # after numpy's warnings
    frames, out = tmp_path / "huge.jsonl", tmp_path / "lifted.jsonl"
    frames.write_text(json.dumps(row) + "\n")
    code, caught = _run_caught("lift", "--frames", frames, "--out", out)
    err = capsys.readouterr().err
    assert (code, caught) == (0, []), err
    hand = frame_from_dict(row).hand
    with np.errstate(all="ignore"), pytest.raises(error) as raised:
        lifting.lift_keypoints(hand.kp2d, hand.handedness, default_hand_model(),
                               lifting.default_intrinsics(row["w"], row["h"]))
    assert str(raised.value).endswith(" is not finite")
    assert err == f"row 0 (t_us {row['t_us']}): {raised.value}\n"
    assert read_jsonl(out)[0]["hand"]["kp3d"] is None


def test_lift_note_of_a_fit_far_off_stays_short(tmp_path, capsys):
    # on a 10**150 px image the fit ends some 1e144 px off; the note wrote
    # that rms with :.2f, a 145-digit number in a 210-byte line
    frames, out = tmp_path / "huge.jsonl", tmp_path / "lifted.jsonl"
    frames.write_text(json.dumps(_frame_row(w=10 ** 150, h=10 ** 150)) + "\n")
    code, caught = _run_caught("lift", "--frames", frames, "--out", out)
    err = capsys.readouterr().err
    assert (code, caught) == (0, []), err
    assert err.startswith("row 0 (t_us 0): fit ended (") and err.count("\n") == 1, err
    assert err.endswith("e+144 px rms (limit 10.00)\n") and len(err) < 120, err
    assert read_jsonl(out)[0]["hand"]["kp3d"] is None


def test_lift_reads_an_integer_past_uint64_as_its_float(tmp_path, capsys):
    # kp2d[0][0] = 10**20 in digits exited 2 with "kp2d must hold numbers,
    # got dtype object", while 1e20 in the same place was read
    frames, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    runs = []
    for x in (10 ** 20, 1e20):
        kp2d = _frame_row()["hand"]["kp2d"]
        kp2d[0][0] = x
        frames.write_text(json.dumps(_hand_row(kp2d=kp2d)) + "\n")
        runs.append((run("lift", "--frames", frames, "--out", out), capsys.readouterr().err,
                     out.read_text()))
    assert runs[0] == runs[1] and runs[0][0] == 0, runs


@pytest.mark.parametrize("alpha", [2.0, [1, 1, 1, 1, 1, 1, 0.5]])
def test_train_config_alpha_number_or_per_class(corpus, tmp_path, alpha):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"epochs": 1, "alpha": alpha}))
    assert run("train", "--data", corpus, "--config", cfg,
               "--out", tmp_path / "model.json") == 0


# -- outputs go to a new file and move into place on success --

# commands that read --frames row by row and write --out as they go
_OUT_COMMANDS = {
    "features": "features --frames {frames} --out {out}",
    "classify": "classify --frames {frames} --out {out}",
    "lift": "lift --frames {frames} --out {out}",
    "stream": "stream --frames {frames} --pipeline {pipe} --out {out}",
}


def run_out_command(cmd, good_files, frames, out):
    return run(*_OUT_COMMANDS[cmd].format(**{**good_files, "frames": frames,
                                             "out": out}).split())


@pytest.mark.parametrize("cmd", list(_OUT_COMMANDS))
def test_out_may_name_the_input(good_files, tmp_path, cmd):
    # the reader keeps the old file open while the new one is written, so
    # the input is not truncated under it
    other, same = tmp_path / "other.jsonl", tmp_path / "same.jsonl"
    same.write_bytes(good_files["frames"].read_bytes())
    assert run_out_command(cmd, good_files, good_files["frames"], other) == 0
    assert run_out_command(cmd, good_files, same, same) == 0
    assert len(read_jsonl(other)) == 2 * len(ALL_GESTURES)
    assert same.read_bytes() == other.read_bytes()


_FAILING_RUNS = {
    **{f"{cmd}-t-us-fraction": (cmd, _third(t_us=1.5), 2) for cmd in _OUT_COMMANDS},
    **{f"{cmd}-collapsed-palm": (cmd, _third(kp3d=_COLLAPSED), 3)
       for cmd in ("features", "classify")},
}


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "missing"])
@pytest.mark.parametrize("cmd, third, code", list(_FAILING_RUNS.values()),
                         ids=list(_FAILING_RUNS))
def test_failed_command_leaves_the_output_alone(good_files, tmp_path, capsys, cmd, third,
                                                code, existing):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(row) + "\n"
                           for row in (_GOOD_ROW, {**_GOOD_ROW, "t_us": 33_333}, third)))
    outdir = tmp_path / "out"
    outdir.mkdir()
    out = outdir / "out.jsonl"
    if existing:
        out.write_bytes(b"previous output\n")
    assert run_out_command(cmd, good_files, bad, out) == code
    assert f"{bad}:3: " in capsys.readouterr().err
    if existing:
        assert out.read_bytes() == b"previous output\n"
    assert os.listdir(outdir) == (["out.jsonl"] if existing else [])
    # a run that succeeds leaves its output and no other file
    assert run_out_command(cmd, good_files, good_files["frames"], out) == 0
    assert os.listdir(outdir) == ["out.jsonl"]


@pytest.mark.parametrize("stats", ["no-such-dir/stats.json", ""], ids=["missing-dir", "empty"])
def test_unwritable_stats_leaves_stream_out_alone(good_files, tmp_path, capsys, stats):
    # the stats file goes into place first, so its failure leaves --out alone
    out = tmp_path / "stream.jsonl"
    out.write_bytes(b"previous output\n")
    stats = str(tmp_path / stats) if stats else ""
    assert run("stream", "--frames", good_files["frames"], "--pipeline", good_files["pipe"],
               "--out", out, "--stats", stats) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1, err
    assert out.read_bytes() == b"previous output\n"
    assert os.listdir(tmp_path) == ["stream.jsonl"]


@pytest.fixture(scope="module")
def feature_bytes(corpus, tmp_path_factory):
    """What `features` writes for the shared corpus to a plain new file."""
    out = tmp_path_factory.mktemp("feats") / "feats.jsonl"
    assert run("features", "--frames", corpus, "--out", out) == 0
    return out.read_bytes()


def test_symlinked_out_is_written_through_the_link(corpus, tmp_path, feature_bytes):
    real, link = tmp_path / "real.jsonl", tmp_path / "link.jsonl"
    real.write_text("old\n")
    link.symlink_to(real.name)
    assert run("features", "--frames", corpus, "--out", link) == 0
    assert link.is_symlink() and os.readlink(link) == real.name
    assert real.read_bytes() == feature_bytes
    # a link to a file not there yet creates that file
    dangling = tmp_path / "dangling.jsonl"
    dangling.symlink_to("new.jsonl")
    assert run("features", "--frames", corpus, "--out", dangling) == 0
    assert dangling.is_symlink() and (tmp_path / "new.jsonl").read_bytes() == feature_bytes
    assert sorted(os.listdir(tmp_path)) == ["dangling.jsonl", "link.jsonl", "new.jsonl",
                                            "real.jsonl"]


def test_hard_linked_out_is_written_in_place(corpus, tmp_path, feature_bytes):
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    first.write_text("old\n")
    os.link(first, second)
    assert run("features", "--frames", corpus, "--out", first) == 0
    assert os.path.samefile(first, second)
    assert first.read_bytes() == second.read_bytes() == feature_bytes


@pytest.mark.parametrize("cmd", list(_OUT_COMMANDS))
def test_hard_linked_out_may_name_the_input(good_files, tmp_path, cmd):
    # the rows go to a new file while the input is read, and are copied
    # into the shared file only when the command succeeds
    other, same, link = (tmp_path / name for name in ("other.jsonl", "same.jsonl",
                                                       "link.jsonl"))
    same.write_bytes(good_files["frames"].read_bytes())
    os.link(same, link)
    assert run_out_command(cmd, good_files, good_files["frames"], other) == 0
    assert run_out_command(cmd, good_files, same, same) == 0
    assert len(read_jsonl(other)) == 2 * len(ALL_GESTURES)
    assert os.path.samefile(same, link)
    assert same.read_bytes() == other.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "other.jsonl", "same.jsonl"]


@pytest.mark.parametrize("cmd", list(_OUT_COMMANDS))
def test_failed_command_leaves_a_hard_linked_output_alone(good_files, tmp_path, capsys,
                                                         cmd):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(row) + "\n" for row in (
        _GOOD_ROW, {**_GOOD_ROW, "t_us": 33_333}, _third(t_us=1.5))))
    outdir = tmp_path / "out"
    outdir.mkdir()
    out, link = outdir / "out.jsonl", outdir / "link.jsonl"
    out.write_bytes(b"previous output\n")
    os.link(out, link)
    assert run_out_command(cmd, good_files, bad, out) == 2
    assert f"{bad}:3: " in capsys.readouterr().err
    assert out.read_bytes() == link.read_bytes() == b"previous output\n"
    assert os.path.samefile(out, link)
    assert sorted(os.listdir(outdir)) == ["link.jsonl", "out.jsonl"]


def test_fifo_out_is_written_in_place(corpus, tmp_path, feature_bytes):
    fifo = tmp_path / "feats.fifo"
    os.mkfifo(fifo)
    received = []

    def drain():
        with open(fifo, "rb") as fh:
            received.append(fh.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    try:
        assert run("features", "--frames", corpus, "--out", fifo) == 0
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [feature_bytes]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_out_keeps_the_mode_of_its_target(corpus, tmp_path, feature_bytes):
    out = tmp_path / "feats.jsonl"
    out.write_text("old\n")
    out.chmod(0o640)
    assert run("features", "--frames", corpus, "--out", out) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert out.read_bytes() == feature_bytes
    # a new target gets 0o666 less the umask, as open(path, "w") gives it
    umask = os.umask(0)
    os.umask(umask)
    new = tmp_path / "new.jsonl"
    assert run("features", "--frames", corpus, "--out", new) == 0
    assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
def test_read_only_out_exits_2_and_stays(corpus, tmp_path, capsys):
    out = tmp_path / "feats.jsonl"
    out.write_text("old\n")
    out.chmod(0o444)
    assert run("features", "--frames", corpus, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1, err
    assert out.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["feats.jsonl"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_out_naming_an_open_pipe_is_written_in_place(corpus, feature_bytes):
    # /dev/stdout is such a path: it resolves to a pipe that has no name
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, "rb") as fh:
        try:
            assert run("features", "--frames", corpus,
                       "--out", f"/proc/self/fd/{write_end}") == 0
        finally:
            os.close(write_end)
        assert fh.read() == feature_bytes
