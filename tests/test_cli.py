"""End-to-end runs of the handgest command line."""

import json

import numpy as np
import pytest

from handgest.cli import main
from handgest.features import feature_vector
from handgest.harness import read_dataset
from handgest.heuristic import classify_heuristic, default_config
from handgest.labels import ALL_GESTURES, CLASSES
from handgest.mlp import load_model


def run(*argv):
    return main([str(a) for a in argv])


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Small shared dataset: 2 samples per gesture, 42 rows."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.jsonl"
    assert run("synth", "--out", data, "--per-gesture", 2, "--seed", 5) == 0
    return data


def test_synth_writes_labeled_dataset(corpus):
    frames, labels = read_dataset(corpus)
    assert len(frames) == 2 * len(ALL_GESTURES)
    assert set(labels) == set(ALL_GESTURES)
    assert all(f.hand is not None for f in frames)


def test_synth_gesture_subset(tmp_path):
    out = tmp_path / "subset.jsonl"
    assert run("synth", "--out", out, "--per-gesture", 3,
               "--gestures", "Victory,CallMe") == 0
    _, labels = read_dataset(out)
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
    frames, _ = read_dataset(out)
    assert (frames[0].w, frames[0].h) == (320, 200)
    assert run("synth", "--out", out, "--config", cfg,
               "--gestures", "OpenPalm", "--per-gesture", 1, "--seed", 10) == 0
    frames10, _ = read_dataset(out)
    assert not np.allclose(frames10[0].hand.kp2d, frames[0].hand.kp2d)


def test_features_match_library(corpus, tmp_path):
    out = tmp_path / "feats.jsonl"
    assert run("features", "--frames", corpus, "--out", out) == 0
    rows = read_jsonl(out)
    frames, labels = read_dataset(corpus)
    assert len(rows) == len(frames)
    for row, frame, label in zip(rows, frames, labels):
        assert row["schema"] == "features/1"
        assert row["label"] == label
        assert row["t_us"] == frame.t_us
        fv = feature_vector(frame.hand.kp3d, frame.hand.handedness)
        np.testing.assert_allclose(row["euler"],
                                   [fv.euler.yaw, fv.euler.pitch, fv.euler.roll])
        np.testing.assert_allclose(row["fingers"], fv.finger_angles)
        np.testing.assert_allclose(row["pairs"], fv.pair_angles)


def test_classify_heuristic_from_features(corpus, tmp_path):
    feats = tmp_path / "feats.jsonl"
    preds = tmp_path / "preds.jsonl"
    assert run("features", "--frames", corpus, "--out", feats) == 0
    assert run("classify", "--features", feats, "--out", preds) == 0
    rows = read_jsonl(preds)
    frames, _ = read_dataset(corpus)
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


def test_frames_without_3d_exit_2(tmp_path):
    frames = tmp_path / "no3d.jsonl"
    kp2d = [[float(i), float(i)] for i in range(21)]
    frames.write_text(json.dumps(
        {"t_us": 0, "w": 640, "h": 480,
         "hand": {"handedness": "Right", "score": 1.0,
                  "kp2d": kp2d, "kp3d": None}}) + "\n")
    assert run("features", "--frames", frames) == 2


def test_degenerate_geometry_exits_3(tmp_path):
    frames = tmp_path / "flat.jsonl"
    point = [[1.0, 2.0, 3.0]] * 21
    kp2d = [[100.0, 100.0]] * 21
    frames.write_text(json.dumps(
        {"t_us": 0, "w": 640, "h": 480,
         "hand": {"handedness": "Right", "score": 1.0,
                  "kp2d": kp2d, "kp3d": point}}) + "\n")
    assert run("features", "--frames", frames) == 3
