"""Flow-control state machine: detect throttling and tracking state."""

import io
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from handgest.errors import MalformedConfig, Missing3D, NonMonotonicTimestamp, ValidationError
from handgest.features import feature_vector
from handgest.harness import SynthConfig, synth_pose
from handgest.mlp import LAYER_SIZES, MlpModel, save_model
from handgest.pipeline import (
    CLASSIFIER_KINDS,
    TRACKED,
    UNTRACKED,
    FrameOutput,
    PipelineConfig,
    PipelineStats,
    initial_state,
    load_pipeline_config,
    make_classifier,
    make_predictor,
    run_stream,
    step,
)
from handgest.skeleton import HandFrame

VICTORY_HAND = synth_pose("Victory", SynthConfig(seed=0))[0].hand


def frame(t_us, hand=None, score=None):
    if score is not None:
        hand = VICTORY_HAND.__class__(
            VICTORY_HAND.handedness, score, VICTORY_HAND.kp2d, VICTORY_HAND.kp3d)
    return HandFrame(t_us=int(t_us), w=640, h=480, hand=hand)


def stub(label="Victory"):
    return lambda frame: label


def stream_of(spec, fps=30.0):
    # spec: string of 'h' (hand) and '.' (empty), one frame per tick
    dt = 1e6 / fps
    return [frame(round(i * dt), VICTORY_HAND if ch == "h" else None)
            for i, ch in enumerate(spec)]


def test_untracked_throttles_detection():
    cfg = PipelineConfig(max_detect_hz=10.0)
    state = initial_state()
    state, out = step(state, frame(0, VICTORY_HAND, score=0.3), cfg, stub())
    assert out.actions == ("detect",)        # low score: no takeover
    assert state.mode == UNTRACKED
    # 10 ms later, period is 100 ms: skipped entirely
    state, out = step(state, frame(10_000, VICTORY_HAND), cfg, stub())
    assert out.actions == ()
    assert out.label is None
    # 150 ms after the first attempt: allowed again, hand usable now
    state, out = step(state, frame(150_000, VICTORY_HAND), cfg, stub())
    assert out.actions == ("detect", "classify")
    assert out.label == "Victory"
    assert state.mode == TRACKED


def test_tracking_drops_after_consecutive_misses():
    cfg = PipelineConfig(max_detect_hz=10.0, track_loss_frames=3)
    state = initial_state()
    state, _ = step(state, frame(0, VICTORY_HAND), cfg, stub())
    assert state.mode == TRACKED
    state, out1 = step(state, frame(33_000), cfg, stub())
    assert state.mode == TRACKED and out1.mode == TRACKED
    state, out2 = step(state, frame(66_000), cfg, stub())
    assert state.mode == TRACKED
    state, out3 = step(state, frame(99_000), cfg, stub())
    assert state.mode == UNTRACKED and out3.mode == UNTRACKED
    assert state.consecutive_misses == 0
    # a usable hand in between resets the miss counter
    state2 = initial_state()
    state2, _ = step(state2, frame(0, VICTORY_HAND), cfg, stub())
    state2, _ = step(state2, frame(33_000), cfg, stub())
    state2, _ = step(state2, frame(66_000, VICTORY_HAND), cfg, stub())
    state2, _ = step(state2, frame(99_000), cfg, stub())
    state2, _ = step(state2, frame(132_000), cfg, stub())
    assert state2.mode == TRACKED


def test_throttle_survives_tracking_loss():
    # last_detect_us keeps throttling after the mode flips back
    cfg = PipelineConfig(max_detect_hz=1.0, track_loss_frames=1)
    state = initial_state()
    state, _ = step(state, frame(0, VICTORY_HAND), cfg, stub())
    state, _ = step(state, frame(10_000), cfg, stub())   # lost immediately
    assert state.mode == UNTRACKED
    state, out = step(state, frame(20_000, VICTORY_HAND), cfg, stub())
    assert out.actions == ()   # 1 Hz budget spent at t=0
    state, out = step(state, frame(1_000_001, VICTORY_HAND), cfg, stub())
    assert out.actions == ("detect", "classify")


def test_no_classify_before_successful_detect():
    cfg = PipelineConfig(max_detect_hz=1000.0)
    state = initial_state()
    for t in range(0, 10_000_000, 100_000):
        state, out = step(state, frame(t), cfg, stub())
        assert out.label is None
        assert "classify" not in out.actions


def test_timestamps_must_increase():
    cfg = PipelineConfig(max_detect_hz=10.0)
    state = initial_state()
    state, _ = step(state, frame(1000), cfg, stub())
    with pytest.raises(NonMonotonicTimestamp):
        step(state, frame(1000), cfg, stub())
    with pytest.raises(NonMonotonicTimestamp):
        step(state, frame(999), cfg, stub())


def test_run_stream_throttle_bound_no_hand():
    cfg = PipelineConfig(max_detect_hz=3.0)
    outputs, stats = run_stream(stream_of("." * 300, fps=30.0), cfg, stub())
    assert len(outputs) == 300
    assert stats.detect_invocations <= 31   # ceil(10 s x 3 Hz) + 1
    assert stats.classify_invocations == 0
    assert stats.untracked_frames == 300


def test_run_stream_steady_state_classifies_every_frame():
    cfg = PipelineConfig(max_detect_hz=5.0)
    outputs, stats = run_stream(stream_of("h" * 120, fps=30.0), cfg, stub())
    assert stats.detect_invocations == 1
    assert stats.classify_invocations == 120
    assert all(o.label == "Victory" for o in outputs)
    assert stats.tracked_frames == 120


def _zero_thumb_segment(kp3d):
    kp3d = kp3d.copy()
    kp3d[2] = kp3d[1]
    return kp3d


@pytest.mark.parametrize("kp3d", [None, np.ones((21, 3)),
                                  _zero_thumb_segment(VICTORY_HAND.kp3d)],
                         ids=["missing-3d", "degenerate-palm", "zero-segment"])
def test_unclassifiable_tracked_frame_gets_a_null_label(kp3d):
    # with track_loss_frames=1 a miss would drop tracking at once
    cfg = PipelineConfig(max_detect_hz=5.0, track_loss_frames=1)
    classifier = make_classifier(cfg)
    frames = stream_of("hhhhh")
    frames[2] = replace(frames[2], hand=replace(VICTORY_HAND, kp3d=kp3d))
    outputs, stats = run_stream(frames, cfg, classifier)
    label = classifier(frames[0])
    assert [o.label for o in outputs] == [label, label, None, label, label]
    assert (outputs[2].mode, outputs[2].actions) == (TRACKED, ())
    assert all(o.mode == TRACKED for o in outputs)
    assert (stats.classify_invocations, stats.tracked_frames) == (4, 5)


def test_run_stream_empty():
    outputs, stats = run_stream([], PipelineConfig(max_detect_hz=5.0), stub())
    assert outputs == []
    assert stats.detect_invocations == 0
    assert stats.classify_invocations == 0


def test_run_stream_equals_manual_fold():
    rng = np.random.default_rng(5)
    spec = "".join(rng.choice(["h", "."], p=[0.7, 0.3]) for _ in range(200))
    frames = stream_of(spec, fps=25.0)
    cfg = PipelineConfig(max_detect_hz=4.0, track_loss_frames=2)
    outputs, stats = run_stream(frames, cfg, stub())

    state = initial_state()
    folded = []
    for f in frames:
        state, out = step(state, f, cfg, stub())
        folded.append(out)
    assert folded == outputs
    assert state.stats == stats


def test_replay_is_deterministic():
    rng = np.random.default_rng(9)
    spec = "".join(rng.choice(["h", "."]) for _ in range(150))
    frames = stream_of(spec, fps=60.0)
    cfg = PipelineConfig(max_detect_hz=7.0)
    a = run_stream(frames, cfg, stub())
    b = run_stream(frames, cfg, stub())
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_randomized_streams_respect_throttle_bound():
    rng = np.random.default_rng(31)
    for _ in range(25):
        hz = float(rng.uniform(0.5, 12.0))
        fps = float(rng.uniform(10.0, 60.0))
        n = int(round(10.0 * fps))
        spec = "".join(rng.choice(["h", "."], p=[0.6, 0.4]) for _ in range(n))
        frames = stream_of(spec, fps=fps)
        _, stats = run_stream(frames, PipelineConfig(max_detect_hz=hz), stub())
        duration_s = (frames[-1].t_us - frames[0].t_us) / 1e6
        assert stats.detect_invocations <= math.ceil(duration_s * hz) + 1


def test_output_dict_shape():
    out = FrameOutput(timestamp_us=5, mode=TRACKED, label="Victory",
                      actions=("classify",))
    d = out.to_dict()
    assert d["schema"] == "frame_output/1"
    assert d["timestamp_us"] == 5
    assert d["mode"] == "Tracked"
    assert d["label"] == "Victory"


def test_records_write_the_schema_then_their_fields_in_order():
    records = (FrameOutput(timestamp_us=5, mode=TRACKED, label=None, actions=("detect",)),
               PipelineStats(1, 2, 3, 4))
    for record in records:
        names = [f.name for f in fields(record)]
        assert list(record.to_dict()) == ["schema", *names]
    assert records[0].to_dict()["actions"] == ["detect"]


def _labels_unless_3d_missing(frame):
    if frame.hand.kp3d is None:
        raise Missing3D("no kp3d")
    return "Victory"


def test_randomized_stats_count_the_actions_the_outputs_log():
    # h: a usable hand, l: a hand below min_track_score, x: a usable hand the
    # classifier cannot label, .: no hand
    rng = np.random.default_rng(36)
    kinds = {"h": VICTORY_HAND, "l": replace(VICTORY_HAND, score=0.1),
             "x": replace(VICTORY_HAND, kp3d=None), ".": None}
    for _ in range(25):
        spec = rng.choice(list(kinds), size=int(rng.integers(1, 300)))
        frames = [frame(33_333 * i, kinds[ch]) for i, ch in enumerate(spec)]
        cfg = PipelineConfig(max_detect_hz=float(rng.uniform(0.5, 12.0)),
                             track_loss_frames=int(rng.integers(1, 5)))
        outputs, stats = run_stream(frames, cfg, _labels_unless_3d_missing)
        actions = [a for out in outputs for a in out.actions]
        assert stats == PipelineStats(
            detect_invocations=actions.count("detect"),
            classify_invocations=actions.count("classify"),
            tracked_frames=sum(out.mode == TRACKED for out in outputs),
            untracked_frames=sum(out.mode == UNTRACKED for out in outputs))


def test_config_validation_and_io():
    with pytest.raises(ValidationError):
        PipelineConfig(max_detect_hz=0.0)
    with pytest.raises(ValidationError):
        PipelineConfig(max_detect_hz=5.0, track_loss_frames=0)
    with pytest.raises(ValidationError):
        PipelineConfig(max_detect_hz=5.0, min_track_score=1.5)
    with pytest.raises(ValidationError):
        PipelineConfig(max_detect_hz=5.0, classifier="svm")
    doc = {"schema": "pipeline/1", "max_detect_hz": 5.0, "track_loss_frames": 4,
           "min_track_score": 0.25, "classifier": "nn", "classifier_ref": "model.json"}
    buf = io.StringIO(json.dumps(doc) + "\n")
    assert load_pipeline_config(buf) == PipelineConfig(
        max_detect_hz=5.0, track_loss_frames=4, min_track_score=0.25,
        classifier="nn", classifier_ref="model.json")


@pytest.mark.parametrize("text", ["{", "", "{\"schema\": \"pipeline/1\",}", "[1, 2"])
def test_load_pipeline_config_maps_bad_json_to_malformed_config(text):
    with pytest.raises(MalformedConfig):
        load_pipeline_config(io.StringIO(text))


@pytest.mark.parametrize("extra", [
    {"max_detect_hz": "5"}, {"max_detect_hz": True}, {"track_loss_frames": "3"},
    {"track_loss_frames": 3.0}, {"classifier": 1}, {"classifier_ref": 5},
    {"rate": 1.0},
])
def test_pipeline_config_from_dict_rejects_wrong_types(extra):
    obj = {"schema": "pipeline/1", "max_detect_hz": 5.0, **extra}
    with pytest.raises(MalformedConfig):
        PipelineConfig.from_dict(obj)


@pytest.mark.parametrize("ref", [0, 5, True, b"model.json", ["model.json"]])
def test_classifier_ref_is_a_string_or_none(ref):
    # an int was taken, and make_classifier then read and closed that file
    # descriptor
    with pytest.raises(ValidationError, match="^classifier_ref must be a string or null, got "):
        PipelineConfig(max_detect_hz=5.0, classifier_ref=ref)


def test_pipeline_config_from_dict_needs_max_detect_hz():
    with pytest.raises(MalformedConfig, match="max_detect_hz"):
        PipelineConfig.from_dict({"schema": "pipeline/1"})
    with pytest.raises(MalformedConfig, match="schema must be one of"):
        PipelineConfig.from_dict({"schema": "pipeline/2", "max_detect_hz": 5.0})


@pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
def test_predictors_leave_the_feature_array_unchanged(tmp_path, kind):
    ref = None
    if kind == "nn":
        rng = np.random.default_rng(4)
        ref = str(tmp_path / "model.json")
        sizes = list(zip(LAYER_SIZES, LAYER_SIZES[1:]))
        save_model(MlpModel([rng.normal(size=(o, i)) for i, o in sizes],
                            [rng.normal(size=o) for _, o in sizes],
                            np.zeros(12), np.ones(12)), ref)
    predict = make_predictor(kind, ref)
    fv = feature_vector(VICTORY_HAND.kp3d, VICTORY_HAND.handedness)
    before = fv.copy()
    predict(fv)
    assert np.array_equal(fv, before)


def test_nn_predictor_needs_a_model_file():
    with pytest.raises(ValidationError, match="^nn classifier needs a model file reference$"):
        make_predictor("nn", None)
