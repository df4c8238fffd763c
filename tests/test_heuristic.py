"""State discretization and rule-based gesture classification."""

import copy
import json

import numpy as np
import pytest

from handgest.errors import MalformedConfig, UnknownReference, ValidationError
from handgest.features import EulerAngles, FeatureVector, feature_vector
from handgest.harness import SynthConfig, synth_pose
from handgest.heuristic import (
    DEFAULT_CONFIG_JSON,
    FingerState,
    GestureConfig,
    GestureDefinition,
    PairState,
    StateThresholds,
    classify_heuristic,
    config_from_dict,
    default_config,
    discretize_finger,
    discretize_pair,
    expr_from_json,
)
from handgest.skeleton import Finger, read_json


def make_fv(fingers, pairs=(0.3, 0.3, 0.3, 0.3), euler=(0.0, 0.0, 0.0)):
    return FeatureVector(
        euler=EulerAngles(*euler),
        finger_angles=np.asarray(fingers, dtype=float),
        pair_angles=np.asarray(pairs, dtype=float),
    )


def clean_pose(label, seed=0):
    cfg = SynthConfig(seed=seed, jitter_std_rad=0.0, orientation_jitter_rad=0.0)
    frame, _ = synth_pose(label, cfg)
    return feature_vector(frame.hand.kp3d, frame.hand.handedness)


# --- discretization ---

def test_discretize_finger_states():
    th = default_config().thresholds
    assert discretize_finger(0.0, Finger.INDEX, th) is FingerState.FULLY_STRAIGHT
    assert discretize_finger(np.pi, Finger.INDEX, th) is FingerState.FULLY_BENT
    assert discretize_finger(1.0, Finger.INDEX, th) is FingerState.NEITHER


def test_discretize_boundaries_inclusive_toward_extremes():
    th = StateThresholds(straight_max=0.52, bent_min=1.57,
                         crossed_max=0.087, apart_min=0.26)
    assert discretize_finger(0.52, Finger.MIDDLE, th) is FingerState.FULLY_STRAIGHT
    assert discretize_finger(1.57, Finger.MIDDLE, th) is FingerState.FULLY_BENT
    assert discretize_pair(0.087, 0, th) is PairState.CROSSED
    assert discretize_pair(0.26, 0, th) is PairState.APART
    assert discretize_pair(0.15, 0, th) is PairState.NEITHER


def test_thresholds_validated():
    with pytest.raises(ValidationError):
        StateThresholds(straight_max=1.6, bent_min=1.5,
                        crossed_max=0.1, apart_min=0.3)
    with pytest.raises(ValidationError):
        StateThresholds(straight_max=[0.5] * 4, bent_min=1.5,
                        crossed_max=0.1, apart_min=0.3)


def test_thumb_gets_its_own_thresholds():
    th = default_config().thresholds
    ang = np.radians(32.0)   # straight for the thumb (35), not for others (30)
    assert discretize_finger(ang, Finger.THUMB, th) is FingerState.FULLY_STRAIGHT
    assert discretize_finger(ang, Finger.INDEX, th) is FingerState.NEITHER


# --- expression evaluation ---

def test_euler_in_wrapped_band():
    expr = expr_from_json({"euler": "roll", "lo_deg": 170.0, "hi_deg": -170.0})
    hit = EulerAngles(0.0, 0.0, np.pi)          # roll = 180 deg
    miss = EulerAngles(0.0, 0.0, 0.0)
    assert expr.evaluate({}, {}, hit)
    assert not expr.evaluate({}, {}, miss)
    # straight band for contrast
    expr2 = expr_from_json({"euler": "roll", "lo_deg": -10.0, "hi_deg": 10.0})
    assert expr2.evaluate({}, {}, miss)
    assert not expr2.evaluate({}, {}, hit)


def test_expr_parse_rejects_unknown_references():
    with pytest.raises(UnknownReference):
        expr_from_json({"finger": "Tentacle", "state": "FullyStraight"})
    with pytest.raises(UnknownReference):
        expr_from_json({"finger": "Index", "state": "Wiggly"})
    with pytest.raises(UnknownReference):
        expr_from_json({"pair": "IndexThumb", "state": "Apart"})
    with pytest.raises(UnknownReference):
        expr_from_json({"euler": "heading", "lo_deg": 0.0, "hi_deg": 1.0})
    with pytest.raises(ValidationError):
        expr_from_json({"bogus": 1})


# --- classification ---

def test_open_palm_all_straight():
    fv = make_fv([0.1, 0.05, 0.05, 0.05, 0.1])
    assert classify_heuristic(fv, default_config()) == "OpenPalm"


def test_open_palm_fails_with_neither_pinky():
    fv = make_fv([0.1, 0.05, 0.05, 0.05, 0.9])
    assert classify_heuristic(fv, default_config()) == "Negative"


def test_closed_fist_all_bent():
    fv = make_fv([1.5, 2.2, 2.2, 2.2, 2.2], pairs=(0.1, 0.1, 0.1, 0.1))
    assert classify_heuristic(fv, default_config()) == "ClosedFist"


def test_victory_needs_spread():
    fv = make_fv([1.0, 0.1, 0.1, 2.0, 2.0], pairs=(0.3, 0.4, 0.3, 0.1))
    assert classify_heuristic(fv, default_config()) == "Victory"
    narrow = make_fv([1.0, 0.1, 0.1, 2.0, 2.0], pairs=(0.3, 0.1, 0.3, 0.1))
    assert classify_heuristic(narrow, default_config()) != "Victory"


def test_priority_breaks_ties():
    th = default_config().thresholds
    broad = GestureDefinition(
        "Broad", 10, expr_from_json({"finger": "Thumb", "state": "FullyStraight"}))
    narrow = GestureDefinition(
        "Narrow", 2, expr_from_json({"all": [
            {"finger": "Thumb", "state": "FullyStraight"},
            {"finger": "Index", "state": "FullyBent"},
        ]}))
    fv = make_fv([0.1, 2.0, 2.0, 2.0, 2.0])
    both = GestureConfig(thresholds=th, definitions=(broad, narrow))
    assert classify_heuristic(fv, both) == "Narrow"
    flipped = GestureConfig(thresholds=th, definitions=(
        GestureDefinition("Broad", 1, broad.expr),
        GestureDefinition("Narrow", 2, narrow.expr)))
    assert classify_heuristic(fv, flipped) == "Broad"


def test_duplicate_priorities_rejected():
    th = default_config().thresholds
    e = expr_from_json({"finger": "Thumb", "state": "FullyStraight"})
    with pytest.raises(ValidationError):
        GestureConfig(thresholds=th, definitions=(
            GestureDefinition("A", 1, e), GestureDefinition("B", 1, e)))


def test_synthetic_positives_classify_correctly():
    cfg = default_config()
    for label in ("OpenPalm", "Victory", "ClosedFist",
                  "PointingUp", "ThumbUp", "ThumbDown"):
        for seed in range(3):
            assert classify_heuristic(clean_pose(label, seed), cfg) == label


def test_synthetic_negatives_stay_negative():
    cfg = default_config()
    for label in ("CallMe", "OK", "VulcanSalute", "Loser"):
        assert classify_heuristic(clean_pose(label), cfg) == "Negative"


def test_determinism():
    fv = clean_pose("Victory")
    cfg = default_config()
    labels = {classify_heuristic(fv, cfg) for _ in range(5)}
    assert labels == {"Victory"}


def test_thumb_up_down_mutually_exclusive():
    cfg = default_config()
    defs = {d.name: d for d in cfg.definitions}
    th = cfg.thresholds
    rng = np.random.default_rng(8)
    for _ in range(300):
        fv = make_fv(rng.uniform(0, np.pi, 5), rng.uniform(0, np.pi, 4),
                     euler=(rng.uniform(-np.pi, np.pi),
                            rng.uniform(-np.pi / 2, np.pi / 2),
                            rng.uniform(-np.pi, np.pi)))
        fingers = {f: discretize_finger(float(fv.finger_angles[f]), f, th) for f in Finger}
        pairs = {i: discretize_pair(float(fv.pair_angles[i]), i, th) for i in range(4)}
        up = defs["ThumbUp"].expr.evaluate(fingers, pairs, fv.euler)
        down = defs["ThumbDown"].expr.evaluate(fingers, pairs, fv.euler)
        assert not (up and down)


def test_relaxing_straight_max_grows_open_palm_set():
    tight = GestureConfig(
        thresholds=StateThresholds(straight_max=np.radians(20.0), bent_min=np.radians(90.0),
                                   crossed_max=np.radians(5.0), apart_min=np.radians(15.0)),
        definitions=default_config().definitions)
    loose = GestureConfig(
        thresholds=StateThresholds(straight_max=np.radians(40.0), bent_min=np.radians(90.0),
                                   crossed_max=np.radians(5.0), apart_min=np.radians(15.0)),
        definitions=default_config().definitions)
    cfg = SynthConfig(seed=21)
    for i in range(60):
        frame, _ = synth_pose("OpenPalm", cfg, np.random.default_rng([21, i]))
        fv = feature_vector(frame.hand.kp3d, frame.hand.handedness)
        if classify_heuristic(fv, tight) == "OpenPalm":
            assert classify_heuristic(fv, loose) == "OpenPalm"


def test_orientation_free_gestures_survive_rotation():
    cfg = default_config()
    rng = np.random.default_rng(12)
    for label in ("OpenPalm", "ClosedFist", "Victory"):
        frame, _ = synth_pose(label, SynthConfig(
            seed=1, jitter_std_rad=0.0, orientation_jitter_rad=0.0))
        hand = frame.hand
        for _ in range(5):
            q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            fv = feature_vector(hand.kp3d @ q.T, hand.handedness)
            assert classify_heuristic(fv, cfg) == label


# --- config I/O ---

def test_config_json_round_trip(tmp_path):
    cfg = default_config()
    path = tmp_path / "gestures.json"
    path.write_text(json.dumps(DEFAULT_CONFIG_JSON, indent=2))
    back = config_from_dict(read_json(path))
    np.testing.assert_array_equal(back.thresholds.straight_max, cfg.thresholds.straight_max)
    np.testing.assert_array_equal(back.thresholds.apart_min, cfg.thresholds.apart_min)
    assert [d.name for d in back.definitions] == [d.name for d in cfg.definitions]
    for label in ("Victory", "ThumbDown", "CallMe"):
        fv = clean_pose(label)
        assert classify_heuristic(fv, back) == classify_heuristic(fv, cfg)


def test_default_thresholds_are_the_radian_constants():
    # the values the defaults had when they were written in radians
    deg = np.pi / 180.0
    th = default_config().thresholds
    for got, want in [
        (th.straight_max, np.array([35.0, 30.0, 30.0, 30.0, 30.0]) * deg),
        (th.bent_min, np.array([70.0, 90.0, 90.0, 90.0, 90.0]) * deg),
        (th.crossed_max, np.full(4, 5.0) * deg),
        (th.apart_min, np.full(4, 15.0) * deg),
    ]:
        assert got.tobytes() == want.tobytes()


DROP = object()  # deletes the key instead of setting it


@pytest.mark.parametrize("path, value", [
    (("gestures", 0, "priority"), "x"),
    (("thresholds", "bent_min_deg"), "x"),
    (("gestures", 0, "expr", "all"), 5),
    (("gestures", 1, "expr", "all", 0, "finger"), []),
    (("gestures", 3, "expr", "all", 5, "lo_deg"), None),
    (("gestures",), "x"),
    # values that were reinterpreted instead of rejected
    (("gestures", 0, "name"), 5),
    (("gestures", 3, "expr", "all", 5, "lo_deg"), True),
    # nodes that carry a key of another kind
    (("gestures", 0, "expr", "all", 5, "all"), []),
    (("gestures", 1, "expr", "all", 0, "lo_deg"), 3),
    (("gestures", 2, "expr", "any"), []),
    (("gestures", 3, "expr", "all", 5, "state"), "FullyBent"),
    # unknown keys and schema tags that were ignored
    (("gestures", 0, "priorty"), 9),
    (("thresholds", "straight_max"), [30.0] * 5),
    (("schema",), "gestures/9"),
    (("schema",), DROP),
])
def test_config_from_dict_maps_bad_values(path, value):
    obj = copy.deepcopy(DEFAULT_CONFIG_JSON)
    node = obj
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    with pytest.raises(MalformedConfig):
        config_from_dict(obj)
