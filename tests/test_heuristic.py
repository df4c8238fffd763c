"""State vectors and rule-based gesture classification."""

import copy
import json

import numpy as np
import pytest

from handgest.errors import MalformedConfig, UnknownReference, ValidationError
from handgest.features import feature_vector
from handgest.harness import SynthConfig, synth_pose
from handgest.heuristic import (
    DEFAULT_CONFIG_JSON,
    FINGER_NAMES,
    PAIR_NAMES,
    GestureConfig,
    GestureDefinition,
    StateThresholds,
    classify_heuristic,
    config_from_dict,
    default_config,
    expr_from_json,
    state_vector,
)
from handgest.skeleton import read_json


def make_fv(fingers, pairs=(0.3, 0.3, 0.3, 0.3), euler=(0.0, 0.0, 0.0)):
    return np.array([*euler, *fingers, *pairs], dtype=float)


def clean_pose(label, seed=0):
    cfg = SynthConfig(seed=seed, jitter_std_rad=0.0, orientation_jitter_rad=0.0)
    frame, _ = synth_pose(label, cfg)
    return feature_vector(frame.hand.kp3d, frame.hand.handedness)


# --- state vectors ---

STRAIGHT, NEITHER, BENT = 0, 1, 2
CROSSED, APART = 0, 2


def test_discretize_finger_states():
    th = default_config().thresholds
    state = state_vector(make_fv([0.1, 0.0, np.pi, 1.0, 0.1]), th)
    assert state[FINGER_NAMES["Index"]] == STRAIGHT
    assert state[FINGER_NAMES["Middle"]] == BENT
    assert state[FINGER_NAMES["Ring"]] == NEITHER


def test_discretize_boundaries_inclusive_toward_extremes():
    th = StateThresholds(straight_max=0.52, bent_min=1.57,
                         crossed_max=0.087, apart_min=0.26)
    state = state_vector(make_fv([0.1, 0.1, 0.52, 1.57, 0.1],
                                 pairs=(0.087, 0.26, 0.15, 0.3)), th)
    assert state[FINGER_NAMES["Middle"]] == STRAIGHT
    assert state[FINGER_NAMES["Ring"]] == BENT
    assert state[PAIR_NAMES["ThumbIndex"]] == CROSSED
    assert state[PAIR_NAMES["IndexMiddle"]] == APART
    assert state[PAIR_NAMES["MiddleRing"]] == NEITHER


def test_state_vector_layout_and_nan():
    th = default_config().thresholds
    fv = make_fv([np.nan, 0.0, 0.0, 0.0, 0.0], pairs=(0.3, np.nan, 0.0, 0.3),
                 euler=(0.25, -0.5, np.pi))
    state = state_vector(fv, th)
    assert state.shape == (12,)
    assert state[:3].tolist() == [0.25, -0.5, np.pi]
    assert state[3:].tolist() == [NEITHER] + [STRAIGHT] * 4 + [APART, NEITHER, CROSSED, APART]


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
    state = state_vector(make_fv([ang] * 5), th)
    assert state[FINGER_NAMES["Thumb"]] == STRAIGHT
    assert state[FINGER_NAMES["Index"]] == NEITHER


# --- expression evaluation ---

def test_euler_in_wrapped_band():
    expr = expr_from_json({"euler": "roll", "lo_deg": 170.0, "hi_deg": -170.0})
    hit = [0.0, 0.0, np.pi] + [NEITHER] * 9         # roll = 180 deg
    miss = [0.0] * 3 + [NEITHER] * 9
    assert expr.evaluate(hit)
    assert not expr.evaluate(miss)
    # straight band for contrast
    expr2 = expr_from_json({"euler": "roll", "lo_deg": -10.0, "hi_deg": 10.0})
    assert expr2.evaluate(miss)
    assert not expr2.evaluate(hit)


def test_state_leaf_is_the_band_of_its_code():
    expr = expr_from_json({"pair": "RingPinky", "state": "Apart"})
    assert (expr.index, expr.lo, expr.hi) == (PAIR_NAMES["RingPinky"], APART, APART + 1)
    for code in (STRAIGHT, NEITHER, BENT):
        state = [0.0] * 11 + [code]
        assert expr.evaluate(state) == (code == APART)


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
    rng = np.random.default_rng(8)
    for _ in range(300):
        fv = make_fv(rng.uniform(0, np.pi, 5), rng.uniform(0, np.pi, 4),
                     euler=(rng.uniform(-np.pi, np.pi),
                            rng.uniform(-np.pi / 2, np.pi / 2),
                            rng.uniform(-np.pi, np.pi)))
        state = state_vector(fv, cfg.thresholds).tolist()
        up = defs["ThumbUp"].expr.evaluate(state)
        down = defs["ThumbDown"].expr.evaluate(state)
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
    back = read_json(path, config_from_dict)
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
    # band edges that never match
    (("gestures", 3, "expr", "all", 5, "lo_deg"), float("nan")),
    (("gestures", 3, "expr", "all", 5, "hi_deg"), float("inf")),
    (("gestures", 4, "expr", "all", 6, "lo_deg"), float("-inf")),
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


@pytest.mark.parametrize("path, value, message", [
    (("gestures",), 5, "gestures must be a list, got 5"),
    (("gestures",), "x", "gestures must be a list, got 'x'"),
    (("gestures", 0, "expr", "all"), None, "all must be a list, got None"),
    (("gestures", 0, "expr"), {"any": {"finger": "Index", "state": "FullyBent"}},
     "any must be a list, got {'finger'"),
    (("gestures", 1, "expr", "all", 0, "finger"), ["Index"],
     "finger must be one of ('Thumb', 'Index', 'Middle', 'Ring', 'Pinky'), got ['Index']"),
    (("gestures", 1, "expr", "all", 2, "pair"), {"k": 0},
     "pair must be one of ('ThumbIndex', 'IndexMiddle', 'MiddleRing', 'RingPinky'), got {'k': 0}"),
    (("gestures", 3, "expr", "all", 5, "euler"), ["yaw"],
     "euler axis must be one of ('yaw', 'pitch', 'roll'), got ['yaw']"),
    (("gestures", 0, "expr", "all", 0), {"finger": "Thumb"}, "'finger' node needs 'state'"),
    (("gestures", 0, "expr", "all", 5), {"not": 1, "nto": 2}, "unknown 'not' node keys: ['nto']"),
    (("thresholds",), [1], "thresholds object must be an object, got [1]"),
    (("thresholds", "bent_min_deg"), [[70.0], [90.0, 1.0]],
     "bent_min_deg must be a rectangular array, got a ragged list"),
])
def test_config_from_dict_names_a_value_of_the_wrong_type(path, value, message):
    # each raised a TypeError, or iterated a string, under a catch-all that
    # printed the exception's repr
    obj = copy.deepcopy(DEFAULT_CONFIG_JSON)
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(MalformedConfig) as info:
        config_from_dict(obj)
    assert str(info.value).startswith(message)


def test_band_edges_past_int64_read_as_their_float():
    # 10**300 in digits raised numpy's "loop of ufunc does not support
    # argument 0 of type int", while 1e300 was taken
    def band(lo, hi):
        return expr_from_json({"euler": "yaw", "lo_deg": lo, "hi_deg": hi})

    assert band(10 ** 300, -(10 ** 300)) == band(1e300, -1e300)
    assert band(2 ** 64, 3) == band(float(2 ** 64), 3.0)
    with pytest.raises(MalformedConfig, match="lo_deg must be a number in"):
        band(10 ** 400, 0)


# --- the enum/discretizer classifier this module replaced, kept as an oracle ---

_FINGERS = ("Thumb", "Index", "Middle", "Ring", "Pinky")
_PAIRS = ("ThumbIndex", "IndexMiddle", "MiddleRing", "RingPinky")


def _discretize(angle, low_max, high_min, states):
    """One angle as (low, middle, high)[k], inclusive toward the extremes."""
    if angle <= low_max:
        return states[0]
    if angle >= high_min:
        return states[2]
    return states[1]


def _reference_eval(node, fingers, pairs, euler):
    if "all" in node:
        return all(_reference_eval(a, fingers, pairs, euler) for a in node["all"])
    if "any" in node:
        return any(_reference_eval(a, fingers, pairs, euler) for a in node["any"])
    if "not" in node:
        return not _reference_eval(node["not"], fingers, pairs, euler)
    if "finger" in node:
        return fingers[node["finger"]] == node["state"]
    if "pair" in node:
        return pairs[node["pair"]] == node["state"]
    a = euler[node["euler"]]
    lo, hi = float(np.radians(node["lo_deg"])), float(np.radians(node["hi_deg"]))
    if lo <= hi:
        return lo <= a < hi
    return a >= lo or a < hi


def reference_classify_heuristic(fv, doc):
    """The label of ``fv`` under the gestures/1 document ``doc``: each finger
    and pair angle discretized on its own to a state name, each leaf compared
    with that name or with one Euler angle, the first match by priority."""
    th = {k: np.asarray(v, dtype=np.float64) * (np.pi / 180.0)
          for k, v in doc["thresholds"].items()}
    fingers = {name: _discretize(float(fv[3 + i]), th["straight_max_deg"][i],
                                 th["bent_min_deg"][i],
                                 ("FullyStraight", "Neither", "FullyBent"))
               for i, name in enumerate(_FINGERS)}
    pairs = {name: _discretize(float(fv[8 + i]), th["crossed_max_deg"][i],
                               th["apart_min_deg"][i], ("Crossed", "Neither", "Apart"))
             for i, name in enumerate(_PAIRS)}
    euler = dict(zip(("yaw", "pitch", "roll"), fv))
    for g in sorted(doc["gestures"], key=lambda g: g["priority"]):
        if _reference_eval(g["expr"], fingers, pairs, euler):
            return g["name"]
    return "Negative"


def _leaf(kind, name, state):
    return {kind: name, "state": state}


# every leaf kind and every state under any/not, wrapped and plain bands on
# each axis, and thresholds of their own
MIXED_CONFIG_JSON = {
    "schema": "gestures/1",
    "thresholds": {
        "straight_max_deg": [20.0, 25.0, 30.0, 35.0, 40.0],
        "bent_min_deg": [60.0, 80.0, 100.0, 120.0, 140.0],
        "crossed_max_deg": [3.0, 6.0, 9.0, 12.0],
        "apart_min_deg": [10.0, 20.0, 30.0, 40.0],
    },
    "gestures": [
        {"name": "A", "priority": 4, "expr": {"any": [
            _leaf("finger", "Thumb", "Neither"),
            {"all": [_leaf("pair", "MiddleRing", "Crossed"),
                     {"not": _leaf("finger", "Pinky", "FullyBent")}]},
        ]}},
        {"name": "B", "priority": 2, "expr": {"all": [
            {"not": _leaf("pair", "ThumbIndex", "Apart")},
            {"any": [{"euler": "pitch", "lo_deg": -30.0, "hi_deg": 30.0},
                     _leaf("finger", "Ring", "FullyStraight")]},
            {"not": {"euler": "yaw", "lo_deg": 150.0, "hi_deg": -150.0}},
        ]}},
        {"name": "C", "priority": 1, "expr": {"all": [
            _leaf("finger", "Index", "FullyStraight"),
            _leaf("pair", "IndexMiddle", "Neither"),
            {"euler": "roll", "lo_deg": 135.0, "hi_deg": -135.0},
        ]}},
        {"name": "D", "priority": 3, "expr": {"any": [
            {"all": [_leaf("finger", "Middle", "FullyBent"),
                     _leaf("pair", "RingPinky", "Apart")]},
            {"not": {"any": [{"euler": "roll", "lo_deg": -135.0, "hi_deg": 135.0},
                             _leaf("pair", "RingPinky", "Neither")]}},
        ]}},
        {"name": "E", "priority": 5, "expr": {"not": {"all": [
            {"euler": "yaw", "lo_deg": -108.0, "hi_deg": -18.0},
            _leaf("finger", "Pinky", "Neither"),
        ]}}},
    ],
}


def _hard_vectors(n, seed, docs):
    """Feature vectors whose angles sit on, beside and between the
    thresholds and band edges of ``docs``, with NaN, 0 and +-pi among them."""
    rng = np.random.default_rng(seed)
    rad = np.pi / 180.0
    near = lambda v: [v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]
    angle_picks, lows, highs = [], [], []  # per angle entry
    for lo_key, hi_key, size in (("straight_max_deg", "bent_min_deg", 5),
                                 ("crossed_max_deg", "apart_min_deg", 4)):
        for i in range(size):
            los = [float(np.float64(d["thresholds"][lo_key][i]) * rad) for d in docs]
            his = [float(np.float64(d["thresholds"][hi_key][i]) * rad) for d in docs]
            angle_picks.append([v for e in los + his for v in near(e)] + [0.0, np.pi, np.nan])
            lows.append(min(los))
            highs.append(max(his))
    band_edges = np.radians([-150.0, -135.0, -108.0, -45.0, -30.0, -18.0,
                             18.0, 30.0, 45.0, 72.0, 135.0, 150.0, 162.0])
    euler_picks = [v for e in band_edges for v in near(e)] + [np.pi, -np.pi, 0.0, np.nan]
    out = []
    for _ in range(n):
        # a share of low angles drawn per vector, so that whole hands come
        # out straight, bent or mixed
        low_share = rng.random()
        angles = [rng.choice(p) if rng.random() < 0.3
                  else rng.uniform(0.0, lo) if rng.random() < low_share
                  else rng.uniform(hi, np.pi)
                  for p, lo, hi in zip(angle_picks, lows, highs)]
        euler = [rng.choice(euler_picks) if rng.random() < 0.4 else rng.uniform(-np.pi, np.pi)
                 for _ in range(3)]
        out.append(make_fv(angles[:5], angles[5:], euler=[float(e) for e in euler]))
    return out


def test_classify_heuristic_equals_the_reference():
    docs = (DEFAULT_CONFIG_JSON, MIXED_CONFIG_JSON)
    configs = [config_from_dict(d) for d in docs]
    vectors = _hard_vectors(20_000, 9, docs)
    # and clean synthetic poses of every default gesture
    vectors += [clean_pose(label, seed) for label in ("OpenPalm", "Victory", "ClosedFist",
                                                       "PointingUp", "ThumbUp", "ThumbDown")
                for seed in range(3)]
    for doc, config in zip(docs, configs):
        labels = [classify_heuristic(fv, config) for fv in vectors]
        want = [reference_classify_heuristic(fv, doc) for fv in vectors]
        assert labels == want
        # every gesture of the config is reached, and so is Negative
        assert set(labels) == {g["name"] for g in doc["gestures"]} | {"Negative"}
