"""Topology, the frame rule, and JSONL round trips."""

import json
import os
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from handgest import alignment, features, harness, heuristic, lifting, mlp, pipeline
from handgest.errors import (
    DegeneratePalm,
    MalformedConfig,
    MalformedFrame,
    ShapeMismatch,
    UnknownLabel,
    ValidationError,
)
from handgest.skeleton import (
    BONES,
    CHAIN_INDICES,
    FINGER_KEYPOINTS,
    INDEX_MCP,
    MIDDLE_MCP,
    NUM_KEYPOINTS,
    PINKY_MCP,
    Finger,
    HandFrame,
    HandSkeleton,
    brief,
    check_keys,
    check_number,
    decode_config,
    float_array,
    frame_from_dict,
    frame_to_dict,
    open_output,
    read_json,
    read_jsonl,
    write_json,
    write_jsonl,
)


def make_hand(n2d=21, n3d=21, score=0.9):
    rng = np.random.default_rng(4)
    kp2d = rng.uniform(0, 640, size=(n2d, 2))
    kp3d = None if n3d is None else rng.normal(0, 0.05, size=(n3d, 3))
    return HandSkeleton("Right", score, kp2d, kp3d)


def make_frame(hand, t_us=0):
    return HandFrame(t_us=t_us, w=640, h=480, hand=hand)


def test_topology_layout():
    assert FINGER_KEYPOINTS[Finger.THUMB] == (1, 2, 3, 4)
    assert FINGER_KEYPOINTS[Finger.PINKY] == (17, 18, 19, 20)
    covered = [i for f in Finger for i in FINGER_KEYPOINTS[f]]
    # every non-wrist keypoint in exactly one finger group
    assert sorted(covered) == list(range(1, NUM_KEYPOINTS))
    # groups contiguous and ordered base to tip
    for f in Finger:
        a, b, c, d = FINGER_KEYPOINTS[f]
        assert (b, c, d) == (a + 1, a + 2, a + 3)


def test_bones_form_a_tree():
    assert len(BONES) == 20
    children = [c for _, c in BONES]
    assert sorted(children) == list(range(1, NUM_KEYPOINTS))
    for parent, child in BONES:
        assert parent < child


def test_bones_and_knuckles_come_from_the_finger_keypoints():
    # the parent rule and the knuckle indices once typed out beside
    # FINGER_KEYPOINTS: each base's parent is the wrist, each other point's
    # the point before it
    parents = tuple(0 if i in (1, 5, 9, 13, 17) else i - 1 for i in range(1, NUM_KEYPOINTS))
    assert BONES == tuple((p, i) for i, p in zip(range(1, NUM_KEYPOINTS), parents))
    assert (INDEX_MCP, MIDDLE_MCP, PINKY_MCP) == (5, 9, 17)


def test_frame_accepts_good_frame():
    frame = make_frame(make_hand())
    assert frame.hand.kp2d.shape == (21, 2) and frame.hand.kp3d.shape == (21, 3)


def test_frame_accepts_empty_hand():
    assert make_frame(None).hand is None


def test_hand_rejects_wrong_count():
    with pytest.raises(MalformedFrame, match=re.escape("kp2d must have shape (21, 2), got (20, 2)")):
        make_hand(n2d=20)
    with pytest.raises(MalformedFrame, match=re.escape("kp3d must have shape (21, 3), got (22, 3)")):
        make_hand(n3d=22)


def test_frame_rejects_bad_values():
    kp2d = make_hand().kp2d.copy()
    kp2d[3, 0] = np.nan
    with pytest.raises(MalformedFrame, match="^kp2d contains non-finite values$"):
        HandSkeleton("Right", 0.9, kp2d, None)
    with pytest.raises(MalformedFrame, match=re.escape("score must be a number in [0, 1], got 1.5")):
        make_hand(score=1.5)
    with pytest.raises(MalformedFrame, match=re.escape("w must be an integer in [1, inf), got 0")):
        HandFrame(t_us=0, w=0, h=480, hand=None)
    with pytest.raises(MalformedFrame, match="handedness must be one of .*, got 'Ambidextrous'"):
        HandSkeleton("Ambidextrous", 0.9, kp2d=[[1.0, 2.0]] * 21, kp3d=None)


@pytest.mark.parametrize("field, value", [
    ("kp2d", [[1.0, 2.0]] * 20),
    ("kp2d", [[1.0, 2.0]] * 20 + [[float("inf"), 2.0]]),
    ("kp3d", [[0.1, 0.2, 0.3]] * 22),
    ("kp3d", [[0.1, 0.2, 0.3]] * 20 + [[0.1, float("nan"), 0.3]]),
], ids=["kp2d-shape", "kp2d-inf", "kp3d-shape", "kp3d-nan"])
def test_hand_rejects_bad_keypoint_lists(field, value):
    # HandSkeleton converts the lists once and checks the arrays
    keypoints = {"kp2d": [[1.0, 2.0]] * 21, "kp3d": [[0.1, 0.2, 0.3]] * 21, field: value}
    with pytest.raises(MalformedFrame, match=field):
        HandSkeleton("Right", 0.9, **keypoints)


@pytest.mark.parametrize("field, value, message", [
    ("t_us", 1.5, "t_us must be an integer, got 1.5"),
    ("t_us", 10 ** 400, "t_us must be an integer in (-inf, inf), got 10000000...(401 digits)"),
    ("w", True, "w must be an integer, got True"),
    ("h", -1, "h must be an integer in [1, inf), got -1"),
], ids=["t-us", "t-us-huge", "w-bool", "h-negative"])
def test_frame_rejects_bad_times_and_sizes(field, value, message):
    with pytest.raises(MalformedFrame, match=f"^{re.escape(message)}$"):
        HandFrame(**{"t_us": 0, "w": 640, "h": 480, "hand": None, field: value})


def test_replace_checks_the_frame_it_makes():
    # dataclasses.replace builds through __init__, so the frames lift and
    # the dataset writer replace meet the rule too
    frame = make_frame(make_hand())
    with pytest.raises(MalformedFrame, match="^kp3d contains non-finite values$"):
        replace(frame.hand, kp3d=np.full((21, 3), np.nan))
    with pytest.raises(MalformedFrame, match=re.escape("h must be an integer in [1, inf), got 0")):
        replace(frame, h=0)


@pytest.mark.parametrize("value", [[["1", "2"]] * 21, [[True, False]] * 21])
def test_hand_keeps_the_array_rule_for_strings_and_bools(value):
    with pytest.raises(TypeError, match="kp2d must hold numbers"):
        HandSkeleton("Right", 0.9, value, None)


@pytest.mark.parametrize("value, shown", [
    (10 ** 400, "10000000...(401 digits)"),
    (-10 ** 25 - 7, "-10000000...(26 digits)"),
    (10 ** 19, "10000000000000000000"),
    (0.1, "0.1"),
    ("Right", "'Right'"),
    ("x" * 100, "'" + "x" * 59 + "...(102 characters)"),
])
def test_brief_shortens_what_an_error_quotes(value, shown):
    assert brief(value) == shown


def test_chain_indices_partition_keypoints():
    seen = []
    for f in Finger:
        chain = CHAIN_INDICES[f]
        assert chain[0] == 0
        seen.extend(chain[1:])
    assert sorted(seen) == list(range(1, NUM_KEYPOINTS))


def test_jsonl_round_trip(tmp_path):
    frames = [
        make_frame(make_hand(), t_us=0),
        make_frame(None, t_us=33_333),
        make_frame(make_hand(n3d=None), t_us=66_666),
    ]
    path = tmp_path / "frames.jsonl"
    path.write_text("".join(json.dumps(frame_to_dict(f)) + "\n" for f in frames))
    back = list(read_jsonl(path, frame_from_dict))
    assert len(back) == 3
    for a, b in zip(frames, back):
        assert (a.t_us, a.w, a.h) == (b.t_us, b.w, b.h)
        if a.hand is None:
            assert b.hand is None
            continue
        assert b.hand.handedness == a.hand.handedness
        np.testing.assert_allclose(b.hand.kp2d, a.hand.kp2d)
        if a.hand.kp3d is None:
            assert b.hand.kp3d is None
        else:
            np.testing.assert_allclose(b.hand.kp3d, a.hand.kp3d)


def test_read_jsonl_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(MalformedFrame, match="bad.jsonl:1: "):
        list(read_jsonl(path, dict))


def test_frame_from_dict_rejects_missing_keys():
    with pytest.raises(MalformedFrame):
        frame_from_dict({"t_us": 0, "w": 640, "h": 480})


@pytest.mark.parametrize("key, value", [
    ("t_us", 1.5), ("t_us", True), ("t_us", "0"),
    ("w", 640.7), ("w", 640.0), ("h", False), ("h", None),
])
def test_frame_from_dict_rejects_non_integers(key, value):
    # int() would read 1.5 as 1 and true as 1
    obj = frame_to_dict(make_frame(make_hand()))
    obj[key] = value
    with pytest.raises(MalformedFrame, match=f"{key} must be an integer"):
        frame_from_dict(obj)


@pytest.mark.parametrize("hand", [5, [], "Right", {"score": True}])
def test_frame_from_dict_rejects_bad_hand(hand):
    obj = frame_to_dict(make_frame(make_hand()))
    obj["hand"] = dict(obj["hand"], **hand) if isinstance(hand, dict) else hand
    with pytest.raises(MalformedFrame):
        frame_from_dict(obj)


def test_read_jsonl_skips_blank_lines_and_rejects_non_objects(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n  \n{"b": 2}\n')
    assert list(read_jsonl(path, dict)) == [{"a": 1}, {"b": 2}]
    path.write_text('{"a": 1}\n[1]\n')
    with pytest.raises(MalformedFrame, match="rows.jsonl:2: expected a JSON object"):
        list(read_jsonl(path, dict))


def test_readers_map_unreadable_and_undecodable_files(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(ValidationError, match="cannot read"):
        read_json(missing, dict)
    with pytest.raises(ValidationError, match="cannot read"):
        list(read_jsonl(missing, dict))
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{\n"a":\n\xff}\n')
    with pytest.raises(MalformedFrame, match="bad.json:3: "):
        read_json(bad, dict)
    bad.write_bytes(b'{"a": 1}\n\n{"b": "\xff"}\n')
    with pytest.raises(MalformedFrame, match="bad.json:3: "):
        list(read_jsonl(bad, dict))
    bad.write_bytes(b'{"a": 1,\n "b" 2}')
    with pytest.raises(MalformedFrame, match="bad.json:2: "):
        read_json(bad, dict)


@pytest.mark.parametrize("error", [UnknownLabel, DegeneratePalm])
def test_readers_locate_what_parse_raises(tmp_path, error):
    # the same class, so the CLI exit code stays the error's own
    def parse(obj):
        if obj.get("bad"):
            raise error("no good")
        return obj

    path = tmp_path / "doc.json"
    path.write_text('{"bad": true}')
    with pytest.raises(error, match=r"^" + re.escape(f"{path}: no good") + "$"):
        read_json(path, parse)
    path.write_text('{"bad": false}\n\n{"bad": true}\n')
    rows = read_jsonl(path, parse)
    assert next(rows) == {"bad": False}
    with pytest.raises(error, match=r"^" + re.escape(f"{path}:3: no good") + "$"):
        next(rows)


def test_frame_dict_tolerates_extra_keys():
    # dataset rows carry "schema" and "label" alongside the frame fields
    obj = frame_to_dict(make_frame(make_hand()))
    obj["schema"] = "dataset/1"
    obj["label"] = "OpenPalm"
    frame = frame_from_dict(obj)
    assert frame.hand is not None


@pytest.mark.parametrize("rename, extra", [
    ({"kp3d": "kp3D"}, {}), ({}, {"kp3": None}), ({"score": "confidence"}, {"label": "X"}),
])
def test_frame_from_dict_rejects_unknown_hand_keys(rename, extra):
    # a misspelt "kp3D" used to read as a 2D-only hand
    obj = frame_to_dict(make_frame(make_hand()))
    obj["hand"] = {**{rename.get(k, k): v for k, v in obj["hand"].items()}, **extra}
    unknown = sorted(set(rename.values()) | set(extra))
    with pytest.raises(MalformedFrame, match=re.escape(f"unknown hand keys: {unknown!r}")):
        frame_from_dict(obj)


def test_frame_from_dict_reads_a_hand_without_kp3d_as_2d_only():
    obj = frame_to_dict(make_frame(make_hand()))
    del obj["hand"]["kp3d"]
    assert frame_from_dict(obj).hand.kp3d is None


@pytest.mark.parametrize("key, entry", [
    ("kp3d", "0.1"), ("kp2d", True), ("kp3d", None), ("kp2d", {"x": 1}),
])
def test_frame_from_dict_rejects_non_numeric_keypoints(key, entry):
    # np.asarray(..., dtype=float) would parse "0.1" and cast True to 1.0
    obj = frame_to_dict(make_frame(make_hand()))
    obj["hand"][key] = [[entry] * len(row) for row in obj["hand"][key]]
    with pytest.raises(MalformedFrame, match=f"{key} must hold numbers"):
        frame_from_dict(obj)


@pytest.mark.parametrize("key, row", [("kp3d", [True, 0.5, 0.2]), ("kp2d", [3, False])])
def test_frame_from_dict_rejects_a_bool_among_numbers(key, row):
    # numpy promotes [True, 0.5, 0.2] to [1.0, 0.5, 0.2]
    obj = frame_to_dict(make_frame(make_hand()))
    obj["hand"][key][4] = row
    with pytest.raises(MalformedFrame, match=f"{key} must hold numbers"):
        frame_from_dict(obj)


@pytest.mark.parametrize("value", [[0.5, True], [1, False], [[1.0, 2.0], [True, 3.0]]])
def test_float_array_rejects_a_bool_among_numbers(value):
    with pytest.raises(TypeError, match="got a bool among them"):
        float_array(value, "x")


def test_float_array_stacks_a_list_of_float64_rows_bitwise():
    rows = list(np.random.default_rng(36).normal(size=(50, 12)))
    assert float_array(rows, "features", (50, 12)).tobytes() == np.stack(rows).tobytes()


@pytest.mark.parametrize("value", [
    [np.ones(3), np.array([True, False, True])],
    [np.ones((2, 3)), [[1.0, 2.0, 3.0], np.array([0, 1, 0], dtype=bool)]],
    [np.array(True), 0.5],
], ids=["bool-row", "bool-row-nested", "bool-0d"])
def test_float_array_reads_a_bool_row_by_its_dtype(value):
    # an ndarray entry's dtype stands for its elements, which are not walked
    with pytest.raises(TypeError, match="^x must hold numbers, got a bool among them$"):
        float_array(value, "x")


@pytest.mark.parametrize("value", [2.5, [0.5, 1], [[1, 2.0], [3, 4]]])
def test_float_array_takes_numbers_of_any_depth(value):
    np.testing.assert_array_equal(float_array(value, "x"), np.asarray(value, dtype=float))


def test_float_array_returns_a_float64_array_as_it_is():
    arr = np.zeros((21, 3))
    assert float_array(arr, "kp3d", (21, 3)) is arr
    single = float_array(arr.astype(np.float32), "kp3d", (21, 3))
    assert single.dtype == np.float64 and single.shape == (21, 3)


@pytest.mark.parametrize("value", [[np.True_, 0.5], np.array([1.0, 2.0], dtype=object)])
def test_float_array_rejects_numpy_bools_and_objects(value):
    with pytest.raises(TypeError, match="must hold numbers"):
        float_array(value, "x")


@pytest.mark.parametrize("value, same", [
    ([10 ** 20, 0.5], [1e20, 0.5]),
    ([[1, -10 ** 30], [2, 3]], [[1, -1e30], [2, 3]]),
    (10 ** 20, 1e20),
])
def test_float_array_reads_an_integer_past_uint64_as_its_float(value, same):
    # numpy makes an object array of such an integer, which was rejected as
    # "x must hold numbers, got dtype object"
    arr = float_array(value, "x")
    assert arr.dtype == np.float64 and arr.tobytes() == float_array(same, "x").tobytes()


@pytest.mark.parametrize("value", [[10 ** 20, "1"], [10 ** 20, True], [10 ** 20, None],
                                   [[10 ** 20], [np.True_]]])
def test_float_array_rejects_an_object_array_of_other_than_numbers(value):
    with pytest.raises(TypeError, match="^x must hold numbers, got dtype object$"):
        float_array(value, "x")


@pytest.mark.parametrize("value, shown, error", [
    ([10 ** 400], "10000000...(401 digits)", ValidationError),
    ([[1, -10 ** 20], [0.5, -10 ** 400]], "-10000000...(401 digits)", ValidationError),
    (10 ** 400, "10000000...(401 digits)", ValidationError),
    ([10 ** 20, 10 ** 400], "10000000...(401 digits)", MalformedFrame),
], ids=["list", "nested-negative", "scalar", "decoder-error"])
def test_float_array_names_an_integer_past_a_float_as_check_number_does(value, shown, error):
    # it was named a wrong type: "x must hold numbers, got dtype object"
    message = f"x must be a number in (-inf, inf), got {shown}"
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        float_array(value, "x", error=None if error is ValidationError else error)
    assert type(caught.value) is error


def test_float_array_checks_the_shape_of_either_path():
    message = re.escape("kp2d must have shape (21, 2), got (21, 3)")
    with pytest.raises(ShapeMismatch, match=message):
        float_array(np.zeros((21, 3)), "kp2d", (21, 2))
    with pytest.raises(ShapeMismatch, match=message):
        float_array([[0, 0, 0]] * 21, "kp2d", (21, 2))


@pytest.mark.parametrize("value, message", [
    (["0.5", "1"], "x must hold numbers, got dtype <U3"),
    ([0.5, True], "x must hold numbers, got a bool among them"),
    ([[1.0], [1.0, 2.0]], "x must be a rectangular array, got a ragged list"),
    ([1.0, 2.0, 3.0], "x must have shape (2,), got (3,)"),
])
def test_float_array_raises_a_decoders_error(value, message):
    # a ragged list raised numpy's ValueError, "inhomogeneous shape after 1
    # dimensions", which decoders caught and printed
    with pytest.raises(MalformedConfig, match=f"^{re.escape(message)}$"):
        float_array(value, "x", (2,), error=MalformedConfig)


def test_float_array_raises_shape_mismatch_for_a_ragged_list():
    with pytest.raises(ShapeMismatch, match="ragged"):
        float_array([[1.0], [1.0, 2.0]], "x")


_AB = frozenset({"a", "b"})


@pytest.mark.parametrize("obj, optional, message", [
    ({"a": 1, "b": 2}, frozenset(), None),
    ({"a": 1, "b": 2, "c": 3}, frozenset({"c"}), None),
    ({"a": 1, "b": 2, "label": 3}, None, None),
    ([1], frozenset(), "hand must be an object, got [1]"),
    (None, None, "hand must be an object, got None"),
    ({"a": 1, "b": 2, "x": 3, "c": 4}, frozenset({"c"}), "unknown hand keys: ['x']"),
    # the misspelt key is named, not the one it was meant to be
    ({"a": 1, "bb": 2}, frozenset(), "unknown hand keys: ['bb']"),
    ({"a": 1}, frozenset({"c"}), "hand needs 'b'"),
    ({"c": 1}, frozenset({"c"}), "hand needs 'a'"),
    ({"b": 2, "label": 3}, None, "hand needs 'a'"),
], ids=["exact", "optional", "open", "list", "null", "unknown", "unknown-before-missing",
        "missing", "first-missing", "open-missing"])
def test_check_keys_words_three_messages(obj, optional, message):
    if message is None:
        assert check_keys(obj, _AB, "hand", optional, error=MalformedFrame) is obj
    else:
        with pytest.raises(MalformedFrame, match=f"^{re.escape(message)}$"):
            check_keys(obj, _AB, "hand", optional, error=MalformedFrame)


def test_check_keys_raises_malformed_config_by_default():
    with pytest.raises(MalformedConfig, match="^model needs 'b'$"):
        check_keys({"a": 1}, _AB, "model")


# -- every array the package takes goes through float_array ------------------

_LAYERS = list(zip(mlp.LAYER_SIZES[1:], mlp.LAYER_SIZES))  # (fan_out, fan_in)


def _model(part=None, value=None):
    """A zero-weight MlpModel, with one argument replaced: the first layer's
    weights or bias, feat_mean or feat_std."""
    args = {"weights": [np.zeros(shape) for shape in _LAYERS],
            "biases": [np.zeros(shape[0]) for shape in _LAYERS],
            "feat_mean": np.zeros(12), "feat_std": np.ones(12)}
    if part in ("weights", "biases"):
        args[part][0] = value
    elif part is not None:
        args[part] = value
    return mlp.MlpModel(**args)


_MODEL = lifting.default_hand_model()
_INTR = lifting.default_intrinsics(640, 480)
_POSE = np.zeros(lifting.NUM_POSE_PARAMS)
_POSE[lifting.TRANSLATION] = (0.0, 0.0, 0.5)
_KP2D = np.random.default_rng(3).uniform(100.0, 400.0, (21, 2))
_THRESHOLDS = (0.5, 1.5, 0.1, 0.3)

# entry -> (call with one array, an array of the shape it takes); None when
# the shape is checked elsewhere or not at all
ARRAY_ENTRIES = {
    "alignment.compute_alignment": (alignment.compute_alignment, _KP2D),
    "alignment.rotation_vector": (alignment.rotation_vector, _KP2D),
    "features.feature_vector": (lambda a: features.feature_vector(a, "Right"), np.ones((21, 3))),
    "features.euler_from_rotation": (features.euler_from_rotation, np.eye(3)),
    "lifting.rotvec_from_rotmat": (lifting.rotvec_from_rotmat, np.eye(3)),
    "lifting.project": (lambda a: lifting.project(a, _INTR), np.ones((21, 3))),
    "lifting.HandModel-directions": (lambda a: lifting.HandModel(a, _MODEL.lengths),
                                     _MODEL.directions),
    "lifting.HandModel-lengths": (lambda a: lifting.HandModel(_MODEL.directions, a),
                                  _MODEL.lengths),
    "lifting.forward_kinematics": (lambda a: lifting.forward_kinematics(_MODEL, a), _POSE),
    "lifting.normalize_world": (lifting.normalize_world, np.ones((21, 3))),
    "lifting.fit_pose": (lambda a: lifting.fit_pose(a, _MODEL, _INTR, _POSE), _KP2D),
    "lifting.fit_pose-init": (lambda a: lifting.fit_pose(_KP2D, _MODEL, _INTR, a), _POSE),
    "lifting.lift_keypoints": (lambda a: lifting.lift_keypoints(a, "Right", _MODEL, _INTR),
                               _KP2D),
    **{f"mlp.MlpModel-{part}": (lambda a, part=part: _model(part, a), good)
       for part, good in (("weights", np.ones((50, 12))), ("biases", np.ones(50)),
                          ("feat_mean", np.ones(12)), ("feat_std", np.ones(12)))},
    "mlp.forward": (lambda a: mlp.forward(_model(), a), np.ones(12)),
    "mlp.classify_nn": (lambda a: mlp.classify_nn(_model(), a), np.ones(12)),
    "mlp.gradient_check": (lambda a: mlp.gradient_check(_model(), a, "Victory"), np.ones(12)),
    "mlp.train": (lambda a: mlp.train(list(zip(a, ("OpenPalm", "Negative")))), np.ones((2, 12))),
    "mlp.calibrate_threshold": (lambda a: mlp.calibrate_threshold(_model(), [a], 0.1),
                                np.ones(12)),
    "mlp.focal_loss": (lambda a: mlp.focal_loss(a, "Victory"), np.full(7, 1.0 / 7.0)),
    "mlp.softmax": (mlp.softmax, None),
    "mlp.TrainConfig-alpha": (lambda a: mlp.TrainConfig(alpha=a), np.ones(7)),
    "heuristic.StateThresholds": (
        lambda a: heuristic.StateThresholds(a, *_THRESHOLDS[1:]), np.full(5, 0.5)),
    "heuristic.classify_heuristic": (
        lambda a: heuristic.classify_heuristic(a, heuristic.default_config()), np.ones(12)),
    "skeleton.HandSkeleton": (lambda a: HandSkeleton("Right", 1.0, a, None), None),
}


def _bad_input(kind, good):
    if good is None:
        good = np.ones((21, 2))
    if kind == "strings":  # a decoded JSON list of decimal strings
        return good.astype(str).tolist()
    if kind == "bools":
        return good != 0.0
    return np.zeros(good.shape[:-1] + (good.shape[-1] + 1,))


@pytest.mark.parametrize("entry, kind", [
    (entry, kind) for entry, (_, good) in ARRAY_ENTRIES.items()
    for kind in ("strings", "bools", "shape") if kind != "shape" or good is not None])
def test_every_array_entry_takes_its_array_through_float_array(entry, kind):
    # numbers given as strings were parsed and bools cast to 0.0 and 1.0
    call, good = ARRAY_ENTRIES[entry]
    error, message = ((ShapeMismatch, "must have shape") if kind == "shape"
                      else (TypeError, "must hold numbers"))
    with pytest.raises(error, match=message):
        call(_bad_input(kind, good))


def test_frame_from_dict_takes_integer_keypoints():
    obj = frame_to_dict(make_frame(make_hand()))
    obj["hand"]["kp2d"] = [[int(x), int(y)] for x, y in obj["hand"]["kp2d"]]
    kp2d = frame_from_dict(obj).hand.kp2d
    assert kp2d.dtype == np.float64
    assert kp2d.tolist() == obj["hand"]["kp2d"]


# -- every numeric setting goes through check_number ---------------------------

# the fields a config needs beyond the one under test
_CONFIG_NEEDS = {harness.SynthConfig: {}, mlp.TrainConfig: {},
                 pipeline.PipelineConfig: {"max_detect_hz": 5.0}}
_NEGATIVES = [np.zeros(12)]


def _model_with_tau(tau):
    return mlp.MlpModel([np.zeros(shape) for shape in _LAYERS],
                        [np.zeros(shape[0]) for shape in _LAYERS],
                        np.zeros(12), np.ones(12), tau=tau)


# setting -> (call with one value, integer?): every scalar field of the
# three configs, read from the dataclass so that a new field is covered,
# then the model's threshold and the scalar arguments
SCALAR_SETTINGS = {
    **{f"{cls.__name__}.{f.name}": (
        lambda v, cls=cls, name=f.name: cls(**{**_CONFIG_NEEDS[cls], name: v}),
        f.type == "int")
       for cls in _CONFIG_NEEDS for f in fields(cls) if f.type in ("int", "float")},
    "MlpModel.tau": (_model_with_tau, False),
    "make_dataset.per_gesture": (
        lambda v: harness.make_dataset(harness.SynthConfig(), v, ("OpenPalm",)), True),
    "calibrate_threshold.target_fpr": (
        lambda v: mlp.calibrate_threshold(_model(), _NEGATIVES, v), False),
    "default_intrinsics.width": (lambda v: lifting.default_intrinsics(v, 480), True),
    "default_intrinsics.height": (lambda v: lifting.default_intrinsics(640, v), True),
}

# every setting's interval starts at 0 or above, so -1 lies outside it
_NOT_SETTINGS = {"true": True, "numpy-true": np.True_, "string": "1", "nan": float("nan"),
                 "huge-int": 10 ** 400, "minus-one": -1}


def test_the_table_reads_the_config_fields():
    assert {"SynthConfig.seed", "SynthConfig.noise_m", "TrainConfig.epochs",
            "TrainConfig.val_fraction", "PipelineConfig.max_detect_hz",
            "PipelineConfig.min_track_score"} <= set(SCALAR_SETTINGS)


@pytest.mark.parametrize("setting, value", [
    (setting, value) for setting, (_, integer) in SCALAR_SETTINGS.items()
    for value in [*_NOT_SETTINGS, *(["fraction"] if integer else [])]])
def test_every_numeric_setting_rejects_what_it_cannot_interpret(setting, value):
    call, _ = SCALAR_SETTINGS[setting]
    with pytest.raises(ValidationError, match=f"^{setting.split('.')[-1]} must be "):
        call(_NOT_SETTINGS.get(value, 2.5))


@pytest.mark.parametrize("call", [
    lambda: harness.SynthConfig(seed=1.5), lambda: harness.SynthConfig(seed=True),
    lambda: harness.SynthConfig(width=640.5), lambda: harness.SynthConfig(width=True),
    lambda: mlp.TrainConfig(epochs=2.5), lambda: mlp.TrainConfig(batch_size=True),
    lambda: mlp.TrainConfig(seed=float("nan")), lambda: mlp.TrainConfig(learning_rate=True),
    lambda: mlp.TrainConfig(gamma=True),
    lambda: pipeline.PipelineConfig(5.0, track_loss_frames=2.5),
    lambda: pipeline.PipelineConfig(max_detect_hz=True),
    lambda: pipeline.PipelineConfig(5.0, min_track_score=True),
    lambda: _model_with_tau("0.5"), lambda: _model_with_tau(True),
    lambda: harness.make_dataset(harness.SynthConfig(), True),
    lambda: harness.make_dataset(harness.SynthConfig(), 1.5),
    lambda: lifting.default_intrinsics(float("nan"), 480),
    lambda: lifting.default_intrinsics(True, 480),
    lambda: lifting.default_intrinsics(640.5, 480),
    lambda: lifting.default_intrinsics(10 ** 400, 480),
])
def test_settings_once_taken_or_raised_past_are_rejected(call):
    # each of these was accepted, or raised TypeError or OverflowError
    with pytest.raises(ValidationError):
        call()


def test_check_number_takes_numpy_numbers_and_returns_them_unchanged():
    seed = np.int64(3)
    assert check_number(seed, "seed", 0, integer=True) is seed
    assert harness.SynthConfig(seed=seed).seed is seed
    assert lifting.default_intrinsics(np.int64(640), np.int64(480)) == \
        lifting.default_intrinsics(640, 480)
    with pytest.raises(ValidationError, match=r"^seed must be an integer, got np\.True_$"):
        harness.SynthConfig(seed=np.bool_(True))


@pytest.mark.parametrize("score", [True, np.True_, "0.5", float("nan"), 10 ** 400, -0.1, 1.5],
                         ids=["true", "numpy-true", "string", "nan", "huge-int", "negative",
                              "above-one"])
def test_hand_score_meets_the_scalar_rule(score):
    # True and np.True_ were written as score 1.0, and "0.5" raised TypeError
    with pytest.raises(MalformedFrame, match="^score must be a number"):
        make_hand(score=score)


def test_hand_score_takes_both_ends():
    assert make_hand(score=0).score == 0 and make_hand(score=1.0).score == 1.0


@pytest.mark.parametrize("value, ends, ok", [
    (0.0, "[]", True), (1.0, "[]", True), (0.0, "(]", False), (1.0, "[)", False),
    (0.5, "()", True), (float("inf"), "[]", False),
])
def test_check_number_reads_its_ends(value, ends, ok):
    if ok:
        assert check_number(value, "x", 0, 1, ends=ends) == value
    else:
        with pytest.raises(ValidationError, match=re.escape(f"x must be a number in "
                                                            f"{ends[0]}0, 1{ends[1]}")):
            check_number(value, "x", 0, 1, ends=ends)


# (config, decoded JSON): keys decode_config rejects, then values that each
# config's own check rejects, raising ValidationError, TypeError or ValueError
@pytest.mark.parametrize("cls, obj", [
    (harness.SynthConfig, []), (pipeline.PipelineConfig, {}),
    (harness.SynthConfig, {"seed": 1, "extra": 1}), (mlp.TrainConfig, {"epochs": "5"}),
    (pipeline.PipelineConfig, {"max_detect_hz": 10 ** 400}),
    (pipeline.PipelineConfig, {"max_detect_hz": 5.0, "classifier_ref": 3}),
    (harness.SynthConfig, {"tz_range": 5}), (harness.SynthConfig, {"handedness": "right"}),
    (mlp.TrainConfig, {"alpha": "1"}), (mlp.TrainConfig, {"alpha": [[1.0], [1.0, 2.0]]}),
], ids=["list", "required-missing", "unknown-key", "string-integer", "huge-integer",
        "integer-ref", "range-number", "handedness-lowercase", "alpha-string",
        "alpha-ragged"])
def test_decode_config_raises_malformed_config(cls, obj):
    with pytest.raises(MalformedConfig):
        decode_config(cls, obj, "config")


def test_decode_config_keeps_the_text_of_the_config_check():
    with pytest.raises(ValidationError) as direct:
        mlp.TrainConfig(epochs="5")
    with pytest.raises(MalformedConfig) as decoded:
        decode_config(mlp.TrainConfig, {"schema": "train/1", "epochs": "5"}, "training config")
    assert str(decoded.value) == str(direct.value) == "epochs must be an integer, got '5'"


def test_open_output_keeps_the_target_when_the_body_raises(tmp_path):
    target = tmp_path / "out.jsonl"
    target.write_text("old\n")
    with pytest.raises(KeyboardInterrupt):
        with open_output(target) as fp:
            fp.write("partial\n")
            fp.flush()
            raise KeyboardInterrupt
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.jsonl"]


def test_open_output_errors_name_the_given_path(tmp_path):
    target = tmp_path / "no-such-dir" / "out.jsonl"
    with pytest.raises(ValidationError) as info:
        with open_output(target):
            pass
    assert str(info.value) == f"cannot write {target}: No such file or directory"


def test_write_jsonl_to_an_empty_path_creates_nothing(tmp_path, monkeypatch):
    # realpath("") is the working directory: a new file beside it would land
    # in its parent, and the move onto a directory fails
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    with pytest.raises(ValidationError) as info:
        write_jsonl("", [{"a": 1}])
    assert str(info.value) == "cannot write '': No such file or directory"
    assert os.listdir(tmp_path) == ["work"]
    assert os.listdir(work) == []


def test_write_jsonl_counts_rows_and_keeps_the_target_when_rows_raise(tmp_path):
    target = tmp_path / "out.jsonl"
    assert write_jsonl(target, iter([{"a": 1}, {"b": [2.5, None]}])) == 2
    assert target.read_text() == '{"a": 1}\n{"b": [2.5, null]}\n'

    def rows():
        yield {"c": 3}
        raise MalformedFrame("bad row")

    with pytest.raises(MalformedFrame):
        write_jsonl(target, rows())
    assert target.read_text() == '{"a": 1}\n{"b": [2.5, null]}\n'
    assert os.listdir(tmp_path) == ["out.jsonl"]


def test_write_json_passes_indent_through(tmp_path):
    target = tmp_path / "out.json"
    write_json(target, {"n": 2, "xs": [1]}, indent=2)
    assert target.read_text() == json.dumps({"n": 2, "xs": [1]}, indent=2) + "\n"
    write_json(target, {"n": 2})
    assert target.read_text() == '{"n": 2}\n'
