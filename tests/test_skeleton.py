"""Topology, frame validation, and JSONL round trips."""

import json

import numpy as np
import pytest

from handgest.errors import MalformedFrame, Missing3D, ValidationError
from handgest.skeleton import (
    BONES,
    CHAIN_INDICES,
    FINGER_KEYPOINTS,
    NUM_KEYPOINTS,
    Finger,
    HandFrame,
    HandSkeleton,
    finger_chain,
    frame_from_dict,
    frame_to_dict,
    read_json,
    read_jsonl,
    validate_frame,
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


def test_validate_frame_accepts_good_frame():
    frame = make_frame(make_hand())
    assert validate_frame(frame) is frame


def test_validate_frame_accepts_empty_hand():
    frame = make_frame(None)
    assert validate_frame(frame) is frame


def test_validate_frame_is_idempotent():
    frame = make_frame(make_hand())
    once = validate_frame(frame)
    assert validate_frame(once) is once


def test_validate_frame_rejects_wrong_count():
    with pytest.raises(MalformedFrame):
        validate_frame(make_frame(make_hand(n2d=20)))
    with pytest.raises(MalformedFrame):
        validate_frame(make_frame(make_hand(n3d=22)))


def test_validate_frame_rejects_bad_values():
    hand = make_hand()
    hand.kp2d[3, 0] = np.nan
    with pytest.raises(MalformedFrame):
        validate_frame(make_frame(hand))
    with pytest.raises(MalformedFrame):
        validate_frame(make_frame(make_hand(score=1.5)))
    with pytest.raises(MalformedFrame):
        validate_frame(HandFrame(t_us=0, w=0, h=480, hand=None))
    bad = make_hand()
    bad.handedness = "Ambidextrous"
    with pytest.raises(MalformedFrame):
        validate_frame(make_frame(bad))


def test_finger_chain_indices():
    hand = make_hand()
    np.testing.assert_array_equal(
        finger_chain(hand, Finger.INDEX), hand.kp3d[[0, 5, 6, 7, 8]])
    np.testing.assert_array_equal(
        finger_chain(hand, Finger.THUMB), hand.kp3d[[0, 1, 2, 3, 4]])


def test_finger_chain_partitions_keypoints():
    seen = []
    for f in Finger:
        chain = CHAIN_INDICES[f]
        assert chain[0] == 0
        seen.extend(chain[1:])
    assert sorted(seen) == list(range(1, NUM_KEYPOINTS))


def test_finger_chain_requires_3d():
    hand = make_hand(n3d=None)
    with pytest.raises(Missing3D):
        finger_chain(hand, Finger.MIDDLE)


def test_jsonl_round_trip(tmp_path):
    frames = [
        make_frame(make_hand(), t_us=0),
        make_frame(None, t_us=33_333),
        make_frame(make_hand(n3d=None), t_us=66_666),
    ]
    path = tmp_path / "frames.jsonl"
    path.write_text("".join(json.dumps(frame_to_dict(f)) + "\n" for f in frames))
    back = [frame_from_dict(obj) for obj in read_jsonl(path)]
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
        list(read_jsonl(path))


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
    assert list(read_jsonl(path)) == [{"a": 1}, {"b": 2}]
    path.write_text('{"a": 1}\n[1]\n')
    with pytest.raises(MalformedFrame, match="rows.jsonl:2: expected a JSON object"):
        list(read_jsonl(path))


def test_readers_map_unreadable_and_undecodable_files(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(ValidationError, match="cannot read"):
        read_json(missing)
    with pytest.raises(ValidationError, match="cannot read"):
        list(read_jsonl(missing))
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{\n"a":\n\xff}\n')
    with pytest.raises(MalformedFrame, match="bad.json:3: "):
        read_json(bad)
    bad.write_bytes(b'{"a": 1}\n\n{"b": "\xff"}\n')
    with pytest.raises(MalformedFrame, match="bad.json:3: "):
        list(read_jsonl(bad))
    bad.write_bytes(b'{"a": 1,\n "b" 2}')
    with pytest.raises(MalformedFrame, match="bad.json:2: "):
        read_json(bad)


def test_frame_dict_tolerates_extra_keys():
    # dataset rows carry "schema" and "label" alongside the frame fields
    obj = frame_to_dict(make_frame(make_hand()))
    obj["schema"] = "dataset/1"
    obj["label"] = "OpenPalm"
    frame = frame_from_dict(obj)
    assert frame.hand is not None
