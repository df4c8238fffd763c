"""Palm pose, Euler decomposition, and the 12-dim feature vector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handgest.errors import DegeneratePalm, MalformedFrame, ZeroSegment
from handgest.features import (
    EulerAngles,
    _all_angles,
    euler_from_rotation,
    feature_vector,
    intrinsic_keypoints,
    palm_pose,
    rotation_from_euler,
)
from handgest.harness import SynthConfig, synth_pose
from handgest.skeleton import Finger


def base_kp3d(rng=None):
    """Valid-ish filler skeleton; tests overwrite the keypoints they use."""
    rng = rng or np.random.default_rng(17)
    kp = rng.normal(0.0, 0.03, size=(21, 3))
    kp[0] = 0.0
    kp[5] = (0.03, -0.01, 0.07)
    kp[9] = (0.0, 0.0, 0.08)
    kp[17] = (-0.03, -0.01, 0.06)
    return kp


def synth_kp3d(label, seed=0):
    cfg = SynthConfig(seed=seed, jitter_std_rad=0.0, orientation_jitter_rad=0.0)
    frame, _ = synth_pose(label, cfg)
    return frame.hand


# --- palm pose ---

def test_palm_pose_frame_construction():
    kp = base_kp3d()
    kp[0] = (0.0, 0.0, 0.0)
    kp[5] = (1.0, 0.0, 1.0)
    kp[17] = (-1.0, 0.0, 1.0)
    kp[9] = (0.0, 0.0, 1.0)
    pose = palm_pose(kp, "Right")
    r = pose.rotation
    np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-9)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)
    # forward axis (second column) carries v1+v2 = (0,0,2)
    np.testing.assert_allclose(r[:, 1], (0.0, 0.0, 1.0), atol=1e-12)
    np.testing.assert_allclose(pose.translation, kp[0])
    assert pose.scale == pytest.approx(1.0)


def test_palm_pose_left_flips_normal():
    kp = base_kp3d()
    kp[0] = (0.0, 0.0, 0.0)
    kp[5] = (1.0, 0.0, 1.0)
    kp[17] = (-1.0, 0.0, 1.0)
    kp[9] = (0.0, 0.0, 1.0)
    right = palm_pose(kp, "Right")
    left = palm_pose(kp, "Left")
    np.testing.assert_allclose(left.rotation[:, 2], -right.rotation[:, 2], atol=1e-12)
    assert np.linalg.det(left.rotation) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("handedness", ["right", "left", "", None])
def test_palm_pose_rejects_unknown_handedness(handedness):
    # anything but "Right" would otherwise build the mirrored palm frame
    kp = synth_kp3d("OpenPalm").kp3d
    with pytest.raises(MalformedFrame, match="handedness"):
        palm_pose(kp, handedness)
    with pytest.raises(MalformedFrame, match="handedness"):
        feature_vector(kp, handedness)


def test_palm_pose_rejects_collinear_mcps():
    kp = base_kp3d()
    kp[0] = (0.0, 0.0, 0.0)
    kp[5] = (0.0, 0.0, 1.0)
    kp[17] = (0.0, 0.0, 2.0)
    with pytest.raises(DegeneratePalm):
        palm_pose(kp, "Right")


def test_palm_pose_rejects_zero_scale():
    kp = base_kp3d()
    kp[9] = kp[0]
    with pytest.raises(DegeneratePalm):
        palm_pose(kp, "Right")


# --- Euler angles ---

def test_euler_identity():
    e = euler_from_rotation(np.eye(3))
    assert (e.yaw, e.pitch, e.roll) == (0.0, 0.0, 0.0)
    assert not e.gimbal_lock


def test_euler_quarter_yaw():
    c, s = 0.0, 1.0
    rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    e = euler_from_rotation(rz)
    assert e.yaw == pytest.approx(np.pi / 2.0)
    assert e.pitch == pytest.approx(0.0, abs=1e-12)
    assert e.roll == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(rotation_from_euler(e), rz, atol=1e-12)


def test_euler_gimbal_lock_reconstructs():
    e_in = EulerAngles(yaw=0.7, pitch=np.pi / 2.0, roll=-0.3)
    r = rotation_from_euler(e_in)
    e = euler_from_rotation(r)
    assert e.gimbal_lock
    assert e.yaw == 0.0   # documented tie-break: roll absorbs everything
    np.testing.assert_allclose(rotation_from_euler(e), r, atol=1e-8)


@settings(max_examples=150, deadline=None)
@given(
    yaw=st.floats(-3.141, 3.141),
    pitch=st.floats(-1.47, 1.47),
    roll=st.floats(-3.141, 3.141),
)
def test_euler_round_trip_away_from_gimbal(yaw, pitch, roll):
    e = euler_from_rotation(rotation_from_euler(EulerAngles(yaw, pitch, roll)))
    assert abs(e.yaw - yaw) < 1e-8
    assert abs(e.pitch - pitch) < 1e-8
    assert abs(e.roll - roll) < 1e-8


def test_rotation_round_trip_random_matrices():
    rng = np.random.default_rng(5)
    for _ in range(200):
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        back = rotation_from_euler(euler_from_rotation(q))
        assert np.linalg.norm(back - q) < 1e-8


# --- intrinsic keypoints ---

def test_intrinsic_identity_pose_is_noop():
    kp = base_kp3d()
    kp[0] = (0.0, 0.0, 0.0)
    kp[5] = (1.0, 1.0, 0.0)
    kp[17] = (-1.0, 1.0, 0.0)
    kp[9] = (0.0, 1.0, 0.0)
    pose = palm_pose(kp, "Right")
    np.testing.assert_allclose(pose.rotation, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(intrinsic_keypoints(kp, pose), kp, atol=1e-12)


def test_intrinsic_unit_wrist_to_middle_mcp():
    for seed in range(5):
        kp = base_kp3d(np.random.default_rng(seed))
        out = intrinsic_keypoints(kp, palm_pose(kp, "Right"))
        np.testing.assert_allclose(out[0], 0.0, atol=1e-12)
        assert np.linalg.norm(out[9] - out[0]) == pytest.approx(1.0, abs=1e-12)


def test_intrinsic_invariant_under_rigid_and_scale():
    rng = np.random.default_rng(9)
    kp = synth_kp3d("Victory").kp3d
    ref = intrinsic_keypoints(kp, palm_pose(kp, "Right"))
    for _ in range(10):
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        s = float(rng.uniform(0.2, 5.0))
        t = rng.normal(0.0, 0.5, size=3)
        moved = kp @ q.T * s + t
        out = intrinsic_keypoints(moved, palm_pose(moved, "Right"))
        np.testing.assert_allclose(out, ref, atol=1e-9)


# --- finger and pair angles ---

def chain_kp3d(segments, finger=Finger.INDEX):
    kp = base_kp3d()
    idx = [0, *range(4 * finger + 1, 4 * finger + 5)]
    point = np.zeros(3)
    kp[idx[0]] = point
    for j, seg in enumerate(segments, start=1):
        point = point + np.asarray(seg, dtype=float)
        kp[idx[j]] = point
    return kp


def finger_angle(kp, finger=Finger.INDEX):
    return _all_angles(kp)[0][finger]


def test_finger_angle_straight_chain_is_zero():
    kp = chain_kp3d([(0, 1, 0)] * 4)
    assert finger_angle(kp) == pytest.approx(0.0, abs=1e-12)


def test_finger_angle_max_over_segments():
    kp = chain_kp3d([(0, 1, 0), (0, 1, 0), (1, 0, 0), (0, 1, 0)])
    assert finger_angle(kp) == pytest.approx(np.pi / 2.0)


def test_finger_angle_curled_reaches_pi():
    kp = chain_kp3d([(0, 1, 0), (1, 0, 0), (0, -1, 0), (0, -1, 0)])
    assert finger_angle(kp) == pytest.approx(np.pi)


def test_finger_angle_zero_segment():
    kp = chain_kp3d([(0, 1, 0), (0, 0, 0), (1, 0, 0), (0, 1, 0)])
    with pytest.raises(ZeroSegment):
        finger_angle(kp)


def test_finger_angle_monotone_in_deflection():
    # rotating one segment further from s0 never decreases the feature
    prev = -1.0
    for theta in np.linspace(0.0, np.pi, 40):
        seg = (np.sin(theta), np.cos(theta), 0.0)
        kp = chain_kp3d([(0, 1, 0), (0, 1, 0), seg, (0, 1, 0)])
        ang = finger_angle(kp)
        assert ang >= prev - 1e-12
        prev = ang


def test_pair_angle_parallel_and_orthogonal():
    kp = base_kp3d()
    kp[0] = (0.0, -1.0, 0.0)  # off the index base, so no segment is zero
    kp[5], kp[6] = (0.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    kp[9], kp[10] = (0.1, 0.0, 0.0), (0.1, 1.0, 0.0)
    assert _all_angles(kp)[1][1] == pytest.approx(0.0, abs=1e-12)
    kp[10] = (1.1, 0.0, 0.0)
    assert _all_angles(kp)[1][1] == pytest.approx(np.pi / 2.0)


def test_victory_spreads_index_middle():
    hand = synth_kp3d("Victory")
    fv = feature_vector(hand.kp3d, hand.handedness)
    assert fv.pair_angles[1] > fv.pair_angles[2]   # (index,middle) > (middle,ring)


# --- full feature vector ---

def test_feature_vector_ranges():
    for label in ("OpenPalm", "ClosedFist", "PointingUp"):
        hand = synth_kp3d(label)
        fv = feature_vector(hand.kp3d, hand.handedness)
        arr = fv.as_array()
        assert arr.shape == (12,)
        assert np.all(np.isfinite(arr))
        assert -np.pi < fv.euler.yaw <= np.pi
        assert -np.pi / 2.0 <= fv.euler.pitch <= np.pi / 2.0
        assert -np.pi < fv.euler.roll <= np.pi
        assert np.all(fv.finger_angles >= 0.0) and np.all(fv.finger_angles <= np.pi)
        assert np.all(fv.pair_angles >= 0.0) and np.all(fv.pair_angles <= np.pi)


def test_feature_vector_rotation_changes_euler_only():
    hand = synth_kp3d("OpenPalm")
    fv = feature_vector(hand.kp3d, hand.handedness)
    q = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    fv_rot = feature_vector(hand.kp3d @ q.T, hand.handedness)
    # dead-straight fingers sit at the arccos endpoint, where rotation
    # round-off amplifies to ~sqrt(eps); away from 0/pi the drift is ~1e-12
    np.testing.assert_allclose(fv_rot.finger_angles, fv.finger_angles, atol=1e-7)
    np.testing.assert_allclose(fv_rot.pair_angles, fv.pair_angles, atol=1e-7)
    assert not np.allclose(fv_rot.euler.as_array(), fv.euler.as_array(), atol=1e-3)


def test_feature_vector_scale_invariant_including_euler():
    hand = synth_kp3d("ThumbUp")
    fv = feature_vector(hand.kp3d, hand.handedness)
    fv3 = feature_vector(hand.kp3d * 3.0, hand.handedness)
    np.testing.assert_allclose(fv3.as_array(), fv.as_array(), atol=1e-9)
