"""Palm pose, Euler decomposition, and the 12-dim feature vector."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handgest.errors import DegeneratePalm, MalformedFrame, Missing3D, ShapeMismatch, ZeroSegment
from handgest.features import (
    EPS_GIMBAL,
    EPS_PALM_AREA_M2,
    EPS_PALM_SCALE_M,
    EPS_SEGMENT_M,
    _all_angles,
    _intrinsic,
    _palm_frame,
    cross,
    euler_from_rotation,
    feature_vector,
    frame_features,
    rotation_from_euler,
)
from handgest.harness import SynthConfig, sample_rng, synth_pose
from handgest.labels import ALL_GESTURES
from handgest.skeleton import CHAIN_INDICES, Finger


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
    r, wrist, scale = _palm_frame(kp, "Right")
    np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-9)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)
    # forward axis (second column) carries v1+v2 = (0,0,2)
    np.testing.assert_allclose(r[:, 1], (0.0, 0.0, 1.0), atol=1e-12)
    np.testing.assert_allclose(wrist, kp[0])
    assert scale == pytest.approx(1.0)


def test_palm_pose_left_flips_normal():
    kp = base_kp3d()
    kp[0] = (0.0, 0.0, 0.0)
    kp[5] = (1.0, 0.0, 1.0)
    kp[17] = (-1.0, 0.0, 1.0)
    kp[9] = (0.0, 0.0, 1.0)
    right = _palm_frame(kp, "Right")[0]
    left = _palm_frame(kp, "Left")[0]
    np.testing.assert_allclose(left[:, 2], -right[:, 2], atol=1e-12)
    assert np.linalg.det(left) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("handedness", ["right", "left", "", None])
def test_palm_pose_rejects_unknown_handedness(handedness):
    # anything but "Right" would otherwise build the mirrored palm frame
    kp = synth_kp3d("OpenPalm").kp3d
    with pytest.raises(MalformedFrame, match="handedness"):
        _palm_frame(kp, handedness)
    with pytest.raises(MalformedFrame, match="handedness"):
        feature_vector(kp, handedness)


def test_palm_pose_rejects_collinear_mcps():
    kp = base_kp3d()
    kp[0] = (0.0, 0.0, 0.0)
    kp[5] = (0.0, 0.0, 1.0)
    kp[17] = (0.0, 0.0, 2.0)
    with pytest.raises(DegeneratePalm):
        _palm_frame(kp, "Right")


def test_palm_pose_rejects_zero_scale():
    kp = base_kp3d()
    kp[9] = kp[0]
    with pytest.raises(DegeneratePalm) as raised:
        _palm_frame(kp, "Right")
    assert str(raised.value) == "palm scale 0.000e+00 m below 1e-06"


@pytest.mark.parametrize("scale, message", [
    (1e300, "palm cross product nan m^2 is not finite"),
    (1e150, "palm cross product inf m^2 is not finite"),
], ids=["1e300", "1e150"])
def test_keypoints_too_large_to_measure_raise_degenerate_palm(scale, message):
    # x 1e300 gave a feature row of NaN; x 1e150 a finite row with every
    # finger and pair angle 0
    kp = synth_kp3d("OpenPalm").kp3d * scale
    with np.errstate(all="ignore"), pytest.raises(DegeneratePalm) as raised:
        feature_vector(kp, "Right")
    assert str(raised.value) == message


def test_a_fingertip_too_far_to_measure_raises_zero_segment():
    # a palm of ordinary size with the index tip scaled by 1e300: the
    # segment norm overflowed and the index curl read pi/2 in a finite row
    hand = synth_kp3d("OpenPalm")
    kp = hand.kp3d.copy()
    kp[8] *= 1e300
    with np.errstate(all="ignore"), pytest.raises(ZeroSegment) as raised:
        feature_vector(kp, hand.handedness)
    assert str(raised.value) == "segment norm inf m is not finite"


@pytest.mark.parametrize("point, message", [
    (5, "palm cross product nan m^2 is not finite"),
    (9, "palm scale nan m is not finite"),
], ids=["area", "scale"])
def test_palm_pose_rejects_a_nan_measure(point, message):
    kp = base_kp3d()
    kp[point] = np.nan
    with pytest.raises(DegeneratePalm) as raised:
        _palm_frame(kp, "Right")
    assert str(raised.value) == message


# --- Euler angles ---

def test_euler_identity():
    assert euler_from_rotation(np.eye(3)) == (0.0, 0.0, 0.0)


def test_euler_quarter_yaw():
    c, s = 0.0, 1.0
    rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    yaw, pitch, roll = e = euler_from_rotation(rz)
    assert yaw == pytest.approx(np.pi / 2.0)
    assert pitch == pytest.approx(0.0, abs=1e-12)
    assert roll == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(rotation_from_euler(e), rz, atol=1e-12)


def reference_rotation_from_euler(euler):
    """rotation_from_euler as written before it composed axis_rotation: it
    must stay bitwise equal to this."""
    yaw, pitch, roll = euler
    cy, sy = np.cos(yaw), np.sin(yaw)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cr, sr = np.cos(roll), np.sin(roll)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


def test_rotation_from_euler_is_bitwise_the_reference():
    rng = np.random.default_rng(29)
    triples = rng.uniform((-np.pi, -np.pi / 2.0, -np.pi), (np.pi, np.pi / 2.0, np.pi),
                          (1000, 3))
    triples[::10, 1] = np.pi / 2.0  # gimbal lock, both ways
    triples[5::10, 1] = -np.pi / 2.0
    triples[1] = (0.0, -0.0, np.pi)
    for euler in triples.tolist():
        got, want = rotation_from_euler(euler), reference_rotation_from_euler(euler)
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), euler


def test_euler_gimbal_lock_reconstructs():
    r = rotation_from_euler((0.7, np.pi / 2.0, -0.3))
    e = euler_from_rotation(r)
    assert np.cos(e[1]) < EPS_GIMBAL   # the locked branch
    assert e[0] == 0.0   # documented tie-break: roll absorbs everything
    np.testing.assert_allclose(rotation_from_euler(e), r, atol=1e-8)


@settings(max_examples=150, deadline=None)
@given(
    yaw=st.floats(-3.141, 3.141),
    pitch=st.floats(-1.47, 1.47),
    roll=st.floats(-3.141, 3.141),
)
def test_euler_round_trip_away_from_gimbal(yaw, pitch, roll):
    e = euler_from_rotation(rotation_from_euler((yaw, pitch, roll)))
    assert abs(e[0] - yaw) < 1e-8
    assert abs(e[1] - pitch) < 1e-8
    assert abs(e[2] - roll) < 1e-8


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
    frame = _palm_frame(kp, "Right")
    np.testing.assert_allclose(frame[0], np.eye(3), atol=1e-12)
    np.testing.assert_allclose(_intrinsic(kp, *frame), kp, atol=1e-12)


def test_intrinsic_unit_wrist_to_middle_mcp():
    for seed in range(5):
        kp = base_kp3d(np.random.default_rng(seed))
        out = _intrinsic(kp, *_palm_frame(kp, "Right"))
        np.testing.assert_allclose(out[0], 0.0, atol=1e-12)
        assert np.linalg.norm(out[9] - out[0]) == pytest.approx(1.0, abs=1e-12)


def test_intrinsic_invariant_under_rigid_and_scale():
    rng = np.random.default_rng(9)
    kp = synth_kp3d("Victory").kp3d
    ref = _intrinsic(kp, *_palm_frame(kp, "Right"))
    for _ in range(10):
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        s = float(rng.uniform(0.2, 5.0))
        t = rng.normal(0.0, 0.5, size=3)
        moved = kp @ q.T * s + t
        out = _intrinsic(moved, *_palm_frame(moved, "Right"))
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
    with pytest.raises(ZeroSegment) as raised:
        finger_angle(kp)
    assert str(raised.value) == "segment norm 0.000e+00 m below 1e-09"


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
    assert fv[9] > fv[10]   # (index,middle) > (middle,ring)


# --- full feature vector ---

def test_feature_vector_ranges():
    for label in ("OpenPalm", "ClosedFist", "PointingUp"):
        hand = synth_kp3d(label)
        fv = feature_vector(hand.kp3d, hand.handedness)
        assert fv.shape == (12,) and fv.dtype == np.float64
        assert np.all(np.isfinite(fv))
        assert -np.pi < fv[0] <= np.pi
        assert -np.pi / 2.0 <= fv[1] <= np.pi / 2.0
        assert -np.pi < fv[2] <= np.pi
        assert np.all(fv[3:8] >= 0.0) and np.all(fv[3:8] <= np.pi)
        assert np.all(fv[8:] >= 0.0) and np.all(fv[8:] <= np.pi)


def test_feature_vector_rotation_changes_euler_only():
    hand = synth_kp3d("OpenPalm")
    fv = feature_vector(hand.kp3d, hand.handedness)
    q = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    fv_rot = feature_vector(hand.kp3d @ q.T, hand.handedness)
    # dead-straight fingers sit at the arccos endpoint, where rotation
    # round-off amplifies to ~sqrt(eps); away from 0/pi the drift is ~1e-12
    np.testing.assert_allclose(fv_rot[3:8], fv[3:8], atol=1e-7)
    np.testing.assert_allclose(fv_rot[8:], fv[8:], atol=1e-7)
    assert not np.allclose(fv_rot[0:3], fv[0:3], atol=1e-3)


def test_feature_vector_scale_invariant_including_euler():
    hand = synth_kp3d("ThumbUp")
    fv = feature_vector(hand.kp3d, hand.handedness)
    fv3 = feature_vector(hand.kp3d * 3.0, hand.handedness)
    np.testing.assert_allclose(fv3, fv, atol=1e-9)


# --- oracle: the feature vector as first written, with stock numpy calls ---

_REF_CHAINS = np.array([CHAIN_INDICES[f] for f in Finger])


def _ref_wrap_pi(a):
    a = float((a + np.pi) % (2.0 * np.pi) - np.pi)
    return np.pi if a <= -np.pi else a


def reference_feature_vector(kp3d, handedness):
    """feature_vector built from np.cross, np.column_stack, np.diff and
    np.linalg.norm; the kernel must match it bit for bit."""
    if handedness not in ("Left", "Right"):
        raise MalformedFrame("handedness")
    wrist = kp3d[0]
    v1, v2 = kp3d[5] - wrist, kp3d[17] - wrist
    normal = np.cross(v1, v2) if handedness == "Right" else np.cross(v2, v1)
    area = float(np.linalg.norm(normal))
    if area < EPS_PALM_AREA_M2:
        raise DegeneratePalm("area")
    scale = float(np.linalg.norm(kp3d[9] - wrist))
    if scale < EPS_PALM_SCALE_M:
        raise DegeneratePalm("scale")
    n = normal / area
    fwd = v1 + v2
    fwd = fwd - np.dot(fwd, n) * n
    fn = float(np.linalg.norm(fwd))
    if fn < EPS_SEGMENT_M:
        raise DegeneratePalm("forward")
    f = fwd / fn
    r = np.column_stack([np.cross(f, n), f, n])
    cos_pitch = float(np.hypot(r[2, 1], r[2, 2]))
    pitch = float(np.arctan2(-r[2, 0], cos_pitch))
    if cos_pitch < EPS_GIMBAL:
        sign = 1.0 if -r[2, 0] > 0 else -1.0
        euler = [0.0, pitch, _ref_wrap_pi(float(np.arctan2(sign * r[0, 1], sign * r[0, 2])))]
    else:
        euler = [_ref_wrap_pi(float(np.arctan2(r[1, 0], r[0, 0]))), pitch,
                 _ref_wrap_pi(float(np.arctan2(r[2, 1], r[2, 2])))]
    intrinsic = (kp3d - wrist) @ r / scale
    seg = np.diff(intrinsic[_REF_CHAINS], axis=1)
    norms = np.linalg.norm(seg, axis=2)
    if np.any(norms < EPS_SEGMENT_M):
        raise ZeroSegment("segment")
    unit = seg / norms[:, :, None]
    cos_f = np.einsum("fj,fkj->fk", unit[:, 0], unit[:, 1:])
    fingers = np.arccos(np.clip(cos_f, -1.0, 1.0)).max(axis=1)
    prox = unit[:, 1]
    pairs = np.arccos(np.clip(np.einsum("pj,pj->p", prox[:-1], prox[1:]), -1.0, 1.0))
    return np.concatenate([euler, fingers, pairs])


def test_feature_vector_bitwise_equal_to_reference():
    # 2 x 21 x 50 jittered, noisy skeletons
    n = 0
    for handedness in ("Right", "Left"):
        cfg = SynthConfig(seed=11, noise_m=0.002, handedness=handedness)
        for label in ALL_GESTURES:
            for i in range(50):
                frame, _ = synth_pose(label, cfg, sample_rng(11, n))
                kp3d = frame.hand.kp3d
                assert np.array_equal(feature_vector(kp3d, handedness),
                                      reference_feature_vector(kp3d, handedness)), (label, i)
                n += 1
    assert n >= 2000


def test_feature_vector_bitwise_equal_at_gimbal_lock():
    kp = synth_kp3d("OpenPalm").kp3d
    target = rotation_from_euler((0.4, np.pi / 2.0, -0.2))
    turned = _intrinsic(kp, *_palm_frame(kp, "Right")) @ target.T * 0.08 + (0.01, -0.02, 0.5)
    fv = feature_vector(turned, "Right")
    assert np.cos(fv[1]) < EPS_GIMBAL and fv[0] == 0.0   # the locked branch
    assert np.array_equal(fv, reference_feature_vector(turned, "Right"))


def _collinear_palm():
    kp = synth_kp3d("OpenPalm").kp3d.copy()
    kp[17] = 2.0 * kp[5] - kp[0]
    return kp


def _zero_bone():
    kp = synth_kp3d("OpenPalm").kp3d.copy()
    kp[7] = kp[6]
    return kp


@pytest.mark.parametrize("make, error", [(_collinear_palm, DegeneratePalm),
                                         (_zero_bone, ZeroSegment)])
def test_feature_vector_raises_like_reference(make, error):
    kp = make()
    with pytest.raises(error):
        reference_feature_vector(kp, "Right")
    with pytest.raises(error):
        feature_vector(kp, "Right")


@pytest.mark.parametrize("shape_a, shape_b", [((3,), (3,)), ((7, 3), (7, 3)),
                                              ((4, 1, 3), (1, 5, 3))])
def test_cross_bitwise_equal_to_np_cross(shape_a, shape_b):
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=shape_a), rng.normal(size=shape_b)
    assert np.array_equal(cross(a, b), np.cross(a, b))


def test_cross_of_two_vectors_bitwise_equal_to_np_cross():
    # (3,) pairs take the Python-float path; compare every bit, signed zeros
    # included, and NaN where np.cross has NaN
    rng = np.random.default_rng(3)
    pairs = list(rng.normal(size=(10_000, 2, 3)) * 10.0 ** rng.integers(-5, 6, (10_000, 1, 1)))
    tiny, huge = 5e-324, 1e200
    pairs += [np.array(p, dtype=np.float64) for p in [
        [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]],
        [[-0.0, -0.0, -0.0], [-0.0, -0.0, -0.0]],
        [[1.0, -0.0, 0.0], [0.0, 1.0, -0.0]],
        [[tiny, 3 * tiny, 2.0], [0.5, 0.25, tiny]],
        [[2.2e-308, 1e-300, 1e-10], [1e-10, 2.2e-308, 1e-300]],
        [[huge, huge, huge], [huge, -huge, huge]],
        [[huge, huge, huge], [huge, huge, huge]],
        [[np.inf, 1.0, 0.0], [0.0, 1.0, np.inf]],
    ]]
    for a, b in pairs:
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = cross(a, b), np.cross(a, b)
        assert got.shape == want.shape == (3,) and got.dtype == want.dtype
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan), (a, b)
        assert np.array_equal(got.view(np.uint64)[~nan], want.view(np.uint64)[~nan]), (a, b)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (3, 3, 1), (4, 4)])
def test_euler_from_rotation_rejects_other_shapes(shape):
    with pytest.raises(ShapeMismatch):
        euler_from_rotation(np.zeros(shape))


# --- frame features ---

@pytest.mark.parametrize("label", ["OpenPalm", "ThumbDown", "Loser"])
@pytest.mark.parametrize("handedness", ["Right", "Left"])
def test_frame_features_is_the_hands_feature_vector(label, handedness):
    frame, _ = synth_pose(label, SynthConfig(handedness=handedness), sample_rng(3, 0))
    expected = feature_vector(frame.hand.kp3d, frame.hand.handedness)
    assert frame_features(frame).tobytes() == expected.tobytes()


def test_frame_features_needs_a_hand():
    frame, _ = synth_pose("OpenPalm", SynthConfig(), sample_rng(3, 0))
    with pytest.raises(MalformedFrame, match="^frame has no hand$"):
        frame_features(dataclasses.replace(frame, hand=None))


def test_frame_features_needs_3d_keypoints():
    frame, _ = synth_pose("OpenPalm", SynthConfig(), sample_rng(3, 0))
    frame = dataclasses.replace(frame, hand=dataclasses.replace(frame.hand, kp3d=None))
    with pytest.raises(Missing3D, match="^frame has no 3D keypoints; run lift$"):
        frame_features(frame)
