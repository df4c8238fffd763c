"""Kinematic model, projection, and 2D-to-3D pose fitting."""

import inspect
import json
import re
import warnings
from importlib.resources import files

import numpy as np
import pytest

from handgest.errors import (BehindCamera, DivergedFit, MalformedConfig, MalformedFrame,
                             ShapeMismatch)
from handgest.features import cross, feature_vector
from handgest.alignment import SCALE_KEYPOINTS, compute_alignment
from handgest.harness import SynthConfig, sample_rng, synth_params, synth_pose
from handgest.labels import ALL_GESTURES
from handgest import lifting
from handgest.lifting import (
    FLEXION_JOINTS,
    FRONTAL_ROTATION,
    BOX_WEIGHT_JOINT,
    BOX_WEIGHT_TZ,
    JOINT_BOXES,
    JOINTS,
    NUM_POSE_PARAMS,
    ROTVEC,
    TRANSLATION,
    TZ_BOX,
    CameraIntrinsics,
    HandModel,
    axis_rotation,
    default_hand_model,
    default_intrinsics,
    fit_pose,
    forward_kinematics,
    hand_chain,
    initial_pose_from_alignment,
    lift_keypoints,
    load_hand_model,
    neutral_joints,
    normalize_world,
    project,
    rotmat_from_rotvec,
    rotvec_from_rotmat,
)
from handgest.lifting import _fk_batch, _linearize, _residuals_batch, _rest_alignment
from handgest.skeleton import INDEX_MCP, MIDDLE_MCP, PINKY_MCP, WRIST


def truth_sample(i=0, label="OpenPalm", seed=5):
    cfg = SynthConfig(seed=seed)
    return synth_params(label, cfg, sample_rng(seed, i))


def pose(rotvec, translation, joints):
    """A (27,) pose put together through the layout constants."""
    p = np.empty(NUM_POSE_PARAMS)
    p[ROTVEC], p[TRANSLATION], p[JOINTS] = rotvec, translation, joints
    return p


def identity_pose():
    return pose(np.zeros(3), [0.0, 0.0, 0.5], np.zeros(21))


# -- intrinsics and projection ----------------------------------------------

def test_default_intrinsics_rule():
    k = default_intrinsics(640, 480)
    assert (k.f, k.cx, k.cy) == (640.0, 320.0, 240.0)
    k = default_intrinsics(480, 640)
    assert (k.f, k.cx, k.cy) == (640.0, 240.0, 320.0)
    k = default_intrinsics(100, 100)
    assert (k.f, k.cx, k.cy) == (100.0, 50.0, 50.0)
    with pytest.raises(MalformedFrame):
        default_intrinsics(0, 480)


def test_project_optical_axis():
    k = CameraIntrinsics(f=100.0, cx=50.0, cy=50.0)
    np.testing.assert_allclose(project(np.array([0.0, 0.0, 1.0]), k), (50.0, 50.0))


def test_project_scale_ambiguity():
    k = CameraIntrinsics(f=100.0, cx=50.0, cy=50.0)
    near = project(np.array([0.1, 0.0, 1.0]), k)
    far = project(np.array([0.2, 0.0, 2.0]), k)
    np.testing.assert_allclose(near, far, atol=1e-12)


def test_project_formula():
    k = CameraIntrinsics(f=500.0, cx=320.0, cy=240.0)
    uv = project(np.array([0.03, -0.02, 0.4]), k)
    np.testing.assert_allclose(uv, (320.0 + 500.0 * 0.075, 240.0 - 500.0 * 0.05))


def test_project_behind_camera():
    k = CameraIntrinsics(f=100.0, cx=50.0, cy=50.0)
    with pytest.raises(BehindCamera):
        project(np.array([0.0, 0.0, -1.0]), k)
    with pytest.raises(BehindCamera):
        project(np.array([0.0, 0.0, 0.0]), k)


# -- rotations ----------------------------------------------------------------

def reference_rot_x(theta):
    """The three elementary rotations as written before axis_rotation
    replaced them: it must stay bitwise equal to each."""
    t = np.asarray(theta, dtype=np.float64)
    c, s = np.cos(t), np.sin(t)
    out = np.zeros(t.shape + (3, 3))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = c
    out[..., 1, 2] = -s
    out[..., 2, 1] = s
    out[..., 2, 2] = c
    return out


def reference_rot_y(theta):
    t = np.asarray(theta, dtype=np.float64)
    c, s = np.cos(t), np.sin(t)
    out = np.zeros(t.shape + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 2] = s
    out[..., 1, 1] = 1.0
    out[..., 2, 0] = -s
    out[..., 2, 2] = c
    return out


def reference_rot_z(theta):
    t = np.asarray(theta, dtype=np.float64)
    c, s = np.cos(t), np.sin(t)
    out = np.zeros(t.shape + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    out[..., 2, 2] = 1.0
    return out


@pytest.mark.parametrize("axis, reference",
                         [(0, reference_rot_x), (1, reference_rot_y), (2, reference_rot_z)])
def test_axis_rotation_is_bitwise_the_reference(axis, reference):
    rng = np.random.default_rng(11)
    thetas = np.concatenate([rng.uniform(-4.0 * np.pi, 4.0 * np.pi, 994),
                             [0.0, -0.0, np.pi, -np.pi, np.pi / 2.0, 1e-300]])
    batched = axis_rotation(axis, thetas)
    assert batched.shape == (1000, 3, 3)
    assert batched.tobytes() == reference(thetas).tobytes()
    grid = thetas.reshape(10, 100)
    assert axis_rotation(axis, grid).tobytes() == reference(grid).tobytes()
    for theta in thetas[::37]:
        got = axis_rotation(axis, float(theta))
        assert got.shape == (3, 3)
        assert got.tobytes() == reference(float(theta)).tobytes()


def test_rotvec_matches_elementary_rotations():
    for theta in (-1.2, 0.3, 2.9):
        for axis in range(3):
            rv = np.zeros(3)
            rv[axis] = theta
            np.testing.assert_allclose(rotmat_from_rotvec(rv), axis_rotation(axis, theta),
                                       atol=1e-12)


def test_rotvec_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(100):
        rv = rng.normal(size=3)
        rv *= rng.uniform(0.0, np.pi - 1e-3) / np.linalg.norm(rv)
        r = rotmat_from_rotvec(rv)
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(rotvec_from_rotmat(r), rv, atol=1e-9)


def test_rotvec_zero_and_pi():
    np.testing.assert_allclose(rotmat_from_rotvec([0.0, 0.0, 0.0]), np.eye(3))
    np.testing.assert_allclose(rotvec_from_rotmat(np.eye(3)), 0.0, atol=1e-12)
    # half-turn about x: the angle-pi branch of the extraction
    r = axis_rotation(0, np.pi)
    back = rotmat_from_rotvec(rotvec_from_rotmat(r))
    np.testing.assert_allclose(back, r, atol=1e-9)


def reference_rotvec_from_rotmat(r):
    """The log map with Shepperd's pivot unrolled case by case, as written
    before the pivot became one indexed rule: every result must stay bitwise
    equal to it."""
    r = np.asarray(r, dtype=np.float64)
    tr = float(np.trace(r))
    case = int(np.argmax([tr, r[0, 0], r[1, 1], r[2, 2]]))
    if case == 0:
        s = np.sqrt(max(tr + 1.0, 0.0)) * 2.0
        q = np.array([0.25 * s,
                      (r[2, 1] - r[1, 2]) / s,
                      (r[0, 2] - r[2, 0]) / s,
                      (r[1, 0] - r[0, 1]) / s])
    elif case == 1:
        s = np.sqrt(max(1.0 + r[0, 0] - r[1, 1] - r[2, 2], 0.0)) * 2.0
        q = np.array([(r[2, 1] - r[1, 2]) / s,
                      0.25 * s,
                      (r[0, 1] + r[1, 0]) / s,
                      (r[0, 2] + r[2, 0]) / s])
    elif case == 2:
        s = np.sqrt(max(1.0 + r[1, 1] - r[0, 0] - r[2, 2], 0.0)) * 2.0
        q = np.array([(r[0, 2] - r[2, 0]) / s,
                      (r[0, 1] + r[1, 0]) / s,
                      0.25 * s,
                      (r[2, 1] + r[1, 2]) / s])
    else:
        s = np.sqrt(max(1.0 + r[2, 2] - r[0, 0] - r[1, 1], 0.0)) * 2.0
        q = np.array([(r[1, 0] - r[0, 1]) / s,
                      (r[0, 2] + r[2, 0]) / s,
                      (r[2, 1] + r[1, 2]) / s,
                      0.25 * s])
    w, v = q[0], q[1:]
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        return np.zeros(3)
    angle = 2.0 * np.arctan2(n, w)
    if angle > np.pi:
        angle -= 2.0 * np.pi
    return v / n * angle


def test_rotvec_from_rotmat_is_bitwise_the_reference():
    rng = np.random.default_rng(11)
    # uniform draws: unit quaternions from normalized 4D Gaussians
    quats = rng.normal(size=(20_000, 4))
    w, x, y, z = (quats / np.linalg.norm(quats, axis=1, keepdims=True)).T
    uniform = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
                        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
                        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
                       axis=1).reshape(-1, 3, 3)
    # half turns about random axes, where the trace pivot gives way
    axes = rng.normal(size=(5_000, 3))
    half_turns = rotmat_from_rotvec(np.pi * axes / np.linalg.norm(axes, axis=1, keepdims=True))
    # the pose seed's rotations: frontal, spun in the image plane
    seeds = axis_rotation(2, np.linspace(-2.0 * np.pi, 2.0 * np.pi, 5_000)) @ FRONTAL_ROTATION
    signs = np.array([np.diag(d) for d in [(1.0, 1.0, 1.0), (1.0, -1.0, -1.0),
                                           (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)]])
    rotations = np.concatenate([uniform, half_turns, seeds, signs])
    assert len(rotations) >= 30_000
    pivots = np.argmax(np.concatenate([np.trace(rotations, axis1=1, axis2=2)[:, None],
                                       np.diagonal(rotations, axis1=1, axis2=2)], axis=1),
                       axis=1)
    assert np.bincount(pivots, minlength=4).min() > 1_000  # every case, many times
    for r in rotations:
        assert rotvec_from_rotmat(r).tobytes() == reference_rotvec_from_rotmat(r).tobytes(), r
    # matrices that are not rotations divide as numpy divides, by a zero
    # pivot too (a diagonal of -inf), and NaN comes out bit for bit
    others = np.concatenate([rng.integers(-2, 3, size=(1_000, 3, 3)).astype(np.float64),
                             [np.zeros((3, 3)), np.diag([-np.inf] * 3), np.full((3, 3), np.nan),
                              np.diag([np.inf, -np.inf, 0.0])]])
    with np.errstate(all="ignore"):
        for r in others:
            assert rotvec_from_rotmat(r).tobytes() == reference_rotvec_from_rotmat(r).tobytes(), r


def reference_rotmat_from_rotvec(rv):
    """The exponential map as written before the Taylor branch became
    conditional: every result must stay bitwise equal to it."""
    rv = np.asarray(rv, dtype=np.float64)
    theta = np.linalg.norm(rv, axis=-1)
    k = np.zeros(rv.shape[:-1] + (3, 3))
    k[..., 0, 1], k[..., 0, 2] = -rv[..., 2], rv[..., 1]
    k[..., 1, 0], k[..., 1, 2] = rv[..., 2], -rv[..., 0]
    k[..., 2, 0], k[..., 2, 1] = -rv[..., 1], rv[..., 0]
    t2 = theta * theta
    small = theta < 1e-6
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - t2 / 6.0, np.sin(theta) / safe)
    b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(theta)) / (safe * safe))
    return np.eye(3) + a[..., None, None] * k + b[..., None, None] * (k @ k)


def test_rotmat_from_rotvec_is_bitwise_the_reference():
    rng = np.random.default_rng(3)
    batch = rng.normal(size=(40, 3))
    batch[0] = 0.0
    batch[1:6] *= np.array([1e-9, 3e-8, 2e-7, 5e-7, 9e-7])[:, None] / np.linalg.norm(
        batch[1:6], axis=1, keepdims=True)
    batch[6:] *= rng.uniform(1e-6, np.pi, size=(34, 1)) / np.linalg.norm(
        batch[6:], axis=1, keepdims=True)
    assert rotmat_from_rotvec(batch).tobytes() == reference_rotmat_from_rotvec(batch).tobytes()
    # all ordinary angles: no Taylor branch at all
    ordinary = batch[6:].reshape(2, 17, 3)
    assert (rotmat_from_rotvec(ordinary).tobytes()
            == reference_rotmat_from_rotvec(ordinary).tobytes())
    for rv in batch[[0, 2, 4, 7, 20]]:
        got = rotmat_from_rotvec(rv)
        assert got.shape == (3, 3)
        assert got.tobytes() == reference_rotmat_from_rotvec(rv).tobytes()


# -- hand model ---------------------------------------------------------------

def test_default_hand_model_is_sane():
    model = default_hand_model()
    assert model.directions.shape == (5, 3)
    assert model.lengths.shape == (5, 4)
    np.testing.assert_allclose(np.linalg.norm(model.directions, axis=1), 1.0, atol=1e-9)
    assert np.all(model.lengths > 0.004)
    assert np.all(model.lengths < 0.13)


def test_hand_model_owns_read_only_arrays():
    # the model kept the caller's lengths array: setting it to 0.5 m gave
    # bones past MAX_BONE_M and left the cached rest pose stale
    base = default_hand_model()
    directions, lengths = base.directions.copy(), base.lengths.copy()
    model = HandModel(directions, lengths)
    names = ("directions", "lengths", "base_frames", "palm_segments")
    kept = [getattr(model, name).copy() for name in names]
    directions[:] = 1.0
    lengths[:] = 0.5
    for name, b in zip(names, kept):
        np.testing.assert_array_equal(getattr(model, name), b)
    np.testing.assert_array_equal(model.lengths, base.lengths)
    for m in (model, base):
        for name in names:
            with pytest.raises(ValueError, match="read-only"):
                getattr(m, name)[0] = 0.0
        # each finger's wrist-to-base segment, as the chain wrote it per call
        assert m.palm_segments.tobytes() == (m.lengths[:, 0:1] * m.directions).tobytes()


@pytest.mark.parametrize("direction, message", [
    ((0.0, 0.0, 0.0), "zero-length finger direction in hand model"),
    ((0.0, 0.0, -2.0), "finger direction parallel to the palm normal"),
], ids=["zero", "along-the-normal"])
def test_hand_model_rejects_a_direction_without_a_finger_frame(direction, message):
    base = default_hand_model()
    directions = base.directions.copy()
    directions[2] = direction
    with pytest.raises(MalformedConfig, match=f"^{message}$"):
        HandModel(directions, base.lengths)


def test_rest_alignment_follows_each_model_instance():
    # each model is dropped before the next one is built, so the interpreter
    # may give the next one the same id(); the rest size must still be its own
    base = default_hand_model()
    size_1 = _rest_alignment(HandModel(base.directions, base.lengths))[1]
    for scale in np.linspace(0.8, 1.2, 200):
        model = HandModel(base.directions, base.lengths * scale)
        assert _rest_alignment(model)[1] == pytest.approx(scale * size_1, rel=1e-12)
        del model


def reference_rest_alignment(model):
    """The pose seed's rest quantities, spelled out as they were before the
    seed called compute_alignment: roll, palm size and hand-frame keypoints."""
    rest = pose(np.zeros(3), np.zeros(3), neutral_joints())
    rest_local = _fk_batch(model, rest[None]).points[0]
    plane = (rest_local @ FRONTAL_ROTATION.T)[:, :2]
    center = plane[[INDEX_MCP, MIDDLE_MCP, PINKY_MCP]].mean(axis=0)
    v = (plane[WRIST] - plane[MIDDLE_MCP]) + (plane[PINKY_MCP] - plane[INDEX_MCP])
    theta0 = float(np.arctan2(v[0], -v[1]))
    size = float(np.max(np.linalg.norm(plane[list(SCALE_KEYPOINTS)] - center, axis=1)))
    return theta0, size, rest_local


def reference_seed(kp2d, model, intrinsics):
    """initial_pose_from_alignment on the reference rest quantities."""
    align = compute_alignment(np.asarray(kp2d, dtype=np.float64))
    theta0, rest_size_m, rest_local = reference_rest_alignment(model)
    r_init = reference_rot_z(align.rotation_rad - theta0) @ FRONTAL_ROTATION
    tz = float(np.clip(intrinsics.f * rest_size_m / align.scale_px, TZ_BOX[0], TZ_BOX[1]))
    center_cam = np.array([(align.center[0] - intrinsics.cx) * tz / intrinsics.f,
                           (align.center[1] - intrinsics.cy) * tz / intrinsics.f,
                           tz])
    t = center_cam - r_init @ rest_local[[INDEX_MCP, MIDDLE_MCP, PINKY_MCP]].mean(axis=0)
    return pose(rotvec_from_rotmat(r_init), t, neutral_joints())


@pytest.mark.parametrize("scale", [1.0, 1.13])
def test_rest_alignment_is_bitwise_the_reference(scale):
    base = default_hand_model()
    model = HandModel(base.directions, base.lengths * scale)
    theta0, size, rest_local = _rest_alignment(model)
    ref_theta0, ref_size, ref_local = reference_rest_alignment(model)
    assert (theta0, size) == (ref_theta0, ref_size)
    assert rest_local.tobytes() == ref_local.tobytes()


def test_initial_pose_is_bitwise_the_reference_on_noisy_frames():
    model = default_hand_model()
    rest_size_m = _rest_alignment(model)[1]
    cases = {"right": [], "left-mirrored": [], "far-clip": [], "near-clip": []}
    for hand, seed in (("Right", 7), ("Left", 8)):
        cfg = SynthConfig(seed=seed, noise_px=1.0, handedness=hand)
        intr = default_intrinsics(cfg.width, cfg.height)
        for i in range(100):
            kp2d = synth_pose(ALL_GESTURES[i % len(ALL_GESTURES)], cfg,
                              sample_rng(seed, i))[0].hand.kp2d
            if hand == "Left":
                # the pixels lift_keypoints seeds a left hand from
                cases["left-mirrored"].append((np.column_stack(
                    (2.0 * intr.cx - kp2d[:, 0], kp2d[:, 1])), intr))
                continue
            cases["right"].append((kp2d, intr))
            if i % 4 == 0:
                # the same pixels in a 10**150 px image, and blown up about
                # the image centre: the depth clips at each end of TZ_BOX
                cases["far-clip"].append((kp2d, default_intrinsics(10 ** 150, 10 ** 150)))
                centre = np.array([intr.cx, intr.cy])
                cases["near-clip"].append((centre + (kp2d - centre) * (20.0 + i), intr))
    for name, frames in cases.items():
        for i, (kp2d, intr) in enumerate(frames):
            tz = intr.f * rest_size_m / compute_alignment(kp2d).scale_px
            if name == "far-clip":
                assert tz > TZ_BOX[1], (i, tz)
            elif name == "near-clip":
                assert tz < TZ_BOX[0], (i, tz)
            got = initial_pose_from_alignment(kp2d, model, intr)
            want = reference_seed(kp2d, model, intr)
            assert got.tobytes() == want.tobytes(), (name, i)
    assert [len(frames) for frames in cases.values()] == [100, 100, 25, 25]


PACKAGED_MODEL = files("handgest") / "data" / "hand_model.json"
_FINGERS = json.loads(PACKAGED_MODEL.read_text())["fingers"]


def test_hand_model_json_round_trip():
    model = default_hand_model()
    assert default_hand_model() is model   # loaded once
    back = load_hand_model(PACKAGED_MODEL)
    assert back is not model
    np.testing.assert_array_equal(back.directions, model.directions)
    np.testing.assert_array_equal(back.lengths, model.lengths)


@pytest.mark.parametrize("change", [
    {"fingers": None}, {"fingers": {}}, {"fingers": {"thumb": {"direction": [1, 0, 0]}}},
    # keys and tags that were ignored
    {"fingres": _FINGERS}, {"schema": "hand_model/2"}, {"schema": None},
    {"fingers": {**_FINGERS, "thumbs": _FINGERS["thumb"]}},
    {"fingers": {**_FINGERS, "ring": {**_FINGERS["ring"], "lenghts": [0.05] * 4}}},
    {"fingers": {**_FINGERS, "index": {**_FINGERS["index"], "roll": 0.0}}},
])
def test_hand_model_from_dict_raises_malformed_config(change):
    with pytest.raises(MalformedConfig):
        HandModel.from_dict({**json.loads(PACKAGED_MODEL.read_text()), **change})


def test_hand_model_from_dict_names_an_entry_of_the_wrong_length():
    # numpy's broadcast error was the message
    fingers = {**_FINGERS, "thumb": {**_FINGERS["thumb"], "direction": [1.0, 0.0]}}
    with pytest.raises(MalformedConfig, match=r"^hand model 'thumb' direction "
                       r"must have shape \(3,\), got \(2,\)$"):
        HandModel.from_dict({"fingers": fingers})


def test_hand_model_from_dict_takes_a_document_without_schema_or_comment():
    model = HandModel.from_dict({"fingers": _FINGERS})
    np.testing.assert_array_equal(model.lengths, default_hand_model().lengths)


# -- forward kinematics -------------------------------------------------------

def test_fk_identity_pose_rest_geometry():
    model = default_hand_model()
    t = np.array([0.01, -0.02, 0.5])
    pts = forward_kinematics(model, pose(np.zeros(3), t, np.zeros(21)))
    np.testing.assert_allclose(pts[0], t, atol=1e-12)
    # wrist-to-base distances reproduce the first segment lengths
    for f in range(5):
        base = pts[4 * f + 1]
        assert np.linalg.norm(base - pts[0]) == pytest.approx(
            model.lengths[f, 0], abs=1e-12)


def bone_lengths(pts):
    from handgest.skeleton import BONES
    return np.array([np.linalg.norm(pts[c] - pts[p]) for p, c in BONES])


def test_fk_pip_flexion_moves_only_distal_points():
    model = default_hand_model()
    t = np.array([0.0, 0.0, 0.4])
    rest = forward_kinematics(model, pose(np.zeros(3), t, np.zeros(21)))
    joints = np.zeros(21)
    joints[7] = np.pi / 2.0   # index PIP flexion
    bent = forward_kinematics(model, pose(np.zeros(3), t, joints))
    moved = np.where(np.linalg.norm(bent - rest, axis=1) > 1e-12)[0]
    np.testing.assert_array_equal(moved, [7, 8])   # index DIP and tip
    np.testing.assert_allclose(bone_lengths(bent), bone_lengths(rest), atol=1e-12)


def test_fk_global_rotation_is_rigid_about_wrist():
    model = default_hand_model()
    t = np.array([0.02, 0.01, 0.6])
    joints = neutral_joints()
    rest = forward_kinematics(model, pose(np.zeros(3), t, joints))
    rv = np.array([0.4, -0.2, 0.9])
    rotated = forward_kinematics(model, pose(rv, t, joints))
    r = rotmat_from_rotvec(rv)
    np.testing.assert_allclose(rotated, (rest - t) @ r.T + t, atol=1e-12)


def test_fk_preserves_bone_lengths_at_random_poses():
    model = default_hand_model()
    rng = np.random.default_rng(2)
    ref = bone_lengths(forward_kinematics(
        model, pose(np.zeros(3), [0, 0, 0.5], np.zeros(21))))
    for _ in range(20):
        joints = rng.uniform(JOINT_BOXES[:, 0], JOINT_BOXES[:, 1])
        moved = pose(rng.normal(size=3), [0, 0, 0.5], joints)
        np.testing.assert_allclose(
            bone_lengths(forward_kinematics(model, moved)), ref, atol=1e-12)


# -- world normalization ------------------------------------------------------

def test_normalize_world_centers_middle_mcp():
    rng = np.random.default_rng(1)
    kp = rng.normal(0.0, 0.05, size=(21, 3)) + (0.2, -0.1, 0.5)
    out = normalize_world(kp)
    np.testing.assert_allclose(out[9], 0.0, atol=1e-15)
    dist = np.linalg.norm(kp[:, None] - kp[None, :], axis=-1)
    dist_out = np.linalg.norm(out[:, None] - out[None, :], axis=-1)
    np.testing.assert_allclose(dist_out, dist, atol=1e-12)
    np.testing.assert_array_equal(normalize_world(out), out)


def test_normalize_world_keeps_features():
    kp = forward_kinematics(default_hand_model(), truth_sample(3, "Victory"))
    a = feature_vector(kp, "Right")
    b = feature_vector(normalize_world(kp), "Right")
    np.testing.assert_allclose(b, a, atol=1e-9)


# -- pose fitting -------------------------------------------------------------

def fit(*args, **kwargs):
    """fit_pose, checking that ``converged`` follows the stop reason."""
    res = fit_pose(*args, **kwargs)
    assert res.converged == (res.stop in ("tolerance", "stalled"))
    return res


def test_fit_from_exact_init_stops_immediately():
    model = default_hand_model()
    intr = default_intrinsics(640, 480)
    truth = truth_sample(0)
    obs = project(forward_kinematics(model, truth), intr)
    res = fit(obs, model, intr, truth)
    assert res.stop == "tolerance"
    assert res.iterations <= 2
    assert res.rms_px <= 1e-6


def test_fit_recovers_from_near_init():
    model = default_hand_model()
    intr = default_intrinsics(640, 480)
    rng = np.random.default_rng(77)
    truth = truth_sample(1, "Victory")
    gt = forward_kinematics(model, truth)
    obs = project(gt, intr)
    init = pose(
        truth[ROTVEC] + rng.normal(0.0, 0.005, 3),
        truth[TRANSLATION] + rng.normal(0.0, 0.00125, 3),
        np.clip(truth[JOINTS] + rng.normal(0.0, 0.005, 21),
                JOINT_BOXES[:, 0], JOINT_BOXES[:, 1]))
    res = fit(obs, model, intr, init)
    assert res.rms_px <= 1e-3
    err = np.linalg.norm(normalize_world(res.points) - normalize_world(gt), axis=1)
    assert err.mean() <= 0.005


def test_fit_cost_history_monotone():
    model = default_hand_model()
    intr = default_intrinsics(640, 480)
    truth = truth_sample(2, "CallMe")
    obs = project(forward_kinematics(model, truth), intr)
    init = initial_pose_from_alignment(obs, model, intr)
    res = fit(obs, model, intr, init)
    costs = np.asarray(res.cost_history)
    assert np.all(np.diff(costs) <= 0.0)
    assert res.rms_px < 2.0


def test_noisy_fit_stops_at_its_noise_floor(monkeypatch):
    # a lift-style frame (1 px noise, alignment seed) that crept to the
    # 200-iteration cap before any stall test existed, and ran 163
    # iterations to "tolerance" without the noise-floor test
    cfg = SynthConfig(seed=7, noise_px=1.0)
    frame, _ = synth_pose("OpenPalm", cfg, sample_rng(7, 0))
    model = default_hand_model()
    intr = default_intrinsics(cfg.width, cfg.height)
    init = initial_pose_from_alignment(frame.hand.kp2d, model, intr)
    res = fit(frame.hand.kp2d, model, intr, init)
    assert res.stop == "stalled" and res.iterations < 50
    assert res.iterations == len(res.cost_history) - 1
    assert np.all(np.diff(res.cost_history) < 0.0)
    # the test only ends a fit: without it the same steps continue
    monkeypatch.setattr(lifting, "FLOOR_FRACTION", 0.0)
    full = fit(frame.hand.kp2d, model, intr, init)
    assert full.stop == "tolerance" and full.iterations > res.iterations
    assert full.cost_history[:len(res.cost_history)] == res.cost_history
    # and what it leaves is under one squared pixel of the 1 px noise
    assert res.cost_history[-1] - full.cost_history[-1] < 1.0


def lift_style_fit(j):
    """Row j of a seed-7 lift-style input (1 px noise, one template per
    row), fitted from the alignment seed."""
    cfg = SynthConfig(seed=7, noise_px=1.0)
    frame, _ = synth_pose(ALL_GESTURES[j % len(ALL_GESTURES)], cfg, sample_rng(7, j))
    model = default_hand_model()
    intr = default_intrinsics(cfg.width, cfg.height)
    init = initial_pose_from_alignment(frame.hand.kp2d, model, intr)
    return lambda: fit(frame.hand.kp2d, model, intr, init)


def test_achieved_reduction_stops_a_crawling_fit(monkeypatch):
    # row 9 (Three) crawls below its noise floor: 23 iterations to
    # "tolerance" with the predicted-reduction test alone
    run = lift_style_fit(9)
    res = run()
    assert res.stop == "stalled" and res.iterations <= 10
    assert res.iterations == len(res.cost_history) - 1
    window = res.cost_history[-1 - lifting.FLOOR_WINDOW:]
    assert window[0] - window[-1] < lifting.FLOOR_FRACTION * window[0]
    # the test only ends a fit: without it the same steps continue
    monkeypatch.setattr(lifting, "FLOOR_FRACTION", 0.0)
    full = run()
    assert full.iterations > res.iterations
    assert full.cost_history[:len(res.cost_history)] == res.cost_history
    assert res.cost_history[-1] - full.cost_history[-1] < 1.0


def test_floor_tests_never_fire_above_max_rms_px(monkeypatch):
    # a 1 px frame cannot fit within 0.5 px: the fit runs on past its floor
    # and fails exactly as it does with both floor tests off
    monkeypatch.setattr(lifting, "MAX_RMS_PX", 0.5)
    run = lift_style_fit(9)
    with pytest.raises(DivergedFit) as stopped:
        run()
    monkeypatch.setattr(lifting, "FLOOR_FRACTION", 0.0)
    with pytest.raises(DivergedFit) as unstopped:
        run()
    assert str(stopped.value) == str(unstopped.value)


def test_tolerance_stop_reads_rel_tol(monkeypatch):
    # REL_TOL is a module constant, not a fit_pose argument; with the bar
    # raised to the whole cost, the first accepted step ends the fit
    assert "rel_tol" not in inspect.signature(fit_pose).parameters
    assert lifting.REL_TOL == 1e-10
    cfg = SynthConfig(seed=7, noise_px=1.0)
    frame, _ = synth_pose("OpenPalm", cfg, sample_rng(7, 0))
    model = default_hand_model()
    intr = default_intrinsics(cfg.width, cfg.height)
    init = initial_pose_from_alignment(frame.hand.kp2d, model, intr)
    monkeypatch.setattr(lifting, "REL_TOL", 1.0)
    res = fit(frame.hand.kp2d, model, intr, init)
    assert res.stop == "tolerance" and len(res.cost_history) == 2


@pytest.mark.parametrize("j", [41, 53, 59])
def test_lift_tail_frames_stop_before_the_cap(j):
    # lift-style frames (SignOfTheHorns, ILoveYou, Loser) that reached the
    # 200-iteration cap when each iteration tried one damping at a time
    cfg = SynthConfig(seed=7, noise_px=1.0)
    frame, _ = synth_pose(ALL_GESTURES[j % len(ALL_GESTURES)], cfg, sample_rng(7, j))
    model = default_hand_model()
    intr = default_intrinsics(cfg.width, cfg.height)
    init = initial_pose_from_alignment(frame.hand.kp2d, model, intr)
    res = fit(frame.hand.kp2d, model, intr, init)
    assert res.stop in ("stalled", "tolerance") and res.iterations < 200


@pytest.mark.parametrize("row", [645, 647, 649, 651, 656, 659, 662])
def test_noiseless_pointing_frames_lift(row):
    # rows of `synth --seed 7 --per-gesture 40` (IndexPointingToCamera) that
    # ended DivergedFit at 10.3-11.1 px rms when the four damping candidates
    # spanned three decades, 0.01 to 10 times lambda; row 649 reaches 3.25 px
    # only after 140 iterations, and a noise-floor test that ignored
    # max_rms_px stopped it at 13.5 px.  Rows 647 and 662 ran to the
    # 200-iteration cap at 15.2 and 21.1 px while each round damped by the
    # current diag(J'J) instead of the largest one of the fit
    cfg = SynthConfig(seed=7)
    frame, _ = synth_pose("IndexPointingToCamera", cfg, sample_rng(7, row))
    model = default_hand_model()
    intr = default_intrinsics(cfg.width, cfg.height)
    init = initial_pose_from_alignment(frame.hand.kp2d, model, intr)
    res = fit(frame.hand.kp2d, model, intr, init)
    assert res.rms_px <= 10.0


def fit_rounds(monkeypatch, *args, **kwargs):
    """A fit plus the residual rows of every damping round it evaluated."""
    calls = []

    def recording(*a):
        out = _residuals_batch(*a)
        calls.append(out[0])
        return out

    monkeypatch.setattr(lifting, "_residuals_batch", recording)
    res = fit(*args, **kwargs)
    assert calls[0].shape == (1, 64)   # the initial pose
    rounds = calls[1:]
    assert all(r.shape == (len(lifting.DAMPING_FACTORS), 64) for r in rounds)
    return res, rounds


def replay(res, rounds):
    """Check each round against the cost history: a round whose cheapest
    finite trial goes downhill appends exactly that cost, any other round
    appends nothing.  Returns the indices of the accepting rounds."""
    history = res.cost_history
    at, accepting = 0, []
    for i, rows in enumerate(rounds):
        costs = np.sum(rows * rows, axis=1)
        finite = np.isfinite(costs)
        best = costs[finite].min() if finite.any() else np.inf
        if best < history[at]:
            at += 1
            assert history[at] == pytest.approx(best, rel=1e-12, abs=0.0)
            accepting.append(i)
    assert at == len(history) - 1
    assert np.all(np.diff(history) < 0.0)
    return accepting


def test_each_step_is_the_cheapest_candidate_of_its_round(monkeypatch):
    cfg = SynthConfig(seed=7, noise_px=1.0)
    frame, _ = synth_pose("Loser", cfg, sample_rng(7, 59))
    model = default_hand_model()
    intr = default_intrinsics(cfg.width, cfg.height)
    init = initial_pose_from_alignment(frame.hand.kp2d, model, intr)
    res, rounds = fit_rounds(monkeypatch, frame.hand.kp2d, model, intr, init)
    assert len(replay(res, rounds)) == res.iterations


def test_a_trial_behind_the_camera_is_skipped(monkeypatch):
    # from the identity pose, the lightly damped trials of one early round
    # overshoot and take keypoints behind the camera
    model = default_hand_model()
    intr = default_intrinsics(640, 480)
    truth = truth_sample(3, "PointingUp")
    obs = project(forward_kinematics(model, truth), intr)
    monkeypatch.setattr(lifting, "MAX_RMS_PX", np.inf)
    res, rounds = fit_rounds(monkeypatch, obs, model, intr, identity_pose())
    accepting = replay(res, rounds)
    mixed = [i for i in accepting if np.isnan(rounds[i]).any()]
    assert mixed
    for i in mixed:
        rows_ok = np.isfinite(rounds[i]).all(axis=1)
        assert rows_ok.any() and not rows_ok.all()


@pytest.mark.parametrize("window", [(1e-4, 1e-3, 0.01, 0.1), (1e-3, 0.1, 10.0, 1e3)],
                         ids=["below-lambda", "shipped"])
def test_damping_search_ends_for_any_window(monkeypatch, window):
    # every trial lands behind the camera, so no round goes downhill; the
    # retries must raise lambda to its ceiling even when the largest
    # damping of the window is below lambda itself
    cfg = SynthConfig(seed=7, noise_px=1.0)
    frame, _ = synth_pose("OpenPalm", cfg, sample_rng(7, 0))
    model = default_hand_model()
    intr = default_intrinsics(cfg.width, cfg.height)
    init = initial_pose_from_alignment(frame.hand.kp2d, model, intr)
    calls = []

    def behind_camera(model, intrinsics, obs, pvecs):
        calls.append(len(pvecs))
        if len(calls) > 100:
            raise RuntimeError("damping search did not end")
        rows, kin = _residuals_batch(model, intrinsics, obs, pvecs)
        return (rows if len(calls) == 1 else np.full_like(rows, np.nan)), kin

    monkeypatch.setattr(lifting, "DAMPING_FACTORS", np.array(window))
    monkeypatch.setattr(lifting, "_residuals_batch", behind_camera)
    monkeypatch.setattr(lifting, "MAX_RMS_PX", np.inf)
    res = fit(frame.hand.kp2d, model, intr, init)
    assert res.stop == "no_descent" and res.iterations == 1
    # the initial pose, then one round per decade of lambda up to 1e8
    assert len(calls) <= 1 + 12


@pytest.mark.parametrize("gesture, row, noise_px", [
    ("Loser", 59, 1.0), ("IndexPointingToCamera", 662, 0.0)])
def test_damping_never_falls_within_a_fit(monkeypatch, gesture, row, noise_px):
    # More's scaling: a round damps each parameter by the largest diag(J'J)
    # the fit has seen, so a column that collapses keeps its damping.  The
    # damping is read back from the most damped system of each round.
    cfg = SynthConfig(seed=7, noise_px=noise_px)
    frame, _ = synth_pose(gesture, cfg, sample_rng(7, row))
    model = default_hand_model()
    intr = default_intrinsics(cfg.width, cfg.height)
    init = initial_pose_from_alignment(frame.hand.kp2d, model, intr)
    factors, solve, events = lifting.DAMPING_FACTORS, np.linalg.solve, []

    class RecordingFactors(np.ndarray):
        __array_ufunc__ = None  # so that lam * factors reaches __rmul__

        def __rmul__(self, lam):
            events.append(("lambda", float(lam)))
            return float(lam) * self.view(np.ndarray)

    def linearize(*args):
        jac = _linearize(*args)
        events.append(("curvature", (jac.T @ jac).diagonal()))
        return jac

    def recording_solve(systems, rhs):
        events.append(("systems", systems.copy()))
        return solve(systems, rhs)

    monkeypatch.setattr(lifting, "DAMPING_FACTORS", factors.view(RecordingFactors))
    monkeypatch.setattr(lifting, "_linearize", linearize)
    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    res = fit(frame.hand.kp2d, model, intr, init)
    assert res.iterations > 5
    previous = np.zeros(NUM_POSE_PARAMS)
    for kind, value in events:
        if kind == "curvature":
            curvature = value
        elif kind == "lambda":
            lam = value
        else:
            damp = (value[-1].diagonal() - curvature) / (lam * factors[-1])
            assert np.all(damp >= previous * (1 - 1e-9))
            assert np.all(damp >= curvature * (1 - 1e-9))
            previous = damp


def test_fit_stops_at_max_iter(monkeypatch):
    model = default_hand_model()
    intr = default_intrinsics(640, 480)
    truth = truth_sample(3, "ClosedFist")
    obs = project(forward_kinematics(model, truth), intr)
    monkeypatch.setattr(lifting, "MAX_ITER", 5)
    monkeypatch.setattr(lifting, "MAX_RMS_PX", np.inf)
    res = fit(obs, model, intr, identity_pose())
    assert res.stop == "max_iter" and not res.converged
    assert res.iterations == 5


def _offset_truth():
    """(pixels 0.5 px off a true pose, model, intrinsics, that pose)."""
    model, intr = default_hand_model(), default_intrinsics(640, 480)
    truth = truth_sample(3, "ClosedFist")
    return project(forward_kinematics(model, truth), intr) + 0.5, model, intr, truth


def test_fit_rejects_non_finite_pixels():
    # before the residuals, which would call the pose behind the camera
    obs, model, intr, truth = _offset_truth()
    obs[4, 1] = np.nan
    with pytest.raises(MalformedFrame, match="^non-finite pixel coordinates$"):
        fit_pose(obs, model, intr, truth)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_every_entry_point_rejects_a_non_finite_pixel_alike(value):
    # the alignment measured a NaN pixel and raised DegenerateScale ("knuckle
    # spread nan px is not finite") or DegenerateRotation, through the seed
    # and lift_keypoints too, while fit_pose called the frame malformed
    model = default_hand_model()
    cfg = SynthConfig(seed=4, noise_px=1.0)
    intr = default_intrinsics(cfg.width, cfg.height)
    kp2d = synth_pose("OpenPalm", cfg, sample_rng(4, 0))[0].hand.kp2d
    init = initial_pose_from_alignment(kp2d, model, intr)
    kp2d[3, 0] = value
    for call in (lambda: compute_alignment(kp2d),
                 lambda: initial_pose_from_alignment(kp2d, model, intr),
                 lambda: fit_pose(kp2d, model, intr, init),
                 lambda: lift_keypoints(kp2d, "Right", model, intr),
                 lambda: lift_keypoints(kp2d, "Left", model, intr)):
        with pytest.raises(MalformedFrame, match="^non-finite pixel coordinates$"):
            call()


def test_fit_without_a_solvable_system_ends_no_descent(monkeypatch):
    # a singular damped stack leaves the round without trial steps; the
    # damping climbs to its maximum and the fit stops where it started
    obs, model, intr, truth = _offset_truth()

    def singular(systems, rhs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    res = fit(obs, model, intr, truth)
    assert (res.stop, res.iterations) == ("no_descent", 1)
    assert res.pose.tobytes() == truth.tobytes()


def test_fit_keeps_an_overflowing_step_in_place(monkeypatch):
    # a damped step past a float's range is a trial at the current pose, so
    # no inf reaches the kinematics and the fit goes on as with a zero step
    obs, model, intr, truth = _offset_truth()
    solve = np.linalg.solve

    def fit_with(edit):
        def edited(systems, rhs):
            steps = solve(systems, rhs)
            steps[1:] = edit(steps[1:])
            return steps
        monkeypatch.setattr(np.linalg, "solve", edited)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return fit(obs, model, intr, truth)

    past = fit_with(lambda s: np.where(np.arange(s.shape[1]) == 6, np.inf, s))
    still = fit_with(np.zeros_like)
    assert past.pose.tobytes() == still.pose.tobytes()
    assert (past.cost_history, past.stop) == (still.cost_history, still.stop)


@pytest.mark.parametrize("solvable", [True, False], ids=["stepped", "stayed-at-init"])
def test_fit_result_pose_is_the_fits_own_copy(monkeypatch, solvable):
    # a fit that takes no step ends at its init, one that steps at a row of
    # its trial buffer; either way the result shares no memory with them
    obs, model, intr, truth = _offset_truth()
    if not solvable:
        def singular(systems, rhs):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(np.linalg, "solve", singular)
    init = truth.copy()
    res = fit(obs, model, intr, init)
    assert (res.stop == "no_descent") != solvable
    assert res.pose.base is None
    fitted = res.pose.copy()
    res.pose[:] = 0.0
    assert init.tobytes() == truth.tobytes()
    res = fit(obs, model, intr, init)
    init[:] = 0.0
    assert res.pose.tobytes() == fitted.tobytes()


@pytest.mark.parametrize("make", [
    lambda kp2d, model, intr: initial_pose_from_alignment(kp2d, model, intr),
    lambda kp2d, model, intr: synth_params("Victory", SynthConfig(seed=5), sample_rng(5, 0)),
], ids=["seed", "synth-params"])
def test_a_made_pose_is_a_new_array(make):
    # the seed reads the model's cached rest pose; an edit to one seed
    # must not reach the next
    obs, model, intr, _ = _offset_truth()
    first = make(obs, model, intr)
    assert first.shape == (NUM_POSE_PARAMS,) and first.dtype == np.float64
    want = first.copy()
    first[:] = np.nan
    assert make(obs, model, intr).tobytes() == want.tobytes()


def test_fit_rejects_a_pose_of_the_wrong_length():
    obs, model, intr, truth = _offset_truth()
    with pytest.raises(ShapeMismatch, match=r"^pose must have shape \(27,\), got \(26,\)$"):
        fit_pose(obs, model, intr, truth[:26])


def test_fit_scale_ambiguity():
    model = default_hand_model()
    big = HandModel(model.directions, model.lengths * 1.2)
    intr = default_intrinsics(640, 480)
    truth = truth_sample(4)
    obs = project(forward_kinematics(model, truth), intr)
    res = fit(obs, model, intr, truth)
    init_big = truth.copy()
    init_big[TRANSLATION] *= 1.2
    res_big = fit(obs, big, intr, init_big)
    assert res_big.rms_px < 0.1
    ratio = res_big.pose[TRANSLATION][2] / res.pose[TRANSLATION][2]
    assert ratio == pytest.approx(1.2, rel=0.02)


def test_fit_rejects_garbage_observations(monkeypatch):
    model = default_hand_model()
    intr = default_intrinsics(640, 480)
    obs = np.random.default_rng(0).uniform(0, 640, size=(21, 2))
    monkeypatch.setattr(lifting, "MAX_ITER", 40)
    with pytest.raises(DivergedFit):
        fit(obs, model, intr, identity_pose())


def test_fit_whose_initial_cost_overflows_raises_before_iterating(monkeypatch):
    # pixels of a 10**300-wide image: each residual is finite, their sum of
    # squares is not; this ran seven warned iterations into "no_descent"
    model = default_hand_model()
    intr = default_intrinsics(10 ** 300, 10 ** 300)
    kp2d = synth_pose("OpenPalm", SynthConfig(), sample_rng(0, 0))[0].hand.kp2d
    init = initial_pose_from_alignment(kp2d, model, intr)

    def no_iteration(*args):
        raise AssertionError("fit_pose linearized an initial pose whose cost is inf")

    monkeypatch.setattr(lifting, "_linearize", no_iteration)
    with np.errstate(all="ignore"), pytest.raises(DivergedFit) as raised:
        fit_pose(kp2d, model, intr, init)
    assert str(raised.value) == "initial cost inf px^2 is not finite"


def test_fit_rejects_behind_camera_init():
    model = default_hand_model()
    intr = default_intrinsics(640, 480)
    truth = truth_sample(5)
    obs = project(forward_kinematics(model, truth), intr)
    bad = pose(np.zeros(3), [0.0, 0.0, -0.5], np.zeros(21))
    with pytest.raises(BehindCamera):
        fit(obs, model, intr, bad)


def test_initial_pose_from_alignment_is_usable():
    model = default_hand_model()
    intr = default_intrinsics(640, 480)
    truth = truth_sample(6, "Victory")
    obs = project(forward_kinematics(model, truth), intr)
    init = initial_pose_from_alignment(obs, model, intr)
    joints = init[JOINTS]
    assert np.all((JOINT_BOXES[:, 0] <= joints) & (joints <= JOINT_BOXES[:, 1]))
    assert init[TRANSLATION][2] > 0.0
    np.testing.assert_array_equal(joints, neutral_joints())
    # close enough for the optimizer to land at machine precision
    res = fit(obs, model, intr, init)
    assert res.rms_px < 0.1


def test_fit_rms_is_the_reprojection_rms_bit_for_bit():
    # rms_px comes from the accepted residual's pixel rows; it used to
    # project the final points again
    model = default_hand_model()
    cfg = SynthConfig(seed=4, noise_px=1.0)
    intr = default_intrinsics(cfg.width, cfg.height)
    checked = 0
    for i in range(42):
        kp2d = synth_pose(ALL_GESTURES[i % len(ALL_GESTURES)], cfg,
                          sample_rng(4, i))[0].hand.kp2d
        try:
            res = fit(kp2d, model, intr, initial_pose_from_alignment(kp2d, model, intr))
        except DivergedFit:
            continue
        want = float(np.sqrt(np.mean(np.sum((project(res.points, intr) - kp2d) ** 2, axis=1))))
        assert res.rms_px == want, i
        checked += 1
    assert checked >= 40


def test_lift_keypoints_fits_a_left_hand_in_the_mirror():
    # the seed and the fit on the mirror image u -> 2 cx - u, then x -> -x
    model = default_hand_model()
    cfg = SynthConfig(seed=2, noise_px=1.0, handedness="Left")
    intr = default_intrinsics(cfg.width, cfg.height)
    kp2d = synth_pose("Victory", cfg, sample_rng(2, 0))[0].hand.kp2d
    before = kp2d.tobytes()
    left = lift_keypoints(kp2d, "Left", model, intr)
    assert kp2d.tobytes() == before
    twin = kp2d.copy()
    twin[:, 0] = 2.0 * intr.cx - twin[:, 0]
    right = fit_pose(twin, model, intr, initial_pose_from_alignment(twin, model, intr)).points
    assert lift_keypoints(twin, "Right", model, intr).tobytes() == right.tobytes()
    assert left.tobytes() == (right * (-1.0, 1.0, 1.0)).tobytes()


@pytest.mark.parametrize("handedness", ["left", "", None])
def test_lift_keypoints_rejects_an_unknown_handedness(handedness):
    # no handedness but "Left" and "Right" says whether to mirror
    kp2d = project(forward_kinematics(default_hand_model(), truth_sample(0)),
                   default_intrinsics(640, 480))
    with pytest.raises(MalformedFrame, match="handedness must be one of"):
        lift_keypoints(kp2d, handedness, default_hand_model(), default_intrinsics(640, 480))


# -- analytic Jacobian --------------------------------------------------------

CD_STEP = 1e-6


def central_difference_jacobian(model, intr, obs, pvec):
    """Reference Jacobian: central differences over all 54 probes in one
    batched residual evaluation."""
    probes = np.tile(pvec, (2 * NUM_POSE_PARAMS, 1))
    idx = np.arange(NUM_POSE_PARAMS)
    probes[2 * idx, idx] += CD_STEP
    probes[2 * idx + 1, idx] -= CD_STEP
    res, _ = _residuals_batch(model, intr, obs, probes)
    assert np.all(np.isfinite(res))
    return (res[0::2] - res[1::2]).T / (2.0 * CD_STEP)


def analytic_jacobian(model, intr, obs, pvec):
    _, kin = _residuals_batch(model, intr, obs, pvec[None])
    return _linearize(intr, pvec, kin, 0)


def jacobian_error(model, intr, obs, pvec):
    """Largest analytic-vs-reference difference, relative to the largest entry."""
    ref = central_difference_jacobian(model, intr, obs, pvec)
    diff = analytic_jacobian(model, intr, obs, pvec) - ref
    return float(np.max(np.abs(diff)) / np.max(np.abs(ref)))


def test_jacobian_matches_central_differences_on_criterion_6_poses():
    model = default_hand_model()
    intr = default_intrinsics(640, 480)
    cfg = SynthConfig(seed=5)
    worst = 0.0
    for i in range(200):
        truth = synth_params(ALL_GESTURES[i % len(ALL_GESTURES)], cfg,
                             sample_rng(cfg.seed, i))
        obs = project(forward_kinematics(model, truth), intr)
        worst = max(worst, jacobian_error(model, intr, obs, truth))
    assert worst <= 1e-6


def off_box_pose():
    joints = neutral_joints()
    joints[[0, 5, 7]] = JOINT_BOXES[[0, 5, 7], 1] + 0.05
    joints[[6, 9, 19]] = JOINT_BOXES[[6, 9, 19], 0] - 0.05
    return pose([0.2, -0.1, 0.3], [0.0, 0.0, TZ_BOX[1] + 0.2], joints)


def thumb_roll_pose():
    joints = neutral_joints()
    joints[4] = 0.7   # thumb roll
    return pose([2.0, 0.5, -1.0], [0.02, -0.01, 0.45], joints)


def tiny_rotation_pose():
    return pose([3e-7, -2e-7, 1e-7], [0.01, 0.02, 0.5], neutral_joints())


def zero_rotation_pose():
    return pose([0.0, 0.0, 0.0], [0.01, 0.02, 0.5], neutral_joints())


@pytest.mark.parametrize("make_pose", [off_box_pose, thumb_roll_pose, tiny_rotation_pose,
                                       zero_rotation_pose])
def test_jacobian_matches_central_differences_at_edge_poses(make_pose):
    model = default_hand_model()
    intr = default_intrinsics(640, 480)
    pvec = make_pose()
    obs = project(forward_kinematics(model, truth_sample(7)), intr)
    assert jacobian_error(model, intr, obs, pvec) <= 1e-6


def test_jacobian_penalty_rows_and_thumb_roll_column():
    model = default_hand_model()
    intr = default_intrinsics(640, 480)
    obs = project(forward_kinematics(model, truth_sample(7)), intr)
    jac = analytic_jacobian(model, intr, obs, off_box_pose())
    penalty = jac[42:]
    np.testing.assert_array_equal(penalty[[0, 5, 7], [6, 11, 13]], BOX_WEIGHT_JOINT)
    np.testing.assert_array_equal(penalty[[6, 9, 19], [12, 15, 25]], -BOX_WEIGHT_JOINT)
    assert penalty[21, 5] == BOX_WEIGHT_TZ
    assert np.count_nonzero(penalty) == 7
    # thumb roll moves the thumb's three distal points and nothing else
    roll = analytic_jacobian(model, intr, obs, thumb_roll_pose())[:42, 6 + 4]
    moved = np.flatnonzero(np.abs(roll.reshape(21, 2)).max(axis=1) > 0.0)
    np.testing.assert_array_equal(moved, [2, 3, 4])


def test_joint_layout_comes_from_the_slot_table():
    # the indices once typed out in neutral_joints and harness, in the module
    # docstring's joint order
    assert FLEXION_JOINTS.tolist() == [[0, 2, 3], [5, 7, 8], [9, 11, 12], [13, 15, 16],
                                       [17, 19, 20]]
    assert neutral_joints().tolist() == ([0.30, 0.0, 0.40, 0.30, 0.0]
                                         + [0.35, 0.0, 0.35, 0.20] * 4)


# -- the FK chain and the LM step, bit for bit ---------------------------------
#
# The kernels as written before the chain was built from a rest template and
# the LM step wrote its blocks in place.  Every change kept the same
# floating-point operations in the same order, so each result must stay
# bitwise equal to its reference.  rotmat_from_rotvec is pinned to
# reference_rotmat_from_rotvec above.

def reference_slot_rotations(joints):
    """The 25 slot rotations (n, 5, 5, 3, 3): zeros, 1.0 on each slot's axis,
    then every slot's cos, cos, -sin, sin, the four fingers' missing roll as
    the turn by 0."""
    n = joints.shape[0]
    padded = np.concatenate([joints, np.zeros((n, 1))], axis=1)
    angles = padded[:, lifting._SLOT_JOINT] * lifting._SLOT_SIGN
    c, s = np.cos(angles), np.sin(angles)
    axis, slots = lifting._SLOT_AXIS, np.arange(5)
    i, j = (axis + 1) % 3, (axis + 2) % 3
    rots = np.zeros((n, 5, 5, 3, 3))
    rots[..., slots, axis, axis] = 1.0
    rows, cols = np.concatenate([i, j, i, j]), np.concatenate([i, j, j, i])
    rots[..., np.tile(slots, 4), rows, cols] = np.concatenate([c, c, -s, s], axis=-1)
    return rots


def reference_hand_chain(model, joints):
    n = joints.shape[0]
    rots = reference_slot_rotations(joints)
    frames = np.empty((n, 5, 5, 3, 3))
    frame = model.base_frames
    for slot in range(5):
        frame = frame @ rots[:, :, slot]
        frames[:, :, slot] = frame
    chain = np.empty((n, 5, 4, 3))
    chain[:, :, 0] = model.lengths[:, 0:1] * model.directions
    chain[:, :, 1:] = model.lengths[:, 1:, None] * frames[:, :, 2:, :, 1]
    local = np.zeros((n, 21, 3))
    local[:, 1:] = np.cumsum(chain, axis=2).reshape(n, 20, 3)
    return local, frames


def reference_fk_batch(model, pvec):
    r_glob = reference_rotmat_from_rotvec(pvec[:, ROTVEC])
    local, frames = reference_hand_chain(model, pvec[:, JOINTS])
    points = np.einsum("nij,nkj->nki", r_glob, local) + pvec[:, None, TRANSLATION]
    return points, r_glob, frames


def reference_residuals_batch(model, intrinsics, obs, pvecs):
    points, r_glob, frames = reference_fk_batch(model, pvecs)
    pts = points
    n = pvecs.shape[0]
    ok = (pts[:, :, 2] > 1e-9).all(axis=1) & np.isfinite(pts.reshape(n, -1)).all(axis=1)
    all_ok = ok.all()
    z = pts[:, :, 2:3]
    if not all_ok:
        z = np.where(ok[:, None, None], z, 1.0)
    proj = intrinsics.f * pts[:, :, :2] / z + (intrinsics.cx, intrinsics.cy)
    out = np.empty((n, 64))
    out[:, :42] = (proj - obs).reshape(n, -1)
    vals = pvecs[:, lifting._BOX_COLS]
    out[:, 42:] = lifting._BOX_W * (np.maximum(vals - lifting._BOX_HI, 0.0)
                                    + np.maximum(lifting._BOX_LO - vals, 0.0))
    if not all_ok:
        out[~ok] = np.nan
    return out, lifting._Kinematics(points, r_glob, frames)


def reference_rotvec_left_jac(rv):
    theta = float(np.linalg.norm(rv))
    k = np.array([[0.0, -rv[2], rv[1]],
                  [rv[2], 0.0, -rv[0]],
                  [-rv[1], rv[0], 0.0]])
    t2 = theta * theta
    if theta < 1e-6:
        a, b = 0.5 - t2 / 24.0, 1.0 / 6.0 - t2 / 120.0
    else:
        a = (1.0 - np.cos(theta)) / t2
        b = (theta - np.sin(theta)) / (t2 * theta)
    return np.eye(3) + a * k + b * (k @ k)


def reference_linearize(intrinsics, pvec, kin, row):
    p = kin.points[row]
    dp = np.zeros((21, 3, NUM_POSE_PARAMS + 1))
    jl = reference_rotvec_left_jac(pvec[ROTVEC])
    dp[:, :, ROTVEC] = cross(jl.T[None], (p - pvec[TRANSLATION])[:, None]).transpose(0, 2, 1)
    dp[:, :, TRANSLATION] = np.eye(3)
    axes = np.einsum("fsij,sj->fsi", kin.frames[row], lifting._SLOT_AXIS_VEC) @ kin.r_glob[row].T
    fingers = p[1:].reshape(5, 4, 3)
    arms = fingers[:, None, 1:] - fingers[:, lifting._SLOT_PIVOT, None]
    dp[lifting._JAC_KP, :, lifting._JAC_COL] = cross(axes[:, :, None], arms)
    dp = dp[:, :, :NUM_POSE_PARAMS]
    z = p[:, 2:3]
    duv = (intrinsics.f / z)[:, :, None] * (dp[:, :2] - (p[:, :2] / z)[:, :, None] * dp[:, 2:3])
    jac = np.zeros((64, NUM_POSE_PARAMS))
    jac[:42] = duv.reshape(42, NUM_POSE_PARAMS)
    vals = pvec[lifting._BOX_COLS]
    jac[lifting._BOX_ROWS, lifting._BOX_COLS] = lifting._BOX_W * (
        (vals > lifting._BOX_HI).astype(np.float64) - (vals < lifting._BOX_LO))
    return jac


def reference_project(points, intrinsics):
    p = np.asarray(points, dtype=np.float64)
    z = p[..., 2]
    out = np.empty(p.shape[:-1] + (2,))
    out[..., 0] = intrinsics.f * p[..., 0] / z + intrinsics.cx
    out[..., 1] = intrinsics.f * p[..., 1] / z + intrinsics.cy
    return out


TINY_ANGLES = (0.0, 1e-9, 3e-7, 9e-7)


def kernel_poses(n, spoiled):
    """n poses near the synthesized truths, joints pushed off the templates
    and out of their boxes; every third row turns by less than 1e-6 rad.
    A spoiled batch has a row behind the camera and, from n = 4 on, a row
    with a NaN joint."""
    cfg = SynthConfig(seed=9)
    poses = np.array([synth_params(ALL_GESTURES[i % 21], cfg, sample_rng(9, i))
                      for i in range(n)])
    poses[:, JOINTS] += np.random.default_rng(n).normal(scale=0.4, size=(n, 21))
    for k, row in enumerate(range(0, n, 3)):
        rv = poses[row, ROTVEC]
        poses[row, ROTVEC] = rv / np.linalg.norm(rv) * TINY_ANGLES[k % 4]
    if spoiled:
        poses[n // 2, TRANSLATION.start + 2] = -0.3
        if n >= 4:
            poses[n // 2 + 1, JOINTS.start + 7] = np.nan
    return poses


def observed(handedness, intr, i=0):
    """2D keypoints of one synthesized hand; a left hand in the mirror, as
    lift_keypoints fits it."""
    cfg = SynthConfig(seed=9, noise_px=1.0, handedness=handedness)
    kp2d = synth_pose(ALL_GESTURES[i % 21], cfg, sample_rng(9, i))[0].hand.kp2d
    if handedness == "Left":
        kp2d = np.column_stack((2.0 * intr.cx - kp2d[:, 0], kp2d[:, 1]))
    return kp2d


def scaled_model(scale):
    base = default_hand_model()
    return base if scale == 1.0 else HandModel(base.directions, base.lengths * scale)


KERNEL_CASES = pytest.mark.parametrize("n, scale", [(1, 1.0), (4, 1.0), (64, 1.0),
                                                    (1, 1.13), (4, 1.13), (64, 1.13)])


def test_the_rest_template_is_every_slot_turned_by_zero():
    # every entry hand_chain does not overwrite is the reference's at rest
    want = reference_slot_rotations(np.zeros((1, 21))).reshape(-1)
    kept = np.setdiff1d(np.arange(want.size), lifting._ROT_AT)
    assert len(kept) == want.size - 4 * 21
    assert lifting._REST_ROTS.reshape(-1)[kept].tobytes() == want[kept].tobytes()
    # the four fingers' missing roll keeps its -sin 0 = -0.0
    assert np.signbit(lifting._REST_ROTS[1:, 0, 2, 0]).all()


@KERNEL_CASES
def test_hand_chain_and_rotations_are_bitwise_the_reference(n, scale):
    model = scaled_model(scale)
    for spoiled in (False, True):
        poses = kernel_poses(n, spoiled)
        local, frames = hand_chain(model, poses[:, JOINTS])
        want_local, want_frames = reference_hand_chain(model, poses[:, JOINTS])
        assert local.tobytes() == want_local.tobytes()
        assert frames.tobytes() == want_frames.tobytes()
        rotvecs = poses[:, ROTVEC]
        assert (rotmat_from_rotvec(rotvecs).tobytes()
                == reference_rotmat_from_rotvec(rotvecs).tobytes())


@KERNEL_CASES
def test_residuals_and_jacobian_are_bitwise_the_reference(n, scale):
    model = scaled_model(scale)
    intr = default_intrinsics(640, 480)
    for handedness in ("Right", "Left"):
        obs = observed(handedness, intr, n)
        for spoiled in (False, True):
            poses = kernel_poses(n, spoiled)
            r, kin = _residuals_batch(model, intr, obs, poses)
            want, want_kin = reference_residuals_batch(model, intr, obs, poses)
            assert r.tobytes() == want.tobytes()
            for got_part, want_part in zip(kin, want_kin):
                assert got_part.tobytes() == want_part.tobytes()
            finite = np.isfinite(r).all(axis=1)
            assert finite.all() != spoiled
            if spoiled:
                assert np.isnan(r[~finite]).all() and finite.sum() == n - (2 if n >= 4 else 1)
            for row in np.flatnonzero(finite):
                rv = poses[row, ROTVEC]
                assert (lifting._rotvec_left_jac(rv).tobytes()
                        == reference_rotvec_left_jac(rv).tobytes()), row
                assert (_linearize(intr, poses[row], kin, row).tobytes()
                        == reference_linearize(intr, poses[row], kin, row).tobytes()), row


@pytest.mark.parametrize("n", [1, 4, 64])
def test_project_is_bitwise_the_reference(n):
    intr = default_intrinsics(640, 480)
    for handedness in ("Right", "Left"):
        cfg = SynthConfig(seed=8, noise_m=0.002, handedness=handedness)
        kp3d = np.array([synth_pose(ALL_GESTURES[i % 21], cfg, sample_rng(8, i))[0].hand.kp3d
                         for i in range(n)])
        for points in (kp3d, kp3d[0], kp3d[:, 0]):
            assert project(points, intr).tobytes() == reference_project(points, intr).tobytes()


@pytest.mark.parametrize("handedness", ["Right", "Left"])
def test_a_fit_on_the_reference_kernels_is_bitwise_the_fit(monkeypatch, handedness):
    # whole LM runs from the alignment seed, and one from the identity pose
    # whose early trials land behind the camera: the fits on today's kernels
    # and on the references take the same steps to the same bytes
    model = default_hand_model()
    intr = default_intrinsics(640, 480)
    cases = [(kp2d, initial_pose_from_alignment(kp2d, model, intr))
             for kp2d in (observed(handedness, intr, i) for i in range(0, 42, 3))]
    cases.append((project(forward_kinematics(model, truth_sample(3, "PointingUp")), intr),
                  identity_pose()))
    monkeypatch.setattr(lifting, "MAX_RMS_PX", np.inf)

    def fits():
        return [(res.pose.tobytes(), res.points.tobytes(), res.rms_px, res.cost_history,
                 res.iterations, res.stop)
                for res in (fit_pose(kp2d, model, intr, init) for kp2d, init in cases)]

    got = fits()
    monkeypatch.setattr(lifting, "_residuals_batch", reference_residuals_batch)
    monkeypatch.setattr(lifting, "_linearize", reference_linearize)
    assert fits() == got


def test_rotmat_from_rotvec_needs_a_last_axis_of_three():
    # four entries gave a 3x3 matrix, theta from all four and the axis from
    # the first three; (1, 2) and a scalar raised a bare IndexError
    for rv, shape in [([0.1, 0.2, 0.3, 0.4], "(4,)"), ([[0.1, 0.2]], "(1, 2)"), (0.5, "()"),
                      (np.zeros((2, 3, 4)), "(2, 3, 4)")]:
        with pytest.raises(ShapeMismatch, match=rf"^rotvec must have shape \(\.\.\., 3\), "
                                                rf"got {re.escape(shape)}$"):
            rotmat_from_rotvec(rv)
