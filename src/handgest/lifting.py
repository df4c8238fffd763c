"""Monocular 3D lifting: a kinematic hand model fitted to 2D keypoints.

The hand frame has x pointing laterally toward the thumb, y along the
fingers, and z out of the palm.  A pose is a global rigid transform
(rotation vector + translation, camera frame) plus 21 joint angles in
radians.  Joint order:

    thumb:   cmc_flex, cmc_abd, mcp_flex, ip_flex, roll
    per finger (index, middle, ring, pinky):
             mcp_flex, mcp_abd, pip_flex, dip_flex

Flexion is positive toward the palm, abduction positive toward the
thumb side, thumb roll turns the curl plane about the thumb's own axis.
Finger spread at rest lives in the model's base directions, so an open
flat hand is all zeros.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BehindCamera,
    DegenerateScale,
    DivergedFit,
    MalformedFrame,
    OutOfBox,
    ShapeMismatch,
)
from .skeleton import (
    Finger,
    INDEX_MCP,
    MIDDLE_MCP,
    NUM_KEYPOINTS,
    PINKY_MCP,
    WRIST,
    open_output,
    read_json,
)
from .alignment import SCALE_KEYPOINTS, compute_alignment

NUM_JOINT_ANGLES = 21
NUM_POSE_PARAMS = 6 + NUM_JOINT_ANGLES

JOINT_NAMES = (
    "thumb_cmc_flex", "thumb_cmc_abd", "thumb_mcp_flex", "thumb_ip_flex", "thumb_roll",
    "index_mcp_flex", "index_mcp_abd", "index_pip_flex", "index_dip_flex",
    "middle_mcp_flex", "middle_mcp_abd", "middle_pip_flex", "middle_dip_flex",
    "ring_mcp_flex", "ring_mcp_abd", "ring_pip_flex", "ring_dip_flex",
    "pinky_mcp_flex", "pinky_mcp_abd", "pinky_pip_flex", "pinky_dip_flex",
)

FLEXION_BOX = (-0.3, 2.0)
ABDUCTION_BOX = (-0.6, 0.6)
THUMB_ROLL_BOX = (-1.0, 1.0)
TZ_BOX = (0.05, 3.0)

# lo/hi per joint angle, following JOINT_NAMES order
JOINT_BOXES = np.array(
    [FLEXION_BOX, ABDUCTION_BOX, FLEXION_BOX, FLEXION_BOX, THUMB_ROLL_BOX]
    + [FLEXION_BOX, ABDUCTION_BOX, FLEXION_BOX, FLEXION_BOX] * 4
)

MIN_BONE_M = 0.005
MAX_BONE_M = 0.12

BOX_WEIGHT_JOINT = 100.0
BOX_WEIGHT_TZ = 1000.0


# -- small rotation helpers ------------------------------------------------

def rot_x(theta):
    """Rotation about x; batched when ``theta`` is an array."""
    t = np.asarray(theta, dtype=np.float64)
    c, s = np.cos(t), np.sin(t)
    out = np.zeros(t.shape + (3, 3))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = c
    out[..., 1, 2] = -s
    out[..., 2, 1] = s
    out[..., 2, 2] = c
    return out


def rot_y(theta):
    t = np.asarray(theta, dtype=np.float64)
    c, s = np.cos(t), np.sin(t)
    out = np.zeros(t.shape + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 2] = s
    out[..., 1, 1] = 1.0
    out[..., 2, 0] = -s
    out[..., 2, 2] = c
    return out


def rot_z(theta):
    t = np.asarray(theta, dtype=np.float64)
    c, s = np.cos(t), np.sin(t)
    out = np.zeros(t.shape + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    out[..., 2, 2] = 1.0
    return out


# flat (3, 3) positions of [w]x and the rotation-vector entries they hold
_SKEW_AT = np.array([1, 2, 3, 5, 6, 7])
_SKEW_OF = np.array([2, 1, 2, 0, 1, 0])
_SKEW_SIGN = np.array([-1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
_EYE3 = np.eye(3)


def rotmat_from_rotvec(rv):
    """Exponential map, batched over leading axes.  Safe at theta = 0."""
    rv = np.asarray(rv, dtype=np.float64)
    theta = np.linalg.norm(rv, axis=-1)
    k = np.zeros(rv.shape[:-1] + (9,))
    k[..., _SKEW_AT] = rv[..., _SKEW_OF] * _SKEW_SIGN
    k = k.reshape(rv.shape[:-1] + (3, 3))
    t2 = theta * theta
    small = theta < 1e-6
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - t2 / 6.0, np.sin(theta) / safe)
    b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(theta)) / (safe * safe))
    return _EYE3 + a[..., None, None] * k + b[..., None, None] * (k @ k)


def rotvec_from_rotmat(r):
    """Log map for one 3x3 rotation, via quaternion for stability near pi."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (3, 3):
        raise ShapeMismatch(f"expected a (3, 3) rotation, got {r.shape}")
    # Shepperd's method: pivot on the largest of trace and diagonal entries
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


# -- camera ----------------------------------------------------------------

@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole camera with a single focal length; x right, y down, z forward."""

    f: float
    cx: float
    cy: float


def default_intrinsics(width: int, height: int) -> CameraIntrinsics:
    if width <= 0 or height <= 0:
        raise MalformedFrame(f"image dims must be positive, got {width}x{height}")
    return CameraIntrinsics(f=float(max(width, height)), cx=width / 2.0, cy=height / 2.0)


def project(points, intrinsics: CameraIntrinsics):
    """Perspective-project camera-frame points (..., 3) to pixels (..., 2)."""
    p = np.asarray(points, dtype=np.float64)
    if p.shape[-1] != 3:
        raise ShapeMismatch(f"expected (..., 3) points, got {p.shape}")
    z = p[..., 2]
    if not np.all(np.isfinite(p)) or np.any(z <= 0.0):
        raise BehindCamera("points at or behind the camera plane cannot be projected")
    out = np.empty(p.shape[:-1] + (2,))
    out[..., 0] = intrinsics.f * p[..., 0] / z + intrinsics.cx
    out[..., 1] = intrinsics.f * p[..., 1] / z + intrinsics.cy
    return out


# -- hand model ------------------------------------------------------------

class HandModel:
    """Rest geometry: per-finger base direction (unit, hand frame) and four
    segment lengths (wrist-to-base, then three phalanges), thumb first.

    ``base_frames[i]`` is the rest frame of finger i with columns
    [lateral, along, normal]; flexion rotates about lateral, abduction
    about normal.  ``_rest`` holds what the pose seed derives from the rest
    pose; it is filled on first use.
    """

    __slots__ = ("directions", "lengths", "base_frames", "_rest")

    def __init__(self, directions, lengths):
        d = np.asarray(directions, dtype=np.float64)
        l = np.asarray(lengths, dtype=np.float64)
        if d.shape != (5, 3) or l.shape != (5, 4):
            raise ShapeMismatch(f"bad model arrays: directions {d.shape}, lengths {l.shape}")
        norms = np.linalg.norm(d, axis=1)
        if np.any(norms < 1e-9):
            raise MalformedFrame("zero-length finger direction in hand model")
        d = d / norms[:, None]
        if not np.all(np.isfinite(l)) or np.any(l <= MIN_BONE_M) or np.any(l >= MAX_BONE_M):
            raise MalformedFrame(f"bone lengths must lie in ({MIN_BONE_M}, {MAX_BONE_M}) m")
        frames = np.empty((5, 3, 3))
        z_hat = np.array([0.0, 0.0, 1.0])
        for i in range(5):
            along = d[i]
            lateral = np.cross(along, z_hat)
            ln = np.linalg.norm(lateral)
            if ln < 1e-9:
                raise MalformedFrame("finger direction parallel to the palm normal")
            lateral = lateral / ln
            frames[i] = np.column_stack([lateral, along, np.cross(lateral, along)])
        self.directions = d
        self.lengths = l
        self.base_frames = frames
        self._rest = None

    def to_dict(self) -> dict:
        return {
            "schema": "hand_model/1",
            "fingers": {
                f.name.lower(): {
                    "direction": [float(x) for x in self.directions[f]],
                    "lengths": [float(x) for x in self.lengths[f]],
                }
                for f in Finger
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HandModel":
        if not isinstance(data, dict) or not isinstance(data.get("fingers"), dict):
            raise MalformedFrame("hand model JSON must contain a 'fingers' mapping")
        fingers = data["fingers"]
        directions = np.empty((5, 3))
        lengths = np.empty((5, 4))
        for f in Finger:
            name = f.name.lower()
            if name not in fingers:
                raise MalformedFrame(f"hand model missing finger {name!r}")
            entry = fingers[name]
            try:
                directions[f] = np.asarray(entry["direction"], dtype=np.float64)
                lengths[f] = np.asarray(entry["lengths"], dtype=np.float64)
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedFrame(f"bad hand model entry for {name!r}: {exc}") from exc
        return cls(directions, lengths)


def save_hand_model(path, model: HandModel) -> None:
    with open_output(path) as fp:
        fp.write(json.dumps(model.to_dict(), indent=2) + "\n")


def load_hand_model(path) -> HandModel:
    return HandModel.from_dict(read_json(path))


_default_model = None


def default_hand_model() -> HandModel:
    global _default_model
    if _default_model is None:
        from importlib.resources import files
        text = files("handgest").joinpath("data/hand_model.json").read_text("utf-8")
        _default_model = HandModel.from_dict(json.loads(text))
    return _default_model


# -- pose parameters -------------------------------------------------------

@dataclass
class PoseParams:
    """Global rotation vector and translation (camera frame, meters) plus
    21 joint angles in radians."""

    rotvec: np.ndarray
    translation: np.ndarray
    joints: np.ndarray

    def __post_init__(self):
        self.rotvec = np.asarray(self.rotvec, dtype=np.float64)
        self.translation = np.asarray(self.translation, dtype=np.float64)
        self.joints = np.asarray(self.joints, dtype=np.float64)
        if self.rotvec.shape != (3,) or self.translation.shape != (3,):
            raise ShapeMismatch("rotvec and translation must both be (3,)")
        if self.joints.shape != (NUM_JOINT_ANGLES,):
            raise ShapeMismatch(
                f"expected {NUM_JOINT_ANGLES} joint angles, got {self.joints.shape}")

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.rotvec, self.translation, self.joints])

    @classmethod
    def from_vector(cls, vec) -> "PoseParams":
        v = np.asarray(vec, dtype=np.float64)
        if v.shape != (NUM_POSE_PARAMS,):
            raise ShapeMismatch(f"expected ({NUM_POSE_PARAMS},) vector, got {v.shape}")
        return cls(rotvec=v[0:3].copy(), translation=v[3:6].copy(), joints=v[6:].copy())

    @classmethod
    def identity(cls) -> "PoseParams":
        return cls(np.zeros(3), np.array([0.0, 0.0, 0.5]), np.zeros(NUM_JOINT_ANGLES))


def check_joint_boxes(joints) -> None:
    j = np.asarray(joints, dtype=np.float64)
    if j.shape != (NUM_JOINT_ANGLES,):
        raise ShapeMismatch(f"expected {NUM_JOINT_ANGLES} joint angles, got {j.shape}")
    bad = (j < JOINT_BOXES[:, 0]) | (j > JOINT_BOXES[:, 1])
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise OutOfBox(
            f"joint {JOINT_NAMES[idx]} = {j[idx]:.4f} outside "
            f"[{JOINT_BOXES[idx, 0]}, {JOINT_BOXES[idx, 1]}]")


# -- forward kinematics ----------------------------------------------------

# Every finger is the same chain of five turns after its base frame: roll
# about y (the thumb's own axis; the other fingers hold it at zero), then
# abduction about -z, then three flexions about x.  _SLOT_JOINT maps
# (finger, slot) to a JOINT_NAMES index, NUM_JOINT_ANGLES standing for the
# missing roll of the four fingers.
_SLOT_JOINT = np.array([[4, 1, 0, 2, 3]]
                       + [[NUM_JOINT_ANGLES, b + 1, b, b + 2, b + 3] for b in (5, 9, 13, 17)])
_SLOT_SIGN = np.array([1.0, -1.0, 1.0, 1.0, 1.0])
_SLOT_AXIS = np.array([1, 2, 0, 0, 0])
# the finger point (0 = its base on the palm) each slot turns the rest about
_SLOT_PIVOT = np.array([0, 0, 0, 1, 2])
_SLOTS = np.arange(5)

# entries of the elementary rotations, all slots at once: row i, column j
# of slot s holds cos, cos, -sin, sin (see rot_x/rot_y/rot_z)
_ROT_I, _ROT_J = (_SLOT_AXIS + 1) % 3, (_SLOT_AXIS + 2) % 3
_ROT_S = np.tile(_SLOTS, 4)
_ROT_ROW = np.concatenate([_ROT_I, _ROT_J, _ROT_I, _ROT_J])
_ROT_COL = np.concatenate([_ROT_I, _ROT_J, _ROT_J, _ROT_I])


class _Kinematics(NamedTuple):
    points: np.ndarray   # (n, 21, 3) camera frame
    r_glob: np.ndarray   # (n, 3, 3) global rotation
    frames: np.ndarray   # (n, 5, 5, 3, 3) hand-frame finger frame after each slot


def _fk_batch(model: HandModel, pvec: np.ndarray) -> _Kinematics:
    """Pose vectors (n, 27) -> keypoints and the frames that place them."""
    n = pvec.shape[0]
    r_glob = rotmat_from_rotvec(pvec[:, 0:3])
    padded = np.concatenate([pvec[:, 6:], np.zeros((n, 1))], axis=1)
    angles = padded[:, _SLOT_JOINT] * _SLOT_SIGN
    c, s = np.cos(angles), np.sin(angles)
    rots = np.zeros((n, 5, 5, 3, 3))
    rots[..., _SLOTS, _SLOT_AXIS, _SLOT_AXIS] = 1.0
    rots[..., _ROT_S, _ROT_ROW, _ROT_COL] = np.concatenate([c, c, -s, s], axis=-1)

    frames = np.empty((n, 5, 5, 3, 3))
    frame = model.base_frames
    for slot in range(5):
        frame = frame @ rots[:, :, slot]
        frames[:, :, slot] = frame

    # the three flexion frames carry the phalanges along their y columns
    chain = np.empty((n, 5, 4, 3))
    chain[:, :, 0] = model.lengths[:, 0:1] * model.directions
    chain[:, :, 1:] = model.lengths[:, 1:, None] * frames[:, :, 2:, :, 1]
    local = np.zeros((n, NUM_KEYPOINTS, 3))
    local[:, 1:] = np.cumsum(chain, axis=2).reshape(n, NUM_KEYPOINTS - 1, 3)
    points = np.einsum("nij,nkj->nki", r_glob, local) + pvec[:, None, 3:6]
    return _Kinematics(points, r_glob, frames)


def forward_kinematics(model: HandModel, params: PoseParams,
                       validate: bool = True) -> np.ndarray:
    """Evaluate the model at one pose, returning (21, 3) camera-frame points."""
    if validate:
        check_joint_boxes(params.joints)
    return _fk_batch(model, params.as_vector()[None]).points[0]


def normalize_world(kp3d) -> np.ndarray:
    """Shift 3D keypoints so the middle-finger base sits at the origin."""
    p = np.asarray(kp3d, dtype=np.float64)
    if p.shape != (NUM_KEYPOINTS, 3):
        raise ShapeMismatch(f"expected ({NUM_KEYPOINTS}, 3), got {p.shape}")
    return p - p[MIDDLE_MCP]


# -- model fitting (Levenberg-Marquardt) -------------------------------------

@dataclass
class FitResult:
    params: PoseParams
    points: np.ndarray  # (21, 3) camera frame at the optimum
    rms_px: float
    cost_history: list  # accepted costs, starting with the initial one
    iterations: int
    converged: bool


_N_RESIDUALS = 2 * NUM_KEYPOINTS + NUM_JOINT_ANGLES + 1
_BOX_LO = np.concatenate([JOINT_BOXES[:, 0], [TZ_BOX[0]]])
_BOX_HI = np.concatenate([JOINT_BOXES[:, 1], [TZ_BOX[1]]])
_BOX_W = np.concatenate([np.full(NUM_JOINT_ANGLES, BOX_WEIGHT_JOINT), [BOX_WEIGHT_TZ]])


def _residuals_batch(model, intrinsics, obs, pvecs):
    """Residual rows for a batch of pose vectors, nan where the model
    leaves the camera's forward half-space, and the FK pass behind them."""
    kin = _fk_batch(model, pvecs)
    pts = kin.points
    n = pvecs.shape[0]
    ok = np.all(pts[:, :, 2] > 1e-9, axis=1) & np.all(np.isfinite(pts.reshape(n, -1)), axis=1)
    # rows that do not project get a harmless depth, then nan below
    z = np.where(ok[:, None, None], pts[:, :, 2:3], 1.0)
    proj = intrinsics.f * pts[:, :, :2] / z + (intrinsics.cx, intrinsics.cy)
    out = np.empty((n, _N_RESIDUALS))
    out[:, : 2 * NUM_KEYPOINTS] = (proj - obs).reshape(n, -1)
    vals = np.concatenate([pvecs[:, 6:], pvecs[:, 5:6]], axis=1)
    out[:, 2 * NUM_KEYPOINTS:] = _BOX_W * (np.maximum(vals - _BOX_HI, 0.0)
                                           + np.maximum(_BOX_LO - vals, 0.0))
    out[~ok] = np.nan
    return out, kin


_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(a, b):
    """np.cross over the last axis, without its per-call overhead."""
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def _rotvec_left_jac(rv):
    """J_l(w), with exp([w + d]x) = exp([J_l(w) d]x) exp([w]x) to first order."""
    theta = float(np.linalg.norm(rv))
    k = np.array([[0.0, -rv[2], rv[1]],
                  [rv[2], 0.0, -rv[0]],
                  [-rv[1], rv[0], 0.0]])
    t2 = theta * theta
    if theta < 1e-6:
        a, b = 0.5 - t2 / 24.0, 1.0 / 6.0 - t2 / 120.0
    else:
        a = (1.0 - math.cos(theta)) / t2
        b = (theta - math.sin(theta)) / (t2 * theta)
    return _EYE3 + a * k + b * (k @ k)


# Where the derivative of finger point m (1-3) by slot s lands in the point
# Jacobian: at (keypoint, 6 + joint) when the slot's turn moves the point,
# otherwise, and for the four fingers' missing roll, in a scratch column
# past the 27 parameters.
_MOVES = (np.arange(1, 4)[None, :] > _SLOT_PIVOT[:, None]) & (
    _SLOT_JOINT < NUM_JOINT_ANGLES)[:, :, None]
_JAC_KP = np.broadcast_to(2 + 4 * np.arange(5)[:, None, None] + np.arange(3), _MOVES.shape)
_JAC_COL = np.where(_MOVES, 6 + _SLOT_JOINT[:, :, None], NUM_POSE_PARAMS)
_SLOT_AXIS_VEC = np.eye(3)[_SLOT_AXIS] * _SLOT_SIGN[:, None]
_BOX_ROWS = np.arange(2 * NUM_KEYPOINTS, _N_RESIDUALS)
_BOX_COLS = np.concatenate([np.arange(6, NUM_POSE_PARAMS), [5]])


def _linearize(intrinsics, pvec, kin):
    """Analytic Jacobian (64, 27) of the residuals at one pose vector, from
    the FK pass (n=1) that evaluated them there."""
    p = kin.points[0]
    dp = np.zeros((NUM_KEYPOINTS, 3, NUM_POSE_PARAMS + 1))
    # global rotation: d(R x) = -[R x]x J_l(w) dw; translation: identity
    jl = _rotvec_left_jac(pvec[0:3])
    dp[:, :, 0:3] = _cross(jl.T[None], (p - pvec[3:6])[:, None]).transpose(0, 2, 1)
    dp[:, :, 3:6] = _EYE3
    # joint angle: the turn axis in the camera frame crossed with the lever
    # arm from its pivot, for every point downstream of the joint
    axes = np.einsum("fsij,sj->fsi", kin.frames[0], _SLOT_AXIS_VEC) @ kin.r_glob[0].T
    fingers = p[1:].reshape(5, 4, 3)
    arms = fingers[:, None, 1:] - fingers[:, _SLOT_PIVOT, None]
    dp[_JAC_KP, :, _JAC_COL] = _cross(axes[:, :, None], arms)
    dp = dp[:, :, :NUM_POSE_PARAMS]
    # pinhole: d(u, v)/dP = f/z [[1, 0, -x/z], [0, 1, -y/z]]
    z = p[:, 2:3]
    duv = (intrinsics.f / z)[:, :, None] * (dp[:, :2] - (p[:, :2] / z)[:, :, None] * dp[:, 2:3])
    jac = np.zeros((_N_RESIDUALS, NUM_POSE_PARAMS))
    jac[:2 * NUM_KEYPOINTS] = duv.reshape(2 * NUM_KEYPOINTS, NUM_POSE_PARAMS)
    # box penalties: +-W outside the box, zero inside
    vals = np.concatenate([pvec[6:], pvec[5:6]])
    jac[_BOX_ROWS, _BOX_COLS] = _BOX_W * ((vals > _BOX_HI).astype(np.float64) - (vals < _BOX_LO))
    return jac


def fit_pose(kp2d, model: HandModel, intrinsics: CameraIntrinsics, init: PoseParams,
             *, max_iter: int = 200, rel_tol: float = 1e-10,
             max_rms_px: float = 10.0) -> FitResult:
    """Fit pose parameters to observed pixels by damped least squares.

    Residuals are the 42 reprojection errors plus one-sided penalties that
    hold joints and depth inside their boxes.  Each iteration linearizes
    them with the analytic Jacobian, taken from the FK pass that evaluated
    the accepted pose; trial steps that take a keypoint to or behind the
    camera plane are rejected like uphill ones.  The damping factor starts
    at 1e-3, halves on accepted steps and grows tenfold on rejected ones,
    clamped to [1e-12, 1e8]; fitting stops when the relative cost decrease
    falls under ``rel_tol`` or after ``max_iter`` iterations.  Raises
    DivergedFit when the final reprojection error exceeds ``max_rms_px``
    and BehindCamera when the initial pose does not project.
    """
    obs = np.asarray(kp2d, dtype=np.float64)
    if obs.shape != (NUM_KEYPOINTS, 2):
        raise ShapeMismatch(f"expected ({NUM_KEYPOINTS}, 2) pixels, got {obs.shape}")
    if not np.all(np.isfinite(obs)):
        raise MalformedFrame("non-finite pixel coordinates")

    p = init.as_vector()
    r, kin = _residuals_batch(model, intrinsics, obs, p[None])
    r = r[0]
    if not np.all(np.isfinite(r)):
        raise BehindCamera("initial pose places the hand at or behind the camera")
    cost = float(r @ r)
    history = [cost]
    lam = 1e-3
    converged = cost == 0.0
    iterations = 0

    while not converged and iterations < max_iter:
        iterations += 1
        jac = _linearize(intrinsics, p, kin)
        grad = jac.T @ r
        hess = jac.T @ jac
        # Marquardt scaling: damp proportionally to the curvature so that
        # weakly observed parameters (e.g. a finger pointing away from the
        # camera) still take useful steps instead of freezing in place
        damp = np.diag(np.clip(np.diag(hess), 1e-12, None))
        accepted = False
        while True:
            try:
                delta = np.linalg.solve(hess + lam * damp, -grad)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None and np.all(np.isfinite(delta)):
                p_try = p + delta
                r_try, kin_try = _residuals_batch(model, intrinsics, obs, p_try[None])
                r_try = r_try[0]
                if np.all(np.isfinite(r_try)):
                    cost_try = float(r_try @ r_try)
                    if cost_try < cost:
                        rel = (cost - cost_try) / max(cost, 1e-300)
                        p, r, cost, kin = p_try, r_try, cost_try, kin_try
                        history.append(cost)
                        lam = max(lam * 0.5, 1e-12)
                        accepted = True
                        if rel < rel_tol or cost == 0.0:
                            converged = True
                        break
            if lam >= 1e8:
                break
            lam = min(lam * 10.0, 1e8)
        if not accepted:
            # no downhill step even at maximum damping: treat a vanishing
            # gradient as convergence, anything else as a stall
            converged = converged or float(np.max(np.abs(grad))) < 1e-9
            break

    points = kin.points[0]
    proj = project(points, intrinsics)
    rms = float(np.sqrt(np.mean(np.sum((proj - obs) ** 2, axis=1))))
    if rms > max_rms_px:
        raise DivergedFit(f"fit stalled at {rms:.2f} px rms (limit {max_rms_px:.2f})")
    return FitResult(params=PoseParams.from_vector(p), points=points, rms_px=rms,
                     cost_history=history, iterations=iterations, converged=converged)


# -- initialization from the 2D alignment ------------------------------------

# palm toward the camera, fingers up (right hand, hand frame to camera frame)
FRONTAL_ROTATION = np.array([[1.0, 0.0, 0.0],
                             [0.0, -1.0, 0.0],
                             [0.0, 0.0, -1.0]])


def neutral_joints() -> np.ndarray:
    """Mid-range flexions, zero abductions: a single max-entropy seed.

    Starting the fit half-bent roughly halves the worst-case joint travel
    compared to a flat hand and keeps every angle off its box boundary;
    multi-hypothesis initialization is deliberately out of scope.
    """
    joints = np.zeros(NUM_JOINT_ANGLES)
    joints[[0, 2, 3]] = (0.30, 0.40, 0.30)
    for base in (5, 9, 13, 17):
        joints[[base, base + 2, base + 3]] = (0.35, 0.35, 0.20)
    return joints


def _rest_alignment(model: HandModel):
    """Roll angle and palm size of the neutral pose viewed frontally, plus
    its keypoints in the hand frame.  Computed once per model instance."""
    if model._rest is None:
        pose = np.zeros(NUM_POSE_PARAMS)
        pose[6:] = neutral_joints()
        rest_local = _fk_batch(model, pose[None]).points[0]
        plane = (rest_local @ FRONTAL_ROTATION.T)[:, :2]
        center = plane[[INDEX_MCP, MIDDLE_MCP, PINKY_MCP]].mean(axis=0)
        v = (plane[WRIST] - plane[MIDDLE_MCP]) + (plane[PINKY_MCP] - plane[INDEX_MCP])
        theta0 = float(np.arctan2(v[0], -v[1]))
        size = float(np.max(np.linalg.norm(plane[list(SCALE_KEYPOINTS)] - center, axis=1)))
        model._rest = (theta0, size, rest_local)
    return model._rest


def initial_pose_from_alignment(kp2d, model: HandModel,
                                intrinsics: CameraIntrinsics) -> PoseParams:
    """Rough pose seed: frontal orientation spun to match the 2D roll angle,
    depth from the palm's apparent size, neutral half-bent joints."""
    align = compute_alignment(np.asarray(kp2d, dtype=np.float64))
    theta0, rest_size_m, rest_local = _rest_alignment(model)
    if align.scale_px <= 0.0:
        raise DegenerateScale("alignment scale must be positive")
    r_init = rot_z(align.rotation_rad - theta0) @ FRONTAL_ROTATION
    tz = float(np.clip(intrinsics.f * rest_size_m / align.scale_px,
                       TZ_BOX[0], TZ_BOX[1]))
    center_cam = np.array([(align.center[0] - intrinsics.cx) * tz / intrinsics.f,
                           (align.center[1] - intrinsics.cy) * tz / intrinsics.f,
                           tz])
    # place the wrist so the palm center projects onto the 2D center
    local_center = rest_local[[INDEX_MCP, MIDDLE_MCP, PINKY_MCP]].mean(axis=0)
    t = center_cam - r_init @ local_center
    return PoseParams(rotvec=rotvec_from_rotmat(r_init), translation=t,
                      joints=neutral_joints())
