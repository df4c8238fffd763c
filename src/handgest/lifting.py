"""Monocular 3D lifting: a kinematic hand model fitted to 2D keypoints.

The hand frame has x pointing laterally toward the thumb, y along the
fingers, and z out of the palm.  A pose is one (27,) float64 array: a
global rigid transform, rotation vector then translation (camera frame,
meters), then 21 joint angles in radians, read through ROTVEC,
TRANSLATION and JOINTS.  Joint order:

    thumb:   cmc_flex, cmc_abd, mcp_flex, ip_flex, roll
    per finger (index, middle, ring, pinky):
             mcp_flex, mcp_abd, pip_flex, dip_flex

Flexion is positive toward the palm, abduction positive toward the
thumb side, thumb roll turns the curl plane about the thumb's own axis.
Finger spread at rest lives in the model's base directions, so an open
flat hand is all zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from importlib.resources import files
from typing import NamedTuple

import numpy as np

from .errors import (BehindCamera, DivergedFit, MalformedConfig, MalformedFrame, ShapeMismatch,
                     finite_at_least)
from .skeleton import (
    Finger,
    MIDDLE_MCP,
    NUM_KEYPOINTS,
    check_handedness,
    check_keys,
    check_name,
    check_number,
    float_array,
    read_json,
)
from .alignment import compute_alignment, finite_pixels, palm_center
from .features import axis_rotation, cross

HAND_MODEL_SCHEMA = "hand_model/1"
NUM_JOINT_ANGLES = 21
NUM_POSE_PARAMS = 6 + NUM_JOINT_ANGLES
ROTVEC, TRANSLATION, JOINTS = slice(0, 3), slice(3, 6), slice(6, NUM_POSE_PARAMS)
# the pose entry that holds the depth of the wrist
_DEPTH = TRANSLATION.start + 2

FLEXION_BOX = (-0.3, 2.0)
ABDUCTION_BOX = (-0.6, 0.6)
THUMB_ROLL_BOX = (-1.0, 1.0)
TZ_BOX = (0.05, 3.0)

MIN_BONE_M = 0.005
MAX_BONE_M = 0.12

BOX_WEIGHT_JOINT = 100.0
BOX_WEIGHT_TZ = 1000.0

# A fit has reached its noise floor when the least-damped step's predicted
# cut is below one residual pixel's share of the cost: the predicted-reduction
# test of MINPACK's lmder (More, 1978) read at that share.  Near the floor the
# Gauss-Newton prediction overstates what a step gets, so the last
# FLOOR_WINDOW accepted steps achieving less than that share together stop
# the fit too
FLOOR_FRACTION = 1.0 / (2 * NUM_KEYPOINTS)
FLOOR_WINDOW = 3
# an accepted step that cuts the cost by less than REL_TOL of it ends the fit
REL_TOL = 1e-10
# the iteration cap, and the rms reprojection error above which a fit fails
MAX_ITER = 200
MAX_RMS_PX = 10.0

# Each LM round tries these multiples of the damping factor at once; two
# decades apart, so one round reaches both near-Gauss-Newton and short
# gradient-like steps
DAMPING_FACTORS = np.array([1e-3, 0.1, 10.0, 1e3])


# -- small rotation helpers ------------------------------------------------

# flat (3, 3) positions of [w]x and the rotation-vector entries they hold
_SKEW_AT = np.array([1, 2, 3, 5, 6, 7])
_SKEW_OF = np.array([2, 1, 2, 0, 1, 0])
_SKEW_SIGN = np.array([-1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
_EYE3 = np.eye(3)
# flat (3, 3) positions of the pairs whose differences make vee(R - R')
_VEE_PLUS, _VEE_MINUS = np.array([7, 2, 3]), np.array([5, 6, 1])


def rotmat_from_rotvec(rv):
    """Exponential map, batched over leading axes.  Safe at theta = 0.
    Raises ShapeMismatch unless the last axis holds the 3 entries."""
    rv = float_array(rv, "rotvec")
    if rv.shape[-1:] != (3,):
        raise ShapeMismatch(f"rotvec must have shape (..., 3), got {rv.shape}")
    return _rotmat(rv)


def _rotmat(rv):
    """rotmat_from_rotvec on a float64 (..., 3) array it does not check."""
    theta = np.sqrt((rv * rv).sum(-1))
    k = np.zeros(rv.shape[:-1] + (9,))
    k[..., _SKEW_AT] = rv[..., _SKEW_OF] * _SKEW_SIGN
    k = k.reshape(rv.shape[:-1] + (3, 3))
    small = theta < 1e-6
    # small angles divide by theta + 1 and take the Taylor series below
    safe = theta + small
    a = np.sin(theta) / safe
    b = (1.0 - np.cos(theta)) / (safe * safe)
    if small.any():
        t2 = theta * theta
        a = np.where(small, 1.0 - t2 / 6.0, a)
        b = np.where(small, 0.5 - t2 / 24.0, b)
    return _EYE3 + a[..., None, None] * k + b[..., None, None] * (k @ k)


def rotvec_from_rotmat(r):
    """Log map for one 3x3 rotation, via quaternion for stability near pi."""
    r = float_array(r, "rotation", (3, 3))
    # Shepperd's method (1978): pivot on the largest of the trace and the
    # diagonal entries; vee(R - R') is 4 w v for the quaternion (w, v)
    tr = float(np.trace(r))
    i = int(np.argmax([tr, r[0, 0], r[1, 1], r[2, 2]])) - 1
    vee = r.take(_VEE_PLUS) - r.take(_VEE_MINUS)
    if i < 0:
        s = math.sqrt(max(tr + 1.0, 0.0)) * 2.0
        q = np.concatenate(([0.25 * s], vee / s))
    else:
        # pivot v_i: the other diagonal entries come off in ascending order,
        # and R + R' gives 4 v_i v_j in row i
        j, k = (c for c in range(3) if c != i)
        s = math.sqrt(max(1.0 + r[i, i] - r[j, j] - r[k, k], 0.0)) * 2.0
        q = np.concatenate(([vee[i]], r[i] + r[:, i])) / s
        q[1 + i] = 0.25 * s
    w, v = q[0], q[1:]
    n = math.sqrt(v.dot(v))  # np.linalg.norm's own formula
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
    check_number(width, "width", 1, integer=True, error=MalformedFrame)
    check_number(height, "height", 1, integer=True, error=MalformedFrame)
    return CameraIntrinsics(f=float(max(width, height)), cx=width / 2.0, cy=height / 2.0)


def project(points, intrinsics: CameraIntrinsics):
    """Perspective-project camera-frame points (..., 3) to pixels (..., 2)."""
    p = float_array(points, "points")
    if p.shape[-1:] != (3,):
        raise ShapeMismatch(f"points must have shape (..., 3), got {p.shape}")
    z = p[..., 2:]
    if not np.all(np.isfinite(p)) or np.any(z <= 0.0):
        raise BehindCamera("points at or behind the camera plane cannot be projected")
    return intrinsics.f * p[..., :2] / z + (intrinsics.cx, intrinsics.cy)


# -- hand model ------------------------------------------------------------

class HandModel:
    """Rest geometry: per-finger base direction (unit, hand frame) and four
    segment lengths (wrist-to-base, then three phalanges), thumb first.

    ``base_frames[i]`` is the rest frame of finger i with columns
    [lateral, along, normal]; flexion rotates about lateral, abduction
    about normal.  ``palm_segments[i]`` is finger i's wrist-to-base segment,
    its first length along its direction.  ``_rest`` holds what the pose
    seed derives from the rest pose; it is filled on first use.  The four
    arrays are the model's own and read-only, so that cache cannot go stale.
    """

    __slots__ = ("directions", "lengths", "base_frames", "palm_segments", "_rest")

    def __init__(self, directions, lengths):
        d = float_array(directions, "directions", (5, 3))
        l = float_array(lengths, "lengths", (5, 4)).copy()
        if not np.all(np.isfinite(d)):
            raise MalformedConfig("non-finite finger direction in hand model")
        norms = np.linalg.norm(d, axis=1)
        if np.any(norms < 1e-9):
            raise MalformedConfig("zero-length finger direction in hand model")
        d = d / norms[:, None]
        if not np.all(np.isfinite(l)) or np.any(l <= MIN_BONE_M) or np.any(l >= MAX_BONE_M):
            raise MalformedConfig(f"bone lengths must lie in ({MIN_BONE_M}, {MAX_BONE_M}) m")
        frames = np.empty((5, 3, 3))
        z_hat = np.array([0.0, 0.0, 1.0])
        for i in range(5):
            along = d[i]
            lateral = cross(along, z_hat)
            ln = np.linalg.norm(lateral)
            if ln < 1e-9:
                raise MalformedConfig("finger direction parallel to the palm normal")
            lateral = lateral / ln
            frames[i] = np.column_stack([lateral, along, cross(lateral, along)])
        palm = l[:, :1] * d
        for a in (d, l, frames, palm):
            a.flags.writeable = False
        self.directions = d
        self.lengths = l
        self.base_frames = frames
        self.palm_segments = palm
        self._rest = None

    @classmethod
    def from_dict(cls, data: dict) -> "HandModel":
        """A hand_model/1 document; the schema tag may be left out."""
        check_keys(data, frozenset({"fingers"}), "hand model", frozenset({"schema", "comment"}))
        check_name(data.get("schema", HAND_MODEL_SCHEMA), (HAND_MODEL_SCHEMA,), "schema",
                   error=MalformedConfig)
        fingers = check_keys(data["fingers"], frozenset(f.name.lower() for f in Finger),
                             "hand model 'fingers'")
        directions = np.empty((5, 3))
        lengths = np.empty((5, 4))
        for f in Finger:
            name = f.name.lower()
            what = f"hand model {name!r}"
            entry = check_keys(fingers[name], frozenset({"direction", "lengths"}), what)
            directions[f] = float_array(entry["direction"], f"{what} direction", (3,),
                                        error=MalformedConfig)
            lengths[f] = float_array(entry["lengths"], f"{what} lengths", (4,),
                                     error=MalformedConfig)
        return cls(directions, lengths)


def load_hand_model(path) -> HandModel:
    return read_json(path, HandModel.from_dict)


@cache
def default_hand_model() -> HandModel:
    """The packaged right-hand model, loaded once."""
    return load_hand_model(files("handgest") / "data" / "hand_model.json")


# -- forward kinematics ----------------------------------------------------

# Every finger is the same chain of five turns after its base frame: roll
# about y (the thumb's own axis; the other fingers hold it at zero), then
# abduction about -z, then three flexions about x.  _SLOT_JOINT maps
# (finger, slot) to a joint angle index, NUM_JOINT_ANGLES standing for the
# missing roll of the four fingers.
_SLOT_JOINT = np.array([[4, 1, 0, 2, 3]]
                       + [[NUM_JOINT_ANGLES, b + 1, b, b + 2, b + 3] for b in (5, 9, 13, 17)])
# the three flexion joints of each finger, base to tip, thumb first
FLEXION_JOINTS = _SLOT_JOINT[:, 2:]
_SLOT_SIGN = np.array([1.0, -1.0, 1.0, 1.0, 1.0])
_SLOT_AXIS = np.array([1, 2, 0, 0, 0])
_SLOT_BOX = np.array([THUMB_ROLL_BOX, ABDUCTION_BOX, FLEXION_BOX, FLEXION_BOX, FLEXION_BOX])
# the finger point (0 = its base on the palm) each slot turns the rest about
_SLOT_PIVOT = np.array([0, 0, 0, 1, 2])
_SLOTS = np.arange(5)

# The 25 slot rotations with every turn by 0, the four fingers' missing roll
# included (cos 1.0, -sin -0.0, sin 0.0; see axis_rotation).  hand_chain
# copies it and writes the 21 real slots' cos, cos, -sin, sin at the flat
# positions _ROT_AT: row i, column j of each real slot.
_REST_ROTS = np.broadcast_to([axis_rotation(a, 0.0) for a in _SLOT_AXIS], (5, 5, 3, 3))
_REAL = _SLOT_JOINT < NUM_JOINT_ANGLES
_REAL_JOINT = _SLOT_JOINT[_REAL]
_REAL_SLOT = np.broadcast_to(_SLOTS, _REAL.shape)[_REAL]
_REAL_SIGN = _SLOT_SIGN[_REAL_SLOT]
_ROT_I, _ROT_J = (_SLOT_AXIS[_REAL_SLOT] + 1) % 3, (_SLOT_AXIS[_REAL_SLOT] + 2) % 3
_ROT_ROW = np.concatenate([_ROT_I, _ROT_J, _ROT_I, _ROT_J])
_ROT_COL = np.concatenate([_ROT_I, _ROT_J, _ROT_J, _ROT_I])
_ROT_AT = np.tile(9 * np.flatnonzero(_REAL), 4) + 3 * _ROT_ROW + _ROT_COL

# lo/hi per joint angle, in the module docstring's joint order: its slot's box
JOINT_BOXES = np.empty((NUM_JOINT_ANGLES, 2))
JOINT_BOXES[_REAL_JOINT] = _SLOT_BOX[_REAL_SLOT]


class _Kinematics(NamedTuple):
    points: np.ndarray   # (n, 21, 3) camera frame
    r_glob: np.ndarray   # (n, 3, 3) global rotation
    frames: np.ndarray   # (n, 5, 5, 3, 3) hand-frame finger frame after each slot


def hand_chain(model: HandModel, joints: np.ndarray):
    """Joint angles (n, 21) -> hand-frame keypoints (n, 21, 3) and each
    finger's frame after each slot (n, 5, 5, 3, 3): the model before its
    rigid placement."""
    n = joints.shape[0]
    angles = joints[:, _REAL_JOINT] * _REAL_SIGN
    c, s = np.cos(angles), np.sin(angles)
    rots = np.empty((n, 5, 5, 3, 3))
    rots[:] = _REST_ROTS
    rots.reshape(n, -1)[:, _ROT_AT] = np.concatenate([c, c, -s, s], axis=1)

    frames = np.empty((n, 5, 5, 3, 3))
    frame = model.base_frames
    for slot in range(5):
        frame = np.matmul(frame, rots[:, :, slot], out=frames[:, :, slot])

    # the three flexion frames carry the phalanges along their y columns
    chain = np.empty((n, 5, 4, 3))
    chain[:, :, 0] = model.palm_segments
    np.multiply(model.lengths[:, 1:, None], frames[:, :, 2:, :, 1], out=chain[:, :, 1:])
    local = np.zeros((n, NUM_KEYPOINTS, 3))
    np.cumsum(chain, axis=2, out=local[:, 1:].reshape(n, 5, 4, 3))
    return local, frames


def _fk_batch(model: HandModel, pvec: np.ndarray) -> _Kinematics:
    """Poses (n, 27) -> keypoints and the frames that place them."""
    r_glob = _rotmat(pvec[:, ROTVEC])
    local, frames = hand_chain(model, pvec[:, JOINTS])
    points = np.einsum("nij,nkj->nki", r_glob, local) + pvec[:, None, TRANSLATION]
    return _Kinematics(points, r_glob, frames)


def forward_kinematics(model: HandModel, pose) -> np.ndarray:
    """Evaluate the model at one (27,) pose, returning (21, 3) camera-frame points."""
    return _fk_batch(model, float_array(pose, "pose", (NUM_POSE_PARAMS,))[None]).points[0]


def normalize_world(kp3d) -> np.ndarray:
    """Shift 3D keypoints so the middle-finger base sits at the origin."""
    p = float_array(kp3d, "kp3d", (NUM_KEYPOINTS, 3))
    return p - p[MIDDLE_MCP]


# -- model fitting (Levenberg-Marquardt) -------------------------------------

@dataclass
class FitResult:
    pose: np.ndarray  # (27,) at the optimum, the fit's own copy
    points: np.ndarray  # (21, 3) camera frame at the optimum
    rms_px: float
    cost_history: list  # accepted costs, starting with the initial one
    iterations: int
    stop: str  # "tolerance", "stalled", "max_iter" or "no_descent"

    @property
    def converged(self) -> bool:
        return self.stop in ("tolerance", "stalled")


_N_RESIDUALS = 2 * NUM_KEYPOINTS + NUM_JOINT_ANGLES + 1
_BOX_LO = np.concatenate([JOINT_BOXES[:, 0], [TZ_BOX[0]]])
_BOX_HI = np.concatenate([JOINT_BOXES[:, 1], [TZ_BOX[1]]])
_BOX_W = np.concatenate([np.full(NUM_JOINT_ANGLES, BOX_WEIGHT_JOINT), [BOX_WEIGHT_TZ]])
# the pose entries the box penalties hold, joints then depth, in _BOX_LO's order
_BOX_COLS = np.r_[JOINTS, _DEPTH]


def _residuals_batch(model, intrinsics, obs, pvecs):
    """Residual rows for a batch of pose vectors, nan where the model
    leaves the camera's forward half-space, and the FK pass behind them."""
    kin = _fk_batch(model, pvecs)
    pts = kin.points
    n = pvecs.shape[0]
    z = pts[:, :, 2:3]
    # one test over every row; the per-row test only when some row fails it
    ok = None
    if not ((z > 1e-9).all() and np.isfinite(pts).all()):
        ok = (pts[:, :, 2] > 1e-9).all(axis=1) & np.isfinite(pts.reshape(n, -1)).all(axis=1)
        # rows that do not project get a harmless depth, then nan below
        z = np.where(ok[:, None, None], z, 1.0)
    proj = intrinsics.f * pts[:, :, :2] / z + (intrinsics.cx, intrinsics.cy)
    out = np.empty((n, _N_RESIDUALS))
    out[:, : 2 * NUM_KEYPOINTS] = (proj - obs).reshape(n, -1)
    vals = pvecs[:, _BOX_COLS]
    out[:, 2 * NUM_KEYPOINTS:] = _BOX_W * (np.maximum(vals - _BOX_HI, 0.0)
                                           + np.maximum(_BOX_LO - vals, 0.0))
    if ok is not None:
        out[~ok] = np.nan
    return out, kin


def _rotvec_left_jac(rv):
    """J_l(w), with exp([w + d]x) = exp([J_l(w) d]x) exp([w]x) to first order."""
    theta = math.sqrt(rv.dot(rv))
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
# Jacobian: at (keypoint, the joint's pose entry) when the slot's turn moves
# the point, otherwise, and for the four fingers' missing roll, in a scratch
# column past the 27 parameters.
_MOVES = (np.arange(1, 4)[None, :] > _SLOT_PIVOT[:, None]) & (
    _SLOT_JOINT < NUM_JOINT_ANGLES)[:, :, None]
_JAC_KP = np.broadcast_to(2 + 4 * np.arange(5)[:, None, None] + np.arange(3), _MOVES.shape)
_JAC_COL = np.where(_MOVES, JOINTS.start + _SLOT_JOINT[:, :, None], NUM_POSE_PARAMS)
_SLOT_AXIS_VEC = np.eye(3)[_SLOT_AXIS] * _SLOT_SIGN[:, None]
_BOX_ROWS = np.arange(2 * NUM_KEYPOINTS, _N_RESIDUALS)


def _linearize(intrinsics, pvec, kin, row):
    """Analytic Jacobian (64, 27) of the residuals at one pose, from
    row ``row`` of the batched FK pass that evaluated them there."""
    p = kin.points[row]
    dp = np.zeros((NUM_KEYPOINTS, 3, NUM_POSE_PARAMS + 1))
    # global rotation: d(R x) = -[R x]x J_l(w) dw; translation: identity
    jl = _rotvec_left_jac(pvec[ROTVEC])
    dp[:, :, ROTVEC] = cross(jl.T[None], (p - pvec[TRANSLATION])[:, None]).transpose(0, 2, 1)
    dp[:, :, TRANSLATION] = _EYE3
    # joint angle: the turn axis in the camera frame crossed with the lever
    # arm from its pivot, for every point downstream of the joint
    axes = np.einsum("fsij,sj->fsi", kin.frames[row], _SLOT_AXIS_VEC) @ kin.r_glob[row].T
    fingers = p[1:].reshape(5, 4, 3)
    arms = fingers[:, None, 1:] - fingers[:, _SLOT_PIVOT, None]
    dp[_JAC_KP, :, _JAC_COL] = cross(axes[:, :, None], arms)
    dp = dp[:, :, :NUM_POSE_PARAMS]
    # pinhole: d(u, v)/dP = f/z [[1, 0, -x/z], [0, 1, -y/z]], written into
    # the pixel rows of the Jacobian
    z = p[:, 2:3]
    jac = np.zeros((_N_RESIDUALS, NUM_POSE_PARAMS))
    duv = jac[:2 * NUM_KEYPOINTS].reshape(NUM_KEYPOINTS, 2, NUM_POSE_PARAMS)
    np.multiply((p[:, :2] / z)[:, :, None], dp[:, 2:3], out=duv)
    np.subtract(dp[:, :2], duv, out=duv)
    np.multiply((intrinsics.f / z)[:, :, None], duv, out=duv)
    # box penalties: +-W outside the box, zero inside
    vals = pvec[_BOX_COLS]
    jac[_BOX_ROWS, _BOX_COLS] = _BOX_W * ((vals > _BOX_HI).astype(np.float64) - (vals < _BOX_LO))
    return jac


def fit_pose(kp2d, model: HandModel, intrinsics: CameraIntrinsics,
             init) -> FitResult:
    """Fit a (27,) pose to observed pixels by damped least squares, from ``init``.

    Residuals are the 42 reprojection errors plus one-sided penalties that
    hold joints and depth inside their boxes.  Each iteration linearizes
    them with the analytic Jacobian, taken from the FK pass that evaluated
    the accepted pose, and searches the damping factor lambda in rounds:
    a round solves the damped normal equations for the four DAMPING_FACTORS
    multiples of lambda, 1e-3, 0.1, 10 and 1e3 (six decades), in one
    stacked solve and evaluates the trial poses in one batched FK pass.
    Each parameter is damped by the largest diagonal entry of J'J it has
    had so far in the fit, not by the current one (More's scaling, as in
    MINPACK lmder, mode 1).
    The cheapest trial is accepted if it goes downhill, and lambda becomes
    half of its damping; trials that take a keypoint to or behind the
    camera plane never count as cheapest.  A round with no downhill trial,
    or a singular system, retries at ten times the larger of lambda and
    its largest damping, so lambda grows whatever the DAMPING_FACTORS and
    the search ends.  lambda starts at 1e-3 and is clamped to [1e-12, 1e8].
    ``FitResult.stop`` says why fitting ended:

    - "tolerance": an accepted step cut the cost by less than REL_TOL of
      it, the cost reached zero, or no step went downhill and the
      gradient vanished;
    - "stalled": the noise floor, found by one of two tests that run only
      within MAX_RMS_PX and never change a step.  Predicted: the first
      round's least-damped step d predicts a cut -(2 g.d + d'Hd) below
      FLOOR_FRACTION of the cost; that iteration runs no trial and is not
      counted.  Achieved: after an accepted step, the last FLOOR_WINDOW
      accepted steps together cut less than FLOOR_FRACTION of the cost
      before them; that iteration counts;
    - "max_iter": MAX_ITER iterations ran out;
    - "no_descent": no step went downhill even at maximum damping, and
      the gradient did not vanish.

    ``converged`` is true for the first two.  Raises DivergedFit when the
    final reprojection error exceeds MAX_RMS_PX or the initial cost is
    not finite, and BehindCamera when the initial pose does not project.
    """
    obs = finite_pixels(kp2d)
    p = float_array(init, "pose", (NUM_POSE_PARAMS,))
    r, kin = _residuals_batch(model, intrinsics, obs, p[None])
    r, row = r[0], 0
    if not np.all(np.isfinite(r)):
        raise BehindCamera("initial pose places the hand at or behind the camera")
    cost = finite_at_least(float(r @ r), 0.0, DivergedFit, "initial cost {:.3e} px^2")
    history = [cost]
    lam = 1e-3
    stop = "tolerance" if cost == 0.0 else None
    iterations = 0
    curvature = np.zeros(NUM_POSE_PARAMS)
    # MAX_RMS_PX as a sum of squared reprojection errors: the stall tests
    # never end a fit that more steps would lift
    floor_px2 = NUM_KEYPOINTS * MAX_RMS_PX ** 2

    while stop is None and iterations < MAX_ITER:
        iterations += 1
        jac = _linearize(intrinsics, p, kin, row)
        grad = jac.T @ r
        hess = jac.T @ jac
        # Marquardt scaling by the largest curvature each parameter has had
        # in this fit (More 1978; MINPACK lmder, mode 1): weakly observed
        # parameters still take useful steps, and one whose column collapses
        # (a straight finger passing flexion 0) keeps its damping
        curvature = np.maximum(curvature, hess.diagonal())
        damp = np.maximum(curvature, 1e-12)
        px = r[:2 * NUM_KEYPOINTS]
        # first round only
        accepted, floor_test = False, px @ px <= floor_px2
        while True:
            lams = lam * DAMPING_FACTORS
            systems = np.repeat(hess[None], len(lams), axis=0)
            # every NUM_POSE_PARAMS + 1-th entry of a flattened system is on its diagonal
            systems.reshape(len(lams), -1)[:, ::NUM_POSE_PARAMS + 1] += lams[:, None] * damp
            try:
                steps = np.linalg.solve(systems, -grad)
            except np.linalg.LinAlgError:
                steps = None
            if floor_test and steps is not None:
                d = steps[0]
                if -(2.0 * grad @ d + d @ hess @ d) < FLOOR_FRACTION * cost:
                    stop, iterations = "stalled", iterations - 1
                    break
            floor_test = False
            if steps is not None:
                trials = p + steps
                if not np.isfinite(trials).all():
                    # a step that overflowed stays put, so it cannot go downhill
                    trials[~np.isfinite(trials).all(axis=1)] = p
                r_try, kin_try = _residuals_batch(model, intrinsics, obs, trials)
                costs = np.einsum("ij,ij->i", r_try, r_try)
                if np.isnan(costs).any():
                    costs[np.isnan(costs)] = np.inf  # behind the camera
                k = int(np.argmin(costs))
                if costs[k] < cost:
                    rel = (cost - costs[k]) / max(cost, 1e-300)
                    p, r, kin, row = trials[k], r_try[k], kin_try, k
                    cost = float(costs[k])
                    history.append(cost)
                    lam = min(max(lams[k] * 0.5, 1e-12), 1e8)
                    accepted = True
                    if rel < REL_TOL or cost == 0.0:
                        stop = "tolerance"
                    elif len(history) > FLOOR_WINDOW:
                        before, px = history[-1 - FLOOR_WINDOW], r[:2 * NUM_KEYPOINTS]
                        if before - cost < FLOOR_FRACTION * before and px @ px <= floor_px2:
                            stop = "stalled"
                    break
            if lam >= 1e8:
                break
            lam = min(10.0 * max(lam, lams[-1]), 1e8)
        if not accepted and stop is None:
            # no downhill step even at maximum damping: treat a vanishing
            # gradient as convergence
            stop = "tolerance" if float(np.max(np.abs(grad))) < 1e-9 else "no_descent"

    stop = stop or "max_iter"
    points = kin.points[row]
    # the accepted residual's first 42 entries are the reprojection errors
    px = r[:2 * NUM_KEYPOINTS].reshape(NUM_KEYPOINTS, 2)
    # np.mean's own operations: the sum, then division by the count
    rms = math.sqrt((px * px).sum(axis=1).sum() / NUM_KEYPOINTS)
    if rms > MAX_RMS_PX:
        # four significant digits: an rms past 1e100 px stays a short note
        raise DivergedFit(f"fit ended ({stop}) at {rms:#.4g} px rms "
                          f"(limit {MAX_RMS_PX:.2f})")
    return FitResult(pose=p.copy(), points=points, rms_px=rms,
                     cost_history=history, iterations=iterations, stop=stop)


# -- initialization from the 2D alignment ------------------------------------

# palm toward the camera, fingers up (right hand, hand frame to camera frame)
FRONTAL_ROTATION = np.array([[1.0, 0.0, 0.0],
                             [0.0, -1.0, 0.0],
                             [0.0, 0.0, -1.0]])


# the seed's joint angles, read-only; neutral_joints hands out copies
_NEUTRAL_JOINTS = np.zeros(NUM_JOINT_ANGLES)
_NEUTRAL_JOINTS[FLEXION_JOINTS] = [(0.30, 0.40, 0.30)] + [(0.35, 0.35, 0.20)] * 4
_NEUTRAL_JOINTS.flags.writeable = False


def neutral_joints() -> np.ndarray:
    """Mid-range flexions, zero abductions: a single max-entropy seed.

    Starting the fit half-bent roughly halves the worst-case joint travel
    compared to a flat hand and keeps every angle off its box boundary;
    multi-hypothesis initialization is deliberately out of scope.
    """
    return _NEUTRAL_JOINTS.copy()


def _rest_alignment(model: HandModel):
    """Roll angle and palm size of the neutral pose viewed frontally, plus
    its keypoints in the hand frame.  Computed once per model instance."""
    if model._rest is None:
        pose = np.zeros(NUM_POSE_PARAMS)
        pose[JOINTS] = _NEUTRAL_JOINTS
        rest_local = _fk_batch(model, pose[None]).points[0]
        rest = compute_alignment((rest_local @ FRONTAL_ROTATION.T)[:, :2])
        model._rest = (rest.rotation_rad, rest.scale_px, rest_local)
    return model._rest


def initial_pose_from_alignment(kp2d, model: HandModel,
                                intrinsics: CameraIntrinsics) -> np.ndarray:
    """Rough pose seed: frontal orientation spun to match the 2D roll angle,
    depth from the palm's apparent size, neutral half-bent joints."""
    align = compute_alignment(kp2d)
    theta0, rest_size_m, rest_local = _rest_alignment(model)
    r_init = axis_rotation(2, align.rotation_rad - theta0) @ FRONTAL_ROTATION
    tz = min(max(intrinsics.f * rest_size_m / align.scale_px, TZ_BOX[0]), TZ_BOX[1])
    center_cam = np.array([(align.center[0] - intrinsics.cx) * tz / intrinsics.f,
                           (align.center[1] - intrinsics.cy) * tz / intrinsics.f,
                           tz])
    pose = np.empty(NUM_POSE_PARAMS)
    pose[ROTVEC] = rotvec_from_rotmat(r_init)
    # place the wrist so the palm center projects onto the 2D center
    pose[TRANSLATION] = center_cam - r_init @ palm_center(rest_local)
    pose[JOINTS] = _NEUTRAL_JOINTS
    return pose


def lift_keypoints(kp2d, handedness: str, model: HandModel,
                   intrinsics: CameraIntrinsics) -> np.ndarray:
    """Camera-frame 3D keypoints (21, 3) of one hand from its pixels (21, 2):
    the alignment seed, then fit_pose.  The model is a right hand, so a left
    hand is fitted in the mirror image, u -> 2 cx - u, and its points are
    mirrored back, x -> -x.  Raises what the seed and the fit raise."""
    check_handedness(handedness)
    kp2d = float_array(kp2d, "kp2d", (NUM_KEYPOINTS, 2))
    left = handedness == "Left"
    if left:
        kp2d = np.column_stack((2.0 * intrinsics.cx - kp2d[:, 0], kp2d[:, 1]))
    init = initial_pose_from_alignment(kp2d, model, intrinsics)
    kp3d = fit_pose(kp2d, model, intrinsics, init).points
    return kp3d * (-1.0, 1.0, 1.0) if left else kp3d
