"""Pose features: palm frame, Euler angles, and joint-angle descriptors.

The 3D skeleton is split into an extrinsic part (where the palm sits in
camera space: rotation, translation, scale) and an intrinsic part (what the
fingers do, expressed in the palm frame). Classifiers consume one float64
array of shape (12,), in the order of a features/1 row, angles in radians:

    0-2   yaw, pitch, roll: yaw and roll in (-pi, pi], pitch in [-pi/2, pi/2]
    3-7   finger curls, thumb to pinky, in [0, pi]
    8-11  pair spreads, thumb-index to ring-pinky, in [0, pi]

Palm frame construction, from wrist and the index/pinky base knuckles:

    v1 = index_mcp - wrist,  v2 = pinky_mcp - wrist
    n  = unit(v1 x v2)   for a right hand (v2 x v1 for a left hand);
                         points out of the palm either way
    f  = unit component of (v1 + v2) orthogonal to n; the finger direction
    l  = f x n           lateral axis, thumb side on a right hand

    R = [l | f | n] as columns, det(R) = +1;  t = wrist;
    scale = |middle_mcp - wrist|

Euler angles are intrinsic Z-Y-X (yaw about camera z first, then pitch,
then roll), so in-plane image rotation lands entirely in yaw.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegeneratePalm, ZeroSegment, finite_at_least
from .skeleton import (
    CHAIN_INDICES,
    Finger,
    INDEX_MCP,
    MIDDLE_MCP,
    NUM_KEYPOINTS,
    PINKY_MCP,
    WRIST,
    check_handedness,
    float_array,
)

EPS_PALM_AREA_M2 = 1e-9
EPS_PALM_SCALE_M = 1e-6
EPS_SEGMENT_M = 1e-9
EPS_GIMBAL = 1e-7

# the entries of each part, in order; the names are a features/1 row's keys
FEATURE_PARTS = {"euler": slice(0, 3), "fingers": slice(3, 8), "pairs": slice(8, 12)}
FEATURE_SIZE = FEATURE_PARTS["pairs"].stop
# closed bounds of each entry
FEATURE_MIN = np.array([-np.pi, -np.pi / 2.0, -np.pi] + [0.0] * 9)
FEATURE_MAX = np.array([np.pi, np.pi / 2.0] + [np.pi] * 10)


def _wrap_pi(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = float((a + np.pi) % (2.0 * np.pi) - np.pi)
    return np.pi if a <= -np.pi else a


_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross over the last axis of two float64 arrays, without its per-call
    overhead.

    The same products and difference as np.cross, so bitwise equal to it. Two
    (3,) vectors go term by term on Python floats, which round each product
    and difference as numpy does.
    """
    if a.ndim == 1 == b.ndim:
        (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
        return np.array((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))
    return a.take(_NEXT, -1) * b.take(_PREV, -1) - a.take(_PREV, -1) * b.take(_NEXT, -1)


def axis_rotation(axis: int, theta):
    """Rotation by ``theta`` about coordinate axis 0, 1 or 2 (x, y, z);
    batched when ``theta`` is an array."""
    c, s = np.cos(theta), np.sin(theta)
    i, j = (axis + 1) % 3, (axis + 2) % 3
    out = np.zeros(np.shape(theta) + (3, 3))
    out[..., axis, axis] = 1.0
    out[..., i, i] = c
    out[..., j, j] = c
    out[..., i, j] = -s
    out[..., j, i] = s
    return out


# wrist first, then the points _palm_frame measures from it
_PALM_POINTS = np.array([WRIST, INDEX_MCP, PINKY_MCP, MIDDLE_MCP])


def _palm_frame(kp3d: np.ndarray, handedness: str) -> tuple[np.ndarray, np.ndarray, float]:
    """Extrinsic palm frame of a checked (21, 3) kp3d: (rotation with
    columns [lateral, forward, normal], wrist, wrist-to-middle-MCP scale).

    Raises MalformedFrame on a handedness other than "Left" or "Right", and
    DegeneratePalm when wrist and the index/pinky base knuckles are nearly
    collinear or the scale is degenerate, or when one of these measures is
    not finite (keypoints too large to measure).  Norms are sqrt(v.dot(v)),
    what np.linalg.norm runs on a vector.
    """
    check_handedness(handedness)
    points = kp3d.take(_PALM_POINTS, 0)
    wrist = points[0]
    v1, v2, mid = points[1:] - wrist
    normal = cross(v1, v2) if handedness == "Right" else cross(v2, v1)
    area = finite_at_least(math.sqrt(normal.dot(normal)), EPS_PALM_AREA_M2, DegeneratePalm,
                           "palm cross product {:.3e} m^2")
    scale = finite_at_least(math.sqrt(mid.dot(mid)), EPS_PALM_SCALE_M, DegeneratePalm,
                            "palm scale {:.3e} m")
    n = normal / area
    fwd = v1 + v2
    fwd = fwd - np.dot(fwd, n) * n
    fn = finite_at_least(math.sqrt(fwd.dot(fwd)), EPS_SEGMENT_M, DegeneratePalm,
                         "orthogonalized forward direction {:.3e} m")
    f = fwd / fn
    rotation = np.empty((3, 3))
    rotation[:, 0] = cross(f, n)  # lateral
    rotation[:, 1] = f
    rotation[:, 2] = n
    return rotation, wrist, scale


def rotation_from_euler(euler) -> np.ndarray:
    """Compose R = Rz(yaw) @ Ry(pitch) @ Rx(roll) from (yaw, pitch, roll)."""
    yaw, pitch, roll = euler
    return axis_rotation(2, yaw) @ axis_rotation(1, pitch) @ axis_rotation(0, roll)


def euler_from_rotation(rotation: np.ndarray) -> tuple[float, float, float]:
    """Intrinsic Z-Y-X (yaw, pitch, roll); round-trips through rotation_from_euler.

    At gimbal lock (|cos pitch| < 1e-7) yaw is pinned to 0 and roll absorbs
    the residual rotation; the reconstruction is still exact.
    """
    return _euler(float_array(rotation, "rotation", (3, 3)))


def _euler(r: np.ndarray) -> tuple[float, float, float]:
    """euler_from_rotation of a (3, 3) float64 array, unchecked."""
    # cos(pitch) >= 0 because pitch is confined to [-pi/2, pi/2].
    cos_pitch = float(np.hypot(r[2, 1], r[2, 2]))
    pitch = float(np.arctan2(-r[2, 0], cos_pitch))
    if cos_pitch < EPS_GIMBAL:
        sign = 1.0 if -r[2, 0] > 0 else -1.0
        roll = float(np.arctan2(sign * r[0, 1], sign * r[0, 2]))
        return 0.0, pitch, _wrap_pi(roll)
    yaw = float(np.arctan2(r[1, 0], r[0, 0]))
    roll = float(np.arctan2(r[2, 1], r[2, 2]))
    return _wrap_pi(yaw), pitch, _wrap_pi(roll)


def _intrinsic(kp3d: np.ndarray, rotation: np.ndarray, wrist: np.ndarray,
               scale: float) -> np.ndarray:
    """Map keypoints into their palm frame: p' = R^T (p - wrist) / scale.

    The result has the wrist at the origin and unit wrist-to-middle-MCP
    distance, so it is invariant to rigid motion and uniform scaling of
    the input.
    """
    return (kp3d - wrist) @ rotation / scale


def _all_angles(kp3d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Finger curl and pair spread angles for one skeleton.

    A finger's curl is the largest angle between its wrist->base segment
    and any of its three distal segments: 0 when straight, toward pi for
    a full curl. A pair's spread is the unsigned angle between the two
    proximal phalanges (base joint -> first intermediate joint). Raises
    ZeroSegment on any segment shorter than EPS_SEGMENT_M, or whose length
    is not finite.
    """
    chains = kp3d.take(_CHAINS, 0)                # (5, 5, 3) wrist to tip
    seg = chains[:, 1:] - chains[:, :-1]          # (5, 4, 3) along each chain
    norms = np.sqrt(np.add.reduce(seg * seg, axis=2))  # np.linalg.norm's reduction
    finite_at_least(float(norms.min()), EPS_SEGMENT_M, ZeroSegment, "segment norm {:.3e} m")
    finite_at_least(float(norms.max()), EPS_SEGMENT_M, ZeroSegment, "segment norm {:.3e} m")
    ends = (seg / norms[:, :, None]).reshape(20, 3).take(_COS_ENDS, 0)
    cos = np.einsum("ij,ij->i", ends[0], ends[1])
    angles = np.arccos(cos.clip(-1.0, 1.0, out=cos), out=cos)
    return angles[:15].reshape(5, 3).max(axis=1), angles[15:]


_CHAINS = np.array([CHAIN_INDICES[f] for f in Finger])
# the two unit segments of each cosine, as rows 4 f + k (finger f, segment k):
# 15 finger cosines, wrist->base against each distal segment, then 4 pair
# cosines, one proximal phalanx against the next finger's
_COS_ENDS = np.array([[4 * f for f in range(5) for _ in range(3)] + [1, 5, 9, 13],
                      [4 * f + k for f in range(5) for k in (1, 2, 3)] + [5, 9, 13, 17]])


def feature_vector(kp3d: np.ndarray, handedness: str) -> np.ndarray:
    """The (12,) descriptor of one skeleton, in features/1 row order.

    Euler angles come from the palm frame; finger and pair angles are
    computed on the intrinsic keypoints, making them invariant to rigid
    motion and uniform scale while the Euler block keeps the extrinsic
    orientation.
    """
    kp3d = float_array(kp3d, "kp3d", (NUM_KEYPOINTS, 3))
    rotation, wrist, scale = _palm_frame(kp3d, handedness)
    fingers, pairs = _all_angles(_intrinsic(kp3d, rotation, wrist, scale))
    return np.concatenate((_euler(rotation), fingers, pairs))
