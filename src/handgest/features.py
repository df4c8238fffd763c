"""Pose features: palm frame, Euler angles, and joint-angle descriptors.

The 3D skeleton is split into an extrinsic part (where the palm sits in
camera space: rotation, translation, scale) and an intrinsic part (what the
fingers do, expressed in the palm frame). Classifiers consume a fixed
12-value vector: 3 Euler angles, 5 finger curl angles, 4 adjacent-finger
spread angles.

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

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePalm, MalformedFrame, ShapeMismatch, ZeroSegment
from .skeleton import (
    CHAIN_INDICES,
    HANDEDNESS_VALUES,
    Finger,
    INDEX_MCP,
    MIDDLE_MCP,
    NUM_KEYPOINTS,
    PINKY_MCP,
    WRIST,
)

EPS_PALM_AREA_M2 = 1e-9
EPS_PALM_SCALE_M = 1e-6
EPS_SEGMENT_M = 1e-9
EPS_GIMBAL = 1e-7

# Adjacent finger pairs for spread angles, thumb side first.
FINGER_PAIRS = (
    (Finger.THUMB, Finger.INDEX),
    (Finger.INDEX, Finger.MIDDLE),
    (Finger.MIDDLE, Finger.RING),
    (Finger.RING, Finger.PINKY),
)

FEATURE_SIZE = 12  # 3 euler + 5 finger + 4 pair


@dataclass(frozen=True)
class PalmPose:
    """Rigid pose and scale of the palm in camera space."""

    rotation: np.ndarray    # (3, 3) proper rotation, columns [lateral, forward, normal]
    translation: np.ndarray  # (3,) wrist position, meters
    scale: float             # wrist to middle-MCP distance, meters


@dataclass(frozen=True)
class EulerAngles:
    """Intrinsic Z-Y-X angles; gimbal_lock marks the degenerate extraction."""

    yaw: float     # (-pi, pi]
    pitch: float   # [-pi/2, pi/2]
    roll: float    # (-pi, pi]
    gimbal_lock: bool = False

    def as_array(self) -> np.ndarray:
        return np.array([self.yaw, self.pitch, self.roll])


@dataclass(frozen=True)
class FeatureVector:
    """The 12 classifier inputs, angles in radians."""

    euler: EulerAngles
    finger_angles: np.ndarray  # (5,) thumb..pinky, [0, pi]
    pair_angles: np.ndarray    # (4,) thumb-index..ring-pinky, [0, pi]

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.euler.as_array(), self.finger_angles, self.pair_angles])


def _check_kp3d(kp3d: np.ndarray) -> np.ndarray:
    kp3d = np.asarray(kp3d, dtype=np.float64)
    if kp3d.shape != (NUM_KEYPOINTS, 3):
        raise ShapeMismatch(f"expected (21, 3) keypoints, got {kp3d.shape}")
    return kp3d


def _wrap_pi(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = float((a + np.pi) % (2.0 * np.pi) - np.pi)
    return np.pi if a <= -np.pi else a


def palm_pose(kp3d: np.ndarray, handedness: str) -> PalmPose:
    """Extrinsic palm frame from wrist and the index/pinky base knuckles.

    Raises MalformedFrame on a handedness other than "Left" or "Right", and
    DegeneratePalm when the three points are nearly collinear or the
    wrist-to-middle-MCP distance is degenerate.
    """
    if handedness not in HANDEDNESS_VALUES:
        raise MalformedFrame(
            f"handedness must be one of {HANDEDNESS_VALUES}, got {handedness!r}")
    kp3d = _check_kp3d(kp3d)
    wrist = kp3d[WRIST]
    v1 = kp3d[INDEX_MCP] - wrist
    v2 = kp3d[PINKY_MCP] - wrist
    normal = np.cross(v1, v2) if handedness == "Right" else np.cross(v2, v1)
    area = float(np.linalg.norm(normal))
    if area < EPS_PALM_AREA_M2:
        raise DegeneratePalm(f"palm cross product {area:.3e} m^2 below {EPS_PALM_AREA_M2:.0e}")
    scale = float(np.linalg.norm(kp3d[MIDDLE_MCP] - wrist))
    if scale < EPS_PALM_SCALE_M:
        raise DegeneratePalm(f"palm scale {scale:.3e} m below {EPS_PALM_SCALE_M:.0e}")
    n = normal / area
    fwd = v1 + v2
    fwd = fwd - np.dot(fwd, n) * n
    fn = float(np.linalg.norm(fwd))
    if fn < EPS_SEGMENT_M:
        raise DegeneratePalm("forward direction vanished after orthogonalization")
    f = fwd / fn
    lateral = np.cross(f, n)
    rotation = np.column_stack([lateral, f, n])
    return PalmPose(rotation=rotation, translation=wrist.copy(), scale=scale)


def rotation_from_euler(euler: EulerAngles) -> np.ndarray:
    """Compose R = Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    cy, sy = np.cos(euler.yaw), np.sin(euler.yaw)
    cp, sp = np.cos(euler.pitch), np.sin(euler.pitch)
    cr, sr = np.cos(euler.roll), np.sin(euler.roll)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


def euler_from_rotation(rotation: np.ndarray) -> EulerAngles:
    """Extract intrinsic Z-Y-X angles; round-trips through rotation_from_euler.

    At gimbal lock (|cos pitch| < 1e-7) yaw is pinned to 0 and roll absorbs
    the residual rotation, flagged via gimbal_lock; the reconstruction is
    still exact.
    """
    r = np.asarray(rotation, dtype=np.float64)
    if r.shape != (3, 3):
        raise ShapeMismatch(f"expected a (3, 3) rotation, got {r.shape}")
    # cos(pitch) >= 0 because pitch is confined to [-pi/2, pi/2].
    cos_pitch = float(np.hypot(r[2, 1], r[2, 2]))
    pitch = float(np.arctan2(-r[2, 0], cos_pitch))
    if cos_pitch < EPS_GIMBAL:
        sign = 1.0 if -r[2, 0] > 0 else -1.0
        roll = float(np.arctan2(sign * r[0, 1], sign * r[0, 2]))
        return EulerAngles(yaw=0.0, pitch=pitch, roll=_wrap_pi(roll), gimbal_lock=True)
    yaw = float(np.arctan2(r[1, 0], r[0, 0]))
    roll = float(np.arctan2(r[2, 1], r[2, 2]))
    return EulerAngles(yaw=_wrap_pi(yaw), pitch=pitch, roll=_wrap_pi(roll))


def intrinsic_keypoints(kp3d: np.ndarray, pose: PalmPose) -> np.ndarray:
    """Map keypoints into the palm frame: p' = R^T (p - t) / scale.

    The result has the wrist at the origin and unit wrist-to-middle-MCP
    distance, so it is invariant to rigid motion and uniform scaling of
    the input.
    """
    kp3d = _check_kp3d(kp3d)
    return (kp3d - pose.translation) @ pose.rotation / pose.scale


def _all_angles(kp3d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Finger curl and pair spread angles for one skeleton.

    A finger's curl is the largest angle between its wrist->base segment
    and any of its three distal segments: 0 when straight, toward pi for
    a full curl. A pair's spread is the unsigned angle between the two
    proximal phalanges (base joint -> first intermediate joint). Raises
    ZeroSegment on any segment shorter than EPS_SEGMENT_M.
    """
    chains = kp3d[_CHAIN_TABLE]              # (5, 5, 3)
    seg = np.diff(chains, axis=1)            # (5, 4, 3)
    norms = np.linalg.norm(seg, axis=2)      # (5, 4)
    if np.any(norms < EPS_SEGMENT_M):
        raise ZeroSegment(f"segment norm below {EPS_SEGMENT_M:.0e} m")
    unit = seg / norms[:, :, None]
    cos_f = np.einsum("fj,fkj->fk", unit[:, 0], unit[:, 1:])
    fingers = np.arccos(np.clip(cos_f, -1.0, 1.0)).max(axis=1)
    prox = unit[:, 1]                        # (5, 3) proximal phalanx directions
    cos_p = np.einsum("pj,pj->p", prox[:-1], prox[1:])
    pairs = np.arccos(np.clip(cos_p, -1.0, 1.0))
    return fingers, pairs


_CHAIN_TABLE = np.array([list(CHAIN_INDICES[f]) for f in Finger])


def feature_vector(kp3d: np.ndarray, handedness: str) -> FeatureVector:
    """Full 12-value descriptor for one skeleton.

    Euler angles come from the palm frame; finger and pair angles are
    computed on the intrinsic keypoints, making them invariant to rigid
    motion and uniform scale while the Euler block keeps the extrinsic
    orientation.
    """
    kp3d = _check_kp3d(kp3d)
    pose = palm_pose(kp3d, handedness)
    euler = euler_from_rotation(pose.rotation)
    intrinsic = intrinsic_keypoints(kp3d, pose)
    fingers, pairs = _all_angles(intrinsic)
    return FeatureVector(euler=euler, finger_angles=fingers, pair_angles=pairs)
