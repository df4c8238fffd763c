"""Screen-space hand alignment: crop center, rotation, and scale.

The rotation estimate deliberately avoids the obvious wrist-to-middle-knuckle
vector, which collapses under foreshortening when the fingers point at the
camera. Instead it sums two roughly perpendicular knuckle vectors, middle
MCP -> wrist and index MCP -> pinky MCP; at least one of them keeps most of
its length under any plausible view, so the sum stays usable.

Angles follow atan2(v.x, -v.y) in the y-down pixel frame: 0 means the vector
already points at the image top, and rotating the image by -angle about the
crop center aligns it. Results lie in (-pi, pi].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRotation, DegenerateScale, MalformedFrame, finite_at_least
from .skeleton import INDEX_MCP, MIDDLE_MCP, NUM_KEYPOINTS, PINKY_MCP, WRIST, float_array

# Knuckles defining the crop center.
CENTER_KEYPOINTS = (INDEX_MCP, MIDDLE_MCP, PINKY_MCP)

# Knuckles eligible for the scale estimate: every joint except wrist and tips.
SCALE_KEYPOINTS = (1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15, 17, 18, 19)
_SCALE_AT = np.array(SCALE_KEYPOINTS)

EPS_ROTATION_PX = 1e-6
EPS_SCALE_PX = 1e-6


@dataclass(frozen=True)
class AlignmentFrame:
    """Crop parameters derived from one 2D skeleton."""

    center: np.ndarray      # (2,) pixels
    rotation_rad: float     # (-pi, pi], 0 = already upright
    scale_px: float         # > 0


def rotation_vector(kp2d: np.ndarray) -> np.ndarray:
    """Sum of the middle-MCP->wrist and index-MCP->pinky-MCP vectors."""
    return _rotation_vector(float_array(kp2d, "kp2d", (NUM_KEYPOINTS, 2)))


def finite_pixels(kp2d) -> np.ndarray:
    """kp2d as a float64 (21, 2) array; MalformedFrame unless every
    coordinate is finite."""
    kp2d = float_array(kp2d, "kp2d", (NUM_KEYPOINTS, 2))
    if not np.isfinite(kp2d).all():
        raise MalformedFrame("non-finite pixel coordinates")
    return kp2d


def compute_alignment(kp2d: np.ndarray) -> AlignmentFrame:
    """Center, rotation, and scale for one skeleton, checked once.

    The center is the mean of the index, middle, and pinky base knuckles;
    the scale is its distance to the farthest non-tip knuckle, so a curled
    fist and an open palm yield comparable crops. Raises MalformedFrame on
    a non-finite pixel, DegenerateRotation when the rotation vector is
    shorter than EPS_ROTATION_PX (its two components cancelled out), and
    DegenerateScale below EPS_SCALE_PX; each also when that measure
    overflows.
    """
    kp2d = finite_pixels(kp2d)
    center = palm_center(kp2d)
    return AlignmentFrame(center=center,
                          rotation_rad=_angle(_rotation_vector(kp2d)),
                          scale_px=_scale(kp2d, center))


def palm_center(points: np.ndarray) -> np.ndarray:
    """The mean of the CENTER_KEYPOINTS rows of a float64 (21, 2) or (21, 3)
    array: the crop center of pixels, the palm center of metric points."""
    # np.mean's own operations: the sum, then division by the count
    center = points.take(CENTER_KEYPOINTS, axis=0)
    return center.sum(axis=0) / len(center)


# The rules themselves, on an already checked (21, 2) array.

def _rotation_vector(kp2d: np.ndarray) -> np.ndarray:
    return (kp2d[WRIST] - kp2d[MIDDLE_MCP]) + (kp2d[PINKY_MCP] - kp2d[INDEX_MCP])


def _angle(v: np.ndarray) -> float:
    finite_at_least(float(np.hypot(v[0], v[1])), EPS_ROTATION_PX, DegenerateRotation,
                    "rotation vector norm {:.3e} px")
    angle = float(np.arctan2(v[0], -v[1]))
    if angle <= -np.pi:
        angle += 2.0 * np.pi
    return angle


def _scale(kp2d: np.ndarray, center: np.ndarray) -> float:
    # np.linalg.norm's own operations along axis 1
    v = kp2d.take(_SCALE_AT, axis=0) - center
    d = np.sqrt(np.add.reduce(v * v, axis=1))
    return finite_at_least(float(d.max()), EPS_SCALE_PX, DegenerateScale,
                           "knuckle spread {:.3e} px")
