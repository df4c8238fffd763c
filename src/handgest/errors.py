"""Exception hierarchy for the toolkit.

Two branches matter for the CLI: ValidationError maps to exit code 2
(bad inputs, schemas, shapes), NumericalError to exit code 3 (degenerate
geometry, diverged solves). Everything derives from HandgestError.
"""

import math


def finite_at_least(value: float, floor: float, error: type, what: str) -> float:
    """``value`` if floor <= value < inf (NaN fails too); else ``error`` says
    ``what``, which formats the value, is below ``floor`` or not finite."""
    if not floor <= value < math.inf:
        raise error(f"{what.format(value)} "
                    + (f"below {floor:.0e}" if value < floor else "is not finite"))
    return value


class HandgestError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(HandgestError):
    """Malformed or inconsistent input data or configuration."""


class NumericalError(HandgestError):
    """Numerically degenerate input or a failed numerical procedure."""


# --- validation ---

class MalformedFrame(ValidationError):
    """Frame violates the I/O schema (counts, finiteness, ranges)."""


class MalformedConfig(ValidationError):
    """Config or model file violates its schema (keys, types, values)."""


class Missing3D(ValidationError):
    """Operation needs metric 3D keypoints but the skeleton has none."""


class ShapeMismatch(ValidationError):
    """Array argument has the wrong shape."""


class EmptyInput(ValidationError):
    """Empty sequence where at least one element is required."""


class EmptyDataset(ValidationError):
    """Training requires a non-empty dataset."""


class SingleClassDataset(ValidationError):
    """Training requires at least two distinct labels."""


class EmptyNegatives(ValidationError):
    """Calibration requires at least one negative example."""


class NonMonotonicTimestamp(ValidationError):
    """Stream timestamps must strictly increase."""


class UnknownReference(ValidationError):
    """Gesture expression references an unknown finger, pair, or axis."""


class UnknownLabel(ValidationError):
    """Label outside the gesture vocabulary."""


class LengthMismatch(ValidationError):
    """Paired sequences differ in length."""


# --- numerical ---

class DegenerateRotation(NumericalError):
    """Screen-space rotation vector too short to define an angle."""


class DegenerateScale(NumericalError):
    """Knuckle spread too small to define a crop scale."""


class DegeneratePalm(NumericalError):
    """Wrist and base knuckles nearly collinear; palm frame undefined."""


class ZeroSegment(NumericalError):
    """Zero-length bone segment, or one too long to measure; angle undefined."""


class BehindCamera(NumericalError):
    """Point at or behind the camera plane (z <= 0) cannot project."""


class DivergedFit(NumericalError):
    """Pose fit ended above the acceptable reprojection ceiling."""
