"""Gesture vocabulary shared across classifiers, generator, and CLI."""

from __future__ import annotations

from .errors import UnknownLabel
from .skeleton import check_name

# The six gestures the classifiers target.
POSITIVE_GESTURES = (
    "OpenPalm",
    "Victory",
    "ClosedFist",
    "PointingUp",
    "ThumbUp",
    "ThumbDown",
)

NEGATIVE_LABEL = "Negative"

# Classifier output vocabulary: the six targets plus the reject class.
CLASSES = POSITIVE_GESTURES + (NEGATIVE_LABEL,)

# The generator's other gestures, which act as realistic negatives, several
# by design near-misses of a target (IndexMiddlePointingUp* = Victory without
# the spread, Loser = PointingUp with an open thumb, CallMe = ThumbUp with an
# extended pinky, Four = OpenPalm with a folded thumb, VulcanSalute = OpenPalm
# with paired fingers).
NEGATIVE_GESTURES = (
    "OK",
    "CallMe",
    "IndexMiddlePointingUp",
    "Three",
    "Four",
    "ILoveYou",
    "FingerHeart",
    "HandHeart",
    "IndexMiddlePointingUpWithClosedThumb",
    "IndexMiddlePointingUpWithOpenThumb",
    "IndexPointingToCamera",
    "Loser",
    "PinchedFingers",
    "VulcanSalute",
    "SignOfTheHorns",
)

# Everything the synthetic generator can pose.
ALL_GESTURES = POSITIVE_GESTURES + NEGATIVE_GESTURES

ALL_LABELS = ALL_GESTURES + (NEGATIVE_LABEL,)


def check_gesture(name) -> str:
    """``name`` if it is a generator gesture; else raises UnknownLabel."""
    return check_name(name, ALL_GESTURES, "gesture", error=UnknownLabel)


def check_label(label) -> str:
    """``label`` if it is a generator gesture or Negative; else raises UnknownLabel."""
    return check_name(label, ALL_LABELS, "label", error=UnknownLabel)


def to_class(label: str) -> str:
    """Collapse any generator label onto the classifier vocabulary."""
    return label if label in POSITIVE_GESTURES else NEGATIVE_LABEL
