"""Gesture vocabulary shared across classifiers, generator, and CLI."""

from __future__ import annotations

from .errors import UnknownLabel

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

# Everything the synthetic generator can pose. Gestures outside the positive
# six act as realistic negatives, several by design near-misses of a target
# (IndexMiddlePointingUp* = Victory without the spread, Loser = PointingUp
# with an open thumb, CallMe = ThumbUp with an extended pinky, Four =
# OpenPalm with a folded thumb, VulcanSalute = OpenPalm with paired fingers).
ALL_GESTURES = (
    "OpenPalm",
    "Victory",
    "ClosedFist",
    "PointingUp",
    "ThumbUp",
    "ThumbDown",
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

NEGATIVE_GESTURES = tuple(g for g in ALL_GESTURES if g not in POSITIVE_GESTURES)


def check_gesture(name: str) -> str:
    """Validate a generator label; raises UnknownLabel otherwise."""
    if name not in ALL_GESTURES:
        raise UnknownLabel(f"unknown gesture {name!r}")
    return name


def check_label(label, where: str) -> str:
    """Validate a dataset or prediction label: a generator gesture or
    Negative. Raises UnknownLabel otherwise."""
    if label != NEGATIVE_LABEL and label not in ALL_GESTURES:
        raise UnknownLabel(f"{where}: unknown label {label!r}")
    return label


def to_class(label: str) -> str:
    """Collapse any generator label onto the classifier vocabulary."""
    return label if label in POSITIVE_GESTURES else NEGATIVE_LABEL
