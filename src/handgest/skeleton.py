"""Hand skeleton types, topology, and frame I/O.

Keypoint layout (21 points):

    0        wrist
    1-4      thumb:  CMC, MCP, IP, tip
    5-8      index:  MCP, PIP, DIP, tip
    9-12     middle: MCP, PIP, DIP, tip
    13-16    ring:   MCP, PIP, DIP, tip
    17-20    pinky:  MCP, PIP, DIP, tip

Coordinate conventions, used consistently across the toolkit:

* kp2d is in pixels, x right, y down, origin at the top-left image corner.
* kp3d is metric (meters) in the camera frame: x right, y down, z forward
  along the optical axis (right-handed). "Up" in camera space is -y.

Frames stream as JSONL, one object per line:

    {"t_us": int, "w": int, "h": int,
     "hand": null | {"handedness": "Left"|"Right", "score": float,
                     "kp2d": [[x, y] * 21], "kp3d": [[x, y, z] * 21] | null}}

Every file the package opens, frames or config or model, goes through
read_json, read_jsonl or open_output. They map an OSError to
ValidationError and undecodable bytes (invalid UTF-8 or JSON, a JSONL line
that is not an object) to MalformedFrame naming PATH:LINE, so the CLI
exits 2 with one line instead of a traceback. decode_config builds the
flat config dataclasses from JSON with type checks.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from enum import IntEnum
from typing import Iterator, TextIO

import numpy as np

from .errors import MalformedFrame, Missing3D, ValidationError

NUM_KEYPOINTS = 21

WRIST = 0


class Finger(IntEnum):
    THUMB = 0
    INDEX = 1
    MIDDLE = 2
    RING = 3
    PINKY = 4


# Per-finger keypoint indices, base joint to tip.
FINGER_KEYPOINTS = {
    Finger.THUMB: (1, 2, 3, 4),
    Finger.INDEX: (5, 6, 7, 8),
    Finger.MIDDLE: (9, 10, 11, 12),
    Finger.RING: (13, 14, 15, 16),
    Finger.PINKY: (17, 18, 19, 20),
}

# Chain used for feature angles: wrist, base, two intermediates, tip.
CHAIN_INDICES = {f: (WRIST,) + FINGER_KEYPOINTS[f] for f in Finger}

THUMB_CMC = 1
INDEX_MCP = 5
MIDDLE_MCP = 9
RING_MCP = 13
PINKY_MCP = 17

# Parent of each non-wrist keypoint; defines the 20 bones of the hand.
BONE_PARENTS = tuple(
    WRIST if i in (1, 5, 9, 13, 17) else i - 1 for i in range(1, NUM_KEYPOINTS)
)
BONES = tuple((p, i) for i, p in zip(range(1, NUM_KEYPOINTS), BONE_PARENTS))

HANDEDNESS_VALUES = ("Left", "Right")


@dataclass
class HandSkeleton:
    """One detected hand: 2D pixel keypoints plus optional metric 3D."""

    handedness: str
    score: float
    kp2d: np.ndarray            # (21, 2) float64, pixels
    kp3d: np.ndarray | None     # (21, 3) float64, meters, camera frame

    def __post_init__(self):
        self.kp2d = np.asarray(self.kp2d, dtype=np.float64)
        if self.kp3d is not None:
            self.kp3d = np.asarray(self.kp3d, dtype=np.float64)


@dataclass
class HandFrame:
    """One timestamped video frame; hand is None when nothing was seen."""

    t_us: int
    w: int
    h: int
    hand: HandSkeleton | None


def validate_frame(frame: HandFrame) -> HandFrame:
    """Check a frame against the schema; returns the frame unchanged.

    Raises MalformedFrame on a t_us, w or h that is not an integer (a bool
    is not one), bad keypoint counts, non-finite values, non-positive image
    dimensions, out-of-range scores, or an unknown handedness string.
    Validation is idempotent.
    """
    for name in ("t_us", "w", "h"):
        value = getattr(frame, name)
        if not is_int(value):
            raise MalformedFrame(f"{name} must be an integer, got {value!r}")
    if frame.w <= 0 or frame.h <= 0:
        raise MalformedFrame(f"image dimensions must be positive, got {frame.w}x{frame.h}")
    hand = frame.hand
    if hand is None:
        return frame
    if hand.handedness not in HANDEDNESS_VALUES:
        raise MalformedFrame(f"handedness must be one of {HANDEDNESS_VALUES}, got {hand.handedness!r}")
    if not (0.0 <= hand.score <= 1.0):
        raise MalformedFrame(f"score must lie in [0, 1], got {hand.score}")
    kp2d = np.asarray(hand.kp2d, dtype=np.float64)
    if kp2d.shape != (NUM_KEYPOINTS, 2):
        raise MalformedFrame(f"kp2d must have shape (21, 2), got {kp2d.shape}")
    if not np.all(np.isfinite(kp2d)):
        raise MalformedFrame("kp2d contains non-finite values")
    if hand.kp3d is not None:
        kp3d = np.asarray(hand.kp3d, dtype=np.float64)
        if kp3d.shape != (NUM_KEYPOINTS, 3):
            raise MalformedFrame(f"kp3d must have shape (21, 3), got {kp3d.shape}")
        if not np.all(np.isfinite(kp3d)):
            raise MalformedFrame("kp3d contains non-finite values")
    return frame


def finger_chain(skeleton: HandSkeleton, finger: Finger) -> np.ndarray:
    """3D chain [wrist, base, intermediate 1, intermediate 2, tip] for a finger.

    Raises Missing3D when the skeleton carries no metric keypoints.
    """
    if skeleton.kp3d is None:
        raise Missing3D("finger_chain requires kp3d")
    return skeleton.kp3d[list(CHAIN_INDICES[Finger(finger)])]


# --- JSON and JSONL I/O ---

def skeleton_to_dict(hand: HandSkeleton | None) -> dict | None:
    if hand is None:
        return None
    return {
        "handedness": hand.handedness,
        "score": float(hand.score),
        "kp2d": [[float(x), float(y)] for x, y in hand.kp2d],
        "kp3d": None if hand.kp3d is None
        else [[float(x), float(y), float(z)] for x, y, z in hand.kp3d],
    }


def frame_to_dict(frame: HandFrame) -> dict:
    return {
        "t_us": int(frame.t_us),
        "w": int(frame.w),
        "h": int(frame.h),
        "hand": skeleton_to_dict(frame.hand),
    }


def skeleton_from_dict(obj: dict | None) -> HandSkeleton | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise MalformedFrame(f"hand must be an object or null, got {type(obj).__name__}")
    try:
        kp3d = obj.get("kp3d")
        score = obj["score"]
        if not _is_number(score):
            raise MalformedFrame(f"score must be a number, got {score!r}")
        return HandSkeleton(
            handedness=obj["handedness"],
            score=float(score),
            kp2d=np.asarray(obj["kp2d"], dtype=np.float64),
            kp3d=None if kp3d is None else np.asarray(kp3d, dtype=np.float64),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFrame(f"bad hand object: {exc}") from exc


def frame_from_dict(obj: dict) -> HandFrame:
    try:
        frame = HandFrame(
            t_us=obj["t_us"],
            w=obj["w"],
            h=obj["h"],
            hand=skeleton_from_dict(obj["hand"]),
        )
    except (KeyError, TypeError) as exc:
        raise MalformedFrame(f"bad frame object: {exc}") from exc
    return validate_frame(frame)


def read_json(path):
    """The one JSON document in a file."""
    try:
        with open(path, "rb") as fp:
            data = fp.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # invalid UTF-8 or invalid JSON
        if isinstance(exc, UnicodeDecodeError):
            lineno = data.count(b"\n", 0, exc.start) + 1
        else:
            lineno = getattr(exc, "lineno", 1)
        raise MalformedFrame(f"{path}:{lineno}: {exc}") from exc


def read_jsonl(path) -> Iterator[dict]:
    """One JSON object per non-blank line of a file, in order."""
    try:
        with open(path, "rb") as fp:
            for lineno, raw in enumerate(fp, start=1):
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    obj = json.loads(line)
                except ValueError as exc:  # invalid UTF-8 or invalid JSON
                    raise MalformedFrame(f"{path}:{lineno}: {exc}") from exc
                if not isinstance(obj, dict):
                    raise MalformedFrame(f"{path}:{lineno}: expected a JSON object, "
                                         f"got {type(obj).__name__}")
                yield obj
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


@contextmanager
def open_output(path) -> Iterator[TextIO]:
    """Text stream to write: stdout for None or "-", else the file at path."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as fp:
            yield fp
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def is_int(value) -> bool:
    """True for a JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# annotation -> test of a decoded JSON value; "X | Y" takes either
_JSON_KINDS = {
    "int": is_int,
    "float": _is_number,
    "str": lambda v: isinstance(v, str),
    "None": lambda v: v is None,
}


def decode_config(cls, obj, what: str):
    """Build the flat config dataclass ``cls`` from a decoded JSON object.

    The keys are the dataclass fields, plus an ignored "schema" tag; a
    field without a default is required. Each value must match its field's
    annotation, read as a string: "int" takes an integer, "float" any
    number (never a bool), "str" a string, "tuple" a list of numbers as
    long as the default, and "X | Y" either. Lists become tuples.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object")
    known = {f.name: f for f in fields(cls)}
    extra = set(obj) - set(known) - {"schema"}
    if extra:
        raise ValidationError(f"unknown {what} keys: {sorted(extra)}")
    kwargs = {}
    for name, f in known.items():
        if name not in obj:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ValidationError(f"{what} needs {name!r}")
            continue
        value = obj[name]
        if not any(_matches(value, kind.strip(), f.default)
                   for kind in f.type.split("|")):
            raise ValidationError(f"{what}: {name} must be {f.type}, got {value!r}")
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)


def _matches(value, kind: str, default) -> bool:
    if kind == "tuple":
        return (isinstance(value, list) and len(value) == len(default)
                and all(map(_is_number, value)))
    return _JSON_KINDS[kind](value)
