"""Rule-based gesture classifier over discretized pose features.

Finger curl angles discretize into FullyStraight / FullyBent / Neither and
pair spread angles into Crossed / Apart / Neither, with thresholds that are
inclusive toward the extreme state (angle == straight_max still counts as
FullyStraight). Gestures are boolean expressions over those states plus
optional Euler-angle bands; the classifier returns the matching definition
with the best (numerically smallest) priority, or Negative.

Config files carry all angles in degrees and are converted to radians at
load time; the shipped rules are DEFAULT_CONFIG_JSON, a document of the
same form. Orientation bands ("up" is the -y pixel direction) are expressed
through the palm-frame Euler angles: with the Z-Y-X convention used here,
the in-plane pointing direction lives in yaw and palm facing in roll. Band
centers in the default config were computed from the default hand model's
palm geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .errors import MalformedConfig, UnknownReference, ValidationError
from .features import EulerAngles, FeatureVector, FINGER_PAIRS
from .labels import NEGATIVE_LABEL
from .skeleton import Finger, float_array, is_int, is_number


class FingerState(Enum):
    FULLY_STRAIGHT = "FullyStraight"
    FULLY_BENT = "FullyBent"
    NEITHER = "Neither"


class PairState(Enum):
    CROSSED = "Crossed"
    APART = "Apart"
    NEITHER = "Neither"


FINGER_NAMES = {f.name.capitalize(): f for f in Finger}
PAIR_NAMES = {
    "ThumbIndex": 0,
    "IndexMiddle": 1,
    "MiddleRing": 2,
    "RingPinky": 3,
}
EULER_AXES = ("yaw", "pitch", "roll")


def _per(value, n: int, what: str) -> np.ndarray:
    """Broadcast a scalar threshold or validate a per-entry list."""
    arr = np.atleast_1d(np.asarray(value, dtype=np.float64))
    if arr.shape == (1,):
        arr = np.full(n, arr[0])
    if arr.shape != (n,):
        raise ValidationError(f"{what} must be a scalar or length-{n} list")
    return arr


@dataclass(frozen=True)
class StateThresholds:
    """Discretization thresholds in radians, per finger and per pair."""

    straight_max: np.ndarray  # (5,)
    bent_min: np.ndarray      # (5,)
    crossed_max: np.ndarray   # (4,)
    apart_min: np.ndarray     # (4,)

    def __post_init__(self):
        object.__setattr__(self, "straight_max", _per(self.straight_max, 5, "straight_max"))
        object.__setattr__(self, "bent_min", _per(self.bent_min, 5, "bent_min"))
        object.__setattr__(self, "crossed_max", _per(self.crossed_max, 4, "crossed_max"))
        object.__setattr__(self, "apart_min", _per(self.apart_min, 4, "apart_min"))
        if not np.all((0.0 <= self.straight_max) & (self.straight_max < self.bent_min)
                      & (self.bent_min <= np.pi)):
            raise ValidationError("need 0 <= straight_max < bent_min <= pi per finger")
        if not np.all((0.0 <= self.crossed_max) & (self.crossed_max < self.apart_min)
                      & (self.apart_min <= np.pi)):
            raise ValidationError("need 0 <= crossed_max < apart_min <= pi per pair")


def discretize_finger(angle: float, finger: Finger, th: StateThresholds) -> FingerState:
    if angle <= th.straight_max[finger]:
        return FingerState.FULLY_STRAIGHT
    if angle >= th.bent_min[finger]:
        return FingerState.FULLY_BENT
    return FingerState.NEITHER


def discretize_pair(angle: float, pair_index: int, th: StateThresholds) -> PairState:
    if angle <= th.crossed_max[pair_index]:
        return PairState.CROSSED
    if angle >= th.apart_min[pair_index]:
        return PairState.APART
    return PairState.NEITHER


# --- expression tree ---

class Expr:
    def evaluate(self, fingers, pairs, euler: EulerAngles) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class All(Expr):
    args: tuple

    def evaluate(self, fingers, pairs, euler):
        return all(a.evaluate(fingers, pairs, euler) for a in self.args)


@dataclass(frozen=True)
class Any_(Expr):
    args: tuple

    def evaluate(self, fingers, pairs, euler):
        return any(a.evaluate(fingers, pairs, euler) for a in self.args)


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr

    def evaluate(self, fingers, pairs, euler):
        return not self.arg.evaluate(fingers, pairs, euler)


@dataclass(frozen=True)
class FingerIs(Expr):
    finger: Finger
    state: FingerState

    def evaluate(self, fingers, pairs, euler):
        return fingers[self.finger] is self.state


@dataclass(frozen=True)
class PairIs(Expr):
    pair: int  # index into FINGER_PAIRS
    state: PairState

    def evaluate(self, fingers, pairs, euler):
        return pairs[self.pair] is self.state


@dataclass(frozen=True)
class EulerIn(Expr):
    """Half-open wrapped band [lo, hi) on the circle (-pi, pi].

    With lo > hi the band wraps through pi: EulerIn(roll, 170deg, -170deg)
    accepts roll = 180deg.
    """

    axis: str
    lo: float  # radians
    hi: float

    def evaluate(self, fingers, pairs, euler):
        a = getattr(euler, self.axis)
        if self.lo <= self.hi:
            return self.lo <= a < self.hi
        return a >= self.lo or a < self.hi


# node kind (its first key) -> the exact keys a node of that kind carries
NODE_KEYS = {
    "all": ("all",),
    "any": ("any",),
    "not": ("not",),
    "finger": ("finger", "state"),
    "pair": ("pair", "state"),
    "euler": ("euler", "lo_deg", "hi_deg"),
}


def _exact_keys(obj: dict, keys, what: str) -> None:
    """Raise MalformedConfig unless ``obj`` carries exactly ``keys``."""
    if set(obj) != set(keys):
        raise MalformedConfig(f"{what} takes exactly the keys {list(keys)}, got {sorted(obj)}")


def expr_from_json(obj: dict) -> Expr:
    """Parse one expression node.

    Raises MalformedConfig on a node that is not an object, carries keys
    other than exactly its kind's NODE_KEYS, or has a band edge that is not
    a number; UnknownReference on bad names.
    """
    kind = next((k for k in NODE_KEYS if k in obj), None) if isinstance(obj, dict) else None
    if kind is None:
        raise MalformedConfig(f"bad expression node: {obj!r}")
    _exact_keys(obj, NODE_KEYS[kind], f"{kind!r} node")
    if kind == "all":
        return All(tuple(expr_from_json(a) for a in obj["all"]))
    if kind == "any":
        return Any_(tuple(expr_from_json(a) for a in obj["any"]))
    if kind == "not":
        return Not(expr_from_json(obj["not"]))
    if kind == "finger":
        name, state = obj["finger"], obj["state"]
        if name not in FINGER_NAMES:
            raise UnknownReference(f"unknown finger {name!r}")
        try:
            return FingerIs(FINGER_NAMES[name], FingerState(state))
        except ValueError:
            raise UnknownReference(f"unknown finger state {state!r}") from None
    if kind == "pair":
        name, state = obj["pair"], obj["state"]
        if name not in PAIR_NAMES:
            raise UnknownReference(f"unknown pair {name!r}")
        try:
            return PairIs(PAIR_NAMES[name], PairState(state))
        except ValueError:
            raise UnknownReference(f"unknown pair state {state!r}") from None
    axis, lo, hi = obj["euler"], obj["lo_deg"], obj["hi_deg"]
    if axis not in EULER_AXES:
        raise UnknownReference(f"unknown euler axis {axis!r}")
    if not (is_number(lo) and is_number(hi)):
        raise MalformedConfig(f"lo_deg and hi_deg must be numbers, got {lo!r} and {hi!r}")
    return EulerIn(axis, float(np.radians(lo)), float(np.radians(hi)))


@dataclass(frozen=True)
class GestureDefinition:
    name: str
    priority: int  # smaller wins
    expr: Expr


@dataclass(frozen=True)
class GestureConfig:
    thresholds: StateThresholds
    definitions: tuple = field(default_factory=tuple)

    def __post_init__(self):
        priorities = [d.priority for d in self.definitions]
        if len(set(priorities)) != len(priorities):
            raise ValidationError(f"gesture priorities must be unique, got {priorities}")
        names = [d.name for d in self.definitions]
        if len(set(names)) != len(names):
            raise ValidationError(f"gesture names must be unique, got {names}")
        ordered = tuple(sorted(self.definitions, key=lambda d: d.priority))
        object.__setattr__(self, "definitions", ordered)


def classify_heuristic(fv: FeatureVector, config: GestureConfig) -> str:
    """Best-priority matching gesture name, or Negative when none match."""
    th = config.thresholds
    fingers = {f: discretize_finger(float(fv.finger_angles[f]), f, th) for f in Finger}
    pairs = {i: discretize_pair(float(fv.pair_angles[i]), i, th) for i in range(len(FINGER_PAIRS))}
    for definition in config.definitions:  # already sorted by priority
        if definition.expr.evaluate(fingers, pairs, fv.euler):
            return definition.name
    return NEGATIVE_LABEL


# --- default configuration ---

def _straight(finger: str) -> dict:
    return {"finger": finger, "state": "FullyStraight"}


def _bent(finger: str) -> dict:
    return {"finger": finger, "state": "FullyBent"}


def _roll_facing() -> dict:
    """Palm-facing-camera band: |roll| >= 135 deg, wrapped through +/-180."""
    return {"euler": "roll", "lo_deg": 135.0, "hi_deg": -135.0}


GESTURES_SCHEMA = "gestures/1"

# The shipped gesture config as a gestures/1 document: the exact form of a
# --gestures file or a pipeline classifier_ref, with angles in degrees.
DEFAULT_CONFIG_JSON: dict = {
    "schema": GESTURES_SCHEMA,
    "thresholds": {
        "straight_max_deg": [35.0, 30.0, 30.0, 30.0, 30.0],
        "bent_min_deg": [70.0, 90.0, 90.0, 90.0, 90.0],
        "crossed_max_deg": [5.0, 5.0, 5.0, 5.0],
        "apart_min_deg": [15.0, 15.0, 15.0, 15.0],
    },
    "gestures": [
        {
            "name": "OpenPalm",
            "priority": 1,
            # The NOT-Crossed terms reject salutes with paired touching fingers
            # while leaving a naturally spread palm untouched.
            "expr": {"all": [
                _straight("Thumb"), _straight("Index"), _straight("Middle"),
                _straight("Ring"), _straight("Pinky"),
                {"not": {"pair": "IndexMiddle", "state": "Crossed"}},
                {"not": {"pair": "RingPinky", "state": "Crossed"}},
            ]},
        },
        {
            "name": "Victory",
            "priority": 2,
            "expr": {"all": [
                _straight("Index"), _straight("Middle"),
                {"pair": "IndexMiddle", "state": "Apart"},
                _bent("Ring"), _bent("Pinky"),
            ]},
        },
        {
            "name": "ClosedFist",
            "priority": 3,
            "expr": {"all": [
                _bent("Thumb"), _bent("Index"), _bent("Middle"),
                _bent("Ring"), _bent("Pinky"),
            ]},
        },
        {
            "name": "PointingUp",
            "priority": 4,
            # NOT-straight thumb separates this from an L-shape held upright.
            "expr": {"all": [
                _straight("Index"), _bent("Middle"), _bent("Ring"), _bent("Pinky"),
                {"not": _straight("Thumb")},
                {"euler": "yaw", "lo_deg": -45.0, "hi_deg": 45.0},
                _roll_facing(),
            ]},
        },
        {
            "name": "ThumbUp",
            "priority": 5,
            "expr": {"all": [
                _straight("Thumb"), _bent("Index"), _bent("Middle"),
                _bent("Ring"), _bent("Pinky"),
                {"euler": "yaw", "lo_deg": -108.0, "hi_deg": -18.0},
                _roll_facing(),
            ]},
        },
        {
            "name": "ThumbDown",
            "priority": 6,
            "expr": {"all": [
                _straight("Thumb"), _bent("Index"), _bent("Middle"),
                _bent("Ring"), _bent("Pinky"),
                {"euler": "yaw", "lo_deg": 72.0, "hi_deg": 162.0},
                _roll_facing(),
            ]},
        },
    ],
}


def default_config() -> GestureConfig:
    """The six shipped gesture definitions with default thresholds."""
    return config_from_dict(DEFAULT_CONFIG_JSON)


def config_from_dict(obj: dict) -> GestureConfig:
    """A gestures/1 document as a GestureConfig, degrees to radians.

    The document, its thresholds and each gesture entry must carry exactly
    their own keys, so a misspelt key is rejected, not ignored.
    """
    if not isinstance(obj, dict) or obj.get("schema") != GESTURES_SCHEMA:
        raise MalformedConfig(f"expected schema {GESTURES_SCHEMA!r}")
    try:
        _exact_keys(obj, ("schema", "thresholds", "gestures"), "gesture config")
        th, rad = obj["thresholds"], np.pi / 180.0
        names = [f.name for f in fields(StateThresholds)]
        _exact_keys(th, [f"{name}_deg" for name in names], "thresholds object")
        thresholds = StateThresholds(**{
            name: float_array(th[f"{name}_deg"], f"{name}_deg") * rad for name in names})
        definitions = []
        for g in obj["gestures"]:
            _exact_keys(g, ("name", "priority", "expr"), "gesture entry")
            if not is_int(g["priority"]):
                raise TypeError(f"priority must be an integer, got {g['priority']!r}")
            if not isinstance(g["name"], str):
                raise TypeError(f"name must be a string, got {g['name']!r}")
            definitions.append(GestureDefinition(g["name"], g["priority"],
                                                 expr_from_json(g["expr"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedConfig(f"bad gesture config: {exc!r}") from exc
    return GestureConfig(thresholds=thresholds, definitions=tuple(definitions))

