"""Rule-based gesture classifier over one state vector per frame.

A frame's state vector has the 12 entries of features.feature_vector:

    0-2   yaw, pitch, roll in radians
    3-7   the five finger curls as codes: FullyStraight 0, Neither 1, FullyBent 2
    8-11  the four pair spreads as codes: Crossed 0, Neither 1, Apart 2

A code is 1 + (angle >= upper) - (angle <= lower) against the per-entry
thresholds, so a threshold itself counts toward the extreme state (angle ==
straight_max is FullyStraight) and a NaN angle reads Neither. Gestures are
boolean expressions whose every leaf is a half-open band on one entry: a
finger or pair state S is the band [code(S), code(S) + 1), an Euler node
the band [lo, hi) in radians. The classifier returns the matching
definition with the best (numerically smallest) priority, or Negative.

Config files carry all angles in degrees and are converted to radians at
load time; the shipped rules are DEFAULT_CONFIG_JSON, a document of the
same form. Orientation bands ("up" is the -y pixel direction) are expressed
through the palm-frame Euler angles: with the Z-Y-X convention used here,
the in-plane pointing direction lives in yaw and palm facing in roll. Band
centers in the default config were computed from the default hand model's
palm geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import MalformedConfig, UnknownReference, ValidationError
from .features import FEATURE_PARTS, FEATURE_SIZE
from .labels import NEGATIVE_LABEL
from .skeleton import Finger, brief, check_keys, check_number, float_array

# state-vector index of each name a leaf can reference
_ENTRY = range(FEATURE_SIZE)
EULER_AXES = dict(zip(("yaw", "pitch", "roll"), _ENTRY[FEATURE_PARTS["euler"]]))
FINGER_NAMES = dict(zip([f.name.capitalize() for f in Finger], _ENTRY[FEATURE_PARTS["fingers"]]))
PAIR_NAMES = dict(zip(("ThumbIndex", "IndexMiddle", "MiddleRing", "RingPinky"),
                      _ENTRY[FEATURE_PARTS["pairs"]]))
# the finger and pair entries, which state_vector codes
_CODED = slice(FEATURE_PARTS["fingers"].start, FEATURE_PARTS["pairs"].stop)
# state names in code order
FINGER_STATES = ("FullyStraight", "Neither", "FullyBent")
PAIR_STATES = ("Crossed", "Neither", "Apart")


def _per(value, n: int, what: str) -> np.ndarray:
    """Broadcast a scalar or one-entry threshold, or check a per-entry list."""
    arr = float_array(value, what)
    return float_array(np.full(n, arr) if arr.shape in ((), (1,)) else arr, what, (n,))


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
        # the same bounds over the finger and pair entries, for state_vector
        object.__setattr__(self, "lower", np.concatenate((self.straight_max, self.crossed_max)))
        object.__setattr__(self, "upper", np.concatenate((self.bent_min, self.apart_min)))


def state_vector(fv: np.ndarray, th: StateThresholds) -> np.ndarray:
    """The 12-entry state vector, in a copy of fv: Euler angles, then finger and pair codes."""
    state = fv.copy()
    codes = state[_CODED]
    np.subtract(codes >= th.upper, codes <= th.lower, out=codes, dtype=np.float64)
    codes += 1.0
    return state


# --- expression tree ---

class Expr:
    def evaluate(self, state) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class All(Expr):
    args: tuple

    def evaluate(self, state):
        for a in self.args:
            if not a.evaluate(state):
                return False
        return True


@dataclass(frozen=True)
class Any_(Expr):
    args: tuple

    def evaluate(self, state):
        for a in self.args:
            if a.evaluate(state):
                return True
        return False


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr

    def evaluate(self, state):
        return not self.arg.evaluate(state)


@dataclass(frozen=True)
class In(Expr):
    """Half-open band [lo, hi) on state-vector entry ``index``.

    With lo > hi the band wraps through pi: In(2, 170deg, -170deg) accepts
    roll = 180deg. A NaN entry is in no band.
    """

    index: int
    lo: float
    hi: float

    def evaluate(self, state):
        x = state[self.index]
        if self.lo <= self.hi:
            return self.lo <= x < self.hi
        return x >= self.lo or x < self.hi


# node kind (its first key) -> the exact keys a node of that kind carries
NODE_KEYS = {
    "all": frozenset({"all"}),
    "any": frozenset({"any"}),
    "not": frozenset({"not"}),
    "finger": frozenset({"finger", "state"}),
    "pair": frozenset({"pair", "state"}),
    "euler": frozenset({"euler", "lo_deg", "hi_deg"}),
}


def _list(value, what: str) -> list:
    """value, which must be a list."""
    if not isinstance(value, list):
        raise MalformedConfig(f"{what} must be a list, got {brief(value)}")
    return value


def _entry(names: dict, name, what: str) -> int:
    """The state-vector index of a finger, pair or axis name; a list
    cannot even be looked up."""
    if not isinstance(name, str):
        raise MalformedConfig(f"{what} must be a string, got {brief(name)}")
    if name not in names:
        raise UnknownReference(f"unknown {what} {brief(name)}")
    return names[name]


def expr_from_json(obj: dict) -> Expr:
    """Parse one expression node.

    Raises MalformedConfig on a node that is not an object, carries keys
    other than exactly its kind's NODE_KEYS, holds no list under "all" or
    "any", or has a band edge that is not a finite number; UnknownReference
    on bad names.
    """
    kind = next((k for k in NODE_KEYS if k in obj), None) if isinstance(obj, dict) else None
    if kind is None:
        raise MalformedConfig(f"bad expression node: {brief(obj)}")
    check_keys(obj, NODE_KEYS[kind], f"{kind!r} node")
    if kind in ("all", "any"):
        args = tuple(expr_from_json(a) for a in _list(obj[kind], kind))
        return All(args) if kind == "all" else Any_(args)
    if kind == "not":
        return Not(expr_from_json(obj["not"]))
    if kind in ("finger", "pair"):
        names, states = ((FINGER_NAMES, FINGER_STATES) if kind == "finger"
                         else (PAIR_NAMES, PAIR_STATES))
        index, state = _entry(names, obj[kind], kind), obj["state"]
        if state not in states:
            raise UnknownReference(f"unknown {kind} state {brief(state)}")
        code = states.index(state)
        return In(index, code, code + 1)
    index = _entry(EULER_AXES, obj["euler"], "euler axis")
    # math.radians takes an integer past int64, which np.radians does not
    lo, hi = (math.radians(check_number(obj[key], key, -math.inf, ends="()",
                                        error=MalformedConfig))
              for key in ("lo_deg", "hi_deg"))
    return In(index, lo, hi)


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
            raise ValidationError(f"gesture priorities must be unique, got {brief(priorities)}")
        names = [d.name for d in self.definitions]
        if len(set(names)) != len(names):
            raise ValidationError(f"gesture names must be unique, got {brief(names)}")
        ordered = tuple(sorted(self.definitions, key=lambda d: d.priority))
        object.__setattr__(self, "definitions", ordered)


def classify_heuristic(fv: np.ndarray, config: GestureConfig) -> str:
    """Best-priority matching gesture name, or Negative when none match."""
    fv = float_array(fv, "features", (FEATURE_SIZE,))
    state = state_vector(fv, config.thresholds).tolist()
    for definition in config.definitions:  # already sorted by priority
        if definition.expr.evaluate(state):
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
    check_keys(obj, frozenset({"schema", "thresholds", "gestures"}), "gesture config")
    th, rad = obj["thresholds"], np.pi / 180.0
    names = [f.name for f in fields(StateThresholds)]
    check_keys(th, frozenset(f"{name}_deg" for name in names), "thresholds object")
    thresholds = StateThresholds(**{
        name: float_array(th[f"{name}_deg"], f"{name}_deg", error=MalformedConfig) * rad
        for name in names})
    definitions = []
    for g in _list(obj["gestures"], "gestures"):
        check_keys(g, frozenset({"name", "priority", "expr"}), "gesture entry")
        check_number(g["priority"], "priority", -np.inf, integer=True, ends="()",
                     error=MalformedConfig)
        if not isinstance(g["name"], str):
            raise MalformedConfig(f"name must be a string, got {brief(g['name'])}")
        definitions.append(GestureDefinition(g["name"], g["priority"],
                                             expr_from_json(g["expr"])))
    return GestureConfig(thresholds=thresholds, definitions=tuple(definitions))

