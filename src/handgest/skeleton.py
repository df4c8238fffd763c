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

A hand object holds no other keys; kp3d may be left out. frame_to_dict and
frame_from_dict are the whole codec, the hand included. A frame checks
itself when it is made, whether read, generated or lifted: HandFrame and
HandSkeleton raise MalformedFrame on a field outside this schema, but a
caller's keypoints given as strings or bools raise TypeError and a ragged
list ShapeMismatch; frame_from_dict raises MalformedFrame for all three.

Every file the package opens, frames or config or model, goes through
read_json, read_jsonl or open_output, and every JSON file it writes through
write_json or write_jsonl, which use open_output. They map an OSError to
ValidationError and undecodable bytes (invalid UTF-8 or JSON, a JSONL line
that is not an object, JSON nested too deep to parse) to MalformedFrame
naming PATH:LINE (PATH alone for a JSON file nested too deep), so the CLI
exits 2 with one line instead of a traceback. The readers return
``parse`` of the decoded document, or of each row; a HandgestError that
``parse`` raises comes back as the same class led by ``PATH: `` or
``PATH:LINE: ``, so its exit code stays and only this module writes a file
location. decode_config builds the flat config dataclasses from JSON: it
checks the keys and the schema tag, and the dataclass checks the values,
raising MalformedConfig.

float_array is the one conversion of an array argument, whether a decoded
JSON list or a caller's array: every module takes its arrays through it, so
numbers given as strings or bools raise TypeError everywhere instead of
being parsed or cast, and a wrong shape or a ragged list raises
ShapeMismatch with one message; a decoder's ``error=`` replaces both. A
float64 ndarray passes through with only its shape checked.
check_number is the one test of a scalar number, whether a decoded JSON
value (a frame's t_us, w and h, a config field, a gesture's priority) or a
caller's argument (a count, a threshold, an image size), raising the
caller's ValidationError. check_keys is the one test of a decoded object
and its keys, check_list of a decoded list, and check_name of a name from
a fixed set (a handedness, a classifier, a gesture config's finger, pair,
axis or state, a gesture, a label, a document's schema tag): "what must be
one of (...), got ...".
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
from contextlib import contextmanager, suppress
from dataclasses import MISSING, dataclass, fields
from enum import IntEnum
from itertools import chain, pairwise
from stat import S_IMODE, S_ISREG
from typing import Iterator, TextIO

import numpy as np

from .errors import (HandgestError, MalformedConfig, MalformedFrame, ShapeMismatch,
                     ValidationError)

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

INDEX_MCP = FINGER_KEYPOINTS[Finger.INDEX][0]
MIDDLE_MCP = FINGER_KEYPOINTS[Finger.MIDDLE][0]
PINKY_MCP = FINGER_KEYPOINTS[Finger.PINKY][0]

# The 20 bones of the hand, (parent, child) along each chain, thumb first.
BONES = tuple(pair for f in Finger for pair in pairwise(CHAIN_INDICES[f]))

HANDEDNESS_VALUES = ("Left", "Right")
# a frame's other keys pass; a misspelt "kp3D" must not read as a 2D-only hand
FRAME_KEYS = frozenset(("t_us", "w", "h", "hand"))
HAND_KEYS = frozenset(("handedness", "score", "kp2d"))
HAND_OPTIONAL_KEYS = frozenset(("kp3d",))


@dataclass
class HandSkeleton:
    """One detected hand: 2D pixel keypoints plus optional metric 3D."""

    handedness: str
    score: float
    kp2d: np.ndarray            # (21, 2) float64, pixels
    kp3d: np.ndarray | None     # (21, 3) float64, meters, camera frame

    def __post_init__(self):
        check_number(self.score, "score", 0, 1, ends="[]", error=MalformedFrame)
        check_handedness(self.handedness)
        self.kp2d = self._keypoints(self.kp2d, "kp2d", 2)
        if self.kp3d is not None:
            self.kp3d = self._keypoints(self.kp3d, "kp3d", 3)

    @staticmethod
    def _keypoints(value, what: str, dims: int) -> np.ndarray:
        arr = float_array(value, what)
        if arr.shape != (NUM_KEYPOINTS, dims):
            raise MalformedFrame(f"{what} must have shape {(NUM_KEYPOINTS, dims)}, "
                                 f"got {arr.shape}")
        if not np.isfinite(arr).all():
            raise MalformedFrame(f"{what} contains non-finite values")
        return arr


@dataclass
class HandFrame:
    """One timestamped video frame; hand is None when nothing was seen."""

    t_us: int
    w: int
    h: int
    hand: HandSkeleton | None

    def __post_init__(self):
        check_number(self.t_us, "t_us", -math.inf, integer=True, ends="()", error=MalformedFrame)
        check_number(self.w, "w", 1, integer=True, error=MalformedFrame)
        check_number(self.h, "h", 1, integer=True, error=MalformedFrame)


def check_handedness(value) -> str:
    """``value`` if it is "Left" or "Right"; else raises MalformedFrame."""
    return check_name(value, HANDEDNESS_VALUES, "handedness", error=MalformedFrame)


# --- JSON and JSONL I/O ---

def frame_to_dict(frame: HandFrame) -> dict:
    hand = frame.hand
    return {
        "t_us": int(frame.t_us),
        "w": int(frame.w),
        "h": int(frame.h),
        "hand": None if hand is None else {
            "handedness": hand.handedness,
            "score": float(hand.score),
            "kp2d": hand.kp2d.tolist(),
            "kp3d": None if hand.kp3d is None else hand.kp3d.tolist(),
        },
    }


def frame_from_dict(obj: dict) -> HandFrame:
    check_keys(obj, FRAME_KEYS, "frame", None, error=MalformedFrame)
    hand = obj["hand"]
    if hand is not None:
        check_keys(hand, HAND_KEYS, "hand", HAND_OPTIONAL_KEYS, error=MalformedFrame)
        kp3d = hand.get("kp3d")
        hand = HandSkeleton(hand["handedness"], hand["score"],
                            float_array(hand["kp2d"], "kp2d", error=MalformedFrame),
                            None if kp3d is None else
                            float_array(kp3d, "kp3d", error=MalformedFrame))
    return HandFrame(t_us=obj["t_us"], w=obj["w"], h=obj["h"], hand=hand)


def read_json(path, parse):
    """``parse`` of the one JSON document in a file."""
    try:
        with open(path, "rb") as fp:
            data = fp.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # invalid UTF-8 or invalid JSON
        if isinstance(exc, UnicodeDecodeError):
            lineno = data.count(b"\n", 0, exc.start) + 1
        else:
            lineno = getattr(exc, "lineno", 1)
        raise MalformedFrame(f"{path}:{lineno}: {exc}") from exc
    except RecursionError as exc:  # nested deeper than the interpreter's stack
        raise MalformedFrame(f"{path}: {exc}") from exc
    try:
        return parse(obj)
    except HandgestError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def read_jsonl(path, parse) -> Iterator:
    """``parse`` of each JSON object on a non-blank line of a file, in order."""
    try:
        with open(path, "rb") as fp:
            for lineno, raw in enumerate(fp, start=1):
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:  # invalid UTF-8 or JSON, or too deep
                    raise MalformedFrame(f"{path}:{lineno}: {exc}") from exc
                try:
                    if not isinstance(obj, dict):
                        raise MalformedFrame(f"expected a JSON object, got {type(obj).__name__}")
                    item = parse(obj)
                except HandgestError as exc:
                    raise type(exc)(f"{path}:{lineno}: {exc}") from exc
                yield item
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def write_json(path, obj, indent=None) -> None:
    """obj as one JSON document and a newline, through open_output."""
    with open_output(path) as fp:
        fp.write(json.dumps(obj, indent=indent) + "\n")


def write_jsonl(path, rows) -> int:
    """Each row of an iterable as one JSON line, through open_output; returns
    the row count.  Each line is one write call."""
    n = 0
    with open_output(path) as fp:
        for row in rows:
            fp.write(json.dumps(row) + "\n")
            n += 1
    return n


@contextmanager
def open_output(path) -> Iterator[TextIO]:
    """Text stream to write: stdout for None or "-", else the file at path.

    Stdout is flushed before leaving; a reader that closed it early is a
    ValidationError, and fd 1 then points at os.devnull so the
    interpreter's shutdown flush cannot raise again.

    A file is written to a new file beside its target (through any
    symlink) and moved into place when the body returns; a body that raises
    removes it and leaves the target as it was, and ``path`` may name the
    body's own input. The new file gets 0o666 under the umask, as
    open(path, "w") does, or an existing target's permission bits. A
    hard-linked target is not moved onto: the new file's bytes are copied
    into it in place, so every one of its names sees them. A target that is
    not a regular file (a FIFO, a device, /dev/stdout) is written in place
    and never unlinked. An OSError becomes a ValidationError naming
    ``path``.

    The old target is unlinked and the new file renamed onto its name: ext4's
    auto_da_alloc forces a file truncated or renamed over (os.replace) to
    disk, which made each rewrite of a file already on disk wait 40-126 ms
    (a 2-core VM, ext4 root mounted with discard). That has two costs: the
    path is briefly absent between the unlink and the rename, and since
    nothing calls fsync, a crash soon after a write can lose the new data
    that the forced flush would have kept.
    """
    if path is None or path == "-":
        try:
            yield sys.stdout
            sys.stdout.flush()
        except BrokenPipeError as exc:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ValidationError(f"cannot write stdout: {exc}") from exc
        return
    if path == "":  # realpath would name the working directory
        raise ValidationError("cannot write '': No such file or directory")
    try:
        try:
            st = os.stat(path)
        except FileNotFoundError:
            st = None
        if st is not None and not S_ISREG(st.st_mode):
            with open(path, "w", encoding="utf-8") as fp:
                yield fp
            return
        if st is not None and not os.access(path, os.W_OK):
            raise ValidationError(f"cannot write {path}: Permission denied")
        target = os.path.realpath(path)
        head, tail = os.path.split(target)
        new = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
        fp = open(os.open(new, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666),
                  "w", encoding="utf-8")
        try:
            with fp:
                if st is not None:
                    os.fchmod(fp.fileno(), S_IMODE(st.st_mode))
                yield fp
        except BaseException:
            with suppress(OSError):
                os.unlink(new)
            raise
        if st is not None and st.st_nlink > 1:
            try:
                shutil.copyfile(new, target)
            finally:
                os.unlink(new)
            return
        with suppress(FileNotFoundError):
            os.unlink(target)
        os.rename(new, target)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


_FLOAT64 = np.dtype(np.float64)
_BOOLS = frozenset((bool, np.bool_, np.dtype(bool)))  # a bool entry's type or dtype


def float_array(value, what: str, shape=None, *, error=None) -> np.ndarray:
    """``value`` as a float64 array, of shape ``shape`` when one is given.

    A float64 ndarray is returned as it is, so the per-frame callers pay for
    the shape test only. Anything else is converted once and its dtype kind
    checked: a string or null anywhere, or bools throughout, leave a dtype
    that is not int or float, which raises TypeError instead of being parsed
    or cast. numpy promotes a bool mixed with numbers in a list to a number,
    so a list's entries are also checked for bool, level by level, where an
    ndarray entry gives its dtype rather than its elements. An integer past
    uint64 in a list leaves an object array, read as float64 when it holds
    numbers alone (one past a float raises check_number's ValidationError).
    A ragged list or a wrong shape raises ShapeMismatch; ``error`` replaces all.
    """
    if type(value) is np.ndarray and value.dtype is _FLOAT64:
        arr = value
    else:
        try:
            arr = np.asarray(value)
        except ValueError:  # numpy's words for a ragged list
            raise (error or ShapeMismatch)(f"{what} must be a rectangular array, "
                                           f"got a ragged list") from None
        # a list's integer past uint64 is read as check_number reads a scalar,
        # and one past a float (10**400) gets its message; a caller's object
        # array stays object
        if arr.dtype.kind == "O" and not isinstance(value, np.ndarray) and all(
                isinstance(x, _NUMBERS) and not isinstance(x, bool) for x in arr.flat):
            try:
                arr = arr.astype(np.float64)
            except OverflowError:
                for x in arr.flat:
                    check_number(x, what, -math.inf, ends="()", error=error or ValidationError)
        if arr.dtype.kind not in "iuf":
            raise (error or TypeError)(f"{what} must hold numbers, got dtype {arr.dtype}")
        if arr.ndim and not isinstance(value, np.ndarray):
            entries, kinds = value, set()
            for level in range(arr.ndim):
                entries = list(chain.from_iterable(entries)) if level else entries
                kinds.update(map(type, entries))
                if np.ndarray in kinds:  # its dtype stands for its elements
                    kinds.update(x.dtype for x in entries if type(x) is np.ndarray)
                    entries = [x for x in entries if type(x) is not np.ndarray]
            if not _BOOLS.isdisjoint(kinds):
                raise (error or TypeError)(f"{what} must hold numbers, got a bool among them")
        arr = np.asarray(arr, dtype=np.float64)
    if shape is not None and arr.shape != shape:
        raise (error or ShapeMismatch)(f"{what} must have shape {shape}, got {arr.shape}")
    return arr


_INTEGERS = (int, np.integer)
_NUMBERS = (int, float, np.integer, np.floating)


def check_number(value, what: str, lo, hi=math.inf, *, integer=False, ends="[)",
                 error=ValidationError):
    """``value``, unchanged, if it is a number (an integer if ``integer``) in
    the interval from ``lo`` to ``hi`` whose ``ends`` are "[" or "(" and "]"
    or ")". Python and numpy ints and floats are numbers; bools (np.bool_
    too) and strings are not. NaN and an integer no float can hold (10**400)
    lie outside every interval. Else raises ``error``: "seed must be an
    integer in [0, inf), got -1", or "tau must be a number, got '0.5'"."""
    interval = ""
    if isinstance(value, _INTEGERS if integer else _NUMBERS) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.nan
        if (lo < x or ends[0] == "[" and lo == x) and (x < hi or ends[1] == "]" and x == hi):
            return value
        interval = f" in {ends[0]}{lo:g}, {hi:g}{ends[1]}"
    kind = "an integer" if integer else "a number"
    raise error(f"{what} must be {kind}{interval}, got {brief(value)}")


def brief(value) -> str:
    """repr(value) for an error message, kept short: an integer of more than
    20 digits shows its first 8 and its digit count, and any other repr over
    80 characters its first 60 and its length. An input file can hold a
    10**400 or a megabyte string; the message quoting it stays one short line.
    """
    text = repr(value)
    digits = text.lstrip("-")
    if isinstance(value, int) and len(digits) > 20:
        return f"{'-' if value < 0 else ''}{digits[:8]}...({len(digits)} digits)"
    return text if len(text) <= 80 else f"{text[:60]}...({len(text)} characters)"


def check_name(value, names, what: str, *, error=ValidationError) -> str:
    """``value``, unchanged, if it is a string in ``names``; else raises
    ``error``: "handedness must be one of ('Left', 'Right'), got 'right'".
    The string test comes first, so a list or dict is never hashed."""
    if isinstance(value, str) and value in names:
        return value
    raise error(f"{what} must be one of {tuple(names)}, got {brief(value)}")


def check_list(value, what: str) -> list:
    """``value`` if it is a list; else MalformedConfig "all must be a list, got 5"."""
    if isinstance(value, list):
        return value
    raise MalformedConfig(f"{what} must be a list, got {brief(value)}")


def check_keys(obj, required, what: str, optional=frozenset(), *, error=MalformedConfig):
    """``obj`` if it is a dict with every key of the frozenset ``required``
    and none outside ``required`` and ``optional`` (None: any). Else raises
    ``error``: "hand must be an object, got 5", "unknown hand keys: ['kp3D']"
    or "hand needs 'kp2d'"; unknown keys come first, so a misspelt key names
    itself."""
    if not isinstance(obj, dict):
        raise error(f"{what} must be an object, got {brief(obj)}")
    if obj.keys() >= required and (optional is None or obj.keys() <= required | optional):
        return obj
    extra = () if optional is None else obj.keys() - required - optional
    if extra:
        raise error(f"unknown {what} keys: {brief(sorted(extra))}")
    raise error(f"{what} needs {min(required - obj.keys())!r}")


def decode_config(cls, obj, what: str, *, tag_required=False):
    """Build the flat config dataclass ``cls`` from a decoded JSON object.

    The keys are the dataclass fields, plus a "schema" tag that must be
    ``cls.SCHEMA``; the tag may be left out unless ``tag_required``, and a
    field without a default is required. The values go to ``cls`` as they
    are, so its __post_init__ is their one check; a TypeError or
    ValidationError it raises comes back as MalformedConfig with the same
    text.
    """
    known = fields(cls)
    check_keys(obj, frozenset(f.name for f in known
                              if f.default is MISSING and f.default_factory is MISSING),
               what, frozenset(f.name for f in known) | {"schema"})
    check_name(obj.get("schema", None if tag_required else cls.SCHEMA), (cls.SCHEMA,),
               "schema", error=MalformedConfig)
    try:
        return cls(**{name: value for name, value in obj.items() if name != "schema"})
    except (TypeError, ValidationError) as exc:
        raise MalformedConfig(str(exc)) from exc
