"""Synthetic labeled hand poses, evaluation metrics, and dataset files.

Every sample draws from ``numpy.random.default_rng([seed, index])`` so
corpora are identical whether generated serially or in parallel.  Each
gesture has a joint-angle template; finger spread at rest lives in the
hand model, so templates mostly toggle flexions.  Gestures whose meaning
depends on orientation carry a base rotation and receive only a small
orientation wobble; the rest are spun uniformly in the image plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .alignment import palm_center
from .errors import EmptyInput, LengthMismatch, ValidationError
from .labels import (
    ALL_GESTURES,
    CLASSES,
    NEGATIVE_LABEL,
    POSITIVE_GESTURES,
    check_gesture,
    check_label,
    to_class,
)
from .features import axis_rotation
from .lifting import (
    FLEXION_JOINTS,
    FRONTAL_ROTATION,
    JOINT_BOXES,
    NUM_JOINT_ANGLES,
    PoseParams,
    TZ_BOX,
    default_hand_model,
    default_intrinsics,
    hand_chain,
    project,
    rotmat_from_rotvec,
    rotvec_from_rotmat,
)
from .skeleton import (
    NUM_KEYPOINTS,
    Finger,
    HandFrame,
    HandSkeleton,
    brief,
    check_handedness,
    check_number,
    frame_to_dict,
    write_jsonl,
)


# -- gesture templates -------------------------------------------------------

@dataclass(frozen=True)
class GestureTemplate:
    """Joint angles (21, radians), base orientation (hand frame to camera),
    and whether the gesture keeps its meaning under in-plane spin.

    ``coupled`` lists groups of Fingers pressed against each other; their
    flexion jitter is drawn once per group since touching fingers move
    together, keeping the pair angle tight the way real contact does.
    """

    joints: np.ndarray
    orientation: np.ndarray
    orientation_free: bool
    coupled: tuple = ()


def _joints(thumb, index, middle, ring, pinky) -> np.ndarray:
    return np.concatenate((thumb, index, middle, ring, pinky))


# per finger: (mcp_flex, mcp_abd, pip_flex, dip_flex)
_STRAIGHT = (0.0, 0.0, 0.0, 0.0)
_BENT = (1.35, 0.0, 1.55, 0.95)
_HALF = (0.45, 0.0, 0.45, 0.10)
# index/middle abducted onto a common direction (touching, as in a salute)
_INDEX_PAIRED = (0.0, -0.23, 0.0, 0.0)
_MIDDLE_PAIRED = (0.0, 0.031, 0.0, 0.0)

# thumb: (cmc_flex, cmc_abd, mcp_flex, ip_flex, roll)
_THUMB_OPEN = (0.0, 0.15, 0.0, 0.0, 0.0)
_THUMB_FIST = (0.55, -0.25, 1.05, 0.95, 0.45)
_THUMB_HALF = (0.35, 0.0, 0.45, 0.35, 0.20)

_R0 = FRONTAL_ROTATION

# spin that brings the rest thumb direction to vertical in a frontal view
_dt = default_hand_model().directions[0]
THUMB_UP_SPIN = float(np.arctan2(_dt[1], _dt[0]) - np.pi / 2.0)
del _dt

_TO_CAMERA = axis_rotation(0, np.pi / 2.0) @ _R0  # fingers pitched at the lens


def _tpl(joints, orientation=None, coupled=()):
    if orientation is None:
        return GestureTemplate(joints, _R0, True, coupled)
    return GestureTemplate(joints, orientation, False, coupled)


_INDEX_MIDDLE = (Finger.INDEX, Finger.MIDDLE)
_RING_PINKY = (Finger.RING, Finger.PINKY)

TEMPLATES: dict = {
    "OpenPalm": _tpl(_joints(_THUMB_OPEN, _STRAIGHT, _STRAIGHT, _STRAIGHT, _STRAIGHT)),
    "Victory": _tpl(_joints(_THUMB_FIST, (0.0, 0.20, 0.0, 0.0), (0.0, -0.10, 0.0, 0.0),
                            (0.40, 0.0, 1.60, 0.95), (0.40, 0.0, 1.60, 0.95)),
                    coupled=(_RING_PINKY,)),
    "ClosedFist": _tpl(_joints(_THUMB_FIST, _BENT, _BENT, _BENT, _BENT)),
    "PointingUp": _tpl(_joints(_THUMB_FIST, _STRAIGHT, _BENT, _BENT, _BENT), _R0),
    "ThumbUp": _tpl(_joints(_THUMB_OPEN, _BENT, _BENT, _BENT, _BENT),
                    axis_rotation(2, THUMB_UP_SPIN) @ _R0),
    "ThumbDown": _tpl(_joints(_THUMB_OPEN, _BENT, _BENT, _BENT, _BENT),
                      axis_rotation(2, THUMB_UP_SPIN + np.pi) @ _R0),
    "OK": _tpl(_joints((0.60, -0.10, 0.50, 0.40, 0.35), (1.00, 0.0, 0.75, 0.55),
                       _STRAIGHT, _STRAIGHT, _STRAIGHT)),
    "CallMe": _tpl(_joints((0.0, 0.35, 0.0, 0.0, 0.0), _BENT, _BENT, _BENT, _STRAIGHT)),
    "IndexMiddlePointingUp": _tpl(
        _joints(_THUMB_HALF, _INDEX_PAIRED, _MIDDLE_PAIRED, _BENT, _BENT), _R0,
        coupled=(_INDEX_MIDDLE,)),
    "Three": _tpl(_joints(_THUMB_FIST, _STRAIGHT, _STRAIGHT, _STRAIGHT, _BENT)),
    "Four": _tpl(_joints(_THUMB_FIST, _STRAIGHT, _STRAIGHT, _STRAIGHT, _STRAIGHT)),
    "ILoveYou": _tpl(_joints(_THUMB_OPEN, _STRAIGHT, _BENT, _BENT, _STRAIGHT)),
    # index held between Neither states on purpose: a near-fist that must
    # not read as ClosedFist
    "FingerHeart": _tpl(_joints((0.40, -0.10, 0.60, 0.50, 0.30),
                                (0.60, 0.0, 0.35, 0.25), _BENT, _BENT, _BENT)),
    "HandHeart": _tpl(_joints((0.30, 0.10, 0.40, 0.30, 0.10),
                              _HALF, _HALF, _HALF, _HALF)),
    "IndexMiddlePointingUpWithClosedThumb": _tpl(
        _joints(_THUMB_FIST, _INDEX_PAIRED, _MIDDLE_PAIRED, _BENT, _BENT), _R0,
        coupled=(_INDEX_MIDDLE,)),
    "IndexMiddlePointingUpWithOpenThumb": _tpl(
        _joints((0.0, 0.35, 0.0, 0.0, 0.0), _INDEX_PAIRED, _MIDDLE_PAIRED,
                _BENT, _BENT), _R0, coupled=(_INDEX_MIDDLE,)),
    "IndexPointingToCamera": _tpl(
        _joints(_THUMB_FIST, _STRAIGHT, _BENT, _BENT, _BENT), _TO_CAMERA),
    "Loser": _tpl(_joints((0.0, 0.40, 0.0, 0.0, 0.0), _STRAIGHT, _BENT, _BENT, _BENT),
                  _R0),
    "PinchedFingers": _tpl(_joints((0.50, 0.0, 0.40, 0.30, 0.40),
                                   (0.60, -0.10, 0.30, 0.20), (0.60, 0.0, 0.30, 0.20),
                                   (0.60, 0.10, 0.30, 0.20), (0.60, 0.20, 0.30, 0.20))),
    "VulcanSalute": _tpl(_joints(_THUMB_OPEN, _INDEX_PAIRED, _MIDDLE_PAIRED,
                                 (0.0, -0.28, 0.0, 0.0), _STRAIGHT),
                         coupled=(_INDEX_MIDDLE, _RING_PINKY)),
    "SignOfTheHorns": _tpl(_joints((0.45, -0.20, 0.80, 0.70, 0.45),
                                   _STRAIGHT, _BENT, _BENT, _STRAIGHT)),
}

assert tuple(TEMPLATES) == ALL_GESTURES


# -- generator ---------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the synthetic generator; angles in radians, lengths in
    meters, pixel noise in px."""

    seed: int = 0
    jitter_std_rad: float = math.radians(5.0)
    orientation_jitter_rad: float = 0.20
    tz_range: tuple = (0.35, 0.75)
    x_range: tuple = (-0.05, 0.05)
    y_range: tuple = (-0.02, 0.02)
    width: int = 640
    height: int = 480
    noise_px: float = 0.0
    noise_m: float = 0.0
    handedness: str = "Right"
    score: float = 1.0

    def __post_init__(self):
        check_number(self.seed, "seed", 0, integer=True)
        for name in ("width", "height"):
            check_number(getattr(self, name), name, 1, integer=True)
        check_number(self.score, "score", 0, 1, ends="[]")
        for name in ("jitter_std_rad", "orientation_jitter_rad", "noise_px", "noise_m"):
            check_number(getattr(self, name), name, 0)
        for name in ("tz_range", "x_range", "y_range"):
            pair = getattr(self, name)
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ValidationError(f"{name} must be a pair [low, high], got {brief(pair)}")
            lo, hi = (check_number(end, name, -math.inf, ends="()") for end in pair)
            if not lo <= hi:
                raise ValidationError(f"{name} must be finite [low, high] with "
                                      f"low <= high, got {brief(pair)}")
            if not math.isfinite(float(hi) - float(lo)):
                raise ValidationError(f"{name} must have a finite high - low, "
                                      f"got {brief(pair)}")
            object.__setattr__(self, name, (lo, hi))
        if not TZ_BOX[0] <= self.tz_range[0] <= self.tz_range[1] <= TZ_BOX[1]:
            raise ValidationError(
                f"tz_range must lie within {TZ_BOX} m, got {brief(self.tz_range)}")
        check_handedness(self.handedness)


# abductions and the thumb roll get half the flexion jitter: their
# anatomical boxes span roughly half the range
_JITTER_SCALE = np.where(np.isin(np.arange(NUM_JOINT_ANGLES), FLEXION_JOINTS), 1.0, 0.5)


def _jittered_joints(tpl: GestureTemplate, rng: np.random.Generator,
                     cfg: "SynthConfig") -> np.ndarray:
    noise = rng.standard_normal(NUM_JOINT_ANGLES)
    for lead, *others in tpl.coupled:
        noise[FLEXION_JOINTS[others]] = noise[FLEXION_JOINTS[lead]]
    joints = tpl.joints + noise * cfg.jitter_std_rad * _JITTER_SCALE
    return np.clip(joints, JOINT_BOXES[:, 0], JOINT_BOXES[:, 1])


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """The per-sample generator; sample i is independent of all others."""
    return np.random.default_rng([check_number(seed, "seed", 0, integer=True),
                                  check_number(index, "index", 0, integer=True)])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation from a normalized 4-Gaussian quaternion."""
    q = rng.standard_normal(4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _wobble(rng: np.random.Generator, std_rad: float) -> np.ndarray:
    v = rng.standard_normal(3)
    angle = rng.standard_normal() * std_rad
    n = np.linalg.norm(v)
    if n < 1e-12 or std_rad == 0.0:
        return np.eye(3)
    return rotmat_from_rotvec(v / n * angle)


def _template_rotation(tpl: GestureTemplate, cfg: SynthConfig,
                       rng: np.random.Generator) -> np.ndarray:
    """The template's base orientation under a small wobble; the in-plane
    spin is drawn always and applied only when the gesture is free."""
    spin = rng.uniform(-np.pi, np.pi)
    rotation = _wobble(rng, cfg.orientation_jitter_rad) @ tpl.orientation
    return axis_rotation(2, spin) @ rotation if tpl.orientation_free else rotation


def _frontal_rotation(rng: np.random.Generator) -> np.ndarray:
    return _wobble(rng, math.radians(15.0)) @ _TO_CAMERA


def _sample_pose(tpl: GestureTemplate, draw_rotation, rng: np.random.Generator,
                 cfg: SynthConfig):
    """The pose sampler behind every generator: (joints, rotation,
    translation, camera-frame kp3d).

    Draw order is fixed so corpora replay exactly: joint jitter, then
    ``draw_rotation(rng)``, then the placement draws tz, x, y.  A left hand
    is the right hand's FK with hand-frame x negated.  Placement puts the
    palm center (alignment.palm_center) at (x, y, tz) in the camera frame.
    """
    joints = _jittered_joints(tpl, rng, cfg)
    rotation = draw_rotation(rng)
    local = hand_chain(default_hand_model(), joints[None])[0][0]
    if cfg.handedness == "Left":
        local = local * np.array([-1.0, 1.0, 1.0])
    tz = rng.uniform(*cfg.tz_range)
    x = rng.uniform(*cfg.x_range)
    y = rng.uniform(*cfg.y_range)
    t = np.array([x, y, tz]) - rotation @ palm_center(local)
    return joints, rotation, t, local @ rotation.T + t


def _observe(kp3d: np.ndarray, rng: np.random.Generator, cfg: SynthConfig,
             t_us: int) -> HandFrame:
    """The frame of a placed pose: projected, then pixel and metric noise."""
    kp2d = project(kp3d, default_intrinsics(cfg.width, cfg.height))
    if cfg.noise_px > 0.0:
        kp2d = kp2d + rng.standard_normal((NUM_KEYPOINTS, 2)) * cfg.noise_px
    if cfg.noise_m > 0.0:
        kp3d = kp3d + rng.standard_normal((NUM_KEYPOINTS, 3)) * cfg.noise_m
    hand = HandSkeleton(handedness=cfg.handedness, score=cfg.score,
                        kp2d=kp2d, kp3d=kp3d)
    return HandFrame(t_us=t_us, w=cfg.width, h=cfg.height, hand=hand)


def synth_pose(label: str, cfg: SynthConfig | None = None,
               rng: np.random.Generator | None = None, *, t_us: int = 0):
    """One labeled sample: a HandFrame with consistent kp2d and kp3d.

    Draw order per sample is fixed (joint noise, spin, wobble, placement,
    then optional pixel/metric noise) so corpora replay exactly.
    """
    tpl = TEMPLATES[check_gesture(label)]
    check_number(t_us, "t_us", -math.inf, integer=True, ends="()")
    cfg = cfg if cfg is not None else SynthConfig()
    rng = rng if rng is not None else sample_rng(cfg.seed, 0)
    *_, kp3d = _sample_pose(tpl, partial(_template_rotation, tpl, cfg), rng, cfg)
    return _observe(kp3d, rng, cfg, t_us), label


FRAME_STEP_US = 33_333  # ~30 fps spacing for generated corpora


def make_dataset(cfg: SynthConfig, per_gesture: int, gestures=None):
    """Labeled corpus: ``per_gesture`` samples of each gesture, sample i
    seeded by (cfg.seed, i) regardless of generation order."""
    check_number(per_gesture, "per_gesture", 1, integer=True)
    gestures = tuple(gestures) if gestures is not None else ALL_GESTURES
    if not gestures:
        raise ValidationError("gestures must name at least one gesture")
    frames, labels = [], []
    i = 0
    for gesture in gestures:
        for _ in range(per_gesture):
            frame, _ = synth_pose(gesture, cfg, sample_rng(cfg.seed, i),
                                  t_us=FRAME_STEP_US * i)
            frames.append(frame)
            labels.append(gesture)
            i += 1
    return frames, labels


def make_alignment_corpus(cfg: SynthConfig, n: int):
    """Orientation-stress corpus centered on frontal views: four samples in
    five face the camera head-on (fingers pitched at the lens, where a
    single palm bone foreshortens to nothing), the fifth is uniformly
    rotated so the whole orientation sphere stays covered."""
    frames = []
    for i in range(n):
        rng = sample_rng(cfg.seed, i)
        tpl = TEMPLATES[ALL_GESTURES[int(rng.integers(len(ALL_GESTURES)))]]
        draw_rotation = random_rotation if i % 5 == 0 else _frontal_rotation
        *_, kp3d = _sample_pose(tpl, draw_rotation, rng, cfg)
        frames.append(_observe(kp3d, rng, cfg, FRAME_STEP_US * i))
    return frames


def synth_params(label: str, cfg: SynthConfig, rng: np.random.Generator) -> PoseParams:
    """The PoseParams behind a sample, for fitting round-trips: the same
    rng state yields the pose that synth_pose places.  Right hands only;
    no pose of the hand model reaches a mirrored hand."""
    tpl = TEMPLATES[check_gesture(label)]
    if cfg.handedness != "Right":
        raise ValidationError(f"synth_params models right hands only, "
                              f"got handedness {cfg.handedness!r}")
    joints, rotation, t, _ = _sample_pose(
        tpl, partial(_template_rotation, tpl, cfg), rng, cfg)
    return PoseParams(rotvec=rotvec_from_rotmat(rotation), translation=t,
                      joints=joints)


# -- dataset files -----------------------------------------------------------

DATASET_SCHEMA = "dataset/1"
KP2D_DECIMALS = 3  # 1e-3 px
KP3D_DECIMALS = 6  # 1e-6 m


def _stored(frame: HandFrame) -> HandFrame:
    hand = frame.hand
    if hand is None:
        return frame
    kp2d = np.round(hand.kp2d, KP2D_DECIMALS)
    kp3d = None if hand.kp3d is None else np.round(hand.kp3d, KP3D_DECIMALS)
    if not (np.isfinite(kp2d).all() and (kp3d is None or np.isfinite(kp3d).all())):
        raise ValidationError(f"the frame at t_us {frame.t_us} has keypoints beyond a "
                              f"float's range; lower x_range, y_range, noise_px or noise_m")
    return replace(frame, hand=replace(hand, kp2d=kp2d, kp3d=kp3d))


def write_dataset(path, frames, labels) -> None:
    """Writes one labeled row per frame, keypoints rounded to the stored
    precision: kp2d to 1e-3 px, kp3d to 1e-6 m (1 um), far below the
    synthetic noise.  Rounding is idempotent, so reading a dataset and
    writing it again gives the same bytes.  Only dataset files are rounded:
    lift, features, classify and stream still write full precision.  A
    keypoint that is not finite once rounded raises ValidationError before
    anything is written."""
    if len(frames) != len(labels):
        raise LengthMismatch(f"{len(frames)} frames vs {len(labels)} labels")
    stored = [_stored(frame) for frame in frames]
    write_jsonl(path, ({"schema": DATASET_SCHEMA, "label": label, **frame_to_dict(frame)}
                       for frame, label in zip(stored, labels)))


# -- metrics -----------------------------------------------------------------

@dataclass
class EvalReport:
    """Classifier quality on a labeled corpus; class order follows CLASSES
    (the six gestures, then Negative)."""

    confusion: np.ndarray  # (7, 7) counts, rows truth, cols prediction
    recalls: dict
    avg_recall: float
    fpr: float
    n: int

    def to_dict(self) -> dict:
        return {
            "schema": "eval_report/1",
            "classes": list(CLASSES),
            "confusion": self.confusion.tolist(),
            "recalls": {k: float(v) for k, v in self.recalls.items()},
            "avg_recall": float(self.avg_recall),
            "fpr": float(self.fpr),
            "n": int(self.n),
        }


def eval_classifier(predictions, truths) -> EvalReport:
    """Confusion/recall/FPR over aligned prediction and truth sequences.

    Truth labels outside the six targets collapse onto Negative, a None
    prediction (no hand) counts as Negative, and check_label checks the rest.
    """
    predictions = list(predictions)
    truths = list(truths)
    if len(predictions) != len(truths):
        raise LengthMismatch(
            f"{len(predictions)} predictions vs {len(truths)} truths")
    if not truths:
        raise EmptyInput("nothing to evaluate")
    index = {c: i for i, c in enumerate(CLASSES)}
    confusion = np.zeros((len(CLASSES), len(CLASSES)), dtype=np.int64)
    for pred, truth in zip(predictions, truths):
        t = index[to_class(check_label(truth))]
        p = index[NEGATIVE_LABEL if pred is None else to_class(check_label(pred))]
        confusion[t, p] += 1
    recalls = {}
    for gesture in POSITIVE_GESTURES:
        row = confusion[index[gesture]]
        total = int(row.sum())
        recalls[gesture] = float(row[index[gesture]] / total) if total else float("nan")
    avg_recall = float(np.mean([v for v in recalls.values()]))
    neg_row = confusion[index[NEGATIVE_LABEL]]
    neg_total = int(neg_row.sum())
    fpr = float((neg_total - int(neg_row[index[NEGATIVE_LABEL]])) / neg_total) \
        if neg_total else 0.0
    return EvalReport(confusion=confusion, recalls=recalls, avg_recall=avg_recall,
                      fpr=fpr, n=len(truths))
