"""Synthetic labeled hand poses, evaluation metrics, and dataset files.

Every sample draws from ``numpy.random.default_rng([seed, index])`` so
corpora are identical whether generated serially or in parallel.  Each
gesture has a joint-angle template; finger spread at rest lives in the
hand model, so templates mostly toggle flexions.  Gestures whose meaning
depends on orientation carry a base rotation and receive only a small
orientation wobble; the rest are spun uniformly in the image plane.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput, LengthMismatch, MalformedFrame, ValidationError
from .labels import (
    ALL_GESTURES,
    CLASSES,
    NEGATIVE_LABEL,
    POSITIVE_GESTURES,
    check_gesture,
    check_label,
    to_class,
)
from .lifting import (
    FRONTAL_ROTATION,
    JOINT_BOXES,
    NUM_JOINT_ANGLES,
    HandModel,
    PoseParams,
    default_hand_model,
    default_intrinsics,
    forward_kinematics,
    normalize_world,
    project,
    rot_x,
    rot_z,
    rotmat_from_rotvec,
    rotvec_from_rotmat,
)
from .skeleton import (
    INDEX_MCP,
    MIDDLE_MCP,
    NUM_KEYPOINTS,
    PINKY_MCP,
    HandFrame,
    HandSkeleton,
    frame_from_dict,
    frame_to_dict,
    open_output,
    read_jsonl,
)


# -- gesture templates -------------------------------------------------------

@dataclass(frozen=True)
class GestureTemplate:
    """Joint angles (21, radians), base orientation (hand frame to camera),
    and whether the gesture keeps its meaning under in-plane spin.

    ``coupled`` lists groups of fingers pressed against each other; their
    flexion jitter is drawn once per group since touching fingers move
    together, keeping the pair angle tight the way real contact does.
    """

    joints: np.ndarray
    orientation: np.ndarray
    orientation_free: bool
    coupled: tuple = ()


def _joints(thumb, index, middle, ring, pinky) -> np.ndarray:
    return np.array(tuple(thumb) + tuple(index) + tuple(middle)
                    + tuple(ring) + tuple(pinky), dtype=np.float64)


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

_TO_CAMERA = rot_x(np.pi / 2.0) @ _R0  # fingers pitched at the lens


def _tpl(joints, orientation=None, coupled=()):
    if orientation is None:
        return GestureTemplate(joints, _R0, True, coupled)
    return GestureTemplate(joints, orientation, False, coupled)


# flexion joint indices (mcp/cmc, pip, dip) per finger name
_FLEX_IDX = {
    "thumb": (0, 2, 3),
    "index": (5, 7, 8),
    "middle": (9, 11, 12),
    "ring": (13, 15, 16),
    "pinky": (17, 19, 20),
}


TEMPLATES: dict = {
    "OpenPalm": _tpl(_joints(_THUMB_OPEN, _STRAIGHT, _STRAIGHT, _STRAIGHT, _STRAIGHT)),
    "Victory": _tpl(_joints(_THUMB_FIST, (0.0, 0.20, 0.0, 0.0), (0.0, -0.10, 0.0, 0.0),
                            (0.40, 0.0, 1.60, 0.95), (0.40, 0.0, 1.60, 0.95)),
                    coupled=(("ring", "pinky"),)),
    "ClosedFist": _tpl(_joints(_THUMB_FIST, _BENT, _BENT, _BENT, _BENT)),
    "PointingUp": _tpl(_joints(_THUMB_FIST, _STRAIGHT, _BENT, _BENT, _BENT), _R0),
    "ThumbUp": _tpl(_joints(_THUMB_OPEN, _BENT, _BENT, _BENT, _BENT),
                    rot_z(THUMB_UP_SPIN) @ _R0),
    "ThumbDown": _tpl(_joints(_THUMB_OPEN, _BENT, _BENT, _BENT, _BENT),
                      rot_z(THUMB_UP_SPIN + np.pi) @ _R0),
    "OK": _tpl(_joints((0.60, -0.10, 0.50, 0.40, 0.35), (1.00, 0.0, 0.75, 0.55),
                       _STRAIGHT, _STRAIGHT, _STRAIGHT)),
    "CallMe": _tpl(_joints((0.0, 0.35, 0.0, 0.0, 0.0), _BENT, _BENT, _BENT, _STRAIGHT)),
    "IndexMiddlePointingUp": _tpl(
        _joints(_THUMB_HALF, _INDEX_PAIRED, _MIDDLE_PAIRED, _BENT, _BENT), _R0,
        coupled=(("index", "middle"),)),
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
        coupled=(("index", "middle"),)),
    "IndexMiddlePointingUpWithOpenThumb": _tpl(
        _joints((0.0, 0.35, 0.0, 0.0, 0.0), _INDEX_PAIRED, _MIDDLE_PAIRED,
                _BENT, _BENT), _R0, coupled=(("index", "middle"),)),
    "IndexPointingToCamera": _tpl(
        _joints(_THUMB_FIST, _STRAIGHT, _BENT, _BENT, _BENT), _TO_CAMERA),
    "Loser": _tpl(_joints((0.0, 0.40, 0.0, 0.0, 0.0), _STRAIGHT, _BENT, _BENT, _BENT),
                  _R0),
    "PinchedFingers": _tpl(_joints((0.50, 0.0, 0.40, 0.30, 0.40),
                                   (0.60, -0.10, 0.30, 0.20), (0.60, 0.0, 0.30, 0.20),
                                   (0.60, 0.10, 0.30, 0.20), (0.60, 0.20, 0.30, 0.20))),
    "VulcanSalute": _tpl(_joints(_THUMB_OPEN, _INDEX_PAIRED, _MIDDLE_PAIRED,
                                 (0.0, -0.28, 0.0, 0.0), _STRAIGHT),
                         coupled=(("index", "middle"), ("ring", "pinky"))),
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
        for name in ("tz_range", "x_range", "y_range"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValidationError(f"{name} must be finite [low, high] with "
                                      f"low <= high, got {getattr(self, name)}")


# abductions and the thumb roll get half the flexion jitter: their
# anatomical boxes span roughly half the range
_JITTER_SCALE = np.array([1.0, 0.5, 1.0, 1.0, 0.5] + [1.0, 0.5, 1.0, 1.0] * 4)


def _jittered_joints(tpl: GestureTemplate, rng: np.random.Generator,
                     cfg: "SynthConfig") -> np.ndarray:
    noise = rng.standard_normal(NUM_JOINT_ANGLES)
    for group in tpl.coupled:
        lead = _FLEX_IDX[group[0]]
        for other in group[1:]:
            noise[list(_FLEX_IDX[other])] = noise[list(lead)]
    joints = tpl.joints + noise * cfg.jitter_std_rad * _JITTER_SCALE
    return np.clip(joints, JOINT_BOXES[:, 0], JOINT_BOXES[:, 1])


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """The per-sample generator; sample i is independent of all others."""
    return np.random.default_rng([int(seed), int(index)])


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


def _place(local, rotation, rng, cfg):
    """Rigidly place hand-frame points so the palm center lands at a random
    offset from the optical axis; returns camera-frame points."""
    tz = rng.uniform(*cfg.tz_range)
    x = rng.uniform(*cfg.x_range)
    y = rng.uniform(*cfg.y_range)
    center_local = local[[INDEX_MCP, MIDDLE_MCP, PINKY_MCP]].mean(axis=0)
    t = np.array([x, y, tz]) - rotation @ center_local
    return local @ rotation.T + t


def synth_pose(label: str, cfg: SynthConfig | None = None,
               rng: np.random.Generator | None = None, *,
               t_us: int = 0, model: HandModel | None = None):
    """One labeled sample: a HandFrame with consistent kp2d and kp3d.

    Draw order per sample is fixed (joint noise, spin, wobble, placement,
    then optional pixel/metric noise) so corpora replay exactly.
    """
    check_gesture(label)
    cfg = cfg if cfg is not None else SynthConfig()
    rng = rng if rng is not None else sample_rng(cfg.seed, 0)
    model = model if model is not None else default_hand_model()
    tpl = TEMPLATES[label]

    joints = _jittered_joints(tpl, rng, cfg)
    spin = rng.uniform(-np.pi, np.pi)  # drawn always, applied when free
    wobble = _wobble(rng, cfg.orientation_jitter_rad)
    rotation = wobble @ tpl.orientation
    if tpl.orientation_free:
        rotation = rot_z(spin) @ rotation

    local = forward_kinematics(
        model, PoseParams(np.zeros(3), np.zeros(3), joints), validate=False)
    if cfg.handedness == "Left":
        local = local * np.array([-1.0, 1.0, 1.0])
    kp3d = _place(local, rotation, rng, cfg)
    intr = default_intrinsics(cfg.width, cfg.height)
    kp2d = project(kp3d, intr)
    if cfg.noise_px > 0.0:
        kp2d = kp2d + rng.standard_normal((NUM_KEYPOINTS, 2)) * cfg.noise_px
    if cfg.noise_m > 0.0:
        kp3d = kp3d + rng.standard_normal((NUM_KEYPOINTS, 3)) * cfg.noise_m

    hand = HandSkeleton(handedness=cfg.handedness, score=cfg.score,
                        kp2d=kp2d, kp3d=kp3d)
    frame = HandFrame(t_us=int(t_us), w=cfg.width, h=cfg.height, hand=hand)
    return frame, label


FRAME_STEP_US = 33_333  # ~30 fps spacing for generated corpora


def make_dataset(cfg: SynthConfig, per_gesture: int,
                 gestures=None, model: HandModel | None = None):
    """Labeled corpus: ``per_gesture`` samples of each gesture, sample i
    seeded by (cfg.seed, i) regardless of generation order."""
    gestures = tuple(gestures) if gestures is not None else ALL_GESTURES
    model = model if model is not None else default_hand_model()
    frames, labels = [], []
    i = 0
    for gesture in gestures:
        for _ in range(per_gesture):
            frame, _ = synth_pose(gesture, cfg, sample_rng(cfg.seed, i),
                                  t_us=FRAME_STEP_US * i, model=model)
            frames.append(frame)
            labels.append(gesture)
            i += 1
    return frames, labels


def make_alignment_corpus(cfg: SynthConfig, n: int,
                          model: HandModel | None = None):
    """Orientation-stress corpus centered on frontal views: four samples in
    five face the camera head-on (fingers pitched at the lens, where a
    single palm bone foreshortens to nothing), the fifth is uniformly
    rotated so the whole orientation sphere stays covered."""
    model = model if model is not None else default_hand_model()
    frames = []
    for i in range(n):
        rng = sample_rng(cfg.seed, i)
        gesture = ALL_GESTURES[int(rng.integers(len(ALL_GESTURES)))]
        joints = _jittered_joints(TEMPLATES[gesture], rng, cfg)
        if i % 5 == 0:
            rotation = random_rotation(rng)
        else:
            rotation = _wobble(rng, math.radians(15.0)) @ _TO_CAMERA
        local = forward_kinematics(
            model, PoseParams(np.zeros(3), np.zeros(3), joints), validate=False)
        kp3d = _place(local, rotation, rng, cfg)
        kp2d = project(kp3d, default_intrinsics(cfg.width, cfg.height))
        hand = HandSkeleton(handedness=cfg.handedness, score=cfg.score,
                            kp2d=kp2d, kp3d=kp3d)
        frames.append(HandFrame(t_us=FRAME_STEP_US * i, w=cfg.width,
                                h=cfg.height, hand=hand))
    return frames


def synth_params(label: str, cfg: SynthConfig, rng: np.random.Generator,
                 model: HandModel | None = None) -> PoseParams:
    """The PoseParams behind a sample, for fitting round-trips.  Uses the
    same draw order as synth_pose, so the same rng state yields the pose
    that generated the frame (right hands only)."""
    check_gesture(label)
    model = model if model is not None else default_hand_model()
    tpl = TEMPLATES[label]
    joints = _jittered_joints(tpl, rng, cfg)
    spin = rng.uniform(-np.pi, np.pi)
    wobble = _wobble(rng, cfg.orientation_jitter_rad)
    rotation = wobble @ tpl.orientation
    if tpl.orientation_free:
        rotation = rot_z(spin) @ rotation
    local = forward_kinematics(
        model, PoseParams(np.zeros(3), np.zeros(3), joints), validate=False)
    tz = rng.uniform(*cfg.tz_range)
    x = rng.uniform(*cfg.x_range)
    y = rng.uniform(*cfg.y_range)
    center_local = local[[INDEX_MCP, MIDDLE_MCP, PINKY_MCP]].mean(axis=0)
    t = np.array([x, y, tz]) - rotation @ center_local
    return PoseParams(rotvec=rotvec_from_rotmat(rotation), translation=t,
                      joints=joints)


# -- dataset files -----------------------------------------------------------

DATASET_SCHEMA = "dataset/1"


def write_dataset(path, frames, labels) -> None:
    if len(frames) != len(labels):
        raise LengthMismatch(f"{len(frames)} frames vs {len(labels)} labels")
    with open_output(path) as fp:
        for frame, label in zip(frames, labels):
            record = {"schema": DATASET_SCHEMA, "label": label}
            record.update(frame_to_dict(frame))
            fp.write(json.dumps(record) + "\n")


def read_dataset(path):
    """Frames-plus-label JSONL -> (frames, labels)."""
    frames, labels = [], []
    for i, obj in enumerate(read_jsonl(path)):
        where = f"{path}:row {i}"
        if "label" not in obj:
            raise MalformedFrame(f"{where}: dataset line missing 'label'")
        labels.append(check_label(obj["label"], where))
        frames.append(frame_from_dict(obj))
    return frames, labels


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
    mean_keypoint_error_cm: float | None = None

    def to_dict(self) -> dict:
        out = {
            "schema": "eval_report/1",
            "classes": list(CLASSES),
            "confusion": self.confusion.tolist(),
            "recalls": {k: float(v) for k, v in self.recalls.items()},
            "avg_recall": float(self.avg_recall),
            "fpr": float(self.fpr),
            "n": int(self.n),
        }
        if self.mean_keypoint_error_cm is not None:
            out["mean_keypoint_error_cm"] = float(self.mean_keypoint_error_cm)
        return out


def eval_classifier(predictions, truths, *, keypoint_errors_cm=None) -> EvalReport:
    """Confusion/recall/FPR over aligned prediction and truth sequences.

    Truth labels outside the six targets collapse onto Negative; a None
    prediction (no hand) counts as Negative.
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
        t = index[to_class(str(truth))]
        p = index[to_class(str(pred))] if pred is not None else index[NEGATIVE_LABEL]
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
    err = None
    if keypoint_errors_cm is not None:
        errs = list(keypoint_errors_cm)
        if errs:
            err = float(np.mean(errs))
    return EvalReport(confusion=confusion, recalls=recalls, avg_recall=avg_recall,
                      fpr=fpr, n=len(truths), mean_keypoint_error_cm=err)


def keypoint_error(pred_kp3d, gt_kp3d) -> float:
    """Mean per-keypoint Euclidean distance in cm, after shifting both sets
    so their middle-finger knuckles coincide at the origin."""
    a = normalize_world(pred_kp3d)
    b = normalize_world(gt_kp3d)
    return float(np.mean(np.linalg.norm(a - b, axis=1)) * 100.0)
