"""Streaming flow control: throttled detection, full-rate tracked classification.

The pipeline over a timestamped frame stream is a two-mode state machine.
Untracked, it runs (simulated) detection at most ``max_detect_hz`` times per
second; a detected hand flips it to Tracked, where every frame is classified
until ``track_loss_frames`` consecutive misses drop it back. Detection is the
presence of an ingested skeleton with a sufficient score; the palm-detector
CNN itself is out of scope.

``step`` is a pure function of (state, frame, config), so streams replay
bit-identically and distinct streams can run in parallel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable, TextIO

from .errors import (
    MalformedFrame,
    Missing3D,
    NonMonotonicTimestamp,
    ValidationError,
)
from .features import feature_vector
from .skeleton import HandFrame, HandSkeleton, decode_config, read_json

UNTRACKED = "Untracked"
TRACKED = "Tracked"

CONFIG_SCHEMA = "pipeline/1"
STATS_SCHEMA = "pipeline_stats/1"
OUTPUT_SCHEMA = "frame_output/1"

CLASSIFIER_KINDS = ("heuristic", "nn")


@dataclass(frozen=True)
class PipelineConfig:
    """Scheduling knobs plus which classifier runs on tracked frames.

    ``classifier_ref`` names a config/model file for the chosen classifier;
    None selects the built-in heuristic default (invalid for "nn", which
    always needs trained weights).
    """

    max_detect_hz: float
    track_loss_frames: int = 3
    min_track_score: float = 0.5
    classifier: str = "heuristic"
    classifier_ref: str | None = None

    def __post_init__(self):
        if not self.max_detect_hz > 0.0:
            raise ValidationError(f"max_detect_hz must be > 0, got {self.max_detect_hz}")
        if self.track_loss_frames < 1:
            raise ValidationError(
                f"track_loss_frames must be >= 1, got {self.track_loss_frames}")
        if not 0.0 <= self.min_track_score <= 1.0:
            raise ValidationError(
                f"min_track_score must lie in [0, 1], got {self.min_track_score}")
        if self.classifier not in CLASSIFIER_KINDS:
            raise ValidationError(f"classifier must be one of {CLASSIFIER_KINDS}, "
                                  f"got {self.classifier!r}")

    def to_dict(self) -> dict:
        return {"schema": CONFIG_SCHEMA, "max_detect_hz": self.max_detect_hz,
                "track_loss_frames": self.track_loss_frames,
                "min_track_score": self.min_track_score,
                "classifier": self.classifier,
                "classifier_ref": self.classifier_ref}

    @classmethod
    def from_dict(cls, obj: dict) -> "PipelineConfig":
        if not isinstance(obj, dict) or obj.get("schema") != CONFIG_SCHEMA:
            raise MalformedFrame(f"expected schema {CONFIG_SCHEMA!r}")
        return decode_config(cls, obj, "pipeline config")


def save_pipeline_config(fp: TextIO, config: PipelineConfig) -> None:
    json.dump(config.to_dict(), fp)
    fp.write("\n")


def load_pipeline_config(fp: TextIO) -> PipelineConfig:
    return PipelineConfig.from_dict(json.load(fp))


def make_classifier(config: PipelineConfig) -> Callable[[HandSkeleton], str]:
    """Resolve the config's classifier choice into skeleton -> label."""
    if config.classifier == "nn":
        if config.classifier_ref is None:
            raise ValidationError("nn classifier needs a model file reference")
        from .mlp import classify_nn, load_model
        model = load_model(config.classifier_ref)

        def run(skeleton: HandSkeleton) -> str:
            if skeleton.kp3d is None:
                raise Missing3D("classification needs metric 3D keypoints")
            return classify_nn(model, feature_vector(skeleton.kp3d,
                                                     skeleton.handedness))
        return run

    from .heuristic import classify_heuristic, config_from_dict, default_config
    if config.classifier_ref is None:
        gestures = default_config()
    else:
        gestures = config_from_dict(read_json(config.classifier_ref))

    def run(skeleton: HandSkeleton) -> str:
        if skeleton.kp3d is None:
            raise Missing3D("classification needs metric 3D keypoints")
        return classify_heuristic(feature_vector(skeleton.kp3d,
                                                 skeleton.handedness), gestures)
    return run


# -- state machine ------------------------------------------------------------

@dataclass(frozen=True)
class PipelineStats:
    """Invocation and per-mode frame counters; modes count post-step."""

    detect_invocations: int = 0
    classify_invocations: int = 0
    tracked_frames: int = 0
    untracked_frames: int = 0

    def to_dict(self) -> dict:
        return {"schema": STATS_SCHEMA,
                "detect_invocations": self.detect_invocations,
                "classify_invocations": self.classify_invocations,
                "tracked_frames": self.tracked_frames,
                "untracked_frames": self.untracked_frames}


@dataclass(frozen=True)
class PipelineState:
    """Everything the next step needs; ``last_detect_us`` survives mode flips
    so the detector budget cannot be reset by losing the hand."""

    mode: str = UNTRACKED
    last_detect_us: int | None = None
    last_t_us: int | None = None
    consecutive_misses: int = 0
    stats: PipelineStats = field(default_factory=PipelineStats)


def initial_state() -> PipelineState:
    return PipelineState()


@dataclass(frozen=True)
class FrameOutput:
    """Per-frame result: post-step mode, the label when classification ran
    (None means no skeleton reached the classifier), and which stages ran."""

    timestamp_us: int
    mode: str
    label: str | None
    actions: tuple

    def to_dict(self) -> dict:
        return {"schema": OUTPUT_SCHEMA, "timestamp_us": self.timestamp_us,
                "mode": self.mode, "label": self.label,
                "actions": list(self.actions)}


def step(state: PipelineState, frame: HandFrame, config: PipelineConfig,
         classifier: Callable[[HandSkeleton], str] | None = None):
    """One frame through the state machine; returns (state', FrameOutput).

    Pass a prebuilt ``classifier`` when stepping many frames; otherwise one
    is resolved from the config on every call.
    """
    t = frame.t_us
    if state.last_t_us is not None and t <= state.last_t_us:
        raise NonMonotonicTimestamp(f"timestamp {t} after {state.last_t_us}")
    if classifier is None:
        classifier = make_classifier(config)

    hand = frame.hand
    usable = hand is not None and hand.score >= config.min_track_score
    mode = state.mode
    misses = state.consecutive_misses
    last_detect = state.last_detect_us
    actions = []
    label = None
    detects = classifies = 0

    if mode == UNTRACKED:
        period_us = 1e6 / config.max_detect_hz
        if last_detect is None or t - last_detect >= period_us:
            actions.append("detect")
            detects = 1
            last_detect = t
            if usable:
                mode = TRACKED
                misses = 0
                label = classifier(hand)
                actions.append("classify")
                classifies = 1
    else:
        if usable:
            misses = 0
            label = classifier(hand)
            actions.append("classify")
            classifies = 1
        else:
            misses += 1
            if misses >= config.track_loss_frames:
                mode = UNTRACKED
                misses = 0

    stats = replace(
        state.stats,
        detect_invocations=state.stats.detect_invocations + detects,
        classify_invocations=state.stats.classify_invocations + classifies,
        tracked_frames=state.stats.tracked_frames + (mode == TRACKED),
        untracked_frames=state.stats.untracked_frames + (mode == UNTRACKED),
    )
    new_state = PipelineState(mode=mode, last_detect_us=last_detect, last_t_us=t,
                              consecutive_misses=misses, stats=stats)
    return new_state, FrameOutput(timestamp_us=t, mode=mode, label=label,
                                  actions=tuple(actions))


def run_stream(frames, config: PipelineConfig,
               classifier: Callable[[HandSkeleton], str] | None = None):
    """Left fold of step over the stream; returns (outputs, stats)."""
    if classifier is None:
        classifier = make_classifier(config)
    state = initial_state()
    outputs = []
    for frame in frames:
        state, out = step(state, frame, config, classifier)
        outputs.append(out)
    return outputs, state.stats
