"""Streaming flow control: throttled detection, full-rate tracked classification.

The pipeline over a timestamped frame stream is a two-mode state machine.
Untracked, it runs (simulated) detection at most ``max_detect_hz`` times per
second; a detected hand flips it to Tracked, where every frame is classified
until ``track_loss_frames`` consecutive misses drop it back. Detection is the
presence of an ingested skeleton with a sufficient score; the palm-detector
CNN itself is out of scope.

``step`` is a pure function of (state, frame, config, classifier), so
streams replay bit-identically and distinct streams can run in parallel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, TextIO

import numpy as np

from .errors import (
    MalformedConfig,
    Missing3D,
    NonMonotonicTimestamp,
    NumericalError,
    ValidationError,
)
from . import mlp
from .features import frame_features
from .heuristic import classify_heuristic, config_from_dict, default_config
from .skeleton import HandFrame, brief, check_name, check_number, decode_config, read_json

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
        # an infinite rate detects on every untracked frame
        check_number(self.max_detect_hz, "max_detect_hz", 0, ends="(]")
        check_number(self.track_loss_frames, "track_loss_frames", 1, integer=True)
        check_number(self.min_track_score, "min_track_score", 0, 1, ends="[]")
        check_name(self.classifier, CLASSIFIER_KINDS, "classifier")
        # an int would be opened as a file descriptor
        if not (self.classifier_ref is None or isinstance(self.classifier_ref, str)):
            raise ValidationError(f"classifier_ref must be a string or null, "
                                  f"got {brief(self.classifier_ref)}")

    @classmethod
    def from_dict(cls, obj: dict) -> "PipelineConfig":
        config = decode_config(cls, obj, "pipeline config")
        check_name(obj.get("schema"), (CONFIG_SCHEMA,), "schema", error=MalformedConfig)
        return config


def load_pipeline_config(fp: TextIO) -> PipelineConfig:
    try:
        obj = json.load(fp)
    except ValueError as exc:  # invalid JSON, or invalid UTF-8 underneath
        raise MalformedConfig(f"pipeline config: {exc}") from exc
    return PipelineConfig.from_dict(obj)


def make_predictor(kind: str, ref: str | None) -> Callable[[np.ndarray], str]:
    """Resolve a classifier choice into features -> label.

    ``kind`` is one of CLASSIFIER_KINDS; ``ref`` names the model file for
    "nn" (required) or the gesture config for "heuristic" (None selects the
    built-in default). The classify function is looked up at each call, so
    a wrapper installed on its module attribute sees every call.
    """
    if kind == "nn":
        if ref is None:
            raise ValidationError("nn classifier needs a model file reference")
        model = mlp.load_model(ref)
        return lambda fv: mlp.classify_nn(model, fv)
    gestures = default_config() if ref is None else read_json(ref, config_from_dict)
    return lambda fv: classify_heuristic(fv, gestures)


def make_classifier(config: PipelineConfig) -> Callable[[HandFrame], str]:
    """Resolve the config's classifier choice into frame -> label, read from
    features.frame_features of the frame."""
    predict = make_predictor(config.classifier, config.classifier_ref)
    return lambda frame: predict(frame_features(frame))


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
    (None means no skeleton reached the classifier, or the classifier could
    not label it), and which stages ran."""

    timestamp_us: int
    mode: str
    label: str | None
    actions: tuple

    def to_dict(self) -> dict:
        return {"schema": OUTPUT_SCHEMA, "timestamp_us": self.timestamp_us,
                "mode": self.mode, "label": self.label,
                "actions": list(self.actions)}


def step(state: PipelineState, frame: HandFrame, config: PipelineConfig,
         classifier: Callable[[HandFrame], str]):
    """One frame through the state machine; returns (state', FrameOutput).

    ``classifier`` labels tracked frames with a usable hand; build it once
    per stream with make_classifier(config). A frame it cannot label
    (Missing3D or a NumericalError) leaves the label None and is neither a
    classification nor a miss.
    """
    t = frame.t_us
    if state.last_t_us is not None and t <= state.last_t_us:
        raise NonMonotonicTimestamp(f"timestamp {t} after {state.last_t_us}")

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
    elif usable:
        misses = 0
    else:
        misses += 1
        if misses >= config.track_loss_frames:
            mode = UNTRACKED
            misses = 0
    if mode == TRACKED and usable:
        try:
            label = classifier(frame)
        except (Missing3D, NumericalError):
            pass  # an unclassifiable frame keeps label None; it is not a miss
        else:
            actions.append("classify")
            classifies = 1

    old = state.stats
    stats = PipelineStats(
        detect_invocations=old.detect_invocations + detects,
        classify_invocations=old.classify_invocations + classifies,
        tracked_frames=old.tracked_frames + (mode == TRACKED),
        untracked_frames=old.untracked_frames + (mode == UNTRACKED),
    )
    new_state = PipelineState(mode=mode, last_detect_us=last_detect, last_t_us=t,
                              consecutive_misses=misses, stats=stats)
    return new_state, FrameOutput(timestamp_us=t, mode=mode, label=label,
                                  actions=tuple(actions))


def run_stream(frames, config: PipelineConfig,
               classifier: Callable[[HandFrame], str]):
    """Left fold of step over the stream; returns (outputs, stats)."""
    state = initial_state()
    outputs = []
    for frame in frames:
        state, out = step(state, frame, config, classifier)
        outputs.append(out)
    return outputs, state.stats
