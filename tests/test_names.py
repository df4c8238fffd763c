"""Every name from a fixed set goes through skeleton.check_name.

Each site is fed a name in the wrong case, an unknown name, and five values
that are not strings. It must raise its own ValidationError saying "must be
one of", never a bare TypeError; a site that reads a file makes the command
line exit 2 with one line that names the file.
"""

import copy
import json
from importlib.resources import files

import numpy as np
import pytest

from handgest.cli import _label_only, _labeled_features, _prediction, main
from handgest.errors import MalformedConfig, MalformedFrame, UnknownLabel, UnknownReference
from handgest.features import feature_vector
from handgest.harness import SynthConfig, eval_classifier, sample_rng, synth_pose
from handgest.heuristic import DEFAULT_CONFIG_JSON, config_from_dict
from handgest.labels import check_gesture
from handgest.lifting import HandModel, default_hand_model, default_intrinsics, lift_keypoints
from handgest.mlp import LAYER_SIZES, LabeledExample, MlpModel, focal_loss
from handgest.pipeline import PipelineConfig
from handgest.skeleton import frame_from_dict, frame_to_dict

_FRAME, _ = synth_pose("OpenPalm", SynthConfig(), sample_rng(0, 0))
_ROW = frame_to_dict(_FRAME)
_PIPE = {"schema": "pipeline/1", "max_detect_hz": 5.0}
_FEATURE_ROW = {"euler": [0.0] * 3, "fingers": [0.0] * 5, "pairs": [0.5] * 4}
_MODEL = MlpModel([np.zeros((o, i)) for i, o in zip(LAYER_SIZES, LAYER_SIZES[1:])],
                  [np.zeros(o) for o in LAYER_SIZES[1:]], np.zeros(12), np.ones(12)).to_dict()
_HAND_MODEL = json.loads((files("handgest") / "data" / "hand_model.json").read_text())


def _with(doc, path, value):
    """A deep copy of ``doc`` with ``value`` at the key path ``path``."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _hand(value):
    return _with(_ROW, ("hand", "handedness"), value)


def _synth_config(value):
    return {"handedness": value}


def _pipeline(value):
    return {**_PIPE, "classifier": value}


def _label(value):
    return {"label": value}


def _labeled(value):
    return {**_ROW, "label": value}


def _term(gesture, term, key):
    """The default gesture document with ``key`` of one top-level term of
    one gesture's expression replaced."""
    path = ("gestures", gesture, "expr", "all", term, key)
    return lambda value: _with(DEFAULT_CONFIG_JSON, path, value)


_FINGER, _PAIR, _AXIS = _term(1, 0, "finger"), _term(1, 2, "pair"), _term(3, 5, "euler")
_FINGER_STATE, _PAIR_STATE = _term(1, 0, "state"), _term(1, 2, "state")


def _schema(doc):
    """``doc`` with its schema tag replaced."""
    return lambda value: {**doc, "schema": value}


_GESTURES_SCHEMA, _PIPE_SCHEMA = _schema(DEFAULT_CONFIG_JSON), _schema(_PIPE)
_MODEL_SCHEMA, _HAND_MODEL_SCHEMA = _schema(_MODEL), _schema(_HAND_MODEL)


# site: (a good name, the error the library raises, the library call that
# takes the name, and (argv, the file {bad} that carries it) or None)
SITES = {
    "frame-handedness": ("Right", MalformedFrame, lambda v: frame_from_dict(_hand(v)),
                         ("features --frames {bad}", _hand)),
    "synth-config-handedness": ("Right", MalformedFrame, lambda v: SynthConfig(handedness=v),
                                ("synth --out {out} --config {bad}", _synth_config)),
    "lift-handedness": ("Right", MalformedFrame,
                        lambda v: lift_keypoints(_FRAME.hand.kp2d, v, default_hand_model(),
                                                 default_intrinsics(_FRAME.w, _FRAME.h)),
                        None),
    "feature-vector-handedness": ("Right", MalformedFrame,
                                  lambda v: feature_vector(_FRAME.hand.kp3d, v), None),
    "pipeline-classifier": ("nn", MalformedConfig,
                            lambda v: PipelineConfig.from_dict(_pipeline(v)),
                            ("stream --frames {frames} --pipeline {bad}", _pipeline)),
    **{f"gesture-{name}": (good, UnknownReference, lambda v, doc=doc: config_from_dict(doc(v)),
                           ("classify --features {features} --gestures {bad}", doc))
       for name, good, doc in (("finger", "Index", _FINGER), ("pair", "IndexMiddle", _PAIR),
                               ("axis", "yaw", _AXIS),
                               ("finger-state", "FullyBent", _FINGER_STATE),
                               ("pair-state", "Apart", _PAIR_STATE))},
    "gestures-schema": ("gestures/1", MalformedConfig,
                        lambda v: config_from_dict(_GESTURES_SCHEMA(v)),
                        ("classify --features {features} --gestures {bad}", _GESTURES_SCHEMA)),
    "model-schema": ("mlp/1", MalformedConfig, lambda v: MlpModel.from_dict(_MODEL_SCHEMA(v)),
                     ("classify --features {features} --model {bad}", _MODEL_SCHEMA)),
    "pipeline-schema": ("pipeline/1", MalformedConfig,
                        lambda v: PipelineConfig.from_dict(_PIPE_SCHEMA(v)),
                        ("stream --frames {frames} --pipeline {bad}", _PIPE_SCHEMA)),
    "hand-model-schema": ("hand_model/1", MalformedConfig,
                          lambda v: HandModel.from_dict(_HAND_MODEL_SCHEMA(v)),
                          ("lift --frames {frames} --model {bad}", _HAND_MODEL_SCHEMA)),
    "synth-gestures": ("OpenPalm", UnknownLabel, check_gesture, None),
    "dataset-label": ("OpenPalm", UnknownLabel, lambda v: _labeled_features(_labeled(v)),
                      ("features --frames {bad}", _labeled)),
    "truth-label": ("OpenPalm", UnknownLabel, lambda v: _label_only(_label(v)),
                    ("eval --pred {labels} --truth {bad}", _label)),
    "prediction-label": ("OpenPalm", UnknownLabel, lambda v: _prediction(_label(v)),
                         ("eval --pred {bad} --truth {labels}", _label)),
    "eval-truth": ("OpenPalm", UnknownLabel, lambda v: eval_classifier(["OpenPalm"], [v]), None),
    "eval-prediction": ("OpenPalm", UnknownLabel, lambda v: eval_classifier([v], ["OpenPalm"]),
                        None),
    "labeled-example": ("OpenPalm", UnknownLabel, lambda v: LabeledExample(np.zeros(12), v), None),
    "focal-loss": ("OpenPalm", UnknownLabel, lambda v: focal_loss(np.full(7, 1 / 7), v), None),
}


def _bad_names(good):
    """A name in the wrong case, an unknown name, and values that are not strings."""
    return (good.swapcase(), "Bogus", None, True, 1, ["Index"], {})


# a null label marks an unlabeled row, and a None prediction a frame with no hand
NULL_IS_ABSENT = {"dataset-label", "eval-prediction"}
CASES = [(site, value) for site, (good, *_) in SITES.items() for value in _bad_names(good)
         if not (value is None and site in NULL_IS_ABSENT)]


@pytest.fixture(scope="module")
def good_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("names")
    files = {"frames": [_ROW], "features": [_FEATURE_ROW], "labels": [_label("OpenPalm")]}
    for name, rows in files.items():
        (root / f"{name}.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    return {name: root / f"{name}.jsonl" for name in files}


@pytest.mark.parametrize("site, value", CASES, ids=[f"{s}-{v!r}" for s, v in CASES])
def test_a_bad_name_raises_the_sites_error(good_files, tmp_path, capsys, site, value):
    _, error, call, cli = SITES[site]
    with pytest.raises(error, match="must be one of"):
        call(value)
    if cli is None:
        return
    argv, doc = cli
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc(value)) + "\n")
    argv = argv.format(**good_files, bad=bad, out=tmp_path / "out.jsonl").split()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}") and err.count("\n") == 1, err
    assert "must be one of" in err, err
