"""Every decoder of a JSON document, swept one mutation at a time.

Each document kind starts from one valid decoded document. A mutation
deletes one key of one object, adds an unknown key to it, or puts one value
of each JSON type in one place, the document itself included; of an array,
only the first element is visited. The decoder must return or raise a
ValidationError whose message is the package's own words, not the repr of a
KeyError or TypeError, or numpy's.
"""

import dataclasses
import json
from importlib.resources import files

import numpy as np
import pytest

from handgest import cli, harness, mlp, pipeline
from handgest.errors import ValidationError
from handgest.heuristic import DEFAULT_CONFIG_JSON, config_from_dict
from handgest.lifting import HandModel
from handgest.skeleton import decode_config, frame_from_dict, frame_to_dict

# one value of each JSON type, and an integer too large for a float
JSON_VALUES = (None, True, 7, 10 ** 400, 0.5, "x", [0.5], {"k": 0})
# what a message showed when a decoder caught and printed whatever it met
FOREIGN_WORDS = ("KeyError(", "TypeError(", "ValueError(", "is not iterable", "inhomogeneous")


def _json(obj):
    return json.loads(json.dumps(obj))


def _documents():
    """kind -> (decoder, one valid decoded document)."""
    frame, label = harness.synth_pose("Victory", harness.SynthConfig(),
                                      harness.sample_rng(0, 0))
    t_us, fv, _ = cli._labeled_features(frame_to_dict(frame))
    model = mlp.MlpModel([np.zeros(shape) for shape in zip(mlp.LAYER_SIZES[1:],
                                                           mlp.LAYER_SIZES)],
                         [np.zeros(n) for n in mlp.LAYER_SIZES[1:]],
                         np.zeros(12), np.ones(12), tau=0.5)
    return {
        "frame-row": (frame_from_dict,
                      {"schema": "dataset/1", "label": label, **frame_to_dict(frame)}),
        "feature-row": (cli._features_from_row, cli._feature_row(t_us, fv, label)),
        "synth-config": (lambda obj: decode_config(harness.SynthConfig, obj, "synth config"),
                         _json(dataclasses.asdict(harness.SynthConfig()))),
        "train-config": (mlp.TrainConfig.from_dict, _json(dataclasses.asdict(mlp.TrainConfig()))),
        "pipeline-config": (pipeline.PipelineConfig.from_dict,
                            {"schema": "pipeline/1", "max_detect_hz": 10.0,
                             "track_loss_frames": 2, "min_track_score": 0.5,
                             "classifier": "heuristic", "classifier_ref": None}),
        "gesture-config": (config_from_dict, DEFAULT_CONFIG_JSON),
        "mlp-model": (mlp.MlpModel.from_dict, _json(model.to_dict())),
        "hand-model": (HandModel.from_dict,
                       json.loads((files("handgest") / "data" / "hand_model.json").read_text())),
    }


DOCUMENTS = _documents()


def _replaced(node, path, make):
    """A copy of node with the value at path replaced by make(old value);
    only the containers along the path are copied."""
    if not path:
        return make(node)
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], make)
    return copy


def _sweep(root):
    """(description, mutated document) for every mutation of root."""
    places = [((), root)]
    for path, node in places:
        children = (node.items() if isinstance(node, dict)
                    else enumerate(node[:1]) if isinstance(node, list) else ())
        places += [(path + (key,), child) for key, child in children]
    for path, node in places:
        if isinstance(node, dict):
            for key in node:
                yield f"delete {path + (key,)}", _replaced(
                    root, path, lambda obj, key=key: {k: v for k, v in obj.items() if k != key})
            yield f"add a key at {path}", _replaced(root, path, lambda obj: {**obj, "unknown": 0})
        for value in JSON_VALUES:
            yield f"{path} = {value!r:.20}", _replaced(root, path, lambda _, value=value: value)


@pytest.mark.parametrize("kind", list(DOCUMENTS))
def test_each_mutation_returns_or_raises_a_validation_error_in_own_words(kind):
    decode, doc = DOCUMENTS[kind]
    decode(doc)
    faults, count = [], 0
    for description, mutated in _sweep(doc):
        count += 1
        try:
            decode(mutated)
        except ValidationError as exc:
            if any(word in str(exc) for word in FOREIGN_WORDS):
                faults.append(f"{description}: {exc}")
        except Exception as exc:  # the fault this test is for
            faults.append(f"{description}: escaped {exc!r}")
    assert faults == [], f"{len(faults)} of {count} mutations"
    assert count > 20

