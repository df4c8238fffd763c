"""The ``handgest`` command: one binary, one subcommand per stage.

Subcommands: synth, features, classify, train, calibrate, lift, stream,
eval. Exit codes: 0 success, 2 validation error (bad inputs, schemas,
unknown labels), 3 numerical failure (degenerate geometry, diverged fits).

BLAS/OpenMP threads are pinned to one before numpy loads so that training
and generation are bitwise reproducible; export the variables yourself to
override.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import harness, heuristic, lifting, mlp, pipeline
from .errors import (
    HandgestError,
    MalformedFrame,
    Missing3D,
    NumericalError,
    UnknownLabel,
    ValidationError,
)
from .features import EulerAngles, FeatureVector, feature_vector
from .labels import CLASSES, NEGATIVE_LABEL, check_label, to_class
from .skeleton import (
    decode_config,
    frame_from_dict,
    frame_to_dict,
    is_int,
    open_output,
    read_json,
    read_jsonl,
)

FEATURES_SCHEMA = "features/1"
PREDICTION_SCHEMA = "prediction/1"


# -- shared row helpers --------------------------------------------------------

def _features_from_row(obj, where):
    """(t_us, FeatureVector) from one feature row."""
    t_us = obj.get("t_us", 0)
    if not is_int(t_us):
        raise MalformedFrame(f"{where}: t_us must be an integer, got {t_us!r}")
    try:
        euler = np.asarray(obj["euler"], dtype=np.float64)
        fingers = np.asarray(obj["fingers"], dtype=np.float64)
        pairs = np.asarray(obj["pairs"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFrame(f"{where}: feature row needs numeric "
                             f"euler/fingers/pairs: {exc!r}") from exc
    if euler.shape != (3,) or fingers.shape != (5,) or pairs.shape != (4,):
        raise MalformedFrame(f"{where}: feature row has wrong arity")
    return t_us, FeatureVector(euler=EulerAngles(*map(float, euler)),
                               finger_angles=fingers, pair_angles=pairs)


def _labeled_features(path):
    """(t_us, FeatureVector, label-or-None) from a frames, dataset, or
    features JSONL; frame rows need kp3d."""
    for i, obj in enumerate(read_jsonl(path)):
        where = f"{path}:row {i}"
        label = obj.get("label")
        if label is not None:
            check_label(label, where)
        if "hand" in obj:
            frame = frame_from_dict(obj)
            if frame.hand is None:
                raise MalformedFrame(f"{where}: frame has no hand")
            if frame.hand.kp3d is None:
                raise Missing3D(f"{where}: frame has no 3D keypoints; run lift")
            fv = feature_vector(frame.hand.kp3d, frame.hand.handedness)
            yield frame.t_us, fv, label
        elif "euler" in obj:
            yield (*_features_from_row(obj, where), label)
        else:
            raise MalformedFrame(f"{where}: neither a frame nor a feature row")


def _feature_row(t_us, fv, label):
    row = {"schema": FEATURES_SCHEMA, "t_us": int(t_us)}
    if label is not None:
        row["label"] = label
    row["euler"] = [fv.euler.yaw, fv.euler.pitch, fv.euler.roll]
    row["fingers"] = [float(a) for a in fv.finger_angles]
    row["pairs"] = [float(a) for a in fv.pair_angles]
    return row


# -- subcommands ---------------------------------------------------------------

def cmd_synth(args):
    cfg = decode_config(harness.SynthConfig,
                        read_json(args.config) if args.config else {}, "synth config")
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    gestures = None
    if args.gestures:
        gestures = [g.strip() for g in args.gestures.split(",") if g.strip()]
        for g in gestures:
            check_label(g, "--gestures")
    frames, labels = harness.make_dataset(cfg, args.per_gesture, gestures)
    harness.write_dataset(args.out, frames, labels)
    print(f"wrote {len(frames)} samples to {args.out}", file=sys.stderr)
    return 0


def cmd_features(args):
    n = 0
    with open_output(args.out) as out:
        for t_us, fv, label in _labeled_features(args.frames):
            out.write(json.dumps(_feature_row(t_us, fv, label)) + "\n")
            n += 1
    print(f"wrote {n} feature rows", file=sys.stderr)
    return 0


def cmd_classify(args):
    source = args.features or args.frames
    if source is None:
        raise ValidationError("classify needs --features or --frames")
    if args.model:
        model = mlp.load_model(args.model)
        predict = lambda fv: mlp.classify_nn(model, fv)
    else:
        gcfg = (heuristic.config_from_dict(read_json(args.gestures)) if args.gestures
                else heuristic.default_config())
        predict = lambda fv: heuristic.classify_heuristic(fv, gcfg)
    with open_output(args.out) as out:
        for t_us, fv, _ in _labeled_features(source):
            row = {"schema": PREDICTION_SCHEMA, "t_us": int(t_us),
                   "label": predict(fv)}
            out.write(json.dumps(row) + "\n")
    return 0


def cmd_train(args):
    cfg = mlp.TrainConfig.from_dict(read_json(args.config) if args.config else {})
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    examples = []
    for _, fv, label in _labeled_features(args.data):
        if label is None:
            raise ValidationError(f"{args.data}: training rows need labels")
        examples.append(mlp.LabeledExample(fv, to_class(label)))
    model = mlp.train(examples, cfg)
    mlp.save_model(model, args.out)
    print(f"trained on {len(examples)} examples, "
          f"final train loss {model.history['train_loss'][-1]:.6f}",
          file=sys.stderr)
    return 0


def cmd_calibrate(args):
    model = mlp.load_model(args.model)
    negatives = []
    for _, fv, label in _labeled_features(args.negatives):
        if label is not None and to_class(label) != NEGATIVE_LABEL:
            raise ValidationError(
                f"{args.negatives}: row labeled {label!r} is not a negative")
        negatives.append(mlp.LabeledExample(fv, NEGATIVE_LABEL))
    tau = mlp.calibrate_threshold(model, negatives, args.fpr)
    model.tau = tau
    mlp.save_model(model, args.out or args.model)
    print(f"{tau:.6f}")
    return 0


def cmd_lift(args):
    model = (lifting.load_hand_model(args.model) if args.model
             else lifting.default_hand_model())
    with open_output(args.out) as out:
        for i, obj in enumerate(read_jsonl(args.frames)):
            frame = frame_from_dict(obj)
            if frame.hand is not None:
                intr = lifting.default_intrinsics(frame.w, frame.h)
                try:
                    init = lifting.initial_pose_from_alignment(
                        frame.hand.kp2d, model, intr)
                    result = lifting.fit_pose(frame.hand.kp2d, model, intr, init)
                except NumericalError as exc:
                    # a degenerate frame degrades to kp3d=null, it does not
                    # abort the batch
                    print(f"row {i} (t_us {frame.t_us}): {exc}", file=sys.stderr)
                    hand = dataclasses.replace(frame.hand, kp3d=None)
                else:
                    hand = dataclasses.replace(frame.hand, kp3d=result.points)
                frame = dataclasses.replace(frame, hand=hand)
            row = {}
            if "schema" in obj:
                row["schema"] = obj["schema"]
            if "label" in obj:
                row["label"] = obj["label"]
            row.update(frame_to_dict(frame))
            out.write(json.dumps(row) + "\n")
    return 0


def cmd_stream(args):
    cfg = pipeline.PipelineConfig.from_dict(read_json(args.pipeline))
    classifier = pipeline.make_classifier(cfg)
    state = pipeline.initial_state()
    with open_output(args.out) as out:
        for obj in read_jsonl(args.frames):
            state, result = pipeline.step(state, frame_from_dict(obj), cfg, classifier)
            out.write(json.dumps(result.to_dict()) + "\n")
    if args.stats:
        with open_output(args.stats) as out:
            out.write(json.dumps(state.stats.to_dict()) + "\n")
    return 0


def _labels_only(path, collapse):
    labels = []
    for i, obj in enumerate(read_jsonl(path)):
        label = obj.get("label")
        if label is None:
            raise MalformedFrame(f"{path}:row {i}: missing label")
        check_label(label, f"{path}:row {i}")
        labels.append(to_class(label) if collapse else label)
    return labels


def cmd_eval(args):
    predictions = _labels_only(args.pred, collapse=False)
    for i, p in enumerate(predictions):
        if p not in CLASSES:
            raise UnknownLabel(f"{args.pred}:row {i}: prediction {p!r} "
                               f"outside the classifier vocabulary")
    truths = _labels_only(args.truth, collapse=True)
    report = harness.eval_classifier(predictions, truths)
    with open_output(args.out) as out:
        out.write(json.dumps(report.to_dict(), indent=2) + "\n")
    return 0


# -- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handgest",
        description="Hand gesture recognition over 21-keypoint skeletons.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--config", default=None,
                        help="JSON config file for this subcommand")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a labeled synthetic dataset")
    p.add_argument("--out", required=True, help="dataset JSONL to write")
    p.add_argument("--per-gesture", type=int, default=10)
    p.add_argument("--gestures", default=None,
                   help="comma-separated subset (default: all 21)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", parents=[common],
                       help="frames JSONL -> feature rows")
    p.add_argument("--frames", required=True)
    p.add_argument("--out", default=None, help="default: stdout")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("classify", parents=[common],
                       help="label feature rows or frames")
    p.add_argument("--features", default=None)
    p.add_argument("--frames", default=None)
    p.add_argument("--model", default=None,
                   help="MLP model JSON; omit for the heuristic")
    p.add_argument("--gestures", default=None,
                   help="heuristic gesture config JSON")
    p.add_argument("--out", default=None, help="default: stdout")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("train", parents=[common],
                       help="train the MLP on a labeled dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="model JSON to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", parents=[common],
                       help="set the model acceptance threshold")
    p.add_argument("--model", required=True)
    p.add_argument("--negatives", required=True)
    p.add_argument("--fpr", type=float, required=True)
    p.add_argument("--out", default=None, help="default: rewrite --model")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("lift", parents=[common],
                       help="fit 3D poses to 2D keypoints")
    p.add_argument("--frames", required=True)
    p.add_argument("--model", default=None,
                   help="hand model JSON; default: packaged model")
    p.add_argument("--out", default=None, help="default: stdout")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("stream", parents=[common],
                       help="run the tracking pipeline over a frame stream")
    p.add_argument("--frames", required=True)
    p.add_argument("--pipeline", required=True, help="pipeline config JSON")
    p.add_argument("--out", default=None, help="default: stdout")
    p.add_argument("--stats", default=None, help="stats JSON to write")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("eval", parents=[common],
                       help="score predictions against truth labels")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", default=None, help="default: stdout")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HandgestError as exc:  # base-class fallback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
