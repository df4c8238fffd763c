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
import functools
import sys

import numpy as np

from .errors import (
    HandgestError,
    MalformedFrame,
    NumericalError,
    UnknownLabel,
    ValidationError,
)
from .features import FEATURE_MAX, FEATURE_MIN, FEATURE_PARTS, frame_features
from .labels import CLASSES, NEGATIVE_LABEL, check_gesture, check_label, to_class
from .skeleton import (
    check_keys,
    check_name,
    check_number,
    decode_config,
    float_array,
    frame_from_dict,
    frame_to_dict,
    open_output,
    read_json,
    read_jsonl,
    write_json,
    write_jsonl,
)

FEATURES_SCHEMA = "features/1"
PREDICTION_SCHEMA = "prediction/1"
# a feature row's other keys (schema, t_us, label) pass
FEATURE_ROW_KEYS = frozenset(FEATURE_PARTS)


# -- row parsers: each takes one decoded JSONL row -----------------------------

def _features_from_row(obj):
    """(t_us, (12,) feature array) from one feature row."""
    check_keys(obj, FEATURE_ROW_KEYS, "feature row", None, error=MalformedFrame)
    t_us = check_number(obj.get("t_us", 0), "t_us", -np.inf, integer=True, ends="()",
                        error=MalformedFrame)
    fv = np.concatenate([float_array(obj[key], key, (part.stop - part.start,),
                                     error=MalformedFrame)
                         for key, part in FEATURE_PARTS.items()])
    if not ((FEATURE_MIN <= fv) & (fv <= FEATURE_MAX)).all():  # NaN fails too
        raise MalformedFrame("feature row must be finite and in the ranges features writes: "
                             "yaw, roll [-pi, pi]; pitch [-pi/2, pi/2]; the rest [0, pi]")
    return t_us, fv


def _labeled_features(obj):
    """(t_us, feature array, label-or-None) from a frame, dataset, or
    feature row; frame rows need kp3d."""
    label = obj.get("label")
    if label is not None:
        check_label(label)
    if "hand" in obj:
        frame = frame_from_dict(obj)
        return frame.t_us, frame_features(frame), label
    if "euler" in obj:
        return (*_features_from_row(obj), label)
    raise MalformedFrame("neither a frame nor a feature row")


def _training_example(obj):
    """(feature array, class) of a labeled row."""
    _, fv, label = _labeled_features(obj)
    if label is None:
        raise ValidationError("training rows need labels")
    return fv, to_class(label)


def _negative_example(obj):
    """The feature array of a row that is unlabeled or labeled a negative."""
    _, fv, label = _labeled_features(obj)
    if label is not None and to_class(label) != NEGATIVE_LABEL:
        raise ValidationError(f"row labeled {label!r} is not a negative")
    return fv


def _label_row(obj):
    """The label of a one-key {"label": ...} row, for its caller to check."""
    return check_keys(obj, frozenset({"label"}), "row", None, error=MalformedFrame)["label"]


def _with_seed(cfg, seed):
    """cfg with the --seed override, which the config's own seed rule checks."""
    return cfg if seed is None else dataclasses.replace(cfg, seed=seed)


def _feature_row(t_us, fv, label):
    row = {"schema": FEATURES_SCHEMA, "t_us": int(t_us)}
    if label is not None:
        row["label"] = label
    row.update((key, fv[part].tolist()) for key, part in FEATURE_PARTS.items())
    return row


# -- subcommands ---------------------------------------------------------------
# each imports the stage module it runs, so a command loads only its own stages

def cmd_synth(args):
    from . import harness
    cfg = harness.SynthConfig() if args.config is None else read_json(
        args.config, lambda obj: decode_config(harness.SynthConfig, obj, "synth config"))
    cfg = _with_seed(cfg, args.seed)
    gestures = None
    if args.gestures is not None:
        gestures = [check_gesture(g.strip()) for g in args.gestures.split(",") if g.strip()]
    frames, labels = harness.make_dataset(cfg, args.per_gesture, gestures)
    harness.write_dataset(args.out, frames, labels)
    print(f"wrote {len(frames)} samples to {args.out}", file=sys.stderr)
    return 0


def cmd_features(args):
    n = write_jsonl(args.out, (_feature_row(*row)
                               for row in read_jsonl(args.frames, _labeled_features)))
    print(f"wrote {n} feature rows", file=sys.stderr)
    return 0


def cmd_classify(args):
    from . import pipeline
    source = args.features if args.features is not None else args.frames
    predict = (pipeline.make_predictor("heuristic", args.gestures) if args.model is None
               else pipeline.make_predictor("nn", args.model))
    write_jsonl(args.out, ({"schema": PREDICTION_SCHEMA, "t_us": int(t_us),
                            "label": predict(fv)}
                           for t_us, fv, _ in read_jsonl(source, _labeled_features)))
    return 0


def cmd_train(args):
    from . import mlp
    cfg = _with_seed(mlp.TrainConfig() if args.config is None
                     else read_json(args.config, mlp.TrainConfig.from_dict), args.seed)
    examples = list(read_jsonl(args.data, _training_example))
    model = mlp.train(examples, cfg)
    mlp.save_model(model, args.out)
    print(f"trained on {len(examples)} examples, "
          f"final train loss {model.history['train_loss'][-1]:.6f}",
          file=sys.stderr)
    return 0


def cmd_calibrate(args):
    from . import mlp
    model = mlp.load_model(args.model)
    negatives = list(read_jsonl(args.negatives, _negative_example))
    tau = mlp.calibrate_threshold(model, negatives, args.fpr)
    model.tau = tau
    mlp.save_model(model, args.model if args.out is None else args.out)
    with open_output(None) as out:
        out.write(f"{tau:.6f}\n")
    return 0


def cmd_lift(args):
    from . import lifting
    model = (lifting.default_hand_model() if args.model is None
             else lifting.load_hand_model(args.model))

    def lift(obj):
        frame = frame_from_dict(obj)
        failure = None
        if frame.hand is not None:
            try:
                kp3d = lifting.lift_keypoints(frame.hand.kp2d, frame.hand.handedness, model,
                                              lifting.default_intrinsics(frame.w, frame.h))
            except NumericalError as exc:
                # a degenerate frame degrades to kp3d=null, it does not
                # abort the batch
                failure, kp3d = exc, None
            frame = dataclasses.replace(frame, hand=dataclasses.replace(frame.hand, kp3d=kp3d))
        row = {key: obj[key] for key in ("schema", "label") if key in obj}
        row.update(frame_to_dict(frame))
        return row, failure

    def rows():
        # perfbench's lift check reads the 0-based row index back from the note
        for i, (row, failure) in enumerate(read_jsonl(args.frames, lift)):
            if failure is not None:
                print(f"row {i} (t_us {row['t_us']}): {failure}", file=sys.stderr)
            yield row

    write_jsonl(args.out, rows())
    return 0


def cmd_stream(args):
    from . import pipeline
    cfg = read_json(args.pipeline, pipeline.PipelineConfig.from_dict)
    classifier = pipeline.make_classifier(cfg)
    state = pipeline.initial_state()

    def advance(obj):
        nonlocal state
        state, result = pipeline.step(state, frame_from_dict(obj), cfg, classifier)
        return result

    def results():
        yield from (result.to_dict() for result in read_jsonl(args.frames, advance))
        if args.stats is not None:  # in place before --out, which a failure leaves alone
            write_json(args.stats, state.stats.to_dict())

    write_jsonl(args.out, results())
    return 0


def cmd_eval(args):
    from . import harness
    predictions = list(read_jsonl(args.pred, lambda obj: check_name(
        _label_row(obj), CLASSES, "prediction", error=UnknownLabel)))
    truths = list(read_jsonl(args.truth, lambda obj: check_label(_label_row(obj))))
    report = harness.eval_classifier(predictions, truths)
    write_json(args.out, report.to_dict(), indent=2)
    return 0


# -- parser --------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process:
    argparse leaves a parser as it was when it parses, so every main call
    shares it."""
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

    p = sub.add_parser("features", help="frames JSONL -> feature rows")
    p.add_argument("--frames", required=True)
    p.add_argument("--out", default=None, help="default: stdout")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("classify", help="label feature rows or frames")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--features", default=None)
    source.add_argument("--frames", default=None)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--model", default=None,
                       help="MLP model JSON; omit for the heuristic")
    which.add_argument("--gestures", default=None,
                       help="heuristic gesture config JSON")
    p.add_argument("--out", default=None, help="default: stdout")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("train", parents=[common],
                       help="train the MLP on a labeled dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="model JSON to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="set the model acceptance threshold")
    p.add_argument("--model", required=True)
    p.add_argument("--negatives", required=True)
    p.add_argument("--fpr", type=float, required=True)
    p.add_argument("--out", default=None, help="default: rewrite --model")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("lift", help="fit 3D poses to 2D keypoints")
    p.add_argument("--frames", required=True)
    p.add_argument("--model", default=None,
                   help="hand model JSON; default: packaged model")
    p.add_argument("--out", default=None, help="default: stdout")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("stream", help="run the tracking pipeline over a frame stream")
    p.add_argument("--frames", required=True)
    p.add_argument("--pipeline", required=True, help="pipeline config JSON")
    p.add_argument("--out", default=None, help="default: stdout")
    p.add_argument("--stats", default=None, help="stats JSON to write")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("eval", help="score predictions against truth labels")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", default=None, help="default: stdout")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a kernel that overflows raises its own HandgestError: numpy's
        # warning would only be a second stderr line
        with np.errstate(all="ignore"):
            return args.func(args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except HandgestError as exc:  # ValidationError and the base class
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
