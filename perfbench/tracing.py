"""Spans around the calls into each handgest layer, recorded from outside.

``Tracer.install`` replaces each traced public function, in every loaded
handgest module that references it, by a wrapper that records one span
per call: (name, start, end, parent index, operation id, note).  The
``json`` module the package uses is swapped for a proxy whose encode and
decode calls are spans of the ``jsonio`` layer.  ``uninstall`` restores
every original.  Spans stay in memory; ``write`` dumps them at the end.

The program's own code is not changed: a layer's private helpers (the LM
Jacobian, say) run inside the span of the public function that calls them.
"""

import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# layer -> public functions whose calls become spans
TRACED = {
    "skeleton": ("frame_from_dict", "frame_to_dict"),
    "alignment": ("compute_alignment",),
    "features": ("feature_vector",),
    "heuristic": ("classify_heuristic",),
    "mlp": ("classify_nn", "train", "calibrate_threshold"),
    "lifting": ("initial_pose_from_alignment", "fit_pose"),
    "pipeline": ("step",),
    "harness": ("synth_pose", "eval_classifier"),
}

LAYERS = ("cli", "jsonio") + tuple(TRACED)


def _note_fit(args, kwargs, result):
    return [result.iterations, bool(result.converged)]


def _note_step(args, kwargs, result):
    return list(result[1].actions)


def _note_train(args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs.get("config")
    return [len(args[0]), config.epochs if config is not None else None]


NOTES = {"lifting.fit_pose": _note_fit, "pipeline.step": _note_step,
         "mlp.train": _note_train}


class _JsonProxy:
    """Stands in for the ``json`` module inside handgest modules."""

    def __init__(self, tracer):
        self.loads = tracer.wrap("jsonio.loads", json.loads)
        self.load = tracer.wrap("jsonio.load", json.load)
        self.dumps = tracer.wrap("jsonio.dumps", json.dumps)
        self.dump = tracer.wrap("jsonio.dump", json.dump)

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent, op, note, error]
        self._stack = []
        self._patches = []
        self.op = 0

    def wrap(self, name, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result
        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "handgest" or n.startswith("handgest.")]
        for layer, names in TRACED.items():
            owner = sys.modules[f"handgest.{layer}"]
            for fname in names:
                original = getattr(owner, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        proxy = _JsonProxy(self)
        for module in modules:
            if vars(module).get("json") is json:
                self._patch(module, "json", proxy)

    def _patch(self, module, attr, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path):
        """Spans as gzipped JSON lines; times in microseconds from the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_us", "end_us", "parent",
                                            "op", "note", "error"]}) + "\n")
            for name, start, end, parent, op, note, error in self.spans:
                fh.write(json.dumps([name, round((start - t0) * 1e6, 3),
                                     round((end - t0) * 1e6, 3), parent, op,
                                     note, error]) + "\n")


def self_times(spans):
    """Per-span self time: its duration minus its direct children's."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("skeleton.parse_us", "us"), ("skeleton.serialize_us", "us"),
    ("skeleton.frames", "count"),
    ("jsonio.decode_us", "us"), ("jsonio.encode_us", "us"),
    ("alignment.compute_us", "us"),
    ("features.vector_us_p50", "us"), ("features.vector_us_p99", "us"),
    ("features.calls", "count"),
    ("heuristic.classify_us", "us"), ("heuristic.calls", "count"),
    ("mlp.classify_us", "us"), ("mlp.train_epoch_ms", "ms"),
    ("mlp.calibrate_ms", "ms"), ("mlp.train_rows", "count"),
    ("lifting.seed_us", "us"), ("lifting.fit_ms_p50", "ms"),
    ("lifting.fit_ms_p90", "ms"), ("lifting.iterations_p50", "count"),
    ("lifting.iterations_p90", "count"), ("lifting.ms_per_iter", "ms"),
    ("lifting.max_iter_share", "share"), ("lifting.converged_share", "share"),
    ("lifting.failed_fits", "count"), ("lifting.diverged_fits", "count"),
    ("pipeline.step_classify_us", "us"), ("pipeline.step_idle_us", "us"),
    ("pipeline.detect_calls", "count"), ("pipeline.classify_calls", "count"),
    ("pipeline.classify_share", "share"),
    ("harness.synth_pose_us", "us"), ("harness.eval_ms", "ms"),
    ("cli.self_ms", "ms"),
) + tuple((f"{layer}.self_share", "share") for layer in LAYERS) + (
    ("trace.overhead_share", "share"), ("trace.spans", "count"),
)


def layer_metrics(spans, overhead_share, max_iter):
    """{name: (value, unit, samples)} from the spans of the traced rounds.

    Per-call times are medians unless the name gives a percentile; a layer
    the workload never calls reads 0 with 0 samples.  Self shares divide a
    layer's self time by the traced commands' wall time.
    """
    own = self_times(spans)
    dur = defaultdict(list)
    notes = defaultdict(list)
    self_s = Counter()
    errors = Counter()
    for span, own_s in zip(spans, own):
        name, start, end, _, _, note, error = span
        dur[name].append(end - start)
        notes[name].append(note)
        self_s[name.split(".")[0]] += own_s
        if error is not None and name.startswith("lifting."):
            errors[error] += 1
    wall = sum(e - s for n, s, e, parent, *_ in spans if parent < 0)

    def q(name, pct, scale):
        values = dur[name]
        return (float(np.percentile(values, pct)) * scale if values else 0.0, len(values))

    fits = [(d, n) for d, n in zip(dur["lifting.fit_pose"], notes["lifting.fit_pose"])]
    done = [(d, n) for d, n in fits if n is not None]
    iters = [n[0] for _, n in done]
    steps = notes["pipeline.step"]
    classify_steps = [d for d, n in zip(dur["pipeline.step"], steps) if "classify" in n]
    idle_steps = [d for d, n in zip(dur["pipeline.step"], steps) if "classify" not in n]
    trains = [(d, n) for d, n in zip(dur["mlp.train"], notes["mlp.train"])]
    cli_spans = [d for d, (n, *_rest) in zip(own, spans) if n.startswith("cli.")]

    def med(values, scale=1.0):
        return (float(np.median(values)) * scale if values else 0.0, len(values))

    def share(part, whole):
        return (part / whole if whole else 0.0, whole)

    out = {
        "skeleton.parse_us": q("skeleton.frame_from_dict", 50, 1e6),
        "skeleton.serialize_us": q("skeleton.frame_to_dict", 50, 1e6),
        "skeleton.frames": (len(dur["skeleton.frame_from_dict"]),) * 2,
        "jsonio.decode_us": q("jsonio.loads", 50, 1e6),
        "jsonio.encode_us": q("jsonio.dumps", 50, 1e6),
        "alignment.compute_us": q("alignment.compute_alignment", 50, 1e6),
        "features.vector_us_p50": q("features.feature_vector", 50, 1e6),
        "features.vector_us_p99": q("features.feature_vector", 99, 1e6),
        "features.calls": (len(dur["features.feature_vector"]),) * 2,
        "heuristic.classify_us": q("heuristic.classify_heuristic", 50, 1e6),
        "heuristic.calls": (len(dur["heuristic.classify_heuristic"]),) * 2,
        "mlp.classify_us": q("mlp.classify_nn", 50, 1e6),
        "mlp.train_epoch_ms": med([d / n[1] for d, n in trains if n and n[1]], 1e3),
        "mlp.calibrate_ms": q("mlp.calibrate_threshold", 50, 1e3),
        "mlp.train_rows": med([n[0] for _, n in trains if n]),
        "lifting.seed_us": q("lifting.initial_pose_from_alignment", 50, 1e6),
        "lifting.fit_ms_p50": q("lifting.fit_pose", 50, 1e3),
        "lifting.fit_ms_p90": q("lifting.fit_pose", 90, 1e3),
        "lifting.iterations_p50": (float(np.percentile(iters, 50)) if iters else 0.0, len(iters)),
        "lifting.iterations_p90": (float(np.percentile(iters, 90)) if iters else 0.0, len(iters)),
        "lifting.ms_per_iter": (1e3 * sum(d for d, _ in done) / sum(iters) if sum(iters) else 0.0,
                                len(done)),
        "lifting.max_iter_share": share(sum(i >= max_iter for i in iters), len(done)),
        "lifting.converged_share": share(sum(bool(n[1]) for _, n in done), len(done)),
        "lifting.failed_fits": (sum(errors.values()), len(fits)),
        "lifting.diverged_fits": (errors["DivergedFit"], len(fits)),
        "pipeline.step_classify_us": med(classify_steps, 1e6),
        "pipeline.step_idle_us": med(idle_steps, 1e6),
        "pipeline.detect_calls": (sum("detect" in n for n in steps), len(steps)),
        "pipeline.classify_calls": (len(classify_steps), len(steps)),
        "pipeline.classify_share": share(len(classify_steps), len(steps)),
        "harness.synth_pose_us": q("harness.synth_pose", 50, 1e6),
        "harness.eval_ms": q("harness.eval_classifier", 50, 1e3),
        "cli.self_ms": (1e3 * sum(cli_spans) / len(cli_spans) if cli_spans else 0.0,
                        len(cli_spans)),
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (self_s[layer] / wall if wall else 0.0, len(cli_spans))
    out["trace.overhead_share"] = overhead_share
    out["trace.spans"] = (len(spans), len(spans))
    units = dict(LAYER_METRICS)
    return {name: (value, units[name], n) for name, (value, n) in out.items()}, dict(errors)
