"""The three workloads: seeded inputs, measured rounds, and output checks.

Each workload runs rounds of handgest commands through ``handgest.cli.main``
in this process, one caller waiting for every result (a closed loop), until
the run's seconds are spent.  Every round gets fresh inputs drawn from the
run seed and the round index.  After each round its outputs are checked
outside the timed region; after the last round, round 0 is run again and
its output digest must not change.

A command's standard output goes to an in-memory sink that times each
write, so the per-line latency of a command is the time between two
output lines (the first from the start of the command).

The shared host's speed swings by up to 2x within seconds, and the swing
is common to all code.  Every timed stretch is therefore split at probes,
about every PROBE_S, that time a fixed reference kernel with no handgest
code in it; the work between two probes is divided by their mean kernel
time over REFERENCE_S.  Reported times are thus at nominal machine speed.
Probes run between output lines and between frames, never inside one, and
their own time is left out.  Traced rounds are not probed.

Stream and corpus rounds are alike, so their metrics are medians over
per-round values.  Lift rounds differ (a fit takes 10-200 LM iterations),
so lift pools its fits.
"""

import hashlib
import io
import json
import math
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from handgest import cli, harness, lifting, pipeline, skeleton
from handgest.errors import NumericalError
from handgest.labels import (
    ALL_GESTURES,
    CLASSES,
    NEGATIVE_GESTURES,
    NEGATIVE_LABEL,
    POSITIVE_GESTURES,
)

FRAME_US = 33_333          # 30 fps
WIDTH, HEIGHT = 640, 480
MAX_DETECT_HZ = 5.0        # detector cap, well below the frame rate
LIFT_NOISE_PX = 1.0
LIFT_MAX_RMS_PX = 10.0     # fit_pose's default acceptance limit
LIFT_MAX_ITER = 200        # fit_pose's default iteration cap
MAX_PROBLEMS = 20          # failure messages kept for the report
REFERENCE_S = 0.006        # reference kernel seconds on a quiet 2-core host
PROBE_S = 0.2              # work between two reference probes

_REF_RNG = np.random.default_rng(12345)
_REF_A = _REF_RNG.standard_normal((27, 27))
_REF_A = _REF_A @ _REF_A.T + 27.0 * np.eye(27)
_REF_P = _REF_RNG.standard_normal((54, 21, 3))
_REF_R = np.linalg.qr(_REF_RNG.standard_normal((54, 3, 3)))[0]


def reference_seconds(reps=30):
    """A fixed mix of what handgest spends its time on (batched small-array
    numpy, a 27x27 solve, JSON and scalar Python) with no handgest code, so
    no change to the package can move it."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(reps):
        p = np.einsum("nij,nkj->nki", _REF_R, _REF_P) + i * 1e-3
        z = np.clip(p[:, :, 2], 0.1, None)
        uv = p[:, :, :2] / z[:, :, None]
        acc += float(np.linalg.norm(uv - uv[:, 9:10], axis=2).sum())
        acc += float(np.linalg.solve(_REF_A, _REF_A[:, i % 27])[0])
        acc += len(json.loads(json.dumps({"kp": uv[i % 54, :6].tolist(), "i": i}))["kp"])
        acc += sum(float(v) for v in z[i % 54])
    return perf_counter() - t0


class Clock:
    """Normalizes work durations by reference probes taken between them.

    ``add`` buffers a raw duration; ``tick`` probes once PROBE_S has passed
    since the last probe, and divides the buffered durations by the mean
    slowdown of the probes around them; ``close`` probes a last time.
    Without probing, durations pass through unchanged.
    """

    def __init__(self, probing=True):
        self.probing = probing
        self.out = []          # normalized durations, in order
        self.raw = 0.0
        self._pending = []
        self._ref = reference_seconds() if probing else None
        self._last = perf_counter()

    def add(self, seconds):
        self._pending.append(seconds)
        self.raw += seconds

    def tick(self):
        if self.probing and perf_counter() - self._last >= PROBE_S:
            self._probe()

    def close(self):
        if self.probing:
            self._probe()
        else:
            self.out.extend(self._pending)
            self._pending = []
        return self.out

    def _probe(self):
        ref = reference_seconds()
        slowdown = (self._ref + ref) / (2.0 * REFERENCE_S)
        self.out.extend(d / slowdown for d in self._pending)
        self._pending = []
        self._ref = ref
        self._last = perf_counter()


class _Sink:
    """Stands in for sys.stdout: keeps what is written, and feeds the
    time since the previous line (or the start) to the clock."""

    def __init__(self, clock):
        self.parts = []
        self.clock = clock
        self.mark = perf_counter()

    def write(self, text):
        self.clock.add(perf_counter() - self.mark)
        self.parts.append(text)
        self.clock.tick()
        self.mark = perf_counter()
        return len(text)

    def flush(self):
        pass


class Call:
    """One ``handgest`` command run in process."""

    def __init__(self, argv, tracer=None):
        self.argv = [str(a) for a in argv]
        clock = Clock(probing=tracer is None)
        err = io.StringIO()
        saved = sys.stdout, sys.stderr
        if tracer is not None:
            tracer.install()
        sink = _Sink(clock)
        sys.stdout, sys.stderr = sink, err
        try:
            main = cli.main if tracer is None else tracer.wrap(f"cli.{self.argv[0]}", cli.main)
            self.rc = main(self.argv)
        except SystemExit as exc:  # argparse rejected the arguments
            self.rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback breaks the exit-code contract
            self.rc = f"{type(exc).__name__}: {exc}"
        finally:
            clock.add(perf_counter() - sink.mark)  # after the last line
            sys.stdout, sys.stderr = saved
            if tracer is not None:
                tracer.uninstall()
                tracer.op += 1
        durations = clock.close()
        self.stdout = "".join(sink.parts)
        self.stderr = err.getvalue()
        self.raw_seconds = clock.raw
        self.seconds = sum(durations)         # at nominal machine speed
        self._lines = durations[:-1]

    def line_latencies(self):
        """Seconds, at nominal speed, from the previous output line (or the
        start) to each line; the commands write each JSONL row in one call."""
        return self._lines

    def problem(self):
        if self.rc != 0:
            return f"{self.argv[0]} exited with {self.rc}: {self.stderr.strip()[-300:]}"
        return None


def _digest(*texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8") if isinstance(t, str) else t)
        h.update(b"\0")
    return h.hexdigest()


def _parse_rows(text, what, problems):
    rows = []
    for i, line in enumerate(text.splitlines()):
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            problems.append(f"{what}: line {i + 1} is not JSON: {exc}")
            rows.append(None)
    return rows


def _finite(value, shape):
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        return None
    if arr.shape != shape or not np.all(np.isfinite(arr)):
        return None
    return arr


def _frame_dict(t_us, hand_score, kp2d, kp3d, label=None):
    row = {} if label is None else {"label": label}
    row["t_us"] = int(t_us)
    row["w"] = WIDTH
    row["h"] = HEIGHT
    row["hand"] = None if kp2d is None else {
        "handedness": "Right", "score": float(hand_score),
        "kp2d": kp2d.tolist(), "kp3d": None if kp3d is None else kp3d.tolist()}
    return row


class Workload:
    """Shared bookkeeping: samples, unit accounting, digests."""

    name = ""

    def __init__(self, work, seed, quick, tracer):
        self.work = work
        self.seed = seed
        self.quick = quick
        self.tracer = tracer
        # per-round values or per-fit seconds, 8 bytes each, so memory
        # hardly grows when a faster program fits more rounds in a run
        self.samples = defaultdict(lambda: array("d"))
        self.totals = defaultdict(float)   # pooled counters and seconds
        self.props = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest = None
        self.round_seconds = {"measure": 0.0, "trace": 0.0}
        self.round_frames = {"measure": 0, "trace": 0}

    def unit(self, problems):
        """Count one operation; it failed if any check found a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_PROBLEMS - len(self.problems)
            self.problems.extend(problems[:max(room, 0)])

    def median(self, name, unit, scale=1.0, count=None):
        """(median of the per-round values of ``name``, unit, samples)."""
        values = self.samples[name]
        n = int(self.totals[count]) if count else len(values)
        return (float(np.median(values)) * scale if len(values) else 0.0, unit, n)

    def call(self, argv, tracer):
        call = Call(argv, tracer)
        if tracer is None:
            self.totals["raw_s"] += call.raw_seconds
            self.totals["nominal_s"] += call.seconds
        return call

    def slowdown(self):
        """Raw over nominal seconds of every untraced command."""
        return self.totals["raw_s"] / self.totals["nominal_s"] if self.totals["nominal_s"] else 1.0

    def tracer_for(self, mode):
        return self.tracer if mode == "trace" else None

    def finish(self):
        """Record the measured input properties once the rounds are done."""

    def run(self, seconds):
        """A small round 0 warms up; then measured rounds for ``seconds``.
        A traced run follows each measured round by a traced one on the
        same inputs, which must give the same output; the pair gives the
        tracing overhead.  Round 0 runs again at the end."""
        self.prepare()
        _, _, self.digest = self.round(0, "warmup")
        start = perf_counter()
        r = 1
        last = 0.0
        # stop before a round would end past the deadline
        while r == 1 or (not self.quick and perf_counter() - start + last < seconds):
            t0 = perf_counter()
            for mode in ("measure", "trace") if self.tracer is not None else ("measure",):
                frames, secs, digest = self.round(r, mode)
                self.round_frames[mode] += frames
                self.round_seconds[mode] += secs
                if mode == "trace":
                    self.unit([] if digest == measured else
                              [f"round {r}: traced output differs from untraced"])
                measured = digest
            last = perf_counter() - t0
            r += 1
        self.totals["rounds"] = r - 1
        self.totals["measured_s"] = perf_counter() - start
        _, _, again = self.round(0, "replay")
        self.unit([] if again == self.digest else
                  [f"round 0 replay digest {again[:12]} != {self.digest[:12]}"])

    # Each workload defines prepare(); round(r, mode) -> (frames, seconds,
    # digest), where mode is "warmup" (round 0: small, checked, not
    # measured), "measure", "trace" (the measured round's inputs again,
    # traced) or "replay" (round 0 again); metrics() and e2e() -> {name:
    # (value, unit, samples)}.  Only "warmup" and "measure" rounds are checked.


def pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


# -- corpus --------------------------------------------------------------------

class Corpus(Workload):
    """The README batch workflow on independent labeled poses."""

    name = "corpus"

    def prepare(self):
        self.synth_cfg = self.work / "synth.json"
        self.synth_cfg.write_text(json.dumps({"noise_m": 0.002}))

    def round(self, r, mode):
        tracer = self.tracer_for(mode)
        small = self.quick or r == 0
        self.per_gesture = 2 if small else 30
        self.per_negative = 2 if small else 10
        d = self.work / ("replay" if mode == "replay" else "round")
        d.mkdir(exist_ok=True)
        train_cfg = d / "train.json"
        train_cfg.write_text(json.dumps({"epochs": 2 if small else 30}))
        s = 3 * (self.seed * 10_000 + r)
        train, neg, test = d / "train.jsonl", d / "neg.jsonl", d / "test.jsonl"
        model, pred_h, pred_n = d / "model.json", d / "pred_h.jsonl", d / "pred_n.jsonl"
        synth = ["--config", self.synth_cfg]
        plan = [
            ("synth", ["synth", "--out", train, "--per-gesture", self.per_gesture,
                       "--seed", s] + synth),
            ("synth", ["synth", "--out", neg, "--per-gesture", self.per_negative,
                       "--gestures", ",".join(NEGATIVE_GESTURES), "--seed", s + 1]
             + synth),
            ("synth", ["synth", "--out", test, "--per-gesture", self.per_gesture,
                       "--seed", s + 2] + synth),
            ("train", ["train", "--data", train, "--out", model, "--seed", s,
                       "--config", train_cfg]),
            ("calibrate", ["calibrate", "--model", model, "--negatives", neg,
                           "--fpr", "0.01"]),
            ("classify_heuristic", ["classify", "--frames", test]),
            ("classify_nn", ["classify", "--frames", test, "--model", model]),
            ("eval_heuristic", ["eval", "--pred", pred_h, "--truth", test]),
            ("eval_nn", ["eval", "--pred", pred_n, "--truth", test]),
        ]
        calls = {}
        for key, argv in plan:
            call = self.call(argv, tracer)
            calls.setdefault(key, []).append(call)
            if key == "classify_heuristic":
                pred_h.write_text(call.stdout)
            elif key == "classify_nn":
                pred_n.write_text(call.stdout)
        texts = {p.name: p.read_text() if p.exists() else "" for p in (train, neg, test, model)}
        digest = _digest(*texts.values(), *(c.stdout for cs in calls.values() for c in cs))
        raw = sum(c.raw_seconds for cs in calls.values() for c in cs)
        if mode in ("replay", "trace"):
            frames = sum(len(texts[f].splitlines())
                         for f in ("train.jsonl", "neg.jsonl", "test.jsonl"))
            return frames, raw, digest
        frames = self.check(calls, texts, measure=mode == "measure")
        if mode == "measure":
            v = self.samples
            v["synth_fps"].append(frames["synth"] / sum(c.seconds for c in calls["synth"]))
            v["train_s"].append(calls["train"][0].seconds + calls["calibrate"][0].seconds)
            latencies = []
            for key in ("classify_heuristic", "classify_nn"):
                v[f"{key}_fps"].append(frames["test"] / calls[key][0].seconds)
                latencies += calls[key][0].line_latencies()
            v["frame_s_p50"].append(np.percentile(latencies, 50))
            v["frame_s_p90"].append(np.percentile(latencies, 90))
            v["round_fps"].append(frames["synth"] / sum(c.seconds for cs in calls.values()
                                                        for c in cs))
            self.totals["synth_frames"] += frames["synth"]
            self.totals["test_frames"] += frames["test"]
            self.totals["latencies"] += len(latencies)
        return frames["synth"], raw, digest

    def check(self, calls, texts, measure):
        """One unit per command; returns frame counts for the rates."""
        frames = {"synth": 0, "test": 0}
        truth, t_us = [], []
        sets = (("train.jsonl", ALL_GESTURES, self.per_gesture),
                ("neg.jsonl", NEGATIVE_GESTURES, self.per_negative),
                ("test.jsonl", ALL_GESTURES, self.per_gesture))
        for (fname, gestures, per), call in zip(sets, calls["synth"]):
            problems = [p for p in [call.problem()] if p]
            rows = _parse_rows(texts[fname], fname, problems)
            counts = Counter()
            for i, row in enumerate(rows):
                hand = (row or {}).get("hand") or {}
                if row is None:
                    continue
                if row.get("schema") != "dataset/1" or row.get("label") not in gestures:
                    problems.append(f"{fname}:{i + 1}: bad schema or label")
                elif _finite(hand.get("kp3d"), (21, 3)) is None \
                        or _finite(hand.get("kp2d"), (21, 2)) is None:
                    problems.append(f"{fname}:{i + 1}: keypoints missing or non-finite")
                counts[row.get("label")] += 1
            if counts != Counter({g: per for g in gestures}):
                problems.append(f"{fname}: rows per template {dict(counts)}, expected {per}")
            frames["synth"] += len(rows)
            if fname == "test.jsonl":
                frames["test"] = len(rows)
                truth = [(row or {}).get("label") for row in rows]
                t_us = [(row or {}).get("t_us") for row in rows]
            elif fname == "train.jsonl":
                negatives = sum(1 for row in rows if (row or {}).get("label") in NEGATIVE_GESTURES)
                self.props["rows_per_template"] = per
                self.props["negative_share"] = negatives / max(len(rows), 1)
            self.unit(problems)

        # train: a model file; calibrate: the threshold it printed is stored
        problems = [p for p in [calls["train"][0].problem()] if p]
        model = None
        try:
            model = json.loads(texts["model.json"])
            if model.get("schema") != "mlp/1":
                problems.append(f"model schema {model.get('schema')!r}")
        except (ValueError, AttributeError) as exc:
            problems.append(f"model unreadable: {exc}")
        self.unit(problems)
        problems = [p for p in [calls["calibrate"][0].problem()] if p]
        try:
            tau = float(model["tau"])
            printed = float(calls["calibrate"][0].stdout.strip())
            if not 0.0 <= tau < 1.0 or abs(printed - tau) > 5e-7:
                problems.append(f"calibrate printed {printed}, model holds tau {tau}")
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"calibrate output unreadable: {exc}")
        self.unit(problems)

        # classify: one prediction per test frame, in order, in the vocabulary
        preds = {}
        for key in ("classify_heuristic", "classify_nn"):
            call = calls[key][0]
            problems = [p for p in [call.problem()] if p]
            rows = _parse_rows(call.stdout, key, problems)
            if len(rows) != len(truth):
                problems.append(f"{key}: {len(rows)} predictions for {len(truth)} frames")
            for i, row in enumerate(rows):
                row = row or {}
                if row.get("schema") != "prediction/1" or row.get("label") not in CLASSES \
                        or i >= len(t_us) or row.get("t_us") != t_us[i]:
                    problems.append(f"{key}: row {i + 1} malformed: {str(row)[:80]}")
            preds[key] = [(row or {}).get("label") for row in rows]
            self.unit(problems)

        # eval: the report agrees with a recount of predictions against truth
        for key, pred_key in (("eval_heuristic", "classify_heuristic"),
                              ("eval_nn", "classify_nn")):
            call = calls[key][0]
            problems = [p for p in [call.problem()] if p]
            try:
                report = json.loads(call.stdout)
                expect = _avg_recall(preds[pred_key], truth)
                if report["n"] != len(truth) or not abs(report["avg_recall"] - expect) <= 1e-12:
                    problems.append(f"{key}: avg_recall {report['avg_recall']} over "
                                    f"{report['n']}, recount {expect} over {len(truth)}")
                elif key == "eval_nn" and measure:
                    self.samples["nn_avg_recall"].append(report["avg_recall"])
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"{key}: report unreadable: {exc}")
            self.unit(problems)
        return frames

    def metrics(self):
        return {
            "synth_fps": self.median("synth_fps", "1/s", count="synth_frames"),
            "train_s": self.median("train_s", "s"),
            "classify_heuristic_fps": self.median("classify_heuristic_fps", "1/s",
                                                  count="test_frames"),
            "classify_nn_fps": self.median("classify_nn_fps", "1/s", count="test_frames"),
            "nn_avg_recall": self.median("nn_avg_recall", "share"),
        }

    def e2e(self):
        return {
            "throughput_fps": self.median("round_fps", "1/s", count="synth_frames"),
            "frame_ms_p50": self.median("frame_s_p50", "ms", 1e3, count="latencies"),
            "frame_ms_p90": self.median("frame_s_p90", "ms", 1e3, count="latencies"),
        }


def _avg_recall(preds, truths):
    hit, total = Counter(), Counter()
    for p, t in zip(preds, truths):
        cls = t if t in POSITIVE_GESTURES else NEGATIVE_LABEL
        total[cls] += 1
        hit[cls] += p == cls
    return float(np.mean([hit[g] / total[g] if total[g] else float("nan")
                          for g in POSITIVE_GESTURES]))


# -- stream --------------------------------------------------------------------

def _rot_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    out = np.zeros(theta.shape + (3, 3))
    out[..., 0, 0], out[..., 0, 1] = c, -s
    out[..., 1, 0], out[..., 1, 1] = s, c
    out[..., 2, 2] = 1.0
    return out


class Stream(Workload):
    """A recorded 30 fps stream through ``stream`` and a per-line live loop."""

    name = "stream"

    def prepare(self):
        self.pipe_cfg = self.work / "pipe.json"
        self.pipe_cfg.write_text(json.dumps({"schema": "pipeline/1",
                                             "max_detect_hz": MAX_DETECT_HZ,
                                             "classifier": "heuristic"}))
        # base poses from the package's generator, three per template; every
        # frame moves, turns and jitters one of them, so no skeleton repeats
        cfg = harness.SynthConfig(seed=self.seed, width=WIDTH, height=HEIGHT)
        n = 3 * len(ALL_GESTURES)
        self.pool = np.stack([
            harness.synth_pose(ALL_GESTURES[i % len(ALL_GESTURES)], cfg,
                               harness.sample_rng(self.seed, i))[0].hand.kp3d
            for i in range(n)])
        self.focal = float(max(WIDTH, HEIGHT))
        self.inputs = Counter()

    def recording(self, rng, first_frame, seen, count=True):
        """(JSONL lines, t_us list, usable flags) for one recording; adds a
        hash of every skeleton to ``seen``.

        Gesture holds of 20-60 frames drift and turn slowly with 1 mm
        keypoint noise; 2% of held frames lose the hand, 5% have a score
        under the tracking threshold, and 60% of holds end in a gap of up
        to 12 frames with no hand.
        """
        lines, t_us, usable = [], [], []
        while len(lines) < self.frames:
            length = int(rng.integers(20, 61))
            base = self.pool[rng.integers(len(self.pool))]
            center = base[[5, 9, 17]].mean(axis=0)
            theta = np.cumsum(rng.normal(0.0, 0.01, length))
            shift = np.clip(np.cumsum(rng.normal(0.0, 0.001, (length, 3)), axis=0),
                            -0.03, 0.03)
            kp3d = (np.einsum("tij,kj->tki", _rot_z(theta), base - center)
                    + center + shift[:, None, :]
                    + rng.normal(0.0, 0.001, (length, 21, 3)))
            kp2d = (self.focal * kp3d[..., :2] / kp3d[..., 2:]
                    + np.array([WIDTH / 2.0, HEIGHT / 2.0])
                    + rng.normal(0.0, 0.5, (length, 21, 2)))
            u = rng.random(length)
            score = np.where(u < 0.07, rng.uniform(0.05, 0.45, length),
                             rng.uniform(0.6, 1.0, length))
            gap = int(rng.integers(1, 13)) if rng.random() < 0.6 else 0
            for k in range(length + gap):
                t = (first_frame + len(lines)) * FRAME_US
                if k >= length or u[k] < 0.02:
                    row = _frame_dict(t, None, None, None)
                    kind, ok = "no_hand", False
                else:
                    row = _frame_dict(t, score[k], kp2d[k], kp3d[k])
                    ok = bool(score[k] >= 0.5)
                    kind = "hand" if ok else "low_score"
                    seen.append(hashlib.sha1(kp3d[k].tobytes()).digest())
                if count:
                    self.inputs[kind] += 1
                lines.append(json.dumps(row))
                t_us.append(t)
                usable.append(ok)
                if len(lines) == self.frames:
                    break
        if count:
            self.inputs["frames"] += len(lines)
        return lines, t_us, usable

    def live(self, lines):
        """Each line as it arrives: parse, step, serialize; per-line seconds."""
        with open(self.pipe_cfg, encoding="utf-8") as fh:
            cfg = pipeline.load_pipeline_config(fh)
        classifier = pipeline.make_classifier(cfg)
        state = pipeline.initial_state()
        out, clock = [], Clock()
        for line in lines:
            t0 = perf_counter()
            frame = skeleton.frame_from_dict(json.loads(line))
            state, result = pipeline.step(state, frame, cfg, classifier)
            text = json.dumps(result.to_dict())
            clock.add(perf_counter() - t0)
            out.append(text)
            clock.tick()
        return out, clock.close(), state.stats.to_dict()

    def round(self, r, mode):
        tracer = self.tracer_for(mode)
        self.frames = 150 if self.quick or r == 0 else 1800   # one minute of video
        rng = np.random.default_rng([self.seed, r])
        first = 2 * r * 1800
        seen = []
        lines, t_us, usable = self.recording(rng, first, seen, count=mode == "measure")
        n = len(lines)
        path = self.work / ("replay.jsonl" if mode == "replay" else "stream.jsonl")
        stats_path = self.work / "stats.json"
        stats_path.unlink(missing_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
        call = self.call(["stream", "--frames", path, "--pipeline", self.pipe_cfg,
                          "--stats", stats_path], tracer)
        stats_text = stats_path.read_text() if stats_path.exists() else ""
        digest = _digest(call.stdout, stats_text)
        if mode == "replay":
            # the live loop must reproduce the command's output exactly
            live_out, _, _ = self.live(lines)
            self.unit([] if "".join(x + "\n" for x in live_out) == call.stdout else
                      ["live loop output differs from the stream command's"])
        if mode in ("replay", "trace"):
            return n, call.raw_seconds, digest
        del lines  # the live recording is next; peak memory should not vary
        problems = [p for p in [call.problem()] if p]
        try:
            stats = json.loads(stats_text)
        except ValueError as exc:
            problems.append(f"stats unreadable: {exc}")
            stats = {}
        outputs = call.stdout.splitlines()
        self.check(outputs, stats, t_us, usable, problems, mode == "measure")
        del outputs
        if mode == "measure":
            self.samples["stream_fps"].append(n / call.seconds)
            self.totals["stream_frames"] += n
        if mode in ("warmup", "measure") and self.tracer is None:
            live_lines, live_t, live_usable = self.recording(rng, first + self.frames, seen,
                                                             count=mode == "measure")
            live_out, seconds, live_stats = self.live(live_lines)
            self.check(live_out, live_stats, live_t, live_usable, [], mode == "measure")
            if mode == "measure":
                labeled = [s for text, s in zip(live_out, seconds) if '"label": null' not in text]
                for q in (50, 90, 99) if labeled else ():
                    self.samples[f"labeled_s_p{q}"].append(np.percentile(labeled, q))
                self.totals["labeled"] += len(labeled)
        if mode in ("warmup", "measure"):
            repeats = len(seen) - len(set(seen))
            self.unit([f"{repeats} skeletons repeat within round {r}"] if repeats else [])
        return n, call.raw_seconds, digest

    def check(self, outputs, stats, t_us, usable, problems, count):
        """One unit per output frame; problems that concern the whole
        recording fail every frame of it."""
        if len(outputs) != len(t_us):
            problems.append(f"{len(outputs)} outputs for {len(t_us)} frames")
        duration_s = (t_us[-1] - t_us[0]) / 1e6
        bound = math.ceil(duration_s * MAX_DETECT_HZ) + 1
        counts = Counter()
        per_frame = []
        for i, text in enumerate(outputs):
            bad = []
            try:
                row = json.loads(text)
                actions = row["actions"]
                labeled = row["label"] is not None
                if row["schema"] != "frame_output/1" or row["mode"] not in ("Tracked", "Untracked") \
                        or i >= len(t_us) or row["timestamp_us"] != t_us[i]:
                    bad.append(f"frame {i}: malformed output {text[:80]}")
                elif labeled != ("classify" in actions) or (labeled and not usable[i]):
                    bad.append(f"frame {i}: label {row['label']!r} with actions {actions}"
                               f" on a {'usable' if usable[i] else 'unusable'} hand")
                counts["detect"] += "detect" in actions
                counts["classify"] += labeled
                counts[row["mode"]] += 1
            except (ValueError, KeyError, TypeError) as exc:
                bad.append(f"frame {i}: unreadable output: {exc}")
            per_frame.append(bad)
        expect = {"detect_invocations": counts["detect"],
                  "classify_invocations": counts["classify"],
                  "tracked_frames": counts["Tracked"],
                  "untracked_frames": counts["Untracked"]}
        if any(stats.get(k) != v for k, v in expect.items()):
            problems.append(f"stats {stats} disagree with the outputs {expect}")
        if not counts["detect"] <= bound:
            problems.append(f"{counts['detect']} detections over {duration_s:.3f} s "
                            f"exceed ceil(duration x {MAX_DETECT_HZ}) + 1 = {bound}")
        if count:
            self.totals["classified"] += counts["classify"]
            self.totals["checked_frames"] += len(outputs)
        for bad in per_frame:
            self.unit(bad + problems)
        if not per_frame:
            self.unit(problems or ["no output"])

    def finish(self):
        frames = self.inputs["frames"]
        self.props.update({
            "classified_share": self.totals["classified"] / max(self.totals["checked_frames"], 1),
            "no_hand_share": self.inputs["no_hand"] / max(frames, 1),
            "low_score_share": self.inputs["low_score"] / max(frames, 1),
            "max_detect_hz": MAX_DETECT_HZ,
        })

    def metrics(self):
        return {
            "stream_fps": self.median("stream_fps", "1/s", count="stream_frames"),
            "labeled_frame_us_p50": self.median("labeled_s_p50", "us", 1e6, count="labeled"),
            "labeled_frame_us_p99": self.median("labeled_s_p99", "us", 1e6, count="labeled"),
        }

    def e2e(self):
        return {
            "throughput_fps": self.median("stream_fps", "1/s", count="stream_frames"),
            "frame_ms_p50": self.median("labeled_s_p50", "ms", 1e3, count="labeled"),
            "frame_ms_p90": self.median("labeled_s_p90", "ms", 1e3, count="labeled"),
        }


# -- lift ----------------------------------------------------------------------

class Lift(Workload):
    """2D-only frames of independent poses through ``lift``."""

    name = "lift"

    def prepare(self):
        self.cfg = harness.SynthConfig(seed=self.seed, noise_px=LIFT_NOISE_PX,
                                       width=WIDTH, height=HEIGHT)
        self.failures = Counter()
        self.null_rows = []   # (kp2d, measured?, problems) of rows lifted to null

    def round(self, r, mode):
        tracer = self.tracer_for(mode)
        # one frame per template per round, so every round has the same mix
        chunk = 3 if self.quick or r == 0 else len(ALL_GESTURES)
        truth, lines, kp2ds = [], [], []
        for k in range(chunk):
            j = r * len(ALL_GESTURES) + k
            label = ALL_GESTURES[j % len(ALL_GESTURES)]
            frame, _ = harness.synth_pose(label, self.cfg, harness.sample_rng(self.seed, j),
                                          t_us=j * FRAME_US)
            truth.append(frame.hand.kp3d)
            kp2ds.append(frame.hand.kp2d)
            lines.append(json.dumps(_frame_dict(frame.t_us, 1.0, frame.hand.kp2d, None,
                                                label=label)))
        path = self.work / ("replay.jsonl" if mode == "replay" else "lift.jsonl")
        path.write_text("\n".join(lines) + "\n")
        call = self.call(["lift", "--frames", path], tracer)
        digest = _digest(call.stdout)
        if mode in ("replay", "trace"):
            return len(lines), call.raw_seconds, digest
        self.check(call, lines, kp2ds, truth, count=mode == "measure")
        if mode == "measure":
            self.totals["lift_frames"] += len(lines)
            self.totals["lift_s"] += call.seconds
            self.samples["fit_s"].extend(call.line_latencies())
        return len(lines), call.raw_seconds, digest

    def check(self, call, lines, kp2ds, truth, count):
        """One unit per frame: finite kp3d that reprojects within the fit's
        limit, or null with a failure the command reported (the refit that
        must raise again waits until the measured rounds are over)."""
        problems = [p for p in [call.problem()] if p]
        outputs = _parse_rows(call.stdout, "lift", problems)
        if len(outputs) != len(lines):
            problems.append(f"{len(outputs)} outputs for {len(lines)} frames")
        model = lifting.default_hand_model()
        intr = lifting.default_intrinsics(WIDTH, HEIGHT)
        f, c = intr.f, np.array([intr.cx, intr.cy])
        reported = call.stderr.splitlines()
        for i, row in enumerate(outputs):
            bad = list(problems)
            source = json.loads(lines[i])
            hand = (row or {}).get("hand") or {}
            if row is None or row.get("label") != source["label"] \
                    or row.get("t_us") != source["t_us"] \
                    or _finite(hand.get("kp2d"), (21, 2)) is None \
                    or not np.array_equal(np.asarray(hand["kp2d"]), kp2ds[i]):
                bad.append(f"row {i}: output does not carry its input frame")
            elif hand.get("kp3d") is None:
                if not any(line.startswith(f"row {i} ") for line in reported):
                    bad.append(f"row {i}: kp3d is null but no failure was reported")
                self.null_rows.append((kp2ds[i], count, bad))
                continue
            else:
                kp3d = _finite(hand["kp3d"], (21, 3))
                if kp3d is None or not np.all(kp3d[:, 2] > 0.0):
                    bad.append(f"row {i}: kp3d not finite or behind the camera")
                else:
                    proj = f * kp3d[:, :2] / kp3d[:, 2:] + c
                    rms = float(np.sqrt(np.mean(np.sum((proj - kp2ds[i]) ** 2, axis=1))))
                    if not rms <= LIFT_MAX_RMS_PX:
                        bad.append(f"row {i}: reprojection rms {rms:.2f} px")
                    err = np.linalg.norm((kp3d - kp3d[9]) - (truth[i] - truth[i][9]), axis=1)
                    if count:
                        self.samples["lift_err_mm"].append(1e3 * float(np.mean(err)))
            self.unit(bad)
        if not outputs:
            self.unit(problems or ["no output"])

    def finish(self):
        """Refit each row lifted to null: it must fail again; its class is
        the row's failure class."""
        model = lifting.default_hand_model()
        intr = lifting.default_intrinsics(WIDTH, HEIGHT)
        for kp2d, count, bad in self.null_rows:
            try:
                init = lifting.initial_pose_from_alignment(kp2d, model, intr)
                lifting.fit_pose(kp2d, model, intr, init)
                bad.append("a row lifted to null refits without error")
            except NumericalError as exc:
                if count:
                    self.failures[type(exc).__name__] += 1
            self.unit(bad)
        n = len(self.samples["lift_err_mm"]) + sum(self.failures.values())
        self.props.update({
            "noise_px": LIFT_NOISE_PX,
            "null_share": sum(self.failures.values()) / max(n, 1),
            "failures_by_class": dict(self.failures),
        })

    def metrics(self):
        ms = [1e3 * s for s in self.samples["fit_s"]]
        err = self.samples["lift_err_mm"]
        return {
            "lift_fps": (self.totals["lift_frames"] / self.totals["lift_s"]
                         if self.totals["lift_s"] else 0.0, "1/s", int(self.totals["lift_frames"])),
            "fit_ms_p50": (pct(ms, 50), "ms", len(ms)),
            "fit_ms_p90": (pct(ms, 90), "ms", len(ms)),
            "lift_err_mm": (float(np.mean(err)) if err else 0.0, "mm", len(err)),
        }

    def e2e(self):
        m = self.metrics()
        return {"throughput_fps": m["lift_fps"], "frame_ms_p50": m["fit_ms_p50"],
                "frame_ms_p90": m["fit_ms_p90"]}


WORKLOADS = {w.name: w for w in (Corpus, Stream, Lift)}
