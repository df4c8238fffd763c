"""Quantitative acceptance checks at corpus scale.

Each test exercises one numbered criterion end to end, measures its own
wall-clock runtime where one is budgeted, and records a one-line verdict
through the ``criterion`` fixture.
"""

import json
import math
import time

import numpy as np

from conftest import run_handgest
from handgest.alignment import compute_alignment, rotation_vector
from handgest.features import euler_from_rotation, feature_vector, rotation_from_euler
from handgest.harness import (
    SynthConfig,
    eval_classifier,
    make_alignment_corpus,
    make_dataset,
    sample_rng,
    synth_params,
    synth_pose,
)
from handgest.heuristic import classify_heuristic, default_config
from handgest.labels import ALL_GESTURES, CLASSES, NEGATIVE_GESTURES, to_class
from handgest.lifting import (
    JOINT_BOXES,
    JOINTS,
    ROTVEC,
    TRANSLATION,
    default_hand_model,
    default_intrinsics,
    fit_pose,
    forward_kinematics,
    normalize_world,
    project,
)
from handgest.mlp import (
    TrainConfig,
    calibrate_threshold,
    classify_nn,
    focal_loss,
    forward,
    gradient_check,
    train,
)
from handgest.mlp import LAYER_SIZES, NEGATIVE_INDEX, MlpModel
from handgest.pipeline import PipelineConfig, run_stream
from handgest.skeleton import HandFrame, HandSkeleton


def random_rotation_matrix(rng):
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_criterion_1_alignment_non_degeneracy(criterion):
    t0 = time.perf_counter()
    frames = make_alignment_corpus(SynthConfig(seed=0), 10_000)
    good = naive_frontal_violations = frontal = 0
    for i, frame in enumerate(frames):
        kp2d = frame.hand.kp2d
        bound = 0.05 * compute_alignment(kp2d).scale_px
        if np.linalg.norm(rotation_vector(kp2d)) >= bound:
            good += 1
        if i % 5 != 0:   # the frontal-view samples
            frontal += 1
            if np.linalg.norm(kp2d[9] - kp2d[0]) < bound:
                naive_frontal_violations += 1
    dt = time.perf_counter() - t0
    rate = good / len(frames)
    naive_rate = naive_frontal_violations / frontal
    ok = rate >= 0.999 and naive_rate > 0.0 and dt < 10.0
    criterion(1, ok, f"rotation vector >= 0.05*scale on {rate:.2%} of 10k "
                     f"(need >=99.9%), naive vector fails on {naive_rate:.1%} "
                     f"of frontal views (need >0%), {dt:.1f}s (<10s)")
    assert rate >= 0.999
    assert naive_rate > 0.0
    assert dt < 10.0


def test_criterion_2_intrinsic_invariance(criterion):
    t0 = time.perf_counter()
    cfg = SynthConfig(seed=2)
    worst = 0.0
    min_euler_shift = np.inf
    for i in range(1000):
        label = ALL_GESTURES[i % len(ALL_GESTURES)]
        frame, _ = synth_pose(label, cfg, sample_rng(cfg.seed, i))
        hand = frame.hand
        rng = np.random.default_rng([909, i])
        q = random_rotation_matrix(rng)
        s = float(rng.uniform(0.2, 5.0))
        t = rng.normal(0.0, 0.5, size=3)
        moved = hand.kp3d @ q.T * s + t
        fv = feature_vector(hand.kp3d, hand.handedness)
        fv2 = feature_vector(moved, hand.handedness)
        worst = max(worst,
                    float(np.max(np.abs(fv2[3:8] - fv[3:8]))),
                    float(np.max(np.abs(fv2[8:] - fv[8:]))))
        min_euler_shift = min(min_euler_shift, float(np.max(np.abs(
            fv2[0:3] - fv[0:3]))))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and min_euler_shift > 1e-6 and dt < 5.0
    criterion(2, ok, f"1000 rigid+scale transforms: max intrinsic drift "
                     f"{worst:.2e} rad (<=1e-9), euler always moved "
                     f"(min shift {min_euler_shift:.2e}), {dt:.1f}s (<5s)")
    assert worst <= 1e-9
    assert min_euler_shift > 1e-6
    assert dt < 5.0


def test_criterion_3_euler_round_trip(criterion):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(9000):
        r = random_rotation_matrix(rng)
        back = rotation_from_euler(euler_from_rotation(r))
        worst = max(worst, float(np.linalg.norm(back - r)))
    gimbal_worst = 0.0
    for _ in range(1000):
        pitch = np.pi / 2.0 if rng.random() < 0.5 else -np.pi / 2.0
        e = (float(rng.uniform(-np.pi, np.pi)), pitch,
             float(rng.uniform(-np.pi, np.pi)))
        r = rotation_from_euler(e)
        back = rotation_from_euler(euler_from_rotation(r))
        gimbal_worst = max(gimbal_worst, float(np.linalg.norm(back - r)))
    ok = worst <= 1e-8 and gimbal_worst <= 1e-8
    criterion(3, ok, f"10k round trips: worst Frobenius {worst:.2e} generic, "
                     f"{gimbal_worst:.2e} forced gimbal (both <=1e-8)")
    assert worst <= 1e-8
    assert gimbal_worst <= 1e-8


def test_criterion_4_heuristic_corpus(criterion):
    t0 = time.perf_counter()
    frames, labels = make_dataset(SynthConfig(seed=0), 500)
    cfg = default_config()
    preds = [classify_heuristic(
        feature_vector(f.hand.kp3d, f.hand.handedness), cfg) for f in frames]
    report = eval_classifier(preds, labels)
    dt = time.perf_counter() - t0
    min_recall = min(report.recalls.values())
    ok = min_recall >= 0.95 and report.fpr <= 0.02 and dt < 30.0
    criterion(4, ok, f"6x500 positives + 15x500 negatives at 5deg jitter: "
                     f"min recall {min_recall:.1%} (>=95%), FPR {report.fpr:.2%} "
                     f"(<=2%), {dt:.1f}s (<30s)")
    assert len(labels) == 500 * len(ALL_GESTURES)
    assert len(NEGATIVE_GESTURES) == 15
    assert min_recall >= 0.95
    assert report.fpr <= 0.02
    assert dt < 30.0


def he_scale_model(rng):
    weights, biases = [], []
    for fan_in, fan_out in zip(LAYER_SIZES, LAYER_SIZES[1:]):
        lim = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-lim, lim, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-0.1, 0.1, size=fan_out))
    return MlpModel(weights, biases, np.zeros(12), np.ones(12))


def test_criterion_5a_gradient_check(criterion):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        model = he_scale_model(rng)
        features, label = rng.normal(size=12), CLASSES[int(rng.integers(len(CLASSES)))]
        gamma = float(rng.uniform(0.0, 4.0))
        worst = max(worst, gradient_check(model, features, label, gamma=gamma))
    ok = worst <= 1e-4
    criterion("5a", ok, f"gradient check over 100 draws: worst relative "
                        f"error {worst:.2e} (<=1e-4)")
    assert worst <= 1e-4


def test_criterion_5b_focal_reduces_to_cross_entropy(criterion):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        raw = rng.uniform(1e-6, 1.0, size=len(CLASSES))
        probs = raw / raw.sum()
        label = CLASSES[int(rng.integers(len(CLASSES)))]
        ce = -math.log(probs[CLASSES.index(label)])
        worst = max(worst, abs(focal_loss(probs, label, gamma=0.0) - ce))
    ok = worst <= 1e-12
    criterion("5b", ok, f"focal(gamma=0) vs cross-entropy over 1000 "
                        f"distributions: worst gap {worst:.2e} (<=1e-12)")
    assert worst <= 1e-12


def feature_examples(cfg, per_gesture):
    frames, labels = make_dataset(cfg, per_gesture)
    out = []
    for frame, label in zip(frames, labels):
        fv = feature_vector(frame.hand.kp3d, frame.hand.handedness)
        out.append((fv, to_class(label)))
    return out


def test_criterion_5c_trained_classifier(criterion):
    train_data = feature_examples(SynthConfig(seed=101, noise_m=0.003), 476)
    assert len(train_data) == 476 * 21   # ~10k samples

    t0 = time.perf_counter()
    model = train(train_data, TrainConfig(seed=7, epochs=150))
    train_dt = time.perf_counter() - t0

    calibration = [fv for fv, label in feature_examples(
        SynthConfig(seed=303, noise_m=0.003), 100) if label == "Negative"]
    tau = calibrate_threshold(model, calibration, 0.01)
    model.tau = tau
    cal_scores = np.array([float(np.max(np.delete(forward(model, fv), NEGATIVE_INDEX)))
                           for fv in calibration])
    cal_fpr = float(np.mean(cal_scores > tau))

    held_out = feature_examples(SynthConfig(seed=202, noise_m=0.003), 100)
    preds = [classify_nn(model, fv) for fv, _ in held_out]
    report = eval_classifier(preds, [label for _, label in held_out])

    ok = (report.avg_recall >= 0.90 and cal_fpr <= 0.01 and train_dt < 300.0)
    criterion("5c", ok, f"10k-sample training: held-out avg recall "
                        f"{report.avg_recall:.1%} (>=90%), calibration FPR "
                        f"{cal_fpr:.2%} (<=1%, held-out {report.fpr:.2%} "
                        f"reported), tau {tau:.3f}, train {train_dt:.0f}s (<300s)")
    assert report.avg_recall >= 0.90
    assert cal_fpr <= 0.01
    assert train_dt < 300.0


def perturbed_init(truth, rng):
    init = truth.copy()
    init[ROTVEC] += rng.normal(0.0, 0.005, 3)
    init[TRANSLATION] += rng.normal(0.0, 0.00125, 3)
    init[JOINTS] = np.clip(init[JOINTS] + rng.normal(0.0, 0.005, len(JOINT_BOXES)),
                           JOINT_BOXES[:, 0], JOINT_BOXES[:, 1])
    return init


def test_criterion_6_lifting_round_trip(criterion):
    t0 = time.perf_counter()
    model = default_hand_model()
    intr = default_intrinsics(640, 480)
    cfg = SynthConfig(seed=5)
    init_rng = np.random.default_rng(0)
    noise_rng = np.random.default_rng(7)

    errs_m, rms_sq, noisy_rms_sq = [], [], []
    monotone = 0
    runs = 0
    for i in range(200):
        truth = synth_params(ALL_GESTURES[i % len(ALL_GESTURES)], cfg,
                             sample_rng(cfg.seed, i))
        gt = forward_kinematics(model, truth)
        obs = project(gt, intr)

        res = fit_pose(obs, model, intr, perturbed_init(truth, init_rng))
        err = np.linalg.norm(
            normalize_world(res.points) - normalize_world(gt), axis=1)
        errs_m.append(float(err.mean()))
        rms_sq.append(res.rms_px ** 2)
        monotone += bool(np.all(np.diff(res.cost_history) <= 0.0))
        runs += 1

        noisy = obs + noise_rng.normal(0.0, 1.0, size=obs.shape)
        res_n = fit_pose(noisy, model, intr, perturbed_init(truth, init_rng))
        noisy_rms_sq.append(res_n.rms_px ** 2)
        monotone += bool(np.all(np.diff(res_n.cost_history) <= 0.0))
        runs += 1

    dt = time.perf_counter() - t0
    mean_3d_mm = 1000.0 * float(np.mean(errs_m))
    clean_rms = float(np.sqrt(np.mean(rms_sq)))
    noisy_rms = float(np.sqrt(np.mean(noisy_rms_sq)))
    ok = (mean_3d_mm <= 5.0 and clean_rms <= 1e-3 and noisy_rms <= 2.0
          and monotone == runs and dt < 120.0)
    criterion(6, ok, f"200 noiseless fits: mean 3D {mean_3d_mm:.2e} mm (<=5), "
                     f"reprojection RMS {clean_rms:.2e} px (<=1e-3); 1px noise "
                     f"RMS {noisy_rms:.2f} px (<=2); cost monotone {monotone}/"
                     f"{runs}; {dt:.0f}s (<120s)")
    assert mean_3d_mm <= 5.0
    assert clean_rms <= 1e-3
    assert noisy_rms <= 2.0
    assert monotone == runs
    assert dt < 120.0


def test_criterion_7_intrinsics_rule(criterion):
    table = [(640, 480), (480, 640), (1280, 720), (720, 1280), (1920, 1080),
             (1080, 1920), (100, 100), (320, 240), (240, 320), (800, 600),
             (600, 800), (1024, 768), (768, 1024), (1280, 960), (2560, 1440),
             (3840, 2160), (640, 360), (416, 234), (512, 512), (200, 150)]
    assert len(table) == 20
    bad = []
    for w, h in table:
        k = default_intrinsics(w, h)
        if not (k.f == float(max(w, h)) and k.cx == w / 2.0 and k.cy == h / 2.0):
            bad.append((w, h))
    ok = not bad
    criterion(7, ok, f"f=max(w,h), center=image center exact on 20/20 "
                     f"resolutions" + (f"; failures: {bad}" if bad else ""))
    assert not bad


def make_skeleton_pool():
    pool = []
    for i, label in enumerate(("OpenPalm", "Victory", "ClosedFist", "CallMe",
                               "ThumbUp", "Three", "OK", "Loser")):
        frame, _ = synth_pose(label, SynthConfig(seed=88), sample_rng(88, i))
        pool.append(frame.hand)
    return pool


def test_criterion_8_throttle_bound_and_replay(criterion):
    pool = make_skeleton_pool()
    stub = lambda hand: "Victory"
    bound_ok = replay_ok = 0
    trials = 1000
    for k in range(trials):
        rng = np.random.default_rng([808, k])
        hz = float(rng.uniform(0.5, 12.0))
        fps = float(rng.uniform(10.0, 60.0))
        n = int(round(10.0 * fps))
        present = True
        frames = []
        for i in range(n):
            if rng.random() < 0.08:
                present = not present
            hand = None
            if present:
                score = 0.2 if rng.random() < 0.1 else 1.0
                src = pool[int(rng.integers(len(pool)))]
                hand = HandSkeleton(src.handedness, score, src.kp2d, src.kp3d)
            frames.append(HandFrame(t_us=round(i * 1e6 / fps), w=640, h=480,
                                    hand=hand))
        cfg = PipelineConfig(max_detect_hz=hz)
        outputs, stats = run_stream(frames, cfg, stub)
        duration_s = (frames[-1].t_us - frames[0].t_us) / 1e6
        bound_ok += stats.detect_invocations <= math.ceil(duration_s * hz) + 1
        outputs2, stats2 = run_stream(frames, cfg, stub)
        replay_ok += (outputs2 == outputs and stats2 == stats)
    ok = bound_ok == trials and replay_ok == trials
    criterion(8, ok, f"randomized 10s streams: throttle bound {bound_ok}/"
                     f"{trials}, bit-identical replay {replay_ok}/{trials} "
                     f"(both need 1000/1000)")
    assert bound_ok == trials
    assert replay_ok == trials


def run_cli(*argv):
    proc = run_handgest(*argv)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_9_cli_determinism(criterion, tmp_path):
    results = {}

    data = {}
    for run in (1, 2):
        out = tmp_path / f"synth{run}.jsonl"
        run_cli("synth", "--out", out, "--per-gesture", 5, "--seed", 5)
        data[run] = out.read_bytes()
    results["synth"] = data[1] == data[2]
    (tmp_path / "data.jsonl").write_bytes(data[1])

    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({"epochs": 2, "batch_size": 32}))
    models = {}
    for run in (1, 2):
        out = tmp_path / f"model{run}.json"
        run_cli("train", "--data", tmp_path / "data.jsonl", "--out", out,
                "--config", train_cfg, "--seed", 1)
        models[run] = out.read_bytes()
    results["train"] = models[1] == models[2]

    pipe = tmp_path / "pipe.json"
    pipe.write_text(json.dumps({"schema": "pipeline/1", "max_detect_hz": 5.0,
                                "classifier": "heuristic"}))
    streams = {}
    for run in (1, 2):
        out = tmp_path / f"stream{run}.jsonl"
        stats = tmp_path / f"stats{run}.json"
        run_cli("stream", "--frames", tmp_path / "data.jsonl",
                "--pipeline", pipe, "--out", out, "--stats", stats)
        streams[run] = out.read_bytes() + stats.read_bytes()
    results["stream"] = streams[1] == streams[2]

    ok = all(results.values())
    criterion(9, ok, "byte-identical reruns: " + ", ".join(
        f"{name} {'yes' if good else 'NO'}" for name, good in results.items()))
    assert results == {"synth": True, "train": True, "stream": True}
