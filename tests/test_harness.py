"""Synthetic corpus generation and classifier evaluation."""

import numpy as np
import pytest

from handgest.errors import EmptyInput, LengthMismatch, UnknownLabel, ValidationError
from handgest.features import feature_vector
from handgest.harness import (
    _JITTER_SCALE,
    _TO_CAMERA,
    FRAME_STEP_US,
    TEMPLATES,
    EvalReport,
    SynthConfig,
    _jittered_joints,
    _wobble,
    eval_classifier,
    make_alignment_corpus,
    make_dataset,
    random_rotation,
    sample_rng,
    synth_params,
    synth_pose,
    write_dataset,
)
from handgest.labels import ALL_GESTURES, CLASSES, POSITIVE_GESTURES
from handgest.lifting import (
    FLEXION_JOINTS,
    JOINT_BOXES,
    JOINTS,
    NUM_POSE_PARAMS,
    ROTVEC,
    TRANSLATION,
    default_hand_model,
    default_intrinsics,
    forward_kinematics,
    axis_rotation,
    project,
    rotvec_from_rotmat,
)
from handgest.skeleton import (
    INDEX_MCP,
    MIDDLE_MCP,
    NUM_KEYPOINTS,
    PINKY_MCP,
    frame_from_dict,
    read_jsonl,
)


def clean_cfg(seed=0):
    return SynthConfig(seed=seed, jitter_std_rad=0.0, orientation_jitter_rad=0.0)


# -- generation ---------------------------------------------------------------

def test_synth_pose_is_self_consistent():
    cfg = SynthConfig(seed=3)
    for i, label in enumerate(("OpenPalm", "CallMe", "Three", "ThumbDown")):
        frame, got = synth_pose(label, cfg, sample_rng(3, i))
        assert got == label
        hand = frame.hand
        reproj = project(hand.kp3d, default_intrinsics(frame.w, frame.h))
        np.testing.assert_allclose(reproj, hand.kp2d, atol=1e-9)


def test_synth_pose_noise_bounded():
    cfg = SynthConfig(seed=4, noise_px=1.5)
    frame, _ = synth_pose("Victory", cfg, sample_rng(4, 0))
    hand = frame.hand
    reproj = project(hand.kp3d, default_intrinsics(frame.w, frame.h))
    delta = np.linalg.norm(reproj - hand.kp2d, axis=1)
    assert delta.max() > 0.0          # noise actually applied
    assert delta.max() < 1.5 * 6.0    # and plausibly sigma-scaled


def test_open_palm_fingers_straight():
    frame, _ = synth_pose("OpenPalm", clean_cfg())
    fv = feature_vector(frame.hand.kp3d, frame.hand.handedness)
    assert np.all(fv[3:8] <= np.radians(10.0))


def test_closed_fist_fingers_bent():
    frame, _ = synth_pose("ClosedFist", clean_cfg())
    fv = feature_vector(frame.hand.kp3d, frame.hand.handedness)
    assert np.all(fv[3:8] >= np.radians(120.0))


def test_same_seed_bit_identical():
    cfg = SynthConfig(seed=11)
    a, _ = synth_pose("ILoveYou", cfg, sample_rng(11, 7))
    b, _ = synth_pose("ILoveYou", cfg, sample_rng(11, 7))
    np.testing.assert_array_equal(a.hand.kp2d, b.hand.kp2d)
    np.testing.assert_array_equal(a.hand.kp3d, b.hand.kp3d)


def test_unknown_label_rejected():
    with pytest.raises(UnknownLabel):
        synth_pose("Jazzhands", SynthConfig(seed=0))


def test_make_dataset_layout():
    cfg = SynthConfig(seed=6)
    frames, labels = make_dataset(cfg, 3, gestures=("Victory", "OK"))
    assert labels == ["Victory"] * 3 + ["OK"] * 3
    assert [f.t_us for f in frames] == [FRAME_STEP_US * i for i in range(6)]
    # sample i depends only on (seed, i), not on which gestures ran before
    solo, _ = make_dataset(cfg, 3, gestures=("Victory",))
    for a, b in zip(solo, frames[:3]):
        np.testing.assert_array_equal(a.hand.kp2d, b.hand.kp2d)


def test_alignment_corpus_mixes_orientations():
    frames = make_alignment_corpus(SynthConfig(seed=0), 25)
    assert len(frames) == 25
    for f in frames:
        assert f.hand is not None
        assert np.all(f.hand.kp3d[:, 2] > 0.0)


def test_dataset_file_round_trip(tmp_path):
    cfg = SynthConfig(seed=8, noise_m=0.002)
    frames, labels = make_dataset(cfg, 2, gestures=("OpenPalm", "Loser"))
    path = tmp_path / "data.jsonl"
    write_dataset(path, frames, labels)
    back_frames = list(read_jsonl(path, frame_from_dict))
    back_labels = list(read_jsonl(path, lambda row: row["label"]))
    assert back_labels == labels
    assert len(back_frames) == len(frames)
    for a, b in zip(frames, back_frames):
        assert a.t_us == b.t_us
        # the file stores kp2d to 1e-3 px and kp3d to 1e-6 m, bit for bit
        assert b.hand.kp2d.tobytes() == np.round(a.hand.kp2d, 3).tobytes()
        assert b.hand.kp3d.tobytes() == np.round(a.hand.kp3d, 6).tobytes()


@pytest.mark.parametrize("handedness", ["Right", "Left"])
def test_rewriting_a_dataset_gives_the_same_bytes(tmp_path, handedness):
    cfg = SynthConfig(seed=3, handedness=handedness, noise_px=2.0, noise_m=0.002)
    frames, labels = make_dataset(cfg, 2)
    # tiny negative coordinates round to -0.0
    frames[0].hand.kp2d[0, 0] = -1e-4
    frames[0].hand.kp3d[0, 0] = -1e-7
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    write_dataset(first, frames, labels)
    write_dataset(second, list(read_jsonl(first, frame_from_dict)),
                  list(read_jsonl(first, lambda row: row["label"])))
    assert second.read_bytes() == first.read_bytes()
    assert first.read_text().count("[[-0.0, ") == 2
    kp3d = np.concatenate([f.hand.kp3d for f in read_jsonl(first, frame_from_dict)])
    assert (kp3d < 0).any() and (kp3d > 0).any()


def test_make_dataset_rejects_an_empty_gesture_list():
    with pytest.raises(ValidationError, match="at least one gesture"):
        make_dataset(SynthConfig(seed=0), 1, gestures=())


def test_write_dataset_validates_lengths(tmp_path):
    frames, labels = make_dataset(SynthConfig(seed=0), 1, gestures=("OK",))
    with pytest.raises(LengthMismatch):
        write_dataset(tmp_path / "bad.jsonl", frames, labels + ["OK"])


# -- the one pose sampler, against the generators it replaced ------------------

def _ref_place(local, rotation, rng, cfg):
    tz = rng.uniform(*cfg.tz_range)
    x = rng.uniform(*cfg.x_range)
    y = rng.uniform(*cfg.y_range)
    center_local = local[[INDEX_MCP, MIDDLE_MCP, PINKY_MCP]].mean(axis=0)
    t = np.array([x, y, tz]) - rotation @ center_local
    return local @ rotation.T + t


def _ref_local(model, joints):
    pose = np.zeros(NUM_POSE_PARAMS)
    pose[JOINTS] = joints
    return forward_kinematics(model, pose)


def reference_jittered_joints(tpl, rng, cfg):
    """_jittered_joints as written with np.clip, before it became
    minimum(maximum(...)): every draw must stay bitwise equal to it."""
    noise = rng.standard_normal(21)
    for lead, *others in tpl.coupled:
        noise[FLEXION_JOINTS[others]] = noise[FLEXION_JOINTS[lead]]
    joints = tpl.joints + noise * cfg.jitter_std_rad * _JITTER_SCALE
    return np.clip(joints, JOINT_BOXES[:, 0], JOINT_BOXES[:, 1])


@pytest.mark.parametrize("jitter_rad", [0.0, np.radians(5.0), 1.0])
def test_jittered_joints_is_bitwise_the_reference(jitter_rad):
    # at 1 rad most draws leave a box, so both bounds clip many joints
    cfg = SynthConfig(seed=6, jitter_std_rad=jitter_rad)
    clipped = 0
    for i, label in enumerate(ALL_GESTURES * 3):
        tpl = TEMPLATES[label]
        got = _jittered_joints(tpl, sample_rng(6, i), cfg)
        want = reference_jittered_joints(tpl, sample_rng(6, i), cfg)
        assert got.tobytes() == want.tobytes(), (label, i)
        clipped += np.count_nonzero((got == JOINT_BOXES[:, 0]) | (got == JOINT_BOXES[:, 1]))
    if jitter_rad == 1.0:
        assert clipped > 100


def reference_synth_pose(label, cfg, rng):
    """(kp2d, kp3d) as synth_pose drew them when it wrote out the draw
    order itself; the sampler must match it bit for bit."""
    model = default_hand_model()
    tpl = TEMPLATES[label]
    joints = _jittered_joints(tpl, rng, cfg)
    spin = rng.uniform(-np.pi, np.pi)
    wobble = _wobble(rng, cfg.orientation_jitter_rad)
    rotation = wobble @ tpl.orientation
    if tpl.orientation_free:
        rotation = axis_rotation(2, spin) @ rotation
    local = _ref_local(model, joints)
    if cfg.handedness == "Left":
        local = local * np.array([-1.0, 1.0, 1.0])
    kp3d = _ref_place(local, rotation, rng, cfg)
    kp2d = project(kp3d, default_intrinsics(cfg.width, cfg.height))
    if cfg.noise_px > 0.0:
        kp2d = kp2d + rng.standard_normal((NUM_KEYPOINTS, 2)) * cfg.noise_px
    if cfg.noise_m > 0.0:
        kp3d = kp3d + rng.standard_normal((NUM_KEYPOINTS, 3)) * cfg.noise_m
    return kp2d, kp3d


def reference_alignment_corpus(cfg, n):
    """(kp2d, kp3d) pairs of the right-hand, noise-free alignment corpus as
    make_alignment_corpus drew them with its own copy of the draw order."""
    model = default_hand_model()
    out = []
    for i in range(n):
        rng = sample_rng(cfg.seed, i)
        gesture = ALL_GESTURES[int(rng.integers(len(ALL_GESTURES)))]
        joints = _jittered_joints(TEMPLATES[gesture], rng, cfg)
        if i % 5 == 0:
            rotation = random_rotation(rng)
        else:
            rotation = _wobble(rng, np.radians(15.0)) @ _TO_CAMERA
        kp3d = _ref_place(_ref_local(model, joints), rotation, rng, cfg)
        out.append((project(kp3d, default_intrinsics(cfg.width, cfg.height)), kp3d))
    return out


def reference_synth_params(label, cfg, rng):
    """The right-hand (27,) pose as synth_params drew it inline."""
    tpl = TEMPLATES[label]
    joints = _jittered_joints(tpl, rng, cfg)
    spin = rng.uniform(-np.pi, np.pi)
    wobble = _wobble(rng, cfg.orientation_jitter_rad)
    rotation = wobble @ tpl.orientation
    if tpl.orientation_free:
        rotation = axis_rotation(2, spin) @ rotation
    local = _ref_local(default_hand_model(), joints)
    tz = rng.uniform(*cfg.tz_range)
    x = rng.uniform(*cfg.x_range)
    y = rng.uniform(*cfg.y_range)
    center_local = local[[INDEX_MCP, MIDDLE_MCP, PINKY_MCP]].mean(axis=0)
    t = np.array([x, y, tz]) - rotation @ center_local
    pose = np.empty(NUM_POSE_PARAMS)
    pose[ROTVEC], pose[TRANSLATION], pose[JOINTS] = rotvec_from_rotmat(rotation), t, joints
    return pose


def same_bits(a, b):
    """Equal shapes and bytes: unlike np.array_equal, -0.0 differs from 0.0,
    as json.dumps writes them."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cfg", [
    SynthConfig(seed=0),
    SynthConfig(seed=1, handedness="Left"),
    SynthConfig(seed=2, noise_px=1.0, noise_m=0.002),
    SynthConfig(seed=3, handedness="Left", noise_px=1.0, noise_m=0.002, score=0.7),
], ids=["right", "left", "noisy", "left-noisy"])
def test_dataset_bitwise_equal_to_reference(cfg):
    frames, labels = make_dataset(cfg, 5)
    for i, (frame, label) in enumerate(zip(frames, labels)):
        kp2d, kp3d = reference_synth_pose(label, cfg, sample_rng(cfg.seed, i))
        assert same_bits(frame.hand.kp2d, kp2d), i
        assert same_bits(frame.hand.kp3d, kp3d), i
        assert (frame.hand.handedness, frame.hand.score) == (cfg.handedness, cfg.score)


def test_alignment_corpus_bitwise_equal_to_reference():
    cfg = SynthConfig(seed=0)
    frames = make_alignment_corpus(cfg, 200)
    for i, (frame, (kp2d, kp3d)) in enumerate(
            zip(frames, reference_alignment_corpus(cfg, 200))):
        assert same_bits(frame.hand.kp2d, kp2d), i
        assert same_bits(frame.hand.kp3d, kp3d), i


def test_synth_params_bitwise_equal_to_reference():
    cfg = SynthConfig(seed=5)
    for i in range(100):
        label = ALL_GESTURES[i % len(ALL_GESTURES)]
        got = synth_params(label, cfg, sample_rng(cfg.seed, i))
        assert same_bits(got, reference_synth_params(label, cfg,
                                                     sample_rng(cfg.seed, i))), i


def test_synth_params_draw_the_pose_synth_pose_places():
    # criterion 6 fits to FK of synth_params; it holds only while both
    # generators consume the rng in the same order
    cfg = SynthConfig(seed=5)
    model = default_hand_model()
    worst = 0.0
    for i in range(200):
        label = ALL_GESTURES[i % len(ALL_GESTURES)]
        pose = synth_params(label, cfg, sample_rng(cfg.seed, i))
        frame, _ = synth_pose(label, cfg, sample_rng(cfg.seed, i))
        worst = max(worst, np.abs(forward_kinematics(model, pose)
                                  - frame.hand.kp3d).max())
    assert worst <= 1e-12


def test_synth_params_rejects_left_hands():
    with pytest.raises(ValidationError, match="right hands only"):
        synth_params("OpenPalm", SynthConfig(handedness="Left"), sample_rng(0, 0))


def test_left_alignment_corpus_is_mirrored():
    right = make_alignment_corpus(SynthConfig(seed=4), 10)
    left = make_alignment_corpus(SynthConfig(seed=4, handedness="Left"), 10)
    for r, l in zip(right, left):
        assert l.hand.handedness == "Left"
        # same draws, so the left hand is the right one reflected about the
        # common palm center: a linear map with determinant -1
        rc = r.hand.kp3d - r.hand.kp3d[[INDEX_MCP, MIDDLE_MCP, PINKY_MCP]].mean(axis=0)
        lc = l.hand.kp3d - l.hand.kp3d[[INDEX_MCP, MIDDLE_MCP, PINKY_MCP]].mean(axis=0)
        m = np.linalg.lstsq(rc, lc, rcond=None)[0]
        np.testing.assert_allclose(rc @ m, lc, atol=1e-12)
        np.testing.assert_allclose(m.T @ m, np.eye(3), atol=1e-9)
        assert np.linalg.det(m) == pytest.approx(-1.0)


def test_alignment_corpus_applies_noise():
    clean = make_alignment_corpus(SynthConfig(seed=6), 10)
    noisy = make_alignment_corpus(SynthConfig(seed=6, noise_px=1.5, noise_m=0.002), 10)
    for c, n in zip(clean, noisy):
        # noise is drawn after the pose, so the differences are the noise
        d2 = np.abs(n.hand.kp2d - c.hand.kp2d)
        d3 = np.abs(n.hand.kp3d - c.hand.kp3d)
        assert 0.0 < d2.max() < 1.5 * 6.0
        assert 0.0 < d3.max() < 0.002 * 6.0


# -- evaluation ---------------------------------------------------------------

def test_eval_perfect_classifier():
    truths = [g for g in POSITIVE_GESTURES for _ in range(10)] + ["CallMe"] * 30
    report = eval_classifier(
        [t if t in POSITIVE_GESTURES else "Negative" for t in truths], truths)
    assert report.avg_recall == 1.0
    assert report.fpr == 0.0
    assert all(v == 1.0 for v in report.recalls.values())


def test_eval_fpr_counts_one_in_two_hundred():
    truths = ["CallMe"] * 200 + ["OpenPalm"] * 10
    preds = ["Negative"] * 200 + ["OpenPalm"] * 10
    preds[17] = "OpenPalm"
    report = eval_classifier(preds, truths)
    assert report.fpr == pytest.approx(0.005)
    assert report.recalls["OpenPalm"] == 1.0


def test_eval_always_negative_baseline():
    truths = [g for g in POSITIVE_GESTURES for _ in range(5)] + ["OK"] * 20
    report = eval_classifier(["Negative"] * len(truths), truths)
    assert report.fpr == 0.0
    assert report.avg_recall == 0.0
    assert all(v == 0.0 for v in report.recalls.values())


def test_eval_confusion_rows_sum_to_truth_counts():
    rng = np.random.default_rng(13)
    truths = [ALL_GESTURES[i] for i in rng.integers(0, 21, size=300)]
    preds = [CLASSES[i] for i in rng.integers(0, 7, size=300)]
    report = eval_classifier(preds, truths)
    from handgest.labels import to_class
    for i, cls in enumerate(CLASSES):
        expect = sum(to_class(t) == cls for t in truths)
        assert int(report.confusion[i].sum()) == expect
    assert report.n == 300


def test_eval_none_prediction_counts_negative():
    report = eval_classifier([None, "Victory"], ["Victory", "Victory"])
    assert report.recalls["Victory"] == 0.5


def test_eval_input_validation():
    with pytest.raises(LengthMismatch):
        eval_classifier(["Negative"], ["CallMe", "CallMe"])
    with pytest.raises(EmptyInput):
        eval_classifier([], [])


@pytest.mark.parametrize("predictions, truths", [
    (["OpenPalm", "Negative"], ["OpenPlam", "Negative"]),
    (["OpenPalm", "Negative"], ["OpenPalm", None]),
    (["OpenPlam", "Negative"], ["OpenPalm", "Negative"]),
    (["OpenPalm", 3], ["OpenPalm", "Negative"]),
])
def test_eval_rejects_a_label_it_cannot_read(predictions, truths):
    # a misspelt or None truth was scored as a Negative row, and the right
    # OpenPalm prediction beside it as a false positive
    with pytest.raises(UnknownLabel):
        eval_classifier(predictions, truths)


def test_eval_report_dict_shape():
    d = eval_classifier(["Negative"], ["CallMe"]).to_dict()
    assert d["schema"] == "eval_report/1"
    assert d["classes"] == list(CLASSES)
    assert len(d["confusion"]) == 7


@pytest.mark.parametrize("change", [
    {"handedness": "right"}, {"handedness": None}, {"score": 3}, {"score": -0.1},
    {"score": float("nan")}, {"score": True}, {"score": "1"},
])
def test_synth_config_rejects_bad_handedness_and_score(change):
    # frames made with these would fail validate_frame when read back
    with pytest.raises(ValidationError):
        SynthConfig(**change)


@pytest.mark.parametrize("name", ["tz_range", "x_range", "y_range"])
@pytest.mark.parametrize("value", [
    (False, True), ("0.4", 0.5), (0.4, 0.5, 0.6), 0.1, (float("nan"), 0.5), (0.4, 10 ** 400),
], ids=["bools", "string", "three", "scalar", "nan", "huge-int"])
def test_synth_config_ranges_meet_the_scalar_rule(name, value):
    # bools were kept as given; the others raised TypeError, ValueError or
    # OverflowError where they were not already rejected
    with pytest.raises(ValidationError, match=f"^{name} must be "):
        SynthConfig(**{name: value})


def test_synth_config_stores_each_range_as_a_tuple():
    cfg = SynthConfig(tz_range=[0.4, 0.6], x_range=[-0.1, 0.1], y_range=[0, 0])
    assert [cfg.tz_range, cfg.x_range, cfg.y_range] == [(0.4, 0.6), (-0.1, 0.1), (0, 0)]
    assert {type(cfg.tz_range), type(cfg.x_range), type(cfg.y_range)} == {tuple}


def test_jitter_scale_halves_the_abductions_and_the_thumb_roll():
    # the scales as once typed out, in lifting's joint order
    assert _JITTER_SCALE.tolist() == [1.0, 0.5, 1.0, 1.0, 0.5] + [1.0, 0.5, 1.0, 1.0] * 4


@pytest.mark.parametrize("seed, index", [(1.7, 0), (0, 2.5), (True, 0), (-1, 0), (0, "3")])
def test_sample_rng_takes_integers_only(seed, index):
    # sample_rng(1.7, 0) was seed 1's generator
    with pytest.raises(ValidationError, match="must be an integer"):
        sample_rng(seed, index)


@pytest.mark.parametrize("t_us", [1.5, True, "0", 10 ** 400],
                         ids=["fraction", "bool", "string", "huge"])
def test_synth_pose_takes_an_integer_t_us(t_us):
    # t_us=1.5 was written as 1
    with pytest.raises(ValidationError, match="^t_us must be an integer"):
        synth_pose("OpenPalm", t_us=t_us)
