"""Virtual center, rotation angle, and scale of the 2D alignment stage."""

import numpy as np
import pytest

from handgest.alignment import (
    EPS_SCALE_PX,
    SCALE_KEYPOINTS,
    _angle,
    _rotation_vector,
    _scale,
    compute_alignment,
    palm_center,
    rotation_vector,
)
from handgest.errors import DegenerateRotation, DegenerateScale, ShapeMismatch, finite_at_least
from handgest.harness import SynthConfig, sample_rng, synth_pose
from handgest.labels import ALL_GESTURES
from handgest.skeleton import INDEX_MCP, MIDDLE_MCP, PINKY_MCP


def flat_kp2d(value=100.0):
    return np.full((21, 2), value, dtype=np.float64)


def random_kp2d(seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(50, 500, size=(21, 2))


def test_center_is_mean_of_three_mcps():
    kp = flat_kp2d(0.0)
    kp[5] = (0.0, 0.0)
    kp[9] = (3.0, 0.0)
    kp[17] = (0.0, 3.0)
    np.testing.assert_allclose(palm_center(kp), (1.0, 1.0))

    kp[5] = kp[9] = kp[17] = (2.0, 2.0)
    np.testing.assert_allclose(palm_center(kp), (2.0, 2.0))


def test_center_matches_brute_force_summation():
    for seed in range(8):
        kp = random_kp2d(seed)
        total = np.zeros(2)
        for i in (5, 9, 17):
            total = total + kp[i]
        np.testing.assert_allclose(palm_center(kp), total / 3.0, atol=1e-12)


def reference_palm_center(points):
    """palm_center as written with np.mean, before it became one take, a sum
    and a division: every result must stay bitwise equal to it."""
    return points[[INDEX_MCP, MIDDLE_MCP, PINKY_MCP]].mean(axis=0)


@pytest.mark.parametrize("handedness", ["Right", "Left"])
def test_palm_center_is_bitwise_the_reference(handedness):
    cfg = SynthConfig(seed=4, noise_px=1.0, noise_m=0.002, handedness=handedness)
    for i in range(64):
        frame, _ = synth_pose(ALL_GESTURES[i % len(ALL_GESTURES)], cfg, sample_rng(4, i))
        for points in (frame.hand.kp2d, frame.hand.kp3d, random_kp2d(i) * 1e-3):
            assert palm_center(points).tobytes() == reference_palm_center(points).tobytes(), i


def test_rotation_vector_sum_of_components():
    kp = flat_kp2d(0.0)
    # kp0-kp9 = (0,1), kp17-kp5 = (1,0)
    kp[0] = (0.0, 1.0)
    kp[9] = (0.0, 0.0)
    kp[5] = (0.0, 0.0)
    kp[17] = (1.0, 0.0)
    np.testing.assert_allclose(rotation_vector(kp), (1.0, 1.0))
    assert _angle(_rotation_vector(kp)) == pytest.approx(np.arctan2(1.0, -1.0))
    assert _angle(_rotation_vector(kp)) == pytest.approx(3.0 * np.pi / 4.0)


def test_rotation_angle_zero_when_pointing_up():
    kp = flat_kp2d(0.0)
    kp[0] = (0.0, -1.0)   # v = (0,-1): toward image top in y-down pixels
    kp[9] = (0.0, 0.0)
    kp[5] = kp[17] = (0.0, 0.0)
    assert _angle(_rotation_vector(kp)) == 0.0


def test_rotation_angle_pi_when_pointing_down_with_a_negative_zero():
    # atan2(-0.0, -1.0) is -pi, outside (-pi, pi]; it wraps to pi
    kp = flat_kp2d(0.0)
    kp[0] = (-0.0, 1.0)
    kp[17] = (-0.0, 0.0)   # v = (-0.0 - 0.0) + (-0.0 - 0.0) = -0.0 across
    v = _rotation_vector(kp)
    assert v[0] == 0.0 and np.signbit(v[0]) and v[1] == 1.0
    assert _angle(v) == np.pi


def test_rotation_vector_degenerate_when_components_cancel():
    kp = flat_kp2d(0.0)
    kp[0] = (1.0, 1.0)
    kp[9] = (0.0, 0.0)
    kp[5] = (1.0, 1.0)
    kp[17] = (0.0, 0.0)   # (kp17-kp5) = -(kp0-kp9), exact cancellation
    with pytest.raises(DegenerateRotation):
        _angle(_rotation_vector(kp))


def test_alignment_scale_farthest_knuckle():
    kp = flat_kp2d(0.0)
    kp[13] = (3.0, 4.0)   # ring MCP, 5 px from the center at the origin
    assert _scale(kp, palm_center(kp)) == pytest.approx(5.0)


def test_alignment_scale_excludes_tips_and_wrist():
    kp = flat_kp2d(0.0)
    kp[8] = (1000.0, 0.0)   # index tip: not a knuckle
    kp[0] = (500.0, 0.0)    # wrist: not a knuckle
    kp[6] = (3.0, 4.0)
    assert _scale(kp, palm_center(kp)) == pytest.approx(5.0)


def test_alignment_scale_matches_exhaustive_scan():
    for seed in range(8):
        kp = random_kp2d(seed)
        center = palm_center(kp)
        best = 0.0
        for i in SCALE_KEYPOINTS:
            best = max(best, float(np.hypot(*(kp[i] - center))))
        assert _scale(kp, palm_center(kp)) == pytest.approx(best, abs=1e-12)


def test_alignment_scale_degenerate_when_knuckles_coincide():
    kp = flat_kp2d(7.0)
    with pytest.raises(DegenerateScale) as raised:
        _scale(kp, palm_center(kp))
    assert str(raised.value) == "knuckle spread 0.000e+00 px below 1e-06"


def reference_scale(kp2d, center):
    """_scale as written with np.linalg.norm, before it became one take and
    norm's own operations: every result must stay bitwise equal to it."""
    d = np.linalg.norm(kp2d[list(SCALE_KEYPOINTS)] - center, axis=1)
    return finite_at_least(float(d.max()), EPS_SCALE_PX, DegenerateScale,
                           "knuckle spread {:.3e} px")


def _scale_or_error(scale, kp2d):
    try:
        return np.float64(scale(kp2d, palm_center(kp2d))).tobytes()
    except DegenerateScale as exc:
        return str(exc)


def test_scale_is_bitwise_the_reference():
    cfg = SynthConfig(seed=6, noise_px=1.0)
    rows = [synth_pose(ALL_GESTURES[i % len(ALL_GESTURES)], cfg, sample_rng(6, i))[0].hand.kp2d
            for i in range(64)]
    rows += [random_kp2d(i) * 1e-3 for i in range(8)]
    # degenerate: knuckles that coincide, or lie within a micro-pixel
    rows += [flat_kp2d(7.0), flat_kp2d(7.0) + np.arange(42).reshape(21, 2) * 1e-9]
    # overflowing: finite pixels whose squared distances pass a float's range
    rows += [random_kp2d(0) * 1e155, random_kp2d(1) * 1e300, rows[0] * 1e154]
    messages = set()
    with np.errstate(all="ignore"):
        for i, kp2d in enumerate(rows):
            got = _scale_or_error(_scale, kp2d)
            assert got == _scale_or_error(reference_scale, kp2d), i
            if isinstance(got, str):
                messages.add(got.split(" px ")[-1])
    assert messages == {"below 1e-06", "is not finite"}


def test_alignment_of_pixels_too_large_to_measure_raises_degenerate_scale():
    # the knuckle spread overflows to inf; this seeded a lift whose fit then
    # reported a hand behind the camera
    kp = random_kp2d(0) * 1e300
    with np.errstate(all="ignore"), pytest.raises(DegenerateScale) as raised:
        compute_alignment(kp)
    assert str(raised.value) == "knuckle spread inf px is not finite"
    with pytest.raises(DegenerateRotation, match="^rotation vector norm nan px is not finite$"):
        _angle(np.array([np.nan, 1.0]))


def test_rigid_rotation_shifts_angle_and_preserves_scale():
    kp = random_kp2d(3)
    base = compute_alignment(kp)
    for phi in (-2.5, -0.7, 0.3, 1.9):
        c, s = np.cos(phi), np.sin(phi)
        rot = np.array([[c, -s], [s, c]])
        moved = compute_alignment(kp @ rot.T + (17.0, -4.0))
        dtheta = (moved.rotation_rad - base.rotation_rad - phi) % (2 * np.pi)
        assert min(dtheta, 2 * np.pi - dtheta) < 1e-9
        assert moved.scale_px == pytest.approx(base.scale_px, abs=1e-9)


def test_uniform_scale_scales_scale_only():
    kp = random_kp2d(11)
    base = compute_alignment(kp)
    for s in (0.25, 3.0):
        scaled = compute_alignment(kp * s)
        assert scaled.scale_px == pytest.approx(base.scale_px * s, rel=1e-12)
        assert scaled.rotation_rad == pytest.approx(base.rotation_rad, abs=1e-12)


def test_compute_alignment_is_bitwise_the_three_helpers():
    cfg = SynthConfig(seed=3, noise_px=1.0)
    for i in range(100):
        frame, _ = synth_pose(ALL_GESTURES[i % len(ALL_GESTURES)], cfg, sample_rng(3, i))
        kp = frame.hand.kp2d
        got = compute_alignment(kp)
        assert got.center.tobytes() == palm_center(kp).tobytes(), i
        assert got.rotation_rad == _angle(_rotation_vector(kp)), i
        assert got.scale_px == _scale(kp, palm_center(kp)), i


def test_compute_alignment_rejects_wrong_shape():
    with pytest.raises(ShapeMismatch):
        compute_alignment(np.zeros((20, 2)))
