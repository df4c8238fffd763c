"""MLP forward/backward, focal loss, training, and FPR calibration."""

import numpy as np
import pytest

import handgest.mlp as mlp
from handgest.errors import (
    EmptyDataset,
    EmptyNegatives,
    MalformedConfig,
    ShapeMismatch,
    SingleClassDataset,
    UnknownLabel,
    ValidationError,
)
from handgest.labels import CLASSES
from handgest.mlp import (
    LAYER_SIZES,
    NEGATIVE_INDEX,
    MlpModel,
    TrainConfig,
    calibrate_threshold,
    classify_nn,
    focal_loss,
    forward,
    gradient_check,
    load_model,
    save_model,
    softmax,
    train,
)


def zero_model(tau=0.0):
    weights = [np.zeros((o, i)) for i, o in zip(LAYER_SIZES, LAYER_SIZES[1:])]
    biases = [np.zeros(o) for o in LAYER_SIZES[1:]]
    return MlpModel(weights, biases, np.zeros(12), np.ones(12), tau=tau)


def probs_model(probs, tau=0.0):
    """Zero weights, last bias = ln(p): forward() returns p for any input."""
    m = zero_model(tau=tau)
    m.biases[-1] = np.log(np.asarray(probs, dtype=np.float64))
    return m


def he_model(rng):
    weights, biases = [], []
    for fan_in, fan_out in zip(LAYER_SIZES, LAYER_SIZES[1:]):
        lim = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-lim, lim, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-0.1, 0.1, size=fan_out))
    return MlpModel(weights, biases, np.zeros(12), np.ones(12))


# -- forward ------------------------------------------------------------------

def test_zero_model_is_uniform():
    probs = forward(zero_model(), np.zeros(12))
    np.testing.assert_allclose(probs, np.full(7, 1.0 / 7.0), atol=1e-15)


def test_probabilities_normalize():
    rng = np.random.default_rng(0)
    model = he_model(rng)
    for _ in range(20):
        p = forward(model, rng.normal(0, 3, size=12))
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p >= 0.0)


def test_softmax_survives_extreme_logits():
    p = softmax(np.array([100.0, -100.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
    assert abs(p.sum() - 1.0) < 1e-9
    assert p[0] > 0.999999
    p = softmax(np.full(7, -100.0))
    np.testing.assert_allclose(p, 1.0 / 7.0, atol=1e-12)


def test_forward_matches_manual_evaluation():
    rng = np.random.default_rng(42)
    model = he_model(rng)
    x = rng.normal(size=12)
    # plain-loop re-evaluation, no shared code with the implementation
    a = (x - model.feat_mean) / model.feat_std
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.empty(w.shape[0])
        for j in range(w.shape[0]):
            z[j] = float(np.dot(w[j], a)) + b[j]
        a = z if k == len(model.weights) - 1 else np.maximum(z, 0.0)
    expect = np.exp(a - a.max())
    expect /= expect.sum()
    np.testing.assert_allclose(forward(model, x), expect, atol=1e-12)


def test_model_shape_validation():
    weights = [np.zeros((o, i)) for i, o in zip(LAYER_SIZES, LAYER_SIZES[1:])]
    biases = [np.zeros(o) for o in LAYER_SIZES[1:]]
    bad = [w.copy() for w in weights]
    bad[1] = np.zeros((50, 49))
    with pytest.raises(ShapeMismatch):
        MlpModel(bad, biases, np.zeros(12), np.ones(12))
    with pytest.raises(ShapeMismatch):
        MlpModel(weights[:-1], biases[:-1], np.zeros(12), np.ones(12))


@pytest.mark.parametrize("which", ["feat_mean", "feat_std"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_model_rejects_non_finite_standardization_stats(which, value):
    weights = [np.zeros((o, i)) for i, o in zip(LAYER_SIZES, LAYER_SIZES[1:])]
    biases = [np.zeros(o) for o in LAYER_SIZES[1:]]
    stats = {"feat_mean": np.zeros(12), "feat_std": np.ones(12)}
    stats[which][3] = value
    with pytest.raises(MalformedConfig, match="^non-finite standardization stats$"):
        MlpModel(weights, biases, **stats)


# -- focal loss ---------------------------------------------------------------

def uniformish(p_label, label_index):
    probs = np.full(7, (1.0 - p_label) / 6.0)
    probs[label_index] = p_label
    return probs


def test_focal_gamma_zero_is_cross_entropy():
    rng = np.random.default_rng(1)
    for _ in range(50):
        raw = rng.uniform(0.01, 1.0, size=7)
        probs = raw / raw.sum()
        for t, label in enumerate(CLASSES):
            assert abs(focal_loss(probs, label, gamma=0.0)
                       - (-np.log(probs[t]))) <= 1e-12


def test_focal_perfect_prediction_is_zero():
    probs = np.zeros(7)
    probs[2] = 1.0
    assert focal_loss(probs, "ClosedFist", gamma=2.0) == 0.0


def test_focal_matches_direct_formula():
    probs = uniformish(0.9, 0)
    expect = -1.0 * (1.0 - 0.9) ** 2 * np.log(0.9)
    assert focal_loss(probs, "OpenPalm", gamma=2.0) == pytest.approx(expect, abs=1e-15)
    assert focal_loss(probs, "OpenPalm", gamma=2.0) == pytest.approx(
        0.01 * -np.log(0.9), abs=1e-15)


def test_focal_alpha_scales_linearly():
    probs = uniformish(0.7, 1)
    base = focal_loss(probs, "Victory", gamma=2.0, alpha=1.0)
    assert focal_loss(probs, "Victory", gamma=2.0, alpha=0.25) == pytest.approx(base * 0.25)


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), [1.0] * 6])
def test_focal_alpha_checked_as_train_config_checks_it(alpha):
    with pytest.raises(ValidationError):
        TrainConfig(alpha=alpha)
    with pytest.raises(ValidationError):
        focal_loss(uniformish(0.7, 1), "Victory", alpha=alpha)
    with pytest.raises(ValidationError):
        gradient_check(he_model(np.random.default_rng(0)), np.zeros(12), "Victory", alpha=alpha)


@pytest.mark.parametrize("label", [-1, True, 9, 0, "Victroy"])
def test_focal_loss_takes_a_class_name_only(label):
    # an int was an index into CLASSES: -1 read as Negative, True as
    # Victory, and 9 raised IndexError
    with pytest.raises(UnknownLabel):
        focal_loss(uniformish(0.7, 1), label)


def test_focal_monotone_decreasing_in_p():
    for gamma in (0.0, 0.5, 2.0, 4.0):
        losses = [focal_loss(uniformish(p, 3), "PointingUp", gamma=gamma)
                  for p in np.linspace(0.05, 0.999, 60)]
        assert all(a > b for a, b in zip(losses, losses[1:]))


# -- gradient check -----------------------------------------------------------

def test_gradient_check_random_models():
    rng = np.random.default_rng(7)
    for i in range(10):
        model = he_model(rng)
        features, label = rng.normal(size=12), CLASSES[i % 7]
        gamma = float(rng.uniform(0.0, 4.0))
        assert gradient_check(model, features, label, gamma=gamma) <= 1e-4


def test_gradient_check_at_zero_gradient_point():
    # analytic and numeric both about zero when p_label is exactly 1
    model = probs_model([1 - 6e-16, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16])
    assert gradient_check(model, np.zeros(12), "OpenPalm", gamma=2.0) <= 1e-4


@pytest.mark.parametrize("layer", range(len(LAYER_SIZES) - 1))
@pytest.mark.parametrize("kind", ["w", "b"])
def test_gradient_check_catches_corrupted_gradient(monkeypatch, kind, layer):
    # each layer's probes run as a batch of their own: a sign flip of the
    # largest weight or bias gradient entry of any layer must show
    real = mlp._backward_batch

    def corrupted(model, probs, acts, pres, targets, gamma, alpha):
        gw, gb = real(model, probs, acts, pres, targets, gamma, alpha)
        flat = (gw if kind == "w" else gb)[layer].ravel()
        j = int(np.argmax(np.abs(flat)))
        flat[j] = -flat[j]
        return gw, gb

    monkeypatch.setattr(mlp, "_backward_batch", corrupted)
    model = he_model(np.random.default_rng(3))
    features = np.random.default_rng(4).normal(size=12)
    assert gradient_check(model, features, "Victory", gamma=2.0) > 1e-2


# -- training -----------------------------------------------------------------

def separable_dataset(n=80, rng=None):
    rng = rng or np.random.default_rng(10)
    data = []
    for i in range(n):
        label = "OpenPalm" if i % 2 == 0 else "Negative"
        mean = 1.0 if label == "OpenPalm" else -1.0
        data.append((rng.normal(mean, 0.3, size=12), label))
    return data


def train_accuracy(model, data):
    hits = sum(classify_nn(model, features) == label for features, label in data)
    return hits / len(data)


def test_train_separates_toy_classes():
    data = separable_dataset()
    model = train(data, TrainConfig(epochs=200, batch_size=16, seed=0))
    assert train_accuracy(model, data) >= 0.99
    assert "train_loss" in model.history
    assert len(model.history["train_loss"]) == 200


def test_train_same_seed_is_bit_identical():
    data = separable_dataset()
    cfg = TrainConfig(epochs=5, batch_size=16, seed=3)
    m1 = train(data, cfg)
    m2 = train(data, cfg)
    for w1, w2 in zip(m1.weights, m2.weights):
        np.testing.assert_array_equal(w1, w2)
    for b1, b2 in zip(m1.biases, m2.biases):
        np.testing.assert_array_equal(b1, b2)


def reference_train(dataset, config):
    """train as it stepped Adam before its weights shared one flat buffer:
    one update per weight and bias array, with moments of their own."""
    x_all, y_all = mlp._dataset_arrays(dataset)
    n = len(x_all)
    rng = np.random.default_rng(config.seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(LAYER_SIZES, LAYER_SIZES[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, (fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    perm = rng.permutation(n)
    n_val = min(int(n * config.val_fraction), n - 1)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    mean = x_all[train_idx].mean(axis=0)
    std = np.maximum(x_all[train_idx].std(axis=0), 1e-6)
    x_std = (x_all - mean) / std
    model = MlpModel(weights, biases, mean, std)
    alpha = np.asarray(config.alpha)
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    step = 0
    train_hist, val_hist = [], []
    for _ in range(config.epochs):
        order = train_idx[rng.permutation(len(train_idx))]
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            xb, yb = x_std[batch], y_all[batch]
            probs, acts, pres = mlp._forward_batch(model, xb)
            epoch_loss += float(np.sum(mlp._focal_batch(probs, yb, config.gamma, alpha)))
            g_w, g_b = mlp._backward_batch(model, probs, acts, pres, yb,
                                           config.gamma, alpha)
            step += 1
            c1 = 1.0 - mlp._ADAM_BETA1 ** step
            c2 = 1.0 - mlp._ADAM_BETA2 ** step
            for k in range(len(weights)):
                for p, g, m, v in ((weights[k], g_w[k], m_w[k], v_w[k]),
                                   (biases[k], g_b[k], m_b[k], v_b[k])):
                    m *= mlp._ADAM_BETA1
                    m += (1.0 - mlp._ADAM_BETA1) * g
                    v *= mlp._ADAM_BETA2
                    v += (1.0 - mlp._ADAM_BETA2) * g * g
                    p -= config.learning_rate * (m / c1) / (np.sqrt(v / c2)
                                                            + mlp._ADAM_EPS)
        train_hist.append(epoch_loss / len(order))
        if n_val:
            vp, _, _ = mlp._forward_batch(model, x_std[val_idx])
            val_hist.append(float(np.mean(
                mlp._focal_batch(vp, y_all[val_idx], config.gamma, alpha))))
    model.history = {"train_loss": train_hist, "val_loss": val_hist}
    return model


def seven_class_dataset(n=90):
    rng = np.random.default_rng(12)
    return [(rng.normal(0.3 * (i % 7), 1.0, size=12), CLASSES[i % 7]) for i in range(n)]


@pytest.mark.parametrize("config", [
    TrainConfig(),
    TrainConfig(epochs=20, batch_size=16, seed=4,
                alpha=(0.5, 1.0, 2.0, 1.0, 3.0, 1.0, 0.25)),
    TrainConfig(epochs=10, batch_size=13, seed=5),  # 81 training rows
    TrainConfig(epochs=10, batch_size=16, seed=6, val_fraction=0.0),
], ids=["default", "alpha", "ragged-batch", "no-validation"])
def test_train_is_bitwise_the_per_array_adam(config):
    data = seven_class_dataset()
    got, want = train(data, config), reference_train(data, config)
    for a, b in zip(got.weights + got.biases + [got.feat_mean, got.feat_std],
                    want.weights + want.biases + [want.feat_mean, want.feat_std]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    for key in ("train_loss", "val_loss"):
        assert np.array(got.history[key]).tobytes() == np.array(want.history[key]).tobytes()
    assert len(got.history["val_loss"]) == (config.epochs if config.val_fraction else 0)


def test_focal_helps_minority_recall():
    rng = np.random.default_rng(3)
    data = []
    for i in range(200):
        minority = i % 20 == 0   # 5 percent Victory, 95 percent OpenPalm
        mean = -0.4 if minority else 0.4
        label = "Victory" if minority else "OpenPalm"
        data.append((rng.normal(mean, 0.6, size=12), label))
    minority_recall = {}
    for gamma in (0.0, 2.0):
        model = train(data, TrainConfig(epochs=60, batch_size=32, seed=1, gamma=gamma))
        got = [classify_nn(model, features) for features, label in data if label == "Victory"]
        minority_recall[gamma] = got.count("Victory") / len(got)
    assert minority_recall[2.0] >= minority_recall[0.0]


def test_train_rejects_degenerate_datasets():
    with pytest.raises(EmptyDataset):
        train([])
    with pytest.raises(SingleClassDataset):
        train([(np.zeros(12), "OpenPalm")] * 10)


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(gamma=-1.0)
    with pytest.raises(ValidationError):
        TrainConfig(epochs=0)
    with pytest.raises(ValidationError):
        TrainConfig(val_fraction=1.0)
    with pytest.raises(ValidationError):
        TrainConfig(alpha=(1.0, 2.0))
    for name in ("gamma", "learning_rate"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                TrainConfig(**{name: value})


@pytest.mark.parametrize("obj", [
    {"epochs": "5"}, {"epochs": 5.0}, {"batch_size": True}, {"gamma": False},
    {"learning_rate": None}, {"alpha": [1.0] * 6}, {"alpha": ["1"] * 7},
    {"alpha": True}, {"seed": [1]}, {"momentum": 0.9}, [],
])
def test_train_config_from_dict_rejects_wrong_types(obj):
    with pytest.raises(ValidationError):
        TrainConfig.from_dict(obj)


def test_train_config_from_dict_takes_numbers():
    cfg = TrainConfig.from_dict({"schema": "train/1", "gamma": 1, "alpha": 2,
                                 "epochs": 3, "learning_rate": 0.01})
    assert (cfg.gamma, cfg.alpha, cfg.epochs) == (1, (2.0,) * len(CLASSES), 3)
    assert TrainConfig.from_dict({"alpha": [1, 2, 3, 4, 5, 6, 7]}).alpha[-1] == 7.0


def test_train_takes_classes_not_gestures():
    # "Wave" is a negative gesture, not a class; the command line maps it
    # to Negative with to_class before it trains
    with pytest.raises(UnknownLabel):
        train([(np.zeros(12), "OpenPalm"), (np.ones(12), "Wave")])


# -- acceptance threshold -----------------------------------------------------

def test_classify_nn_threshold_logic():
    fv = np.zeros(12)
    m = probs_model(uniformish(0.96, 0), tau=0.5)
    assert classify_nn(m, fv) == "OpenPalm"
    spread = np.full(7, 0.6 / 6.0)
    spread[0] = 0.4
    assert classify_nn(probs_model(spread, tau=0.5), fv) == "Negative"
    neg_wins = np.full(7, 0.3 / 6.0)
    neg_wins[NEGATIVE_INDEX] = 0.7
    assert classify_nn(probs_model(neg_wins, tau=0.0), fv) == "Negative"
    assert classify_nn(probs_model(neg_wins, tau=0.99), fv) == "Negative"


def test_classify_nn_tau_zero_is_argmax():
    rng = np.random.default_rng(6)
    model = he_model(rng)
    for _ in range(10):
        x = rng.normal(size=12)
        assert classify_nn(model, x) == CLASSES[int(np.argmax(forward(model, x)))]


def single_feature_model():
    """Score of example (x0, 0, ...) is sigmoid(x0 - 3); x0 passes through."""
    m = zero_model()
    for w in m.weights[:-1]:
        w[0, 0] = 1.0
    m.weights[-1][0, 0] = 1.0
    m.biases[-1][:] = -30.0          # park the other five gestures
    m.biases[-1][NEGATIVE_INDEX] = 0.0
    m.biases[-1][0] = -3.0
    return m


def score_of(model, x):
    return float(np.max(np.delete(forward(model, x), NEGATIVE_INDEX)))


def features_for_scores(targets):
    # invert p = sigmoid(x0 - 3) for the passthrough model above
    return [np.array([np.log(s / (1.0 - s)) + 3.0] + [0.0] * 11)
            for s in targets]


def test_calibrate_sweep_example():
    model = single_feature_model()
    feats = features_for_scores([0.1, 0.2, 0.9])
    scores = [score_of(model, x) for x in feats]
    np.testing.assert_allclose(scores, [0.1, 0.2, 0.9], atol=1e-9)
    tau = calibrate_threshold(model, feats, 1.0 / 3.0)
    assert tau == pytest.approx(0.2, abs=1e-9)
    achieved = np.mean([s > tau for s in scores])
    assert achieved <= 1.0 / 3.0


def test_calibrate_loose_target_returns_min_score():
    model = single_feature_model()
    feats = features_for_scores([0.15, 0.5, 0.8])
    tau = calibrate_threshold(model, feats, 0.99)
    assert tau == pytest.approx(0.15, abs=1e-9)


def test_calibrate_is_minimal_sweep_point():
    rng = np.random.default_rng(2)
    model = he_model(rng)
    negatives = [rng.normal(size=12) for _ in range(40)]
    scores = np.array([score_of(model, x) for x in negatives])
    for target in (0.05, 0.1, 0.3, 0.7):
        tau = calibrate_threshold(model, negatives, target)
        assert np.mean(scores > tau) <= target
        # every smaller candidate threshold violates the budget
        for cand in [0.0, *np.sort(scores)]:
            if cand >= tau:
                break
            assert np.mean(scores > cand) > target


def brute_force_tau(scores, target_fpr):
    """The O(n^2) sweep calibrate_threshold replaced."""
    for tau in (0.0, *np.sort(scores)):
        if np.mean(scores > tau) <= target_fpr:
            return float(tau)


def test_calibrate_equals_the_brute_force_sweep(monkeypatch):
    # feature entry 0 carries the score straight through forward()
    def forward_score(model, features):
        probs = np.zeros(len(CLASSES))
        probs[0] = features[0]
        return probs
    monkeypatch.setattr(mlp, "forward", forward_score)
    rng = np.random.default_rng(8)
    for trial in range(300):
        n = int(rng.integers(1, 40))
        # few distinct levels, so ties and zeros are common
        scores = rng.choice(np.r_[0.0, rng.uniform(0.0, 1.0, 5)], size=n)
        negatives = [np.r_[s, np.zeros(11)] for s in scores]
        for target in (0.01, 0.1, 1.0 / 3.0, 0.5, 0.9, rng.uniform(0.0, 1.0)):
            assert (calibrate_threshold(None, negatives, target)
                    == brute_force_tau(scores, target)), (trial, target)


def test_calibrate_validates_inputs():
    model = zero_model()
    with pytest.raises(EmptyNegatives):
        calibrate_threshold(model, [], 0.1)
    with pytest.raises(ValidationError):
        calibrate_threshold(model, [np.zeros(12)], 1.5)
    # the first bad row raises, at the head of the list or after scored rows
    for negatives in ([np.zeros(11)], [np.zeros(12), np.zeros(12), np.zeros(11)]):
        with pytest.raises(ShapeMismatch, match=r"^features must have shape \(12,\)"):
            calibrate_threshold(model, negatives, 0.1)


# -- serialization ------------------------------------------------------------

def _layers_with(layer, part, value):
    """The zero model's layers, with ``value`` added to one weight or bias."""
    layers = zero_model().to_dict()["layers"]
    layers[layer][part] = (np.asarray(layers[layer][part]) + value).tolist()
    return layers


@pytest.mark.parametrize("change", [
    {"layers": [1]}, {"layers": [{"w": 1}]}, {"layer_sizes": 5},
    {"feat_mean": "x"}, {"tau": "x"}, {"tau": None},
    {"schema": "mlp/0"}, {"layers": None}, {"tau": 2.0}, {"feat_std": [0.0] * 12},
    {"layers": _layers_with(0, "w", float("nan"))},
    {"layers": _layers_with(3, "b", float("inf"))},
    # keys that were ignored: a misspelt tau loaded as tau 0, plain argmax
    {"Tau": 0.5}, {"comment": "x"},
    {"layers": [{**L, "v": 0.0} for L in zero_model().to_dict()["layers"]]},
    {"layers": [{"w": L["w"]} for L in zero_model().to_dict()["layers"]]},
])
def test_model_from_dict_maps_bad_values(change):
    obj = {**zero_model().to_dict(), **change}
    with pytest.raises(ShapeMismatch if "layer_sizes" in change else MalformedConfig):
        MlpModel.from_dict(obj)


def test_model_json_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    model = he_model(rng)
    model.tau = 0.375
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    for w1, w2 in zip(model.weights, back.weights):
        np.testing.assert_array_equal(w1, w2)
    for b1, b2 in zip(model.biases, back.biases):
        np.testing.assert_array_equal(b1, b2)
    np.testing.assert_array_equal(model.feat_mean, back.feat_mean)
    np.testing.assert_array_equal(model.feat_std, back.feat_std)
    assert back.tau == model.tau
