"""Focal-loss MLP classifier over the 12 feature angles.

The architecture is fixed: dense layers 12 -> 50 -> 50 -> 50 -> 7 with ReLU
hidden activations and a softmax head over the six target gestures plus
Negative. Inputs are standardized by training-set mean/std stored in the
model, so a saved model is self-contained. Training is plain mini-batch
Adam, single-threaded and bitwise reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    EmptyDataset,
    EmptyNegatives,
    MalformedConfig,
    NumericalError,
    ShapeMismatch,
    SingleClassDataset,
    UnknownLabel,
    ValidationError,
)
from .features import FEATURE_SIZE
from .labels import CLASSES, NEGATIVE_LABEL
from .skeleton import (check_keys, check_list, check_name, check_number, decode_config,
                       float_array, read_json, write_json)

LAYER_SIZES = (FEATURE_SIZE, 50, 50, 50, len(CLASSES))
MODEL_SCHEMA = "mlp/1"

NEGATIVE_INDEX = CLASSES.index(NEGATIVE_LABEL)

# probabilities are clamped here before any log
P_FLOOR = 1e-12

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


# -- model --------------------------------------------------------------------

class MlpModel:
    """Dense weights plus the input standardization and acceptance threshold.

    ``weights[k]`` has shape (fan_out, fan_in) and ``biases[k]`` shape
    (fan_out,) for layer k of LAYER_SIZES. ``tau`` is the calibrated
    acceptance threshold; 0 means plain argmax. ``history`` carries the
    per-epoch training/validation losses of the run that produced the
    model and is not serialized.
    """

    __slots__ = ("weights", "biases", "feat_mean", "feat_std", "tau", "history")

    def __init__(self, weights, biases, feat_mean, feat_std, tau=0.0, history=None):
        shapes = list(zip(LAYER_SIZES[1:], LAYER_SIZES))  # (fan_out, fan_in)
        weights, biases = list(weights), list(biases)
        if len(weights) != len(shapes) or len(biases) != len(shapes):
            raise ShapeMismatch(f"expected {len(shapes)} layers, "
                                f"got {len(weights)} weights / {len(biases)} biases")
        weights = [float_array(w, f"layer {k} weights", shape)
                   for k, (w, shape) in enumerate(zip(weights, shapes))]
        biases = [float_array(b, f"layer {k} bias", shape[:1])
                  for k, (b, shape) in enumerate(zip(biases, shapes))]
        if not all(np.isfinite(a).all() for a in weights + biases):
            raise MalformedConfig("non-finite weights or biases")
        feat_mean = float_array(feat_mean, "feat_mean", (FEATURE_SIZE,))
        feat_std = float_array(feat_std, "feat_std", (FEATURE_SIZE,))
        if not np.all(np.isfinite(feat_mean)) or not np.all(np.isfinite(feat_std)):
            raise MalformedConfig("non-finite standardization stats")
        if np.any(feat_std <= 0.0):
            raise MalformedConfig("feat_std entries must be positive")
        tau = float(check_number(tau, "tau", 0, 1, ends="[]", error=MalformedConfig))
        self.weights = weights
        self.biases = biases
        self.feat_mean = feat_mean
        self.feat_std = feat_std
        self.tau = tau
        self.history = history

    def to_dict(self) -> dict:
        return {
            "schema": MODEL_SCHEMA,
            "layer_sizes": list(LAYER_SIZES),
            "layers": [{"w": w.tolist(), "b": b.tolist()}
                       for w, b in zip(self.weights, self.biases)],
            "feat_mean": self.feat_mean.tolist(),
            "feat_std": self.feat_std.tolist(),
            "tau": self.tau,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "MlpModel":
        # a misspelt "Tau" would otherwise load as tau 0, plain argmax
        check_keys(obj, frozenset({"schema", "layer_sizes", "layers", "feat_mean", "feat_std"}),
                   "model", frozenset({"tau"}))
        check_name(obj["schema"], (MODEL_SCHEMA,), "schema", error=MalformedConfig)
        if obj["layer_sizes"] != list(LAYER_SIZES):
            raise ShapeMismatch(f"layer_sizes must be {list(LAYER_SIZES)}")
        layers = [check_keys(L, frozenset({"w", "b"}), "model layer")
                  for L in check_list(obj["layers"], "layers")]
        array = partial(float_array, error=MalformedConfig)
        return cls([array(L["w"], f"layer {k} weights") for k, L in enumerate(layers)],
                   [array(L["b"], f"layer {k} bias") for k, L in enumerate(layers)],
                   array(obj["feat_mean"], "feat_mean"), array(obj["feat_std"], "feat_std"),
                   obj.get("tau", 0.0))


def save_model(model: MlpModel, path) -> None:
    write_json(path, model.to_dict())


def load_model(path) -> MlpModel:
    return read_json(path, MlpModel.from_dict)


@dataclass(frozen=True)
class TrainConfig:
    """Focal-loss and optimizer settings; alpha is the per-class weight."""

    SCHEMA = "train/1"  # the config file's tag, not a field

    gamma: float = 2.0
    alpha: float | tuple = (1.0,) * len(CLASSES)
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 100
    seed: int = 0
    val_fraction: float = 0.1

    def __post_init__(self):
        alpha = float_array(self.alpha, "alpha")
        alpha = float_array(np.full(len(CLASSES), alpha) if alpha.ndim == 0 else alpha,
                            "alpha", (len(CLASSES),))
        if np.any(alpha <= 0.0) or not np.all(np.isfinite(alpha)):
            raise ValidationError("alpha entries must be positive and finite")
        object.__setattr__(self, "alpha", tuple(alpha.tolist()))
        check_number(self.gamma, "gamma", 0)
        check_number(self.batch_size, "batch_size", 1, integer=True)
        check_number(self.epochs, "epochs", 1, integer=True)
        check_number(self.seed, "seed", 0, integer=True)
        check_number(self.learning_rate, "learning_rate", 0, ends="()")
        check_number(self.val_fraction, "val_fraction", 0, 1)

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        return decode_config(cls, obj, "training config")


# -- inference ----------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    z = float_array(logits, "logits")
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def _forward_batch(model: MlpModel, x: np.ndarray):
    """Probabilities plus the activations backprop needs.

    ``x`` is (n, 12) already standardized. Returns (probs, activations,
    preacts) where activations[0] is the input.
    """
    acts = [x]
    pres = []
    h = x
    last = len(model.weights) - 1
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w.T + b
        pres.append(z)
        if k < last:
            h = np.maximum(z, 0.0)
            acts.append(h)
    return softmax(pres[-1]), acts, pres


def forward(model: MlpModel, features) -> np.ndarray:
    """Class probabilities for one feature vector, CLASSES order."""
    x = float_array(features, "features", (FEATURE_SIZE,))
    std = (x - model.feat_mean) / model.feat_std
    probs, _, _ = _forward_batch(model, std[None])
    return probs[0]


def classify_nn(model: MlpModel, features) -> str:
    """Argmax label; a gesture whose probability fails tau becomes Negative."""
    probs = forward(model, features)
    best = int(np.argmax(probs))
    if best != NEGATIVE_INDEX and probs[best] <= model.tau:
        return NEGATIVE_LABEL
    return CLASSES[best]


# -- focal loss ---------------------------------------------------------------

def _label_index(label) -> int:
    return CLASSES.index(check_name(label, CLASSES, "label", error=UnknownLabel))


def focal_loss(probs, label, gamma: float = 2.0, alpha=1.0) -> float:
    """-alpha_t (1 - p_t)^gamma ln(p_t), with p_t clamped to [1e-12, 1];
    gamma and alpha are checked as TrainConfig checks them."""
    p = float_array(probs, "probs", (len(CLASSES),))
    cfg = TrainConfig(gamma=gamma, alpha=alpha)
    target = np.array([_label_index(label)])
    return float(_focal_batch(p[None], target, cfg.gamma, np.asarray(cfg.alpha))[0])


def _focal_batch(probs: np.ndarray, targets: np.ndarray, gamma: float,
                 alpha: np.ndarray) -> np.ndarray:
    pt = np.clip(probs[np.arange(len(targets)), targets], P_FLOOR, 1.0)
    return -alpha[targets] * (1.0 - pt) ** gamma * np.log(pt)


def _focal_coeff(pt: np.ndarray, gamma: float, alpha_t: np.ndarray) -> np.ndarray:
    """d(focal)/d(logits) = coeff * (p - onehot); gamma=0 reduces to alpha."""
    if gamma == 0.0:
        return alpha_t.copy()
    one_m = 1.0 - pt
    log_pt = np.log(pt)
    safe = np.maximum(one_m, P_FLOOR)
    c = alpha_t * (safe ** gamma - gamma * pt * safe ** (gamma - 1.0) * log_pt)
    # at the exact minimum the loss is flat
    return np.where(one_m <= P_FLOOR, 0.0, c)


def _backward_batch(model: MlpModel, probs, acts, pres, targets: np.ndarray,
                    gamma: float, alpha: np.ndarray):
    """Mean-loss gradients for every weight and bias, output layer last."""
    n = len(targets)
    pt = np.clip(probs[np.arange(n), targets], P_FLOOR, 1.0)
    coeff = _focal_coeff(pt, gamma, alpha[targets])
    delta = probs.copy()
    delta[np.arange(n), targets] -= 1.0
    delta *= coeff[:, None] / n
    g_w = [None] * len(model.weights)
    g_b = [None] * len(model.weights)
    for k in range(len(model.weights) - 1, -1, -1):
        g_w[k] = delta.T @ acts[k]
        g_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ model.weights[k]) * (pres[k - 1] > 0.0)
    return g_w, g_b


# -- training -----------------------------------------------------------------

def _dataset_arrays(examples):
    if len(examples) == 0:
        raise EmptyDataset("training dataset is empty")
    features, labels = zip(*examples)
    x = float_array(features, "features", (len(examples), FEATURE_SIZE))
    y = np.array([_label_index(label) for label in labels], dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise SingleClassDataset("training requires at least two distinct labels")
    return x, y


def train(examples, config: TrainConfig | None = None) -> MlpModel:
    """Mini-batch Adam on focal loss; returns the model with loss history.

    ``examples`` is a list of (features, label) pairs: a 12-element
    feature vector in feature_vector order and a class of CLASSES.

    Weight initialization is He-uniform seeded by config.seed, so two runs
    with the same seed and data produce identical weights. Standardization
    stats come from the training split (a val_fraction slice is held out
    for the validation loss curve). Raises NumericalError at the end of the
    first epoch whose loss or weights are not finite, so no model that its
    own loader rejects comes out.
    """
    config = config or TrainConfig()
    x_all, y_all = _dataset_arrays(examples)
    n = len(x_all)
    rng = np.random.default_rng(config.seed)

    # draw order is frozen: weights, then the split, then epoch shuffles.
    # Every weight and bias is a view of one flat buffer, in gradient_check's
    # order (w0, b0, w1, b1, ...), so one Adam update steps them all
    params = np.zeros(sum((fan_in + 1) * fan_out
                          for fan_in, fan_out in zip(LAYER_SIZES, LAYER_SIZES[1:])))
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(LAYER_SIZES, LAYER_SIZES[1:]):
        w = params[at:at + fan_out * fan_in].reshape(fan_out, fan_in)
        limit = np.sqrt(6.0 / fan_in)
        w[...] = rng.uniform(-limit, limit, w.shape)
        at += w.size
        weights.append(w)
        biases.append(params[at:at + fan_out])
        at += fan_out

    perm = rng.permutation(n)
    n_val = min(int(n * config.val_fraction), n - 1)
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    mean = x_all[train_idx].mean(axis=0)
    std = np.maximum(x_all[train_idx].std(axis=0), 1e-6)
    x_std = (x_all - mean) / std

    model = MlpModel(weights, biases, mean, std)
    alpha = np.asarray(config.alpha)
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    step = 0
    train_hist, val_hist = [], []

    for _ in range(config.epochs):
        order = train_idx[rng.permutation(len(train_idx))]
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            xb, yb = x_std[batch], y_all[batch]
            probs, acts, pres = _forward_batch(model, xb)
            epoch_loss += float(np.sum(_focal_batch(probs, yb, config.gamma, alpha)))
            g_w, g_b = _backward_batch(model, probs, acts, pres, yb,
                                       config.gamma, alpha)
            g = np.concatenate([a.ravel() for pair in zip(g_w, g_b) for a in pair])
            step += 1
            c1 = 1.0 - _ADAM_BETA1 ** step
            c2 = 1.0 - _ADAM_BETA2 ** step
            m *= _ADAM_BETA1
            m += (1.0 - _ADAM_BETA1) * g
            v *= _ADAM_BETA2
            v += (1.0 - _ADAM_BETA2) * g * g
            params -= config.learning_rate * (m / c1) / (np.sqrt(v / c2) + _ADAM_EPS)
        train_hist.append(epoch_loss / len(order))
        if not (np.isfinite(epoch_loss) and np.isfinite(params).all()):
            raise NumericalError(f"training diverged in epoch {len(train_hist)}: the loss "
                                 f"or the weights are no longer finite; lower learning_rate")
        if n_val:
            vp, _, _ = _forward_batch(model, x_std[val_idx])
            val_hist.append(float(np.mean(
                _focal_batch(vp, y_all[val_idx], config.gamma, alpha))))

    model.history = {"train_loss": train_hist, "val_loss": val_hist}
    return model


# -- verification and calibration ---------------------------------------------

def gradient_check(model: MlpModel, features, label: str,
                   gamma: float = 2.0, alpha=1.0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Every weight and bias is probed with step 1e-5; the relative error
    denominator is floored at 1e-4 so entries with near-zero gradient are
    judged by absolute error instead.

    The probes of a layer run as one batch: moving W_k[i, j] by h moves only
    unit i of layer k's pre-activation, by h * a_{k-1}[j], and moving b_k[i]
    moves it by h. Each probe is that shifted pre-activation pushed through
    the layers above, so the model is never copied or written to, and the
    numeric side never calls the backward pass it checks.
    """
    x = float_array(features, "features", (FEATURE_SIZE,))
    x_std = ((x - model.feat_mean) / model.feat_std)[None]
    target = np.array([_label_index(label)])
    a_vec = np.asarray(TrainConfig(gamma=gamma, alpha=alpha).alpha)

    probs, acts, pres = _forward_batch(model, x_std)
    g_w, g_b = _backward_batch(model, probs, acts, pres, target, gamma, a_vec)
    analytic = np.concatenate([a.ravel() for pair in zip(g_w, g_b) for a in pair])

    h = 1e-5
    parts = []
    for k, (a, z) in enumerate(zip(acts, pres)):
        unit = np.eye(z.shape[1])
        # row i * fan_in + j probes W_k[i, j]; the last fan_out rows probe b_k
        steps = h * np.vstack([np.kron(unit, a[0][:, None]), unit])
        zs = np.vstack([z + steps, z - steps])
        for w, b in zip(model.weights[k + 1:], model.biases[k + 1:]):
            zs = np.maximum(zs, 0.0) @ w.T + b
        loss = _focal_batch(softmax(zs), np.repeat(target, len(zs)), gamma, a_vec)
        hi, lo = np.split(loss, 2)
        parts.append((hi - lo) / (2.0 * h))
    numeric = np.concatenate(parts)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    return float(np.max(np.abs(analytic - numeric) / denom))


def calibrate_threshold(model: MlpModel, negatives, target_fpr: float) -> float:
    """Smallest tau keeping the negatives' false-positive fraction in budget.

    ``negatives`` is a list of feature vectors. The score of a negative is
    its max gesture (non-Negative) probability, from the per-row forward
    pass classify_nn compares with tau; tau is the first of 0 and the
    sorted scores whose exceedance fraction is within target_fpr, so the
    calibration set's own FPR is <= target_fpr.
    """
    check_number(target_fpr, "target_fpr", 0, 1, ends="()")
    if len(negatives) == 0:
        raise EmptyNegatives("calibration requires at least one negative example")
    scores = np.empty(len(negatives))
    for i, features in enumerate(negatives):
        scores[i] = np.max(np.delete(forward(model, features), NEGATIVE_INDEX))
    ranked = np.sort(scores)
    candidates = np.concatenate(([0.0], ranked))
    above = len(ranked) - np.searchsorted(ranked, candidates, side="right")
    # the largest score has no exceedances, so some candidate is feasible
    return float(candidates[np.argmax(above / len(ranked) <= target_fpr)])
