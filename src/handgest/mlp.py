"""Focal-loss MLP classifier over the 12 feature angles.

The architecture is fixed: dense layers 12 -> 50 -> 50 -> 50 -> 7 with ReLU
hidden activations and a softmax head over the six target gestures plus
Negative. Inputs are standardized by training-set mean/std stored in the
model, so a saved model is self-contained. Training is plain mini-batch
Adam, single-threaded and bitwise reproducible for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyDataset,
    EmptyNegatives,
    MalformedFrame,
    ShapeMismatch,
    SingleClassDataset,
    UnknownLabel,
    ValidationError,
)
from .features import FEATURE_SIZE
from .labels import CLASSES, NEGATIVE_LABEL
from .skeleton import decode_config, open_output, read_json

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
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if len(weights) != len(LAYER_SIZES) - 1 or len(biases) != len(weights):
            raise ShapeMismatch(f"expected {len(LAYER_SIZES) - 1} layers, "
                                f"got {len(weights)} weights / {len(biases)} biases")
        for k, (fan_in, fan_out) in enumerate(zip(LAYER_SIZES, LAYER_SIZES[1:])):
            if weights[k].shape != (fan_out, fan_in):
                raise ShapeMismatch(f"layer {k} weights: expected {(fan_out, fan_in)}, "
                                    f"got {weights[k].shape}")
            if biases[k].shape != (fan_out,):
                raise ShapeMismatch(f"layer {k} bias: expected ({fan_out},), "
                                    f"got {biases[k].shape}")
        feat_mean = np.asarray(feat_mean, dtype=np.float64)
        feat_std = np.asarray(feat_std, dtype=np.float64)
        if feat_mean.shape != (FEATURE_SIZE,) or feat_std.shape != (FEATURE_SIZE,):
            raise ShapeMismatch("feat_mean/feat_std must have 12 entries")
        if not np.all(np.isfinite(feat_mean)) or not np.all(np.isfinite(feat_std)):
            raise MalformedFrame("non-finite standardization stats")
        if np.any(feat_std <= 0.0):
            raise MalformedFrame("feat_std entries must be positive")
        tau = float(tau)
        if not 0.0 <= tau <= 1.0:
            raise MalformedFrame(f"tau must lie in [0, 1], got {tau}")
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
        if not isinstance(obj, dict) or obj.get("schema") != MODEL_SCHEMA:
            raise MalformedFrame(f"expected schema {MODEL_SCHEMA!r}")
        if obj.get("layer_sizes") != list(LAYER_SIZES):
            raise ShapeMismatch(f"layer_sizes must be {list(LAYER_SIZES)}")
        layers = obj.get("layers")
        if not isinstance(layers, list):
            raise MalformedFrame("missing layers")
        try:
            return cls([L["w"] for L in layers], [L["b"] for L in layers],
                       obj["feat_mean"], obj["feat_std"], obj.get("tau", 0.0))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedFrame(f"bad model: {exc!r}") from exc


def save_model(model: MlpModel, path) -> None:
    with open_output(path) as fh:
        fh.write(json.dumps(model.to_dict()) + "\n")


def load_model(path) -> MlpModel:
    return MlpModel.from_dict(read_json(path))


@dataclass(frozen=True)
class TrainConfig:
    """Focal-loss and optimizer settings; alpha is the per-class weight."""

    gamma: float = 2.0
    alpha: float | tuple = (1.0,) * len(CLASSES)
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 100
    seed: int = 0
    val_fraction: float = 0.1

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.float64)
        if alpha.ndim == 0:
            alpha = np.full(len(CLASSES), float(alpha))
        if alpha.shape != (len(CLASSES),):
            raise ShapeMismatch(f"alpha must have {len(CLASSES)} entries")
        if np.any(alpha <= 0.0) or not np.all(np.isfinite(alpha)):
            raise ValidationError("alpha entries must be positive and finite")
        object.__setattr__(self, "alpha", tuple(float(a) for a in alpha))
        if self.gamma < 0.0:
            raise ValidationError(f"gamma must be >= 0, got {self.gamma}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0.0:
            raise ValidationError("learning_rate must be positive")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValidationError("val_fraction must lie in [0, 1)")

    def to_dict(self) -> dict:
        return {"gamma": self.gamma, "alpha": list(self.alpha),
                "learning_rate": self.learning_rate, "batch_size": self.batch_size,
                "epochs": self.epochs, "seed": self.seed,
                "val_fraction": self.val_fraction}

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        return decode_config(cls, obj, "training config")


@dataclass(frozen=True)
class LabeledExample:
    """A feature vector with its class label (six gestures or Negative)."""

    features: object  # FeatureVector or any 12-element array-like
    label: str

    def __post_init__(self):
        if self.label not in CLASSES:
            raise UnknownLabel(f"label {self.label!r} not in {CLASSES}")


def _features_array(features) -> np.ndarray:
    arr = features.as_array() if hasattr(features, "as_array") else features
    arr = np.asarray(arr, dtype=np.float64)
    if arr.shape != (FEATURE_SIZE,):
        raise ShapeMismatch(f"expected {FEATURE_SIZE} features, got {arr.shape}")
    return arr


# -- inference ----------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    z = np.asarray(logits, dtype=np.float64)
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
    x = _features_array(features)
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
    if isinstance(label, str):
        if label not in CLASSES:
            raise UnknownLabel(f"label {label!r} not in {CLASSES}")
        return CLASSES.index(label)
    return int(label)


def _alpha_vector(alpha) -> np.ndarray:
    a = np.asarray(alpha, dtype=np.float64)
    if a.ndim == 0:
        a = np.full(len(CLASSES), float(a))
    if a.shape != (len(CLASSES),):
        raise ShapeMismatch(f"alpha must be scalar or {len(CLASSES)}-vector")
    return a


def focal_loss(probs, label, gamma: float = 2.0, alpha=1.0) -> float:
    """-alpha_t (1 - p_t)^gamma ln(p_t), with p_t clamped to [1e-12, 1]."""
    p = np.asarray(probs, dtype=np.float64)
    if p.shape != (len(CLASSES),):
        raise ShapeMismatch(f"expected {len(CLASSES)} probabilities, got {p.shape}")
    t = _label_index(label)
    a = _alpha_vector(alpha)[t]
    pt = min(max(float(p[t]), P_FLOOR), 1.0)
    return float(-a * (1.0 - pt) ** gamma * np.log(pt))


def _focal_batch(probs: np.ndarray, targets: np.ndarray, gamma: float,
                 alpha: np.ndarray) -> np.ndarray:
    pt = np.clip(probs[np.arange(len(targets)), targets], P_FLOOR, 1.0)
    return -alpha[targets] * (1.0 - pt) ** gamma * np.log(pt)


def _focal_coeff(pt: np.ndarray, gamma: float, alpha_t: np.ndarray) -> np.ndarray:
    """d(focal)/d(logits) = coeff * (p - onehot); gamma=0 reduces to alpha."""
    if gamma == 0.0:
        return alpha_t.copy()
    one_m = 1.0 - pt
    log_pt = np.log(np.clip(pt, P_FLOOR, 1.0))
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

def _dataset_arrays(dataset):
    if len(dataset) == 0:
        raise EmptyDataset("training dataset is empty")
    x = np.stack([_features_array(ex.features) for ex in dataset])
    y = np.array([_label_index(ex.label) for ex in dataset], dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise SingleClassDataset("training requires at least two distinct labels")
    return x, y


def train(dataset, config: TrainConfig | None = None) -> MlpModel:
    """Mini-batch Adam on focal loss; returns the model with loss history.

    Weight initialization is He-uniform seeded by config.seed, so two runs
    with the same seed and data produce identical weights. Standardization
    stats come from the training split (a val_fraction slice is held out
    for the validation loss curve).
    """
    config = config or TrainConfig()
    x_all, y_all = _dataset_arrays(dataset)
    n = len(x_all)
    rng = np.random.default_rng(config.seed)

    # draw order is frozen: weights, then the split, then epoch shuffles
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
            probs, acts, pres = _forward_batch(model, xb)
            epoch_loss += float(np.sum(_focal_batch(probs, yb, config.gamma, alpha)))
            g_w, g_b = _backward_batch(model, probs, acts, pres, yb,
                                       config.gamma, alpha)
            step += 1
            c1 = 1.0 - _ADAM_BETA1 ** step
            c2 = 1.0 - _ADAM_BETA2 ** step
            for k in range(len(weights)):
                for p, g, m, v in ((weights[k], g_w[k], m_w[k], v_w[k]),
                                   (biases[k], g_b[k], m_b[k], v_b[k])):
                    m *= _ADAM_BETA1
                    m += (1.0 - _ADAM_BETA1) * g
                    v *= _ADAM_BETA2
                    v += (1.0 - _ADAM_BETA2) * g * g
                    p -= config.learning_rate * (m / c1) / (np.sqrt(v / c2) + _ADAM_EPS)
        train_hist.append(epoch_loss / len(order))
        if n_val:
            vp, _, _ = _forward_batch(model, x_std[val_idx])
            val_hist.append(float(np.mean(
                _focal_batch(vp, y_all[val_idx], config.gamma, alpha))))

    model.history = {"train_loss": train_hist, "val_loss": val_hist}
    return model


# -- verification and calibration ---------------------------------------------

def gradient_check(model: MlpModel, example: LabeledExample,
                   gamma: float = 2.0, alpha=1.0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Every weight and bias is probed with step 1e-5; the relative error
    denominator is floored at 1e-4 so entries with near-zero gradient are
    judged by absolute error instead.
    """
    x = _features_array(example.features)
    x_std = ((x - model.feat_mean) / model.feat_std)[None]
    target = np.array([_label_index(example.label)])
    a_vec = _alpha_vector(alpha)

    probs, acts, pres = _forward_batch(model, x_std)
    g_w, g_b = _backward_batch(model, probs, acts, pres, target, gamma, a_vec)
    analytic = np.concatenate([a.ravel() for pair in zip(g_w, g_b) for a in pair])

    work = MlpModel([w.copy() for w in model.weights],
                    [b.copy() for b in model.biases],
                    model.feat_mean, model.feat_std, model.tau)

    def loss_now() -> float:
        p, _, _ = _forward_batch(work, x_std)
        return float(_focal_batch(p, target, gamma, a_vec)[0])

    h = 1e-5
    parts = []
    for arr in (a for pair in zip(work.weights, work.biases) for a in pair):
        flat = arr.ravel()  # view: in-place probes hit the model
        g = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_now()
            flat[i] = orig - h
            lo = loss_now()
            flat[i] = orig
            g[i] = (hi - lo) / (2.0 * h)
        parts.append(g)
    numeric = np.concatenate(parts)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    return float(np.max(np.abs(analytic - numeric) / denom))


def calibrate_threshold(model: MlpModel, negatives, target_fpr: float) -> float:
    """Smallest tau keeping the negatives' false-positive fraction in budget.

    The score of a negative is its max gesture (non-Negative) probability;
    tau is found by sweeping the sorted scores, so on the calibration set
    itself the achieved FPR is <= target_fpr by construction.
    """
    if not 0.0 < target_fpr < 1.0:
        raise ValidationError(f"target_fpr must lie in (0, 1), got {target_fpr}")
    if len(negatives) == 0:
        raise EmptyNegatives("calibration requires at least one negative example")
    for ex in negatives:
        if ex.label != NEGATIVE_LABEL:
            raise ValidationError(f"calibration example labeled {ex.label!r}, "
                                  f"expected {NEGATIVE_LABEL!r}")
    scores = np.empty(len(negatives))
    for i, ex in enumerate(negatives):
        probs = forward(model, ex.features)
        scores[i] = np.max(np.delete(probs, NEGATIVE_INDEX))
    for tau in (0.0, *np.sort(scores)):
        if np.mean(scores > tau) <= target_fpr:
            return float(tau)
    # unreachable: the largest score always yields zero exceedances
    raise AssertionError("threshold sweep found no feasible tau")
