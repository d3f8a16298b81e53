"""Two-head feedforward network with hand-rolled backprop and plain SGD.

Hidden layers use ELU; two parallel linear heads emit the positive and
negative logit vectors.  The hidden stack ("backbone") and the heads train
with distinct learning rates.  Everything is deterministic given the seed,
and checkpoints round-trip through JSON bit-exactly.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .evidence import (
    EvidencePair,
    Logits,
    Prediction,
    elu_array,
    elu_grad_array,
    evidence_to_prediction,
    logits_to_evidence,
)
from .loss import evidence_stack, loss_and_grad

CHECKPOINT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ArchConfig:
    """Network shape: input dim -> hidden widths -> two L-wide heads."""

    input_dim: int
    hidden: tuple[int, ...]
    label_count: int

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden, self.label_count)
        if any(int(d) != d or d < 1 for d in dims):
            raise ConfigError(f"layer widths must be positive integers, got {dims}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))


def _is_finite_number(value) -> bool:
    """An int or float (not a bool) of finite magnitude."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class TrainConfig:
    learning_rate_backbone: float = 0.05
    learning_rate_head: float = 10.0
    epochs: int = 20
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        for key in ("learning_rate_backbone", "learning_rate_head"):
            rate = getattr(self, key)
            if not _is_finite_number(rate) or rate < 0:
                raise ConfigError(f"{key} must be a finite number >= 0, got {rate!r}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class ModelParams:
    """Hidden-layer weights/biases plus the two head layers."""

    arch: ArchConfig
    hidden_weights: list[np.ndarray]
    hidden_biases: list[np.ndarray]
    w_pos: np.ndarray
    b_pos: np.ndarray
    w_neg: np.ndarray
    b_neg: np.ndarray


def init_params(arch: ArchConfig, seed: int) -> ModelParams:
    """Scaled-uniform init: W ~ U(-s, s) with s = sqrt(1/fan_in); biases zero."""
    rng = np.random.Generator(np.random.PCG64(seed))
    hidden_weights = []
    hidden_biases = []
    fan_in = arch.input_dim
    for width in arch.hidden:
        s = np.sqrt(1.0 / fan_in)
        hidden_weights.append(rng.uniform(-s, s, size=(width, fan_in)))
        hidden_biases.append(np.zeros(width))
        fan_in = width
    s = np.sqrt(1.0 / fan_in)
    w_pos = rng.uniform(-s, s, size=(arch.label_count, fan_in))
    w_neg = rng.uniform(-s, s, size=(arch.label_count, fan_in))
    return ModelParams(
        arch=arch,
        hidden_weights=hidden_weights,
        hidden_biases=hidden_biases,
        w_pos=w_pos,
        b_pos=np.zeros(arch.label_count),
        w_neg=w_neg,
        b_neg=np.zeros(arch.label_count),
    )


def _forward_batch(params: ModelParams, x: np.ndarray):
    """Forward an (N, D) batch: hidden pre-activations, each layer's input, logits."""
    if x.ndim != 2 or x.shape[1] != params.arch.input_dim:
        raise ConfigError(
            f"feature batch must have shape (N, {params.arch.input_dim}), "
            f"got {x.shape}"
        )
    pre_acts = []
    acts = [x]
    for w, b in zip(params.hidden_weights, params.hidden_biases):
        z = acts[-1] @ w.T + b
        pre_acts.append(z)
        acts.append(elu_array(z))
    f_pos = acts[-1] @ params.w_pos.T + params.b_pos
    f_neg = acts[-1] @ params.w_neg.T + params.b_neg
    return pre_acts, acts, f_pos, f_neg


def per_sample_losses(terms: np.ndarray) -> np.ndarray:
    """Bayes-risk loss of each sample from its (N, L) per-label terms, shape (N,)."""
    return terms.mean(axis=1)


def _batch_gradients(params: ModelParams, x: np.ndarray, y: np.ndarray):
    """Per-sample losses and the gradients of their mean, from one forward pass.

    Both heads go through ELU and its derivative as one (N, 2L) block.  The
    head products stay two: numpy sends an (N, H) @ (H, 1) product to BLAS
    gemv, so a stacked product is not bit-equal to them for L = 1.
    """
    n, labels = x.shape[0], params.arch.label_count
    pre_acts, acts, f_pos, f_neg = _forward_batch(params, x)
    f = np.concatenate((f_pos, f_neg), axis=1)
    evidence = elu_array(f) + 2.0
    stack = evidence_stack(evidence[:, :labels], evidence[:, labels:], y)
    if not (np.isfinite(f).all() and np.isfinite(stack[0]).all()):
        raise NumericError("non-finite logits or evidence")
    terms, d_alpha, d_beta = loss_and_grad(stack, y)
    losses = per_sample_losses(terms)
    slope = elu_grad_array(f)
    d_fpos = d_alpha * slope[:, :labels] / n
    d_fneg = d_beta * slope[:, labels:] / n
    grads = {
        "w_pos": d_fpos.T @ acts[-1],
        "b_pos": d_fpos.sum(axis=0),
        "w_neg": d_fneg.T @ acts[-1],
        "b_neg": d_fneg.sum(axis=0),
    }
    d_h = d_fpos @ params.w_pos + d_fneg @ params.w_neg
    grads_hw = []
    grads_hb = []
    for layer in range(len(params.hidden_weights) - 1, -1, -1):
        d_z = d_h * elu_grad_array(pre_acts[layer])
        grads_hw.append(d_z.T @ acts[layer])
        grads_hb.append(d_z.sum(axis=0))
        if layer:  # no gradient w.r.t. the input features
            d_h = d_z @ params.hidden_weights[layer]
    grads["hidden_weights"] = list(reversed(grads_hw))
    grads["hidden_biases"] = list(reversed(grads_hb))
    return losses, grads


@dataclass
class Checkpoint:
    params: ModelParams
    train_config: TrainConfig
    loss_trace: list[float] = field(default_factory=list)
    format_version: int = CHECKPOINT_FORMAT_VERSION


# a diverging run overflows without warnings; train's own checks stop it
@np.errstate(over="ignore", invalid="ignore")
def train(
    features: np.ndarray,
    labels: np.ndarray,
    arch: ArchConfig,
    config: TrainConfig,
) -> Checkpoint:
    """Plain SGD with seeded shuffling and distinct backbone/head rates."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if features.ndim != 2 or features.shape[0] == 0:
        raise DataError("training set must be a nonempty (N, D) array")
    if labels.shape != (features.shape[0], arch.label_count):
        raise DataError(
            f"labels must have shape ({features.shape[0]}, {arch.label_count}), "
            f"got {labels.shape}"
        )
    params = init_params(arch, config.seed)
    rng = np.random.Generator(np.random.PCG64(config.seed + 1))
    n = features.shape[0]
    trace = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        sample_losses = []
        for batch, start in enumerate(range(0, n, config.batch_size), start=1):
            idx = order[start : start + config.batch_size]
            xb, yb = features[idx], labels[idx]
            try:
                losses, grads = _batch_gradients(params, xb, yb)
            except NumericError as exc:
                raise NumericError(
                    f"training diverged at epoch {epoch}, batch {batch}: {exc}"
                ) from None
            sample_losses.extend(losses.tolist())
            lr_b = config.learning_rate_backbone
            lr_h = config.learning_rate_head
            for layer in range(len(params.hidden_weights)):
                params.hidden_weights[layer] -= lr_b * grads["hidden_weights"][layer]
                params.hidden_biases[layer] -= lr_b * grads["hidden_biases"][layer]
            params.w_pos -= lr_h * grads["w_pos"]
            params.b_pos -= lr_h * grads["b_pos"]
            params.w_neg -= lr_h * grads["w_neg"]
            params.b_neg -= lr_h * grads["b_neg"]
        # exact sum: the epoch mean is independent of batch partitioning
        trace.append(math.fsum(sample_losses) / n)
    final = (*params.hidden_weights, *params.hidden_biases,
             params.w_pos, params.b_pos, params.w_neg, params.b_neg)
    if not all(np.isfinite(a).all() for a in final):
        raise NumericError(
            f"training diverged at epoch {epoch}, batch {batch}: a parameter is "
            f"non-finite after the last update"
        )
    return Checkpoint(params=params, train_config=config, loss_trace=trace)


def predict_batch(params: ModelParams, features) -> tuple[
    Logits, EvidencePair, Prediction
]:
    """Forward an (N, D) batch and map it through evidence; each result is (N, L).

    An empty batch gives zero-row objects; a row with non-finite logits
    raises NumericError.
    """
    if len(features) == 0:
        x = np.empty((0, params.arch.input_dim))
    else:
        x = np.asarray(features, dtype=float)
    # huge but finite weights overflow here; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, f_pos, f_neg = _forward_batch(params, x)
    finite = np.isfinite(f_pos).all(axis=1) & np.isfinite(f_neg).all(axis=1)
    if not finite.all():
        raise NumericError(f"the logits of row {int(np.argmin(finite))} are not finite")
    logits = Logits(f_pos=f_pos, f_neg=f_neg)
    ev = logits_to_evidence(logits)
    return logits, ev, evidence_to_prediction(ev)


def checkpoint_to_json(ckpt: Checkpoint) -> str:
    """Canonical JSON serialization; floats use shortest round-trip repr."""
    doc = {
        "format_version": ckpt.format_version,
        "arch": {
            "input_dim": ckpt.params.arch.input_dim,
            "hidden": list(ckpt.params.arch.hidden),
            "label_count": ckpt.params.arch.label_count,
        },
        "train_config": {
            "learning_rate_backbone": ckpt.train_config.learning_rate_backbone,
            "learning_rate_head": ckpt.train_config.learning_rate_head,
            "epochs": ckpt.train_config.epochs,
            "batch_size": ckpt.train_config.batch_size,
            "seed": ckpt.train_config.seed,
        },
        "params": {
            "hidden_weights": [w.tolist() for w in ckpt.params.hidden_weights],
            "hidden_biases": [b.tolist() for b in ckpt.params.hidden_biases],
            "w_pos": ckpt.params.w_pos.tolist(),
            "b_pos": ckpt.params.b_pos.tolist(),
            "w_neg": ckpt.params.w_neg.tolist(),
            "b_neg": ckpt.params.b_neg.tolist(),
        },
        "loss_trace": ckpt.loss_trace,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _check_params(params: ModelParams) -> None:
    """Every parameter array has the shape its arch gives and finite entries."""
    arch = params.arch
    if not len(params.hidden_weights) == len(params.hidden_biases) == len(arch.hidden):
        raise DataError(
            f"arch has {len(arch.hidden)} hidden layers, but params hold "
            f"{len(params.hidden_weights)} weight and {len(params.hidden_biases)} bias arrays"
        )
    fan_in = (arch.input_dim, *arch.hidden)
    arrays = {}
    for i, (w, b) in enumerate(zip(params.hidden_weights, params.hidden_biases)):
        arrays[f"hidden_weights[{i}]"] = (w, (arch.hidden[i], fan_in[i]))
        arrays[f"hidden_biases[{i}]"] = (b, (arch.hidden[i],))
    head = (arch.label_count, fan_in[-1])
    arrays["w_pos"] = (params.w_pos, head)
    arrays["b_pos"] = (params.b_pos, head[:1])
    arrays["w_neg"] = (params.w_neg, head)
    arrays["b_neg"] = (params.b_neg, head[:1])
    for key, (value, shape) in arrays.items():
        if value.shape != shape:
            raise DataError(f"parameter {key!r} has shape {value.shape}, expected {shape}")
        if not np.isfinite(value).all():
            raise DataError(f"parameter {key!r} holds a non-finite value")


def checkpoint_from_json(text: str) -> Checkpoint:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed checkpoint JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError("checkpoint JSON must be an object")
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise DataError(
            f"unsupported checkpoint format version {version!r} "
            f"(expected {CHECKPOINT_FORMAT_VERSION})"
        )
    try:
        arch = ArchConfig(
            input_dim=doc["arch"]["input_dim"],
            hidden=tuple(doc["arch"]["hidden"]),
            label_count=doc["arch"]["label_count"],
        )
        tc = TrainConfig(**doc["train_config"])
        p = doc["params"]
        params = ModelParams(
            arch=arch,
            hidden_weights=[np.asarray(w, dtype=float) for w in p["hidden_weights"]],
            hidden_biases=[np.asarray(b, dtype=float) for b in p["hidden_biases"]],
            w_pos=np.asarray(p["w_pos"], dtype=float),
            b_pos=np.asarray(p["b_pos"], dtype=float),
            w_neg=np.asarray(p["w_neg"], dtype=float),
            b_neg=np.asarray(p["b_neg"], dtype=float),
        )
        loss_trace = doc["loss_trace"]
    except KeyError as exc:
        raise DataError(f"checkpoint is missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint field: {exc}") from exc
    if not (isinstance(loss_trace, list) and all(map(_is_finite_number, loss_trace))):
        raise DataError("checkpoint key 'loss_trace' must be a list of finite numbers")
    _check_params(params)
    return Checkpoint(
        params=params,
        train_config=tc,
        loss_trace=loss_trace,
        format_version=version,
    )
