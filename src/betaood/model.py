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
from dataclasses import asdict, dataclass, field, fields

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


# What a value must be, by the type of the example it is checked against.
_KINDS = {int: "an integer >= {lowest}", float: "a finite number", str: "a string",
          dict: "a JSON object"}


def _fits(value, example, lowest: int) -> bool:
    if isinstance(example, list):
        return isinstance(value, list) and all(_fits(v, example[0], lowest) for v in value)
    if isinstance(value, bool):
        return False
    if isinstance(example, float):
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(example, int):
        return isinstance(value, int) and value >= lowest
    return isinstance(value, type(example))


def check_fields(doc, examples: dict, where: str) -> None:
    """The one key/type rule of config files, command-line flags, checkpoints and
    TrainConfig: ``doc`` is an object whose keys are all ``examples``' keys.

    Each value has the type of its key's example.  A bool is neither an int
    nor a float; an int is a count >= 1, or for ``seed`` >= 0; a float is a
    finite number, an int included; a list holds values of the type of its
    example's first element.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"malformed {where}: must be a JSON object")
    unknown = sorted(set(doc) - set(examples))
    if unknown:
        raise ConfigError(f"malformed {where}: unknown key(s) {', '.join(unknown)}")
    for key, value in doc.items():
        example, lowest = examples[key], 0 if key == "seed" else 1
        if not _fits(value, example, lowest):
            many = isinstance(example, list)
            kind = _KINDS[type(example[0] if many else example)].format(lowest=lowest)
            expected = f"a list, each item {kind}" if many else kind
            raise ConfigError(f"malformed {where}: {key!r} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate_backbone: float = 0.05
    learning_rate_head: float = 10.0
    epochs: int = 20
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        check_fields(asdict(self), _TRAIN_FIELDS, "train config")
        for key in ("learning_rate_backbone", "learning_rate_head"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)!r}")


_TRAIN_FIELDS = {f.name: f.default for f in fields(TrainConfig)}
# A checkpoint's keys, and the arch's, with an example value of each type
# (check_fields); params are checked for shape and finiteness by _check_params.
_CHECKPOINT_FIELDS = {"format_version": CHECKPOINT_FORMAT_VERSION, "arch": {},
                      "train_config": {}, "params": {}, "loss_trace": [0.0]}
_ARCH_FIELDS = {"input_dim": 1, "hidden": [1], "label_count": 1}


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


def param_shapes(arch: ArchConfig) -> dict:
    """Each checkpoint ``params`` key and its shape, in the order init_params draws:
    a hidden (backbone) key holds one shape per layer.  Weights are (fan_out,
    fan_in) and biases (fan_out,)."""
    fan_in = (arch.input_dim, *arch.hidden)
    head = (arch.label_count, fan_in[-1])
    return {"hidden_weights": list(zip(arch.hidden, fan_in)),
            "hidden_biases": [(h,) for h in arch.hidden],
            "w_pos": head, "b_pos": head[:1], "w_neg": head, "b_neg": head[:1]}


def _per_layer(fn, value, shape):
    """fn of a key's value: of each layer's for a hidden key, of the one for a head key."""
    return [fn(v) for v in value] if isinstance(shape, list) else fn(value)


def _arrays(shapes: dict, values: dict) -> list:
    """Each array of ``values``, which holds the keys of ``shapes`` as ModelParams
    and gradients do, in the table's order; a hidden key's layer by layer."""
    return [v for key, shape in shapes.items()
            for v in (values[key] if isinstance(shape, list) else [values[key]])]


def init_params(arch: ArchConfig, seed: int) -> ModelParams:
    """Scaled-uniform init: W ~ U(-s, s) with s = sqrt(1/fan_in); biases zero."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def draw(shape):
        s = np.sqrt(1.0 / shape[-1])
        return rng.uniform(-s, s, size=shape) if len(shape) == 2 else np.zeros(shape)

    return ModelParams(arch, **{k: _per_layer(draw, s, s) for k, s in param_shapes(arch).items()})


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
def train(features: np.ndarray, labels: np.ndarray, arch: ArchConfig,
          config: TrainConfig) -> Checkpoint:
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
    shapes = param_shapes(arch)
    rates = {key: [config.learning_rate_backbone] * len(shape) if isinstance(shape, list)
             else config.learning_rate_head for key, shape in shapes.items()}
    # each array with its rate; the step updates the arrays in place
    steps = list(zip(_arrays(shapes, vars(params)), _arrays(shapes, rates)))
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
            for (a, rate), g in zip(steps, _arrays(shapes, grads)):
                a -= rate * g
        # exact sum: the epoch mean is independent of batch partitioning
        trace.append(math.fsum(sample_losses) / n)
    if not all(np.isfinite(a).all() for a, _ in steps):
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
        "arch": asdict(ckpt.params.arch),
        "train_config": asdict(ckpt.train_config),
        "params": {key: getattr(ckpt.params, key) for key in param_shapes(ckpt.params.arch)},
        "loss_trace": ckpt.loss_trace,
    }
    # each array is written as its tolist()
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist)


def _param_arrays(value, key: str, shape):
    """A checkpoint ``params`` value as float arrays, a list of them for a hidden
    key; a value that is not an array of numbers is reported by its name."""
    if isinstance(shape, list):
        if not isinstance(value, list):
            raise DataError(f"parameter {key!r} must be a list of per-layer arrays")
        return [_param_arrays(v, f"{key}[{i}]", ()) for i, v in enumerate(value)]
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"parameter {key!r} is not an array of numbers: {exc}") from None


def _check_params(params: ModelParams) -> None:
    """Every parameter array has the shape its arch gives and finite entries."""
    shapes, values = param_shapes(params.arch), vars(params)
    for key, shape in shapes.items():  # else the zip below pairs arrays with wrong shapes
        if isinstance(shape, list) and len(values[key]) != len(shape):
            raise DataError(f"arch has {len(shape)} hidden layers, but params hold "
                            f"{len(values[key])} {key} arrays")
    names = {key: [f"{key}[{i}]" for i in range(len(shape))] if isinstance(shape, list)
             else key for key, shape in shapes.items()}
    for name, value, shape in zip(*(_arrays(shapes, m) for m in (names, values, shapes))):
        if value.shape != shape:
            raise DataError(f"parameter {name!r} has shape {value.shape}, expected {shape}")
        if not np.isfinite(value).all():
            raise DataError(f"parameter {name!r} holds a non-finite value")


def _check_keys(doc: dict, keys, where: str) -> None:
    """A checkpoint section holds every one of ``keys`` and no other key."""
    for problem, names in (("missing", set(keys) - set(doc)), ("unknown", set(doc) - set(keys))):
        if names:
            raise ConfigError(f"malformed {where}: {problem} key(s) {', '.join(sorted(names))}")


def checkpoint_from_json(text: str) -> Checkpoint:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed checkpoint JSON: {exc}") from exc
    check_fields(doc, _CHECKPOINT_FIELDS, "checkpoint")
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise DataError(
            f"unsupported checkpoint format version {version!r} "
            f"(expected {CHECKPOINT_FORMAT_VERSION})"
        )
    try:
        for where, fields_ in (("arch", _ARCH_FIELDS), ("train_config", _TRAIN_FIELDS)):
            check_fields(doc[where], fields_, where)
            _check_keys(doc[where], fields_, where)
        arch = ArchConfig(**doc["arch"])
        tc = TrainConfig(**doc["train_config"])
        shapes = param_shapes(arch)
        _check_keys(doc["params"], shapes, "params")
        params = ModelParams(arch, **{
            key: _param_arrays(doc["params"][key], key, shape) for key, shape in shapes.items()
        })
        loss_trace = doc["loss_trace"]
    except KeyError as exc:
        raise DataError(f"checkpoint is missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint field: {exc}") from exc
    _check_params(params)
    return Checkpoint(params, tc, loss_trace, version)
