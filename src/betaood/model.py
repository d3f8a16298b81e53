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
    min_zero,
)
from .loss import loss_and_grad

CHECKPOINT_FORMAT_VERSION = 1
# predict_batch's rows per forward pass of a large batch.  On OpenBLAS, blocks of
# 1000 rows or more gave the bits of the whole batch's products in every shape
# tried; blocks of 7-256 rows sometimes did not (a 16-row block of a
# (10000, 32) @ (32, 10) product)
BLOCK_ROWS = 1024


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
# (check_fields); _checkpoint_params checks params for shape and finiteness.
_CHECKPOINT_FIELDS = {"format_version": CHECKPOINT_FORMAT_VERSION, "arch": {},
                      "train_config": {}, "params": {}, "loss_trace": [0.0]}
_ARCH_FIELDS = {"input_dim": 1, "hidden": [1], "label_count": 1}


def param_shapes(arch: ArchConfig) -> dict:
    """Each checkpoint ``params`` key and its shape, in the order init_params draws
    and train lays them out: a hidden (backbone) key holds one shape per layer.
    Weights are (fan_out, fan_in) and biases (fan_out,).  The heads' weights
    come before their biases, which draw nothing, so each pair is adjacent."""
    fan_in = (arch.input_dim, *arch.hidden)
    head = (arch.label_count, fan_in[-1])
    return {"hidden_weights": list(zip(arch.hidden, fan_in)),
            "hidden_biases": [(h,) for h in arch.hidden],
            "w_pos": head, "w_neg": head, "b_pos": head[:1], "b_neg": head[:1]}


def _arrays(shapes: dict, values: dict) -> list:
    """Each array of ``values``, which holds the keys of ``shapes`` as the vars of
    a ModelParams do, in the table's order; a hidden key's layer by layer."""
    return [v for key, shape in shapes.items()
            for v in (values[key] if isinstance(shape, list) else [values[key]])]


class ModelParams:
    """Every parameter array of ``arch`` as a view of ``flat``, one C-contiguous
    1-D float64 buffer that holds exactly their entries in _arrays order: the
    backbone's, then the heads'.  ``heads`` is the (2L, H) weight and the (2L,)
    bias view of its tail, both heads' rows, the positive head's first.
    Gradients are ModelParams too."""

    def __init__(self, arch: ArchConfig, flat: np.ndarray):
        shapes = param_shapes(arch)
        ends = np.cumsum([math.prod(s) for s in _arrays(shapes, shapes)])
        if not (isinstance(flat, np.ndarray) and flat.dtype == np.float64 and flat.ndim == 1
                and flat.flags.c_contiguous and flat.size == ends[-1]):
            raise ConfigError(f"parameters must be one C-contiguous 1-D float64 buffer "
                              f"of {ends[-1]} entries")
        self.arch, self.flat = arch, flat
        parts = iter(np.split(flat, ends))
        for key, shape in shapes.items():
            setattr(self, key, [next(parts).reshape(s) for s in shape]
                    if isinstance(shape, list) else next(parts).reshape(shape))
        rows, width = 2 * arch.label_count, shapes["w_pos"][1]
        biases = flat.size - rows
        self.heads = (flat[biases - rows * width : biases].reshape(rows, width), flat[biases:])


def init_params(arch: ArchConfig, seed: int) -> ModelParams:
    """Scaled-uniform init: W ~ U(-s, s) with s = sqrt(1/fan_in); biases zero."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def draw(shape):
        s = np.sqrt(1.0 / shape[-1])
        return rng.uniform(-s, s, size=shape) if len(shape) == 2 else np.zeros(shape)

    shapes = param_shapes(arch)
    return ModelParams(arch, np.concatenate([draw(s) for s in _arrays(shapes, shapes)], axis=None))


def _check_batch(params: ModelParams, x: np.ndarray) -> None:
    """An (N, D) feature batch, D the arch's input width."""
    if x.ndim != 2 or x.shape[1] != params.arch.input_dim:
        raise ConfigError(
            f"feature batch must have shape (N, {params.arch.input_dim}), "
            f"got {x.shape}"
        )


def _forward_batch(params: ModelParams, x: np.ndarray):
    """Forward an (N, D) batch: hidden pre-activations, each layer's input, and
    both heads' logits as one (N, 2L) block, the positive head's first."""
    _check_batch(params, x)
    pre_acts = []
    acts = [x]
    for w, b in zip(params.hidden_weights, params.hidden_biases):
        z = acts[-1] @ w.T
        z += b
        pre_acts.append(z)
        acts.append(elu_array(z))
    weights, biases = params.heads
    f = acts[-1] @ weights.T
    f += biases
    return pre_acts, acts, f


def per_sample_losses(terms: np.ndarray) -> np.ndarray:
    """Bayes-risk loss of each sample from its (N, L) per-label terms, shape (N,); mean's bits."""
    return np.add.reduce(terms, axis=1) / terms.shape[1]


def _batch_gradients(params: ModelParams, x: np.ndarray, y: np.ndarray, out=None):
    """Per-sample losses and the gradients of their mean, from one forward pass.

    Each gradient is written into its view of ``out``, a ModelParams of the
    same arch; with ``out=None`` a new one is made.  Both heads run as one
    (N, 2L) block: one minimum gives ELU and its slope, and one product and
    one reduction write their gradients into ``out.heads``.  The gradient
    into the last hidden layer stays one product per head: a single
    (N, 2L) @ (2L, H) product sums in another order.
    """
    if out is None:
        out = ModelParams(params.arch, np.empty_like(params.flat))
    n, labels = x.shape[0], params.arch.label_count
    pre_acts, acts, f = _forward_batch(params, x)
    if not np.isfinite(f).all():
        raise NumericError("non-finite logits")
    # ELU as elu_array computes it, and its slope, from one min(f, 0)
    low = min_zero(f)
    slope = np.exp(low)
    evidence = np.maximum(f, np.expm1(low, out=low), out=low)
    evidence += 2.0
    terms, d_f = loss_and_grad(evidence, y)
    losses = per_sample_losses(terms)
    d_f *= slope
    d_f /= n
    np.matmul(d_f.T, acts[-1], out=out.heads[0])
    np.add.reduce(d_f, axis=0, out=out.heads[1])
    d_h = d_f[:, :labels] @ params.w_pos + d_f[:, labels:] @ params.w_neg
    for layer in range(len(params.hidden_weights) - 1, -1, -1):
        d_z = d_h * elu_grad_array(pre_acts[layer])
        np.matmul(d_z.T, acts[layer], out=out.hidden_weights[layer])
        np.add.reduce(d_z, axis=0, out=out.hidden_biases[layer])
        if layer:  # no gradient w.r.t. the input features
            d_h = d_z @ params.hidden_weights[layer]
    return losses, out


@dataclass
class Checkpoint:
    params: ModelParams
    train_config: TrainConfig
    loss_trace: list[float] = field(default_factory=list)


# a diverging run overflows without warnings; train's own checks stop it
@np.errstate(over="ignore", invalid="ignore")
def train(features: np.ndarray, labels: np.ndarray, arch: ArchConfig,
          config: TrainConfig) -> Checkpoint:
    """Plain SGD with seeded shuffling and distinct backbone/head rates.

    The parameters are views of one flat buffer, the backbone's arrays before
    the heads', and each batch writes its gradients into views of a second
    buffer made once per run.  A step scales the gradient in place by a buffer
    of each entry's rate, then subtracts it all at once: the bits of
    a -= rate * g per array.
    """
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
    grads = ModelParams(arch, np.empty_like(params.flat))
    theta, grad = params.flat, grads.flat
    rates = np.full_like(theta, config.learning_rate_head)
    rates[: theta.size - sum(a.size for a in params.heads)] = config.learning_rate_backbone
    rng = np.random.Generator(np.random.PCG64(config.seed + 1))
    n = features.shape[0]
    trace = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        sample_losses = []
        for batch, start in enumerate(range(0, n, config.batch_size), start=1):
            idx = order[start : start + config.batch_size]
            xb, yb = features.take(idx, axis=0), labels.take(idx, axis=0)
            try:
                losses, _ = _batch_gradients(params, xb, yb, out=grads)
            except NumericError as exc:
                raise NumericError(
                    f"training diverged at epoch {epoch}, batch {batch}: {exc}"
                ) from None
            sample_losses.extend(losses.tolist())
            # rate * g, then one subtraction: the bits of a -= rate * g per array
            np.multiply(grad, rates, out=grad)
            theta -= grad
        # exact sum: the epoch mean is independent of batch partitioning
        trace.append(math.fsum(sample_losses) / n)
    if not np.isfinite(theta).all():
        raise NumericError(
            f"training diverged at epoch {epoch}, batch {batch}: a parameter is "
            f"non-finite after the last update"
        )
    return Checkpoint(params=params, train_config=config, loss_trace=trace)


def predict_batch(params: ModelParams, features) -> tuple[
    Logits, EvidencePair, Prediction
]:
    """Forward an (N, D) batch and map it through evidence; each result is (N, L).

    Below 2 BLOCK_ROWS rows the batch is one forward pass.  From there on it
    goes in blocks of BLOCK_ROWS rows, the last taking the BLOCK_ROWS to
    2 BLOCK_ROWS - 1 rows left, and each block's logits are copied into one
    (N, 2L) array: the hidden layers are held for a block, not for the batch.
    Either way there is one Logits, EvidencePair and Prediction, with the bits
    of one pass.  A (0, D) batch gives zero-row objects; a row with non-finite
    logits raises NumericError that names it.
    """
    x = np.asarray(features, dtype=float)
    _check_batch(params, x)
    n = x.shape[0]
    # huge but finite weights overflow here; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        if n < 2 * BLOCK_ROWS:
            f = _forward_batch(params, x)[2]
        else:
            f = np.empty((n, 2 * params.arch.label_count))
            for start in range(0, n - BLOCK_ROWS + 1, BLOCK_ROWS):
                stop = n if start + 2 * BLOCK_ROWS > n else start + BLOCK_ROWS
                f[start:stop] = _forward_batch(params, x[start:stop])[2]
    finite = np.isfinite(f).all(axis=1)
    if not finite.all():
        raise NumericError(f"the logits of row {int(np.argmin(finite))} are not finite")
    labels = params.arch.label_count
    logits = Logits(f_pos=f[:, :labels], f_neg=f[:, labels:])
    ev = logits_to_evidence(logits)
    return logits, ev, evidence_to_prediction(ev)


def checkpoint_to_json(ckpt: Checkpoint) -> str:
    """Canonical JSON serialization; floats use shortest round-trip repr."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "arch": asdict(ckpt.params.arch),
        "train_config": asdict(ckpt.train_config),
        "params": {key: getattr(ckpt.params, key) for key in param_shapes(ckpt.params.arch)},
        "loss_trace": ckpt.loss_trace,
    }
    # each array is written as its tolist()
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist)


def _checkpoint_params(arch: ArchConfig, params: dict) -> ModelParams:
    """ModelParams holding a copy of a checkpoint's ``params``, keyed as param_shapes.
    Each value is a finite array of numbers of its shape, a list of one per layer
    for a hidden key; the first bad one in param_shapes order is named."""
    arrays = []
    for key, shape in param_shapes(arch).items():
        value = params[key]
        named = [(key, value, shape)]
        if isinstance(shape, list):
            if not isinstance(value, list):
                raise DataError(f"parameter {key!r} must be a list of per-layer arrays")
            if len(value) != len(shape):
                raise DataError(f"arch has {len(shape)} hidden layers, but params hold "
                                f"{len(value)} {key} arrays")
            named = [(f"{key}[{i}]", v, s) for i, (v, s) in enumerate(zip(value, shape))]
        for name, v, s in named:
            try:
                array = np.asarray(v, dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"parameter {name!r} is not an array of numbers: {exc}") from None
            if array.shape != s:
                raise DataError(f"parameter {name!r} has shape {array.shape}, expected {s}")
            if not np.isfinite(array).all():
                raise DataError(f"parameter {name!r} holds a non-finite value")
            arrays.append(array)
    return ModelParams(arch, np.concatenate(arrays, axis=None))


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
    _check_keys(doc, _CHECKPOINT_FIELDS, "checkpoint")
    version = doc["format_version"]
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
        _check_keys(doc["params"], param_shapes(arch), "params")
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint field: {exc}") from exc
    return Checkpoint(_checkpoint_params(arch, doc["params"]), tc, doc["loss_trace"])
