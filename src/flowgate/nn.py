"""Minimal dense-network substrate: tensors, reverse-mode gradients, Adam.

Everything runs eagerly on float64 numpy arrays. While a GradTape is active,
operations also record backward closures; `backward` replays them in reverse
to produce exact gradients for every tensor the tape touched. Double precision
keeps the finite-difference checks in the test suite tight. Each computation
is defined once: a frozen network runs the same operations inside `off_tape()`,
which records nothing even under an active tape, so its outputs are constants
to any surrounding gradient.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import BadConfig, DetachedLoss, ShapeMismatch
from .seeding import rng_for

Array = np.ndarray


class Activation(Enum):
    LINEAR = "linear"
    RELU = "relu"
    LEAKY_RELU = "leaky_relu"
    TANH = "tanh"
    SIGMOID = "sigmoid"


LEAKY_RELU_SLOPE = 0.2


class Tensor:
    """A float64 array; `backward` returns gradients keyed by tensor."""

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        self.data = np.asarray(data, dtype=np.float64)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


BackwardFn = Callable[[Array], tuple[Array | None, ...]]

# the innermost entry records; None (pushed by off_tape) records nothing
_TAPE_STACK: list[GradTape | None] = []


class GradTape:
    """Records operations so a scalar loss can be differentiated in reverse.

    Creation order of tape records is a topological order of the computation,
    so the backward pass simply walks the records once, back to front.
    """

    def __init__(self) -> None:
        self._records: list[tuple[Tensor, tuple[Tensor, ...], BackwardFn]] = []
        self._outputs: set[int] = set()

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPE_STACK.pop()

    def __len__(self) -> int:
        return len(self._records)


@contextmanager
def off_tape():
    """Operations inside record nothing, even under an active GradTape; their
    results are constants to it."""
    _TAPE_STACK.append(None)
    try:
        yield
    finally:
        _TAPE_STACK.pop()


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn: BackwardFn) -> Tensor:
    tape = _TAPE_STACK[-1] if _TAPE_STACK else None
    if tape is not None:
        tape._records.append((out, inputs, backward_fn))
        tape._outputs.add(id(out))
    return out


def backward(tape: GradTape, loss: Tensor) -> dict[Tensor, Array]:
    """Gradients of a scalar loss w.r.t. every tensor on the tape.

    Tensors never touched by the tape are simply absent from the result;
    callers treat them as zero-gradient (see `grads_for`).
    """
    if id(loss) not in tape._outputs:
        raise DetachedLoss("loss was not produced by an operation recorded on this tape")
    if loss.data.size != 1:
        raise ShapeMismatch(f"loss must be a scalar, got shape {loss.data.shape}")
    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    by_id: dict[int, Tensor] = {id(loss): loss}
    for out, inputs, backward_fn in reversed(tape._records):
        g_out = grads.get(id(out))
        if g_out is None:
            continue
        for tensor, g in zip(inputs, backward_fn(g_out)):
            if g is None:
                continue
            key = id(tensor)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g
                by_id[key] = tensor
    return {by_id[k]: g for k, g in grads.items()}


def grads_for(grads: dict[Tensor, Array], params: Sequence[Tensor]) -> list[Array]:
    """Gradient per parameter, zeros for parameters the tape never saw."""
    return [grads[p] if p in grads else np.zeros_like(p.data) for p in params]


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# --- elementwise operations ---

def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def bw(g: Array):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record(out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)

    def bw(g: Array):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _record(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    out = Tensor(ad * bd)

    def bw(g: Array):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _record(out, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)

    def bw(g: Array):
        return (-g,)

    return _record(out, (a,), bw)


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    out = Tensor(e)

    def bw(g: Array):
        return (g * e,)

    return _record(out, (a,), bw)


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))
    ad = a.data

    def bw(g: Array):
        return (g / ad,)

    return _record(out, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    out = Tensor(t)

    def bw(g: Array):
        return (g * (1.0 - t * t),)

    return _record(out, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    # overflow-safe in both tails
    x = a.data
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)
    out = Tensor(s)

    def bw(g: Array):
        return (g * s * (1.0 - s),)

    return _record(out, (a,), bw)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, 0.0))

    def bw(g: Array):
        return (g * mask,)

    return _record(out, (a,), bw)


def leaky_relu(a: Tensor, slope: float = LEAKY_RELU_SLOPE) -> Tensor:
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, slope * a.data))

    def bw(g: Array):
        return (g * np.where(mask, 1.0, slope),)

    return _record(out, (a,), bw)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    out = Tensor(np.clip(a.data, lo, hi))
    inside = (a.data > lo) & (a.data < hi)

    def bw(g: Array):
        return (g * inside,)

    return _record(out, (a,), bw)


# --- reductions ---

def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    out = Tensor(a.data.sum(axis=axis))
    shape = a.data.shape

    def bw(g: Array):
        if axis is None:
            return (np.broadcast_to(g, shape),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape),)

    return _record(out, (a,), bw)


def mean(a: Tensor) -> Tensor:
    out = Tensor(a.data.mean())
    n = a.data.size
    shape = a.data.shape

    def bw(g: Array):
        return (np.broadcast_to(g / n, shape),)

    return _record(out, (a,), bw)


# --- structural ops ---

def take_cols(a: Tensor, idx: Array) -> Tensor:
    out = Tensor(a.data[..., idx])
    shape = a.data.shape

    def bw(g: Array):
        ga = np.zeros(shape)
        ga[..., idx] = g
        return (ga,)

    return _record(out, (a,), bw)


def put_cols(vals: Tensor, idx: Array, width: int) -> Tensor:
    data = np.zeros(vals.data.shape[:-1] + (width,))
    data[..., idx] = vals.data
    out = Tensor(data)

    def bw(g: Array):
        return (g[..., idx],)

    return _record(out, (vals,), bw)


def linear(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """x @ W.T + b for weights shaped [out, in]; x may be [in] or [N, in]."""
    xd, wd, bd = x.data, weights.data, bias.data
    if xd.ndim not in (1, 2) or xd.shape[-1] != wd.shape[1]:
        raise ShapeMismatch(
            f"input shape {xd.shape} incompatible with weights {wd.shape}")
    out = Tensor(xd @ wd.T + bd)

    def bw(g: Array):
        gx = g @ wd
        if xd.ndim == 1:
            return gx, np.outer(g, xd), g
        return gx, g.T @ xd, g.sum(axis=0)

    return _record(out, (x, weights, bias), bw)


_ACTIVATIONS = {
    Activation.LINEAR: lambda x: x,
    Activation.RELU: relu,
    Activation.LEAKY_RELU: leaky_relu,
    Activation.TANH: tanh,
    Activation.SIGMOID: sigmoid,
}


def activate(x: Tensor, activation: Activation) -> Tensor:
    return _ACTIVATIONS[activation](x)


# --- losses ---

def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean of squared element differences."""
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"mse shapes differ: {a.data.shape} vs {b.data.shape}")
    d = sub(a, b)
    return mean(mul(d, d))


def bce(pred: Tensor, target: Tensor) -> Tensor:
    """Mean binary cross-entropy; predictions clamped to [1e-7, 1-1e-7]."""
    if pred.data.shape != target.data.shape:
        raise ShapeMismatch(f"bce shapes differ: {pred.data.shape} vs {target.data.shape}")
    p = clamp(pred, 1e-7, 1.0 - 1e-7)
    t = target
    return neg(mean(t * log(p) + (1.0 - t) * log(1.0 - p)))


# --- layers ---

def as_rows(x, width: int) -> tuple[Array, bool]:
    """`x`, a 1-D row or a 2-D batch of `width` columns, as a float64 batch,
    and whether it was a single row."""
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ShapeMismatch(f"expected rows of width {width}, got shape {arr.shape}")
    return arr, single


class DenseLayer:
    """One fully-connected layer: activation(W x + b) with W shaped [out, in]."""

    def __init__(self, weights: Tensor, bias: Tensor,
                 activation: Activation = Activation.LINEAR) -> None:
        self.weights = weights
        self.bias = bias
        self.activation = activation

    @property
    def n_in(self) -> int:
        return self.weights.data.shape[1]

    @property
    def n_out(self) -> int:
        return self.weights.data.shape[0]

    @property
    def params(self) -> list[Tensor]:
        return [self.weights, self.bias]

    def __call__(self, x: Tensor) -> Tensor:
        return forward(self, x)


def forward(layer: DenseLayer, x: Tensor) -> Tensor:
    return activate(linear(x, layer.weights, layer.bias), layer.activation)


def init_tables(rng: np.random.Generator, nets: Iterable[tuple],
                zero_final: bool = False) -> dict[str, Array]:
    """Initial tables for `nets`, each a (prefix, widths, ...) as `MLP.from_tables`
    takes it, drawn net by net and layer by layer: uniform Glorot weights, zeros
    for each net's last layer if `zero_final`, and zero biases."""
    tables: dict[str, Array] = {}
    for prefix, widths, *_ in nets:
        for i, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:])):
            limit = math.sqrt(6.0 / (n_in + n_out))
            tables[f"{prefix}{i}.W"] = (
                np.zeros((n_out, n_in)) if zero_final and i == len(widths) - 2
                else rng.uniform(-limit, limit, size=(n_out, n_in)))
            tables[f"{prefix}{i}.b"] = np.zeros(n_out)
    return tables


class MLP:
    """A stack of dense layers whose tables are named `{prefix}{i}.W` and `.b`."""

    def __init__(self, layers: Sequence[DenseLayer], prefix: str = "") -> None:
        self.layers = list(layers)
        self.prefix = prefix

    @classmethod
    def create(cls, rng: np.random.Generator, widths: Sequence[int],
               hidden_activation: Activation, final_activation: Activation,
               zero_init_final: bool = False) -> "MLP":
        tables = init_tables(rng, [("", widths)], zero_init_final)
        return cls.from_tables(tables, "", widths, hidden_activation, final_activation)

    @classmethod
    def from_tables(cls, tables: Mapping[str, Array], prefix: str, widths: Sequence[int],
                    hidden: Activation, final: Activation) -> "MLP":
        """The network over `tables[f"{prefix}{i}.W"]` and `.b`, held as they are;
        each must be present with the shape `widths` gives it."""
        if len(widths) < 2:
            raise ShapeMismatch("an MLP needs at least two widths")
        layers = []
        for i, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:])):
            for name, shape in ((f"{prefix}{i}.W", (n_out, n_in)), (f"{prefix}{i}.b", (n_out,))):
                if name not in tables:
                    raise ShapeMismatch(f"missing tensor {name}")
                if tables[name].shape != shape:
                    raise ShapeMismatch(f"tensor {name} has shape {tables[name].shape}, "
                                        f"expected {shape}")
            layers.append(DenseLayer(Tensor(tables[f"{prefix}{i}.W"]),
                                     Tensor(tables[f"{prefix}{i}.b"]),
                                     final if i == len(widths) - 2 else hidden))
        return cls(layers, prefix)

    @property
    def widths(self) -> list[int]:
        return [self.layers[0].n_in] + [lay.n_out for lay in self.layers]

    @property
    def params(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.params]

    def param_items(self) -> list[tuple[str, Tensor]]:
        return [(f"{self.prefix}{i}.{k}", p) for i, layer in enumerate(self.layers)
                for k, p in zip("Wb", layer.params)]

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward_hidden(x)[0]

    def forward_hidden(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Output plus the activation feeding the final layer (the feature tap)."""
        for layer in self.layers[:-1]:
            x = layer(x)
        return self.layers[-1](x), x

    def eval_np(self, x: Array) -> Array:
        """The output for a plain array, computed off the tape."""
        with off_tape():
            return self(Tensor(x)).data


# --- optimizer ---

@dataclass
class TrainConfig:
    """Hyperparameters shared by every training stage; `fit` reads them."""

    epochs: int = 100
    batch_size: int = 64
    lr: float = 0.001
    beta1: float = 0.5
    beta2: float = 0.999
    patience: int = 10
    holdout_fraction: float = 0.1

    def __post_init__(self):
        if self.epochs < 0:
            raise BadConfig(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size < 1:
            raise BadConfig(f"batch_size must be at least 1, got {self.batch_size}")
        if not self.lr > 0:
            raise BadConfig(f"lr must be positive, got {self.lr}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise BadConfig("beta1 and beta2 must lie in [0, 1)")
        if self.patience < 0:
            raise BadConfig(f"patience must be non-negative, got {self.patience}")
        if not 0 <= self.holdout_fraction <= 1:
            raise BadConfig(f"holdout_fraction must lie in [0, 1], got {self.holdout_fraction}")

    def adam_update(self, params: Sequence[Tensor]) -> Callable[[GradTape, Tensor], None]:
        """An Adam state for `params`, stepped by `update(tape, loss)`."""
        state = AdamState(params, lr=self.lr, beta1=self.beta1, beta2=self.beta2)

        def update(tape: GradTape, loss: Tensor) -> None:
            adam_step(state, params, grads_for(backward(tape, loss), params))
        return update

    def to_dict(self) -> dict:
        """Field values with tuples as lists: the form checkpoint meta stores."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d: Mapping):
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


class AdamState:
    """Adam moments for one parameter list; moments start at zero."""

    def __init__(self, params: Sequence[Tensor], lr: float = TrainConfig.lr,
                 beta1: float = TrainConfig.beta1, beta2: float = TrainConfig.beta2,
                 eps: float = 1e-8) -> None:
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self._shapes = [p.data.shape for p in params]


def adam_step(state: AdamState, params: Sequence[Tensor],
              grads: Sequence[Array]) -> Sequence[Tensor]:
    """One bias-corrected Adam update, in place; returns the same params."""
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ShapeMismatch("parameter/gradient count does not match optimizer state")
    t = state.step_count + 1
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.data.shape != state._shapes[i] or g.shape != state._shapes[i]:
            raise ShapeMismatch(f"parameter {i} shape changed under the optimizer")
        m, v = state.m[i], state.v[i]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        gg = g * g
        gg *= 1.0 - state.beta2
        v += gg
        denom = np.asarray(v / bc2)
        np.sqrt(denom, out=denom)
        denom += state.eps
        step = np.asarray(m / denom)
        step *= state.lr / bc1
        p.data = p.data - step
    state.step_count = t
    return params


# --- training utilities ---

def snapshot(params: Sequence[Tensor]) -> list[Array]:
    return [p.data.copy() for p in params]


def restore(params: Sequence[Tensor], saved: Sequence[Array]) -> None:
    for p, s in zip(params, saved):
        p.data = s.copy()


class EarlyStopper:
    """Tracks a held-out metric; stops after `patience` epochs without improvement."""

    def __init__(self, patience: int) -> None:
        self.patience = patience
        self.best = math.inf
        self.best_epoch = -1
        self.bad_epochs = 0

    def update(self, metric: float, epoch: int) -> bool:
        """Returns True when this epoch is a new best."""
        if metric < self.best:
            self.best = metric
            self.best_epoch = epoch
            self.bad_epochs = 0
            return True
        self.bad_epochs += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.bad_epochs >= self.patience


def fit(params: Sequence[Tensor], arrays: Sequence[Array],
        step: Callable[..., None], holdout_metric: Callable[..., float],
        cfg: TrainConfig, seed: int, tag: str) -> tuple[list[float], int, int]:
    """Minibatch training with early stopping on a seeded held-out split.

    The `{tag}-split` stream holds out a `holdout_fraction` of the rows of
    `arrays`, at least one and never all (one row is both train and holdout).
    Each epoch runs `step(*batch)` over minibatches from the `{tag}-batches`
    stream, then scores `holdout_metric(*holdout)`, lower being better. After
    `patience` epochs without a new best it stops; `params` end at the best
    epoch, 0 being the untrained start. Returns (metric per epoch from 0,
    best epoch, training rows).
    """
    n = arrays[0].shape[0]
    perm = rng_for(seed, f"{tag}-split").permutation(n)
    n_hold = min(n - 1, max(1, int(round(n * cfg.holdout_fraction)))) if n > 1 else 0
    train = [a[perm[n_hold:]] for a in arrays]
    hold = [a[perm[:n_hold]] for a in arrays] if n_hold else train
    batch_rng = rng_for(seed, f"{tag}-batches")
    stopper = EarlyStopper(cfg.patience)
    history = [holdout_metric(*hold)]
    stopper.update(history[0], epoch=0)
    best = snapshot(params)
    for epoch in range(1, cfg.epochs + 1):
        order = batch_rng.permutation(n - n_hold)
        for start in range(0, n - n_hold, cfg.batch_size):
            step(*(a[order[start:start + cfg.batch_size]] for a in train))
        history.append(holdout_metric(*hold))
        if stopper.update(history[-1], epoch):
            best = snapshot(params)
        if stopper.should_stop:
            break
    restore(params, best)
    return history, stopper.best_epoch, n - n_hold

