"""Minimal dense-network substrate: tensors, reverse-mode gradients, Adam.

Everything runs eagerly on float64 numpy arrays. While a GradTape is active,
operations also record gradient functions; `backward` replays them in one walk
in reverse to produce exact gradients for every leaf the tape touched. Double
precision keeps the finite-difference checks in the test suite tight. A dense
layer's activation is one of this module's operations, such as `relu`, or None
for none. Layers take batches only: a [n, width] array, never a single row.

The activations are branch-free ufunc passes. numpy's `where` on a mask that
depends on the data takes a branch per element, and a mask about half true
mispredicts many of them: such a pass cost eight to ten times a branch-free one.
Each pass gives the bits of its `where` formula for every float64 input,
signed zeros, NaNs, infinities and subnormals included (the comment in each
says why). `relu`'s backward reads its mask from the input its record holds,
so a forward pass builds none.

One rule decides which inputs take a gradient, in one place. An operation
hands `_record` one (input, gradient function) pair per input, and the record
keeps the pairs of the inputs that require a gradient and no others.
`backward` calls each kept function; where its result has a shape other than
its input's (a broadcast operand), `backward` sums it to the input's shape,
and nothing else reduces a broadcast gradient.

There are two ways to stop a gradient, and no other. A tensor whose
`requires_grad` is false is a constant: no gradient is computed for it,
`backward` returns none, and an operation on constants alone is not recorded.
Input batches are made constants. `frozen(params)` makes a parameter list
constant inside it and always restores each flag, so a network that only
passes gradients through computes no weight gradients. Each computation is
defined once: a frozen network run on a constant batch records nothing, even
under an active tape, so its outputs are constants to any surrounding gradient.

Adam updates each parameter's array in place, block by block, with the
operations of an allocating update in the same order, so results are
bit-identical. A training step (`TrainConfig.adam_update`) updates each
parameter as soon as `backward` has its final gradient and then drops that
gradient, so a step holds one weight gradient at a time. A parameter must be a
writeable C-contiguous array, and a trained model must own its tables: nothing
else may hold them while it trains (`snapshot` and
`checkpoint.trained_checkpoint` copy; `restore` copies back into the
parameters' own arrays).
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import BadConfig, DetachedLoss, DtypeMismatch, NonFiniteMetric, ShapeMismatch
from .seeding import rng_for

Array = np.ndarray


LEAKY_RELU_SLOPE = 0.2


class Tensor:
    """A float64 array; `backward` returns gradients keyed by tensor.

    A tensor with `requires_grad` false is a constant: a tape records no
    gradient function for it and `backward` returns none. An operation none
    of whose inputs requires a gradient records nothing, and its output is a
    constant too."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = True) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad

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
    return x if isinstance(x, Tensor) else Tensor(x, requires_grad=False)


# an operation of this module, such as `relu`, or None for none
ActivationFn = Callable[[Tensor], Tensor] | None
# an output gradient -> an input's gradient, before any broadcast is reduced
GradFn = Callable[[Array], Array]

# the innermost tape records
_TAPE_STACK: list[GradTape] = []


class GradTape:
    """Records operations so a scalar loss can be differentiated in reverse.

    Creation order of tape records is a topological order of the computation,
    so the backward pass simply walks the records once, back to front.
    """

    def __init__(self) -> None:
        self._records: list[tuple[Tensor, tuple[tuple[Tensor, GradFn], ...]]] = []
        self._outputs: set[int] = set()

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPE_STACK.pop()

    def __len__(self) -> int:
        return len(self._records)


@contextmanager
def frozen(params: Sequence[Tensor]):
    """`params` are constants inside, and get their own `requires_grad` back
    on the way out, an exception included."""
    saved = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, flag in zip(params, saved):
            p.requires_grad = flag


def _record(out: Tensor, *pairs: tuple[Tensor, GradFn]) -> Tensor:
    """Records an operation on the active tape, given one (input, gradient
    function) pair per input. This is the one place that decides which inputs
    take a gradient: the record keeps the pairs of inputs that require one
    when it is made, so a constant's gradient function is never called."""
    if _TAPE_STACK:
        kept = tuple([pair for pair in pairs if pair[0].requires_grad])
        if not kept:
            out.requires_grad = False
            return out
        tape = _TAPE_STACK[-1]
        tape._records.append((out, kept))
        tape._outputs.add(id(out))
    return out


def backward(tape: GradTape, loss: Tensor,
             take: Callable[[Tensor, Array], object] | None = None) -> dict[Tensor, Array]:
    """Gradients of a scalar loss w.r.t. every leaf of the tape: each tensor
    a record reads that no record produced.

    The walk goes once over the records, back to front, and calls each kept
    gradient function of a record whose output has a gradient. A result whose
    shape is not its input's, the gradient of a broadcast operand, is summed
    to the input's shape here, and nowhere else. A record's output gradient is
    dropped once the record has passed it on to its inputs, and a leaf's
    gradient is handed off as soon as it is final, once the walk has passed
    the earliest record that reads the leaf. Without `take` the hand-offs are
    collected into the returned dict; tensors never touched by the tape, and
    constants, are simply absent from it, and callers treat them as
    zero-gradient (see `grads_for`). With `take`, each is handed to
    `take(leaf, grad)` and not kept: the result is then empty. `take` may
    overwrite the leaf's array in place, unless an earlier record read that
    array as a constant (frozen).
    """
    if id(loss) not in tape._outputs:
        raise DetachedLoss("loss was not produced by an operation recorded on this tape")
    if loss.data.size != 1:
        raise ShapeMismatch(f"loss must be a scalar, got shape {loss.data.shape}")
    result: dict[Tensor, Array] = {}
    if take is None:
        take = result.__setitem__
    records = tape._records
    # record index -> the leaves it is the earliest record to read
    finals: dict[int, list[Tensor]] = {}
    seen = set(tape._outputs)
    for i, (_, pairs) in enumerate(records):
        for tensor, _ in pairs:
            if id(tensor) not in seen:
                seen.add(id(tensor))
                finals.setdefault(i, []).append(tensor)
    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    for i in range(len(records) - 1, -1, -1):
        out, pairs = records[i]
        if id(out) in grads:
            g_out = grads.pop(id(out))
            for tensor, grad_fn in pairs:
                g = grad_fn(g_out)
                if g.shape != tensor.data.shape:
                    g = _unbroadcast(g, tensor.data.shape)
                key = id(tensor)
                grads[key] = grads[key] + g if key in grads else g
            g = g_out = None  # the loop's last gradients, which may be a leaf's taken below
        for leaf in finals.get(i, ()):
            if id(leaf) in grads:
                take(leaf, grads.pop(id(leaf)))
    return result


def grads_for(grads: dict[Tensor, Array], params: Sequence[Tensor]) -> list[Array]:
    """Gradient per parameter, zeros for parameters the tape never saw."""
    return [grads[p] if p in grads else np.zeros_like(p.data) for p in params]


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """`g`, the gradient of an operand broadcast to `g.shape`, summed over
    the axes the broadcast added or stretched."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _same(g: Array) -> Array:
    return g


# --- elementwise operations ---

def add(a: Tensor, b: Tensor) -> Tensor:
    return _record(Tensor(a.data + b.data), (a, _same), (b, _same))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _record(Tensor(a.data - b.data), (a, _same), (b, np.negative))


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    return _record(Tensor(ad * bd), (a, lambda g: g * bd), (b, lambda g: g * ad))


def neg(a: Tensor) -> Tensor:
    return _record(Tensor(-a.data), (a, np.negative))


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    return _record(Tensor(e), (a, lambda g: g * e))


def log(a: Tensor) -> Tensor:
    ad = a.data
    return _record(Tensor(np.log(ad)), (a, lambda g: g / ad))


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    return _record(Tensor(t), (a, lambda g: g * (1.0 - t * t)))


def sigmoid(a: Tensor) -> Tensor:
    # overflow-safe in both tails: with e = exp(-|x|), 1 / (1 + e) from 0 up
    # and e / (1 + e) below. The numerator is the larger of e and the sign bit
    # read as 1 for + and 0 for -: 1 from 0 up (e is 1 at -0.0), e below, NaN
    # for NaN
    x = a.data
    e = np.exp(-np.abs(x))
    s = np.copysign(0.5, x)
    s += 0.5
    np.maximum(s, e, out=s)
    s /= 1.0 + e
    return _record(Tensor(s), (a, lambda g: g * s * (1.0 - s)))


def relu(a: Tensor) -> Tensor:
    x = a.data
    out = Tensor(np.fmax(x, 0.0))  # 0 for NaN, as fmax takes the number
    out.data += 0.0  # +0.0 for the -0.0 fmax returns for -0.0 at some lengths
    return _record(out, (a, lambda g: g * (x > 0)))


def leaky_relu(a: Tensor) -> Tensor:
    # exact for a slope in [0, 1]: x is the larger above 0, slope * x below
    x = a.data
    return _record(Tensor(np.maximum(x, LEAKY_RELU_SLOPE * x)),
                   (a, lambda g: g * np.maximum(x > 0, LEAKY_RELU_SLOPE)))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    inside = (a.data > lo) & (a.data < hi)
    return _record(Tensor(np.clip(a.data, lo, hi)), (a, lambda g: g * inside))


# --- reductions ---

def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    shape = a.data.shape

    def grad(g: Array) -> Array:
        return np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape)

    return _record(Tensor(a.data.sum(axis=axis)), (a, grad))


def mean(a: Tensor) -> Tensor:
    n, shape = a.data.size, a.data.shape
    return _record(Tensor(a.data.mean()), (a, lambda g: np.broadcast_to(g / n, shape)))


# --- structural ops ---
# A column range and its gradient are copied column-major, the layout fancy
# indexing gives. BLAS products and `sum(axis=0)` take their path, and so
# round their last bits, by the layout: the flow's checkpoints are pinned
# with column-major halves.

def columns(a: Tensor, cols: slice) -> Tensor:
    """The columns `cols` of a batch [n, width]."""
    shape = a.data.shape

    def grad(g: Array) -> Array:
        ga = np.zeros(shape)
        ga[:, cols] = g
        return ga

    return _record(Tensor(np.asfortranarray(a.data[:, cols])), (a, grad))


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Batches [n, width_i] side by side, in order."""
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    bounds = np.cumsum([0] + [p.data.shape[1] for p in parts])
    return _record(out, *[(p, lambda g, lo=lo, hi=hi: np.asfortranarray(g[:, lo:hi]))
                          for p, lo, hi in zip(parts, bounds[:-1], bounds[1:])])


def linear(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """x @ W.T + b for a batch x [n, in] and weights shaped [out, in]."""
    xd, wd, bd = x.data, weights.data, bias.data
    if xd.ndim != 2 or xd.shape[1] != wd.shape[1]:
        raise ShapeMismatch(
            f"input shape {xd.shape} incompatible with weights {wd.shape}")
    y = xd @ wd.T
    y += bd
    return _record(Tensor(y), (x, lambda g: g @ wd), (weights, lambda g: g.T @ xd),
                   (bias, lambda g: g.sum(axis=0)))


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

def as_rows(x, width: int) -> Array:
    """`x`, a 2-D batch of `width` columns, as a float64 batch; a single 1-D
    row is refused. An integer array is refused, not cast: packet byte codes
    are read as values only through byte/255."""
    arr = np.asarray(x)
    if np.issubdtype(arr.dtype, np.integer):
        raise DtypeMismatch(f"expected float values, got an array of {arr.dtype}")
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ShapeMismatch(f"expected rows of width {width}, got shape {arr.shape}")
    return arr


class DenseLayer:
    """One fully-connected layer: activation(W x + b) with W shaped [out, in]."""

    def __init__(self, weights: Tensor, bias: Tensor,
                 activation: ActivationFn = None) -> None:
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
        y = linear(x, self.weights, self.bias)
        return y if self.activation is None else self.activation(y)


def table_shapes(nets: Iterable[tuple]) -> Iterator[tuple[str, tuple[int, ...], bool]]:
    """The name and shape of each table of `nets`, each a (prefix, widths, ...)
    as `MLP.from_tables` takes it, and whether it is of its net's last layer:
    net by net, layer by layer, the weights `{prefix}{i}.W` of shape
    (out, in) before the biases `.b`. Lazy, so a check of a checkpoint's
    tables stops at the first that misfits."""
    for prefix, widths, *_ in nets:
        for i, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:])):
            last = i == len(widths) - 2
            yield f"{prefix}{i}.W", (n_out, n_in), last
            yield f"{prefix}{i}.b", (n_out,), last


def init_tables(rng: np.random.Generator, nets: Iterable[tuple],
                zero_final: bool = False) -> dict[str, Array]:
    """Initial tables for `nets`, in `table_shapes`' order: uniform Glorot
    weights, zeros for each net's last layer if `zero_final`, and zero biases."""
    tables: dict[str, Array] = {}
    for name, shape, last in table_shapes(nets):
        if len(shape) == 1 or zero_final and last:
            tables[name] = np.zeros(shape)
        else:
            limit = math.sqrt(6.0 / sum(shape))
            tables[name] = rng.uniform(-limit, limit, size=shape)
    return tables


class MLP:
    """A stack of dense layers whose tables are named `{prefix}{i}.W` and `.b`."""

    def __init__(self, layers: Sequence[DenseLayer], prefix: str = "") -> None:
        self.layers = list(layers)
        self.prefix = prefix

    @classmethod
    def create(cls, rng: np.random.Generator, widths: Sequence[int],
               hidden_activation: ActivationFn, final_activation: ActivationFn,
               zero_init_final: bool = False) -> "MLP":
        tables = init_tables(rng, [("", widths)], zero_init_final)
        return cls.from_tables(tables, "", widths, hidden_activation, final_activation)

    @classmethod
    def from_tables(cls, tables: Mapping[str, Array], prefix: str, widths: Sequence[int],
                    hidden: ActivationFn, final: ActivationFn) -> "MLP":
        """The network over `tables[f"{prefix}{i}.W"]` and `.b`, held as they are;
        each must be present with the shape `table_shapes` gives it, as
        `init_tables` makes them and `checkpoint.build_model` checks them."""
        if len(widths) < 2:
            raise ShapeMismatch("an MLP needs at least two widths")
        layers = []
        for i in range(len(widths) - 1):
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

    def narrowed(self, width: int) -> "MLP":
        """This network for inputs whose columns from `width` on are zero: the
        first layer reads the view of its first `width` weight columns, and
        every table is shared. At the full input width it is `self`."""
        first = self.layers[0]
        if width == first.n_in:
            return self
        narrow = DenseLayer(Tensor(first.weights.data[:, :width], first.weights.requires_grad),
                            first.bias, first.activation)
        return MLP([narrow, *self.layers[1:]], self.prefix)

    def eval_np(self, x: Array) -> Array:
        """The output for a plain batch, run frozen on a constant, so nothing
        is recorded even under an active tape."""
        with frozen(self.params):
            return self(Tensor(x, requires_grad=False)).data

    def eval_blocks(self, n: int, fill: Callable[[Array, slice], object]) -> Array:
        """The outputs for `n` input rows, `eval_np` over `EVAL_BLOCK` rows at a
        time. `fill(block, rows)` writes input rows `rows` into `block`; rows of
        the last block past `n` are zero. Every pass has the same shape, so BLAS
        takes the same path for each row: a row's output does not depend on
        `n` or on the other rows. One block of input is held at a time."""
        out = np.empty((n, self.widths[-1]))
        block = np.empty((EVAL_BLOCK, self.widths[0]))
        for lo in range(0, n, EVAL_BLOCK):
            k = min(EVAL_BLOCK, n - lo)
            fill(block[:k], slice(lo, lo + k))
            block[k:] = 0.0
            out[lo:lo + k] = self.eval_np(block)[:k]
        return out


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
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise BadConfig(f"lr must be positive and finite, got {self.lr}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise BadConfig("beta1 and beta2 must lie in [0, 1)")
        if self.patience < 0:
            raise BadConfig(f"patience must be non-negative, got {self.patience}")
        if not 0 <= self.holdout_fraction <= 1:
            raise BadConfig(f"holdout_fraction must lie in [0, 1], got {self.holdout_fraction}")

    def adam_update(self, params: Sequence[Tensor]) -> Callable[[GradTape, Tensor], None]:
        """An Adam state for `params`, stepped by `update(tape, loss)`: the same
        update as `adam_step` on `grads_for(backward(tape, loss), params)`, but
        each parameter is updated as soon as `backward` has its final gradient,
        which is then dropped, and a parameter the tape never saw is updated
        with a zero gradient at the end. A parameter that takes a gradient
        must not also be read frozen by a record before the first that takes
        it: its array is overwritten once the walk has passed that record."""
        state = AdamState(params, lr=self.lr, beta1=self.beta1, beta2=self.beta2)
        index = {p: i for i, p in enumerate(params)}

        def update(tape: GradTape, loss: Tensor) -> None:
            coeffs = state.coefficients()
            pending = dict(index)

            def take(leaf: Tensor, g: Array) -> None:
                i = pending.pop(leaf, None)
                if i is not None:
                    _adam_update(state, i, leaf, g, coeffs)

            backward(tape, loss, take)
            for p, i in pending.items():
                _adam_update(state, i, p, np.zeros_like(p.data), coeffs)
            state.step_count += 1
        return update

    def to_dict(self) -> dict:
        """Field values with tuples as lists: the form checkpoint meta stores."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d: Mapping):
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


# rows per forward pass when scoring (`MLP.eval_blocks`): 3.3 MB of float64
# packet values, so memory stays flat whatever the batch
EVAL_BLOCK = 256

# elements per block of an Adam update: 256 KB of float64, so each block's
# moments, gradient and scratch stay in cache across its dozen passes
ADAM_CHUNK = 32768


class AdamState:
    """Adam moments for one parameter list; moments start at zero. Two
    `ADAM_CHUNK`-sized scratch arrays hold every temporary of an update."""

    def __init__(self, params: Sequence[Tensor], lr: float = TrainConfig.lr,
                 beta1: float = TrainConfig.beta1, beta2: float = TrainConfig.beta2,
                 eps: float = 1e-8) -> None:
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros(p.data.shape) for p in params]
        self.v = [np.zeros(p.data.shape) for p in params]
        n = min(ADAM_CHUNK, max((p.data.size for p in params), default=0))
        self._scratch = (np.empty(n), np.empty(n))

    def coefficients(self) -> tuple[float, ...]:
        """(b1, 1 - b1, b2, 1 - b2, bias correction of v, eps, lr over the bias
        correction of m) for the next update, step `step_count + 1`."""
        t = self.step_count + 1
        b1, b2 = self.beta1, self.beta2
        return b1, 1.0 - b1, b2, 1.0 - b2, 1.0 - b2 ** t, self.eps, self.lr / (1.0 - b1 ** t)


def adam_step(state: AdamState, params: Sequence[Tensor],
              grads: Sequence[Array]) -> Sequence[Tensor]:
    """One bias-corrected Adam update, in place; returns the same params.

    Each parameter's `data` is overwritten block by block, so it must be a
    writeable C-contiguous array that no one else holds (a reshaped copy
    would take the update and drop it)."""
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ShapeMismatch("parameter/gradient count does not match optimizer state")
    coeffs = state.coefficients()
    for i, (p, g) in enumerate(zip(params, grads)):
        _adam_update(state, i, p, g, coeffs)
    state.step_count += 1
    return params


def _adam_update(state: AdamState, i: int, p: Tensor, g: Array,
                 coeffs: tuple[float, ...]) -> None:
    """Adam's update of parameter `i` of `state` by gradient `g`, in place,
    with the step's `AdamState.coefficients`, over `ADAM_CHUNK` elements of
    the flat views at a time. The arithmetic is elementwise, so the blocks
    give the same bits as one pass over the whole arrays."""
    if not p.data.shape == g.shape == state.m[i].shape:
        raise ShapeMismatch(f"parameter {i} shape changed under the optimizer")
    if not (p.data.flags.c_contiguous and p.data.flags.writeable):
        raise ShapeMismatch(f"parameter {i} is not a writeable C-contiguous array; "
                            "Adam updates it in place")
    b1, c1, b2, c2, bc2, eps, lr_t = coeffs
    flat_p, flat_g = p.data.reshape(-1), g.reshape(-1)
    flat_m, flat_v = state.m[i].reshape(-1), state.v[i].reshape(-1)
    tmp, step = state._scratch
    for lo in range(0, flat_m.size, ADAM_CHUNK):
        block = slice(lo, lo + ADAM_CHUNK)
        pc, gc, m, v = flat_p[block], flat_g[block], flat_m[block], flat_v[block]
        a, s = tmp[:m.size], step[:m.size]
        # the allocating update's operations, in its order:
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        m *= b1
        np.multiply(gc, c1, out=a)
        m += a
        v *= b2
        np.multiply(gc, gc, out=a)
        a *= c2
        v += a
        # p -= (m / (sqrt(v / bc2) + eps)) * (lr / bc1)
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += eps
        np.divide(m, a, out=s)
        s *= lr_t
        pc -= s


# --- training utilities ---

def snapshot(params: Sequence[Tensor]) -> list[Array]:
    return [p.data.copy() for p in params]


def restore(params: Sequence[Tensor], saved: Sequence[Array]) -> None:
    """Copies `saved` into the parameters' own arrays, which stay the ones
    their layers, their tables and any Adam update hold."""
    for p, s in zip(params, saved):
        np.copyto(p.data, s)


def fit(params: Sequence[Tensor], arrays: Sequence[Array],
        step: Callable[..., None], holdout_metric: Callable[..., float],
        cfg: TrainConfig, seed: int, tag: str) -> tuple[list[float], int, int]:
    """Minibatch training with early stopping on a seeded held-out split.

    The `{tag}-split` stream holds out a `holdout_fraction` of the rows of
    `arrays`, at least one and never all (one row is both train and holdout).
    Each epoch runs `step(*batch)` over minibatches from the `{tag}-batches`
    stream, then scores `holdout_metric(*holdout)`, lower being better; a
    metric that is not finite is a NonFiniteMetric naming the tag and epoch.
    The arrays are passed on as they are, so a step may take packet byte
    codes and read them as values batch by batch. After `patience` epochs
    without a new best it stops; `params` end at the best epoch, 0 being the
    untrained start. A new best is copied into the one snapshot taken at the
    start, and restored into the parameters' own arrays. Returns (metric per
    epoch from 0, best epoch, training rows).
    """
    n = arrays[0].shape[0]
    perm = rng_for(seed, f"{tag}-split").permutation(n)
    n_hold = min(n - 1, max(1, int(round(n * cfg.holdout_fraction)))) if n > 1 else 0
    train = [a[perm[n_hold:]] for a in arrays]
    hold = [a[perm[:n_hold]] for a in arrays] if n_hold else train
    batch_rng = rng_for(seed, f"{tag}-batches")

    def scored(epoch: int) -> float:
        metric = holdout_metric(*hold)
        if not math.isfinite(metric):
            raise NonFiniteMetric(f"{tag}: holdout metric is {metric} at epoch {epoch}")
        history.append(metric)
        return metric

    history: list[float] = []
    best_metric, best_epoch, bad_epochs = scored(0), 0, 0
    best = snapshot(params)
    for epoch in range(1, cfg.epochs + 1):
        order = batch_rng.permutation(n - n_hold)
        for start in range(0, n - n_hold, cfg.batch_size):
            step(*(a[order[start:start + cfg.batch_size]] for a in train))
        metric = scored(epoch)
        if metric < best_metric:
            best_metric, best_epoch, bad_epochs = metric, epoch, 0
            for saved, p in zip(best, params):
                np.copyto(saved, p.data)
        else:
            bad_epochs += 1
        if bad_epochs >= cfg.patience:
            break
    restore(params, best)
    return history, best_epoch, n - n_hold

