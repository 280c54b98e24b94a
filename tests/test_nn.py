import math
import tracemalloc

import numpy as np
import pytest

from flowgate import nn
from flowgate.checkpoint import (
    Checkpoint, STAGE_CLASSIFIER, STAGE_EXTRACTOR, STAGE_FLOW, trained_checkpoint,
)
from flowgate.classifier import (
    ClassifierConfig, ClassifierModel, classifier_from_checkpoint,
)
from flowgate.errors import (
    CheckpointMismatch, DetachedLoss, FlowgateError, NonFiniteMetric, ShapeMismatch,
)
from flowgate.extractor import (
    ExtractorConfig, FeatureExtractor, encoder_from_checkpoint,
    extractor_from_checkpoint,
)
from flowgate.flow import FlowConfig, FlowModel, flow_from_checkpoint
from flowgate.nn import (
    AdamState, DenseLayer, GradTape, MLP, Tensor, adam_step, backward, bce, grads_for, mse,
)
from gradcheck import max_rel_error, numeric_grad


def test_forward_identity_linear():
    layer = DenseLayer(Tensor(np.eye(3)), Tensor(np.zeros(3)), None)
    x = np.array([[0.3, -1.2, 7.0]])
    out = layer(Tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_forward_sigmoid_of_zero_is_half():
    layer = DenseLayer(Tensor(np.zeros((4, 2))), Tensor(np.zeros(4)), nn.sigmoid)
    out = layer(Tensor(np.zeros((1, 2))))
    np.testing.assert_allclose(out.data, 0.5)


def test_forward_relu_hand_case():
    # W=[[1,2],[3,4]], b=0, x=[1,1] -> [3,7]
    layer = DenseLayer(Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])),
                       Tensor(np.zeros(2)), nn.relu)
    out = layer(Tensor(np.array([[1.0, 1.0]])))
    np.testing.assert_array_equal(out.data, [[3.0, 7.0]])


def test_forward_shape_mismatch():
    layer = DenseLayer(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeMismatch):
        layer(Tensor(np.zeros((1, 4))))


def test_forward_batched_matches_single():
    rng = np.random.default_rng(0)
    layer = MLP.create(rng, [5, 3], nn.tanh, nn.tanh).layers[0]
    x = rng.standard_normal((4, 5))
    batched = layer(Tensor(x)).data
    for i in range(4):
        single = layer(Tensor(x[i:i + 1])).data
        np.testing.assert_allclose(batched[i], single[0], rtol=1e-12)


def test_eval_np_matches_tape_path():
    rng = np.random.default_rng(1)
    net = MLP.create(rng, [6, 8, 3], nn.leaky_relu, nn.sigmoid)
    x = rng.standard_normal((7, 6))
    np.testing.assert_array_equal(net.eval_np(x), net(Tensor(x)).data)


def test_eval_np_inside_a_tape_records_nothing():
    rng = np.random.default_rng(4)
    net = MLP.create(rng, [6, 8, 3], nn.relu, nn.sigmoid)
    x = rng.standard_normal((5, 6))
    with GradTape() as tape:
        out = net.eval_np(x)
    assert len(tape) == 0
    np.testing.assert_array_equal(out, net(Tensor(x)).data)


def test_frozen_params_on_a_constant_record_nothing_and_pass_no_gradient():
    rng = np.random.default_rng(3)
    w = Tensor(rng.standard_normal((4, 4)))
    b = Tensor(rng.standard_normal(4))
    x = Tensor(rng.standard_normal((2, 4)), requires_grad=False)
    with GradTape() as tape:
        with nn.frozen([w, b]):
            frozen = nn.tanh(nn.linear(x, w, b))
        assert len(tape) == 0 and not frozen.requires_grad
        loss = nn.reduce_sum(nn.linear(frozen, w, b))
    assert len(tape) == 2  # recording resumes once the parameters thaw
    grads = backward(tape, loss)
    # d/dW sum(c W^T + b) = column sums of c: the frozen factor is a constant,
    # not tanh(x W^T + b)
    np.testing.assert_array_equal(grads[w], np.ones((2, 4)).T @ frozen.data)
    np.testing.assert_array_equal(grads[b], np.full(4, 2.0))


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(2).standard_normal((3, 4)))
    with GradTape() as tape:
        loss = nn.reduce_sum(x)
    grads = backward(tape, loss)
    np.testing.assert_array_equal(grads[x], np.ones((3, 4)))


def test_backward_mse_closed_form():
    # loss = mse(Wx, y): grad_W = 2/n * (Wx - y) x^T
    rng = np.random.default_rng(3)
    W = Tensor(rng.standard_normal((4, 6)))
    b = Tensor(np.zeros(4))
    x = rng.standard_normal(6)
    y = rng.standard_normal(4)
    with GradTape() as tape:
        pred = nn.linear(Tensor(x[None]), W, b)
        loss = mse(pred, Tensor(y[None]))
    grads = backward(tape, loss)
    resid = W.data @ x - y
    expected = 2.0 / 4.0 * np.outer(resid, x)
    np.testing.assert_allclose(grads[W], expected, rtol=1e-12)


def test_backward_detached_loss():
    x = Tensor(np.zeros(3))
    with GradTape() as tape:
        pass
    with pytest.raises(DetachedLoss):
        backward(tape, x)


def test_backward_requires_scalar():
    x = Tensor(np.zeros(3))
    with GradTape() as tape:
        y = nn.relu(x)
    with pytest.raises(ShapeMismatch):
        backward(tape, y)


def test_unrecorded_params_get_zero_gradient():
    x = Tensor(np.ones(3))
    unused = Tensor(np.ones(2))
    with GradTape() as tape:
        loss = nn.reduce_sum(x)
    grads = backward(tape, loss)
    zs = grads_for(grads, [unused])
    np.testing.assert_array_equal(zs[0], np.zeros(2))


# each layer type under the id its case has always had, so results compare
# across the suite's history
LAYER_TYPES = {"Activation.LINEAR": None, "Activation.RELU": nn.relu,
               "Activation.LEAKY_RELU": nn.leaky_relu, "Activation.TANH": nn.tanh,
               "Activation.SIGMOID": nn.sigmoid}


@pytest.mark.parametrize("activation", LAYER_TYPES.values(), ids=LAYER_TYPES.keys())
def test_gradient_check_every_layer_type(activation):
    rng = np.random.default_rng(13)
    layer = MLP.create(rng, [5, 4], activation, activation).layers[0]
    x = Tensor(rng.standard_normal((3, 5)))
    target = rng.standard_normal((3, 4)) * 0.1 + 0.4

    def loss_value() -> float:
        return mse(layer(x), Tensor(target)).item()

    with GradTape() as tape:
        loss = mse(layer(x), Tensor(target))
    grads = backward(tape, loss)
    for p in layer.params + [x]:
        num = numeric_grad(loss_value, p.data)
        assert max_rel_error(grads[p], num) < 1e-4


def _where_sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


# each activation's forward and backward written with np.where, as the oracle
# of the branch-free passes: (forward(x), backward(x, g))
WHERE_FORMULAS = {
    "relu": (nn.relu, lambda x: np.where(x > 0, x, 0.0), lambda x, g: g * (x > 0)),
    "leaky_relu": (nn.leaky_relu,
                   lambda x: np.where(x > 0, x, nn.LEAKY_RELU_SLOPE * x),
                   lambda x, g: g * np.where(x > 0, 1.0, nn.LEAKY_RELU_SLOPE)),
    "sigmoid": (nn.sigmoid, _where_sigmoid,
                lambda x, g: g * _where_sigmoid(x) * (1.0 - _where_sigmoid(x))),
}
# signed zeros and NaNs, infinities, the smallest subnormals, and exp's edges
EDGES = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
         709.0, -709.0, 745.0, -745.0]


def _assert_same_bits(got, want):
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])


# fmax's sign of zero depends on where a value falls in the array's vector
# loop, so every input is tried at lengths that take its head, body and tail
@pytest.mark.parametrize("length", [1, 3, 8, 17, 1000])
@pytest.mark.parametrize("name", WHERE_FORMULAS)
def test_activations_are_bit_identical_to_their_where_formulas(name, length):
    act, forward, grad = WHERE_FORMULAS[name]
    rng = np.random.default_rng(length)
    inputs = [np.full(length, edge) for edge in EDGES]
    for scale in (1e-310, 1.0, 1e3):
        x = scale * rng.standard_normal(length)
        at = rng.integers(0, length, len(EDGES))
        x[at] = EDGES  # the edges among ordinary values, at random places
        inputs += [scale * rng.standard_normal(length), x]
    for x in inputs:
        g = rng.standard_normal(length)
        a = Tensor(x)
        with GradTape() as tape, np.errstate(all="ignore"):
            y = act(a)
            loss = nn.reduce_sum(nn.mul(y, Tensor(g, requires_grad=False)))
        _assert_same_bits(y.data, forward(x))
        _assert_same_bits(backward(tape, loss)[a], grad(x, g))


def test_gradient_check_bce_head():
    rng = np.random.default_rng(9)
    net = MLP.create(rng, [4, 6, 1], nn.relu, nn.sigmoid)
    x = Tensor(rng.standard_normal((8, 4)))
    target = Tensor(rng.integers(0, 2, size=(8, 1)).astype(float))

    def loss_value() -> float:
        return bce(net(x), target).item()

    with GradTape() as tape:
        loss = bce(net(x), target)
    grads = backward(tape, loss)
    for p in net.params:
        num = numeric_grad(loss_value, p.data)
        assert max_rel_error(grads[p], num) < 1e-4


def test_gradient_check_columns_and_concat():
    # the coupling block's split and join: both halves read, one changed
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((3, 6)))

    def compute():
        a = nn.columns(x, slice(0, 2))
        b = nn.columns(x, slice(2, 6))
        merged = nn.concat([nn.exp(b), a])
        return mean_of_square(merged * Tensor(np.arange(1.0, 7.0)))

    def mean_of_square(t):
        return nn.mean(nn.mul(t, t))

    with GradTape() as tape:
        loss = compute()
    grads = backward(tape, loss)
    num = numeric_grad(lambda: compute().item(), x.data)
    assert max_rel_error(grads[x], num) < 1e-4


def test_columns_and_their_gradients_are_column_major():
    # the layout index arrays gave the halves; BLAS and sum(axis=0) take
    # their path by it, and the flow's pinned checkpoints depend on it
    x = Tensor(np.random.default_rng(12).standard_normal((4, 5)))
    with GradTape() as tape:
        a = nn.columns(x, slice(0, 2))
        merged = nn.concat([a, nn.columns(x, slice(2, 5))])
    assert a.data.flags.f_contiguous
    np.testing.assert_array_equal(merged.data, x.data)
    _, pairs = tape._records[-1]
    assert len(pairs) == 2
    assert all(grad(np.ones((4, 5))).flags.f_contiguous for _, grad in pairs)


# an operation with a constant operand c: c's shape, the operation, and dL/dx
# of L = sum(op(c, x) * w) for a constant w
CONSTANT_OPERANDS = {
    "c * x": ((), lambda c, x: c * x, lambda c, w: w * c),  # a scalar, as the flow's clamp
    "c - x": ((3, 4), lambda c, x: c - x, lambda c, w: -w),
    "x + c": ((3, 4), lambda c, x: x + c, lambda c, w: w),
    "concat([c, x])": ((3, 2), lambda c, x: nn.concat([c, x]), lambda c, w: w[:, 2:]),
}


@pytest.mark.parametrize("shape,op,closed_form", CONSTANT_OPERANDS.values(),
                         ids=CONSTANT_OPERANDS.keys())
def test_a_record_holds_a_gradient_function_for_its_trainable_inputs_only(
        shape, op, closed_form):
    rng = np.random.default_rng(15)
    x = Tensor(rng.standard_normal((3, 4)))
    c = Tensor(rng.standard_normal(shape), requires_grad=False)
    with GradTape() as tape:
        y = op(c, x)
        w = Tensor(rng.standard_normal(y.shape), requires_grad=False)
        loss = nn.reduce_sum(y * w)
    _, pairs = tape._records[0]
    assert [t for t, _ in pairs] == [x]
    grads = backward(tape, loss)
    assert c not in grads
    np.testing.assert_array_equal(grads[x], closed_form(c.data, w.data))


def test_gradient_check_trainable_operands_that_broadcast():
    # a [4] bias added to a [3, 4] batch, and a scalar times a matrix: each
    # gradient is summed back to its operand's shape in `backward`
    rng = np.random.default_rng(16)
    batch = Tensor(rng.standard_normal((3, 4)))
    bias = Tensor(rng.standard_normal(4))
    scale = Tensor(np.array(1.5))

    def compute():
        y = scale * nn.tanh(batch + bias)
        return nn.mean(y * y)

    with GradTape() as tape:
        loss = compute()
    grads = backward(tape, loss)
    for t in (batch, bias, scale):
        assert grads[t].shape == t.shape
        num = numeric_grad(lambda: compute().item(), t.data)
        assert max_rel_error(grads[t], num) < 1e-6


def test_mse_values():
    a = Tensor(np.array([1.0, 2.0]))
    assert mse(a, a).item() == 0.0
    assert mse(Tensor(np.array([0.0, 0.0])), Tensor(np.array([1.0, 1.0]))).item() == 1.0
    assert mse(Tensor(np.array([1.0, 2.0])), Tensor(np.array([0.0, 4.0]))).item() == 2.5
    with pytest.raises(ShapeMismatch):
        mse(a, Tensor(np.zeros(3)))


def test_bce_values():
    half = Tensor(np.full(4, 0.5))
    targets = Tensor(np.array([0.0, 1.0, 0.0, 1.0]))
    assert abs(bce(half, targets).item() - math.log(2.0)) < 1e-12
    exact = Tensor(np.array([0.0, 1.0]))
    assert bce(exact, exact).item() <= 1e-6
    # pred=[0.9, 0.1], target=[1, 0] -> -(log .9 + log .9)/2
    val = bce(Tensor(np.array([0.9, 0.1])), Tensor(np.array([1.0, 0.0]))).item()
    assert abs(val - (-math.log(0.9))) < 1e-12


def test_adam_zero_gradient_is_noop():
    p = Tensor(np.array([1.0, -2.0]))
    state = AdamState([p])
    before = p.data.copy()
    adam_step(state, [p], [np.zeros(2)])
    np.testing.assert_array_equal(p.data, before)
    np.testing.assert_array_equal(state.m[0], np.zeros(2))
    np.testing.assert_array_equal(state.v[0], np.zeros(2))
    assert state.step_count == 1


def test_adam_single_step_magnitude():
    # one step with g=1 and defaults moves the parameter by ~lr
    p = Tensor(np.array(0.0))
    state = AdamState([p], lr=0.001, beta1=0.5, beta2=0.999)
    adam_step(state, [p], [np.array(1.0)])
    expected = -0.001 * 1.0 / (1.0 + 1e-8)
    assert abs(float(p.data) - expected) < 1e-15


def test_adam_descends_quadratic():
    # f(w) = w^2 from w=1, lr=0.1: |w| shrinks monotonically until it hits the
    # noise floor (step 24 in the scripted run), then converges to ~1e-14
    p = Tensor(np.array(1.0))
    state = AdamState([p], lr=0.1)
    values = []
    for _ in range(100):
        g = 2.0 * p.data
        adam_step(state, [p], [g])
        values.append(abs(float(p.data)))
    head = values[:23]
    assert all(b < a for a, b in zip(head, head[1:]))
    assert values[-1] < 1e-10


def test_adam_shape_mismatch():
    p = Tensor(np.zeros(3))
    state = AdamState([p])
    with pytest.raises(ShapeMismatch):
        adam_step(state, [p], [np.zeros(4)])


def _reference_adam(params, grads, m, v, t, lr, beta1, beta2, eps=1e-8):
    """The allocating update: fresh temporaries for every operation."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    out = []
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= beta1
        mi += (1.0 - beta1) * g
        vi *= beta2
        gg = g * g
        gg *= 1.0 - beta2
        vi += gg
        denom = np.asarray(vi / bc2)
        np.sqrt(denom, out=denom)
        denom += eps
        step = np.asarray(mi / denom)
        step *= lr / bc1
        out.append(p - step)
    return out


def test_adam_blocks_match_the_allocating_update_bit_for_bit():
    chunk = nn.ADAM_CHUNK
    # smaller than one block, exactly one block, several blocks and a remainder
    shapes = [(7,), (chunk // 64, 64), (3 * chunk + 123,), (2, 3, chunk // 4 + 5)]
    rng = np.random.default_rng(17)
    params = [Tensor(rng.standard_normal(shape)) for shape in shapes]
    expected = [p.data.copy() for p in params]
    m = [np.zeros(shape) for shape in shapes]
    v = [np.zeros(shape) for shape in shapes]
    state = AdamState(params, lr=0.003, beta1=0.5, beta2=0.999)
    for t in range(1, 7):
        grads = [rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3)
                 for shape in shapes]
        expected = _reference_adam(expected, grads, m, v, t, 0.003, 0.5, 0.999)
        adam_step(state, params, grads)
        for p, want, mi, vi, m_got, v_got in zip(params, expected, m, v, state.m, state.v):
            np.testing.assert_array_equal(p.data, want)
            np.testing.assert_array_equal(m_got, mi)
            np.testing.assert_array_equal(v_got, vi)


@pytest.mark.parametrize("make", [
    lambda: np.zeros((4, 3)).T,
    lambda: np.zeros(10)[::2],
    lambda: np.zeros((3, 4)),
], ids=["transposed", "strided", "read-only"])
def test_adam_refuses_a_parameter_it_cannot_update_in_place(make):
    data = make()
    if data.flags.c_contiguous:
        data.setflags(write=False)
    p = Tensor(data)
    state = AdamState([p])
    with pytest.raises(FlowgateError, match="writeable C-contiguous"):
        adam_step(state, [p], [np.ones(data.shape)])
    np.testing.assert_array_equal(p.data, np.zeros(data.shape))


@pytest.mark.parametrize("stage", [STAGE_EXTRACTOR, STAGE_FLOW, STAGE_CLASSIFIER])
def test_more_steps_never_reach_a_trained_checkpoint(stage):
    model, cfg = _untrained_model(stage)
    ckpt = trained_checkpoint(stage, 0, cfg.to_dict(), model.param_items(),
                              0, "holdout", [0.0])
    saved = {name: t.copy() for name, t in ckpt.tensors.items()}
    params = [t for _, t in model.param_items()]
    state = AdamState(params)
    for _ in range(3):
        adam_step(state, params, [np.ones(p.data.shape) for p in params])
    for name, tensor in model.param_items():
        assert not np.array_equal(tensor.data, saved[name]), name  # the model moved
        np.testing.assert_array_equal(ckpt.tensors[name], saved[name])  # its checkpoint did not


# --- constants and frozen parameters ---

def _mlp_loss_grads(net, x, y, freeze=()):
    with GradTape() as tape:
        h = x
        for i, layer in enumerate(net.layers):
            if i in freeze:
                with nn.frozen(layer.params):
                    h = layer(h)
            else:
                h = layer(h)
        loss = mse(h, y)
    return backward(tape, loss), len(tape)


def test_constants_and_frozen_layers_get_no_gradient_and_change_no_other():
    rng = np.random.default_rng(8)
    net = MLP.create(rng, [5, 6, 4, 3], nn.tanh, nn.sigmoid)
    data, y = rng.standard_normal((7, 5)), Tensor(rng.standard_normal((7, 3)))
    x = Tensor(data)
    full, _ = _mlp_loss_grads(net, x, y)
    assert x in full and all(p in full for p in net.params)

    const = Tensor(data, requires_grad=False)
    grads, _ = _mlp_loss_grads(net, const, y, freeze={1})
    frozen = net.layers[1].params
    assert const not in grads
    assert not any(p in grads for p in frozen)
    for p in net.params:
        if all(p is not f for f in frozen):
            np.testing.assert_array_equal(grads[p], full[p])
    assert all(p.requires_grad for p in net.params)  # unfrozen on the way out


def test_an_operation_on_constants_alone_is_not_recorded():
    a, b = Tensor(np.ones(3), requires_grad=False), Tensor(np.ones(3), requires_grad=False)
    w = Tensor(np.full(3, 2.0))
    with GradTape() as tape:
        c = a * b
        loss = nn.reduce_sum(c * w)
    assert len(tape) == 2  # c * w and the sum
    assert not c.requires_grad
    grads = backward(tape, loss)
    assert c not in grads and a not in grads
    np.testing.assert_array_equal(grads[w], np.ones(3))
    with GradTape() as tape:
        detached = nn.reduce_sum(a * b)
    with pytest.raises(DetachedLoss):
        backward(tape, detached)


def test_frozen_restores_requires_grad_after_an_exception():
    params = [Tensor(np.zeros(2)), Tensor(np.zeros(2), requires_grad=False), Tensor(np.zeros(1))]
    with pytest.raises(RuntimeError):
        with nn.frozen(params):
            assert not any(p.requires_grad for p in params)
            raise RuntimeError("inside")
    assert [p.requires_grad for p in params] == [True, False, True]


def test_forward_deterministic():
    rng = np.random.default_rng(21)
    net = MLP.create(rng, [10, 7, 2], nn.relu, None)
    x = rng.standard_normal((5, 10))
    np.testing.assert_array_equal(net.eval_np(x), net.eval_np(x))


def test_dense_create_weight_range():
    rng = np.random.default_rng(5)
    tables = nn.init_tables(rng, [("dense.", (30, 20))])
    limit = math.sqrt(6.0 / 50.0)
    assert tables["dense.0.W"].shape == (20, 30)
    assert np.abs(tables["dense.0.W"]).max() <= limit
    np.testing.assert_array_equal(tables["dense.0.b"], np.zeros(20))


# --- the shared training loop and parameter loader ---

def _counting_fit(epochs, patience, target=2.0):
    """One step per epoch adds 1 to a scalar parameter; the holdout metric is
    its distance to `target`, so the best epoch is `target`."""
    p = Tensor(np.array(0.0))

    def step(xb):
        p.data += 1.0  # in place, as Adam updates: `restore` copies into this array

    cfg = nn.TrainConfig(epochs=epochs, patience=patience, batch_size=8)
    history, best_epoch, n_train = nn.fit(
        [p], (np.arange(8.0),), step, lambda hold: abs(float(p.data) - target),
        cfg, seed=0, tag="test")
    return p, history, best_epoch, n_train


def test_fit_restores_the_best_epoch_not_the_last():
    p, history, best_epoch, n_train = _counting_fit(epochs=5, patience=10)
    assert history == [2.0, 1.0, 0.0, 1.0, 2.0, 3.0]
    assert best_epoch == 2
    assert float(p.data) == 2.0
    assert n_train == 7  # round(0.1 * 8) = 1 row held out


def test_fit_stops_after_patience_epochs_without_a_new_best():
    p, history, best_epoch, _ = _counting_fit(epochs=50, patience=3)
    epochs_run = len(history) - 1
    assert epochs_run == best_epoch + 3 == 5
    assert history == [2.0, 1.0, 0.0, 1.0, 2.0, 3.0]
    assert float(p.data) == 2.0
    # patience 0 stops after epoch 1, a new best or not
    p, history, best_epoch, _ = _counting_fit(epochs=50, patience=0)
    assert history == [2.0, 1.0] and best_epoch == 1 and float(p.data) == 1.0


def test_fit_one_row_is_train_and_holdout():
    row = np.array([[4.0, 5.0]])
    steps, holds = [], []

    def metric(hold):
        holds.append(hold)
        return 0.0

    history, best_epoch, n_train = nn.fit(
        [], (row,), steps.append, metric, nn.TrainConfig(epochs=2), seed=1, tag="one")
    assert n_train == 1
    assert len(history) == 3 and best_epoch == 0
    assert len(steps) == 2 and len(holds) == 3
    for batch in steps + holds:
        np.testing.assert_array_equal(batch, row)


def test_fit_splits_every_array_alike():
    x = np.arange(20.0)
    cfg = nn.TrainConfig(epochs=1, batch_size=4)
    pairs = []

    def step(xb, yb):
        pairs.append((xb, yb))

    _, _, n_train = nn.fit([], (x, -x), step, lambda xh, yh: float(np.sum(xh + yh)),
                           cfg, seed=2, tag="pair")
    assert n_train == 18
    assert sum(len(xb) for xb, _ in pairs) == 18
    for xb, yb in pairs:
        np.testing.assert_array_equal(yb, -xb)


def _untrained_model(stage: str):
    """A small model of `stage` and its config."""
    if stage == STAGE_EXTRACTOR:
        cfg = ExtractorConfig(latent_dim=4, encoder_widths=(1600, 8, 4),
                              disc_widths=(1600, 4, 1))
        return FeatureExtractor.create(cfg, 0), cfg
    if stage == STAGE_FLOW:
        cfg = FlowConfig(dim=4, blocks=2, hidden=4)
        return FlowModel.create(cfg, 0), cfg
    cfg = ClassifierConfig(widths=(4, 3, 1))
    return ClassifierModel.create(cfg, 0), cfg


@pytest.mark.parametrize("call", [
    lambda: nn.linear(Tensor(np.zeros(3)), Tensor(np.zeros((2, 3))), Tensor(np.zeros(2))),
    lambda: _untrained_model(STAGE_EXTRACTOR)[0].encode(np.zeros(1600)),
    lambda: _untrained_model(STAGE_CLASSIFIER)[0].score(np.zeros(4)),
    lambda: _untrained_model(STAGE_FLOW)[0].normalize(np.zeros(4)),
    lambda: _untrained_model(STAGE_FLOW)[0].generate(np.zeros(4)),
], ids=["linear", "encode", "score", "normalize", "generate"])
def test_a_single_row_of_the_right_width_is_refused(call):
    # every layer and model takes a batch [n, width]; a row is one of n = 1
    with pytest.raises(ShapeMismatch):
        call()


def _untrained_checkpoint(stage: str) -> Checkpoint:
    """A small model's parameters and config, saved as `stage` would save them."""
    model, cfg = _untrained_model(stage)
    tensors = {name: t.data.copy() for name, t in model.param_items()}
    return Checkpoint(stage=stage, seed=0, config_fingerprint="",
                      tensors=tensors, meta={"config": cfg.to_dict()})


LOADERS = pytest.mark.parametrize("load, stage, table", [
    (extractor_from_checkpoint, STAGE_EXTRACTOR, "decoder.1.W"),
    (encoder_from_checkpoint, STAGE_EXTRACTOR, "encoder.0.W"),
    (flow_from_checkpoint, STAGE_FLOW, "flow.block1.t.2.b"),
    (classifier_from_checkpoint, STAGE_CLASSIFIER, "classifier.1.W"),
], ids=["extractor", "encoder", "flow", "classifier"])


@LOADERS
def test_loaders_reject_a_missing_table(load, stage, table):
    ckpt = _untrained_checkpoint(stage)
    load(ckpt)  # the intact checkpoint loads
    del ckpt.tensors[table]
    with pytest.raises(CheckpointMismatch, match=f"missing tensor {table}"):
        load(ckpt)


@LOADERS
def test_loaders_reject_a_misshapen_table(load, stage, table):
    ckpt = _untrained_checkpoint(stage)
    ckpt.tensors[table] = np.zeros(ckpt.tensors[table].shape + (1,))
    with pytest.raises(CheckpointMismatch, match=f"tensor {table} has shape"):
        load(ckpt)


@LOADERS
def test_loaders_draw_nothing_and_hold_the_saved_tables(load, stage, table, monkeypatch):
    ckpt = _untrained_checkpoint(stage)

    def no_draws(*args):
        raise AssertionError("a loader drew random numbers")
    for module in ("extractor", "flow", "classifier", "nn"):
        monkeypatch.setattr(f"flowgate.{module}.rng_for", no_draws)
    items = load(ckpt).param_items()
    assert table in dict(items)
    for name, tensor in items:
        assert tensor.data is ckpt.tensors[name], name  # no second copy


@pytest.mark.parametrize("stage, load", [
    (STAGE_EXTRACTOR, extractor_from_checkpoint),
    (STAGE_FLOW, flow_from_checkpoint),
    (STAGE_CLASSIFIER, classifier_from_checkpoint),
], ids=["extractor", "flow", "classifier"])
def test_a_built_model_shares_no_array_with_the_trained_one(stage, load):
    trained, cfg = _untrained_model(stage)
    built = load(trained_checkpoint(stage, 0, cfg.to_dict(), trained.param_items(),
                                    0, "holdout", [0.0]))
    for (name, saved), (_, kept) in zip(trained.param_items(), built.param_items()):
        np.testing.assert_array_equal(kept.data, saved.data)
        assert not np.shares_memory(kept.data, saved.data), name


@LOADERS
def test_loaders_refuse_a_table_their_config_does_not_use(load, stage, table):
    ckpt = _untrained_checkpoint(stage)
    extra = table.split(".")[0] + ".9.W"
    ckpt.tensors[extra] = np.zeros((2, 2))
    with pytest.raises(CheckpointMismatch, match=f"1 tables unused by its config: {extra}"):
        load(ckpt)


def test_the_encoder_loader_checks_only_the_encoder_tables():
    ckpt = _untrained_checkpoint(STAGE_EXTRACTOR)
    ckpt.tensors["decoder.9.W"] = np.zeros((2, 2))
    encoder_from_checkpoint(ckpt)  # the other networks' tables are not its concern
    with pytest.raises(CheckpointMismatch, match="unused"):
        extractor_from_checkpoint(ckpt)


# --- one gradient at a time ---

def _whole_list_update(cfg, params):
    """`adam_step` on the gradients of every parameter at once."""
    state = AdamState(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
    return lambda tape, loss: adam_step(state, params, grads_for(backward(tape, loss), params))


def _adversarial_tables(make_update, frozen_listed=False, steps=4):
    """The tables after `steps` alternating updates of a generator and a
    discriminator, each update made by `make_update(cfg, params)`. The
    discriminator reads each of its tables twice, on x and on x_hat; the
    generator's loss passes through it frozen; the generator's list holds a
    table no tape sees, and with `frozen_listed` the frozen tables too."""
    cfg = nn.TrainConfig(lr=0.01)
    nets = (("gen.", (12, 7, 12), nn.relu, nn.sigmoid),
            ("disc.", (12, 5, 1), nn.leaky_relu, nn.sigmoid))
    rng = np.random.default_rng(23)
    tables = nn.init_tables(rng, nets)
    tables["unseen"] = rng.standard_normal((3, 4))
    gen, disc = (MLP.from_tables(tables, *net) for net in nets)
    gen_params = gen.params + [Tensor(tables["unseen"])]
    if frozen_listed:
        gen_params += disc.params
    gen_update, disc_update = make_update(cfg, gen_params), make_update(cfg, disc.params)
    ones = Tensor(np.ones((6, 1)), requires_grad=False)
    for _ in range(steps):
        x = Tensor(rng.random((6, 12)), requires_grad=False)
        with GradTape() as tape:
            x_hat = Tensor(gen.eval_np(x.data), requires_grad=False)
            loss = nn.mean(1.0 - disc(x)) + nn.mean(disc(x_hat))
        disc_update(tape, loss)
        with GradTape() as tape:
            x_hat = gen(x)
            with nn.frozen(disc.params):
                loss = mse(disc(x_hat), ones) + mse(x_hat, x)
        gen_update(tape, loss)
    return tables


@pytest.mark.parametrize("frozen_listed", [False, True], ids=["frozen-apart", "frozen-listed"])
def test_one_gradient_at_a_time_is_adam_step_on_the_whole_list(frozen_listed):
    streamed = _adversarial_tables(lambda cfg, params: cfg.adam_update(params), frozen_listed)
    whole = _adversarial_tables(_whole_list_update, frozen_listed)
    start = _adversarial_tables(_whole_list_update, frozen_listed, steps=0)
    for name in whole:
        np.testing.assert_array_equal(streamed[name], whole[name], err_msg=name)
        moved = not np.array_equal(whole[name], start[name])
        # a zero gradient moves nothing from zero moments; the frozen tables
        # take the discriminator's own steps, and with `frozen_listed` the
        # momentum of those too
        assert moved == (name != "unseen"), name


def test_an_update_holds_one_weight_gradient_at_a_time():
    rng = np.random.default_rng(5)
    net = MLP.create(rng, [1600, 512, 1600], nn.relu, None)
    update = nn.TrainConfig().adam_update(net.params)
    x = Tensor(rng.random((4, 1600)), requires_grad=False)
    for measured in (False, True):  # the first update pays numpy's first-call setup
        with GradTape() as tape:
            loss = mse(net(x), x)
        if measured:
            tracemalloc.start()
        try:
            update(tape, loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # the gradients of both 512 x 1600 weight tables: 13.1 MB
    assert peak < 2 * 512 * 1600 * 8


# --- the best epoch ---

def test_fit_restores_the_best_epoch_into_the_arrays_the_model_holds():
    rng = np.random.default_rng(31)
    widths = (6, 5, 1)
    tables = nn.init_tables(rng, [("net.", widths)])
    net = MLP.from_tables(tables, "net.", widths, nn.tanh, None)
    params = net.params
    cfg = nn.TrainConfig(epochs=5, patience=10, batch_size=4, lr=0.05)
    update = cfg.adam_update(params)
    scripted = iter([5.0, 4.0, 1.0, 3.0, 2.0, 6.0])  # the best is epoch 2
    at_epoch = []

    def step(xb):
        with GradTape() as tape:
            loss = mse(net(Tensor(xb, requires_grad=False)),
                       Tensor(np.ones((len(xb), 1)), requires_grad=False))
        update(tape, loss)

    def metric(hold):
        at_epoch.append(nn.snapshot(params))
        return next(scripted)

    arrays = [p.data for p in params]
    history, best_epoch, _ = nn.fit(params, (rng.standard_normal((16, 6)),), step, metric,
                                    cfg, seed=0, tag="script")
    assert history == [5.0, 4.0, 1.0, 3.0, 2.0, 6.0] and best_epoch == 2
    assert not np.array_equal(at_epoch[2][0], at_epoch[-1][0])  # training moved on
    for p, array, best in zip(params, arrays, at_epoch[2]):
        assert p.data is array
        np.testing.assert_array_equal(p.data, best)
    for name, p in net.param_items():
        assert tables[name] is p.data
    adam_step(AdamState(params), params, [np.ones(p.data.shape) for p in params])


@pytest.mark.parametrize("metrics, epoch", [
    ([float("nan")], 0),
    ([3.0, 2.0, float("inf")], 2),
    ([3.0, float("-inf")], 1),
], ids=["nan-at-start", "inf-later", "minus-inf"])
def test_fit_refuses_a_holdout_metric_that_is_not_finite(metrics, epoch):
    scripted = iter(metrics)
    with pytest.raises(NonFiniteMetric, match=f"script: .* at epoch {epoch}$"):
        nn.fit([], (np.arange(8.0),), lambda xb: None, lambda hold: next(scripted),
               nn.TrainConfig(epochs=5), seed=0, tag="script")
