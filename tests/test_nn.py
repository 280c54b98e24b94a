import math

import numpy as np
import pytest

from flowgate import nn
from flowgate.checkpoint import (
    Checkpoint, STAGE_CLASSIFIER, STAGE_EXTRACTOR, STAGE_FLOW, trained_checkpoint,
)
from flowgate.classifier import (
    ClassifierConfig, ClassifierModel, classifier_from_checkpoint,
)
from flowgate.errors import CheckpointMismatch, DetachedLoss, ShapeMismatch
from flowgate.extractor import (
    ExtractorConfig, FeatureExtractor, encoder_from_checkpoint,
    extractor_from_checkpoint,
)
from flowgate.flow import FlowConfig, FlowModel, flow_from_checkpoint
from flowgate.nn import (
    Activation, AdamState, DenseLayer, GradTape, MLP, Tensor,
    adam_step, backward, bce, forward, grads_for, mse,
)
from gradcheck import max_rel_error, numeric_grad


def test_forward_identity_linear():
    layer = DenseLayer(Tensor(np.eye(3)), Tensor(np.zeros(3)), Activation.LINEAR)
    x = np.array([0.3, -1.2, 7.0])
    out = forward(layer, Tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_forward_sigmoid_of_zero_is_half():
    layer = DenseLayer(Tensor(np.zeros((4, 2))), Tensor(np.zeros(4)), Activation.SIGMOID)
    out = forward(layer, Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, 0.5)


def test_forward_relu_hand_case():
    # W=[[1,2],[3,4]], b=0, x=[1,1] -> [3,7]
    layer = DenseLayer(Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])),
                       Tensor(np.zeros(2)), Activation.RELU)
    out = forward(layer, Tensor(np.array([1.0, 1.0])))
    np.testing.assert_array_equal(out.data, [3.0, 7.0])


def test_forward_shape_mismatch():
    layer = DenseLayer(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeMismatch):
        forward(layer, Tensor(np.zeros(4)))


def test_forward_batched_matches_single():
    rng = np.random.default_rng(0)
    layer = MLP.create(rng, [5, 3], Activation.TANH, Activation.TANH).layers[0]
    x = rng.standard_normal((4, 5))
    batched = forward(layer, Tensor(x)).data
    for i in range(4):
        single = forward(layer, Tensor(x[i])).data
        np.testing.assert_allclose(batched[i], single, rtol=1e-12)


def test_eval_np_matches_tape_path():
    rng = np.random.default_rng(1)
    net = MLP.create(rng, [6, 8, 3], Activation.LEAKY_RELU, Activation.SIGMOID)
    x = rng.standard_normal((7, 6))
    np.testing.assert_array_equal(net.eval_np(x), net(Tensor(x)).data)


def test_eval_np_inside_a_tape_records_nothing():
    rng = np.random.default_rng(4)
    net = MLP.create(rng, [6, 8, 3], Activation.RELU, Activation.SIGMOID)
    x = rng.standard_normal((5, 6))
    with GradTape() as tape:
        out = net.eval_np(x)
    assert len(tape) == 0
    np.testing.assert_array_equal(out, net(Tensor(x)).data)


def test_off_tape_ops_record_nothing_and_pass_no_gradient():
    w = Tensor(np.random.default_rng(3).standard_normal(4))
    with GradTape() as tape:
        with nn.off_tape():
            frozen = nn.tanh(w * w)
        assert len(tape) == 0
        loss = nn.reduce_sum(frozen * w)
    assert len(tape) == 2  # recording resumes once off_tape exits
    grads = backward(tape, loss)
    # d/dw sum(c * w) = c: the frozen factor is a constant, not tanh(w * w)
    np.testing.assert_array_equal(grads[w], frozen.data)


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
        pred = nn.linear(Tensor(x), W, b)
        loss = mse(pred, Tensor(y))
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


@pytest.mark.parametrize("activation", list(Activation))
def test_gradient_check_every_layer_type(activation):
    rng = np.random.default_rng(hash(activation.value) % 2**32)
    layer = MLP.create(rng, [5, 4], activation, activation).layers[0]
    x = Tensor(rng.standard_normal((3, 5)))
    target = rng.standard_normal((3, 4)) * 0.1 + 0.4

    def loss_value() -> float:
        return mse(forward(layer, x), Tensor(target)).item()

    with GradTape() as tape:
        loss = mse(forward(layer, x), Tensor(target))
    grads = backward(tape, loss)
    for p in layer.params + [x]:
        num = numeric_grad(loss_value, p.data)
        assert max_rel_error(grads[p], num) < 1e-4


def test_gradient_check_bce_head():
    rng = np.random.default_rng(9)
    net = MLP.create(rng, [4, 6, 1], Activation.RELU, Activation.SIGMOID)
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


def test_gradient_check_take_put_cols():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((3, 6)))
    idx = np.array([0, 2, 5])
    rest = np.array([1, 3, 4])

    def compute():
        a = nn.take_cols(x, idx)
        b = nn.take_cols(x, rest)
        merged = nn.add(nn.put_cols(nn.exp(a), idx, 6), nn.put_cols(b, rest, 6))
        return mean_of_square(merged)

    def mean_of_square(t):
        return nn.mean(nn.mul(t, t))

    with GradTape() as tape:
        loss = compute()
    grads = backward(tape, loss)
    num = numeric_grad(lambda: compute().item(), x.data)
    assert max_rel_error(grads[x], num) < 1e-4


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


def test_forward_deterministic():
    rng = np.random.default_rng(21)
    net = MLP.create(rng, [10, 7, 2], Activation.RELU, Activation.LINEAR)
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
        p.data = p.data + 1.0

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
