import math

import numpy as np
import pytest

from flowgate import nn
from flowgate.checkpoint import load_checkpoint, save_checkpoint
from flowgate.errors import (
    CheckpointMismatch, EmptyDataset, NonFiniteInput, ShapeMismatch,
)
from flowgate.flow import (
    FlowConfig, FlowModel, flow_from_checkpoint, nll_t, train_flow,
)
from flowgate.nn import GradTape, Tensor
from crafting import checkpoint_with_header
from gradcheck import max_rel_error, numeric_grad


def make_flow(dim=70, blocks=8, hidden=16, seed=0) -> FlowModel:
    return FlowModel.create(FlowConfig(dim=dim, blocks=blocks, hidden=hidden), seed)


def randomize(model: FlowModel, rng) -> None:
    # training-plausible magnitudes: glorot-scale weights, small biases
    for p in model.params:
        if p.data.ndim == 2:
            limit = math.sqrt(6.0 / sum(p.data.shape))
            p.data = rng.uniform(-limit, limit, size=p.data.shape)
        else:
            p.data = rng.uniform(-0.1, 0.1, size=p.data.shape)


def numeric_log_det(fn, z, h=1e-5):
    """log|det d fn(z) / dz| by central differences; fn maps [dim] -> [dim]."""
    dim = z.size
    jac = np.zeros((dim, dim))
    for j in range(dim):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        jac[:, j] = (fn(zp) - fn(zm)) / (2.0 * h)
    sign, logdet = np.linalg.slogdet(jac)
    assert sign != 0
    return logdet


def test_zero_initialized_flow_is_identity():
    model = make_flow()
    z = np.random.default_rng(0).standard_normal((5, 70))
    c, log_det = model.normalize(z)
    np.testing.assert_array_equal(c, z)
    np.testing.assert_array_equal(log_det, np.zeros(5))
    np.testing.assert_array_equal(model.generate(z), z)


def test_masks_alternate_and_cover():
    model = make_flow(dim=70, blocks=8)
    for block in model.blocks:
        assert int(block.mask.sum()) == 35
    for a, b in zip(model.blocks, model.blocks[1:]):
        np.testing.assert_array_equal(a.mask + b.mask, np.ones(70, dtype=np.int64))


def test_frozen_single_block_doubles_unmasked():
    # force s = ln 2 on the transformed half, t = 0
    model = make_flow(blocks=1)
    block = model.blocks[0]
    raw = math.atanh(math.log(2.0) / block.s_clamp)
    block.s_net.layers[-1].bias.data[:] = raw
    z = np.random.default_rng(1).standard_normal(70)
    c, log_det = model.normalize(z)
    np.testing.assert_allclose(c[block.keep_idx], z[block.keep_idx])
    np.testing.assert_allclose(c[block.change_idx], 2.0 * z[block.change_idx], rtol=1e-12)
    assert abs(log_det - 35 * math.log(2.0)) < 1e-9
    # inverted by halving
    np.testing.assert_allclose(model.generate(c), z, atol=1e-12)


def test_round_trip_random_parameters():
    model = make_flow(dim=70, blocks=8)
    rng = np.random.default_rng(2)
    randomize(model, rng)
    z = rng.standard_normal((200, 70))
    c, _ = model.normalize(z)
    back = model.generate(c)
    assert np.abs(back - z).max() < 1e-8
    # and the other composition order
    z2 = model.generate(c)
    c2, _ = model.normalize(z2)
    assert np.abs(c2 - c).max() < 1e-8


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_log_det_matches_numeric_jacobian(dim):
    rng = np.random.default_rng(dim)
    for _ in range(5):
        model = make_flow(dim=dim, blocks=4, hidden=8)
        randomize(model, rng)
        z = rng.standard_normal(dim)
        _, analytic = model.normalize(z)
        numeric = numeric_log_det(lambda v: model.normalize(v)[0], z)
        assert abs(analytic - numeric) / max(abs(numeric), 1e-12) < 1e-6


def test_log_det_antisymmetry_via_generate_jacobian():
    # log|det dz/dc| at c = normalize(z) must equal -log|det dc/dz| at z
    rng = np.random.default_rng(7)
    model = make_flow(dim=4, blocks=4, hidden=8)
    randomize(model, rng)
    z = rng.standard_normal(4)
    c, forward_ld = model.normalize(z)
    inverse_ld = numeric_log_det(lambda v: model.generate(v), c)
    assert abs(forward_ld + inverse_ld) < 1e-6


def test_log_likelihood_zero_model_at_origin():
    model = make_flow()
    value = model.log_likelihood(np.zeros(70))
    assert abs(value - (-35.0 * math.log(2.0 * math.pi))) < 1e-12


def test_log_likelihood_zero_model_peaks_at_origin():
    model = make_flow()
    rng = np.random.default_rng(3)
    samples = rng.standard_normal((100, 70))
    ll = model.log_likelihood(samples)
    assert model.log_likelihood(np.zeros(70)) > ll.max()


def test_log_likelihood_dim2_hand_jacobian():
    # one frozen block: c = (z1, z2*e^s + t), log p(z) = log N(c) + s
    model = make_flow(dim=2, blocks=1, hidden=4)
    block = model.blocks[0]
    s_val, t_val = 0.7, -0.3
    block.s_net.layers[-1].bias.data[:] = math.atanh(s_val / block.s_clamp)
    block.t_net.layers[-1].bias.data[:] = t_val
    z = np.array([0.4, -1.1])
    c = np.array([z[0], z[1] * math.exp(s_val) + t_val])
    expected = (-0.5 * np.sum(c * c) - math.log(2.0 * math.pi) + s_val)
    assert abs(model.log_likelihood(z) - expected) < 1e-12


def test_nll_gradient_finite_differences():
    rng = np.random.default_rng(11)
    model = make_flow(dim=4, blocks=2, hidden=6)
    randomize(model, rng)
    batch = rng.standard_normal((3, 4))

    def loss_value() -> float:
        return nll_t(model, Tensor(batch)).item()

    with GradTape() as tape:
        loss = nll_t(model, Tensor(batch))
    grads = nn.backward(tape, loss)
    for p in model.params:
        num = numeric_grad(loss_value, p.data)
        assert max_rel_error(grads.get(p, np.zeros_like(p.data)), num) < 1e-4


def test_normalize_rejects_bad_input():
    model = make_flow(dim=4, blocks=2, hidden=4)
    with pytest.raises(NonFiniteInput):
        model.normalize(np.array([1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ShapeMismatch):
        model.normalize(np.zeros(5))


def shifted_correlated(rng, n, dim):
    cov_root = rng.standard_normal((dim, dim)) * 0.35 + np.eye(dim)
    shift = rng.uniform(-2.0, 2.0, size=dim)
    return rng.standard_normal((n, dim)) @ cov_root.T + shift


def test_train_flow_whitens_toy_latents():
    rng = np.random.default_rng(5)
    data = shifted_correlated(rng, 2000, 8)
    cfg = FlowConfig(dim=8, blocks=8, hidden=32, epochs=60, patience=10)
    model = FlowModel.create(cfg, seed=42)
    ckpt = train_flow(model, data, cfg, seed=42)
    history = ckpt.meta["holdout_nll"]
    assert min(history[1:]) < history[0]
    c, _ = model.normalize(data)
    assert np.abs(c.mean(axis=0)).max() < 0.2
    assert c.var(axis=0).min() > 0.7 and c.var(axis=0).max() < 1.3


def test_train_flow_deterministic():
    rng = np.random.default_rng(6)
    data = shifted_correlated(rng, 300, 4)
    cfg = FlowConfig(dim=4, blocks=2, hidden=8, epochs=5, patience=10)
    outs = []
    for _ in range(2):
        model = FlowModel.create(cfg, seed=9)
        ckpt = train_flow(model, data, cfg, seed=9)
        outs.append(ckpt)
    for name in outs[0].tensors:
        np.testing.assert_array_equal(outs[0].tensors[name], outs[1].tensors[name])


def test_train_flow_empty_dataset():
    cfg = FlowConfig(dim=4, blocks=2, hidden=8)
    model = FlowModel.create(cfg, seed=0)
    with pytest.raises(EmptyDataset):
        train_flow(model, np.zeros((0, 4)), cfg, seed=0)


def test_flow_checkpoint_round_trip():
    rng = np.random.default_rng(8)
    cfg = FlowConfig(dim=4, blocks=2, hidden=8, epochs=2)
    model = FlowModel.create(cfg, seed=3)
    data = shifted_correlated(rng, 200, 4)
    ckpt = train_flow(model, data, cfg, seed=3)
    rebuilt = flow_from_checkpoint(ckpt)
    z = rng.standard_normal((10, 4))
    np.testing.assert_array_equal(rebuilt.normalize(z)[0], model.normalize(z)[0])


def test_flow_checkpoint_with_tables_for_more_blocks_than_its_config_is_refused(tmp_path):
    cfg = FlowConfig(dim=4, blocks=4, hidden=8, epochs=1)
    path = tmp_path / "flow.ckpt"
    save_checkpoint(path, train_flow(FlowModel.create(cfg, seed=3),
                                     shifted_correlated(np.random.default_rng(8), 50, 4),
                                     cfg, seed=3))

    def one_block(header):
        meta = header["meta"]
        return {**header, "meta": {**meta, "config": {**meta["config"], "blocks": 1}}}
    path.write_bytes(checkpoint_with_header(path.read_bytes(), one_block))
    unused = len(make_flow(dim=4, blocks=4, hidden=8).params) \
        - len(make_flow(dim=4, blocks=1, hidden=8).params)
    with pytest.raises(CheckpointMismatch,
                       match=rf"flow.ckpt: {unused} tables unused by its config: flow.block1"):
        flow_from_checkpoint(load_checkpoint(path))
