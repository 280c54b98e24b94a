import hashlib
import math

import numpy as np
import pytest

from flowgate import nn
from flowgate.checkpoint import load_checkpoint, save_checkpoint
from flowgate.errors import (
    CheckpointMismatch, EmptyDataset, NonFiniteInput, NonFiniteIntermediate, ShapeMismatch,
)
from flowgate.flow import (
    FlowConfig, FlowModel, flow_from_checkpoint, nll_t, train_flow,
)
from flowgate.nn import GradTape, Tensor
from flowgate.synthesis import NoiseSpec, SynthesisConfig, synthesize
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
    # each block keeps one half of the columns and changes the other half;
    # the next block swaps them
    model = make_flow(dim=70, blocks=8)
    cols = np.arange(70)
    for block in model.blocks:
        assert len(cols[block.keep]) == 35
        np.testing.assert_array_equal(np.sort(np.r_[cols[block.keep], cols[block.change]]), cols)
    for a, b in zip(model.blocks, model.blocks[1:]):
        assert (a.keep, a.change) == (b.change, b.keep)


def test_frozen_single_block_doubles_unmasked():
    # force s = ln 2 on the transformed half, t = 0
    model = make_flow(blocks=1)
    block = model.blocks[0]
    raw = math.atanh(math.log(2.0) / block.s_clamp)
    block.s_net.layers[-1].bias.data[:] = raw
    z = np.random.default_rng(1).standard_normal((1, 70))
    c, log_det = model.normalize(z)
    np.testing.assert_allclose(c[:, block.keep], z[:, block.keep])
    np.testing.assert_allclose(c[:, block.change], 2.0 * z[:, block.change], rtol=1e-12)
    assert abs(log_det[0] - 35 * math.log(2.0)) < 1e-9
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
        analytic = model.normalize(z[None])[1][0]
        numeric = numeric_log_det(lambda v: model.normalize(v[None])[0][0], z)
        assert abs(analytic - numeric) / max(abs(numeric), 1e-12) < 1e-6


def test_log_det_antisymmetry_via_generate_jacobian():
    # log|det dz/dc| at c = normalize(z) must equal -log|det dc/dz| at z
    rng = np.random.default_rng(7)
    model = make_flow(dim=4, blocks=4, hidden=8)
    randomize(model, rng)
    z = rng.standard_normal(4)
    c, forward_ld = (out[0] for out in model.normalize(z[None]))
    inverse_ld = numeric_log_det(lambda v: model.generate(v[None])[0], c)
    assert abs(forward_ld + inverse_ld) < 1e-6


def test_log_likelihood_zero_model_at_origin():
    model = make_flow()
    value = model.log_likelihood(np.zeros((1, 70)))[0]
    assert abs(value - (-35.0 * math.log(2.0 * math.pi))) < 1e-12


def test_log_likelihood_zero_model_peaks_at_origin():
    model = make_flow()
    rng = np.random.default_rng(3)
    samples = rng.standard_normal((100, 70))
    ll = model.log_likelihood(samples)
    assert model.log_likelihood(np.zeros((1, 70)))[0] > ll.max()


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
    assert abs(model.log_likelihood(z[None])[0] - expected) < 1e-12


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
        model.normalize(np.array([[1.0, np.nan, 0.0, 0.0]]))
    with pytest.raises(ShapeMismatch):
        model.normalize(np.zeros((1, 5)))


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


def shifting_flow(shift: float) -> FlowModel:
    """One coupling block over 4 columns that passes columns 0-1 through and
    shifts columns 2-3 by `shift`: its scale net is zero, and its shift net's
    last layer has zero weights and bias `shift`."""
    model = make_flow(dim=4, blocks=1, hidden=4)
    dict(model.param_items())["flow.block0.t.2.b"].data = np.full(2, shift)
    return model


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_normalize_refuses_a_coupling_block_that_overflows():
    z = np.array([[0.0, 0.0, 1e308, 1e308]])
    c, _ = shifting_flow(0.0).normalize(z)
    np.testing.assert_array_equal(c, z)
    with pytest.raises(NonFiniteIntermediate, match="coupling block overflowed"):
        shifting_flow(1.5e308).normalize(z)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_generate_refuses_a_coupling_block_that_overflows():
    c = np.array([[0.0, 0.0, -1e308, -1e308]])
    np.testing.assert_array_equal(shifting_flow(0.0).generate(c), c)
    with pytest.raises(NonFiniteIntermediate, match="coupling block overflowed"):
        shifting_flow(1.5e308).generate(c)


def test_flow_checkpoint_round_trip():
    rng = np.random.default_rng(8)
    cfg = FlowConfig(dim=4, blocks=2, hidden=8, epochs=2)
    model = FlowModel.create(cfg, seed=3)
    data = shifted_correlated(rng, 200, 4)
    ckpt = train_flow(model, data, cfg, seed=3)
    rebuilt = flow_from_checkpoint(ckpt)
    z = rng.standard_normal((10, 4))
    np.testing.assert_array_equal(rebuilt.normalize(z)[0], model.normalize(z)[0])


def test_normalize_is_the_tape_path_run_off_the_tape():
    rng = np.random.default_rng(10)
    cfg = FlowConfig(dim=5, blocks=3, hidden=8, epochs=3)
    model = FlowModel.create(cfg, seed=4)
    train_flow(model, shifted_correlated(rng, 200, 5), cfg, seed=4)
    z = shifted_correlated(rng, 12, 5)
    c_t, log_det_t = model.normalize_t(Tensor(z))
    c, log_det = model.normalize(z)
    assert c.tobytes() == c_t.data.tobytes()
    assert log_det.tobytes() == log_det_t.data.tobytes()
    c_t, log_det_t = model.normalize_t(Tensor(z[:1]))
    c, log_det = model.normalize(z[:1])
    assert c.tobytes() == c_t.data.tobytes()
    assert log_det.tobytes() == log_det_t.data.tobytes()


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


@pytest.mark.parametrize("dim, blocks, digest", [
    (70, 8, "127bac49b19b2be1d7b6f6d79768cb587106fbd82f8a22b15963975cb8d9efea"),
    (5, 3, "f0f46627e47aa002f966b3a490fe12c54e8b21ad8d7e8abc02cfe8dce645609b"),
], ids=["even-dim", "odd-dim"])
def test_train_flow_writes_the_pinned_checkpoint_bytes(tmp_path, dim, blocks, digest):
    # pinned bytes: how a coupling block splits and joins its halves, and the
    # layout of those halves and their gradients, must not change what
    # training writes; an odd dim gives the two halves unequal widths
    cfg = FlowConfig(dim=dim, blocks=blocks, hidden=16, epochs=3, batch_size=32, patience=5)
    data = shifted_correlated(np.random.default_rng(dim), 150, dim)
    ckpt = train_flow(FlowModel.create(cfg, seed=13), data, cfg, seed=13)
    assert save_checkpoint(tmp_path / "flow.ckpt", ckpt) == digest


def test_synthesize_writes_the_pinned_latent_bytes():
    # the generate direction of a trained flow, oversampling included
    cfg = FlowConfig(dim=70, blocks=8, hidden=16, epochs=2, batch_size=32)
    data = shifted_correlated(np.random.default_rng(70), 150, 70)
    model = FlowModel.create(cfg, seed=13)
    train_flow(model, data, cfg, seed=13)
    pseudo = synthesize(model, data, NoiseSpec(mu=0.5, sigma=2.0, seed=3),
                        SynthesisConfig(ratio=1.5))
    assert pseudo.shape == (225, 70)
    assert hashlib.sha256(pseudo.tobytes()).hexdigest() == \
        "ebf7318e7d4ce67c3a43e9ff2cddeae413dd17a73ef142529f88c9a8001440cf"
