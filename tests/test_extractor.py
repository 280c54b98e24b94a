import tracemalloc

import numpy as np
import pytest

from flowgate import nn
from flowgate.checkpoint import STAGE_EXTRACTOR, save_checkpoint
from flowgate.dataset import codes_matrix, values_matrix
from flowgate.errors import AnomalyInTrainingSet, DtypeMismatch, EmptyDataset, ShapeMismatch
from flowgate.extractor import (
    ExtractorConfig, FeatureExtractor, discriminator_objective, encode_codes,
    extractor_from_checkpoint, generator_objective, train_extractor, training_matrix,
)
from flowgate.nn import GradTape, Tensor
from flowgate.packets import EncodedPacket, Label
from gradcheck import max_rel_error, numeric_grad


def toy_config(**overrides) -> ExtractorConfig:
    base = dict(input_dim=8, latent_dim=3, encoder_widths=(8, 6, 3),
                disc_widths=(8, 5, 1), epochs=3, batch_size=4, patience=5)
    base.update(overrides)
    return ExtractorConfig(**base)


# --- objectives ---

def test_generator_objective_hand_case():
    # feat(x)=[1], feat(G(x))=[0], x=[1,0], G(x)=[0,0] -> 1*1 + 50*0.5 = 26
    loss = generator_objective(
        Tensor(np.array([1.0])), Tensor(np.array([0.0])),
        Tensor(np.array([1.0, 0.0])), Tensor(np.array([0.0, 0.0])),
        w_adv=1.0, w_rec=50.0)
    assert loss.item() == 26.0


def test_generator_objective_perfect_reconstruction_is_zero():
    x = Tensor(np.array([0.2, 0.8]))
    f = Tensor(np.array([0.5]))
    assert generator_objective(f, f, x, x, 1.0, 50.0).item() == 0.0


def test_generator_objective_w_adv_zero_reduces_to_mse():
    x = Tensor(np.array([1.0, 0.0]))
    x_hat = Tensor(np.array([0.0, 0.0]))
    loss = generator_objective(Tensor(np.array([3.0])), Tensor(np.array([9.0])),
                               x, x_hat, w_adv=0.0, w_rec=50.0)
    assert loss.item() == 50.0 * 0.5


def test_discriminator_objective_values():
    one, zero = Tensor(np.array([1.0])), Tensor(np.array([0.0]))
    assert discriminator_objective(one, zero).item() == 0.0
    half = Tensor(np.array([0.5, 0.5]))
    assert discriminator_objective(half, half).item() == 1.0
    loss = discriminator_objective(Tensor(np.array([0.8])), Tensor(np.array([0.3])))
    assert abs(loss.item() - 0.5) < 1e-12


# --- encode / reconstruct ---

def test_encode_shape_and_determinism():
    model = FeatureExtractor.create(ExtractorConfig(), seed=0)
    x = np.random.default_rng(0).integers(0, 256, size=(1, 1600)) / 255.0
    z1, z2 = model.encode(x), model.encode(x)
    assert z1.shape == (1, 70)
    np.testing.assert_array_equal(z1, z2)


def test_encode_differs_when_one_byte_changes():
    model = FeatureExtractor.create(ExtractorConfig(), seed=1)
    x = np.zeros((1, 1600))
    y = x.copy()
    y[0, 100] = 37 / 255.0
    assert not np.array_equal(model.encode(x), model.encode(y))


def test_encode_rejects_bad_shape():
    model = FeatureExtractor.create(toy_config(), seed=0)
    with pytest.raises(ShapeMismatch):
        model.encode(np.zeros((1, 9)))


def test_reconstruct_range_and_length():
    model = FeatureExtractor.create(ExtractorConfig(), seed=2)
    x = np.random.default_rng(3).integers(0, 256, size=(4, 1600)) / 255.0
    out = model.decoder.eval_np(model.encoder.eval_np(x))
    assert out.shape == (4, 1600)
    assert out.min() > 0.0 and out.max() < 1.0


# --- gradients ---

def test_generator_loss_gradient_check():
    rng = np.random.default_rng(4)
    model = FeatureExtractor.create(toy_config(), seed=4)
    x = rng.uniform(0.0, 1.0, size=(3, 8))

    def loss_value() -> float:
        return model.generator_loss(x)

    with GradTape() as tape:
        loss = model._generator_loss_t(Tensor(x))
    grads = nn.backward(tape, loss)
    for p in model.generator_params:
        num = numeric_grad(loss_value, p.data)
        assert max_rel_error(grads[p], num) < 1e-4


def test_discriminator_loss_gradient_check():
    rng = np.random.default_rng(5)
    model = FeatureExtractor.create(toy_config(), seed=5)
    x = rng.uniform(0.0, 1.0, size=(3, 8))
    x_hat = model.decoder.eval_np(model.encoder.eval_np(x))

    def loss_value() -> float:
        return discriminator_objective(Tensor(model.discriminator.eval_np(x)),
                                       Tensor(model.discriminator.eval_np(x_hat))).item()

    with GradTape() as tape:
        d_real = model.discriminator(Tensor(x))
        d_fake = model.discriminator(Tensor(x_hat))
        loss = discriminator_objective(d_real, d_fake)
    grads = nn.backward(tape, loss)
    for p in model.discriminator_params:
        num = numeric_grad(loss_value, p.data)
        assert max_rel_error(grads[p], num) < 1e-4


# --- training ---

def textured_rows(rng, n, dim=40, base=None):
    # structured rows around a shared base pattern the autoencoder can learn
    if base is None:
        base = rng.uniform(0.2, 0.8, size=dim)
    rows = np.clip(base + 0.15 * rng.standard_normal((n, dim)), 0.0, 1.0)
    return rows


def test_training_improves_heldout_reconstruction():
    rng = np.random.default_rng(6)
    base = rng.uniform(0.2, 0.8, size=40)
    data = textured_rows(rng, 400, base=base)
    held = textured_rows(rng, 100, base=base)
    cfg = toy_config(input_dim=40, latent_dim=8, encoder_widths=(40, 32, 8),
                     disc_widths=(40, 16, 1), epochs=20, batch_size=32)
    untrained = FeatureExtractor.create(cfg, seed=7)
    rebuilt = untrained.decoder.eval_np(untrained.encoder.eval_np(held))
    before = float(np.mean((rebuilt - held) ** 2))
    ckpt = train_extractor(data, cfg, seed=7)
    model = extractor_from_checkpoint(ckpt)
    rebuilt = model.decoder.eval_np(model.encoder.eval_np(held))
    after = float(np.mean((rebuilt - held) ** 2))
    assert after < before
    history = ckpt.meta["holdout_generator_loss"]
    assert min(history[1:]) < history[0]
    assert ckpt.stage == STAGE_EXTRACTOR


def test_anomalous_rows_reconstruct_worse():
    rng = np.random.default_rng(8)
    base = rng.uniform(0.2, 0.8, size=40)
    data = textured_rows(rng, 400, base=base)
    cfg = toy_config(input_dim=40, latent_dim=8, encoder_widths=(40, 32, 8),
                     disc_widths=(40, 16, 1), epochs=20, batch_size=32)
    model = extractor_from_checkpoint(train_extractor(data, cfg, seed=9))
    normal = textured_rows(rng, 200, base=base)
    anomalous = rng.uniform(0.0, 1.0, size=(200, 40))
    rebuilt_normal = model.decoder.eval_np(model.encoder.eval_np(normal))
    rebuilt_anom = model.decoder.eval_np(model.encoder.eval_np(anomalous))
    err_normal = np.mean((rebuilt_normal - normal) ** 2, axis=1)
    err_anom = np.mean((rebuilt_anom - anomalous) ** 2, axis=1)
    assert np.median(err_anom) > np.median(err_normal)


def test_train_extractor_deterministic():
    rng = np.random.default_rng(10)
    data = textured_rows(rng, 60, dim=8)
    cfg = toy_config(epochs=3)
    a = train_extractor(data, cfg, seed=11)
    b = train_extractor(data, cfg, seed=11)
    for name in a.tensors:
        np.testing.assert_array_equal(a.tensors[name], b.tensors[name])


def test_train_extractor_rejects_labeled_anomaly():
    packets = [EncodedPacket(bytes(1600), label=Label.NORMAL, source_id=("m", 0)),
               EncodedPacket(bytes(1600), label=Label.ANOMALY, source_id=("m", 1))]
    with pytest.raises(AnomalyInTrainingSet):
        train_extractor(packets, ExtractorConfig(epochs=1), seed=0)


def test_train_extractor_empty_dataset():
    with pytest.raises(EmptyDataset):
        train_extractor([], ExtractorConfig(epochs=1), seed=0)
    with pytest.raises(EmptyDataset):
        train_extractor(np.zeros((0, 8)), toy_config(), seed=0)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    from flowgate.checkpoint import load_checkpoint, save_checkpoint
    rng = np.random.default_rng(12)
    data = textured_rows(rng, 60, dim=8)
    ckpt = train_extractor(data, toy_config(epochs=2), seed=13)
    path = tmp_path / "e.ckpt"
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path, expect_stage=STAGE_EXTRACTOR)
    assert back.config_fingerprint == ckpt.config_fingerprint
    assert back.seed == ckpt.seed
    for name in ckpt.tensors:
        np.testing.assert_array_equal(back.tensors[name], ckpt.tensors[name])
    rebuilt = extractor_from_checkpoint(back)
    x = rng.uniform(0, 1, size=(5, 8))
    np.testing.assert_array_equal(rebuilt.encode(x),
                                  extractor_from_checkpoint(ckpt).encode(x))


def test_train_extractor_writes_the_pinned_checkpoint_bytes(tmp_path):
    # pinned bytes: the in-place Adam, the one generator forward per step and
    # the gradients left out for constants and frozen weights must write what
    # the straightforward versions write; the first layers span two Adam blocks
    cfg = ExtractorConfig(latent_dim=8, encoder_widths=(1600, 24, 8),
                          disc_widths=(1600, 16, 1), epochs=3, batch_size=16, patience=5)
    data = np.random.default_rng(12).integers(0, 256, size=(60, 1600)) / 255.0
    digest = save_checkpoint(tmp_path / "x.ckpt", train_extractor(data, cfg, seed=7))
    assert digest == "bd2e2eb3adabfb5afb91530c14d67a63271704423ddf8bc9caaa0f7a51cca8a1"


# --- packets as byte codes ---

def _packets(n: int, seed: int) -> list[EncodedPacket]:
    rng = np.random.default_rng(seed)
    return [EncodedPacket(rng.integers(0, 256, 1600, dtype=np.uint8).tobytes(), Label.NORMAL)
            for _ in range(n)]


def test_encode_refuses_byte_codes():
    # codes are read as values only through byte/255, never cast to 0..255 floats
    model = FeatureExtractor.create(ExtractorConfig(), seed=0)
    codes = codes_matrix(_packets(3, seed=1))
    with pytest.raises(DtypeMismatch, match="uint8"):
        model.encode(codes)
    with pytest.raises(DtypeMismatch, match="uint8"):
        model.encode(codes[0])


def test_packets_train_as_codes_and_encode_as_their_values():
    packets = _packets(5, seed=2)
    codes = training_matrix(packets, 1600)
    assert codes.dtype == np.uint8
    np.testing.assert_array_equal(training_matrix(codes, 1600), codes)
    model = FeatureExtractor.create(ExtractorConfig(), seed=3)
    latents = encode_codes(model.encoder, codes)
    # full-length packets: both run the full-width encoder in padded blocks
    np.testing.assert_array_equal(latents, model.encode(values_matrix(packets)))
    # a row's latent does not depend on the rows encoded with it
    np.testing.assert_array_equal(encode_codes(model.encoder, codes[3:4]), latents[3:4])


def test_a_rows_encoding_does_not_depend_on_its_batch():
    model = FeatureExtractor.create(ExtractorConfig(), seed=3)
    x = values_matrix(_packets(300, seed=6))
    whole = model.encode(x)
    for size in (5, 17):
        np.testing.assert_array_equal(model.encode(x[:size]), whole[:size])
    for i in (0, 4, 16, 299):
        np.testing.assert_array_equal(model.encode(x[i:i + 1])[0], whole[i])


def test_packets_their_codes_and_their_values_train_the_same_checkpoint(tmp_path):
    cfg = ExtractorConfig(latent_dim=8, encoder_widths=(1600, 24, 8),
                          disc_widths=(1600, 16, 1), epochs=2, batch_size=16, patience=5)
    packets = _packets(60, seed=4)
    digests = {save_checkpoint(tmp_path / f"{name}.ckpt", train_extractor(data, cfg, seed=7))
               for name, data in (("packets", packets), ("codes", codes_matrix(packets)),
                                  ("values", values_matrix(packets)))}
    assert len(digests) == 1


def test_training_never_holds_the_packets_as_float64():
    packets = _packets(2000, seed=5)
    cfg = ExtractorConfig(latent_dim=4, encoder_widths=(1600, 8, 4),
                          disc_widths=(1600, 8, 1), epochs=1, batch_size=64)
    train_extractor(packets[:100], cfg, seed=1)  # numpy's and BLAS's first-call setup
    tracemalloc.start()
    try:
        train_extractor(packets, cfg, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the set as float64 values is 25.6 MB; as codes, 3.2 MB
    assert peak < len(packets) * 1600 * 8
