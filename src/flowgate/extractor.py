"""Adversarially trained reconstruction model.

An encoder compresses each 1600-value packet vector to a 70-dim latent, a
mirrored decoder reconstructs it, and a discriminator drives the adversarial
term. The generator objective mixes reconstruction error with feature
matching on the discriminator's last hidden layer; generator and
discriminator are updated alternately with separate Adam states. Only the
encoder is kept for inference.

Packets train as their uint8 byte codes: the training step and the holdout
loss read a batch as values, byte/255 as `dataset.values_matrix` computes
them, only when they use it, so a training set costs one byte per value.
`encode_codes` gives the latents of a set of codes in padded blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import nn
from .checkpoint import Checkpoint, STAGE_EXTRACTOR, build_model, trained_checkpoint
from .dataset import codes_matrix
from .errors import AnomalyInTrainingSet, BadConfig, EmptyDataset, ShapeMismatch
from .nn import GradTape, MLP, Tensor
from .packets import EncodedPacket, Label
from .seeding import rng_for


@dataclass
class ExtractorConfig(nn.TrainConfig):
    input_dim: int = 1600
    latent_dim: int = 70
    w_adv: float = 1.0
    w_rec: float = 50.0
    encoder_widths: tuple[int, ...] = (1600, 512, 128, 70)
    disc_widths: tuple[int, ...] = (1600, 256, 64, 1)

    def __post_init__(self):
        super().__post_init__()
        if self.encoder_widths[0] != self.input_dim:
            raise BadConfig("encoder_widths must start at input_dim")
        if self.encoder_widths[-1] != self.latent_dim:
            raise BadConfig("encoder_widths must end at latent_dim")
        if self.disc_widths[0] != self.input_dim or self.disc_widths[-1] != 1:
            raise BadConfig("disc_widths must map input_dim to a scalar")
        for name in ("w_adv", "w_rec"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise BadConfig(f"loss weight {name} must be non-negative and finite, "
                                f"got {value}")

    @property
    def decoder_widths(self) -> tuple[int, ...]:
        return tuple(reversed(self.encoder_widths))


def generator_objective(feat_real: Tensor, feat_fake: Tensor, x: Tensor,
                        x_hat: Tensor, w_adv: float, w_rec: float) -> Tensor:
    """w_adv * mean||feat(x) - feat(x_hat)||^2 + w_rec * mean||x - x_hat||^2."""
    return w_adv * nn.mse(feat_real, feat_fake) + w_rec * nn.mse(x, x_hat)


def discriminator_objective(d_real: Tensor, d_fake: Tensor) -> Tensor:
    """mean[1 - D(x)] + mean[D(G(x))]."""
    return nn.mean(1.0 - d_real) + nn.mean(d_fake)


def _networks(cfg: ExtractorConfig) -> tuple[tuple, tuple, tuple]:
    """The encoder, decoder and discriminator as `MLP.from_tables` takes them,
    in the order their tables are drawn."""
    return (("encoder.", cfg.encoder_widths, nn.relu, None),
            ("decoder.", cfg.decoder_widths, nn.relu, nn.sigmoid),
            ("discriminator.", cfg.disc_widths, nn.leaky_relu, nn.sigmoid))


class FeatureExtractor:
    def __init__(self, encoder: MLP, decoder: MLP, discriminator: MLP,
                 config: ExtractorConfig) -> None:
        self.encoder = encoder
        self.decoder = decoder
        self.discriminator = discriminator
        self.config = config

    @classmethod
    def create(cls, cfg: ExtractorConfig, seed: int) -> "FeatureExtractor":
        return cls.from_tables(cfg, nn.init_tables(rng_for(seed, "extractor-init"),
                                                   _networks(cfg)))

    @classmethod
    def from_tables(cls, cfg: ExtractorConfig, tables) -> "FeatureExtractor":
        return cls(*(MLP.from_tables(tables, *net) for net in _networks(cfg)), cfg)

    # --- inference paths (frozen model, plain numpy) ---

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Latent representation; the only piece retained for inference."""
        arr, single = nn.as_rows(x, self.config.input_dim)
        z = self.encoder.eval_np(arr)
        return z[0] if single else z

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        arr, single = nn.as_rows(x, self.config.input_dim)
        out = self.decoder.eval_np(self.encoder.eval_np(arr))
        return out[0] if single else out

    # --- objectives ---

    def generator_loss(self, x: np.ndarray) -> float:
        arr, _ = nn.as_rows(x, self.config.input_dim)
        return self._generator_loss_t(Tensor(arr, requires_grad=False)).item()

    def discriminator_loss(self, x: np.ndarray) -> float:
        arr, _ = nn.as_rows(x, self.config.input_dim)
        x_hat = self.decoder.eval_np(self.encoder.eval_np(arr))
        d_real = Tensor(self.discriminator.eval_np(arr))
        d_fake = Tensor(self.discriminator.eval_np(x_hat))
        return discriminator_objective(d_real, d_fake).item()

    def _reconstruct_t(self, x: Tensor) -> Tensor:
        """The generator's forward pass, on the active tape."""
        return self.decoder(self.encoder(x))

    def _generator_loss_t(self, x: Tensor, x_hat: Optional[Tensor] = None) -> Tensor:
        """The generator objective of `x` and its reconstructions `x_hat`, run
        here if not given. The discriminator is frozen: gradients pass through
        it to `x_hat` only."""
        if x_hat is None:
            x_hat = self._reconstruct_t(x)
        with nn.frozen(self.discriminator.params):
            _, feat_fake = self.discriminator.forward_hidden(x_hat)
        with nn.off_tape():  # a constant of the generator step
            _, feat_real = self.discriminator.forward_hidden(x)
        return generator_objective(feat_real, feat_fake, x, x_hat,
                                   self.config.w_adv, self.config.w_rec)

    # --- parameters ---

    @property
    def generator_params(self) -> list[Tensor]:
        return self.encoder.params + self.decoder.params

    @property
    def discriminator_params(self) -> list[Tensor]:
        return self.discriminator.params

    def param_items(self) -> list[tuple[str, Tensor]]:
        return (self.encoder.param_items() + self.decoder.param_items()
                + self.discriminator.param_items())


def training_matrix(dataset: Sequence[EncodedPacket] | np.ndarray,
                    input_dim: int) -> np.ndarray:
    """Training inputs as one matrix, refusing anything labeled as an anomaly:
    packets as their uint8 byte codes, a uint8 array as codes too, and any
    other array as float64 values."""
    if isinstance(dataset, np.ndarray):
        matrix = dataset if dataset.dtype == np.uint8 else np.asarray(dataset, dtype=np.float64)
    else:
        packets = list(dataset)
        for p in packets:
            if p.label is Label.ANOMALY:
                raise AnomalyInTrainingSet(
                    f"labeled anomaly {p.source_id} in a training set")
        matrix = codes_matrix(packets)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise EmptyDataset("training needs at least one packet")
    if matrix.shape[1] != input_dim:
        raise ShapeMismatch(f"packets have {matrix.shape[1]} values, "
                            f"config expects {input_dim}")
    return matrix


def batch_values(batch: np.ndarray) -> np.ndarray:
    """Rows of a `training_matrix` as float64 values: codes as byte/255, the
    quotient `dataset.values_matrix` computes; values as they are."""
    return batch / 255.0 if batch.dtype == np.uint8 else batch


def encode_codes(encoder: MLP, codes: np.ndarray) -> np.ndarray:
    """The latents of packets' uint8 byte codes, `MLP.eval_blocks` filling
    each block with its rows' values (byte/255) as it goes."""
    return encoder.eval_blocks(
        len(codes), lambda block, rows: np.divide(codes[rows], 255.0, out=block))


def train_extractor(dataset: Sequence[EncodedPacket] | np.ndarray,
                    cfg: ExtractorConfig, seed: int) -> Checkpoint:
    """Alternating per-batch discriminator/generator updates with early
    stopping. Packets and uint8 codes are held as codes, float values as they
    are; both give the same checkpoint."""
    data = training_matrix(dataset, cfg.input_dim)
    model = FeatureExtractor.create(cfg, seed)
    gen_update = cfg.adam_update(model.generator_params)
    disc_update = cfg.adam_update(model.discriminator_params)

    def step(xb: np.ndarray) -> None:
        x = Tensor(batch_values(xb), requires_grad=False)
        # the generator's forward, run once: the discriminator step below
        # leaves encoder and decoder as they are
        with GradTape() as gen_tape:
            x_hat = model._reconstruct_t(x)
        # discriminator step; the reconstructions are a constant batch here
        with GradTape() as tape:
            d_real = model.discriminator(x)
            d_fake = model.discriminator(Tensor(x_hat.data, requires_grad=False))
            d_loss = discriminator_objective(d_real, d_fake)
        disc_update(tape, d_loss)
        # generator step, on the tape of its forward, through the updated
        # discriminator
        with gen_tape:
            g_loss = model._generator_loss_t(x, x_hat)
        gen_update(gen_tape, g_loss)

    def holdout_loss(hold: np.ndarray) -> float:
        return model.generator_loss(batch_values(hold))

    history, best_epoch, n_train = nn.fit(
        model.generator_params + model.discriminator_params, (data,), step,
        holdout_loss, cfg, seed, "extractor")
    return trained_checkpoint(STAGE_EXTRACTOR, seed, cfg.to_dict(), model.param_items(),
                              best_epoch, "holdout_generator_loss", history, n_train=n_train)


def extractor_from_checkpoint(ckpt: Checkpoint) -> FeatureExtractor:
    return build_model(ckpt, ExtractorConfig, FeatureExtractor.from_tables)


def encoder_from_checkpoint(ckpt: Checkpoint) -> MLP:
    """Just the encoder; usable with a checkpoint loaded with
    include=("encoder.",) so no other parameter table is ever materialized."""
    return build_model(ckpt, ExtractorConfig,
                       lambda cfg, tables: MLP.from_tables(tables, *_networks(cfg)[0]),
                       prefix="encoder.")
