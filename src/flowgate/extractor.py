"""Adversarially trained reconstruction model.

An encoder compresses each 1600-value packet vector to a 70-dim latent, a
mirrored decoder reconstructs it, and a discriminator drives the adversarial
term. The generator objective mixes reconstruction error with feature
matching on the discriminator's last hidden layer; generator and
discriminator are updated alternately with separate Adam states. Only the
encoder is kept for inference.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import nn
from .checkpoint import Checkpoint, STAGE_EXTRACTOR, build_model, trained_checkpoint
from .dataset import values_matrix
from .errors import AnomalyInTrainingSet, BadConfig, EmptyDataset, ShapeMismatch
from .nn import Activation, GradTape, MLP, Tensor
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
        if self.w_adv < 0 or self.w_rec < 0:
            raise BadConfig("loss weights w_adv and w_rec must be non-negative")

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
    return (("encoder.", cfg.encoder_widths, Activation.RELU, Activation.LINEAR),
            ("decoder.", cfg.decoder_widths, Activation.RELU, Activation.SIGMOID),
            ("discriminator.", cfg.disc_widths, Activation.LEAKY_RELU, Activation.SIGMOID))


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
        return self._generator_loss_t(Tensor(arr)).item()

    def discriminator_loss(self, x: np.ndarray) -> float:
        arr, _ = nn.as_rows(x, self.config.input_dim)
        x_hat = self.decoder.eval_np(self.encoder.eval_np(arr))
        d_real = Tensor(self.discriminator.eval_np(arr))
        d_fake = Tensor(self.discriminator.eval_np(x_hat))
        return discriminator_objective(d_real, d_fake).item()

    def _generator_loss_t(self, x: Tensor) -> Tensor:
        z = self.encoder(x)
        x_hat = self.decoder(z)
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
    """Stack training inputs, rejecting anything labeled as an anomaly."""
    if isinstance(dataset, np.ndarray):
        matrix = np.asarray(dataset, dtype=np.float64)
    else:
        packets = list(dataset)
        for p in packets:
            if p.label is Label.ANOMALY:
                raise AnomalyInTrainingSet(
                    f"labeled anomaly {p.source_id} in a training set")
        matrix = values_matrix(packets)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise EmptyDataset("training needs at least one packet")
    if matrix.shape[1] != input_dim:
        raise ShapeMismatch(f"packets have {matrix.shape[1]} values, "
                            f"config expects {input_dim}")
    return matrix


def train_extractor(dataset: Sequence[EncodedPacket] | np.ndarray,
                    cfg: ExtractorConfig, seed: int) -> Checkpoint:
    """Alternating per-batch discriminator/generator updates with early stopping."""
    data = training_matrix(dataset, cfg.input_dim)
    model = FeatureExtractor.create(cfg, seed)
    gen_update = cfg.adam_update(model.generator_params)
    disc_update = cfg.adam_update(model.discriminator_params)

    def step(xb: np.ndarray) -> None:
        # discriminator step; reconstructions are constants here
        x_hat = model.decoder.eval_np(model.encoder.eval_np(xb))
        with GradTape() as tape:
            d_real = model.discriminator(Tensor(xb))
            d_fake = model.discriminator(Tensor(x_hat))
            d_loss = discriminator_objective(d_real, d_fake)
        disc_update(tape, d_loss)
        # generator step; discriminator parameters receive no update
        with GradTape() as tape:
            g_loss = model._generator_loss_t(Tensor(xb))
        gen_update(tape, g_loss)

    history, best_epoch, n_train = nn.fit(
        model.generator_params + model.discriminator_params, (data,), step,
        model.generator_loss, cfg, seed, "extractor")
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
