"""Adversarially trained reconstruction model.

An encoder compresses each 1600-value packet vector to a 70-dim latent, a
mirrored decoder reconstructs it, and a discriminator drives the adversarial
term. The generator objective mixes reconstruction error with feature
matching on the discriminator's last hidden layer; generator and
discriminator are updated alternately with separate Adam states. Only the
encoder is kept for inference.

Packets train as their uint8 byte codes: the training step and the holdout
loss read a batch as values (`packets.byte_values`) only when they use it, so
a training set costs one byte per value. `encode_codes` is the one path from
packet bytes to latents, for the training latents, the test set and
inference alike: each packet through the encoder narrowed to its
`score_width`, in padded blocks, one block of values held at a time.
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
from .packets import EncodedPacket, Label, VECTOR_LEN, byte_values
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
        for name in ("encoder_widths", "disc_widths"):
            widths = getattr(self, name)
            if len(widths) < 2 or min(widths) < 1:
                raise BadConfig(f"{name} must be two or more widths, each at least 1, "
                                f"got {widths}")
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
        """Latent representation; the only piece retained for inference. Rows
        run in `MLP.eval_blocks`' padded blocks, so a row's latent does not
        depend on the rows encoded with it."""
        arr = nn.as_rows(x, self.config.input_dim)
        return self.encoder.eval_blocks(len(arr), lambda block, rows: np.copyto(block, arr[rows]))

    # --- objectives ---

    def generator_loss(self, x: np.ndarray) -> float:
        arr = nn.as_rows(x, self.config.input_dim)
        return self._generator_loss_t(Tensor(arr, requires_grad=False)).item()

    def _reconstruct_t(self, x: Tensor) -> Tensor:
        """The generator's forward pass, on the active tape."""
        return self.decoder(self.encoder(x))

    def _generator_loss_t(self, x: Tensor, x_hat: Optional[Tensor] = None) -> Tensor:
        """The generator objective of `x` and its reconstructions `x_hat`, run
        here if not given. The discriminator is frozen: gradients pass through
        it to `x_hat` only; its features of `x` are a constant of the step,
        even for an `x` that takes a gradient."""
        if x_hat is None:
            x_hat = self._reconstruct_t(x)
        with nn.frozen(self.discriminator.params):
            _, feat_fake = self.discriminator.forward_hidden(x_hat)
            _, feat_real = self.discriminator.forward_hidden(Tensor(x.data, requires_grad=False))
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
    """Rows of a `training_matrix` as float64 values: codes as their
    `byte_values`, values as they are."""
    return byte_values(batch) if batch.dtype == np.uint8 else batch


# The input widths a packet is encoded at: the first whose tail past it holds
# only zero bytes. The product of zeros is exact, so a narrowed first layer
# drops nothing. The cuts are multiples of 384, the K block of OpenBLAS's
# dgemm on its SkylakeX kernel, so there the narrowed product sums the same
# blocks in the same order as the full one and the latents are bit-identical
# to it. Under another BLAS or kernel they may differ from it in the last
# bits, while a latent still depends on nothing but its packet's bytes.
SCORE_WIDTHS = (384, 768, 1152, VECTOR_LEN)
_ZERO_TAILS = tuple((width, bytes(VECTOR_LEN - width)) for width in SCORE_WIDTHS[:-1])


def score_width(codes: bytes) -> int:
    """The first of `SCORE_WIDTHS` past which `codes` are all zero."""
    if not codes[-1]:  # a packet that fills its slot is told by its last byte
        for width, tail in _ZERO_TAILS:
            if codes.endswith(tail):
                return width
    return VECTOR_LEN


def encode_codes(encoder: MLP, codes: Sequence[bytes] | np.ndarray) -> np.ndarray:
    """The encoder's latents of packets' byte codes: 1600 `bytes` each, or the
    rows of a uint8 matrix. Each row joins the group of its `score_width`, and
    each group runs through the encoder narrowed to that width, so a short
    packet costs the first layer about its payload, not its 1600 values. A
    group runs in `MLP.eval_blocks`' padded blocks, each block's codes gathered
    and read as values as it is filled, so only the latents are kept for every
    row, and a row's latent depends on its bytes alone."""
    groups: dict[int, list[int]] = {width: [] for width in SCORE_WIDTHS}
    for i, row in enumerate(codes):
        groups[score_width(bytes(row))].append(i)
    latents = np.empty((len(codes), encoder.widths[-1]))
    for width, rows in groups.items():
        latents[rows] = encoder.narrowed(width).eval_blocks(
            len(rows), lambda block, span: byte_values(
                np.frombuffer(b"".join(codes[i] for i in rows[span]), dtype=np.uint8)
                .reshape(-1, VECTOR_LEN)[:, :width], out=block))
    return latents


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
