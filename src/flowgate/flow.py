"""Bidirectional normalizing flow over the latent space.

A stack of affine coupling blocks with alternating complementary half-masks.
The normalize direction maps latents toward a standard normal base
distribution and accumulates the exact log-determinant; the generate
direction is the algebraic inverse, applied blockwise in reverse. Scale
outputs are bounded by clamp * tanh(raw) and the final subnet layers start at
zero, so an untrained flow is the identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import nn
from .checkpoint import Checkpoint, STAGE_FLOW, build_model, trained_checkpoint
from .errors import (
    BadConfig, EmptyDataset, NonFiniteInput, NonFiniteIntermediate, ShapeMismatch,
)
from .nn import Activation, GradTape, MLP, Tensor
from .seeding import rng_for

LOG_TWO_PI = math.log(2.0 * math.pi)


@dataclass
class FlowConfig(nn.TrainConfig):
    dim: int = 70
    blocks: int = 8
    hidden: int = 128
    s_clamp: float = 2.0

    def __post_init__(self):
        super().__post_init__()
        if self.dim < 2:
            raise BadConfig(f"flow dim must be at least 2, got {self.dim}")
        if self.blocks < 1:
            raise BadConfig(f"flow blocks must be at least 1, got {self.blocks}")
        if self.hidden < 1:
            raise BadConfig(f"flow hidden must be at least 1, got {self.hidden}")
        if not self.s_clamp > 0:
            raise BadConfig(f"s_clamp must be positive, got {self.s_clamp}")


class CouplingBlock:
    """One affine coupling step.

    Coordinates where the mask is 1 pass through unchanged and condition the
    scale/shift subnets applied to the remaining coordinates.
    """

    def __init__(self, mask: np.ndarray, s_net: MLP, t_net: MLP,
                 s_clamp: float = 2.0) -> None:
        mask = np.asarray(mask)
        self.mask = mask
        self.keep_idx = np.flatnonzero(mask == 1)
        self.change_idx = np.flatnonzero(mask == 0)
        self.s_net = s_net
        self.t_net = t_net
        self.s_clamp = float(s_clamp)
        self.dim = mask.size

    def forward_t(self, h: Tensor) -> tuple[Tensor, Tensor]:
        """Normalization step on tape tensors; returns (h_next, per-row log-det)."""
        a = nn.take_cols(h, self.keep_idx)
        b = nn.take_cols(h, self.change_idx)
        s = self.s_clamp * nn.tanh(self.s_net(a))
        t = self.t_net(a)
        b_next = b * nn.exp(s) + t
        h_next = nn.put_cols(a, self.keep_idx, self.dim) + \
            nn.put_cols(b_next, self.change_idx, self.dim)
        return h_next, nn.reduce_sum(s, axis=-1)

    def inverse_np(self, h: np.ndarray) -> np.ndarray:
        a = h[:, self.keep_idx]
        s = self.s_clamp * np.tanh(self.s_net.eval_np(a))
        t = self.t_net.eval_np(a)
        out = np.empty_like(h)
        out[:, self.keep_idx] = a
        out[:, self.change_idx] = (h[:, self.change_idx] - t) * np.exp(-s)
        return out


def _couplings(cfg: FlowConfig) -> Iterator[tuple[slice, tuple, tuple]]:
    """Each block's pass-through coordinates and its scale and shift subnets as
    `MLP.from_tables` takes them: even blocks pass the first half (rounded up)
    through, odd blocks the rest. Lazy: a loader stops at the first misfit table."""
    first = cfg.dim - cfg.dim // 2
    for k in range(cfg.blocks):
        keep = slice(0, first) if k % 2 == 0 else slice(first, cfg.dim)
        n_keep = keep.stop - keep.start
        widths = (n_keep, cfg.hidden, cfg.hidden, cfg.dim - n_keep)
        yield keep, *((f"flow.block{k}.{part}.", widths, Activation.RELU, Activation.LINEAR)
                      for part in "st")


class FlowModel:
    """Ordered coupling blocks with alternating complementary masks."""

    def __init__(self, blocks: Sequence[CouplingBlock], dim: int) -> None:
        self.blocks = list(blocks)
        self.dim = dim

    @classmethod
    def create(cls, cfg: FlowConfig, seed: int) -> "FlowModel":
        nets = (net for _, s, t in _couplings(cfg) for net in (s, t))
        return cls.from_tables(cfg, nn.init_tables(rng_for(seed, "flow-init"), nets,
                                                   zero_final=True))

    @classmethod
    def from_tables(cls, cfg: FlowConfig, tables) -> "FlowModel":
        blocks = []
        for keep, s, t in _couplings(cfg):
            s_net, t_net = MLP.from_tables(tables, *s), MLP.from_tables(tables, *t)
            mask = np.zeros(cfg.dim, dtype=np.int64)
            mask[keep] = 1
            blocks.append(CouplingBlock(mask, s_net, t_net, cfg.s_clamp))
        return cls(blocks, cfg.dim)

    @property
    def params(self) -> list[Tensor]:
        return [tensor for _, tensor in self.param_items()]

    def param_items(self) -> list[tuple[str, Tensor]]:
        return [item for block in self.blocks
                for item in block.s_net.param_items() + block.t_net.param_items()]

    def _check_input(self, z: np.ndarray) -> tuple[np.ndarray, bool]:
        arr, single = nn.as_rows(z, self.dim)
        if arr.size and not np.isfinite(arr).all():
            raise NonFiniteInput("input contains NaN or infinity")
        return arr, single

    def normalize_t(self, h: Tensor) -> tuple[Tensor, Tensor]:
        """Normalize on tensors, recorded on an active tape; input must be [n, dim]."""
        log_det: Optional[Tensor] = None
        for block in self.blocks:
            h, ld = block.forward_t(h)
            if not np.isfinite(h.data).all():
                raise NonFiniteIntermediate("coupling block overflowed")
            log_det = ld if log_det is None else log_det + ld
        return h, log_det

    def normalize(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
        """Map latents toward the base distribution; returns (c, log_det)."""
        arr, single = self._check_input(z)
        with nn.off_tape():
            h, log_det = self.normalize_t(Tensor(arr))
        if single:
            return h.data[0], float(log_det.data[0])
        return h.data, log_det.data

    def generate(self, c: np.ndarray) -> np.ndarray:
        """Exact inverse of normalize, blocks applied in reverse order."""
        h, single = self._check_input(c)
        for block in reversed(self.blocks):
            h = block.inverse_np(h)
            if h.size and not np.isfinite(h).all():
                raise NonFiniteIntermediate("coupling block overflowed")
        return h[0] if single else h

    def log_likelihood(self, z: np.ndarray) -> np.ndarray | float:
        """log density of z under the flow with a standard normal base."""
        c, log_det = self.normalize(z)
        if np.ndim(c) == 1:
            return float(-0.5 * np.sum(c * c) - 0.5 * self.dim * LOG_TWO_PI + log_det)
        return -0.5 * np.sum(c * c, axis=1) - 0.5 * self.dim * LOG_TWO_PI + log_det


def nll_t(model: FlowModel, h: Tensor) -> Tensor:
    """Mean negative log-likelihood of a batch, on tape."""
    c, log_det = model.normalize_t(h)
    row_nll = 0.5 * nn.reduce_sum(c * c, axis=-1) - log_det
    return nn.mean(row_nll) + 0.5 * model.dim * LOG_TWO_PI


def train_flow(model: FlowModel, latents: np.ndarray, cfg: FlowConfig,
               seed: int) -> Checkpoint:
    """Fit the flow to normal latents by minimizing NLL; early stops on a held-out split."""
    data = np.asarray(latents, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise EmptyDataset("flow training needs a non-empty [n, dim] latent matrix")
    if data.shape[1] != model.dim:
        raise ShapeMismatch(f"latents have dim {data.shape[1]}, flow wants {model.dim}")
    if not np.isfinite(data).all():
        raise NonFiniteInput("latents contain NaN or infinity")

    update = cfg.adam_update(model.params)

    def step(xb: np.ndarray) -> None:
        with GradTape() as tape:
            loss = nll_t(model, Tensor(xb))
        update(tape, loss)

    def holdout_nll(hold: np.ndarray) -> float:
        return float(-np.mean(model.log_likelihood(hold)))

    history, best_epoch, n_train = nn.fit(model.params, (data,), step, holdout_nll,
                                          cfg, seed, "flow")
    return trained_checkpoint(STAGE_FLOW, seed, cfg.to_dict(), model.param_items(),
                              best_epoch, "holdout_nll", history, n_train=n_train)


def flow_from_checkpoint(ckpt: Checkpoint) -> FlowModel:
    return build_model(ckpt, FlowConfig, FlowModel.from_tables)
