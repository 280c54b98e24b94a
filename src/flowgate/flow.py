"""Bidirectional normalizing flow over the latent space.

A stack of affine coupling blocks. Each passes one half of the columns
through, a column range, and changes the other; even blocks keep the first
half (rounded up), odd blocks the rest. The normalize direction maps latents
toward a standard normal base distribution and accumulates the exact
log-determinant; the generate direction is the algebraic inverse, applied
blockwise in reverse. Scale outputs are bounded by clamp * tanh(raw) and the
final subnet layers start at zero, so an untrained flow is the identity.
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
from .nn import GradTape, MLP, Tensor
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

    The columns `keep`, the first or the last of the `dim` columns, pass
    through unchanged and condition the scale/shift subnets applied to the
    rest.
    """

    def __init__(self, keep: slice, dim: int, s_net: MLP, t_net: MLP,
                 s_clamp: float = 2.0) -> None:
        self.keep = keep
        self.change = slice(keep.stop, dim) if keep.start == 0 else slice(0, keep.start)
        self.s_net = s_net
        self.t_net = t_net
        self.s_clamp = float(s_clamp)
        self.dim = dim

    def forward_t(self, h: Tensor) -> tuple[Tensor, Tensor]:
        """Normalization step on tape tensors; returns (h_next, per-row log-det)."""
        a = nn.columns(h, self.keep)
        b = nn.columns(h, self.change)
        s = self.s_clamp * nn.tanh(self.s_net(a))
        t = self.t_net(a)
        b_next = b * nn.exp(s) + t
        h_next = nn.concat([a, b_next] if self.keep.start == 0 else [b_next, a])
        return h_next, nn.reduce_sum(s, axis=-1)

    def inverse_np(self, h: np.ndarray) -> np.ndarray:
        # column-major, as `nn.columns` gives the kept half to `forward_t`, so
        # the subnets' products take one BLAS path in both directions under
        # any BLAS, and a kernel that rounds by layout keeps the pinned bytes
        a = np.asfortranarray(h[:, self.keep])
        s = self.s_clamp * np.tanh(self.s_net.eval_np(a))
        t = self.t_net.eval_np(a)
        out = h.copy()
        out[:, self.change] = (h[:, self.change] - t) * np.exp(-s)
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
        yield keep, *((f"flow.block{k}.{part}.", widths, nn.relu, None) for part in "st")


class FlowModel:
    """Ordered coupling blocks whose kept halves alternate."""

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
            blocks.append(CouplingBlock(keep, cfg.dim, MLP.from_tables(tables, *s),
                                        MLP.from_tables(tables, *t), cfg.s_clamp))
        return cls(blocks, cfg.dim)

    @property
    def params(self) -> list[Tensor]:
        return [tensor for _, tensor in self.param_items()]

    def param_items(self) -> list[tuple[str, Tensor]]:
        return [item for block in self.blocks
                for item in block.s_net.param_items() + block.t_net.param_items()]

    def _check_input(self, z: np.ndarray) -> np.ndarray:
        arr = nn.as_rows(z, self.dim)
        if arr.size and not np.isfinite(arr).all():
            raise NonFiniteInput("input contains NaN or infinity")
        return arr

    def normalize_t(self, h: Tensor) -> tuple[Tensor, Tensor]:
        """Normalize on tensors, recorded on an active tape; input must be [n, dim]."""
        log_det: Optional[Tensor] = None
        for block in self.blocks:
            h, ld = block.forward_t(h)
            if not np.isfinite(h.data).all():
                raise NonFiniteIntermediate("coupling block overflowed")
            log_det = ld if log_det is None else log_det + ld
        return h, log_det

    def normalize(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map a batch of latents toward the base distribution; returns (c,
        log_det per row). Run frozen on a constant, so nothing is recorded."""
        with nn.frozen(self.params):
            h, log_det = self.normalize_t(Tensor(self._check_input(z), requires_grad=False))
        return h.data, log_det.data

    def generate(self, c: np.ndarray) -> np.ndarray:
        """Exact inverse of normalize, blocks applied in reverse order."""
        h = self._check_input(c)
        for block in reversed(self.blocks):
            h = block.inverse_np(h)
            if h.size and not np.isfinite(h).all():
                raise NonFiniteIntermediate("coupling block overflowed")
        return h

    def log_likelihood(self, z: np.ndarray) -> np.ndarray:
        """log density of each row of z under the flow with a standard normal base."""
        c, log_det = self.normalize(z)
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
            loss = nll_t(model, Tensor(xb, requires_grad=False))
        update(tape, loss)

    def holdout_nll(hold: np.ndarray) -> float:
        return float(-np.mean(model.log_likelihood(hold)))

    history, best_epoch, n_train = nn.fit(model.params, (data,), step, holdout_nll,
                                          cfg, seed, "flow")
    return trained_checkpoint(STAGE_FLOW, seed, cfg.to_dict(), model.param_items(),
                              best_epoch, "holdout_nll", history, n_train=n_train)


def flow_from_checkpoint(ckpt: Checkpoint) -> FlowModel:
    return build_model(ckpt, FlowConfig, FlowModel.from_tables)
