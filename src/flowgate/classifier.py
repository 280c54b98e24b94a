"""Latent-space binary classifier; its sigmoid output is the anomaly score."""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import nn
from .checkpoint import Checkpoint, STAGE_CLASSIFIER, build_model, trained_checkpoint
from .errors import BadConfig, EmptyClass, ShapeMismatch
from .nn import GradTape, MLP, Tensor
from .seeding import rng_for


@dataclass
class ClassifierConfig(nn.TrainConfig):
    widths: tuple[int, ...] = (70, 64, 32, 1)

    def __post_init__(self):
        super().__post_init__()
        if len(self.widths) < 2 or min(self.widths) < 1:
            raise BadConfig(f"classifier widths must be two or more, each at least 1, "
                            f"got {self.widths}")
        if self.widths[-1] != 1:
            raise BadConfig("classifier widths must end in a scalar output")


def _network(cfg: ClassifierConfig) -> tuple:
    """The network as `MLP.from_tables` takes it."""
    return ("classifier.", cfg.widths, nn.relu, nn.sigmoid)


class ClassifierModel:
    def __init__(self, net: MLP, config: ClassifierConfig) -> None:
        self.net = net
        self.config = config

    @classmethod
    def create(cls, cfg: ClassifierConfig, seed: int) -> "ClassifierModel":
        return cls.from_tables(cfg, nn.init_tables(rng_for(seed, "classifier-init"),
                                                   [_network(cfg)]))

    @classmethod
    def from_tables(cls, cfg: ClassifierConfig, tables) -> "ClassifierModel":
        return cls(MLP.from_tables(tables, *_network(cfg)), cfg)

    @property
    def input_dim(self) -> int:
        return self.net.layers[0].n_in

    @property
    def params(self) -> list[Tensor]:
        return self.net.params

    def param_items(self) -> list[tuple[str, Tensor]]:
        return self.net.param_items()

    def score(self, z: np.ndarray) -> np.ndarray:
        """Anomaly score in (0, 1) of each row of a batch; higher means more
        anomalous. Scored in padded blocks (`MLP.eval_blocks`), so a row's
        score does not depend on the batch it is in."""
        arr = nn.as_rows(z, self.input_dim)
        return self.net.eval_blocks(len(arr), lambda block, rows: np.copyto(block, arr[rows]))[:, 0]


def train_classifier(normals: np.ndarray, pseudo: np.ndarray,
                     cfg: ClassifierConfig, seed: int) -> Checkpoint:
    """Binary cross-entropy training: normals -> 0, pseudo-anomalies -> 1."""
    normals = np.asarray(normals, dtype=np.float64)
    pseudo = np.asarray(pseudo, dtype=np.float64)
    if normals.ndim != 2 or normals.shape[0] == 0:
        raise EmptyClass("no normal latents to train on")
    if pseudo.ndim != 2 or pseudo.shape[0] == 0:
        raise EmptyClass("no pseudo-anomaly latents to train on")
    if normals.shape[1] != cfg.widths[0] or pseudo.shape[1] != cfg.widths[0]:
        raise ShapeMismatch(f"latent dim does not match classifier input "
                            f"width {cfg.widths[0]}")

    X = np.vstack([normals, pseudo])
    y = np.concatenate([np.zeros(normals.shape[0]), np.ones(pseudo.shape[0])])
    model = ClassifierModel.create(cfg, seed)
    update = cfg.adam_update(model.params)

    def step(xb: np.ndarray, yb: np.ndarray) -> None:
        with GradTape() as tape:
            loss = nn.bce(model.net(Tensor(xb, requires_grad=False)),
                          Tensor(yb[:, None], requires_grad=False))
        update(tape, loss)

    def holdout_loss(x_hold: np.ndarray, y_hold: np.ndarray) -> float:
        pred = Tensor(model.net.eval_np(x_hold)[:, 0])
        return nn.bce(pred, Tensor(y_hold)).item()

    history, best_epoch, _ = nn.fit(model.params, (X, y), step, holdout_loss,
                                    cfg, seed, "classifier")
    return trained_checkpoint(STAGE_CLASSIFIER, seed, cfg.to_dict(), model.param_items(),
                              best_epoch, "holdout_bce", history,
                              n_normal=int(normals.shape[0]), n_pseudo=int(pseudo.shape[0]))


def classifier_from_checkpoint(ckpt: Checkpoint) -> ClassifierModel:
    return build_model(ckpt, ClassifierConfig, lambda cfg: [_network(cfg)],
                       ClassifierModel.from_tables)
