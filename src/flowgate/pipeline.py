"""Three-stage training orchestration and two-module inference.

Stages run in order: extractor, flow, then per noise setting synthesis plus
classifier, followed by inference and evaluation on the labeled test set.
Every stage checkpoint is cached in the work directory and reused when its
config fingerprint and seed match, so a pipeline is resumable stage by stage.

Inference deliberately loads only the encoder and classifier parameter
tables; the loader records what it materialized so tests can verify nothing
else was touched.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .checkpoint import (
    Checkpoint, STAGE_CLASSIFIER, STAGE_EXTRACTOR, STAGE_FLOW,
    config_fingerprint, load_checkpoint, matches, save_checkpoint,
)
from .classifier import (
    ClassifierConfig, ClassifierModel, classifier_from_checkpoint,
    train_classifier,
)
from .dataset import read_dataset, values_matrix, write_dataset, write_latents
from .errors import CheckpointMismatch, FlowgateError, IoFailure
from .extractor import (
    ExtractorConfig, encoder_from_checkpoint, extractor_from_checkpoint,
    train_extractor, training_matrix,
)
from .flow import FlowConfig, FlowModel, flow_from_checkpoint, train_flow
from .metrics import EvalReport, ScoredSample, evaluate, write_report, write_scores
from .nn import MLP, TrainConfig
from .packets import EncodedPacket, Label, VECTOR_LEN, process_capture, capture_files
from .seeding import derive_seed
from .synthesis import NoiseSpec, SynthesisConfig, synthesize

log = logging.getLogger("flowgate")

NoiseGrid = tuple[tuple[float, float], ...]
DEFAULT_NOISE_GRID: NoiseGrid = ((-9.0, 5.0), (-25.0, 5.0), (-100.0, 5.0), (0.0, 1.0))


@dataclass
class PipelineConfig:
    """Every pipeline setting: each field is a config-file key and a flag."""

    workdir: str
    train_csv: Optional[str] = None
    test_csv: Optional[str] = None
    # optional raw captures, preprocessed into the CSVs above when given
    train_pcap: Optional[str] = None
    test_normal_pcap: Optional[str] = None
    test_anomaly_pcap: Optional[str] = None
    seed: int = 7
    noise_grid: NoiseGrid = DEFAULT_NOISE_GRID
    ratio: float = SynthesisConfig.ratio
    latent_dim: int = ExtractorConfig.latent_dim
    w_adv: float = ExtractorConfig.w_adv
    w_rec: float = ExtractorConfig.w_rec
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    lr: float = TrainConfig.lr
    patience: int = TrainConfig.patience
    flow_blocks: int = FlowConfig.blocks
    flow_hidden: int = FlowConfig.hidden
    # None: the stage's default widths, with latent_dim as the latent width
    encoder_widths: Optional[tuple[int, ...]] = None
    disc_widths: Optional[tuple[int, ...]] = None
    classifier_widths: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        # every stage's config, so a bad value fails before any data is read
        self.extractor_config()
        self.flow_config()
        self.classifier_config()
        SynthesisConfig(ratio=self.ratio)
        for mu, sigma in self.noise_grid:
            NoiseSpec(mu=mu, sigma=sigma, seed=self.seed)

    def _training(self) -> dict:
        return dict(epochs=self.epochs, batch_size=self.batch_size, lr=self.lr,
                    patience=self.patience)

    def extractor_config(self) -> ExtractorConfig:
        enc = self.encoder_widths or ExtractorConfig.encoder_widths[:-1] + (self.latent_dim,)
        return ExtractorConfig(
            latent_dim=self.latent_dim, w_adv=self.w_adv, w_rec=self.w_rec,
            encoder_widths=tuple(enc),
            disc_widths=tuple(self.disc_widths or ExtractorConfig.disc_widths),
            **self._training())

    def flow_config(self) -> FlowConfig:
        return FlowConfig(dim=self.latent_dim, blocks=self.flow_blocks,
                          hidden=self.flow_hidden, **self._training())

    def classifier_config(self) -> ClassifierConfig:
        widths = self.classifier_widths or (self.latent_dim,) + ClassifierConfig.widths[1:]
        return ClassifierConfig(widths=tuple(widths), **self._training())


def _tag_stage(err: FlowgateError, stage: str) -> None:
    err.stage = stage  # type: ignore[attr-defined]
    err.args = (f"[stage {stage}] {err.args[0]}" if err.args else f"[stage {stage}]",) \
        + err.args[1:]


class _Stage:
    """Context manager that attaches the failing stage's name to errors."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self):
        log.info("stage %s", self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and isinstance(exc, FlowgateError) \
                and not hasattr(exc, "stage"):
            _tag_stage(exc, self.name)
        return False


def _cached_checkpoint(path: Path, stage: str, fingerprint: str, seed: int,
                       ) -> Optional[Checkpoint]:
    if not path.exists():
        return None
    try:
        ckpt = load_checkpoint(path, expect_stage=stage)
    except (CheckpointMismatch, IoFailure):
        return None
    if matches(ckpt, stage, fingerprint, seed):
        log.info("reusing %s", path.name)
        return ckpt
    return None


class InferenceEngine:
    """Scores packets using only the trained encoder and classifier.

    `loaded_tables` records every parameter table the checkpoint loader
    materialized, so "nothing but encoder and classifier" is checkable.
    """

    def __init__(self, encoder: MLP, classifier: ClassifierModel,
                 loaded_tables: tuple[str, ...]) -> None:
        if encoder.widths[-1] != classifier.input_dim:
            raise CheckpointMismatch(
                f"encoder emits dim {encoder.widths[-1]}, classifier expects "
                f"{classifier.input_dim}")
        self.encoder = encoder
        self.classifier = classifier
        self.loaded_tables = loaded_tables

    @classmethod
    def from_checkpoint_files(cls, extractor_ckpt: str | Path,
                              classifier_ckpt: str | Path) -> "InferenceEngine":
        ext = load_checkpoint(extractor_ckpt, expect_stage=STAGE_EXTRACTOR,
                              include=("encoder.",))
        clf = load_checkpoint(classifier_ckpt, expect_stage=STAGE_CLASSIFIER,
                              include=("classifier.",))
        loaded = tuple(sorted(ext.tensors)) + tuple(sorted(clf.tensors))
        return cls(encoder_from_checkpoint(ext), classifier_from_checkpoint(clf),
                   loaded)

    @property
    def parameter_count(self) -> int:
        return int(sum(p.data.size for p in
                       self.encoder.params + self.classifier.params))

    def score_packets(self, packets: Sequence[EncodedPacket]) -> list[ScoredSample]:
        if not packets:
            return []
        z = self.encoder.eval_np(values_matrix(packets))
        scores = self.classifier.score(z)
        return [ScoredSample(score=float(s), label=p.label, source_id=p.source_id)
                for s, p in zip(np.atleast_1d(scores), packets)]


def infer(extractor_ckpt: str | Path, classifier_ckpt: str | Path,
          packets: Sequence[EncodedPacket]) -> list[ScoredSample]:
    """Two-module inference: score = classifier(encoder(x))."""
    engine = InferenceEngine.from_checkpoint_files(extractor_ckpt, classifier_ckpt)
    return engine.score_packets(packets)


def _noise_tag(mu: float, sigma: float, ratio: float) -> str:
    return f"mu{mu:g}_sigma{sigma:g}_ratio{ratio:g}"


@dataclass
class PipelineResult:
    best: EvalReport
    best_setting: tuple[float, float]
    reports: dict[tuple[float, float], EvalReport] = field(default_factory=dict)
    extractor_ckpt: Path = Path()
    flow_ckpt: Path = Path()
    classifier_ckpts: dict[tuple[float, float], Path] = field(default_factory=dict)


def _prepare_datasets(cfg: PipelineConfig, workdir: Path) -> tuple[Path, Path]:
    train_csv = Path(cfg.train_csv) if cfg.train_csv else None
    test_csv = Path(cfg.test_csv) if cfg.test_csv else None
    if cfg.train_pcap:
        with _Stage("preprocess-train"):
            packets = []
            for f in capture_files(cfg.train_pcap):
                kept, stats = process_capture(f, label=Label.NORMAL)
                log.info("%s: %s", f.name, stats.summary())
                packets.extend(kept)
            train_csv = workdir / "train.csv"
            write_dataset(packets, train_csv)
    if cfg.test_normal_pcap or cfg.test_anomaly_pcap:
        with _Stage("preprocess-test"):
            packets = []
            for src, label in ((cfg.test_normal_pcap, Label.NORMAL),
                               (cfg.test_anomaly_pcap, Label.ANOMALY)):
                if not src:
                    continue
                for f in capture_files(src):
                    kept, stats = process_capture(f, label=label)
                    log.info("%s: %s", f.name, stats.summary())
                    packets.extend(kept)
            test_csv = workdir / "test.csv"
            write_dataset(packets, test_csv)
    if train_csv is None or test_csv is None:
        raise IoFailure("pipeline needs train/test CSVs or raw captures")
    return train_csv, test_csv


def _train_stages(cfg: PipelineConfig, workdir: Path, train_csv: Path,
                  ) -> tuple[Path, Path, np.ndarray]:
    """Extractor and flow stages; returns checkpoint paths and normal latents."""
    with _Stage("load-train"):
        train_matrix = training_matrix(read_dataset(train_csv), VECTOR_LEN)

    ext_cfg = cfg.extractor_config()
    ext_seed = derive_seed(cfg.seed, "stage:extractor")
    ext_fp = config_fingerprint(ext_cfg.to_dict())
    ext_path = workdir / "extractor.ckpt"
    with _Stage("train-extractor"):
        ckpt = _cached_checkpoint(ext_path, STAGE_EXTRACTOR, ext_fp, ext_seed)
        if ckpt is None:
            ckpt = train_extractor(train_matrix, ext_cfg, ext_seed)
            save_checkpoint(ext_path, ckpt)
            log.info("extractor: best epoch %s of %s",
                     ckpt.meta["best_epoch"], ckpt.meta["epochs_run"])
        extractor = extractor_from_checkpoint(ckpt)

    with _Stage("encode-latents"):
        latents = extractor.encode(train_matrix)
        write_latents(workdir / "train_latents.csv", latents,
                      [Label.NORMAL] * latents.shape[0])

    flow_cfg = cfg.flow_config()
    flow_seed = derive_seed(cfg.seed, "stage:flow")
    flow_fp = config_fingerprint(flow_cfg.to_dict())
    flow_path = workdir / "flow.ckpt"
    with _Stage("train-flow"):
        ckpt = _cached_checkpoint(flow_path, STAGE_FLOW, flow_fp, flow_seed)
        if ckpt is None:
            model = FlowModel.create(flow_cfg, flow_seed)
            ckpt = train_flow(model, latents, flow_cfg, flow_seed)
            save_checkpoint(flow_path, ckpt)
            log.info("flow: best epoch %s of %s",
                     ckpt.meta["best_epoch"], ckpt.meta["epochs_run"])
    return ext_path, flow_path, latents


def _classifier_for_noise(cfg: PipelineConfig, workdir: Path, flow: FlowModel,
                          latents: np.ndarray, mu: float, sigma: float) -> Path:
    tag = _noise_tag(mu, sigma, cfg.ratio)
    clf_cfg = cfg.classifier_config()
    clf_seed = derive_seed(cfg.seed, f"stage:classifier:{tag}")
    clf_fp = config_fingerprint({**clf_cfg.to_dict(), "noise": tag})
    clf_path = workdir / f"classifier_{tag}.ckpt"
    with _Stage(f"synthesize-{tag}"):
        if _cached_checkpoint(clf_path, STAGE_CLASSIFIER, clf_fp, clf_seed):
            return clf_path
        spec = NoiseSpec(mu=mu, sigma=sigma,
                         seed=derive_seed(cfg.seed, f"stage:synthesize:{tag}"))
        pseudo = synthesize(flow, latents, spec, SynthesisConfig(ratio=cfg.ratio))
        write_latents(workdir / f"pseudo_{tag}.csv", pseudo,
                      [Label.ANOMALY] * pseudo.shape[0])
    with _Stage(f"train-classifier-{tag}"):
        ckpt = train_classifier(latents, pseudo, clf_cfg, clf_seed)
        ckpt.config_fingerprint = clf_fp  # fingerprint includes the noise tag
        save_checkpoint(clf_path, ckpt)
    return clf_path


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """All stages end to end; returns every per-noise report plus the best."""
    workdir = Path(cfg.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    train_csv, test_csv = _prepare_datasets(cfg, workdir)
    ext_path, flow_path, latents = _train_stages(cfg, workdir, train_csv)

    with _Stage("load-flow"):
        flow = flow_from_checkpoint(load_checkpoint(flow_path, expect_stage=STAGE_FLOW))
    with _Stage("load-test"):
        test_packets = read_dataset(test_csv)

    result = PipelineResult(best=None, best_setting=None,  # type: ignore[arg-type]
                            extractor_ckpt=ext_path, flow_ckpt=flow_path)
    for mu, sigma in cfg.noise_grid:
        tag = _noise_tag(mu, sigma, cfg.ratio)
        clf_path = _classifier_for_noise(cfg, workdir, flow, latents, mu, sigma)
        with _Stage(f"infer-{tag}"):
            scored = infer(ext_path, clf_path, test_packets)
            write_scores(workdir / f"scores_{tag}.csv", scored)
        with _Stage(f"evaluate-{tag}"):
            report = evaluate(scored)
            write_report(workdir / f"report_{tag}.txt", report)
        log.info("noise (mu=%g, sigma=%g) ratio=%g -> AUROC %.4f",
                 mu, sigma, cfg.ratio, report.auroc)
        result.reports[(mu, sigma)] = report
        result.classifier_ckpts[(mu, sigma)] = clf_path
        if result.best is None or report.auroc > result.best.auroc:
            result.best = report
            result.best_setting = (mu, sigma)

    summary = noise_grid_table(result.reports, cfg.ratio)
    (workdir / "summary.txt").write_text(summary)
    log.info("best: mu=%g sigma=%g AUROC %.4f",
             result.best_setting[0], result.best_setting[1], result.best.auroc)
    return result


def noise_grid_table(reports: dict[tuple[float, float], EvalReport],
                     ratio: float) -> str:
    lines = [f"{'mu':>8}  {'sigma':>6}  {'ratio':>6}  {'auroc':>7}"]
    for (mu, sigma), report in reports.items():
        lines.append(f"{mu:>8g}  {sigma:>6g}  {ratio:>6g}  {report.auroc:7.4f}")
    return "\n".join(lines) + "\n"


def ratio_ablation(cfg: PipelineConfig, ratios: Sequence[float],
                   ) -> tuple[str, dict[float, PipelineResult]]:
    """Re-run synthesis/classifier/evaluation per pseudo:normal ratio.

    Extractor and flow checkpoints are shared across ratios through the
    workdir cache. Emits a comparison table: one row per noise setting, one
    column per ratio.
    """
    configs = {r: replace(cfg, ratio=r) for r in ratios}  # checks every ratio first
    results = {r: run_pipeline(c) for r, c in configs.items()}
    header = f"{'mu':>8}  {'sigma':>6}  " + "  ".join(
        f"ratio={r:g}".rjust(12) for r in ratios)
    lines = [header]
    for mu, sigma in cfg.noise_grid:
        cells = "  ".join(
            f"{results[r].reports[(mu, sigma)].auroc:12.4f}" for r in ratios)
        lines.append(f"{mu:>8g}  {sigma:>6g}  {cells}")
    table = "\n".join(lines) + "\n"
    Path(cfg.workdir, "ratio_ablation.txt").write_text(table)
    return table, results


def repeat_pipeline(cfg: PipelineConfig, seeds: Sequence[int],
                    ) -> tuple[str, list[PipelineResult]]:
    """Run the whole pipeline once per seed; summarizes mean/stddev of best AUROC."""
    results = []
    for seed in seeds:
        sub = PipelineConfig(**{**cfg.__dict__, "seed": seed,
                                "workdir": str(Path(cfg.workdir) / f"seed{seed}")})
        results.append(run_pipeline(sub))
    aurocs = np.array([r.best.auroc for r in results])
    summary = (f"seeds: {', '.join(str(s) for s in seeds)}\n"
               f"best-auroc mean: {aurocs.mean():.4f}\n"
               f"best-auroc stddev: {aurocs.std(ddof=1) if len(seeds) > 1 else 0.0:.4f}\n")
    Path(cfg.workdir).mkdir(parents=True, exist_ok=True)
    (Path(cfg.workdir) / "seed_summary.txt").write_text(summary)
    return summary, results
