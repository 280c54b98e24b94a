"""Three-stage training orchestration and two-module inference.

Stages run in order: extractor, flow, then per noise setting synthesis plus
classifier, followed by inference and evaluation on the labeled test set.
Each stage checkpoint is cached in the work directory under its seed and a
key: its config plus the sha256 of its direct upstream (`train.csv`,
`extractor.ckpt`, or `flow.ckpt`; a classifier's key also holds its noise tag
and the exact mu, sigma and ratio). It is reused only when both match and the
model builds from it, so a pipeline resumes stage by stage, a changed
`train.csv` retrains all three stages, and a checkpoint whose config or tables
do not fit its stage is retrained.

Every run ends by writing `run.json`: the sha256 of `extractor.ckpt` and of
the `train_latents.csv` encoded by it. A rerun whose extractor is reused
parses no `train.csv` and encodes nothing: it takes the training latents from
`train_latents.csv` when `run.json` records both files as they are on disk,
and reads them only if the flow or a classifier is trained. Otherwise the
latents are encoded again and the file rewritten.

Inference deliberately loads only the encoder and classifier parameter
tables; the loader records what it materialized so tests can verify nothing
else was touched. Every latent a run computes, of `train.csv` for
`train_latents.csv` and of the test set, comes from `extractor.encode_codes`,
which `infer` runs too: each packet through the encoder narrowed to the width
past which its bytes are all zero, in padded blocks of `nn.EVAL_BLOCK` rows,
one block of packet values held at a time. A packet's latent, and so its
score, is the same bits whatever batch it is encoded in. The stages' holdout
losses run whole-batch.
"""
from __future__ import annotations

import functools
import hashlib
import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .checkpoint import (
    Checkpoint, STAGE_CLASSIFIER, STAGE_EXTRACTOR, STAGE_FLOW,
    config_fingerprint, load_checkpoint, matches, replacing, save_checkpoint,
)
from .classifier import (
    ClassifierConfig, ClassifierModel, classifier_from_checkpoint,
    train_classifier,
)
from .dataset import read_dataset, read_latents, write_dataset, write_latents
from .errors import BadConfig, CheckpointMismatch, FlowgateError, IoFailure
from .extractor import (
    ExtractorConfig, encode_codes, encoder_from_checkpoint, extractor_from_checkpoint,
    train_extractor, training_matrix,
)
from .flow import FlowConfig, FlowModel, flow_from_checkpoint, train_flow
from .metrics import EvalReport, ScoredSample, evaluate, write_report, write_scores
from .nn import MLP, TrainConfig
from .packets import EncodedPacket, Label, VECTOR_LEN, preprocess_captures
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
        if self.classifier_config().widths[0] != self.latent_dim:
            raise BadConfig(f"classifier_widths must start at latent_dim {self.latent_dim}, "
                            f"got {self.classifier_widths}")
        SynthesisConfig(ratio=self.ratio)
        if not self.noise_grid or any(np.shape(s) != (2,) for s in self.noise_grid):
            raise BadConfig(f"noise_grid must be one or more (mu, sigma) pairs, "
                            f"got {self.noise_grid!r}")
        # a tag names a setting's files and keys its classifier
        tagged: dict[str, tuple[float, float]] = {}
        for mu, sigma in self.noise_grid:
            try:
                NoiseSpec(mu=mu, sigma=sigma, seed=self.seed)
            except BadConfig as err:
                raise BadConfig(f"noise_grid setting ({mu!r}, {sigma!r}): {err}") from None
            tag = _noise_tag(mu, sigma, self.ratio)
            if tag in tagged:
                raise BadConfig(f"noise settings {tagged[tag]} and {(mu, sigma)} "
                                f"share the tag {tag}")
            tagged[tag] = (mu, sigma)

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


@contextmanager
def _stage(name: str):
    """Logs the stage, and attaches its name to a FlowgateError raised inside."""
    log.info("stage %s", name)
    try:
        yield
    except FlowgateError as err:
        if not hasattr(err, "stage"):
            err.stage = name  # type: ignore[attr-defined]
            err.args = (f"[stage {name}] {err.args[0]}" if err.args
                        else f"[stage {name}]",) + err.args[1:]
        raise


def _cached_checkpoint(path: Path, stage: str, fingerprint: str, seed: int,
                       build: Callable):
    """`build`'s model of the checkpoint at `path` and the file's sha256, if it
    was saved under `fingerprint` and `seed`; None if it is absent, saved under
    another key, unreadable, or holds a config or tables `build` cannot use."""
    try:
        ckpt = load_checkpoint(path, expect_stage=stage)
        if not matches(ckpt, stage, fingerprint, seed):
            return None
        model = build(ckpt)
    except (CheckpointMismatch, IoFailure):
        return None
    log.info("reusing %s", path.name)
    return model, ckpt.sha256


def _sha256(path: Path) -> str:
    """sha256 of a file's bytes, read in chunks so memory stays flat."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
    except OSError as err:
        raise IoFailure(f"cannot read {path}: {err}") from err
    return digest.hexdigest()


def _cached_stage(path: Path, stage: str, seed: int, key: str,
                  train: Callable[[], Checkpoint], build: Callable):
    """`build`'s model of the cached checkpoint at `path`, else of `train()`'s,
    saved there under `key`: the fingerprint of the stage's config and the
    sha256 of its direct upstream, so it covers everything upstream. Returns
    the model and the sha256 of the file at `path`."""
    cached = _cached_checkpoint(path, stage, key, seed, build)
    if cached is not None:
        return cached
    ckpt = train()
    ckpt.config_fingerprint = key
    digest = save_checkpoint(path, ckpt)
    log.info("%s: best epoch %s of %s", path.name,
             ckpt.meta["best_epoch"], ckpt.meta["epochs_run"])
    return build(ckpt), digest


RUN_RECORD = "run.json"
TRAIN_LATENTS = "train_latents.csv"


def _recorded_latents(workdir: Path, ext_digest: str) -> Optional[str]:
    """The sha256 of `train_latents.csv` if `run.json` records that file as it
    is on disk and as encoded by the extractor whose sha256 is `ext_digest`;
    else None, logging why the latents are encoded again."""
    latents = workdir / TRAIN_LATENTS
    try:
        record = json.loads((workdir / RUN_RECORD).read_bytes())
    except FileNotFoundError:
        why = f"no {RUN_RECORD}"
    except (OSError, ValueError, RecursionError) as err:  # bad UTF-8 or JSON, or too deep
        why = f"{RUN_RECORD} is unreadable: {err}"
    else:
        if not isinstance(record, dict):
            why = f"{RUN_RECORD} is not a JSON object"
        elif record.get("extractor_sha256") != ext_digest:
            why = f"{RUN_RECORD} names another extractor"
        elif not latents.is_file():
            why = f"no {latents.name}"
        elif (digest := _sha256(latents)) != record.get("train_latents_sha256"):
            why = f"{latents.name} is not the file {RUN_RECORD} records"
        else:
            return digest
    log.info("encoding %s again: %s", latents.name, why)
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
        latents = encode_codes(self.encoder, [p.codes for p in packets])
        return _scored(self.classifier.score(latents), packets)


def _scored(scores: np.ndarray, packets: Sequence[EncodedPacket]) -> list[ScoredSample]:
    return [ScoredSample(score=s, label=p.label, source_id=p.source_id)
            for s, p in zip(scores.tolist(), packets)]


def infer(extractor_ckpt: str | Path, classifier_ckpt: str | Path,
          packets: Sequence[EncodedPacket]) -> list[ScoredSample]:
    """Two-module inference: score = classifier(encoder(x))."""
    engine = InferenceEngine.from_checkpoint_files(extractor_ckpt, classifier_ckpt)
    return engine.score_packets(packets)


def _noise_tag(mu: float, sigma: float, ratio: float) -> str:
    return f"mu{mu:g}_sigma{sigma:g}_{_ratio_tag(ratio)}"


def _ratio_tag(ratio: float) -> str:
    return f"ratio{ratio:g}"


@dataclass
class PipelineResult:
    best: EvalReport
    best_setting: tuple[float, float]
    reports: dict[tuple[float, float], EvalReport] = field(default_factory=dict)
    extractor_ckpt: Path = Path()
    flow_ckpt: Path = Path()
    classifier_ckpts: dict[tuple[float, float], Path] = field(default_factory=dict)


def _prepare_datasets(cfg: PipelineConfig, workdir: Path) -> tuple[Path, Path]:
    """The train and test CSVs: as given, or preprocessed from raw captures."""
    csvs = {"train": cfg.train_csv, "test": cfg.test_csv}
    captures = {"train": ((cfg.train_pcap, Label.NORMAL),),
                "test": ((cfg.test_normal_pcap, Label.NORMAL),
                         (cfg.test_anomaly_pcap, Label.ANOMALY))}
    for split, sources in captures.items():
        if not any(src for src, _ in sources):
            continue
        with _stage(f"preprocess-{split}"):
            packets = [p for src, label in sources if src
                       for p in preprocess_captures(src, label)]
            csvs[split] = workdir / f"{split}.csv"
            write_dataset(packets, csvs[split])
    if not (csvs["train"] and csvs["test"]):
        raise IoFailure("pipeline needs train/test CSVs or raw captures")
    return Path(csvs["train"]), Path(csvs["test"])


def _synthesize(cfg: PipelineConfig, workdir: Path, flow: FlowModel,
                latents: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    tag = _noise_tag(mu, sigma, cfg.ratio)
    with _stage(f"synthesize-{tag}"):
        spec = NoiseSpec(mu=mu, sigma=sigma,
                         seed=derive_seed(cfg.seed, f"stage:synthesize:{tag}"))
        pseudo = synthesize(flow, latents, spec, SynthesisConfig(ratio=cfg.ratio))
        write_latents(workdir / f"pseudo_{tag}.csv", pseudo,
                      [Label.ANOMALY] * pseudo.shape[0])
    return pseudo


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """All stages end to end; returns every per-noise report plus the best."""
    workdir = Path(cfg.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    train_csv, test_csv = _prepare_datasets(cfg, workdir)

    @functools.cache
    def train_matrix() -> np.ndarray:
        with _stage("load-train"):
            return training_matrix(read_dataset(train_csv), VECTOR_LEN)

    ext_cfg, ext_seed = cfg.extractor_config(), derive_seed(cfg.seed, "stage:extractor")
    ext_path = workdir / "extractor.ckpt"
    with _stage("train-extractor"):
        extractor, ext_digest = _cached_stage(
            ext_path, STAGE_EXTRACTOR, ext_seed,
            config_fingerprint({**ext_cfg.to_dict(), "upstream": _sha256(train_csv)}),
            lambda: train_extractor(train_matrix(), ext_cfg, ext_seed),
            extractor_from_checkpoint)

    latents_path = workdir / TRAIN_LATENTS
    latents_digest = _recorded_latents(workdir, ext_digest)
    encoded = None
    if latents_digest is None:
        with _stage("encode-latents"):
            encoded = encode_codes(extractor.encoder, train_matrix())
            write_latents(latents_path, encoded, [Label.NORMAL] * encoded.shape[0])
            latents_digest = _sha256(latents_path)

    @functools.cache
    def latents() -> np.ndarray:
        if encoded is not None:
            return encoded
        with _stage("load-latents"):
            return read_latents(latents_path)[0]

    flow_cfg, flow_seed = cfg.flow_config(), derive_seed(cfg.seed, "stage:flow")
    flow_path = workdir / "flow.ckpt"
    with _stage("train-flow"):
        flow, flow_digest = _cached_stage(
            flow_path, STAGE_FLOW, flow_seed,
            config_fingerprint({**flow_cfg.to_dict(), "upstream": ext_digest}),
            lambda: train_flow(FlowModel.create(flow_cfg, flow_seed), latents(),
                               flow_cfg, flow_seed),
            flow_from_checkpoint)

    with _stage("load-test"):
        test_packets = read_dataset(test_csv)
        # encoded once, as `infer` encodes; every classifier scores these latents
        test_latents = encode_codes(extractor.encoder, [p.codes for p in test_packets])

    reports, clf_paths = {}, {}
    clf_cfg = cfg.classifier_config()
    for mu, sigma in cfg.noise_grid:
        tag = _noise_tag(mu, sigma, cfg.ratio)
        clf_seed = derive_seed(cfg.seed, f"stage:classifier:{tag}")
        clf_path = workdir / f"classifier_{tag}.ckpt"
        with _stage(f"train-classifier-{tag}"):
            classifier, _ = _cached_stage(
                clf_path, STAGE_CLASSIFIER, clf_seed,
                config_fingerprint({**clf_cfg.to_dict(), "noise": tag,
                                    "exact": [repr(float(v)) for v in (mu, sigma, cfg.ratio)],
                                    "upstream": flow_digest}),
                lambda: train_classifier(
                    latents(), _synthesize(cfg, workdir, flow, latents(), mu, sigma),
                    clf_cfg, clf_seed),
                classifier_from_checkpoint)
        with _stage(f"infer-{tag}"):
            scored = _scored(classifier.score(test_latents), test_packets)
            write_scores(workdir / f"scores_{tag}.csv", scored)
        with _stage(f"evaluate-{tag}"):
            report = evaluate(scored)
            write_report(workdir / f"report_{tag}.txt", report)
        log.info("noise (mu=%g, sigma=%g) ratio=%g -> AUROC %.4f",
                 mu, sigma, cfg.ratio, report.auroc)
        reports[(mu, sigma)], clf_paths[(mu, sigma)] = report, clf_path
    best = max(reports, key=lambda k: reports[k].auroc)  # the first of equals
    (workdir / "summary.txt").write_text(noise_grid_table(reports, cfg.ratio))
    log.info("best: mu=%g sigma=%g AUROC %.4f", *best, reports[best].auroc)
    record = {"extractor_sha256": ext_digest, "train_latents_sha256": latents_digest}
    with replacing(workdir / RUN_RECORD, "run record") as fh:
        fh.write(json.dumps(record, indent=1).encode("utf-8") + b"\n")
    return PipelineResult(reports[best], best, reports, ext_path, flow_path, clf_paths)


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
    # two ratios that share a tag would write, and overwrite, the same files
    tagged: dict[str, float] = {}
    for r in ratios:
        tag = _ratio_tag(r)
        if tag in tagged:
            raise BadConfig(f"ratios {tagged[tag]!r} and {r!r} share the tag {tag}")
        tagged[tag] = r
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
    # a repeated seed would rerun `seed<N>` and count its AUROC twice
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise BadConfig(f"seed {seed} is listed twice")
    configs = [replace(cfg, seed=seed, workdir=str(Path(cfg.workdir) / f"seed{seed}"))
               for seed in seeds]  # checks every seed first
    results = [run_pipeline(sub) for sub in configs]
    aurocs = np.array([r.best.auroc for r in results])
    summary = (f"seeds: {', '.join(str(s) for s in seeds)}\n"
               f"best-auroc mean: {aurocs.mean():.4f}\n"
               f"best-auroc stddev: {aurocs.std(ddof=1) if len(seeds) > 1 else 0.0:.4f}\n")
    Path(cfg.workdir).mkdir(parents=True, exist_ok=True)
    (Path(cfg.workdir) / "seed_summary.txt").write_text(summary)
    return summary, results
