"""Command-line interface.

Subcommands mirror the pipeline stages: preprocess, train-extractor,
train-flow, synthesize, train-classifier, infer, eval, pipeline, make-corpus.
The pipeline subcommand also reads a flat key=value config file; command-line
flags override file values.
"""
from __future__ import annotations

import argparse
import logging
import re
import sys
from typing import Optional, get_type_hints

from .checkpoint import (
    STAGE_EXTRACTOR, STAGE_FLOW, load_checkpoint, make_dir, save_checkpoint,
)
from .classifier import ClassifierConfig, train_classifier
from .corpus import make_synthetic_corpus
from .dataset import read_dataset, read_latents, text_lines, write_dataset, write_latents
from .errors import AnomalyInTrainingSet, BadConfig, FlowgateError
from .extractor import (
    ExtractorConfig, encode_codes, encoder_from_checkpoint, train_extractor,
    training_matrix,
)
from .flow import FlowConfig, FlowModel, flow_from_checkpoint, train_flow
from .metrics import evaluate, format_report, read_scores, write_report, write_scores
from .nn import TrainConfig
from .packets import Label, preprocess_captures
from .pipeline import (
    NoiseGrid, PipelineConfig, infer, ratio_ablation, repeat_pipeline, run_pipeline,
)
from .synthesis import NoiseSpec, SynthesisConfig, synthesize


def _parse_label(text: str) -> Label | None:
    return {"0": Label.NORMAL, "1": Label.ANOMALY, "none": None}[text]


def _parse_noise_grid(text: str) -> tuple[tuple[float, float], ...]:
    """Format: 'mu,sigma;mu,sigma;...' e.g. '-9,5;-25,5;0,1'."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            mu, sigma = chunk.split(",")
            pairs.append((float(mu), float(sigma)))
        except ValueError:
            raise BadConfig(f"expected 'mu,sigma;mu,sigma;...', got {text!r}") from None
    if not pairs:
        raise BadConfig(f"empty noise grid {text!r}")
    return tuple(pairs)


def _parse_list(text: str, convert, flag: str) -> list:
    try:
        return [convert(item) for item in text.split(",")]
    except ValueError as err:
        raise BadConfig(f"{flag}: {err}") from None


def cmd_preprocess(args) -> int:
    packets = preprocess_captures(args.input, _parse_label(args.label))
    count = write_dataset(packets, args.out)
    print(f"wrote {count} rows to {args.out}")
    return 0


def cmd_make_corpus(args) -> int:
    # every count is checked before anything is generated or written
    for name in ("n_normal", "n_anomaly", "n_train", "n_test_normal", "n_test_anomaly"):
        if getattr(args, name) < 0:
            raise BadConfig(f"--{name.replace('_', '-')} must be non-negative, "
                            f"got {getattr(args, name)}")
    if args.n_train and args.n_train + args.n_test_normal > args.n_normal:
        raise BadConfig("not enough normal rows for the requested splits")
    if args.n_train and args.n_test_anomaly > args.n_anomaly:
        raise BadConfig("not enough anomaly rows for the requested split")
    out_dir = make_dir(args.out_dir, "output directory")
    normals, anomalies = make_synthetic_corpus(args.seed, args.n_normal,
                                               args.n_anomaly)
    write_dataset(normals, out_dir / "normal.csv")
    write_dataset(anomalies, out_dir / "anomaly.csv")
    print(f"wrote {len(normals)} normal rows and {len(anomalies)} anomaly rows "
          f"to {out_dir}")
    if args.n_train:
        write_dataset(normals[:args.n_train], out_dir / "train.csv")
        test = (normals[args.n_train:args.n_train + args.n_test_normal]
                + anomalies[:args.n_test_anomaly])
        write_dataset(test, out_dir / "test.csv")
        print(f"wrote train.csv ({args.n_train} normal) and test.csv "
              f"({args.n_test_normal} normal + {args.n_test_anomaly} anomaly)")
    return 0


def _add_training_flags(p: argparse.ArgumentParser) -> None:
    """The shared training flags of the stage commands, defaults from TrainConfig."""
    defaults = TrainConfig()
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--batch", type=int, default=defaults.batch_size)
    p.add_argument("--lr", type=float, default=defaults.lr)
    p.add_argument("--patience", type=int, default=defaults.patience)


def _training(args) -> dict:
    return dict(epochs=args.epochs, batch_size=args.batch, lr=args.lr,
                patience=args.patience)


def _save_trained(path: str, ckpt) -> int:
    save_checkpoint(path, ckpt)
    print(f"{ckpt.stage.lower()} checkpoint -> {path} "
          f"(best epoch {ckpt.meta['best_epoch']} of {ckpt.meta['epochs_run']})")
    return 0


def cmd_train_extractor(args) -> int:
    cfg = ExtractorConfig(**_training(args))
    return _save_trained(args.out, train_extractor(read_dataset(args.data), cfg, args.seed))


def _encode_training_data(data_csv: str, extractor_ckpt: str):
    """Latents of a normal packet CSV; rows labeled as anomalies are refused.
    Only the extractor's encoder tables are read."""
    encoder = encoder_from_checkpoint(
        load_checkpoint(extractor_ckpt, expect_stage=STAGE_EXTRACTOR, include=("encoder.",)))
    return encode_codes(encoder, training_matrix(read_dataset(data_csv), encoder.widths[0]))


def cmd_train_flow(args) -> int:
    latents = _encode_training_data(args.data, args.latents_from)
    cfg = FlowConfig(dim=latents.shape[1], blocks=args.blocks, hidden=args.hidden,
                     **_training(args))
    model = FlowModel.create(cfg, args.seed)
    return _save_trained(args.out, train_flow(model, latents, cfg, args.seed))


def cmd_synthesize(args) -> int:
    spec = NoiseSpec(mu=args.mu, sigma=args.sigma, seed=args.seed)
    latents = _encode_training_data(args.data, args.extractor)
    flow = flow_from_checkpoint(load_checkpoint(args.flow, expect_stage=STAGE_FLOW))
    pseudo = synthesize(flow, latents, spec, SynthesisConfig(ratio=args.ratio))
    write_latents(args.out, pseudo, [Label.ANOMALY] * pseudo.shape[0])
    print(f"wrote {pseudo.shape[0]} pseudo-anomaly latents to {args.out}")
    return 0


def cmd_train_classifier(args) -> int:
    normals, normal_labels = read_latents(args.normals)
    for i, label in enumerate(normal_labels):
        if label is Label.ANOMALY:
            raise AnomalyInTrainingSet(
                f"{args.normals}: row {i} is labeled as an anomaly")
    pseudo, _ = read_latents(args.pseudo)
    cfg = ClassifierConfig(widths=(normals.shape[1],) + ClassifierConfig.widths[1:],
                           **_training(args))
    return _save_trained(args.out, train_classifier(normals, pseudo, cfg, args.seed))


def cmd_infer(args) -> int:
    packets = read_dataset(args.data)
    scored = infer(args.extractor, args.classifier, packets)
    write_scores(args.scores_out, scored)
    print(f"wrote {len(scored)} scores to {args.scores_out}")
    if args.report_out:
        report = evaluate(scored)
        write_report(args.report_out, report)
        print(format_report(report), end="")
    return 0


def cmd_eval(args) -> int:
    scored = read_scores(args.scores)
    report = evaluate(scored)
    if args.report_out:
        write_report(args.report_out, report)
    print(format_report(report), end="")
    return 0


# every PipelineConfig field is a config-file key and a pipeline flag, parsed by
# its type; the structured types show their format as the flag's metavar
_FIELD_TYPES = get_type_hints(PipelineConfig)
_PARSERS = {
    str: str, Optional[str]: str, int: int, float: float,
    NoiseGrid: _parse_noise_grid,
    Optional[tuple[int, ...]]: lambda text: tuple(int(w) for w in text.split(",")),
}
_METAVARS = {NoiseGrid: "MU,SIGMA;...", Optional[tuple[int, ...]]: "WIDTH,..."}
_PIPELINE_KEYS = {name: _PARSERS[hint] for name, hint in _FIELD_TYPES.items()}


def _config_value(key: str, text: str, where: str = ""):
    try:
        return _PIPELINE_KEYS[key](text)
    except ValueError as err:
        raise BadConfig(f"{where}{key}: {err}") from None


def _read_config_file(path: str) -> dict:
    values: dict = {}
    for lineno, line in enumerate(text_lines(path, "config file"), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise BadConfig(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _PIPELINE_KEYS:
            raise BadConfig(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _config_value(key, value.strip(), f"{path}:{lineno}: ")
    return values


def _pipeline_config(args) -> PipelineConfig:
    values = _read_config_file(args.config) if args.config else {}
    for key in _PIPELINE_KEYS:
        text = getattr(args, key)
        if text is not None:
            values[key] = _config_value(key, text)
    if "workdir" not in values:
        raise FlowgateError("pipeline needs a workdir (flag or config file)")
    return PipelineConfig(**values)


def cmd_pipeline(args) -> int:
    if args.seeds and args.ratios:
        raise BadConfig("--seeds and --ratios cannot be combined: run one, then the other")
    cfg = _pipeline_config(args)
    if args.seeds:
        seeds = _parse_list(args.seeds, int, "--seeds")
        summary, _ = repeat_pipeline(cfg, seeds)
        print(summary, end="")
        return 0
    if args.ratios:
        ratios = _parse_list(args.ratios, float, "--ratios")
        table, _ = ratio_ablation(cfg, ratios)
        print(table, end="")
        return 0
    result = run_pipeline(cfg)
    mu, sigma = result.best_setting
    print(f"best noise setting: mu={mu:g} sigma={sigma:g}")
    print(format_report(result.best), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowgate",
        description="Semi-supervised anomaly traffic detection trained on "
                    "normal packets only")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="captures -> encoded packet CSV")
    p.add_argument("--in", dest="input", required=True,
                   help="capture file or directory")
    p.add_argument("--out", required=True)
    p.add_argument("--label", choices=["0", "1", "none"], default="none")
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("make-corpus", help="generate the synthetic desk-scale corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--n-normal", type=int, default=12000)
    p.add_argument("--n-anomaly", type=int, default=1000)
    p.add_argument("--n-train", type=int, default=10000,
                   help="also write train/test splits (0 disables)")
    p.add_argument("--n-test-normal", type=int, default=1000)
    p.add_argument("--n-test-anomaly", type=int, default=1000)
    p.set_defaults(fn=cmd_make_corpus)

    p = sub.add_parser("train-extractor", help="stage 1: reconstruction model")
    p.add_argument("--data", required=True, help="normal packet CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_training_flags(p)
    p.set_defaults(fn=cmd_train_extractor)

    p = sub.add_parser("train-flow", help="stage 2: bidirectional flow")
    p.add_argument("--latents-from", required=True, help="extractor checkpoint")
    p.add_argument("--data", required=True, help="normal packet CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_training_flags(p)
    p.add_argument("--blocks", type=int, default=FlowConfig.blocks)
    p.add_argument("--hidden", type=int, default=FlowConfig.hidden)
    p.set_defaults(fn=cmd_train_flow)

    p = sub.add_parser("synthesize", help="pseudo-anomaly latents via the flow")
    p.add_argument("--flow", required=True)
    p.add_argument("--extractor", required=True)
    p.add_argument("--data", required=True, help="normal packet CSV")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--ratio", type=float, default=SynthesisConfig.ratio)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="latent CSV output")
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("train-classifier", help="stage 3: latent classifier")
    p.add_argument("--normals", required=True, help="normal latent CSV")
    p.add_argument("--pseudo", required=True, help="pseudo-anomaly latent CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_training_flags(p)
    p.set_defaults(fn=cmd_train_classifier)

    p = sub.add_parser("infer", help="score packets with encoder + classifier only")
    p.add_argument("--extractor", required=True)
    p.add_argument("--classifier", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--scores-out", required=True)
    p.add_argument("--report-out")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("eval", help="AUROC and histograms from a score CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--report-out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("pipeline", help="run all stages end to end")
    p.add_argument("--config", help="flat key=value config file")
    for name, hint in _FIELD_TYPES.items():
        p.add_argument("--" + name.replace("_", "-"), dest=name,
                       metavar=_METAVARS.get(hint))
    p.add_argument("--ratios", help="comma list; runs the ratio ablation table")
    p.add_argument("--seeds", help="comma list; repeats the pipeline per seed "
                                   "and reports mean/stddev")
    p.set_defaults(fn=cmd_pipeline)
    return parser


def _join_grid_values(argv: list[str]) -> list[str]:
    """`--noise-grid -9,5;0,1` as one `--noise-grid=-9,5;0,1` token: argparse
    reads a separate value that starts with `-` and a digit as a flag."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--noise-grid" and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(
        _join_grid_values(sys.argv[1:] if argv is None else list(argv)))
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(message)s", datefmt="%H:%M:%S")
    try:
        return args.fn(args)
    except FlowgateError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
