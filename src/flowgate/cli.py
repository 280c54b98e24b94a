"""Command-line interface.

Subcommands: preprocess, make-corpus, pipeline, infer and eval. Training runs
only as `pipeline`, whose workdir cache resumes it stage by stage; `infer`
scores packets with the extractor and any classifier checkpoint it wrote. The
pipeline subcommand also reads a flat key=value config file; command-line
flags override file values.
"""
from __future__ import annotations

import argparse
import logging
import re
import sys
from typing import Optional, get_type_hints

from .checkpoint import make_dir
from .corpus import make_synthetic_corpus
from .dataset import read_dataset, text_lines, write_dataset
from .errors import BadConfig, FlowgateError
from .metrics import evaluate, format_report, read_scores, write_report, write_scores
from .packets import Label, preprocess_captures
from .pipeline import (
    NoiseGrid, PipelineConfig, infer, ratio_ablation, repeat_pipeline, run_pipeline,
)


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
