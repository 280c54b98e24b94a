"""sha256 of every file a set of small, fixed flowgate runs writes.

    python3 tools/digests.py > digests.json
    python3 tools/digests.py --against parent-digests.json

Runs the flowgate CLI of the checkout this file is in, in a temporary
directory, with one BLAS thread:
  - `make-corpus` (seed 21: 360 normal and 60 anomaly rows, 300 for training);
  - `pipeline` at tiny widths over that corpus (seed 3, grid (0,1) and (-9,5),
    6 epochs, patience 2), then its full-hit rerun over the same workdir;
  - `pipeline` at default widths, ratio 2, one epoch (seed 4);
  - `pipeline --config` with file values (ratio 0.75, w_adv 2, w_rec 40, tiny
    widths, 3 epochs) and flags (seed 5, lr 0.002, batch size 32, patience 1);
  - `infer --report-out` with the tiny run's `extractor.ckpt` and
    `classifier_mu0_sigma1_ratio0.5.ckpt` on the corpus's `test.csv`.
Prints one JSON object, {"<run>/<file>": sha256}, sorted; `run.json` is left
out. With --against FILE (an earlier output, say the parent's), it also lists
on standard error every file whose digest differs or that only one side has,
and exits 1 if there is any. Standard library only, besides flowgate.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SKIPPED = {"run.json"}

TINY = ["--latent-dim", "16", "--encoder-widths", "1600,64,16",
        "--disc-widths", "1600,32,16,1", "--classifier-widths", "16,16,8,1",
        "--flow-blocks", "4", "--flow-hidden", "16"]
# `make-corpus` options; its test set holds packets of every score width
CORPUS = ("--seed", 21, "--n-normal", 360, "--n-anomaly", 60, "--n-train", 300,
          "--n-test-normal", 60, "--n-test-anomaly", 60)
CONFIG_FILE = ("ratio = 0.75\nw_adv = 2\nw_rec = 40\nepochs = 3\nlatent_dim = 16\n"
               "encoder_widths = 1600,64,16\ndisc_widths = 1600,32,16,1\n"
               "classifier_widths = 16,16,8,1\nflow_blocks = 4\nflow_hidden = 16\n")


def digest_dir(directory: Path, run: str) -> dict[str, str]:
    """{"run/relative path": sha256} of every file under `directory`."""
    return {f"{run}/{path.relative_to(directory).as_posix()}":
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*"))
            if path.is_file() and path.name not in SKIPPED}


def differences(mine: dict[str, str], theirs: dict[str, str]) -> list[str]:
    """One line per file whose digest differs or that only one side has."""
    lines = []
    for name in sorted(mine.keys() | theirs.keys()):
        if name not in theirs:
            lines.append(f"{name}: only here")
        elif name not in mine:
            lines.append(f"{name}: only in the other")
        elif mine[name] != theirs[name]:
            lines.append(f"{name}: {theirs[name][:16]} -> {mine[name][:16]}")
    return lines


def run_all(tmp: Path) -> dict[str, str]:
    from flowgate.cli import main

    def flowgate(*argv) -> None:
        with contextlib.redirect_stdout(sys.stderr):
            code = main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"flowgate {' '.join(map(str, argv))} exited {code}")

    corpus = tmp / "corpus"
    flowgate("make-corpus", "--out-dir", corpus, *CORPUS)
    train, test = corpus / "train.csv", corpus / "test.csv"
    data = ["--train-csv", train, "--test-csv", test]
    out = digest_dir(corpus, "corpus")

    tiny = tmp / "tiny"
    tiny_run = ["pipeline", "--workdir", tiny, *data, *TINY, "--seed", 3,
                "--noise-grid=0,1;-9,5", "--epochs", 6, "--patience", 2]
    flowgate(*tiny_run)
    out.update(digest_dir(tiny, "tiny"))
    flowgate(*tiny_run)
    out.update(digest_dir(tiny, "tiny-rerun"))

    ratio2 = tmp / "ratio2"
    flowgate("pipeline", "--workdir", ratio2, *data, "--seed", 4, "--ratio", 2,
             "--noise-grid", "0,1", "--epochs", 1)
    out.update(digest_dir(ratio2, "ratio2"))

    config = tmp / "config"
    config.mkdir()
    (config / "run.cfg").write_text(CONFIG_FILE)
    flowgate("pipeline", "--config", config / "run.cfg", "--workdir", config / "work",
             *data, "--seed", 5, "--lr", 0.002, "--batch-size", 32, "--patience", 1)
    out.update(digest_dir(config, "config"))

    scored = tmp / "infer"
    scored.mkdir()
    flowgate("infer", "--extractor", tiny / "extractor.ckpt",
             "--classifier", tiny / "classifier_mu0_sigma1_ratio0.5.ckpt", "--data", test,
             "--scores-out", scored / "scores.csv", "--report-out", scored / "report.txt")
    out.update(digest_dir(scored, "infer"))
    return dict(sorted(out.items()))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", type=Path, help="an earlier output to compare with")
    args = ap.parse_args()
    # before numpy is imported: one BLAS thread, so every matmul sums in one order
    for name in BLAS_ENV:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="flowgate-digests-") as tmp:
        digests = run_all(Path(tmp))
    print(json.dumps(digests, indent=1))
    if args.against is None:
        return 0
    lines = differences(digests, json.loads(args.against.read_text()))
    for line in lines:
        print(line, file=sys.stderr)
    print(f"{len(digests)} files, {len(lines)} differ from {args.against}", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
