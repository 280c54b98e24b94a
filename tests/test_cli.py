import argparse
import dataclasses
import math
import struct
import subprocess
import sys

import numpy as np
import pytest

import flowgate.cli as cli
from flowgate.cli import _PIPELINE_KEYS, build_parser, main
from flowgate.errors import IoFailure
from flowgate.nn import TrainConfig
from flowgate.pipeline import PipelineConfig
from flowgate.dataset import read_dataset, read_latents
from flowgate.metrics import read_report, read_scores
from flowgate.packets import Label
from crafting import check_mutants, pcap_bytes, tcp_frame, udp_frame


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def test_preprocess_command(tmp_path, capsys):
    frames = [
        tcp_frame(payload=b"hello world data"),
        udp_frame(payload=b"q", dport=53),      # dropped: DNS
        tcp_frame(payload=b""),                  # dropped: control segment
        tcp_frame(payload=b"more payload bytes"),
    ]
    pcap = tmp_path / "c.pcap"
    pcap.write_bytes(pcap_bytes(frames))
    out = tmp_path / "out.csv"
    assert run_cli("preprocess", "--in", pcap, "--out", out, "--label", "0") == 0
    rows = read_dataset(out)
    assert len(rows) == 2
    assert all(r.label is Label.NORMAL for r in rows)


def test_preprocess_directory(tmp_path):
    # files are processed in name order regardless of creation order
    (tmp_path / "b.pcap").write_bytes(pcap_bytes([tcp_frame(payload=b"B" * 30)]))
    (tmp_path / "a.pcap").write_bytes(pcap_bytes([tcp_frame(payload=b"A" * 30)]))
    out = tmp_path / "out.csv"
    assert run_cli("preprocess", "--in", tmp_path, "--out", out) == 0
    rows = read_dataset(out)
    assert len(rows) == 2
    assert rows[0].values[120] == ord("A") / 255.0
    assert rows[1].values[120] == ord("B") / 255.0


def test_preprocess_missing_capture_exits_2_naming_it(tmp_path, capsys):
    missing = tmp_path / "nonexistent.pcap"
    assert run_cli("preprocess", "--in", missing, "--out", tmp_path / "out.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert not (tmp_path / "out.csv").exists()


def test_make_corpus_with_splits(tmp_path):
    assert run_cli("make-corpus", "--out-dir", tmp_path / "c", "--seed", 1,
                   "--n-normal", 40, "--n-anomaly", 10,
                   "--n-train", 30, "--n-test-normal", 10,
                   "--n-test-anomaly", 10) == 0
    assert len(read_dataset(tmp_path / "c" / "normal.csv")) == 40
    assert len(read_dataset(tmp_path / "c" / "anomaly.csv")) == 10
    assert len(read_dataset(tmp_path / "c" / "train.csv")) == 30
    test_rows = read_dataset(tmp_path / "c" / "test.csv")
    assert len(test_rows) == 20
    assert sum(r.label is Label.ANOMALY for r in test_rows) == 10


@pytest.fixture(scope="module")
def stage_artifacts(tiny_corpus, tmp_path_factory):
    """Stage checkpoints built through the CLI commands themselves."""
    train_csv, test_csv = tiny_corpus
    root = tmp_path_factory.mktemp("cli_stages")
    ext = root / "extractor.ckpt"
    flw = root / "flow.ckpt"
    pseudo = root / "pseudo.csv"
    clf = root / "classifier.ckpt"
    assert run_cli("train-extractor", "--data", train_csv, "--out", ext,
                   "--seed", 2, "--epochs", 2) == 0
    assert run_cli("train-flow", "--latents-from", ext, "--data", train_csv,
                   "--out", flw, "--seed", 2, "--epochs", 2,
                   "--blocks", 4, "--hidden", 16) == 0
    assert run_cli("synthesize", "--flow", flw, "--extractor", ext,
                   "--data", train_csv, "--mu", 0, "--sigma", 1,
                   "--ratio", 0.5, "--seed", 2, "--out", pseudo) == 0
    # normal latents for classifier training come from the same encoder
    from flowgate.checkpoint import load_checkpoint
    from flowgate.dataset import values_matrix, write_latents
    from flowgate.extractor import extractor_from_checkpoint
    model = extractor_from_checkpoint(load_checkpoint(ext))
    latents = model.encode(values_matrix(read_dataset(train_csv)))
    normals_csv = root / "normals.csv"
    write_latents(normals_csv, latents, [Label.NORMAL] * latents.shape[0])
    assert run_cli("train-classifier", "--normals", normals_csv,
                   "--pseudo", pseudo, "--out", clf, "--seed", 2,
                   "--epochs", 2) == 0
    return root, ext, flw, clf, test_csv


def test_stage_commands_compose(stage_artifacts):
    root, ext, flw, clf, test_csv = stage_artifacts
    pseudo, labels = read_latents(root / "pseudo.csv")
    assert pseudo.shape == (150, 70)
    assert all(l is Label.ANOMALY for l in labels)


def test_infer_and_eval_commands(stage_artifacts, tmp_path):
    root, ext, flw, clf, test_csv = stage_artifacts
    scores_csv = tmp_path / "scores.csv"
    report_txt = tmp_path / "report.txt"
    assert run_cli("infer", "--extractor", ext, "--classifier", clf,
                   "--data", test_csv, "--scores-out", scores_csv) == 0
    assert len(read_scores(scores_csv)) == 120
    assert run_cli("eval", "--scores", scores_csv,
                   "--report-out", report_txt) == 0
    report = read_report(report_txt)
    assert report.n_pos == 60 and report.n_neg == 60


def test_eval_of_an_undecodable_score_file_exits_2_naming_its_line(stage_artifacts,
                                                                  tmp_path, capsys):
    root, ext, flw, clf, test_csv = stage_artifacts
    scores_csv = tmp_path / "scores.csv"
    assert run_cli("infer", "--extractor", ext, "--classifier", clf,
                   "--data", test_csv, "--scores-out", scores_csv) == 0
    header, first, *rest = scores_csv.read_bytes().splitlines(keepends=True)
    scores_csv.write_bytes(b"".join([header, first, b"\xff" + rest[0], *rest[1:]]))
    capsys.readouterr()
    assert run_cli("eval", "--scores", scores_csv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{scores_csv}:3: undecodable text" in err


def test_infer_refuses_a_nan_in_the_classifier(stage_artifacts, tmp_path, capsys):
    root, ext, flw, clf, test_csv = stage_artifacts
    poisoned = tmp_path / "classifier.ckpt"
    poisoned.write_bytes(clf.read_bytes()[:-8] + struct.pack("<d", np.nan))
    assert run_cli("infer", "--extractor", ext, "--classifier", poisoned,
                   "--data", test_csv, "--scores-out", tmp_path / "s.csv") == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("bad_args, named", [
    (["--n-normal", -1], "--n-normal"),
    (["--n-anomaly", -1], "--n-anomaly"),
    (["--n-train", -5], "--n-train"),
    (["--n-test-normal", -1], "--n-test-normal"),
    (["--n-test-anomaly", -2], "--n-test-anomaly"),
    (["--n-train", 35], "normal rows"),
    (["--n-test-anomaly", 11], "anomaly rows"),
], ids=["n-normal", "n-anomaly", "n-train", "n-test-normal", "n-test-anomaly",
        "normal-split-too-large", "anomaly-split-too-large"])
def test_make_corpus_rejects_bad_counts_before_writing(tmp_path, capsys, bad_args, named):
    counts = {"--n-normal": 40, "--n-anomaly": 10, "--n-train": 30,
              "--n-test-normal": 10, "--n-test-anomaly": 10}
    counts.update(zip(bad_args[::2], bad_args[1::2]))
    argv = [item for pair in counts.items() for item in pair]
    assert run_cli("make-corpus", "--out-dir", tmp_path / "c", *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("grid_args", [["--noise-grid", "-9,5;0,1"],
                                       ["--noise-grid=-9,5;0,1"],
                                       ["--noise-grid", "-.5,1"]],
                         ids=["two-tokens", "one-token", "leading-dot"])
def test_pipeline_noise_grid_value_may_start_with_minus(tmp_path, monkeypatch, grid_args):
    seen = []

    def run_pipeline(cfg):
        seen.append(cfg.noise_grid)
        raise IoFailure("stopped before training")
    monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
    assert run_cli("pipeline", "--workdir", tmp_path, *grid_args, "--seed", 5) == 2
    expected = ((-9.0, 5.0), (0.0, 1.0)) if "-9" in grid_args[-1] else ((-0.5, 1.0),)
    assert seen == [expected]


def test_pipeline_command_with_config_file(tiny_corpus, tmp_path, capsys):
    train_csv, test_csv = tiny_corpus
    config = tmp_path / "run.cfg"
    config.write_text(
        f"""
# desk-scale smoke run
workdir = {tmp_path / 'work'}
train_csv = {train_csv}
test_csv = {test_csv}
seed = 4
epochs = 2
noise_grid = 0,1
latent_dim = 16
flow_blocks = 4
flow_hidden = 16
encoder_widths = 1600,32,16
disc_widths = 1600, 16, 1
classifier_widths = 16,8,1
""")
    # CLI flags override file values
    assert run_cli("pipeline", "--config", config, "--seed", 5, "--w-rec", 10) == 0
    out = capsys.readouterr().out
    assert "auroc:" in out
    from flowgate.checkpoint import load_checkpoint
    from flowgate.seeding import derive_seed
    ckpt = load_checkpoint(tmp_path / "work" / "extractor.ckpt")
    assert ckpt.seed == derive_seed(5, "stage:extractor")
    config_meta = ckpt.meta["config"]
    assert config_meta["encoder_widths"] == [1600, 32, 16]
    assert config_meta["disc_widths"] == [1600, 16, 1]
    assert config_meta["w_rec"] == 10.0
    (clf_ckpt,) = (tmp_path / "work").glob("classifier_*.ckpt")
    assert load_checkpoint(clf_ckpt).meta["config"]["widths"] == [16, 8, 1]


def test_pipeline_seeds_write_a_workdir_per_seed_and_their_summary(tiny_corpus, tmp_path,
                                                                   capsys):
    train_csv, test_csv = tiny_corpus
    work = tmp_path / "work"
    assert run_cli("pipeline", "--workdir", work, "--train-csv", train_csv,
                   "--test-csv", test_csv, "--seeds", "4,9", "--epochs", 1,
                   "--noise-grid", "0,1;-9,5", "--latent-dim", 16, "--flow-blocks", 2,
                   "--flow-hidden", 16, "--encoder-widths", "1600,32,16",
                   "--disc-widths", "1600,16,1", "--classifier-widths", "16,8,1") == 0
    best = []
    for seed in (4, 9):
        reports = [read_report(p) for p in (work / f"seed{seed}").glob("report_*.txt")]
        assert len(reports) == 2
        best.append(max(r.auroc for r in reports))
    summary = (f"seeds: 4, 9\nbest-auroc mean: {np.mean(best):.4f}\n"
               f"best-auroc stddev: {np.std(best, ddof=1):.4f}\n")
    assert (work / "seed_summary.txt").read_text() == summary
    assert capsys.readouterr().out == summary


def test_pipeline_command_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    # every packet row holds 1600 values, so input_dim is no setting
    for key in ("bogus_key", "input_dim"):
        config.write_text(f"workdir = w\n{key} = 1600\n")
        assert run_cli("pipeline", "--config", config) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_pipeline_command_unreadable_config_file(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert run_cli("pipeline", "--config", missing) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing) in err
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"workdir = \xff\n")
    assert run_cli("pipeline", "--config", binary) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(binary) in err


def test_train_classifier_rejects_anomaly_labeled_normals(tmp_path, capsys):
    from flowgate.dataset import write_latents
    rng = np.random.default_rng(0)
    normals_csv = tmp_path / "normals.csv"
    pseudo_csv = tmp_path / "pseudo.csv"
    write_latents(normals_csv, rng.standard_normal((10, 8)),
                  [Label.NORMAL] * 9 + [Label.ANOMALY])
    write_latents(pseudo_csv, rng.standard_normal((5, 8)),
                  [Label.ANOMALY] * 5)
    code = run_cli("train-classifier", "--normals", normals_csv,
                   "--pseudo", pseudo_csv, "--out", tmp_path / "c.ckpt",
                   "--seed", 1)
    assert code == 2
    assert "anomaly" in capsys.readouterr().err.lower()


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "flowgate.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pipeline" in proc.stdout


@pytest.mark.parametrize("flags, key", [
    (["--noise-grid", "1"], "noise_grid"),
    (["--noise-grid", ";"], "noise_grid"),
    (["--flow-blocks", "0"], "blocks"),
    (["--ratio", "0"], "ratio"),
    (["--seeds", "1,x"], "--seeds"),
    (["--ratios", "0.5,0"], "ratio"),
    (["--seed", "abc"], "seed"),
    (["--encoder-widths", "1600,x,70"], "encoder_widths"),
    (["--noise-grid", "0.1234561,1;0.1234562,1"], "(0.1234561, 1.0) and (0.1234562, 1.0)"),
    (["--noise-grid", "0,1;0,1"], "(0.0, 1.0) and (0.0, 1.0)"),
    (["--ratios", "0.5,0.5000001"], "ratios 0.5 and 0.5000001 share the tag ratio0.5"),
    (["--w-adv", "nan"], "w_adv"),
    (["--w-adv", "inf"], "w_adv"),
    (["--w-rec", "nan"], "w_rec"),
    (["--w-rec", "inf"], "w_rec"),
    (["--lr", "nan"], "lr"),
    (["--lr", "inf"], "lr"),
    (["--ratio", "inf"], "ratio"),
    (["--ratio", "1e300"], "ratio"),
    (["--noise-grid", "nan,5"], "mu"),
    (["--noise-grid", "0,inf"], "sigma"),
    (["--noise-grid=0,1e308"], "sigma"),
    (["--noise-grid=1e308,1"], "mu"),
    (["--seeds", "1,2", "--ratios", "0.5,1"], "--seeds and --ratios"),
    (["--seeds", "3,4,3"], "seed 3 is listed twice"),
    (["--latent-dim", "16", "--encoder-widths", "1600,-5,16"], "encoder_widths"),
    (["--disc-widths", "1600,0,1"], "disc_widths"),
    (["--latent-dim", "16", "--classifier-widths", "16,0,1"], "classifier widths"),
    (["--latent-dim", "16", "--encoder-widths", "1600,32,16", "--classifier-widths", "70,8,1"],
     "classifier_widths"),
], ids=["grid-1", "grid-semicolon", "flow-blocks-0", "ratio-0", "seeds", "ratios",
        "seed-abc", "encoder-widths-x", "grid-shared-tag", "grid-repeated",
        "ratios-shared-tag", "w-adv-nan", "w-adv-inf", "w-rec-nan", "w-rec-inf",
        "lr-nan", "lr-inf", "ratio-inf", "ratio-huge", "grid-mu-nan", "grid-sigma-inf",
        "grid-sigma-huge", "grid-mu-huge",
        "seeds-with-ratios", "seeds-repeated", "encoder-width-negative", "disc-width-0",
        "classifier-width-0", "classifier-not-latent-dim"])
def test_pipeline_bad_value_fails_before_training(tiny_corpus, tmp_path, capsys,
                                                  flags, key):
    train_csv, test_csv = tiny_corpus
    work = tmp_path / "work"
    code = run_cli("pipeline", "--workdir", work, "--train-csv", train_csv,
                   "--test-csv", test_csv, "--epochs", 1, *flags)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and key in err
    assert not list(tmp_path.rglob("*.ckpt"))


def test_pipeline_bad_config_file_value_names_key_and_line(tiny_corpus, tmp_path,
                                                           capsys):
    train_csv, test_csv = tiny_corpus
    config = tmp_path / "run.cfg"
    config.write_text(f"workdir = {tmp_path / 'work'}\n"
                      f"train_csv = {train_csv}\ntest_csv = {test_csv}\n"
                      "epochs = abc\n")
    assert run_cli("pipeline", "--config", config) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{config}:4: epochs" in err
    assert not list(tmp_path.rglob("*.ckpt"))


def test_mutated_config_files_raise_only_flowgate_errors_or_hold_finite_values(tmp_path):
    def finite_config(cfg) -> int:
        numbers = [cfg.ratio, cfg.w_adv, cfg.w_rec, cfg.lr, *(v for pair in cfg.noise_grid
                                                              for v in pair)]
        assert all(math.isfinite(v) for v in numbers)
        return 1

    def write(path):
        path.write_text(f"workdir = {tmp_path / 'work'}\nseed = 5\nnoise_grid = -9,5;0,1\n"
                        "ratio = 0.75\nw_adv = 2\nw_rec = 40\nlr = 0.002\nepochs = 3\n"
                        "latent_dim = 16\nencoder_widths = 1600,64,16\nflow_blocks = 4\n")

    def read(path):
        return cli._pipeline_config(build_parser().parse_args(["pipeline", "--config", str(path)]))

    check_mutants(tmp_path, write, read, finite_config)


def test_train_flow_rejects_labeled_anomalies(stage_artifacts, tmp_path, capsys):
    root, ext, flw, clf, test_csv = stage_artifacts  # test.csv holds anomalies
    code = run_cli("train-flow", "--latents-from", ext, "--data", test_csv,
                   "--out", tmp_path / "f.ckpt", "--seed", 2, "--epochs", 1)
    assert code == 2
    assert "labeled anomaly" in capsys.readouterr().err
    assert not (tmp_path / "f.ckpt").exists()


def test_synthesize_rejects_labeled_anomalies(stage_artifacts, tmp_path, capsys):
    root, ext, flw, clf, test_csv = stage_artifacts
    code = run_cli("synthesize", "--flow", flw, "--extractor", ext,
                   "--data", test_csv, "--mu", 0, "--sigma", 1, "--seed", 2,
                   "--out", tmp_path / "p.csv")
    assert code == 2
    assert "labeled anomaly" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_stage_training_flag_defaults_follow_train_config():
    defaults = TrainConfig()
    expected = (defaults.epochs, defaults.batch_size, defaults.lr, defaults.patience)
    for name in ("train-extractor", "train-flow", "train-classifier"):
        sub = _subcommands()[name]
        assert tuple(sub.get_default(d) for d in ("epochs", "batch", "lr", "patience")) \
            == expected, name


def test_pipeline_keys_are_pipeline_config_fields():
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert set(_PIPELINE_KEYS) == fields


def test_pipeline_flags_are_one_per_config_field():
    flags = {o: a.dest for a in _subcommands()["pipeline"]._actions
             for o in a.option_strings if o != "--help" and o.startswith("--")}
    expected = {"--" + f.name.replace("_", "-"): f.name
                for f in dataclasses.fields(PipelineConfig)}
    expected.update({"--config": "config", "--ratios": "ratios", "--seeds": "seeds"})
    assert flags == expected


def test_subcommand_flags_unchanged():
    expected = {
        "preprocess": "--in --label --out",
        "make-corpus": "--n-anomaly --n-normal --n-test-anomaly --n-test-normal "
                       "--n-train --out-dir --seed",
        "train-extractor": "--batch --data --epochs --lr --out --patience --seed",
        "train-flow": "--batch --blocks --data --epochs --hidden --latents-from --lr "
                      "--out --patience --seed",
        "synthesize": "--data --extractor --flow --mu --out --ratio --seed --sigma",
        "train-classifier": "--batch --epochs --lr --normals --out --patience "
                            "--pseudo --seed",
        "infer": "--classifier --data --extractor --report-out --scores-out",
        "eval": "--report-out --scores",
        "pipeline": "--batch-size --config --epochs --flow-blocks --flow-hidden "
                    "--latent-dim --lr --noise-grid --patience --ratio --ratios --seed "
                    "--seeds --test-anomaly-pcap --test-csv --test-normal-pcap "
                    "--train-csv --train-pcap --workdir --w-adv --w-rec "
                    "--encoder-widths --disc-widths --classifier-widths",
    }
    subs = _subcommands()
    assert set(subs) == set(expected)
    for name, flags in expected.items():
        got = {o for a in subs[name]._actions for o in a.option_strings
               if o != "--help" and o.startswith("--")}
        assert got == set(flags.split()), name
