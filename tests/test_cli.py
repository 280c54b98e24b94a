import argparse
import dataclasses
import math
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import flowgate.cli as cli
from flowgate.cli import _PIPELINE_KEYS, build_parser, main
from flowgate.errors import BadConfig, FlowgateError, IoFailure
from flowgate.pipeline import PipelineConfig
from flowgate.dataset import read_dataset
from flowgate.metrics import evaluate, format_report, read_scores
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
def trained_workdir(tiny_corpus, tmp_path_factory):
    """The checkpoints of one tiny `flowgate pipeline` run."""
    train_csv, test_csv = tiny_corpus
    work = tmp_path_factory.mktemp("cli_pipeline")
    assert run_cli("pipeline", "--workdir", work, "--train-csv", train_csv,
                   "--test-csv", test_csv, "--seed", 2, "--epochs", 2,
                   "--noise-grid", "0,1", "--latent-dim", 16,
                   "--encoder-widths", "1600,64,16", "--disc-widths", "1600,32,16,1",
                   "--classifier-widths", "16,16,8,1", "--flow-blocks", 4,
                   "--flow-hidden", 16) == 0
    return work / "extractor.ckpt", work / "classifier_mu0_sigma1_ratio0.5.ckpt", test_csv


def test_infer_and_eval_commands(trained_workdir, tmp_path):
    ext, clf, test_csv = trained_workdir
    scores_csv = tmp_path / "scores.csv"
    report_txt = tmp_path / "report.txt"
    assert run_cli("infer", "--extractor", ext, "--classifier", clf,
                   "--data", test_csv, "--scores-out", scores_csv) == 0
    assert len(read_scores(scores_csv)) == 120
    assert run_cli("eval", "--scores", scores_csv,
                   "--report-out", report_txt) == 0
    report = evaluate(read_scores(scores_csv))
    assert report_txt.read_text() == format_report(report)
    assert report.n_pos == 60 and report.n_neg == 60


def test_eval_of_an_undecodable_score_file_exits_2_naming_its_line(trained_workdir,
                                                                  tmp_path, capsys):
    ext, clf, test_csv = trained_workdir
    scores_csv = tmp_path / "scores.csv"
    assert run_cli("infer", "--extractor", ext, "--classifier", clf,
                   "--data", test_csv, "--scores-out", scores_csv) == 0
    header, first, *rest = scores_csv.read_bytes().splitlines(keepends=True)
    scores_csv.write_bytes(b"".join([header, first, b"\xff" + rest[0], *rest[1:]]))
    capsys.readouterr()
    assert run_cli("eval", "--scores", scores_csv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{scores_csv}:3: undecodable text" in err


def test_infer_refuses_a_nan_in_the_classifier(trained_workdir, tmp_path, capsys):
    ext, clf, test_csv = trained_workdir
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


@pytest.mark.parametrize("command, flag, extra", [
    ("make-corpus", "--out-dir", []),
    ("pipeline", "--workdir", []),
    ("pipeline", "--workdir", ["--seeds", "4,9"]),
], ids=["make-corpus", "pipeline", "pipeline-seeds"])
def test_a_directory_that_is_a_file_exits_2_naming_it(tiny_corpus, tmp_path, capsys,
                                                      command, flag, extra):
    train_csv, test_csv = tiny_corpus
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    csvs = ["--train-csv", train_csv, "--test-csv", test_csv] if command == "pipeline" else []
    assert run_cli(command, flag, taken, *csvs, *extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create ") and str(taken) in err
    assert taken.read_text() == "a file\n"


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
    work = tmp_path / "work"
    (clf_ckpt,) = work.glob("classifier_*.ckpt")
    tag = clf_ckpt.stem.removeprefix("classifier_")
    for path, label in [(work / "extractor.ckpt", "stage:extractor"),
                        (work / "flow.ckpt", "stage:flow"),
                        (clf_ckpt, f"stage:classifier:{tag}")]:
        assert load_checkpoint(path).seed == derive_seed(5, label), path.name
    ckpt = load_checkpoint(work / "extractor.ckpt")
    config_meta = ckpt.meta["config"]
    assert config_meta["encoder_widths"] == [1600, 32, 16]
    assert config_meta["disc_widths"] == [1600, 16, 1]
    assert config_meta["w_rec"] == 10.0
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
        aurocs = []
        for scores in (work / f"seed{seed}").glob("scores_*.csv"):
            report = evaluate(read_scores(scores))
            report_txt = scores.with_name(scores.stem.replace("scores_", "report_") + ".txt")
            assert report_txt.read_text() == format_report(report)
            aurocs.append(report.auroc)
        assert len(aurocs) == 2
        best.append(max(aurocs))
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


@pytest.mark.parametrize("separator", ["\u2028", "\x0c", "\x85", "\x0b", "\x1c"],
                         ids=["line-separator", "form-feed", "nel", "vertical-tab", "file-sep"])
def test_a_separator_inside_a_config_comment_is_text_of_the_comment(tmp_path, separator):
    # only LF, CR and CR LF end a line: the comment is one line, and seed
    # stays on line 3
    config = tmp_path / "ls.cfg"
    config.write_bytes(f"workdir = w\n# see {separator} note\nseed = 3\n".encode())
    assert cli._read_config_file(str(config)) == {"workdir": "w", "seed": 3}
    config.write_bytes(f"workdir = w\n# see {separator} note\nseed = x\n".encode())
    with pytest.raises(BadConfig, match=re.escape(f"{config}:3: seed")):
        cli._read_config_file(str(config))


def test_an_undecodable_config_line_is_refused_naming_its_line(tmp_path, capsys):
    config = tmp_path / "bin.cfg"
    config.write_bytes(b"workdir = w\r\nseed = 3\r\n# caf\xe9\r\nepochs = 2\r\n")
    with pytest.raises(FlowgateError, match=re.escape(f"{config}:3: undecodable text")):
        cli._read_config_file(str(config))
    assert run_cli("pipeline", "--config", config) == 2
    assert capsys.readouterr().err == f"error: {config}:3: undecodable text\n"


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


def test_train_flow_rejects_labeled_anomalies(tiny_corpus, tmp_path, capsys):
    train_csv, test_csv = tiny_corpus  # test.csv holds anomalies
    work = tmp_path / "work"
    assert run_cli("pipeline", "--workdir", work, "--train-csv", test_csv,
                   "--test-csv", test_csv, "--epochs", 1) == 2
    err = capsys.readouterr().err
    assert "labeled anomaly" in err and "[stage load-train]" in err
    assert not list(work.glob("*.ckpt"))


def test_synthesize_rejects_labeled_anomalies(trained_workdir, tmp_path, capsys):
    """A flow cached in the workdir does not let a labeled anomaly reach synthesis."""
    ext, clf, test_csv = trained_workdir
    work = tmp_path / "work"
    shutil.copytree(ext.parent, work)
    before = {p.name: p.read_bytes() for p in work.iterdir()}
    assert run_cli("pipeline", "--workdir", work, "--train-csv", test_csv,
                   "--test-csv", test_csv, "--seed", 2, "--epochs", 2,
                   "--noise-grid", "0,1", "--latent-dim", 16,
                   "--encoder-widths", "1600,64,16", "--disc-widths", "1600,32,16,1",
                   "--classifier-widths", "16,16,8,1", "--flow-blocks", 4,
                   "--flow-hidden", 16) == 2
    err = capsys.readouterr().err
    assert "labeled anomaly" in err and "[stage load-train]" in err
    assert {p.name: p.read_bytes() for p in work.iterdir()} == before


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


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
