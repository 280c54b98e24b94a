import collections
import dataclasses
import filecmp
import json
import shutil
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from flowgate import nn
from flowgate.checkpoint import load_checkpoint
from flowgate.classifier import ClassifierConfig, ClassifierModel
from flowgate.cli import main as cli_main
from flowgate.corpus import synthetic_frame
from flowgate.dataset import codes_matrix, read_dataset, values_matrix, write_dataset
from flowgate.errors import AnomalyInTrainingSet, BadConfig, CheckpointMismatch
from flowgate.extractor import ExtractorConfig, FeatureExtractor, encode_codes, score_width
from flowgate.metrics import format_report, read_scores
from flowgate.packets import EncodedPacket, VECTOR_LEN
import flowgate.pipeline as pipeline
from flowgate.pipeline import (
    InferenceEngine, infer, ratio_ablation, repeat_pipeline, run_pipeline,
)
from conftest import tiny_pipeline_config
from crafting import (
    checkpoint_with_header, checkpoint_with_nested_header, checkpoint_without_table,
    pcap_bytes, tcp_frame, udp_frame,
)


@pytest.fixture(scope="module")
def pipeline_run(tiny_corpus, tmp_path_factory):
    train_csv, test_csv = tiny_corpus
    workdir = tmp_path_factory.mktemp("pipe_work")
    cfg = tiny_pipeline_config(workdir, train_csv, test_csv)
    result = run_pipeline(cfg)
    return cfg, result


def test_pipeline_produces_reports_and_artifacts(pipeline_run):
    cfg, result = pipeline_run
    assert result.best is not None
    assert (0.0, 1.0) in result.reports
    workdir = result.extractor_ckpt.parent
    assert (workdir / "extractor.ckpt").exists()
    assert (workdir / "flow.ckpt").exists()
    assert (workdir / "summary.txt").exists()
    report = result.reports[(0.0, 1.0)]
    assert (workdir / "report_mu0_sigma1_ratio0.5.txt").read_text() == format_report(report)
    scored = read_scores(workdir / "scores_mu0_sigma1_ratio0.5.csv")
    assert len(scored) == 120
    assert report.n_pos == 60 and report.n_neg == 60


def test_pipeline_resumes_from_checkpoints(pipeline_run):
    cfg, first = pipeline_run
    ext_before = first.extractor_ckpt.read_bytes()
    again = run_pipeline(cfg)
    assert again.extractor_ckpt.read_bytes() == ext_before
    assert again.best.auroc == first.best.auroc


def test_pipeline_retrains_a_truncated_checkpoint(pipeline_run, tmp_path):
    cfg, first = pipeline_run
    workdir = tmp_path / "work"
    shutil.copytree(first.extractor_ckpt.parent, workdir)
    flow_before = first.flow_ckpt.read_bytes()
    (workdir / "flow.ckpt").write_bytes(flow_before[:12])
    again = run_pipeline(dataclasses.replace(cfg, workdir=str(workdir)))
    assert again.flow_ckpt.read_bytes() == flow_before
    assert again.best.auroc == first.best.auroc


def test_pipeline_retrains_a_nan_poisoned_checkpoint(pipeline_run, tmp_path):
    cfg, first = pipeline_run
    workdir = tmp_path / "work"
    shutil.copytree(first.extractor_ckpt.parent, workdir)
    flow_before = first.flow_ckpt.read_bytes()
    (workdir / "flow.ckpt").write_bytes(flow_before[:-8] + struct.pack("<d", np.nan))
    again = run_pipeline(dataclasses.replace(cfg, workdir=str(workdir)))
    assert again.flow_ckpt.read_bytes() == flow_before
    assert again.best.auroc == first.best.auroc


def test_pipeline_retrains_a_checkpoint_with_a_malformed_header(pipeline_run, tmp_path):
    cfg, first = pipeline_run
    workdir = tmp_path / "work"
    shutil.copytree(first.extractor_ckpt.parent, workdir)
    flow_before = first.flow_ckpt.read_bytes()
    (workdir / "flow.ckpt").write_bytes(checkpoint_with_header(
        flow_before, lambda h: {k: v for k, v in h.items() if k != "seed"}))
    again = run_pipeline(dataclasses.replace(cfg, workdir=str(workdir)))
    assert again.flow_ckpt.read_bytes() == flow_before
    assert again.best.auroc == first.best.auroc


def test_pipeline_retrains_a_checkpoint_whose_header_nests_too_deep(pipeline_run, tmp_path):
    cfg, first = pipeline_run
    workdir = tmp_path / "work"
    shutil.copytree(first.extractor_ckpt.parent, workdir)
    flow_before = first.flow_ckpt.read_bytes()
    (workdir / "flow.ckpt").write_bytes(checkpoint_with_nested_header(flow_before))
    again = run_pipeline(dataclasses.replace(cfg, workdir=str(workdir)))
    assert again.flow_ckpt.read_bytes() == flow_before
    assert again.best.auroc == first.best.auroc


def _without_config(header):
    return {**header, "meta": {k: v for k, v in header["meta"].items() if k != "config"}}


def _with_unknown_config_key(header):
    meta = header["meta"]
    return {**header, "meta": {**meta, "config": {**meta["config"], "colour": "red"}}}


def _with_one_block(header):
    meta = header["meta"]
    assert meta["config"]["blocks"] == 4
    return {**header, "meta": {**meta, "config": {**meta["config"], "blocks": 1}}}


@pytest.mark.parametrize("edit", [_without_config, _with_unknown_config_key, _with_one_block],
                         ids=["no-config", "unknown-config-key", "unused-tables"])
def test_pipeline_retrains_a_flow_whose_config_cannot_be_built(pipeline_run, tmp_path, edit):
    cfg, first = pipeline_run
    workdir = tmp_path / "work"
    shutil.copytree(first.extractor_ckpt.parent, workdir)
    flow_before = first.flow_ckpt.read_bytes()
    (workdir / "flow.ckpt").write_bytes(checkpoint_with_header(flow_before, edit))
    again = run_pipeline(dataclasses.replace(cfg, workdir=str(workdir)))
    assert again.flow_ckpt.read_bytes() == flow_before
    assert again.best.auroc == first.best.auroc


def test_pipeline_retrains_a_classifier_missing_a_table(pipeline_run, tmp_path):
    cfg, first = pipeline_run
    workdir = tmp_path / "work"
    shutil.copytree(first.extractor_ckpt.parent, workdir)
    clf_path = workdir / first.classifier_ckpts[(0.0, 1.0)].name
    clf_before = clf_path.read_bytes()
    clf_path.write_bytes(checkpoint_without_table(clf_before, "classifier.1.W"))
    assert load_checkpoint(clf_path).available  # still a well-formed file
    again = run_pipeline(dataclasses.replace(cfg, workdir=str(workdir)))
    assert again.classifier_ckpts[(0.0, 1.0)].read_bytes() == clf_before
    assert again.best.auroc == first.best.auroc


def test_infer_names_a_classifier_without_a_config(pipeline_run, tiny_corpus, tmp_path,
                                                   capsys):
    cfg, first = pipeline_run
    bad = tmp_path / "classifier.ckpt"
    bad.write_bytes(checkpoint_with_header(
        first.classifier_ckpts[(0.0, 1.0)].read_bytes(), _without_config))
    assert cli_main(["infer", "--extractor", str(first.extractor_ckpt),
                     "--classifier", str(bad), "--data", str(tiny_corpus[1]),
                     "--scores-out", str(tmp_path / "s.csv")]) == 2
    assert f"error: {bad}: meta holds no config object" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def _checkpoints_saved(monkeypatch, cfg) -> set[str]:
    """Runs the pipeline; returns the names of the checkpoints it wrote."""
    saved = set()
    real_save = pipeline.save_checkpoint

    def save(path, ckpt):
        saved.add(Path(path).name)
        real_save(path, ckpt)
    monkeypatch.setattr(pipeline, "save_checkpoint", save)
    run_pipeline(cfg)
    return saved


ALL_STAGES = {"extractor.ckpt", "flow.ckpt", "classifier_mu0_sigma1_ratio0.5.ckpt"}


def test_new_extractor_config_retrains_the_stages_downstream(pipeline_run, tmp_path,
                                                             monkeypatch):
    cfg, first = pipeline_run
    workdir = tmp_path / "work"
    shutil.copytree(first.extractor_ckpt.parent, workdir)
    changed = dataclasses.replace(cfg, workdir=str(workdir), w_rec=10.0)
    assert _checkpoints_saved(monkeypatch, changed) == ALL_STAGES


def test_changed_train_csv_retrains_every_stage(pipeline_run, tiny_corpus, tmp_path,
                                                monkeypatch):
    cfg, first = pipeline_run
    workdir = tmp_path / "work"
    shutil.copytree(first.extractor_ckpt.parent, workdir)
    shorter = tmp_path / "train.csv"
    write_dataset(read_dataset(tiny_corpus[0])[:-1], shorter)
    changed = dataclasses.replace(cfg, workdir=str(workdir), train_csv=str(shorter))
    assert _checkpoints_saved(monkeypatch, changed) == ALL_STAGES


def test_rerun_loads_each_checkpoint_once_and_rewrites_none(pipeline_run, tmp_path,
                                                            monkeypatch):
    cfg, first = pipeline_run
    workdir = tmp_path / "work"
    shutil.copytree(first.extractor_ckpt.parent, workdir)

    def stamps():
        return {p.name: p.stat().st_mtime_ns
                for p in [*workdir.glob("*.ckpt"), workdir / "train_latents.csv"]}
    mtimes = stamps()
    assert set(mtimes) == ALL_STAGES | {"train_latents.csv"}
    loads = collections.Counter()
    real_load = pipeline.load_checkpoint

    def load(path, *args, **kwargs):
        loads[Path(path).name] += 1
        return real_load(path, *args, **kwargs)
    engines = []
    real_engine = InferenceEngine.from_checkpoint_files
    monkeypatch.setattr(pipeline, "load_checkpoint", load)
    monkeypatch.setattr(InferenceEngine, "from_checkpoint_files",
                        lambda *paths: engines.append(paths) or real_engine(*paths))
    reads = _count_reads(monkeypatch)
    run_pipeline(dataclasses.replace(cfg, workdir=str(workdir)))
    assert stamps() == mtimes
    assert loads == {name: 1 for name in ALL_STAGES}
    assert engines == []
    assert reads == {"test.csv": 1}
    for name in ("scores_mu0_sigma1_ratio0.5.csv", "report_mu0_sigma1_ratio0.5.txt",
                 "summary.txt", "train_latents.csv"):
        assert filecmp.cmp(workdir / name, first.extractor_ckpt.parent / name,
                           shallow=False), name


def test_ratio_past_the_tags_digits_retrains_the_classifier(pipeline_run, tmp_path,
                                                            monkeypatch):
    cfg, first = pipeline_run
    workdir = tmp_path / "work"
    shutil.copytree(first.extractor_ckpt.parent, workdir)
    # tagged ratio0.5 like the classifier trained at 0.5, but not the same setting
    changed = dataclasses.replace(cfg, workdir=str(workdir), ratio=0.5000001)
    assert _checkpoints_saved(monkeypatch, changed) == {"classifier_mu0_sigma1_ratio0.5.ckpt"}


def test_mu_past_the_tags_digits_retrains_the_classifier(pipeline_run, tmp_path, monkeypatch):
    cfg, first = pipeline_run
    workdir = tmp_path / "work"
    shutil.copytree(first.extractor_ckpt.parent, workdir)
    run_pipeline(dataclasses.replace(cfg, workdir=str(workdir), noise_grid=((-9.0, 5.0),)))
    changed = dataclasses.replace(cfg, workdir=str(workdir), noise_grid=((-9.0000001, 5.0),))
    assert _checkpoints_saved(monkeypatch, changed) == {"classifier_mu-9_sigma5_ratio0.5.ckpt"}


def _count_reads(monkeypatch) -> collections.Counter:
    """Counts, by file name, the CSVs the pipeline parses from now on."""
    reads = collections.Counter()
    for name in ("read_dataset", "read_latents"):
        real = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name,
                            lambda path, real=real: reads.update([Path(path).name]) or real(path))
    return reads


def _same_outputs(workdir: Path, reference: Path) -> None:
    """Every file but run.json is in both directories with the same bytes."""
    names = sorted(p.name for p in reference.iterdir() if p.name != "run.json")
    assert sorted(p.name for p in workdir.iterdir() if p.name != "run.json") == names
    for name in names:
        assert filecmp.cmp(workdir / name, reference / name, shallow=False), name


NEW_GRID = ((0.0, 1.0), (-9.0, 5.0))


def test_new_noise_setting_reads_only_test_csv(pipeline_run, tmp_path, monkeypatch):
    cfg, first = pipeline_run
    workdir = tmp_path / "work"
    shutil.copytree(first.extractor_ckpt.parent, workdir)
    latents_mtime = (workdir / "train_latents.csv").stat().st_mtime_ns
    reads = _count_reads(monkeypatch)
    run_pipeline(dataclasses.replace(cfg, workdir=str(workdir), noise_grid=NEW_GRID))
    # the new classifier trains on latents read back from train_latents.csv
    assert reads == {"test.csv": 1, "train_latents.csv": 1}
    assert (workdir / "train_latents.csv").stat().st_mtime_ns == latents_mtime
    monkeypatch.undo()
    run_pipeline(dataclasses.replace(cfg, workdir=str(tmp_path / "fresh"), noise_grid=NEW_GRID))
    _same_outputs(workdir, tmp_path / "fresh")


def _alter_one_latent(workdir: Path) -> None:
    path = workdir / "train_latents.csv"
    header, row, *rest = path.read_text().splitlines(keepends=True)
    first, tail = row.split(",", 1)
    path.write_text("".join([header, repr(float(first) + 1.0) + "," + tail, *rest]))


def _run_record_naming_another_extractor(workdir: Path) -> None:
    path = workdir / "run.json"
    record = json.loads(path.read_text())
    record["extractor_sha256"] = "0" * 64
    path.write_text(json.dumps(record))


UNTRUSTED_LATENTS = {
    "latent-altered": _alter_one_latent,
    "latents-deleted": lambda w: (w / "train_latents.csv").unlink(),
    "run-json-missing": lambda w: (w / "run.json").unlink(),
    "run-json-invalid": lambda w: (w / "run.json").write_text("{not json"),
    "run-json-list": lambda w: (w / "run.json").write_text("[]"),
    "run-json-too-deep": lambda w: (w / "run.json").write_text("[" * 100_000),
    "run-json-other-extractor": _run_record_naming_another_extractor,
}


@pytest.mark.parametrize("spoil", UNTRUSTED_LATENTS.values(), ids=UNTRUSTED_LATENTS.keys())
def test_untrusted_latents_are_encoded_again(pipeline_run, tmp_path, monkeypatch, spoil):
    cfg, first = pipeline_run
    reference = first.extractor_ckpt.parent
    workdir = tmp_path / "work"
    shutil.copytree(reference, workdir)
    spoil(workdir)
    reads = _count_reads(monkeypatch)
    run_pipeline(dataclasses.replace(cfg, workdir=str(workdir)))
    assert reads == {"train.csv": 1, "test.csv": 1}
    _same_outputs(workdir, reference)
    assert json.loads((workdir / "run.json").read_text()) == {
        "extractor_sha256": pipeline._sha256(workdir / "extractor.ckpt"),
        "train_latents_sha256": pipeline._sha256(workdir / "train_latents.csv")}


def test_run_json_holds_the_extractor_digest_when_trained_and_when_reused(
        tiny_corpus, tmp_path, monkeypatch):
    hashed = collections.Counter()
    real = pipeline._sha256
    monkeypatch.setattr(pipeline, "_sha256",
                        lambda path: hashed.update([Path(path).name]) or real(path))
    cfg = tiny_pipeline_config(tmp_path / "work", *tiny_corpus)
    for _ in ("trained", "reused"):
        result = run_pipeline(cfg)
        record = json.loads((result.extractor_ckpt.parent / "run.json").read_text())
        assert record["extractor_sha256"] == real(result.extractor_ckpt)
    # checkpoint digests come from the bytes the pipeline already wrote or read
    assert not any(name.endswith(".ckpt") for name in hashed)


def test_pipeline_deterministic_across_fresh_workdirs(tiny_corpus, tmp_path):
    train_csv, test_csv = tiny_corpus
    results = []
    for sub in ("a", "b"):
        cfg = tiny_pipeline_config(tmp_path / sub, train_csv, test_csv)
        results.append(run_pipeline(cfg))
    a, b = results
    assert filecmp.cmp(a.extractor_ckpt, b.extractor_ckpt, shallow=False)
    assert filecmp.cmp(a.flow_ckpt, b.flow_ckpt, shallow=False)
    for key in a.classifier_ckpts:
        assert filecmp.cmp(a.classifier_ckpts[key], b.classifier_ckpts[key],
                           shallow=False)
    assert a.best.auroc == b.best.auroc
    assert a.reports == b.reports


def test_pipeline_rejects_labeled_anomaly_in_training(tiny_corpus, tmp_path):
    train_csv, test_csv = tiny_corpus
    packets = read_dataset(test_csv)  # contains labeled anomalies
    bad_csv = tmp_path / "bad_train.csv"
    write_dataset(packets, bad_csv)
    cfg = tiny_pipeline_config(tmp_path / "w", bad_csv, test_csv)
    with pytest.raises(AnomalyInTrainingSet) as exc:
        run_pipeline(cfg)
    assert getattr(exc.value, "stage", None) == "load-train"


def test_inference_engine_touches_only_two_tables(pipeline_run):
    cfg, result = pipeline_run
    clf_path = next(iter(result.classifier_ckpts.values()))
    engine = InferenceEngine.from_checkpoint_files(result.extractor_ckpt, clf_path)
    assert engine.loaded_tables
    for name in engine.loaded_tables:
        assert name.startswith(("encoder.", "classifier."))
    # nothing from the decoder, discriminator, or flow was materialized
    forbidden = ("decoder.", "discriminator.", "flow.")
    assert not any(name.startswith(forbidden) for name in engine.loaded_tables)


def test_inference_param_count_below_training_total(pipeline_run):
    cfg, result = pipeline_run
    clf_path = next(iter(result.classifier_ckpts.values()))
    engine = InferenceEngine.from_checkpoint_files(result.extractor_ckpt, clf_path)
    training_total = (load_checkpoint(result.extractor_ckpt).parameter_count
                      + load_checkpoint(result.flow_ckpt).parameter_count
                      + load_checkpoint(clf_path).parameter_count)
    assert engine.parameter_count < training_total


def test_infer_deterministic_and_labels_passthrough(pipeline_run, tiny_corpus):
    cfg, result = pipeline_run
    _, test_csv = tiny_corpus
    packets = read_dataset(test_csv)
    clf_path = next(iter(result.classifier_ckpts.values()))
    a = infer(result.extractor_ckpt, clf_path, packets)
    b = infer(result.extractor_ckpt, clf_path, packets)
    assert a == b
    assert [s.label for s in a] == [p.label for p in packets]
    assert [s.source_id for s in a] == [p.source_id for p in packets]


def test_pipeline_scores_are_the_bytes_flowgate_infer_writes(pipeline_run, tiny_corpus,
                                                              tmp_path):
    cfg, result = pipeline_run
    _, test_csv = tiny_corpus
    for (mu, sigma), clf_path in result.classifier_ckpts.items():
        out = tmp_path / f"{clf_path.stem}.csv"
        assert cli_main(["infer", "--extractor", str(result.extractor_ckpt),
                         "--classifier", str(clf_path), "--data", str(test_csv),
                         "--scores-out", str(out)]) == 0
        tag = pipeline._noise_tag(mu, sigma, cfg.ratio)
        assert out.read_bytes() == (Path(cfg.workdir) / f"scores_{tag}.csv").read_bytes()


# the last non-zero byte of each zero-tailed packet of `default_engine`: none
# (all zero), then each side of every cut of `extractor.SCORE_WIDTHS`
LAST_NONZERO = (None, 383, 384, 767, 768, 1151, 1152, 1599)


@pytest.fixture(scope="module")
def default_engine():
    """An engine of default widths, drawn at random, 2,000 random packets, and
    after them one zero-tailed packet per entry of `LAST_NONZERO`."""
    engine = InferenceEngine(FeatureExtractor.create(ExtractorConfig(), 1).encoder,
                             ClassifierModel.create(ClassifierConfig(), 2), ())
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 256, (2000, VECTOR_LEN), dtype=np.uint8)
    tailed = rng.integers(1, 256, (len(LAST_NONZERO), VECTOR_LEN), dtype=np.uint8)
    for row, last in zip(tailed, LAST_NONZERO):
        row[0 if last is None else last + 1:] = 0
    packets = [EncodedPacket(row.tobytes(), None, ("random", i))
               for i, row in enumerate(np.concatenate([codes, tailed]))]
    return engine, packets


def test_a_packets_score_does_not_depend_on_its_batch(default_engine):
    engine, packets = default_engine
    whole = [s.score for s in engine.score_packets(packets)]
    for lo in (0, 333, 1999):
        assert [s.score for s in engine.score_packets(packets[lo:lo + 1])] == whole[lo:lo + 1]
    lo = 333
    for size in (17, 64, 65, 300):
        batch = engine.score_packets(packets[lo:lo + size])
        # float equality is bit equality for scores in (0, 1)
        assert [s.score for s in batch] == whole[lo:lo + size], size
        assert [s.source_id for s in batch] == [p.source_id for p in packets[lo:lo + size]]
    assert engine.score_packets([]) == []


def test_a_zero_tailed_packets_score_does_not_depend_on_its_batch(default_engine):
    engine, packets = default_engine
    tailed = packets[2000:]
    assert [score_width(p.codes) for p in tailed] == [
        384, 384, 768, 768, 1152, 1152, 1600, 1600]
    whole = {p.source_id: s.score for p, s in zip(packets, engine.score_packets(packets))}
    for packet in tailed:
        assert engine.score_packets([packet])[0].score == whole[packet.source_id]
    # every group at several positions among full-length packets, in two orders
    mixed = packets[:40] + tailed + packets[40:300] + tailed[::-1] + packets[300:301]
    for batch in (mixed, mixed[::-1]):
        assert [(s.source_id, s.score) for s in engine.score_packets(batch)] == [
            (p.source_id, whole[p.source_id]) for p in batch]


def test_narrowed_latents_are_the_full_width_encoders(default_engine):
    engine, packets = default_engine
    encoder = engine.encoder
    assert encoder.narrowed(VECTOR_LEN) is encoder
    narrow = encoder.narrowed(384)
    assert narrow.widths == [384] + encoder.widths[1:]
    assert np.shares_memory(narrow.layers[0].weights.data, encoder.layers[0].weights.data)
    assert narrow.layers[0].bias is encoder.layers[0].bias
    assert narrow.layers[1:] == encoder.layers[1:]
    batch = packets[1990:]  # ten full-length packets and every zero-tailed one
    full = encoder.eval_np(values_matrix(batch))
    # a tolerance, not equality: how the sum is blocked is up to the BLAS
    np.testing.assert_allclose(encode_codes(encoder, [p.codes for p in batch]), full,
                               rtol=0, atol=1e-12)


def test_training_latents_are_the_latents_the_engine_scores(default_engine, monkeypatch):
    engine, packets = default_engine
    batch = packets[1990:]  # ten full-length packets and every zero-tailed one
    seen, score = [], engine.classifier.score

    def recording_score(latents):
        seen.append(latents.copy())
        return score(latents)
    monkeypatch.setattr(engine.classifier, "score", recording_score)
    engine.score_packets(batch)
    (latents,) = seen
    # a uint8 matrix, as training holds its set, and the packets' bytes
    np.testing.assert_array_equal(encode_codes(engine.encoder, codes_matrix(batch)), latents)
    for i, packet in enumerate(batch):  # each alone, so each width group alone
        np.testing.assert_array_equal(encode_codes(engine.encoder, [packet.codes])[0],
                                      latents[i])


def test_scoring_memory_is_bounded_by_the_block_not_the_batch(default_engine):
    engine, packets = default_engine
    engine.score_packets(packets[:1])  # numpy's and BLAS's first-call setup
    tracemalloc.start()
    try:
        scored = engine.score_packets(packets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scored) == len(packets)
    # one block of values and its activations, and the latents twice (a width
    # group's and the batch's). Holding every packet's values at once (25.7 MB)
    # or their codes (3.2 MB) goes past it
    block = nn.EVAL_BLOCK * VECTOR_LEN * 8
    latents = len(packets) * engine.encoder.widths[-1] * 8
    assert peak < 2 * block + 2 * latents


def test_infer_checkpoint_dim_mismatch(pipeline_run, tmp_path, tiny_corpus):
    import flowgate.classifier as clf_mod
    from flowgate.checkpoint import save_checkpoint
    cfg, result = pipeline_run
    rng = np.random.default_rng(0)
    # classifier trained for a different latent dim
    other = clf_mod.train_classifier(
        rng.standard_normal((20, 9)), rng.standard_normal((10, 9)) + 5,
        clf_mod.ClassifierConfig(widths=(9, 4, 1), epochs=1), seed=0)
    bad_path = tmp_path / "clf9.ckpt"
    save_checkpoint(bad_path, other)
    with pytest.raises(CheckpointMismatch):
        InferenceEngine.from_checkpoint_files(result.extractor_ckpt, bad_path)


def test_ratio_ablation_completes_and_tabulates(tiny_corpus, tmp_path):
    train_csv, test_csv = tiny_corpus
    cfg = tiny_pipeline_config(tmp_path / "w", train_csv, test_csv)
    table, results = ratio_ablation(cfg, ratios=[0.5, 1.0, 2.0])
    assert set(results) == {0.5, 1.0, 2.0}
    assert "ratio=0.5" in table and "ratio=1" in table and "ratio=2" in table
    assert (tmp_path / "w" / "ratio_ablation.txt").exists()
    for r, res in results.items():
        for report in res.reports.values():
            assert 0.0 <= report.auroc <= 1.0


@pytest.mark.parametrize("run", [repeat_pipeline, ratio_ablation],
                         ids=["seeds", "ratios"])
def test_an_empty_seed_or_ratio_list_is_refused_before_anything_is_written(
        run, tiny_corpus, tmp_path):
    # a summary of no runs would read a NaN mean, or a table with no column
    train_csv, test_csv = tiny_corpus
    cfg = tiny_pipeline_config(tmp_path / "w", train_csv, test_csv)
    with pytest.raises(BadConfig, match="at least one"):
        run(cfg, [])
    assert not (tmp_path / "w").exists()


def test_unlabeled_inference_report_absent(pipeline_run, tiny_corpus, tmp_path):
    cfg, result = pipeline_run
    _, test_csv = tiny_corpus
    packets = read_dataset(test_csv)
    stripped = [dataclasses.replace(p, label=None) for p in packets[:10]]
    clf_path = next(iter(result.classifier_ckpts.values()))
    scored = infer(result.extractor_ckpt, clf_path, stripped)
    assert len(scored) == 10
    assert all(s.label is None for s in scored)


def test_pipeline_from_captures_writes_the_csvs_preprocess_writes(tmp_path):
    rng = np.random.default_rng(12)
    dropped = [udp_frame(payload=b"q", dport=53), tcp_frame(payload=b"")]
    captures = {"train/a.pcap": [synthetic_frame(rng, False) for _ in range(40)] + dropped,
                "train/b.pcap": [synthetic_frame(rng, False) for _ in range(40)],
                "normal.pcap": [synthetic_frame(rng, False) for _ in range(20)] + dropped,
                "anomaly.pcap": [synthetic_frame(rng, True) for _ in range(20)]}
    (tmp_path / "train").mkdir()
    for name, frames in captures.items():
        (tmp_path / name).write_bytes(pcap_bytes(frames))
    workdir = tmp_path / "work"
    run_pipeline(tiny_pipeline_config(
        workdir, None, None, train_pcap=str(tmp_path / "train"),
        test_normal_pcap=str(tmp_path / "normal.pcap"),
        test_anomaly_pcap=str(tmp_path / "anomaly.pcap"), epochs=1))
    for source, label in (("train", "0"), ("normal.pcap", "0"), ("anomaly.pcap", "1")):
        assert cli_main(["preprocess", "--in", str(tmp_path / source),
                         "--out", str(tmp_path / f"{source}.csv"), "--label", label]) == 0
    assert (workdir / "train.csv").read_bytes() == (tmp_path / "train.csv").read_bytes()
    _, anomaly_rows = (tmp_path / "anomaly.pcap.csv").read_bytes().split(b"\n", 1)
    assert (workdir / "test.csv").read_bytes() == (
        (tmp_path / "normal.pcap.csv").read_bytes() + anomaly_rows)
    assert len(read_dataset(workdir / "test.csv")) == 40


@pytest.mark.parametrize("grid", [(), ((0.0,),), ((0.0, 1.0, 2.0),), (0.0, 1.0),
                                  (("a", "b"),), ((0.0, None),), ((-1e4, 5.0),)],
                         ids=["empty", "one-number", "three-numbers", "flat", "strings",
                              "none", "mu-past-max-noise"])
def test_a_malformed_noise_grid_is_refused_before_any_stage(tmp_path, grid):
    # an empty grid used to train two stages and then fail on max() of no AUROCs
    missing = tmp_path / "missing.csv"
    with pytest.raises(BadConfig, match="noise_grid"):
        tiny_pipeline_config(tmp_path / "w", missing, missing, noise_grid=grid)
