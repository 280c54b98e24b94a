"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion lines.
The heavy fixtures (trained toy flow, desk-scale pipeline run) are shared
across criteria, so the whole module runs end to end well inside its budgets.
"""
import filecmp
import math
import time

import numpy as np
import pytest

from flowgate import nn
from flowgate.classifier import ClassifierConfig, ClassifierModel, train_classifier
from flowgate.corpus import make_synthetic_corpus
from flowgate.dataset import write_dataset
from flowgate.extractor import (
    ExtractorConfig, FeatureExtractor, discriminator_objective, train_extractor,
)
from flowgate.flow import FlowConfig, FlowModel, nll_t, train_flow
from flowgate.metrics import auroc
from flowgate.nn import GradTape, Tensor
from flowgate.packets import DropReason, encode_frame, strip_link_layer
from flowgate.pipeline import InferenceEngine, PipelineConfig, ratio_ablation, run_pipeline
from flowgate.checkpoint import load_checkpoint, save_checkpoint
from crafting import ethernet, ipv4_header, tcp_header, udp_header, vlan_ethernet
from gradcheck import max_rel_error, numeric_grad


# --- shared fixtures ---

@pytest.fixture(scope="module")
def toy_flow():
    """Flow trained on 5,000 latents from a shifted, correlated 70-dim Gaussian."""
    rng = np.random.default_rng(424242)
    root = np.diag(rng.uniform(0.85, 1.3, size=70)) \
        + 0.05 * rng.standard_normal((70, 70))
    shift = rng.uniform(-0.5, 0.5, size=70)
    data = rng.standard_normal((5000, 70)) @ root.T + shift
    cfg = FlowConfig(lr=3e-4)
    model = FlowModel.create(cfg, seed=99)
    start = time.perf_counter()
    train_flow(model, data, cfg, seed=99)
    elapsed = time.perf_counter() - start
    return model, data, elapsed


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """Criterion 7 configuration: 10,000 normal train, 1,000 + 1,000 test."""
    root = tmp_path_factory.mktemp("desk")
    start = time.perf_counter()
    normals, anomalies = make_synthetic_corpus(seed=11, n_normal=11000,
                                               n_anomaly=1000)
    train_csv = root / "train.csv"
    test_csv = root / "test.csv"
    write_dataset(normals[:10000], train_csv)
    write_dataset(normals[10000:] + anomalies, test_csv)
    cfg = PipelineConfig(workdir=str(root / "work"), train_csv=str(train_csv),
                         test_csv=str(test_csv), seed=5)
    result = run_pipeline(cfg)
    elapsed = time.perf_counter() - start
    return cfg, result, elapsed


# --- criteria ---

def test_criterion_01_flow_invertibility(toy_flow):
    model, _, _ = toy_flow
    rng = np.random.default_rng(1)
    z = rng.standard_normal((1000, 70))
    start = time.perf_counter()
    c, _ = model.normalize(z)
    back = model.generate(c)
    elapsed = time.perf_counter() - start
    err = np.abs(back - z).max()
    assert err < 1e-8
    assert elapsed < 10.0
    print(f"[criterion 1] PASS invertibility: max error {err:.2e} "
          f"over 1000 vectors in {elapsed:.2f}s")


def test_criterion_02_log_det_correctness():
    start = time.perf_counter()
    worst = 0.0
    for dim in (2, 4, 8):
        rng = np.random.default_rng(1000 + dim)
        for _ in range(20):
            cfg = FlowConfig(dim=dim, blocks=4, hidden=8)
            model = FlowModel.create(cfg, seed=int(rng.integers(1 << 30)))
            for p in model.params:
                if p.data.ndim == 2:
                    limit = math.sqrt(6.0 / sum(p.data.shape))
                    p.data = rng.uniform(-limit, limit, size=p.data.shape)
                else:
                    p.data = rng.uniform(-0.1, 0.1, size=p.data.shape)
            z = rng.standard_normal(dim)
            analytic = model.normalize(z[None])[1][0]
            h = 1e-5
            jac = np.zeros((dim, dim))
            for j in range(dim):
                zp, zm = z.copy(), z.copy()
                zp[j] += h
                zm[j] -= h
                jac[:, j] = (model.normalize(zp[None])[0][0]
                             - model.normalize(zm[None])[0][0]) / (2 * h)
            sign, numeric = np.linalg.slogdet(jac)
            assert sign != 0
            rel = abs(analytic - numeric) / max(abs(numeric), 1e-12)
            worst = max(worst, rel)
            assert rel < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"[criterion 2] PASS log-det vs numeric Jacobian: "
          f"worst rel error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_03_gradient_checks():
    start = time.perf_counter()
    worst = 0.0

    def check(loss_value, tape_loss_fn, params):
        nonlocal worst
        with GradTape() as tape:
            loss = tape_loss_fn()
        grads = nn.backward(tape, loss)
        for p in params:
            num = numeric_grad(loss_value, p.data)
            rel = max_rel_error(grads.get(p, np.zeros_like(p.data)), num)
            worst = max(worst, rel)
            assert rel < 1e-4

    # extractor toy: generator and discriminator objectives
    rng = np.random.default_rng(42)
    ext_cfg = ExtractorConfig(input_dim=8, latent_dim=3,
                              encoder_widths=(8, 6, 3), disc_widths=(8, 5, 1))
    ext = FeatureExtractor.create(ext_cfg, seed=42)
    x = rng.uniform(0.0, 1.0, size=(3, 8))
    check(lambda: ext.generator_loss(x),
          lambda: ext._generator_loss_t(Tensor(x)), ext.generator_params)
    x_hat = ext.decoder.eval_np(ext.encoder.eval_np(x))
    check(lambda: discriminator_objective(Tensor(ext.discriminator.eval_np(x)),
                                          Tensor(ext.discriminator.eval_np(x_hat))).item(),
          lambda: discriminator_objective(ext.discriminator(Tensor(x)),
                                          ext.discriminator(Tensor(x_hat))),
          ext.discriminator_params)

    # flow subnets through the NLL
    flow_cfg = FlowConfig(dim=4, blocks=2, hidden=6)
    flow = FlowModel.create(flow_cfg, seed=7)
    for p in flow.params:
        if p.data.ndim == 2:
            limit = math.sqrt(6.0 / sum(p.data.shape))
            p.data = rng.uniform(-limit, limit, size=p.data.shape)
        else:
            p.data = rng.uniform(-0.1, 0.1, size=p.data.shape)
    batch = rng.standard_normal((3, 4))
    check(lambda: nll_t(flow, Tensor(batch)).item(),
          lambda: nll_t(flow, Tensor(batch)), flow.params)

    # classifier through binary cross-entropy
    clf = ClassifierModel.create(ClassifierConfig(widths=(10, 8, 4, 1)), seed=3)
    zb = rng.standard_normal((6, 10))
    targets = rng.integers(0, 2, size=(6, 1)).astype(float)
    check(lambda: nn.bce(clf.net(Tensor(zb)), Tensor(targets)).item(),
          lambda: nn.bce(clf.net(Tensor(zb)), Tensor(targets)), clf.params)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"[criterion 3] PASS gradient checks (extractor, flow, classifier): "
          f"worst rel error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_04_flow_normalization_quality(toy_flow):
    model, data, elapsed = toy_flow
    assert elapsed < 300.0
    c, _ = model.normalize(data)
    mean_max = np.abs(c.mean(axis=0)).max()
    var_min, var_max = c.var(axis=0).min(), c.var(axis=0).max()
    assert mean_max <= 0.2
    assert 0.7 <= var_min and var_max <= 1.3
    print(f"[criterion 4] PASS normalization quality: |mean| <= {mean_max:.3f}, "
          f"var in [{var_min:.3f}, {var_max:.3f}], trained in {elapsed:.0f}s")


def test_criterion_05_auroc_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 6, size=n) / 5.0  # coarse grid forces ties
        fast = auroc(zip(scores, labels))
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        slow = float((np.sum(pos[:, None] > neg[None, :])
                      + 0.5 * np.sum(pos[:, None] == neg[None, :]))
                     / (pos.size * neg.size))
        assert fast == slow, f"instance {trial}: {fast} != {slow}"
    print("[criterion 5] PASS rank-sum AUROC equals brute-force pair counting "
          "exactly on 100 tie-heavy instances")


def test_criterion_06_preprocessing_golden():
    # DNS over UDP: dropped with the DNS reason
    dns = encode_frame(ethernet(
        ipv4_header(proto=17, payload_len=13) + udp_header(5353, 53, 5) + b"query"))
    assert dns is DropReason.DNS

    # ARP frame: dropped at the link layer
    arp = strip_link_layer(ethernet(bytes(28), ethertype=0x0806))
    assert arp is DropReason.ARP

    # TCP without payload: dropped as a control segment
    ctl = encode_frame(ethernet(ipv4_header(proto=6, payload_len=20) + tcp_header(flags=0x12)))
    assert ctl is DropReason.TCP_CONTROL

    # VLAN-tagged TCP with payload: kept, vector is byte-exact
    payload = b"tagged payload bytes"
    ip = ipv4_header(proto=6, payload_len=20 + len(payload),
                     src=b"\xc0\xa8\x01\x02", dst=b"\x0a\x00\x00\x09")
    tcp = tcp_header(sport=443, dport=51000)
    frame = vlan_ethernet(ip + tcp + payload)
    encoded = encode_frame(frame, source_id=("golden", 0))
    expected = bytearray(1600)
    anon_ip = bytearray(ip)
    anon_ip[10:12] = b"\x00\x00"   # checksum
    anon_ip[12:20] = bytes(8)      # addresses
    expected[0:20] = anon_ip
    expected[60:80] = tcp
    expected[120:120 + len(payload)] = payload
    np.testing.assert_array_equal(
        encoded.values, np.frombuffer(bytes(expected), dtype=np.uint8) / 255.0)

    # UDP: its 8-byte header sits at the start of the 60-byte transport slot
    payload = b"udp data"
    ip = ipv4_header(proto=17, payload_len=8 + len(payload))
    udp = udp_header(5000, 6000, len(payload))
    encoded = encode_frame(ethernet(ip + udp + payload))
    expected = bytearray(1600)
    anon_ip = bytearray(ip)
    anon_ip[10:12] = b"\x00\x00"
    anon_ip[12:20] = bytes(8)
    expected[0:20] = anon_ip
    expected[60:68] = udp
    expected[120:120 + len(payload)] = payload
    np.testing.assert_array_equal(
        encoded.values, np.frombuffer(bytes(expected), dtype=np.uint8) / 255.0)

    # oversized payload: truncated to exactly 1600 total
    payload = bytes(range(256)) * 8  # 2048 bytes
    ip = ipv4_header(proto=6, payload_len=20 + len(payload))
    tcp = tcp_header(sport=8080, dport=50123)
    encoded = encode_frame(ethernet(ip + tcp + payload))
    expected = bytearray(1600)
    anon_ip = bytearray(ip)
    anon_ip[10:12] = b"\x00\x00"
    anon_ip[12:20] = bytes(8)
    expected[0:20] = anon_ip
    expected[60:80] = tcp
    expected[120:1600] = payload[:1480]
    assert encoded.values.shape == (1600,)
    np.testing.assert_array_equal(
        encoded.values, np.frombuffer(bytes(expected), dtype=np.uint8) / 255.0)

    print("[criterion 6] PASS preprocessing golden packets: DNS, ARP, "
          "control-TCP verdicts and byte-exact vectors for VLAN, UDP, oversized")


def test_criterion_07_end_to_end_desk_scale(desk_run):
    cfg, result, elapsed = desk_run
    assert set(cfg.noise_grid) == {(-9.0, 5.0), (-25.0, 5.0), (-100.0, 5.0),
                                   (0.0, 1.0)}
    assert result.best.n_pos == 1000 and result.best.n_neg == 1000
    assert result.best.auroc >= 0.85
    assert elapsed < 1800.0
    grid_summary = ", ".join(
        f"({mu:g},{sigma:g})={rep.auroc:.4f}"
        for (mu, sigma), rep in result.reports.items())
    print(f"[criterion 7] PASS desk-scale run in {elapsed / 60:.1f} min: "
          f"best AUROC {result.best.auroc:.4f} at {result.best_setting}; "
          f"grid {grid_summary}")


def test_criterion_08_ratio_ablation(desk_run):
    cfg, _, _ = desk_run
    ablation_cfg = PipelineConfig(**{**cfg.__dict__,
                                     "noise_grid": ((0.0, 1.0),)})
    table, results = ratio_ablation(ablation_cfg, ratios=[0.5, 1.0, 2.0])
    assert set(results) == {0.5, 1.0, 2.0}
    for ratio, res in results.items():
        for report in res.reports.values():
            assert 0.0 <= report.auroc <= 1.0
    assert "ratio=0.5" in table and "ratio=1" in table and "ratio=2" in table
    print("[criterion 8] PASS ratio ablation completed for 0.5/1.0/2.0; table:\n"
          + table.rstrip())


def test_criterion_09_stage_determinism(tmp_path):
    rng = np.random.default_rng(9)
    base = rng.uniform(0.2, 0.8, size=1600)
    rows = np.clip(base + 0.1 * rng.standard_normal((96, 1600)), 0.0, 1.0)
    ext_cfg = ExtractorConfig(latent_dim=16, encoder_widths=(1600, 64, 16),
                              disc_widths=(1600, 32, 16, 1), epochs=2)
    latents = rng.standard_normal((200, 16))
    flow_cfg = FlowConfig(dim=16, blocks=4, hidden=16, epochs=3)
    normal_z = rng.standard_normal((80, 16))
    pseudo_z = rng.standard_normal((40, 16)) + 4.0
    clf_cfg = ClassifierConfig(widths=(16, 8, 1), epochs=3)

    outputs = {}
    for run in ("a", "b"):
        ext = train_extractor(rows, ext_cfg, seed=31)
        save_checkpoint(tmp_path / f"ext_{run}.ckpt", ext)
        flow_model = FlowModel.create(flow_cfg, seed=32)
        flw = train_flow(flow_model, latents, flow_cfg, seed=32)
        save_checkpoint(tmp_path / f"flow_{run}.ckpt", flw)
        clf = train_classifier(normal_z, pseudo_z, clf_cfg, seed=33)
        save_checkpoint(tmp_path / f"clf_{run}.ckpt", clf)
        outputs[run] = True
    for stage in ("ext", "flow", "clf"):
        assert filecmp.cmp(tmp_path / f"{stage}_a.ckpt",
                           tmp_path / f"{stage}_b.ckpt", shallow=False), stage
    print("[criterion 9] PASS determinism: repeated extractor/flow/classifier "
          "training produced byte-identical checkpoints")


def test_criterion_10_two_module_inference(desk_run):
    cfg, result, _ = desk_run
    clf_path = result.classifier_ckpts[result.best_setting]
    engine = InferenceEngine.from_checkpoint_files(result.extractor_ckpt, clf_path)
    assert engine.loaded_tables
    assert all(name.startswith(("encoder.", "classifier."))
               for name in engine.loaded_tables)
    forbidden = ("decoder.", "discriminator.", "flow.")
    assert not any(name.startswith(forbidden) for name in engine.loaded_tables)
    training_total = (load_checkpoint(result.extractor_ckpt).parameter_count
                      + load_checkpoint(result.flow_ckpt).parameter_count
                      + load_checkpoint(clf_path).parameter_count)
    assert engine.parameter_count < training_total
    print(f"[criterion 10] PASS two-module inference: loaded only "
          f"{len(engine.loaded_tables)} encoder/classifier tables; "
          f"{engine.parameter_count:,} inference parameters vs "
          f"{training_total:,} total training parameters")
