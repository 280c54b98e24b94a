"""Every flowgate name the benchmark traces or compares still exists.

`perfbench/tracing.py` wraps flowgate functions and methods by module and
attribute name when it runs with `--trace 1`; a rename in flowgate would break
that mode. This reads the table only and never installs the wrappers.
`perfbench/measure.py` compares each capture's drop counts by reason name, and
reads the attributes of the packets, scores, counts, report and engine that a
scoring run returns.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_pipeline_config
from crafting import pcap_bytes, tcp_frame, udp_frame
from flowgate.dataset import read_dataset
from flowgate.metrics import evaluate
from flowgate.packets import VECTOR_LEN, Label, PreprocessStats, process_capture
from flowgate.pipeline import InferenceEngine, run_pipeline

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for module_name, attr, _, _ in module.TRACED]


@pytest.mark.parametrize("module_name, attr", _traced_names(),
                         ids=lambda v: v)
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        # `install` wraps the method found in the class's own namespace
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_drop_counts_carry_the_reason_names_the_benchmark_compares():
    # `check_capture` checks these keys against the drops it planted per reason
    assert set(PreprocessStats().dropped) == {"dns", "arp", "tcp_control", "unparseable"}


def test_a_scoring_run_hands_the_benchmark_every_attribute_it_reads(tiny_corpus, tmp_path):
    # `perfbench/measure.py`'s `Score` reads these from each capture and CSV
    # operation, and `tracing.py` counts `process_capture`'s (packets, stats)
    train_csv, test_csv = tiny_corpus
    result = run_pipeline(tiny_pipeline_config(tmp_path / "w", train_csv, test_csv, epochs=1))
    engine = InferenceEngine.from_checkpoint_files(
        result.extractor_ckpt, result.classifier_ckpts[(0.0, 1.0)])
    packets, stats = [], {}
    for name, label in (("normal", Label.NORMAL), ("anomaly", Label.ANOMALY)):
        path = tmp_path / f"{name}.pcap"
        path.write_bytes(pcap_bytes([tcp_frame(payload=name.encode() * 9), udp_frame(dport=53),
                                     udp_frame(payload=b"u" * 30)]))
        out = process_capture(path, label=label)
        kept, stats[name] = out[0], out[1]
        packets += kept
    packets += read_dataset(test_csv)[:3]
    scored = engine.score_packets(packets)
    report = evaluate(scored)

    assert isinstance(report.auroc, float) and 0.0 <= report.auroc <= 1.0
    scores = np.array([s.score for s in scored])
    assert scores.dtype == np.float64 and scores.shape == (len(packets),)
    labels = np.array([s.label.value for s in scored])
    assert labels.tolist() == [0, 0, 1, 1] + [p.label.value for p in packets[4:]]
    for p in packets:
        assert isinstance(p.codes, bytes) and len(p.codes) == VECTOR_LEN
    values = np.stack([packets[j].values for j in (0, 3, 4)])
    assert values.dtype == np.float64 and values.shape == (3, VECTOR_LEN)
    for s in stats.values():
        assert {"seen": s.seen, "kept": s.kept, **s.dropped} == {
            "seen": 3, "kept": 2, "dns": 1, "arp": 0, "tcp_control": 0, "unparseable": 0}
    assert sorted(engine.loaded_tables)
    assert all(name.startswith(("encoder.", "classifier.")) for name in engine.loaded_tables)
