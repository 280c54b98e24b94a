import hashlib
import re
import struct

import numpy as np
import pytest

from flowgate.checkpoint import (
    Checkpoint, MAGIC, STAGE_CLASSIFIER, STAGE_EXTRACTOR, STAGE_FLOW,
    config_fingerprint, load_checkpoint, matches, save_checkpoint,
)
from flowgate.classifier import (
    ClassifierConfig, classifier_from_checkpoint, train_classifier,
)
from flowgate.errors import CheckpointMismatch, FlowgateError, IoFailure
from flowgate.extractor import (
    ExtractorConfig, encoder_from_checkpoint, extractor_from_checkpoint, train_extractor,
)
from flowgate.flow import FlowConfig, FlowModel, flow_from_checkpoint, train_flow
from crafting import checkpoint_with_header, checkpoint_with_nested_header


def sample_checkpoint(stage=STAGE_FLOW, seed=3):
    rng = np.random.default_rng(0)
    tensors = {
        "flow.block0.s.0.W": rng.standard_normal((4, 3)),
        "flow.block0.s.0.b": rng.standard_normal(4),
        "flow.block0.t.0.W": rng.standard_normal((4, 3)),
    }
    return Checkpoint(stage=stage, seed=seed,
                      config_fingerprint=config_fingerprint({"dim": 3}),
                      tensors=tensors, meta={"dim": 3, "note": "test"})


def test_round_trip_bit_exact(tmp_path):
    ckpt = sample_checkpoint()
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    assert back.stage == ckpt.stage
    assert back.seed == ckpt.seed
    assert back.config_fingerprint == ckpt.config_fingerprint
    assert back.meta == ckpt.meta
    assert set(back.tensors) == set(ckpt.tensors)
    for name in ckpt.tensors:
        np.testing.assert_array_equal(back.tensors[name], ckpt.tensors[name])


def test_save_is_deterministic(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, sample_checkpoint())
    save_checkpoint(b, sample_checkpoint())
    assert a.read_bytes() == b.read_bytes()


def test_save_and_load_give_the_sha256_of_the_file(tmp_path):
    path = tmp_path / "x.ckpt"
    digest = save_checkpoint(path, sample_checkpoint())
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert load_checkpoint(path).sha256 == digest
    assert load_checkpoint(path, include=("flow.block0.s",)).sha256 == digest


def test_magic_verified(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, sample_checkpoint())
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointMismatch):
        load_checkpoint(path)


def test_stage_verified(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, sample_checkpoint(stage=STAGE_FLOW))
    with pytest.raises(CheckpointMismatch):
        load_checkpoint(path, expect_stage=STAGE_EXTRACTOR)


def test_shape_table_verified(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, sample_checkpoint())
    data = path.read_bytes()
    path.write_bytes(data[:-8])  # drop one float from the payload
    with pytest.raises(CheckpointMismatch):
        load_checkpoint(path)


def test_include_filters_tables(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, sample_checkpoint())
    back = load_checkpoint(path, include=("flow.block0.s.",))
    assert set(back.tensors) == {"flow.block0.s.0.W", "flow.block0.s.0.b"}
    # availability still reflects the whole file
    assert set(back.available) == {"flow.block0.s.0.W", "flow.block0.s.0.b",
                                   "flow.block0.t.0.W"}
    full = load_checkpoint(path)
    np.testing.assert_array_equal(back.tensors["flow.block0.s.0.W"],
                                  full.tensors["flow.block0.s.0.W"])


def test_unknown_stage_rejected():
    with pytest.raises(CheckpointMismatch):
        Checkpoint(stage="BOGUS", seed=0, config_fingerprint="", tensors={})


def test_matches_helper(tmp_path):
    ckpt = sample_checkpoint(seed=3)
    fp = ckpt.config_fingerprint
    assert matches(ckpt, STAGE_FLOW, fp, 3)
    assert not matches(ckpt, STAGE_CLASSIFIER, fp, 3)
    assert not matches(ckpt, STAGE_FLOW, fp, 4)
    assert not matches(ckpt, STAGE_FLOW, "other", 3)


def test_missing_file_raises_io():
    with pytest.raises(IoFailure):
        load_checkpoint("/nonexistent/path.ckpt")


def test_fingerprint_canonical():
    assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint({"b": 2, "a": 1})
    assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})


def test_magic_literal(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, sample_checkpoint())
    assert path.read_bytes()[:9] == MAGIC == b"FLOWGATE1"


def test_saved_bytes_for_a_fixed_seed_unchanged(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, sample_checkpoint())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "974faf9dc817733df89f9188c9853f5a48cdb96aabc985543c9d582da97a6252")


def test_every_truncation_raises_mismatch(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, sample_checkpoint())
    raw = path.read_bytes()
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(path)


def test_failed_save_keeps_the_previous_file(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, sample_checkpoint())
    before = path.read_bytes()
    broken = sample_checkpoint()
    broken.tensors["flow.block0.t.0.W"] = np.array(["not a number"])
    with pytest.raises(ValueError):
        save_checkpoint(path, broken)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_payload_raises_mismatch(tmp_path, bad):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, sample_checkpoint())
    # the payload's last value belongs to the last table in name order
    path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", bad))
    with pytest.raises(CheckpointMismatch, match="flow.block0.t.0.W"):
        load_checkpoint(path)
    # only materialized tables are checked
    assert set(load_checkpoint(path, include=("flow.block0.s.",)).tensors) == {
        "flow.block0.s.0.W", "flow.block0.s.0.b"}


def _without(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


def _with(key, value):
    return lambda h: {**h, key: value}


def _first_entry(entry):
    return lambda h: {**h, "tensors": [entry(h["tensors"][0])] + h["tensors"][1:]}


MALFORMED_HEADERS = {
    "not-an-object": lambda h: [1, 2],
    "no-seed": _without("seed"),
    "seed-string": _with("seed", "a"),
    "seed-bool": _with("seed", True),
    "no-fingerprint": _without("config_fingerprint"),
    "fingerprint-number": _with("config_fingerprint", 5),
    "no-meta": _without("meta"),
    "meta-list": _with("meta", []),
    "no-tensors": _without("tensors"),
    "tensors-number": _with("tensors", 5),
    "entry-three-elements": _first_entry(lambda e: e + ["x"]),
    "entry-name-number": _first_entry(lambda e: [7, e[1]]),
    "entry-shape-number": _first_entry(lambda e: [e[0], 12]),
    "entry-shape-negative": _first_entry(lambda e: [e[0], [-e[1][0], e[1][1]]]),
    "entry-shape-float": _first_entry(lambda e: [e[0], [float(e[1][0]), e[1][1]]]),
    "entry-shape-huge-zero-size": _first_entry(lambda e: [e[0], [0, 2 ** 63]]),
}


@pytest.mark.parametrize("edit", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
def test_malformed_header_raises_mismatch_naming_the_path(tmp_path, edit):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, sample_checkpoint())
    path.write_bytes(checkpoint_with_header(path.read_bytes(), edit))
    with pytest.raises(CheckpointMismatch, match=re.escape(str(path))):
        load_checkpoint(path)


def test_a_header_nested_too_deep_raises_mismatch_naming_the_path(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, sample_checkpoint())
    path.write_bytes(checkpoint_with_nested_header(path.read_bytes()))
    with pytest.raises(CheckpointMismatch, match=re.escape(f"{path}: corrupt header")):
        load_checkpoint(path)


HEADER_FUZZ_BYTES = np.frombuffer(b'{}[]",:-.0159aetx \\', dtype=np.uint8)


def mutate_header(rng, raw: bytes) -> bytes:
    """Replace, delete or repeat a few bytes of a checkpoint's JSON header; the
    length field follows the header, except now and then."""
    (length,) = struct.unpack_from("<I", raw, 10)
    head = bytearray(raw[14:14 + length])
    for _ in range(int(rng.integers(1, 4))):
        pos = int(rng.integers(0, len(head)))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            head[pos] = int(rng.choice(HEADER_FUZZ_BYTES))
        elif kind == 1:
            del head[pos:pos + int(rng.integers(1, 8))]
        else:
            head[pos:pos] = head[pos:pos + int(rng.integers(1, 8))]
    new_length = length if rng.random() < 0.1 else len(head)
    return raw[:10] + struct.pack("<I", new_length) + bytes(head) + raw[14 + length:]


def test_mutated_headers_raise_only_flowgate_errors(tmp_path):
    original = tmp_path / "x.ckpt"
    save_checkpoint(original, sample_checkpoint())
    raw = original.read_bytes()
    rng = np.random.default_rng(20261018)
    path = tmp_path / "mutant.ckpt"
    loaded = 0
    for _ in range(500):
        path.write_bytes(mutate_header(rng, raw))
        try:
            ckpt = load_checkpoint(path)
        except FlowgateError:
            continue
        loaded += 1
        assert all(np.isfinite(t).all() for t in ckpt.tensors.values())
    assert loaded > 0


def _tiny_trained_checkpoints() -> dict:
    """Real checkpoints of all three stages at tiny widths, with their loaders."""
    rng = np.random.default_rng(5)
    ext_cfg = ExtractorConfig(latent_dim=4, encoder_widths=(1600, 8, 4),
                              disc_widths=(1600, 4, 1), epochs=1)
    flow_cfg = FlowConfig(dim=4, blocks=2, hidden=4, epochs=1)
    clf_cfg = ClassifierConfig(widths=(4, 3, 1), epochs=1)
    latents = rng.standard_normal((12, 4))
    return {
        "extractor": (train_extractor(rng.integers(0, 256, (12, 1600)) / 255.0, ext_cfg, 1),
                      (extractor_from_checkpoint, encoder_from_checkpoint)),
        "flow": (train_flow(FlowModel.create(flow_cfg, 2), latents, flow_cfg, 2),
                 (flow_from_checkpoint,)),
        "classifier": (train_classifier(latents, latents + 3.0, clf_cfg, 3),
                       (classifier_from_checkpoint,)),
    }


def test_mutated_headers_of_real_checkpoints_load_and_build_or_raise_flowgate_errors(
        tmp_path):
    rng = np.random.default_rng(20261019)
    path = tmp_path / "mutant.ckpt"
    for stage, (ckpt, loaders) in _tiny_trained_checkpoints().items():
        save_checkpoint(tmp_path / "x.ckpt", ckpt)
        raw = (tmp_path / "x.ckpt").read_bytes()
        built = refused = 0
        for _ in range(300):
            path.write_bytes(mutate_header(rng, raw))
            try:
                mutant = load_checkpoint(path)
            except FlowgateError:
                continue
            for load in loaders:
                try:
                    load(mutant)
                    built += 1
                except FlowgateError:
                    refused += 1
        # the fuzz reaches the loaders, and they both build and refuse
        assert built > 0 and refused > 0, stage
