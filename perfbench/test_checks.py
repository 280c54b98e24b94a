"""Tests of the benchmark's own checks, on hand-made cases.

    python3 -m pytest perfbench/test_checks.py -q
"""
import json
import math
import struct

import numpy as np
import pytest

import checks
import fixtures


def _frame(proto: int, transport: bytes, payload: bytes) -> bytes:
    ip = struct.pack(">BBHHHBBH", 0x45, 0, 20 + len(transport) + len(payload),
                     0x1234, 0x4000, 64, proto, 0xBEEF) + bytes([10, 0, 0, 1, 8, 8, 8, 8])
    return b"\xaa" * 6 + b"\xbb" * 6 + b"\x08\x00" + ip + transport + payload


def _tcp(sport=443, dport=50000) -> bytes:
    return struct.pack(">HHIIBBHHH", sport, dport, 1, 1, 5 << 4, 0x18, 65535, 0xCAFE, 0)


# --- AUROC ---

def test_brute_auroc_known_answers():
    assert checks.brute_auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
    assert checks.brute_auroc([0.2, 0.9], [0, 1]) == 1.0
    assert checks.brute_auroc([0.9, 0.2], [0, 1]) == 0.0
    # every pair tied counts one half
    assert checks.brute_auroc([0.5, 0.5, 0.5], [0, 1, 1]) == 0.5
    # one tie among four pairs: (1 + 1 + 0.5 + 0) / 4
    assert checks.brute_auroc([0.3, 0.6, 0.6, 0.7], [0, 0, 1, 1]) == 0.875


def test_brute_auroc_needs_both_classes():
    with pytest.raises(ValueError):
        checks.brute_auroc([0.1, 0.2], [1, 1])


def test_check_auroc_accepts_the_count_and_rejects_a_flipped_score():
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    labels = [0, 0, 1, 1]
    assert checks.check_auroc(0.75, scores, labels, "t") == []
    flipped = scores.copy()
    flipped[2] = 1.0 - flipped[2]
    assert checks.check_auroc(0.75, flipped, labels, "t")


# --- scores ---

def _tensors():
    encoder = {"encoder.0.W": np.eye(2), "encoder.0.b": np.zeros(2),
               "encoder.1.W": np.array([[2.0, 3.0]]), "encoder.1.b": np.array([0.5])}
    classifier = {"classifier.0.W": np.array([[1.0]]), "classifier.0.b": np.array([-2.5])}
    return encoder, classifier


def test_reference_scores_on_a_hand_made_network():
    encoder, classifier = _tensors()
    # ReLU zeroes the -2; latent = 2*1 + 3*0 + 0.5 = 2.5; sigmoid(2.5 - 2.5) = 0.5
    # second row: relu -> (1, 1), latent 5.5, sigmoid(3.0)
    x = np.array([[1.0, -2.0], [1.0, 1.0]])
    got = checks.reference_scores(x, encoder, classifier)
    assert got[0] == 0.5
    assert abs(got[1] - 1.0 / (1.0 + math.exp(-3.0))) < 1e-15
    # the latent layer is linear: a negative latent is not clipped
    classifier = {"classifier.0.W": np.array([[1.0]]), "classifier.0.b": np.array([0.0])}
    low = checks.reference_scores(np.array([[-1.0, 0.0]]), encoder, classifier)
    assert abs(low[0] - 1.0 / (1.0 + math.exp(-0.5))) < 1e-15


def test_check_scores_rejects_a_flipped_score_and_a_dropped_row():
    want = np.array([0.2, 0.7, 0.9])
    assert checks.check_scores(want + 1e-12, want, "t") == []
    flipped = want.copy()
    flipped[1] = 1.0 - flipped[1]
    assert checks.check_scores(flipped, want, "t")
    assert checks.check_scores(want[:-1], want, "t")


def test_check_labels_rejects_a_dropped_row_and_a_swap():
    want = np.array([0, 0, 1])
    assert checks.check_labels(want, want, "t") == []
    assert checks.check_labels(want[1:], want, "t")
    assert checks.check_labels(np.array([0, 1, 0]), want, "t")


def test_check_counts_rejects_a_wrong_kept_count():
    planted = {"kept": 100, "dns": 10}
    assert checks.check_counts({"kept": 100, "dns": 10, "arp": 3}, planted, "t") == []
    assert checks.check_counts({"kept": 99, "dns": 10}, planted, "t")
    assert checks.check_counts({"dns": 10}, planted, "t")


# --- encoding ---

def test_encode_reference_tcp_layout():
    tcp = _tcp()
    frame = _frame(6, tcp, b"abc")
    got = np.rint(checks.encode_reference(frame) * 255).astype(int)
    want = np.zeros(1600, dtype=int)
    ip = bytearray(frame[14:34])
    ip[10:20] = bytes(10)  # checksum and both addresses zeroed
    want[:20] = list(ip)
    want[60:80] = list(tcp)
    want[120:123] = list(b"abc")
    assert np.array_equal(got, want)
    assert got[10:20].sum() == 0 and frame[24:26] == b"\xbe\xef"


def test_encode_reference_udp_slot_and_truncation():
    udp = struct.pack(">HHHH", 5000, 6000, 8 + 2000, 0xABCD)
    payload = bytes(range(256)) * 8
    frame = _frame(17, udp, payload)
    got = np.rint(checks.encode_reference(frame) * 255).astype(int)
    assert list(got[60:68]) == list(udp)
    assert got[68:120].sum() == 0  # UDP's 8 bytes sit at the front of its slot
    assert list(got[120:]) == list(payload[:1480])


def test_encode_reference_trims_link_padding():
    frame = _frame(6, _tcp(), b"xy") + b"\xff" * 6  # Ethernet padding after the packet
    got = np.rint(checks.encode_reference(frame) * 255).astype(int)
    assert list(got[120:124]) == [ord("x"), ord("y"), 0, 0]


def test_check_vectors_rejects_a_wrong_byte():
    ref = np.stack([checks.encode_reference(_frame(6, _tcp(), b"abc"))] * 2)
    assert checks.check_vectors(ref.copy(), ref, "t") == []
    bad = ref.copy()
    bad[1, 121] = 0.0
    assert checks.check_vectors(bad, ref, "t")
    assert checks.check_vectors(ref[:1], ref, "t")


def test_drop_builders_plant_their_kind():
    rng = np.random.default_rng(0)
    arp = fixtures.arp_frame(rng)
    assert arp[12:14] == b"\x08\x06"
    dns = fixtures.dns_frame(rng)
    assert dns[12:14] == b"\x08\x00" and dns[23] == 17
    assert struct.unpack(">H", dns[36:38])[0] == 53
    ctl = fixtures.tcp_control_frame(rng)
    assert ctl[23] == 6 and len(ctl) == 14 + 20 + 20  # no payload
    assert fixtures.non_ipv4_frame(rng)[14] >> 4 == 6
    for frame in (arp, fixtures.non_ipv4_frame(rng)):
        with pytest.raises(ValueError):
            checks.encode_reference(frame)


# --- checkpoint reader ---

def _checkpoint_bytes(tensors: dict) -> bytes:
    names = sorted(tensors)
    header = json.dumps({"format": 1, "stage": "CLASSIFIER", "seed": 1,
                         "config_fingerprint": "x", "meta": {"epochs_run": 2},
                         "tensors": [[n, list(tensors[n].shape)] for n in names]},
                        sort_keys=True, separators=(",", ":")).encode()
    payload = b"".join(tensors[n].astype("<f8").tobytes() for n in names)
    return b"FLOWGATE1" + b"\x01" + struct.pack("<I", len(header)) + header + payload


def test_read_checkpoint_round_trip_and_trailing_bytes(tmp_path):
    tensors = {"classifier.0.W": np.arange(6.0).reshape(2, 3),
               "classifier.0.b": np.array([0.5, -1.0])}
    path = tmp_path / "c.ckpt"
    path.write_bytes(_checkpoint_bytes(tensors))
    header, got = checks.read_checkpoint(path)
    assert header["meta"]["epochs_run"] == 2
    for name, value in tensors.items():
        assert np.array_equal(got[name], value)
    path.write_bytes(_checkpoint_bytes(tensors) + b"\x00" * 8)
    with pytest.raises(ValueError):
        checks.read_checkpoint(path)
