"""Output checks computed apart from the program under test.

Every reference here is written from the documented formats and the method,
with numpy and the standard library only; nothing imports flowgate. Each
check returns a list of error strings, empty when the output is correct.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

VECTOR_LEN = 1600
IP_SLOT = 60
TRANSPORT_SLOT = 60
PAYLOAD_OFFSET = IP_SLOT + TRANSPORT_SLOT
CKPT_MAGIC = b"FLOWGATE1"


# --- independent computations ---

def brute_auroc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Share of (anomaly, normal) pairs the anomaly outscores; ties count 1/2."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos, neg = s[y == 1], s[y == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUROC needs both classes")
    wins = 0.0
    for start in range(0, pos.size, 256):
        d = pos[start:start + 256, None] - neg[None, :]
        wins += float(np.count_nonzero(d > 0)) + 0.5 * float(np.count_nonzero(d == 0))
    return wins / (pos.size * neg.size)


def encode_reference(frame: bytes) -> np.ndarray:
    """The model input for an Ethernet II + IPv4 + TCP/UDP frame.

    Addresses and the IP checksum are zeroed; the IP header goes into a
    60-byte slot, the transport header into the next 60, then the payload,
    all truncated or zero-padded to 1600 bytes and divided by 255.
    """
    if int.from_bytes(frame[12:14], "big") != 0x0800:
        raise ValueError("not an IPv4 frame")
    ip_start = 14
    ihl = (frame[ip_start] & 0x0F) * 4
    total = int.from_bytes(frame[ip_start + 2:ip_start + 4], "big")
    packet = frame[ip_start:ip_start + total]
    ip = bytearray(packet[:ihl])
    ip[10:12] = b"\x00\x00"
    ip[12:20] = bytes(8)
    rest = packet[ihl:]
    proto = ip[9]
    if proto == 6:
        th_len = (rest[12] >> 4) * 4
    elif proto == 17:
        th_len = 8
    else:
        raise ValueError(f"transport protocol {proto} is not TCP or UDP")
    out = np.zeros(VECTOR_LEN, dtype=np.uint8)
    ip_part = bytes(ip[:IP_SLOT])
    out[:len(ip_part)] = np.frombuffer(ip_part, dtype=np.uint8)
    th = rest[:th_len][:TRANSPORT_SLOT]
    out[IP_SLOT:IP_SLOT + len(th)] = np.frombuffer(th, dtype=np.uint8)
    payload = rest[th_len:][:VECTOR_LEN - PAYLOAD_OFFSET]
    out[PAYLOAD_OFFSET:PAYLOAD_OFFSET + len(payload)] = np.frombuffer(payload, dtype=np.uint8)
    return out.astype(np.float64) / 255.0


def read_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and every tensor of a checkpoint file.

    Layout: 9-byte magic, 1-byte version, little-endian u32 header length,
    JSON header with a name-ordered shape table, then float64 payload.
    """
    raw = Path(path).read_bytes()
    if raw[:len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise ValueError(f"{path}: bad magic")
    hlen = int.from_bytes(raw[10:14], "little")
    header = json.loads(raw[14:14 + hlen].decode("utf-8"))
    offset = 14 + hlen
    tensors = {}
    for name, shape in header["tensors"]:
        size = math.prod(shape)
        tensors[name] = np.frombuffer(raw, dtype="<f8", count=size,
                                      offset=offset).reshape(shape)
        offset += 8 * size
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} trailing bytes")
    return header, tensors


def _dense_stack(x: np.ndarray, tensors: Mapping[str, np.ndarray], prefix: str,
                 final) -> np.ndarray:
    layers = sorted({int(k[len(prefix):].split(".")[0]) for k in tensors
                     if k.startswith(prefix)})
    h = x
    for i in layers:
        h = h @ tensors[f"{prefix}{i}.W"].T + tensors[f"{prefix}{i}.b"]
        h = final(h) if i == layers[-1] else np.maximum(h, 0.0)
    return h


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def reference_scores(x: np.ndarray, extractor: Mapping[str, np.ndarray],
                     classifier: Mapping[str, np.ndarray]) -> np.ndarray:
    """classifier(encoder(x)): ReLU hidden layers, a linear latent, a sigmoid output."""
    z = _dense_stack(np.asarray(x, dtype=np.float64), extractor, "encoder.",
                     lambda h: h)
    return _dense_stack(z, classifier, "classifier.", _sigmoid)[:, 0]


def read_score_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Scores and labels from a `source_file,capture_index,score,label` file."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["source_file", "capture_index", "score", "label"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    body = rows[1:]
    return (np.array([float(r[2]) for r in body]),
            np.array([int(r[3]) for r in body]))


def read_report_auroc(path: str | Path) -> tuple[float, int, int]:
    fields = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return float(fields["auroc"]), int(fields["n_pos"]), int(fields["n_neg"])


def count_csv_rows(path: str | Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


# --- checks ---

def check_scores(got: Sequence[float], want: Sequence[float], what: str,
                 tol: float = 1e-9) -> list[str]:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{what}: {got.size} scores, expected {want.size}"]
    if got.size and not np.all(np.abs(got - want) <= tol):
        worst = int(np.argmax(np.abs(got - want)))
        return [f"{what}: score {worst} is {float(got[worst])!r}, "
                f"expected {float(want[worst])!r}"]
    return []


def check_auroc(reported: float, scores: Sequence[float], labels: Sequence[int],
                what: str, tol: float = 1e-12) -> list[str]:
    want = brute_auroc(scores, labels)
    if not abs(reported - want) <= tol:
        return [f"{what}: AUROC {reported!r}, pairwise count gives {want!r}"]
    return []


def check_counts(got: Mapping[str, int], want: Mapping[str, int],
                 what: str) -> list[str]:
    return [f"{what}: {key} is {got.get(key)}, expected {value}"
            for key, value in want.items() if got.get(key) != value]


def check_labels(got: Sequence[int], want: Sequence[int], what: str) -> list[str]:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or not np.array_equal(got, want):
        return [f"{what}: {got.size} labels with {int(got.sum())} anomalies, "
                f"expected {want.size} with {int(want.sum())} in the planted order"]
    return []


def check_vectors(got: np.ndarray, want: np.ndarray, what: str) -> list[str]:
    """Encoded vectors against the reference encoding, value for value."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{what}: vectors of shape {got.shape}, expected {want.shape}"]
    bad = np.flatnonzero(np.any(got != want, axis=1))
    if bad.size:
        return [f"{what}: {bad.size} vectors differ from their frame's encoding, "
                f"first at sample {bad[0]}"]
    return []


def check_close(got: np.ndarray, want: np.ndarray, tol: float,
                what: str) -> list[str]:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape}, expected {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [] if err <= tol else [f"{what}: max error {err:.3g} above {tol:g}"]
