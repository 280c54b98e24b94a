"""Desk-scale synthetic traffic corpus.

Normal packets imitate plain client/server traffic: text-heavy payloads over
a pool of common service ports, short-to-medium lengths. Anomalous packets
carry high-entropy payloads over a disjoint port pool with longer lengths,
with some overlap in both so the classes are separable but not trivially so.
Every generated frame goes through the real cleaning chain, so the emitted
vectors satisfy all encoded-packet invariants.
"""
from __future__ import annotations

import struct
import numpy as np

from .errors import BadConfig
from .packets import DropReason, EncodedPacket, Label, encode_frame
from .seeding import rng_for

NORMAL_TCP_PORTS = (80, 443, 8080, 22, 25, 143, 993, 3306)
NORMAL_UDP_PORTS = (123, 161, 5060, 1900)
ANOMALY_TCP_PORTS = (4444, 6667, 9050, 12345, 31337)
ANOMALY_UDP_PORTS = (6881, 19999, 27015)

_WORDS = (b"get", b"post", b"http", b"host", b"user", b"agent", b"cookie",
          b"session", b"json", b"data", b"index", b"account", b"update",
          b"image", b"text", b"login", b"page", b"query", b"token", b"cache",
          b"value", b"result", b"static", b"media", b"search", b"order")


def _ipv4(rng: np.random.Generator, proto: int, payload_len: int) -> bytes:
    head = struct.pack(
        ">BBHHHBBH", 0x45, 0, 20 + payload_len,
        int(rng.integers(0, 65536)), 0x4000,
        int(rng.choice([52, 57, 64, 116, 128])), proto,
        int(rng.integers(0, 65536)))
    src = bytes(int(v) for v in rng.integers(1, 255, size=4))
    dst = bytes(int(v) for v in rng.integers(1, 255, size=4))
    return head + src + dst


def _tcp(rng: np.random.Generator, sport: int, dport: int) -> bytes:
    return struct.pack(
        ">HHIIBBHHH", sport, dport,
        int(rng.integers(0, 2**32)), int(rng.integers(0, 2**32)),
        5 << 4, 0x18, int(rng.choice([501, 1024, 8192, 29200, 65535])),
        int(rng.integers(0, 65536)), 0)


def _udp(rng: np.random.Generator, sport: int, dport: int, payload_len: int) -> bytes:
    return struct.pack(">HHHH", sport, dport, 8 + payload_len,
                       int(rng.integers(0, 65536)))


def _text_payload(rng: np.random.Generator, length: int) -> bytes:
    parts: list[bytes] = []
    size = 0
    while size < length:
        word = _WORDS[int(rng.integers(0, len(_WORDS)))]
        if rng.random() < 0.2:
            word = word.upper()
        glue = b"=" if rng.random() < 0.15 else (b"/" if rng.random() < 0.2 else b" ")
        digits = str(int(rng.integers(0, 10000))).encode() if rng.random() < 0.3 else b""
        parts.append(word + digits + glue)
        size += len(parts[-1])
    return b"".join(parts)[:length]


def _binary_payload(rng: np.random.Generator, length: int) -> bytes:
    if rng.random() < 0.25:
        # structured binary: runs of constants mixed into the noise
        chunks = []
        size = 0
        while size < length:
            if rng.random() < 0.4:
                chunk = bytes([int(rng.integers(0, 256))]) * int(rng.integers(4, 32))
            else:
                chunk = bytes(int(v) for v in rng.integers(0, 256, size=int(rng.integers(16, 64))))
            chunks.append(chunk)
            size += len(chunk)
        return b"".join(chunks)[:length]
    return bytes(int(v) for v in rng.integers(0, 256, size=length))


def _ports(rng: np.random.Generator, pool: tuple[int, ...]) -> tuple[int, int]:
    service = int(rng.choice(pool))
    ephemeral = int(rng.integers(49152, 65536))
    if rng.random() < 0.5:
        return service, ephemeral
    return ephemeral, service


def _payload_length(rng: np.random.Generator, anomaly: bool) -> int:
    if anomaly:
        length = int(rng.gamma(3.0, 250.0))
        return int(np.clip(length, 48, 1400))
    length = int(rng.gamma(2.0, 150.0))
    return int(np.clip(length, 16, 1100))


def synthetic_frame(rng: np.random.Generator, anomaly: bool) -> bytes:
    length = _payload_length(rng, anomaly)
    payload = (_binary_payload(rng, length) if anomaly
               else _text_payload(rng, length))
    use_udp = rng.random() < (0.2 if anomaly else 0.15)
    if use_udp:
        pool = ANOMALY_UDP_PORTS if anomaly else NORMAL_UDP_PORTS
        sport, dport = _ports(rng, pool)
        segment = _udp(rng, sport, dport, len(payload)) + payload
        ip = _ipv4(rng, 17, len(segment))
    else:
        pool = ANOMALY_TCP_PORTS if anomaly else NORMAL_TCP_PORTS
        sport, dport = _ports(rng, pool)
        segment = _tcp(rng, sport, dport) + payload
        ip = _ipv4(rng, 6, len(segment))
    mac_dst = bytes(int(v) for v in rng.integers(0, 256, size=6))
    mac_src = bytes(int(v) for v in rng.integers(0, 256, size=6))
    return mac_dst + mac_src + struct.pack(">H", 0x0800) + ip + segment


def make_synthetic_corpus(seed: int, n_normal: int, n_anomaly: int,
                          ) -> tuple[list[EncodedPacket], list[EncodedPacket]]:
    """Generate the two labeled packet sets, already cleaned and encoded."""
    if n_normal < 0 or n_anomaly < 0:
        raise BadConfig(f"counts must be non-negative, got {n_normal} normal "
                        f"and {n_anomaly} anomaly")
    out: dict[bool, list[EncodedPacket]] = {False: [], True: []}
    for anomaly, count, tag in ((False, n_normal, "synthetic-normal"),
                                (True, n_anomaly, "synthetic-anomaly")):
        rng = rng_for(seed, tag)
        label = Label.ANOMALY if anomaly else Label.NORMAL
        index = 0
        while len(out[anomaly]) < count:
            frame = synthetic_frame(rng, anomaly)
            encoded = encode_frame(frame, label=label, source_id=(tag, index))
            index += 1
            if isinstance(encoded, DropReason):
                continue  # generator never targets port 53, but stay safe
            out[anomaly].append(encoded)
    return out[False], out[True]
