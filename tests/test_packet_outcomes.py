"""Every outcome of the packet readers over seeded mutants, pinned as one digest.

The frames are corpus traffic and hand-built frames of each kind the cleaner
keeps, drops or refuses; the mutants come from `crafting.mutate`, half of them
confined to the first 64 bytes, where the headers are. For each input the test
records what the reader made of it:
- a kept frame: its 1600 codes, label and source id;
- a frame past the link layer: its network-layer bytes;
- a dropped frame: the drop reason, and for a capture file its PreprocessStats;
- a refused frame or file: the exception type and message.

The records are hashed in order. A change to the cleaning chain that alters any
of them, for a single mutant, changes the digest.
"""
import hashlib

import numpy as np

from flowgate.corpus import synthetic_frame
from flowgate.packets import (
    DropReason, EncodedPacket, Label, encode_frame, process_capture, strip_link_layer,
)
from crafting import (
    ethernet, ipv4_header, mutate, pcap_bytes, tcp_frame, tcp_header, udp_frame,
    udp_header, vlan_ethernet,
)

LABELS = (None, Label.NORMAL, Label.ANOMALY)


def base_frames() -> list[bytes]:
    rng = np.random.default_rng(20261020)
    frames = [synthetic_frame(rng, anomaly=i % 2 == 1) for i in range(40)]
    frames += [
        tcp_frame(payload=b"GET / HTTP/1.1\r\n" * 4),
        tcp_frame(payload=bytes(range(256)) * 8),  # payload past the 1480-byte slot
        tcp_frame(payload=b"p" * 1480),
        tcp_frame(payload=b"p" * 1481),
        tcp_frame(payload=b"x" * 30, ihl=15, ip_options=b"\x01" * 40),
        tcp_frame(payload=b"y" * 30, data_offset=15, tcp_options=b"\x01" * 40),
        tcp_frame(payload=b"", flags=0x10),
        tcp_frame(payload=b"q", sport=53),
        udp_frame(payload=b"z" * 40),
        udp_frame(payload=b""),
        udp_frame(payload=b"dns?", dport=53),
        ethernet(ipv4_header(proto=1, payload_len=12) + bytes(12)),  # ICMP
        ethernet(ipv4_header(proto=17, payload_len=12) + udp_header(payload_len=4)
                 + b"abcd" + bytes(18)),  # trailing link-layer padding
        # total lengths at the header length, below it and past the bytes held
        ethernet(ipv4_header(total_length=20) + tcp_header() + b"abc"),
        ethernet(ipv4_header(proto=17, total_length=0) + udp_header(payload_len=3) + b"abc"),
        ethernet(ipv4_header(total_length=1000) + tcp_header() + b"short"),
        vlan_ethernet(ipv4_header(payload_len=25) + tcp_header() + b"vlan!"),
        vlan_ethernet(bytes(28), inner_ethertype=0x0806),
        ethernet(bytes(28), ethertype=0x0806),
        ethernet(b"\x60" + bytes(60), ethertype=0x86DD),
    ]
    return frames


def _packet_bytes(p: EncodedPacket) -> bytes:
    return p.codes + repr((p.label, p.source_id)).encode()


def record(call) -> tuple[str, bytes]:
    """The kind of outcome of `call()` and its bytes: what it returned,
    serialized, or the type and message of what it raised."""
    try:
        out = call()
    except Exception as err:  # every refusal is part of the outcome, whatever its type
        return f"refused {type(err).__name__}", str(err).encode()
    if isinstance(out, DropReason):
        return "dropped", out.value.encode()
    if isinstance(out, EncodedPacket):
        return "kept", _packet_bytes(out)
    if isinstance(out, bytes):
        return "stripped", out
    packets, stats = out
    counts = repr((stats.seen, stats.kept, sorted(stats.dropped.items()))).encode()
    return "capture", b"".join(map(_packet_bytes, packets)) + counts


class Digest:
    """sha256 over a sequence of outcomes, and how many of each kind it saw."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.kinds: dict[str, int] = {}

    def add(self, outcome: tuple[str, bytes]) -> None:
        kind, data = outcome
        for part in (kind.encode(), data):
            self.sha.update(len(part).to_bytes(8, "little") + part)
        self.kinds[kind] = self.kinds.get(kind, 0) + 1


def frame_mutant(rng, frame: bytes) -> bytes:
    if rng.integers(0, 2):
        return mutate(rng, frame)
    return mutate(rng, frame[:64]) + frame[64:]


def test_every_frame_outcome_is_the_pinned_one():
    rng = np.random.default_rng(20261021)
    frames = base_frames()
    digest = Digest()
    for i in range(40_000):
        frame = frames[i] if i < len(frames) else frame_mutant(
            rng, frames[int(rng.integers(0, len(frames)))])
        label, source = LABELS[i % 3], ("f.pcap", i) if i % 2 else None
        digest.add(record(lambda: encode_frame(frame, label=label, source_id=source)))
        digest.add(record(lambda: strip_link_layer(frame)))
    assert digest.kinds["kept"] > 1000 and digest.kinds["dropped"] > 1000
    assert {"refused TooShort", "refused NotIPv4", "refused HeaderTruncated",
            "refused BadIHL"} <= set(digest.kinds)
    assert digest.sha.hexdigest() == \
        "92daf160c2edd606a4fae8a6439e5c500d81b56105e139647916aa50e4fdcf70"


def test_every_capture_outcome_is_the_pinned_one(tmp_path):
    rng = np.random.default_rng(20261022)
    frames = base_frames()
    path = tmp_path / "mutant.pcap"
    digest = Digest()
    for i in range(1_000):
        if i % 2:  # a sound container of mutated frames: drops are counted
            picked = [frames[int(j)] for j in rng.integers(0, len(frames), size=12)]
            data = pcap_bytes([frame_mutant(rng, f) for f in picked])
        else:  # a mutated container: its records can be cut, oversized or lost
            data = mutate(rng, pcap_bytes(frames[i % 40:i % 40 + 8]))
        path.write_bytes(data)
        kind, data = record(lambda: process_capture(path, label=LABELS[i % 3]))
        digest.add((kind, data.replace(str(path).encode(), b"<path>")))
    assert digest.kinds["capture"] > 100
    assert {"refused TruncatedRecord", "refused OversizedRecord",
            "refused UnrecognizedMagic"} <= set(digest.kinds)
    assert digest.sha.hexdigest() == \
        "03776d9d7e50215e73e01a37722b02ed52b33b27a91d7541ac7be1e26972647e"

