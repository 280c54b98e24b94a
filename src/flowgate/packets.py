"""Packet cleaning and encoding, in one pass from frame bytes to a 1600-byte row.

`encode_frame` strips the link layer, parses IPv4 + TCP/UDP (a frame it cannot
parse raises), drops DNS, ARP, payload-less TCP control segments and other
transports (returning the `DropReason`), and lays out the row the models
consume: IP header zero-padded to 60 bytes with its checksum and addresses
zeroed, transport header zero-padded to 60 bytes, then the payload, truncated
or zero-padded to 1600 total. A packet holds those bytes; each becomes float64
byte/255, as `byte_values` computes it, only when the model reads it. Training
holds a whole set as bytes too (`dataset.codes_matrix`) and reads a minibatch
as values only when a step uses it; the latents of any set of packets are
encoded one block of values at a time (`extractor.encode_codes`).
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import BadIHL, HeaderTruncated, NotIPv4, ShapeMismatch, TooShort
from .pcap import parse_capture

VECTOR_LEN = 1600
IP_HEADER_SLOT = 60
TRANSPORT_HEADER_SLOT = 60
PAYLOAD_OFFSET = IP_HEADER_SLOT + TRANSPORT_HEADER_SLOT
MAX_PAYLOAD = VECTOR_LEN - PAYLOAD_OFFSET

ETHERTYPE_ARP = 0x0806
ETHERTYPE_VLAN = 0x8100

DNS_PORT = 53

log = logging.getLogger("flowgate")


class Label(Enum):
    NORMAL = 0
    ANOMALY = 1


class Transport(Enum):
    TCP = "tcp"
    UDP = "udp"
    OTHER = "other"


class DropReason(Enum):
    DNS = "dns"
    ARP = "arp"
    TCP_CONTROL = "tcp_control"
    UNPARSEABLE = "unparseable"


def byte_values(codes: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """uint8 byte codes as the float64 values the models read, each byte/255,
    written into `out` when given: the one place a byte becomes a value."""
    return np.divide(codes, 255.0, out=out)


@dataclass(eq=False)
class EncodedPacket:
    """The canonical model input: 1600 bytes, each read by the model as byte/255."""

    codes: bytes
    label: Optional[Label] = None
    source_id: Optional[tuple[str, int]] = None

    def __post_init__(self):
        if not isinstance(self.codes, bytes):
            raise TypeError(f"codes must be bytes, got {type(self.codes).__name__}")
        if len(self.codes) != VECTOR_LEN:
            raise ShapeMismatch(f"expected {VECTOR_LEN} bytes, got {len(self.codes)}")

    @property
    def values(self) -> np.ndarray:
        """The 1600 float64 values, each byte/255: in [0, 1] on the 1/255 grid."""
        return byte_values(np.frombuffer(self.codes, dtype=np.uint8))


def strip_link_layer(frame: bytes) -> bytes | DropReason:
    """Bytes after the Ethernet II header (single VLAN tag skipped), or an ARP drop."""
    if len(frame) < 14:
        raise TooShort(f"frame has {len(frame)} bytes, link header needs 14")
    ethertype = frame[12] << 8 | frame[13]
    offset = 14
    if ethertype == ETHERTYPE_VLAN:
        if len(frame) < 18:
            raise TooShort("VLAN-tagged frame shorter than 18 bytes")
        ethertype = frame[16] << 8 | frame[17]
        offset = 18
    if ethertype == ETHERTYPE_ARP:
        return DropReason.ARP
    return frame[offset:]


def _layout(data: bytes) -> tuple[int, int, int, Transport, int, int]:
    """Where IPv4 and TCP/UDP put things in network-layer bytes: the ends of the
    IP header, of the transport header and of the packet (its total length, when
    that trims only link-layer padding), the transport, and the two ports (0 and
    0 for another transport, whose bytes are all payload)."""
    if len(data) < 1:
        raise HeaderTruncated("no network-layer bytes")
    if data[0] >> 4 != 4:
        raise NotIPv4(f"version nibble is {data[0] >> 4}")
    ihl = data[0] & 0x0F
    if ihl < 5:
        raise BadIHL(f"IHL {ihl} below minimum of 5")
    header_len = ihl * 4
    if len(data) < header_len:
        raise HeaderTruncated(f"IPv4 header wants {header_len} bytes, {len(data)} available")
    end = data[2] << 8 | data[3]
    if not header_len <= end <= len(data):
        end = len(data)
    proto = data[9]
    if proto == 6:
        if end - header_len < 20:
            raise HeaderTruncated("TCP header needs 20 bytes")
        data_offset = (data[header_len + 12] >> 4) * 4
        if data_offset < 20:
            raise BadIHL(f"TCP data offset {data_offset // 4} below minimum of 5")
        if end - header_len < data_offset:
            raise HeaderTruncated("TCP options extend past captured bytes")
        transport = Transport.TCP
    elif proto == 17:
        if end - header_len < 8:
            raise HeaderTruncated("UDP header needs 8 bytes")
        transport, data_offset = Transport.UDP, 8
    else:
        return header_len, header_len, end, Transport.OTHER, 0, 0
    return (header_len, header_len + data_offset, end, transport,
            data[header_len] << 8 | data[header_len + 1],
            data[header_len + 2] << 8 | data[header_len + 3])


def _drop_reason(transport: Transport, sport: int, dport: int,
                 payload_len: int) -> DropReason | None:
    """Why DNS, payload-less TCP control and non-TCP/UDP drop; None keeps."""
    if transport is Transport.OTHER:
        return DropReason.UNPARSEABLE
    if sport == DNS_PORT or dport == DNS_PORT:
        return DropReason.DNS
    if transport is Transport.TCP and payload_len == 0:
        return DropReason.TCP_CONTROL
    return None


def _row(data: bytes, ip_end: int, payload_start: int, end: int) -> bytes:
    """The 1600-byte row of `data[:ip_end]` as the IP header (20 to 60 bytes),
    then up to `payload_start` the transport header (at most 60), then up to
    `end` the payload, cut to its slot: each zero-padded to its slot, with the
    IP checksum and both addresses (header bytes 10-19) zeroed."""
    payload_end = end if end - payload_start <= MAX_PAYLOAD else payload_start + MAX_PAYLOAD
    return b"".join((
        data[:10], bytes(10), data[20:ip_end], bytes(IP_HEADER_SLOT - ip_end),
        data[ip_end:payload_start], bytes(TRANSPORT_HEADER_SLOT - payload_start + ip_end),
        data[payload_start:payload_end], bytes(MAX_PAYLOAD - payload_end + payload_start)))


@dataclass
class PreprocessStats:
    seen: int = 0
    kept: int = 0
    dropped: dict[str, int] = field(default_factory=lambda: {
        r.value: 0 for r in DropReason})

    def drop(self, reason: DropReason) -> None:
        self.dropped[reason.value] += 1

    def summary(self) -> str:
        drops = " ".join(f"{k}={v}" for k, v in self.dropped.items())
        return f"seen={self.seen} kept={self.kept} {drops}"


def encode_frame(frame: bytes, label: Optional[Label] = None,
                 source_id: Optional[tuple[str, int]] = None,
                 ) -> EncodedPacket | DropReason:
    """Run one raw frame through the whole cleaning chain: its row, or why it drops."""
    data = strip_link_layer(frame)
    if isinstance(data, DropReason):
        return data
    ip_end, start, end, transport, src_port, dst_port = _layout(data)
    reason = _drop_reason(transport, src_port, dst_port, end - start)
    if reason is not None:
        return reason
    return EncodedPacket(_row(data, ip_end, start, end), label, source_id)


def process_capture(file_path: str | Path, label: Optional[Label] = None,
                    ) -> tuple[list[EncodedPacket], PreprocessStats]:
    """Parse, clean, and encode every packet of one capture file, in file
    order; each packet's source id is (file name, capture index)."""
    path = Path(file_path)
    name = path.name
    stats = PreprocessStats()
    kept: list[EncodedPacket] = []
    for index, frame, _caplen, _origlen in parse_capture(path):
        stats.seen += 1
        try:
            encoded = encode_frame(frame, label=label, source_id=(name, index))
        except (TooShort, NotIPv4, HeaderTruncated, BadIHL):
            stats.drop(DropReason.UNPARSEABLE)
            continue
        if isinstance(encoded, DropReason):
            stats.drop(encoded)
            continue
        stats.kept += 1
        kept.append(encoded)
    return kept, stats


def preprocess_captures(path: str | Path, label: Optional[Label] = None,
                        ) -> list[EncodedPacket]:
    """The kept packets of a capture file, or of every *.pcap/*.cap under a
    directory in name order, logging each file's drop counts."""
    p = Path(path)
    files = (sorted(q for q in p.iterdir() if q.suffix.lower() in (".pcap", ".cap"))
             if p.is_dir() else [p])
    packets: list[EncodedPacket] = []
    for f in files:
        kept, stats = process_capture(f, label=label)
        log.info("%s: %s", f.name, stats.summary())
        packets.extend(kept)
    return packets
