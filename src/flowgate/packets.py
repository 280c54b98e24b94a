"""Packet cleaning and encoding.

Raw frames are stripped of the link layer, parsed as IPv4 + TCP/UDP, filtered
(DNS, ARP, payload-less TCP control segments, anything unparseable), address-
anonymized, and flattened into the fixed 1600-value vector the models consume:
IP header zero-padded to 60 bytes, transport header zero-padded to 60 bytes,
then the payload, truncated or zero-padded to 1600 total. A packet holds
those 1600 bytes; they become float64 values in [0, 1], each byte divided by
255, only when the model reads them (`EncodedPacket.values`, or
`dataset.values_matrix` for many packets at once).
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import BadIHL, HeaderTruncated, NotIPv4, ShapeMismatch, TooShort
from .pcap import RawPacket, parse_capture

VECTOR_LEN = 1600
IP_HEADER_SLOT = 60
TRANSPORT_HEADER_SLOT = 60
PAYLOAD_OFFSET = IP_HEADER_SLOT + TRANSPORT_HEADER_SLOT
MAX_PAYLOAD = VECTOR_LEN - PAYLOAD_OFFSET

ETHERTYPE_IPV4 = 0x0800
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
    KEPT = "kept"
    DNS = "dns"
    ARP = "arp"
    TCP_CONTROL = "tcp_control"
    UNPARSEABLE = "unparseable"


@dataclass(frozen=True)
class FilterVerdict:
    keep: bool
    reason: DropReason

    def __post_init__(self):
        if self.keep != (self.reason is DropReason.KEPT):
            raise ValueError("keep flag must agree with the reason")


KEPT = FilterVerdict(True, DropReason.KEPT)


@dataclass(frozen=True)
class ParsedPacket:
    ip_header: bytes
    transport_protocol: Transport
    transport_header: bytes
    payload: bytes
    src_ip: bytes
    dst_ip: bytes
    src_port: int
    dst_port: int
    tcp_flags: Optional[int] = None


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
        return np.frombuffer(self.codes, dtype=np.uint8) / 255.0


def strip_link_layer(p: RawPacket) -> bytes | FilterVerdict:
    """Bytes after the Ethernet II header (single VLAN tag skipped), or an ARP drop."""
    frame = p.link_bytes
    if len(frame) < 14:
        raise TooShort(f"frame has {len(frame)} bytes, link header needs 14")
    ethertype = int.from_bytes(frame[12:14], "big")
    offset = 14
    if ethertype == ETHERTYPE_VLAN:
        if len(frame) < 18:
            raise TooShort("VLAN-tagged frame shorter than 18 bytes")
        ethertype = int.from_bytes(frame[16:18], "big")
        offset = 18
    if ethertype == ETHERTYPE_ARP:
        return FilterVerdict(False, DropReason.ARP)
    return frame[offset:]


def parse_network_transport(data: bytes) -> ParsedPacket:
    """Extract IPv4 and TCP/UDP fields; payload is everything after the transport header."""
    if len(data) < 1:
        raise HeaderTruncated("no network-layer bytes")
    if data[0] >> 4 != 4:
        raise NotIPv4(f"version nibble is {data[0] >> 4}")
    ihl = data[0] & 0x0F
    if ihl < 5:
        raise BadIHL(f"IHL {ihl} below minimum of 5")
    header_len = ihl * 4
    if len(data) < header_len:
        raise HeaderTruncated(
            f"IPv4 header wants {header_len} bytes, {len(data)} available")
    total_length = int.from_bytes(data[2:4], "big")
    if header_len <= total_length <= len(data):
        data = data[:total_length]  # trim link-layer padding
    ip_header = data[:header_len]
    proto = data[9]
    src_ip, dst_ip = data[12:16], data[16:20]
    rest = data[header_len:]

    if proto == 6:
        if len(rest) < 20:
            raise HeaderTruncated("TCP header needs 20 bytes")
        data_offset = (rest[12] >> 4) * 4
        if data_offset < 20:
            raise BadIHL(f"TCP data offset {data_offset // 4} below minimum of 5")
        if len(rest) < data_offset:
            raise HeaderTruncated("TCP options extend past captured bytes")
        header = rest[:data_offset]
        return ParsedPacket(
            ip_header=ip_header, transport_protocol=Transport.TCP,
            transport_header=header, payload=rest[data_offset:],
            src_ip=src_ip, dst_ip=dst_ip,
            src_port=int.from_bytes(header[0:2], "big"),
            dst_port=int.from_bytes(header[2:4], "big"),
            tcp_flags=header[13])
    if proto == 17:
        if len(rest) < 8:
            raise HeaderTruncated("UDP header needs 8 bytes")
        header = rest[:8]
        return ParsedPacket(
            ip_header=ip_header, transport_protocol=Transport.UDP,
            transport_header=header, payload=rest[8:],
            src_ip=src_ip, dst_ip=dst_ip,
            src_port=int.from_bytes(header[0:2], "big"),
            dst_port=int.from_bytes(header[2:4], "big"))
    return ParsedPacket(
        ip_header=ip_header, transport_protocol=Transport.OTHER,
        transport_header=b"", payload=rest,
        src_ip=src_ip, dst_ip=dst_ip, src_port=0, dst_port=0)


def filter_packet(p: ParsedPacket) -> FilterVerdict:
    """Drop DNS, payload-less TCP control segments, and non-TCP/UDP transports."""
    if p.transport_protocol is Transport.OTHER:
        return FilterVerdict(False, DropReason.UNPARSEABLE)
    if p.src_port == DNS_PORT or p.dst_port == DNS_PORT:
        return FilterVerdict(False, DropReason.DNS)
    if p.transport_protocol is Transport.TCP and len(p.payload) == 0:
        return FilterVerdict(False, DropReason.TCP_CONTROL)
    return KEPT


def anonymize(p: ParsedPacket) -> ParsedPacket:
    """Zero the source/destination addresses and the IP checksum; nothing else."""
    header = bytearray(p.ip_header)
    header[10:12] = b"\x00\x00"
    header[12:20] = bytes(8)
    zero = bytes(4)
    return ParsedPacket(
        ip_header=bytes(header), transport_protocol=p.transport_protocol,
        transport_header=p.transport_header, payload=p.payload,
        src_ip=zero, dst_ip=zero, src_port=p.src_port, dst_port=p.dst_port,
        tcp_flags=p.tcp_flags)


def canonicalize(p: ParsedPacket, label: Optional[Label] = None,
                 source_id: Optional[tuple[str, int]] = None) -> EncodedPacket:
    """Fixed layout: 60-byte IP slot, 60-byte transport slot, payload, total 1600."""
    buf = bytearray(VECTOR_LEN)
    ip = p.ip_header[:IP_HEADER_SLOT]
    buf[:len(ip)] = ip
    th = p.transport_header[:TRANSPORT_HEADER_SLOT]
    buf[IP_HEADER_SLOT:IP_HEADER_SLOT + len(th)] = th
    payload = p.payload[:MAX_PAYLOAD]
    buf[PAYLOAD_OFFSET:PAYLOAD_OFFSET + len(payload)] = payload
    return EncodedPacket(bytes(buf), label, source_id)


@dataclass
class PreprocessStats:
    seen: int = 0
    kept: int = 0
    dropped: dict[str, int] = field(default_factory=lambda: {
        r.value: 0 for r in DropReason if r is not DropReason.KEPT})

    def drop(self, reason: DropReason) -> None:
        self.dropped[reason.value] += 1

    def summary(self) -> str:
        drops = " ".join(f"{k}={v}" for k, v in self.dropped.items())
        return f"seen={self.seen} kept={self.kept} {drops}"


def encode_frame(link_bytes: bytes, label: Optional[Label] = None,
                 source_id: Optional[tuple[str, int]] = None,
                 ) -> EncodedPacket | FilterVerdict:
    """Run one raw frame through the whole cleaning chain."""
    raw = RawPacket(capture_index=source_id[1] if source_id else 0,
                    link_bytes=link_bytes, caplen=len(link_bytes),
                    origlen=len(link_bytes))
    stripped = strip_link_layer(raw)
    if isinstance(stripped, FilterVerdict):
        return stripped
    parsed = parse_network_transport(stripped)
    verdict = filter_packet(parsed)
    if not verdict.keep:
        return verdict
    return canonicalize(anonymize(parsed), label=label, source_id=source_id)


def process_capture(file_path: str | Path, label: Optional[Label] = None,
                    file_id: Optional[str] = None,
                    ) -> tuple[list[EncodedPacket], PreprocessStats]:
    """Parse, clean, and encode every packet of one capture file, in file order."""
    path = Path(file_path)
    fid = file_id if file_id is not None else path.name
    stats = PreprocessStats()
    kept: list[EncodedPacket] = []
    for raw in parse_capture(path):
        stats.seen += 1
        try:
            encoded = encode_frame(raw.link_bytes, label=label,
                                   source_id=(fid, raw.capture_index))
        except (TooShort, NotIPv4, HeaderTruncated, BadIHL):
            stats.drop(DropReason.UNPARSEABLE)
            continue
        if isinstance(encoded, FilterVerdict):
            stats.drop(encoded.reason)
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
