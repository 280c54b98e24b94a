"""Byte-level packet and capture-file builders used by the tests, and the
byte mutations the readers' fuzz tests feed them.

Packets and captures are assembled directly with struct/int packing so the
expected bytes are independent of the code under test.
"""
from __future__ import annotations

import json
import math
import struct

import numpy as np

from flowgate.errors import FlowgateError


def ipv4_header(src: bytes = b"\x0a\x00\x00\x01", dst: bytes = b"\x08\x08\x08\x08",
                proto: int = 6, total_length: int | None = None, ihl: int = 5,
                ttl: int = 64, checksum: int = 0xBEEF, payload_len: int = 0,
                options: bytes = b"") -> bytes:
    header_len = ihl * 4
    assert len(options) == header_len - 20
    if total_length is None:
        total_length = header_len + payload_len
    head = struct.pack(">BBHHHBBH", (4 << 4) | ihl, 0, total_length,
                       0x1234, 0, ttl, proto, checksum)
    return head + src + dst + options


def tcp_header(sport: int = 443, dport: int = 50000, flags: int = 0x18,
               data_offset: int = 5, seq: int = 1, ack: int = 1,
               window: int = 65535, options: bytes = b"") -> bytes:
    header_len = data_offset * 4
    assert len(options) == header_len - 20
    head = struct.pack(">HHIIBBHHH", sport, dport, seq, ack,
                       (data_offset << 4), flags, window, 0xCAFE, 0)
    return head + options


def udp_header(sport: int = 5000, dport: int = 6000, payload_len: int = 0) -> bytes:
    return struct.pack(">HHHH", sport, dport, 8 + payload_len, 0xABCD)


def ethernet(payload: bytes, ethertype: int = 0x0800,
             dst_mac: bytes = b"\xaa" * 6, src_mac: bytes = b"\xbb" * 6) -> bytes:
    return dst_mac + src_mac + struct.pack(">H", ethertype) + payload


def vlan_ethernet(payload: bytes, inner_ethertype: int = 0x0800,
                  tci: int = 0x0064) -> bytes:
    return (b"\xaa" * 6 + b"\xbb" * 6 + struct.pack(">H", 0x8100)
            + struct.pack(">H", tci) + struct.pack(">H", inner_ethertype) + payload)


def tcp_frame(payload: bytes = b"", sport: int = 443, dport: int = 50000,
              src: bytes = b"\x0a\x00\x00\x01", dst: bytes = b"\x08\x08\x08\x08",
              ihl: int = 5, ip_options: bytes = b"", tcp_options: bytes = b"",
              data_offset: int = 5, flags: int = 0x18) -> bytes:
    tcp = tcp_header(sport, dport, flags=flags, data_offset=data_offset,
                     options=tcp_options)
    ip = ipv4_header(src=src, dst=dst, proto=6, ihl=ihl, options=ip_options,
                     payload_len=len(tcp) + len(payload))
    return ethernet(ip + tcp + payload)


def udp_frame(payload: bytes = b"", sport: int = 5000, dport: int = 6000) -> bytes:
    udp = udp_header(sport, dport, payload_len=len(payload))
    ip = ipv4_header(proto=17, payload_len=len(udp) + len(payload))
    return ethernet(ip + udp + payload)


def pcap_bytes(frames: list[bytes], magic: bytes = b"\xd4\xc3\xb2\xa1",
               origlens: list[int] | None = None) -> bytes:
    """A legacy capture file holding the given frames."""
    order = {b"\xd4\xc3\xb2\xa1": "<", b"\xa1\xb2\xc3\xd4": ">",
             b"\x4d\x3c\xb2\xa1": "<", b"\xa1\xb2\x3c\x4d": ">"}[magic]
    out = bytearray(magic)
    out += struct.pack(order + "HHiIII", 2, 4, 0, 0, 65535, 1)
    for i, frame in enumerate(frames):
        orig = origlens[i] if origlens is not None else len(frame)
        out += struct.pack(order + "IIII", 1_700_000_000 + i, i, len(frame), orig)
        out += frame
    return bytes(out)


def checkpoint_with_header(raw: bytes, edit) -> bytes:
    """A checkpoint file's bytes with its JSON header replaced by `edit(header)`;
    the header length field follows the new header, the payload is kept."""
    (length,) = struct.unpack_from("<I", raw, 10)
    header = json.loads(raw[14:14 + length])
    blob = json.dumps(edit(header)).encode("utf-8")
    return raw[:10] + struct.pack("<I", len(blob)) + blob + raw[14 + length:]


def checkpoint_with_nested_header(raw: bytes, depth: int = 200_000) -> bytes:
    """A checkpoint file's bytes with its JSON header replaced by `depth` list
    openings, nested deeper than the JSON parser can recurse; the payload is kept."""
    (length,) = struct.unpack_from("<I", raw, 10)
    blob = b"[" * depth
    return raw[:10] + struct.pack("<I", len(blob)) + blob + raw[14 + length:]


def checkpoint_with_table_twice(raw: bytes, name: str) -> bytes:
    """A checkpoint file's bytes whose header's table lists table `name` again
    at its end, with that table's bytes repeated at the payload's end, so the
    payload still holds as many values as the table wants."""
    (length,) = struct.unpack_from("<I", raw, 10)
    payload, start = raw[14 + length:], 0
    for entry in json.loads(raw[14:14 + length])["tensors"]:
        size = 8 * math.prod(entry[1])
        if entry[0] == name:
            break
        start += size
    assert entry[0] == name, name
    return (checkpoint_with_header(raw, lambda h: {**h, "tensors": h["tensors"] + [entry]})
            + payload[start:start + size])


def checkpoint_without_table(raw: bytes, name: str) -> bytes:
    """A checkpoint file's bytes with table `name` dropped from both the header's
    table and the payload, so the file stays self-consistent."""
    (length,) = struct.unpack_from("<I", raw, 10)
    header = json.loads(raw[14:14 + length])
    assert name in [entry[0] for entry in header["tensors"]], name
    payload, start = raw[14 + length:], 0
    for entry_name, shape in header["tensors"]:
        size = 8 * math.prod(shape)
        if entry_name == name:
            break
        start += size
    header["tensors"] = [e for e in header["tensors"] if e[0] != name]
    blob = json.dumps(header).encode("utf-8")
    return (raw[:10] + struct.pack("<I", len(blob)) + blob
            + payload[:start] + payload[start + size:])


def checkpoint_with_value(raw: bytes, name: str, value: float) -> bytes:
    """A checkpoint file's bytes with the first value of table `name` replaced
    by `value`."""
    (length,) = struct.unpack_from("<I", raw, 10)
    start = 14 + length
    for entry_name, shape in json.loads(raw[14:14 + length])["tensors"]:
        if entry_name == name:
            return raw[:start] + struct.pack("<d", value) + raw[start + 8:]
        start += 8 * math.prod(shape)
    raise AssertionError(name)


FUZZ_BYTES = np.frombuffer(b',"\r\n .-+e0159naif\x00\xff', dtype=np.uint8)


def mutate(rng, data: bytes, inserted: np.ndarray = FUZZ_BYTES) -> bytes:
    """Flip, delete, insert (drawn from `inserted`) or truncate a few bytes of `data`."""
    buf = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        pos = int(rng.integers(0, len(buf) + 1))
        kind = int(rng.integers(0, 5))
        if kind == 0 and pos < len(buf):
            buf[pos] ^= int(rng.integers(1, 256))
        elif kind == 1:
            del buf[pos:pos + int(rng.integers(1, 16))]
        elif kind == 2:
            buf[pos:pos] = bytes(rng.choice(inserted, size=int(rng.integers(1, 6))))
        elif kind == 3:
            del buf[pos:]
        else:  # cut after the end of a line, which can leave a valid file
            del buf[buf.find(b"\n", pos) + 1 or len(buf):]
    return bytes(buf)


def check_mutants(tmp_path, write_canonical, read, check) -> None:
    """300 mutants of the file `write_canonical(path)` writes: `read(path)`
    raises only FlowgateErrors or returns what `check(result)` passes, and
    `check`, which returns how many items a result holds, counts some."""
    original = tmp_path / "canonical.csv"
    write_canonical(original)
    data = original.read_bytes()
    rng = np.random.default_rng(20240315)
    path = tmp_path / "mutant.csv"
    accepted = 0
    for _ in range(300):
        path.write_bytes(mutate(rng, data))
        try:
            result = read(path)
        except FlowgateError:
            continue
        accepted += check(result)
    assert accepted > 0
