import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from flowgate.errors import FlowgateError, IoFailure, TruncatedRecord, UnrecognizedMagic
from flowgate.packets import process_capture
from flowgate.pcap import parse_capture
from crafting import mutate, pcap_bytes, tcp_frame, udp_frame


def write(tmp_path, data, name="t.pcap"):
    p = tmp_path / name
    p.write_bytes(data)
    return p


def test_empty_capture_yields_nothing(tmp_path):
    path = write(tmp_path, pcap_bytes([]))
    assert list(parse_capture(path)) == []


def test_three_records_indexed_in_order(tmp_path):
    frames = [tcp_frame(payload=bytes([i])) for i in range(3)]
    path = write(tmp_path, pcap_bytes(frames))
    packets = list(parse_capture(path))
    assert [p.capture_index for p in packets] == [0, 1, 2]
    assert [p.link_bytes for p in packets] == frames


def test_caplen_and_origlen_read_back(tmp_path):
    # record sliced to 60 captured bytes of a 74-byte frame
    frame = tcp_frame(payload=b"x" * 20)
    assert len(frame) == 74
    path = write(tmp_path, pcap_bytes([frame[:60]], origlens=[74]))
    (pkt,) = parse_capture(path)
    assert pkt.caplen == 60
    assert pkt.origlen == 74
    assert len(pkt.link_bytes) == 60


@pytest.mark.parametrize("magic", [b"\xd4\xc3\xb2\xa1", b"\xa1\xb2\xc3\xd4",
                                   b"\x4d\x3c\xb2\xa1", b"\xa1\xb2\x3c\x4d"])
def test_all_magic_variants(tmp_path, magic):
    frames = [tcp_frame(payload=b"hello")]
    path = write(tmp_path, pcap_bytes(frames, magic=magic))
    (pkt,) = parse_capture(path)
    assert pkt.link_bytes == frames[0]


def test_unrecognized_magic(tmp_path):
    path = write(tmp_path, b"\x00\x01\x02\x03" + bytes(20))
    with pytest.raises(UnrecognizedMagic):
        list(parse_capture(path))


def test_truncated_record_payload(tmp_path):
    good = pcap_bytes([tcp_frame(payload=b"abc")])
    path = write(tmp_path, good[:-2])
    with pytest.raises(TruncatedRecord):
        list(parse_capture(path))


def test_truncated_record_header(tmp_path):
    good = pcap_bytes([])
    path = write(tmp_path, good + b"\x00" * 7)
    with pytest.raises(TruncatedRecord):
        list(parse_capture(path))


def test_truncated_global_header(tmp_path):
    path = write(tmp_path, b"\xd4\xc3\xb2\xa1" + bytes(10))
    with pytest.raises(TruncatedRecord):
        list(parse_capture(path))


def test_oversized_caplen_refused_before_reading(tmp_path):
    claim = struct.pack("<IIII", 0, 0, 0xFFFFFFF0, 0xFFFFFFF0)
    path = write(tmp_path, pcap_bytes([]) + claim + bytes(64))
    # parsed in a process limited to 1 GiB of address space, where reading
    # the claimed length would raise MemoryError instead
    script = (
        "import resource, sys\n"
        "from flowgate.errors import FlowgateError\n"
        "from flowgate.pcap import parse_capture\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "try:\n"
        "    list(parse_capture(sys.argv[1]))\n"
        "except FlowgateError as err:\n"
        "    print(type(err).__name__, err)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("OversizedRecord")
    assert "record 0 claims 4294967280 bytes" in proc.stdout


def test_mutated_captures_raise_only_flowgate_errors(tmp_path):
    frames = [tcp_frame(payload=b"GET / HTTP/1.1\r\n" * 3), udp_frame(payload=b"x" * 40),
              tcp_frame(payload=b"", flags=0x10), udp_frame(payload=b"q", dport=53),
              tcp_frame(payload=bytes(range(200)), ip_options=b"\x01" * 4, ihl=6)]
    data = pcap_bytes(frames)
    rng = np.random.default_rng(20261018)
    path = tmp_path / "mutant.pcap"
    kept = 0
    for _ in range(400):
        path.write_bytes(mutate(rng, data, inserted=np.arange(256, dtype=np.uint8)))
        try:
            packets, stats = process_capture(path)
        except FlowgateError:
            continue
        assert stats.kept == len(packets) <= stats.seen
        kept += len(packets)
    assert kept > 0


def test_a_capture_that_cannot_be_opened_is_an_io_failure_naming_it(tmp_path):
    for path in (tmp_path / "missing.pcap", tmp_path):
        with pytest.raises(IoFailure, match=f"cannot read capture {re.escape(str(path))}: "):
            list(parse_capture(path))
