import numpy as np
import pytest

from flowgate.errors import BadIHL, HeaderTruncated, NotIPv4, ShapeMismatch, TooShort
from flowgate.packets import (
    DropReason, EncodedPacket, Label, encode_frame, strip_link_layer,
)
from crafting import (
    ethernet, ipv4_header, tcp_frame, tcp_header, udp_frame, udp_header,
    vlan_ethernet,
)


# --- strip_link_layer ---

def test_strip_plain_ethernet():
    inner = bytes(range(40))
    out = strip_link_layer(ethernet(inner))
    assert out == inner


def test_strip_arp_dropped():
    out = strip_link_layer(ethernet(bytes(28), ethertype=0x0806))
    assert isinstance(out, DropReason)
    assert out is DropReason.ARP


def test_strip_vlan_offset_18():
    inner = bytes(range(60))
    frame = vlan_ethernet(inner)
    out = strip_link_layer(frame)
    assert out == inner
    assert out == frame[18:]


def test_strip_vlan_arp_dropped():
    out = strip_link_layer(vlan_ethernet(bytes(28), inner_ethertype=0x0806))
    assert isinstance(out, DropReason) and out is DropReason.ARP


def test_strip_too_short():
    with pytest.raises(TooShort):
        strip_link_layer(b"\x00" * 13)


# --- encode_frame: parsing IPv4 and TCP/UDP ---

def test_parse_minimal_udp():
    ip = ipv4_header(proto=17, payload_len=12)
    udp = udp_header(payload_len=4)
    row = encode_frame(ethernet(ip + udp + b"abcd")).codes
    assert row[9] == 17
    assert row[20:60] == bytes(40)
    assert row[60:68] == udp and row[68:120] == bytes(52)
    assert row[120:124] == b"abcd" and row[124:] == bytes(1476)
    assert (row[60] << 8 | row[61], row[62] << 8 | row[63]) == (5000, 6000)


def test_parse_ihl_6():
    options = b"\x01\x02\x03\x04"
    data = (ipv4_header(proto=17, ihl=6, options=options, payload_len=8)
            + udp_header())
    row = encode_frame(ethernet(data)).codes
    assert row[20:24] == options
    assert row[24:60] == bytes(36)
    assert row[60:68] == udp_header()


def test_parse_rejects_version_6():
    data = bytearray(ipv4_header())
    data[0] = (6 << 4) | 5
    with pytest.raises(NotIPv4):
        encode_frame(ethernet(bytes(data)))


def test_parse_rejects_bad_ihl():
    data = bytearray(ipv4_header())
    data[0] = (4 << 4) | 4
    with pytest.raises(BadIHL):
        encode_frame(ethernet(bytes(data)))


def test_parse_truncated_header():
    with pytest.raises(HeaderTruncated):
        encode_frame(ethernet(ipv4_header()[:16]))


def test_parse_tcp_options_and_flags():
    opts = b"\x01\x01\x01\x01"
    tcp = tcp_header(data_offset=6, options=opts, flags=0x02)
    row = encode_frame(ethernet(ipv4_header(proto=6, payload_len=24 + 3) + tcp + b"xyz")).codes
    assert row[60:84] == tcp and row[84:120] == bytes(36)
    assert row[73] == 0x02
    assert row[120:123] == b"xyz"


def test_parse_other_protocol():
    data = ipv4_header(proto=47, payload_len=10) + bytes(10)
    assert encode_frame(ethernet(data)) is DropReason.UNPARSEABLE


def test_parse_trims_ethernet_padding():
    # 4-byte UDP payload plus 10 bytes of link padding after total_length
    data = (ipv4_header(proto=17, payload_len=12) + udp_header(payload_len=4)
            + b"abcd" + b"\xee" * 10)
    row = encode_frame(ethernet(data)).codes
    assert row[120:124] == b"abcd" and row[124:] == bytes(1476)


# --- encode_frame: what drops ---

def test_filter_dns_by_dst_port():
    assert encode_frame(udp_frame(b"x", dport=53)) is DropReason.DNS


def test_filter_dns_by_src_port():
    assert encode_frame(tcp_frame(b"x", sport=53)) is DropReason.DNS


def test_filter_tcp_control():
    assert encode_frame(tcp_frame(flags=0x02)) is DropReason.TCP_CONTROL


def test_filter_keeps_payload_tcp():
    assert isinstance(encode_frame(tcp_frame(b"p" * 100)), EncodedPacket)


def test_filter_keeps_empty_udp():
    assert isinstance(encode_frame(udp_frame()), EncodedPacket)


def test_filter_drops_other_transport():
    data = ipv4_header(proto=47, payload_len=4) + bytes(4)
    assert encode_frame(ethernet(data)) is DropReason.UNPARSEABLE


def test_filter_never_keeps_port_53():
    for sport, dport in [(53, 1000), (1000, 53), (53, 53)]:
        for maker in (udp_frame, tcp_frame):
            assert encode_frame(maker(b"x", sport=sport, dport=dport)) is DropReason.DNS


# --- encode_frame: the row's layout ---

def test_canonicalize_zeroes_addresses_and_checksum():
    frame = tcp_frame(b"data")
    ip, tcp = frame[14:34], frame[34:54]
    q = encode_frame(frame).codes
    assert q[12:16] == bytes(4) and q[16:20] == bytes(4)
    assert q[12:20] == bytes(8)
    assert q[10:12] == bytes(2)
    # everything else in the IP header is untouched
    for i in range(10):
        assert q[i] == ip[i]
    assert q[120:124] == b"data"
    assert q[60:80] == tcp


def test_canonicalize_layout_and_padding():
    frame = tcp_frame(b"\x00")
    ip, tcp = frame[14:34], frame[34:54]
    v = encode_frame(frame).values
    assert v.shape == (1600,)
    anonymized = ip[:10] + bytes(10)
    np.testing.assert_array_equal(v[:20], np.frombuffer(anonymized, dtype=np.uint8) / 255.0)
    np.testing.assert_array_equal(v[20:60], np.zeros(40))
    np.testing.assert_array_equal(v[60:80], np.frombuffer(tcp, dtype=np.uint8) / 255.0)
    np.testing.assert_array_equal(v[80:140], np.zeros(60))
    np.testing.assert_array_equal(v[120:], np.zeros(1480))


def test_canonicalize_byte_scaling():
    v = encode_frame(tcp_frame(b"\xff\x00\x80")).values
    assert v[120] == 1.0
    assert v[121] == 0.0
    assert v[122] == 128 / 255.0


def test_canonicalize_truncates_long_payload():
    row = encode_frame(tcp_frame(bytes(range(250)) * 8)).codes
    assert len(row) == 1600
    assert row[120:] == (bytes(range(250)) * 8)[:1480]


def test_canonicalize_udp_header_slot():
    frame = udp_frame(b"zz")
    v = encode_frame(frame).values
    th = np.frombuffer(frame[34:42], dtype=np.uint8) / 255.0
    np.testing.assert_array_equal(v[60:68], th)
    np.testing.assert_array_equal(v[68:120], np.zeros(52))
    assert v[120] == ord("z") / 255.0


def test_canonicalize_deterministic():
    frame = tcp_frame(b"same bytes")
    a = encode_frame(frame).values
    b = encode_frame(frame).values
    np.testing.assert_array_equal(a, b)


def test_encoded_packet_validation():
    for length in (10, 1599, 1601):
        with pytest.raises(ShapeMismatch, match=f"expected 1600 bytes, got {length}"):
            EncodedPacket(bytes(length))
    with pytest.raises(TypeError, match="codes must be bytes"):
        EncodedPacket(bytearray(1600))


def test_encoded_packet_values_are_its_bytes_over_255():
    codes = bytes(range(256)) * 6 + bytes(64)
    packet = EncodedPacket(codes, Label.ANOMALY, ("f", 2))
    expected = np.array([b / 255.0 for b in codes])
    assert packet.values.dtype == np.float64
    np.testing.assert_array_equal(packet.values.view(np.uint64), expected.view(np.uint64))
    with pytest.raises(AttributeError):
        packet.values = expected


def test_encode_frame_end_to_end():
    enc = encode_frame(tcp_frame(payload=b"GET / HTTP/1.1"),
                       label=Label.NORMAL, source_id=("f", 3))
    assert isinstance(enc, EncodedPacket)
    assert enc.label is Label.NORMAL
    assert enc.source_id == ("f", 3)
    assert encode_frame(udp_frame(dport=53)) is DropReason.DNS
