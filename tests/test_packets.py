import numpy as np
import pytest

from flowgate.errors import BadIHL, HeaderTruncated, NotIPv4, ShapeMismatch, TooShort
from flowgate.packets import (
    DropReason, EncodedPacket, Label, Transport, canonicalize, encode_frame,
    filter_packet, parse_network_transport, strip_link_layer,
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


# --- parse_network_transport ---

def test_parse_minimal_udp():
    data = ipv4_header(proto=17, payload_len=12) + udp_header(payload_len=4) + b"abcd"
    p = parse_network_transport(data)
    assert p.transport_protocol is Transport.UDP
    assert len(p.ip_header) == 20
    assert len(p.transport_header) == 8
    assert p.payload == b"abcd"
    assert (p.src_port, p.dst_port) == (5000, 6000)


def test_parse_ihl_6():
    options = b"\x01\x02\x03\x04"
    data = (ipv4_header(proto=17, ihl=6, options=options, payload_len=8)
            + udp_header())
    p = parse_network_transport(data)
    assert len(p.ip_header) == 24
    assert p.ip_header[20:] == options


def test_parse_rejects_version_6():
    data = bytearray(ipv4_header())
    data[0] = (6 << 4) | 5
    with pytest.raises(NotIPv4):
        parse_network_transport(bytes(data))


def test_parse_rejects_bad_ihl():
    data = bytearray(ipv4_header())
    data[0] = (4 << 4) | 4
    with pytest.raises(BadIHL):
        parse_network_transport(bytes(data))


def test_parse_truncated_header():
    with pytest.raises(HeaderTruncated):
        parse_network_transport(ipv4_header()[:16])


def test_parse_tcp_options_and_flags():
    opts = b"\x01\x01\x01\x01"
    data = (ipv4_header(proto=6, payload_len=24 + 3)
            + tcp_header(data_offset=6, options=opts, flags=0x02) + b"xyz")
    p = parse_network_transport(data)
    assert len(p.transport_header) == 24
    assert p.transport_header[13] == 0x02
    assert p.payload == b"xyz"


def test_parse_other_protocol():
    data = ipv4_header(proto=47, payload_len=10) + bytes(10)
    p = parse_network_transport(data)
    assert p.transport_protocol is Transport.OTHER
    assert p.transport_header == b""


def test_parse_trims_ethernet_padding():
    # 4-byte UDP payload plus 10 bytes of link padding after total_length
    data = (ipv4_header(proto=17, payload_len=12) + udp_header(payload_len=4)
            + b"abcd" + bytes(10))
    p = parse_network_transport(data)
    assert p.payload == b"abcd"


# --- filter_packet ---

def udp_packet(sport=5000, dport=6000, payload=b"x"):
    data = (ipv4_header(proto=17, payload_len=8 + len(payload))
            + udp_header(sport, dport, len(payload)) + payload)
    return parse_network_transport(data)

def tcp_packet(sport=443, dport=50000, payload=b"x", flags=0x18):
    data = (ipv4_header(proto=6, payload_len=20 + len(payload))
            + tcp_header(sport, dport, flags=flags) + payload)
    return parse_network_transport(data)


def test_filter_dns_by_dst_port():
    v = filter_packet(udp_packet(dport=53))
    assert v is DropReason.DNS


def test_filter_dns_by_src_port():
    v = filter_packet(tcp_packet(sport=53))
    assert v is DropReason.DNS


def test_filter_tcp_control():
    v = filter_packet(tcp_packet(payload=b"", flags=0x02))
    assert v is DropReason.TCP_CONTROL


def test_filter_keeps_payload_tcp():
    v = filter_packet(tcp_packet(payload=b"p" * 100))
    assert v is None


def test_filter_keeps_empty_udp():
    v = filter_packet(udp_packet(payload=b""))
    assert v is None


def test_filter_drops_other_transport():
    data = ipv4_header(proto=47, payload_len=4) + bytes(4)
    v = filter_packet(parse_network_transport(data))
    assert v is DropReason.UNPARSEABLE


def test_filter_never_keeps_port_53():
    for sport, dport in [(53, 1000), (1000, 53), (53, 53)]:
        for maker in (udp_packet, tcp_packet):
            assert filter_packet(maker(sport=sport, dport=dport)) is not None


# --- canonicalize ---

def test_canonicalize_zeroes_addresses_and_checksum():
    p = tcp_packet(payload=b"data")
    q = canonicalize(p).codes
    assert q[12:16] == bytes(4) and q[16:20] == bytes(4)
    assert q[12:20] == bytes(8)
    assert q[10:12] == bytes(2)
    # everything else in the IP header is untouched
    for i in list(range(10)) + list(range(20, len(p.ip_header))):
        assert q[i] == p.ip_header[i]
    assert q[120:120 + len(p.payload)] == p.payload
    assert q[60:60 + len(p.transport_header)] == p.transport_header


def test_canonicalize_layout_and_padding():
    p = tcp_packet(payload=b"")
    enc = canonicalize(p)
    v = enc.values
    assert v.shape == (1600,)
    anonymized = p.ip_header[:10] + bytes(10) + p.ip_header[20:]
    ip = np.frombuffer(anonymized, dtype=np.uint8) / 255.0
    th = np.frombuffer(p.transport_header, dtype=np.uint8) / 255.0
    np.testing.assert_array_equal(v[:20], ip)
    np.testing.assert_array_equal(v[20:60], np.zeros(40))
    np.testing.assert_array_equal(v[60:80], th)
    np.testing.assert_array_equal(v[80:140], np.zeros(60))
    np.testing.assert_array_equal(v[120:], np.zeros(1480))


def test_canonicalize_byte_scaling():
    p = tcp_packet(payload=b"\xff\x00\x80")
    v = canonicalize(p).values
    assert v[120] == 1.0
    assert v[121] == 0.0
    assert v[122] == 128 / 255.0


def test_canonicalize_truncates_long_payload():
    p = tcp_packet(payload=bytes(2000))
    v = canonicalize(p).values
    assert v.shape == (1600,)


def test_canonicalize_udp_header_slot():
    p = udp_packet(payload=b"zz")
    v = canonicalize(p).values
    th = np.frombuffer(p.transport_header, dtype=np.uint8) / 255.0
    np.testing.assert_array_equal(v[60:68], th)
    np.testing.assert_array_equal(v[68:120], np.zeros(52))
    assert v[120] == ord("z") / 255.0


def test_canonicalize_deterministic():
    p = tcp_packet(payload=b"same bytes")
    a = canonicalize(p).values
    b = canonicalize(p).values
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
