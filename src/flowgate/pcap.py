"""Reader for the legacy capture container (the classic tcpdump format).

Only the fixed-header record stream is handled; the newer block-based
container is out of scope.
"""
from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterator, NamedTuple

from .errors import IoFailure, OversizedRecord, TruncatedRecord, UnrecognizedMagic

GLOBAL_HEADER_LEN = 24
RECORD_HEADER_LEN = 16
# libpcap's MAXIMUM_SNAPLEN; a larger caplen is a corrupt header, refused before
# the read so that it cannot ask for up to 4 GiB
MAX_CAPLEN = 262_144

# magic bytes as they appear on disk -> struct byte order
_MAGICS = {
    b"\xd4\xc3\xb2\xa1": "<",  # little-endian, microsecond timestamps
    b"\xa1\xb2\xc3\xd4": ">",  # big-endian, microsecond
    b"\x4d\x3c\xb2\xa1": "<",  # little-endian, nanosecond
    b"\xa1\xb2\x3c\x4d": ">",  # big-endian, nanosecond
}


class RawPacket(NamedTuple):
    """One captured frame, exactly as stored in the file: a tuple, so that a
    record costs what its fields do."""

    capture_index: int
    link_bytes: bytes
    caplen: int
    origlen: int


def parse_capture(file_path: str | Path) -> Iterator[RawPacket]:
    """Yield RawPackets in file order, indices 0, 1, 2, ...

    Raises UnrecognizedMagic for an unknown container, OversizedRecord when a
    record header claims more than MAX_CAPLEN bytes, TruncatedRecord when it
    claims more bytes than the file holds, and IoFailure naming the path when
    the file cannot be opened or read.
    """
    path = Path(file_path)
    try:
        with open(path, "rb") as fh:
            head = fh.read(GLOBAL_HEADER_LEN)
            if len(head) < 4 or head[:4] not in _MAGICS:
                raise UnrecognizedMagic(f"{path}: not a recognized capture file")
            if len(head) < GLOBAL_HEADER_LEN:
                raise TruncatedRecord(f"{path}: global header cut short")
            record = struct.Struct(_MAGICS[head[:4]] + "IIII")
            index = 0
            while True:
                raw = fh.read(RECORD_HEADER_LEN)
                if not raw:
                    return
                if len(raw) < RECORD_HEADER_LEN:
                    raise TruncatedRecord(f"{path}: record {index} header cut short")
                _ts_sec, _ts_frac, caplen, origlen = record.unpack(raw)
                if caplen > MAX_CAPLEN:
                    raise OversizedRecord(
                        f"{path}: record {index} claims {caplen} bytes, "
                        f"above the {MAX_CAPLEN}-byte maximum")
                data = fh.read(caplen)
                if len(data) < caplen:
                    raise TruncatedRecord(
                        f"{path}: record {index} claims {caplen} bytes, "
                        f"only {len(data)} remain")
                yield RawPacket(index, data, caplen, origlen)
                index += 1
    except OSError as err:
        raise IoFailure(f"cannot read capture {path}: {err}") from err
