"""CSV storage for encoded packets and latent vectors.

Packet rows are 1600 values plus a label column ("0" normal, "1" anomaly,
empty when unlabeled). A packet is held as its 1600 bytes until the model
reads it; each value is b/255 for a byte b, and write_dataset spells it as
the shortest exact decimal of that double, one of 256 strings, so a round
trip reproduces the bytes and their values bit for bit.

read_dataset decodes a row whose values are all in that spelling by table
lookup. A row with any other field (quoted, padded, in exponent form, `0`
for 0.0, hand-written) is tokenized by csv.reader and parsed as floats,
which is slower but accepts any decimal whose product with 255 is within
1e-9 of a whole number b, and reads it as the byte b: a near-grid decimal
such as 0.003921568627 becomes exactly 1/255. NaN, infinities, values
outside [0, 1] or off that grid, a wrong column count and a label other than
empty, "0" or "1" are rejected with MalformedRow naming the line.
"""
from __future__ import annotations

import csv
import itertools
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import IoFailure, MalformedRow
from .packets import EncodedPacket, Label, VECTOR_LEN

DATASET_HEADER = [f"f{i}" for i in range(VECTOR_LEN)] + ["label"]

# all 256 representable byte values, pre-formatted
_BYTE_STR = [repr(b / 255.0) for b in range(256)]
# write_dataset's spelling of a value -> its byte; b / 255.0 is the same
# correctly rounded quotient that repr(b / 255.0) spells
_BYTE_OF = {text: b for b, text in enumerate(_BYTE_STR)}
_LABEL_OF = {"": None, "0": Label.NORMAL, "1": Label.ANOMALY}


def _label_str(label: Optional[Label]) -> str:
    return "" if label is None else str(label.value)


def write_dataset(packets: Iterable[EncodedPacket], out: str | Path) -> int:
    """One row per packet; returns the number of rows written."""
    count = 0
    try:
        with open(out, "w", newline="") as fh:
            fh.write(",".join(DATASET_HEADER) + "\n")
            for packet in packets:
                fh.write(",".join(map(_BYTE_STR.__getitem__, packet.codes)))
                fh.write("," + _label_str(packet.label) + "\n")
                count += 1
    except OSError as err:
        raise IoFailure(f"cannot write {out}: {err}") from err
    return count


def _lookup_row(line: str) -> Optional[tuple[bytes, Optional[Label]]]:
    """Byte codes and label of a line in write_dataset's spelling, else None."""
    # a file in another spelling usually differs in its first field already;
    # skip splitting the line that the float parser will split again
    if line[:line.find(",")] not in _BYTE_OF:
        return None
    # a line holds one record ending in at most one of \n, \r, \r\n
    fields = line.rstrip("\r\n").split(",")
    if len(fields) != VECTOR_LEN + 1 or fields[-1] not in _LABEL_OF:
        return None
    label = _LABEL_OF[fields.pop()]
    try:
        return bytes(map(_BYTE_OF.__getitem__, fields)), label
    except KeyError:
        return None


def _parse_row(row: list[str], where: str) -> tuple[bytes, Optional[Label]]:
    """Byte codes and label of a csv.reader record holding decimals of any
    spelling; each value within 1e-9/255 of some b/255 reads as the byte b."""
    if len(row) != VECTOR_LEN + 1:
        raise MalformedRow(f"{where}: expected {VECTOR_LEN + 1} columns, got {len(row)}")
    try:
        values = np.array(row[:-1], dtype=np.float64)
    except ValueError as err:
        raise MalformedRow(f"{where}: non-numeric value") from err
    # written so that NaN, which fails every comparison, fails the check
    if not (values.min() >= 0.0 and values.max() <= 1.0):
        raise MalformedRow(f"{where}: value outside [0, 1]")
    scaled = values * 255.0
    if np.abs(scaled - np.rint(scaled)).max() > 1e-9:
        raise MalformedRow(f"{where}: values must be integral multiples of 1/255")
    if row[-1] not in _LABEL_OF:
        raise MalformedRow(f"{where}: bad label field {row[-1]!r}")
    return np.rint(scaled).astype(np.uint8).tobytes(), _LABEL_OF[row[-1]]


def text_lines(path: str | Path, what: str) -> Iterator[str]:
    """The lines of the file at `path` as UTF-8 text, line ends kept, read as
    they are used. A file that cannot be read is an IoFailure naming `what`; a
    line that is not UTF-8, a MalformedRow naming it."""
    try:
        fh = open(path, encoding="utf-8", errors="surrogateescape", newline="")
    except OSError as err:
        raise IoFailure(f"cannot read {what} {path}: {err}") from err
    with fh:
        for lineno, line in enumerate(fh, 1):
            # an undecodable byte reads as a lone surrogate, which UTF-8 cannot encode
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise MalformedRow(f"{path}:{lineno}: undecodable text") from None
            yield line


def read_dataset(path: str | Path) -> list[EncodedPacket]:
    """Read a packet CSV, validating every row (see the module docstring)."""
    fid = Path(path).name
    packets: list[EncodedPacket] = []
    lines = text_lines(path, "dataset")
    where = f"{path}:1"
    try:
        if next(csv.reader(lines), None) != DATASET_HEADER:
            raise MalformedRow(f"{path}: missing or wrong header row")
        for lineno, line in enumerate(lines):
            where = f"{path}:{lineno + 2}"
            looked_up = _lookup_row(line)
            if looked_up is None:
                # csv.reader pulls further lines when a quoted field spans them
                record = next(csv.reader(itertools.chain([line], lines)))
                looked_up = _parse_row(record, where)
            codes, label = looked_up
            packets.append(EncodedPacket(codes, label, (fid, lineno)))
    except csv.Error as err:
        raise MalformedRow(f"{where}: {err}") from err
    return packets


def values_matrix(packets: Sequence[EncodedPacket]) -> np.ndarray:
    """The packets' values as an [n, 1600] float64 matrix, each byte/255."""
    codes = np.frombuffer(b"".join(p.codes for p in packets), dtype=np.uint8)
    return codes.reshape(-1, VECTOR_LEN) / 255.0


# --- latent-vector CSV (70 columns + label) ---

def write_latents(path: str | Path, latents: np.ndarray,
                  labels: Optional[Sequence[Optional[Label]]] = None) -> int:
    arr = np.asarray(latents, dtype=np.float64)
    if arr.ndim != 2:
        raise MalformedRow(f"latents must be 2-D, got shape {arr.shape}")
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(f"z{i}" for i in range(arr.shape[1])) + ",label\n")
            for i, row in enumerate(arr.tolist()):  # Python floats: repr spells each exactly
                label = labels[i] if labels is not None else None
                fh.write(",".join(map(repr, row)))
                fh.write("," + _label_str(label) + "\n")
    except OSError as err:
        raise IoFailure(f"cannot write {path}: {err}") from err
    return arr.shape[0]


def csv_records(path: str | Path, what: str) -> Iterator[tuple[str, list[str]]]:
    """`(path:line, record)` for each csv.reader record of `text_lines(path, what)`,
    at the record's last line; a record csv.reader refuses (a field over its size
    limit, say) is a MalformedRow naming its line."""
    reader = csv.reader(text_lines(path, what))
    try:
        for record in reader:
            yield f"{path}:{reader.line_num}", record
    except csv.Error as err:
        raise MalformedRow(f"{path}:{reader.line_num}: {err}") from err


def read_latents(path: str | Path) -> tuple[np.ndarray, list[Optional[Label]]]:
    records = csv_records(path, "latents")
    _, header = next(records, (None, None))
    if not header or header[-1] != "label":
        raise MalformedRow(f"{path}: missing latent header row")
    dim = len(header) - 1
    rows, labels = [], []
    for where, row in records:
        if len(row) != dim + 1:
            raise MalformedRow(f"{where}: expected {dim + 1} columns, got {len(row)}")
        try:
            rows.append(np.array(row[:-1], dtype=np.float64))
        except ValueError as err:
            raise MalformedRow(f"{where}: non-numeric value") from err
        if row[-1] not in _LABEL_OF:
            raise MalformedRow(f"{where}: bad label field {row[-1]!r}")
        labels.append(_LABEL_OF[row[-1]])
    matrix = np.stack(rows) if rows else np.zeros((0, dim))
    if matrix.size and not np.isfinite(matrix).all():
        raise MalformedRow(f"{path}: non-finite latent value")
    return matrix, labels
