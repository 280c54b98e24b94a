"""CSV storage for encoded packets and latent vectors.

Packet rows are 1600 values plus a label column ("0" normal, "1" anomaly,
empty when unlabeled). A packet is held as its 1600 bytes until the model
reads it; each value is b/255 for a byte b, and write_dataset spells it as
the shortest exact decimal of that double, one of 256 strings, so a round
trip reproduces the bytes and their values bit for bit.

read_dataset decodes a row whose values are all in that spelling by table
lookup. The run of "0.0" fields that ends a packet shorter than its slot is
matched as one string, so only the fields before it are split and looked up:
a row costs about its payload, not its 1600 fields. A row with any other
field (quoted, padded, in exponent form, `0` for 0.0, hand-written) is
tokenized by csv.reader and parsed as floats, which is slower but accepts
any decimal whose product with 255 is within 1e-9 of a whole number b, and
reads it as the byte b: a near-grid decimal such as 0.003921568627 becomes
exactly 1/255. NaN, infinities, values outside [0, 1] or off that grid, a
wrong column count and a label other than empty, "0" or "1" are rejected
with MalformedRow naming the line.

Every reader (read_dataset, read_latents, metrics.read_scores, the CLI's
config file) takes its lines from text_lines, which reads the file as bytes
in 1 MB blocks: a line ends at LF, CR or CR LF only, and each is decoded
once, strictly as UTF-8, at ASCII speed when it is ASCII. An error names
the physical line, also after a quoted field that spans lines.

The writers write beside their target and rename the file over it
(`checkpoint.replacing`), so a write that fails or is killed partway leaves
the old file or none, never a truncated one.
"""
from __future__ import annotations

import csv
import io
import itertools
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .checkpoint import replacing
from .errors import IoFailure, MalformedRow
from .packets import EncodedPacket, Label, VECTOR_LEN, byte_values

DATASET_HEADER = [f"f{i}" for i in range(VECTOR_LEN)] + ["label"]

# all 256 representable byte values, pre-formatted
_BYTE_STR = [repr(b / 255.0) for b in range(256)]
# write_dataset's spelling of a value -> its byte; b / 255.0 is the same
# correctly rounded quotient that repr(b / 255.0) spells
_BYTE_OF = {text: b for b, text in enumerate(_BYTE_STR)}
_LABEL_OF = {"": None, "0": Label.NORMAL, "1": Label.ANOMALY}
# (n, write_dataset's spelling of n zero values, each after its comma) for
# each power of two n below VECTOR_LEN, largest first: their sums reach any
# count of trailing zeros a row can hold
_ZERO_RUNS = [(1 << i, ",0.0" * (1 << i))
              for i in reversed(range((VECTOR_LEN - 1).bit_length()))]
# bytes `text_lines` reads from its file at a time
_READ_BUFFER = 1 << 20


def _label_str(label: Optional[Label]) -> str:
    return "" if label is None else str(label.value)


def write_dataset(packets: Iterable[EncodedPacket], out: str | Path) -> int:
    """One row per packet; returns the number of rows written."""
    count = 0
    with replacing(out, "dataset") as raw, io.TextIOWrapper(raw, newline="") as fh:
        fh.write(",".join(DATASET_HEADER) + "\n")
        for packet in packets:
            fh.write(",".join(map(_BYTE_STR.__getitem__, packet.codes)))
            fh.write("," + _label_str(packet.label) + "\n")
            count += 1
    return count


def _lookup_row(line: str) -> Optional[tuple[bytes, Optional[Label]]]:
    """Byte codes and label of a line in write_dataset's spelling, else None."""
    # a file in another spelling usually differs in its first field already;
    # skip splitting the line that the float parser will split again
    if line[:line.find(",")] not in _BYTE_OF:
        return None
    # a line holds one record ending in at most one of \n, \r, \r\n
    body, _, label_text = line.rstrip("\r\n").rpartition(",")
    if label_text not in _LABEL_OF:
        return None
    # a packet shorter than its slot ends in a run of "0.0" fields: count the
    # whole ",0.0" fields that end the body by binary search, one string
    # compare per bit of the count, so only the head before them is split and
    # looked up. The first field has no comma before it and stays in the head
    zeros = 0
    for run, text in _ZERO_RUNS:
        if body.endswith(text, 0, len(body) - 4 * zeros):
            zeros += run
    head = body[:len(body) - 4 * zeros].split(",")
    if len(head) + zeros != VECTOR_LEN:
        return None
    try:
        return bytes(map(_BYTE_OF.__getitem__, head)) + bytes(zeros), _LABEL_OF[label_text]
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
    they are used. The file is read as bytes: a line ends at LF, CR or CR LF,
    as in text mode with newline="", and no other separator (FF, NEL, U+2028)
    ends one. Each line is decoded once, strictly as UTF-8, which runs at
    ASCII speed on an ASCII line. An LF or CR LF file is held one line at a
    time, and each of its lines is taken whole, with no second pass to split
    it; a file whose lines end in a lone CR is held until its next LF. A
    file that cannot be read is an IoFailure naming `what`; a line that is
    not UTF-8, a MalformedRow naming it."""
    try:
        fh = open(path, "rb", buffering=_READ_BUFFER)
    except OSError as err:
        raise IoFailure(f"cannot read {what} {path}: {err}") from err
    with fh:
        lineno = 0
        for chunk in fh:
            # a chunk ends at its first LF; a CR before its closing CR LF ends lines too
            cr = chunk.find(b"\r")
            whole = cr < 0 or cr == len(chunk) - 2 and chunk.endswith(b"\n")
            for line in (chunk,) if whole else chunk.splitlines(keepends=True):
                lineno += 1
                try:
                    yield line.decode("utf-8")
                except UnicodeDecodeError:
                    raise MalformedRow(f"{path}:{lineno}: undecodable text") from None


def read_dataset(path: str | Path) -> list[EncodedPacket]:
    """Read a packet CSV, validating every row (see the module docstring)."""
    fid = Path(path).name
    packets: list[EncodedPacket] = []
    lines = text_lines(path, "dataset")
    where = f"{path}:1"
    try:
        if next(csv.reader(lines), None) != DATASET_HEADER:
            raise MalformedRow(f"{path}: missing or wrong header row")
        lineno = 1
        # a packet's source id is its record index, which runs behind the line
        # number once a quoted field has spanned lines
        for index, line in enumerate(lines):
            lineno += 1
            where = f"{path}:{lineno}"
            looked_up = _lookup_row(line)
            if looked_up is None:
                # csv.reader pulls further lines when a quoted field spans them
                reader = csv.reader(itertools.chain([line], lines))
                record = next(reader)
                lineno += reader.line_num - 1
                looked_up = _parse_row(record, where)
            codes, label = looked_up
            packets.append(EncodedPacket(codes, label, (fid, index)))
    except csv.Error as err:
        raise MalformedRow(f"{where}: {err}") from err
    return packets


def codes_matrix(packets: Sequence[EncodedPacket]) -> np.ndarray:
    """The packets' bytes as a read-only [n, 1600] uint8 matrix: how training
    holds a set, one byte per value, until a batch is read."""
    codes = np.frombuffer(b"".join(p.codes for p in packets), dtype=np.uint8)
    return codes.reshape(-1, VECTOR_LEN)


def values_matrix(packets: Sequence[EncodedPacket]) -> np.ndarray:
    """The packets' values as one [n, 1600] float64 matrix, each byte/255, for
    a reader that wants a whole set's values at once. The models never read a
    set this way: training reads a batch of its codes at a time, and latents
    are encoded one padded block at a time (`extractor.encode_codes`)."""
    return byte_values(codes_matrix(packets))


# --- latent-vector CSV (70 columns + label) ---

def write_latents(path: str | Path, latents: np.ndarray,
                  labels: Optional[Sequence[Optional[Label]]] = None) -> int:
    arr = np.asarray(latents, dtype=np.float64)
    if arr.ndim != 2:
        raise MalformedRow(f"latents must be 2-D, got shape {arr.shape}")
    with replacing(path, "latents") as raw, io.TextIOWrapper(raw, newline="") as fh:
        fh.write(",".join(f"z{i}" for i in range(arr.shape[1])) + ",label\n")
        for i, row in enumerate(arr.tolist()):  # Python floats: repr spells each exactly
            label = labels[i] if labels is not None else None
            fh.write(",".join(map(repr, row)))
            fh.write("," + _label_str(label) + "\n")
    return arr.shape[0]


def csv_records(path: str | Path, lines: Iterable[str]) -> Iterator[tuple[str, list[str]]]:
    """`(path:line, record)` for each csv.reader record of `lines`, the lines of
    the file at `path`, at the record's last line; a record csv.reader refuses
    (a field over its size limit, say) is a MalformedRow naming its line."""
    reader = csv.reader(lines)
    try:
        for record in reader:
            yield f"{path}:{reader.line_num}", record
    except csv.Error as err:
        raise MalformedRow(f"{path}:{reader.line_num}: {err}") from err


def read_latents(path: str | Path) -> tuple[np.ndarray, list[Optional[Label]]]:
    """The latents and labels of a latent CSV, with rows of any count of
    finite values. The file is read once. A file in write_latents' form is
    parsed by one np.loadtxt call; any other, or any refused, is parsed
    record by record from the same lines, which names the line of the first
    bad record."""
    lines: list[str] = []
    try:
        for line in text_lines(path, "latents"):
            lines.append(line)
    except MalformedRow as err:
        # an undecodable line: a bad record before it is still named first
        return _latents_by_record(path, _then_raise(lines, err))
    bulk = _bulk_latents(lines)
    return bulk if bulk is not None else _latents_by_record(path, lines)


def _then_raise(lines: list[str], err: Exception) -> Iterator[str]:
    yield from lines
    raise err


def _bulk_latents(lines: list[str]) -> Optional[tuple[np.ndarray, list[Optional[Label]]]]:
    """read_latents' result for a file of unquoted `lines` that np.loadtxt
    parses whole, else None. It accepts no line the record reader refuses:
    a quote, an empty or non-numeric field, a line csv.reader would find
    over its field limit, a bad label or a non-finite value all return None,
    a quote in any line before np.loadtxt is called."""
    if not lines or '"' in lines[0] or max(map(len, lines)) >= csv.field_size_limit():
        return None
    header = lines[0].rstrip("\r\n").split(",")
    if header[-1] != "label":
        return None
    values, labels = [], []
    for line in lines[1:]:
        head, comma, label = line.rstrip("\r\n").rpartition(",")
        if not comma or label not in _LABEL_OF or '"' in head:
            return None
        values.append(head)
        labels.append(_LABEL_OF[label])
    dim = len(header) - 1
    if not values:
        return np.zeros((0, dim)), labels
    try:
        # np.loadtxt skips an empty head (the line ",0", say): the shape check refuses it
        matrix = np.loadtxt(values, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if matrix.shape != (len(values), dim) or not np.isfinite(matrix).all():
        return None
    return matrix, labels


def _latents_by_record(path: str | Path, lines: Iterable[str],
                       ) -> tuple[np.ndarray, list[Optional[Label]]]:
    records = csv_records(path, lines)
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
