import csv
import hashlib
import re

import numpy as np
import pytest

import flowgate.dataset as dataset
from flowgate.dataset import (
    read_dataset, read_latents, values_matrix, write_dataset, write_latents,
)
from flowgate.errors import MalformedRow
from flowgate.metrics import ScoredSample, read_scores, write_scores
from flowgate.packets import PAYLOAD_OFFSET, EncodedPacket, Label
from crafting import check_mutants


def make_packet(rng, label=None, idx=0):
    codes = rng.integers(0, 256, size=1600).astype(np.uint8).tobytes()
    return EncodedPacket(codes, label=label, source_id=("mem", idx))


def test_empty_write_and_read(tmp_path):
    path = tmp_path / "d.csv"
    assert write_dataset([], path) == 0
    text = path.read_text()
    assert text.startswith("f0,f1,") and text.count("\n") == 1
    assert read_dataset(path) == []


def test_round_trip_values_and_labels(tmp_path):
    rng = np.random.default_rng(0)
    packets = [make_packet(rng, label, i) for i, label in
               enumerate([Label.NORMAL, Label.ANOMALY, None])]
    path = tmp_path / "d.csv"
    assert write_dataset(packets, path) == 3
    back = read_dataset(path)
    assert len(back) == 3
    for orig, rt in zip(packets, back):
        np.testing.assert_allclose(rt.values, orig.values, atol=1e-6)
        assert rt.label == orig.label
    # exact representation means the round trip is actually bit-exact
    np.testing.assert_array_equal(values_matrix(back), values_matrix(packets))


def test_read_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "d.csv"
    write_dataset([make_packet(np.random.default_rng(1))], path)
    lines = path.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:-2]) + ",0"  # 1599 values
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedRow):
        read_dataset(path)


def test_read_rejects_out_of_range(tmp_path):
    path = tmp_path / "d.csv"
    write_dataset([make_packet(np.random.default_rng(2))], path)
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[0] = "1.5"
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedRow):
        read_dataset(path)


def test_read_rejects_non_numeric(tmp_path):
    path = tmp_path / "d.csv"
    write_dataset([make_packet(np.random.default_rng(3))], path)
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[10] = "abc"
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedRow):
        read_dataset(path)


def test_read_rejects_bad_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(MalformedRow):
        read_dataset(path)


def test_read_rejects_bad_label(tmp_path):
    path = tmp_path / "d.csv"
    write_dataset([make_packet(np.random.default_rng(4))], path)
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[-1] = "2"
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedRow):
        read_dataset(path)


def test_latents_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    z = rng.standard_normal((7, 70))
    labels = [Label.NORMAL] * 4 + [Label.ANOMALY] * 3
    path = tmp_path / "z.csv"
    assert write_latents(path, z, labels) == 7
    back, back_labels = read_latents(path)
    np.testing.assert_array_equal(back, z)
    assert back_labels == labels


def test_latents_empty(tmp_path):
    path = tmp_path / "z.csv"
    write_latents(path, np.zeros((0, 70)))
    back, labels = read_latents(path)
    assert back.shape == (0, 70) and labels == []


LATENTS_HEAD = "z0,z1,label\n"


@pytest.mark.parametrize("text, values, labels", [
    ("0.5,-1.25,0\n2.0,3e-300,\n", [[0.5, -1.25], [2.0, 3e-300]], [Label.NORMAL, None]),
    ('"0.5",-1.25,"1"\n', [[0.5, -1.25]], [Label.ANOMALY]),
    (" 0.5,-1.25 ,0\r\n2.0,3.0,1", [[0.5, -1.25], [2.0, 3.0]], [Label.NORMAL, Label.ANOMALY]),
    ("", np.zeros((0, 2)), []),
], ids=["plain", "quoted", "padded-crlf-no-final-newline", "header-only"])
def test_latent_files_read_accepts(tmp_path, text, values, labels):
    path = tmp_path / "z.csv"
    path.write_text(LATENTS_HEAD + text, newline="")
    matrix, got = read_latents(path)
    np.testing.assert_array_equal(matrix, np.array(values, dtype=np.float64).reshape(-1, 2))
    assert got == labels


@pytest.mark.parametrize("text, error", [
    ("0.5,-1.25,0\n\n2.0,3.0,1\n", "z.csv:3: expected 3 columns, got 0"),
    ("#0.5,-1.25,0\n", "z.csv:2: non-numeric value"),
    ("0.5,,0\n", "z.csv:2: non-numeric value"),
    ("0.5,-1.25,0\nnan,3.0,1\n", "z.csv: non-finite latent value"),
    ("0.5,inf,0\n", "z.csv: non-finite latent value"),
    ("0.5,-1.25,2\n", "z.csv:2: bad label field '2'"),
    ("0.5,-1.25,0\n2.0,3.0,4.0,1\n", "z.csv:3: expected 3 columns, got 4"),
    ("0.5,0\n", "z.csv:2: expected 3 columns, got 2"),
    # a finite value (0.0) in a field over csv.reader's size limit
    ("0." + "0" * 140_000 + "1,0.5,0\n", "z.csv:2: field larger than field limit"),
], ids=["blank-line", "hash", "empty-field", "nan", "inf", "bad-label", "extra-column",
        "missing-column", "oversized-field"])
def test_latent_files_read_refuses(tmp_path, text, error):
    path = tmp_path / "z.csv"
    path.write_text(LATENTS_HEAD + text, newline="")
    with pytest.raises(MalformedRow, match=re.escape(error)):
        read_latents(path)


def test_a_quoted_latent_header_is_split_as_csv_splits_it(tmp_path):
    path = tmp_path / "z.csv"
    path.write_text('"z0,z1",label\n0.5,-1.25,0\n')
    with pytest.raises(MalformedRow, match=re.escape("z.csv:2: expected 2 columns, got 3")):
        read_latents(path)
    path.write_text('"z0,z1",label\n0.5,0\n')
    assert read_latents(path)[0].tolist() == [[0.5]]


def test_a_latent_file_is_refused_at_its_first_bad_line(tmp_path):
    path = tmp_path / "z.csv"
    path.write_bytes(LATENTS_HEAD.encode() + b"1" * 140_000 + b",0.5,0\n0.5,\xff,0\n")
    with pytest.raises(MalformedRow, match=re.escape("z.csv:2: field larger than field limit")):
        read_latents(path)


def test_a_written_latents_file_is_parsed_in_one_call(tmp_path, monkeypatch):
    path = tmp_path / "z.csv"
    z = np.random.default_rng(7).standard_normal((40, 70))
    write_latents(path, z, [Label.NORMAL] * 40)

    def refuse(path):
        raise AssertionError("read record by record")
    monkeypatch.setattr(dataset, "_latents_by_record", refuse)
    np.testing.assert_array_equal(read_latents(path)[0], z)


def test_a_latent_file_the_bulk_parse_refuses_is_read_once(tmp_path, monkeypatch):
    path = tmp_path / "z.csv"
    path.write_text(LATENTS_HEAD + '0.5,-1.25,0\n2.0,3.0,\n"4.5",-6.0,1\n', newline="")
    calls, real = [], dataset.text_lines
    monkeypatch.setattr(dataset, "text_lines", lambda *a: calls.append(a) or real(*a))
    matrix, labels = read_latents(path)
    assert len(calls) == 1
    np.testing.assert_array_equal(matrix, [[0.5, -1.25], [2.0, 3.0], [4.5, -6.0]])
    assert labels == [Label.NORMAL, None, Label.ANOMALY]


QUOTED_LAST_ROWS = {
    "quoted-value": ('4.5,"-6.0",1\n', [[0.5, -1.25], [4.5, -6.0]]),
    "quoted-word": ('4.5,"x",1\n', "z.csv:3: non-numeric value"),
    "quoted-infinity": ('4.5,"1e999",1\n', "z.csv: non-finite latent value"),
    "quoted-comma": ('"4.5,-6.0",1\n', "z.csv:3: expected 3 columns, got 2"),
}


@pytest.mark.parametrize("row, outcome", QUOTED_LAST_ROWS.values(), ids=QUOTED_LAST_ROWS.keys())
def test_a_quote_in_the_last_latent_row_never_reaches_the_bulk_parse(tmp_path, monkeypatch,
                                                                     row, outcome):
    path = tmp_path / "z.csv"
    path.write_text(LATENTS_HEAD + "0.5,-1.25,0\n" + row, newline="")
    calls, real = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or real(*a, **k))
    if isinstance(outcome, str):
        with pytest.raises(MalformedRow, match=re.escape(outcome)):
            read_latents(path)
    else:
        matrix, labels = read_latents(path)
        np.testing.assert_array_equal(matrix, outcome)
        assert labels == [Label.NORMAL, Label.ANOMALY]
    assert calls == []


# --- the value contract: lookup spelling, any other exact decimal, rejections ---

def canonical_csv(path):
    """Three rows, every one holding 0.0 and 1.0, labels normal/anomaly/none."""
    rng = np.random.default_rng(6)
    packets = []
    for i, label in enumerate([Label.NORMAL, Label.ANOMALY, None]):
        codes = rng.integers(0, 256, size=1600).astype(np.uint8)
        codes[:2] = (0, 255)
        packets.append(EncodedPacket(codes.tobytes(), label=label, source_id=("mem", i)))
    write_dataset(packets, path)
    return packets


def zero_tailed_csv(path):
    """Four rows of packets shorter than the slot, as captures give: header
    slots and a payload of random length, then zero padding to 1600 bytes."""
    rng = np.random.default_rng(7)
    packets = []
    for i, (label, length) in enumerate([(Label.NORMAL, PAYLOAD_OFFSET + 1),
                                         (Label.ANOMALY, 400), (None, 977), (Label.NORMAL, 1599)]):
        codes = np.zeros(1600, dtype=np.uint8)
        codes[:length] = rng.integers(1, 256, size=length)
        packets.append(EncodedPacket(codes.tobytes(), label=label, source_id=("mem", i)))
    write_dataset(packets, path)
    return packets


def rewrite_values(path, spell):
    """Rewrite every value field of `path` through `spell`."""
    lines = path.read_text().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        fields = line.split(",")
        out.append(",".join([spell(f) for f in fields[:-1]] + fields[-1:]))
    path.write_text("\n".join(out) + "\n")


def rewrite_field(path, line, col, text):
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(",")
    fields[col] = text
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_all_256_byte_values_round_trip_bit_exact(tmp_path):
    codes = np.arange(1600) % 256
    path = tmp_path / "d.csv"
    write_dataset([EncodedPacket(codes.astype(np.uint8).tobytes())], path)
    (back,) = read_dataset(path)
    expected = np.array([float(repr(b / 255.0)) for b in codes.tolist()])
    assert back.values.dtype == np.float64
    np.testing.assert_array_equal(back.values.view(np.uint64), expected.view(np.uint64))


VARIANTS = {
    "crlf": lambda p: p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n")),
    "quoted": lambda p: rewrite_field(p, 3, 0, '"0.0"'),
    "exponent": lambda p: rewrite_values(p, lambda f: "%.18e" % float(f)),
    "integers": lambda p: rewrite_values(p, lambda f: {"0.0": "0", "1.0": "1"}.get(f, f)),
    "padded": lambda p: rewrite_field(p, 2, 5, " " + p.read_text().splitlines()[1].split(",")[5]),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_other_spellings_read_like_the_canonical_file(tmp_path, variant):
    canonical = tmp_path / "canonical.csv"
    canonical_csv(canonical)
    path = tmp_path / "variant.csv"
    path.write_bytes(canonical.read_bytes())
    VARIANTS[variant](path)
    assert path.read_bytes() != canonical.read_bytes()
    want, got = read_dataset(canonical), read_dataset(path)
    np.testing.assert_array_equal(values_matrix(got), values_matrix(want))
    assert [p.label for p in got] == [p.label for p in want]
    assert [p.source_id[1] for p in got] == [p.source_id[1] for p in want]


REJECTIONS = [
    ("nan", 2, 9, "nan"),
    ("inf", 2, 9, "inf"),
    ("minus_inf", 2, 9, "-inf"),
    ("non_numeric", 3, 10, "abc"),
    ("empty", 3, 10, ""),
    ("above_one", 3, 0, "1.5"),
    ("negative", 3, 0, "-0.5"),
    ("off_grid", 3, 4, "0.0039215686"),
    ("label", 3, -1, "2"),
]


@pytest.mark.parametrize("line,col,text", [r[1:] for r in REJECTIONS],
                         ids=[r[0] for r in REJECTIONS])
def test_rejections_name_their_line(tmp_path, line, col, text):
    path = tmp_path / "d.csv"
    canonical_csv(path)
    rewrite_field(path, line, col, text)
    with pytest.raises(MalformedRow, match=rf"d\.csv:{line}: "):
        read_dataset(path)


def test_a_row_after_a_record_spanning_lines_is_named_by_its_physical_line(tmp_path):
    path = tmp_path / "m.csv"
    packets = canonical_csv(path)
    lines = path.read_text().splitlines()
    # the first row's quoted first field holds a newline, so that record
    # spans lines 2 and 3, and the next two rows are on lines 4 and 5
    lines[1] = '"' + lines[1].replace(",", '\n",', 1)
    path.write_text("\n".join(lines) + "\n")
    got = read_dataset(path)
    assert [p.codes for p in got] == [p.codes for p in packets]
    # source ids stay record indices
    assert [p.source_id for p in got] == [("m.csv", 0), ("m.csv", 1), ("m.csv", 2)]
    lines[3] = "0.7" + lines[3][lines[3].index(","):]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedRow, match=r"m\.csv:5: values must be integral multiples"):
        read_dataset(path)
    # a record that spans lines is named by its first one
    lines[1] = '"0.7\n",' + lines[1].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedRow, match=r"m\.csv:2: values must be integral multiples"):
        read_dataset(path)


def test_a_near_grid_decimal_reads_as_its_byte(tmp_path):
    path = tmp_path / "d.csv"
    packets = canonical_csv(path)
    rewrite_field(path, 2, 9, "0.003921568627")  # 255 times it is 1 - 1.1e-10
    got = read_dataset(path)
    assert got[0].values[9] == 1 / 255.0
    assert got[0].codes == packets[0].codes[:9] + b"\x01" + packets[0].codes[10:]
    assert [p.codes for p in got[1:]] == [p.codes for p in packets[1:]]


@pytest.mark.parametrize("n_values", [1599, 1601])
def test_wrong_value_count_names_its_line(tmp_path, n_values):
    path = tmp_path / "d.csv"
    canonical_csv(path)
    lines = path.read_text().splitlines()
    *values, label = lines[2].split(",")
    lines[2] = ",".join((values + values)[:n_values] + [label])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedRow, match=rf"d\.csv:3: expected 1601 columns, got {n_values + 1}"):
        read_dataset(path)


def valid_packets(packets) -> int:
    for p in packets:
        v = p.values
        assert v.shape == (1600,) and np.isfinite(v).all()
        assert v.min() >= 0.0 and v.max() <= 1.0
        assert np.abs(v * 255.0 - np.rint(v * 255.0)).max() <= 1e-9
    return len(packets)


def test_mutated_csvs_raise_only_flowgate_errors_or_read_valid_packets(tmp_path):
    check_mutants(tmp_path, canonical_csv, read_dataset, valid_packets)


def test_mutated_zero_tailed_csvs_raise_only_flowgate_errors_or_read_valid_packets(tmp_path):
    check_mutants(tmp_path, zero_tailed_csv, read_dataset, valid_packets)


def test_mutated_latent_csvs_raise_only_flowgate_errors_or_read_finite_rows(tmp_path):
    def valid_latents(result) -> int:
        matrix, labels = result
        assert matrix.ndim == 2 and matrix.shape[0] == len(labels)
        assert np.isfinite(matrix).all()
        return len(labels)

    latents = np.random.default_rng(7).standard_normal((4, 3))
    check_mutants(tmp_path, lambda path: write_latents(path, latents, [Label.NORMAL, None] * 2),
                  read_latents, valid_latents)


# --- rows that end in a run of zero values ---

@pytest.mark.parametrize("zeros", [0, 1, 1598, 1599, 1600])
def test_a_zero_tail_reads_like_the_float_parser(tmp_path, zeros):
    rng = np.random.default_rng(zeros)
    codes = rng.integers(1, 256, size=1600).astype(np.uint8)
    codes[1600 - zeros:] = 0
    path = tmp_path / "d.csv"
    write_dataset([EncodedPacket(codes.tobytes(), label=Label.ANOMALY)], path)
    line = path.read_text().splitlines()[1]
    assert line.endswith(",0.0" * min(zeros, 1599) + ",1")
    want = dataset._parse_row(next(csv.reader([line])), "d.csv:2")
    (got,) = read_dataset(path)
    assert (got.codes, got.label) == want == (codes.tobytes(), Label.ANOMALY)


# a field of the zero tail of line 3 rewritten; None where the row is refused
MALFORMED_TAILS = [
    ("two_decimals", -20, "0.00", None),
    ("integer", -20, "0", None),
    ("space", -20, " 0.0", None),
    ("empty", -20, "", "non-numeric value"),
    ("extra_zero", -1, "0.0,1", "expected 1601 columns, got 1602"),
]


@pytest.mark.parametrize("col,text,error", [m[1:] for m in MALFORMED_TAILS],
                         ids=[m[0] for m in MALFORMED_TAILS])
def test_a_malformed_zero_tail_reads_through_the_float_parser(tmp_path, col, text, error):
    path = tmp_path / "d.csv"
    packets = zero_tailed_csv(path)
    rewrite_field(path, 3, col, text)
    if error is not None:
        with pytest.raises(MalformedRow, match=rf"d\.csv:3: {error}"):
            read_dataset(path)
        return
    got = read_dataset(path)
    assert [(p.codes, p.label) for p in got] == [(p.codes, p.label) for p in packets]


def test_a_zero_tailed_canonical_file_never_reaches_the_float_parser(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    packets = zero_tailed_csv(path)

    def refuse(row, where):
        raise AssertionError(f"{where} went to the float parser")
    monkeypatch.setattr(dataset, "_parse_row", refuse)
    got = read_dataset(path)
    assert [(p.codes, p.label) for p in got] == [(p.codes, p.label) for p in packets]


# --- text that is not ASCII ---

def test_valid_utf8_outside_ascii_is_a_bad_label_not_undecodable(tmp_path):
    path = tmp_path / "d.csv"
    canonical_csv(path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(",0\n", ",é\n", 1), encoding="utf-8")
    with pytest.raises(MalformedRow, match=r"d\.csv:2: bad label field 'é'"):
        read_dataset(path)


# --- every text reader's outcome over seeded mutants, pinned as one digest ---

# what a mutation inserts: line ends, NUL, undecodable and split UTF-8 (a lead
# byte before ASCII or a line end), separators that end no CSV line (U+2028,
# NEL, FF), and quotes, the last one opening a field that spans lines
TEXT_TOKENS = [b"\n", b"\r", b"\r\n", b"\x00", b"\xff", b"\xc3", b"\xc3\n", b"\xc3\xa9",
               "\u2028".encode(), "\x85".encode(), b"\x0c", b'"', b',"0.0\n"']
LINE_ENDS = (b"\n", b"\r\n", b"\r")


TEXT_READERS = {"text_lines": lambda path: list(dataset.text_lines(path, "text")),
                "read_dataset": read_dataset, "read_latents": read_latents,
                "read_scores": read_scores}


def serialized(result) -> bytes:
    """The bytes of a reader's result: lines, packets, latents or scores."""
    if isinstance(result, tuple):  # read_latents
        matrix, labels = result
        return matrix.tobytes() + repr((matrix.shape, labels)).encode()
    if result and isinstance(result[0], EncodedPacket):
        return b"".join(p.codes + repr((p.label, p.source_id)).encode() for p in result)
    if result and isinstance(result[0], ScoredSample):
        return repr([(float(s.score).hex(), s.label, s.source_id) for s in result]).encode()
    return repr(result).encode()


def text_mutant(rng, data: bytes) -> bytes:
    """`data` with one or two TEXT_TOKENS inserted, each at a random offset
    or, half the time, just before a line end; then, at random, its line ends
    rewritten as CR LF or CR, or its last one dropped or made a lone CR."""
    buf = bytearray(data)
    for _ in range(int(rng.integers(1, 3))):
        pos = int(rng.integers(0, len(buf) + 1))
        if rng.integers(0, 2):
            pos = buf.find(b"\n", pos) % (len(buf) + 1)
            pos -= buf[pos - 1:pos] == b"\r"
        buf[pos:pos] = TEXT_TOKENS[int(rng.integers(0, len(TEXT_TOKENS)))]
    out = bytes(buf)
    end = int(rng.integers(0, 6))
    if end == 1:
        out = out.replace(b"\n", b"\r\n")
    elif end == 2:
        out = out.replace(b"\n", b"\r")
    elif end == 3:
        out = out.removesuffix(b"\n")
    elif end == 4:
        out = out.removesuffix(b"\n") + b"\r"
    return out


def spanning_mutant(rng, data: bytes) -> bytes:
    """`data` with the first field of one row after the header quoted around
    a line end, so that its record spans two lines, in LF, CR LF or CR."""
    lines = data.split(b"\n")
    row = int(rng.integers(1, max(len(lines) - 1, 2)))
    eol = LINE_ENDS[int(rng.integers(0, 3))]
    lines[row] = b'"' + lines[row].replace(b",", b'\n",', 1)
    return b"\n".join(lines).replace(b"\n", eol)


def text_bases(tmp_path) -> dict[str, bytes]:
    """The files the mutants start from: each writer's output, and a latent
    file whose lines are longer than the reader's buffer."""
    rng = np.random.default_rng(20261025)
    paths = {name: tmp_path / f"{name}.csv" for name in
             ("canonical", "zero_tailed", "latents", "scores", "long_latents")}
    canonical_csv(paths["canonical"])
    zero_tailed_csv(paths["zero_tailed"])
    write_latents(paths["latents"], rng.standard_normal((4, 3)), [Label.NORMAL, None] * 2)
    write_scores(paths["scores"], [ScoredSample(float(s), label, ("f.pcap", i))
                                   for i, (s, label) in enumerate(zip(
                                       rng.random(4), [Label.ANOMALY, None] * 2))])
    long_row = 0.125 + np.arange(2 * 80_000).reshape(2, -1) / 1024
    write_latents(paths["long_latents"], long_row, [Label.NORMAL, Label.ANOMALY])
    # in LF, as write_scores' CR LF is one of the line ends the mutants choose
    return {name: path.read_bytes().replace(b"\r\n", b"\n") for name, path in paths.items()}


def test_every_text_reader_outcome_is_the_pinned_one(tmp_path):
    """Each base file in each line end, and seeded mutants of it, read by
    text_lines, read_dataset, read_latents and read_scores. An outcome is the
    reader's result, serialized, or the type and message of what it raised,
    with the path masked; the outcomes are hashed in order, so a change to the
    line source or a reader that alters any of them changes the digest. No
    input holds a bad row after a record that spans lines; the line that
    read_dataset names for one is tested on its own above."""
    bases = text_bases(tmp_path)
    assert max(map(len, bases["long_latents"].split(b"\n"))) > 1 << 20  # text_lines' buffer
    rng = np.random.default_rng(20261026)
    inputs = [base.replace(b"\n", eol) for base in bases.values() for eol in LINE_ENDS]
    for name, base in bases.items():
        if name != "long_latents":
            inputs += [text_mutant(rng, base) for _ in range(300)]
            inputs += [spanning_mutant(rng, base) for _ in range(20)]
    inputs += [text_mutant(rng, bases["long_latents"]) for _ in range(6)]
    path = tmp_path / "m.csv"
    digest = hashlib.sha256()
    kinds: dict[str, int] = {}
    for data in inputs:
        path.write_bytes(data)
        for reader, read in TEXT_READERS.items():
            try:
                kind, out = f"{reader} read", serialized(read(path))
            except Exception as err:  # every refusal is part of the outcome, whatever its type
                kind = f"{reader} refused {type(err).__name__}"
                out = str(err).replace(str(path), "<path>").encode()
            for part in (kind.encode(), out):
                digest.update(len(part).to_bytes(8, "little") + part)
            kinds[kind] = kinds.get(kind, 0) + 1
    assert all(kinds.get(f"{reader} read", 0) > 20 for reader in TEXT_READERS)
    assert kinds["text_lines refused MalformedRow"] > 50
    assert digest.hexdigest() == \
        "d1f0f4035ab53c6402503b96cf8b3f0d2c41b095b5eaeb9b89187c4a27b6e507"


class _Broken(list):
    """Rows that raise once two of them have been read."""

    def __iter__(self):
        yield from self[:2]
        raise RuntimeError("row source failed")

    def __getitem__(self, i):
        if isinstance(i, int) and i >= 2:
            raise RuntimeError("row source failed")
        return super().__getitem__(i)


def _write_broken(writer, path, rng):
    if writer == "write_dataset":
        write_dataset(_Broken(make_packet(rng) for _ in range(5)), path)
    elif writer == "write_latents":
        write_latents(path, rng.standard_normal((5, 3)), _Broken([Label.NORMAL] * 5))
    else:
        write_scores(path, _Broken(ScoredSample(0.5) for _ in range(5)))


@pytest.mark.parametrize("writer", ["write_dataset", "write_latents", "write_scores"])
def test_a_writer_whose_rows_fail_leaves_the_old_file_and_no_tmp(tmp_path, writer):
    path = tmp_path / "out.csv"
    path.write_bytes(b"the old file\n")
    with pytest.raises(RuntimeError, match="row source failed"):
        _write_broken(writer, path, np.random.default_rng(0))
    assert path.read_bytes() == b"the old file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
