"""Versioned binary checkpoint container.

Layout: 9-byte magic, 1-byte format version, little-endian u32 header length,
a canonical JSON header (stage tag, seed, config fingerprint, metadata, and a
name-sorted tensor table), then the little-endian float64 payload in table
order. All serialization is canonical so identical training runs produce
byte-identical files.

A load reads the file once, front to back, in bounded memory: the header,
then each table, straight into its own array if it is materialized, else
through one small reused buffer. Every byte is hashed and every value checked
as it is read, so a filtered load verifies the whole file and gives its
digest, and holds little more than the tables it keeps.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import CheckpointMismatch, IoFailure, ShapeMismatch
from .nn import table_shapes

MAGIC = b"FLOWGATE1"
FORMAT_VERSION = 1

STAGE_EXTRACTOR = "EXTRACTOR"
STAGE_FLOW = "FLOW"
STAGE_CLASSIFIER = "CLASSIFIER"
STAGES = (STAGE_EXTRACTOR, STAGE_FLOW, STAGE_CLASSIFIER)

# values per read of the tables a filtered load skips (256 KiB)
_SKIP_VALUES = 1 << 15


def config_fingerprint(config: Mapping) -> str:
    """sha256 of the canonical JSON form of a stage config."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(eq=False)
class Checkpoint:
    stage: str
    seed: int
    config_fingerprint: str
    tensors: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)
    # the shapes of the file's tables that a filtered load did not materialize
    skipped: dict[str, tuple[int, ...]] = field(default_factory=dict)
    path: str = ""  # the file it was loaded from, named in errors
    # the digest of the whole file's bytes when loaded from one, a filtered load
    # too, since the loader reads and hashes every table; empty otherwise
    sha256: str = ""

    def __post_init__(self):
        if self.stage not in STAGES:
            raise CheckpointMismatch(f"unknown stage tag {self.stage!r}")

    @property
    def available(self) -> dict[str, tuple[int, ...]]:
        """Every table of the checkpoint and its shape, in name order: those in
        `tensors` and those a filtered load skipped, so for a loaded one the
        file's whole shape table."""
        shapes = {name: t.shape for name, t in self.tensors.items()} | self.skipped
        return dict(sorted(shapes.items()))

    @property
    def parameter_count(self) -> int:
        return int(sum(t.size for t in self.tensors.values()))


def trained_checkpoint(stage: str, seed: int, config: dict, items, best_epoch: int,
                       history_key: str, history: Sequence[float],
                       **counts: int) -> Checkpoint:
    """A trained stage's parameters, its config, and how its training converged:
    the best epoch, the epochs run and the holdout metric of every epoch."""
    meta = {"config": config, "best_epoch": best_epoch, "epochs_run": len(history) - 1,
            history_key: [float(v) for v in history], **counts}
    return Checkpoint(stage=stage, seed=seed, config_fingerprint=config_fingerprint(config),
                      tensors={name: t.data.copy() for name, t in items}, meta=meta)


def build_model(ckpt: Checkpoint, config_type: type, nets: Callable, build: Callable):
    """`build(config, tables)` from the stage config in the checkpoint's meta,
    once the checkpoint's whole shape table (`available`) is exactly the tables
    of `nets(config)`. So `build` may use some of the tables, from a filtered
    load, and is refused in the same cases as a build from all of them. A
    missing or invalid config, a table missing or misshapen for it, or a table
    it does not name is a CheckpointMismatch naming the file, so the stage
    cache retrains it."""
    where = ckpt.path or ckpt.stage
    config = ckpt.meta.get("config")
    shapes = ckpt.available
    # a value out of range raises BadConfig (a ValueError); a mistyped or unknown key, TypeError
    try:
        if not isinstance(config, dict):
            raise TypeError("meta holds no config object")
        cfg = config_type.from_dict(config)
        named = set()
        # lazy: a config naming endless tables stops at the first one missing
        for name, shape, _ in table_shapes(nets(cfg)):
            if name not in shapes:
                raise ShapeMismatch(f"missing tensor {name}")
            if shapes[name] != shape:
                raise ShapeMismatch(f"tensor {name} has shape {shapes[name]}, "
                                    f"expected {shape}")
            named.add(name)
        unused = sorted(shapes.keys() - named)
        if unused:
            raise ShapeMismatch(f"{len(unused)} tables unused by its config: "
                                f"{', '.join(unused)}")
        return build(cfg, ckpt.tensors)
    except (ShapeMismatch, TypeError, ValueError, LookupError) as err:
        raise CheckpointMismatch(f"{where}: {err}") from err


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> str:
    """Writes `ckpt` to `path`; returns the sha256 of the bytes written."""
    names = sorted(ckpt.tensors)
    header = {
        "format": FORMAT_VERSION,
        "stage": ckpt.stage,
        "seed": int(ckpt.seed),
        "config_fingerprint": ckpt.config_fingerprint,
        "meta": ckpt.meta,
        "tensors": [[name, list(ckpt.tensors[name].shape)] for name in names],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # each table's own buffer, little-endian whatever the host's order: no copy of a
    # C-contiguous float64 table on a little-endian host
    chunks = itertools.chain(
        [MAGIC, struct.pack("<BI", FORMAT_VERSION, len(blob)), blob],
        (np.ascontiguousarray(ckpt.tensors[name], dtype="<f8") for name in names))
    digest = hashlib.sha256()
    with replacing(path, "checkpoint") as fh:
        for chunk in chunks:
            fh.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


@contextmanager
def replacing(path: str | Path, what: str):
    """A binary file to write `path`'s new content to. It is written beside the
    target and renamed over it, so a run killed mid-write leaves the old file or
    none, never a truncated one. An OSError is an IoFailure naming `what`."""
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as err:
        raise IoFailure(f"cannot write {what} {path}: {err}") from err
    finally:
        tmp.unlink(missing_ok=True)


def make_dir(path: str | Path, what: str) -> Path:
    """`path` as a directory, made with its parents if missing. An OSError, say
    for a path that names a file, is an IoFailure naming `what`."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise IoFailure(f"cannot create {what} {path}: {err}") from err
    return Path(path)


def load_checkpoint(path: str | Path, expect_stage: Optional[str] = None,
                    include: Optional[Sequence[str]] = None) -> Checkpoint:
    """Load and verify a checkpoint, reading the file once, front to back.

    `include` restricts which parameter tables are materialized: only tables
    whose name starts with one of the given prefixes are kept, each read
    straight into its own array; every other table is read through one small
    buffer, reused. Either way every byte is hashed and every value checked as
    it is read, so the returned Checkpoint's `sha256` is always the digest of
    the whole file, `tensors` holds exactly what was materialized and
    `available` gives every table of the file and its shape. The memory held
    is the header, the kept tables and the buffer. A malformed header, a shape
    table that lists a tensor twice or does not fit the payload, a read that
    comes up short, or a NaN or infinity in any table, kept or not, raises
    CheckpointMismatch naming the path (and the table).
    """
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(fh, path, expect_stage, include)
    except OSError as err:
        raise IoFailure(f"cannot read checkpoint {path}: {err}") from err


def _read_checkpoint(fh, path: str | Path, expect_stage: Optional[str],
                     include: Optional[Sequence[str]]) -> Checkpoint:
    """load_checkpoint of the open file `fh`, read only by `read`, `readinto`
    and `fileno`."""
    digest = hashlib.sha256()
    size = os.fstat(fh.fileno()).st_size

    def read(n: int) -> bytes:
        data = fh.read(n)
        digest.update(data)
        return data

    def fill(values: np.ndarray, name: str) -> None:
        """Reads the next `values.size` values of tensor `name` into `values`."""
        raw = values.view(np.uint8)
        if fh.readinto(raw) != raw.size:
            raise CheckpointMismatch(f"{path}: the file ends inside tensor {name}")
        digest.update(raw)
        if not np.isfinite(values).all():
            raise CheckpointMismatch(f"{path}: tensor {name} holds a non-finite value")

    head = read(len(MAGIC) + 5)
    if head[:len(MAGIC)] != MAGIC:
        raise CheckpointMismatch(f"{path}: bad magic")
    if len(head) < len(MAGIC) + 5:
        raise CheckpointMismatch(f"{path}: truncated header")
    version = head[len(MAGIC)]
    if version != FORMAT_VERSION:
        raise CheckpointMismatch(f"{path}: unsupported format version {version}")
    (header_len,) = struct.unpack_from("<I", head, len(MAGIC) + 1)
    offset = len(head) + header_len
    # a length past the file's end is refused before a buffer that long is made
    if offset > size or len(blob := read(header_len)) != header_len:
        raise CheckpointMismatch(f"{path}: truncated header")
    try:
        header = json.loads(blob.decode("utf-8"))
    # bad UTF-8 or JSON, an integer too long to parse, or nesting too deep
    except (ValueError, RecursionError) as err:
        raise CheckpointMismatch(f"{path}: corrupt header") from err
    if not isinstance(header, dict):
        raise CheckpointMismatch(f"{path}: header is not a JSON object")

    stage = header.get("stage")
    if stage not in STAGES:
        raise CheckpointMismatch(f"{path}: unknown stage tag {stage!r}")
    if expect_stage is not None and stage != expect_stage:
        raise CheckpointMismatch(
            f"{path}: expected stage {expect_stage}, found {stage}")
    seed, meta, table = header.get("seed"), header.get("meta"), header.get("tensors")
    if not (type(seed) is int and isinstance(header.get("config_fingerprint"), str)
            and isinstance(meta, dict) and isinstance(table, list)
            and all(_is_table_entry(entry) for entry in table)):
        raise CheckpointMismatch(
            f"{path}: header needs an int seed, a string config_fingerprint, a meta "
            "object and a tensors list of [name, [non-negative ints]]")
    names = [name for name, _ in table]
    if len(set(names)) != len(names):
        twice = next(name for name in names if names.count(name) > 1)
        raise CheckpointMismatch(f"{path}: the shape table lists tensor {twice} twice")

    # exact integer sizes: a shape too large for int64 cannot wrap to a small one,
    # and no table is allocated past the file's size
    total = sum(math.prod(shape) for _, shape in table)
    if size - offset != total * 8:
        raise CheckpointMismatch(
            f"{path}: payload holds {(size - offset) // 8} values, "
            f"shape table wants {total}")

    keep = None if include is None else tuple(include)
    tensors: dict[str, np.ndarray] = {}
    skipped: dict[str, tuple[int, ...]] = {}
    buffer = None
    for name, shape in table:
        if keep is None or name.startswith(keep):
            try:
                tensors[name] = np.empty(shape, dtype="<f8")
            except ValueError as err:  # a zero-size shape numpy cannot represent
                raise CheckpointMismatch(f"{path}: tensor {name}: {err}") from err
            fill(tensors[name].reshape(-1), name)
            continue
        skipped[name] = tuple(shape)
        if buffer is None:
            buffer = np.empty(_SKIP_VALUES, dtype="<f8")
        count = math.prod(shape)
        for start in range(0, count, _SKIP_VALUES):
            fill(buffer[:min(_SKIP_VALUES, count - start)], name)

    return Checkpoint(stage=stage, seed=seed,
                      config_fingerprint=header["config_fingerprint"],
                      tensors=tensors, meta=meta, skipped=skipped, path=str(path),
                      sha256=digest.hexdigest())


def _is_table_entry(entry) -> bool:
    """`[name, shape]`: a string and a list of non-negative ints."""
    return (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list)
            and all(type(n) is int and n >= 0 for n in entry[1]))


def matches(ckpt: Checkpoint, stage: str, fingerprint: str, seed: int) -> bool:
    return (ckpt.stage == stage and ckpt.config_fingerprint == fingerprint
            and ckpt.seed == seed)
