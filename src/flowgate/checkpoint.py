"""Versioned binary checkpoint container.

Layout: 9-byte magic, 1-byte format version, little-endian u32 header length,
a canonical JSON header (stage tag, seed, config fingerprint, metadata, and a
name-sorted tensor table), then the raw float64 payload in table order. All
serialization is canonical so identical training runs produce byte-identical
files.
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

MAGIC = b"FLOWGATE1"
FORMAT_VERSION = 1

STAGE_EXTRACTOR = "EXTRACTOR"
STAGE_FLOW = "FLOW"
STAGE_CLASSIFIER = "CLASSIFIER"
STAGES = (STAGE_EXTRACTOR, STAGE_FLOW, STAGE_CLASSIFIER)


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
    # names present in the file; equals tensors.keys() unless loading filtered
    available: tuple[str, ...] = ()
    path: str = ""  # the file it was loaded from, named in errors
    sha256: str = ""  # of the file's bytes, when loaded from one

    def __post_init__(self):
        if self.stage not in STAGES:
            raise CheckpointMismatch(f"unknown stage tag {self.stage!r}")
        if not self.available:
            self.available = tuple(sorted(self.tensors))

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


def build_model(ckpt: Checkpoint, config_type: type, build: Callable, prefix: str = ""):
    """`build(config, tables)` from the stage config in the checkpoint's meta.
    A missing or invalid config, a table missing or misshapen for it, or a loaded
    table under `prefix` that the built model does not use is a CheckpointMismatch
    naming the file, so the stage cache retrains it."""
    where = ckpt.path or ckpt.stage
    config = ckpt.meta.get("config")
    # a value out of range raises BadConfig (a ValueError); a mistyped or unknown key, TypeError
    try:
        if not isinstance(config, dict):
            raise TypeError("meta holds no config object")
        model = build(config_type.from_dict(config), ckpt.tensors)
    except (ShapeMismatch, TypeError, ValueError, LookupError) as err:
        raise CheckpointMismatch(f"{where}: {err}") from err
    used = {name for name, _ in model.param_items()}
    unused = sorted(name for name in ckpt.tensors
                    if name.startswith(prefix) and name not in used)
    if unused:
        raise CheckpointMismatch(
            f"{where}: {len(unused)} tables unused by its config: {', '.join(unused)}")
    return model


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
    chunks = itertools.chain(
        [MAGIC, struct.pack("<BI", FORMAT_VERSION, len(blob)), blob],
        (np.ascontiguousarray(ckpt.tensors[name], dtype=np.float64).tobytes()
         for name in names))
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


def load_checkpoint(path: str | Path, expect_stage: Optional[str] = None,
                    include: Optional[Sequence[str]] = None) -> Checkpoint:
    """Load and verify a checkpoint.

    `include` restricts which parameter tables are materialized: only tensors
    whose name starts with one of the given prefixes are read, everything else
    is skipped over. The returned Checkpoint's `tensors` holds exactly what was
    materialized; `available` lists every table in the file, and `sha256` is
    the digest of the file's bytes as read. A malformed header,
    or a NaN or infinity in a materialized tensor, raises CheckpointMismatch
    naming the path.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise IoFailure(f"cannot read checkpoint {path}: {err}") from err
    if raw[:len(MAGIC)] != MAGIC:
        raise CheckpointMismatch(f"{path}: bad magic")
    offset = len(MAGIC)
    if len(raw) < offset + 5:
        raise CheckpointMismatch(f"{path}: truncated header")
    version = raw[offset]
    if version != FORMAT_VERSION:
        raise CheckpointMismatch(f"{path}: unsupported format version {version}")
    offset += 1
    (header_len,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    if len(raw) < offset + header_len:
        raise CheckpointMismatch(f"{path}: truncated header")
    try:
        header = json.loads(raw[offset:offset + header_len].decode("utf-8"))
    # bad UTF-8 or JSON, an integer too long to parse, or nesting too deep
    except (ValueError, RecursionError) as err:
        raise CheckpointMismatch(f"{path}: corrupt header") from err
    offset += header_len
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

    # exact integer sizes: a shape too large for int64 cannot wrap to a small one
    total = sum(math.prod(shape) for _, shape in table)
    if len(raw) - offset != total * 8:
        raise CheckpointMismatch(
            f"{path}: payload holds {(len(raw) - offset) // 8} values, "
            f"shape table wants {total}")

    tensors: dict[str, np.ndarray] = {}
    for name, shape in table:
        size = math.prod(shape)
        if include is None or any(name.startswith(p) for p in include):
            flat = np.frombuffer(raw, dtype="<f8", count=size, offset=offset)
            if not np.isfinite(flat).all():
                raise CheckpointMismatch(f"{path}: tensor {name} holds a non-finite value")
            try:
                tensors[name] = flat.reshape(shape).copy()
            except ValueError as err:  # a zero-size shape numpy cannot represent
                raise CheckpointMismatch(f"{path}: tensor {name}: {err}") from err
        offset += size * 8

    return Checkpoint(stage=stage, seed=seed,
                      config_fingerprint=header["config_fingerprint"],
                      tensors=tensors, meta=meta,
                      available=tuple(name for name, _ in table), path=str(path),
                      sha256=hashlib.sha256(raw).hexdigest())


def _is_table_entry(entry) -> bool:
    """`[name, shape]`: a string and a list of non-negative ints."""
    return (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list)
            and all(type(n) is int and n >= 0 for n in entry[1]))


def matches(ckpt: Checkpoint, stage: str, fingerprint: str, seed: int) -> bool:
    return (ckpt.stage == stage and ckpt.config_fingerprint == fingerprint
            and ckpt.seed == seed)
