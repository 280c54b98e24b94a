"""Input generation, run in its own process before anything is timed.

    python3 perfbench/fixtures.py --workload score --seed 3 --out DIR

Writes the workload's inputs into DIR: packet CSVs, captures, reference
encodings and, for `resweep` and `score`, checkpoints trained by the program
itself. Frames come from `flowgate.corpus.synthetic_frame` (normal and
anomalous traffic) and from the builders below (frames the cleaner must
drop); CSVs and captures are written by this file, not by the program.
"""
from __future__ import annotations

import argparse
import json
import shutil
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spec  # noqa: E402
from checks import encode_reference  # noqa: E402

_BYTE_STR = [repr(b / 255.0) for b in range(256)]
_SERVICE_PORTS = (80, 443, 8080, 22, 25)


# --- frames the cleaner must drop ---

def _mac(rng: np.random.Generator) -> bytes:
    return rng.bytes(6)


def _ethernet(rng: np.random.Generator, ethertype: int, body: bytes) -> bytes:
    return _mac(rng) + _mac(rng) + struct.pack(">H", ethertype) + body


def _ipv4(rng: np.random.Generator, proto: int, body: bytes) -> bytes:
    head = struct.pack(">BBHHHBBH", 0x45, 0, 20 + len(body),
                       int(rng.integers(0, 65536)), 0x4000, 64, proto,
                       int(rng.integers(0, 65536)))
    return head + rng.bytes(4) + rng.bytes(4) + body


def arp_frame(rng: np.random.Generator) -> bytes:
    body = struct.pack(">HHBBH", 1, 0x0800, 6, 4, 1) + _mac(rng) + rng.bytes(4) \
        + bytes(6) + rng.bytes(4)
    return _ethernet(rng, 0x0806, body)


def dns_frame(rng: np.random.Generator) -> bytes:
    payload = rng.bytes(int(rng.integers(17, 120)))
    sport = int(rng.integers(49152, 65536))
    udp = struct.pack(">HHHH", sport, 53, 8 + len(payload), 0) + payload
    return _ethernet(rng, 0x0800, _ipv4(rng, 17, udp))


def tcp_control_frame(rng: np.random.Generator) -> bytes:
    flags = int(rng.choice([0x02, 0x10, 0x11, 0x12, 0x04]))
    sport = int(rng.integers(49152, 65536))
    dport = int(rng.choice(_SERVICE_PORTS))
    tcp = struct.pack(">HHIIBBHHH", sport, dport, int(rng.integers(0, 2**32)),
                      int(rng.integers(0, 2**32)), 5 << 4, flags, 65535, 0, 0)
    return _ethernet(rng, 0x0800, _ipv4(rng, 6, tcp))


def non_ipv4_frame(rng: np.random.Generator) -> bytes:
    payload = rng.bytes(int(rng.integers(20, 200)))
    ipv6 = struct.pack(">IHBB", 0x60000000, len(payload), 17, 64) \
        + rng.bytes(16) + rng.bytes(16)
    return _ethernet(rng, 0x86DD, ipv6 + payload)


DROP_BUILDERS = {"arp": arp_frame, "dns": dns_frame,
                 "tcp_control": tcp_control_frame, "non_ipv4": non_ipv4_frame}


# --- writers ---

def write_pcap(path: Path, frames: list[bytes]) -> None:
    out = bytearray(b"\xd4\xc3\xb2\xa1")
    out += struct.pack("<HHiIII", 2, 4, 0, 0, 65535, 1)
    for i, frame in enumerate(frames):
        out += struct.pack("<IIII", 1_700_000_000 + i // 1000, i % 1000 * 1000,
                           len(frame), len(frame))
        out += frame
    path.write_bytes(bytes(out))


def write_packet_csv(path: Path, rows: np.ndarray, labels: list[int]) -> None:
    """Rows of uint8 bytes as `f0..f1599,label`, each value byte/255."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"f{i}" for i in range(rows.shape[1])) + ",label\n")
        for row, label in zip(rows, labels):
            fh.write(",".join(_BYTE_STR[b] for b in row.tolist()))
            fh.write(f",{label}\n")


def _encode_bytes(frames: list[bytes]) -> np.ndarray:
    return np.rint(np.stack([encode_reference(f) for f in frames]) * 255.0
                   ).astype(np.uint8)


def _traffic(seed: int, tag: str, anomaly: bool, count: int) -> list[bytes]:
    from flowgate.corpus import synthetic_frame
    rng = np.random.default_rng([seed, int.from_bytes(tag.encode(), "little")])
    return [synthetic_frame(rng, anomaly) for _ in range(count)]


# --- per workload ---

def make_train(out: Path, seed: int, workload: str = "train") -> dict:
    rows = spec.TRAIN_ROWS[workload]
    train = _encode_bytes(_traffic(seed, "train", False, rows))
    test_n = _encode_bytes(_traffic(seed, "test-normal", False, spec.TEST_NORMAL))
    test_a = _encode_bytes(_traffic(seed, "test-anomaly", True, spec.TEST_ANOMALY))
    write_packet_csv(out / "train.csv", train, [0] * len(train))
    write_packet_csv(out / "test.csv", np.concatenate([test_n, test_a]),
                     [0] * len(test_n) + [1] * len(test_a))
    return {"train_rows": len(train), "test_normal": len(test_n),
            "test_anomaly": len(test_a)}


def _train_pipeline(workdir: Path, train_csv: Path, test_csv: Path, seed: int,
                    grid, settings: dict) -> None:
    from flowgate.pipeline import PipelineConfig, run_pipeline
    run_pipeline(PipelineConfig(workdir=str(workdir), train_csv=str(train_csv),
                                test_csv=str(test_csv), seed=seed,
                                noise_grid=grid, **settings))


def make_resweep(out: Path, seed: int) -> dict:
    meta = make_train(out, seed, "resweep")
    _train_pipeline(out / "base", out / "train.csv", out / "test.csv", seed,
                    spec.CACHED_GRID, spec.PIPELINE)
    return meta


def make_score(out: Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 7])
    meta: dict = {"captures": {}}
    for label in ("normal", "anomaly"):
        counts = spec.capture_counts(label)
        keep = _traffic(seed, f"capture-{label}", label == "anomaly", counts["keep"])
        kinds = ["keep"] * counts["keep"]
        drops = []
        for kind in DROP_BUILDERS:
            drops += [DROP_BUILDERS[kind](rng) for _ in range(counts[kind])]
            kinds += [kind] * counts[kind]
        frames = keep + drops
        order = rng.permutation(len(frames))
        write_pcap(out / f"{label}.pcap", [frames[i] for i in order])
        # kept frames in capture order, as the cleaner emits them
        kept_order = [i for i in order if kinds[i] == "keep"]
        expected = _encode_bytes([frames[i] for i in kept_order])
        np.save(out / f"expected_{label}.npy", expected)
        samples = np.sort(rng.choice(len(kept_order), size=spec.ENCODING_SAMPLES,
                                     replace=False))
        meta["captures"][label] = {
            "frames": len(frames), "counts": counts,
            "samples": samples.tolist()}
    normal = np.load(out / "expected_normal.npy")
    anomaly = np.load(out / "expected_anomaly.npy")
    n, a = spec.CSV_ROWS["normal"], spec.CSV_ROWS["anomaly"]
    write_packet_csv(out / "score.csv", np.concatenate([normal[:n], anomaly[:a]]),
                     [0] * n + [1] * a)
    # the detector trains on kept normal frames that score.csv does not hold
    write_packet_csv(out / "detector_train.csv", normal[n:n + spec.SCORE_TRAIN_ROWS],
                     [0] * spec.SCORE_TRAIN_ROWS)
    _train_pipeline(out / "detector", out / "detector_train.csv", out / "score.csv",
                    seed, spec.SCORE_GRID, spec.SCORE_PIPELINE)
    meta["csv_rows"] = dict(spec.CSV_ROWS)
    return meta


MAKERS = {"train": make_train, "resweep": make_resweep, "score": make_score}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    out = Path(args.out)
    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    meta = MAKERS[args.workload](tmp, args.seed)
    meta.update(workload=args.workload, seed=args.seed)
    (tmp / "fixture.json").write_text(json.dumps(meta, indent=1))
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
