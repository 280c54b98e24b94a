"""The measured process: set-up, a timed phase of fixed work, then checks.

    python3 perfbench/measure.py --workload W --fixture DIR --rundir DIR --seed N \
        --ops N --spawned-at T --out FILE [--trace] [--setup-only]

Started by `run.py`, which passes the monotonic clock reading taken just
before the spawn, so set-up time covers interpreter start, the numpy and
flowgate imports and, on `score`, building the two-module engine. The
machine-speed kernels of `speed.py` run before the first operation and after
every operation, never inside one. The timed phase runs
N operations one after another (a closed loop with one caller); its wall time
is the sum of the operations' wall times. Output checks run after the timed
phase and never count towards it. The result is written to FILE as JSON.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import flowgate  # noqa: E402
import flowgate.checkpoint as fg_checkpoint  # noqa: E402
import flowgate.dataset as fg_dataset  # noqa: E402
import flowgate.flow as fg_flow  # noqa: E402
import flowgate.metrics as fg_metrics  # noqa: E402
import flowgate.packets as fg_packets  # noqa: E402
import flowgate.pipeline as fg_pipeline  # noqa: E402

import checks  # noqa: E402
import spec  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CsvTimer:
    """Rows returned by, and seconds spent in, every `read_dataset` call."""

    def __init__(self) -> None:
        self.rows = 0
        self.seconds = 0.0
        original = fg_dataset.read_dataset

        def timed(*args, **kwargs):
            start = time.perf_counter()
            out = original(*args, **kwargs)
            self.seconds += time.perf_counter() - start
            self.rows += len(out)
            return out

        tracing.rebind(original, timed)


def _tags(grid) -> list[str]:
    return [spec.noise_tag(mu, sigma, spec.PIPELINE["ratio"]) for mu, sigma in grid]


class PipelineWorkload:
    """`train` and `resweep`: one operation is one `run_pipeline` call."""

    def __init__(self, fixture: Path, rundir: Path, seed: int) -> None:
        self.fixture = fixture
        self.rundir = rundir
        self.seed = seed
        self.meta = json.loads((fixture / "fixture.json").read_text())
        self.workdirs: list[Path] = []
        self.aurocs: dict[str, float] = {}

    def config(self, workdir: Path, grid) -> "fg_pipeline.PipelineConfig":
        return fg_pipeline.PipelineConfig(
            workdir=str(workdir), train_csv=str(self.fixture / "train.csv"),
            test_csv=str(self.fixture / "test.csv"), seed=self.seed,
            noise_grid=grid, **spec.PIPELINE)

    def check_reports(self, workdir: Path, tags) -> list[str]:
        errors = []
        for tag in tags:
            auroc, n_pos, n_neg = checks.read_report_auroc(workdir / f"report_{tag}.txt")
            scores, labels = checks.read_score_csv(workdir / f"scores_{tag}.csv")
            errors += checks.check_auroc(auroc, scores, labels, f"{workdir.name} {tag}")
            errors += checks.check_counts(
                {"n_pos": n_pos, "n_neg": n_neg, "anomaly_rows": int(labels.sum()),
                 "normal_rows": int((labels == 0).sum())},
                {"n_pos": self.meta["test_anomaly"], "n_neg": self.meta["test_normal"],
                 "anomaly_rows": self.meta["test_anomaly"],
                 "normal_rows": self.meta["test_normal"]},
                f"{workdir.name} {tag} class counts")
            self.aurocs[tag] = auroc
        return errors

    def setup(self) -> None:
        pass

    def digest(self, i: int, out) -> dict:
        return {}  # the outputs stay in the operation's workdir

    def run_errors(self) -> list[str]:
        return []

    def check_epochs(self, path: Path) -> list[str]:
        header, _ = checks.read_checkpoint(path)
        ran = header["meta"]["epochs_run"]
        return [] if ran == spec.EPOCHS else \
            [f"{path.name}: ran {ran} epochs, configured {spec.EPOCHS}"]


class Train(PipelineWorkload):
    """Three stages from CSVs into an empty workdir."""

    tags = _tags(spec.TRAIN_GRID)

    def prepare(self, n_ops: int) -> None:
        self.workdirs = [self.rundir / f"op{i}" for i in range(n_ops)]

    def operation(self, i: int) -> None:
        fg_pipeline.run_pipeline(self.config(self.workdirs[i], spec.TRAIN_GRID))

    def ckpt_names(self) -> list[str]:
        return ["extractor.ckpt", "flow.ckpt"] + [f"classifier_{t}.ckpt" for t in self.tags]

    def check(self, i: int, _: dict) -> list[str]:
        workdir, first = self.workdirs[i], self.workdirs[0]
        errors = []
        for name in self.ckpt_names():
            errors += self.check_epochs(workdir / name)
            if i > 0 and sha256(workdir / name) != sha256(first / name):
                errors.append(f"{workdir.name}/{name} differs from {first.name}/{name}, "
                              "same seed")
        if i == 0:
            errors += self.check_flow_inverse(workdir)
        return errors + self.check_reports(workdir, self.tags)

    def check_flow_inverse(self, workdir: Path) -> list[str]:
        latents = np.loadtxt(workdir / "train_latents.csv", delimiter=",",
                             skiprows=1)[:, :-1]
        flow = fg_flow.flow_from_checkpoint(
            fg_checkpoint.load_checkpoint(workdir / "flow.ckpt"))
        c, _ = flow.normalize(latents)
        return checks.check_close(flow.generate(c), latents, 1e-8,
                                  "flow normalize -> generate")


class Resweep(PipelineWorkload):
    """The paper's noise grid over a workdir that already holds extractor and flow."""

    cached = _tags(spec.CACHED_GRID)
    tags = _tags(spec.RESWEEP_GRID)
    kept = ["extractor.ckpt", "flow.ckpt"] + [f"classifier_{t}.ckpt" for t in cached]

    def prepare(self, n_ops: int) -> None:
        base = self.fixture / "base"
        self.digests = {name: sha256(base / name) for name in self.kept}
        self.mtimes = []
        for i in range(n_ops):
            workdir = self.rundir / f"op{i}"
            shutil.copytree(base, workdir)
            self.workdirs.append(workdir)
            self.mtimes.append({name: (workdir / name).stat().st_mtime_ns
                                for name in self.kept})

    def operation(self, i: int) -> None:
        fg_pipeline.run_pipeline(self.config(self.workdirs[i], spec.RESWEEP_GRID))

    def check(self, i: int, _: dict) -> list[str]:
        workdir = self.workdirs[i]
        errors = [f"{workdir.name}/{name} changed" for name in self.kept
                  if sha256(workdir / name) != self.digests[name]]
        errors += [f"{workdir.name}/{name} was rewritten, not reused" for name in self.kept
                   if (workdir / name).stat().st_mtime_ns != self.mtimes[i][name]]
        new = sorted(p.name for p in workdir.glob("classifier_*.ckpt")
                     if p.name not in self.kept)
        want = sorted(f"classifier_{t}.ckpt" for t in self.tags if t not in self.cached)
        if new != want:
            errors.append(f"{workdir.name}: new classifiers {new}, expected {want}")
        pseudo_rows = math.floor(spec.PIPELINE["ratio"] * self.meta["train_rows"])
        for tag in self.tags:
            if tag in self.cached:
                continue
            errors += self.check_epochs(workdir / f"classifier_{tag}.ckpt")
            rows = checks.count_csv_rows(workdir / f"pseudo_{tag}.csv")
            if rows != pseudo_rows:
                errors.append(f"{workdir.name}/pseudo_{tag}.csv: {rows} rows, "
                              f"expected {pseudo_rows}")
        return errors + self.check_reports(workdir, self.tags)


class Score:
    """Two-module scoring, alternating a capture operation and a CSV operation."""

    def __init__(self, fixture: Path, rundir: Path, seed: int) -> None:
        self.fixture = fixture
        self.meta = json.loads((fixture / "fixture.json").read_text())
        tag = spec.noise_tag(*spec.SCORE_GRID[0], spec.SCORE_PIPELINE["ratio"])
        self.ckpts = (fixture / "detector" / "extractor.ckpt",
                      fixture / "detector" / f"classifier_{tag}.ckpt")
        self.engine = None
        self.first_pcap = None
        self.aurocs: dict[str, float] = {}
        self._expected = None
        self._samples = None

    def setup(self) -> None:
        self.engine = fg_pipeline.InferenceEngine.from_checkpoint_files(*self.ckpts)

    def prepare(self, n_ops: int) -> None:
        pass

    def operation(self, i: int):
        return self.capture_operation() if i % 2 == 0 else self.csv_operation()

    def capture_operation(self):
        packets, stats = [], {}
        for label, value in (("normal", fg_packets.Label.NORMAL),
                             ("anomaly", fg_packets.Label.ANOMALY)):
            kept, stats[label] = fg_packets.process_capture(
                self.fixture / f"{label}.pcap", label=value)
            packets += kept
        scored = self.engine.score_packets(packets)
        return "pcap", fg_metrics.evaluate(scored), scored, stats, packets

    def csv_operation(self):
        rows = fg_dataset.read_dataset(self.fixture / "score.csv")
        scored = self.engine.score_packets(rows)
        return "csv", fg_metrics.evaluate(scored), scored, None, rows

    def digest(self, i: int, out) -> dict:
        """What the checks need from an operation's output; the packets are dropped."""
        kind, report, scored, stats, packets = out
        record = {"kind": kind, "auroc": report.auroc,
                  "scores": np.array([s.score for s in scored]),
                  "labels": np.array([s.label.value for s in scored]), "stats": stats}
        if kind == "pcap":
            # sampled vectors are compared now, so no operation's packets are kept
            offsets = {"normal": 0, "anomaly": stats["normal"].kept}
            record["vector_errors"] = []
            for label, cap in self.meta["captures"].items():
                got = np.stack([packets[offsets[label] + j].values for j in cap["samples"]])
                record["vector_errors"] += checks.check_vectors(
                    got, self.sample_encodings()[label], f"pcap operation {i} {label}.pcap")
            if self.first_pcap is None:
                self.first_pcap = record["scores"]
        return record

    def sample_encodings(self) -> dict[str, np.ndarray]:
        if self._samples is None:
            self._samples = {
                label: np.load(self.fixture / f"expected_{label}.npy")[cap["samples"]] / 255.0
                for label, cap in self.meta["captures"].items()}
        return self._samples

    def run_errors(self) -> list[str]:
        want = sorted(name for path, prefix in zip(self.ckpts, ("encoder.", "classifier."))
                      for name in checks.read_checkpoint(path)[1] if name.startswith(prefix))
        got = sorted(self.engine.loaded_tables)
        return [] if got == want else [f"engine materialized {got}, expected {want}"]

    def expected(self) -> dict:
        """Reference scores and labels per operation kind, from the generator's bytes."""
        if self._expected is not None:
            return self._expected
        _, ext = checks.read_checkpoint(self.ckpts[0])
        _, clf = checks.read_checkpoint(self.ckpts[1])
        ref = {}
        for label in ("normal", "anomaly"):
            enc = np.load(self.fixture / f"expected_{label}.npy")
            ref[label] = np.concatenate([
                checks.reference_scores(enc[s:s + 1024] / 255.0, ext, clf)
                for s in range(0, len(enc), 1024)])
        n, a = self.meta["csv_rows"]["normal"], self.meta["csv_rows"]["anomaly"]
        self._expected = {
            "pcap": (np.concatenate([ref["normal"], ref["anomaly"]]),
                     np.array([0] * len(ref["normal"]) + [1] * len(ref["anomaly"]))),
            "csv": (np.concatenate([ref["normal"][:n], ref["anomaly"][:a]]),
                    np.array([0] * n + [1] * a)),
            "csv_in_pcap": np.concatenate([np.arange(n), len(ref["normal"]) + np.arange(a)]),
        }
        return self._expected

    def check(self, i: int, r: dict) -> list[str]:
        want = self.expected()
        what = f"{r['kind']} operation {i}"
        scores, labels = want[r["kind"]]
        errors = checks.check_scores(r["scores"], scores, what)
        errors += checks.check_labels(r["labels"], labels, what)
        errors += checks.check_auroc(r["auroc"], r["scores"], r["labels"], what)
        if r["kind"] == "pcap":
            errors += self.check_capture(r, what) + r["vector_errors"]
        elif self.first_pcap is not None:
            errors += checks.check_scores(r["scores"], self.first_pcap[want["csv_in_pcap"]],
                                          f"{what} against the capture operation", tol=0.0)
        self.aurocs[r["kind"]] = r["auroc"]
        return errors

    def check_capture(self, r: dict, what: str) -> list[str]:
        """Kept and dropped counts per reason against what the generator planted."""
        errors = []
        for label, cap in self.meta["captures"].items():
            counts, stats = cap["counts"], r["stats"][label]
            errors += checks.check_counts(
                {"seen": stats.seen, "kept": stats.kept, **stats.dropped},
                {"seen": cap["frames"], "kept": counts["keep"], "arp": counts["arp"],
                 "dns": counts["dns"], "tcp_control": counts["tcp_control"],
                 "unparseable": counts["non_ipv4"]},
                f"{what} {label}.pcap")
        return errors


WORKLOADS = {"train": Train, "resweep": Resweep, "score": Score}


def main() -> int:
    ap = argparse.ArgumentParser(description="the measured process of the benchmark")
    ap.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    ap.add_argument("--fixture", required=True)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if not Path(flowgate.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"flowgate imported from {flowgate.__file__}, not {ROOT / 'src'}")
    csv_timer = CsvTimer()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.on = True
    traced_from = time.monotonic()
    workload = WORKLOADS[args.workload](Path(args.fixture), Path(args.rundir), args.seed)
    workload.setup()
    setup_end = time.monotonic()
    if tracer:
        tracer.on = False
    result = {"setup_s": setup_end - args.spawned_at}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result))
        return 0

    workload.prepare(args.ops)
    rounds = spec.CAL_ROUNDS[args.workload]
    op_s, raised, records, cal_s = [], [], [], [speed.calibrate(rounds)]
    for i in range(args.ops):
        if tracer:
            tracer.on = True
        start = time.perf_counter()
        try:
            out, error = workload.operation(i), None
        except Exception:
            out, error = None, traceback.format_exc(limit=4)
        op_s.append(time.perf_counter() - start)
        cal_s.append(speed.calibrate(rounds))
        if tracer:
            tracer.on = False
        raised.append(error)
        records.append(None if error else workload.digest(i, out))
        del out
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = sum(op_s)

    check_errors = [workload.check(i, r) if r is not None else []
                    for i, r in enumerate(records)]
    result.update(
        wall_s=wall_s, op_s=op_s, cal_s=cal_s, peak_rss_mb=peak_rss_mb,
        csv_rows=csv_timer.rows, csv_s=csv_timer.seconds,
        attempted=len(op_s), raised=raised, check_errors=check_errors,
        run_errors=workload.run_errors(), aurocs=workload.aurocs,
        blas_threads=spec.BLAS_THREADS)
    if tracer:
        window = (setup_end - traced_from) + wall_s
        result["layers"] = tracing.layer_metrics(tracer, window, wall_s)
        if args.spans:
            tracing.write(tracer, Path(args.spans))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
