"""flowgate benchmark: one workload per call, measured in fresh processes.

    python3 perfbench/run.py --workload {train,resweep,score} --seed N \
        --seconds S --trace {0,1}

Run from the root of a flowgate checkout. Steps, each in its own process:
  1. generate the workload's inputs from --seed (`fixtures.py`), or reuse
     them from .perfbench/fixtures/ under a key covering src/, this
     directory, the workload and the seed;
  2. untraced runs only: start the measured program a few times for set-up
     alone, so `setup_s` is a median;
  3. start the measured process (`measure.py`): set-up, then a fixed number
     of operations derived from --seconds, then the output checks.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
scaled to the reference machine's speed by the calibration kernels of
`speed.py` (the raw figures are in the run's record), and the per-layer
metrics (from spans around every call into a flowgate module) with
--trace 1. The exit code is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
DEADLINE_S = 170.0          # a run must end within 180 s
FIXTURES_KEPT = 3           # fixture sets kept per workload

sys.path.insert(0, str(HERE))
import spec  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402


def fixture_key(workload: str, seed: int) -> str:
    """Digest of the program's source, the benchmark's code, workload and seed."""
    h = hashlib.sha256(f"{workload}:{seed}".encode())
    files = [p for p in (ROOT / "src").rglob("*") if "__pycache__" not in p.parts]
    for path in sorted(files + list(HERE.glob("*.py"))):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in spec.BLAS_ENV:
        env[name] = str(spec.BLAS_THREADS)
    return env


def run_child(args: list[str], deadline: float) -> None:
    """Run a benchmark script to completion, killing it at the deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for " + args[0])
    proc = subprocess.Popen([sys.executable, *args], env=child_env(), cwd=ROOT,
                            stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError(f"{Path(args[0]).name} exited with code {code}")


def ensure_fixture(workload: str, seed: int, deadline: float) -> Path:
    base = STATE / "fixtures"
    path = base / f"{workload}-seed{seed}-{fixture_key(workload, seed)}"
    if not (path / "fixture.json").is_file():
        run_child([str(HERE / "fixtures.py"), "--workload", workload,
                   "--seed", str(seed), "--out", str(path)], deadline)
    path.touch()
    old = sorted((p for p in base.glob(f"{workload}-seed*") if p != path),
                 key=lambda p: p.stat().st_mtime)
    for stale in old[:max(0, len(old) - (FIXTURES_KEPT - 1))]:
        shutil.rmtree(stale, ignore_errors=True)
    return path


def measure(workload: str, seed: int, fixture: Path, rundir: Path, ops: int,
            trace: bool, setup_only: bool, deadline: float) -> dict:
    out = rundir / f"result-{time.monotonic_ns()}.json"
    args = [str(HERE / "measure.py"), "--workload", workload, "--fixture", str(fixture),
            "--rundir", str(rundir), "--seed", str(seed), "--ops", str(ops),
            "--out", str(out)]
    if trace:
        args += ["--trace", "--spans",
                 str(STATE / "out" / f"spans-{workload}-seed{seed}.jsonl")]
    if setup_only:
        args.append("--setup-only")
    args += ["--spawned-at", repr(time.monotonic())]
    run_child(args, deadline)
    return json.loads(out.read_text())


def end_to_end(result: dict, starts: list[dict]) -> dict:
    """The measured figures, scaled to the reference machine's speed.

    The run's slowness is the mean of both kernels' slowness over the timed
    phase, clamped to `spec.SLOWNESS_RANGE`: the median set-up and `wall_s`
    are divided by it and the CSV rate multiplied by it. `peak_rss_mb` is not
    scaled.
    """
    slow = spec.run_slowness(result["cal_s"])
    return {
        "setup_s": {"value": statistics.median(s["setup_s"] for s in starts) / slow,
                    "unit": "s"},
        "wall_s": {"value": result["wall_s"] / slow, "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "csv_rows_per_s": {"value": result["csv_rows"] / result["csv_s"] * slow,
                           "unit": "rows/s"},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="flowgate benchmark, one workload per call")
    ap.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "flowgate" / "__init__.py").is_file():
        print(f"no flowgate sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    fixture = ensure_fixture(args.workload, args.seed, deadline)
    rundir = STATE / "runs" / f"{args.workload}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    ops = spec.operation_count(args.workload, args.seconds)
    if args.workload == "score":
        ops *= 2  # a round is one capture operation and one CSV operation
    try:
        starts = [] if args.trace else [
            measure(args.workload, args.seed, fixture, rundir, ops, False, True,
                    deadline) for _ in range(spec.SETUP_PROBES)]
        result = measure(args.workload, args.seed, fixture, rundir, ops,
                         bool(args.trace), False, deadline)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    starts.append(result)

    check_errors = [e for errors in result["check_errors"] for e in errors]
    check_errors += result["run_errors"]
    failed = sum(1 for raised, errors in zip(result["raised"], result["check_errors"])
                 if raised or errors)
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS}
    else:
        metrics = end_to_end(result, starts)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "blas_threads": result["blas_threads"],
              "setups_s": [s["setup_s"] for s in starts],
              "raw": raw_figures(result, starts),
              **{k: result[k] for k in (
                  "op_s", "cal_s", "aurocs", "raised", "check_errors", "run_errors")},
              "metrics": metrics}
    (STATE / "out").mkdir(parents=True, exist_ok=True)
    (STATE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    report(args, result, metrics, record["raw"], check_errors, failed)
    print(json.dumps({"correct": not check_errors, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if not check_errors else 1


def raw_figures(result: dict, starts: list[dict]) -> dict:
    """The unscaled figures and the run's slowness per kernel."""
    return {"setup_s": statistics.median(s["setup_s"] for s in starts) if starts else None,
            "wall_s": result["wall_s"],
            "csv_rows_per_s": result["csv_rows"] / result["csv_s"],
            **{f"slowness_{name}": spec.slowness(result["cal_s"], k)
               for k, name in enumerate(("interpreter", "blas"))},
            "slowness": spec.run_slowness(result["cal_s"])}


def report(args, result: dict, metrics: dict, raw: dict, check_errors: list[str],
           failed: int) -> None:
    """Human-readable summary on standard error."""
    err = sys.stderr
    print(f"workload {args.workload}  seed {args.seed}  operations {result['attempted']}"
          f"  failed {failed}  BLAS threads {result['blas_threads']}", file=err)
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:14.4f}  {m['unit']}", file=err)
    if not args.trace:
        print("  unscaled: " + "  ".join(f"{k} {v:.4f}" for k, v in raw.items()), file=err)
    for tag, auroc in sorted(result["aurocs"].items()):
        print(f"  AUROC {tag:<26} {auroc:.4f}", file=err)
    for trace in filter(None, result["raised"]):
        print(trace, file=err)
    for e in check_errors:
        print(f"  CHECK FAILED: {e}", file=err)


if __name__ == "__main__":
    sys.exit(main())
