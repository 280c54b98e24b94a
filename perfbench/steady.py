"""Steadiness: run workloads repeatedly on the same code and show the spread.

    python3 perfbench/steady.py --workload score --runs 10 --first-seed 101

Each run is `run.py` with the next seed and the run length from
BENCHMARK.json. For every end-to-end metric it prints the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`), the spread
(q3 - q1) / median and the metric's bound; a spread of at most a third of
the bound is marked steady. It also prints
the share of failed operations, the same figures before the machine-speed
scaling, and each noise setting's AUROC. Results are
saved to .perfbench/out/steady-<workload>-<first seed>.json.

With --layers it then makes one traced run on the first seed and prints the
per-layer table, how the layer self times add up to the traced window, and
the tracing overhead: traced wall_s minus the untraced wall_s of that seed,
both scaled to the reference speed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    record = json.loads((ROOT / ".perfbench" / "out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["aurocs"] = record["aurocs"]
    result["raw"] = record["raw"]
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def layers(workload: str, seed: int, seconds: int, untraced_wall: float) -> None:
    traced = run_once(workload, seed, seconds, trace=1)
    values = {name: m["value"] for name, m in traced["metrics"].items()}
    print(f"  per-layer, traced run, seed {seed}:")
    for name, m in traced["metrics"].items():
        print(f"    {name:<28} {m['value']:14.4f}  {m['unit']}")
    self_s = sum(m["value"] for k, m in traced["metrics"].items()
                 if m["unit"] == "s" and not k.startswith("trace."))
    print(f"  layer self times {self_s:.3f} s + unattributed "
          f"{values['trace.unattributed_s']:.3f} s = traced window "
          f"{values['trace.window_s']:.3f} s")
    traced_wall = values["trace.wall_s"] / traced["raw"]["slowness"]
    overhead = traced_wall - untraced_wall
    print(f"  tracing overhead: traced wall_s {traced_wall:.3f} s - untraced "
          f"{untraced_wall:.3f} s = {overhead:+.3f} s ({overhead / untraced_wall:+.1%}); "
          f"{values['trace.spans']} spans at the measured cost per span = "
          f"{values['trace.overhead_s']:.3f} s "
          f"({values['trace.overhead_s'] / values['trace.wall_s']:.1%})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--layers", action="store_true",
                    help="add one traced run and print the per-layer table")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for workload in args.workload:
        runs = [run_once(workload, args.first_seed + i, bench["run_seconds"])
                for i in range(args.runs)]
        table = {name: summarize([r["metrics"][name]["value"] for r in runs])
                 for name in bounds}
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        aurocs = {tag: summarize([r["aurocs"][tag] for r in runs])
                  for tag in runs[0]["aurocs"]}
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, failed share {shares}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, s in table.items():
            steady = s["spread"] <= bounds[name] / 3
            status |= not steady
            print(f"  {name:<16} {s['median']:12.4f} {s['q1']:12.4f} {s['q3']:12.4f} "
                  f"{s['spread']:8.4f} {bounds[name]:6.3f}"
                  f"{'' if steady else '  NOT STEADY'}")
        raw = {name: summarize([r["raw"][name] for r in runs]) for name in runs[0]["raw"]
               if runs[0]["raw"][name] is not None}
        for name, s in raw.items():
            print(f"  unscaled {name:<20} median {s['median']:.4f}  q1 {s['q1']:.4f}  "
                  f"q3 {s['q3']:.4f}  spread {s['spread']:.4f}")
        for tag, s in sorted(aurocs.items()):
            print(f"  AUROC {tag:<28} median {s['median']:.4f}  "
                  f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}")
        if args.layers:
            layers(workload, args.first_seed, bench["run_seconds"],
                   runs[0]["metrics"]["wall_s"]["value"])
        out = ROOT / ".perfbench" / "out" / f"steady-{workload}-{args.first_seed}.json"
        out.write_text(json.dumps({"metrics": table, "failed_share": shares,
                                   "unscaled": raw, "aurocs": aurocs}, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
