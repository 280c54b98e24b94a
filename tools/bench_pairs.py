"""Parent/change benchmark pairs: perfbench in two checkouts, run by turns.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload resweep --pairs 10 --first-seed 811 --out BENCH_8.json

Pair i runs `perfbench/run.py --workload W --seed <first-seed + i>` once in
each checkout, the parent first in even pairs and the change first in odd
ones, so a drift of the machine's speed falls on both sides alike. Each run
is made by the checkout's own `perfbench/steady.py` `run_once`, so it starts
from that checkout's root and builds what it measures from its `src/`. The
output file holds every run (side, seed, whether it exited cleanly with its
checks passed and if not why, operations attempted and failed, metrics,
slowness, and the unscaled `setup_s`, `wall_s` and `csv_rows_per_s` from
before perfbench divides them by the run's slowness) and, for each workload
and metric, both sides' median and quartiles, the change in the medians and
the number of pairs in which the change was better, with the machine it ran
on: cores, BLAS threads, Python and numpy versions. Each unscaled figure is
summarized as a metric of its own, `unscaled_<name>`, so a gain can be told
from a drift of the slowness factor, and so is the slowness itself, with no
better direction, so a loaded machine shows in each side's median and
quartiles. It is rewritten after every run, so an interrupted set keeps the
pairs done. At the end the summary is printed as a table, one line
per workload and metric, that says for each metric with a better direction
whether a gain may be claimed: the change won at least nine pairs in ten, and
its median is better than the parent's by more than the parent's interquartile
range. Standard library only.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
# end-to-end figures `steady.run_once` also returns unscaled, in its `raw`
UNSCALED = ("setup_s", "wall_s", "csv_rows_per_s")


def perfbench_module(checkout: Path, name: str, side: str):
    """`perfbench/<name>.py` of `checkout`, loaded under a name of its own."""
    spec = importlib.util.spec_from_file_location(
        f"{side}_{name}", checkout / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_once(steady, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run by `steady.run_once`, as a pass/fail record: a run that exits
    non-zero (failed checks included) or leaves no record is kept as failed."""
    start = time.monotonic()
    run = {"workload": workload, "seed": seed, "trace": trace}
    try:
        result = steady.run_once(workload, seed, seconds, trace)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as err:
        return {**run, "correct": False, "error": str(err), "metrics": {},
                "elapsed_s": round(time.monotonic() - start, 1)}
    return {**run, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "elapsed_s": round(time.monotonic() - start, 1),
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "slowness": result["raw"]["slowness"],
            # a traced run measures no setup, and records it as None
            "unscaled": {name: result["raw"][name] for name in UNSCALED
                         if result["raw"].get(name) is not None}}


def quartiles(values: list[float]) -> dict:
    """Median and quartiles as perfbench/steady.py's `summarize` takes them
    (`statistics.quantiles(n=4)`); unlike it, this also takes one value, and
    a median of zero, as a per-layer count can be."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def figures(run: dict) -> dict[str, float]:
    """A run's metrics, its unscaled figures as `unscaled_<name>`, and its
    slowness, which has no better direction: it tells a loaded machine."""
    return {**run["metrics"],
            **{f"unscaled_{name}": v for name, v in run.get("unscaled", {}).items()},
            **({"slowness": run["slowness"]} if "slowness" in run else {})}


def claim_holds(entry: dict, sign: int) -> bool:
    """The rule for claiming a gain: the change was better in at least nine
    pairs in ten, and its median is better than the parent's by more than the
    parent's interquartile range. `sign` is 1 where higher is better, -1 where
    lower is."""
    parent, change = entry["parent"], entry["change"]
    return (entry["change_better_in"] >= 0.9 * entry["pairs"]
            and sign * (change["median"] - parent["median"]) > parent["q3"] - parent["q1"])


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric (unscaled figures included, see `figures`), over
    the pairs (same workload and seed) in which both runs report it: each
    side's median and quartiles, the relative change of the medians, and, for a
    metric `better` gives as "lower" or "higher", the number of pairs in which
    the change was better and whether the gain may be claimed (`claim_holds`).
    Also whether every run passed its checks, and how many operations failed."""
    better = {**better, **{f"unscaled_{name}": better[name]
                           for name in UNSCALED if name in better}}
    summary: dict[str, dict] = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        by_seed: dict[int, dict] = {}
        for r in mine:
            by_seed.setdefault(r["seed"], {})[r["side"]] = figures(r)
        pairs = [p for _, p in sorted(by_seed.items()) if len(p) == len(SIDES)]
        metrics = {}
        for name in dict.fromkeys(n for r in mine for n in figures(r)):
            sides = {side: [p[side][name] for p in pairs
                            if all(name in p[s] for s in SIDES)]
                     for side in SIDES}
            if not sides["parent"]:
                continue
            entry: dict = {side: quartiles(values) for side, values in sides.items()}
            parent = entry["parent"]["median"]
            entry["pairs"] = len(sides["parent"])
            entry["change_of_median"] = \
                (entry["change"]["median"] - parent) / parent if parent else None
            if name in better:
                sign = 1 if better[name] == "higher" else -1
                entry["better"] = better[name]
                entry["change_better_in"] = sum(
                    sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
                entry["claim_holds"] = claim_holds(entry, sign)
            metrics[name] = entry
        summary[workload] = {
            "pairs": len(pairs),
            "all_correct": all(r["correct"] for r in mine),
            "failed_operations": sum(r.get("failed", 0) for r in mine),
            "metrics": metrics}
    return summary


def table(summary: dict) -> str:
    """One line per workload and metric of a `summarize` result: the parent's
    median [q1, q3], the change's median, the change of the medians, the pairs
    the change won and whether a gain may be claimed ("-" for a metric with no
    better direction), in aligned columns."""
    rows = [("workload", "metric", "parent median [q1, q3]", "change", "moved", "won",
             "claim")]
    for workload, entry in summary.items():
        for name, m in entry["metrics"].items():
            parent, moved, directed = m["parent"], m["change_of_median"], "better" in m
            rows.append((
                workload, name,
                f"{parent['median']:.5g} [{parent['q1']:.5g}, {parent['q3']:.5g}]",
                f"{m['change']['median']:.5g}",
                "n/a" if moved is None else f"{moved:+.1%}",
                f"{m['change_better_in']}/{m['pairs']}" if directed else "-",
                ("holds" if m["claim_holds"] else "no") if directed else "-"))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
                   for row in rows)


def machine(blas_threads: int) -> dict:
    """Cores, the BLAS threads the runs used, and the Python and numpy versions."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"cores": os.cpu_count(),
            "blas_threads": blas_threads,
            "python": platform.python_version(), "numpy": numpy}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    ap.add_argument("--change", type=Path, default=Path("."), help="the change's checkout")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    steady = {side: perfbench_module(root, "steady", side) for side, root in checkouts.items()}
    blas_threads = perfbench_module(checkouts["change"], "spec", "change").BLAS_THREADS
    runs: list[dict] = []
    for workload in args.workload:
        for i in range(args.pairs):
            seed = args.first_seed + i
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                run = {"side": side, **run_once(steady[side], workload, seed,
                                                args.seconds, args.trace)}
                runs.append(run)
                print(f"{workload} seed {seed} {side}: correct {run['correct']} "
                      f"{run.get('error', json.dumps(run['metrics']))}",
                      file=sys.stderr, flush=True)
                summary = summarize(runs, better)
                args.out.write_text(json.dumps(
                    {"workloads": args.workload, "pairs": args.pairs,
                     "first_seed": args.first_seed, "seconds": args.seconds,
                     "trace": args.trace, "machine": machine(blas_threads),
                     "summary": summary, "runs": runs}, indent=1) + "\n")
    print(table(summary), end="")
    return 0 if all(s["all_correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
