import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(side, seed, wall, rate, workload="resweep", correct=True, failed=0):
    return {"side": side, "workload": workload, "seed": seed,
            "correct": correct, "failed": failed,
            "metrics": {"wall_s": wall, "csv_rows_per_s": rate, "spans": 7}}


BETTER = {"wall_s": "lower", "csv_rows_per_s": "higher"}


def test_summary_of_pairs_gives_medians_quartiles_and_better_counts():
    runs = []
    for seed, (p_wall, c_wall, p_rate, c_rate) in enumerate(
            [(10, 7, 100, 90), (12, 8, 110, 120), (11, 11, 90, 95), (13, 9, 105, 100)]):
        runs += [_run("parent", seed, p_wall, p_rate), _run("change", seed, c_wall, c_rate)]
    out = bench_pairs.summarize(runs, BETTER)["resweep"]
    assert out["pairs"] == 4 and out["all_correct"] and out["failed_operations"] == 0
    wall = out["metrics"]["wall_s"]
    # statistics.quantiles(n=4), exclusive method, as perfbench/steady.py takes them
    assert wall["parent"] == {"median": 11.5, "q1": 10.25, "q3": 12.75}
    assert wall["change"] == {"median": 8.5, "q1": 7.25, "q3": 10.5}
    assert wall["change_of_median"] == pytest.approx(-3 / 11.5)
    assert wall["change_better_in"] == 3  # a tie is not better
    assert out["metrics"]["csv_rows_per_s"]["change_better_in"] == 2
    assert "change_better_in" not in out["metrics"]["spans"]  # no direction given


def test_summary_counts_failures_and_skips_unpaired_runs():
    runs = [_run("parent", 1, 10, 100), _run("change", 1, 8, 100, failed=2, correct=False),
            _run("parent", 2, 30, 100), _run("parent", 3, 10, 100, workload="score"),
            _run("change", 3, 9, 100, workload="score")]
    summary = bench_pairs.summarize(runs, BETTER)
    assert summary["resweep"]["pairs"] == 1
    assert not summary["resweep"]["all_correct"]
    assert summary["resweep"]["failed_operations"] == 2
    assert summary["resweep"]["metrics"]["wall_s"]["parent"]["median"] == 10
    assert summary["score"]["all_correct"] and summary["score"]["pairs"] == 1


class _Steady:
    """Stands in for a checkout's perfbench/steady.py."""

    def __init__(self, outcome):
        self.outcome = outcome

    def run_once(self, workload, seed, seconds, trace):
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome


def test_run_once_keeps_a_failed_run_as_failed():
    ok = bench_pairs.run_once(_Steady({
        "correct": True, "attempted": 3, "failed": 0, "aurocs": {},
        "metrics": {"wall_s": {"value": 9.5, "unit": "s"}},
        "raw": {"slowness": 0.6, "setup_s": 0.2, "wall_s": 5.7, "csv_rows_per_s": 4000.0,
                "slowness_blas": 0.7}}),
        "resweep", 5, 20, 0)
    assert {k: v for k, v in ok.items() if k != "elapsed_s"} == {
        "workload": "resweep", "seed": 5, "trace": 0, "correct": True, "attempted": 3,
        "failed": 0, "metrics": {"wall_s": 9.5}, "slowness": 0.6,
        "unscaled": {"setup_s": 0.2, "wall_s": 5.7, "csv_rows_per_s": 4000.0}}
    bad = bench_pairs.run_once(_Steady(RuntimeError("resweep seed 5: exit code 1")),
                               "resweep", 5, 20, 0)
    assert not bad["correct"] and bad["metrics"] == {}
    assert bad["error"] == "resweep seed 5: exit code 1"
    assert bench_pairs.summarize([{"side": "change", **bad}], BETTER)["resweep"] == {
        "pairs": 0, "all_correct": False, "failed_operations": 0, "metrics": {}}


def test_run_once_keeps_no_setup_a_traced_run_did_not_measure():
    traced = bench_pairs.run_once(_Steady({
        "correct": True, "attempted": 3, "failed": 0, "aurocs": {}, "metrics": {},
        "raw": {"slowness": 0.6, "setup_s": None, "wall_s": 5.7, "csv_rows_per_s": 4000.0}}),
        "score", 5, 20, 1)
    assert traced["unscaled"] == {"wall_s": 5.7, "csv_rows_per_s": 4000.0}


def test_unscaled_figures_are_summarized_as_metrics_of_their_own():
    # the scaled wall_s says the change lost every pair; unscaled, it won three
    # of four, and the slowness factor made up the difference
    runs = []
    for seed, (p_raw, c_raw, p_rate, c_rate) in enumerate(
            [(10, 7, 100, 90), (12, 8, 110, 120), (11, 11, 90, 95), (13, 9, 105, 100)]):
        for side, raw, rate in (("parent", p_raw, p_rate), ("change", c_raw, c_rate)):
            run = _run(side, seed, 20, 50)
            run["unscaled"] = {"wall_s": raw, "csv_rows_per_s": rate}
            runs.append(run)
    out = bench_pairs.summarize(runs, BETTER)["resweep"]["metrics"]
    assert out["wall_s"]["change_better_in"] == 0
    wall = out["unscaled_wall_s"]
    assert wall["parent"] == {"median": 11.5, "q1": 10.25, "q3": 12.75}
    assert wall["change"] == {"median": 8.5, "q1": 7.25, "q3": 10.5}
    assert wall["change_of_median"] == pytest.approx(-3 / 11.5)
    assert wall["better"] == "lower" and wall["change_better_in"] == 3
    rate = out["unscaled_csv_rows_per_s"]
    assert rate["better"] == "higher" and rate["change_better_in"] == 2
    assert "unscaled_setup_s" not in out  # no run recorded it


def _pairs(parent_walls, change_walls):
    runs = []
    for seed, (p, c) in enumerate(zip(parent_walls, change_walls)):
        runs += [_run("parent", seed, p, 100), _run("change", seed, c, 100)]
    return runs


PARENT_WALLS = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]


@pytest.mark.parametrize("change_walls, holds", [
    # every pair won, medians 2.0 apart against a parent interquartile range of 1.1
    ([w - 2.0 for w in PARENT_WALLS], True),
    # nine pairs won of ten is enough
    ([w - 2.0 for w in PARENT_WALLS[:9]] + [12.0], True),
    # eight is not
    ([w - 2.0 for w in PARENT_WALLS[:8]] + [12.0, 12.0], False),
    # every pair won, but the medians only 0.5 apart
    ([w - 0.5 for w in PARENT_WALLS], False),
])
def test_the_claim_rule_needs_nine_pairs_in_ten_and_medians_past_the_spread(
        change_walls, holds):
    wall = bench_pairs.summarize(_pairs(PARENT_WALLS, change_walls), BETTER)[
        "resweep"]["metrics"]["wall_s"]
    assert wall["parent"]["q3"] - wall["parent"]["q1"] == pytest.approx(1.1)
    assert wall["claim_holds"] is holds


def test_the_table_has_a_line_per_workload_and_metric():
    runs = _pairs(PARENT_WALLS, [w - 2.0 for w in PARENT_WALLS])
    runs += [_run("parent", 0, 0.0, 90, workload="score"),
             _run("change", 0, 0.0, 80, workload="score")]
    lines = bench_pairs.table(bench_pairs.summarize(runs, BETTER)).splitlines()
    assert lines[0].split() == ["workload", "metric", "parent", "median", "[q1,", "q3]",
                                "change", "moved", "won", "claim"]
    assert [line.split() for line in lines[1:]] == [
        ["resweep", "wall_s", "10.9", "[10.35,", "11.45]", "8.9", "-18.3%", "10/10", "holds"],
        ["resweep", "csv_rows_per_s", "100", "[100,", "100]", "100", "+0.0%", "0/10", "no"],
        ["resweep", "spans", "7", "[7,", "7]", "7", "+0.0%", "-", "-"],
        # a parent median of zero moves by no ratio
        ["score", "wall_s", "0", "[0,", "0]", "0", "n/a", "0/1", "no"],
        ["score", "csv_rows_per_s", "90", "[90,", "90]", "80", "-11.1%", "0/1", "no"],
        ["score", "spans", "7", "[7,", "7]", "7", "+0.0%", "-", "-"]]
    # the columns line up
    assert len({line.index(" wall_s") for line in lines if " wall_s" in line}) == 1


def test_slowness_is_summarized_with_no_better_direction():
    # a loaded machine: the parent's runs were slowed more than the change's
    runs = []
    for seed, (p_slow, c_slow) in enumerate([(0.63, 1.0), (1.49, 1.1), (1.2, 0.9), (0.8, 1.0)]):
        for side, slowness in (("parent", p_slow), ("change", c_slow)):
            runs.append({**_run(side, seed, 10, 100), "slowness": slowness})
    runs.append({**_run("parent", 9, 10, 100, correct=False)})  # a failed run has none
    summary = bench_pairs.summarize(runs, {**BETTER, "spans": "lower"})
    slowness = summary["resweep"]["metrics"]["slowness"]
    assert slowness["pairs"] == 4 and "better" not in slowness
    assert slowness["parent"] == pytest.approx({"median": 1.0, "q1": 0.6725, "q3": 1.4175})
    assert slowness["change"]["median"] == pytest.approx(1.0)
    assert "change_better_in" not in slowness and "claim_holds" not in slowness
    (line,) = [line for line in bench_pairs.table(summary).splitlines() if " slowness " in line]
    assert line.split() == ["resweep", "slowness", "1", "[0.6725,", "1.4175]", "1", "+0.0%",
                            "-", "-"]
