import collections
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from flowgate.cli import main as cli_main
from flowgate.dataset import read_dataset
from flowgate.extractor import SCORE_WIDTHS, score_width

TOOL = Path(__file__).resolve().parents[1] / "tools" / "digests.py"


def test_digests_are_the_same_twice_and_against_lists_every_difference(tmp_path):
    first = subprocess.run([sys.executable, TOOL], capture_output=True, text=True,
                           check=True)
    digests = json.loads(first.stdout)
    assert {"corpus/train.csv", "tiny/extractor.ckpt", "tiny-rerun/summary.txt",
            "ratio2/flow.ckpt", "config/work/summary.txt", "infer/scores.csv",
            "infer/report.txt"} <= digests.keys()
    assert not any(name.endswith("run.json") for name in digests)

    earlier = dict(digests)
    earlier["tiny/flow.ckpt"] = "0" * 64
    del earlier["infer/report.txt"]
    earlier["gone/file.csv"] = "1" * 64
    (tmp_path / "earlier.json").write_text(json.dumps(earlier))
    second = subprocess.run([sys.executable, TOOL, "--against", tmp_path / "earlier.json"],
                            capture_output=True, text=True)
    assert json.loads(second.stdout) == digests
    assert second.returncode == 1
    listed = [line.split(":")[0] for line in second.stderr.splitlines()
              if line.split(":")[0] in digests.keys() | earlier.keys()]
    assert listed == ["gone/file.csv", "infer/report.txt", "tiny/flow.ckpt"]


def test_the_digested_test_set_holds_packets_of_every_score_width(tmp_path):
    """`--against` compares the scores of every narrowed encoder only if the
    corpus it scores has packets of each width."""
    spec = importlib.util.spec_from_file_location("digests", TOOL)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    assert cli_main(["make-corpus", "--out-dir", str(tmp_path), *map(str, digests.CORPUS)]) == 0
    widths = collections.Counter(score_width(p.codes) for p in read_dataset(tmp_path / "test.csv"))
    assert [w for w in SCORE_WIDTHS if not widths[w]] == [], widths
