import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "digests.py"


def test_digests_are_the_same_twice_and_against_lists_every_difference(tmp_path):
    first = subprocess.run([sys.executable, TOOL], capture_output=True, text=True,
                           check=True)
    digests = json.loads(first.stdout)
    assert {"corpus/train.csv", "tiny/extractor.ckpt", "tiny-rerun/summary.txt",
            "ratio2/flow.ckpt", "config/work/summary.txt", "chain/clf.ckpt",
            "chain/scores.csv"} <= digests.keys()
    assert not any(name.endswith("run.json") for name in digests)

    earlier = dict(digests)
    earlier["tiny/flow.ckpt"] = "0" * 64
    del earlier["chain/report.txt"]
    earlier["gone/file.csv"] = "1" * 64
    (tmp_path / "earlier.json").write_text(json.dumps(earlier))
    second = subprocess.run([sys.executable, TOOL, "--against", tmp_path / "earlier.json"],
                            capture_output=True, text=True)
    assert json.loads(second.stdout) == digests
    assert second.returncode == 1
    listed = [line.split(":")[0] for line in second.stderr.splitlines()
              if line.split(":")[0] in digests.keys() | earlier.keys()]
    assert listed == ["chain/report.txt", "gone/file.csv", "tiny/flow.ckpt"]
