"""Every flowgate name the benchmark traces or compares still exists.

`perfbench/tracing.py` wraps flowgate functions and methods by module and
attribute name when it runs with `--trace 1`; a rename in flowgate would break
that mode. This reads the table only and never installs the wrappers.
`perfbench/measure.py` compares each capture's drop counts by reason name.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from flowgate.packets import PreprocessStats

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for module_name, attr, _, _ in module.TRACED]


@pytest.mark.parametrize("module_name, attr", _traced_names(),
                         ids=lambda v: v)
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        # `install` wraps the method found in the class's own namespace
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))



def test_drop_counts_carry_the_reason_names_the_benchmark_compares():
    # `check_capture` checks these keys against the drops it planted per reason
    assert set(PreprocessStats().dropped) == {"dns", "arp", "tcp_control", "unparseable"}
