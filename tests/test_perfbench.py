"""The names the benchmark reads from the package still exist."""

import importlib
import importlib.util
from pathlib import Path

from degmc import oracle

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_trace_targets_resolve():
    spans = load_spans()
    assert spans.TARGETS
    for mod_name, attr, _, _ in spans.TARGETS:
        mod = importlib.import_module(f"degmc.{mod_name}")
        assert callable(getattr(mod, attr, None)), f"degmc.{mod_name}.{attr}"
    # read by the span attributes of sample_realization
    assert isinstance(spans.counting.EXACT_SAMPLE_CAP, int)
    # perfbench/workloads.py compares each space's size with it to pick the
    # spaces that get a gap and a curve
    assert isinstance(oracle.DENSE_LIMIT, int)
