"""The names the benchmark reads from the package still exist, and its
calls still bind to their signatures."""

import importlib
import importlib.util
import inspect
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


def test_call_forms_bind():
    """Every call form perfbench/workloads.py makes binds to the package's
    current signatures, so a signature change that would break the frozen
    benchmark fails here."""
    from degmc import chains, counting, graphs, projection

    iv, rng = object(), object()
    forms = [
        (counting.sample_interval, (iv,), {"rng": rng}),
        (counting.estimate_count, (iv, 0.1, 0.05), {"seed": 0}),
        (oracle.enumerate_graphs, (7,), {"d": (2,) * 7}),
        (oracle.enumerate_graphs, (7,), {"interval": iv, "m": 7}),
        (oracle.enumerate_graphs, (7,), {"interval": iv}),
        (chains.run_with_rng, (object(), object(), 100, rng), {}),
        (oracle.state_graph_components, (object(), ("switch",)), {}),
        (oracle.tv_curve, (object(), 0, 10), {}),
        (graphs.realize_in_interval, (iv, 7), {}),
        (projection.feasible_edge_counts, (iv,), {}),
    ]
    for fn, args, kwargs in forms:
        inspect.signature(fn).bind(*args, **kwargs)


def test_result_attributes_read():
    """Every attribute the benchmark reads off a result (perfbench/spans.py
    and perfbench/workloads.py) exists, on [1,2]^5."""
    from degmc import counting
    from degmc.chains import make_rng
    from degmc.graphs import DegreeInterval

    iv = DegreeInterval((1,) * 5, (2,) * 5)
    exact = counting.exact_interval_count(iv)
    assert abs(counting.estimate_count(iv, 0.1, 0.05, seed=0).value / exact - 1) < 1e-12
    assert counting.estimate_count_m(iv, 4, 0.1, 0.05, make_rng(0)).samples_used == 0
    assert counting.build_ladder(iv, 4).rungs[0] == iv.lower
    assert counting.estimate_ratio(0.5, 100, make_rng(0))[1] == 100
    g = counting.sample_interval(iv, rng=make_rng(0))
    assert g.edges and g.n == 5
