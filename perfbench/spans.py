"""In-memory spans around degmc's public functions, and the per-layer
metrics derived from them.

A caller that did ``from .chains import run_with_rng`` looks the name up in
its own module, so each wrapper is installed in every loaded ``degmc``
module that holds the original function, not only in the defining one.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

from degmc import counting


def _arg(a, k, pos, name):
    return a[pos] if len(a) > pos else k[name]


def _realization_path(a, k, out):
    d = _arg(a, k, 0, "d")
    return {"path": "exact" if len(d) <= counting.EXACT_SAMPLE_CAP else "chain"}


def _ratio_retries(a, k, out):
    requested = _arg(a, k, 1, "n_samples")
    return {"retries": round(math.log2(out[1] / requested))}


# (module, attribute, span name, attributes taken from (args, kwargs, result))
TARGETS = (
    ("graphs", "is_graphical", "graphs.is_graphical", None),
    ("graphs", "realize_in_interval", "graphs.realize_in_interval", None),
    ("graphs", "write_edge_list", "graphs.write_edge_list", None),
    ("projection", "feasible_edge_counts", "projection.feasible_edge_counts", None),
    ("projection", "enumerate_degree_vectors", "projection.enumerate_degree_vectors", None),
    ("chains", "run_with_rng", "chains.run_with_rng",
     lambda a, k, out: {"steps": int(_arg(a, k, 2, "steps"))}),
    ("oracle", "enumerate_graphs", "oracle.enumerate_graphs",
     # both paths (cached census for n <= 7, chunked scan at n = 8) test every mask
     lambda a, k, out: {"masks": 2 ** (out.n * (out.n - 1) // 2)}),
    ("oracle", "count_realizations", "oracle.count_realizations", None),
    ("oracle", "build_matrix", "oracle.build_matrix",
     lambda a, k, out: {"rows": int(out.shape[0])}),
    ("oracle", "spectral_gap", "oracle.spectral_gap", None),
    ("oracle", "state_graph_components", "oracle.state_graph_components", None),
    ("oracle", "tv_curve", "oracle.tv_curve", None),
    ("counting", "estimate_count_m", "counting.estimate_count_m",
     lambda a, k, out: {"samples": out.samples_used}),
    ("counting", "build_ladder", "counting.build_ladder",
     lambda a, k, out: {"rungs": len(out.rungs)}),
    ("counting", "estimate_ratio", "counting.estimate_ratio", _ratio_retries),
    ("counting", "sample_realization", "counting.sample_realization", _realization_path),
    # the memoised body behind exact_interval_count and the descent counts
    # that sample_interval uses to pick a degree sequence
    ("counting", "_exact_interval_count_cached", "counting.exact_interval_count", None),
)


class Tracer:
    """Records spans [name, start, end, parent, phase, attrs] in memory."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self.enabled = True
        self._stack = []

    def _wrap(self, name, fn, attrs_of):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            if not self.enabled:
                return fn(*a, **k)
            parent = self._stack[-1] if self._stack else -1
            rec = [name, time.perf_counter(), None, parent, self.phase, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*a, **k)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                rec[5] = attrs_of(a, k, out)
            return out

        return wrapper

    def install(self):
        """Wrap every target in each loaded degmc module that references it."""
        modules = [m for n, m in sys.modules.items() if n == "degmc" or n.startswith("degmc.")]
        for mod_name, attr, name, attrs_of in TARGETS:
            orig = getattr(sys.modules[f"degmc.{mod_name}"], attr)
            wrapper = self._wrap(name, orig, attrs_of)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
        return self

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                [dict(zip(("name", "start", "end", "parent", "phase", "attrs"), s)) for s in self.spans],
                fh,
            )

    def layer_metrics(self, rounds):
        """Per-layer counts and self times for one set-up plus one average round.

        Spans from set-up count once; spans from the timed rounds count
        divided by the number of rounds.  Self time is a span's duration
        minus the durations of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s, attr_sum = {}, {}, {}
        exact_draws = exact_enums = 0
        for i, (name, start, end, parent, phase, attrs) in enumerate(self.spans):
            w = 1.0 if phase == "setup" else 1.0 / rounds
            if name == "counting.sample_realization":
                name = f"{name}.{attrs['path']}"
                exact_draws += phase == "timed" and attrs["path"] == "exact"
            elif name == "oracle.enumerate_graphs" and phase == "timed" and parent >= 0:
                exact_enums += self.spans[parent][5] == {"path": "exact"}
            calls[name] = calls.get(name, 0.0) + w
            self_s[name] = self_s.get(name, 0.0) + w * (end - start - child_time[i])
            for key, val in (attrs or {}).items():
                if key != "path":
                    attr_sum[(name, key)] = attr_sum.get((name, key), 0.0) + w * val

        def c(name):
            return calls.get(name, 0.0)

        def t(name):
            return self_s.get(name, 0.0)

        def a(name, key):
            return attr_sum.get((name, key), 0.0)

        run = "chains.run_with_rng"
        return {
            "graphs.is_graphical.calls": (c("graphs.is_graphical"), "count"),
            "graphs.is_graphical.s": (t("graphs.is_graphical"), "s"),
            "graphs.realize_in_interval.s": (t("graphs.realize_in_interval"), "s"),
            "graphs.write_edge_list.s": (t("graphs.write_edge_list"), "s"),
            "projection.feasible_edge_counts.s": (t("projection.feasible_edge_counts"), "s"),
            "projection.enumerate_degree_vectors.calls": (c("projection.enumerate_degree_vectors"), "count"),
            "projection.enumerate_degree_vectors.s": (t("projection.enumerate_degree_vectors"), "s"),
            "chains.run_with_rng.calls": (c(run), "count"),
            "chains.run_with_rng.steps": (a(run, "steps"), "count"),
            "chains.run_with_rng.s": (t(run), "s"),
            "chains.run_with_rng.steps_per_s": (a(run, "steps") / t(run), "steps/s"),
            "oracle.enumerate_graphs.calls": (c("oracle.enumerate_graphs"), "count"),
            "oracle.enumerate_graphs.s": (t("oracle.enumerate_graphs"), "s"),
            "oracle.enumerate_graphs.masks_scanned": (a("oracle.enumerate_graphs", "masks"), "count"),
            "oracle.count_realizations.calls": (c("oracle.count_realizations"), "count"),
            "oracle.count_realizations.s": (t("oracle.count_realizations"), "s"),
            "oracle.build_matrix.rows": (a("oracle.build_matrix", "rows"), "count"),
            "oracle.build_matrix.s": (t("oracle.build_matrix"), "s"),
            "oracle.spectral_gap.s": (t("oracle.spectral_gap"), "s"),
            "oracle.state_graph_components.s": (t("oracle.state_graph_components"), "s"),
            "oracle.tv_curve.s": (t("oracle.tv_curve"), "s"),
            "counting.estimate_count_m.calls": (c("counting.estimate_count_m"), "count"),
            "counting.estimate_count_m.s": (t("counting.estimate_count_m"), "s"),
            "counting.build_ladder.s": (t("counting.build_ladder"), "s"),
            "counting.ladder_rungs": (a("counting.build_ladder", "rungs"), "count"),
            "counting.samples_used": (a("counting.estimate_count_m", "samples"), "count"),
            "counting.estimate_ratio.retries": (a("counting.estimate_ratio", "retries"), "count"),
            "counting.sample_realization.exact.s": (t("counting.sample_realization.exact"), "s"),
            "counting.sample_realization.chain.s": (t("counting.sample_realization.chain"), "s"),
            "counting.exact_interval_count.s": (t("counting.exact_interval_count"), "s"),
            "counting.enumerations_per_draw": (exact_enums / max(exact_draws, 1), "ratio"),
        }
