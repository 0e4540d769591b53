"""Exact verification suites: the instance families and property checks
behind ``degmc verify`` and acceptance criteria 1-10.

A suite is a pair ``(instances, check)``: ``instances(n)`` lists the
suite's instances on n nodes and ``check(instance)`` returns one record per
checked quantity, a dict with keys ``instance``, ``quantity``, ``bound``,
``measured`` and ``pass``.  An instance with nothing to check (a chain
with fewer than two states, an empty profile) yields no record.  The
oracles' caps apply: ``oracle.TooLarge`` propagates from any check beyond
them.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

from . import oracle, projection
from .chains import DegreeIntervalKernel, SwitchHingeFlipKernel, SwitchKernel
from .graphs import DegreeInterval, NearRegularParams, is_graphical
from .weights import DegenerateDensity, lw_log_weight, sequence_stats

# --- instance families -------------------------------------------------------


def near_regular_unit_instances(n):
    """Multisets of per-node unit/constant intervals around each feasible r."""
    seen = set()
    out = []
    for r in range(1, n - 1):
        hi = min(r + 1, n - 1)
        types = list(dict.fromkeys([(r, r), (r, hi), (hi, hi)]))
        for combo in itertools.combinations_with_replacement(range(len(types)), n):
            lower = tuple(types[t][0] for t in combo)
            upper = tuple(types[t][1] for t in combo)
            if (lower, upper) in seen:
                continue
            seen.add((lower, upper))
            out.append(DegreeInterval(lower, upper))
    return out


def near_regular_sequences(n):
    """Graphical degree multisets with values in {r, r+1} for feasible r."""
    out = set()
    for r in range(1, n - 1):
        for k in range(n + 1):
            d = (r,) * k + (min(r + 1, n - 1),) * (n - k)
            if is_graphical(d):
                out.add(d)
    return sorted(out)


def all_unit_interval_instances(n):
    """Every interval multiset with u_i in {l_i, l_i + 1}, lazily.  There are
    C(3n - 2, n) of them (about 2.0M at n = 9), so TooLarge, raised at the
    call, above ``oracle.ENUMERATION_CAP`` nodes."""
    if n > oracle.ENUMERATION_CAP:
        raise oracle.TooLarge(f"unit-interval instances listed for n <= {oracle.ENUMERATION_CAP}")
    types = []
    for lo in range(n):
        types.append((lo, lo))
        if lo + 1 <= n - 1:
            types.append((lo, lo + 1))
    return (
        DegreeInterval(tuple(t[0] for t in combo), tuple(t[1] for t in combo))
        for combo in itertools.combinations_with_replacement(types, n)
    )


def qualifying_sequences(n):
    """Sorted graphical sequences that meet the strong-stability inequality."""
    out = []
    for d in itertools.combinations_with_replacement(range(1, n - 1), n):
        if is_graphical(d) and oracle.strongly_stable_condition(d):
            out.append(d)
    return out


def mixed_unit_instances(n):
    """near_regular_unit_instances with some interval of positive width."""
    return [iv for iv in near_regular_unit_instances(n) if iv.lower != iv.upper]


def stationarity_chains(n):
    """The switch chain on each near-regular sequence, and the interval
    chain and every switch-hinge slice on each near-regular interval."""
    for d in near_regular_sequences(n):
        yield SwitchKernel(d=d)
    for iv in near_regular_unit_instances(n):
        yield DegreeIntervalKernel(iv)
        for m in projection.feasible_edge_counts(iv):
            yield SwitchHingeFlipKernel(iv, m)


# (alpha, rho) combos for the dispersion-bound suite; parameter points
# outside NearRegularParams.in_dispersion_regime are skipped.
SBOUND_COMBOS = ((0.2, 0.7), (0.3, 0.6))


def sbound_points(n):
    out = []
    for alpha, rho in SBOUND_COMBOS:
        for r in range(2, int((1 - rho) * n) + 1):
            params = NearRegularParams(r=r, alpha=alpha, rho=rho, n=n)
            if params.in_dispersion_regime():
                out.append(params)
    return out


def regular_sequences(n):
    """(r,)*n for r in (2, 3), where graphical and not complete."""
    return [(r,) * n for r in (2, 3) if r < n - 1 and is_graphical((r,) * n)]


# --- checks ------------------------------------------------------------------


def _record(instance, quantity, bound, measured, passed=None):
    """A check's record; by default it passes when measured <= bound."""
    if passed is None:
        passed = measured is not None and measured <= bound
    return {
        "instance": instance,
        "quantity": quantity,
        "bound": bound,
        "measured": measured,
        "pass": bool(passed),
    }


def _label(iv):
    return f"n={iv.n} interval {iv.lower}-{iv.upper}"


def state_space(kernel):
    """The kernel's state space, enumerated."""
    if isinstance(kernel, SwitchKernel):
        return oracle.enumerate_graphs(kernel.n, d=kernel.d)
    return oracle.enumerate_graphs(kernel.n, interval=kernel.interval, m=getattr(kernel, "m", None))


def check_stationarity(kernel):
    """P is symmetric, so the uniform distribution is stationary."""
    space = state_space(kernel)
    if len(space) < 2:
        return []
    P = oracle.build_matrix(kernel, space)
    pi = np.full(len(space), 1.0 / len(space))
    asym = float(abs(P - P.T).max())
    err = float(np.abs(P.T @ pi - pi).max())
    label = f"n={kernel.n} {space.description}, {len(space)} states"
    return [
        _record(label, "max |P - P^T|", 1e-14, asym),
        _record(label, "uniform stationarity error", 1e-10, err),
    ]


def check_irreducible(iv):
    space = oracle.enumerate_graphs(iv.n, interval=iv)
    if len(space) < 2:
        return []
    ncomp, _ = oracle.state_graph_components(space)
    return [_record(_label(iv), "state-graph components", 1, int(ncomp), ncomp == 1)]


def check_logconcave(iv):
    w = oracle.edge_count_profile(iv.lower, iv.upper)
    if not w:
        return []
    ok, where = oracle.verify_log_concave(w)
    return [_record(_label(iv), "log-concavity of edge-count profile", None, where, ok)]


def check_congestion(iv):
    """The birth-death walk on the edge-count profile meets its log-concave
    gap bound and the canonical-path bound 1 / (sigma * ell)."""
    w = oracle.edge_count_profile(iv.lower, iv.upper)
    if len(w) < 2 or any(x <= 0 for x in w):
        return []
    rep = oracle.congestion_check(projection.edge_count_matrix(w), np.asarray(w, dtype=float) / sum(w))
    gap, bound = rep["gap"], projection.logconcave_gap_bound(w)
    return [
        _record(_label(iv), "birth-death spectral gap", bound, gap, gap >= bound - 1e-12),
        _record(_label(iv), "canonical-path congestion bound", 1.0 / rep["bound"], gap, rep["holds"]),
    ]


def _blocks(keys):
    """Index lists of the rows of keys with equal values, in sorted key order."""
    _, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    return [np.flatnonzero(inverse == b) for b in range(inverse.max() + 1)]


def _martin_randall(label, kernel, space, keys):
    rep = oracle.verify_martin_randall(oracle.build_matrix(kernel, space), _blocks(keys))
    return _record(label, "decomposition gap inequality", rep["rhs"], rep["gap"], rep["holds"])


def check_martinrandall(iv):
    """Level 1: the interval chain by edge count.  Level 2: each
    switch-hinge slice by degree sequence."""
    space = oracle.enumerate_graphs(iv.n, interval=iv)
    if len(space) < 2:
        return []
    masses = oracle._popcount(space.masks).astype(int)
    label = _label(iv)
    records = [_martin_randall(f"{label} by edge count", DegreeIntervalKernel(iv), space, masses)]
    for m in np.unique(masses).tolist():
        sub = oracle.enumerate_graphs(iv.n, interval=iv, m=m)
        if len(sub) >= 2:
            kernel, by_degrees = SwitchHingeFlipKernel(iv, m), f"{label} m={m} by degree sequence"
            records.append(_martin_randall(by_degrees, kernel, sub, sub.degrees()))
    return records


def check_projection(iv):
    """Both projected walks keep pi(d) proportional to |G(d)| (from the count
    recursion) stationary, and their off-diagonal entries have the same
    support and agree within a factor n^3."""
    records = []
    for m in projection.feasible_edge_counts(iv):
        sp = projection.DegreeSpace(iv, m)
        if len(sp) < 2:
            continue
        counts = np.array([oracle.count_realizations(d) for d in sp.elements()], dtype=float)
        pi = counts / counts.sum()
        H = projection.hinge_projection_matrix(sp)
        L = projection.load_exchange_matrix(sp)
        err = max(float(np.abs(pi @ H - pi).max()), float(np.abs(pi @ L - pi).max()))
        off = ~np.eye(len(sp), dtype=bool)
        same_support = bool(((H[off] > 0) == (L[off] > 0)).all())
        both = off & (H > 0) & (L > 0)
        ratio = float(np.maximum(H[both] / L[both], L[both] / H[both]).max()) if both.any() else 0.0
        ratio /= iv.n**3
        label, comparable = f"{_label(iv)} m={m}", same_support and ratio <= 1.0
        records += [
            _record(label, "projection stationarity error", 1e-10, err),
            _record(label, "hinge/exchange ratio over n^3", 1.0, ratio, comparable),
        ]
    return records


def check_mconvex(iv):
    records = []
    for m in range((sum(iv.lower) + 1) // 2, sum(iv.upper) // 2 + 1):
        pts = projection.enumerate_degree_vectors(iv, m)
        if pts:
            ok, witness = projection.check_m_convex(pts)
            measured = None if ok else str(witness)
            records.append(_record(f"{_label(iv)} m={m}", "exchange property", None, measured, ok))
    return records


def _transform_goals(masks, n):
    """(goal, source states, target states): remove or add each pair, and
    keep {u,w} while removing {u,v}."""
    bit = oracle.pair_bit(n)
    has = {pair: (masks & np.int64(b)) != 0 for pair, b in bit.items()}
    for pair in bit:
        yield f"remove {pair}", has[pair], ~has[pair]
        yield f"add {pair}", ~has[pair], has[pair]
    for u in range(n):
        for v, w in itertools.permutations([x for x in range(n) if x != u], 2):
            uv, uw = has[tuple(sorted((u, v)))], has[tuple(sorted((u, w)))]
            yield f"keep {(u, w)} remove {(u, v)}", uv & uw, ~uv & uw


def check_stability(d):
    """Every realization of each unit perturbation of d (one degree moved
    from v to u) has an alternating (u, v) repair path of length <= 10, and
    every transform goal is met within a symmetric difference of 12 edges
    from every realization of d."""
    n = len(d)
    records = []
    for u, v in itertools.permutations(range(n), 2):
        d2 = list(d)
        d2[u] += 1
        d2[v] -= 1
        space = oracle.enumerate_graphs(n, d=tuple(d2))
        for i in range(len(space)):
            path = oracle.find_alternating_path(space.graph(i), u, v, 10)
            label = f"n={n} d={d} moved ({v}->{u}) graph {i}"
            length = None if path is None else path.length
            records.append(_record(label, "alternating repair path length", 10, length))
    masks = oracle.enumerate_graphs(n, d=d).masks
    for goal, src, tgt in _transform_goals(masks, n):
        if src.any() and tgt.any():
            sources, targets = masks[src], masks[tgt]
            # blocks of about 4M pairs, so that no |G(d)|^2 array is built
            step = max(1, (1 << 22) // len(targets))
            worst = max(int(oracle._popcount(sources[i : i + step, None] ^ targets).min(axis=1).max())
                        for i in range(0, len(sources), step))
            records.append(_record(f"n={n} d={d} {goal}", "transform symmetric difference", 12, worst))
    return records


def worst_dispersion(n, lo, hi):
    """Max of s(d) over even-sum degree sequences in the window [lo, hi]^n.

    Exact.  On each slice sum(d) = S the density mu is fixed and s is a
    convex quadratic in d, so its maximum sits at a vertex of the slice:
    every coordinate at lo or hi except at most one.  s is invariant under
    coordinate permutation, so the vertices are the sequences with k
    coordinates at hi, one at x in [lo, hi] and the rest at lo."""
    worst = 0.0
    for k in range(n):
        for x in range(lo, hi + 1):
            d = (lo,) * (n - 1 - k) + (x,) + (hi,) * k
            if sum(d) % 2:
                continue
            try:
                worst = max(worst, sequence_stats(d).s)
            except DegenerateDensity:
                continue
    return worst


def check_sbound(params):
    bound = params.dispersion_bound()
    worst = worst_dispersion(params.n, *params.degree_range())
    label = f"n={params.n} r={params.r} alpha={params.alpha} rho={params.rho}"
    return [_record(label, "dispersion ratio s(d)", bound, worst)]


# The asymptotic count formula at (2,2,2,2), evaluated by hand; |G| is 3.
LW_2222 = 3.228242059931677


def check_formula(d):
    """The formula/exact ratio (a diagnostic that always passes), and at
    d = (2,2,2,2) the formula's value against LW_2222."""
    estimate = math.exp(lw_log_weight(d))
    exact = oracle.count_realizations(d)
    records = [_record(f"d={d}", "formula/exact ratio (diagnostic)", None, estimate / exact, True)]
    if d == (2, 2, 2, 2):
        ok = abs(estimate - LW_2222) <= 1e-3
        records.insert(0, _record(f"d={d}", "asymptotic count formula value", 3.228, estimate, ok))
    return records


Suite = namedtuple("Suite", "instances check")


SUITES = {
    "stationarity": Suite(stationarity_chains, check_stationarity),
    "irreducible": Suite(near_regular_unit_instances, check_irreducible),
    "logconcave": Suite(all_unit_interval_instances, check_logconcave),
    "congestion": Suite(all_unit_interval_instances, check_congestion),
    "martinrandall": Suite(mixed_unit_instances, check_martinrandall),
    "projection": Suite(mixed_unit_instances, check_projection),
    "mconvex": Suite(near_regular_unit_instances, check_mconvex),
    "stability": Suite(qualifying_sequences, check_stability),
    "sbound": Suite(sbound_points, check_sbound),
    "formula": Suite(regular_sequences, check_formula),
}


def run(name, sizes):
    """The records of a suite over every instance at each n in sizes; every
    n's instances are taken first, so a family's cap ends the run at once."""
    suite = SUITES[name]
    families = [suite.instances(n) for n in sizes]
    return [rec for xs in families for x in xs for rec in suite.check(x)]
