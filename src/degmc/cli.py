"""Command-line front end for ingestion, sampling, counting and verification.

Subcommands: ingest, sample, count, ladder, analyze, verify.  All outputs
are machine-readable (JSON, plain edge lists); every command is
deterministic given its inputs and --seed.  Flag values override
environment variables (prefix DEGMC_), which override defaults.

Exit codes: 0 success, 1 verification failure, 2 infeasible instance,
3 parse/usage error, 4 instance beyond an exact path's size cap,
5 the count estimator drew no member of a subclass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import counting, oracle, projection
from .chains import (
    RNG_LAYOUT,
    DegreeIntervalKernel,
    SwitchHingeFlipKernel,
    SwitchKernel,
    make_rng,
    run_with_rng,
)
from .graphs import (
    DegreeInterval,
    Infeasible,
    NotGraphical,
    ParseError,
    intervals_from_observation,
    read_edge_list,
    read_intervals,
    realize,
    realize_in_interval,
    write_edge_list,
    write_intervals,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INFEASIBLE = 2
EXIT_PARSE = 3
EXIT_TOO_LARGE = 4
EXIT_NO_HITS = 5


def _env_default(name, cast, fallback):
    raw = os.environ.get(f"DEGMC_{name}")
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise ParseError(f"bad value for DEGMC_{name}: {raw!r}")


def _build_parser():
    p = argparse.ArgumentParser(
        prog="degmc",
        description=(
            "Sampling and approximate counting of graphs with per-node degree "
            "intervals.  Flags override DEGMC_* environment variables "
            "(DEGMC_SEED, DEGMC_STEPS, DEGMC_EPS, DEGMC_DELTA, DEGMC_CHAIN), "
            "which override defaults."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--output", type=str, default=None)

    sp = sub.add_parser("ingest", help="degree intervals from a partially observed graph")
    sp.add_argument("edges", help="edge-list file of the observed graph")
    sp.add_argument("missing", help="file of per-node missing-observation counts: 'i k_i' lines")
    common(sp)

    sp = sub.add_parser("sample", help="draw graphs from a degree-interval class")
    sp.add_argument("intervals", help="interval file: 'i ell_i u_i' lines")
    sp.add_argument("--chain", choices=["switch", "switch-hinge", "interval"], default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--count", type=int, default=1, help="number of samples")
    common(sp)

    sp = sub.add_parser("count", help="estimate the number of graphs in the class")
    sp.add_argument("intervals")
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--m", type=int, default=None)
    common(sp)

    sp = sub.add_parser("ladder", help="print the telescoping ladder for an instance")
    sp.add_argument("intervals")
    sp.add_argument("--m", type=int, required=True)
    common(sp)

    sp = sub.add_parser("analyze", help="exact mixing diagnostics at desk scale")
    sp.add_argument("intervals")
    sp.add_argument("--chain", choices=["switch", "switch-hinge", "interval"], default=None)
    sp.add_argument("--m", type=int, default=None)
    common(sp)

    sp = sub.add_parser("verify", help="run an exact verification suite")
    sp.add_argument(
        "suite",
        choices=[
            "stationarity",
            "irreducible",
            "logconcave",
            "congestion",
            "martinrandall",
            "projection",
            "mconvex",
            "stability",
            "sbound",
            "formula",
        ],
    )
    sp.add_argument("--n", type=int, default=5, help="largest node count to check")
    common(sp)
    return p


def _resolve(args):
    """Apply flag > env > default precedence for shared knobs."""
    args.seed = args.seed if args.seed is not None else _env_default("SEED", int, 0)
    if hasattr(args, "steps"):
        args.steps = args.steps if args.steps is not None else _env_default("STEPS", int, 10000)
    if hasattr(args, "eps"):
        args.eps = args.eps if args.eps is not None else _env_default("EPS", float, 0.1)
        args.delta = args.delta if args.delta is not None else _env_default("DELTA", float, 0.05)
        if not (0 < args.eps < 1 and 0 < args.delta < 1):
            raise ParseError("eps and delta must lie in (0,1)")
    if hasattr(args, "chain"):
        args.chain = args.chain or _env_default("CHAIN", str, "interval")
    if hasattr(args, "steps") and args.steps < 0:
        raise ParseError("steps must be non-negative")
    return args


def _emit(payload, output):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _instance_hash(iv):
    blob = json.dumps([list(iv.lower), list(iv.upper)]).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# --- subcommands -------------------------------------------------------------


def cmd_ingest(args):
    g = read_edge_list(args.edges)
    missing = [0] * g.n
    with open(args.missing) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"{args.missing}:{lineno}: expected 'i k_i'", lineno)
            try:
                i, k = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"{args.missing}:{lineno}: non-integer field", lineno)
            if not (0 <= i < g.n):
                raise ParseError(f"{args.missing}:{lineno}: node {i} out of range", lineno)
            missing[i] = k
    iv = intervals_from_observation(g, missing)
    if args.output:
        write_intervals(args.output, iv)
    else:
        for i, (lo, hi) in enumerate(zip(iv.lower, iv.upper)):
            print(f"{i} {lo} {hi}")
    return EXIT_OK


def _chain(iv, name, m):
    """(kernel, enumerate_graphs keywords of its space, start state) of the
    named chain on the interval.  The start state comes as a function, so
    that analyze, which needs none, does not build one."""
    if name == "switch":
        if iv.lower != iv.upper:
            raise Infeasible("the switch chain needs a fixed degree sequence (l = u)")
        return SwitchKernel(d=iv.lower), {"d": iv.lower}, lambda: realize(iv.lower)
    if name == "switch-hinge":
        if m is None:
            raise ParseError("--m is required for the switch-hinge chain")
        kernel = SwitchHingeFlipKernel(interval=iv, m=m)
        return kernel, {"interval": iv, "m": m}, lambda: realize_in_interval(iv, m)
    return DegreeIntervalKernel(interval=iv), {"interval": iv}, lambda: _middle_graph(iv)


def _middle_graph(iv):
    """A graph in the interval with the middle feasible edge count."""
    ms = projection.feasible_edge_counts(iv)
    if not ms:
        raise Infeasible("no graph satisfies the interval")
    return realize_in_interval(iv, ms[len(ms) // 2])


def cmd_sample(args):
    iv = read_intervals(args.intervals)
    kernel, _, start = _chain(iv, args.chain, args.m)
    g = start()
    rng = make_rng(args.seed)
    base = args.output or "sample"
    files = []
    for k in range(args.count):
        g = run_with_rng(kernel, g, args.steps, rng)
        path = f"{base}_{k:04d}.edges"
        write_edge_list(path, g)
        files.append(path)
    manifest = {
        "seed": args.seed,
        "chain": args.chain,
        "steps": args.steps,
        "count": args.count,
        "m": args.m,
        "instance_hash": _instance_hash(iv),
        "files": files,
        "rng_layout": RNG_LAYOUT,
    }
    with open(f"{base}_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{base}_manifest.json")
    return EXIT_OK


def cmd_count(args):
    iv = read_intervals(args.intervals)
    if args.m is not None:
        est = counting.estimate_count_m(iv, args.m, args.eps, args.delta, seed=args.seed)
    else:
        est = counting.estimate_count(iv, args.eps, args.delta, seed=args.seed)
    _emit(est.to_dict(), args.output)
    if est.method == "infeasible":
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_ladder(args):
    iv = read_intervals(args.intervals)
    ladder = counting.build_ladder(iv, args.m)
    _emit(
        {
            "m": ladder.m,
            "rungs": [list(a) for a in ladder.rungs],
            "final_sequence": list(ladder.final_sequence),
            "num_ratios": ladder.num_ratios,
        },
        args.output,
    )
    return EXIT_OK


def cmd_analyze(args):
    iv = read_intervals(args.intervals)
    kernel, space_args, _ = _chain(iv, args.chain, args.m)
    space = oracle.enumerate_graphs(iv.n, **space_args)
    size = len(space)
    if size == 0:
        raise Infeasible(f"{space.description} is empty")
    P = oracle.build_matrix(kernel, space)
    gap = oracle.spectral_gap(P)
    report = {
        "chain": args.chain,
        "states": size,
        "spectral_gap": gap,
        "mixing_time_bound_eps_0.01": oracle.mixing_time_bound(1.0 / size, 1.0 - gap, 0.01)
        if gap > 0
        else None,
        "symmetric": bool(abs(P - P.T).max() <= 1e-12),
    }
    _emit(report, args.output)
    return EXIT_OK


# --- verification suites -----------------------------------------------------


def _near_regular_unit_intervals(n):
    """Unit-width (and constant) near-regular interval instances at size n."""
    out = []
    for r in range(1, n - 1):
        out.append(DegreeInterval((r,) * n, (r,) * n))
        if r + 1 <= n - 1:
            out.append(DegreeInterval((r,) * n, (r + 1,) * n))
    return out


def _suite_stationarity(n_max):
    checks = []
    for n in range(4, n_max + 1):
        for iv in _near_regular_unit_intervals(n):
            space = oracle.enumerate_graphs(n, interval=iv)
            if len(space) == 0:
                continue
            P = oracle.build_matrix(DegreeIntervalKernel(iv), space)
            sym = bool(abs(P - P.T).max() <= 1e-12)
            pi = np.full(len(space), 1.0 / len(space))
            stat = float(np.abs(P.T @ pi - pi).max())
            checks.append(
                {
                    "instance": f"n={n} interval {iv.lower}-{iv.upper}",
                    "quantity": "uniform stationarity error",
                    "bound": 1e-10,
                    "measured": stat,
                    "pass": sym and stat <= 1e-10,
                }
            )
    return checks


def _suite_irreducible(n_max):
    checks = []
    for n in range(4, n_max + 1):
        for iv in _near_regular_unit_intervals(n):
            space = oracle.enumerate_graphs(n, interval=iv)
            if len(space) == 0:
                continue
            ncomp, _ = oracle.state_graph_components(space)
            checks.append(
                {
                    "instance": f"n={n} interval {iv.lower}-{iv.upper}",
                    "quantity": "state-graph components",
                    "bound": 1,
                    "measured": int(ncomp),
                    "pass": ncomp == 1,
                }
            )
    return checks


def _suite_logconcave(n_max):
    checks = []
    for n in range(4, n_max + 1):
        for iv in _near_regular_unit_intervals(n):
            w = []
            for m in projection.feasible_edge_counts(iv):
                w.append(counting.exact_interval_count(iv, m))
            ok, where = oracle.verify_log_concave(w)
            checks.append(
                {
                    "instance": f"n={n} interval {iv.lower}-{iv.upper}",
                    "quantity": "log-concavity of edge-count profile",
                    "bound": None,
                    "measured": where,
                    "pass": ok,
                }
            )
    return checks


def _suite_congestion(n_max):
    checks = []
    for n in range(4, n_max + 1):
        for iv in _near_regular_unit_intervals(n):
            w = [counting.exact_interval_count(iv, m) for m in projection.feasible_edge_counts(iv)]
            if not w or any(x <= 0 for x in w):
                continue
            P = projection.edge_count_matrix(w)
            pi = np.asarray(w, dtype=float) / sum(w)
            gap = oracle.spectral_gap(P, pi)
            bound = projection.logconcave_gap_bound(w)
            checks.append(
                {
                    "instance": f"n={n} interval {iv.lower}-{iv.upper}",
                    "quantity": "birth-death spectral gap",
                    "bound": bound,
                    "measured": gap,
                    "pass": gap >= bound - 1e-12,
                }
            )
    return checks


def _suite_martinrandall(n_max):
    checks = []
    for n in range(4, min(n_max, 5) + 1):
        for iv in _near_regular_unit_intervals(n):
            if iv.lower == iv.upper:
                continue
            space = oracle.enumerate_graphs(n, interval=iv)
            if len(space) == 0:
                continue
            P = oracle._as_dense(oracle.build_matrix(DegreeIntervalKernel(iv), space))
            masses = oracle._popcount(space.masks).astype(int)
            partition = [list(np.nonzero(masses == m)[0]) for m in sorted(set(masses.tolist()))]
            rep = oracle.verify_martin_randall(P, partition)
            checks.append(
                {
                    "instance": f"n={n} interval {iv.lower}-{iv.upper} (by edge count)",
                    "quantity": "decomposition gap inequality",
                    "bound": rep["rhs"],
                    "measured": rep["gap"],
                    "pass": rep["holds"],
                }
            )
    return checks


def _suite_projection(n_max):
    from .weights import WeightModel

    checks = []
    for n in range(4, n_max + 1):
        for iv in _near_regular_unit_intervals(n):
            if iv.lower == iv.upper:
                continue
            for m in projection.feasible_edge_counts(iv):
                sp = projection.DegreeSpace(iv, m, WeightModel("exact"))
                if len(sp) == 0:
                    continue
                pi = sp.stationary()
                H = projection.hinge_projection_matrix(sp)
                err = float(np.abs(pi @ H - pi).max())
                checks.append(
                    {
                        "instance": f"n={n} interval {iv.lower}-{iv.upper} m={m}",
                        "quantity": "projection stationarity error",
                        "bound": 1e-10,
                        "measured": err,
                        "pass": err <= 1e-10,
                    }
                )
    return checks


def _suite_mconvex(n_max):
    checks = []
    for n in range(4, n_max + 1):
        for iv in _near_regular_unit_intervals(n):
            lo_m = (sum(iv.lower) + 1) // 2
            hi_m = sum(iv.upper) // 2
            for m in range(lo_m, hi_m + 1):
                pts = projection.enumerate_degree_vectors(iv, m)
                if not pts:
                    continue
                ok, witness = projection.check_m_convex(pts)
                checks.append(
                    {
                        "instance": f"n={n} interval {iv.lower}-{iv.upper} m={m}",
                        "quantity": "exchange property",
                        "bound": None,
                        "measured": None if ok else str(witness),
                        "pass": ok,
                    }
                )
    return checks


def _suite_stability(n_max):
    checks = []
    for n in range(4, n_max + 1):
        seen = set()
        for d, cnt in oracle.degree_class_counts(n).items():
            key = tuple(sorted(d))
            if cnt == 0 or key in seen:
                continue
            seen.add(key)
            if not oracle.strongly_stable_condition(key, n):
                continue
            ok = _check_stability_class(key, n)
            checks.append(
                {
                    "instance": f"n={n} d={key}",
                    "quantity": "alternating repair path length",
                    "bound": 10,
                    "measured": None,
                    "pass": ok,
                }
            )
    return checks


def _check_stability_class(d, n):
    """Every unit-perturbed realization repairs within 10 alternating steps.

    Perturbations move one degree unit from node v to node u; a repairing
    alternating (u, v)-path flips that unit back."""
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            d2 = list(d)
            d2[u] += 1
            d2[v] -= 1
            space = oracle.enumerate_graphs(n, d=tuple(d2))
            for i in range(len(space)):
                g = space.graph(i)
                if oracle.find_alternating_path(g, u, v, 10) is None:
                    return False
    return True


# (alpha, rho) combos for the dispersion-bound suite; parameter points
# outside NearRegularParams.in_dispersion_regime are skipped.
SBOUND_COMBOS = ((0.2, 0.7), (0.3, 0.6))


def _worst_dispersion(n, lo, hi):
    """Max of s(d) over even-sum degree sequences in the window [lo, hi]^n.

    Exact.  On each slice sum(d) = S the density mu is fixed and s is a
    convex quadratic in d, so its maximum sits at a vertex of the slice:
    every coordinate at lo or hi except at most one.  s is invariant under
    coordinate permutation, so the vertices are the sequences with k
    coordinates at hi, one at x in [lo, hi] and the rest at lo."""
    from .weights import DegenerateDensity, sequence_stats

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


def _suite_sbound(n_max):
    from .graphs import NearRegularParams

    checks = []
    for alpha, rho in SBOUND_COMBOS:
        for n in range(4, n_max + 1):
            for r in range(2, int((1 - rho) * n) + 1):
                params = NearRegularParams(r=r, alpha=alpha, rho=rho, n=n)
                if not params.in_dispersion_regime():
                    continue
                bound = params.dispersion_bound()
                worst = _worst_dispersion(n, *params.degree_range())
                checks.append(
                    {
                        "instance": f"n={n} r={r} alpha={alpha} rho={rho}",
                        "quantity": "dispersion ratio s(d)",
                        "bound": bound,
                        "measured": worst,
                        "pass": worst <= bound,
                    }
                )
    return checks


def _suite_formula(n_max):
    from .weights import lw_log_weight

    val = math.exp(lw_log_weight((2, 2, 2, 2)))
    checks = [
        {
            "instance": "d=(2,2,2,2)",
            "quantity": "asymptotic count formula value",
            "bound": 3.228,
            "measured": val,
            "pass": abs(val - 3.228242059931677) <= 1e-3,
        }
    ]
    for n in range(6, min(n_max, 10) + 1, 2):
        for r in (2, 3):
            if r > n - 1:
                continue
            d = (r,) * n
            exact = oracle.count_realizations(d)
            if exact == 0:
                continue
            ratio = math.exp(lw_log_weight(d)) / exact
            checks.append(
                {
                    "instance": f"d=({r},)*{n}",
                    "quantity": "formula/exact ratio (diagnostic)",
                    "bound": None,
                    "measured": ratio,
                    "pass": True,
                }
            )
    return checks


_SUITES = {
    "stationarity": _suite_stationarity,
    "irreducible": _suite_irreducible,
    "logconcave": _suite_logconcave,
    "congestion": _suite_congestion,
    "martinrandall": _suite_martinrandall,
    "projection": _suite_projection,
    "mconvex": _suite_mconvex,
    "stability": _suite_stability,
    "sbound": _suite_sbound,
    "formula": _suite_formula,
}


def cmd_verify(args):
    checks = _SUITES[args.suite](args.n)
    report = {"suite": args.suite, "checks": checks, "pass": all(c["pass"] for c in checks)}
    _emit(report, args.output)
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAIL


# --- entry point -------------------------------------------------------------


_COMMANDS = {
    "ingest": cmd_ingest,
    "sample": cmd_sample,
    "count": cmd_count,
    "ladder": cmd_ladder,
    "analyze": cmd_analyze,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else 0
    try:
        args = _resolve(args)
        return _COMMANDS[args.command](args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (Infeasible, NotGraphical, counting.OddResidue) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except oracle.TooLarge as e:
        print(f"too large: {e}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except counting.ZeroHits as e:
        print(f"no hits: {e}", file=sys.stderr)
        return EXIT_NO_HITS


if __name__ == "__main__":
    sys.exit(main())
