"""Command-line front end for ingestion, sampling, counting and verification.

Subcommands: ingest, sample, count, ladder, analyze, verify.  All outputs
are machine-readable (JSON, plain edge lists); every command is
deterministic given its inputs (and --seed, which only sample and count
take).  Flags are the only settings: no environment variable is read, so
a command line and its inputs replay a run.

Exit codes: 0 success, 1 verification failure, 2 infeasible instance,
3 parse/usage error, 4 instance beyond an exact path's size cap.  ``count``
reports the exact count; it tests feasibility first, so an infeasible box
exits 2 at any n and a feasible one above the cap exits 4.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import counting, oracle, projection, verify
from .chains import (
    RNG_LAYOUT,
    DegreeIntervalKernel,
    SwitchHingeFlipKernel,
    SwitchKernel,
    make_rng,
    run_with_rng,
)
from .graphs import (
    Graph,
    Infeasible,
    NotGraphical,
    ParseError,
    intervals_from_observation,
    read_edge_list,
    read_intervals,
    read_missing_counts,
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


def _build_parser():
    p = argparse.ArgumentParser(
        prog="degmc",
        description="Sampling and approximate counting of graphs with per-node degree intervals.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--output", type=str, default=None)

    sp = sub.add_parser("ingest", help="degree intervals from a partially observed graph")
    sp.add_argument("edges", help="edge-list file of the observed graph")
    sp.add_argument("missing", help="file of per-node missing-observation counts: 'i k_i' lines")
    common(sp)

    sp = sub.add_parser("sample", help="draw graphs from a degree-interval class")
    sp.add_argument("intervals", help="interval file: 'i ell_i u_i' lines")
    sp.add_argument("--chain", choices=["switch", "switch-hinge", "interval"], default="interval")
    sp.add_argument("--steps", type=int, default=10000)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--count", type=int, default=1, help="number of samples")
    sp.add_argument("--seed", type=int, default=0)
    common(sp)

    sp = sub.add_parser("count", help="count the graphs in the class")
    sp.add_argument("intervals")
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--delta", type=float, default=0.05)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)

    sp = sub.add_parser("ladder", help="print the telescoping ladder for an instance")
    sp.add_argument("intervals")
    sp.add_argument("--m", type=int, required=True)
    common(sp)

    sp = sub.add_parser("analyze", help="exact mixing diagnostics at desk scale")
    sp.add_argument("intervals")
    sp.add_argument("--chain", choices=["switch", "switch-hinge", "interval"], default="interval")
    sp.add_argument("--m", type=int, default=None)
    common(sp)

    sp = sub.add_parser("verify", help="run an exact verification suite")
    sp.add_argument("suite", choices=list(verify.SUITES))
    sp.add_argument("--n", type=int, default=5, help="largest node count to check")
    common(sp)
    return p


def _check_ranges(args):
    """The range checks that argparse's types do not make."""
    if hasattr(args, "eps") and not (0 < args.eps < 1 and 0 < args.delta < 1):
        raise ParseError("eps and delta must lie in (0,1)")
    if hasattr(args, "steps") and args.steps < 0:
        raise ParseError("steps must be non-negative")
    if hasattr(args, "count") and args.count < 0:
        raise ParseError("count must be non-negative")


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
    missing = read_missing_counts(args.missing)
    # the nodes of both files: a node may have missing counts and no observed edge
    n = max(g.n, max(missing, default=-1) + 1)
    try:
        iv = intervals_from_observation(Graph(n, g.edges), [missing.get(i, 0) for i in range(n)])
    except ValueError as e:
        raise ParseError(f"{args.missing}: {e}")
    if args.output:
        write_intervals(args.output, iv)
    else:
        for i, (lo, hi) in enumerate(zip(iv.lower, iv.upper)):
            print(f"{i} {lo} {hi}")
    return EXIT_OK


def _chain(iv, name, m):
    """(kernel, start state) of the named chain on the interval.  The start
    state comes as a function, so that analyze, which needs none, does not
    build one."""
    if name == "switch":
        if iv.lower != iv.upper:
            raise Infeasible("the switch chain needs a fixed degree sequence (l = u)")
        return SwitchKernel(d=iv.lower), lambda: realize(iv.lower)
    if name == "switch-hinge":
        if m is None:
            raise ParseError("--m is required for the switch-hinge chain")
        return SwitchHingeFlipKernel(interval=iv, m=m), lambda: realize_in_interval(iv, m)
    return DegreeIntervalKernel(interval=iv), lambda: _middle_graph(iv)


def _middle_graph(iv):
    """A graph in the interval with the middle feasible edge count."""
    ms = projection.feasible_edge_counts(iv)
    if not ms:
        raise Infeasible("no graph satisfies the interval")
    return realize_in_interval(iv, ms[len(ms) // 2])


def cmd_sample(args):
    iv = read_intervals(args.intervals)
    kernel, start = _chain(iv, args.chain, args.m)
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
        est = counting.estimate_count_m(iv, args.m, args.eps, args.delta, make_rng(args.seed))
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
    kernel, _ = _chain(iv, args.chain, args.m)
    space = verify.state_space(kernel)
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


def cmd_verify(args):
    checks = verify.run(args.suite, range(4, args.n + 1))
    if not checks:
        raise ParseError(f"suite {args.suite} runs no check at --n {args.n}")
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
        _check_ranges(args)
        return _COMMANDS[args.command](args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (Infeasible, NotGraphical) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except oracle.TooLarge as e:
        print(f"too large: {e}", file=sys.stderr)
        return EXIT_TOO_LARGE


if __name__ == "__main__":
    sys.exit(main())
