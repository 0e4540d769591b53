"""degmc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Prints one JSON object as the last line of standard output:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Exits 1 if a correctness check fails, 2 if the package is missing.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# One thread per workload process, BLAS included.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("sample-chain", "count-draw", "oracle-exact")
SETUP_REPEATS = 3  # set-ups per run: this process plus two fresh ones
# Rounds per run at least.  A round of oracle-exact takes about half a run; a
# fixed count keeps its fastest-of-run timings from depending on whether a
# second round happened to fit.
MIN_ROUNDS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="set up, print the set-up time, exit")
    return p.parse_args(argv)


def fresh_setup_s(args):
    """Set-up time of a fresh process: interpreter-level imports to start state."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(out.stdout.strip().splitlines()[-1])


# Timings are the fastest of a run, not medians.  On a shared host an
# operation can take 1.5-1.8 times as long in phases of contention that last
# from seconds to over a minute, longer than a run, so a median moves with the
# phase a run fell in.  Contention only adds time: the fastest of many short
# operations is the program's own cost, seen when the host ran at full speed.


def fastest_times(rounds):
    """Each operation kind's shortest duration over the run.

    A chain-path draw runs a chain whose length is proportional to the
    drawn degree sum, so its time is the fastest time per unit of degree
    sum, times the run's mean degree sum.
    """
    durations = {}
    for r in rounds:
        for key, ds in r["ops"].items():
            durations.setdefault(key, []).extend(ds)
    times = {key: min(ds) for key, ds in durations.items()}
    sizes = [x for r in rounds for x in r["draw_size"]]
    times["chain_draw"] = min(t / x for t, x in zip(durations["chain_draw"], sizes)) * statistics.mean(sizes)
    return times


def matrix_rows_per_s(rounds):
    """Rows per second of build_matrix, each space at its fastest build."""
    builds = {}
    for r in rounds:
        for what, runs in r["matrix"].items():
            builds.setdefault(what, []).extend(runs)
    fastest = [min(runs, key=lambda b: b[1]) for runs in builds.values()]
    return sum(rows for rows, _ in fastest) / sum(s for _, s in fastest)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "degmc", "__init__.py")):
        print(f"perfbench: no degmc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)

    import workloads
    from checks import Checker

    if args.setup_only:
        workloads.Workload(args.workload, args.seed, OUT)
        print(time.perf_counter() - T0)
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer().install()
    wl = workloads.Workload(args.workload, args.seed, OUT)
    setups = [time.perf_counter() - T0]

    checker = Checker()

    def check(fn):
        if tracer:
            tracer.enabled = False
        fn(checker)
        if tracer:
            tracer.enabled = True

    if tracer:
        tracer.phase = "timed"
    ops = {"attempted": 0, "failed": 0}
    rounds = []
    start = time.perf_counter()

    def next_fits():
        """Whether another round should end within the budget."""
        return (time.perf_counter() - start) / len(rounds) * (len(rounds) + 1) <= args.seconds

    # whole rounds only
    while len(rounds) < MIN_ROUNDS or next_fits():
        rounds.append(wl.run_round(len(rounds), check, ops))
    if tracer:
        tracer.enabled = False
    wl.final_checks(checker)

    times = fastest_times(rounds)
    # a round with every operation at its fastest
    wall = sum(len(ds) * times[key] for key, ds in rounds[0]["ops"].items())
    if tracer:
        layers = tracer.layer_metrics(len(rounds))
        layers["trace.wall_s"] = (wall, "s")
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        setups += [fresh_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
        steps = wl.mix.chain_steps
        e2e = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "switch_steps_per_s": (steps / times["switch"], "steps/s"),
            "switch_hinge_steps_per_s": (steps / times["switch-hinge"], "steps/s"),
            "interval_steps_per_s": (steps / times["interval"], "steps/s"),
            "exact_draws_per_s": (1.0 / times["exact_draw"], "draws/s"),
            "chain_draws_per_s": (1.0 / times["chain_draw"], "draws/s"),
            "count_estimate_s": (times["count"], "s"),
            "matrix_rows_per_s": (matrix_rows_per_s(rounds), "rows/s"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    for msg in checker.failures:
        print(f"check failed: {msg}", file=sys.stderr)
    correct = not checker.failures
    print(json.dumps({"correct": correct, "attempted": ops["attempted"], "failed": ops["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
