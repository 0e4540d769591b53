"""The benchmark's workloads: inputs made from the seed, set-up, and timed rounds.

Every workload runs the same four operation families in each round, in the
order the matching ``degmc`` command calls the package:

* chain   -- ``degmc sample``: one segment of each kernel, written with
             ``write_edge_list``;
* draw    -- ``sample_interval`` on the exact path (n <= 7) and on the
             switch-chain path (n > 7);
* count   -- ``degmc count``: ``estimate_count``;
* matrix  -- ``degmc analyze``/``verify``: enumerate the space, build the
             exact matrix, spectral gap and TV curve where dense, components.

A workload runs its own families at full scale and the others at desk
scale, so that every end-to-end metric is measured in every run while the
workload's own layers dominate its time.  The families' operations are
interleaved evenly through the round: the machine's speed drifts over
seconds, and samples bunched in time would each see only one phase of it.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from degmc import chains, counting, graphs, oracle, projection
from degmc.graphs import DegreeInterval, NearRegularParams

# estimate_count's accuracy, as the CLI's defaults
EPS, DELTA = 0.1, 0.05
# near-regular window of the chain family: r +- r**alpha = [4, 6] at r = 5
R, ALPHA, RHO = 5, 0.4, 0.5
TV_STEPS = 32
REF_ROWS = 2  # rows per matrix checked against transition_row_reference
UNIFORMITY_DRAWS = 4000
UNIFORMITY_IV = (1, 2, 5)  # [1,2]^5: 112 graphs


@dataclass(frozen=True)
class Mix:
    """Sizes of one round.  Intervals written (lo, hi, n) mean [lo,hi]^n."""

    chain_n: int
    chain_steps: int  # per segment
    chain_segments: int  # per kernel
    exact_iv: tuple
    exact_draws: int
    mcmc_iv: tuple
    mcmc_draws: int
    count_iv: tuple
    count_calls: int
    matrix_iv: tuple
    matrix_passes: int  # analyses of each space per round


DESK = Mix(
    chain_n=40,
    chain_steps=2_000,
    chain_segments=8,
    exact_iv=(2, 3, 6),
    exact_draws=20,
    mcmc_iv=(2, 3, 8),
    mcmc_draws=3,
    count_iv=(2, 3, 6),
    count_calls=4,
    matrix_iv=(1, 2, 5),
    matrix_passes=4,
)

# Rates are read off the fastest operations of a run (see run.py), so every
# family is cut into many short operations.  A round of oracle-exact fills a
# run, so its desk families take more operations per round.
MIXES = {
    "sample-chain": replace(DESK, chain_n=300, chain_steps=10_000, chain_segments=15),
    "count-draw": replace(
        DESK,
        exact_iv=(2, 3, 7),
        exact_draws=10,
        mcmc_iv=(2, 3, 10),
        mcmc_draws=10,
        count_iv=(2, 3, 7),
        count_calls=2,
    ),
    "oracle-exact": replace(
        DESK, chain_segments=30, mcmc_draws=20, count_calls=9, matrix_iv=(1, 3, 6), matrix_passes=1
    ),
}

KERNELS = ("switch", "switch-hinge", "interval")


def box(spec):
    lo, hi, n = spec
    return DegreeInterval((lo,) * n, (hi,) * n)


def _interleave(families):
    """Merge lists so that each one's items are spread evenly through the result."""
    slots = [((i + 0.5) / len(f), j, op) for j, f in enumerate(families) for i, op in enumerate(f)]
    return [op for _, _, op in sorted(slots, key=lambda s: s[:2])]


def _seeds(seed, *key):
    return [int(x) for x in np.random.SeedSequence([seed, *key]).generate_state(4)]


class Workload:
    """Inputs, start states and generator streams of one run."""

    def __init__(self, name, seed, out_dir):
        self.name, self.seed, self.out_dir = name, seed, out_dir
        self.mix = mix = MIXES[name]
        rng = np.random.default_rng(_seeds(seed, 0))

        # chain family: widths 0 or 1 inside the near-regular window
        params = NearRegularParams(r=R, alpha=ALPHA, rho=RHO, n=mix.chain_n)
        lo, hi = params.degree_range()
        lower = rng.integers(lo, hi, size=mix.chain_n)
        upper = lower + rng.integers(0, 2, size=mix.chain_n)
        self.chain_iv = DegreeInterval(tuple(lower), tuple(upper))
        ms = projection.feasible_edge_counts(self.chain_iv)
        self.m0 = ms[len(ms) // 2]
        self.g0 = graphs.realize_in_interval(self.chain_iv, self.m0)
        self.d0 = self.g0.degree_sequence()
        self.kernels = {
            "switch": chains.SwitchKernel(d=self.d0),
            "switch-hinge": chains.SwitchHingeFlipKernel(interval=self.chain_iv, m=self.m0),
            "interval": chains.DegreeIntervalKernel(interval=self.chain_iv),
        }
        self.chain_seeds = dict(zip(KERNELS, _seeds(seed, 1)))
        self.chain_rngs = {k: chains.make_rng(s) for k, s in self.chain_seeds.items()}
        self.chain_state = {k: self.g0 for k in KERNELS}
        self.first_samples = {}

        # draw, count and matrix families; warm the caches a long-lived
        # caller fills once (census, descent counts, class counts)
        self.exact_iv, self.mcmc_iv = box(mix.exact_iv), box(mix.mcmc_iv)
        self.count_iv, self.matrix_iv = box(mix.count_iv), box(mix.matrix_iv)
        warm = chains.make_rng(_seeds(seed, 2)[0])
        counting.sample_interval(self.exact_iv, rng=warm)
        counting.sample_interval(self.mcmc_iv, rng=warm)
        self.draw_rngs = [chains.make_rng(s) for s in _seeds(seed, 3)[:2]]
        self.matrix_ms = projection.feasible_edge_counts(self.matrix_iv)
        # the switch chain's d: the degrees of a seeded random graph in the interval
        space = oracle.enumerate_graphs(self.matrix_iv.n, interval=self.matrix_iv)
        degrees = space.degrees()
        self.matrix_d = tuple(int(x) for x in degrees[rng.integers(len(degrees))])

    # --- one round --------------------------------------------------------------

    def run_round(self, k, check, ops):
        """Run one round; return its timings.

        Returns, per operation kind, the list of single-operation durations
        under "ops"; each analysed space's list of (rows, build_matrix time)
        under "matrix"; and the degree sum of each chain-path draw, which its
        chain's length is proportional to, under "draw_size".  ``ops``
        counts attempted and failed operations; ``check`` runs an untimed
        correctness check on each result.
        """
        t = {"ops": {}, "matrix": {}, "draw_size": []}
        for key, fn, verify in _interleave(self._families(k)):
            ops["attempted"] += 1
            start = time.perf_counter()
            try:
                out = fn()
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc()
                ops["failed"] += 1
                continue
            dt = time.perf_counter() - start
            t["ops"].setdefault(key, []).append(dt)
            if key.startswith("analyze"):
                t["matrix"].setdefault(key, []).append((len(out[0]), out[2]))
            elif key == "chain_draw":
                t["draw_size"].append(2 * len(out.edges))
            check(lambda c: verify(c, out))
        return t

    def _families(self, k):
        """The round's operations, as one list of (key, run, check) per family."""
        rs = np.random.default_rng(_seeds(self.seed, 4, k))

        # chain: a `degmc sample` run per kernel, continued across rounds
        def segment(kind):
            path = os.path.join(self.out_dir, f"{self.name}-{kind}.edges")

            def run():
                g = chains.run_with_rng(
                    self.kernels[kind], self.chain_state[kind], self.mix.chain_steps, self.chain_rngs[kind]
                )
                graphs.write_edge_list(path, g)
                self.chain_state[kind] = g
                self.first_samples.setdefault(kind, g.edges)
                return g

            def verify(c, g):
                c.sample_file(
                    f"{kind} sample", path, g, self.chain_iv,
                    degrees=self.d0 if kind == "switch" else None,
                    m=self.m0 if kind == "switch-hinge" else None,
                )

            return kind, run, verify

        chain = [segment(kind) for _ in range(self.mix.chain_segments) for kind in KERNELS]

        # draw: `sample_interval` on the exact and on the switch-chain path
        def draw(key, iv, rng):
            return (key, lambda: counting.sample_interval(iv, rng=rng),
                    lambda c, g: c.graph(key, g.edges, g.n, iv.lower, iv.upper))

        exact = [draw("exact_draw", self.exact_iv, self.draw_rngs[0])] * self.mix.exact_draws
        mcmc = [draw("chain_draw", self.mcmc_iv, self.draw_rngs[1])] * self.mix.mcmc_draws

        # count: `degmc count`
        def count(s):
            return ("count", lambda: counting.estimate_count(self.count_iv, EPS, DELTA, seed=s),
                    lambda c, est: c.estimate(est.value, self.count_iv, EPS))

        counts = [count(int(s)) for s in rs.integers(0, 2**31, size=self.mix.count_calls)]

        # matrix: `degmc analyze` for every kernel on the matrix interval
        iv = self.matrix_iv
        specs = [("interval", chains.DegreeIntervalKernel(iv), {"interval": iv},
                  ("switch", "hinge", "add_delete"), None)]
        for m in self.matrix_ms:
            specs.append((f"switch-hinge m={m}", chains.SwitchHingeFlipKernel(iv, m),
                          {"interval": iv, "m": m}, ("switch", "hinge"), m))
        d = self.matrix_d
        specs.append((f"switch d={d}", chains.SwitchKernel(d=d), {"d": d}, ("switch",), None))

        def analyze(what, kernel, space_args, moves, m):
            x0, ref_seed = (int(x) for x in rs.integers(0, 2**31, size=2))

            def run():
                space = oracle.enumerate_graphs(iv.n, **space_args)
                b0 = time.perf_counter()
                P = oracle.build_matrix(kernel, space)
                b1 = time.perf_counter()
                gap = curve = None
                if len(space) <= oracle.DENSE_LIMIT:
                    gap = oracle.spectral_gap(P)
                    curve = oracle.tv_curve(P, x0 % len(space), TV_STEPS)
                ncomp, _ = oracle.state_graph_components(space, moves)
                return space, P, b1 - b0, gap, curve, ncomp

            def verify(c, res):
                space, P, _, gap, curve, ncomp = res
                lower = space_args.get("d", iv.lower)
                upper = space_args.get("d", iv.upper)
                expected = len(c.members(lower, upper, m))
                refs = np.random.default_rng(ref_seed).integers(0, len(space), size=REF_ROWS)
                c.matrix(what, kernel, space, P, expected, ncomp, gap, curve, refs)

            return f"analyze {what}", run, verify

        matrix = [analyze(*spec) for _ in range(self.mix.matrix_passes) for spec in specs]
        return [chain, exact, mcmc, counts, matrix]

    # --- after the timed rounds -----------------------------------------------

    def final_checks(self, c):
        # the same seed reproduces the same edge lists
        for kind, edges in self.first_samples.items():
            g = chains.run_with_rng(
                self.kernels[kind], self.g0, self.mix.chain_steps, chains.make_rng(self.chain_seeds[kind])
            )
            if g.edges != edges:
                c.fail(f"{kind}: replay with the same seed gives another edge list")
        c.estimate_misses(DELTA)
        if self.name == "count-draw":
            iv = box(UNIFORMITY_IV)
            rng = chains.make_rng(_seeds(self.seed, 5)[0])
            draws = [counting.sample_interval(iv, rng=rng) for _ in range(UNIFORMITY_DRAWS)]
            c.uniformity(draws, iv)
