"""Sampling graphs with prescribed degree intervals.

Builds a small instance, runs the degree-interval chain from a greedy
realization, and compares the empirical distribution of the final states
against the uniform distribution over the exhaustively enumerated class.
"""

from collections import Counter

from degmc import oracle
from degmc.chains import DegreeIntervalKernel, make_rng, run_with_rng
from degmc.counting import sample_interval
from degmc.graphs import DegreeInterval, realize_in_interval
from degmc.projection import feasible_edge_counts

iv = DegreeInterval((1,) * 5, (2,) * 5)
print(f"instance: n={iv.n}, lower={iv.lower}, upper={iv.upper}")

m0 = feasible_edge_counts(iv)[0]
g0 = realize_in_interval(iv, m0)
print(f"greedy start: {sorted(g0.edges)} with degrees {g0.degree_sequence()}")

kernel = DegreeIntervalKernel(iv)
rng = make_rng(0)
space = oracle.enumerate_graphs(iv.n, interval=iv)
print(f"state space holds {len(space)} graphs")

draws = 20000
steps = 400  # comfortably past the measured mixing time at this size
hits = Counter()
for _ in range(draws):
    g = run_with_rng(kernel, g0, steps, rng)
    assert iv.contains_graph(g)
    hits[space.index_of(g)] += 1

tv = 0.5 * sum(abs(hits[i] / draws - 1 / len(space)) for i in range(len(space)))
print(f"chain sampler: {draws} draws of {steps} steps, TV from uniform = {tv:.4f}")

# the count-walk sampler gives exactly-uniform draws at desk scale
hits = Counter()
rng = make_rng(1)
for _ in range(draws):
    hits[space.index_of(sample_interval(iv, rng=rng))] += 1
tv = 0.5 * sum(abs(hits[i] / draws - 1 / len(space)) for i in range(len(space)))
print(f"count-walk sampler: TV from uniform = {tv:.4f}")
