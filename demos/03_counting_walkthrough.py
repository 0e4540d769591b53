"""Approximate counting via a telescoping ladder of tightened lower bounds.

Shows the per-edge-count class sizes (and their log-concavity), one
ladder in detail with its per-rung ratios, and the final estimate
compared against the exhaustive count.
"""

import math

from degmc import oracle
from degmc.counting import build_ladder, estimate_count, exact_interval_count
from degmc.graphs import DegreeInterval
from degmc.projection import edge_count_matrix, feasible_edge_counts, logconcave_gap_bound

iv = DegreeInterval((1,) * 5, (3,) * 5)
print(f"instance: n={iv.n}, lower={iv.lower}, upper={iv.upper}")

ms = feasible_edge_counts(iv)
profile = oracle.edge_count_profile(iv.lower, iv.upper)
print(f"per-edge-count profile: {dict(zip(ms, profile))}")
ok, _ = oracle.verify_log_concave(profile)
print(f"profile log-concave: {ok}")
P = edge_count_matrix([float(w) for w in profile])
pi = [w / sum(profile) for w in profile]
gap = oracle.spectral_gap(P, pi)
print(f"edge-count chain: gap {gap:.4f} >= guaranteed {logconcave_gap_bound(profile):.2e}")

m = 5
ladder = build_ladder(iv, m)
print(f"\nladder for m={m}: {ladder.num_ratios} ratios")
for a, b in zip(ladder.rungs, ladder.rungs[1:]):
    na = exact_interval_count(DegreeInterval(a, iv.upper), m)
    nb = exact_interval_count(DegreeInterval(b, iv.upper), m)
    print(f"  {a} -> {b}: ratio {nb}/{na} = {nb / na:.4f}")
final = oracle.count_realizations(ladder.final_sequence)
print(f"final pinned class {ladder.final_sequence}: exactly {final} graphs")

est = estimate_count(iv, eps=0.1, delta=0.05, seed=0)
exact = exact_interval_count(iv)
print(f"\nestimate: {math.exp(est.log_value):.1f} vs exact {exact} "
      f"(rel err {abs(math.exp(est.log_value) - exact) / exact:.4f}, "
      f"{est.samples_used} samples)")
