"""Counting: the exact count, and the telescoping ladder behind the FPRAS.

Shows the per-edge-count class sizes (and their log-concavity), one
ladder in detail: its rungs, their exact ratios and the binomial law by
which the approximate counter estimates each ratio, and the telescoped
estimate against the exact total that ``count`` reports.
"""

import math

from degmc import oracle
from degmc.chains import make_rng
from degmc.counting import build_ladder, estimate_count, estimate_ratio, exact_interval_count, ratio_sample_size
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
sizes = [exact_interval_count(DegreeInterval(a, iv.upper), m) for a in ladder.rungs]
q_hat = max(a / b for a, b in zip(sizes, sizes[1:]))
n_per = ratio_sample_size(ladder.num_ratios, 0.1, 0.05, q_hat)
print(f"\nladder for m={m}: {ladder.num_ratios} ratios, {n_per} draws per rung (eps 0.1, delta 0.05)")
rng = make_rng(0)
log_est = math.log(sizes[-1])
for a, b, na, nb in zip(ladder.rungs, ladder.rungs[1:], sizes, sizes[1:]):
    r, used = estimate_ratio(nb / na, n_per, rng)  # hits ~ Binomial(used, nb / na)
    log_est -= math.log(r)
    print(f"  {a} -> {b}: ratio {nb}/{na} = {nb / na:.4f}, estimated {r:.4f} from {used} draws")
print(f"final pinned class {ladder.final_sequence}: exactly {sizes[-1]} graphs")
print(f"telescoped estimate of |G_{m}|: {math.exp(log_est):.1f} vs exact {sizes[0]}")

est = estimate_count(iv, eps=0.1, delta=0.05, seed=0)
exact = exact_interval_count(iv)
print(f"\ncount reports method {est.method!r}: log {est.log_value:.6f} = log {exact}")
