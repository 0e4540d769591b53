"""Acceptance criteria: exact desk-scale verification of every provable
property, one test (and one printed pass/fail line) per criterion.

Criteria 1-10 run the suites of ``degmc.verify``, the instances and checks
that ``degmc verify`` runs, at n = 4..6 unless the criterion names another
range, and assert on their records.  Most instances come from the
near-regular desk family: per-node intervals drawn (as multisets, by
relabeling symmetry) from {[r,r], [r,r+1], [r+1,r+1]} for each feasible r.
Criteria 11 and 12 are statistical: 11 calibrates the counting ladder's
binomial ratio law, built here from exact rung sizes, and 12 the sampler.
"""

import math
from collections import Counter

import numpy as np

from degmc import counting, oracle, verify
from degmc.chains import make_rng
from degmc.graphs import DegreeInterval
from degmc.projection import feasible_edge_counts


def _report(capsys, criterion, passed, detail=""):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"[acceptance {criterion}] {status}{' - ' + detail if detail else ''}")
    assert passed, f"{criterion}: {detail}"


def _verdict(capsys, criterion, records, enough, detail):
    """Report the criterion: it passes when every record passes and enough
    were checked."""
    bad = [r for r in records if not r["pass"]]
    _report(capsys, criterion, enough and not bad, f"failed: {bad[:3]}" if bad else detail)


def _measured(records, quantity):
    return [r["measured"] for r in records if r["quantity"] == quantity]


# --- criterion 1: uniform stationarity ---------------------------------------


def test_criterion_1_uniform_stationarity(capsys):
    records = verify.run("stationarity", range(4, 7))
    errors = _measured(records, "uniform stationarity error")
    _verdict(
        capsys,
        "1 uniform stationarity",
        records,
        len(errors) > 100,
        f"{len(errors)} chains, max stationarity error {max(errors):.2e}",
    )


# --- criterion 2: irreducibility ---------------------------------------------


def test_criterion_2_irreducibility(capsys):
    records = verify.run("irreducible", range(4, 7))
    for r in range(1, 6):  # homogeneous instances at n = 7
        for upper in ((r,) * 7, (min(r + 1, 6),) * 7):
            records += verify.check_irreducible(DegreeInterval((r,) * 7, upper))
    _verdict(
        capsys,
        "2 irreducibility",
        records,
        len(records) > 50,
        f"{len(records)} state graphs connected",
    )


# --- criteria 3 and 4: log-concavity and the congestion bound ----------------


def test_criterion_3_log_concavity(capsys):
    records = verify.run("logconcave", range(4, 7))
    _verdict(
        capsys,
        "3 log-concavity",
        records,
        len(records) > 5000,
        f"{len(records)} interval instances, zero exceptions",
    )


def test_criterion_4_congestion_bound(capsys):
    """Each profile's walk meets the log-concave gap bound and the
    canonical-path bound 1 / (sigma * ell)."""
    records = verify.run("congestion", range(4, 7))
    by_profile = [r for r in records if r["quantity"] == "birth-death spectral gap"]
    by_paths = [r for r in records if r["quantity"] == "canonical-path congestion bound"]
    margin = min(r["measured"] / r["bound"] for r in by_profile)
    _verdict(
        capsys,
        "4 congestion bound",
        records,
        len(by_profile) > 1000 and len(by_paths) == len(by_profile) == len(records) // 2,
        f"{len(by_profile)} profiles, min gap/bound ratio {margin:.1f}, canonical paths hold on all",
    )


# --- criterion 5: decomposition inequality at both levels --------------------


def test_criterion_5_martin_randall(capsys):
    records = verify.run("martinrandall", range(4, 6))
    levels = {r["instance"].rsplit(" by ", 1)[1] for r in records}
    _verdict(
        capsys,
        "5 decomposition inequality",
        records,
        len(records) > 50 and levels == {"edge count", "degree sequence"},
        f"{len(records)} decompositions at both levels",
    )


# --- criterion 6: projection-chain stationarity and comparability ------------


def test_criterion_6_projection_stationarity(capsys):
    records = verify.run("projection", range(4, 7))
    errors = _measured(records, "projection stationarity error")
    ratio = max(_measured(records, "hinge/exchange ratio over n^3"))
    _verdict(
        capsys,
        "6 projection stationarity",
        records,
        len(errors) > 100,
        f"{len(errors)} spaces, stationarity err {max(errors):.2e}, "
        f"comparability ratio {ratio:.3f} of the n^3 budget",
    )


# --- criterion 7: M-convexity ------------------------------------------------


def test_criterion_7_m_convexity(capsys):
    records = verify.run("mconvex", range(4, 7))
    _verdict(capsys, "7 M-convexity", records, len(records) > 100, f"{len(records)} degree spaces")


# --- criterion 8: strong stability and bounded repair transforms -------------


def test_criterion_8_strong_stability(capsys):
    records = verify.run("stability", range(4, 7))
    paths = len(_measured(records, "alternating repair path length"))
    goals = len(_measured(records, "transform symmetric difference"))
    _verdict(
        capsys,
        "8 strong stability",
        records,
        paths > 1000 and goals > 500,
        f"{paths} repair paths, {goals} transform goals",
    )


# --- criterion 9: dispersion bound -------------------------------------------


def test_criterion_9_dispersion_bound(capsys):
    """s(d) <= 4n r**(2 alpha - 1) / (rho n - 2) over the near-regular window,
    against the exact window maximum, for n in 4..10 and {20, 50, 100}.

    The bound (NearRegularParams.dispersion_bound) follows from the regime's
    hypotheses n**alpha <= rho*n/2 and r - r**alpha >= r/4; points outside
    them are skipped.  With chi = sum (d_i - xi)^2 / (n-1)^2:
      1. Popoviciu: sum (d_i - xi)^2 <= n (hi - lo)^2 / 4 <= n r**(2 alpha);
      2. mu >= lo / (n-1) >= (r - r**alpha) / (n-1) >= r / (4 (n-1));
      3. 1 - mu >= (rho n - 2) / (2 (n-1)), since xi <= (1-rho) n + rho n/2;
    so s = chi / (2 mu (1-mu)) <= 4n r**(2 alpha - 1) / (rho n - 2).

    Control: the same statistic with chi normalized by (n-1) instead of
    (n-1)^2, i.e. (n-1) * s, must exceed the bound somewhere, so the check
    is sharp enough to catch a mis-normalized dispersion.
    """
    records = []
    worst_frac = 0.0
    control_frac = 0.0
    witness = ""
    for n in list(range(4, 11)) + [20, 50, 100]:
        for p in verify.sbound_points(n):
            (rec,) = verify.check_sbound(p)
            records.append(rec)
            frac = rec["measured"] / rec["bound"]
            control_frac = max(control_frac, (n - 1) * frac)
            if frac > worst_frac:
                worst_frac = frac
                s, bound = rec["measured"], rec["bound"]
                witness = f"s={s:.4f} vs bound {bound:.4f} at {rec['instance']}"
    _verdict(
        capsys,
        "9 dispersion bound",
        records,
        len(records) > 10 and control_frac > 1.0,
        f"{len(records)} parameter points, worst s/bound = {worst_frac:.3f} ({witness}); "
        f"(n-1)-normalized control reaches {control_frac:.2f}x the bound",
    )


# --- criterion 10: count-formula sanity --------------------------------------


def test_criterion_10_formula_sanity(capsys):
    records = verify.check_formula((2, 2, 2, 2))
    (value,) = _measured(records, "asymptotic count formula value")
    diag = []
    for n in (6, 8, 10):
        for d in verify.regular_sequences(n):
            (rec,) = verify.check_formula(d)
            records.append(rec)
            diag.append(f"n={n} r={d[0]}: {rec['measured']:.4f}")
    _verdict(
        capsys,
        "10 formula sanity",
        records,
        len(diag) == 6,
        f"value {value:.6f} (exact count 3); estimate/exact ratios " + ", ".join(diag),
    )


# --- criterion 11: count-estimator calibration -------------------------------


def _ladder_estimate(iv, eps, delta, rng):
    """The telescoped ladder estimate of |G(l,u)|: per feasible edge count
    m, the exact last rung G(a^p) divided by one binomial ratio estimate per
    rung, N draws each by ``ratio_sample_size`` at delta / n^2, and summed
    over m.  The rung sizes are exact, so this calibrates the ladder's
    sampling law alone."""
    delta_m = delta / iv.n**2
    total = 0.0
    for m in feasible_edge_counts(iv):
        ladder = counting.build_ladder(iv, m)
        sizes = [counting.exact_interval_count(DegreeInterval(a, iv.upper), m) for a in ladder.rungs]
        log_est = math.log(sizes[-1])
        if ladder.num_ratios:
            q_hat = max(a / b for a, b in zip(sizes, sizes[1:]))
            n_per = counting.ratio_sample_size(ladder.num_ratios, eps, delta_m, q_hat)
            for a, b in zip(sizes, sizes[1:]):
                r, _ = counting.estimate_ratio(b / a, n_per, rng)
                log_est -= math.log(r)
        total += math.exp(log_est)
    return total


def test_criterion_11_count_calibration(capsys):
    reps = 200
    results = []
    for iv in (
        DegreeInterval((1,) * 5, (2,) * 5),
        DegreeInterval((2,) * 6, (3,) * 6),
    ):
        exact = counting.exact_interval_count(iv)
        est = counting.estimate_count(iv, eps=0.1, delta=0.05, seed=0)
        assert (est.method, est.log_value) == ("exact", math.log(exact))
        failures = 0
        for seed in range(reps):
            value = _ladder_estimate(iv, 0.1, 0.05, make_rng(seed))
            if abs(value - exact) > 0.1 * exact:
                failures += 1
        frac = failures / reps
        results.append((iv.n, frac))
        if frac > 0.07:
            _report(
                capsys,
                "11 count calibration",
                False,
                f"n={iv.n}: failure fraction {frac:.3f} > 0.07",
            )
    _report(
        capsys,
        "11 count calibration",
        True,
        "; ".join(f"n={n}: failure fraction {f:.3f} <= 0.07" for n, f in results),
    )


# --- criterion 12: sampler calibration ---------------------------------------


def test_criterion_12_sampler_calibration(capsys):
    iv = DegreeInterval((1,) * 5, (2,) * 5)
    space = oracle.enumerate_graphs(5, interval=iv)
    rng = make_rng(2024)
    N = 100_000
    c = Counter(
        space.index_of(counting.sample_interval(iv, rng=rng)) for _ in range(N)
    )
    emp = np.array([c[i] for i in range(len(space))]) / N
    tv = 0.5 * float(np.abs(emp - 1 / len(space)).sum())
    _report(
        capsys,
        "12 sampler calibration",
        tv <= 0.05,
        f"TV {tv:.4f} over {N} draws against the {len(space)}-state uniform",
    )
