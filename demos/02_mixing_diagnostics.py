"""Exact mixing diagnostics for the three chains at desk scale.

Assembles each chain's full transition matrix on an enumerated state
space, verifies that the uniform distribution is stationary, and reports
spectral gaps, total-variation decay, and the resulting mixing-time bound.
"""

import numpy as np

from degmc import oracle
from degmc.chains import DegreeIntervalKernel, SwitchHingeFlipKernel, SwitchKernel
from degmc.graphs import DegreeInterval

iv = DegreeInterval((1,) * 5, (2,) * 5)
d = (2,) * 5

setups = [
    ("switch chain on G(d)", SwitchKernel(d), oracle.enumerate_graphs(5, d=d)),
    (
        "switch-hinge-flip chain on G_m",
        SwitchHingeFlipKernel(iv, m=4),
        oracle.enumerate_graphs(5, interval=iv, m=4),
    ),
    (
        "degree-interval chain on G(l,u)",
        DegreeIntervalKernel(iv),
        oracle.enumerate_graphs(5, interval=iv),
    ),
]

for name, kernel, space in setups:
    P = oracle.build_matrix(kernel, space)
    # P is symmetric, so the uniform law should be stationary
    pi = np.full(len(space), 1.0 / len(space))
    uniform_err = np.abs(P.T @ pi - pi).max()
    gap = oracle.spectral_gap(P, pi)
    curve = np.asarray(oracle.tv_curve(P, 0, t_max=800, pi=pi))
    t_mix = int(np.argmax(curve <= 0.25)) if (curve <= 0.25).any() else None
    bound = oracle.mixing_time_bound(pi[0], 1.0 - gap, 0.25)
    print(f"{name}: |states|={len(space)}")
    print(f"  uniform stationarity error {uniform_err:.2e}, spectral gap {gap:.4f}")
    print(f"  measured t_mix(1/4) = {t_mix}, relaxation-time bound = {bound:.1f}")
