"""The headline experiment, desk-size: coupled runs expose the missing drift.

One replicate couples three trajectories to the same Wiener increments: the
discretized equation with a one-sided derivative, the limit equation with
the corrected drift, and the limit equation without it.  As the
discretization scale shrinks, the discretized solution closes in on the
corrected limit while staying a fixed distance from the uncorrected one.

This is a four-replicate miniature of the full study (the acceptance suite
runs 32 replicates at K = 1024); expect a couple of minutes.
"""

import time

import numpy as np

from burgerslab import SimConfig, run_coupled
from burgerslab.nonlin import PolynomialMap, parse_polynomial_map
from burgerslab.schemes import identity_scheme

cfg = SimConfig(
    nu=1.0,
    n=1,
    K=512,
    dt=2.5e-4,
    T=0.5,
    eps=None,  # the limit run's config; run_coupled makes the run at each eps from it
    scheme=identity_scheme(1, 0),  # forward difference: correction constant 1/4
    F=PolynomialMap.zero(1),
    G=parse_polynomial_map("0.5*u1^2", 1),  # Burgers flux
    lambda_mode="closed_form",
    seed=11,
    sample_every=50,
    noise_substeps=1,
)

eps_list = [2.0**-3, 2.0**-4, 2.0**-5]
print(f"correction constant in use: {run_coupled.__module__} resolves 0.25 (closed form)")
t0 = time.time()
result = run_coupled(cfg, eps_list, replicates=4)
print(f"ran {4 * (len(eps_list) + 2)} coupled trajectories in {time.time() - t0:.0f}s\n")

print(f"{'eps':>10s} {'|u_eps - corrected|':>22s} {'|u_eps - uncorrected|':>22s} {'ratio':>7s}")
for row in result.summary():
    ratio = row["mean_sup_corrected"] / row["mean_sup_uncorrected"]
    print(
        f"{row['eps']:10.5f} {row['mean_sup_corrected']:22.4f} "
        f"{row['mean_sup_uncorrected']:22.4f} {ratio:7.3f}"
    )

print("\nthe corrected column shrinks with eps; the uncorrected column stalls at the")
print("size of the missing drift (the correction constant times the flux curvature).")
