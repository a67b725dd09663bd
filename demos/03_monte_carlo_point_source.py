"""Analog Monte Carlo around an isotropic point source, checked two ways.

Runs the diffusion-law engine at c = 0.5 and compares the shell tally with
the closed-form collision density 3 e^[-sqrt(1.5) r] / (4 pi r): the Monte
Carlo solves that equation exactly, so only statistical error remains.
Also shows the global balance (collisions/history = 1/(1-c)) and that the
run is bitwise reproducible regardless of the worker count.
"""

import math
import os

import numpy as np

from nonclassical_mc import ProblemConfig, closed_form, make_model, simulate

config = ProblemConfig(kind="diffusion", sigma_t=1.0, sigma_s=0.5,
                       histories=400_000, batches=100, seed=11)
print(f"running {config.histories:,} histories, c = {config.xs.c} ...")
result = simulate(config)

print(f"\ncollisions/history = {result.collisions_per_history:.4f} "
      f"+- {result.collisions_per_history_se:.4f}  (balance: 1/(1-c) = 2)")
print(f"absorbed weight/history = {result.absorbed_weight_per_history:.4f}  (expect 1)")

oracle = closed_form(make_model("diffusion", config.xs)).shell_averages(result.r_edges)
with np.errstate(invalid="ignore", divide="ignore"):
    z = (result.f_mean - oracle) / result.f_stderr
eligible = result.n_scores >= 100

print("\nshell-by-shell against the closed form (every 8th shell):")
print(f"  {'r mid':>7s} {'f (MC)':>12s} {'f (exact)':>12s} {'z':>6s}")
for k in range(0, z.size, 8):
    print(f"  {result.r_mid[k]:7.3f} {result.f_mean[k]:12.5e} {oracle[k]:12.5e} {z[k]:6.2f}")
print(f"\nmax |z| over {int(eligible.sum())} well-populated shells: "
      f"{np.max(np.abs(z[eligible])):.2f}")

print("\nbitwise determinism across worker counts:")
baseline = None
for workers in ("1", "2"):
    os.environ["NONCLASSICAL_MC_WORKERS"] = workers
    again = simulate(config)
    identical = baseline is None or (
        np.array_equal(baseline.f_mean, again.f_mean)
        and np.array_equal(baseline.f_stderr, again.f_stderr))
    baseline = baseline or again
    print(f"  {workers} worker(s): identical = {identical}")
del os.environ["NONCLASSICAL_MC_WORKERS"]
