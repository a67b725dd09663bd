"""Exact inverse-transform sampling of every law.

Draws a million path lengths per law from one reproducible stream, then
holds the samples against the analytic answers: moments, the exact-zero
mass of the sp2 law, and the largest ECDF deviation. Also demonstrates
that sampling is an exact inverse: cdf(sample(xi)) returns xi.
"""

import numpy as np
from scipy import special

from nonclassical_mc import CrossSectionSpec, ModelKind, make_model, sample_path
from nonclassical_mc.rng import uniforms_at

xs = CrossSectionSpec(sigma_t=1.0, sigma_s=0.5)
n = 1_000_000

print("=== the shared inversion: f(z) = (1+z)e^[-z] ===")
print("  diffusion at sigma_t = 1 survives as f(sqrt(3) s): z = sqrt(3) sample(1 - y)")
diffusion = make_model("diffusion", xs)
for nominal in (0.9999, 2.0 / np.e, 0.25, 6.0 * np.exp(-5.0), 1e-9):
    xi = 1.0 - nominal
    y = 1.0 - xi  # the y that xi encodes; 1 - nominal rounds
    z = np.sqrt(3.0) * sample_path(diffusion, xi)
    lambert = -1.0 - special.lambertw(-y / np.e, k=-1).real
    print(f"  y = {y:.9g}: z = {z:.9g}, Lambert W gives {lambert:.9g}, "
          f"residual {abs((1+z)*np.exp(-z) - y):.1e}")

print(f"\n=== {n:,} samples per law, stream (seed=7, id=0) ===")
# variate i of the stream is double i % 3 of counter i // 3: double i of the
# key's PCG64DXSM stream
xi = uniforms_at(7, [0], [0], [-(-n // 3)]).T.ravel()[:n]
probes = np.linspace(0.0, 10.0, 101) / xs.sigma_t
print(f"  {'law':10s} {'mean':>9s} {'+-':>8s} {'2nd mom':>9s} {'+-':>8s} "
      f"{'zero frac':>10s} {'max ECDF gap':>13s}")
for kind in ModelKind:
    model = make_model(kind, xs)
    s = sample_path(model, xi)
    ecdf = np.searchsorted(np.sort(s), probes, side="right") / n
    gap = np.max(np.abs(ecdf - model.cdf(probes)))
    print(f"  {kind.value:10s} {s.mean():9.5f} {s.std(ddof=1) / np.sqrt(n):8.5f} "
          f"{np.mean(s * s):9.5f} {np.std(s * s, ddof=1) / np.sqrt(n):8.5f} "
          f"{np.mean(s == 0.0):10.5f} {gap:13.2e}")
print("  analytic means: 1.000000, 1.154701, 0.860663, 1.042535; all 2nd moments 2")
print("  sp2 zero fraction should sit on 4/9 =", f"{4/9:.5f}")

print("\n=== sampling is an exact inverse of the CDF ===")
for kind in ModelKind:
    model = make_model(kind, xs)
    xi = np.linspace(model.atom_at_zero + 1e-9, 1.0 - 1e-9, 100_001)
    err = np.max(np.abs(model.cdf(sample_path(model, xi)) - xi))
    print(f"  {kind.value:10s} max |cdf(sample(xi)) - xi| = {err:.2e}")

print("\n=== the sp2 atom branch is exact, not approximately zero ===")
model = make_model("sp2", xs)
xi = np.array([0.0, 0.2, 4.0 / 9.0, 4.0 / 9.0 + 1e-12, 0.6])
print("  xi     :", xi)
print("  sample :", sample_path(model, xi))
