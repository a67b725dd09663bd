"""Tour of the four distance-to-collision laws.

Builds each law at unit total cross section, prints the Gauss-Legendre
rule each non-classical law is read from, its constants and moments, and
checks the identities that make them interchangeable inside one transport
process: every law is normalized, and every law shares the classical
second moment 2/sigma_t^2.
"""

import numpy as np

from nonclassical_mc import CrossSectionSpec, ModelKind, make_model

xs = CrossSectionSpec(sigma_t=1.0, sigma_s=0.5)

print("=== SP_N is read off the (N+1)-point Gauss-Legendre rule ===")
for n, kind in enumerate(("diffusion", "sp2", "sp3"), start=1):
    nodes, weights = np.polynomial.legendre.leggauss(n + 1)
    m = make_model(kind, xs)
    print(f"  {kind} (N = {n})")
    for label, values in (("nodes", nodes), ("weights", weights), ("mu = 1/node > 0", m.mu),
                          ("w = its weight", m.weights), ("atom = weight(0)/2", [m.atom_at_zero])):
        print(f"    {label:19s}" + "  ".join(f"{v: .9f}" for v in values))

print("\n=== two-exponential (sp3) constants, from make_model ===")
sp3 = make_model("sp3", xs)
(lam_plus, lam_minus), (w_plus, w_minus) = sp3.mu, sp3.weights
constants = {
    "lambda_plus": lam_plus,
    "lambda_minus": lam_minus,
    "a_plus": 14.0 / (35.0 - 9.0 * lam_plus**2),
    "a_minus": 14.0 / (35.0 - 9.0 * lam_minus**2),
    "A_plus": w_plus * lam_plus**2,
    "A_minus": w_minus * lam_minus**2,
}
for name, value in constants.items():
    print(f"  {name:12s} = {value: .9f}")
print(f"  normalization A+/l+^2 + A-/l-^2 = "
      f"{constants['A_plus'] / lam_plus**2 + constants['A_minus'] / lam_minus**2:.15f}")
print(f"  quartic 3 l^4 - 30 l^2 + 35 at l+, l-: "
      + ", ".join(f"{3 * v**4 - 30 * v**2 + 35:.1e}" for v in sp3.mu))

print("\n=== moments (sigma_t = 1) ===")
print(f"  {'law':10s} {'atom at 0':>10s} {'mean path':>10s} {'2nd moment':>10s}")
for kind in ModelKind:
    m = make_model(kind, xs)
    print(f"  {kind.value:10s} {m.atom_at_zero:10.6f} {m.moment(1):10.6f} {m.moment(2):10.6f}")
print("  (the classical mean is 1/sigma_t; the second moment is 2/sigma_t^2 for all laws)")

print("\n=== hazards: collision rate vs distance since last collision ===")
s = np.array([0.25, 1.0, 4.0, 50.0, 1000.0])
print("  s        " + "".join(f"{v:>12g}" for v in s))
for kind in ModelKind:
    m = make_model(kind, xs)
    print(f"  {kind.value:9s}" + "".join(f"{v:12.6f}" for v in m.hazard(s)))
print("  diffusion levels out at sqrt(3) = 1.732051, sp3 at lambda- = 1.161256,")
print("  both approached like 1/s; classical is flat by definition")

print("\n=== normalization: atom + integral of the density ===")
for kind in ModelKind:
    m = make_model(kind, xs)
    grid = np.linspace(0.0, 60.0, 200_001)
    total = m.atom_at_zero + np.trapezoid(m.density(grid), grid)
    print(f"  {kind.value:10s} {total:.10f}")
