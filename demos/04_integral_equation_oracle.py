"""The deterministic oracle: a direct solve of the radial integral equation.

The collision density obeys f = c K[f] + first flight, where K convolves
with the flight kernel p(s)/(4 pi s^2) reduced to radial form. This script
solves it for each law as one symmetric Toeplitz system (O(M log M) time,
O(M) memory), checks it against the exact closed form of every law
(partial fractions for diffusion, sp2 and sp3; Case's discrete mode plus
continuum for the classical law), shows that the solver's error falls as
O(h^2) for a non-classical law but only as O(h) for the classical one,
shows the residual and condition estimate of the solve as c -> 1, and
demonstrates how the sp2 law's same-point redeposition builds a point
mass at the origin.
"""

import numpy as np

from nonclassical_mc import (
    CrossSectionSpec,
    ModelKind,
    RadialGrid,
    closed_form,
    make_model,
    solve_integral_equation,
)

xs = CrossSectionSpec(sigma_t=1.0, sigma_s=0.5)
grid = RadialGrid(12.0, 512)

print("=== solve f = c K[f] + first flight on", grid.nodes.size, "radial nodes ===")
print(f"  {'law':10s} {'residual':>10s} {'integral f dV':>14s} {'origin mass':>12s}")
for kind in ModelKind:
    model = make_model(kind, xs)
    sol = solve_integral_equation(model, xs, grid, tol=1e-10)
    print(f"  {kind.value:10s} {sol.residual:10.2e} "
          f"{sol.volume_integral():14.6f} {sol.origin_mass:12.6f}")
print("  balance: integral f dV = 1/(1-c) = 2 for every law")
print("  sp2 origin mass: (4/9)/(1 - 4c/9) - the atom redeposits at the source point")

print("\n=== solver vs closed form M delta + sum_j R_j e^[-kappa_j r]/(4 pi r) ===")
print(f"  {'law':10s} {'kappa_j':>20s} {'M':>9s} {'max rel dev, r in [0.5, 8]':>27s}")
window = (grid.nodes >= 0.5) & (grid.nodes <= 8.0)
for kind in ("diffusion", "sp2", "sp3"):
    model = make_model(kind, xs)
    sol = solve_integral_equation(model, xs, grid, tol=1e-10)
    exact = closed_form(model)
    rel = np.abs(sol.f[window] / exact.density(grid.nodes[window]) - 1.0)
    kappas = " ".join(f"{k:.5f}" for k in exact.decay)
    print(f"  {kind:10s} {kappas:>20s} {exact.origin_mass:9.6f} {rel.max():27.2e}")
print("  diffusion: kappa = sqrt(3 (1-c)) sigma_t, the classic diffusion decay")

print("\n=== classical: discrete mode R0 e^[-r/nu0]/(4 pi r) plus the continuum ===")
print(f"  {'c':>5s} {'nu0':>9s} {'R0':>9s} {'(1-c) integral f dV':>20s}")
for scattering in (0.5, 0.9, 0.99):
    exact = closed_form(make_model("classical", CrossSectionSpec(1.0, scattering)))
    total = exact.origin_mass + np.sum(exact.amplitude / exact.decay**2)
    print(f"  {scattering:5.2f} {1.0 / exact.decay[0]:9.5f} {exact.amplitude[0]:9.5f} "
          f"{(1.0 - scattering) * total:20.15f}")
print("  c nu0 artanh(1/nu0) = 1; nu0 -> 1 as c -> 0 and grows like 1/sqrt(3(1-c))")

print("\n=== solver's max nodal gap to the closed form, c = 0.9, r_max = 40, r in [0.5, 10] ===")
xs_h = CrossSectionSpec(sigma_t=1.0, sigma_s=0.9)
print(f"  {'nodes':>6s} {'sp3':>10s} {'classical':>10s}")
for nodes in (512, 1024, 2048):
    fine = RadialGrid(40.0, nodes)
    inside = (fine.nodes >= 0.5) & (fine.nodes <= 10.0)
    gaps = []
    for kind in ("sp3", "classical"):
        model = make_model(kind, xs_h)
        sol = solve_integral_equation(model, xs_h, fine)
        exact = closed_form(model).density(fine.nodes[inside])
        gaps.append(np.max(np.abs(sol.f[inside] / exact - 1.0)))
    print(f"  {nodes:6d} {gaps[0]:10.2e} {gaps[1]:10.2e}")
print("  halving h divides the sp3 gap by 4 (O(h^2)) but the classical one by 2 (O(h))")

print("\n=== direct solve as c -> 1 (sp3) ===")
print(f"  {'c':>5s} {'residual':>10s} {'rcond':>8s} {'integral f dV':>14s} {'1/(1-c)':>8s}")
for scattering in (0.5, 0.9, 0.99):
    xs_c = CrossSectionSpec(sigma_t=1.0, sigma_s=scattering)
    sol = solve_integral_equation(make_model("sp3", xs_c), xs_c, grid)
    print(f"  {xs_c.c:5.2f} {sol.residual:10.2e} {sol.rcond:8.4f} "
          f"{sol.volume_integral():14.6f} {1.0 / (1.0 - xs_c.c):8.1f}")
print("  one direct Toeplitz solve at every c; the residual stays at rounding level")
print("  while rcond falls with 1 - c; the domain r <= 12 truncates the medium,")
print("  so integral f dV falls short of 1/(1-c) as c -> 1")

print("\n=== pure absorber: the solution is the bare flight kernel ===")
xs0 = CrossSectionSpec(sigma_t=1.0, sigma_s=0.0)
for kind in ModelKind:
    model = make_model(kind, xs0)
    sol = solve_integral_equation(model, xs0, grid)
    r = grid.nodes
    bare = model.density(r) / (4.0 * np.pi * r * r)
    print(f"  {kind.value:10s} f == p(r)/(4 pi r^2) exactly: "
          f"{np.array_equal(sol.f, bare)}")
