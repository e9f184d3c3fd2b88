"""The natural equation as a detector of admissible (F, H) data.

In canonical coordinates the pair (F, H) is not free: rebuilding
L = eps1 + int F H_u dv, M = F H, N = eps2 + int F H_v du and plugging
into the Gauss equation leaves a residual that vanishes exactly when the
data comes from a real surface.  The demo evaluates that residual for
good data (the reference surfaces), for perturbed data, and shows the
constant-H shortcut that recovers F directly from the curvature.
"""

import numpy as np

import lorsurf as ls

n = 161
TU0 = 2.0 * np.sqrt(2.0) * 3.0 ** 0.25

# -- data from real surfaces: residuals converge to zero at second order ------
print("residuals of admissible data (second-order convergence):")
for n1, n2 in ((81, 161),):
    # cone in canonical coordinates, closed-form fields
    maxima = []
    for m in (n1, n2):
        g = ls.grid_through(TU0, TU0 * np.exp(-0.25), TU0 * np.exp(0.25), m)
        k0 = ls.grid_index(g, TU0)
        TU, TV = np.meshgrid(g, g, indexing="ij")
        chart = ls.Chart(u_grid=g, v_grid=g, F=TU**3 * TV**3 / 1152.0,
                         H=-48.0 * np.sqrt(3.0) / (TU**2 * TV**2),
                         u0_index=k0, v0_index=k0, eps1=1, eps2=1).validate()
        maxima.append(ls.natural_residual(chart).max_abs)
    order = ls.convergence_order(maxima[0], maxima[1])
    print(f"  cone (general form):      {maxima[0]:.2e} -> {maxima[1]:.2e}, "
          f"order {order:.2f}")

u = np.linspace(1.0, 2.0, 161)
v = np.linspace(-1.0, 0.0, 161)
chart = ls.reference_chart("enneper1", u, v)
rep = ls.minimal_residual(chart.K, u, v)
print(f"  enneper1 (minimal form):  max {rep.max_abs:.2e}, l2 {rep.l2:.2e}")

g = np.linspace(0.0, 2.0 * np.pi, 61)
cyl = ls.reference_chart("cylinder", g, g)
print(f"  cylinder (constant-H):    max {ls.cmc_residual(cyl.K, 0.5, g, g).max_abs:.2e} "
      "(the zero solution, exactly)")

# -- perturbed data: the residual sees the defect ------------------------------
print()
print("an inadmissible perturbation is flagged with the exact defect size:")
m = 41
gg = np.linspace(0.0, 1.0, m)
bad = ls.Chart(u_grid=gg, v_grid=gg, F=np.full((m, m), 2.1),
               H=np.full((m, m), 0.5), u0_index=0, v0_index=0,
               eps1=1, eps2=1).validate()
rep = ls.natural_residual(bad)
print(f"  F = 2.1, H = 0.5 (cylinder scaled by 1.05): residual = {rep.max_abs:.6f}"
      f"  (analytic value |1 - 2.1^2/4| = {abs(1 - 2.1**2 / 4):.6f})")

# -- the constant-H shortcut ----------------------------------------------------
print()
print("for constant H the coefficient F is determined by K alone:")
U, V = np.meshgrid(u, v, indexing="ij")
K = -4.0 / (U - V) ** 4
F, eps_product = ls.F_from_K_cmc(K, 0.0)
print(f"  K of enneper1, H = 0: F = 1/sqrt|K| matches (u-v)^2/2 to "
      f"{np.max(np.abs(F - 0.5 * (U - V) ** 2)):.2e}, eps1*eps2 = {eps_product:+d}")
K2 = 4.0 / (U - V + 3.0) ** 4
F2, eps2_product = ls.F_from_K_cmc(K2, 0.0)
print(f"  positive curvature flips the sign product: eps1*eps2 = {eps2_product:+d}")
