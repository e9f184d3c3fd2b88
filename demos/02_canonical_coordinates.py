"""Canonical coordinates for the hyperbolic cone, against the closed form.

The cone's raw null coordinates are not canonical: L(u, v0) grows like
e^(u/2) instead of being +-1.  Integrating sqrt(|L|) along the base lines
produces the canonical change of coordinates; with the normalization
tu0 = tv0 = 2 sqrt(2) 3^(1/4) the map is tu = tu0 * e^(u/4) exactly, and
the transformed coefficient and mean curvature collapse to

    F = tu^3 tv^3 / 1152,        H = -48 sqrt(3) / (tu^2 tv^2).

The demo builds the maps numerically, resamples, and measures both the
agreement with those closed forms and the quadrature convergence rate.
"""

import numpy as np

import lorsurf as ls

TU0 = 2.0 * np.sqrt(2.0) * 3.0 ** 0.25
entry = ls.get("hyperbolic_cone")


def canonical_to_1e8(rep):
    """A canonicity report judged at 1e-8, tighter than the library's CANONICAL_TOL."""
    return max(rep.max_dev_L, rep.max_dev_N) <= 1e-8


print("source grid   map error        F rel error      H rel error")
prev_map_err = None
for n in (51, 101, 201, 401):
    g = np.linspace(-1.0, 1.0, n)
    umap, vmap = ls.canonical_maps(entry.provider, 0.0, 0.0, g, g,
                                   tilde_u0=TU0, tilde_v0=TU0)
    map_err = float(np.max(np.abs(umap.values - TU0 * np.exp(g / 4.0))))

    src = ls.chart_from_provider(entry.provider, g, g, 0.0, 0.0)
    cu = ls.grid_through(TU0, *umap.range, n)
    cv = ls.grid_through(TU0, *vmap.range, n)
    out = ls.resample_to_canonical(src, (umap, vmap), cu, cv)
    TU, TV = np.meshgrid(cu, cv, indexing="ij")
    f_err = float(np.max(np.abs(out.F / (TU**3 * TV**3 / 1152.0) - 1.0)))
    h_err = float(np.max(np.abs(out.H / (-48.0 * np.sqrt(3.0) / (TU**2 * TV**2)) - 1.0)))
    note = "" if prev_map_err is None else f"   (map error shrank x{prev_map_err / map_err:.1f})"
    print(f"{n:5d}x{n:<6d} {map_err:12.3e} {f_err:16.3e} {h_err:16.3e}{note}")
    prev_map_err = map_err

print()
rep = ls.verify_canonical(out)
print(f"canonical verification at base {rep.base}: max|L - {rep.eps1}| = "
      f"{rep.max_dev_L:.2e}, max|N - {rep.eps2}| = {rep.max_dev_N:.2e} -> "
      f"{'pass' if canonical_to_1e8(rep) else 'fail'} at 1e-8")

print()
print("Residual gauge freedom: affine reparametrizations keep canonicity,")
print("anything else destroys it.")
shifted = ls.canonical_gauge_transform(out, -1, 0.7, -0.3, swap=True)
print(f"  delta=-1, shifts, swapped:  verify -> "
      f"{canonical_to_1e8(ls.verify_canonical(shifted))} "
      f"(eps flipped to {shifted.eps1}, {shifted.eps2})")
