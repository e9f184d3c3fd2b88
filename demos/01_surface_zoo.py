"""Tour of the built-in reference surfaces.

For each surface: sample the analytic jets on its recommended domain,
compute the fundamental forms in null coordinates, and tabulate the
invariants.  Every entry satisfies E = G = 0 (null coordinate curves);
the interesting differences are in the signs of L, N and in H^2 - K,
which splits the surfaces into first kind, second kind, and not of
general type.
"""

import numpy as np

import lorsurf as ls

print(f"{'surface':22s} {'kind':24s} {'F range':>18s} {'H range':>18s} "
      f"{'H^2-K range':>20s}")
print("-" * 106)

for name in ls.names():
    entry = ls.get(name)
    a, b, c, d = entry.default_domain
    u = np.linspace(a + 0.02 * (b - a), b - 0.02 * (b - a), 41)
    v = np.linspace(c + 0.02 * (d - c), d - 0.02 * (d - c), 41)
    U, V = np.meshgrid(u, v, indexing="ij")
    fd = ls.fundamental_forms(entry.provider(U, V))

    assert np.max(np.abs(fd.E)) < 1e-9 and np.max(np.abs(fd.G)) < 1e-9
    h2k = fd.H**2 - fd.K
    print(f"{name:22s} {entry.kind.value:24s} "
          f"[{fd.F.min():7.3f}, {fd.F.max():7.3f}] "
          f"[{fd.H.min():7.3f}, {fd.H.max():7.3f}] "
          f"[{h2k.min():8.4f}, {h2k.max():8.4f}]")

print()
print("Pointwise classification at a sample point of each surface:")
for name in ls.names():
    entry = ls.get(name)
    a, b, c, d = entry.default_domain
    uc, vc = 0.5 * (a + b) + 0.01, 0.5 * (c + d) + 0.02
    fd = ls.fundamental_forms(entry.provider(uc, vc))
    kind = ls.SurfaceKind.of(ls.kind_field(fd.H, fd.K))
    print(f"  {name:22s} H^2-K = {float(fd.H**2 - fd.K):+9.4f}  LN/F^2 = "
          f"{float(fd.L * fd.N / fd.F**2):+9.4f}  -> {kind.value}")

print()
print("In null coordinates <x_uu, x_uu> = L^2 on v = v0 and <x_vv, x_vv> = N^2 on")
print("u = u0, so the pseudo arc-length condition is canonicity (L = eps1, N = eps2):")
for name in ("enneper1", "hyperbolic_cone", "lorentz_sphere"):
    entry = ls.get(name)
    a, b, c, d = entry.default_domain
    u0, v0 = 0.5 * (a + b), 0.5 * (c + d)
    u = ls.grid_through(u0, a + 0.1, b - 0.1, 15)
    v = ls.grid_through(v0, c + 0.1, d - 0.1, 15)
    try:
        rep = ls.verify_canonical(ls.chart_from_provider(entry.provider, u, v, u0, v0))
    except ls.NotGeneralTypeError:
        verdict = "not of general type"
    else:
        verdict = ("canonical" if rep.passed else
                   f"not canonical (deviation {max(rep.max_dev_L, rep.max_dev_N):.3f})")
    print(f"  {name:22s} {verdict}")
