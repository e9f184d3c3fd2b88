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
    rep = ls.classify(entry.provider(uc, vc))
    print(f"  {name:22s} H^2-K = {rep.h2_minus_k:+9.4f}  LN/F^2 = "
          f"{rep.ln_over_f2:+9.4f}  -> {rep.kind.value}")

print()
print("The second fundamental form squares to the pseudo arc-length condition")
print("exactly when the coordinates are canonical:")
for name in ("enneper1", "hyperbolic_cone", "lorentz_sphere"):
    entry = ls.get(name)
    a, b, c, d = entry.default_domain
    samples = np.linspace(a + 0.1, b - 0.1, 15)
    rep = ls.pseudo_arc_check(entry.provider, 0.5 * (a + b), 0.5 * (c + d),
                              samples, tol=1e-8,
                              v_samples=np.linspace(c + 0.1, d - 0.1, 15))
    verdict = ("canonical" if rep.passed else
               "degenerate null curves" if rep.degenerate_u or rep.degenerate_v
               else f"not canonical (deviation {max(rep.max_dev_u, rep.max_dev_v):.3f})")
    print(f"  {name:22s} {verdict}")
