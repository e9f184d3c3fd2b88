"""Long-lived library worker for the recon-801 workload.

    python [-X importtime] perfbench/worker.py {plain|spans|alloc} OUT.json WARMUP.json

Imports lorsurf, runs one warm-up op of every kind on a small grid, then
prints {"ready": t} and serves ops: one JSON request per stdin line, one
JSON reply per stdout line.  Each op times its own library call group and
checks its result afterwards, outside the timed region and outside any
span.  On "quit" (or end of input) the recorded spans go to OUT.json.
"""

import time

BOOT = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

import lorsurf as ls  # noqa: E402  (first, so its import time includes numpy's)
import numpy as np  # noqa: E402
import tracer  # noqa: E402

clock = tracer.clock


def _grids(p):
    n = p["n"]
    a, b, c, d = p["domain"]
    return np.linspace(a, b, n), np.linspace(c, d, n)


def _grid_through(base, lo, hi, n):
    """About n uniform nodes on [lo, hi] with `base` as a node (as the CLI builds)."""
    h = (hi - lo) / (n - 1)
    k1 = int(np.floor((base - lo) / h + 1e-12))
    k2 = int(np.floor((hi - base) / h + 1e-12))
    return base + h * np.arange(-k1, k2 + 1)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _position(name, u, v):
    U, V = np.meshgrid(u, v, indexing="ij")
    return ls.get(name).position(U, V)


def op_canonical(p, keep, rec):
    """hyperbolic_cone: canonical maps, chart, resampling, verification."""
    entry = ls.get("hyperbolic_cone")
    u, v = _grids(p)
    u0, v0 = float(u[p["i0"]]), float(v[p["j0"]])
    t0 = clock()
    maps = ls.canonical_maps(entry.provider, u0, v0, u, v)
    src = ls.chart_from_provider(entry.provider, u, v, u0, v0)
    umap, vmap = maps
    cu = _grid_through(float(umap(u0)), *umap.range, p["n"])
    cv = _grid_through(float(vmap(v0)), *vmap.range, p["n"])
    out = ls.resample_to_canonical(src, maps, cu, cv)
    rep = ls.verify_canonical(out)
    wall = clock() - t0
    rec.op = None
    keep["canonical"] = out
    errors = []
    if not (rep.passed and max(rep.max_dev_L, rep.max_dev_N) <= 1e-6):
        errors.append(f"canonical deviation {rep.max_dev_L:.3g}/{rep.max_dev_N:.3g} > 1e-6")
    return wall, errors, _digest(out.F, out.H, out.L, out.M, out.N)


def op_residual_reconstruct(p, keep, rec):
    """natural_residual and reconstruct of the canonical cone chart."""
    chart = keep["canonical"]
    t0 = clock()
    nat = ls.natural_residual(chart)
    res = ls.reconstruct(chart)
    wall = clock() - t0
    rec.op = None
    scale = 1.0 + float(np.max(np.abs(chart.L * chart.N))) + float(np.max(chart.M**2))
    errors = []
    if not nat.max_abs <= 1e-3 * scale:
        errors.append(f"canonical-cone residual {nat.max_abs:.3g} > 1e-3*{scale:.3g}")
    if res.natural_warning:
        errors.append("natural_warning on the canonical cone")
    return wall, errors, _digest(res.mesh)


def op_enneper1(p, keep, rec):
    """reconstruct(reference_chart("enneper1")) and congruence to the closed form."""
    u, v = _grids(p)
    t0 = clock()
    chart = ls.reference_chart("enneper1", u, v, float(u[p["i0"]]), float(v[p["j0"]]))
    res = ls.reconstruct(chart)
    cong = ls.congruence_check(res.mesh, _position("enneper1", u, v), u, v, tol=1e-6)
    wall = clock() - t0
    rec.op = None
    errors = []
    if cong.verdict.value != "congruent":
        errors.append(f"enneper1 rebuilt mesh is {cong.verdict.value} (tol 1e-6)")
    if res.natural_warning:
        errors.append("natural_warning on enneper1")
    return wall, errors, _digest(res.mesh)


def op_cmc_pair(p, keep, rec):
    """cmc_pair of the cylinder's (K, H) and congruence of the pair."""
    u, v = _grids(p)
    t0 = clock()
    chart = ls.reference_chart("cylinder", u, v)
    H = float(chart.H[chart.u0_index, chart.v0_index])
    res_p, res_m = ls.cmc_pair(chart.K, H, u, v)
    cong = ls.congruence_check(res_p.mesh, res_m.mesh, u, v, tol=1e-4)
    wall = clock() - t0
    rec.op = None
    errors = []
    if cong.verdict.value != "not_congruent":
        errors.append(f"cylinder pair verdict {cong.verdict.value}, expected not_congruent")
    if res_p.natural_warning or res_m.natural_warning:
        errors.append("natural_warning on the cylinder pair")
    return wall, errors, _digest(res_p.mesh, res_m.mesh)


def op_minimal(p, keep, rec):
    """minimal_from_K of enneper2's K; congruence to the closed form is the gate."""
    u, v = _grids(p)
    t0 = clock()
    chart = ls.reference_chart("enneper2", u, v)
    res = ls.minimal_from_K(chart.K, u, v)
    wall = clock() - t0
    rec.op = None
    cong = ls.congruence_check(res.mesh, _position("enneper2", u, v), u, v, tol=1e-6)
    errors = []
    if cong.verdict.value != "congruent":
        errors.append(f"enneper2 rebuilt mesh is {cong.verdict.value} (tol 1e-6)")
    if res.natural_warning:
        errors.append("natural_warning on enneper2")
    return wall, errors, _digest(res.mesh)


OPS = {
    "canonical": op_canonical,
    "residual_reconstruct": op_residual_reconstruct,
    "enneper1": op_enneper1,
    "cmc_pair": op_cmc_pair,
    "minimal": op_minimal,
}


def serve(mode, out_path, warmup_path):
    rec = tracer.Tracer()
    if mode != "plain":
        rec.install(mode)
    keep = {}
    with open(warmup_path) as fh:
        warmup = json.load(fh)
    warnings.simplefilter("ignore")
    for req in warmup:
        OPS[req["fn"]](req["params"], keep, rec)
    print(json.dumps({"ready": clock(), "boot": BOOT}), flush=True)
    try:
        for line in sys.stdin:
            req = json.loads(line)
            if req.get("quit"):
                break
            rec.op = req["id"]
            try:
                wall, errors, digest = OPS[req["fn"]](req["params"], keep, rec)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                wall, errors, digest = None, [f"{type(exc).__name__}: {exc}"], None
            finally:
                rec.op = None
            print(json.dumps({"wall": wall, "errors": errors, "digest": digest}), flush=True)
    finally:
        with open(out_path, "w") as fh:
            json.dump(dict(rec.dump(), boot=BOOT), fh)


if __name__ == "__main__":
    serve(*sys.argv[1:4])
