"""Command-line front end.

Subcommands: analyze, canonicalize, residual, reconstruct, corpus.
Exit codes: 0 all checks passed, 1 a check failed (or integration
aborted), 2 malformed input or violated precondition.  Reports are JSON
documents whose pass/fail verdicts are recomputable from the recorded
numbers and tolerances; identical inputs and flags produce byte-identical
files (timing goes to stderr, never into the report).  A verdict never
passes on a non-finite value or tolerance.

Only canonicalize and reconstruct load scipy (splines and Simpson
quadrature); corpus, analyze and residual run on numpy alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from types import SimpleNamespace

import numpy as np

from . import corpus as corpus_mod
from . import minkowski as mk
from .canonical import (
    canonical_maps,
    canonical_maps_from_lines,
    resample_to_canonical,
    verify_canonical,
)
from .chart import chart_from_provider, grid_index
from .chartio import (
    digest_bytes,
    digest_text,
    read_chart,
    write_chart,
    write_mesh_csv,
    write_mesh_obj,
    write_report,
)
from .errors import ChartError, DomainError, LorsurfError
from .natural import (
    accumulate_LN,
    cmc_residual,
    convergence_order,
    minimal_residual,
    natural_residual,
    natural_scale,
)
from .reconstruct import cmc_pair, congruence_check, initial_frame, reconstruct
from .surfaces import fundamental_forms, kind_field

EXIT_OK = 0
EXIT_CHECK_FAILED = 1

_KIND_NAMES = {1: "general_first_kind", -1: "general_second_kind", 0: "not_general_type"}


# -- argument helpers ---------------------------------------------------------

def _parse_grid(text):
    try:
        nu, nv = text.lower().split("x")
        nu, nv = int(nu), int(nv)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like 201x201, got {text!r}")
    if nu < 2 or nv < 2:
        raise argparse.ArgumentTypeError("grid needs at least 2 nodes per axis")
    return nu, nv


def _parse_domain(text):
    try:
        upart, vpart = text.split(",")
        u_min, u_max = map(float, upart.split(":"))
        v_min, v_max = map(float, vpart.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"domain must look like umin:umax,vmin:vmax, got {text!r}")
    if not (u_min < u_max and v_min < v_max):
        raise argparse.ArgumentTypeError("domain bounds must be increasing")
    return u_min, u_max, v_min, v_max


def _all_finite(x):
    """False if x holds a non-finite float anywhere in its dicts and lists."""
    if isinstance(x, dict):
        return all(_all_finite(v) for v in x.values())
    if isinstance(x, (list, tuple)):
        return all(_all_finite(v) for v in x)
    return not isinstance(x, float) or math.isfinite(x)


def _check(name, values, tolerance, passed):
    """A verdict; it fails whenever a recorded value or the tolerance is non-finite."""
    passed = bool(passed) and _all_finite(values) and _all_finite(tolerance)
    return {"name": name, "values": values, "tolerance": tolerance, "pass": passed}


def _status(name, values):
    return {"name": name, "values": values, "tolerance": None, "pass": None}


def _grid_through(base, lo, hi, n):
    """Uniform grid of about n nodes on [lo, hi] containing `base` as a node."""
    h = (hi - lo) / (n - 1)
    k1 = int(np.floor((base - lo) / h + 1e-12))
    k2 = int(np.floor((hi - base) / h + 1e-12))
    return base + h * np.arange(-k1, k2 + 1)


class _Source:
    """Resolved input: either a corpus entry sampled on a grid or a chart file."""

    def __init__(self, args, need_grid=True):
        name = args.source
        self.is_corpus = name in corpus_mod.names()
        self.inputs = {"source": name}
        if self.is_corpus:
            self.entry = corpus_mod.get(name)
            nu, nv = args.grid if args.grid else (101, 101)
            dom = args.domain if args.domain else self.entry.default_domain
            self.u_grid = np.linspace(dom[0], dom[1], nu)
            self.v_grid = np.linspace(dom[2], dom[3], nv)
            self.u0 = args.u0 if args.u0 is not None else float(self.u_grid[(nu - 1) // 2])
            self.v0 = args.v0 if args.v0 is not None else float(self.v_grid[(nv - 1) // 2])
            self.inputs.update({
                "kind": "corpus", "grid": [nu, nv], "domain": list(dom),
                "u0": self.u0, "v0": self.v0,
                "digest": digest_text(
                    f"corpus:{name}|{dom!r}|{nu}x{nv}|{self.u0!r}|{self.v0!r}"),
            })
        else:
            if args.grid or args.domain or args.u0 is not None or args.v0 is not None:
                raise ChartError("--grid/--domain/--u0/--v0 apply to corpus sources only")
            try:
                with open(name, "rb") as fh:
                    raw = fh.read()
            except OSError as exc:
                raise ChartError(
                    f"{name!r} is neither a corpus surface nor a readable chart file: {exc}")
            self.chart_data = read_chart(name)
            self.inputs.update({"kind": "chart_file", "digest": digest_bytes(raw)})

    def chart(self):
        if self.is_corpus:
            return corpus_mod.reference_chart(self.entry.name, self.u_grid, self.v_grid,
                                              self.u0, self.v0)
        return self.chart_data


# -- analyze ------------------------------------------------------------------

def _forms_on_grid(provider, u_grid, v_grid):
    U, V = np.meshgrid(u_grid, v_grid, indexing="ij")
    if provider.singular_set is not None:
        excluded = np.asarray(provider.singular_set(U, V), dtype=bool)
    else:
        excluded = np.zeros(U.shape, dtype=bool)
    valid = ~excluded
    if not np.any(valid):
        raise DomainError("every grid node lies on the singular set")
    fd = fundamental_forms(provider.jet(U[valid], V[valid]))

    def scatter(flat):
        out = np.full(U.shape, np.nan)
        out[valid] = flat
        return out

    fields = {n: scatter(getattr(fd, n)) for n in ("E", "F", "G", "L", "M", "N", "K", "H")}
    normal = np.full(U.shape + (3,), np.nan)
    normal[valid] = fd.l
    return fields, normal, valid, int(excluded.sum())


def cmd_analyze(args):
    src = _Source(args)
    checks, statuses = [], []
    tol_iso, tol_normal, tol_ref = args.tol_iso, args.tol_normal, args.tol_ref

    if src.is_corpus:
        entry = src.entry
        u_grid, v_grid = src.u_grid, src.v_grid
        i0 = grid_index(u_grid, src.u0, "u_grid")
        j0 = grid_index(v_grid, src.v0, "v_grid")
        fields, normal, valid, excluded = _forms_on_grid(entry.provider, u_grid, v_grid)
        E, F, G = fields["E"], fields["F"], fields["G"]
        L, M, N = fields["L"], fields["M"], fields["N"]
        K, H = fields["K"], fields["H"]

        e_max = float(np.max(np.abs(E[valid])))
        g_max = float(np.max(np.abs(G[valid])))
        f_min = float(np.min(F[valid]))
        checks.append(_check("isotropic", {"max_abs_E": e_max, "max_abs_G": g_max,
                                           "min_F": f_min}, tol_iso,
                             e_max <= tol_iso and g_max <= tol_iso and f_min > tol_iso))

        U, V = np.meshgrid(u_grid, v_grid, indexing="ij")
        jets = entry.provider.jet(U, V)
        n_unit = float(np.max(np.abs(mk.inner(normal, normal)[valid] - 1.0)))
        n_xu = float(np.max(np.abs(mk.inner(jets.x_u, normal)[valid])))
        n_xv = float(np.max(np.abs(mk.inner(jets.x_v, normal)[valid])))
        checks.append(_check("normal_contract", {"max_abs_l2_minus_1": n_unit,
                                                 "max_abs_xu_l": n_xu,
                                                 "max_abs_xv_l": n_xv}, tol_normal,
                             max(n_unit, n_xu, n_xv) <= tol_normal))

        ref = entry.reference
        ref_devs = {
            "F": float(np.max(np.abs((F - ref.F(U, V)))[valid])),
            "L": float(np.max(np.abs((L - ref.L(U, V)))[valid])),
            "M": float(np.max(np.abs((M - ref.M(U, V)))[valid])),
            "N": float(np.max(np.abs((N - ref.N(U, V)))[valid])),
            "K": float(np.max(np.abs((K - ref.K(U, V)))[valid])),
            "H": float(np.max(np.abs((H - ref.H(U, V)))[valid])),
        }
        checks.append(_check("reference_match", ref_devs, tol_ref,
                             max(ref_devs.values()) <= tol_ref))

        kinds = kind_field(SimpleNamespace(K=K[valid], H=H[valid]))
        statuses.append(_status("classification", {
            "kind_at_base": _KIND_NAMES[int(kind_field(
                SimpleNamespace(K=K[i0, j0], H=H[i0, j0])))],
            "count_first_kind": int(np.sum(kinds == 1)),
            "count_second_kind": int(np.sum(kinds == -1)),
            "count_not_general_type": int(np.sum(kinds == 0)),
            "H_at_base": float(H[i0, j0]), "K_at_base": float(K[i0, j0]),
            "excluded_singular_nodes": excluded,
        }))

        line_ok = np.all(valid[:, j0]) and np.all(valid[i0, :])
        L0, N0 = float(L[i0, j0]), float(N[i0, j0])
        tiny = 1e-10 * (1.0 + abs(L0) + abs(N0))
        if not line_ok:
            statuses.append(_status("canonical", {"status": "unavailable",
                                                  "reason": "singular nodes on base lines"}))
        elif abs(L0) <= tiny or abs(N0) <= tiny:
            statuses.append(_status("canonical", {
                "status": "unavailable",
                "reason": "not of general type at the base point (L or N vanishes)"}))
        else:
            eps1, eps2 = int(np.sign(L0)), int(np.sign(N0))
            dev_L = float(np.max(np.abs(L[:, j0] - eps1)))
            dev_N = float(np.max(np.abs(N[i0, :] - eps2)))
            ok = dev_L <= args.tol_canonical and dev_N <= args.tol_canonical
            statuses.append(_status("canonical", {
                "status": "pass" if ok else "fail",
                "max_dev_L": dev_L, "max_dev_N": dev_N,
                "eps1": eps1, "eps2": eps2, "tolerance": args.tol_canonical}))

        if args.mesh:
            mesh = entry.position(U, V)
            write_mesh_obj(mesh, u_grid, v_grid, args.mesh + ".obj",
                           comments=[f"source corpus:{entry.name}"])
            write_mesh_csv(mesh, u_grid, v_grid, args.mesh + ".csv")
    else:
        if args.mesh:
            raise ChartError("mesh export requires a corpus source")
        chart = src.chart_data
        if chart.L is not None and chart.N is not None:
            # H^2 - K = LN/F^2 in null coordinates
            K = chart.K if chart.K is not None else chart.H**2 - chart.L * chart.N / chart.F**2
            kinds = kind_field(SimpleNamespace(K=K, H=chart.H))
            statuses.append(_status("classification", {
                "count_first_kind": int(np.sum(kinds == 1)),
                "count_second_kind": int(np.sum(kinds == -1)),
                "count_not_general_type": int(np.sum(kinds == 0))}))
            rep = verify_canonical(chart, tol=args.tol_canonical)
            statuses.append(_status("canonical", {
                "status": "pass" if rep.passed else "fail",
                "max_dev_L": rep.max_dev_L, "max_dev_N": rep.max_dev_N,
                "eps1": rep.eps1, "eps2": rep.eps2, "tolerance": args.tol_canonical}))
        nat = natural_residual(chart)
        statuses.append(_status("natural_residual", {"max_abs": nat.max_abs, "l2": nat.l2}))

    passed = all(c["pass"] for c in checks) and _all_finite([s["values"] for s in statuses])
    doc = {
        "schema_version": 1, "command": "analyze", "inputs": src.inputs,
        "effective_tolerances": {"tol_iso": tol_iso, "tol_normal": tol_normal,
                                 "tol_ref": tol_ref, "tol_canonical": args.tol_canonical},
        "checks": checks, "statuses": statuses,
        "summary": {"passed": passed},
    }
    if args.report:
        write_report(doc, args.report)
    else:
        print(json.dumps(doc, indent=1))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# -- canonicalize --------------------------------------------------------------

def cmd_canonicalize(args):
    src = _Source(args)
    if src.is_corpus:
        provider = src.entry.provider
        maps = canonical_maps(provider, src.u0, src.v0, src.u_grid, src.v_grid,
                              tilde_u0=args.tilde_u0, tilde_v0=args.tilde_v0)
        source_chart = chart_from_provider(provider, src.u_grid, src.v_grid,
                                           src.u0, src.v0)
    else:
        source_chart = src.chart_data
        if source_chart.L is None or source_chart.N is None:
            raise ChartError("canonicalize needs a chart carrying L and N fields")
        maps = canonical_maps_from_lines(
            source_chart.u_grid, source_chart.L[:, source_chart.v0_index],
            source_chart.v_grid, source_chart.N[source_chart.u0_index, :],
            source_chart.u0, source_chart.v0,
            tilde_u0=args.tilde_u0, tilde_v0=args.tilde_v0)
    umap, vmap = maps
    nu = args.canon_nodes if args.canon_nodes else source_chart.u_grid.size
    nv = args.canon_nodes if args.canon_nodes else source_chart.v_grid.size
    cu = _grid_through(float(umap(source_chart.u0)), *umap.range, nu)
    cv = _grid_through(float(vmap(source_chart.v0)), *vmap.range, nv)
    out = resample_to_canonical(source_chart, maps, cu, cv, tol=args.tol_canonical)
    rep = verify_canonical(out, tol=args.tol_canonical)
    write_chart(out, args.output)
    doc = {
        "schema_version": 1, "command": "canonicalize", "inputs": dict(
            src.inputs, tilde_u0=args.tilde_u0, tilde_v0=args.tilde_v0),
        "effective_tolerances": {"tol_canonical": args.tol_canonical},
        "checks": [_check("canonical", {"max_dev_L": rep.max_dev_L,
                                        "max_dev_N": rep.max_dev_N,
                                        "eps1": rep.eps1, "eps2": rep.eps2,
                                        "base": list(rep.base)},
                          args.tol_canonical, rep.passed)],
        "statuses": [_status("canonical_maps", {
            "u_range": list(umap.range), "v_range": list(vmap.range),
            "canonical_grid": [int(cu.size), int(cv.size)]})],
        "summary": {"passed": rep.passed, "output_chart": args.output},
    }
    if args.report:
        write_report(doc, args.report)
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


# -- residual -------------------------------------------------------------------

def _apply_eps_overrides(chart, args):
    eps1 = getattr(args, "eps1", None)
    eps2 = getattr(args, "eps2", None)
    if eps1 is None and eps2 is None:
        return chart
    return chart.with_fields(eps1=eps1 if eps1 is not None else chart.eps1,
                             eps2=eps2 if eps2 is not None else chart.eps2).validate()


def _constant_H(chart, what):
    """The chart's H value; ChartError unless H is constant on the grid."""
    H0 = float(chart.H[chart.u0_index, chart.v0_index])
    if float(np.max(chart.H) - np.min(chart.H)) > 1e-10 * (1.0 + abs(H0)):
        raise ChartError(f"{what} requires a constant H field")
    return H0


def _residual_for(chart, mode):
    if mode == "general":
        acc = accumulate_LN(chart)
        return natural_residual(chart, acc), natural_scale(acc)
    if chart.K is None:
        raise ChartError(f"mode {mode} requires a K field")
    scale = 1.0 + float(np.max(np.abs(chart.K)))
    if mode == "cmc":
        H0 = _constant_H(chart, "mode cmc")
        return cmc_residual(chart.K, H0, chart.u_grid, chart.v_grid), scale + H0 * H0
    if mode == "minimal":
        if float(np.max(np.abs(chart.H))) > 1e-10:
            raise ChartError("mode minimal requires H = 0")
        return minimal_residual(chart.K, chart.u_grid, chart.v_grid), scale
    raise ChartError(f"unknown mode {mode!r}")


def cmd_residual(args):
    src = _Source(args)
    chart = _apply_eps_overrides(src.chart(), args)
    rep, scale = _residual_for(chart, args.mode)
    tol = args.tol if args.tol is not None else 1e-3 * scale

    order = None
    if args.refined:
        refined = read_chart(args.refined)
        rep2, _ = _residual_for(refined, args.mode)
        factor = (refined.u_grid.size - 1) / (chart.u_grid.size - 1)
        order = convergence_order(rep.max_abs, rep2.max_abs, factor)
    elif args.refine:
        if not src.is_corpus:
            raise ChartError("--refine needs a corpus source; use --refined FILE for charts")
        nu = (src.u_grid.size - 1) * args.refine + 1
        nv = (src.v_grid.size - 1) * args.refine + 1
        fine = corpus_mod.reference_chart(
            src.entry.name, np.linspace(src.u_grid[0], src.u_grid[-1], nu),
            np.linspace(src.v_grid[0], src.v_grid[-1], nv), src.u0, src.v0)
        rep2, _ = _residual_for(fine, args.mode)
        order = convergence_order(rep.max_abs, rep2.max_abs, float(args.refine))

    checks = [_check("residual", {"max_abs": rep.max_abs, "l2": rep.l2,
                                  "scale": scale}, tol, rep.max_abs <= tol)]
    if order is not None:
        # A zero residual on either grid leaves the order undefined: recorded as
        # null, it passes only when the finer grid's residual is exactly zero.
        defined = math.isfinite(order)
        checks.append(_check("order", {"order_estimate": order if defined else None},
                             args.min_order,
                             order >= args.min_order if defined else rep2.max_abs == 0.0))
    passed = all(c["pass"] for c in checks)
    doc = {
        "schema_version": 1, "command": "residual",
        "inputs": dict(src.inputs, mode=args.mode),
        "effective_tolerances": {"tol": tol, "min_order": args.min_order},
        "checks": checks, "statuses": [],
        "summary": {"passed": passed},
    }
    if args.report:
        write_report(doc, args.report)
    else:
        print(json.dumps(doc, indent=1))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# -- reconstruct ----------------------------------------------------------------

def _load_seed(spec, F0):
    if spec in (None, "standard"):
        return None
    try:
        with open(spec) as fh:
            doc = json.load(fh)
        return initial_frame(F0, X=doc["X"], Y=doc["Y"], l=doc["l"], x=doc.get("x"))
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ChartError(f"cannot load seed from {spec!r}: {exc}") from exc


def _result_status(tag, res):
    fm = res.form_mismatch
    return _status(tag, {
        "max_invariant_drift": res.max_invariant_drift,
        "max_compat_residual": res.max_compat,
        "max_compat_residual_l": res.max_compat_l,
        "form_mismatch_F_max": fm.f_max, "form_mismatch_F_l2": fm.f_l2,
        "form_mismatch_H_max": fm.h_max, "form_mismatch_H_l2": fm.h_l2,
        "max_abs_E": fm.e_max, "max_abs_G": fm.g_max,
        "natural_residual_max_abs": res.natural_max_abs,
        "natural_warning": res.natural_warning,
        "eps1": res.eps1, "eps2": res.eps2,
        "transpose_diff": res.transpose_diff,
    })


def _export_mesh(res, prefix, note):
    write_mesh_obj(res.mesh, res.u_grid, res.v_grid, prefix + ".obj", comments=[note])
    write_mesh_csv(res.mesh, res.u_grid, res.v_grid, prefix + ".csv")


def cmd_reconstruct(args):
    import warnings as _warnings

    src = _Source(args)
    chart = _apply_eps_overrides(src.chart(), args)
    statuses = []
    warning = False
    with _warnings.catch_warnings():
        _warnings.simplefilter("always")
        if args.pair:
            if chart.K is None:
                raise ChartError("--pair requires a K field")
            H0 = _constant_H(chart, "--pair")
            if H0 == 0.0:
                raise ChartError("--pair requires a non-zero H: a minimal surface is fixed "
                                 "by K up to motion, so it has no pair")
            # cmc_pair anchors its charts at the grid center; validate the seed there
            ic = (chart.u_grid.size - 1) // 2
            jc = (chart.v_grid.size - 1) // 2
            seed = _load_seed(args.seed,
                              1.0 / np.sqrt(abs(H0 * H0 - float(chart.K[ic, jc]))))
            res_p, res_m = cmc_pair(chart.K, H0, chart.u_grid, chart.v_grid,
                                    seed=seed, force=args.force)
            _export_mesh(res_p, args.mesh + "_p", f"cmc pair, eps=({res_p.eps1},{res_p.eps2})")
            _export_mesh(res_m, args.mesh + "_m", f"cmc pair, eps=({res_m.eps1},{res_m.eps2})")
            statuses.append(_result_status("reconstruction_p", res_p))
            statuses.append(_result_status("reconstruction_m", res_m))
            cong = congruence_check(res_p.mesh, res_m.mesh, chart.u_grid, chart.v_grid,
                                    tol=args.tol_congruence)
            statuses.append(_status("pair_congruence", {
                "verdict": cong.verdict.value,
                "mismatch": cong.mismatch, "mismatch_flipped": cong.mismatch_flipped,
                "tolerance": args.tol_congruence}))
            warning = res_p.natural_warning or res_m.natural_warning
        else:
            F0 = float(chart.F[chart.u0_index, chart.v0_index])
            seed = _load_seed(args.seed, F0)
            res = reconstruct(chart, seed=seed, transpose_probe=args.transpose_probe)
            _export_mesh(res, args.mesh, f"eps=({res.eps1},{res.eps2})")
            statuses.append(_result_status("reconstruction", res))
            warning = res.natural_warning

    doc = {
        "schema_version": 1, "command": "reconstruct",
        "inputs": dict(src.inputs, pair=bool(args.pair), seed=args.seed or "standard"),
        "effective_tolerances": {"tol_congruence": args.tol_congruence},
        "checks": [], "statuses": statuses,
        "summary": {"passed": True, "warning": bool(warning), "mesh_prefix": args.mesh},
    }
    if args.report:
        write_report(doc, args.report)
    return EXIT_OK


# -- corpus ---------------------------------------------------------------------

def cmd_corpus(args):
    if args.action == "list":
        for name in corpus_mod.names():
            print(name)
        return EXIT_OK
    entry = corpus_mod.get(args.name)
    dom = entry.default_domain
    uc, vc = 0.5 * (dom[0] + dom[1]), 0.5 * (dom[2] + dom[3])
    ref = entry.reference
    print(f"name:    {entry.name}")
    print(f"kind:    {entry.kind.value}")
    print(f"domain:  u in [{dom[0]!r}, {dom[1]!r}], v in [{dom[2]!r}, {dom[3]!r}]")
    print(f"notes:   {entry.notes}")
    print(f"at domain center (u, v) = ({uc!r}, {vc!r}):")
    for label, fn in (("F", ref.F), ("L", ref.L), ("M", ref.M), ("N", ref.N),
                      ("K", ref.K), ("H", ref.H)):
        print(f"  {label} = {float(fn(uc, vc))!r}")
    return EXIT_OK


# -- driver ---------------------------------------------------------------------

def _add_source_args(p, tol_canonical_default=1e-6):
    p.add_argument("source", help="corpus surface name or chart file path")
    p.add_argument("--grid", type=_parse_grid, default=None, metavar="NUxNV")
    p.add_argument("--domain", type=_parse_domain, default=None,
                   metavar="UMIN:UMAX,VMIN:VMAX")
    p.add_argument("--u0", type=float, default=None)
    p.add_argument("--v0", type=float, default=None)
    p.add_argument("--tol-canonical", type=float, default=tol_canonical_default,
                   dest="tol_canonical")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lorsurf",
        description="Lorentz surfaces in Minkowski 3-space: analysis in null "
                    "coordinates, canonical coordinates, natural-equation residuals "
                    "and frame-based reconstruction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="fundamental forms, invariants, classification")
    _add_source_args(p)
    p.add_argument("--report", default=None, help="report JSON path (default: stdout)")
    p.add_argument("--mesh", default=None, help="mesh export prefix (corpus sources)")
    p.add_argument("--tol-iso", type=float, default=1e-8, dest="tol_iso")
    p.add_argument("--tol-normal", type=float, default=1e-9, dest="tol_normal")
    p.add_argument("--tol-ref", type=float, default=1e-9, dest="tol_ref")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("canonicalize", help="construct canonical coordinates")
    _add_source_args(p)
    p.add_argument("--tilde-u0", type=float, default=0.0, dest="tilde_u0")
    p.add_argument("--tilde-v0", type=float, default=0.0, dest="tilde_v0")
    p.add_argument("--canon-nodes", type=int, default=None, dest="canon_nodes")
    p.add_argument("--output", required=True, help="canonical chart output path")
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_canonicalize)

    p = sub.add_parser("residual", help="natural-equation residuals")
    _add_source_args(p)
    p.add_argument("--mode", choices=("general", "cmc", "minimal"), required=True)
    p.add_argument("--eps1", type=int, choices=(-1, 1), default=None,
                   help="override the chart's eps1 sign")
    p.add_argument("--eps2", type=int, choices=(-1, 1), default=None)
    p.add_argument("--tol", type=float, default=None,
                   help="absolute residual tolerance (default: 1e-3 * field scale)")
    p.add_argument("--min-order", type=float, default=1.9, dest="min_order")
    p.add_argument("--refine", type=int, default=None,
                   help="refinement factor for a two-grid order estimate (corpus)")
    p.add_argument("--refined", default=None, help="refined chart file for the order estimate")
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_residual)

    p = sub.add_parser("reconstruct", help="frame-system surface reconstruction")
    _add_source_args(p)
    p.add_argument("--seed", default=None, help="standard | seed JSON file")
    p.add_argument("--eps1", type=int, choices=(-1, 1), default=None,
                   help="override the chart's eps1 sign")
    p.add_argument("--eps2", type=int, choices=(-1, 1), default=None)
    p.add_argument("--mesh", required=True, help="mesh output prefix (.obj and .csv)")
    p.add_argument("--report", default=None)
    p.add_argument("--pair", action="store_true",
                   help="reconstruct both members of the CMC pair from (K, H)")
    p.add_argument("--force", action="store_true",
                   help="reconstruct even when the natural equation is violated")
    p.add_argument("--transpose-probe", action="store_true", dest="transpose_probe")
    p.add_argument("--tol-congruence", type=float, default=1e-4, dest="tol_congruence")
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("corpus", help="list or show the reference surfaces")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(fn=cmd_corpus)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "corpus" and args.action == "show" and not args.name:
        parser.error("corpus show requires a surface name")
    t0 = time.perf_counter()
    try:
        code = args.fn(args)
    except LorsurfError as exc:
        print(f"lorsurf: {exc.label}: {exc}", file=sys.stderr)
        code = exc.exit_code
    finally:
        print(f"lorsurf: wall time {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
