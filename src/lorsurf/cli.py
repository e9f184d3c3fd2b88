"""Command-line front end.

Subcommands: analyze, canonicalize, residual, reconstruct, corpus.
Exit codes: 0 all checks passed, 1 a check failed (a violated natural
equation included, which no flag overrides) or integration aborted, 2
malformed input or violated precondition.  Reports are strict
JSON documents (a non-finite number is written as the string "Infinity",
"-Infinity" or "NaN") whose pass/fail verdicts are recomputable from the
recorded numbers and tolerances; identical inputs and flags produce
byte-identical files (timing goes to stderr, never into the report).  Each
verdict has one standard, a named constant that no flag moves; a report
records the ones its checks read under `effective_tolerances`, taking the
residual, canonicity and congruence verdicts and standards (`passed`,
`tol`) from the library's reports rather than judging again.  Every
verdict is `errors.within`, and one writer, `_finish`, passes a report only
when its checks pass and every number it records is finite.

Every chart a command reads comes from `_Source.chart`: a corpus surface as
its reference chart on the --grid/--domain nodes (refined for --refine), or a
chart file; --eps1/--eps2 sign each one, the --refined FILE chart included.
Every command runs on numpy alone (lorsurf.splines); none loads scipy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import warnings
from types import SimpleNamespace

import numpy as np

from . import corpus as corpus_mod
from . import minkowski as mk
from .canonical import canonical_maps_from_lines, resample_to_canonical, verify_canonical
from .chart import base_signs, grid_index, grid_through, same_node
from .chartio import (
    digest_bytes,
    digest_text,
    load_chart,
    report_json,
    write_chart,
    write_mesh_csv,
    write_mesh_obj,
    write_report,
)
from .errors import (ChartError, DegenerateMetricError, DomainError, LorsurfError,
                     NotLorentzSurfaceError, finite, negligible, relative, within)
from .natural import (MIN_ORDER, cmc_residual, convergence_order, minimal_residual,
                      natural_residual)
from .reconstruct import FrameState, cmc_pair, congruence_check, reconstruct
from .surfaces import (ISO_TOL, SurfaceKind, _curvature_scale, fundamental_forms,
                       is_isotropic, is_minimal, kind_field)


# -- argument helpers ---------------------------------------------------------

def _int_at_least(least):
    """An argparse type: an integer of at least `least` (nodes per axis, a refinement factor)."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if n < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {n}")
        return n
    return parse


def _parse_grid(text):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"grid must look like 201x201, got {text!r}")
    return _int_at_least(2)(parts[0]), _int_at_least(2)(parts[1])


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


def _check(name, values, tolerance, passed):
    """A verdict; it fails whenever a recorded value or the tolerance is non-finite."""
    return {"name": name, "values": values, "tolerance": tolerance,
            "pass": bool(passed) and finite([values, tolerance])}


def _status(name, values):
    return {"name": name, "values": values, "tolerance": None, "pass": None}


# Standards that only the command line reads, relative sizes in the sense of
# the zero rule (README "Zero rule"): analyze's normal contract and reference
# match of a corpus surface, and the reconstruct --pair congruence test.  A
# command records each standard, these and the library's alike, where a check
# or status reads it.
NORMAL_TOL = 1e-9
REFERENCE_TOL = 1e-9
PAIR_CONGRUENCE_TOL = 1e-4


def _finish(args, command, inputs, tolerances, checks, statuses, **summary):
    """Write a command's report to --report (stdout without it); its exit code.

    The report passes, and the command exits 0, when every check passes and
    every number the report records is finite; otherwise the exit code is 1.
    """
    doc = {"schema_version": 1, "command": command, "inputs": inputs,
           "effective_tolerances": tolerances, "checks": checks, "statuses": statuses}
    passed = all(c["pass"] for c in checks) and finite(doc)
    doc["summary"] = dict(passed=passed, **summary)
    if args.report is not None:
        write_report(doc, args.report)
    else:
        print(report_json(doc))
    return 0 if passed else 1


class _Source:
    """Resolved input (a corpus surface on a grid, or a chart file) and the command's signs."""

    def __init__(self, args):
        name = args.source
        self.is_corpus = name in corpus_mod.names()
        self.inputs = {"source": name}
        self.signs = {k: getattr(args, k) for k in ("eps1", "eps2")
                      if getattr(args, k, None) is not None}
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
                self._chart, digest = load_chart(name)
            except OSError as exc:
                raise ChartError(
                    f"{name!r} is neither a corpus surface nor a readable chart file: {exc}")
            self.inputs.update({"kind": "chart_file", "digest": digest})

    def chart(self, refine=1, path=None):
        """The source's chart, or the chart file `path`, with the command's signs.

        A corpus surface is its reference chart on its grid with each step cut
        into `refine` equal steps (refine = 1 gives the grid's own bits); a
        chart file has no finer grid to give, and its chart is given once.  A
        finer chart is recorded in `inputs`: `refine`, or the path `refined`
        with its file's sha256.
        """
        if path is not None:
            try:
                chart, digest = load_chart(path)
            except OSError as exc:
                raise ChartError(f"cannot read chart file {path!r}: {exc}") from exc
            self.inputs.update(refined=path, refined_digest=digest)
        elif self.is_corpus:
            u, v = (np.linspace(g[0], g[-1], (g.size - 1) * refine + 1)
                    for g in (self.u_grid, self.v_grid))
            chart = corpus_mod.reference_chart(self.entry.name, u, v, self.u0, self.v0)
            if refine > 1:
                self.inputs["refine"] = refine
        elif refine > 1:
            raise ChartError("--refine needs a corpus source; use --refined FILE for charts")
        else:
            # handed over, not kept: a caller may drop fields it does not read
            chart, self._chart = self._chart, None
        return chart.with_fields(**self.signs).validate() if self.signs else chart


# -- analyze ------------------------------------------------------------------

def _kind_counts(K, H):
    kinds = kind_field(H, K)
    return {"count_first_kind": int(np.sum(kinds == 1)),
            "count_second_kind": int(np.sum(kinds == -1)),
            "count_not_general_type": int(np.sum(kinds == 0))}


def _largest(x, scale):
    """max relative(x, scale): within([this], tol) is all of negligible(x, scale, tol)."""
    return float(np.max(relative(x, scale)))


def _canonical_status(chart, tolerances):
    rep = verify_canonical(chart)
    tolerances["tol_canonical"] = rep.tol
    return _status("canonical", {
        "status": "pass" if rep.passed else "fail",
        "max_dev_L": rep.max_dev_L, "max_dev_N": rep.max_dev_N,
        "eps1": rep.eps1, "eps2": rep.eps2, "tolerance": rep.tol})


def cmd_analyze(args):
    src = _Source(args)
    if args.mesh and not src.is_corpus:
        raise ChartError("mesh export requires a corpus source")
    checks, statuses, tolerances = [], [], {}

    if src.is_corpus:
        entry = src.entry
        u_grid, v_grid = src.u_grid, src.v_grid
        i0 = grid_index(u_grid, src.u0, "u_grid")
        j0 = grid_index(v_grid, src.v0, "v_grid")
        U, V = np.meshgrid(u_grid, v_grid, indexing="ij")
        entry.provider.check_domain(U, V)  # singular nodes are masked, not refused
        valid = np.ones(U.shape, dtype=bool)
        valid[tuple(entry.provider.singular_nodes(u_grid, v_grid).T)] = False
        if not np.any(valid):
            raise DomainError("every grid node lies on the singular set")
        # the forms live on the regular nodes only; at[i, j] is node (i, j)'s
        # index there, read only where valid[i, j]
        Uv, Vv = U[valid], V[valid]
        at = np.cumsum(valid).reshape(valid.shape) - 1
        jets = entry.provider.jet(Uv, Vv)
        try:
            fd = fundamental_forms(jets)
        except (DegenerateMetricError, NotLorentzSurfaceError) as exc:
            exc.node = tuple(int(k) for k in np.argwhere(valid)[exc.node[0]])
            raise exc.at(u_grid, v_grid, what="grid node") from None

        tolerances.update(tol_iso=ISO_TOL, tol_normal=NORMAL_TOL, tol_ref=REFERENCE_TOL)
        nxu, nxv, nl = (np.linalg.norm(t, axis=-1) for t in (jets.x_u, jets.x_v, fd.l))
        iso = {"max_abs_E": _largest(fd.E, nxu * nxu), "max_abs_G": _largest(fd.G, nxv * nxv),
               "min_F": float(np.min(fd.F / (nxu * nxv)))}
        checks.append(_check("isotropic", iso, ISO_TOL, np.all(is_isotropic(fd, jets))))

        normal = {"max_abs_l2_minus_1": _largest(mk.inner(fd.l, fd.l) - 1.0, nl * nl),
                  "max_abs_xu_l": _largest(mk.inner(jets.x_u, fd.l), nxu * nl),
                  "max_abs_xv_l": _largest(mk.inner(jets.x_v, fd.l), nxv * nl)}
        checks.append(_check("normal_contract", normal, NORMAL_TOL,
                             within(normal.values(), NORMAL_TOL)))

        # deviations from the closed forms on the regular nodes, relative to their scales
        curv = _curvature_scale(fd.H, fd.K)
        scales = {"F": nxu * nxv, "L": np.linalg.norm(jets.x_uu, axis=-1) * nl,
                  "M": np.linalg.norm(jets.x_uv, axis=-1) * nl,
                  "N": np.linalg.norm(jets.x_vv, axis=-1) * nl, "K": curv, "H": np.sqrt(curv)}
        ref_devs = {name: _largest(getattr(fd, name) - getattr(entry.reference, name)(Uv, Vv),
                                   scale) for name, scale in scales.items()}
        checks.append(_check("reference_match", ref_devs, REFERENCE_TOL,
                             within(ref_devs.values(), REFERENCE_TOL)))

        base_ok, k0 = bool(valid[i0, j0]), at[i0, j0]  # a singular base node has no forms
        K0, H0 = fd.K[k0], fd.H[k0]
        statuses.append(_status("classification", {
            "kind_at_base": SurfaceKind.of(kind_field(H0, K0)).value
            if base_ok else "unavailable",
            **_kind_counts(fd.K, fd.H),
            "H_at_base": float(H0) if base_ok else None,
            "K_at_base": float(K0) if base_ok else None,
            "excluded_singular_nodes": int(np.sum(~valid)),
        }))

        line_ok = np.all(valid[:, j0]) and np.all(valid[i0, :])
        signs = base_signs(fd.L[k0], fd.M[k0], fd.N[k0]) if line_ok else None
        if not line_ok:
            statuses.append(_status("canonical", {"status": "unavailable",
                                                  "reason": "singular nodes on base lines"}))
        elif signs is None:
            statuses.append(_status("canonical", {
                "status": "unavailable",
                "reason": "not of general type at the base point (L or N vanishes)"}))
        else:
            # verify_canonical reads only the base lines, which are regular here
            forms = SimpleNamespace(L=fd.L[at], N=fd.N[at], u0_index=i0, v0_index=j0,
                                    u0=src.u0, v0=src.v0, eps1=signs[0], eps2=signs[1])
            statuses.append(_canonical_status(forms, tolerances))

        if args.mesh:
            mesh = entry.position(U, V)
            write_mesh_obj(mesh, u_grid, v_grid, args.mesh + ".obj",
                           comments=[f"source corpus:{entry.name}"])
            write_mesh_csv(mesh, u_grid, v_grid, args.mesh + ".csv")
    else:
        chart = src.chart()
        if chart.L is not None and chart.N is not None:
            # H^2 - K = LN/F^2 in null coordinates
            K = chart.K if chart.K is not None else chart.H**2 - chart.L * chart.N / chart.F**2
            statuses.append(_status("classification", _kind_counts(K, chart.H)))
            statuses.append(_canonical_status(chart, tolerances))
        nat = natural_residual(chart)
        tolerances["tol_natural"] = nat.tol
        checks.append(_check("natural_equation", {"max_abs": nat.max_abs}, nat.tol, nat.passed))
        statuses.append(_status("natural_residual", {"max_abs": nat.max_abs, "l2": nat.l2}))

    return _finish(args, "analyze", src.inputs, tolerances, checks, statuses)


# -- canonicalize --------------------------------------------------------------

def cmd_canonicalize(args):
    src = _Source(args)
    chart = src.chart()
    if chart.L is None or chart.N is None:
        raise ChartError("canonicalize needs a chart carrying L and N fields")
    # the maps need only L on the base line v = v0 and N on u = u0
    maps = canonical_maps_from_lines(
        chart.u_grid, chart.L[:, chart.v0_index], chart.v_grid, chart.N[chart.u0_index, :],
        chart.u0, chart.v0, tilde_u0=args.tilde_u0, tilde_v0=args.tilde_v0)
    umap, vmap = maps
    nu, nv = (args.canon_nodes,) * 2 if args.canon_nodes else chart.shape
    cu = grid_through(float(umap(chart.u0)), *umap.range, nu)
    cv = grid_through(float(vmap(chart.v0)), *vmap.range, nv)
    out = resample_to_canonical(chart, maps, cu, cv)
    rep = verify_canonical(out)
    write_chart(out, args.output)
    return _finish(
        args, "canonicalize", dict(src.inputs, tilde_u0=args.tilde_u0, tilde_v0=args.tilde_v0),
        {"tol_canonical": rep.tol},
        [_check("canonical", {"max_dev_L": rep.max_dev_L, "max_dev_N": rep.max_dev_N,
                              "eps1": rep.eps1, "eps2": rep.eps2, "base": list(rep.base)},
                rep.tol, rep.passed)],
        [_status("canonical_maps", {"u_range": list(umap.range), "v_range": list(vmap.range),
                                    "canonical_grid": [int(cu.size), int(cv.size)]})],
        output_chart=args.output)


# -- residual -------------------------------------------------------------------

def _constant_H(chart, what):
    """The chart's H value; ChartError unless the range of H is negligible
    against max sqrt(H^2 + |K|)."""
    if not negligible(np.ptp(chart.H), np.sqrt(np.max(_curvature_scale(chart.H, chart.K)))):
        raise ChartError(f"{what} requires a constant H field")
    return float(chart.H[chart.u0_index, chart.v0_index])


def _residual_for(chart, mode):
    if mode == "general":
        return natural_residual(chart)
    if chart.K is None:
        raise ChartError(f"mode {mode} requires a K field")
    if mode == "cmc":
        H0 = _constant_H(chart, "mode cmc")
        return cmc_residual(chart.K, H0, chart.u_grid, chart.v_grid)
    if mode == "minimal":
        if not is_minimal(chart.H, chart.K):
            raise ChartError("mode minimal requires H = 0")
        return minimal_residual(chart.K, chart.u_grid, chart.v_grid)
    raise ChartError(f"unknown mode {mode!r}")


def _refinement(coarse, fine):
    """(n_f - 1)/(n_c - 1), the factor by which the chart `fine` refines `coarse`.

    ChartError unless both have the same domain ends and base point (each the
    same node of its axis, by the rule of grid_index) and the same signs, and
    both axes have that one factor > 1.
    """
    su, sv = np.ptp(coarse.u_grid), np.ptp(coarse.v_grid)
    for what, of, span in (
            ("domain ends", lambda c: [*c.u_grid[[0, -1]], *c.v_grid[[0, -1]]], [su, su, sv, sv]),
            ("base point (u0, v0)", lambda c: [c.u0, c.v0], [su, sv]),
            ("signs (eps1, eps2)", lambda c: [c.eps1, c.eps2], None)):
        got, want = np.array(of(fine)), np.array(of(coarse))
        if not np.all(got == want if span is None else same_node(got, want, np.array(span))):
            raise ChartError(f"--refined chart has {what} {got.tolist()}, "
                             f"the source chart {want.tolist()}")
    (cu, cv), (fu, fv) = coarse.shape, fine.shape
    if fu <= cu or (fu - 1) * (cv - 1) != (fv - 1) * (cu - 1):
        raise ChartError(f"--refined chart has {fu}x{fv} nodes, not one refinement factor > 1 "
                         f"of the source chart's {cu}x{cv} on both axes")
    return (fu - 1) / (cu - 1)


def cmd_residual(args):
    src = _Source(args)
    chart = src.chart()
    fine = src.chart(args.refine or 1, args.refined) if args.refine or args.refined else None
    factor = None if fine is None else _refinement(chart, fine)
    rep = _residual_for(chart, args.mode)
    tolerances = {"tol": rep.tol}
    checks = [_check("residual", {"max_abs": rep.max_abs, "l2": rep.l2, "scale": rep.scale},
                     rep.tol, rep.passed)]
    if fine is not None:
        rep2 = _residual_for(fine, args.mode)
        order = convergence_order(rep.max_abs, rep2.max_abs, factor)
        # A zero residual on either grid leaves the order undefined: recorded as
        # null, it passes only when the finer grid's residual is exactly zero.
        # A defined order passes when min_order <= order, both finite.
        defined = finite(order)
        tolerances["min_order"] = MIN_ORDER
        checks.append(_check("order", {"order_estimate": order if defined else None},
                             MIN_ORDER, within([MIN_ORDER], order)
                             if defined else rep2.max_abs == 0.0))
    return _finish(args, "residual", dict(src.inputs, mode=args.mode), tolerances, checks, [])


# -- reconstruct ----------------------------------------------------------------

def _load_seed(spec):
    """The seed file's frame, unchecked (reconstruct validates it against its chart),
    and the report's inputs that name it: `seed`, and the sha256 of the file's bytes."""
    if spec in (None, "standard"):
        return None, {"seed": "standard"}
    try:
        with open(spec, "rb") as fh:
            data = fh.read()
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ChartError(f"seed file {spec!r} is not UTF-8 text: {exc}") from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise ChartError(f"cannot load seed from {spec!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ChartError(f"seed file {spec!r} must contain a JSON object")
    try:
        seed = FrameState(X=doc["X"], Y=doc["Y"], l=doc["l"], x=doc.get("x"))
    except KeyError as exc:
        raise ChartError(f"cannot load seed from {spec!r}: {exc}") from exc
    if seed.X is None and seed.Y is None and seed.l is None:
        # initial_frame would read three Nones as "the standard seed"
        raise ChartError(f"seed file {spec!r} has null X, Y and l; "
                         "use --seed standard for the standard frame")
    return seed, {"seed": spec, "seed_digest": digest_bytes(data)}


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
    })


@contextlib.contextmanager
def _warnings_as_lines():
    """Print each warning raised inside as one `lorsurf: warning: ...` line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        finally:
            for w in caught:
                print(f"lorsurf: warning: {w.message}", file=sys.stderr)


def cmd_reconstruct(args):
    if args.pair and (args.eps1 is not None or args.eps2 is not None):
        raise ChartError("--pair fixes the signs of both pair members itself; "
                         "drop --eps1/--eps2")
    seed, seed_inputs = _load_seed(args.seed)  # a bad seed file is refused before the chart read
    src = _Source(args)
    chart = src.chart()
    checks, statuses, tolerances = [], [], {}
    with _warnings_as_lines():
        if args.pair:
            if chart.K is None:
                raise ChartError("--pair requires a K field")
            # a field that --mode minimal accepts has H = 0, constant or not
            H0 = 0.0 if is_minimal(chart.H, chart.K) else _constant_H(chart, "--pair")
            members = dict(zip(("_p", "_m"), cmc_pair(chart.K, H0, chart.u_grid, chart.v_grid,
                                                      seed=seed)))
        else:
            # reconstruct reads F and H alone; the stored L, M, N and K are not
            # held through its march
            chart = chart.with_fields(L=None, M=None, N=None, K=None)
            members = {"": reconstruct(chart, seed=seed)}
        for tag, res in members.items():
            prefix, note = args.mesh + tag, f"eps=({res.eps1},{res.eps2})"
            write_mesh_obj(res.mesh, res.u_grid, res.v_grid, prefix + ".obj",
                           comments=[f"cmc pair, {note}" if args.pair else note])
            write_mesh_csv(res.mesh, res.u_grid, res.v_grid, prefix + ".csv")
            # a pair's members share F and a constant H (so L N = eps1 eps2): one natural tol
            tolerances["tol_natural"] = res.natural_tol
            checks.append(_check("natural_equation" + tag, {"max_abs": res.natural_max_abs},
                                 res.natural_tol, not res.natural_warning))
            statuses.append(_result_status("reconstruction" + tag, res))
        if args.pair:
            res_p, res_m = members.values()
            cong = congruence_check(res_p.mesh, res_m.mesh, chart.u_grid, chart.v_grid,
                                    tol=PAIR_CONGRUENCE_TOL)
            tolerances["tol_congruence"] = cong.tol
            statuses.append(_status("pair_congruence", {
                "verdict": cong.verdict.value,
                "mismatch": cong.mismatch, "mismatch_flipped": cong.mismatch_flipped,
                "tolerance": cong.tol}))
    warning = any(res.natural_warning for res in members.values())
    return _finish(args, "reconstruct", dict(src.inputs, pair=bool(args.pair), **seed_inputs),
                   tolerances, checks, statuses, warning=warning, mesh_prefix=args.mesh)


# -- corpus ---------------------------------------------------------------------

def cmd_corpus(args):
    if args.action == "list":
        for name in corpus_mod.names():
            print(name)
        return 0
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
    return 0


# -- driver ---------------------------------------------------------------------

def _add_source_args(p):
    p.add_argument("source", help="corpus surface name or chart file path")
    p.add_argument("--grid", type=_parse_grid, default=None, metavar="NUxNV")
    p.add_argument("--domain", type=_parse_domain, default=None,
                   metavar="UMIN:UMAX,VMIN:VMAX")
    p.add_argument("--u0", type=float, default=None)
    p.add_argument("--v0", type=float, default=None)
    p.add_argument("--report", default=None, help="report JSON path (default: stdout)")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals are one line, as lorsurf's own are; the
    usage stays with --help.  Its subcommand parsers are of this class too."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="lorsurf",
        description="Lorentz surfaces in Minkowski 3-space: analysis in null "
                    "coordinates, canonical coordinates, natural-equation residuals "
                    "and frame-based reconstruction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="fundamental forms, invariants, classification")
    _add_source_args(p)
    p.add_argument("--mesh", default=None, help="mesh export prefix (corpus sources)")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("canonicalize", help="construct canonical coordinates")
    _add_source_args(p)
    p.add_argument("--tilde-u0", type=float, default=0.0, dest="tilde_u0")
    p.add_argument("--tilde-v0", type=float, default=0.0, dest="tilde_v0")
    p.add_argument("--canon-nodes", type=_int_at_least(3), default=None, dest="canon_nodes",
                   help="about this many nodes per canonical axis (default: the source grid's)")
    p.add_argument("--output", required=True, help="canonical chart output path")
    p.set_defaults(fn=cmd_canonicalize)

    p = sub.add_parser("residual", help="natural-equation residuals")
    _add_source_args(p)
    p.add_argument("--mode", choices=("general", "cmc", "minimal"), required=True)
    finer = p.add_mutually_exclusive_group()
    finer.add_argument("--refine", type=_int_at_least(2), default=None,
                       help="refinement factor for a two-grid order estimate (corpus)")
    finer.add_argument("--refined", default=None,
                       help="refined chart file for the order estimate")
    p.set_defaults(fn=cmd_residual)

    p = sub.add_parser("reconstruct", help="frame-system surface reconstruction")
    _add_source_args(p)
    p.add_argument("--seed", default=None, help="standard | seed JSON file")
    p.add_argument("--mesh", required=True, help="mesh output prefix (.obj and .csv)")
    p.add_argument("--pair", action="store_true",
                   help="reconstruct both members of the CMC pair from (K, H)")
    p.set_defaults(fn=cmd_reconstruct)
    for name in ("residual", "reconstruct"):  # the commands that use the chart signs
        for k in (1, 2):
            sub.choices[name].add_argument(f"--eps{k}", type=int, choices=(-1, 1), default=None,
                                           help=f"override the chart's eps{k} sign")

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
    if args.command == "corpus" and args.action == "list" and args.name is not None:
        parser.error("corpus list takes no surface name")
    t0 = time.perf_counter()
    try:
        for flag in ("report", "mesh", "output"):  # before any work, so nothing is written
            if getattr(args, flag, None) == "":
                raise ChartError(f"--{flag} needs a non-empty path")
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
    except LorsurfError as exc:
        print(f"lorsurf: {exc.label}: {exc}", file=sys.stderr)
        code = exc.exit_code
    except BrokenPipeError as exc:  # stdout, the only pipe lorsurf writes
        devnull = os.open(os.devnull, os.O_WRONLY)  # for the interpreter's flush at exit
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"lorsurf: error: cannot write to stdout: {exc.strerror}", file=sys.stderr)
        code = 2
    finally:
        print(f"lorsurf: wall time {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
