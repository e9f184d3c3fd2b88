"""The three workloads: their ops, node counts and correctness gates.

An op is one CLI process (cli-startup, chart-files-401) or one library call
group in the long-lived worker (recon-801).  The seed permutes the op order
of every cycle and moves domains and base nodes inside each corpus
surface's safe box; it never changes an op's node count.  The program sees
only the generated argv, chart files and library arguments.

Why these workloads:
  cli-startup      101^2 grids, a fresh process per op.  Each op computes
                   for <= 0.2 s against ~0.7-1.2 s of interpreter start and
                   import, so import and set-up dominate; the march and the
                   writers barely register.
  recon-801        801^2 grids, in-process library calls in one worker,
                   timed after warm-up.  No process start and no file I/O:
                   the time goes to canonical, natural, reconstruct,
                   surfaces and chart, on working sets (~60 MB frame state,
                   ~0.5-0.7 GB RSS) far larger than L2.  An import or writer
                   change must read "no change" here.
  chart-files-401  401^2 grids, a fresh process per op, through files.  The
                   23 MB chart, 16 MB OBJ and 15 MB CSV make shortest-repr
                   float formatting and parsing cost more than the math; the
                   same chartio layer writes and reads, so a change that
                   speeds one side at the other's cost shows.
"""

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

# Default domain and the ranges of the u and v shifts.  A shifted grid is
# never nearer a singular line than the default one (enneper1 keeps
# u - v >= 1, enneper2 keeps u + v >= 1): nearer, the 101^2 two-grid order
# estimate is still pre-asymptotic (1.83 at u - v >= 0.75) and the >= 1.9
# gate would judge the grid, not the code.  The others have no singular set.
SAFE_BOX = {
    "enneper1": ((1.0, 2.0, -1.0, 0.0), (0.0, 0.25), (-0.25, 0.0)),
    "enneper2": ((0.5, 1.5, 0.5, 1.5), (0.0, 0.2), (0.0, 0.2)),
    "lorentz_sphere": ((-1.0, 1.0, -1.0, 1.0), (-0.25, 0.25), (-0.25, 0.25)),
    "cylinder": ((0.0, 2.0 * math.pi, 0.0, 2.0 * math.pi), (-0.5, 0.5), (-0.5, 0.5)),
    "hyperbolic_cone": ((-1.0, 1.0, -1.0, 1.0), (-0.25, 0.25), (-0.25, 0.25)),
}
CORPUS = ["enneper1", "enneper2", "lorentz_sphere", "cylinder", "hyperbolic_cylinder",
          "hyperbolic_cone"]


@dataclass
class Op:
    key: str                        # stable name; repeats of a key must give identical output
    nodes: int                      # grid nodes processed, fixed by the workload definition
    argv: Optional[list] = None     # CLI ops: arguments after `python -m lorsurf.cli`
    expect_exit: int = 0
    report: Optional[str] = None    # report file the op writes
    chart_in: Optional[str] = None  # chart file the op reads
    check: Optional[Callable] = None  # check(doc, stdout, stderr) -> list of errors
    fn: Optional[str] = None        # library ops: worker function and its parameters
    params: dict = field(default_factory=dict)
    after: Optional[str] = None     # key of an op that must come first within a cycle
    alloc: bool = False             # included in the tracemalloc pass


@dataclass
class Workload:
    name: str
    kind: str                       # "cli" or "lib"
    ops: list
    cycle_budget_s: float           # seconds of --seconds charged per cycle; sizes a run
    files: dict = field(default_factory=dict)   # files written before the first op
    warmup: list = field(default_factory=list)  # lib: warm-up requests


# -- seeded inputs --------------------------------------------------------------

def _domain(rng, surface):
    (a, b, c, d), u_shift, v_shift = SAFE_BOX[surface]
    du = round(rng.uniform(*u_shift), 6)
    dv = round(rng.uniform(*v_shift), 6)
    return (a + du, b + du, c + dv, d + dv)


def _base_index(rng, n):
    return rng.randint(n // 4, (3 * n) // 4)


def _node(lo, hi, n, i):
    """Node i of numpy.linspace(lo, hi, n)."""
    return hi if i == n - 1 else lo + i * ((hi - lo) / (n - 1))


def _corpus_args(rng, surface, n, base=True):
    dom = _domain(rng, surface)
    args = [surface, f"--grid={n}x{n}",
            f"--domain={dom[0]!r}:{dom[1]!r},{dom[2]!r}:{dom[3]!r}"]
    if base:
        i0, j0 = _base_index(rng, n), _base_index(rng, n)
        args += [f"--u0={_node(dom[0], dom[1], n, i0)!r}",
                 f"--v0={_node(dom[2], dom[3], n, j0)!r}"]
    return args


def _truncated_chart(rng):
    """A valid 3x3 chart document cut off part-way: the CLI must exit 2."""
    grid = [0.0, 0.5, 1.0]
    ones = [[1.0] * 3 for _ in range(3)]
    doc = {"schema_version": 1, "u_grid": grid, "v_grid": grid, "u0_index": 1,
           "v0_index": 1, "eps1": 1, "eps2": 1, "F": ones, "H": ones}
    text = json.dumps(doc, indent=1)
    return text[:rng.randint(len(text) // 4, (3 * len(text)) // 4)]


# -- report checks ----------------------------------------------------------------

def _named(items, name):
    return next((x for x in items if x["name"] == name), None)


def _need_doc(doc):
    return [] if doc is not None else ["no report written"]


def chk_passed(doc, out, err):
    errors = _need_doc(doc)
    if doc is not None and not doc["summary"]["passed"]:
        errors.append("report summary not passed")
    return errors


def chk_canonical_status(doc, out, err):
    errors = chk_passed(doc, out, err)
    if doc is not None:
        st = _named(doc["statuses"], "canonical")
        vals = st["values"] if st else {}
        if vals.get("status") != "pass" or max(vals["max_dev_L"], vals["max_dev_N"]) > 1e-6:
            errors.append(f"canonical status {vals}")
    return errors


def chk_canonicalize(doc, out, err):
    errors = chk_passed(doc, out, err)
    if doc is not None:
        vals = _named(doc["checks"], "canonical")["values"]
        if max(vals["max_dev_L"], vals["max_dev_N"]) > 1e-6:
            errors.append(f"canonical deviation {vals['max_dev_L']}/{vals['max_dev_N']} > 1e-6")
    return errors


def chk_residual(doc, out, err):
    errors = chk_passed(doc, out, err)
    if doc is not None and not _named(doc["checks"], "residual")["pass"]:
        errors.append("residual check not passed")
    return errors


def chk_residual_order(doc, out, err):
    errors = chk_residual(doc, out, err)
    if doc is not None:
        order = _named(doc["checks"], "order")
        if order is None or not order["values"]["order_estimate"] >= 1.9:
            errors.append(f"order estimate {order and order['values']} < 1.9")
    return errors


def chk_residual_fails(doc, out, err):
    errors = _need_doc(doc)
    if doc is not None and _named(doc["checks"], "residual")["pass"]:
        errors.append("residual of non-canonical coordinates passed")
    return errors


def chk_reconstruct(doc, out, err):
    errors = chk_passed(doc, out, err)
    if doc is not None and doc["summary"]["warning"]:
        errors.append("natural_warning set")
    return errors


def chk_pair(doc, out, err):
    errors = chk_reconstruct(doc, out, err)
    if doc is not None:
        verdict = _named(doc["statuses"], "pair_congruence")["values"]["verdict"]
        if verdict != "not_congruent":
            errors.append(f"pair verdict {verdict}, expected not_congruent")
    return errors


def chk_corpus_list(doc, out, err):
    return [] if out.split() == CORPUS else [f"corpus list printed {out.split()}"]


def chk_corpus_show(doc, out, err):
    return [] if out.startswith("name:    hyperbolic_cone\n") else ["corpus show output"]


def chk_input_error(doc, out, err):
    lines = err.splitlines()
    if "Traceback" in err or not lines or not lines[0].startswith("lorsurf: error:"):
        return [f"expected a one-line input error, got {err[:200]!r}"]
    return []


# -- workloads ---------------------------------------------------------------------

def cli_startup(seed, n=101):
    rng = random.Random(f"cli-startup:{seed}")
    nn = n * n

    def rep(name):
        return ["--report", name + ".json"]

    ops = [
        Op("corpus list", 0, ["corpus", "list"], check=chk_corpus_list),
        Op("corpus show", 0, ["corpus", "show", "hyperbolic_cone"], check=chk_corpus_show),
        Op("analyze enneper1", nn,
           ["analyze"] + _corpus_args(rng, "enneper1", n) + rep("an_e1"),
           report="an_e1.json", check=chk_canonical_status),
        Op("analyze lorentz_sphere", nn,
           ["analyze"] + _corpus_args(rng, "lorentz_sphere", n) + rep("an_sph"),
           report="an_sph.json", check=chk_passed),
        Op("residual enneper1 minimal refine2", nn + (2 * n - 1) ** 2,
           ["residual"] + _corpus_args(rng, "enneper1", n)
           + ["--mode", "minimal", "--refine", "2"] + rep("res_e1"),
           report="res_e1.json", check=chk_residual_order),
        Op("residual cylinder cmc", nn,
           ["residual"] + _corpus_args(rng, "cylinder", n) + ["--mode", "cmc"] + rep("res_cyl"),
           report="res_cyl.json", check=chk_residual),
        Op("canonicalize hyperbolic_cone", nn,
           ["canonicalize"] + _corpus_args(rng, "hyperbolic_cone", n)
           + ["--output", "cone_canonical.json"] + rep("canon"),
           report="canon.json", check=chk_canonicalize, alloc=True),
        Op("reconstruct enneper2", nn,
           ["reconstruct"] + _corpus_args(rng, "enneper2", n) + ["--mesh", "e2"] + rep("rec_e2"),
           report="rec_e2.json", check=chk_reconstruct, alloc=True),
        Op("reconstruct cylinder pair", 2 * nn,
           ["reconstruct"] + _corpus_args(rng, "cylinder", n, base=False)
           + ["--pair", "--mesh", "cyl"] + rep("rec_cyl"),
           report="rec_cyl.json", check=chk_pair),
        Op("residual hyperbolic_cone general", nn,
           ["residual"] + _corpus_args(rng, "hyperbolic_cone", n)
           + ["--mode", "general"] + rep("res_cone"),
           expect_exit=1, report="res_cone.json", check=chk_residual_fails),
        Op("residual truncated chart", 0,
           ["residual", "truncated.json", "--mode", "general"],
           expect_exit=2, chart_in="truncated.json", check=chk_input_error, alloc=True),
    ]
    return Workload("cli-startup", "cli", ops, cycle_budget_s=12.5,
                    files={"truncated.json": _truncated_chart(rng)})


def chart_files(seed, n=401):
    rng = random.Random(f"chart-files-401:{seed}")
    nn = n * n
    ops = [
        Op("canonicalize", nn,
           ["canonicalize"] + _corpus_args(rng, "hyperbolic_cone", n)
           + ["--output", "c.json", "--report", "canon.json"],
           report="canon.json", check=chk_canonicalize, alloc=True),
        Op("residual c.json", nn, ["residual", "c.json", "--mode", "general",
                                   "--report", "res.json"],
           report="res.json", chart_in="c.json", check=chk_residual, after="canonicalize"),
        Op("analyze c.json", nn, ["analyze", "c.json", "--report", "an.json"],
           report="an.json", chart_in="c.json", check=chk_canonical_status,
           after="canonicalize"),
        Op("reconstruct c.json", nn, ["reconstruct", "c.json", "--mesh", "m",
                                      "--report", "rec.json"],
           report="rec.json", chart_in="c.json", check=chk_reconstruct,
           after="canonicalize", alloc=True),
    ]
    return Workload("chart-files-401", "cli", ops, cycle_budget_s=12.0)


def _lib_params(rng, surface, n, base=True):
    p = {"n": n, "domain": list(_domain(rng, surface))}
    if base:
        p.update(i0=_base_index(rng, n), j0=_base_index(rng, n))
    return p


def _lib_ops(rng, n):
    nn = n * n
    return [
        Op("canonical hyperbolic_cone", nn, fn="canonical",
           params=_lib_params(rng, "hyperbolic_cone", n), alloc=True),
        Op("residual+reconstruct canonical cone", nn, fn="residual_reconstruct",
           after="canonical hyperbolic_cone", alloc=True),
        Op("reconstruct enneper1", nn, fn="enneper1", params=_lib_params(rng, "enneper1", n)),
        Op("cmc_pair cylinder", 2 * nn, fn="cmc_pair",
           params=_lib_params(rng, "cylinder", n, base=False)),
        Op("minimal_from_K enneper2", nn, fn="minimal",
           params=_lib_params(rng, "enneper2", n, base=False)),
    ]


def recon(seed, n=801):
    rng = random.Random(f"recon-801:{seed}")
    warm = [{"fn": op.fn, "params": op.params}
            for op in _lib_ops(random.Random("warm-up"), 41)]
    # A cycle takes 10-14 s, but a run does 4 of them at --seconds 30: with
    # 20 ops the median and the tail percentile fall inside the block of 8
    # minimal_from_K and residual+reconstruct ops, which take about the same
    # time, not on the edge of a block, where they spread more between runs.
    return Workload("recon-801", "lib", _lib_ops(rng, n), cycle_budget_s=7.5,
                    warmup=warm)


WORKLOADS = {"cli-startup": cli_startup, "recon-801": recon, "chart-files-401": chart_files}


def cycle_order(ops, rng):
    """A seeded permutation of the ops that keeps each op after its `after` op."""
    order = list(ops)
    rng.shuffle(order)
    for i, op in enumerate(order):
        if op.after:
            j = next(k for k, o in enumerate(order) if o.key == op.after)
            if j > i:
                order[i], order[j] = order[j], order[i]
    return order
