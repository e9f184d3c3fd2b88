"""lorsurf benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload {cli-startup,recon-801,chart-files-401}
                             --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Run from the root of a lorsurf checkout; the program under test is the
checkout's `src/lorsurf`, run with `src` on PYTHONPATH and LSL_THREADS
unset (one worker).  The harness drives it as a closed loop with one client
and never imports it.  A run executes a fixed number of whole cycles of the
workload's ops, sized from --seconds with the workload's cycle budget
but never fewer than 11 ops, so both sides of a comparison execute the same
op mix.  Every op's exit code, report verdicts and output bytes are
checked; a mismatch is a failed op.  The last stdout line is the JSON result; the lines before it record the
environment and the detail behind each metric.

--trace 0 reports the end-to-end metrics (see BENCHMARK.json):
  setup_s      fresh interpreter to `import lorsurf` done (recon-801: to the
               worker's warm-up done); median of three set-ups
  op_p50_s     median wall time per op
  op_tail_s    highest percentile of op wall time with at least 10 samples
               beyond it; the percentile and sample count are printed beside it
  nodes_per_s  grid nodes processed / total op wall time
  peak_rss_mb  largest peak RSS of a process that executes ops
Failed ops over attempted ops (fail_frac) is the result's failed/attempted.

--trace 1 runs one cycle untraced, one cycle with spans around lorsurf's
public functions (tracer.py) and `-X importtime`, and the ops marked
`alloc` once more under tracemalloc, then reports the per-layer metrics,
the tracing overhead and the cross-checks of the hand-measured baseline.

--smoke runs every workload on tiny grids and checks the benchmark itself.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads as wl  # noqa: E402

clock = tracer.clock
MIB = 1024 * 1024
OP_TIMEOUT_S = 120
SETUPS = 3
TAIL_OPS = 11  # a run has at least this many ops, so op_tail_s has 10 beyond it
RUN_LIMIT_S = 150  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WRITERS = ("chartio.write_chart", "chartio.write_mesh_obj", "chartio.write_mesh_csv")
FLOAT_IO = WRITERS + ("chartio.read_chart",)


class BenchError(Exception):
    """The benchmark could not run (as opposed to an op that failed)."""


# -- environment ---------------------------------------------------------------

def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def environment(seed, tmp):
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{idx}/level").strip()
        kind = _read(f"{base}/{idx}/type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{base}/{idx}/size").strip()
    mem = next((line.split(":", 1)[1].strip() for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), "")
    fs, best = "", ""
    for line in _read("/proc/self/mounts").splitlines():
        parts = line.split()
        if len(parts) > 2 and tmp.startswith(parts[1]) and len(parts[1]) >= len(best):
            best, fs = parts[1], parts[2]

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "seed": seed, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu, **caches, "mem_total": mem,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "tmp_fs": fs,
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "LSL_THREADS": "unset",
    }


# -- processes -------------------------------------------------------------------

def _wait(proc, timeout):
    """Reap a child with its resource usage; kill it if it outlives `timeout`."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss  # KiB on Linux


class Runner:
    """Runs one workload's ops in a temporary directory inside the checkout."""

    def __init__(self, root, workload, tmp):
        self.w = workload
        self.tmp = tmp
        self.env = dict(os.environ)
        self.env.pop("LSL_THREADS", None)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.seen = {}       # op key -> output digest of its first run
        self.worker = None
        self.worker_out = None
        self.worker_spawn = None
        self.worker_trace = None
        for name, text in workload.files.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        if workload.kind == "lib":
            self.warmup_path = os.path.join(tmp, "warmup.json")
            with open(self.warmup_path, "w") as fh:
                json.dump(workload.warmup, fh)

    def _path(self, name):
        return os.path.join(self.tmp, name)

    # set-up ---------------------------------------------------------------

    def setup_time(self):
        """Fresh interpreter to `import lorsurf` done (recon: to warm-up done)."""
        if self.w.kind == "lib":
            return self.start_worker("plain")
        out = self._path("setup.out")
        with open(out, "w") as fo:
            t0 = clock()
            proc = subprocess.Popen(
                [sys.executable, "-c", "import time, lorsurf; print(repr(time.perf_counter()))"],
                stdout=fo, stderr=subprocess.DEVNULL, env=self.env, cwd=self.tmp)
            code, _ = _wait(proc, OP_TIMEOUT_S)
        if code != 0:
            raise BenchError("`import lorsurf` failed in a fresh interpreter")
        return float(_read(out)) - t0

    # CLI ops ----------------------------------------------------------------

    def run_cli(self, op, mode):
        spans_path = self._path("spans.json")
        if mode == "plain":
            cmd = [sys.executable, "-m", "lorsurf.cli"] + op.argv
        else:
            timing = ["-X", "importtime"] if mode == "spans" else []
            cmd = [sys.executable] + timing + [os.path.join(HERE, "child.py"),
                                               mode, spans_path] + op.argv
        report = self._path(op.report) if op.report else None
        if report and os.path.exists(report):
            os.unlink(report)
        chart_bytes = os.path.getsize(self._path(op.chart_in)) if op.chart_in else 0
        out_path, err_path = self._path("op.out"), self._path("op.err")
        with open(out_path, "w") as fo, open(err_path, "w") as fe:
            t0 = clock()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=self.env, cwd=self.tmp)
            code, rss = _wait(proc, OP_TIMEOUT_S)
            wall = clock() - t0
        out = _read(out_path)
        err_all = _read(err_path)
        err = "\n".join(l for l in err_all.splitlines() if not l.startswith("import time:"))
        raw = None
        if report and os.path.exists(report):
            with open(report, "rb") as fh:
                raw = fh.read()
        errors = []
        if code != op.expect_exit:
            errors.append(f"exit {code}, expected {op.expect_exit}: {err[-300:]!r}")
        doc = None
        if raw is not None:
            try:
                doc = json.loads(raw)
            except ValueError as exc:
                errors.append(f"report is not JSON: {exc}")
        if op.check and not errors:
            try:
                errors += op.check(doc, out, err)
            except (KeyError, TypeError, IndexError) as exc:
                errors.append(f"report lacks {exc!r}")
        first_err = next((l for l in err.splitlines() if not l.startswith("lorsurf: wall")), "")
        digest = hashlib.sha256((raw or b"") + out.encode() + first_err.encode()).hexdigest()
        res = {"key": op.key, "wall": wall, "nodes": op.nodes, "rss_kib": rss,
               "errors": errors, "digest": digest, "chart_bytes": chart_bytes}
        if mode != "plain":
            try:
                with open(spans_path) as fh:
                    res["trace"] = json.load(fh)
                os.unlink(spans_path)
            except (OSError, ValueError):
                res["errors"].append("traced child wrote no spans")
                res["trace"] = dict(tracer.Tracer().dump(), boot=t0)
            res["spawn"] = t0
            res["imports"] = tracer.parse_importtime(err_all)
        return res

    # library ops ------------------------------------------------------------

    def start_worker(self, mode, importtime=False):
        self.stop_worker()
        self.worker_out = self._path(f"worker-{mode}.json")
        self.worker_err = self._path(f"worker-{mode}.err")
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
            os.path.join(HERE, "worker.py"), mode, self.worker_out, self.warmup_path]
        with open(self.worker_err, "w") as fe:
            self.worker_spawn = clock()
            self.worker = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                           stderr=fe, env=self.env, cwd=self.tmp, text=True)
        ready = self._reply()
        if "ready" not in ready:
            raise BenchError(f"worker did not start: {_read(self.worker_err)[-500:]}")
        return ready["ready"] - self.worker_spawn

    def _reply(self):
        timer = threading.Timer(OP_TIMEOUT_S, self.worker.kill)
        timer.start()
        try:
            line = self.worker.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            raise BenchError(f"worker exited: {_read(self.worker_err)[-500:]}")
        return json.loads(line)

    def stop_worker(self):
        """Stop the worker and keep its trace; returns its peak RSS in KiB."""
        if self.worker is None:
            return 0
        proc, self.worker = self.worker, None
        try:
            proc.stdin.write(json.dumps({"quit": True}) + "\n")
            proc.stdin.close()
        except OSError:
            pass
        _, rss = _wait(proc, OP_TIMEOUT_S)
        proc.stdout.close()
        trace = None
        try:
            with open(self.worker_out) as fh:
                trace = json.load(fh)
        except (OSError, ValueError):
            pass
        imports = tracer.parse_importtime(_read(self.worker_err))
        self.worker_trace = (trace, imports, self.worker_spawn)
        return rss

    def run_lib(self, op, op_id):
        t0 = clock()
        self.worker.stdin.write(json.dumps({"id": op_id, "fn": op.fn, "params": op.params}) + "\n")
        self.worker.stdin.flush()
        reply = self._reply()
        wall = reply["wall"] if reply["wall"] is not None else clock() - t0
        return {"key": op.key, "wall": wall, "nodes": op.nodes, "rss_kib": 0,
                "errors": list(reply["errors"]), "digest": reply["digest"], "chart_bytes": 0}

    # one op -------------------------------------------------------------------

    def run_op(self, op, mode, op_id=0):
        if self.w.kind == "cli":
            res = self.run_cli(op, mode)
        else:
            res = self.run_lib(op, op_id)
        if res["digest"] is not None and not res["errors"]:
            first = self.seen.setdefault(op.key, res["digest"])
            if first != res["digest"]:
                res["errors"].append("output differs from an earlier run of the same op")
        return res


# -- metrics -------------------------------------------------------------------------

def tail(walls):
    """Highest percentile with at least 10 samples beyond it: (value, percentile, n).

    Runs have at least TAIL_OPS ops; a shorter smoke run reports its maximum.
    """
    w = sorted(walls)
    n = len(w)
    if n < TAIL_OPS:
        return w[-1], 100.0, n
    k = n - (TAIL_OPS - 1)
    return w[k - 1], 100.0 * k / n, n


def end_to_end(setups, results, peak_kib):
    walls = [r["wall"] for r in results]
    value, pct, n = tail(walls)
    return {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": value,
        "nodes_per_s": sum(r["nodes"] for r in results) / sum(walls),
        "peak_rss_mb": peak_kib / 1024.0,
    }, (pct, n)


def self_times(spans):
    """(name, op, self time) per span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[0], s[4], (s[2] - s[1]) - child[i]) for i, s in enumerate(spans)]


def layer_metrics(t, workload):
    """Per-layer metrics from the traced pass.

    `t` holds: op_selfs (per op, a list of (name, self time)), counts (work
    counters summed over the pass), walls and plain_walls (op wall times of
    the traced and the untraced pass), chart_bytes (size of the charts the
    ops read), imports and starts (per traced process), peaks (tracemalloc
    peak bytes per function).
    """
    n_ops = len(t["op_selfs"])
    per_op = []
    for selfs in t["op_selfs"]:
        sums, calls = {}, {}
        for name, s in selfs:
            sums[name] = sums.get(name, 0.0) + s
            calls[name] = calls.get(name, 0) + 1
        per_op.append((sums, calls))
    m = {}
    total = {}
    for module, attr in tracer.TARGETS:
        name = tracer.span_name(module, attr)
        vals = [sums[name] for sums, _ in per_op if name in sums]
        m[f"{name}.self_s"] = statistics.median(vals) if vals else 0.0
        m[f"{name}.calls"] = sum(c.get(name, 0) for _, c in per_op) / n_ops
        total[name] = sum(vals)
    for key in ("lorsurf", "scipy", "numpy"):
        m[f"import.{key}_s"] = statistics.median(i[key] for i in t["imports"])
    m["proc.start_s"] = statistics.median(t["starts"])

    counts = t["counts"]
    recon_self = total["reconstruct.reconstruct"]
    m["reconstruct.rk4_node_steps"] = counts["rk4_node_steps"] / n_ops
    m["reconstruct.node_steps_per_s"] = (counts["rk4_node_steps"] / recon_self
                                         if recon_self else 0.0)
    m["chartio.bytes_written"] = counts["bytes_written"] / n_ops
    io_self = sum(total[n] for n in FLOAT_IO)
    m["chartio.us_per_float"] = 1e6 * io_self / counts["floats"] if counts["floats"] else 0.0
    m["chartio.read_amplification"] = (counts["bytes_read"] / t["chart_bytes"]
                                       if t["chart_bytes"] else 0.0)
    for module, attr in tracer.ALLOC_TARGETS:
        name = tracer.span_name(module, attr)
        m[f"{name}.peak_alloc_mb"] = max(t["peaks"].get(name, [0])) / MIB
    m["trace.overhead_s"] = statistics.median(t["walls"]) - statistics.median(t["plain_walls"])

    checks = []
    if workload == "chart-files-401":
        writers = sum(total[n] for n in WRITERS)
        checks.append(("at 401^2 writer self time exceeds reconstruct self time",
                       writers > recon_self,
                       f"writers {writers:.3f} s, reconstruct {recon_self:.3f} s per cycle"))
    share = m["import.scipy_s"] / m["import.lorsurf_s"] if m["import.lorsurf_s"] else 0.0
    checks.append(("import.scipy_s is most of import.lorsurf_s", share > 0.5,
                   f"{m['import.scipy_s']:.3f} of {m['import.lorsurf_s']:.3f} s = {share:.0%}"))
    if t["chart_bytes"]:
        amp = m["chartio.read_amplification"]
        checks.append(("chartio.read_amplification ~ 2", 1.9 <= amp <= 2.1, f"{amp:.3f}"))
    return m, checks


# -- runs -----------------------------------------------------------------------------

def _order_rng(workload, seed):
    return random.Random(f"order:{workload}:{seed}")


def run_untraced(runner, seed, seconds, log):
    w = runner.w
    start = clock()
    setups = [runner.setup_time() for _ in range(SETUPS)]  # recon keeps the last worker
    cycles = max(-(-TAIL_OPS // len(w.ops)), round(seconds / w.cycle_budget_s))
    rng = _order_rng(w.name, seed)
    results = []
    for c in range(cycles):
        if c and (clock() - start) * cycles / c > RUN_LIMIT_S:
            log(f"note: stopped after {c} of {cycles} cycles to stay within the time limit")
            break
        for op in wl.cycle_order(w.ops, rng):
            results.append(runner.run_op(op, "plain", len(results)))
    peak = max(r["rss_kib"] for r in results)
    if w.kind == "lib":
        peak = max(peak, runner.stop_worker())
    metrics, (pct, n) = end_to_end(setups, results, peak)
    return metrics, results, f"op_tail_s is p{pct:.1f} of {n} ops"


def run_traced(runner, seed):
    """Untraced, span-traced and tracemalloc passes over one cycle."""
    w = runner.w
    order = wl.cycle_order(w.ops, _order_rng(w.name, seed))
    lib = w.kind == "lib"

    def one_pass(mode, ops):
        if lib:
            runner.start_worker(mode, importtime=(mode == "spans"))
        results = [runner.run_op(op, mode, i) for i, op in enumerate(ops)]
        if lib:
            runner.stop_worker()
        return results

    plain = one_pass("plain", order)
    traced = one_pass("spans", order)
    t = {"walls": [r["wall"] for r in traced], "plain_walls": [r["wall"] for r in plain],
         "chart_bytes": sum(r["chart_bytes"] for r in traced), "peaks": {}}
    if lib:
        trace, imports, spawn = runner.worker_trace
        selfs = self_times(trace["spans"])
        t["op_selfs"] = [[(n, s) for n, op, s in selfs if op == i] for i in range(len(order))]
        t["counts"] = trace["counts"]
        t["imports"], t["starts"] = [imports], [trace["boot"] - spawn]
    else:
        t["op_selfs"] = [[(n, s) for n, _, s in self_times(r["trace"]["spans"])]
                         for r in traced]
        t["counts"] = {k: sum(r["trace"]["counts"][k] for r in traced)
                       for k in traced[0]["trace"]["counts"]}
        t["imports"] = [r["imports"] for r in traced]
        t["starts"] = [r["trace"]["boot"] - r["spawn"] for r in traced]
    for res, selfs in zip(traced, t["op_selfs"]):
        res["self_s"] = [s for _, s in selfs]

    alloc = one_pass("alloc", [op for op in order if op.alloc])
    entries = runner.worker_trace[0]["alloc"] if lib else [
        e for r in alloc for e in r["trace"]["alloc"]]
    for name, peak, _ in entries:
        t["peaks"].setdefault(name, []).append(peak)
    metrics, checks = layer_metrics(t, w.name)
    return metrics, checks, plain + traced + alloc


# -- main -------------------------------------------------------------------------------

def unit_of(name):
    """The unit of a metric, read off its name."""
    if name.endswith((".calls", "rk4_node_steps")):
        return "count"
    if name.endswith(("_per_s", "nodes_per_s")):
        return "1/s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_s"):
        return "s"
    return {"chartio.bytes_written": "B", "chartio.us_per_float": "us",
            "chartio.read_amplification": "1"}[name]


def run(root, workload, seed, seconds, trace, log=print):
    """Run one workload; returns (metrics, per-op results)."""
    name = workload.name
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=scratch)
    runner = Runner(root, workload, tmp)
    try:
        log("env " + json.dumps(environment(seed, tmp), sort_keys=True))
        if trace:
            metrics, checks, results = run_traced(runner, seed)
            for label, ok, detail in checks:
                log(f"cross-check: {label}: {'agrees' if ok else 'DISAGREES'} ({detail})")
        else:
            metrics, results, note = run_untraced(runner, seed, seconds, log)
            log(note)
    finally:
        runner.stop_worker()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    by_key = {}
    for r in results:
        by_key.setdefault(r["key"], []).append(r["wall"])
    for key, walls in by_key.items():
        log(f"op {key!r}: {len(walls)} runs, median {statistics.median(walls):.4f} s")
    failed = [r for r in results if r["errors"]]
    for r in failed:
        log(f"FAILED op {r['key']!r}: {'; '.join(r['errors'])}")
    log(f"ops attempted {len(results)}, failed {len(failed)}, "
        f"fail_frac {len(failed) / len(results):.4g}")
    for k in sorted(metrics):
        log(f"{k} {metrics[k]:.6g} {unit_of(k)}")
    return metrics, results


def result(spec, metrics, results, trace):
    """The result object: every metric BENCHMARK.json lists for this mode."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    failed = sum(1 for r in results if r["errors"])
    return {"correct": failed == 0, "attempted": len(results), "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def load_spec(root):
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS) + ["all"],
                    help="one workload, or all three in turn (one result line each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="self-test on tiny grids")
    args = ap.parse_args(argv)
    root = os.path.dirname(HERE)
    try:
        spec = load_spec(root)
        if not os.path.isfile(os.path.join(root, "src", "lorsurf", "__init__.py")):
            raise BenchError(f"no lorsurf sources under {os.path.join(root, 'src')}")
        if args.smoke:
            import smoke
            return smoke.main(root, spec)
        if not args.workload:
            ap.error("--workload is required")
        names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            if len(names) > 1:
                print(f"== {name}", flush=True)
            workload = wl.WORKLOADS[name](args.seed)
            metrics, results = run(root, workload, args.seed, args.seconds, args.trace)
            print(json.dumps(result(spec, metrics, results, args.trace)), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
