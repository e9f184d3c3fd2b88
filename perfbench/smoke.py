"""Self-test of the benchmark on tiny grids: `python3 perfbench/run.py --smoke`.

Checks that every metric BENCHMARK.json names is emitted with its unit in
both modes, that span self times are >= 0 and sum to no more than their
op's wall time, that an op whose exit code differs from the expected one
counts as failed, and that the seed changes the op order but not the node
counts.  Exits 0 when all hold, 1 otherwise.
"""

import math
import random

import run as bench
import workloads as wl

GRIDS = {"cli-startup": 101,  # the >= 1.9 order gate needs 101^2
          "recon-801": 41, "chart-files-401": 41}


class SmokeFailure(Exception):
    pass


def require(cond, message):
    if not cond:
        raise SmokeFailure(message)


def check_result(spec, out, trace):
    wanted = spec["per_layer" if trace else "end_to_end"]
    require(set(out) == {"correct", "attempted", "failed", "metrics"}, f"result keys {set(out)}")
    require(out["correct"] and out["failed"] == 0, f"failed ops on the seed code: {out}")
    require(list(out["metrics"]) == [m["name"] for m in wanted], "metric names")
    for m in wanted:
        require(bench.unit_of(m["name"]) == m["unit"], f"{m['name']} printed with another unit")
        got = out["metrics"][m["name"]]
        require(got["unit"] == m["unit"], f"{m['name']} unit {got['unit']}")
        require(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
                f"{m['name']} value {got['value']!r}")


def check_spans(results):
    traced = [r for r in results if "self_s" in r]
    require(traced, "no traced ops")
    for r in traced:
        require(all(s >= -1e-9 for s in r["self_s"]), f"negative self time in {r['key']}")
        require(sum(r["self_s"]) <= r["wall"], f"self times exceed the wall time of {r['key']}")


def check_seed_moves_order_only():
    for name, make in wl.WORKLOADS.items():
        nodes, orders = None, set()
        for seed in range(1, 6):
            w = make(seed)
            got = {op.key: op.nodes for op in w.ops}
            require(nodes is None or got == nodes, f"{name}: seed {seed} changed node counts")
            nodes = got
            order = wl.cycle_order(w.ops, bench._order_rng(name, seed))
            orders.add(tuple(op.key for op in order))
        require(len(orders) > 1, f"{name}: the seed does not change the op order")


def check_wrong_exit_counts(root, log):
    w = wl.cli_startup(1, GRIDS["cli-startup"])
    op = next(op for op in w.ops if op.key == "corpus list")
    op.expect_exit = 1  # deliberately wrong: `corpus list` exits 0
    w.ops = [op, next(op for op in w.ops if op.key == "corpus show")]
    _, results = bench.run(root, w, 1, 1, 0, log)
    failed = sum(1 for r in results if r["errors"])
    wrong = sum(1 for r in results if r["key"] == "corpus list")
    require(failed == wrong > 0, f"{wrong} ops with a wrong expected exit code counted "
                                 f"as {failed} failures")


def main(root, spec):
    lines = []
    log = lines.append
    try:
        check_seed_moves_order_only()
        for name, n in GRIDS.items():
            for trace in (0, 1):
                seed = random.Random(name).randint(1, 1000)
                w = wl.WORKLOADS[name](seed, n)
                metrics, results = bench.run(root, w, seed, 1, trace, log)
                check_result(spec, bench.result(spec, metrics, results, trace), trace)
                if trace:
                    check_spans(results)
                print(f"smoke: {name} trace={trace} ok ({len(results)} ops)", flush=True)
        check_wrong_exit_counts(root, log)
    except SmokeFailure as exc:
        print("\n".join(lines))
        print(f"smoke: FAILED: {exc}")
        return 1
    print("smoke: ok")
    return 0
