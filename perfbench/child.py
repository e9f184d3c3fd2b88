"""Run one `lorsurf` CLI op in a fresh process with spans or allocation peaks.

    python -X importtime perfbench/child.py {spans|alloc} OUT.json ARG...

Equivalent to `python -m lorsurf.cli ARG...`, except that lorsurf's public
functions are wrapped first (see tracer.py) and the recorded spans are
written to OUT.json when the op ends.  The exit code is the CLI's.
"""

import time

BOOT = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracer  # noqa: E402


def run(mode, out_path, argv):
    import lorsurf.cli

    rec = tracer.Tracer()
    rec.install(mode)
    rec.op = 0
    code = 2
    try:
        code = lorsurf.cli.main(argv)
    except SystemExit as exc:  # argparse errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        rec.op = None
        with open(out_path, "w") as fh:
            json.dump(dict(rec.dump(), boot=BOOT), fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[3:]))
