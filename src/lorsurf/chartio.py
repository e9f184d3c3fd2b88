"""Chart, report and mesh files.

Charts and reports are JSON: human-readable key/value documents with
nested arrays.  Floats are serialized with Python's shortest round-trip
representation, so write-then-read reproduces every number bit-exactly.
In chart files the 2-D arrays are stored with row index = v and column
index = u (the in-memory layout is the transpose).  All writes are atomic
(temporary file in the target directory, then rename).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile

import numpy as np

from .chart import Chart
from .errors import ChartError

__all__ = [
    "write_chart",
    "read_chart",
    "write_report",
    "write_mesh_obj",
    "write_mesh_csv",
    "digest_bytes",
    "digest_text",
]

SCHEMA_VERSION = 1
_FIELDS = ("F", "H", "L", "M", "N", "K")


def _atomic_write_text(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def digest_bytes(data):
    return hashlib.sha256(data).hexdigest()


def digest_text(text):
    return digest_bytes(text.encode("utf-8"))


def write_chart(chart, path):
    """Serialize a chart to JSON (arrays transposed to row index = v)."""
    chart.validate()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "u_grid": chart.u_grid.tolist(),
        "v_grid": chart.v_grid.tolist(),
        "u0_index": int(chart.u0_index),
        "v0_index": int(chart.v0_index),
        "eps1": int(chart.eps1),
        "eps2": int(chart.eps2),
    }
    for name in _FIELDS:
        arr = getattr(chart, name)
        if arr is not None:
            doc[name] = arr.T.tolist()
    doc["metadata"] = dict(chart.metadata, canonical=bool(chart.canonical))
    _atomic_write_text(path, json.dumps(doc, indent=1) + "\n")


def _integer(doc, key):
    """The integer stored under `key`; booleans, fractions and strings are refused."""
    value = doc[key]
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ChartError(f"{key} must be an integer, got {json.dumps(value)[:40]}")
    return int(value)


def read_chart(path):
    """Parse and validate a chart file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ChartError(f"cannot read chart file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ChartError(f"chart file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ChartError("chart file must contain a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ChartError(f"unsupported chart schema_version {version!r}")
    missing = [k for k in ("u_grid", "v_grid", "F", "H", "u0_index", "v0_index",
                           "eps1", "eps2") if k not in doc]
    if missing:
        raise ChartError(f"chart file misses required keys: {', '.join(missing)}")

    def field(name):
        if name not in doc:
            return None
        rows = doc[name]
        if not (isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows)):
            raise ChartError(f"field {name} must be a 2-D array")
        # numpy would read true and "1.5" as numbers
        others = set(map(type, itertools.chain.from_iterable(rows))) - {int, float}
        if others:
            raise ChartError(f"field {name} must hold only numbers, found "
                             + ", ".join(sorted(t.__name__ for t in others)))
        return np.asarray(rows, dtype=float).T  # file stores row index = v

    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ChartError("metadata must be a JSON object")
    metadata = dict(metadata)
    canonical = bool(metadata.pop("canonical", False))
    try:
        chart = Chart(
            u_grid=np.asarray(doc["u_grid"], dtype=float),
            v_grid=np.asarray(doc["v_grid"], dtype=float),
            F=field("F"), H=field("H"),
            L=field("L"), M=field("M"), N=field("N"), K=field("K"),
            u0_index=_integer(doc, "u0_index"), v0_index=_integer(doc, "v0_index"),
            eps1=_integer(doc, "eps1"), eps2=_integer(doc, "eps2"),
            canonical=canonical, metadata=metadata)
        return chart.validate()
    except (TypeError, ValueError) as exc:
        raise ChartError(f"malformed chart file {path!r}: {exc}") from exc


def write_report(doc, path):
    """Write a report document; content is fully deterministic for fixed inputs."""
    _atomic_write_text(path, json.dumps(doc, indent=1) + "\n")


def write_mesh_obj(mesh, u_grid, v_grid, path, comments=()):
    """Wavefront OBJ export: grid quads split into two consistently wound
    triangles; vertex order is u-major (index = i * nv + j + 1)."""
    mesh = np.asarray(mesh, dtype=float)
    nu, nv = mesh.shape[0], mesh.shape[1]
    lines = [
        "# lorsurf mesh export",
        "# ambient coordinates (x1, x2, x3) in R^3_1 with <a,b> = -a1*b1 + a2*b2 + a3*b3",
        f"# grid nu={nu} nv={nv}, vertex index = i*nv + j + 1 (u-major)",
    ]
    lines.extend(f"# {c}" for c in comments)
    for i in range(nu):
        for j in range(nv):
            p = mesh[i, j]
            lines.append(f"v {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}")
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1
            b = (i + 1) * nv + j + 1
            c = (i + 1) * nv + j + 2
            d = i * nv + j + 2
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_mesh_csv(mesh, u_grid, v_grid, path):
    """Flat CSV export (u, v, x1, x2, x3), one row per node, u-major."""
    mesh = np.asarray(mesh, dtype=float)
    lines = ["u,v,x1,x2,x3"]
    for i, uu in enumerate(u_grid):
        for j, vv in enumerate(v_grid):
            p = mesh[i, j]
            lines.append(f"{float(uu)!r},{float(vv)!r},"
                         f"{float(p[0])!r},{float(p[1])!r},{float(p[2])!r}")
    _atomic_write_text(path, "\n".join(lines) + "\n")
