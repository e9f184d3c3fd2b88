import base64
import json

import numpy as np
import pytest

import lorsurf as ls


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def interior_points(entry, rng, n, margin=0.05):
    """Random interior points of an entry's default domain, off the singular set."""
    a, b, c, d = entry.default_domain
    du, dv = b - a, d - c
    pts_u, pts_v = [], []
    while len(pts_u) < n:
        u = rng.uniform(a + margin * du, b - margin * du, 2 * n)
        v = rng.uniform(c + margin * dv, d - margin * dv, 2 * n)
        if entry.provider.singular_set is not None:
            keep = ~np.asarray(entry.provider.singular_set(u, v), dtype=bool)
            # stay clear of the guard band so F is O(1)
            if entry.name == "enneper1":
                keep &= np.abs(u - v) > 0.05
            if entry.name == "enneper2":
                keep &= np.abs(u + v) > 0.05
            u, v = u[keep], v[keep]
        pts_u.extend(u.tolist())
        pts_v.extend(v.tolist())
    return np.asarray(pts_u[:n]), np.asarray(pts_v[:n])


def random_grid(rng, lo, hi, n):
    """n strictly increasing nodes from lo to hi with steps varying by up to 3x."""
    steps = rng.uniform(0.5, 1.5, n - 1)
    return lo + (hi - lo) * np.concatenate([[0.0], np.cumsum(steps) / steps.sum()])


def enneper1_chart(n=101, domain=(1.0, 2.0, -1.0, 0.0)):
    """The canonical Enneper chart (F = (u-v)^2/2, H = 0, eps = +1, +1)."""
    u = np.linspace(domain[0], domain[1], n)
    v = np.linspace(domain[2], domain[3], n)
    U, V = np.meshgrid(u, v, indexing="ij")
    return ls.Chart(u_grid=u, v_grid=v, F=0.5 * (U - V) ** 2, H=np.zeros((n, n)),
                    u0_index=(n - 1) // 2, v0_index=(n - 1) // 2,
                    eps1=1, eps2=1).validate()


CONE_TU0 = 2.0 * np.sqrt(2.0) * 3.0 ** 0.25  # normalization making the cone map a pure exponential


def cone_canonical_chart(n=101):
    """Closed-form canonical chart of the hyperbolic cone, base node at CONE_TU0."""
    g = ls.grid_through(CONE_TU0, CONE_TU0 * np.exp(-0.25), CONE_TU0 * np.exp(0.25), n)
    k0 = ls.grid_index(g, CONE_TU0)
    TU, TV = np.meshgrid(g, g, indexing="ij")
    F = TU**3 * TV**3 / 1152.0
    H = -48.0 * np.sqrt(3.0) / (TU**2 * TV**2)
    return ls.Chart(u_grid=g, v_grid=g, F=F, H=H, u0_index=k0, v0_index=k0,
                    eps1=1, eps2=1).validate()


def chart_doc(chart, version=2):
    """The document of a chart file of `version`, its fields stored with row index = v:
    each row a list of numbers (1) or the base64 of its little-endian float64 bytes (2)."""
    doc = {
        "schema_version": version,
        "u_grid": chart.u_grid.tolist(),
        "v_grid": chart.v_grid.tolist(),
        "u0_index": int(chart.u0_index),
        "v0_index": int(chart.v0_index),
        "eps1": int(chart.eps1),
        "eps2": int(chart.eps2),
    }
    for name in ("F", "H", "L", "M", "N", "K"):
        arr = getattr(chart, name)
        if arr is not None:
            doc[name] = arr.T.tolist() if version == 1 else [
                base64.b64encode(row.astype("<f8").tobytes()).decode("ascii") for row in arr.T]
    doc["metadata"] = dict(chart.metadata)
    return doc


def chart_text(chart, version=2):
    """A chart file of `version` as one json.dumps of its document; write_chart
    writes version 2, earlier lorsurf versions wrote version 1."""
    return json.dumps(chart_doc(chart, version), indent=1) + "\n"


def v2_row(values):
    """A schema_version 2 row: the standard padded base64 of little-endian float64."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def v2_floats(row):
    return np.frombuffer(base64.b64decode(row, validate=True), "<f8")


def refusal_chart():
    """A valid 4x3 chart: a row of 4 float64 is 32 bytes, so its base64 ends in one "="."""
    u, v = np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 0.5, 1.0])
    U, V = np.meshgrid(u, v, indexing="ij")
    return ls.Chart(u_grid=u, v_grid=v, F=1.0 + U + V, H=U - V, u0_index=1, v0_index=1,
                    eps1=1, eps2=-1).validate()


def _set_row(name, k, row):
    """Set row k of field `name` to row(the row there)."""
    return lambda doc: doc[name].__setitem__(k, row(doc[name][k]))


def _flip_last_bit(row):
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    head, pad = row.rstrip("="), row[len(row.rstrip("=")):]
    return head[:-1] + alphabet[alphabet.index(head[-1]) ^ 1] + pad


# Each malformed form of a row of refusal_chart()'s file: (the file's schema_version,
# how its document is changed, what the one error line says).
ROW_REFUSALS = {
    "every_row_one_float_short": (2, lambda d: d.update(F=[v2_row(v2_floats(r)[:-1])
                                                           for r in d["F"]]),
                                  "field F row 0 holds 3 floats, u_grid 4"),
    "ragged_rows": (2, _set_row("H", 1, lambda r: v2_row([0.5] * 5)),
                    "field H row 1 holds 5 floats, u_grid 4"),
    "outside_the_alphabet": (2, _set_row("F", 0, lambda r: "*" + r[1:]),
                             "field F row 0 is not base64 of float64: "
                             "Only base64 data is allowed"),
    "url_safe_alphabet": (2, _set_row("F", 0, lambda r: "_" + r[1:]),
                          "Only base64 data is allowed"),
    "not_ascii": (2, _set_row("F", 0, lambda r: "é" + r[1:]),
                  "string argument should contain only ASCII characters"),
    "a_newline_inside": (2, _set_row("F", 2, lambda r: r[:8] + "\n" + r[8:]),
                         "field F row 2 is not base64 of float64: Only base64 data is allowed"),
    "padding_dropped": (2, _set_row("F", 2, lambda r: r.rstrip("=")),
                        "field F row 2 is not base64 of float64: Incorrect padding"),
    "data_after_padding": (2, _set_row("F", 2, lambda r: r + "AAAA"),
                           "field F row 2 is not base64 of float64: Excess data after padding"),
    "non_zero_padding_bits": (2, _set_row("H", 0, _flip_last_bit),
                              "field H row 0 is not base64 of float64: "
                              "non-zero bits after the last byte"),
    "empty_row": (2, _set_row("F", 1, lambda r: ""),
                  "field F row 1 is not base64 of float64: "
                  "0 bytes, not a positive multiple of 8"),
    "part_of_a_float": (2, _set_row("F", 1, lambda r: "AAAAAAAAAAAAAAAA"),
                        "12 bytes, not a positive multiple of 8"),
    "number_row_in_version_2": (2, _set_row("F", 0, lambda r: v2_floats(r).tolist()),
                                "field F must be a list of base64 row strings"),
    "number_rows_in_version_2": (2, lambda d: d.update(H=[v2_floats(r).tolist()
                                                          for r in d["H"]]),
                                 "field H must be a list of base64 row strings"),
    "string_row_in_version_1": (1, _set_row("F", 0, v2_row), "field F must be a 2-D array"),
    "nan_bits": (2, _set_row("H", 1, lambda r: v2_row([0.0, np.nan, 0.0, 0.0])),
                 "field H is non-finite at node (1, 1), (u, v) = (1.0, 0.5)"),
    "infinity_bits": (2, _set_row("F", 2, lambda r: v2_row([1.0, 1.0, 1.0, np.inf])),
                      "field F is non-finite at node (3, 2), (u, v) = (3.0, 1.0)"),
    "minus_infinity_bits": (2, _set_row("H", 0, lambda r: v2_row([-np.inf, 0.0, 0.0, 0.0])),
                            "field H is non-finite at node (0, 0), (u, v) = (0.0, 0.0)"),
}


def row_refusal_text(name):
    """The chart file of ROW_REFUSALS[name] and the reason its one error line gives."""
    version, corrupt, reason = ROW_REFUSALS[name]
    doc = chart_doc(refusal_chart(), version)
    corrupt(doc)
    return json.dumps(doc, indent=1) + "\n", reason
