"""Deterministic CSV/JSON/SVG writers shared by the command-line reports.

Floating-point values serialise with 17 significant digits so every value
round-trips exactly and identical runs produce byte-identical files.  The
SVG emitter is a minimal polyline-plus-axes plotter with no plotting
dependency; the numbers in CSV/JSON are the contract, the plots are a
convenience.
"""

from __future__ import annotations

import math
import sys
from json.encoder import encode_basestring_ascii  # json.dumps(str), minus its set-up per call
from pathlib import Path

import numpy as np

FLOAT_FORMAT = ".17g"
# write_csv formats this many rows at once, so a long table never holds all its cells
_CSV_BLOCK_ROWS = 1024
# SVG canvas size in pixels
_SVG_WIDTH = 640
_SVG_HEIGHT = 440

__all__ = ["format_float", "json_dumps", "write_json", "write_csv", "write_svg_polyline"]


def format_float(x: float) -> str:
    value = float(x)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialise non-finite value {value!r}")
    return format(value, FLOAT_FORMAT)


class _NonFinite(ValueError):
    """args: the message, then each level's dict key or list index ("" at the top), inner first."""


def json_dumps(obj) -> str:
    """Serialise to JSON with 17-significant-digit floats and stable ordering.

    Dict keys keep insertion order (reports are built deterministically), so
    identical inputs yield identical bytes.  A non-finite value raises
    ValueError naming its key path, which is built only then.
    """
    try:
        return _dumps(obj, 0)
    except _NonFinite as exc:
        path = ""  # outermost first; a dict key takes a dot unless the path is still empty
        for key in reversed(exc.args[1:]):
            path = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else key
        raise ValueError(f"{path or 'top level'}: {exc.args[0]}") from None


def _dumps(obj, indent: int, at="") -> str:
    if isinstance(obj, float):
        try:
            return format_float(obj)
        except ValueError as exc:
            raise _NonFinite(str(exc), at) from None
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    pad, inner = "  " * indent, "  " * (indent + 1)
    try:
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            items = ",\n".join(f"{inner}{encode_basestring_ascii(str(key))}: "
                               + _dumps(value, indent + 1, str(key)) for key, value in obj.items())
            return "{\n" + items + "\n" + pad + "}"
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            items = ",\n".join(f"{inner}{_dumps(value, indent + 1, index)}"
                               for index, value in enumerate(obj))
            return "[\n" + items + "\n" + pad + "]"
    except _NonFinite as exc:
        exc.args += (at,)
        raise
    # numpy scalars and similar duck-typed numbers
    if hasattr(obj, "item"):
        return _dumps(obj.item(), indent, at)
    raise TypeError(f"cannot serialise {type(obj).__name__} to JSON")


def write_json(path: Path, obj) -> None:
    """Write obj as JSON; a non-finite value raises ValueError naming the file and key path."""
    try:
        text = json_dumps(obj)
    except ValueError as exc:
        raise ValueError(f"{Path(path).name}: {exc}") from exc
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


def _csv_field(x, empty: str = "") -> str:
    """One cell as csv.writer writes it: None empty, a number with 17 digits, quotes doubled."""
    if x is None or x == "":
        return empty
    if not isinstance(x, str):
        return format(x, FLOAT_FORMAT)
    # csv.writer's minimal quoting: only a cell holding one of , " CR LF is quoted
    return '"%s"' % x.replace('"', '""') if any(c in x for c in ',"\r\n') else x


def write_csv(path: Path, header, *columns) -> None:
    """Write equal-length columns under a header row, quoted as needed.

    Numbers get 17 significant digits, None an empty cell, strings stay as
    they are.  Unequal columns, a header that does not name each column and a
    non-finite value raise ValueError before the file opens; the last names
    the file, column and data row of the first one in row order.  The bytes
    are csv.writer's, without its module: one row template per table, with a
    FLOAT_FORMAT slot per numeric column and a %s slot, filled by _csv_field, per other.
    """
    values = [np.asarray(column) for column, _ in zip(columns, header, strict=True)]
    numeric = [v.dtype.kind in "iuf" for v in values]
    finite = np.column_stack([np.isfinite(v) if num else [
        x is None or isinstance(x, str) or math.isfinite(x) for x in column]
        for v, num, column in zip(values, numeric, columns)])
    if not finite.all():
        row, index = divmod(int(np.argmin(finite)), len(columns))
        raise ValueError(f"{Path(path).name}: column {header[index]!r}, data row {row + 1}: "
                         f"cannot serialise non-finite value {float(columns[index][row])!r}")
    # csv.writer quotes a row whose only field is empty, so that it is not a blank line
    empty = '""' if len(columns) == 1 else ""
    line = ",".join("%" + FLOAT_FORMAT if num else "%s" for num in numeric) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_csv_field(name, empty) for name in header) + "\r\n")
        for start in range(0, len(finite), _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            cells = [v[start:stop].tolist() if num else
                     [_csv_field(x, empty) for x in np.asarray(column[start:stop], dtype=object)]
                     for v, num, column in zip(values, numeric, columns)]
            fh.write("".join(line % row for row in zip(*cells)))


def _axis(values: np.ndarray) -> tuple[float, float, np.ndarray]:
    """The two end labels of an axis and how far along it each value lies, in [0, 1].

    A constant series lies mid-axis, between labels half its magnitude (at
    least 0.5) either side.  Fractions are taken on halved values, so that
    no span of finite values overflows.
    """
    listed = values.tolist()
    lo, hi = min(listed), max(listed)
    if hi == lo:
        pad = 0.5 * max(1.0, abs(lo))
        lo, hi = max(lo - pad, -sys.float_info.max), min(hi + pad, sys.float_info.max)
        return lo, hi, np.full(len(values), 0.5)
    span = hi / 2 - lo / 2
    return lo, hi, (values / 2 - lo / 2) / span


def write_svg_polyline(path: Path, xs, ys, *, title: str, x_label: str, y_label: str) -> None:
    """Minimal static plot: an axes box, extreme-value tick labels, one polyline."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if len(xs) != len(ys) or not len(xs):
        raise ValueError("xs and ys must be equal-length, nonempty sequences")
    margin_left, margin_right, margin_top, margin_bottom = 70, 20, 40, 50
    plot_w = _SVG_WIDTH - margin_left - margin_right
    plot_h = _SVG_HEIGHT - margin_top - margin_bottom
    x_min, x_max, x_frac = _axis(xs)
    y_min, y_max, y_frac = _axis(ys)
    px = (margin_left + x_frac * plot_w).tolist()
    py = (margin_top + (1.0 - y_frac) * plot_h).tolist()
    points = " ".join(map("%.6g,%.6g".__mod__, zip(px, py)))
    x0, x1 = margin_left, margin_left + plot_w
    y0, y1 = margin_top, margin_top + plot_h
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<text x="{_SVG_WIDTH / 2:.6g}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
        f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{x0}" y="{y1 + 18}" text-anchor="middle" font-size="11" '
        f'font-family="sans-serif">{x_min:.6g}</text>',
        f'<text x="{x1}" y="{y1 + 18}" text-anchor="middle" font-size="11" '
        f'font-family="sans-serif">{x_max:.6g}</text>',
        f'<text x="{x0 - 6}" y="{y1 + 4}" text-anchor="end" font-size="11" '
        f'font-family="sans-serif">{y_min:.6g}</text>',
        f'<text x="{x0 - 6}" y="{y0 + 4}" text-anchor="end" font-size="11" '
        f'font-family="sans-serif">{y_max:.6g}</text>',
        f'<text x="{(x0 + x1) / 2:.6g}" y="{_SVG_HEIGHT - 12}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{x_label}</text>',
        f'<text x="16" y="{(y0 + y1) / 2:.6g}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {(y0 + y1) / 2:.6g})">{y_label}</text>',
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{points}"/>',
        "</svg>",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
