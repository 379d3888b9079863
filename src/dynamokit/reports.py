"""Deterministic CSV/JSON/SVG writers shared by the command-line reports.

Floating-point values serialise with 17 significant digits so every value round-trips
exactly and identical runs produce byte-identical files, plots included.  A column or series
with a dtype (a numpy array) takes vectorised checks and cells, any other sequence (a list,
tuple, range or array('d')) the standard library alone: the same bytes and errors either way.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from json.encoder import encode_basestring_ascii  # json.dumps(str), minus its set-up per call
from pathlib import Path

FLOAT_FORMAT = ".17g"
# write_csv formats this many rows at once, so a long table never holds all its cells
_CSV_BLOCK_ROWS = 1024
# SVG canvas size in pixels, and the plot area's edges and size within it
_SVG_WIDTH, _SVG_HEIGHT = 640, 440
_PLOT_LEFT, _PLOT_RIGHT, _PLOT_TOP, _PLOT_BOTTOM = 70, 620, 40, 390
_PLOT_WIDTH, _PLOT_HEIGHT = _PLOT_RIGHT - _PLOT_LEFT, _PLOT_BOTTOM - _PLOT_TOP
# Plot text's markup escapes, and U+FFFD for each code point below U+10000 that XML 1.0
# forbids: C0 controls other than TAB, LF and CR, surrogates, U+FFFE and U+FFFF
_SVG_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", **dict.fromkeys(
    [*range(9), 11, 12, *range(14, 32), *range(0xD800, 0xE000), 0xFFFE, 0xFFFF], "\ufffd")})

__all__ = ["format_float", "json_dumps", "write_json", "write_csv", "write_svg_polyline"]


def format_float(x: float) -> str:
    value = float(x)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialise non-finite value {value!r}")
    return format(value, FLOAT_FORMAT)


class _NonFinite(ValueError):
    """args: the message, then each level's dict key or list index ("" at the top), inner first."""

    def __str__(self) -> str:
        path = ""  # outermost first; a dict key takes a dot unless the path is still empty
        for key in reversed(self.args[1:]):
            path = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else key
        return f"{path or 'top level'}: {self.args[0]}"


def json_dumps(obj) -> str:
    """Serialise to JSON with 17-significant-digit floats and stable ordering.

    Dict keys keep insertion order (reports are built deterministically), so identical inputs
    yield identical bytes.  A non-finite value raises ValueError naming its key path."""
    return "".join(_dumps(obj, 0))


class _Records:
    """The list [dict(zip(keys, row)) for row in rows] as _dumps writes it: one %.17g template per
    block of _CSV_BLOCK_ROWS rows of one finite float per key, else those dicts, errors and all."""

    def __init__(self, keys, rows):
        self.keys, self.rows = keys, rows

    def dumps(self, indent: int, at):
        keys, rows, pad = self.keys, self.rows, "\n" + "  " * (indent + 1)
        row = "{" + ",".join(f"{pad}  {encode_basestring_ascii(str(key)).replace('%', '%%')}: "
                             f"%{FLOAT_FORMAT}" for key in keys) + pad + "}"
        pieces = ["[" + pad]  # then each block and the separator after it
        for start in range(0, len(rows) if len(set(keys)) == len(keys) else 0, _CSV_BLOCK_ROWS):
            block = rows[start:start + _CSV_BLOCK_ROWS]
            cells = tuple(itertools.chain.from_iterable(block))
            if not (set(map(len, block)) == {len(keys)} and set(map(type, cells)) == {float}
                    and all(map(math.isfinite, cells))):
                break
            pieces += [("," + pad).join([row] * len(block)) % cells, "," + pad]
        else:  # a repeated key, which a dict keeps once, or no rows leave no blocks
            if len(pieces) > 1:
                return [*pieces[:-1], "\n" + "  " * indent + "]"]
        return _dumps([dict(zip(keys, row)) for row in rows], indent, at)


def _dumps(obj, indent: int, at=""):
    """obj's JSON text as a run of pieces: each is made once, and none holds another's text."""
    if isinstance(obj, float):  # np.float64 too: it formats through float
        if not math.isfinite(obj):
            raise _NonFinite(f"cannot serialise non-finite value {float(obj)!r}", at)
        yield format(obj, FLOAT_FORMAT)
    elif isinstance(obj, (dict, list, tuple)):
        keyed, pad = isinstance(obj, dict), "\n" + "  " * (indent + 1)
        brackets, sep = ("{}", "{" + pad) if keyed else ("[]", "[" + pad)  # then "," + pad
        try:
            for key, value in obj.items() if keyed else enumerate(obj):
                yield f"{sep}{encode_basestring_ascii(str(key))}: " if keyed else sep
                yield from _dumps(value, indent + 1, str(key) if keyed else key)
                sep = "," + pad
        except _NonFinite as exc:
            exc.args += (at,)
            raise
        yield "\n" + "  " * indent + brackets[1] if obj else brackets
    elif type(obj) is _Records:
        yield from obj.dumps(indent, at)
    elif obj is None:
        yield "null"
    elif isinstance(obj, bool):
        yield "true" if obj else "false"
    elif isinstance(obj, int):
        yield str(obj)
    elif isinstance(obj, str):
        yield encode_basestring_ascii(obj)
    elif hasattr(obj, "item"):  # numpy scalars and similar duck-typed numbers
        yield from _dumps(obj.item(), indent, at)
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__} to JSON")


def write_json(path: Path, obj) -> None:
    """Write obj as JSON; a non-finite value raises ValueError naming the file and key path."""
    try:
        pieces = list(_dumps(obj, 0))  # all made before the file opens: an error leaves no file
    except ValueError as exc:
        raise ValueError(f"{Path(path).name}: {exc}") from exc
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(pieces)
        fh.write("\n")


def _csv_field(x, empty: str = "") -> str:
    """One cell as csv.writer writes it: None empty, a number with 17 digits, quotes doubled."""
    if x is None or x == "":
        return empty
    if not isinstance(x, str):
        return format(x, FLOAT_FORMAT)
    # csv.writer's minimal quoting: only a cell holding one of , " CR LF is quoted
    return '"%s"' % x.replace('"', '""') if any(c in x for c in ',"\r\n') else x


@functools.cache
def _cell_tables():
    """Per 4-digit chunk its digits as a uint32, then the same with trailing zeros NUL; per
    exponent from -300 to 299 the first and last 8 bytes of a cell, and its point's byte: byte
    30, a NUL before a NUL, where the "0.000" prefix holds the point."""
    import numpy as np
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # 0000 to 9999
    chunks = np.array([digits + 48] * 2)
    chunks[1] *= np.maximum.accumulate(digits[:, ::-1], axis=1)[:, ::-1] > 0
    ends = [(("\0" + "0.000"[:1 - e]) * (-4 <= e < 0)).ljust(8, "\0")
            + (f"e{e:+03d}" * (e < -4 or e > 16)).ljust(5, "\0") + "," for e in range(-300, 300)]
    point = [7 + e if 0 < e < 17 else 30 if -4 <= e < 0 else 7 for e in range(-300, 300)]
    return (chunks.view(np.uint32).ravel(), np.array(ends, "S16").view(np.uint64).reshape(-1, 2),
            np.array(point))


@functools.cache
def _pow10(q: int) -> tuple[float, float]:
    """10**q as a double-double: the nearest float, then the one nearest the remainder."""
    num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
    m, d = (num / den).as_integer_ratio()
    return m / d, (num * d - m * den) / (den * d)


def _float_rows(blocks) -> bytes:
    """The CSV rows of equal-length float array blocks, each cell format(v, FLOAT_FORMAT).

    D = round(|v| * 10**(16 - e)), e = floor(log10|v|), is Dekker's TwoProduct of |v| and a
    double-double 10**(16 - e), its tail within 2**-45 while D < 2**57.  format() writes a cell
    outside (1e-280, 1e280), within 2**-30 of a tie, or whose D has not 17 digits (e off by one).
    A cell's 32 bytes hold sign, "0.000", lead digit, point, 16 digits, "e-280", separator; for
    1 <= e <= 16 the first e of the 16 take the point's byte, and it follows them.
    """
    import numpy as np
    x = np.column_stack(blocks).astype(np.float64, copy=False).ravel()
    inside = (np.abs(x) > 1e-280) & (np.abs(x) < 1e280)
    a = np.where(inside, np.abs(x), 1.0)  # zero among them: its e is 0, its D is set to 0
    e = np.floor(np.log10(a)).astype(np.int64)
    table = np.array([_pow10(16 - k) for k in range(e.max(), e.min() - 1, -1)]).T
    hi, lo = table.take(e.max() - e, axis=1)  # two contiguous rows
    p, a_split, hi_split = a * hi, a * 134217729.0, hi * 134217729.0  # Veltkamp's split
    ah, hh = a_split - (a_split - a), hi_split - (hi_split - hi)
    tail = ((ah * hh - p) + ah * (hi - hh) + (a - ah) * hh) + (a - ah) * (hi - hh) + a * lo
    frac = tail - np.floor(tail)
    D = (p.astype(np.int64) + np.floor(tail).astype(np.int64) + (frac > 0.5)) * (x != 0)
    exact = (D > 10**16) & (D < 10**17) | (D == 10**16) & (lo == 0) & (tail == 0)  # 10**e itself
    slow = np.flatnonzero(~(inside & exact & (np.abs(frac - 0.5) >= 2**-30) | (x == 0)))
    del inside, a, hi, lo, p, a_split, hi_split, ah, hh, tail, frac, exact  # before the cells
    chunks, ends, point = _cell_tables()
    rest, chunk = D - D // 10**16 * 10**16, np.empty((len(x), 4), np.int64)
    for k, scale in enumerate((10**12, 10**8, 10**4, 1)):
        chunk[:, k] = rest // scale
        rest = rest - chunk[:, k] * scale
        chunk[:, k] += (rest == 0) * 10**4  # every later digit is zero: strip the chunk's zeros
    words = np.empty((len(x), 4), np.uint64)
    words[:, ::3], words.view(np.uint32)[:, 2:6] = ends.take(e + 300, axis=0), chunks.take(chunk)
    cell = words.view(np.uint8)
    cell[:, 0], cell[:, 6] = np.signbit(x) * np.uint8(45), D // 10**16 + 48
    mid = np.flatnonzero((e > 0) & (e < 17))  # the first e of the 16 digits take the point's byte
    cell[mid, 7:23] = np.where(np.arange(16) < e[mid, None], cell[mid, 8:24], cell[mid, 7:23])
    at = np.arange(0, len(x) * 32, 32) + point.take(e + 300)
    flat = cell.ravel()
    flat[at] = (flat[at + 1] != 0) * np.uint8(46)  # the point, if a digit follows it
    whole = mid[flat[at[mid]] == 0]  # an integer's zeros come back
    cell[whole, 6:23] |= (np.arange(17) <= e[whole, None]) * np.uint8(48)
    cell[slow, :29] = np.array([format(v, FLOAT_FORMAT) for v in x[slow].tolist()],
                               "S29").view(np.uint8).reshape(-1, 29)
    cell.reshape(len(blocks[0]), len(blocks), 32)[:, -1, 29:31] = 13, 10
    return cell.tobytes().translate(None, b"\0")  # the NULs: all that %g leaves out


def _scan(column) -> tuple[int, bool]:
    """The row of the column's first non-finite number (its length if none) and whether it holds
    only numbers.  An int or float array takes one vectorised pass; cells may be None or str."""
    if hasattr(column, "dtype") and column.dtype.kind in "iuf":
        import numpy as np
        finite = np.isfinite(column)
        return (len(column) if finite.all() else int(finite.argmin())), True
    try:
        if all(map(math.isfinite, column)):
            return len(column), True
    except TypeError:  # a None or a string
        pass
    return next((row for row, x in enumerate(column)
                 if not (x is None or isinstance(x, str) or math.isfinite(x))), len(column)), False


def _checked(path: Path, kind: str, names, columns, place: str) -> list[bool]:
    """Each column's numbers-only flag.  Unequal columns, a name count that does not match
    them and a non-finite number raise ValueError; the last names the first in row order."""
    lengths = [len(column) for column in columns]
    if len(names) != len(columns) or len(set(lengths)) != 1:
        raise ValueError(f"{Path(path).name}: {kind} lengths {lengths} for {len(names)} names")
    scans = [_scan(column) for column in columns]
    row, index = min((row, index) for index, (row, _) in enumerate(scans))
    if row < lengths[0]:
        raise ValueError(f"{Path(path).name}: {kind} {names[index]!r}, {place} {row + 1}: "
                         f"cannot serialise non-finite value {float(columns[index][row])!r}")
    return [numeric for _, numeric in scans]


def write_csv(path: Path, header, *columns) -> None:
    """Write equal-length columns under a header row, quoted as needed.

    Numbers get 17 significant digits, None an empty cell, strings stay as
    they are.  Unequal columns, a header that does not name each column and a
    non-finite value raise ValueError before the file opens; the last names
    the file, column and data row of the first one in row order.  The bytes
    are csv.writer's, without its module: one row template per table, with a
    FLOAT_FORMAT slot per numbers-only column and a %s slot, filled by _csv_field, per other.
    A table of float arrays alone has its cells made by _float_rows instead.
    """
    numeric = _checked(path, "column", header, columns, "data row")
    # csv.writer quotes a row whose only field is empty, so that it is not a blank line
    empty = '""' if len(columns) == 1 else ""
    line = ",".join("%" + FLOAT_FORMAT if num else "%s" for num in numeric) + "\r\n"
    with open(path, "wb") as fh:
        fh.write((",".join(_csv_field(name, empty) for name in header) + "\r\n").encode())
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            blocks = [column[start:start + _CSV_BLOCK_ROWS] for column in columns]
            if all(hasattr(block, "dtype") and block.dtype.kind == "f" for block in blocks):
                fh.write(_float_rows(blocks))
                continue
            cells = [(block.tolist() if hasattr(block, "dtype") else block) if num else
                     [_csv_field(x, empty) for x in block] for block, num in zip(blocks, numeric)]
            fh.write("".join(line % row for row in zip(*cells)).encode())


def _axis(values, place) -> tuple:
    """The two end labels of an axis, min() and max() of its values, and the function taking a
    value, or an array of them, to its position: place(f) at fraction f of the axis.

    A series whose halved values are all equal lies mid-axis, between labels
    half its magnitude (at least 0.5) either side.  Fractions are taken on
    halved values, so that no span of finite values overflows.
    """
    lo, hi = ((float(values[values.argmin()]), float(values[values.argmax()]))  # min()'s zero
              if hasattr(values, "dtype") else (min(values), max(values)))
    span = hi / 2 - lo / 2
    if span == 0.0:
        pad = 0.5 * max(1.0, abs(lo))
        lo, hi = max(lo - pad, -sys.float_info.max), min(hi + pad, sys.float_info.max)
        return lo, hi, lambda v: place(0.5 + 0.0 * v)
    return lo, hi, lambda v: place((v / 2 - lo / 2) / span)


def _m4(xs, ys, at):
    """The indices M4 keeps (Jugel et al., PVLDB 7(10), 2014), in order: of each maximal run of
    over four points in one pixel column int(at(x)), its first and last points and its first of
    least and greatest y; a shorter run whole.  At 1 px per SVG unit, up to anti-aliasing, they
    draw each column's extent as all points do, in any x order; zoomed in, they show less."""
    if not hasattr(xs, "dtype"):
        kept, y = [], ys.__getitem__
        for _, run in itertools.groupby(range(len(xs)), lambda i: int(at(xs[i]))):
            run = list(run)
            kept += sorted({run[0], run[-1], min(run, key=y), max(run, key=y)}) if run[4:] else run
        return kept
    import numpy as np
    starts = np.flatnonzero(np.diff(at(xs).astype(np.int16), prepend=-1))  # 0 <= at(x) < 2**15
    lengths = np.diff(starts, append=len(xs))
    keep = np.repeat(lengths <= 4, lengths)
    keep[starts] = keep[starts - 1] = True  # firsts; lasts, each before a first (-1 wraps)
    for extreme in (np.minimum, np.maximum):
        hits = np.flatnonzero(ys == np.repeat(extreme.reduceat(ys, starts), lengths))
        keep[hits[np.searchsorted(hits, starts)]] = True  # each run's first hit
    return np.flatnonzero(keep)


def _text(x, y, anchor: str, size: int, body: str, extra: str = "") -> str:
    """One line of plot text, its body escaped so that any title or label leaves valid XML."""
    body = str(body).translate(_SVG_TEXT)
    return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-size="{size}" '
            f'font-family="sans-serif"{extra}>{body}</text>')


def write_svg_polyline(path: Path, xs, ys, *, title: str, x_label: str, y_label: str) -> None:
    """Minimal plot: axes, extreme-value tick labels, a polyline through the points M4 keeps.
    Labels and checks see every point; unequal, empty or non-finite series raise ValueError."""
    if hasattr(xs, "dtype") or hasattr(ys, "dtype"):  # a pair with an array is drawn as arrays
        import numpy as np
        xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    else:
        xs, ys = [float(x) for x in xs], [float(y) for y in ys]
    _checked(path, "series", (x_label, y_label), (xs, ys), "point")
    if not len(xs):
        raise ValueError(f"{Path(path).name}: no points to plot")
    x_min, x_max, at_x = _axis(xs, lambda f: _PLOT_LEFT + f * _PLOT_WIDTH)
    y_min, y_max, at_y = _axis(ys, lambda f: _PLOT_TOP + (1.0 - f) * _PLOT_HEIGHT)
    kept = _m4(xs, ys, at_x)
    px, py = ((at(v[kept]).tolist() if hasattr(kept, "dtype") else [at(v[i]) for i in kept])
              for at, v in ((at_x, xs), (at_y, ys)))
    points = ("%.6g,%.6g " * len(px) % tuple(itertools.chain.from_iterable(zip(px, py))))[:-1]
    Path(path).write_text("\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        _text(_SVG_WIDTH // 2, 24, "middle", 15, title),
        f'<line x1="{_PLOT_LEFT}" y1="{_PLOT_BOTTOM}" x2="{_PLOT_RIGHT}" y2="{_PLOT_BOTTOM}" '
        'stroke="black"/>',
        f'<line x1="{_PLOT_LEFT}" y1="{_PLOT_TOP}" x2="{_PLOT_LEFT}" y2="{_PLOT_BOTTOM}" '
        'stroke="black"/>',
        _text(_PLOT_LEFT, _PLOT_BOTTOM + 18, "middle", 11, f"{x_min:.6g}"),
        _text(_PLOT_RIGHT, _PLOT_BOTTOM + 18, "middle", 11, f"{x_max:.6g}"),
        _text(_PLOT_LEFT - 6, _PLOT_BOTTOM + 4, "end", 11, f"{y_min:.6g}"),
        _text(_PLOT_LEFT - 6, _PLOT_TOP + 4, "end", 11, f"{y_max:.6g}"),
        _text((_PLOT_LEFT + _PLOT_RIGHT) // 2, _SVG_HEIGHT - 12, "middle", 12, x_label),
        _text(16, (_PLOT_TOP + _PLOT_BOTTOM) // 2, "middle", 12, y_label,
              f' transform="rotate(-90 16 {(_PLOT_TOP + _PLOT_BOTTOM) // 2})"'),
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{points}"/>',
        "</svg>\n"]), encoding="utf-8", newline="\n")
