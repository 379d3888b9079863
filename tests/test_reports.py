import builtins
import csv
import io
import itertools
import json
import math
import os
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynamokit import cli, reports
from dynamokit.cli import MAX_TABLE_ROWS
from dynamokit.reports import format_float, json_dumps, write_csv, write_json, write_svg_polyline

# floats as the writer sees them: subnormals, -0.0 and the ends of the finite range drawn often
_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 5e-324, -2.2e-308, 1.7e308, -1.7e308]))
_INTS = st.integers(-2**70, 2**70)  # int64 columns and, past 2**63, object columns
# text with every character csv.writer quotes on, plus leading and trailing spaces
_TEXT = st.text(st.sampled_from(',"\r\n \'a') | st.characters(blacklist_categories=("Cs",)),
                max_size=6)


@st.composite
def _csv_tables(draw):
    """A header and 1-4 equal-length columns of mixed kinds, as the runners pass them."""
    rows = draw(st.integers(0, 12))
    cells = lambda elements: st.lists(elements, min_size=rows, max_size=rows)  # noqa: E731
    kinds = st.one_of(
        cells(_FLOATS), cells(_FLOATS).map(np.array), cells(_INTS), cells(_FLOATS | _INTS),
        st.integers(-2**62, 2**62).map(lambda start: range(start, start + rows)),
        cells(st.one_of(st.none(), _TEXT, _FLOATS, _INTS)), cells(st.sampled_from([None, ""])),
    )
    columns = draw(st.lists(kinds, min_size=1, max_size=4))
    header = draw(st.lists(_TEXT, min_size=len(columns), max_size=len(columns)))
    return header, columns


def _reference_csv(header, columns) -> bytes:
    """The table written row by row through csv.writer, numbers with format(x, ".17g")."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([cell if cell is None or isinstance(cell, str) else format(cell, ".17g")
                         for cell in row])
    return out.getvalue().encode("utf-8")


class TestFloatSerialization:
    @pytest.mark.parametrize(
        "value",
        [0.0, 1.0, -1.0, 0.1, 1e-300, 1e300, math.pi, 2.0 / (1.0 + math.sqrt(5.0)), -3.75e-17],
    )
    def test_seventeen_digits_round_trip_exactly(self, value):
        assert float(format_float(value)) == value

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            format_float(math.inf)
        with pytest.raises(ValueError):
            format_float(math.nan)


class TestJsonDumps:
    def test_output_parses_and_round_trips(self):
        doc = {
            "name": "sweep",
            "count": 3,
            "enabled": True,
            "missing": None,
            "values": [0.1, 0.2, 1.0 / 3.0],
            "nested": {"pi": math.pi},
        }
        parsed = json.loads(json_dumps(doc))
        assert parsed["values"] == doc["values"]
        assert parsed["nested"]["pi"] == math.pi
        assert parsed["missing"] is None

    def test_identical_inputs_identical_bytes(self):
        doc = {"a": [1.5, 2.5], "b": {"c": 0.1}}
        assert json_dumps(doc) == json_dumps({"a": [1.5, 2.5], "b": {"c": 0.1}})

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            json_dumps({"bad": object()})

    @pytest.mark.parametrize("obj,path,value", [
        ({"a": [1.0, {"b": math.nan}]}, "a[1].b", "nan"),
        ([math.inf], "[0]", "inf"),
        (math.nan, "top level", "nan"),
        ({"x": {"y": [0, 1, [2, -math.inf]]}}, "x.y[2][1]", "-inf"),
        ({"a": (1.0, np.float64(math.inf))}, "a[1]", "inf"),
        ({1: {2: [math.nan]}}, "1.2[0]", "nan"),
        # an empty key leaves the path empty, so the next key takes no dot
        ({"": math.nan}, "top level", "nan"),
        ({"": {"b": math.nan}}, "b", "nan"),
        ({"a": {"": [math.nan]}}, "a.[0]", "nan"),
    ])
    def test_non_finite_value_names_its_key_path(self, obj, path, value):
        message = f"{path}: cannot serialise non-finite value {value}"
        with pytest.raises(ValueError) as caught:
            json_dumps(obj)
        assert str(caught.value) == message

    @pytest.mark.parametrize("obj,text", [
        ({}, "{}"),
        (np.int64(3), "3"),
        (np.float32(0.5), "0.5"),
        (np.bool_(True), "true"),
    ], ids=["empty-dict", "int64", "float32", "bool"])
    def test_empty_dicts_and_numpy_scalars(self, obj, text):
        assert json_dumps(obj) == text

    @settings(max_examples=200, deadline=None)
    @given(key=st.text(), value=st.text())
    def test_strings_and_keys_quoted_as_json_dumps_quotes_them(self, key, value):
        assert json_dumps(value) == json.dumps(value)
        doc = {key: value, "list": [key]}
        assert json_dumps(doc) == json.dumps(doc, indent=2)


# one row per re-orthonormalisation event and the like: the writer's block edges and either side
_RECORD_COUNTS = [0, 1, reports._CSV_BLOCK_ROWS - 1, reports._CSV_BLOCK_ROWS,
                  reports._CSV_BLOCK_ROWS + 1, 2 * reports._CSV_BLOCK_ROWS + 3]
# what a row may hold that is not a finite float; _SHORT_ROW drops its cell from the row instead
_SHORT_ROW = object()
_ODD_CELLS = [0, 2**70, True, False, None, np.float64(0.1), np.float64(math.inf), "x", math.nan,
              math.inf, -math.inf, _SHORT_ROW]


def _dumped(obj):
    try:
        return json_dumps(obj)
    except ValueError as exc:
        return str(exc)


class TestRecords:
    """A record value writes as the list of dicts it stands for: same text, same error."""

    @settings(max_examples=150, deadline=None)
    @given(keys=st.lists(st.text(st.sampled_from('%"\\\né€') | st.characters(), max_size=4),
                         max_size=4),
           pool=st.lists(_FLOATS | st.sampled_from([sys.float_info.max, -sys.float_info.max,
                                                    -5e-324, 2.2250738585072014e-308]),
                         min_size=1, max_size=16),
           count=st.sampled_from(_RECORD_COUNTS), kind=st.sampled_from([tuple, list]),
           odd=st.none() | st.tuples(st.sampled_from(_ODD_CELLS),
                                     st.floats(0, 1, exclude_max=True)))
    @example(keys=["s", "defect"], pool=[0.5, 1e-9], count=_RECORD_COUNTS[4], kind=tuple,
             odd=(_SHORT_ROW, 0.9))  # cell 1845: row 922, in the first block
    @example(keys=["s", "defect"], pool=[0.5, 1e-9], count=_RECORD_COUNTS[4], kind=tuple,
             odd=(_SHORT_ROW, 0.9995))  # cell 2048: row 1024, after a whole templated block
    @example(keys=["a", "a"], pool=[1.0, 2.0], count=3, kind=list, odd=None)
    @example(keys=[], pool=[1.0], count=2, kind=tuple, odd=None)
    def test_writes_as_its_list_of_dicts(self, keys, pool, count, kind, odd):
        cells = [pool[i % len(pool)] for i in range(count * len(keys))]
        if odd is not None and cells:
            value, where = odd
            cells[int(where * len(cells))] = value
        rows = [kind(cell for cell in cells[i * len(keys):(i + 1) * len(keys)]
                     if cell is not _SHORT_ROW) for i in range(count)]
        dicts = [dict(zip(keys, row)) for row in rows]
        for wrap in (lambda value: value, lambda value: {"results": {"events": value, "n": 1}}):
            records, expected = _dumped(wrap(reports._Records(keys, rows))), _dumped(wrap(dicts))
            # equal texts, shown from their first difference: a diff of whole texts takes minutes
            at = len(os.path.commonprefix([records, expected]))
            assert records[at:at + 80] == expected[at:at + 80]


class TestJsonPieces:
    """write_json writes the pieces that json_dumps joins, each made once: the same bytes, and
    the text held once.  The two no longer share one string, so each report is compared."""

    @staticmethod
    def _assert_written_as_dumped(path, obj):
        write_json(path, obj)
        assert path.read_bytes() == (json_dumps(obj) + "\n").encode("ascii")

    @pytest.mark.parametrize("command", ["map", "tube", "filament", "frenet"])
    def test_each_default_report(self, tmp_path, command):
        argv = ["--command", command, "--out", str(tmp_path / "x")]
        results = cli._RUNNERS[command](cli._resolve(cli._build_parser().parse_args(argv)))[1]
        self._assert_written_as_dumped(tmp_path / "r.json", {"results": results})

    # TestRecords' examples, then rows that take the template in two blocks
    @pytest.mark.parametrize("keys, rows", [
        (["s", "defect"], [(0.5, 1e-9)] * 922 + [(0.5,)] + [(0.5, 1e-9)] * 102),
        (["a", "a"], [[1.0, 2.0]] * 3),
        ([], [()] * 2),
        (["s", "defect"], [(k * 0.05, 1e-9 + k * 1e-15) for k in range(1025)]),
    ], ids=["short-row", "repeated-key", "no-keys", "two-blocks"])
    def test_records(self, tmp_path, keys, rows):
        for obj in (reports._Records(keys, rows),
                    {"results": {"events": reports._Records(keys, rows), "n": 1}}):
            self._assert_written_as_dumped(tmp_path / "r.json", obj)

    def test_peak_bytes_per_row(self, tmp_path):
        """tracemalloc peak of write_json per row of a 10^5-row event log, after a warm-up.

        Measured on CPython 3.11: 85 B/row, about the file's 84 B/row; the bound 106 B is that
        plus 25%.  Each level joining its children's text, and the writer holding the whole
        text, cost 251 B/row and fail it."""
        rows = [(k * 0.05, 1e-9 + k * 1e-15) for k in range(10**5)]
        path, obj = tmp_path / "r.json", {"results": {"events": reports._Records(("s", "defect"),
                                                                                 rows)}}
        write_json(path, obj)  # warm-up: first-call imports stay out of the peak
        tracemalloc.start()
        try:
            write_json(path, obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 10**5 <= 106


class TestWriters:
    def test_csv_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], [1, "x"], [0.1, 2.5], [None, -2.0])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "a,b,c"
        assert lines[1] == "1,0.10000000000000001,"
        assert lines[2] == "x,2.5,-2"

    def test_csv_matches_row_by_row_formatting_across_blocks(self, tmp_path):
        path, reference = tmp_path / "t.csv", tmp_path / "ref.csv"
        rows = 10_000  # several formatting blocks
        rng = np.random.default_rng(7)
        floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        labels = ["slow" if k % 3 else "fast, \"quoted\"" for k in range(rows)]
        maybe = [None if k % 5 == 0 else k / 7.0 for k in range(rows)]
        # repeated texts beside numbers that compare equal but are written apart: only a text
        # cell may be made once per distinct text in a block
        regimes = [["slow", "degenerate", ""][k % 3] for k in range(rows)]
        mixed = [(0.0, -0.0, 1, None)[k % 4] for k in range(rows)]
        names = ["n", "x", "label", "maybe", "regime", "mixed"]
        write_csv(path, names, range(rows), floats, labels, maybe, regimes, mixed)
        with open(reference, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            for row in zip(range(rows), floats.tolist(), labels, maybe, regimes, mixed):
                writer.writerow([str(cell) if isinstance(cell, (int, str)) else
                                 "" if cell is None else format(cell, ".17g") for cell in row])
        assert path.read_bytes() == reference.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(table=_csv_tables())
    def test_csv_bytes_equal_csv_writer_reference(self, tmp_path_factory, table):
        header, columns = table
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, header, *columns)
        assert path.read_bytes() == _reference_csv(header, columns)

    def test_csv_integer_column_formats_like_str(self, tmp_path):
        path = tmp_path / "n.csv"
        write_csv(path, ["n"], range(1, MAX_TABLE_ROWS + 1))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1:] == [str(n) for n in range(1, MAX_TABLE_ROWS + 1)]

    @pytest.mark.parametrize("header,columns", [
        (["a", "b"], ([1.0, 2.0], [1.0])),
        (["a", "b"], ([1.0], [1.0, 2.0])),
        (["a", "b"], ([1.0],)),
        (["a"], ([1.0], [2.0])),
    ], ids=["second-shorter", "second-longer", "header-longer", "header-shorter"])
    def test_csv_rejects_mismatched_columns(self, tmp_path, header, columns):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            write_csv(path, header, *columns)
        assert not path.exists()

    def test_csv_non_finite_value_in_a_blank_bearing_column(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=r"^t\.csv: column 'b', data row 3: "
                                             r"cannot serialise non-finite value inf$"):
            write_csv(path, ["a", "b", "c"], [1.0, 2.0, 3.0], [None, 0.5, math.inf],
                      ["x", "y", "z"])
        assert not path.exists()

    def test_csv_names_the_first_non_finite_value_in_row_order(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=r"^t\.csv: column 'b', data row 1: .* nan$"):
            write_csv(path, ["a", "b"], np.array([1.0, -math.inf]), np.array([math.nan, 1.0]))

    def test_json_non_finite_value_names_file_and_key_path(self, tmp_path):
        path = tmp_path / "r.json"
        doc = {"a": [1.0, {"b": 2.0, "c": math.nan}], "d": math.inf}
        with pytest.raises(ValueError, match=r"^r\.json: a\[1\]\.c: cannot serialise"):
            write_json(path, doc)
        assert not path.exists()

    def test_svg_is_written_and_deterministic(self, tmp_path):
        first, second = tmp_path / "a.svg", tmp_path / "b.svg"
        xs, ys = [0.0, 1.0, 2.0], [1.0, 4.0, 9.0]
        write_svg_polyline(first, xs, ys, title="t", x_label="x", y_label="y")
        write_svg_polyline(second, xs, ys, title="t", x_label="x", y_label="y")
        body = first.read_text(encoding="utf-8")
        assert body.startswith("<svg ")
        assert "<polyline" in body
        assert first.read_bytes() == second.read_bytes()

    def test_svg_rejects_empty_input(self, tmp_path):
        with pytest.raises(ValueError):
            write_svg_polyline(tmp_path / "x.svg", [], [], title="t", x_label="x", y_label="y")

    @pytest.mark.parametrize("xs, ys, message", [
        ([0.0, 1.0, 2.0], [1.0, math.nan, 3.0], "series 'Y', point 2: .* nan"),
        ([0.0, math.inf, 2.0], [1.0, 2.0, -math.inf], "series 'X', point 2: .* inf"),
        ([0.0, 1.0], [-math.inf, 1.0], "series 'Y', point 1: .* -inf"),
    ])
    def test_svg_rejects_non_finite_values_naming_the_first(self, tmp_path, xs, ys, message):
        path = tmp_path / "p.svg"
        with pytest.raises(ValueError, match=rf"^p\.svg: {message}$"):
            write_svg_polyline(path, xs, ys, title="t", x_label="X", y_label="Y")
        assert not path.exists()

    @pytest.mark.parametrize("xs, ys", [
        ([0.0, 1.0], [2.3937588257735736e96, 2.3937588257735736e96]),  # constant, 0.5 is lost
        ([0.0, 1.0], [1.7e308, 1.7e308]),  # constant, next to the largest float
        ([-1.7e308, 1.7e308], [-1.7e308, 1.7e308]),  # span beyond the largest float
    ])
    def test_svg_places_extreme_finite_values_inside_the_axes(self, tmp_path, xs, ys):
        path = tmp_path / "x.svg"
        write_svg_polyline(path, xs, ys, title="t", x_label="x", y_label="y")
        body = path.read_text(encoding="utf-8")
        assert "nan" not in body and "inf" not in body
        points = body.split('points="')[1].split('"')[0].split()
        for point in points:
            px, py = map(float, point.split(","))
            assert 70 <= px <= 620 and 40 <= py <= 390


# floats with the non-finite values a column may carry, drawn now and then
_ANY_FLOATS = _FLOATS | st.floats()


def _outcome(directory, write):
    """The bytes write(path) leaves in directory, or its ValueError text, which leaves no file."""
    path = directory / "out"
    try:
        write(path)
    except ValueError as exc:
        assert not path.exists()
        return str(exc)
    return path.read_bytes()


class TestListsAndArraysAgree:
    """A float column or series given as a list and as np.array writes the same bytes, or
    raises the same ValueError: lists take the standard-library path, arrays numpy's."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_csv(self, tmp_path_factory, data):
        rows = data.draw(st.integers(0, 12))
        columns = data.draw(st.lists(st.lists(_ANY_FLOATS, min_size=rows, max_size=rows),
                                     min_size=1, max_size=4))
        as_array = data.draw(st.lists(st.booleans(), min_size=len(columns),
                                      max_size=len(columns)))
        header = [f"c{index}" for index in range(len(columns))]
        arrays = [np.array(column) for column in columns]
        mixed = [array if chosen else column
                 for column, array, chosen in zip(columns, arrays, as_array)]
        outcomes = [_outcome(tmp_path_factory.mktemp("csv"),
                             lambda path: write_csv(path, header, *table))
                    for table in (columns, arrays, mixed)]
        assert outcomes[0] == outcomes[1] == outcomes[2]

    @settings(max_examples=200, deadline=None)
    @given(series=st.integers(1, 12).flatmap(
        lambda points: st.tuples(*[st.lists(_ANY_FLOATS, min_size=points, max_size=points)] * 2)))
    @example(series=([0.0, 5e-324], [1.0, 1.0]))  # halved, the x span rounds to 0
    def test_svg(self, tmp_path_factory, series):
        xs, ys = series
        outcomes = [_outcome(tmp_path_factory.mktemp("svg"), lambda path: write_svg_polyline(
                        path, x, y, title="t", x_label="X", y_label="Y"))
                    for x, y in [(xs, ys), (np.array(xs), np.array(ys)),
                                 (np.array(xs), ys), (xs, np.array(ys))]]
        assert outcomes[0] == outcomes[1] == outcomes[2] == outcomes[3]
        if isinstance(outcomes[0], bytes):
            assert b"nan" not in outcomes[0] and b"inf" not in outcomes[0]



def _ulp_neighbours(values, steps: int) -> list:
    """values and the floats 1..steps ulps below and above each."""
    out, down, up = [values], values, values
    for _ in range(steps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return out


def _float_cell_inputs(rng) -> np.ndarray:
    """Finite floats that stress an exact %.17g, and their negations: random bit patterns,
    17-digit rounding ties and scaled neighbours of them, every power of ten and %g's notation
    switches with their nearest floats, subnormals, zeros and the ends of the finite range."""
    bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False).view(np.float64)
    # m / 2**k, m odd, is m * 5**k / 10**k: 18 digits ending in 5, a tie at 17 digits
    ranges = [(k, -(-10**17 // 5**k), min(10**18 // 5**k, 2**53)) for k in range(1, 60)]
    ties = [m / 2.0**k * scale for k, low, high in ranges if low < high
            for m in (rng.integers(low, high, 64) | 1).tolist()
            for scale in (1.0, 2.0**-30, 2.0**40)]
    powers = np.array([float(f"1e{k}") for k in range(-307, 309)])
    special = [0.0, 5e-324, 2.2250738585072009e-308, sys.float_info.min, sys.float_info.max,
               1.0, 1200.0, 1e22, 1e23]
    values = np.concatenate([bits, ties, *_ulp_neighbours(powers, 2),
                             *_ulp_neighbours(np.array([1e-5, 1e-4, 1e16, 1e17]), 40),
                             special, rng.uniform(0.0, 2.2e-308, 1000)])
    values = values[np.isfinite(values)]
    return np.concatenate([values, -values])


def _fallback_reason(value: float) -> str:
    """Why reports._float_rows may hand value to format(): outside its window, within 2**-30 of a
    17-digit tie, or within 1e-12 of a power of ten, where log10 may misplace it; exact."""
    a = abs(value)
    if not 1e-280 < a < 1e280:
        return "window"
    exponent = Decimal(a).adjusted()
    scaled = Fraction(a) * Fraction(10) ** (16 - exponent)
    if abs(scaled - math.floor(scaled) - Fraction(1, 2)) < Fraction(1, 2**30):
        return "tie"
    if scaled < 10**16 + 10**4 or scaled > 10**17 - 10**5:
        return "digits"
    return "none"


class TestFloatArrayCells:
    """A table of float arrays alone takes reports._float_rows, numpy's exact %.17g: its bytes
    are format()'s for every finite float, and each of its fallbacks to format() is taken."""

    def test_bytes_equal_format(self, tmp_path, monkeypatch):
        values = _float_cell_inputs(np.random.default_rng(20231))
        values = values[:len(values) // 3 * 3]
        taken = []

        def spy(value, spec):  # shadows the builtin in reports: each value the kernel hands on
            taken.append(value)
            return builtins.format(value, spec)
        monkeypatch.setattr(reports, "format", spy, raising=False)
        write_csv(tmp_path / "t.csv", ["a", "b", "c"], *values.reshape(-1, 3).T)
        monkeypatch.undo()
        separators = itertools.cycle([",", ",", "\r\n"])
        expected = "a,b,c\r\n" + "".join(format(value, ".17g") + separator
                                         for value, separator in zip(values.tolist(), separators))
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()
        reasons = [_fallback_reason(value) for value in taken]
        assert 0.0 not in taken  # zero is written by the kernel itself
        assert {"window", "tie", "digits"} <= set(reasons)
        assert "none" not in reasons
        assert len(taken) - reasons.count("window") < 0.01 * len(values)  # inside, rare

    @pytest.mark.parametrize("columns", [1, 3, 7, 11])
    def test_point_among_the_digits(self, tmp_path, columns):
        # 1 <= e <= 16: the point follows the (e+1)-th digit, or an integer's zeros come back
        powers = np.array([10.0**k for k in range(1, 18)])
        values = np.concatenate([
            [10.0, 100.0, 1200.0, 1e16, 120000.0, 9007199254740992.0, 99999999999999984.0],
            [12.5, 100.25, 1234.5, 99.99, 65536.125, 1000000.0000000001],
            [k / 10.0**j for k in (12, 123, 1001, 98765, 4503599627370497) for j in range(4)],
            *_ulp_neighbours(powers, 3)])
        values = np.concatenate([values, -values, [-0.0]])
        values = np.resize(values, len(values) + -len(values) % columns)  # whole rows
        write_csv(tmp_path / "t.csv", [f"c{k}" for k in range(columns)],
                  *values.reshape(-1, columns).T)
        rows = (tmp_path / "t.csv").read_bytes().decode().split("\r\n")[1:-1]
        assert [row.split(",") for row in rows] == [[format(value, ".17g") for value in row]
                                                    for row in values.reshape(-1, columns).tolist()]

    def test_float32_and_float16_widen_as_tolist_does(self, tmp_path):
        rng = np.random.default_rng(5)
        narrow = rng.integers(0, 2**32, 3000, dtype=np.uint64).astype(np.uint32).view(np.float32)
        narrow = narrow[np.isfinite(narrow)][:2000]
        half = rng.standard_normal(2000).astype(np.float16)
        write_csv(tmp_path / "t.csv", ["f32", "f16"], narrow, half)
        rows = "".join(f"{format(a, '.17g')},{format(b, '.17g')}\r\n"
                       for a, b in zip(narrow.tolist(), half.tolist()))
        assert (tmp_path / "t.csv").read_bytes() == ("f32,f16\r\n" + rows).encode()

    @pytest.mark.parametrize("columns, kernel", [
        ([np.array([0.5, -2.0]), np.array([1e30, 3.0], dtype=np.float32)], True),
        ([np.array([0.5, -2.0]), np.array([1, 2])], False),
        ([np.array([0.5, -2.0]), np.array([True, False])], False),
        ([np.array([0.5, -2.0]), [1.5, None]], False),
        ([np.array([1, 2])], False),
    ], ids=["float-arrays", "int-array", "bool-array", "list", "int-only"])
    def test_only_float_array_tables_take_the_kernel(self, tmp_path, monkeypatch, columns, kernel):
        calls, kernel_rows = [], reports._float_rows

        def spy(blocks):
            calls.append(len(blocks))
            return kernel_rows(blocks)
        monkeypatch.setattr(reports, "_float_rows", spy)
        header = [f"c{index}" for index in range(len(columns))]
        write_csv(tmp_path / "t.csv", header, *columns)
        assert bool(calls) == kernel
        plain = [column.tolist() if hasattr(column, "tolist") else column for column in columns]
        assert (tmp_path / "t.csv").read_bytes() == _reference_csv(header, plain)


def _plot_x(xs):
    """The x position function of the writer's plot area, 550 px from 70 px, for xs."""
    return reports._axis(xs, lambda f: 70 + f * 550)[2]


def _m4_reference(xs, ys) -> list[int]:
    """Per maximal run of consecutive points in one pixel column int(px), in order: the first
    and last points and the first points of least and greatest y, each once; or, in a run of
    at most four points, every point."""
    at = _plot_x(xs)
    columns = [int(at(x)) for x in xs]
    kept, start = [], 0
    for end in range(1, len(xs) + 1):
        if end < len(xs) and columns[end] == columns[start]:
            continue
        run = list(range(start, end))
        least = greatest = start
        for index in run:
            least = index if ys[index] < ys[least] else least
            greatest = index if ys[index] > ys[greatest] else greatest
        kept += run if len(run) <= 4 else sorted({start, end - 1, least, greatest})
        start = end
    return kept


def _points(body: bytes) -> str:
    return body.decode().split('points="')[1].split('"')[0]


@st.composite
def _crowded_series(draw):
    """Hundreds to thousands of points whose x takes a handful of values: sorted, shuffled,
    constant or signed zeros, with y from a few values, signed zeros or spread floats."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = draw(st.integers(100, 3000))
    values = np.array(draw(st.lists(_FLOATS, min_size=1, max_size=6)))
    x_kind = draw(st.sampled_from(["sorted", "shuffled", "constant", "signed-zeros"]))
    xs = {"sorted": np.sort(rng.choice(values, points)), "shuffled": rng.choice(values, points),
          "constant": np.full(points, values[0]),
          "signed-zeros": rng.choice([0.0, -0.0, values[0]], points)}[x_kind]
    y_kind = draw(st.sampled_from(["few", "signed-zeros", "spread"]))
    ys = {"few": rng.choice(values, points), "signed-zeros": rng.choice([0.0, -0.0], points),
          "spread": rng.standard_normal(points) * 10.0 ** rng.integers(-5, 5, points)}[y_kind]
    return xs.tolist(), ys.tolist()


class TestM4:
    """write_svg_polyline keeps per run of points in one pixel column its first, last, first
    least-y and first greatest-y points (M4), on lists with a loop and on arrays with numpy."""

    @settings(max_examples=100, deadline=None)
    @given(series=_crowded_series())
    @example(series=([0.0, -0.0] * 300, [-0.0, 0.0, 1.0] * 200))
    @example(series=([5.0] * 500, [2.0] * 500))
    def test_kept_points_are_each_runs_first_last_least_and_greatest(self, series):
        xs, ys = series
        expected = _m4_reference(xs, ys)
        assert reports._m4(xs, ys, _plot_x(xs)) == expected
        arrays = np.array(xs), np.array(ys)
        assert reports._m4(*arrays, _plot_x(arrays[0])).tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), columns=st.integers(2, 300),
           y_kind=st.sampled_from(["spread", "constant", "signed-zeros"]))
    def test_at_most_four_points_per_column_keeps_every_point(self, tmp_path_factory, seed,
                                                               columns, y_kind):
        # x takes the values 0..columns-1 in a drawn order, so that adjacent values lie at
        # least 1.8 px apart, and each value is held by 1 to 4 consecutive points
        rng = np.random.default_rng(seed)
        xs = np.repeat(rng.permutation(columns), rng.integers(1, 5, columns)).astype(float)
        ys = {"spread": rng.standard_normal(len(xs)) * 10.0 ** rng.integers(-5, 5, len(xs)),
              "constant": np.full(len(xs), -3.5),
              "signed-zeros": rng.choice([0.0, -0.0], len(xs))}[y_kind]
        # the all-points polyline, each point placed as the writer placed it before M4
        x_lo, x_span = xs.min(), xs.max() / 2 - xs.min() / 2
        y_lo, y_span = ys.min(), ys.max() / 2 - ys.min() / 2
        reference = " ".join("%.6g,%.6g" % (70 + (x / 2 - x_lo / 2) / x_span * 550,
                                            40 + (1.0 - ((y / 2 - y_lo / 2) / y_span
                                                         if y_span else 0.5)) * 350)
                             for x, y in zip(xs.tolist(), ys.tolist()))
        for pair in [(xs.tolist(), ys.tolist()), (xs, ys)]:
            path = tmp_path_factory.mktemp("svg") / "p.svg"
            write_svg_polyline(path, *pair, title="t", x_label="X", y_label="Y")
            assert _points(path.read_bytes()) == reference

    @settings(max_examples=60, deadline=None)
    @given(series=_crowded_series())
    @example(series=([0.0, -0.0] * 300, [-0.0, 0.0] * 300))
    @example(series=([-0.0, 0.0] * 300, [0.0, -0.0] * 300))
    def test_lists_arrays_and_mixed_pairs_write_the_same_bytes(self, tmp_path_factory, series):
        xs, ys = series
        outcomes = [_outcome(tmp_path_factory.mktemp("svg"), lambda path: write_svg_polyline(
                        path, x, y, title="t", x_label="X", y_label="Y"))
                    for x, y in [(xs, ys), (np.array(xs), np.array(ys)),
                                 (np.array(xs), ys), (xs, np.array(ys))]]
        assert outcomes[0] == outcomes[1] == outcomes[2] == outcomes[3]
        assert _points(outcomes[0]).count(" ") + 1 == len(_m4_reference(xs, ys))
        x_lo, x_hi = min(xs), max(xs)  # of every point, kept or not
        if x_hi / 2 - x_lo / 2:  # else the labels lie either side of the one x
            assert all(f">{x:.6g}</text>".encode() in outcomes[0] for x in (x_lo, x_hi))
