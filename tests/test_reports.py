import json
import math

import pytest

from dynamokit.reports import format_float, json_dumps, write_csv, write_json, write_svg_polyline


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


class TestWriters:
    def test_csv_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], [(1, 0.1, None), ("x", True, -2.0)])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "a,b,c"
        assert lines[1] == "1,0.10000000000000001,"
        assert lines[2] == "x,true,-2"

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
