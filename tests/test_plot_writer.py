"""write_svg_polyline: escaped text, errors that name the file, and standard-library arrays."""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynamokit
from dynamokit.reports import write_csv, write_svg_polyline

_SVG = "{http://www.w3.org/2000/svg}"


def test_plot_text_is_escaped_and_parses(tmp_path):
    path = tmp_path / "p.svg"
    write_svg_polyline(path, [0.0, 1.0, 2.0], [1.0, 4.0, 9.0],
                       title="a < b & c", x_label="x<1", y_label="y > 0 & <1>")
    texts = [element.text for element in ET.parse(path).getroot().iter(_SVG + "text")]
    assert texts == ["a < b & c", "0", "2", "1", "9", "x<1", "y > 0 & <1>"]


def test_plot_text_that_xml_forbids_reads_back_as_replacement_characters(tmp_path):
    path = tmp_path / "p.svg"
    write_svg_polyline(path, [0.0, 1.0], [1.0, 4.0], title="a\x01b", x_label="\ud800",
                       y_label="\x00\t\ufffe\U0001f600")
    texts = [element.text for element in ET.parse(path).getroot().iter(_SVG + "text")]
    assert texts == ["a\ufffdb", "0", "1", "1", "4", "\ufffd", "\ufffd\t\ufffd\U0001f600"]


@settings(max_examples=50, deadline=None)
@given(title=st.text(), x_label=st.text(), y_label=st.text())
def test_any_plot_text_writes_an_svg_that_parses(tmp_path_factory, title, x_label, y_label):
    path = tmp_path_factory.mktemp("plot") / "p.svg"
    write_svg_polyline(path, [0.0, 1.0], [1.0, 4.0], title=title, x_label=x_label,
                       y_label=y_label)
    assert len(list(ET.parse(path).getroot().iter(_SVG + "text"))) == 7


@pytest.mark.parametrize("as_array", [False, True], ids=["lists", "arrays"])
@pytest.mark.parametrize("xs, ys, message", [
    ([], [], "no points to plot"),
    ([0.0, 1.0, 2.0], [1.0, 2.0], r"series lengths \[3, 2\] for 2 names"),
    ([0.0], [1.0, math.inf], r"series lengths \[1, 2\] for 2 names"),
], ids=["empty", "unequal", "unequal-non-finite"])
def test_plot_errors_name_the_file(tmp_path, as_array, xs, ys, message):
    path = tmp_path / "p.svg"
    if as_array:
        xs, ys = np.array(xs), np.array(ys)
    with pytest.raises(ValueError, match=rf"^p\.svg: {message}$"):
        write_svg_polyline(path, xs, ys, title="t", x_label="X", y_label="Y")
    assert not path.exists()


def test_stdlib_arrays_write_list_bytes_without_numpy(tmp_path):
    # 3000 points over 550 pixel columns, so that M4 drops points from runs of five or more
    xs = [i / 7.0 for i in range(3000)]
    ys = [(i * 7919 % 1013) / 97.0 - 5.0 for i in range(3000)]
    script = (
        "import json, sys\n"
        "from array import array\n"
        "from dynamokit.reports import write_csv, write_svg_polyline\n"
        "out = sys.argv[1]\n"
        "with open(out + '/series.json') as fh:\n"
        "    xs, ys = (array('d', column) for column in json.load(fh))\n"
        "write_svg_polyline(out + '/a.svg', xs, ys, title='t', x_label='X', y_label='Y')\n"
        "write_svg_polyline(out + '/m.svg', memoryview(xs), tuple(ys), title='t', x_label='X',\n"
        "                   y_label='Y')\n"
        "write_csv(out + '/a.csv', ['x', 'y'], xs, ys)\n"
        "print('numpy' in sys.modules)\n"
    )
    (tmp_path / "series.json").write_text(json.dumps([xs, ys]))
    env = dict(os.environ, PYTHONPATH=str(Path(dynamokit.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n", "an array('d') series or column loaded numpy"
    write_svg_polyline(tmp_path / "l.svg", xs, ys, title="t", x_label="X", y_label="Y")
    write_csv(tmp_path / "l.csv", ["x", "y"], xs, ys)
    plot = (tmp_path / "l.svg").read_bytes()
    assert len(plot.split(b'points="')[1].split()) < 3000  # M4 kept fewer points than given
    assert (tmp_path / "a.svg").read_bytes() == plot
    assert (tmp_path / "m.svg").read_bytes() == plot
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "l.csv").read_bytes()
