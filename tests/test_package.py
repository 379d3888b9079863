import copy
import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynamokit
from dynamokit import filament, frenet, maps, tube

# dynamokit.__all__: every name in the __all__ of filament, frenet, maps and tube, and
# the submodules filament, finitediff, frenet, maps and tube
PUBLIC_NAMES = [
    "CurveProfile", "FieldVector", "FilamentMatrix", "FilamentParams", "FrameTrajectory",
    "FrenetFrame", "GrowthRateResult", "LinearTorusMap", "MAX_STEPS", "MapClassification",
    "MetricDegeneracyWarning", "ORTHONORMALITY_TOL", "PARABOLIC_TOL", "PROVENANCE_DERIVED",
    "PROVENANCE_STATED", "QuadraticEigenproblem", "REGIME_DEGENERATE", "REGIME_FAST_CANDIDATE",
    "REGIME_NON_DYNAMO_PLANAR", "REGIME_SLOW", "RadialGrid", "TorusPoint", "TubeFlowField",
    "accumulated_rotation_angle", "alpha_effect", "alpha_effect_discrepancy", "apply_map",
    "arnold_line_element", "beltrami_alignment", "build_filament_matrix", "classify",
    "classify_dynamo", "compact_operator_apply", "determinant_condition_residual",
    "eigenvalue_discrepancy_report", "eliminate_eigenvalue", "filament", "filament_gradient",
    "filament_line_element", "finitediff", "frenet", "frenet_rhs", "growth_rate",
    "growth_rate_per_step", "incompressibility_defect", "integrate_frame", "iterate_orbit",
    "log_radial_check", "make_cat_map", "make_cat_shear_map", "make_thin_tube_map",
    "make_tube_twist_map", "make_twist_map", "maps", "paper_eigenproblem", "poloidal_residual",
    "pressure_blowup_check", "pressure_profile", "radial_derivative",
    "radial_pressure_residual", "radial_second_derivative", "solve_growth_rate",
    "stretch_factor", "time_evolution_rhs", "toroidal_residual", "transport_field", "tube",
    "tube_gradient", "tube_line_element", "twist_angle", "velocity_profile", "vorticity",
]
# The dynamokit submodules each default command loads: its own kernel and what that imports
COMMAND_MODULES = {
    "map": {"cli", "reports", "maps"},
    "tube": {"cli", "reports", "maps", "tube", "finitediff"},
    "filament": {"cli", "reports", "filament", "maps"},
    "frenet": {"cli", "reports", "frenet"},
}


def _kappa_of_s(s):
    return 2.0 + math.sin(s)


def _tau_of_s(s):
    return 0.5 * s


def _kappa_prime_of_s(s):
    return math.cos(s)


def _value_instances() -> list:
    """One instance of every public dataclass, two of CurveProfile (constant and callable)."""
    grid = tube.RadialGrid(0.1, 1.0, 16, "linear")
    curve = frenet.CurveProfile.constant(1.0, 0.5)
    params = filament.FilamentParams(0.1, 1.0, 0.5, 1.0, 0.2, 0.3, 1.0)
    return [
        maps.make_cat_map(), maps.classify(maps.make_cat_map()), maps.TorusPoint(0.25, 1.5),
        maps.FieldVector(1.0, -2.0),
        curve, frenet.CurveProfile(_kappa_of_s, _tau_of_s),
        frenet.CurveProfile(_kappa_of_s, 0.25, _kappa_prime_of_s),
        frenet.FrenetFrame.canonical(),
        frenet.integrate_frame(curve, 0.0, 0.1, 0.01, frenet.FrenetFrame.canonical()),
        grid, tube.TubeFlowField.eigen_ansatz(grid, 2.0), tube.eliminate_eigenvalue(),
        params, filament.build_filament_matrix(params),
        filament.solve_growth_rate(0.1, params.A, params.B, params.C),
    ]


def _state(value) -> dict:
    """Every attribute an instance holds: its __dict__, or its fields when slotted."""
    if hasattr(value, "__dict__"):
        return vars(value)
    return {field.name: getattr(value, field.name) for field in dataclasses.fields(value)}


def _fresh_python(script: str, *args: str) -> str:
    """Run script in a new interpreter that imports dynamokit from this checkout; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(dynamokit.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_public_names_resolve():
    for name in dynamokit.__all__:
        assert getattr(dynamokit, name) is not None


@pytest.mark.parametrize("module", [filament, frenet, maps, tube], ids=lambda m: m.__name__)
def test_package_exports_each_module_public_name(module):
    for name in module.__all__:
        assert name in dynamokit.__all__
        assert getattr(dynamokit, name) is getattr(module, name)


def test_version_string():
    assert dynamokit.__version__ == "0.1.0"


def test_runtime_never_imports_sympy(tmp_path):
    # sympy belongs to the symbolic identity checks only; the package import
    # and every CLI command at its defaults must run without it
    script = (
        "import sys\n"
        "import dynamokit\n"
        "from dynamokit import cli\n"
        "for command in ('map', 'tube', 'filament', 'frenet'):\n"
        "    assert cli.main(['--command', command, '--out', sys.argv[1] + '/' + command]) == 0\n"
        "print('sympy' in sys.modules)\n"
    )
    assert _fresh_python(script, str(tmp_path)).strip() == "False"


def test_runtime_dependency_is_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert project["optional-dependencies"]["symbolic"] == ["sympy>=1.12"]
    assert "sympy>=1.12" in project["optional-dependencies"]["test"]


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_its_own_kernel(command, tmp_path):
    # as the console script runs it: import dynamokit.cli, call main
    script = (
        "import json, sys\n"
        "import numpy\n"
        "eager_ma = 'numpy.ma' in sys.modules\n"
        "from dynamokit.cli import main\n"
        "assert main(['--command', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "loaded = sorted(name[10:] for name in sys.modules if name.startswith('dynamokit.'))\n"
        "print(json.dumps([loaded, eager_ma or 'numpy.ma' not in sys.modules]))\n"
    )
    loaded, no_ma = json.loads(_fresh_python(script, command, str(tmp_path)))
    assert set(loaded) == COMMAND_MODULES[command]
    assert no_ma, "the run imported numpy.ma, which numpy itself does not"


def test_float_cell_tables_are_built_by_float_array_tables_alone(tmp_path):
    # the CSV kernel's digit table and powers of ten: none at import, none for the list tables
    # of map and filament; a tube run builds them and still leaves numpy.ma unloaded
    script = (
        "import json, sys\n"
        "from dynamokit import reports\n"
        "built = lambda: [reports._cell_tables.cache_info().currsize,\n"
        "                 reports._pow10.cache_info().currsize]\n"
        "sizes = [built()]\n"
        "from dynamokit.cli import main\n"
        "for command in ('map', 'filament', 'tube'):\n"
        "    assert main(['--command', command, '--out', sys.argv[1] + '/' + command]) == 0\n"
        "    sizes.append(built())\n"
        "print(json.dumps([sizes, 'numpy.ma' in sys.modules]))\n"
    )
    sizes, ma = json.loads(_fresh_python(script, str(tmp_path)))
    assert sizes[:3] == [[0, 0]] * 3
    assert sizes[3][0] == 1 and sizes[3][1] > 0
    assert not ma


@pytest.mark.parametrize("command", ["map", "filament"])
def test_map_and_filament_run_without_numpy(command, tmp_path):
    # both compute on Python floats and write through the standard library alone
    run = ("from dynamokit.cli import main\n"
           "print(main(['--command', sys.argv[1], '--out', sys.argv[2]]))\n")
    loaded = _fresh_python(f"import sys\n{run}print('numpy' in sys.modules)\n",
                           command, str(tmp_path / "free"))
    assert loaded.split() == ["0", "False"]
    # a None entry makes every later `import numpy` raise ImportError
    blocked = _fresh_python(f"import sys\nsys.modules['numpy'] = None\n{run}",
                            command, str(tmp_path / "blocked"))
    assert blocked.split() == ["0"]
    assert sorted(path.name for path in (tmp_path / "blocked").iterdir()) \
        == sorted(path.name for path in (tmp_path / "free").iterdir())


def test_bare_import_loads_no_kernel_and_no_numpy():
    script = (
        "import sys\n"
        "import dynamokit\n"
        "print(sorted(name for name in sys.modules if name.startswith(('dynamokit', 'numpy'))))\n"
    )
    assert _fresh_python(script).strip() == "['dynamokit']"


def test_all_lists_the_public_names():
    script = "import dynamokit\nprint(repr(dynamokit.__all__))\n"
    assert _fresh_python(script).strip() == repr(PUBLIC_NAMES)
    assert dynamokit.__all__ == PUBLIC_NAMES


def test_star_import_binds_every_public_name():
    script = (
        "import json\n"
        "import dynamokit\n"
        "from dynamokit import *\n"
        "bound = [name for name in dynamokit.__all__ if name in globals()\n"
        "         and globals()[name] is getattr(dynamokit, name)]\n"
        "print(json.dumps(bound))\n"
    )
    assert json.loads(_fresh_python(script)) == PUBLIC_NAMES


def test_dir_lists_every_public_name():
    script = "import json\nimport dynamokit\nprint(json.dumps(dir(dynamokit)))\n"
    listed = json.loads(_fresh_python(script))
    assert set(PUBLIC_NAMES) <= set(listed)
    assert listed == sorted(listed)
    assert "__version__" in listed
    assert set(dynamokit.__all__) <= set(dir(dynamokit))  # __dir__ in this process too


@pytest.mark.parametrize("name", ["no_such_name", "_private", "__wrapped__", "derivative_uniform"])
def test_unknown_name_raises_attribute_error_naming_it(name):
    with pytest.raises(AttributeError, match=f"module 'dynamokit' has no attribute '{name}'"):
        getattr(dynamokit, name)
    with pytest.raises(ImportError, match=name):
        exec(f"from dynamokit import {name}", {})


def test_matrix_loads_numpy_only_when_read():
    script = (
        "import sys\n"
        "import dynamokit.maps\n"
        "loaded = 'numpy' in sys.modules\n"
        "dynamokit.maps.make_cat_map().matrix\n"
        "print(loaded, 'numpy' in sys.modules)\n"
    )
    assert _fresh_python(script).split() == ["False", "True"]


def test_value_instances_cover_every_public_dataclass():
    public = {name for name in dynamokit.__all__
              if dataclasses.is_dataclass(getattr(dynamokit, name))}
    assert {type(value).__name__ for value in _value_instances()} == public


@pytest.mark.parametrize("value", _value_instances(), ids=lambda value: type(value).__name__)
def test_value_types_pickle_deep_copy_compare_and_hash(value):
    # numpy drops the read-only flag of an array on both round trips; the next test checks
    # that the types restore it
    assert value == value
    hash(value)
    by_identity = type(value).__eq__ is object.__eq__
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value)
        state, twin_state = _state(value), _state(twin)
        assert twin_state.keys() == state.keys()
        for key, item in state.items():
            assert (np.array_equal(twin_state[key], item) if isinstance(item, np.ndarray)
                    else twin_state[key] == item), key
        assert (twin != value) if by_identity else (twin == value and hash(twin) == hash(value))


@pytest.mark.parametrize("value", [value for value in _value_instances()
                                   if any(isinstance(item, np.ndarray)
                                          for item in _state(value).values())],
                         ids=lambda value: type(value).__name__)
def test_round_trip_keeps_arrays_read_only(value):
    for twin in (value, pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        flags = {key: item.flags.writeable for key, item in _state(twin).items()
                 if isinstance(item, np.ndarray)}
        assert flags and not any(flags.values()), flags


@pytest.mark.parametrize("profile", [value for value in _value_instances()
                                     if isinstance(value, frenet.CurveProfile)])
def test_curve_profile_round_trip_keeps_its_values(profile):
    twin = pickle.loads(pickle.dumps(profile))
    for s in (0.0, 0.7):
        assert (twin.kappa_at(s), twin.tau_at(s), twin.kappa_prime_at(s)) \
            == (profile.kappa_at(s), profile.tau_at(s), profile.kappa_prime_at(s))
