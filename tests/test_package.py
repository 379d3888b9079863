import os
import subprocess
import sys
from pathlib import Path

import pytest

import dynamokit
from dynamokit import filament, frenet, maps, tube


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
    env = dict(os.environ, PYTHONPATH=str(Path(dynamokit.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
