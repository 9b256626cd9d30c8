import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import confmod


@pytest.mark.parametrize("name", ("geometry", "confgroup", "flows", "modular", "chiral"))
def test_all_names_exist_and_star_import(name):
    # every exported name is defined, once, and a star import binds them all
    module = importlib.import_module(f"confmod.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from confmod.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def _run_python(code):
    src = str(Path(confmod.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_numpy_is_the_only_runtime_dependency():
    # importing the package loads no scipy module, and with scipy made
    # unimportable the default run still produces every check record
    loaded = _run_python("import sys, confmod, confmod.cli\n"
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert loaded == "[]"
    count = _run_python("import sys\nsys.modules['scipy'] = None\n"
                        "from confmod import cli\nprint(len(cli.run(cli.SuiteConfig()).checks))")
    assert count == "53"
