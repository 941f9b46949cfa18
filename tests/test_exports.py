"""Every exported name resolves, README's quick start runs on the exports, and the
benchmark's traced run finds what it wraps."""

import importlib
import os
import re
import subprocess
import sys

import pytest

import lossyboson

MODULES = ("circuit", "cli", "errors", "mps", "numerics", "oracle", "rng", "sampler", "thermal")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_package_exports_resolve():
    missing = [name for name in lossyboson.__all__ if not hasattr(lossyboson, name)]
    assert missing == []


def test_readme_quick_start_runs_on_the_exports():
    """The "Library quick start" block runs as written and uses only exported names."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    code = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    used = set(re.findall(r"\blb\.(\w+)", code))
    assert used and used <= set(lossyboson.__all__)
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"lossyboson.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_traced_benchmark_wraps_existing_functions():
    """perfbench/traced.py wraps functions by name; a deleted one breaks `--trace 1`."""
    code = "import traced; traced.install(traced.Tracer())"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
