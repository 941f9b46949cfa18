"""Every exported name resolves, and the benchmark's traced run finds what it wraps."""

import importlib
import os
import subprocess
import sys

import pytest

import lossyboson

MODULES = ("circuit", "cli", "errors", "mps", "numerics", "oracle", "rng", "sampler", "thermal")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_package_exports_resolve():
    missing = [name for name in lossyboson.__all__ if not hasattr(lossyboson, name)]
    assert missing == []


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
