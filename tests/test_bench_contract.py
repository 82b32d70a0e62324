"""The names the benchmark's traced run wraps must exist in hermweb.

bench/tracing.py rebinds these attributes by name; a rename or a removed
`np` would make `bench/run.py --trace 1` fail or silently record nothing.
"""

import importlib
import runpy
from pathlib import Path

import numpy as np
import pytest

# run_path compiles from source, so nothing is written under bench/
TRACING = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "tracing.py"))


@pytest.mark.parametrize("module_name, attr", sorted(TRACING["FUNCTIONS"].values()))
def test_traced_function_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("module_name, attr", sorted(TRACING["CONSTRUCTORS"].values()))
def test_traced_constructor_validates_in_post_init(module_name, attr):
    cls = getattr(importlib.import_module(module_name), attr)
    assert callable(getattr(cls, "__post_init__", None))


@pytest.mark.parametrize("module_name", TRACING["NUMPY_USERS"])
def test_numpy_user_exposes_np(module_name):
    assert importlib.import_module(module_name).np is np
