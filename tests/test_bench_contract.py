"""The benchmark's contract with hermweb.

bench/tracing.py rebinds attributes by name; a rename or a removed `np`
would make `bench/run.py --trace 1` fail or silently record nothing.  The
workloads' own oracles (bench/oracles.py) must accept hermweb's output.
"""

import importlib
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

import hermweb
import hermweb.cli  # noqa: F401  (the inspect workload calls hw.cli.main)

BENCH = Path(__file__).resolve().parents[1] / "bench"
# run_path compiles from source, so nothing is written under bench/
TRACING = runpy.run_path(str(BENCH / "tracing.py"))


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


def test_traced_gmres_solves_as_the_direct_call():
    # bench/tracing.py wraps ma.gmres and the operator's matvec, and counts
    # the iterations through gmres's callback
    from hermweb import ma

    rng = np.random.default_rng(0)
    n = 60
    A = 2.0 * np.eye(n) + rng.normal(size=(n, n)) / np.sqrt(n)
    b = rng.normal(size=n)
    op = ma.LinearOperator((n, n), matvec=lambda v: A @ v, dtype=np.float64)
    x, info, iterations = ma.gmres(op, b, rtol=1e-12, maxiter=10)
    assert info == 0 and iterations > ma._LINEAR_RESTART

    tracer = TRACING["Tracer"]()
    traced = TRACING["_traced_gmres"](tracer, ma.gmres, ma.LinearOperator)
    x_traced, info_traced, iterations_traced = traced(op, b, rtol=1e-12, maxiter=10)
    assert x_traced.tobytes() == x.tobytes()
    assert (info_traced, iterations_traced) == (info, iterations)
    assert tracer.counts["ma.gmres_iters"] == iterations
    names = [span[0] for span in tracer.spans]
    assert names.count("ma.gmres") == 1 and "ma.matvec" in names


@pytest.fixture(scope="module")
def workloads():
    """bench/workloads.py and the oracles it imports, with no bytecode
    written under bench/."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        mp.setattr(sys, "dont_write_bytecode", True)
        try:
            yield runpy.run_path(str(BENCH / "workloads.py"))["WORKLOADS"]
        finally:
            sys.modules.pop("oracles", None)


# index 0 of ma2/ma3 is a Ricci-flat case, index 1 a manufactured one
@pytest.mark.parametrize(
    "name, index", [("flow", 0), ("ma2", 0), ("ma2", 1), ("ma3", 0), ("ma3", 1), ("inspect", 0)]
)
def test_workload_output_passes_its_oracle(workloads, name, index, tmp_path):
    workload = workloads[name]
    inp = workload.make_inputs(1, tmp_path)[index]
    problems, _ = workload.check(inp, workload.run(hermweb, inp))
    assert problems == []
