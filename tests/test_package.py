"""The lazy package namespace and the BLAS thread count of a CLI process."""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvedq

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# prints the thread variables and the OS threads of the process, as JSON
REPORT = (
    "import json, os; print(json.dumps([{k: v for k, v in os.environ.items() if k in %r},"
    " len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None]))" % (THREAD_VARS,)
)


def _fresh(code, **env):
    """Run code in a fresh interpreter on the checkout's src/, with no thread
    variable set but those given; its last stdout line as JSON."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**base, "PYTHONPATH": str(SRC), **env},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_curvedq_loads_no_numpy():
    code = "import json, sys, curvedq; print(json.dumps(sorted(m for m in sys.modules if m.startswith(('numpy', 'curvedq.')))))"
    assert _fresh(code) == []


def test_open_patch_hermiticity_loads_no_numpy_polynomial():
    # the open patch's Gauss-Legendre rule comes from the Legendre recurrence
    code = (
        "import json, sys; from curvedq.geometry import graph_metric_patch;"
        " from curvedq.operators import hermitian_momenta, hermiticity_residual;"
        " from curvedq.shapes import parse_shape;"
        " patch = graph_metric_patch(parse_shape('1.5+0.2*sin(rho)'), (0.5, 1.5));"
        " f = parse_shape('(rho-0.5)*(1.5-rho)');"
        " r = hermiticity_residual(hermitian_momenta(patch)[0], patch, f, f);"
        " print(json.dumps([bool(r < 1e-12), 'numpy.polynomial' in sys.modules]))"
    )
    assert _fresh(code) == [True, False]


def test_no_subcommand_loads_numpy_random():
    # check draws its shapes and points from the standard library's random.Random
    code = (
        "import json, os, sys; from curvedq.cli import run;"
        " codes = [run(argv + ['-o', os.devnull]) for argv in (['check', '--samples', '5'], ['magic', '--nu', '2'],"
        " ['spectrum', '--alpha', '0.5'], ['compare', '--alpha', '1/3'], ['curvature', '--torus', '3', '1'])];"
        " print(json.dumps([codes, sorted(m for m in ('numpy.random', 'secrets') if m in sys.modules)]))"
    )
    assert _fresh(code) == [[0] * 5, []]

def test_every_public_name_resolves_to_its_home_module_object():
    names = [name for name in curvedq.__all__ if name != "__version__"]
    assert len(names) == len(set(names)) == 38
    listed = dir(curvedq)
    for name in names:
        obj = getattr(curvedq, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert obj.__module__.startswith("curvedq."), name
        assert name in listed, name
    for module in ("jets", "shapes", "geometry", "operators", "torus"):
        assert getattr(curvedq, module) is sys.modules[f"curvedq.{module}"]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        curvedq.no_such_name
    namespace = {}
    exec("from curvedq import *", namespace)
    assert set(curvedq.__all__) <= set(namespace)


_LINUX = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")


@_LINUX
def test_cli_process_runs_one_blas_thread():
    thread_vars, threads = _fresh("import curvedq.cli; " + REPORT)
    assert thread_vars == {"OPENBLAS_NUM_THREADS": "1"}
    assert threads == 1


@_LINUX
@pytest.mark.parametrize("preset", [{"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}])
def test_cli_keeps_the_thread_variables_the_user_set(preset):
    thread_vars, _ = _fresh("import curvedq.cli; " + REPORT, **preset)
    assert thread_vars == preset


def test_cli_leaves_the_environment_of_a_process_with_numpy_loaded():
    code = "import json, os, numpy; before = dict(os.environ); import curvedq.cli; print(json.dumps(dict(os.environ) == before))"
    assert _fresh(code) is True


def test_what_only_the_tests_reach_is_not_public():
    from curvedq import operators, parse_shape, shapes, torus, torus_metric_patch

    patch = torus_metric_patch(3.0, 1.0)
    f = parse_shape("sin(rho)")
    with pytest.raises(TypeError):  # one fixed rule: no n_points
        operators.hermiticity_residual(operators.hermitian_momenta(patch)[0], patch, f, f, n_points=512)
    assert tuple(field.name for field in dataclasses.fields(torus.SpectrumResult)) == ("entries",)
    for name in ("jacobi_eigh", "JacobiConvergenceError", "overlap_analytic"):  # references of the tests
        assert name not in curvedq.__all__, name
        assert callable(getattr(torus, name)), name
    assert not hasattr(shapes, "FUNCTION_NAMES")


def test_every_function_the_span_tracer_wraps_resolves_in_its_module():
    # bench/spans.py looks each (module, function) of TARGETS up with a bare getattr, in traced
    # runs only; loading it imports dataclasses, sys and time alone
    spec = importlib.util.spec_from_file_location("bench_spans", SRC.parent / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, name in spans.TARGETS:
        assert callable(getattr(importlib.import_module(f"curvedq.{module}"), name)), (module, name)
