"""scipy.special is imported on first use, not with the package, and
numpy.ma, which np.unique imports, not at all on scipy-free laws.

Each check runs in a fresh interpreter, since the test process itself has
scipy loaded long before these tests run.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from lorenzkit import index_report, lognormal

SRC = pathlib.Path(__file__).parents[1] / "src"


def _fresh(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def _loads_special(code: str) -> bool:
    out = _fresh("-c", code + "\nimport sys; print('scipy.special' in sys.modules)")
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1] == "True"


def test_import_leaves_scipy_out():
    out = _fresh("-c", "import lorenzkit, sys; print([m for m in sys.modules if 'scipy' in m])")
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "call",
    [
        "L.index_report(L.discrete([0.0, 1.0, 1.0, 5.0]))",
        "L.index_report(L.uniform(0.0, 2.0))",
        "L.index_report(L.exponential(1.0))",
        "L.index_report(L.mixture([(0.3, L.atom(0.0)), (0.7, L.exponential(1.0))]))",
        "L.w1_routes(L.discrete([1.0, 2.0, 7.0]), L.discrete([0.5, 3.0]))",
    ],
)
def test_scipy_free_laws_never_load_it(call):
    assert not _loads_special(f"import lorenzkit as L\n{call}")


@pytest.mark.parametrize(
    "law",
    ["L.exponential(2.0)", "L.uniform(0.5, 3.0)", "L.kde([0.2, 0.5, 1.5], 'epanechnikov', 0.25)"],
)
def test_support_end_of_a_scipy_free_law_never_loads_it(law):
    # the supremum is support_hi(0.0), which reads no special function here
    code = f"import lorenzkit as L\nd = {law}\nd.sup_support()\nL.lorenz(d).left_derivative(1.0)"
    assert not _loads_special(code)


def test_scipy_free_laws_never_load_numpy_ma():
    # np.unique asks numpy.ma whether its input is masked; the package
    # dedupes with quadrature._unique, and the memo's np.unique with
    # return_inverse never asks
    code = (
        "import sys, lorenzkit as L\n"
        "mix = L.mixture([(0.3, L.atom(0.0)), (0.7, L.exponential(1.0))])\n"
        "for d in (L.discrete([0.0, 1.0, 1.0, 5.0]), L.uniform(0.0, 2.0), mix):\n"
        "    L.index_report(d)\n"
        "L.w1_routes(L.discrete([1.0, 2.0, 7.0]), L.discrete([0.5, 3.0]))\n"
        "L.w1_routes(L.discrete([1.0, 2.0, 7.0]), mix)\n"
        "L.w1_routes(L.uniform(0.0, 2.0), mix)\n"
        "print('numpy.ma' in sys.modules)"
    )
    out = _fresh("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"


def test_lognormal_loads_it_and_reports_the_same():
    code = (
        "import json, lorenzkit as L\n"
        "print(json.dumps(L.index_report(L.lognormal(0.0, 1.0)).to_json_dict()))"
    )
    assert _loads_special(code)
    fresh = json.loads(_fresh("-c", code).stdout)
    assert fresh == json.loads(json.dumps(index_report(lognormal(0.0, 1.0)).to_json_dict()))


def test_cli_index_on_a_scipy_free_law():
    # -X importtime lists every module the process imports on stderr
    out = _fresh(
        "-X", "importtime", "-m", "lorenzkit.cli", "index", "mix(0.5*atom(1),0.5*uniform(0,2))"
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["max_cross_route_residual"] <= 1e-4
    assert "lorenzkit.measures" in out.stderr
    assert "scipy" not in out.stderr
