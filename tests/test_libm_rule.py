"""The libm rule (DESIGN.md §6), checked on the source.

numpy dispatches its float64 ``exp``, ``log``, ``log10``, ``arcsin`` and
``power`` to SIMD code chosen by the host CPU, which can differ from libm
in the last bit, so the simulator's link kernel and coordinates call
``math`` per element instead.  The simulator pin only notices a slip on a
CPU whose dispatch differs; this test notices it anywhere.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
CHECKED = ("campaign/link.py", "geo/coords.py")
FORBIDDEN = {"exp", "log", "log10", "arcsin", "power", "expm1", "log1p"}


def numpy_libm_calls(source: str) -> list[str]:
    """Every ``np.<f>(...)`` or ``numpy.<f>(...)`` call of a forbidden
    ufunc in ``source``, as ``line: name``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in FORBIDDEN
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            found.append((node.lineno, f"{node.lineno}: {node.func.value.id}.{node.func.attr}"))
    return [call for _, call in sorted(found)]


@pytest.mark.parametrize("path", CHECKED)
def test_no_cpu_dispatched_ufuncs(path):
    assert numpy_libm_calls((SRC / path).read_text()) == []


def test_checker_finds_forbidden_calls():
    source = "import numpy as np\nx = np.exp(a) + np.sqrt(b)\ny = numpy.log10(c)\nz = math.exp(d)\n"
    assert numpy_libm_calls(source) == ["2: np.exp", "3: numpy.log10"]
