"""Checks on the package source for breaks that the installed NumPy cannot show.

pyproject.toml declares numpy>=1.24, but the numpy.fft functions accept an
out= keyword only from NumPy 2.0: a call that passes it runs here and
raises TypeError under NumPy 1.x.
"""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "nnstokes").glob("*.py"))


def fft_calls_with_out(source: str):
    """(line, callee) of every np.fft.* or numpy.fft.* call that passes out=."""
    return [(node.lineno, ast.unparse(node.func)) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and ast.unparse(node.func).startswith(("np.fft.", "numpy.fft."))
            and any(kw.arg == "out" for kw in node.keywords)]


def test_sources_found():
    assert any(path.name == "spectral.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_fft_call_passes_out(path):
    assert fft_calls_with_out(path.read_text(encoding="utf-8")) == []


def test_guard_flags_an_fft_out():
    source = "np.fft.ifft(a, axis=0, out=b)\nnp.multiply(a, 0.5, out=c)\nnumpy.fft.rfft(a, out=d)\n"
    assert fft_calls_with_out(source) == [(1, "np.fft.ifft"), (3, "numpy.fft.rfft")]
