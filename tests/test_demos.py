"""The demo scripts run to completion against the installed package."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", ["stokes_solve.py", "exponent_classes.py", "spectral_toolbox.py",
                                    "coupled_run.py", "transport_demo.py"])
def test_demo_runs(script, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out.strip()
