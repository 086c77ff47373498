"""Smoke test of scripts/extension_constants.py, the survey of extension
constants over the curves w^m = B(z)."""

import importlib.util
import math
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "extension_constants.py"


def load_script():
    spec = importlib.util.spec_from_file_location("extension_constants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_survey_prints_one_row_per_curve(capsys):
    load_script().survey()
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["curve", "m", "C", "C_swapped", "sqrt(m)"]
    assert len(rows) == 8
    for row in rows:
        m, c, c_swapped, sqrt_m = row[34:].split()
        assert math.isclose(float(sqrt_m), math.sqrt(int(m)), abs_tol=1e-6)
        # every curve of the family is smooth on the torus, so both
        # orientations give a constant of at least sqrt(m)
        assert float(c) >= float(sqrt_m) - 1e-6
        assert float(c_swapped) >= 1.0
        if "monomial" in row or row.startswith(f"w^{m} = z^{m}"):
            assert math.isclose(float(c), math.sqrt(int(m)), abs_tol=1e-6)
