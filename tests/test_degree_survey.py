"""Smoke test of scripts/degree_survey.py, the classification of generated
Haar distinguished varieties of growing degree."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "degree_survey.py"


def load_script():
    spec = importlib.util.spec_from_file_location("degree_survey", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_degree_8_varieties_are_proven_distinguished():
    script = load_script()
    rows = script.survey(degrees=(8,))
    assert [(d, s) for d, s, *_ in rows] == [(8, 1), (8, 2)]
    for _, _, label, proven, samples in rows:
        assert (label, proven) == ("DVDefining", True)
        # one circle proof per side, each from at least the 64 base samples
        assert len(samples) == 2 and min(samples) >= 64
    # the survey restores the circle proof it counts
    assert script.dvkit.classify._definite_on_circle.__name__ == "_definite_on_circle"


def test_main_prints_one_line_per_variety(capsys, monkeypatch):
    script = load_script()
    monkeypatch.setattr(script, "survey", lambda: [(8, 1, "DVDefining", True, (144, 218))])
    script.main()
    assert capsys.readouterr().out == "8 1 DVDefining True samples=144,218\n"
