"""Smoke test of scripts/degree_survey.py, the classification of generated
Haar distinguished varieties of growing degree, of products of linear
factors with a zero just inside the bidisk, and of the node family, and the
extension constants of the curves w^m = B(z)."""

import importlib.util
import math
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


def test_linear_family_draws_every_k_eps_and_draw_in_turn():
    script = load_script()
    rows = list(script.linear_factor_products())
    assert len(rows) == 150
    assert [(k, eps, draw) for k, eps, draw, _ in rows] == [
        (k, eps, draw) for k in (1, 2, 4, 6, 8) for eps in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2) for draw in range(6)
    ]
    # k factors of degree (1, 1) each
    assert all(p.degree == (k, k) for k, _, _, p in rows)


def test_linear_products_with_a_zero_inside_read_indeterminate():
    script = load_script()
    rows = script.linear_survey(ks=(1, 2), eps=(1e-2,), draws=2)
    assert [(k, eps, draw) for k, eps, draw, *_ in rows] == [(1, 1e-2, 0), (1, 1e-2, 1), (2, 1e-2, 0), (2, 1e-2, 1)]
    for *_, label, proven, samples in rows:
        # one circle proof, unproven, from at least the 64 base samples
        assert (label, proven) == ("Indeterminate", False)
        assert len(samples) == 1 and samples[0] >= 64


def test_node_family_rows_read_label_and_torus_points():
    script = load_script()
    rows = script.node_survey(eps=(1e-1, 2e-3, 1e-3, 3e-4))
    # proven down to eps = 3e-3; no torus point down to 3e-4, where the
    # node is 3e-4 inside the bidisk
    assert rows == [
        (1e-1, "DVDefining", True, 0),
        (2e-3, "DVDefining", False, 0),
        (1e-3, "DVDefining", False, 0),
        (3e-4, "DVDefining", False, 0),
    ]
    assert all(script.node_family(e).degree == (2, 2) for e in script.NODE_EPS)


def test_extension_constants_of_blaschke_curves():
    rows = load_script().extension_survey()
    assert [m for _, m, _, _ in rows] == [2] * 4 + [3] * 4
    for name, m, c, c_swapped in rows:
        # every curve of the family is smooth on the torus, so both
        # orientations give a constant, C at least sqrt(m)
        assert c >= math.sqrt(m) - 1e-6
        assert c_swapped is not None and c_swapped >= 1.0
        if "monomial" in name or name.startswith(f"w^{m} = z^{m}"):
            assert math.isclose(c, math.sqrt(m), abs_tol=1e-6)


def test_main_prints_one_line_per_variety(capsys, monkeypatch):
    # a Haar variety's line, then a linear-factor product's, then a node
    # family member's, then a Blaschke curve's, one refused when swapped
    script = load_script()
    monkeypatch.setattr(script, "survey", lambda: [(8, 1, "DVDefining", True, (144, 218))])
    monkeypatch.setattr(script, "linear_survey", lambda: [(1, 1e-6, 3, "Indeterminate", False, (69,))])
    monkeypatch.setattr(script, "node_survey", lambda: [(3e-4, "DVDefining", False, 1)])
    monkeypatch.setattr(
        script, "extension_survey", lambda: [("w^2 = z^2", 2, math.sqrt(2), 2.44949), ("w^3 = z^3", 3, 1.75, None)]
    )
    script.main()
    assert capsys.readouterr().out == (
        "8 1 DVDefining True samples=144,218\n1 1e-06 3 Indeterminate False samples=69\n"
        "0.0003 DVDefining False torus_points=1\n"
        "w^2 = z^2: m=2 C=1.414214 C_swapped=2.449490\nw^3 = z^3: m=3 C=1.750000 C_swapped=--\n"
    )
