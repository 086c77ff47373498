import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dvkit.cli

from conftest import (
    dv_corpus,
    four_minus_z_minus_w,
    haar_dv,
    haar_unitary,
    kernel,
    load_gen,
    max_coeff_distance,
    one_minus_z3w2,
    poly,
    two_minus_z_minus_w,
    w3_minus_z2,
    z3_minus_w2,
)
from dvkit.__main__ import main as entry_main
from dvkit.cli import main
from dvkit.dvrep import represent
from dvkit.extend import ExtensionOperator
from dvkit.poly2 import BivariatePolynomial
from dvkit.serialize import (
    SchemaError,
    cert_from_obj,
    cert_to_obj,
    dumps,
    poly_from_obj,
    poly_to_obj,
    realization_from_obj,
)


def write_poly(tmp_path, name, p):
    path = tmp_path / name
    path.write_text(dumps(poly_to_obj(p)))
    return str(path)


class TestSerialization:
    def test_poly_round_trip(self):
        p = z3_minus_w2()
        assert max_coeff_distance(poly_from_obj(poly_to_obj(p)), p) == 0

    def test_complex_entries_survive(self):
        p = poly({(1, 1): 0.5 - 2j, (0, 0): 3j})
        q = poly_from_obj(json.loads(dumps(poly_to_obj(p))))
        assert max_coeff_distance(q, p) == 0

    def test_cert_round_trip(self, cert_four):
        obj = json.loads(dumps(cert_to_obj(cert_four)))
        back = cert_from_obj(obj)
        assert back.kind == cert_four.kind
        z, w, zz, ww = 0.3, 0.2j, -0.1, 0.4
        assert (
            abs(kernel(back.vec_first, z, w, zz, ww) - kernel(cert_four.vec_first, z, w, zz, ww))
            < 1e-15
        )

    def test_bad_degree_named_in_error(self):
        with pytest.raises(SchemaError, match="degree"):
            poly_from_obj({"coeffs": [[[1, 0]]]})

    def test_bad_coeff_named_in_error(self):
        with pytest.raises(SchemaError, match="coeffs"):
            poly_from_obj({"degree": [0, 0], "coeffs": [[[1, 0], [2, 0]]]})

    @pytest.mark.parametrize(
        "obj, message",
        [([], "cert: expected an object"), ({"kind": "Bogus"}, "cert.kind: unknown certificate kind")],
        ids=["non_object", "unknown_kind"],
    )
    def test_certificate_refusal_names_the_field(self, obj, message):
        # verify reads the kind before it loads a certificate, so no command
        # reaches these refusals; main turns a SchemaError into exit 1
        with pytest.raises(SchemaError) as exc:
            cert_from_obj(obj, "cert")
        assert str(exc.value) == message


class TestRunConfig:
    """Option values are checked once, after parsing: a bad one exits 1
    with a message naming its flag, before the input file is even read."""

    @staticmethod
    def assert_refused(capsys, argv, flag):
        # the input does not exist, so a check that ran late would report
        # the missing file instead
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"dvkit: error: {flag} ")

    def test_weights_not_both_zero(self, capsys):
        for command in ("sos", "represent"):
            self.assert_refused(capsys, [command, "missing.json", "--a", "0", "--b", "0"], "--a")
            self.assert_refused(capsys, [command, "missing.json", "--a", "-1", "--b", "1"], "--a")

    @pytest.mark.parametrize("command", ["sos", "represent"])
    @pytest.mark.parametrize("a, b", [("nan", "1"), ("inf", "1"), ("1", "-inf")])
    def test_weights_finite(self, capsys, command, a, b):
        self.assert_refused(capsys, [command, "missing.json", f"--a={a}", f"--b={b}"], "--a")

    def test_sos_weights_together(self, capsys):
        self.assert_refused(capsys, ["sos", "missing.json", "--a", "1"], "--a")

    def test_defaults_valid(self, tmp_path, capsys):
        dv = write_poly(tmp_path, "dv.json", z3_minus_w2())
        stable = write_poly(tmp_path, "stable.json", four_minus_z_minus_w())
        for argv in (["classify", dv], ["reflect", dv], ["represent", dv], ["sos", stable]):
            assert main(argv) == 0, argv
        assert capsys.readouterr().err == ""


class TestDegenerateInputs:
    """Inputs the pipeline cannot take exit 1 with a message naming the
    option or field at fault, before any allocation sized by them."""

    @staticmethod
    def assert_refused(capsys, argv, *names):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("dvkit: error: ")
        for name in names:
            assert name in captured.err

    @pytest.mark.parametrize(
        "terms, degree, a, b",
        [
            ({(0, 0): 2}, (0, 0), "1", "1"),
            ({(0, 0): 1, (0, 2): -1}, (0, 2), "1", "0"),
            ({(0, 0): 1, (2, 0): -1}, (2, 0), "0", "1"),
        ],
        ids=["constant", "one_minus_w2_a_only", "one_minus_z2_b_only"],
    )
    def test_weighted_sos_with_vanishing_an_plus_bm_exit_1(self, tmp_path, capsys, terms, degree, a, b):
        # the weighted identity divides by a n + b m
        path = write_poly(tmp_path, "p.json", poly(terms, degree))
        self.assert_refused(capsys, ["sos", path, "--a", a, "--b", b], "--a", "--b", str(degree))

    def test_weighted_sos_of_one_minus_w2_on_its_w_weight(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", poly({(0, 0): 1, (0, 2): -1}))
        assert main(["sos", path, "--a", "0", "--b", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["verification"]["passed"] is True

    @pytest.mark.parametrize("command", ["classify", "sos", "represent"])
    def test_zero_polynomial_exit_1(self, tmp_path, capsys, command):
        path = write_poly(tmp_path, "p.json", poly({}, (1, 1)))
        self.assert_refused(capsys, [command, path], f"{path}.coeffs")

    def test_zero_polynomial_reflects(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", poly({}, (1, 1)))
        assert main(["reflect", path]) == 0
        assert poly_from_obj(json.loads(capsys.readouterr().out)).is_zero()


@pytest.fixture(scope="module")
def realization_doc(tmp_path_factory):
    """A realization document of z^3 - w^2 and the polynomial's path."""
    d = tmp_path_factory.mktemp("realization")
    poly_path = write_poly(d, "p.json", z3_minus_w2())
    rep_path = d / "rep.json"
    assert main(["represent", poly_path, "-o", str(rep_path)]) == 0
    return poly_path, json.loads(rep_path.read_text())


class TestCliCommands:
    def test_classify_dv(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", z3_minus_w2())
        assert main(["classify", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["label"] == "DVDefining"
        assert out["proven"] is True
        assert out["witnesses"] == []

    def test_reflect_round_trip(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", two_minus_z_minus_w())
        assert main(["reflect", path]) == 0
        out = json.loads(capsys.readouterr().out)
        got = poly_from_obj(out)
        assert max_coeff_distance(got, poly({(1, 1): 2, (1, 0): -1, (0, 1): -1})) == 0

    @pytest.mark.parametrize("command", ["verify", "extend"])
    def test_component_declared_above_its_degree_loads(self, realization_doc, tmp_path, capsys, command):
        # a zero w-column appended to a component of Q: its true degree
        # still fits (n, m - 1), so the load re-declares it there
        poly_path, doc = realization_doc
        doc = json.loads(json.dumps(doc))
        comp = doc["cert"]["vec_second"][0]
        comp["degree"][1] += 1
        for row in comp["coeffs"]:
            row.append([0.0, 0.0])
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(json.dumps(doc))
        f_path = write_poly(tmp_path, "f.json", poly({(0, 1): 1}))
        assert main([command, str(rep_path), poly_path if command == "verify" else f_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True
        if command == "extend":
            assert abs(out["C"] - np.sqrt(2)) <= 1e-6

    def test_parse_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"degree": [1, 1], "coeffs": [[[0, 0]]]}')
        assert main(["classify", str(bad)]) == 1
        assert "coeffs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify"],
            ["classify", "{path}", "--bogus"],
            ["classify", "{path}", "--json"],
            ["sos", "{path}", "--tol", "1e-6"],
            ["classify", "{path}", "--tol", "1e-6"],
            ["reflect", "{path}", "--at", "3", "2"],
            ["reflect", "{path}", "--seed", "3"],
            ["sos", "{path}", "--grid", "32"],
            ["extend", "{path}", "{path}", "--seed", "3"],
            ["extend", "{path}", "{path}", "--grid", "32"],
            ["represent", "{path}", "--grid", "32"],
            ["verify", "{path}", "{path}", "--grid", "32"],
            ["classify", "{path}", "--grid", "64"],
            ["represent", "{path}", "--seed", "7"],
            ["represent", "{path}", "--samples", "30"],
            ["verify", "{path}", "{path}", "--seed", "7"],
            ["demo", "--seed", "7"],
        ],
        ids=[
            "missing_file_arg",
            "unknown_flag",
            "json_flag",
            "tol_off_classify",
            "tol_on_classify",
            "at_on_reflect",
            "seed_on_reflect",
            "grid_on_sos",
            "seed_on_extend",
            "grid_on_extend",
            "grid_on_represent",
            "grid_on_verify",
            "grid_on_classify",
            "seed_on_represent",
            "samples_on_represent",
            "seed_on_verify",
            "seed_on_demo",
        ],
    )
    def test_usage_error_exit_1(self, tmp_path, capsys, argv):
        path = write_poly(tmp_path, "p.json", z3_minus_w2())
        assert main([a.format(path=path) for a in argv]) == 1
        assert capsys.readouterr().err.startswith("usage: dvkit")

    def test_consecutive_calls_share_no_state(self, tmp_path, capsys):
        # The parser is built once per process; options of one call must not
        # leak into the next.
        path = write_poly(tmp_path, "p.json", z3_minus_w2())
        assert main(["classify", path, "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err
        assert main(["classify", path]) == 0
        assert json.loads(capsys.readouterr().out)["tol"] == 1e-7

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"degree": [0, 1], "coeffs": [[[1, 0], [NaN, 0]]]}', ".coeffs[0][1]"),
            ('{"degree": [-1, 0], "coeffs": []}', ".degree"),
            ('{"degree": [0.5, 0], "coeffs": [[[1, 0]]]}', ".degree"),
            ('{"degree": [0, 0], "coeffs": [5]}', ".coeffs"),
            ('{"degree": [0', ": invalid JSON"),
            ("[1, 2]", ": expected an object"),
            ('{"degree": [0, 0]}', ".coeffs: missing"),
        ],
        ids=[
            "nan_coefficient", "negative_degree", "fractional_degree", "scalar_row",
            "invalid_json", "non_object", "no_coeffs",
        ],
    )
    def test_malformed_polynomial_exit_1(self, tmp_path, capsys, text, field):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["classify", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{bad}{field}" in captured.err

    @pytest.mark.parametrize("command", ["verify", "extend"])
    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("U",), None, ".U"),
            (("U",), 5, ".U"),
            (("cert",), None, ".cert"),
            (("cert", "vec_first"), None, ".cert.vec_first"),
            (("cert", "vec_first"), 5, ".cert.vec_first"),
            (("cert", "weights"), 5, ".cert.weights"),
            (("cert", "vec_second", 0, "coeffs"), 5, ".cert.vec_second[0].coeffs"),
            (("cert", "kind"), "ColeWermer", ".cert.kind"),
            (("cert", "poly"), None, ".cert.poly"),
        ],
        ids=[
            "no_U", "scalar_U", "no_cert", "no_vec_first", "scalar_vec_first",
            "scalar_weights", "scalar_vec_second_coeffs", "cole_wermer_cert", "no_cert_poly",
        ],
    )
    def test_malformed_realization_exit_1(
        self, realization_doc, tmp_path, capsys, command, path, value, field
    ):
        poly_path, doc = realization_doc
        *outer, key = path
        target = doc = json.loads(json.dumps(doc))
        for part in outer:
            target = target[part]
        if value is None:
            del target[key]
        else:
            target[key] = value
        bad = tmp_path / "bad_rep.json"
        bad.write_text(json.dumps(doc))
        f_path = write_poly(tmp_path, "f.json", poly({(0, 1): 1}))
        argv = ["verify", str(bad), poly_path] if command == "verify" else ["extend", str(bad), f_path]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{bad}{field}:" in captured.err

    @pytest.mark.parametrize("command", ["verify", "extend"])
    def test_stale_matrix_forms_are_ignored(self, realization_doc, tmp_path, capsys, command):
        # documents once carried matrix forms and a null residual beside the
        # vectors; the Qmatrix is built from vec_second, so whatever those
        # keys hold changes nothing
        poly_path, doc = realization_doc
        f_path = write_poly(tmp_path, "f.json", poly({(0, 1): 1}))
        outputs = []
        for stale in (None, 5, "abc"):
            edited = json.loads(json.dumps(doc))
            if stale is not None:
                edited["cert"].update(matrix_first=stale, matrix_second=stale, residual=stale)
            path = tmp_path / "rep.json"
            path.write_text(json.dumps(edited))
            argv = ["verify", str(path), poly_path] if command == "verify" else ["extend", str(path), f_path]
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1] == outputs[2] == outputs[0]

    def test_extend_refuses_det_q_zero_exit_2(self, realization_doc, tmp_path, capsys):
        # the first row of Q(z) loses its constant term: Q(0) is singular, so
        # det Q vanishes at z = 0
        poly_path, doc = realization_doc
        doc = json.loads(json.dumps(doc))
        for pair in doc["cert"]["vec_second"][0]["coeffs"][0]:
            pair[:] = [0.0, 0.0]
        bad = tmp_path / "bad_rep.json"
        bad.write_text(json.dumps(doc))
        f_path = write_poly(tmp_path, "f.json", poly({(0, 1): 1}))
        assert main(["extend", str(bad), f_path, "--no-swap"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is False
        assert out["error"].startswith("Qmatrix: det Q has a zero at z = 0")

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("vec_first",), None, "vec_first"),
            (("vec_second",), 5, "vec_second"),
            (("weights",), 5, "weights"),
            (("vec_second", 0, "coeffs"), 5, "vec_second[0].coeffs"),
        ],
        ids=["no_vec_first", "scalar_vec_second", "scalar_weights", "scalar_vec_second_coeffs"],
    )
    def test_malformed_certificate_exit_1(self, tmp_path, capsys, path, value, field):
        poly_path = write_poly(tmp_path, "p.json", four_minus_z_minus_w())
        cert_path = tmp_path / "cert.json"
        assert main(["sos", poly_path, "-o", str(cert_path)]) == 0
        target = doc = json.loads(cert_path.read_text())
        *outer, key = path
        for part in outer:
            target = target[part]
        if value is None:
            del target[key]
        else:
            target[key] = value
        cert_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(cert_path), poly_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{cert_path}.{field}:" in captured.err

    def test_extend_non_realization_document_exit_1(self, tmp_path, capsys):
        # verify dispatches on the kind itself; extend reads a realization
        path = write_poly(tmp_path, "p.json", z3_minus_w2())
        assert main(["extend", path, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}.kind: expected a realization document" in captured.err

    def test_verify_non_object_document_exit_1(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", z3_minus_w2())
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert main(["verify", str(bad), path]) == 1
        assert f"{bad}.kind" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [["realization"], {"kind": "DV"}], ids=["list", "object"])
    def test_verify_non_string_kind_exit_1(self, realization_doc, tmp_path, capsys, kind):
        poly_path, doc = realization_doc
        bad = tmp_path / "rep.json"
        bad.write_text(dumps({**doc, "kind": kind}))
        capsys.readouterr()
        assert main(["verify", str(bad), poly_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"dvkit: error: {bad}.kind: ")

    def test_sos_one_minus_z(self, tmp_path, capsys):
        # a line on the circle: StableOpen, so the dilation route, whose
        # w-side is empty (m = 0)
        path = write_poly(tmp_path, "p.json", poly({(0, 0): 1, (1, 0): -1}))
        assert main(["sos", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["vec_second"] == []
        assert out["verification"]["residual"] <= 1e-10

    def test_missing_file_exit_1(self, capsys):
        assert main(["classify", "/nonexistent/poly.json"]) == 1

    def test_sos_writes_certificate(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", four_minus_z_minus_w())
        out_path = tmp_path / "cert.json"
        assert main(["sos", path, "-o", str(out_path)]) == 0
        cert = json.loads(out_path.read_text())
        assert cert["kind"] == "ColeWermer"
        assert cert["verification"]["passed"] is True
        assert cert["gw_invertibility"]["passed"] is True

    def test_sos_symmetric_weights(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", poly({(0, 0): 1, (3, 2): -1}))
        assert main(["sos", path, "--a", "1", "--b", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "Symmetric"
        assert out["weights"] == [1.0, 1.0]
        assert out["verification"]["passed"] is True
        assert out["verification"]["residual"] <= 1e-10

    def test_sos_reports_one_residual(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", four_minus_z_minus_w())
        assert main(["sos", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "residual" not in out
        assert set(out["verification"]) == {"residual", "passed"}
        assert out["verification"]["residual"] <= 1e-7

    @staticmethod
    def edited_symmetric_certificate(tmp_path, edit):
        """(certificate path, poly path) of a Symmetric certificate of
        1 - z^3 w^2 whose document ``edit`` has changed in place."""
        path = write_poly(tmp_path, "p.json", poly({(0, 0): 1, (3, 2): -1}))
        cert_path = tmp_path / "cert.json"
        assert main(["sos", path, "--a", "1", "--b", "1", "-o", str(cert_path)]) == 0
        doc = json.loads(cert_path.read_text())
        edit(doc)
        cert_path.write_text(json.dumps(doc))
        return cert_path, path

    @pytest.mark.parametrize("weights", [None, [0, 0], [-1, 1]], ids=["none", "both_zero", "negative"])
    def test_symmetric_certificate_bad_weights_exit_1(self, tmp_path, capsys, weights):
        cert_path, path = self.edited_symmetric_certificate(tmp_path, lambda doc: doc.update(weights=weights))
        capsys.readouterr()
        assert main(["verify", str(cert_path), path]) == 1
        assert f"{cert_path}.weights:" in capsys.readouterr().err

    def test_verify_overflowing_certificate_reports_null_residual(self, tmp_path, capsys):
        def inflate(doc):
            doc["vec_first"][0]["coeffs"][0][0] = [1e300, 0.0]

        cert_path, path = self.edited_symmetric_certificate(tmp_path, inflate)
        capsys.readouterr()
        assert main(["verify", str(cert_path), path]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["residual"] is None and out["passed"] is False

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_verify_dv_certificate_non_finite_weight_exit_1(self, realization_doc, tmp_path, capsys, weight):
        # Python's json reads the NaN and Infinity tokens; a certificate
        # carrying them is refused on load, as --a and --b are
        poly_path, doc = realization_doc
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(dict(doc["cert"], weights=[weight, 1.0])))
        assert main(["verify", str(cert_path), poly_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{cert_path}.weights:" in captured.err

    @pytest.mark.parametrize("edit", ["scaled", "overflowing"])
    def test_verify_dv_certificate_failing_gram_gate_exit_2(self, realization_doc, tmp_path, capsys, edit):
        # one vec_first component scaled by 1.1 breaks X*X = Y*Y; a
        # coefficient of 1e308 overflows the Gram matrices to a defect that
        # is not finite, which fails the gate too
        poly_path, doc = realization_doc
        cert = json.loads(json.dumps(doc["cert"]))
        rows = cert["vec_first"][0]["coeffs"]
        if edit == "scaled":
            for row in rows:
                for pair in row:
                    pair[:] = [1.1 * x for x in pair]
        else:
            rows[0][0] = [1e308, 1e308]
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        assert main(["verify", str(cert_path), poly_path]) == 2
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["gram_equality"] is False and out["passed"] is False
        assert captured.err == ""

    def test_verify_dv_certificate_without_variety_sample_exit_2(self, tmp_path, capsys):
        # w - 2 has no zero in the bidisk, so there is no sample to read the
        # Gram identity on; the failure names the sample, as for a realization
        p = poly({(0, 0): -2, (0, 1): 1})
        path = write_poly(tmp_path, "p.json", p)
        cert = {
            "schema": "dvkit/1", "kind": "DV", "weights": [1.0, 1.0], "poly": poly_to_obj(p),
            "vec_first": [], "vec_second": [poly_to_obj(poly({(0, 0): 1}))],
        }
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(dumps(cert))
        assert main(["verify", str(cert_path), path]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is False
        assert out["error"].startswith("insufficient span")

    def test_verify_overflowing_unitary_exit_2(self, realization_doc, tmp_path, capsys):
        # an entry of 1e300 overflows U^H U and Phi^H Phi: those residuals
        # read null and fail, and no numpy warning reaches stderr
        poly_path, doc = realization_doc
        doc = json.loads(json.dumps(doc))
        doc["U"][0][0] = [1e300, 0.0]
        bad_path = tmp_path / "rep.json"
        bad_path.write_text(json.dumps(doc))
        assert main(["verify", str(bad_path), poly_path]) == 2
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["passed"] is False
        for key in ("unitarity", "boundary_unitarity", "contractivity_excess"):
            assert out[key] is None
        assert captured.err == ""

    @pytest.mark.parametrize("r, k", [(1.1, 4), (1.5, 7)])
    def test_sos_gate_miss_names_repeated_factor(self, tmp_path, capsys, r, k):
        # a root of multiplicity k near the circle costs the moments their
        # accuracy; the refusal names the multiple root as its cause
        factor = p = poly({(0, 0): r, (0, 1): -1})
        for _ in range(k - 1):
            p = p * factor
        path = write_poly(tmp_path, "p.json", p)
        assert main(["sos", path]) == 2
        captured = capsys.readouterr()
        assert not json.loads(captured.out)["verification"]["passed"]
        assert "repeated factor" in captured.err
        assert f"root w = {r:g}+0j of multiplicity {k}" in captured.err

    def test_sos_double_root_still_certifies(self, tmp_path, capsys):
        factor = poly({(0, 0): 1.5, (0, 1): -1})
        path = write_poly(tmp_path, "p.json", factor * factor)
        assert main(["sos", path]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["verification"]["passed"]
        assert captured.err == ""

    def test_verify_certificate_ok(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", four_minus_z_minus_w())
        out_path = tmp_path / "cert.json"
        main(["sos", path, "-o", str(out_path)])
        capsys.readouterr()
        assert main(["verify", str(out_path), path]) == 0
        out = capsys.readouterr().out
        assert "polarized_residual" not in json.loads(out)

    def test_verify_corrupted_certificate_exit_2(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", four_minus_z_minus_w())
        out_path = tmp_path / "cert.json"
        main(["sos", path, "-o", str(out_path)])
        cert = json.loads(out_path.read_text())
        cert["vec_first"][0]["coeffs"][0][0][0] += 1e-3
        bad_path = tmp_path / "bad_cert.json"
        bad_path.write_text(json.dumps(cert))
        capsys.readouterr()
        assert main(["verify", str(bad_path), path]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["residual"] > 1e-6

    def test_represent_and_verify_realization(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", z3_minus_w2())
        rep_path = tmp_path / "rep.json"
        assert main(["represent", path, "-o", str(rep_path)]) == 0
        rep_obj = json.loads(rep_path.read_text())
        assert rep_obj["m"] == 2 and rep_obj["n"] == 3
        assert rep_obj["report"]["det_vs_p_rel"] <= 1e-7
        capsys.readouterr()
        assert main(["verify", str(rep_path), path]) == 0

    def test_torus_singular_realization_and_certificate_verify(self, tmp_path, capsys):
        # (z^2 - w)(z^3 - w) crosses itself at (1, 1): its certificate comes
        # from the dilation limit, with a Gram defect near 1.3e-8, which the
        # certificate's own gate of 1e-6 admits on every path; its claim
        # smooth_on_torus: false holds, so both documents still load
        path = write_poly(tmp_path, "p.json", poly({(2, 0): 1, (0, 1): -1}) * poly({(3, 0): 1, (0, 1): -1}))
        rep_path, cert_path = tmp_path / "rep.json", tmp_path / "cert.json"
        assert main(["represent", path, "-o", str(rep_path)]) == 0
        doc = json.loads(rep_path.read_text())
        assert doc["cert"]["smooth_on_torus"] is False
        assert doc["report"]["gram_tolerance"] == 1e-6
        cert_path.write_text(json.dumps(doc["cert"]))
        capsys.readouterr()
        assert main(["verify", str(rep_path), path]) == 0
        assert json.loads(capsys.readouterr().out)["gram_tolerance"] == 1e-6
        assert main(["verify", str(cert_path), path]) == 0
        assert json.loads(capsys.readouterr().out)["gram_equality"] is True

    def test_verify_corrupted_unitary_exit_2(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", z3_minus_w2())
        rep_path = tmp_path / "rep.json"
        main(["represent", path, "-o", str(rep_path)])
        rep_obj = json.loads(rep_path.read_text())
        rep_obj["U"][0][0][0] += 1e-3
        bad_path = tmp_path / "bad_rep.json"
        bad_path.write_text(json.dumps(rep_obj))
        capsys.readouterr()
        assert main(["verify", str(bad_path), path]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["unitarity"] > 1e-4

    def test_verify_unimodular_d_eigenvalue_exit_2(self, realization_doc, tmp_path, capsys):
        # U = diag(A, D) with unitary blocks: rho(D) = 1, so the circle
        # samples no longer bound Phi on the disk and the report must fail
        poly_path, doc = realization_doc
        m, n = doc["m"], doc["n"]
        u = np.zeros((m + n, m + n), dtype=np.complex128)
        u[:m, :m] = np.eye(m)[::-1]
        u[m:, m:] = np.diag(np.exp(1j * np.linspace(0.3, 2.0, n)))
        bad_path = tmp_path / "rep.json"
        bad_path.write_text(dumps(dict(doc, U=[[[c.real, c.imag] for c in row] for row in u])))
        assert main(["verify", str(bad_path), poly_path]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["d_spectral_radius"] >= 1.0 - 1e-8
        assert out["passed"] is False

    def test_verify_identity_d_reads_no_phi(self, realization_doc, tmp_path, capsys):
        # D = I makes I - zD singular at z = 1, one of the circle points Phi
        # was read at, and verify used to exit with that solve's error and
        # the 128 points as numpy text; Phi is now read only where rho(D) < 1
        poly_path, doc = realization_doc
        m, n = doc["m"], doc["n"]
        u = np.array([[complex(*c) for c in row] for row in doc["U"]])
        u[m:, m:] = np.eye(n)
        bad_path = tmp_path / "rep.json"
        bad_path.write_text(dumps(dict(doc, U=[[[c.real, c.imag] for c in row] for row in u])))
        assert main(["verify", str(bad_path), poly_path]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        out = json.loads(captured.out)
        assert out["passed"] is False and out["d_spectral_radius"] == 1.0
        for key in ("det_on_samples", "eigen_relation", "boundary_unitarity", "contractivity_excess"):
            assert out[key] is None

    @pytest.mark.parametrize("other", ["higher_degree", "zero"])
    def test_verify_against_mismatched_polynomial_exit_2(self, realization_doc, tmp_path, capsys, other):
        # w^3 - z^2 has its largest coefficient at w^3, where the determinant
        # of the z^3 - w^2 realization has no term; the zero polynomial has
        # no largest coefficient to match
        _, doc = realization_doc
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(dumps(doc))
        p = w3_minus_z2() if other == "higher_degree" else poly({}, (3, 2))
        poly_path = write_poly(tmp_path, "p.json", p)
        capsys.readouterr()
        assert main(["verify", str(rep_path), poly_path]) == 2
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["kind"] == "realization" and out["passed"] is False
        assert out["det_vs_p_rel"] is None and captured.err == ""

    @pytest.mark.parametrize("case", ["mobius_vs_half_z", "haar_3x3_truncated"])
    def test_verify_against_lower_degree_polynomial_exit_2(self, tmp_path, capsys, case):
        # the block determinant keeps its terms beyond the degree of the
        # polynomial it is checked against, and they count against it
        if case == "mobius_vs_half_z":
            p, other = dvkit.cli.demo_corpus()["blaschke_m2_mobius"], poly({(1, 0): 0.5})
        else:
            grid = haar_dv(haar_unitary(np.random.default_rng(3), 6), 3, 3)
            p, other = BivariatePolynomial(grid), BivariatePolynomial(grid[:-1, :-1])
        rep_path = tmp_path / "rep.json"
        assert main(["represent", write_poly(tmp_path, "p.json", p), "-o", str(rep_path)]) == 0
        capsys.readouterr()
        assert main(["verify", str(rep_path), write_poly(tmp_path, "other.json", other)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is False and out["det_vs_p_rel"] > 0.1

    def test_extend_refuses_unimodular_d_eigenvalue_exit_2(self, realization_doc, tmp_path, capsys):
        # rho(D) = 1: Phi may have a pole on the closed disk, so the torus no
        # longer bounds F and extend refuses before any check
        poly_path, doc = realization_doc
        m, n = doc["m"], doc["n"]
        u = np.zeros((m + n, m + n), dtype=np.complex128)
        u[:m, :m] = np.eye(m)[::-1]
        u[m:, m:] = np.diag(np.exp(1j * np.linspace(0.3, 2.0, n)))
        bad_path = tmp_path / "rep.json"
        bad_path.write_text(dumps(dict(doc, U=[[[c.real, c.imag] for c in row] for row in u])))
        f_path = write_poly(tmp_path, "f.json", poly({(0, 1): 1}))
        assert main(["extend", str(bad_path), f_path, "--no-swap"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is False
        assert out["error"].startswith("realization: D has spectral radius 1")

    def test_extend_reports_a_refused_swap(self, realization_doc, tmp_path, capsys):
        # U = diag(J, 0) with J the reversal realizes det(wI - J) = w^2 - 1,
        # not z^3 - w^2: F = w = f passes the on-variety check, but the eigen
        # relation misses by 2, and extend refuses the realization.  The
        # swapped realization has D^H = J^H of spectral radius 1, which
        # extension_bound refuses, and the report names it
        poly_path, doc = realization_doc
        m, n = doc["m"], doc["n"]
        u = np.zeros((m + n, m + n), dtype=np.complex128)
        u[:m, :m] = np.eye(m)[::-1]
        bad_path = tmp_path / "rep.json"
        bad_path.write_text(dumps(dict(doc, U=[[[c.real, c.imag] for c in row] for row in u])))
        f_path = write_poly(tmp_path, "f.json", poly({(0, 1): 1}))
        assert main(["extend", str(bad_path), f_path]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is False
        assert out["on_variety_residual"] <= 1e-7 and abs(out["eigen_relation"] - 2) <= 1e-9
        assert out["C_swapped"] is None and "C_best" not in out
        assert out["swap_error"].startswith("realization: D has spectral radius 1")

    def test_extend_refuses_a_rotated_phi(self, realization_doc, tmp_path, capsys):
        # diag(e^{0.9i} I_m, I_n) U is unitary with the same D, C and Q, and
        # its Phi is e^{0.9i} Phi, whose eigenvalues are not the fiber roots
        # of z^3 - w^2: the eigen relation fails it
        _, doc = realization_doc
        rep, _ = realization_from_obj(doc)
        u = np.diag([np.exp(0.9j)] * rep.m + [1.0] * rep.n) @ rep.U
        bad_path = tmp_path / "rep.json"
        bad_path.write_text(dumps(dict(doc, U=[[[c.real, c.imag] for c in row] for row in u])))
        f_path = write_poly(tmp_path, "f.json", poly({(0, 1): 1}))
        assert main(["extend", str(bad_path), f_path, "--no-swap"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is False and out["eigen_relation"] > 1e-7
        assert out["on_variety_residual"] <= 1e-7

    def test_extend_expand_prints_no_rounding_noise(self, realization_doc, tmp_path, capsys):
        # f = w on z^3 - w^2 extends to F = w: the numerator is c w, with
        # every other coefficient exactly zero
        _, doc = realization_doc
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(dumps(doc))
        f_path = write_poly(tmp_path, "f.json", poly({(0, 1): 1}))
        assert main(["extend", str(rep_path), f_path, "--expand"]) == 0
        out = json.loads(capsys.readouterr().out)
        num, den = poly_from_obj(out["numerator"]), poly_from_obj(out["denominator"])
        assert num.coeffs[0, 1] != 0 and np.count_nonzero(num.coeffs) == 1
        rep, cert = realization_from_obj(doc)
        op = ExtensionOperator(rep, cert, poly({(0, 1): 1}))
        t = np.exp(2j * np.pi * np.arange(16) / 16)
        z, w = t[:, None], t[None, :]
        assert np.max(np.abs(num.evaluate(z, w) / den.evaluate(z, 0) - op.evaluate(z, w))) <= 1e-10

    def test_extend_expand_zeroes_imaginary_noise(self, realization_doc, tmp_path, capsys):
        # f = w on z^3 - w^2 is its own remainder: the numerator w over the
        # denominator 1, with no imaginary part from a p of imaginary
        # coefficients
        _, doc = realization_doc
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(dumps(doc))
        f_path = write_poly(tmp_path, "f.json", poly({(0, 1): 1}))
        assert main(["extend", str(rep_path), f_path, "--expand", "--no-swap"]) == 0
        out = json.loads(capsys.readouterr().out)
        num, den = poly_from_obj(out["numerator"]), poly_from_obj(out["denominator"])
        assert num.coeffs[0, 1].real != 0 and num.coeffs[0, 1].imag == 0
        assert den.coeffs[0, 0].real != 0 and not np.any(den.coeffs.imag)

    def test_extend_expand_refuses_an_overflowing_extension(self, tmp_path, capsys):
        # f = w^2 s(z) on haar_dv_2x2, with s of degree n whose coefficients
        # of modulus 1.5e308 take the phases that line them up against the
        # w^0 column of p at unit scale: the numerator's z^n coefficient is
        # then 1.5e308 times that column's l1 norm, 1.46, past the float
        # range.  The expansion is refused, naming its part
        p = dv_corpus()["haar_dv_2x2"]
        rep_path = tmp_path / "rep.json"
        assert main(["represent", write_poly(tmp_path, "p.json", p), "-o", str(rep_path)]) == 0
        _, cert = realization_from_obj(json.loads(rep_path.read_text()))
        column = cert.p.ldexp(-cert.p.exponent).coeffs[::-1, 0]
        assert np.sum(np.abs(column)) * 1.5 > 1.8
        s = -1.5e308 * np.conj(column) / np.abs(column)
        f_path = write_poly(tmp_path, "f.json", BivariatePolynomial(np.outer(s, [0, 0, 1])))
        capsys.readouterr()
        assert main(["extend", str(rep_path), f_path, "--expand", "--no-swap"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is False and out["error"].startswith("numerator: ")

    @staticmethod
    def _run_overflowing(tmp_path, entry, command):
        """``python -m dvkit.cli`` of ``command`` on the haar_dv_3x3
        realization with one entry of 1e308, of U or of a Q coefficient;
        exit 2 with one JSON report and no numpy text on stderr."""
        path = write_poly(tmp_path, "p.json", dv_corpus()["haar_dv_3x3"])
        rep_path = tmp_path / "rep.json"
        assert main(["represent", path, "-o", str(rep_path)]) == 0
        doc = json.loads(rep_path.read_text())
        if entry == "U":
            doc["U"][0][1] = [1e308, 0.0]
        else:
            doc["cert"]["vec_second"][0]["coeffs"][0][0] = [1e308, 0.0]
        rep_path.write_text(dumps(doc))
        last = write_poly(tmp_path, "f.json", poly({(0, 1): 1})) if command == "extend" else path
        env = {**os.environ, "PYTHONPATH": str(Path(dvkit.__file__).parents[1])}
        cmd = [sys.executable, "-m", "dvkit.cli", command, str(rep_path), last]
        run = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert run.returncode == 2
        assert all(line.startswith("dvkit:") for line in run.stderr.splitlines())
        out = json.loads(run.stdout)
        assert out["passed"] is False and None in out.values()
        return out

    @pytest.mark.parametrize("entry", ["U", "Q"])
    def test_extend_overflow_prints_nulls_and_no_numpy_text(self, tmp_path, entry):
        # one entry of 1e308, of U or of a Q coefficient, overflows F or C:
        # extend fails with nulls for the values that overflowed
        self._run_overflowing(tmp_path, entry, "extend")

    def test_verify_overflow_prints_a_report(self, tmp_path):
        # one U entry of 1e308 leaves Phi^H Phi not finite: verify fails with
        # its report, not with numpy's "Eigenvalues did not converge"
        out = self._run_overflowing(tmp_path, "U", "verify")
        assert "error" not in out and out["contractivity_excess"] is None

    def test_extend_swap_reruns_no_pipeline(self, realization_doc, tmp_path, capsys, monkeypatch):
        # C_swapped comes from the document's own realization and certificate
        # with z and w exchanged: no classification, certificate or sample
        poly_path, doc = realization_doc
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(dumps(doc))
        f_path = write_poly(tmp_path, "f.json", poly({(0, 1): 1}))

        def refuse(*args, **kwargs):
            raise AssertionError("extend re-ran a pipeline stage")

        for module in [m for name, m in sys.modules.items() if name.startswith("dvkit")]:
            for name in ("represent", "classify_zero_set", "sym_sos_certificate", "sample_variety"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert main(["extend", str(rep_path), f_path]) == 0
        out = json.loads(capsys.readouterr().out)
        # w^2 = z^3 with z and w exchanged: Q(w) is the identity on C^3
        assert abs(out["C_swapped"] - np.sqrt(3)) <= 1e-9

    def test_verify_dv_certificate_samples_like_represent(self, tmp_path, capsys, monkeypatch):
        # w = z^2 has m = 1, where the default of 3(n + m) + 10 points and a
        # fixed 24 give different samples
        p = poly({(2, 0): 1, (0, 1): -1})
        path = write_poly(tmp_path, "p.json", p)
        rep_path, cert_path = tmp_path / "rep.json", tmp_path / "cert.json"
        assert main(["represent", path, "-o", str(rep_path)]) == 0
        cert_path.write_text(json.dumps(json.loads(rep_path.read_text())["cert"]))
        seen = []

        def spy(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        real = dvkit.dvrep.sample_variety
        monkeypatch.setattr(dvkit.dvrep, "sample_variety", spy)
        capsys.readouterr()
        assert main(["verify", str(cert_path), path]) == 0
        assert json.loads(capsys.readouterr().out)["gram_equality"] is True
        assert len(seen) == 1
        cert, _, _ = represent(p)
        assert all(a.tolist() == b.tolist() for a, b in zip(seen[0], cert.sample))

    @pytest.mark.parametrize("rel", [3e-9, 5e-10])
    def test_near_symmetric_dv_classifies_and_represents(self, tmp_path, capsys, rel):
        # z^3 - w^2 with its z^3 coefficient scaled by 1 + rel: classify and
        # represent read one symmetry tolerance, so a proven DVDefining label
        # is also represented
        path = write_poly(tmp_path, "p.json", poly({(3, 0): 1 + rel, (0, 2): -1}))
        assert main(["classify", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["label"] == "DVDefining" and out["proven"] is True
        assert main(["represent", path]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["passed"] is True

    def test_represent_rejects_non_dv_exit_2(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", four_minus_z_minus_w())
        assert main(["represent", path]) == 2

    def test_represent_rejects_torus_singular_square_exit_2(self, tmp_path, capsys):
        zw1 = poly({(1, 1): 1, (0, 0): -1})
        path = write_poly(tmp_path, "p.json", zw1 * zw1)
        assert main(["represent", path]) == 2

    def test_extend_pipeline(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", z3_minus_w2())
        rep_path = tmp_path / "rep.json"
        main(["represent", path, "-o", str(rep_path)])
        f_path = write_poly(tmp_path, "f.json", poly({(0, 1): 1}))
        capsys.readouterr()
        assert main(["extend", str(rep_path), f_path, "--no-swap"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["C"] - np.sqrt(2)) <= 1e-6
        assert out["on_variety_residual"] <= 1e-7

    def test_extend_swap_reports_c_swapped(self, tmp_path, capsys):
        # C_swapped bounds another extension, the remainder on division by p
        # in z, so it is reported beside C and never in place of it
        path = write_poly(tmp_path, "p.json", z3_minus_w2())
        rep_path = tmp_path / "rep.json"
        main(["represent", path, "-o", str(rep_path)])
        f_path = write_poly(tmp_path, "f.json", poly({(0, 1): 1}))
        capsys.readouterr()
        assert main(["extend", str(rep_path), f_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["C_swapped"] is not None and "C_best" not in out
        assert out["swapped_passed"] is True

    def test_extend_swap_fails_a_perturbed_swapped_extension(self, tmp_path, capsys, monkeypatch):
        # the extension that C_swapped bounds is gated like F: an error of
        # 1e-6 in its values alone fails swapped_passed, and F's verdict and
        # the exit code stay
        path = write_poly(tmp_path, "p.json", z3_minus_w2())
        rep_path = tmp_path / "rep.json"
        main(["represent", path, "-o", str(rep_path)])
        f_path = write_poly(tmp_path, "f.json", poly({(0, 1): 1}))
        real = ExtensionOperator.evaluate

        def perturbed(self, z, w):
            # z^3 - w^2 has m = 2, and its swap m = 3
            return real(self, z, w) + (1e-6 if self.rep.m == 3 else 0.0)

        monkeypatch.setattr(ExtensionOperator, "evaluate", perturbed)
        capsys.readouterr()
        assert main(["extend", str(rep_path), f_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True and out["swapped_passed"] is False


def haar_dv_3x3_seed301():
    """The benchmark's seed-301 ``haar_dv_3x3.r0`` dv_pipeline input."""
    (found,) = [x for x in load_gen().generate("dv_pipeline", 301)[0] if x.name == "haar_dv_3x3.r0"]
    return BivariatePolynomial(found.coeffs)


EXTREME_EXPONENTS = [-1000, 1000]


@pytest.fixture(scope="module")
def scaled_haar_run(tmp_path_factory):
    """``represent`` of haar_dv_3x3_seed301() times 2^k, run once per k: the
    polynomial's path, the exit code and the realization document."""
    d = tmp_path_factory.mktemp("scaled")
    runs = {}

    def run(k):
        if k not in runs:
            path = write_poly(d, f"p{k}.json", haar_dv_3x3_seed301().ldexp(k))
            rep_path = d / f"rep{k}.json"
            code = main(["represent", path, "-o", str(rep_path)])
            runs[k] = path, code, json.loads(rep_path.read_text()) if code == 0 else None
        return runs[k]

    return run


class TestPowerOfTwoScale:
    """p and 2^k p get the same verdicts: X*X and Y*Y, the singular values
    and determinant zeros of a matrix polynomial, and the symmetry constant
    are each read at a scale that neither overflows nor underflows."""

    @pytest.mark.parametrize("k", EXTREME_EXPONENTS)
    def test_pipeline_at_extreme_scale(self, scaled_haar_run, tmp_path, capsys, k):
        # represent used to overflow X*X at 2^1000; its U is now that of p
        # to the bit, and extend and verify pass on the document
        path, code, doc = scaled_haar_run(k)
        assert code == 0
        assert np.array_equal(np.array(doc["U"]), np.array(scaled_haar_run(0)[2]["U"]))
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(dumps(doc))
        f_path = write_poly(tmp_path, "f.json", poly({(0, 1): 1}))
        assert main(["extend", str(rep_path), f_path]) == 0
        assert main(["verify", str(rep_path), path]) == 0

    def test_expansion_at_extreme_scale(self, tmp_path, capsys):
        # det Q(z) of z^3 - w^2 times 2^1000 used to overflow (exit 2), and
        # times 2^-1000 to underflow to a passing 0 / 0; both parts are now
        # the unit-scale parts times one common power of two.  f = w is its
        # own numerator over 1; z w + w^2 + i z^2 w^3, of w-degree 3 > m = 2,
        # takes the denominator p_m^2, a constant on this variety
        for f in (poly({(0, 1): 1}), poly({(1, 1): 1, (0, 2): 1, (2, 3): 1j})):
            f_path = write_poly(tmp_path, "f.json", f)
            parts = {}
            for k in (0, *EXTREME_EXPONENTS):
                path = write_poly(tmp_path, f"p{k}.json", z3_minus_w2().ldexp(k))
                rep_path = tmp_path / f"rep{k}.json"
                assert main(["represent", path, "-o", str(rep_path)]) == 0
                capsys.readouterr()
                assert main(["extend", str(rep_path), f_path, "--no-swap", "--expand"]) == 0
                out = json.loads(capsys.readouterr().out)
                parts[k] = [poly_from_obj(out[key]) for key in ("numerator", "denominator")]
            assert parts[0][1].degree == (0, 0)
            for k in EXTREME_EXPONENTS:
                shift = parts[k][1].exponent - parts[0][1].exponent
                for got, want in zip(parts[k], parts[0]):
                    want = want.ldexp(shift).coeffs
                    assert got.coeffs.shape == want.shape
                    assert np.max(np.abs(got.coeffs - want)) <= 1e-15 * np.max(np.abs(want))

    def test_corrupted_realization_fails_at_small_scale(self, scaled_haar_run, tmp_path, capsys):
        # P times 1.5 breaks X*X = Y*Y; at 2^-1000 both Gram matrices used to
        # underflow to 0, so the defect read 0 and verify passed
        defects = {}
        for k in (0, -1000):
            path, _, doc = scaled_haar_run(k)
            doc = json.loads(json.dumps(doc))
            first = doc["cert"]["vec_first"][0]
            first["coeffs"] = [[[1.5 * re, 1.5 * im] for re, im in row] for row in first["coeffs"]]
            bad = tmp_path / f"bad{k}.json"
            bad.write_text(dumps(doc))
            capsys.readouterr()
            assert main(["verify", str(bad), path]) == 2
            defects[k] = json.loads(capsys.readouterr().out)["gram_defect"]
            cert_path = tmp_path / f"cert{k}.json"
            cert_path.write_text(dumps(doc["cert"]))
            assert main(["verify", str(cert_path), path]) == 2
            assert json.loads(capsys.readouterr().out)["gram_equality"] is False
        assert defects[-1000] == defects[0] > 1e-2

    @pytest.mark.parametrize(
        "build, scale",
        [(two_minus_z_minus_w, 1e-310), (four_minus_z_minus_w, 1e-310), (four_minus_z_minus_w, 4e307)],
        ids=["two_tiny", "four_tiny", "four_huge"],
    )
    def test_sos_keeps_a_verified_certificate(self, tmp_path, capsys, build, scale):
        # the certificates verify; the invertibility check after them used to
        # stop on numpy's NaN refusal (tiny) or an overflow in Horner (huge)
        path = write_poly(tmp_path, "p.json", build() * scale)
        assert main(["sos", path]) == 0
        captured = capsys.readouterr()
        assert all(line.startswith("dvkit:") for line in captured.err.splitlines())
        out = json.loads(captured.out)
        assert out["verification"]["passed"] is True
        # 4 - z - w has no zero on the closed bidisk; 2 - z - w vanishes at (1, 1)
        assert out["gw_invertibility"]["passed"] is (build is four_minus_z_minus_w)

    @pytest.mark.parametrize(
        "command, build",
        [
            ("sos", two_minus_z_minus_w),
            ("sos", four_minus_z_minus_w),
            ("sos", z3_minus_w2),
            ("sos", one_minus_z3w2),
            ("represent", z3_minus_w2),
        ],
        ids=["sos_two", "sos_four", "sos_z3w2", "sos_one_minus_z3w2", "represent_z3w2"],
    )
    def test_tiny_input_gets_the_unit_scale_verdict(self, tmp_path, capsys, command, build):
        # the symmetry constant is a ratio of two coefficients, which used to
        # overflow when both were near 1e-310
        flags = ["--a", "1", "--b", "1"] if command == "sos" else []
        codes = []
        for scale in (1.0, 1e-310):
            path = write_poly(tmp_path, "p.json", build() * scale)
            codes.append(main([command, path, *flags]))
            err = capsys.readouterr().err
            assert all(line.startswith("dvkit:") for line in err.splitlines())
        assert codes[0] == codes[1]


class TestDemo:
    def test_demo_passes_and_prints_matrix(self, tmp_path, capsys):
        out_path = tmp_path / "demo.json"
        assert main(["demo", "-o", str(out_path)]) == 0
        err = capsys.readouterr().err
        assert "PASS" in err
        report = json.loads(out_path.read_text())
        assert report["passed"] is True
        names = {row["name"] for row in report["rows"]}
        assert {"z3_minus_w2", "two_minus_z_minus_w", "four_minus_z_minus_w"} <= names
        assert any(
            row["checks"].get("bound_is_sqrt_m") for row in report["rows"]
        )


class TestDeterminism:
    def test_classify_byte_identical(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", z3_minus_w2())
        main(["classify", path])
        first = capsys.readouterr().out
        main(["classify", path])
        second = capsys.readouterr().out
        assert first == second

    def test_represent_byte_identical(self, tmp_path):
        path = write_poly(tmp_path, "p.json", z3_minus_w2())
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["represent", path, "-o", str(p1)])
        main(["represent", path, "-o", str(p2)])
        assert p1.read_text() == p2.read_text()

    def test_reports_reparse(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", z3_minus_w2())
        rep_path = tmp_path / "rep.json"
        main(["represent", path, "-o", str(rep_path)])
        realization_from_obj(json.loads(rep_path.read_text()))


def test_import_dvkit_loads_no_numpy():
    # the package root re-exports nothing, so a front door can set the BLAS
    # thread variables before numpy loads
    code = "import sys, dvkit; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(dvkit.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout == "False\n"


# Records the thread variables at the moment numpy starts to load, then
# runs the console entry on the command line it is given.
_ENTRY_PROBE = """
import json, os, sys
names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
seen = []


class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append({k: os.environ.get(k) for k in names})


sys.meta_path.insert(0, Probe())
from dvkit.__main__ import main

loaded = "numpy" in sys.modules
code = main(sys.argv[1:])
print(json.dumps({"loaded_by_import": loaded, "at_numpy": seen, "code": code}), file=sys.stderr)
"""
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "3"])
def test_entry_sets_thread_variables_before_numpy_loads(tmp_path, preset):
    path = write_poly(tmp_path, "p.json", z3_minus_w2())
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARIABLES}
    env["PYTHONPATH"] = str(Path(dvkit.__file__).parents[1])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    cmd = [sys.executable, "-c", _ENTRY_PROBE, "classify", path]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, env=env)
    probe = json.loads(out.stderr.splitlines()[-1])
    assert probe["loaded_by_import"] is False and probe["code"] == 0
    want = dict.fromkeys(_THREAD_VARIABLES, "1")
    if preset is not None:
        want["OPENBLAS_NUM_THREADS"] = preset
    assert probe["at_numpy"] == [want]
    assert json.loads(out.stdout)["label"] == "DVDefining"


def test_python_m_dvkit_runs_the_entry(tmp_path, capsys, monkeypatch):
    # the variables are set here so that the in-process entry leaves this
    # process's environment as it found it
    for name in _THREAD_VARIABLES:
        monkeypatch.setenv(name, "1")
    path = write_poly(tmp_path, "p.json", z3_minus_w2())
    env = {**os.environ, "PYTHONPATH": str(Path(dvkit.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-m", "dvkit", "classify", path], capture_output=True, text=True, env=env)
    assert entry_main(["classify", path]) == out.returncode == 0
    assert out.stdout == capsys.readouterr().out
