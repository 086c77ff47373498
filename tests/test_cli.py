import json

import numpy as np
import pytest

from conftest import (
    four_minus_z_minus_w,
    poly,
    two_minus_z_minus_w,
    z3_minus_w2,
)
from dvkit.cli import RunConfig, main
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
        assert poly_from_obj(poly_to_obj(p)).max_coeff_distance(p) == 0

    def test_complex_entries_survive(self):
        p = poly({(1, 1): 0.5 - 2j, (0, 0): 3j})
        q = poly_from_obj(json.loads(dumps(poly_to_obj(p))))
        assert q.max_coeff_distance(p) == 0

    def test_cert_round_trip(self, cert_four):
        obj = json.loads(dumps(cert_to_obj(cert_four)))
        back = cert_from_obj(obj)
        assert back.kind == cert_four.kind
        z, w, zz, ww = 0.3, 0.2j, -0.1, 0.4
        assert (
            abs(back.vec_first.kernel(z, w, zz, ww) - cert_four.vec_first.kernel(z, w, zz, ww))
            < 1e-15
        )

    def test_bad_degree_named_in_error(self):
        with pytest.raises(SchemaError, match="degree"):
            poly_from_obj({"coeffs": [[[1, 0]]]})

    def test_bad_coeff_named_in_error(self):
        with pytest.raises(SchemaError, match="coeffs"):
            poly_from_obj({"degree": [0, 0], "coeffs": [[[1, 0], [2, 0]]]})


class TestRunConfig:
    def test_grid_floor(self):
        with pytest.raises(ValueError):
            RunConfig(command="classify", grid_n=8).validate()

    def test_tol_range(self):
        with pytest.raises(ValueError):
            RunConfig(command="classify", tol=0.5).validate()

    def test_weights_not_both_zero(self):
        with pytest.raises(ValueError):
            RunConfig(command="sos", weights=(0.0, 0.0)).validate()

    def test_defaults_valid(self):
        RunConfig(command="demo").validate()


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
        assert got.max_coeff_distance(poly({(1, 1): 2, (1, 0): -1, (0, 1): -1})) == 0

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
            ["reflect", "{path}", "--seed", "3"],
            ["sos", "{path}", "--grid", "32"],
        ],
        ids=["missing_file_arg", "unknown_flag", "json_flag", "tol_off_classify", "seed_on_reflect", "grid_on_sos"],
    )
    def test_usage_error_exit_1(self, tmp_path, capsys, argv):
        path = write_poly(tmp_path, "p.json", z3_minus_w2())
        assert main([a.format(path=path) for a in argv]) == 1
        assert "usage" in capsys.readouterr().err

    def test_consecutive_calls_share_no_state(self, tmp_path, capsys):
        # The parser is built once per process; options of one call must not
        # leak into the next.
        path = write_poly(tmp_path, "p.json", z3_minus_w2())
        assert main(["classify", path, "--grid", "32"]) == 0
        assert json.loads(capsys.readouterr().out)["grid"] == 32
        assert main(["classify", path]) == 0
        assert json.loads(capsys.readouterr().out)["grid"] == 64
        assert main(["classify", path, "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err
        assert main(["classify", path]) == 0
        assert json.loads(capsys.readouterr().out)["grid"] == 64

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"degree": [0, 1], "coeffs": [[[1, 0], [NaN, 0]]]}', ".coeffs[0][1]"),
            ('{"degree": [-1, 0], "coeffs": []}', ".degree"),
            ('{"degree": [0.5, 0], "coeffs": [[[1, 0]]]}', ".degree"),
            ('{"degree": [0, 0], "coeffs": [5]}', ".coeffs"),
        ],
        ids=["nan_coefficient", "negative_degree", "fractional_degree", "scalar_row"],
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
            (("cert", "matrix_second"), 5, ".cert.matrix_second"),
        ],
        ids=[
            "no_U", "scalar_U", "no_cert", "no_vec_first", "scalar_vec_first",
            "scalar_weights", "scalar_matrix_second",
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

    @pytest.mark.parametrize(
        "key, value",
        [("vec_first", None), ("vec_second", 5), ("weights", 5), ("matrix_first", 5)],
        ids=["no_vec_first", "scalar_vec_second", "scalar_weights", "scalar_matrix_first"],
    )
    def test_malformed_certificate_exit_1(self, tmp_path, capsys, key, value):
        path = write_poly(tmp_path, "p.json", four_minus_z_minus_w())
        cert_path = tmp_path / "cert.json"
        assert main(["sos", path, "-o", str(cert_path)]) == 0
        doc = json.loads(cert_path.read_text())
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        cert_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(cert_path), path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{cert_path}.{key}:" in captured.err

    def test_verify_non_object_document_exit_1(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", z3_minus_w2())
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert main(["verify", str(bad), path]) == 1
        assert f"{bad}.kind" in capsys.readouterr().err

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
        assert out["residual"] <= 1e-10

    def test_sos_reports_one_residual(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", four_minus_z_minus_w())
        assert main(["sos", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out["verification"]) == {"residual", "passed"}
        assert out["residual"] == out["verification"]["residual"] <= 1e-7

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
        # the certificate check reads coefficients, not a grid
        assert main(["verify", str(out_path), path, "--grid", "16"]) == 0
        assert capsys.readouterr().out == out

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
        assert main(["represent", path, "--seed", "7", "-o", str(rep_path)]) == 0
        rep_obj = json.loads(rep_path.read_text())
        assert rep_obj["m"] == 2 and rep_obj["n"] == 3
        assert rep_obj["report"]["det_vs_p_rel"] <= 1e-7
        capsys.readouterr()
        assert main(["verify", str(rep_path), path]) == 0

    def test_verify_corrupted_unitary_exit_2(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", z3_minus_w2())
        rep_path = tmp_path / "rep.json"
        main(["represent", path, "--seed", "7", "-o", str(rep_path)])
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
        main(["represent", path, "--seed", "7", "-o", str(rep_path)])
        f_path = write_poly(tmp_path, "f.json", poly({(0, 1): 1}))
        capsys.readouterr()
        assert main(["extend", str(rep_path), f_path, "--no-swap"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["C"] - np.sqrt(2)) <= 1e-6
        assert out["on_variety_residual"] <= 1e-7

    def test_extend_swap_reports_best(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", z3_minus_w2())
        rep_path = tmp_path / "rep.json"
        main(["represent", path, "--seed", "7", "-o", str(rep_path)])
        f_path = write_poly(tmp_path, "f.json", poly({(0, 1): 1}))
        capsys.readouterr()
        assert main(["extend", str(rep_path), f_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "C_swapped" in out
        if out["C_swapped"] is not None:
            assert out["C_best"] == min(out["C"], out["C_swapped"])


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
        main(["represent", path, "--seed", "3", "-o", str(p1)])
        main(["represent", path, "--seed", "3", "-o", str(p2)])
        assert p1.read_text() == p2.read_text()

    def test_reports_reparse(self, tmp_path, capsys):
        path = write_poly(tmp_path, "p.json", z3_minus_w2())
        rep_path = tmp_path / "rep.json"
        main(["represent", path, "--seed", "7", "-o", str(rep_path)])
        realization_from_obj(json.loads(rep_path.read_text()))
