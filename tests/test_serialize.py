"""The complex-grid codec: one array conversion each way, and a per-entry
path for grids that do not convert, which names the first bad field."""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import four_minus_z_minus_w, load_gen, poly, z3_minus_w2
from dvkit import serialize as ser
from dvkit.cli import main

DATA = Path(__file__).resolve().parent / "data"


def poly_grids(doc, where):
    yield doc["coeffs"], tuple(d + 1 for d in doc["degree"]), f"{where}.coeffs"


def document_grids(doc, where):
    """(rows, shape, field) of every complex grid in a polynomial,
    certificate or realization document."""
    if doc["kind"] == "polynomial":
        yield from poly_grids(doc, where)
        return
    if doc["kind"] == "realization":
        size = doc["m"] + doc["n"]
        yield doc["U"], (size, size), f"{where}.U"
        yield from document_grids(doc["cert"], f"{where}.cert")
        return
    for key in ("vec_first", "vec_second"):
        for k, comp in enumerate(doc[key]):
            yield from poly_grids(comp, f"{where}.{key}[{k}]")
    if "poly" in doc:
        yield from poly_grids(doc["poly"], f"{where}.poly")


@pytest.fixture(scope="module")
def seed_301_documents(tmp_path_factory):
    """The r0 and r1 polynomial documents of every benchmark workload at
    seed 301, and the realization documents of the dv_pipeline r0 inputs."""
    gen = load_gen()
    d = tmp_path_factory.mktemp("seed301")
    docs = {}
    for workload in sorted(gen.WORKLOADS):
        for rotation in gen.generate(workload, 301)[:2]:
            for x in rotation:
                docs[f"{workload}/{x.name}"] = gen.poly_obj(x.coeffs)
    for x in gen.generate("dv_pipeline", 301)[0]:
        poly_path, rep_path = d / f"{x.name}.json", d / f"rep_{x.name}.json"
        poly_path.write_text(json.dumps(gen.poly_obj(x.coeffs)))
        assert main(["represent", str(poly_path), "-o", str(rep_path)]) == 0
        docs[f"rep_{x.name}"] = json.loads(rep_path.read_text())
    return docs


def per_pair(a):
    return [per_pair(x) for x in a] if np.ndim(a) else ser._c2pair(a)


def test_fast_and_per_entry_decodes_agree(seed_301_documents):
    count = 0
    for name, doc in seed_301_documents.items():
        for rows, shape, where in document_grids(doc, name):
            fast = ser._grid_from_obj(rows, shape, where)
            slow = np.array(ser._entries(rows, len(shape), where), dtype=np.complex128)
            assert fast.shape == slow.shape == shape
            assert fast.tobytes() == slow.tobytes(), where
            count += 1
    assert count > len(seed_301_documents)


def test_writer_matches_per_pair_encoding(seed_301_documents):
    signed = np.array([[-0.0 + 0.0j, complex(5e-324, -0.0)], [np.pi, -1.5e300j]])
    assert ser.dumps(ser._grid_to_obj(signed)) == ser.dumps(per_pair(signed))
    for name, doc in seed_301_documents.items():
        if doc["kind"] != "realization":
            continue
        rep, cert = ser.realization_from_obj(doc, name)
        for arr in [rep.U, cert.p.coeffs, cert.qmatrix.coeffs] + [c.coeffs for c in cert.vec_p]:
            assert ser.dumps(ser._grid_to_obj(arr)) == ser.dumps(per_pair(arr))
        # re-encoding a loaded document gives back its bytes
        again = ser.realization_to_obj(rep, cert, doc["report"])
        assert ser.dumps(again) == ser.dumps(doc)


@pytest.fixture(scope="module")
def realization_doc(tmp_path_factory):
    d = tmp_path_factory.mktemp("codec")
    poly_path = d / "p.json"
    poly_path.write_text(ser.dumps(ser.poly_to_obj(z3_minus_w2())))
    rep_path = d / "rep.json"
    assert main(["represent", str(poly_path), "-o", str(rep_path)]) == 0
    f_path = d / "f.json"
    f_path.write_text(ser.dumps(ser.poly_to_obj(z3_minus_w2())))
    return str(poly_path), str(f_path), json.loads(rep_path.read_text())


BAD_ENTRIES = {
    "string": "abc",
    "null": None,
    "three_numbers": [1.0, 0.0, 0.0],
    "nested_number": [0.5, [0.0, 0.0]],
    "nan": [float("nan"), 0.0],
    "inf": [0.0, float("-inf")],
}
GRID_FIELDS = {
    # (path to the pair, the field the error names); the load builds the
    # Qmatrix form from the coefficient grids of vec_second
    "U": (("U", 1, 2), ".U[1][2]"),
    "matrix_form": (("cert", "vec_second", 1, "coeffs", 2, 1), ".cert.vec_second[1].coeffs[2][1]"),
}


def run_on_edited(doc_paths, tmp_path, capsys, command, edit):
    poly_path, f_path, doc = doc_paths
    doc = json.loads(json.dumps(doc))
    edit(doc)
    bad = tmp_path / "bad_rep.json"
    bad.write_text(json.dumps(doc))
    name, *flags = command.split()
    argv = [name, str(bad), poly_path if name == "verify" else f_path, *flags]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured, str(bad)


@pytest.mark.parametrize("command", ["verify", "extend"])
@pytest.mark.parametrize("grid", sorted(GRID_FIELDS))
@pytest.mark.parametrize("entry", sorted(BAD_ENTRIES))
def test_bad_entry_named_exit_1(realization_doc, tmp_path, capsys, command, grid, entry):
    path, field = GRID_FIELDS[grid]

    def edit(doc):
        target = doc
        for part in path[:-1]:
            target = target[part]
        target[path[-1]] = BAD_ENTRIES[entry]

    code, captured, bad = run_on_edited(realization_doc, tmp_path, capsys, command, edit)
    assert code == 1
    assert captured.out == ""
    assert f"{bad}{field}:" in captured.err


@pytest.mark.parametrize("command", ["verify", "extend"])
@pytest.mark.parametrize(
    "path, field",
    [
        (("U", 1), ".U: expected a 5 x 5 matrix"),
        (("cert", "vec_second", 1, "coeffs", 2), ".cert.vec_second[1].coeffs: grid must be 4 x 2"),
    ],
    ids=["U", "matrix_form"],
)
def test_ragged_row_named_exit_1(realization_doc, tmp_path, capsys, command, path, field):
    def edit(doc):
        target = doc
        for part in path:
            target = target[part]
        target.pop()

    code, captured, bad = run_on_edited(realization_doc, tmp_path, capsys, command, edit)
    assert code == 1
    assert captured.out == ""
    assert f"{bad}{field}" in captured.err


def test_vec_second_above_its_degree_exit_1(realization_doc, tmp_path, capsys):
    # a nonzero z-power beyond the variety's degree n has no place in the
    # Qmatrix, which the load rebuilds from vec_second
    def edit(doc):
        comp = doc["cert"]["vec_second"][0]
        comp["degree"][0] += 1
        comp["coeffs"].append([[1.0, 0.0]] * len(comp["coeffs"][0]))

    code, captured, bad = run_on_edited(realization_doc, tmp_path, capsys, "extend", edit)
    assert code == 1
    assert f"{bad}.cert.vec_second: degree exceeds" in captured.err


@pytest.mark.parametrize("command", ["verify", "extend", "extend --no-swap"], ids=["verify", "extend", "no_swap"])
def test_vec_first_above_its_degree_exit_1(realization_doc, tmp_path, capsys, command):
    # P has components of degree <= (n - 1, m) = (2, 2) for z^3 - w^2
    def edit(doc):
        comp = doc["cert"]["vec_first"][1]
        comp["degree"][0] += 1
        comp["coeffs"].append([[1.0, 0.0]] * len(comp["coeffs"][0]))

    code, captured, bad = run_on_edited(realization_doc, tmp_path, capsys, command, edit)
    assert code == 1
    assert f"{bad}.cert.vec_first: degree exceeds (2, 2) at component 1" in captured.err


@pytest.mark.parametrize("command", ["verify", "extend", "extend --no-swap"], ids=["verify", "extend", "no_swap"])
@pytest.mark.parametrize("key, count", [("vec_first", 3), ("vec_second", 2)])
def test_component_count_against_degree_exit_1(realization_doc, tmp_path, capsys, command, key, count):
    # z^3 - w^2 has degree (3, 2): P has 3 components and Q has 2
    code, captured, bad = run_on_edited(
        realization_doc, tmp_path, capsys, command, lambda doc: doc["cert"][key].pop()
    )
    assert code == 1
    assert captured.out == ""
    assert f"{bad}.cert.{key}: expected {count} components for poly of degree [3, 2]" in captured.err


@pytest.mark.parametrize("command", ["verify", "extend", "extend --no-swap"], ids=["verify", "extend", "no_swap"])
def test_block_sizes_against_degree_exit_1(realization_doc, tmp_path, capsys, command):
    # m and n exchanged keep U square of the same size, but A must be m x m
    # for the degree (3, 2) of the certificate's polynomial
    def edit(doc):
        doc["m"], doc["n"] = doc["n"], doc["m"]

    code, captured, bad = run_on_edited(realization_doc, tmp_path, capsys, command, edit)
    assert code == 1
    assert captured.out == ""
    assert f"{bad}.m: 3 disagrees with the degree [3, 2] of {bad}.cert.poly" in captured.err


@pytest.mark.parametrize("command", ["verify", "extend", "extend --no-swap"], ids=["verify", "extend", "no_swap"])
def test_false_smooth_on_torus_claim_exit_1(realization_doc, tmp_path, capsys, command):
    # z^3 - w^2 is smooth on the torus; the claim false would buy a 100x
    # looser Gram gate and no Qmatrix gate
    def edit(doc):
        doc["cert"]["smooth_on_torus"] = False

    code, captured, bad = run_on_edited(realization_doc, tmp_path, capsys, command, edit)
    assert code == 1
    assert captured.out == ""
    assert f"{bad}.cert.smooth_on_torus: false, but {bad}.cert.poly has no singular point" in captured.err


@pytest.mark.parametrize("command", ["verify", "extend"])
@pytest.mark.parametrize(
    "path, value",
    [
        (("m",), 2.5),
        (("m",), True),
        (("n",), "3"),
        (("cert", "smooth_on_torus"), "false"),
        (("cert", "smooth_on_torus"), 0),
    ],
    ids=["fractional_m", "boolean_m", "string_n", "string_flag", "integer_flag"],
)
def test_block_size_or_flag_of_the_wrong_type_exit_1(realization_doc, tmp_path, capsys, command, path, value):
    # the block sizes are JSON integers and smooth_on_torus a JSON boolean:
    # 2.5 would truncate to 2, true would count as 1 and "false" as true
    def edit(doc):
        target = doc
        for part in path[:-1]:
            target = target[part]
        target[path[-1]] = value

    code, captured, bad = run_on_edited(realization_doc, tmp_path, capsys, command, edit)
    assert code == 1
    assert captured.out == ""
    assert f"{bad}.{'.'.join(path)}: expected" in captured.err


def test_missing_smooth_on_torus_reads_true(realization_doc, tmp_path, capsys):
    code, captured, _ = run_on_edited(
        realization_doc, tmp_path, capsys, "verify", lambda doc: doc["cert"].pop("smooth_on_torus")
    )
    assert code == 0
    assert json.loads(captured.out)["smooth_on_torus"] is True


LEGACY = {
    # documents written while certificates still carried their matrix forms
    # ("matrix_first", "matrix_second") and a null "residual"
    "realization": ("legacy_rep_z3_minus_w2.json", z3_minus_w2, ["represent"]),
    "certificate": ("legacy_sos_four_minus_z_minus_w.json", four_minus_z_minus_w, ["sos"]),
}


@pytest.mark.parametrize("kind", sorted(LEGACY))
def test_legacy_documents_read_like_fresh_ones(tmp_path, capsys, kind):
    # the legacy keys are ignored: verify and extend read a legacy document
    # exactly as the same document without them, and a fresh document, which
    # never has them, passes the same calls
    name, build, command = LEGACY[kind]
    legacy = DATA / name
    doc = json.loads(legacy.read_text())
    cert = doc.get("cert", doc)
    assert "matrix_second" in cert
    for key in ("matrix_first", "matrix_second", "residual"):
        del cert[key]
    stripped, poly_path, f_path, fresh = (
        tmp_path / "stripped.json", tmp_path / "p.json", tmp_path / "f.json", tmp_path / "fresh.json"
    )
    stripped.write_text(ser.dumps(doc))
    poly_path.write_text(ser.dumps(ser.poly_to_obj(build())))
    f_path.write_text(ser.dumps(ser.poly_to_obj(poly({(0, 1): 1}))))
    assert main([*command, str(poly_path), "-o", str(fresh)]) == 0
    assert "matrix_second" not in fresh.read_text()
    capsys.readouterr()
    calls = [["verify", "{doc}", str(poly_path)]]
    if kind == "realization":
        calls.append(["extend", "{doc}", str(f_path), "--no-swap"])
    for argv in calls:
        outputs = []
        for path in (legacy, stripped, fresh):
            assert main([a.format(doc=path) for a in argv]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], argv[0]
        assert json.loads(outputs[2])["passed"] is True, argv[0]
