"""Smoke tests of scripts/output_digest.py and scripts/compare_dumps.py, the
tools that compare the CLI outputs of two checkouts."""

import importlib.util
import json
import re
from pathlib import Path

from conftest import four_minus_z_minus_w, one_minus_z3w2, z3_minus_w2
from dvkit.serialize import dumps, poly_to_obj

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name="output_digest"):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_line_and_one_dump_per_call(tmp_path, capsys):
    corpus, dump = tmp_path / "corpus", tmp_path / "dump"
    corpus.mkdir()
    (corpus / "four.json").write_text(dumps(poly_to_obj(four_minus_z_minus_w())))
    (corpus / "one.json").write_text(dumps(poly_to_obj(one_minus_z3w2())))
    (corpus / "z3w2.json").write_text(dumps(poly_to_obj(z3_minus_w2())))
    (corpus / "notes.json").write_text('{"kind": "other"}')
    assert load_script().main([str(corpus), "--dump", str(dump)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [re.fullmatch(r"(\S+) (\S+) exit=(\d) ([0-9a-f]{64})", line).groups() for line in lines]
    # 4 - z - w is no distinguished variety, so represent fails and the
    # commands that read its realization do not run, and it is not
    # torus-symmetric, so weighted sos fails; 1 - z^3 w^2 is symmetric and
    # no variety; z^3 - w^2 has no sums-of-squares certificate, so no
    # certificate document is read back
    assert [(name, command, int(code)) for name, command, code, _ in rows] == [
        ("four.json", "classify", 0),
        ("four.json", "reflect", 0),
        ("four.json", "sos", 0),
        ("four.json", "sos_verify", 0),
        ("four.json", "sos_weighted", 2),
        ("four.json", "represent", 2),
        ("one.json", "classify", 0),
        ("one.json", "reflect", 0),
        ("one.json", "sos", 0),
        ("one.json", "sos_verify", 0),
        ("one.json", "sos_weighted", 0),
        ("one.json", "sos_weighted_verify", 0),
        ("one.json", "represent", 2),
        ("z3w2.json", "classify", 0),
        ("z3w2.json", "reflect", 0),
        ("z3w2.json", "sos", 2),
        ("z3w2.json", "sos_weighted", 2),
        ("z3w2.json", "represent", 0),
        ("z3w2.json", "extend", 0),
        ("z3w2.json", "extend_offvar", 0),
        ("z3w2.json", "extend_swap", 0),
        ("z3w2.json", "extend_expand", 0),
        ("z3w2.json", "verify", 0),
        ("z3w2.json", "verify_dv", 0),
        ("-", "demo", 0),
    ]
    dumps_written = sorted(p.name for p in dump.iterdir())
    assert dumps_written == sorted(f"{name}.{command}.json" for name, command, _, _ in rows)
    for name in dumps_written:
        assert isinstance(json.loads((dump / name).read_text()), dict), name
    assert json.loads((dump / "z3w2.json.represent.json").read_text())["kind"] == "realization"
    assert json.loads((dump / "one.json.sos_weighted.json").read_text())["kind"] == "Symmetric"
    verify_dv = json.loads((dump / "z3w2.json.verify_dv.json").read_text())
    assert (verify_dv["kind"], verify_dv["gram_equality"]) == ("DV", True)


def test_compare_dumps_tells_a_changed_verdict(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "four.json").write_text(dumps(poly_to_obj(four_minus_z_minus_w())))
    (corpus / "z3w2.json").write_text(dumps(poly_to_obj(z3_minus_w2())))
    digest, compare = load_script(), load_script("compare_dumps")
    old, new = tmp_path / "old", tmp_path / "new"
    for dump in (old, new):
        assert digest.main([str(corpus), "--dump", str(dump)]) == 0
    capsys.readouterr()
    assert compare.main([str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert "verify gram_defect count=1 max_rel=0\n" in out
    assert "VERDICT" not in out
    verify = new / "z3w2.json.verify.json"
    doc = json.loads(verify.read_text())
    doc["passed"] = False
    verify.write_text(json.dumps(doc))
    assert compare.main([str(old), str(new)]) == 1
    assert "VERDICT: z3w2.json.verify.json passed: true -> false" in capsys.readouterr().out
    verify.unlink()
    assert compare.main([str(old), str(new)]) == 1
    assert f"VERDICT: z3w2.json.verify.json: only in {old}" in capsys.readouterr().out


def test_scale_multiplies_every_polynomial(tmp_path, capsys):
    # z^3 - w^2 and 4 - z - w times 2^+-1000 keep every exit code of scale
    # 1, the expansion of the extension included; reflect writes the
    # scaled polynomial back
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "four.json").write_text(dumps(poly_to_obj(four_minus_z_minus_w())))
    (corpus / "z3w2.json").write_text(dumps(poly_to_obj(z3_minus_w2())))
    codes = {}
    for k in (0, 1000, -1000):
        dump = tmp_path / f"dump{k}"
        assert load_script().main([str(corpus), "--dump", str(dump), "--scale", str(k)]) == 0
        codes[k] = [line.rsplit(" ", 1)[0] for line in capsys.readouterr().out.splitlines()]
        reflected = json.loads((dump / "z3w2.json.reflect.json").read_text())
        assert max(abs(re) + abs(im) for row in reflected["coeffs"] for re, im in row) == 2.0**k
    assert codes[1000] == codes[-1000] == codes[0]
    assert "z3w2.json extend_expand exit=0" in codes[0]
