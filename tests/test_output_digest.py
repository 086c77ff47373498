"""Smoke test of scripts/output_digest.py, the tool that compares the CLI
outputs of two checkouts."""

import importlib.util
import json
import re
from pathlib import Path

from conftest import four_minus_z_minus_w, z3_minus_w2
from dvkit.serialize import dumps, poly_to_obj

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_line_and_one_dump_per_call(tmp_path, capsys):
    corpus, dump = tmp_path / "corpus", tmp_path / "dump"
    corpus.mkdir()
    (corpus / "four.json").write_text(dumps(poly_to_obj(four_minus_z_minus_w())))
    (corpus / "z3w2.json").write_text(dumps(poly_to_obj(z3_minus_w2())))
    (corpus / "notes.json").write_text('{"kind": "other"}')
    assert load_script().main([str(corpus), "--dump", str(dump)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [re.fullmatch(r"(\S+) (\S+) exit=(\d) ([0-9a-f]{64})", line).groups() for line in lines]
    # 4 - z - w is no distinguished variety, so represent fails and the
    # commands that read its realization do not run; z^3 - w^2 has no
    # sums-of-squares certificate
    assert [(name, command, int(code)) for name, command, code, _ in rows] == [
        ("four.json", "classify", 0),
        ("four.json", "sos", 0),
        ("four.json", "represent", 2),
        ("z3w2.json", "classify", 0),
        ("z3w2.json", "sos", 2),
        ("z3w2.json", "represent", 0),
        ("z3w2.json", "extend", 0),
        ("z3w2.json", "extend_swap", 0),
        ("z3w2.json", "verify", 0),
        ("-", "demo", 0),
    ]
    dumps_written = sorted(p.name for p in dump.iterdir())
    assert dumps_written == sorted(f"{name}.{command}.json" for name, command, _, _ in rows)
    for name in dumps_written:
        assert isinstance(json.loads((dump / name).read_text()), dict), name
    assert json.loads((dump / "z3w2.json.represent.json").read_text())["kind"] == "realization"
