"""Smoke test of scripts/unreached_lines.py, the line trace of the CLI
traffic over src/dvkit."""

import importlib.util
import re
import sys
from pathlib import Path

from conftest import z3_minus_w2
from dvkit.serialize import dumps, poly_to_obj

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location("unreached_lines", ROOT / "scripts" / "unreached_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_polynomial_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "z3w2.json").write_text(dumps(poly_to_obj(z3_minus_w2())))
    tracer_before = sys.gettrace()
    assert load_script().main([str(corpus)]) == 0
    assert sys.gettrace() is tracer_before
    captured = capsys.readouterr()
    unreached = set()
    for line in captured.out.splitlines():
        name, number, text = re.fullmatch(r"(src/dvkit/\w+\.py):(\d+): (.*)", line).groups()
        assert (ROOT / name).read_text().splitlines()[int(number) - 1].strip() == text
        unreached.add((name, text))
    # z^3 - w^2 is represented, so the represent handler ran; no call set
    # a weight that is not finite, so its refusal did not
    assert ("src/dvkit/cli.py", "cert, rep, report = represent(p, args.a, args.b)") not in unreached
    assert ("src/dvkit/cli.py", 'return "--a and --b must be finite"') in unreached
    # extend's gate reads F through the evaluator dvkit exports
    assert ("src/dvkit/extend.py", "g = self.rows(zs).reshape(z.shape + (self.rep.m,))") not in unreached
    assert re.search(r"unreached_lines: \d+ of \d+ executable lines reached", captured.err)
