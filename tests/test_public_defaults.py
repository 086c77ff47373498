"""No parameter default of src/dvkit is kept for tests alone.

Every default of a public function or method is listed below with the
caller outside tests/ that relies on it; a default that only tests use
fails this inventory, and so does one removed without updating it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dvkit"

PINNED = {
    # the demo and scripts/degree_survey.py represent at weights (1, 1)
    ("dvrep", "represent", "a"),
    ("dvrep", "represent", "b"),
    # `sos` calls it without `smooth`, so that g is classified
    ("soscert", "sym_sos_certificate", "smooth"),
    # scripts/output_digest.py reads its polynomials without a field name
    ("serialize", "poly_from_obj", "where"),
    # outside tests only perfbench/tracer.py names the function (ROADMAP item 5)
    ("extend", "sup_norm_on_variety", "grid_n"),
    # the console entry and python -m dvkit call it without argv
    ("__main__", "main", "argv"),
}


def _defaults(body, module, prefix=""):
    """(module, qualified name, parameter) for each default of a public
    function, or of a public method of a public class, in ``body``."""
    for node in body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from _defaults(node.body, module, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults) :]
            with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for arg in with_default:
                yield module, prefix + node.name, arg.arg


def test_every_public_default_has_a_caller_outside_tests():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(_defaults(ast.parse(path.read_text()).body, path.stem))
    assert found == PINNED
