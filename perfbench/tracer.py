"""Spans and counts around calls into dvkit's public functions, recorded
from outside the library.

A target is wrapped at every ``dvkit.*`` module attribute bound to it,
because modules import names from one another (``dvrep`` and ``soscert``
call ``classify`` functions through their own bindings); methods are
wrapped on their class.  Spanned targets record (name, operation, start,
end, parent) and accumulate self time, the span's duration minus the part
covered by its child spans; counted targets only count calls.  Wrappers
exist only between ``install`` and ``uninstall``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# metric prefix -> [(module, attribute path)]; spanned targets give "<prefix>.s"
SPANNED = {
    "classify.torus_singularities": [("dvkit.classify", "torus_singularities")],
    "classify.classify_zero_set": [("dvkit.classify", "classify_zero_set")],
    "classify.is_squarefree": [("dvkit.classify", "is_squarefree")],
    "soscert.compute_moments": [("dvkit.soscert", "compute_moments")],
    "soscert.sos_certificate": [("dvkit.soscert", "sos_certificate")],
    "soscert.verify_certificate": [("dvkit.soscert", "verify_certificate")],
    "soscert.gw_invertibility": [("dvkit.soscert", "gw_invertibility")],
    "dvrep.dv_certificate": [("dvkit.dvrep", "dv_certificate")],
    "dvrep.sample_variety": [("dvkit.dvrep", "sample_variety")],
    "dvrep.lurking_isometry": [("dvkit.dvrep", "lurking_isometry")],
    "dvrep.verify_representation": [("dvkit.dvrep", "verify_representation")],
    "extend.extension_bound": [("dvkit.extend", "extension_bound")],
    "extend.verify_extension": [("dvkit.extend", "verify_extension")],
    "extend.sup_norm_on_variety": [("dvkit.extend", "sup_norm_on_variety")],
    "serialize.dumps": [("dvkit.serialize", "dumps")],
    "serialize.load": [
        ("dvkit.serialize", name)
        for name in ("load_path", "poly_from_obj", "cert_from_obj", "dv_cert_from_obj", "realization_from_obj")
    ],
    "cli.main": [("dvkit.cli", "main")],
}
COUNTED = {
    "classify.fiber_roots": [("dvkit.classify", "fiber_roots")],
    "classify.root_count_in_disk": [("dvkit.classify", "root_count_in_disk")],
    "poly2.evaluate": [("dvkit.poly2", "BivariatePolynomial.evaluate")],
    "poly2.matrix_evaluate": [("dvkit.poly2", "MatrixPolynomial.evaluate")],
    "soscert.dilate": [("dvkit.soscert", "dilate")],
    "dvrep.phi_evaluate": [("dvkit.dvrep", "phi_evaluate")],
    "extend.operator_evaluate": [
        ("dvkit.extend", "ExtensionOperator.evaluate"),
        ("dvkit.extend", "ExtensionOperator.evaluate_grid"),
    ],
}

# (metric, unit) in report order; trace.overhead_frac is added by the worker.
LAYER_METRICS = [
    ("classify.torus_singularities.s", "s"),
    ("classify.torus_singularities.calls", "count"),
    ("classify.torus_singularities.points", "count"),
    ("classify.classify_zero_set.s", "s"),
    ("classify.classify_zero_set.calls", "count"),
    ("classify.fiber_roots.calls", "count"),
    ("classify.root_count_in_disk.calls", "count"),
    ("classify.is_squarefree.s", "s"),
    ("poly2.evaluate.calls", "count"),
    ("poly2.matrix_evaluate.calls", "count"),
    ("soscert.compute_moments.s", "s"),
    ("soscert.compute_moments.calls", "count"),
    ("soscert.moments_grid_max", "count"),
    ("soscert.dilate.calls", "count"),
    ("soscert.sos_certificate.s", "s"),
    ("soscert.verify_certificate.calls", "count"),
    ("soscert.verify_certificate.s", "s"),
    ("soscert.gw_invertibility.s", "s"),
    ("dvrep.dv_certificate.s", "s"),
    ("dvrep.sample_variety.s", "s"),
    ("dvrep.lurking_isometry.s", "s"),
    ("dvrep.verify_representation.s", "s"),
    ("dvrep.phi_evaluate.calls", "count"),
    ("extend.extension_bound.s", "s"),
    ("extend.verify_extension.s", "s"),
    ("extend.sup_norm_on_variety.s", "s"),
    ("extend.operator_evaluate.calls", "count"),
    ("serialize.dumps.s", "s"),
    ("serialize.load.s", "s"),
    ("cli.main.s", "s"),
]


def _resolve(module, path):
    owner = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.spans = []  # (name, op, start, end, parent span index or -1)
        self.points = 0
        self.grid_max = 0
        self.op = -1
        self._stack = []  # [span index, start, child seconds]
        self._saved = []

    # -- wrappers ------------------------------------------------------

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name, fn):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            index = len(spans)
            spans.append(None)
            frame = [index, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                self.self_s[name] += duration - frame[2]
                parent = -1
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][0]
                spans[index] = (name, self.op, frame[1], end, parent)
            self._observe(name, result)
            return result

        return wrapper

    def _observe(self, name, result):
        if name == "classify.torus_singularities":
            self.points += len(result.points)
        elif name == "soscert.compute_moments":
            self.grid_max = max(self.grid_max, result.grid_size)

    # -- installation --------------------------------------------------

    def install(self, op: int):
        """Wrap every target at every dvkit binding of it; ``op`` tags spans."""
        self.op = op
        originals = {}
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name, targets in table.items():
                for module, path in targets:
                    owner, attr = _resolve(module, path)
                    fn = getattr(owner, attr)
                    if isinstance(owner, type):
                        self._saved.append((owner, attr, fn))
                        setattr(owner, attr, make(name, fn))
                    else:
                        originals[id(fn)] = (fn, make(name, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "dvkit" and not modname.startswith("dvkit."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- results -------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for metric, unit in LAYER_METRICS:
            prefix, kind = metric.rsplit(".", 1)
            if metric == "soscert.moments_grid_max":
                value = self.grid_max
            elif kind == "s":
                value = self.self_s.get(prefix, 0.0)
            elif kind == "calls":
                value = self.calls.get(prefix, 0)
            else:
                value = self.points
            out[metric] = {"value": value, "unit": unit}
        return out
