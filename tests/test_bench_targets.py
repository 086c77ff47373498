"""Every function the benchmark tracer wraps must still exist, so that a
rename fails here instead of breaking ``perfbench/run.py --trace 1``."""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()
TARGETS = [
    (metric, module, path)
    for table in (TRACER.SPANNED, TRACER.COUNTED)
    for metric, targets in table.items()
    for module, path in targets
]


@pytest.mark.parametrize(
    "metric, module, path", TARGETS, ids=[f"{m}:{p}" for m, _, p in TARGETS]
)
def test_target_resolves(metric, module, path):
    owner, name = TRACER._resolve(module, path)
    assert callable(getattr(owner, name, None)), f"{metric}: {module}.{path} is gone"


def test_every_layer_metric_has_a_source():
    prefixes = set(TRACER.SPANNED) | set(TRACER.COUNTED)
    for metric, _ in TRACER.LAYER_METRICS:
        if metric == "soscert.moments_grid_max":
            continue
        assert metric.rsplit(".", 1)[0] in prefixes, metric


def test_observed_result_fields():
    # the tracer reads these fields off the results of two spanned targets
    from dvkit.classify import torus_singularities
    from dvkit.poly2 import BivariatePolynomial
    from dvkit.soscert import compute_moments

    p = BivariatePolynomial.from_terms({(0, 0): 4, (1, 0): -1, (0, 1): -1})
    assert compute_moments(p).grid_size >= 256
    assert torus_singularities(p).points == ()
