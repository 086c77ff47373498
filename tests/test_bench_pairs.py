"""Summary rule of scripts/bench_pairs.py, on made-up runs, and its
compile step."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
END_TO_END = [
    {"name": "op_tail_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "verified_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs_of(old, new):
    """Pairs whose runs read op_tail_s = x and verified_per_s = 1/x."""
    run = lambda x: {"attempted": 10, "failed": 0, "metrics": {"op_tail_s": x, "verified_per_s": 1 / x}}
    return [{"first": "old", "old": run(a), "new": run(b)} for a, b in zip(old, new)]


def test_gain_needs_nine_tenths_of_the_pairs_and_a_lead_beyond_the_spread():
    summarize = load_script().summarize
    old = [20.0, 21.0, 19.0, 20.5, 19.5, 20.0, 21.5, 18.5, 20.0, 20.0]
    s = summarize(pairs_of(old, [x - 4 for x in old]), END_TO_END)
    assert s["op_tail_s"]["old"]["median"] == 20.0 and s["op_tail_s"]["new"]["median"] == 16.0
    assert s["op_tail_s"]["new_wins"] == 10 and s["op_tail_s"]["gain"]
    # the same runs read in the direction where higher is better
    assert s["verified_per_s"]["new_wins"] == 10 and s["verified_per_s"]["gain"]
    # a tie counts for neither side, and 8 wins in 10 claim nothing
    tied = [x - 4 for x in old[:8]] + old[8:]
    s = summarize(pairs_of(old, tied), END_TO_END)
    assert s["op_tail_s"]["new_wins"] == 8 and not s["op_tail_s"]["gain"]
    # every pair won, by less than the distance between the quartiles
    s = summarize(pairs_of(old, [x - 0.1 for x in old]), END_TO_END)
    assert s["op_tail_s"]["new_wins"] == 10 and not s["op_tail_s"]["gain"]


def test_fewer_than_two_pairs_have_no_summary():
    assert load_script().summarize(pairs_of([1.0], [0.5]), END_TO_END) == {}


def test_one_pair_refused(capsys):
    with pytest.raises(SystemExit):
        load_script().main([".", ".", "--workload", "sos_certify", "--pairs", "1", "--seed", "1"])
    assert "--pairs must be at least 2" in capsys.readouterr().err


def test_compile_step_writes_bytecode_where_the_environment_forbids_it(tmp_path, monkeypatch):
    # the benchmark's cold starts then read bytecode on both sides
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    for name in ("src/pkg/mod.py", "perfbench/run.py"):
        (tmp_path / name).parent.mkdir(parents=True)
        (tmp_path / name).write_text("X = 1\n")
    load_script().compile_checkout(str(tmp_path))
    for name in ("src/pkg", "perfbench"):
        assert list((tmp_path / name / "__pycache__").glob("*.pyc")), name
