"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest
import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

PROBLEMS = HERE.parent / "problems"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    for t, action, name in [
        (0, "enter", "cli.main"), (1, "enter", "operator.a"), (2, "enter", "quadrature.b"),
        (3, "exit", None), (4, "exit", None), (5, "enter", "operator.c"),
        (9, "exit", None), (10, "exit", None),
    ]:
        clock.now = float(t)
        tr.enter(name) if action == "enter" else tr.exit()
    assert tr.stats["cli.main"] == [1, 10.0, 3.0]
    assert tr.stats["operator.a"] == [1, 3.0, 2.0]
    assert tr.stats["quadrature.b"] == [1, 1.0, 1.0]
    assert tr.stats["operator.c"] == [1, 4.0, 4.0]
    modules = tr.module_self()
    assert modules["operator"] == 6.0 and modules["cli"] == 3.0
    assert sum(modules.values()) == 10.0


def test_term_time_runs_from_one_kernel_to_the_next():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    tr.enter("operator._sc_eval")       # t=0; x0 owns the time up to f1
    clock.now = 2.0
    tr.mark_term("x0")
    clock.now = 3.0
    tr.mark_term("f1")
    clock.now = 7.0
    tr.mark_term("f1")                  # same term again: no split
    clock.now = 8.0
    tr.mark_term("g")
    clock.now = 10.0
    tr.exit()
    assert tr.terms["x0"] == 3.0 and tr.terms["f1"] == 5.0 and tr.terms["g"] == 2.0
    assert sum(tr.terms.values()) == tr.stats["operator._sc_eval"][1]


def test_a_raising_call_counts_as_failed(monkeypatch, tmp_path):
    from hybrid_volterra import cli

    def fake_main(argv):
        if argv[0] == "boom":
            raise IndexError("boom")
        print("converged: true")
        raise SystemExit(0)

    monkeypatch.setattr(cli, "main", fake_main)
    ok = workloads.Call("ok", ["ok"], lambda res: workloads._status(res)
                        or workloads.Verdict(False))
    boom = workloads.Call("boom", ["boom"], ok.check)
    load = workloads.Workload("fake", [ok, boom], [], tmp_path, ([], []))
    result = worker.untraced(load, 0.0)
    assert result["attempted"] == 2 and result["failed"] == 1
    assert result["metrics"]["failed_frac"] == 0.5
    assert result["wrong"] == 0
    assert "IndexError" in result["failures"]["boom"]


@pytest.mark.parametrize("gen", inputs.shipped(0), ids=lambda g: g.name)
def test_seed_zero_writes_the_shipped_problems(gen, tmp_path):
    shipped = (PROBLEMS / f"{gen.name}.yaml").read_text()
    assert yaml.safe_load(gen.text) == yaml.safe_load(shipped)
    assert gen.text == shipped


def test_seed_zero_mixed_at_256_panels_differs_only_in_panels():
    doc = yaml.safe_load(inputs.mixed_impulses(0, inputs.MIXED_PANELS).text)
    shipped = yaml.safe_load((PROBLEMS / "mixed_impulses.yaml").read_text())
    shipped["quadrature"]["nodes_per_segment"] = inputs.MIXED_PANELS
    assert doc == shipped


def test_seeds_vary_the_inputs_but_not_the_grid(tmp_path):
    from hybrid_volterra.problem_io import load_problem_file

    texts, sizes = set(), set()
    for seed in range(4):
        for gen in (inputs.mixed_impulses(seed, 256), inputs.tdep(seed)):
            texts.add(gen.text)
            sizes.add((gen.name, load_problem_file(gen.write(tmp_path)).problem.grid.size))
    assert len(texts) == 8
    assert sizes == {("mixed_impulses_256", 1028), ("tdep", 130)}


def test_stored_references_belong_to_the_generated_inputs():
    refs = json.loads(workloads.REFS.read_text())
    assert len(refs["variants"]) == inputs.VARIANTS
    for v in range(inputs.VARIANTS):
        text = inputs.mixed_impulses(v, refs["panels"]).text
        assert refs["variants"][str(v)]["sha256"] == hashlib.sha256(text.encode()).hexdigest()


def test_reported_metrics_are_those_of_the_benchmark_file():
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [name for name, _ in worker.per_layer_names()]
    assert len(names) == len(set(names)) <= 128
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == worker.per_layer_names()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
