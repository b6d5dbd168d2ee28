"""Tests of the benchmark itself: ``python3 -m pytest -q bench/test_bench.py``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_desk_generator_reproduces_acceptance_7_data():
    from test_acceptance import _synthetic_for_em

    want_model, want = _synthetic_for_em(1031, 2000, 3, (2.0, 2.5), 0.2, 2)
    got_model, got = workloads.desk_data()
    for name in ("y", "delta", "covariates"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got_model.gamma, want_model.gamma)
    for g, w in zip(got_model.margins, want_model.margins):
        assert np.array_equal(g.sub.matrix, w.sub.matrix)
        assert g.transform.beta == w.transform.beta


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_emits_every_named_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "desk-fit", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


TOY = """
def leaf(x):
    return sum(range(x))

def inner(x):
    return leaf(x) + leaf(x)

def outer(x):
    return inner(x) + inner(2 * x) + leaf(x)
"""


def _toy_module(monkeypatch):
    """A module whose functions call each other through module globals, as
    miph's do."""
    toy = types.ModuleType("bench_toy")
    exec(TOY, toy.__dict__)
    monkeypatch.setitem(sys.modules, "bench_toy", toy)
    return toy


def _assert_nested(spans):
    selfs = tracing.self_times(spans)
    subtree = [0.0] * len(spans)
    for i in reversed(range(len(spans))):  # children come after their parent
        if spans[i].parent >= 0:
            subtree[spans[i].parent] += subtree[i] + selfs[i]
    for i, span in enumerate(spans):
        assert selfs[i] >= 0.0
        assert subtree[i] <= span.seconds + 1e-12


def test_child_self_times_fit_inside_their_parent(monkeypatch):
    toy = _toy_module(monkeypatch)
    layers = {name: ([("bench_toy", name)], None, False) for name in ("outer", "inner", "leaf")}
    tracer = tracing.Tracer()
    tracer.install(layers)
    try:
        toy.outer(20000)
    finally:
        tracer.restore()
    assert [s.layer for s in tracer.spans].count("leaf") == 5
    _assert_nested(tracer.spans)

    tracer = tracing.Tracer()
    run.run_pass(Namespace(workload="desk-fit", seed=1, tiny=True), tracer=tracer)
    assert tracer.spans
    _assert_nested(tracer.spans)


def test_missing_name_is_absent_and_originals_come_back():
    import importlib

    targets = [t for spec in tracing.LAYERS.values() for t in spec[0]]
    before = {t: getattr(importlib.import_module(t[0]), t[1]) for t in targets}
    layers = dict(tracing.LAYERS)
    layers["model.no_such_layer"] = ([("miph.model", "no_such_function")], None, False)
    tracer = tracing.Tracer()
    tracer.install(layers)
    try:
        assert tracer.absent == ["model.no_such_layer"]
        assert all(getattr(importlib.import_module(m), a) is not before[(m, a)]
                   for m, a in targets)
    finally:
        tracer.restore()
    assert all(getattr(importlib.import_module(m), a) is before[(m, a)] for m, a in targets)

    metrics = tracing.layer_metrics([], absent=["estimation.r_step"])
    assert not any(name.startswith("estimation.r_step.") for name in metrics)
    assert metrics["estimation.e_step.calls"]["value"] == 0
