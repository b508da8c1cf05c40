"""Smoke test of what the benchmark in perfbench/ needs from the library.

perfbench/workloads.py and perfbench/spans.py are loaded read-only and driven
as perfbench/run.py drives them: one pass of each workload through
prepare -> execute -> check, one pass under spans.Tracer (which rebinds every
attribute listed in spans.SITES, so a renamed or dropped name fails here),
and the threads=2 comparison of a scenario's CSVs.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ there
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


@pytest.fixture(scope="module")
def bench():
    wl = _load("workloads")
    return wl, _load("spans"), wl.Context(), wl.load_refs()


def _first_pass(wl, workload, seed=5):
    return next(wl.passes(workload, np.random.default_rng(seed)))


def _run(wl, ctx, refs, ops, out_dir, threads=1):
    results = []
    for i, op in enumerate(ops):
        result = wl.execute(op, wl.prepare(op, ctx), ctx, out_dir / str(i), threads)
        wl.check(op, result, refs, ctx)
        results.append(result)
    return results


@pytest.mark.parametrize("workload", ["film", "film-smooth", "session", "plane-mc"])
def test_one_pass_of_each_workload_checks(bench, workload, tmp_path):
    wl, _, ctx, refs = bench
    ops = _first_pass(wl, workload)
    assert ops
    _run(wl, ctx, refs, ops, tmp_path)


def test_traced_pass_binds_every_site(bench, tmp_path):
    wl, spans, ctx, refs = bench
    before = {(m.__name__, attr): getattr(m, attr) for m, attr, _ in spans.SITES}
    tracer = spans.Tracer()
    with tracer:
        _run(wl, ctx, refs, _first_pass(wl, "session"), tmp_path)
    calls, _ = tracer.self_times()
    assert calls["scenarios.run_scenario"] == 4
    assert calls["numerics.bessel"] > 0
    after = {(m.__name__, attr): getattr(m, attr) for m, attr, _ in spans.SITES}
    assert after == before


def test_two_threads_write_the_same_tables(bench, tmp_path):
    wl, _, ctx, refs = bench
    ops = _first_pass(wl, "film")[:1]
    one = _run(wl, ctx, refs, ops, tmp_path / "t1")
    two = _run(wl, ctx, refs, ops, tmp_path / "t2", threads=2)
    assert wl.csv_without_timestamp(one[0]) == wl.csv_without_timestamp(two[0])
