"""Checks of the benchmark itself (not of the program under test).

    python3 -m pytest sessionbench -q
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import refkernel  # noqa: E402


# -- reference kernel ---------------------------------------------------------
def test_kernel_module_imports_nothing_from_repro():
    tree = ast.parse((HERE / "refkernel.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not {name for name in imported if name.split(".")[0] == "repro"}
    # And at run time: importing and running it loads no repro module.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import refkernel; refkernel.measure(1); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code, str(HERE)], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_scaling_is_raw_times_k_ref_over_k_run():
    k_run = 2 * refkernel.K_REF
    assert refkernel.to_reference(0.120, k_run) == pytest.approx(0.060)
    assert refkernel.to_reference(0.120, refkernel.K_REF) == pytest.approx(0.120)
    assert refkernel.to_reference(0.050, 0.5 * refkernel.K_REF) == pytest.approx(0.100)


def test_kernel_restores_gc_state():
    import gc

    assert gc.isenabled()
    assert refkernel.measure(1) > 0
    assert gc.isenabled()


# -- fixed work -----------------------------------------------------------------
def _shapes(workload, seed):
    units = workload.plan(seed)
    if workload.name == "tenant_server":
        return units
    return [cell for _, cell, _ in units]


@pytest.mark.parametrize("name", ["demo_session", "integration_scale", "tenant_server"])
def test_two_seeds_plan_the_same_shapes(name, tmp_path):
    import workloads

    workload = workloads.make(name, str(tmp_path / "wal"))
    assert _shapes(workload, 1) == _shapes(workload, 2)


@pytest.mark.parametrize("name", ["demo_session", "integration_scale", "tenant_server"])
def test_two_seeds_do_the_same_work(name, tmp_path):
    """One unit per seed: identical work, operation and request counts."""
    import users
    import workloads

    counts = []
    for seed in (3, 4):
        workload = workloads.make(name, str(tmp_path / f"wal-{seed}"))
        brackets = users.Brackets(1)
        try:
            units = workload.plan(seed)
            if name == "tenant_server":
                workload.build(seed)
            result = workload.run_unit(units[0], brackets)
        finally:
            workload.close()
        assert not result.errors
        counts.append([
            (log.counts, {k: len(v) for k, v in log.ops.items()}, {k: len(v) for k, v in log.requests.items()})
            for log in result.logs
        ] + [len(brackets.k)])
    assert counts[0] == counts[1]


# -- failures -------------------------------------------------------------------
def test_a_run_that_fails_partway_reports_itself_not_correct(monkeypatch):
    """Failed operations leave fewer samples than the fixed work (here: no
    suggestion or link at all); the run still yields every metric and counts
    each failure instead of crashing."""
    import json
    import math

    import run
    import users
    import workloads
    from repro import CopyCatSession

    original = CopyCatSession.paste
    calls = {"n": 0}

    def paste_fails_after_the_first(self, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 1:
            raise RuntimeError("injected paste failure")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CopyCatSession, "paste", paste_fails_after_the_first)
    workload = workloads.DemoSession()
    brackets = users.Brackets(1)
    results = run.run_units(workload, workload.plan(7)[:2], brackets)
    samples, outputs, e2e, attempted, failed = run.evaluate(workload, results, brackets, 7, 1.0)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(e2e) == sorted(metric["name"] for metric in spec["end_to_end"])
    assert all(math.isfinite(value) for value, _ in e2e.values())
    assert samples.op("suggest") == [] and samples.op("link") == []
    assert sum(len(result.errors) for result in results) == 2
    assert 0 < failed <= attempted
    assert e2e["ok_rate"][0] == pytest.approx((attempted - failed) / attempted)
    assert e2e["ok_rate"][0] < 1.0
    assert not outputs["checks"][f"p90_samples:paste>={run.P90_MIN_SAMPLES}"]


def test_a_failed_tenant_request_does_not_end_the_script(monkeypatch, tmp_path):
    """Every request of a tenant's script is attempted; each one that fails
    is counted."""
    import users
    import workloads

    def teach_link_fails(*args, **kwargs):
        raise RuntimeError("injected link failure")

    monkeypatch.setattr(users, "teach_link", teach_link_fails)
    workload = workloads.make("tenant_server", str(tmp_path / "wal"))
    try:
        unit = workload.plan(3)[0]
        workload.build(3)
        result = workload.run_unit(unit, users.Brackets(1))
        script = workloads.tenant_script(workload.scenario, workload.plans, 0, 0)
    finally:
        workload.close()
    assert [log.n_requests() for log in result.logs] == [len(script)] * len(unit)
    assert sum("injected link failure" in error for error in result.errors) == 3 * len(unit)


# -- tracing --------------------------------------------------------------------
def test_traced_demo_session_counts_the_string_kernels():
    """The kernels are bound by name in their callers; all must be counted."""
    import tracer as tracing
    import users
    import workloads
    from repro.linking import similarity
    from repro.util import strings, text

    originals = (strings.levenshtein, text.tokenize, similarity.DEFAULT_SIMILARITIES["levenshtein"])
    workload = workloads.DemoSession()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = workload.run_unit(workload.plan(5)[0], users.Brackets(1))
    finally:
        tracer.uninstall()
    assert not result.errors
    stats = tracer.stats()
    for kernel in ("strings.levenshtein", "strings.jaro_winkler", "text.tokenize", "text.normalize"):
        assert stats[kernel][0] > 0, kernel
    for layer in ("structure.generalize", "model.recognize", "linking.score", "engine.run"):
        assert stats[layer][0] > 0, layer
    # Self times plus the request roots' own ("other") time account for the
    # requests the session made.
    requests = stats["request"]
    assert requests[0] == result.logs[0].n_requests()
    assert tracer.rooted_self_s() == pytest.approx(requests[1], rel=1e-6)
    assert (strings.levenshtein, text.tokenize, similarity.DEFAULT_SIMILARITIES["levenshtein"]) == originals
    assert tracing.ACTIVE is None
