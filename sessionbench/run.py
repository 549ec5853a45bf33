"""The session benchmark: simulated Smart Copy & Paste users, end to end.

    python3 sessionbench/run.py --workload demo_session --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``demo_session`` (the Section 8 task,
learner-bound), ``integration_scale`` (the same task over ~50 sources with
many suggest/accept/reject rounds: Steiner/SPCSH, MIRA, evaluator) and
``tenant_server`` (tenant scripts of reads and recorded writes through a
``SessionManager``: cache tiers, server queue, durability).

Every run does a fixed amount of work: the seed changes values, never the
number of sessions, pastes, suggestions, links, reads or writes, and
``--seconds`` changes nothing (it is accepted and recorded in the run's
stamp; a run takes about as long as ``BENCHMARK.json``'s ``run_seconds``
says). Every timing is reported in *reference* units:
``raw * K_REF / K`` where ``K`` is the reference kernel's time measured
right before and after the unit of work it scales (see ``refkernel.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
layers' entry points (``tracer.py``) and prints per-layer metrics. The last
line of standard output is the result object; the run's full details
(raw times, kernel brackets, thread counts, work counts, per-session output
digests, knob snapshot) go to ``sessionbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import refkernel  # noqa: E402  (imports nothing from repro)

COLD_STARTS = 7
KERNEL_REPS = 3
P90_MIN_SAMPLES = 100


# -- statistics -----------------------------------------------------------------
# Both are total: a run whose operations failed has fewer samples than its
# fixed work (or none), and must still report itself as not correct rather
# than crash. ``end_to_end`` fails a check for every p90 taken from fewer
# than ``P90_MIN_SAMPLES`` samples.
def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return p50(values)
    return statistics.quantiles(values, n=10)[8]


# -- stamp ------------------------------------------------------------------------
def source_digest() -> str:
    """Content hash of ``src/`` (the checkout need not be a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def knob_snapshot() -> dict:
    """Every layer's effective config, env overrides included."""
    from repro.analysis.config import ANALYSIS
    from repro.cache import CACHE
    from repro.drift.config import DRIFT
    from repro.durability.config import DURABILITY
    from repro.resilience.config import RESILIENCE
    from repro.server.config import OVERLOAD, SERVER
    from repro.substrate.relational.config import COLUMNAR

    configs = {
        "SERVER": SERVER, "OVERLOAD": OVERLOAD, "DURABILITY": DURABILITY, "CACHE": CACHE,
        "RESILIENCE": RESILIENCE, "DRIFT": DRIFT, "ANALYSIS": ANALYSIS, "COLUMNAR": COLUMNAR,
    }
    return {
        name: {
            key: value
            for key, value in vars(config).items()
            if not key.startswith("_") and isinstance(value, (bool, int, float, str))
        }
        for name, config in configs.items()
    }


# -- set-up -----------------------------------------------------------------------
def cold_starts(workload: str, seed: int, tmp_dir: Path) -> list[dict]:
    """Fresh-interpreter starts; the first (byte-compile, disk cache) is dropped."""
    samples = []
    for index in range(COLD_STARTS + 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "cold_start.py"), "--workload", workload,
             "--seed", str(seed), "--root", str(tmp_dir / f"cold-{index}")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        if index:
            samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def import_profile() -> dict:
    """``python -X importtime -c 'import repro'`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    modules, repro_us = 0, 0
    for line in out.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = (part.strip() for part in line[len("import time:"):].split("|"))
        modules += 1
        if name == "repro":
            repro_us = int(cumulative)
    return {"repro_ms": repro_us / 1000.0, "modules": modules}


# -- the measured run ---------------------------------------------------------------
class Samples:
    """Reference-unit views over the samples of a list of unit results."""

    def __init__(self, results, brackets):
        self.results = results
        self.brackets = brackets
        self.logs = [log for result in results for log in result.logs]

    def ms(self, samples) -> list[float]:
        return [self.brackets.ms(sample) for sample in samples]

    def op(self, kind: str) -> list[float]:
        return self.ms(sample for log in self.logs for sample in log.ops.get(kind, []))

    def request(self, kind: str) -> list[float]:
        return self.ms(sample for log in self.logs for sample in log.requests[kind])

    def sessions_s(self) -> list[float]:
        """Per simulated user: the sum of its requests, in reference seconds."""
        return [
            sum(self.ms(sample for samples in log.requests.values() for sample in samples)) / 1000.0
            for log in self.logs
        ]

    def unit_rates(self) -> list[float]:
        """Per unit: requests completed per reference second of busy time."""
        return [
            ratio(sum(log.n_requests() for log in result.logs) * 1000.0, sum(self.ms(result.busy)))
            for result in self.results
        ]

    def counts(self, outcomes: bool = False) -> dict[str, int]:
        """Work counts (fixed per run), or with *outcomes* what they produced."""
        total: dict[str, int] = {}
        for log in self.logs:
            for name, n in (log.outcomes if outcomes else log.counts).items():
                total[name] = total.get(name, 0) + n
        if not outcomes:
            total["reads"] = sum(len(log.requests["read"]) for log in self.logs)
            total["writes"] = sum(len(log.requests["write"]) for log in self.logs)
        return dict(sorted(total.items()))

    def raw(self, kind: str, requests: bool = False) -> list[float]:
        return [
            raw for log in self.logs
            for raw, _ in (log.requests[kind] if requests else log.ops.get(kind, []))
        ]


def run_units(workload, units, brackets) -> list:
    return [workload.run_unit(unit, brackets) for unit in units]


def first_pass(workload, units) -> list:
    """The units of the first pass over the grid (the first two tenant rounds)."""
    return units[: len(getattr(workload, "GRID", units[:2]))]


def run_twins(workload, twin_workload, units, seed: int, brackets) -> list:
    """Untraced twins of the first-pass units, for ``trace.overhead``.

    A twin has the same shape as its unit. The twins run on a workload of
    their own, built and warmed like the traced one and closed before the
    traced one starts, so they share no cache tier (or anything else) with
    the traced units and never add to their threads.
    """
    try:
        twin_workload.plan(seed)
        twin_workload.warmup(seed)
        twins = [workload.twin(unit, seed) for unit in first_pass(workload, units)]
        return run_units(twin_workload, twins, brackets)
    finally:
        twin_workload.close()


def run_traced(workload, units, brackets) -> tuple:
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        return tracer, run_units(workload, units, brackets)
    finally:
        tracer.uninstall()


def evaluate(workload, results, brackets, seed: int, setup_s: float) -> tuple:
    """Samples, output checks and end-to-end metrics of a finished run."""
    samples = Samples(results, brackets)
    outputs = check_outputs(workload, results, seed)
    e2e, attempted, failed = end_to_end(samples, setup_s, outputs)
    return samples, outputs, e2e, attempted, failed


def check_outputs(workload, results, seed: int) -> dict:
    """Ground truth, digests and isolation checks -- outside every timed region."""
    import users
    from repro.durability.replay import digest_hash, state_digest

    checks: dict[str, bool] = {}
    digests: dict[str, str] = {}
    linked = rows = nodes = 0
    sessions = 0
    for result in results:
        for label, session, scenario in result.sessions:
            try:
                named, (good, total) = users.check_session(session, scenario)
            except Exception as exc:  # an unfinished session fails its checks
                named, (good, total) = {f"checkable ({exc!r})": False}, (0, 0)
            for name, ok in named.items():
                checks[f"{label}:{name}"] = ok
            linked += good
            rows += total
            sessions += 1
            try:
                nodes += len(session.integration_learner.graph)
                digests[label] = digest_hash(state_digest(session))
            except Exception as exc:
                checks[f"{label}:digestable ({exc!r})"] = False
    if hasattr(workload, "server_stats"):
        overload = workload.server_stats()["overload"]
        checks[f"{workload.name}:normal_service_level"] = (
            overload["brownout_entered"] == 0 and overload["shed"] == 0 and overload["expired"] == 0
        )
    isolation = getattr(workload, "ISOLATION_SAMPLE", ())
    for index in isolation:
        tenant = workload.tenant_id(index)
        label = f"{workload.name}/{tenant}"
        try:
            same = digests[label] == workload.isolated_digest(index)
        except Exception:  # the isolated run failing is a mismatch too
            same = False
        checks[f"{label}:digest_equals_isolated_run"] = same
    return {
        "checks": checks,
        "digests": {f"{workload.name}/seed{seed}/{label}": value for label, value in digests.items()},
        "linked": linked,
        "rows": rows,
        "graph_nodes": nodes / max(1, sessions),
    }


def end_to_end(samples: Samples, setup_s: float, outputs: dict) -> tuple[dict, int, int]:
    """The end-to-end metrics, plus attempted and failed operations.

    Every request is an attempted operation (a request that raised is still
    timed and counted), and so is every output check. Each exception and
    each failed check is a failed operation.
    """
    reads, writes = samples.request("read"), samples.request("write")
    pastes, suggests = samples.op("paste"), samples.op("suggest")
    checks = outputs["checks"]  # the sample-count checks join the output checks
    for kind, values in (("paste", pastes), ("suggest", suggests), ("read", reads), ("write", writes)):
        checks[f"p90_samples:{kind}>={P90_MIN_SAMPLES}"] = len(values) >= P90_MIN_SAMPLES
    n_requests = len(reads) + len(writes)
    errors = sum(len(result.errors) for result in samples.results)
    attempted = n_requests + len(checks)
    failed = errors + sum(1 for ok in checks.values() if not ok)
    metrics = {
        "setup_s": (setup_s, "s"),
        "session_s": (p50(samples.sessions_s()), "s"),
        "paste_p50_ms": (p50(pastes), "ms"),
        "paste_p90_ms": (p90(pastes), "ms"),
        "suggest_p50_ms": (p50(suggests), "ms"),
        "suggest_p90_ms": (p90(suggests), "ms"),
        "link_p50_ms": (p50(samples.op("link")), "ms"),
        "read_p50_ms": (p50(reads), "ms"),
        "read_p90_ms": (p90(reads), "ms"),
        "write_p50_ms": (p50(writes), "ms"),
        "write_p90_ms": (p90(writes), "ms"),
        "throughput_rps": (p50(samples.unit_rates()), "1/s"),
        "link_accuracy": (outputs["linked"] / max(1, outputs["rows"]), "ratio"),
        "ok_rate": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, attempted, failed


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, samples: Samples, twins: Samples, outputs, workload, k_run: float, imports: dict,
              cache: dict) -> dict:
    from tracer import ROOT

    stats = tracer.stats()
    counts = samples.counts() | samples.counts(outcomes=True)

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_ms(name):
        return refkernel.to_reference(stats.get(name, (0, 0.0, 0.0))[2], k_run) * 1000.0

    extras = tracer.extras
    metrics = {
        "import.repro_ms": (imports["repro_ms"], "ms"),
        "import.modules": (imports["modules"], "count"),
    }
    for kernel in ("strings.levenshtein", "strings.jaro_winkler", "text.tokenize", "text.normalize"):
        metrics[f"{kernel}_calls"] = (calls(kernel), "count")
        metrics[f"{kernel}_ms"] = (self_ms(kernel), "ms")
        metrics[f"{kernel}_distinct_ratio"] = (ratio(tracer.distinct(kernel), calls(kernel)), "ratio")
    queue, service = samples.op("queue_wait"), samples.op("service")
    server = workload.server_stats() if hasattr(workload, "server_stats") else None
    session_s = samples.sessions_s()
    twin_s = twins.sessions_s()
    # Self times of every span (the request roots' own time is the "other"
    # bucket) plus queue waits add up to the traced requests' latencies.
    accounted = tracer.rooted_self_s() + sum(samples.raw("queue_wait"))
    latency = sum(samples.raw("read", requests=True)) + sum(samples.raw("write", requests=True))
    metrics.update({
        "structure.generalize_calls": (calls("structure.generalize"), "count"),
        "structure.generalize_ms": (self_ms("structure.generalize"), "ms"),
        "structure.rows_accepted_ratio": (ratio(counts.get("rows_accepted", 0), counts.get("rows_suggested", 0)), "ratio"),
        "model.learn_ms": (self_ms("model.learn"), "ms"),
        "model.recognize_calls": (calls("model.recognize"), "count"),
        "model.recognize_ms": (self_ms("model.recognize"), "ms"),
        "linking.score_calls": (calls("linking.score"), "count"),
        "linking.score_ms": (self_ms("linking.score"), "ms"),
        "linking.train_ms": (self_ms("linking.train"), "ms"),
        "linking.pairs_per_output_row": (ratio(calls("linking.score"), outputs["rows"]), "ratio"),
        "autocomplete.column_suggestions_ms": (self_ms("autocomplete.column_suggestions"), "ms"),
        "autocomplete.suggestions_shown": (counts.get("suggestions_shown", 0), "count"),
        "autocomplete.accepted_ratio": (ratio(counts.get("accepts", 0), counts.get("suggestions_shown", 0)), "ratio"),
        "integration.steiner_exact_ms": (self_ms("integration.steiner_exact"), "ms"),
        "integration.steiner_spcsh_ms": (self_ms("integration.steiner_spcsh"), "ms"),
        "integration.graph_nodes": (outputs["graph_nodes"], "count"),
        "integration.trees_found_ratio": (ratio(counts.get("trees_found", 0), counts.get("trees_requested", 0)), "ratio"),
        "integration.mira_ms": (self_ms("integration.mira"), "ms"),
        "integration.mira_updates": (extras.get("integration.mira_updates", 0), "count"),
        "engine.run_calls": (calls("engine.run"), "count"),
        "engine.run_ms": (self_ms("engine.run"), "ms"),
        "evaluator.run_ms": (self_ms("evaluator.run"), "ms"),
        "engine.rows_out": (extras.get("engine.rows_out", 0), "count"),
        "analysis.check_ms": (self_ms("analysis.check"), "ms"),
        "cache.plan_hit_ratio": (cache["plan"], "ratio"),
        "cache.analysis_hit_ratio": (cache["analysis"], "ratio"),
        "cache.compile_hit_ratio": (cache["compile"], "ratio"),
        "cache.scan_hit_ratio": (cache["scan"], "ratio"),
        "cache.evictions": (cache["evictions"], "count"),
        "services.invoke_calls": (calls("services.invoke"), "count"),
        "services.invoke_ms": (self_ms("services.invoke"), "ms"),
        "services.backend_ratio": (ratio(extras.get("services.backend_calls", 0), calls("services.invoke")), "ratio"),
        "durability.records": (calls("durability.append"), "count"),
        "durability.append_ms": (self_ms("durability.append"), "ms"),
        "durability.checkpoint_ms": (self_ms("durability.checkpoint"), "ms"),
        "durability.bytes_per_record": (ratio(extras.get("durability.bytes", 0), calls("durability.append")), "count"),
        "server.queue_wait_p50_ms": (p50(queue) if queue else 0.0, "ms"),
        "server.queue_wait_p90_ms": (p90(queue) if queue else 0.0, "ms"),
        "server.service_p50_ms": (p50(service) if service else 0.0, "ms"),
        "server.service_p90_ms": (p90(service) if service else 0.0, "ms"),
        "server.backlog_max": (getattr(workload, "backlog_max", 0), "count"),
        "server.shed": (server["overload"]["shed"] if server else 0, "count"),
        "trace.session_s": (p50(session_s), "s"),
        "trace.overhead": (ratio(p50(session_s[: len(twin_s)]), p50(twin_s)), "ratio"),
        "trace.other_ms": (self_ms(ROOT), "ms"),
        "trace.accounted_ratio": (ratio(accounted, latency), "ratio"),
    })
    return metrics


def cache_counters(workload) -> dict | None:
    """The shared tiers' counters, for workloads whose units share them."""
    return workload.cache_stats() if hasattr(workload, "cache_stats") else None


def workload_cache_stats(results, shared_before: dict | None, shared_after: dict | None) -> dict:
    """Hit ratios of the four cache tiers, read from ``CacheTiers.stats()``.

    Shared tiers count only what happened between the two snapshots taken
    around the measured units (no warm-up); private tiers belong to the
    measured units alone.
    """
    if shared_after is not None:
        bundles = [shared_after]
    else:
        bundles = [tiers.stats() for result in results for tiers in result.tiers]
    out = {"evictions": 0}
    for tier in ("plan", "analysis", "compile", "scan"):
        def counter(name):
            total = sum(bundle[tier][name] for bundle in bundles)
            return total - (shared_before[tier][name] if shared_before is not None else 0)

        hits, misses = counter("hits"), counter("misses")
        out[tier] = ratio(hits, hits + misses)
        out["evictions"] += counter("evictions")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None, help="accepted and recorded; changes nothing")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"sessionbench: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        import users
        import workloads
    except ImportError as exc:
        print(f"sessionbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"sessionbench: unknown workload {args.workload!r}; one of {workloads.NAMES}", file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    tmp_dir = out_dir / f"tmp-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()

    starts = cold_starts(args.workload, args.seed, tmp_dir)
    setup_s = p50([refkernel.to_reference(s["raw_s"], s["k"]) for s in starts])

    workload = workloads.make(args.workload, str(tmp_dir / "wal"))
    try:
        units = workload.plan(args.seed)
        brackets = users.Brackets(KERNEL_REPS)
        if args.trace:
            imports = import_profile()
            twin_workload = workloads.make(args.workload, str(tmp_dir / "twin-wal"))
            twin_results = run_twins(workload, twin_workload, units, args.seed, brackets)
        workload.warmup(args.seed)
        if args.trace:
            cache_before = cache_counters(workload)
            tracer, results = run_traced(workload, units, brackets)
            cache = workload_cache_stats(results, cache_before, cache_counters(workload))
        else:
            results = run_units(workload, units, brackets)
        samples, outputs, e2e, attempted, failed = evaluate(workload, results, brackets, args.seed, setup_s)
        k_run = p50(brackets.k)
        if args.trace:
            twins = Samples(twin_results, brackets)
            metrics = per_layer(tracer, samples, twins, outputs, workload, k_run, imports, cache)
        else:
            metrics = e2e
        details = {
            "stamp": {
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": bool(args.trace), "commit": commit(), "src_digest": source_digest(),
                "python": platform.python_version(), "nproc": os.cpu_count(),
                "started": started, "knobs": knob_snapshot(),
            },
            "k_ref": refkernel.K_REF,
            "k_run": k_run,
            # kernel seconds and live threads at every bracket, in order
            "brackets": {"k": brackets.k, "threads": brackets.threads},
            "cold_starts": starts,
            "work": samples.counts() | {"units": len(results), "brackets": len(brackets.k)},
            "outcomes": samples.counts(outcomes=True),
            "raw_ms": {
                kind: [raw * 1000.0 for raw in samples.raw(kind)]
                for kind in ("paste", "suggest", "link", "plan", "queue_wait", "service")
            } | {
                f"request.{kind}": [raw * 1000.0 for raw in samples.raw(kind, requests=True)]
                for kind in ("read", "write")
            },
            "end_to_end": {name: value for name, (value, _) in e2e.items()},
            "errors": [error for result in results for error in result.errors],
            "failed_checks": sorted(name for name, ok in outputs["checks"].items() if not ok),
            "digests": outputs["digests"],
        }
        if args.trace:
            details["layers"] = {name: list(value) for name, value in sorted(tracer.stats().items())}
            details["spans"] = len(tracer.spans)
    finally:
        workload.close()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{name}.json").write_text(json.dumps(details, indent=1, default=str))
    if args.trace:
        with open(out_dir / f"{name}.spans.jsonl", "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
