"""Request benchmark: seeded workloads through the public ``repro`` API.

Run from the repository root::

    python3 reqbench/run.py --workload select_sweep --seed 1 --seconds 15 --trace 0

One run: pin the environment, build the native kernel, time set-up in
fresh processes, run timed passes of the workload's fixed request list
while another fits in ``--seconds`` of normalized time, check the
outputs, write the run record to ``reqbench/.runs/`` and print, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
measured with tracing off.  ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics.  Every time is
host-normalized (see ``hostref.py``).  A failed check or request exits 1
(after printing that line); a checkout without ``src/repro`` exits 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostref import HostReference
from record import environment, steal_ticks
from stats import percentile
from tracer import Tracer, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = HERE / ".state"
RUNS = HERE / ".runs"

SETUP_PROBES = 5

#: Percentile reported as the queue-wait tail: a traced serve_small pass
#: holds 250 waits, enough for ten beyond p90 but not beyond p99.
QUEUE_WAIT_TAIL = 90


def pin_environment() -> dict:
    """Clear ``REPRO_*`` overrides; keep profile and kernel cache in ``.state``."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_PROFILE"] = str(STATE / "profile.json")
    os.environ["REPRO_NATIVE_CACHE_DIR"] = str(STATE / "native")
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path.insert(0, str(ROOT / "src"))
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


def import_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    import repro

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"repro imported from {source}, not {ROOT / 'src'}")
    return repro


# ----------------------------------------------------------------------
# Layers traced from outside: (module, class or None, attribute, name, kind)
# ----------------------------------------------------------------------
LAYERS = (
    ("repro.core.session", "Session", "run", "core.session.run", "span"),
    ("repro.core.scheme", "LoadAndExpandScheme", "run", "core.scheme.run", "span"),
    (
        "repro.core.procedure1",
        None,
        "simulate_t0",
        "core.procedure1.simulate_t0",
        "span",
    ),
    (
        "repro.core.procedure1",
        None,
        "select_subsequences",
        "core.procedure1.select_subsequences",
        "span",
    ),
    (
        "repro.core.procedure2",
        None,
        "build_subsequence_for_fault",
        "core.procedure2.build_subsequence_for_fault",
        "span",
    ),
    (
        "repro.core.postprocess",
        None,
        "statically_compact",
        "core.postprocess.statically_compact",
        "span",
    ),
    (
        "repro.sim.seqsim",
        "SequenceBatchSimulator",
        "first_hit",
        "sim.seqsim.first_hit",
        "span",
    ),
    ("repro.sim.seqsim", "SequenceBatchSimulator", "scan", "sim.seqsim.scan", "span"),
    ("repro.sim.faultsim", "FaultSimulator", "run", "sim.faultsim.run", "span"),
    ("repro.sim.faultsim", "FaultSimSession", "peek", "sim.faultsim.peek", "span"),
    ("repro.sim.faultsim", "FaultSimSession", "commit", "sim.faultsim.commit", "span"),
    ("repro.sim.backend", None, "pack_states", "sim.backend.pack_states", "hot"),
    ("repro.sim.backend", None, "unpack_states", "sim.backend.unpack_states", "hot"),
    (
        "repro.sim.kernel",
        None,
        "eval_combinational",
        "sim.kernel.eval_combinational",
        "hot",
    ),
    (
        "repro.sim.backend_native",
        "NativeBackend",
        "run_scan",
        "sim.backend_native.run_scan",
        "hot",
    ),
    ("repro.atpg.engine", None, "generate_t0", "atpg.engine.generate_t0", "span"),
    ("repro.atpg.genetic", None, "attack_fault", "atpg.genetic.attack_fault", "span"),
    ("repro.atpg.observe", "FaultObserver", "observe", "atpg.observe", "hot"),
    ("repro.atpg.restoration", None, "restoration_compact", "atpg.restoration", "span"),
    (
        "repro.serve.scheduler",
        None,
        "plan_execution",
        "serve.scheduler.plan_execution",
        "span",
    ),
    ("repro.serve.http", "HttpFrontend", "_respond", "serve.http", "coro"),
)

#: Metric names, units and directions are read from ``BENCHMARK.json``.
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec() -> tuple[dict, dict]:
    """``(end_to_end, per_layer)`` as ``{name: unit}``."""
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


class QueueWaits:
    """Time each job spends between ``FairScheduler.push`` and ``pop``."""

    def __init__(self) -> None:
        self.pushed: dict[str, float] = {}
        self.waits: list[tuple[float, float]] = []  # (pushed at, popped at)

    def install(self, tracer: Tracer) -> None:
        from repro.serve.scheduler import FairScheduler

        push, pop = FairScheduler.push, FairScheduler.pop
        waits = self

        def traced_push(scheduler, tenant, item):
            waits.pushed[item.id] = time.perf_counter()
            return push(scheduler, tenant, item)

        def traced_pop(scheduler):
            entry = pop(scheduler)
            if entry is not None:
                now = time.perf_counter()
                waits.waits.append((waits.pushed.pop(entry[1].id, now), now))
            return entry

        tracer.replace(FairScheduler, "push", traced_push)
        tracer.replace(FairScheduler, "pop", traced_pop)


class TracedPass:
    """Tracer installed over the layers, with per-window normalization."""

    def __init__(self, host: HostReference, slowdown=None) -> None:
        self.tracer = Tracer(slowdown=slowdown)
        self.queue = QueueWaits()
        self.norm: dict[str, list[float]] = {}
        #: Window time no outermost traced frame covers (normalized).
        self.unattributed_s = 0.0
        self.windows: list = []
        self._host = host
        self._last = self.tracer.snapshot()
        self._last_root = 0.0
        for module_name, owner, attr, name, kind in LAYERS:
            module = importlib.import_module(module_name)
            target = getattr(module, owner) if owner else module
            self.tracer.patch(
                target,
                attr,
                name,
                hot=kind == "hot",
                coro=kind == "coro",
                classify=_attack_outcome if name.endswith("attack_fault") else None,
            )
        self.queue.install(self.tracer)
        host.on_sample = lambda seconds: self.tracer.charge("bench.reference", seconds)
        host.on_window_end = self._window_end

    def _window_end(self, window) -> None:
        now = self.tracer.snapshot()
        for name, (calls, self_s, total_s, extra) in now.items():
            before = self._last.get(name, (0, 0.0, 0.0, {}))
            row = self.norm.setdefault(name, [0, 0.0, 0.0, {}])
            row[0] += calls - before[0]
            row[1] += (self_s - before[1]) * window.factor
            row[2] += (total_s - before[2]) * window.factor
            for key, count in extra.items():
                row[3][key] = row[3].get(key, 0) + count - before[3].get(key, 0)
        root_s = self.tracer.root_s - self._last_root
        wall = window.raw_s + window.inside_s
        self.unattributed_s += max(0.0, wall - root_s) * window.factor
        self._last_root = self.tracer.root_s
        self._last = now
        self.windows.append(window)

    def close(self) -> None:
        self.tracer.unpatch()
        self._host.on_sample = None
        self._host.on_window_end = None

    def normalize(self, start: float, end: float) -> float:
        """Normalize a span by the window it ended in."""
        for window in self.windows:
            if window.started <= end <= window.ended:
                return window.normalize(start, end)
        return end - start


def _attack_outcome(result) -> str | None:
    return "success" if getattr(result, "succeeded", False) else None


# ----------------------------------------------------------------------
# Set-up time in fresh processes
# ----------------------------------------------------------------------
def measure_setup(workload: str) -> list[dict]:
    probes = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        probes.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    return probes


# ----------------------------------------------------------------------
# Ledger: outcome and dispatch counts must repeat for a seed
# ----------------------------------------------------------------------
def code_digest(roots=(ROOT / "src" / "repro", HERE)) -> str:
    """Digest of every file under ``roots``, bytecode and dot-directories aside.

    The ledger holds only runs of identical code (the library and the
    benchmark) to identical counts: a change that lowers, say, FFI calls
    starts entries of its own instead of failing against the parent's.
    """
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*")):
            parts = path.relative_to(root).parts
            if not path.is_file() or "__pycache__" in parts:
                continue
            if any(part.startswith(".") for part in parts):
                continue
            digest.update(f"{root.name}/{'/'.join(parts)}\0".encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ledger_key(workload: str, seed: int, code: str, env: dict) -> str:
    """``workload/seed/code digest/environment digest``."""
    env_text = json.dumps(env, sort_keys=True, default=str).encode()
    return f"{workload}/{seed}/{code}/{hashlib.sha256(env_text).hexdigest()[:16]}"


def ledger_check(key: str, entry: dict) -> tuple[bool, str]:
    path = STATE / "ledger.json"
    ledger = {}
    if path.exists():
        ledger = json.loads(path.read_text(encoding="utf-8"))
    previous = ledger.get(key)
    if previous is not None:
        same = previous == entry
        return same, "" if same else f"earlier run recorded {previous}, now {entry}"
    ledger[key] = entry
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, sort_keys=True), encoding="utf-8")
    tmp.replace(path)
    return True, "first run of this seed, code and environment"


def repetition_checks(key: str, passes) -> list[tuple[str, bool, str]]:
    """Outcome and dispatch counts repeat across passes, and across runs
    of the same seed, code and environment (``key``)."""
    counts = [{"outcomes": p.outcomes, "dispatches": p.dispatches} for p in passes]
    checks = [
        (f"pass {i} repeats pass 0", c == counts[0], "" if c == counts[0] else str(c))
        for i, c in enumerate(counts[1:], start=1)
    ]
    checks.append(("counts repeat across runs", *ledger_check(key, counts[0])))
    return checks


def dispatch_delta(before: dict, after: dict) -> dict:
    return {k: after.get(k, 0) - before.get(k, 0) for k in sorted(after)}


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_passes(workload, host, seconds: float, trace: bool):
    """Timed passes; returns (passes, traced pass state or None).

    Passes repeat while one more still fits in ``seconds`` of *normalized*
    time, so the number of passes, and with it the work measured, does not
    depend on how fast the host happens to be.
    """
    from repro.sim.backend import dispatch_counters

    passes, traced = [], None
    while True:
        gc.collect()
        tracing = trace and len(passes) == 1
        if tracing:
            traced = TracedPass(host)
            trace_before = workload.trace_counters()
        before = dispatch_counters()
        try:
            result = workload.run_pass(host)
        finally:
            if tracing:
                traced.close()
        result.dispatches = dispatch_delta(before, dispatch_counters())
        if tracing:
            traced.trace_counters = (trace_before, workload.trace_counters())
        passes.append(result)
        if trace:
            if len(passes) == 2:
                return passes, traced
            continue
        measured = sum(p.norm_s for p in passes)
        samples = sum(len(p.latencies) for p in passes)
        enough = samples >= workload.min_samples
        if measured + measured / len(passes) > seconds and enough:
            return passes, None


def end_to_end_metrics(workload, passes, probes) -> tuple[dict, dict]:
    walls = [p.norm_s for p in passes]
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median([p.norm_cpu_s for p in passes]),
        "setup_s": statistics.median([p["norm_s"] for p in probes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **serving_metrics(workload, passes, "latencies", walls),
    }
    values.update(passes[0].outcomes)
    raw_walls = [p.raw_s for p in passes]
    raw = {
        "wall_s": statistics.median(raw_walls),
        "cpu_s": statistics.median([p.cpu_raw_s for p in passes]),
        "setup_s": statistics.median([p["raw_s"] for p in probes]),
        **serving_metrics(workload, passes, "raw_latencies", raw_walls),
        "latency_samples": sum(len(p.latencies) for p in passes) or len(passes),
    }
    return values, raw


def serving_metrics(workload, passes, field: str, walls: list) -> dict:
    """``latency_p50_s``, ``latency_p99_s`` and ``throughput_rps``.

    Only serve_small has request latencies of its own; every workload
    reports the same metrics, so elsewhere the pass is the one request
    and these restate ``wall_s``.
    """
    if not workload.min_samples:
        wall = statistics.median(walls)
        return {
            "latency_p50_s": wall,
            "latency_p99_s": wall,
            "throughput_rps": len(walls) / sum(walls),
        }
    latencies = [lat for p in passes for lat in getattr(p, field)]
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_p99_s": percentile(latencies, 99),
        "throughput_rps": len(latencies) / sum(walls),
    }


def layer_metrics(traced: TracedPass, passes, names) -> dict:
    norm = traced.norm

    def calls(name):
        return float(norm.get(name, [0])[0])

    def self_s(name):
        return norm.get(name, [0, 0.0])[1]

    def total_s(name):
        return norm.get(name, [0, 0.0, 0.0])[2]

    values = {}
    for metric in names:
        layer, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = calls(layer)
        elif field == "self_s":
            values[metric] = self_s(layer)
    attacks = norm.get("atpg.genetic.attack_fault", [0, 0.0, 0.0, {}])
    values["atpg.genetic.success_ratio"] = (
        attacks[3].get("success", 0) / attacks[0] if attacks[0] else 0.0
    )
    t0sim = total_s("core.procedure1.simulate_t0")
    values["core.scheme.procedure1_over_t0sim"] = (
        total_s("core.procedure1.select_subsequences") / t0sim if t0sim else 0.0
    )
    values["core.scheme.compaction_over_t0sim"] = (
        total_s("core.postprocess.statically_compact") / t0sim if t0sim else 0.0
    )
    dispatches = passes[1].dispatches
    for key in ("native_ffi_calls", "scan_calls", "scan_steps"):
        values[f"sim.backend.{key}"] = float(dispatches.get(key, 0))
    before, after = traced.trace_counters
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    values["sim.trace.hits"] = float(hits)
    values["sim.trace.misses"] = float(misses)
    values["sim.trace.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    waits = [traced.normalize(start, end) for start, end in traced.queue.waits]
    values["serve.service.queue_wait_p50_s"] = statistics.median(waits or [0.0])
    values["serve.service.queue_wait_tail_s"] = (
        percentile(waits, QUEUE_WAIT_TAIL) if waits else 0.0
    )
    values["trace.unattributed_s"] = traced.unattributed_s
    values["trace.overhead_ratio"] = passes[1].norm_s / passes[0].norm_s
    return values


def check_self_times(traced: TracedPass) -> tuple[bool, str]:
    """Self times recomputed from the span tree equal the inline ones."""
    tree = self_times(traced.tracer.spans)
    inline: dict[str, float] = {}
    for span in traced.tracer.spans:
        inline[span[3]] = inline.get(span[3], 0.0) + tree[span[0]]
    worst = 0.0
    for name, total in inline.items():
        worst = max(worst, abs(total - traced.tracer.layers[name].self_s))
    return worst < 1e-6, f"largest difference {worst:.3g} s"


def run(args) -> int:
    pinned = pin_environment()
    try:
        import_repro()
        from repro.sim.native_build import (
            load_native_library,
            native_unavailable_reason,
        )

        if native_unavailable_reason() is None:
            load_native_library()  # build before any timing
    except Exception:
        traceback.print_exc()
        return 2
    from repro import Session

    steal_before = steal_ticks()
    STATE.mkdir(parents=True, exist_ok=True)
    RUNS.mkdir(parents=True, exist_ok=True)
    probes = measure_setup(args.workload)

    host = HostReference()
    with Session() as session:
        workload = WORKLOADS[args.workload](session, args.seed)
        workload.prepare()
        try:
            passes, traced = run_passes(workload, host, args.seconds, args.trace)
            e2e = None if args.trace else end_to_end_metrics(workload, passes, probes)
            env = environment(workload.execution())
            code = code_digest()
            key = ledger_key(args.workload, args.seed, code, env)
            checks = repetition_checks(key, passes)
            checks.extend(workload.checks())
            if traced is not None:
                checks.append(("span self times", *check_self_times(traced)))
        finally:
            workload.close()

    attempted = sum(p.requests for p in passes) + len(checks)
    failed = len(workload.errors) + sum(1 for _, ok, _ in checks if not ok)
    end_to_end, per_layer = load_spec()
    if args.trace:
        units, raw = per_layer, {}
        values = layer_metrics(traced, passes, per_layer)
    else:
        units = end_to_end
        values, raw = e2e
    metrics = {n: {"value": values[n], "unit": unit} for n, unit in units.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "raw": raw,
        "passes": [
            {
                "norm_s": p.norm_s,
                "raw_s": p.raw_s,
                "outcomes": p.outcomes,
                "dispatches": p.dispatches,
                "requests": p.per_request,
                "windows": [w.to_json() for w in p.windows],
            }
            for p in passes
        ],
        "setup_probes": probes,
        "reference": host.summary(),
        "steal_ticks": steal_ticks() - steal_before,
        "environment": env,
        "code_digest": code,
        "pinned_env": pinned,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "errors": workload.errors,
    }
    if traced is not None:
        record["layers"] = {
            name: {"calls": row[0], "self_s": row[1], "total_s": row[2], **row[3]}
            for name, row in sorted(traced.norm.items())
        }
        spans_path = RUNS / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(traced.tracer.spans), encoding="utf-8")
    path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    for name, ok, detail in checks:
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)
    for error in workload.errors:
        print(f"request failed: {error}", file=sys.stderr)
    print(f"run record: {path.relative_to(ROOT)}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
