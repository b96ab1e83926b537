"""The four workloads: seeded request lists run through the public API.

Each workload builds a fixed request list from ``--seed`` (every seed a
request carries and every generated ``T0``), runs it as one *pass*, and
reports per request its host-normalized latency and its outcome counts:

* ``detected_faults`` — faults the request detects;
* ``stored_vectors`` — vectors a BIST memory must hold: the Table 5
  total loaded length for a scheme run, the whole ``T0`` otherwise;
* ``applied_length`` — vectors applied to the circuit: the scheme's
  applied test length, the ``T0`` length for ATPG, and for one fault
  simulation the ``T0`` prefix up to its last detection;
* ``t0_length`` — length of the ``T0`` the request starts from.

Every request names ``backend="auto"``, ``workers=1`` and
``parallel="serial"``; all loops are closed (the next request is sent
when the previous one has completed).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import time

from hostref import HostReference

OUTCOME_KEYS = ("detected_faults", "stored_vectors", "applied_length", "t0_length")
EXECUTION = {"backend": "auto", "workers": 1, "parallel": "serial"}


def derive(seed: int, *parts) -> int:
    """A 31-bit seed derived from ``seed`` and a label."""
    text = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def random_sequence(seed: int, width: int, length: int):
    """The benchmark's own seeded ``T0`` (independent of ``repro.atpg``)."""
    from repro import TestSequence

    rng = random.Random(seed)
    return TestSequence(
        [[rng.getrandbits(1) for _ in range(width)] for _ in range(length)]
    )


def outcome(detected: int, stored: int, applied: int, t0: int) -> dict:
    return dict(zip(OUTCOME_KEYS, (detected, stored, applied, t0)))


def resolved_execution(session, circuit: str) -> dict:
    """The backend, tier and scan mode ``auto``/serial resolves to, per axis."""
    record = {}
    with session.scope():
        for axis, make in (
            ("fault", session.fault_simulator),
            ("candidate", session.sequence_simulator),
        ):
            sim = make(circuit, **EXECUTION)
            record[axis] = {
                "backend": sim.backend.name,
                "tier": type(sim).__name__,
                "scan_mode": sim.scan_mode,
                "threads": sim.threads,
                "batch_width": sim.batch_width,
            }
    return record


class PassResult:
    """What one pass of a workload measured."""

    def __init__(self) -> None:
        self.windows = []
        #: Per-request latencies, normalized and raw, of workloads that
        #: serve requests.
        self.latencies = []
        self.raw_latencies = []
        self.outcomes = dict.fromkeys(OUTCOME_KEYS, 0)
        self.per_request = []
        self.requests = 0

    def add(self, label: str, window, result: dict) -> None:
        self.requests += 1
        self.windows.append(window)
        for key in OUTCOME_KEYS:
            self.outcomes[key] += result[key]
        self.per_request.append({"label": label, **result})

    @property
    def norm_s(self) -> float:
        return sum(w.norm_s for w in self.windows)

    @property
    def raw_s(self) -> float:
        return sum(w.raw_s for w in self.windows)

    @property
    def norm_cpu_s(self) -> float:
        return sum(w.norm_cpu_s for w in self.windows)

    @property
    def cpu_raw_s(self) -> float:
        return sum(w.cpu_raw_s for w in self.windows)


class Workload:
    """A fixed list of requests, each timed as its own window."""

    name = ""
    circuits: tuple[str, ...] = ()
    #: Latency samples a run collects at least, however long that takes;
    #: only a workload that serves requests (``serve_small``) sets it.
    min_samples = 0

    def __init__(self, session, seed: int) -> None:
        self.session = session
        self.seed = seed
        #: One line per failed request; each counts as a failed operation.
        self.errors: list[str] = []

    def prepare(self) -> None:
        """Build the request list (untimed)."""

    def requests(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def before_request(self, label: str) -> None:
        """Untimed preparation of one request (for example, a cold cache)."""

    def run_pass(self, host: HostReference) -> PassResult:
        result = PassResult()
        for label, request in self.requests():
            self.before_request(label)
            with host.window() as window:
                try:
                    answer = request()
                except Exception as exc:  # counted, and the pass goes on
                    self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
                    answer = outcome(0, 0, 0, 0)
            result.add(label, window, answer)
        return result

    def checks(self) -> list[tuple[str, bool, str]]:
        """Correctness checks beyond outcome repetition, run untimed."""
        return []

    def execution(self) -> dict:
        return {c: resolved_execution(self.session, c) for c in self.circuits}

    def trace_counters(self) -> dict:
        """Cumulative good-machine trace-cache hits/misses of the workload."""
        hits = misses = 0
        for circuit in self.circuits:
            stats = self.session.trace_cache(circuit).stats()
            hits += stats["trace_hits"] + stats["bits_hits"]
            misses += stats["trace_misses"] + stats["bits_misses"]
        return {"hits": hits, "misses": misses}

    def close(self) -> None:
        """Release what :meth:`prepare` started (the session is the caller's)."""


class AtpgT0(Workload):
    name = "atpg_t0"
    circuits = ("syn298", "syn382")
    #: Seeds per circuit: a T0's length moves 12-20% with the seed, so one
    #: pass averages two of each.
    seeds_per_circuit = 2

    def requests(self):
        from repro import RunRequest
        from repro.atpg.config import AtpgConfig

        def make(circuit, k):
            request = RunRequest(
                kind="atpg",
                circuit=circuit,
                atpg=AtpgConfig(
                    seed=derive(self.seed, "atpg", circuit, k), **EXECUTION
                ),
            )

            def run():
                data = self.session.run(request).data
                length = data["length"]
                return outcome(data["detected"], length, length, length)

            return run

        return [
            (f"{circuit}/{k}", make(circuit, k))
            for k in range(self.seeds_per_circuit)
            for circuit in self.circuits
        ]


class SelectSweep(Workload):
    """The paper's Section 4 n-sweep on seeded random ``T0``s."""

    name = "select_sweep"
    circuits = ("syn298", "syn526", "syn820")
    repetitions = (2, 4, 8, 16)
    #: ``T0``s per circuit and their length: four instances average out
    #: how much a single random ``T0`` moves the sweep's cost.
    instances = 4
    t0_length = 40

    def prepare(self) -> None:
        from repro import LoadAndExpandScheme

        self.schemes = {
            c: LoadAndExpandScheme(self.session.compile(c)) for c in self.circuits
        }
        self.t0s = {
            (c, i): random_sequence(
                derive(self.seed, "sweep", c, i),
                len(self.schemes[c].compiled.circuit.inputs),
                self.t0_length,
            )
            for c in self.circuits
            for i in range(self.instances)
        }
        self.coverage = []

    def before_request(self, label: str) -> None:
        # A new T0 starts with a cold good-machine trace; reuse across n
        # inside the sweep is what is measured.
        if label.endswith(f"/n={self.repetitions[0]}"):
            self.session.trace_cache(label.partition("/")[0]).close()

    def requests(self):
        from repro import ExpansionConfig, SelectionConfig

        def make(circuit, t0, n):
            config = SelectionConfig(
                expansion=ExpansionConfig(repetitions=n),
                seed=derive(self.seed, "select", circuit, n),
                **EXECUTION,
            )

            def run():
                res = self.schemes[circuit].run(t0, config, session=self.session).result
                self.coverage.append((circuit, n, res.coverage_preserved))
                return outcome(
                    res.detected_by_scheme,
                    res.total_length_after,
                    res.applied_test_length,
                    res.t0_length,
                )

            return run

        return [
            (f"{c}/{i}/n={n}", make(c, self.t0s[c, i], n))
            for c in self.circuits
            for i in range(self.instances)
            for n in self.repetitions
        ]

    def checks(self):
        lost = [f"{c} n={n}" for c, n, ok in self.coverage if not ok]
        return [
            ("coverage_preserved", not lost and bool(self.coverage), ", ".join(lost))
        ]


class FaultsimLarge(Workload):
    """Scheme step 1 at scale: 200-vector ``T0``s over every syn5378 fault."""

    name = "faultsim_large"
    circuits = ("syn5378",)
    windows = 12
    t0_length = 200
    #: Faults re-simulated on the python reference backend per check.
    reference_sample = 24

    def prepare(self) -> None:
        from repro import FaultUniverse

        compiled = self.session.compile(self.circuits[0])
        self.faults = list(FaultUniverse(compiled.circuit).faults())
        self.simulator = self.session.fault_simulator(compiled, **EXECUTION)
        width = len(compiled.circuit.inputs)
        self.t0s = [
            random_sequence(derive(self.seed, "faultsim", j), width, self.t0_length)
            for j in range(self.windows)
        ]
        self.detections = {}
        # One untimed window first, so every timed pass starts equally warm
        # (native buffers and program caches filled; the trace stays cold).
        warmup_seed = derive(self.seed, "faultsim-warmup")
        warmup = random_sequence(warmup_seed, width, self.t0_length)
        self.simulator.run(warmup, self.faults)

    def before_request(self, label: str) -> None:
        self.simulator.trace_cache.close()

    def requests(self):
        def make(j):
            def run():
                times = self.simulator.run(self.t0s[j], self.faults).detection_time
                self.detections[j] = times
                last = max(times.values()) + 1 if times else 0
                return outcome(len(times), self.t0_length, last, self.t0_length)

            return run

        return [(f"t0-{j}", make(j)) for j in range(self.windows)]

    def checks(self):
        from repro import FaultSimulator

        rng = random.Random(derive(self.seed, "reference-sample"))
        sample = rng.sample(self.faults, self.reference_sample)
        compiled = self.session.compile(self.circuits[0])
        reference = FaultSimulator(compiled, backend="python")
        try:
            expected = reference.run(self.t0s[0], sample).detection_time
        finally:
            reference.close()
        got = self.detections[0]
        bad = sorted(str(f) for f in sample if got.get(f) != expected.get(f))
        return [("python_reference_detection_times", not bad, ", ".join(bad[:5]))]


class ServeSmall(Workload):
    """Two tenants, one closed-loop HTTP client each, one service lane."""

    name = "serve_small"
    circuits = ("s27",)
    tenants = ("tenant-a", "tenant-b")
    repetitions = (1, 2, 4, 8)
    #: Seed variants of each tenant's five jobs: 25 distinct jobs per
    #: tenant average out how much one seed moves a job's cost.
    variants = 5
    #: Requests each client sends per pass (its 25 jobs, five times).
    per_pass = 125
    #: Latency samples a run needs so that ten lie beyond its p99.
    min_samples = 1000

    def prepare(self) -> None:
        from repro import ExpansionConfig, RunRequest, SelectionConfig
        from repro.atpg.config import AtpgConfig

        self.mix = {}
        for tenant in self.tenants:
            mix = []
            for variant in range(self.variants):
                for n in self.repetitions:
                    selection = SelectionConfig(
                        expansion=ExpansionConfig(repetitions=n),
                        seed=derive(self.seed, tenant, "select", n, variant),
                        **EXECUTION,
                    )
                    mix.append(
                        RunRequest(
                            kind="scheme",
                            circuit="s27",
                            selection=selection,
                            label=f"{tenant}/n={n}/{variant}",
                        )
                    )
                atpg_seed = derive(self.seed, tenant, "atpg", variant)
                mix.append(
                    RunRequest(
                        kind="atpg",
                        circuit="s27",
                        atpg=AtpgConfig(seed=atpg_seed, **EXECUTION),
                        label=f"{tenant}/atpg/{variant}",
                    )
                )
            self.mix[tenant] = mix
        self.fingerprints: dict[str, set[str]] = {}
        self.latest_trace_stats: dict = {}
        self.start()

    def start(self) -> None:
        """Start ``JobService(lanes=1)`` behind ``HttpFrontend``."""
        from repro.serve import HttpFrontend, JobService

        self.loop = asyncio.new_event_loop()
        self.service = JobService(lanes=1, autotune=False)
        self.frontend = HttpFrontend(self.service)
        self.loop.run_until_complete(self.frontend.start())
        self.port = self.frontend.port

    def close(self) -> None:
        async def stop():
            await self.frontend.stop()
            await self.service.stop()

        self.loop.run_until_complete(stop())
        self.loop.close()

    async def _http(self, method: str, path: str, payload=None) -> tuple[int, dict]:
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        body = b"" if payload is None else json.dumps(payload).encode()
        writer.write(
            f"{method} {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        head, _, data = raw.partition(b"\r\n\r\n")
        return int(head.split(None, 2)[1]), json.loads(data)

    async def _client(self, tenant: str, latencies: list, results: list):
        mix = self.mix[tenant]
        for k in range(self.per_pass):
            request = mix[k % len(mix)]
            sent = time.perf_counter()
            status, job = await self._http(
                "POST", "/jobs", {"tenant": tenant, "request": request.to_json()}
            )
            if status == 202:
                status, job = await self._http("GET", f"/jobs/{job['id']}?wait=1")
            latencies.append((sent, time.perf_counter()))
            results.append((request.label, status, job))

    async def _clients(self, latencies: list, answers: list) -> None:
        await asyncio.gather(
            *(self._client(t, latencies, answers) for t in self.tenants)
        )

    def run_pass(self, host: HostReference) -> PassResult:
        result = PassResult()
        latencies: list[tuple[float, float]] = []
        answers: list = []
        # One window per pass; each job's latency is scaled by its factor.
        with host.window() as window:
            self.loop.run_until_complete(self._clients(latencies, answers))
        result.windows.append(window)
        result.latencies = [window.normalize(*span) for span in latencies]
        result.raw_latencies = [end - start for start, end in latencies]
        result.requests = len(answers)
        for label, status, job in answers:
            answer = self._answer(label, status, job)
            for key in OUTCOME_KEYS:
                result.outcomes[key] += answer[key]
        return result

    def _answer(self, label: str, status: int, job: dict) -> dict:
        if status != 200 or job.get("status") != "done":
            self.errors.append(f"{label}: HTTP {status}: {job.get('error')}")
            return outcome(0, 0, 0, 0)
        res = job["result"]
        # Counters only grow, so the largest snapshot is the latest.
        self.latest_trace_stats = max(
            self.latest_trace_stats, res["trace_stats"], key=lambda t: sum(t.values())
        )
        self.fingerprints.setdefault(label, set()).add(res["fingerprint"])
        data = res["data"]
        if res["kind"] == "atpg":
            length = data["length"]
            return outcome(data["detected"], length, length, length)
        return outcome(
            data["detected_by_scheme"],
            data["total_length_after"],
            data["applied_test_length"],
            data["t0_length"],
        )

    def checks(self):
        from repro import Session

        checks = []
        with Session() as direct:
            for tenant in self.tenants:
                for request in self.mix[tenant]:
                    served = self.fingerprints.get(request.label, set())
                    want = direct.run(request).fingerprint()
                    checks.append(
                        (
                            f"fingerprint {request.label}",
                            served == {want},
                            f"served {sorted(served)} direct {want}",
                        )
                    )
        return checks

    def trace_counters(self) -> dict:
        # The service's session is private: every served result carries
        # the cumulative counters of the one s27 cache at its completion.
        stats = self.latest_trace_stats
        return {
            "hits": stats.get("trace_hits", 0) + stats.get("bits_hits", 0),
            "misses": stats.get("trace_misses", 0) + stats.get("bits_misses", 0),
        }


WORKLOADS = {w.name: w for w in (AtpgT0, SelectSweep, FaultsimLarge, ServeSmall)}
