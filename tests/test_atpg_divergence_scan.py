"""The GA's batched fitness scan: state-divergence parity and golden outcomes.

``SequenceBatchSimulator.observe`` scores a whole GA generation in one
paired-candidate scan with the backends' state-divergence reduction.
:class:`~repro.atpg.observe.FaultObserver` — one candidate, one slot, on
the big-int reference kernel — is the oracle it must match field for
field, on every registry backend and scan mode, with thread lanes, for
populations straddling 64-slot word boundaries, and for candidates that
detect on their last step or never.

The golden block pins ``generate_t0``'s ``T0`` and every
``GeneticOutcome`` under a small GA configuration, recorded with the
per-candidate observer loop the batched scan replaced: batching must
not change GA semantics or its random-number use.
"""

from __future__ import annotations

import hashlib
from functools import cache

import pytest

import repro.atpg.engine as engine
from repro.atpg.config import AtpgConfig
from repro.atpg.observe import FaultObserver
from repro.atpg.random_gen import random_sequence
from repro.circuits.catalog import load_circuit
from repro.circuits.generator import SyntheticSpec, generate_circuit
from repro.core.sequence import TestSequence
from repro.errors import SimulationError
from repro.faults.universe import FaultUniverse
from repro.sim.backend import BroadcastStimulus, StateDivergence, registry_backends
from repro.sim.compiled import CompiledCircuit
from repro.sim.seqsim import SequenceBatchSimulator
from repro.util.rng import SplitMix64

CIRCUITS = ("s27", "syn298", "generated")
POPULATIONS = (1, 10, 63, 64, 65)
MAX_LENGTH = 48


@cache
def _compiled(name: str) -> CompiledCircuit:
    if name == "generated":
        spec = SyntheticSpec(
            name="gadiv",
            num_inputs=5,
            num_outputs=3,
            num_flops=7,
            num_gates=70,
            seed=8128,
        )
        return CompiledCircuit(generate_circuit(spec))
    return CompiledCircuit(load_circuit(name))


def _as_tuple(observation) -> tuple:
    return (
        observation.detected_at,
        observation.max_state_divergence,
        observation.final_state_divergence,
        observation.divergence_area,
    )


@cache
def _case(name: str, size: int) -> tuple:
    """``(fault, population, oracle observations)`` for one parity case.

    Candidate lengths are drawn from 1..48.  One slot holds a detecting
    candidate truncated to end on its detection step; the fault is the
    first one (in universe order) for which such a candidate exists and,
    when the population has room, some other candidate never detects.
    """
    compiled = _compiled(name)
    observer = FaultObserver(compiled)
    rng = SplitMix64(0xD1F + size)
    width = compiled.num_inputs
    population = [
        random_sequence(rng, width, rng.randint(1, MAX_LENGTH))
        for _ in range(size)
    ]
    probe = [random_sequence(rng, width, MAX_LENGTH) for _ in range(4)]
    for fault in FaultUniverse(compiled.circuit).faults():
        seen = [observer.observe(fault, sequence) for sequence in probe]
        hit = next((i for i, o in enumerate(seen) if o.detected), None)
        if hit is None:
            continue
        candidates = list(population)
        candidates[size // 2] = probe[hit].subsequence(0, seen[hit].detected_at)
        oracle = tuple(_as_tuple(observer.observe(fault, c)) for c in candidates)
        if size == 1 or any(at is None for at, *_ in oracle):
            return fault, candidates, oracle
    raise AssertionError(f"no suitable fault on {name}")  # pragma: no cover


def _simulator(name, backend, scan_mode="fused", threads=1, batch_width=128):
    return SequenceBatchSimulator(
        _compiled(name),
        batch_width=batch_width,
        backend=backend,
        scan_mode=scan_mode,
        threads=threads,
    )


class TestDivergenceParity:
    @pytest.mark.parametrize("size", POPULATIONS)
    @pytest.mark.parametrize("name", CIRCUITS)
    def test_case_covers_last_step_and_misses(self, name, size):
        _, population, oracle = _case(name, size)
        assert all(1 <= len(c) <= MAX_LENGTH for c in population)
        assert any(
            at is not None and at == len(c) - 1
            for c, (at, *_) in zip(population, oracle)
        )
        if size > 1:
            assert any(at is None for at, *_ in oracle)

    @pytest.mark.parametrize("scan_mode", ["fused", "stepped"])
    @pytest.mark.parametrize("backend", registry_backends())
    @pytest.mark.parametrize("size", POPULATIONS)
    @pytest.mark.parametrize("name", CIRCUITS)
    def test_matches_observer(
        self, require_backend, name, size, backend, scan_mode
    ):
        require_backend(backend)
        fault, population, oracle = _case(name, size)
        simulator = _simulator(name, backend, scan_mode)
        assert tuple(simulator.observe(fault, population)) == oracle

    @pytest.mark.parametrize("size", POPULATIONS)
    @pytest.mark.parametrize("name", CIRCUITS)
    def test_native_thread_lanes(self, require_backend, name, size):
        require_backend("native")
        fault, population, oracle = _case(name, size)
        simulator = _simulator(name, "native", threads=2)
        assert tuple(simulator.observe(fault, population)) == oracle

    @pytest.mark.parametrize("backend", registry_backends())
    def test_multi_batch_and_empty_candidates(self, require_backend, backend):
        require_backend(backend)
        fault, population, oracle = _case("syn298", 65)
        population = list(population)
        population[3] = TestSequence.empty(_compiled("syn298").num_inputs)
        expected = list(oracle)
        expected[3] = (None, 0, 0, 0)
        simulator = _simulator("syn298", backend, batch_width=64)
        assert simulator.observe(fault, population) == expected

    def test_fault_axis_rejects_divergence(self, s27_compiled, s27_universe):
        simulator = SequenceBatchSimulator(s27_compiled, backend="python")
        backend = simulator.backend
        fault = s27_universe.fault(0)
        faulty = backend.batch(backend.program((fault,)), 1)
        stimulus = BroadcastStimulus(TestSequence([(0, 0, 0, 0)]), 1)
        with pytest.raises(SimulationError, match="paired"):
            backend.run_scan(
                None, faulty, stimulus, [[]], 1, divergence=StateDivergence(1)
            )


# ----------------------------------------------------------------------
# Golden GA outcomes
# ----------------------------------------------------------------------
GOLDEN_CONFIG = dict(
    seed=7,
    genetic_targets=6,
    genetic_population=10,
    genetic_generations=6,
    genetic_sequence_length=16,
    random_patience=3,
    greedy_patience=2,
)

#: circuit -> (T0 digest, len(T0), detected, [(fault, sequence digest,
#: generations_used, evaluations)] per attacked fault), recorded with the
#: per-candidate observer GA.
GOLDEN = {
    "syn298": (
        "5105ffc7c2e498c7",
        119,
        244,
        [
            ("D2 SA1", "9b26601a91bb33f7", 3, 35),
            ("D3 SA1", None, 6, 70),
            ("D8 SA1", None, 6, 70),
            ("I0->N1[2] SA0", None, 6, 70),
            ("I0->N1[2] SA1", None, 6, 70),
            ("I0->N101[1] SA1", None, 6, 70),
        ],
    ),
    "syn382": (
        "115a42926cafce66",
        108,
        317,
        [
            ("D17 SA0", None, 6, 70),
            ("D17 SA1", None, 6, 70),
            ("D18 SA0", "32d4c79bd7251934", 5, 58),
            ("D18 SA1", None, 6, 70),
            ("D8 SA1", None, 6, 70),
            ("D9 SA0", None, 6, 70),
        ],
    ),
}


def _digest(sequence: TestSequence) -> str:
    hasher = hashlib.sha256()
    for vector in sequence:
        hasher.update(bytes(vector))
        hasher.update(b"|")
    return hasher.hexdigest()[:16]


class TestGoldenGeneticOutcomes:
    @pytest.mark.parametrize("backend", ["auto", "python"])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_t0_and_outcomes_unchanged(self, monkeypatch, name, backend):
        attack = engine.attack_fault
        seen = []

        def recording(simulator, fault, config, salt):
            outcome = attack(simulator, fault, config, salt=salt)
            seen.append(
                (
                    str(fault),
                    None if outcome.sequence is None else _digest(outcome.sequence),
                    outcome.generations_used,
                    outcome.evaluations,
                )
            )
            return outcome

        monkeypatch.setattr(engine, "attack_fault", recording)
        result = engine.generate_t0(
            load_circuit(name), AtpgConfig(backend=backend, **GOLDEN_CONFIG)
        )
        digest, length, detected, outcomes = GOLDEN[name]
        assert (_digest(result.sequence), len(result.sequence)) == (digest, length)
        assert result.detected == detected
        assert seen == outcomes
