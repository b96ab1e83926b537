"""Tests for the ATPG substrate: phases, compaction, engine contract."""

from __future__ import annotations

import pytest

from repro.atpg.compaction import compact_sequence
from repro.atpg.config import AtpgConfig
from repro.atpg.engine import generate_t0
from repro.atpg.genetic import attack_fault
from repro.atpg.observe import FaultObserver
from repro.atpg.random_gen import (
    crossover,
    mutate_sequence,
    random_sequence,
    random_vector,
    weighted_sequence,
)
from repro.atpg.restoration import restoration_compact
from repro.core.request import RunRequest
from repro.core.sequence import TestSequence
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator
from repro.sim.seqsim import SequenceBatchSimulator
from repro.util.rng import SplitMix64


class TestRandomGen:
    def test_random_vector_shape(self):
        rng = SplitMix64(1)
        vector = random_vector(rng, 16)
        assert len(vector) == 16
        assert set(vector) <= {0, 1}

    def test_random_sequence_shape(self):
        seq = random_sequence(SplitMix64(2), 5, 7)
        assert len(seq) == 7
        assert seq.width == 5

    def test_weighted_sequence_bias(self):
        heavy = weighted_sequence(SplitMix64(3), 50, 40, 0.9)
        ones = sum(sum(v) for v in heavy)
        assert ones > 0.7 * 50 * 40

    def test_mutation_preserves_shape(self):
        seq = random_sequence(SplitMix64(4), 6, 10)
        mutated = mutate_sequence(SplitMix64(5), seq, 0.3)
        assert len(mutated) == len(seq)
        assert mutated.width == seq.width

    def test_mutation_zero_probability_is_identity(self):
        seq = random_sequence(SplitMix64(6), 6, 10)
        assert mutate_sequence(SplitMix64(7), seq, 0.0) == seq

    def test_crossover_properties(self):
        left = random_sequence(SplitMix64(8), 4, 6)
        right = random_sequence(SplitMix64(9), 4, 9)
        child = crossover(SplitMix64(10), left, right)
        assert child.width == 4
        assert 1 <= len(child) <= len(left) + len(right)

    def test_crossover_with_empty(self):
        left = random_sequence(SplitMix64(11), 4, 5)
        child = crossover(SplitMix64(12), left, TestSequence.empty(4))
        assert child == left


class TestObserver:
    def test_detectable_fault_is_detected(self, s27, s27_universe, s27_t0):
        observer = FaultObserver(CompiledCircuit(s27))
        fault_sim = FaultSimulator(s27)
        result = fault_sim.run(s27_t0, list(s27_universe.faults()))
        fault = next(iter(result.detection_time))
        observation = observer.observe(fault, s27_t0)
        assert observation.detected
        assert observation.detected_at == result.detection_time[fault]

    def test_divergence_fields_nonnegative(self, s27, s27_universe, s27_t0):
        observer = FaultObserver(CompiledCircuit(s27))
        for fault in list(s27_universe.faults())[:5]:
            observation = observer.observe(fault, s27_t0)
            peak = observation.max_state_divergence
            assert peak >= observation.final_state_divergence >= 0
            assert observation.divergence_area >= peak

    def test_empty_sequence(self, s27, s27_universe):
        observer = FaultObserver(CompiledCircuit(s27))
        observation = observer.observe(s27_universe.fault(0), TestSequence([]))
        assert not observation.detected
        assert observation.max_state_divergence == 0


class TestGenetic:
    def test_ga_finds_an_s27_fault(self, s27, s27_universe):
        config = AtpgConfig(
            genetic_population=8, genetic_generations=6, genetic_sequence_length=10
        )
        simulator = SequenceBatchSimulator(CompiledCircuit(s27))
        outcome = attack_fault(simulator, s27_universe.fault(0), config, salt=0)
        assert outcome.succeeded
        assert FaultSimulator(s27).detects(outcome.sequence, s27_universe.fault(0))

    def test_ga_is_deterministic(self, s27, s27_universe):
        config = AtpgConfig(genetic_population=6, genetic_generations=4)
        simulator = SequenceBatchSimulator(CompiledCircuit(s27))
        a = attack_fault(simulator, s27_universe.fault(3), config, salt=1)
        b = attack_fault(simulator, s27_universe.fault(3), config, salt=1)
        assert a.sequence == b.sequence
        assert a.evaluations == b.evaluations


class TestCompaction:
    def test_omission_compaction_preserves_coverage(self, s27, s27_universe, s27_t0):
        compiled = CompiledCircuit(s27)
        faults = list(s27_universe.faults())
        padded = s27_t0.extend(s27_t0)  # redundant second half
        compacted, stats = compact_sequence(compiled, padded, faults, seed=1)
        before = set(FaultSimulator(s27).run(padded, faults).detection_time)
        after = set(FaultSimulator(s27).run(compacted, faults).detection_time)
        assert after >= before
        assert stats.final_length <= stats.original_length
        assert len(compacted) == stats.final_length

    def test_restoration_preserves_coverage(self, s27, s27_universe, s27_t0):
        compiled = CompiledCircuit(s27)
        faults = list(s27_universe.faults())
        padded = s27_t0.extend(s27_t0)
        compacted, stats = restoration_compact(compiled, padded, faults)
        before = set(FaultSimulator(s27).run(padded, faults).detection_time)
        after = set(FaultSimulator(s27).run(compacted, faults).detection_time)
        assert after >= before
        assert stats.final_length <= stats.original_length
        assert stats.restoration_events >= 1
        assert stats.ratio <= 1.0

    def test_restoration_on_undetecting_sequence(self, s27, s27_universe):
        compiled = CompiledCircuit(s27)
        constant = TestSequence([[0, 0, 0, 0]])
        compacted, stats = restoration_compact(
            compiled, constant, list(s27_universe.faults())
        )
        # The all-zero vector detects nothing by itself -> empty result.
        assert stats.final_length == len(compacted)


class TestEngine:
    def test_s27_full_coverage(self, s27, s27_universe):
        result = generate_t0(s27, AtpgConfig(max_length=200), universe=s27_universe)
        assert result.detected == 32
        assert result.coverage == 1.0
        assert result.length <= 200
        # The generated sequence really achieves what the result claims.
        sim = FaultSimulator(s27).run(result.sequence, list(s27_universe.faults()))
        assert sim.num_detected == 32

    def test_deterministic(self, s27):
        a = generate_t0(s27, AtpgConfig(max_length=150, seed=5))
        b = generate_t0(s27, AtpgConfig(max_length=150, seed=5))
        assert a.sequence == b.sequence

    def test_seed_changes_outcome(self, s27):
        a = generate_t0(s27, AtpgConfig(max_length=150, seed=5))
        b = generate_t0(s27, AtpgConfig(max_length=150, seed=6))
        assert a.sequence != b.sequence

    def test_max_length_respected(self, medium_synthetic):
        result = generate_t0(
            medium_synthetic,
            AtpgConfig(max_length=40, genetic_targets=0),
        )
        assert result.length <= 40

    def test_phase_log_populated(self, s27):
        result = generate_t0(s27, AtpgConfig(max_length=150))
        assert any(line.startswith("random:") for line in result.phase_log)
        assert any(
            line.startswith(("restoration:", "omission:")) for line in result.phase_log
        )

    def test_no_compaction_option(self, s27):
        result = generate_t0(s27, AtpgConfig(max_length=150, run_compaction=False))
        assert result.compaction is None

    def test_omission_method_option(self, s27):
        result = generate_t0(
            s27,
            AtpgConfig(max_length=120, compaction_method="omission"),
        )
        assert result.detected == 32

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AtpgConfig(max_length=0)
        with pytest.raises(ValueError):
            AtpgConfig(genetic_population=1)
        with pytest.raises(ValueError):
            AtpgConfig(compaction_method="magic")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("genetic_sequence_length", 0),
            ("genetic_sequence_length", -3),
            ("genetic_generations", -1),
            ("genetic_targets", -1),
        ],
    )
    def test_genetic_knobs_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            AtpgConfig(**{field: value})
        payload = AtpgConfig().to_json()
        payload[field] = value
        with pytest.raises(ValueError, match=field):
            AtpgConfig.from_json(payload)
        request = {"circuit": "s27", "kind": "atpg", "atpg": payload}
        with pytest.raises(ValueError, match=field):
            RunRequest.from_json(request)

    def test_zero_generations_and_targets_accepted(self, s27):
        config = AtpgConfig(genetic_generations=0, genetic_targets=0)
        assert AtpgConfig.from_json(config.to_json()) == config
