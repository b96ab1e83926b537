"""Per-fault genetic search for hard-to-detect faults.

A small GA over whole input sequences, steered by a state-divergence
fitness — the same signal family STRATEGATE's dynamic state traversal
uses.  The GA is only invoked for faults the random and greedy phases
leave undetected, and only for a bounded number of targets, so its cost
stays a small fraction of the whole run.

A generation's candidates are independent fault simulations, so each
generation is scored in **one** paired-candidate scan
(:meth:`~repro.sim.seqsim.SequenceBatchSimulator.observe`), one
candidate per slot, with the backend's in-kernel state-divergence
reduction supplying the fitness fields.  The first detecting candidate
in population order wins, and ``evaluations`` counts candidates up to
and including it — exactly what scoring them one at a time with
:class:`~repro.atpg.observe.FaultObserver` (now the test oracle) would
report, so outcomes are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.atpg.config import AtpgConfig
from repro.atpg.random_gen import crossover, mutate_sequence, random_sequence
from repro.core.sequence import TestSequence
from repro.faults.model import Fault
from repro.sim.seqsim import SequenceBatchSimulator
from repro.util.rng import SplitMix64, derive_seed

@dataclass(frozen=True)
class GeneticOutcome:
    """Result of one GA run for one target fault."""

    fault: Fault
    sequence: TestSequence | None
    generations_used: int
    evaluations: int

    @property
    def succeeded(self) -> bool:
        return self.sequence is not None


def _divergence_score(max_divergence: int, final: int, area: int) -> int:
    """Fitness of a non-detecting candidate (detection ends the search)."""
    return max_divergence * 1000 + final * 100 + area


def attack_fault(
    simulator: SequenceBatchSimulator,
    fault: Fault,
    config: AtpgConfig,
    salt: int,
) -> GeneticOutcome:
    """Run the GA for one fault; returns a detecting sequence if found.

    ``simulator`` scores the generations (a serial candidate-scan
    simulator over the target circuit; its backend never changes the
    outcome).
    """
    rng = SplitMix64(derive_seed(config.seed, 0x6E6, salt))
    width = simulator.compiled.num_inputs
    population = [
        random_sequence(rng, width, config.genetic_sequence_length)
        for _ in range(config.genetic_population)
    ]
    evaluations = 0
    for generation in range(config.genetic_generations + 1):
        if generation:
            ranked = sorted(
                range(len(population)), key=lambda i: scores[i], reverse=True
            )
            elite = [population[i] for i in ranked[: max(2, len(ranked) // 3)]]
            next_population = list(elite)
            while len(next_population) < config.genetic_population:
                parent_a = elite[rng.randint(0, len(elite) - 1)]
                parent_b = population[rng.randint(0, len(population) - 1)]
                child = crossover(rng, parent_a, parent_b)
                if len(child) > 2 * config.genetic_sequence_length:
                    child = child.subsequence(
                        0, 2 * config.genetic_sequence_length - 1
                    )
                child = mutate_sequence(
                    rng, child, bit_flip_probability=2.0 / max(1, width)
                )
                next_population.append(child)
            population = next_population
        observations = simulator.observe(fault, population)
        for index, (detected_at, *_) in enumerate(observations):
            if detected_at is not None:
                return GeneticOutcome(
                    fault,
                    population[index],
                    generation,
                    evaluations + index + 1,
                )
        evaluations += len(population)
        scores = [_divergence_score(*fields) for _, *fields in observations]
    return GeneticOutcome(fault, None, config.genetic_generations, evaluations)
