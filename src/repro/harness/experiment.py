"""Per-circuit experiment: T0 generation, the n-sweep, best-n selection.

Mirrors Section 4 of the paper: four runs with ``n in {2, 4, 8, 16}``,
reporting the run with the best ``n`` — "the one that results in the
smallest maximum sequence length of any sequence in S, and the smallest
total length of all the sequences in S, at the lowest run time (in this
order)".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.atpg.engine import AtpgResult, generate_t0
from repro.circuits.catalog import load_circuit, paper_t0_s27
from repro.core.config import SelectionConfig
from repro.core.ops import ExpansionConfig
from repro.core.scheme import LoadAndExpandScheme, SchemeRun
from repro.core.sequence import TestSequence
from repro.core.session import Session, use_session
from repro.sim.backend import DEFAULT_BACKEND
from repro.faults.universe import FaultUniverse
from repro.harness.suite import SuiteSpec
from repro.sim.compiled import CompiledCircuit
from repro.sim.scanplan import DEFAULT_CHUNKING

#: Process-wide cache of generated T0s, keyed by (circuit, atpg config).
_T0_CACHE: dict[tuple, AtpgResult] = {}


@dataclass
class CircuitExperiment:
    """Prepared inputs of one circuit's experiment."""

    spec: SuiteSpec
    compiled: CompiledCircuit
    universe: FaultUniverse
    t0: TestSequence
    t0_source: str  # "paper" (s27) or "atpg"
    atpg_result: AtpgResult | None


@dataclass
class ExperimentRecord:
    """All n-sweep results for one circuit plus the best run."""

    experiment: CircuitExperiment
    runs: dict[int, SchemeRun] = field(default_factory=dict)

    @property
    def circuit_name(self) -> str:
        return self.experiment.compiled.circuit.name

    @property
    def paper_name(self) -> str:
        return self.experiment.spec.paper_name

    @property
    def best_n(self) -> int:
        """The paper's best-n rule over the sweep."""
        def key(n: int):
            result = self.runs[n].result
            return (
                result.max_length_after,
                result.total_length_after,
                result.procedure1_seconds,
            )

        return min(self.runs, key=key)

    @property
    def best_run(self) -> SchemeRun:
        return self.runs[self.best_n]


def prepare_experiment(
    spec: SuiteSpec,
    backend: str | None = None,
    workers: int | None = None,
    parallel: str | None = None,
    session: Session | None = None,
) -> CircuitExperiment:
    """Load the circuit and obtain its ``T0``."""
    circuit = load_circuit(spec.circuit)
    if session is not None:
        compiled = session.compile(circuit)
    else:
        compiled = CompiledCircuit(circuit)
    universe = FaultUniverse(circuit)
    if spec.circuit == "s27":
        return CircuitExperiment(
            spec=spec,
            compiled=compiled,
            universe=universe,
            t0=paper_t0_s27(),
            t0_source="paper",
            atpg_result=None,
        )
    overrides = {}
    if backend is not None:
        overrides["backend"] = backend
    if workers is not None:
        overrides["workers"] = workers
    if parallel is not None:
        overrides["parallel"] = parallel
    atpg_config = replace(spec.atpg, **overrides) if overrides else spec.atpg
    # The execution knobs only change throughput, never the generated
    # sequence, so normalize them out of the cache key: a native or
    # workers=4 sweep after a python workers=1 sweep reuses the same T0.
    cache_key = (
        spec.circuit,
        replace(
            atpg_config,
            backend=DEFAULT_BACKEND,
            workers=1,
            parallel="auto",
            chunking=DEFAULT_CHUNKING,
        ),
    )
    if cache_key not in _T0_CACHE:
        _T0_CACHE[cache_key] = generate_t0(
            compiled, atpg_config, universe=universe, session=session
        )
    atpg = _T0_CACHE[cache_key]
    return CircuitExperiment(
        spec=spec,
        compiled=compiled,
        universe=universe,
        t0=atpg.sequence,
        t0_source="atpg",
        atpg_result=atpg,
    )


def run_circuit_experiment(
    spec: SuiteSpec,
    n_values: tuple[int, ...] | None = None,
    selection_seed: int = 1999,
    backend: str | None = None,
    workers: int | None = None,
    parallel: str | None = None,
    session: Session | None = None,
) -> ExperimentRecord:
    """Run the full n-sweep for one suite entry."""
    with use_session(session) as sess:
        experiment = prepare_experiment(
            spec, backend=backend, workers=workers, parallel=parallel, session=sess
        )
        record = ExperimentRecord(experiment=experiment)
        scheme = LoadAndExpandScheme(experiment.compiled)
        for n in n_values or spec.n_values:
            config = SelectionConfig.for_backend(
                backend or DEFAULT_BACKEND,
                expansion=ExpansionConfig(repetitions=n),
                seed=selection_seed,
                workers=workers if workers is not None else 1,
                parallel=parallel or "auto",
            )
            record.runs[n] = scheme.run(experiment.t0, config, session=sess)
    return record
