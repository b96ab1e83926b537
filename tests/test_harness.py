"""Tests for the experiment harness: suites, experiments, tables, figures."""

from __future__ import annotations

import pytest

from repro.harness.experiment import run_circuit_experiment
from repro.harness.figures import figure1_intervals, render_figure1
from repro.harness.paper_data import (
    PAPER_AVERAGE_MAX_RATIO,
    PAPER_AVERAGE_TOTAL_RATIO,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
)
from repro.harness.suite import (
    FULL_SUITE,
    PAPER_N_VALUES,
    QUICK_SUITE,
    SuiteSpec,
    resolve_suite,
    suite_circuits,
)
from repro.harness.tables import render_table3, render_table4, render_table5


class TestSuite:
    def test_paper_n_sweep(self):
        assert PAPER_N_VALUES == (2, 4, 8, 16)

    def test_quick_subset_of_full(self):
        quick = {spec.circuit for spec in QUICK_SUITE}
        full = {spec.circuit for spec in FULL_SUITE}
        assert quick <= full

    def test_full_suite_covers_all_paper_rows(self):
        paper_names = {spec.paper_name for spec in FULL_SUITE if spec.paper_name}
        assert paper_names == set(PAPER_TABLE3)

    def test_resolve_by_name(self):
        assert resolve_suite("quick") == QUICK_SUITE

    def test_resolve_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SUITE", raising=False)
        assert resolve_suite() == QUICK_SUITE
        monkeypatch.setenv("REPRO_SUITE", "full")
        assert resolve_suite() == FULL_SUITE

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            resolve_suite("gigantic")

    def test_suite_circuits_names(self):
        names = suite_circuits("quick")
        assert names[0] == "s27"
        assert all(isinstance(n, str) for n in names)


class TestPaperData:
    def test_twelve_rows_everywhere(self):
        assert len(PAPER_TABLE3) == 12
        assert len(PAPER_TABLE4) == 12
        assert len(PAPER_TABLE5) == 12

    def test_tables_agree_on_shared_columns(self):
        for name, row5 in PAPER_TABLE5.items():
            row3 = PAPER_TABLE3[name]
            assert row5.t0_length == row3.t0_length
            assert row5.n == row3.n
            assert row5.num_sequences == row3.num_sequences_after
            assert row5.total_length == row3.total_length_after
            assert row5.max_length == row3.max_length_after

    def test_test_length_is_8nl(self):
        for row in PAPER_TABLE5.values():
            assert row.test_length == 8 * row.n * row.total_length

    def test_published_averages_match_rows(self):
        total = sum(r.total_ratio for r in PAPER_TABLE5.values()) / 12
        maximum = sum(r.max_ratio for r in PAPER_TABLE5.values()) / 12
        assert total == pytest.approx(PAPER_AVERAGE_TOTAL_RATIO, abs=0.01)
        assert maximum == pytest.approx(PAPER_AVERAGE_MAX_RATIO, abs=0.01)

    def test_ratios_consistent_with_lengths(self):
        for row in PAPER_TABLE5.values():
            assert row.total_ratio == pytest.approx(
                row.total_length / row.t0_length, abs=0.01
            )
            assert row.max_ratio == pytest.approx(
                row.max_length / row.t0_length, abs=0.01
            )


@pytest.fixture(scope="module")
def s27_record():
    spec = QUICK_SUITE[0]
    assert spec.circuit == "s27"
    return run_circuit_experiment(spec, n_values=(1, 2))


class TestExperiment:
    def test_s27_uses_paper_t0(self, s27_record):
        assert s27_record.experiment.t0_source == "paper"
        assert s27_record.experiment.t0.to_strings()[0] == "0111"

    def test_sweep_runs_recorded(self, s27_record):
        assert set(s27_record.runs) == {1, 2}
        for run in s27_record.runs.values():
            assert run.result.coverage_preserved

    def test_best_n_rule(self, s27_record):
        best = s27_record.best_n
        best_result = s27_record.runs[best].result
        for n, run in s27_record.runs.items():
            key_best = (
                best_result.max_length_after,
                best_result.total_length_after,
                best_result.procedure1_seconds,
            )
            key_other = (
                run.result.max_length_after,
                run.result.total_length_after,
                run.result.procedure1_seconds,
            )
            assert key_best <= key_other

    def test_atpg_t0_cached_across_experiments(self):
        from repro.atpg.config import AtpgConfig
        from repro.harness.experiment import _T0_CACHE, prepare_experiment

        spec = SuiteSpec(
            circuit="syn298", paper_name="s298", atpg=AtpgConfig(max_length=60)
        )
        first = prepare_experiment(spec)
        assert (spec.circuit, spec.atpg) in _T0_CACHE
        second = prepare_experiment(spec)
        assert first.t0 == second.t0

    def test_t0_cache_ignores_execution_knobs(self, monkeypatch):
        from repro.atpg.config import AtpgConfig
        from repro.harness import experiment

        generate = experiment.generate_t0
        generated = []

        def counting(*args, **kwargs):
            generated.append(args[0])
            return generate(*args, **kwargs)

        monkeypatch.setattr(experiment, "_T0_CACHE", {})
        monkeypatch.setattr(experiment, "generate_t0", counting)
        spec = SuiteSpec(
            circuit="syn298", paper_name="s298", atpg=AtpgConfig(max_length=60)
        )
        first = experiment.prepare_experiment(spec, backend="python")
        spec = SuiteSpec(
            circuit="syn298",
            paper_name="s298",
            atpg=AtpgConfig(max_length=60, chunking="count"),
        )
        second = experiment.prepare_experiment(
            spec, backend="auto", workers=2, parallel="threads"
        )
        assert len(generated) == 1
        assert second.atpg_result is first.atpg_result


class TestRenderers:
    def test_table3_contains_measured_and_paper_rows(self, s27_record):
        text = render_table3([s27_record])
        assert "Table 3" in text
        assert "s27" in text

    def test_table4_numbers_render(self, s27_record):
        text = render_table4([s27_record])
        assert "Proc.1" in text

    def test_table5_average_row(self, s27_record):
        text = render_table5([s27_record])
        assert "average" in text
        assert "paper:average" in text

    def test_paper_rows_appear_for_synthetic_circuits(self, s27_record):
        # Fabricate a paper_name so the paper row is emitted.
        s27_record.experiment.spec = SuiteSpec(
            circuit="s27", paper_name="s298"
        )
        text = render_table3([s27_record])
        assert "paper:s298" in text
        s27_record.experiment.spec = SuiteSpec(circuit="s27", paper_name="")


class TestFigure1:
    def test_intervals_match_selection(self, s27_record):
        run = s27_record.runs[1]
        intervals = figure1_intervals(run)
        assert len(intervals) == len(run.selection.sequences)
        for interval, entry in zip(intervals, run.selection.sequences):
            assert interval.start == entry.ustart
            assert interval.end == entry.udet
            assert interval.start <= interval.end
            assert interval.final_length <= interval.window_length

    def test_render_contains_axis_and_bars(self, s27_record):
        text = render_figure1(s27_record.runs[1])
        assert "Figure 1" in text
        assert "T0  |" in text
        assert "=" in text
        assert "window coverage" in text
