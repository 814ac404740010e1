"""Tests for the batch execution engine and the engine-backed experiments.

The contract under test: whatever the policy and however workers interleave,
the results come back in input order and every experiment report is
byte-identical to its serial counterpart.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.store import ResultStore
from repro.codes import benchmark_suite
from repro.core import superscalar
from repro.errors import SolverError
from repro.experiments import (
    BatchEngine,
    SupervisorConfig,
    run_batch,
    run_ilp_size_study,
    run_pipeline_experiment,
)
from repro.experiments.engine import POLICIES

# Module-level workers so the process policy can pickle them.


def _square(x: int) -> int:
    return x * x


def _slow_inverse(item):
    """Finishes in reverse submission order to stress result reordering."""

    index, total = item
    time.sleep(0.005 * (total - index))
    return index


def _explode(x: int) -> int:
    if x == 3:
        raise ValueError("boom on 3")
    return x


def _raise_solver_error(x: int) -> int:
    raise SolverError(f"no solution for {x}")


_QUICK_SUPERVISOR = SupervisorConfig(
    timeout=10.0, max_attempts=3, backoff_base=0.01, backoff_cap=0.05
)


class TestBatchEngine:
    def test_spec_parsing(self):
        assert BatchEngine.coerce(None).policy == "serial"
        assert BatchEngine.coerce("thread").policy == "thread"
        engine = BatchEngine.coerce("process:4")
        assert engine.policy == "process" and engine.workers == 4
        ready = BatchEngine("thread", 2)
        assert BatchEngine.coerce(ready) is ready

    def test_invalid_specs_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            BatchEngine("fibers")
        # The removed socket-fleet policy is rejected like any unknown one.
        with pytest.raises(ValueError, match=r"\('serial', 'thread', 'process'\)"):
            BatchEngine("fleet")
        monkeypatch.setenv("REPRO_ENGINE", "fleet")
        with pytest.raises(ValueError, match=r"\('serial', 'thread', 'process'\)"):
            BatchEngine.from_environment()
        with pytest.raises(ValueError):
            BatchEngine("thread", 0)

    @pytest.mark.parametrize("policy", ["serial", "thread"])
    def test_results_in_input_order(self, policy):
        items = [(i, 8) for i in range(8)]
        engine = BatchEngine(policy, workers=8)
        assert engine.map(_slow_inverse, items) == list(range(8))

    def test_process_policy_round_trip(self):
        assert run_batch(_square, [3, 1, 2], engine="process:2") == [9, 1, 4]

    def test_worker_exception_propagates(self):
        for policy in ("serial", "thread"):
            with pytest.raises(ValueError, match="boom on 3"):
                BatchEngine(policy).map(_explode, [1, 2, 3, 4])

    def test_resolved_workers_bounded_by_items(self):
        assert BatchEngine("thread", 16).resolved_workers(3) == 3
        assert BatchEngine("thread", 2).resolved_workers(10) == 2


class TestPolicyContract:
    """The same batch contract holds under each of the three policies."""

    @pytest.fixture(autouse=True)
    def _plain_environment(self, monkeypatch):
        for variable in ("REPRO_ENGINE", "REPRO_FAULTS", "REPRO_TIMEOUT",
                         "REPRO_RETRIES"):
            monkeypatch.delenv(variable, raising=False)

    def test_policies_are_the_three_local_ones(self):
        assert POLICIES == ("serial", "thread", "process")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_outcomes_in_input_order_and_labelled(self, policy):
        engine = BatchEngine(policy, workers=2)
        results, outcomes = engine.map_with_outcomes(_square, list(range(8)))
        assert results == [x * x for x in range(8)]
        assert [o.index for o in outcomes] == list(range(8))
        assert all(o.status == "ok" and o.policy == policy for o in outcomes)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_empty_batch(self, policy):
        for supervisor in (None, _QUICK_SUPERVISOR):
            engine = BatchEngine(policy, workers=3, supervisor=supervisor)
            assert engine.map_with_outcomes(_square, []) == ([], [])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_spec_and_environment_agree(self, policy, monkeypatch):
        engine = BatchEngine.from_spec(f"{policy}:3")
        assert engine.policy == policy and engine.workers == 3
        monkeypatch.setenv("REPRO_ENGINE", f"{policy}:3")
        assert BatchEngine.from_environment() == engine

    @pytest.mark.parametrize("policy", POLICIES)
    def test_item_failure_propagates_like_a_plain_loop(self, policy):
        for supervisor in (None, _QUICK_SUPERVISOR):
            engine = BatchEngine(policy, workers=2, supervisor=supervisor)
            with pytest.raises(SolverError, match="no solution for"):
                engine.map(_raise_solver_error, list(range(4)))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_store_write_back_and_warm_rerun(self, policy, tmp_path):
        store = ResultStore(tmp_path)
        engine = BatchEngine(policy, workers=2)
        items = list(range(6))
        key_fn = lambda x: (f"g{x}", {"x": x})  # noqa: E731
        # Seed one key: a stored item is served from the store, not computed.
        store.put("g4", "q", {"x": 4}, "seeded")
        results, outcomes = engine.map_with_outcomes(
            _square, items, store=store, query="q", key_fn=key_fn
        )
        assert results == [0, 1, 4, 9, "seeded", 25]
        assert [o.status for o in outcomes] == ["ok"] * 4 + ["stored", "ok"]
        assert [o.index for o in outcomes] == items
        assert store.stats.puts == len(items)
        assert store.get("g3", "q", {"x": 3}) == 9
        warm, warm_outcomes = engine.map_with_outcomes(
            _square, items, store=store, query="q", key_fn=key_fn
        )
        assert warm == results
        assert all(o.status == "stored" for o in warm_outcomes)
        assert store.stats.puts == len(items)


class TestEngineBackedExperiments:
    @pytest.fixture(scope="class")
    def machine(self):
        return superscalar(int_registers=6, float_registers=6)

    def test_pipeline_reports_byte_identical(self, machine):
        suite = benchmark_suite(max_size=16)
        serial = run_pipeline_experiment(
            suite=suite, machine=machine, registers=6, compare_baseline=False
        )
        threaded = run_pipeline_experiment(
            suite=suite,
            machine=machine,
            registers=6,
            compare_baseline=False,
            engine="thread",
        )
        assert serial.to_table() == threaded.to_table()
        assert [o.name for o in serial.outcomes] == [o.name for o in threaded.outcomes]

    @pytest.mark.needs_ilp_solver
    def test_ilp_size_reports_byte_identical(self):
        serial = run_ilp_size_study(sizes=(10, 14, 18))
        threaded = run_ilp_size_study(sizes=(10, 14, 18), engine=BatchEngine("thread", 3))
        assert serial.to_table() == threaded.to_table()
