"""Tests for the flat-core kernels and the warm state built on them.

* the scalar kernels of :mod:`repro.analysis.flatbuf` against brute-force
  references on randomized inputs (including ``-inf`` sentinels);
* :class:`~repro.saturation.incremental.IncrementalAnalysis` rows against a
  brute-force longest-path relaxation, and under random push/pop/reset
  interleavings against a cold analysis of a copy of the current graph;
* :meth:`ReductionSession.scan` against per-pair ``consider`` calls on a
  cold session, and session push/reset traces against cold sessions;
* the Greedy-k bipartite decomposition against a union-find reference;
* the reduction's ``engine_stats``: per-run counters that do not leak
  between reductions running concurrently on threads;
* importing the experiment layer does not pull in numpy or scipy.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading

import pytest

from repro.analysis import flatbuf
from repro.analysis.context import context_for
from repro.codes.generator import layered_random_ddg
from repro.core.graph import Edge
from repro.core.types import INT, DependenceKind
from repro.reduction import ReductionSession
from repro.saturation.greedy import _bipartite_components
from repro.saturation.incremental import IncrementalAnalysis
from repro.saturation.pkill import potential_killers_map

NEG_INF = flatbuf.NEG_INF


def _random_row(rng, n, p_inf=0.3):
    return [
        NEG_INF if rng.random() < p_inf else float(rng.randint(-50, 200))
        for _ in range(n)
    ]


class TestBackend:
    def test_backend_is_the_pure_python_kernels(self):
        assert flatbuf.backend() == "python"

    def test_backend_ignores_the_environment(self, monkeypatch):
        for value in ("numpy", "stdlib", "off", "bogus"):
            monkeypatch.setenv("REPRO_VECTOR", value)
            assert flatbuf.backend() == "python"

    def test_kernels_return_builtin_types(self):
        patched, changed = flatbuf.max_merge(
            [0.0, NEG_INF], 1.0, flatbuf.finite_entries([NEG_INF, 2.0])
        )
        assert type(patched) is list and type(changed) is list
        assert all(type(x) is float for x in patched)
        mask = flatbuf.threshold_mask(
            [3.0, 0.0], flatbuf.prepare_values([0, 1], [0, 0]), 1
        )
        assert type(mask) is int and mask == 0b01


class TestMaxMerge:
    def test_randomized_rows_match_brute_force(self):
        rng = random.Random(20260808)
        for case in range(200):
            n = rng.randint(1, 40)
            row = _random_row(rng, n)
            dst = _random_row(rng, n, p_inf=rng.choice([0.1, 0.5, 1.0]))
            shift = float(rng.randint(-10, 60))
            pristine = list(row)

            merged = [
                max(r, shift + d) if d != NEG_INF else r for r, d in zip(row, dst)
            ]
            grew = [y for y in range(n) if merged[y] > row[y]]

            patched, changed = flatbuf.max_merge(
                row, shift, flatbuf.finite_entries(dst)
            )
            if grew:
                assert (patched, changed) == (merged, grew), f"case {case}"
            else:
                assert (patched, changed) == (None, None), f"case {case}"
            # The input row is copy-on-write: never mutated.
            assert row == pristine

    def test_finite_entries_skip_unreachable(self):
        assert flatbuf.finite_entries([NEG_INF, 2.0, NEG_INF, 0.0]) == [
            (1, 2.0),
            (3, 0.0),
        ]

    def test_no_improvement_returns_none(self):
        finite = flatbuf.finite_entries([0.0, 0.0])
        assert flatbuf.max_merge([5.0, 6.0], 1.0, finite) == (None, None)

    def test_empty_inputs(self):
        assert flatbuf.finite_entries([]) == []
        assert flatbuf.max_merge([], 3.0, []) == (None, None)
        # An all-unreachable continuation row patches nothing.
        row = [1.0, NEG_INF]
        finite = flatbuf.finite_entries([NEG_INF, NEG_INF])
        assert flatbuf.max_merge(row, 5.0, finite) == (None, None)
        assert row == [1.0, NEG_INF]


class TestThresholdMask:
    def test_randomized_rows_match_brute_force(self):
        rng = random.Random(977)
        for case in range(200):
            n = rng.randint(1, 48)
            k = rng.randint(0, n)
            row = _random_row(rng, n)
            vids = rng.sample(range(n), k)
            dw = [rng.randint(0, 4) for _ in range(k)]
            read = rng.randint(-5, 120)

            expected = sum(
                1 << j
                for j, vid in enumerate(vids)
                if row[vid] > NEG_INF and row[vid] + dw[j] >= read
            )
            mask = flatbuf.threshold_mask(row, flatbuf.prepare_values(vids, dw), read)
            assert mask == expected, f"case {case}"

    def test_empty_value_set_is_zero(self):
        prep = flatbuf.prepare_values([], [])
        assert flatbuf.threshold_mask([1.0, 2.0], prep, 10) == 0

    def test_prepared_tables_are_independent_of_their_inputs(self):
        vids, dw = [0, 1], [0, 0]
        prep = flatbuf.prepare_values(vids, dw)
        vids.append(2)
        dw[0] = 99
        assert flatbuf.threshold_mask([5.0, NEG_INF, 5.0], prep, 5) == 0b01


class TestClosureFromRows:
    @staticmethod
    def _random_dag_rows(rng, n):
        perm = list(range(n))
        rng.shuffle(perm)
        # Arcs go forward in a random permutation, so the relation is a DAG
        # that is not already topologically ordered by index.
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.15:
                    rows[perm[i]] |= 1 << perm[j]
        return rows

    @staticmethod
    def _brute_force_closure(rows):
        n = len(rows)
        closure = []
        for i in range(n):
            seen = 0
            stack = [i]
            while stack:
                v = stack.pop()
                for j in range(n):
                    if rows[v] >> j & 1 and not seen >> j & 1:
                        seen |= 1 << j
                        stack.append(j)
            closure.append(seen)
        return closure

    def test_randomized_dags_match_brute_force(self):
        rng = random.Random(4242)
        for _ in range(40):
            rows = self._random_dag_rows(rng, rng.randint(0, 70))
            assert flatbuf.closure_from_rows(rows) == self._brute_force_closure(rows)

    def test_cycle_returns_none(self):
        assert flatbuf.closure_from_rows([0b010, 0b100, 0b001]) is None

    def test_self_loop_returns_none(self):
        assert flatbuf.closure_from_rows([0b00, 0b10]) is None

    def test_empty_and_isolated_relations(self):
        assert flatbuf.closure_from_rows([]) == []
        assert flatbuf.closure_from_rows([0, 0, 0]) == [0, 0, 0]
        # A chain 0 -> 1 -> 2 closes to its suffixes.
        assert flatbuf.closure_from_rows([0b010, 0b100, 0]) == [0b110, 0b100, 0]


def _reference_lp_row(ddg, src):
    """Longest paths from *src* by Bellman-Ford-style relaxation to a fixpoint."""

    dist = {name: NEG_INF for name in ddg.nodes()}
    dist[src] = 0
    changed = True
    while changed:
        changed = False
        for e in ddg.edges():
            if dist[e.src] != NEG_INF and dist[e.src] + e.latency > dist[e.dst]:
                dist[e.dst] = dist[e.src] + e.latency
                changed = True
    return dist


class TestRowSeeding:
    @pytest.mark.parametrize("n", [7, 40, 64, 150])
    def test_rows_match_single_source_reference(self, n):
        """Rows seeded one source at a time, in any order, are exact."""

        rng = random.Random(9000 + n)
        ddg = layered_random_ddg(nodes=n, layers=6, seed=n)
        analysis = IncrementalAnalysis(ddg.copy())
        names = analysis.interner.names()
        sources = rng.sample(list(ddg.nodes()), min(8, n))
        for src in sources:
            row = analysis.row_by_name(src)
            ref = _reference_lp_row(ddg, src)
            assert dict(zip(names, row)) == ref, src
        # Re-reading a seeded row returns the warm object itself.
        assert analysis.row_by_name(sources[0]) is analysis.row_by_name(sources[0])


def _serial_arc_pool(ddg, rng, count=24):
    """Random forward serial arcs (along one topological order): always acyclic."""

    topo = context_for(ddg).topological_order()
    pos = {name: i for i, name in enumerate(topo)}
    pool = []
    for _ in range(count):
        a, b = rng.sample(topo, 2)
        if pos[a] > pos[b]:
            a, b = b, a
        pool.append(Edge(a, b, rng.randint(0, 3), DependenceKind.SERIAL, None))
    return pool


def _warm_rows(analysis):
    """Name-keyed copies of every cached longest-path row."""

    name = analysis.interner.name
    return {name(sid): list(row) for sid, row in analysis._lp_rows.items()}


def _assert_matches_cold(analysis, label):
    cold = IncrementalAnalysis(analysis.ddg.copy())
    for src, row in _warm_rows(analysis).items():
        assert row == list(cold.row_by_name(src)), f"{label}: row {src}"
    assert analysis.descendants_incl() == cold.descendants_incl(), label
    assert analysis.descendants_excl() == cold.descendants_excl(), label


class TestIncrementalAnalysisInterleavings:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_push_pop_reset_matches_cold_analysis(self, seed):
        rng = random.Random(400 + seed)
        ddg = layered_random_ddg(nodes=16 + seed, layers=4, seed=seed)
        analysis = IncrementalAnalysis(ddg.copy())
        pool = _serial_arc_pool(ddg, rng)
        names = list(ddg.nodes())
        analysis.row_by_name(names[0])
        baseline_edges = sorted(
            (e.src, e.dst, e.latency) for e in analysis.ddg.edges()
        )

        for step in range(40):
            label = f"seed {seed} step {step}"
            op = rng.random()
            if op < 0.15 and analysis.depth:
                analysis.pop()
            elif op < 0.25 and analysis.depth:
                # reset_to_depth: rewind several frames at once.
                target = rng.randrange(analysis.depth)
                while analysis.depth > target:
                    analysis.pop()
            elif op < 0.4:
                # Seed rows mid-epoch, and evict + re-seed a warm one.
                for src in rng.sample(names, rng.randint(1, 4)):
                    analysis.row_by_name(src)
                sid = rng.choice(list(analysis._lp_rows))
                analysis.evict_row_id(sid)
                analysis.row(sid)
            else:
                edges = [pool[rng.randrange(len(pool))]
                         for _ in range(rng.randint(1, 2))]
                before = _warm_rows(analysis)
                frame = analysis.push(edges)
                # The frame's change log names exactly the entries that grew.
                after = _warm_rows(analysis)
                moved = {
                    analysis.op_id(src): sorted(
                        y for y, (a, b) in enumerate(zip(row, after[src])) if a != b
                    )
                    for src, row in before.items()
                }
                logged = {sid: sorted(set(ys)) for sid, ys in frame.lp_changes.items()}
                assert logged == {sid: ys for sid, ys in moved.items() if ys}, label
            _assert_matches_cold(analysis, label)

        while analysis.depth:
            analysis.pop()
        assert sorted(
            (e.src, e.dst, e.latency) for e in analysis.ddg.edges()
        ) == baseline_edges
        _assert_matches_cold(analysis, f"seed {seed}: unwound")


def test_same_epoch_evict_and_reseed_restores_preimage():
    """A row evicted and re-seeded inside one epoch pops to its pre-image."""

    ddg = layered_random_ddg(nodes=14, layers=3, seed=7)
    analysis = IncrementalAnalysis(ddg.copy())
    pool = _serial_arc_pool(ddg, random.Random(3))
    src = context_for(ddg).topological_order()[0]
    sid = analysis.op_id(src)
    analysis.row(sid)
    before = _warm_rows(analysis)
    applied = None
    for edge in pool:
        frame = analysis.push([edge])
        if sid in frame.lp_changes:
            applied = edge
            break
        analysis.pop()
    assert applied is not None, "no arc in the pool moves the seeded row"
    moved = list(analysis.row(sid))
    analysis.evict_row_id(sid)
    assert analysis.row(sid) == moved  # re-seeded inside the same epoch
    analysis.pop()
    assert _warm_rows(analysis) == before
    _assert_matches_cold(analysis, "after pop")


def _push_one(session, sat):
    for u in sat.saturating_values:
        for v in sat.saturating_values:
            if u == v:
                continue
            edges = session.legal_serialization(u, v)
            if edges:
                session.push(edges)
                return True
    return False


def _cold_session(session):
    return ReductionSession(session.ddg.copy(), session.rtype, prune_redundant=False)


class TestSessionAgainstColdSessions:
    @pytest.mark.parametrize("seed", range(4))
    def test_push_and_reset_traces_match_cold_sessions(self, seed):
        ddg = layered_random_ddg(nodes=15 + seed, layers=4, seed=30 + seed)
        session = ReductionSession(ddg.copy(), INT)
        trace = [session.analysis_fingerprint()]
        for _ in range(3):
            if not _push_one(session, session.saturation()):
                break
            fingerprint = session.analysis_fingerprint()
            assert fingerprint == _cold_session(session).analysis_fingerprint()
            trace.append(fingerprint)
        assert session.depth >= 1, f"seed {seed}: no legal serialization"
        for depth in reversed(range(session.depth)):
            session.reset_to_depth(depth)
            assert session.analysis_fingerprint() == trace[depth], (
                f"seed {seed} depth {depth}"
            )

    @staticmethod
    def _reference_scan(cold, saturating, base_cp):
        """The generic driver's per-pair loop over :meth:`consider`."""

        best = None
        implied = 0
        for u in saturating:
            for v in saturating:
                if u == v:
                    continue
                considered = cold.consider(u, v, base_cp)
                if considered is cold.IMPLIED:
                    implied += 1
                    continue
                if considered is None:
                    continue
                inc, arc_count, payload = considered
                if best is None or (inc, arc_count) < best[0]:
                    best = ((inc, arc_count), payload)
        return best, implied

    @pytest.mark.parametrize("seed", range(5))
    def test_scan_matches_per_pair_consider(self, seed):
        ddg = layered_random_ddg(nodes=18 + seed, layers=4, seed=50 + seed)
        session = ReductionSession(ddg.copy(), INT)
        for step in range(6):
            saturating = list(session.saturation().saturating_values)
            base_cp = session.critical_path()
            got = session.scan(saturating, base_cp)
            cold = _cold_session(session)
            assert list(cold.saturation().saturating_values) == saturating
            assert got == self._reference_scan(cold, saturating, base_cp), (
                f"seed {seed} step {step}"
            )
            best, _implied = got
            if best is None:
                break
            session.apply_payload(best[1])
        # Later scans re-used verdicts cached by earlier ones.
        assert session.stats["pair_verdicts_reused"] > 0

    def test_scan_of_fewer_than_two_values_is_empty(self):
        session = ReductionSession(layered_random_ddg(nodes=10, seed=1), INT)
        base_cp = session.critical_path()
        assert session.scan([], base_cp) == (None, 0)
        saturating = list(session.saturation().saturating_values)
        assert session.scan(saturating[:1], base_cp) == (None, 0)


def _union_find_components(pk):
    """Reference decomposition: union-find over values and their killers."""

    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for value, killers in pk.items():
        for killer in killers:
            parent[find(("v", value))] = find(("k", killer))
    groups = {}
    for value, killers in pk.items():
        if killers:
            groups.setdefault(find(("v", value)), set()).add(value)
    components = []
    for values in groups.values():
        killers = sorted({k for v in values for k in pk[v]})
        components.append((sorted(values), killers))
    return sorted(components)


class TestBipartiteComponents:
    @staticmethod
    def _pk(seed, nodes=20):
        ddg = layered_random_ddg(nodes=nodes, layers=4, seed=seed).with_bottom()
        return potential_killers_map(ddg, INT, context_for(ddg))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_union_find_reference(self, seed):
        pk = dict(self._pk(seed))
        rng = random.Random(seed)
        for step in range(8):
            got = _bipartite_components(pk)
            assert sorted(got) == _union_find_components(pk), f"step {step}"
            # Thin a few killer lists so components split apart.
            for v in rng.sample(list(pk), rng.randint(1, 3)):
                row = list(pk[v])
                if row:
                    row.pop(rng.randrange(len(row)))
                pk[v] = row

    def test_components_partition_values_and_killers(self):
        pk = self._pk(11, nodes=30)
        components = _bipartite_components(pk)
        values = [v for comp_values, _ in components for v in comp_values]
        killers = [k for _, comp_killers in components for k in comp_killers]
        assert sorted(values) == sorted(v for v in pk if pk[v])
        assert len(killers) == len(set(killers))
        for comp_values, comp_killers in components:
            assert comp_values == sorted(comp_values)
            assert comp_killers == sorted(comp_killers)


@pytest.fixture()
def daxpy():
    from repro.codes import kernel_suite

    entry = {e.name: e for e in kernel_suite()}["linpack-daxpy-u4"]
    return entry.ddg, entry.ddg.register_types()[0]


def test_engine_stats_expose_shm_counters(daxpy):
    from repro.reduction import reduce_saturation_heuristic

    ddg, rtype = daxpy
    result = reduce_saturation_heuristic(ddg.copy(), rtype, 4, engine="incremental")
    stats = result.details["engine_stats"]
    assert "shm_attaches" in stats and "shm_fallbacks" in stats
    assert "greedy_decompose" in stats["stage_timings"]


def test_engine_stats_carry_no_variant_counters(daxpy):
    from repro.reduction import reduce_saturation_heuristic

    ddg, rtype = daxpy
    stats = reduce_saturation_heuristic(ddg.copy(), rtype, 4).details["engine_stats"]
    for key in ("vector_backend", "vector_kernel_calls", "row_block_patches",
                "mirror_bulk_seeds", "components_reused"):
        assert key not in stats, key


def test_thread_runs_report_serial_engine_counters():
    """Concurrent reductions report their own counters, not each other's."""

    from repro.codes import scale_suite
    from repro.reduction import reduce_saturation_heuristic
    from repro.saturation import greedy_saturation

    cases = []
    for entry in scale_suite(sizes=(56, 72), superblock_sizes=()):
        rtype = entry.ddg.register_types()[0]
        budget = greedy_saturation(entry.ddg, rtype).rs // 2
        cases.append((entry.name, entry.ddg, rtype, budget))

    def int_stats(ddg, rtype, budget):
        stats = reduce_saturation_heuristic(ddg.copy(), rtype, budget).details[
            "engine_stats"
        ]
        return {k: v for k, v in stats.items() if type(v) is int}

    serial = {name: int_stats(ddg, rt, b) for name, ddg, rt, b in cases}
    threaded = {}
    barrier = threading.Barrier(len(cases), timeout=60)

    def run(name, ddg, rtype, budget):
        barrier.wait()
        threaded[name] = int_stats(ddg, rtype, budget)

    threads = [threading.Thread(target=run, args=case) for case in cases]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert threaded == serial


def test_experiments_import_without_numpy_or_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    probe = (
        "import sys, repro.experiments; "
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
