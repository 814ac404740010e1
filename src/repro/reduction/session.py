"""The incremental reduction session: one working DDG, mutated with undo.

Consecutive iterations of the reduction heuristic differ by the two or
three serial arcs of one value-serialization, so instead of a graph copy, a
cold :class:`~repro.analysis.context.AnalysisContext` and a from-scratch
``greedy_saturation`` per iteration (the from-scratch driver),
:class:`ReductionSession` keeps a single working graph mutated in place:

* :meth:`push` applies serialization arcs to the working graph *and* its
  bottom-normalised mirror (``DDG.version`` is bumped by the mutation, so
  stale context caches can never leak), recording an undo frame;
* :meth:`pop` restores the exact prior graph and analysis state;
* between pushes, the structural analyses (descendant maps, longest-path
  rows) and the saturation state (potential killers, killing-set choices,
  killers' descendant values) are patched incrementally -- only the dirty
  region around the new arcs' endpoints is recomputed (see
  :mod:`repro.saturation.incremental` for the monotonicity argument);
* candidate serializations are scored without any graph copy through the
  shared mini-DAG helpers of :mod:`repro.analysis.graphalgo`, and a cheap
  reachability pre-filter (:meth:`implied`) rejects pairs whose ordering the
  transitive closure already forces before ``legal_serialization`` is paid;
* candidate verdicts live in one pair-keyed dict, framed per push by a
  delta (dropped entries, added keys) so :meth:`pop` restores it without
  copying, and the full pair scan (:meth:`scan`) is one loop over it.

The session produces results identical to the from-scratch loop (pinned by
``tests/test_reduction_incremental.py`` and asserted with byte-compared
reports by ``benchmarks/bench_reduction_incremental.py``); it is purely a
performance device.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.context import context_for
from ..core.graph import DDG, Edge
from ..core.types import BOTTOM, DependenceKind, RegisterType, Value, canonical_type
from ..errors import ReductionError
from ..saturation.incremental import IncrementalAnalysis, IncrementalSaturation
from ..saturation.result import SaturationResult
from .serialization import (
    SerializationMode,
    prune_redundant_serial_arcs,
    serialization_latency,
)

__all__ = ["ReductionSession"]

#: Removal sentinel for the verdict-table maintenance (verdict tuples are
#: always truthy, but a dedicated object keeps the intent explicit).
_MISS = object()


class _KillingSetCache(dict):
    """A dict counting its hits/misses (reported in the session stats)."""

    def __init__(self) -> None:
        super().__init__()
        self.hits = 0
        self.misses = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is default:
            self.misses += 1
        else:
            self.hits += 1
        return value


class ReductionSession:
    """Incremental engine behind the value-serialization reduction loop.

    Parameters
    ----------
    ddg:
        The original graph; it is never touched.  The session works on a
        copy named ``<name>+reduced``, like the from-scratch driver.
    rtype:
        Register type whose saturation is being reduced.
    mode:
        Serialization-latency mode (:class:`SerializationMode`), OFFSETS by
        default.
    prune_redundant:
        Drop closure-implied serial arcs from the working copy up front
        (like the from-scratch driver; the dropped arcs are in
        :attr:`pruned`).
    """

    def __init__(
        self,
        ddg: DDG,
        rtype: RegisterType | str,
        mode: str = SerializationMode.OFFSETS,
        prune_redundant: bool = True,
        name: Optional[str] = None,
    ) -> None:
        self.rtype = canonical_type(rtype)
        self.mode = mode
        working = ddg.copy(name or f"{ddg.name}+reduced")
        self.pruned: List[Edge] = []
        if prune_redundant:
            working, self.pruned = prune_redundant_serial_arcs(working)
        self._analysis = IncrementalAnalysis(working)
        self._saturation = IncrementalSaturation(self._analysis, self.rtype)
        self._saturation.killing_set_cache = _KillingSetCache()
        # Flat pair keying: the saturation state already indexes the mirror's
        # values; an ordered pair becomes the small int `ui * n + vi`, so the
        # per-pair caches below hash machine ints instead of Value tuples on
        # the scan fast path.  Pairs outside the index (BOTTOM endpoints,
        # foreign types) fall back to the (before, after) tuple key -- the
        # two key spaces cannot collide in one dict.
        self._vindex: Dict[str, int] = self._saturation._node_index
        self._values_by_index: Tuple[Value, ...] = self._saturation._values
        self._nvals: int = len(self._values_by_index) or 1
        # pair key -> ((reader, latency), ...): the static part of the
        # Theorem-4.2 serialization.  Readers are flow consumers and the
        # latencies depend only on the operations, neither of which a serial
        # arc can change, so this survives every push/pop.
        self._proto_edges_cache: Dict[object, Tuple[Tuple[str, int], ...]] = {}
        # pair key -> last iteration's `consider` verdict.  A verdict
        # depends only on the pair's proto readers, the target's descendant
        # set / issue-time window and the readers' ASAP times; a push dirties
        # exactly {dst} ∪ desc(dst) per applied arc plus the nodes whose
        # sink distance moved (see `_invalidate_verdicts`), so verdicts
        # whose nodes avoid that region are re-used verbatim (the critical
        # path itself is re-read fresh -- see `consider`).  The cache is
        # framed copy-on-write per push so `pop` restores it exactly.
        self._pair_verdicts: Dict[object, Tuple] = {}
        # Undo frames for the verdict cache: one (dropped entries, added
        # keys) delta per push, applied in reverse by `pop` -- the cache
        # dict itself is never copied.
        self._verdict_frames: List[Tuple[Dict[object, Tuple], List[object]]] = []
        # node -> pair keys whose verdict reads that node (the pair's target
        # or one of its proto readers), registered when a verdict is first
        # stored.  Inverts the invalidation: a push walks dirty-node buckets
        # instead of filtering the whole verdict cache per push.  Entries
        # are never removed -- a stale key just no-ops the pop below.
        self._verdict_node_keys: Dict[str, set] = {}
        # Keys with no proto skeleton (BOTTOM endpoints): no nodes to index
        # them under, so they are conservatively dropped on every push.
        self._volatile_keys: set = set()
        self._cp_state_version = -1
        self._asap: Dict[str, int] = {}
        self._to_sinks: Dict[str, float] = {}
        self._cp = 0
        self.stats: Dict[str, int] = {
            "pushes": 0,
            "pops": 0,
            "implied_skipped": 0,
            "evaluated_candidates": 0,
            "pair_verdicts_reused": 0,
            "verdict_exact_regions": 0,
        }
        #: Monotonic per-stage accumulator for the candidate-pair scan; the
        #: saturation-side stages live on `IncrementalSaturation.timings`.
        self.timings: Dict[str, float] = {"pair_scan": 0.0}

    # ------------------------------------------------------------------ #
    # Graph access
    # ------------------------------------------------------------------ #
    @property
    def ddg(self) -> DDG:
        """The working graph (original + pruning + pushed serializations)."""

        return self._analysis.ddg

    @property
    def depth(self) -> int:
        """Number of push frames currently undoable."""

        return self._analysis.depth

    def critical_path(self) -> int:
        return context_for(self.ddg).critical_path_length()

    def bottom_critical_path(self) -> int:
        """Critical path of the bottom-normalised working graph."""

        return context_for(self._saturation.mirror_ddg).critical_path_length()

    def lp_row(self, src: str) -> Dict[str, float]:
        """Warm exact longest-path row from *src* in the working graph."""

        return self._analysis.lp_row(src)

    # ------------------------------------------------------------------ #
    # Candidate evaluation (no copies)
    # ------------------------------------------------------------------ #
    def _pair_key(self, before: Value, after: Value) -> object:
        """The cache key of an ordered pair: a flat int where possible.

        Pairs of indexed mirror values key as ``ui * n + vi`` -- one machine
        int instead of a tuple of frozen dataclasses, which is what the scan
        fast path hashes millions of times.  Anything outside the index
        (BOTTOM endpoints, foreign register types) keeps the tuple key; int
        and tuple keys cannot collide in one dict.
        """

        vindex = self._vindex
        ui = vindex.get(before.node)
        vi = vindex.get(after.node)
        if ui is None or vi is None:
            return (before, after)
        return ui * self._nvals + vi

    def _proto_edges(
        self, before: Value, after: Value, key: object = None
    ) -> Tuple[Tuple[str, int], ...]:
        """The static (reader, latency) skeleton of the pair's serialization."""

        if key is None:
            key = self._pair_key(before, after)
        proto = self._proto_edges_cache.get(key)
        if proto is None:
            if before.rtype != after.rtype:
                raise ReductionError(
                    "cannot serialize lifetimes of different register types"
                )
            target = after.node
            proto = tuple(
                (reader, serialization_latency(self.ddg, reader, target, self.mode))
                for reader in self.ddg.consumers(before.node, before.rtype)
                if reader != target
            )
            self._proto_edges_cache[key] = proto
        return proto

    def _kept_arcs(
        self, proto: Tuple[Tuple[str, int], ...], target: str
    ) -> Optional[List[Tuple[str, int]]]:
        """The pair's arcs after the dominated-arc filter, or None on a cycle.

        Single implementation behind :meth:`legal_serialization` and
        :meth:`consider` so the two can never drift apart: an arc dominated
        by an existing equal-or-stronger arc is dropped (the
        ``skip_existing`` rule of :func:`serialization_edges`), and because
        every arc ends at *target*, a new cycle can only be a base path from
        the target back to a reader -- a membership test on the warm
        descendant set.
        """

        g = self.ddg
        reach_target = self._analysis.descendants_excl()[target]
        kept: List[Tuple[str, int]] = []
        for reader, latency in proto:
            best = g.best_latency_between(reader, target)
            if best is not None and best >= latency:
                continue
            if reader in reach_target:
                return None
            kept.append((reader, latency))
        return kept

    def _refresh_cp_state(self) -> None:
        if self._cp_state_version != self.ddg.version:
            ctx = context_for(self.ddg)
            # Copies, not the context's cached dicts: `_patch_cp_state`
            # updates these in place after a push.
            self._asap = dict(ctx.asap_times())
            self._to_sinks = dict(ctx.longest_path_to_sinks())
            self._cp = ctx.critical_path_length()
            self._cp_state_version = self.ddg.version

    def _patch_cp_state(self, records) -> set:
        """Relax the warm ASAP/sink-distance maps over freshly added arcs.

        Adding arcs only ever lengthens longest paths, so a monotone
        worklist relaxation from the arc endpoints reproduces the full
        recompute exactly (same integer arithmetic) while touching only the
        affected region.  Returns the set of nodes whose sink distance
        changed -- precisely the upstream dirty region the verdict
        invalidation needs.
        """

        g = self.ddg
        asap = self._asap
        sinks = self._to_sinks
        queue: List[str] = []
        for record in records:
            edge = record.edge
            cand = asap[edge.src] + edge.latency
            if cand > asap[edge.dst]:
                asap[edge.dst] = cand
                queue.append(edge.dst)
        while queue:
            v = queue.pop()
            base = asap[v]
            for edge in g.out_edges(v):
                cand = base + edge.latency
                if cand > asap[edge.dst]:
                    asap[edge.dst] = cand
                    queue.append(edge.dst)
        changed: set = set()
        for record in records:
            edge = record.edge
            cand = edge.latency + sinks[edge.dst]
            if cand > sinks[edge.src]:
                sinks[edge.src] = cand
                changed.add(edge.src)
                queue.append(edge.src)
        while queue:
            v = queue.pop()
            base = sinks[v]
            for edge in g.in_edges(v):
                cand = edge.latency + base
                if cand > sinks[edge.src]:
                    sinks[edge.src] = cand
                    changed.add(edge.src)
                    queue.append(edge.src)
        if changed:
            cp = self._cp
            for v in changed:
                d = sinks[v]
                if d > cp:
                    cp = d
            self._cp = int(cp)
        self._cp_state_version = g.version
        return changed

    def legal_serialization(self, before: Value, after: Value) -> Optional[List[Edge]]:
        """Same contract as :func:`repro.reduction.serialization.legal_serialization`,
        answered from the warm reachability state (no graph walk per pair).

        Every serialization arc for a pair ends at ``after``'s operation, so
        a new cycle can only be a base path from the target back to one of
        the readers -- a handful of set-membership tests on the warm
        descendant map instead of a mini-graph search.
        """

        if after.node == BOTTOM or before.node == BOTTOM:
            return None
        proto = self._proto_edges(before, after)
        if not proto:
            return []
        kept = self._kept_arcs(proto, after.node)
        if kept is None:
            return None
        return [
            Edge(reader, after.node, latency, DependenceKind.SERIAL, None)
            for reader, latency in kept
        ]

    #: `consider` outcome: the pair's ordering is already forced.
    IMPLIED = object()

    #: Cached-verdict tags (see `_pair_verdicts`).
    _V_IMPLIED = ("implied",)
    _V_NONE = ("none",)

    def consider(
        self, before: Value, after: Value, base_cp: int
    ) -> object:
        """Evaluate one ordered pair in a single pass.

        Returns :data:`IMPLIED` (pair already ordered by the closure), None
        (illegal or nothing to add), or ``(cp_increase, arc_count, payload)``
        where *payload* materialises into the arcs via :meth:`apply_payload`.
        Arcs are not constructed during the scan -- with O(|antichain|^2)
        pairs per iteration and one winner, the allocation churn dominated
        the loop.

        The scan runs off a dirty-pair worklist: verdicts from the previous
        iteration whose endpoints were untouched by the applied
        serialization are returned verbatim (counted in
        ``pair_verdicts_reused``).  A cached candidate verdict stores the
        pair-local quantity ``X = max(asap[target], asap[reader]+latency)
        + to_sinks[target]`` rather than the cp increase, so the global
        critical path -- which any push may move -- is re-read fresh on
        every reuse; the arithmetic is bit-for-bit the fresh path's.

        The ``pair_scan`` stage timer is fed per *iteration* by the loop
        driver (:meth:`record_scan_time`), not here: with O(|antichain|^2)
        calls per iteration a per-call timer would tax the reuse fast path
        with more clock reads than remaining work.
        """

        key = self._pair_key(before, after)
        verdict = self._pair_verdicts.get(key)
        if verdict is not None:
            self.stats["pair_verdicts_reused"] += 1
        else:
            verdict = self._consider_fresh(before, after, key)
            self._store_verdict(key, verdict, after)
        if verdict is self._V_IMPLIED:
            self.stats["implied_skipped"] += 1
            return self.IMPLIED
        if verdict is self._V_NONE:
            return None
        _, x, arc_count, payload = verdict
        self._refresh_cp_state()
        return int(max(self._cp, x)) - base_cp, arc_count, payload

    def scan(self, saturating, base_cp: int) -> Tuple[Optional[Tuple], int]:
        """One full candidate-pair scan, inlined (the driver fast path).

        Evaluates every ordered pair of *saturating* values through the
        verdict cache exactly as per-pair :meth:`consider` calls would, but
        with the pair keys, the critical-path refresh, and the stats
        bookkeeping hoisted out of the quadratic loop.  Returns
        ``(best, implied_count)`` where *best* is
        ``((cp_increase, arc_count), payload)`` for the winning pair under
        the same strict lexicographic order the generic driver loop used, or
        None when no pair is applicable.
        """

        verdicts = self._pair_verdicts
        vindex = self._vindex
        n = self._nvals
        implied = self._V_IMPLIED
        none = self._V_NONE
        fresh = self._consider_fresh
        store = self._store_verdict
        reused = 0
        implied_count = 0
        best_key: Optional[Tuple[int, int]] = None
        best: Optional[Tuple] = None
        self._refresh_cp_state()
        cp = self._cp
        indexed = [(v, vindex.get(v.node)) for v in saturating]
        for u, ui in indexed:
            base = ui * n if ui is not None else None
            for v, vi in indexed:
                if u == v:
                    continue
                if base is not None and vi is not None:
                    key: object = base + vi
                else:
                    key = (u, v)
                verdict = verdicts.get(key)
                if verdict is None:
                    verdict = fresh(u, v, key)
                    store(key, verdict, v)
                else:
                    reused += 1
                if verdict is implied:
                    implied_count += 1
                    continue
                if verdict is none:
                    continue
                _, x, arc_count, payload = verdict
                inc = int(x if x > cp else cp) - base_cp
                if best_key is None or (inc, arc_count) < best_key:
                    best_key = (inc, arc_count)
                    best = (best_key, payload)
        self.stats["pair_verdicts_reused"] += reused
        self.stats["implied_skipped"] += implied_count
        return best, implied_count

    def _register_verdict_key(self, key: object, target_node: str) -> None:
        """Index a freshly stored verdict under the nodes it reads."""

        proto = self._proto_edges_cache.get(key)
        if proto is None:
            self._volatile_keys.add(key)
            return
        index = self._verdict_node_keys
        bucket = index.get(target_node)
        if bucket is None:
            bucket = index[target_node] = set()
        bucket.add(key)
        for reader, _latency in proto:
            bucket = index.get(reader)
            if bucket is None:
                bucket = index[reader] = set()
            bucket.add(key)

    def _store_verdict(self, key: object, verdict: Tuple, after: Value) -> None:
        """Store a fresh verdict in the dict and the node index."""

        self._pair_verdicts[key] = verdict
        frames = self._verdict_frames
        if frames:
            frames[-1][1].append(key)
        self._register_verdict_key(key, after.node)

    def record_scan_time(self, seconds: float) -> None:
        """Accumulate one iteration's candidate-scan wall clock (stage timer)."""

        self.timings["pair_scan"] += seconds

    def _consider_fresh(self, before: Value, after: Value, key: object = None) -> Tuple:
        """Evaluate one pair cold; returns the cacheable verdict tuple.

        Because all of the pair's arcs end at the same target, the extended
        critical path closed-forms to
        ``max(cp, max(asap[target], asap[reader] + latency) + to_sinks[target])``
        -- no longest-path matrix, no graph copy.
        """

        if after.node == BOTTOM or before.node == BOTTOM:
            return self._V_NONE
        proto = self._proto_edges(before, after, key)
        if not proto:
            return self._V_NONE
        target = after.node
        desc = self._analysis.descendants_excl()
        # The reachability screen + exact longest-path confirmation of the
        # `implied` pre-filter, inlined.
        for reader, _latency in proto:
            if target not in desc[reader]:
                break
        else:
            analysis = self._analysis
            tid = analysis.op_id(target)
            for reader, latency in proto:
                if analysis.row_by_name(reader)[tid] < latency:
                    break
            else:
                return self._V_IMPLIED

        kept = self._kept_arcs(proto, target)
        if not kept:
            # A cycle, or everything dominated by existing arcs.
            return self._V_NONE
        self.stats["evaluated_candidates"] += 1
        self._refresh_cp_state()
        asap = self._asap
        best_target = asap[target]
        for reader, latency in kept:
            cand = asap[reader] + latency
            if cand > best_target:
                best_target = cand
        x = best_target + self._to_sinks[target]
        return ("cand", x, len(kept), (target, kept))

    def apply_payload(self, payload) -> List[Edge]:
        """Materialise and push the arcs of a winning :meth:`consider` payload."""

        target, kept = payload
        edges = [
            Edge(reader, target, latency, DependenceKind.SERIAL, None)
            for reader, latency in kept
        ]
        self.push(edges)
        return edges

    # ------------------------------------------------------------------ #
    # Mutation with undo
    # ------------------------------------------------------------------ #
    def push(self, edges) -> None:
        """Apply serialization arcs in place (undoable via :meth:`pop`).

        The caller is expected to pass arcs vetted by
        :meth:`legal_serialization`; acyclicity is asserted exactly like the
        from-scratch driver asserts it after every ``apply_serialization``.
        """

        edges = list(edges)
        assert self._analysis.remains_acyclic_with_edges(edges), (
            f"serializing {self.ddg.name!r} must keep the DDG acyclic"
        )
        cp_fresh = self._cp_state_version == self.ddg.version
        self._saturation.push(edges)
        self.stats["pushes"] += 1
        changed_sinks = (
            self._patch_cp_state(self._analysis._frames[-1].records)
            if cp_fresh
            else None
        )
        self._invalidate_verdicts(changed_sinks)

    def _invalidate_verdicts(self, changed_sinks: Optional[set]) -> None:
        """Frame the pair-verdict cache and drop the dirty region.

        Applied arcs (read off the working analysis' undo frame; no-op
        pushes dirty nothing) can move a pair's verdict only through nodes
        in ``{dst} ∪ desc(dst)`` per arc plus the nodes whose longest path
        to the sinks changed: the target's ASAP window, its descendant set,
        and every longest path *into* it change only at-or-below the arc,
        while the only upstream input a verdict reads is
        ``to_sinks[target]``.  When the warm cp state was patched through
        the push, *changed_sinks* is that exact affected set; a cold state
        falls back to the conservative ``anc(src)`` superset.  Pairs whose
        target and proto readers all avoid the region provably keep last
        iteration's verdict.
        """

        verdicts = self._pair_verdicts
        dropped: Dict[object, Tuple] = {}
        added: List[object] = []
        self._verdict_frames.append((dropped, added))
        frame = self._analysis._frames[-1]
        if not frame.records or not verdicts:
            return
        dirty: set = set()
        desc = self._analysis.descendants_incl()
        for record in frame.records:
            dirty.add(record.edge.dst)
            dirty |= desc[record.edge.dst]
        if changed_sinks is None:
            for record in frame.records:
                dirty |= self._analysis.ancestors_incl(record.edge.src)
        else:
            dirty |= changed_sinks
            self.stats["verdict_exact_regions"] += 1
        # Inverted filter: walk the dirty nodes' key buckets instead of
        # testing every cached verdict -- same retention (a key is indexed
        # under exactly its target and proto readers; proto-less keys are
        # volatile), O(|dirty| + dropped) instead of O(|cache|).  Dropped
        # entries land in the undo frame so `pop` can restore them without
        # the dict ever being copied.
        missing = _MISS
        for key in self._volatile_keys:
            v = verdicts.pop(key, missing)
            if v is not missing:
                dropped[key] = v
        index = self._verdict_node_keys
        for node in dirty:
            keys = index.pop(node, None)
            if keys:
                # The bucket is consumed: every key in it is either dropped
                # now or already gone from the dict (dropped through another
                # bucket earlier).  A restore (`pop`) re-registers what it
                # puts back, so nothing is walked twice across pushes.
                for key in keys:
                    v = verdicts.pop(key, missing)
                    if v is not missing:
                        dropped[key] = v

    def pop(self) -> None:
        """Undo the most recent push, restoring the exact prior state."""

        self._saturation.pop()
        self.stats["pops"] += 1
        dropped, added = self._verdict_frames.pop()
        verdicts = self._pair_verdicts
        for key in added:
            verdicts.pop(key, None)
        if dropped:
            verdicts.update(dropped)
            # Restored keys must be findable by future invalidations: the
            # push that dropped them consumed their dirty-node buckets.
            register = self._register_verdict_key
            values = self._values_by_index
            nvals = self._nvals
            for key in dropped:
                if type(key) is int:
                    register(key, values[key % nvals].node)
                else:
                    register(key, key[1].node)

    def reset_to_depth(self, depth: int) -> None:
        """Pop frames until exactly *depth* pushes remain applied.

        The session for one register budget is a prefix of the session for
        any smaller budget, so a multi-budget driver can rewind to a shared
        prefix (or all the way to the pristine working graph with
        ``reset_to_depth(0)``) instead of rebuilding the session; the
        warm analyses and the candidate DV states are restored exactly,
        frame by frame.
        """

        if depth < 0 or depth > self.depth:
            raise IndexError(
                f"cannot reset to depth {depth}: {self.depth} frames are applied"
            )
        while self.depth > depth:
            self.pop()

    def saturation(self) -> SaturationResult:
        """Greedy-k of the working graph, warm-started from the last iteration."""

        return self._saturation.saturation()

    # ------------------------------------------------------------------ #
    # Introspection (used by the undo-safety tests and the benchmarks)
    # ------------------------------------------------------------------ #
    @property
    def killing_set_cache(self) -> _KillingSetCache:
        return self._saturation.killing_set_cache  # type: ignore[return-value]

    @property
    def saturation_stats(self) -> Dict[str, int]:
        """DV-DAG reuse counters of the warm saturation state."""

        return self._saturation.stats

    @property
    def stage_timings(self) -> Dict[str, float]:
        """Monotonic per-stage wall-clock totals, keyed by engine stage.

        The union of the session's scan timer and the saturation engine's
        stage timers; the benchmark's bottleneck profile reports these so
        time is attributed to the stage that spent it.
        """

        return {**self.timings, **self._saturation.timings}

    def analysis_fingerprint(self) -> Dict[str, object]:
        """A value-level snapshot of the observable analysis state.

        Used to assert that ``push`` followed by ``pop`` restores *exactly*
        the prior state: graph arcs, reachability, longest paths, potential
        killers, and the saturation outcome.
        """

        g = self.ddg
        desc = self._analysis.descendants_incl()
        sat = self.saturation()
        return {
            "edges": sorted(
                (e.src, e.dst, e.latency, e.kind.value, None if e.rtype is None else e.rtype.name)
                for e in g.edges()
            ),
            "descendants": {node: frozenset(desc[node]) for node in g.nodes()},
            "critical_path": self.critical_path(),
            "bottom_critical_path": self.bottom_critical_path(),
            "rs": sat.rs,
            "saturating_values": tuple(sat.saturating_values),
            "killing_function": None
            if sat.killing_function is None
            else tuple(sorted((str(v), k) for v, k in sat.killing_function.items())),
        }
