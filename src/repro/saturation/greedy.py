"""The Greedy-k heuristic for register-saturation computation.

Computing the register saturation exactly is NP-complete (proved in the
paper's reference [14]); the heuristic evaluated by the paper's Section 5 --
and shown there to be "nearly optimal", with a maximal empirical error of
one register -- works on killing functions:

1. compute the potential killers ``pkill(u^t)`` of every value;
2. decompose the bipartite *potential-killing graph* (values on one side,
   their potential killers on the other) into connected components;
3. inside each component choose a **killing set**: a subset of the killer
   side that covers every value of the component while dragging as few
   other values as possible below it (minimising the union of the killers'
   descendant values) -- those descendants are exactly the values that the
   killing choice orders *after* the component's values and that therefore
   cannot enlarge an antichain containing them;
4. assign each value a killer from the chosen set, yielding a killing
   function ``k``; build ``DV_k`` and return the size of its maximum
   antichain.

Small components are solved exactly (exhaustive subset search); large ones
greedily with a cover-ratio rule.  The implementation additionally evaluates
a few schedule-induced killing functions (always valid) and keeps the best
antichain, which can only tighten the approximation: every candidate is a
valid killing function, so every reported value is a true lower bound of the
register saturation -- the paper's case ``RS < RS*`` is impossible.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, FrozenSet, List, Mapping, MutableMapping, Optional, Sequence, Set, Tuple

from ..analysis.context import AnalysisContext, context_for
from ..core.graph import DDG
from ..core.lifetime import register_need
from ..core.schedule import Schedule, asap_schedule, list_schedule_priority
from ..core.types import BOTTOM, RegisterType, Value, canonical_type
from .dvk import saturating_antichain
from .pkill import (
    KillingFunction,
    canonical_killing_function,
    killed_graph,
    killing_function_from_schedule,
    potential_killers_map,
)
from .result import SaturationResult

__all__ = ["greedy_saturation", "greedy_killing_function"]

#: Components whose killer side is at most this large are solved exhaustively.
_EXHAUSTIVE_COMPONENT_LIMIT = 10


# --------------------------------------------------------------------------- #
# Killing-set selection
# --------------------------------------------------------------------------- #
def _bipartite_components(
    pk: Mapping[Value, List[str]]
) -> List[Tuple[List[Value], List[str]]]:
    """Connected components of the value/potential-killer bipartite graph."""

    value_nodes = [v for v in pk if pk[v]]
    killer_of: Dict[str, Set[Value]] = {}
    for value, killers in pk.items():
        for killer in killers:
            killer_of.setdefault(killer, set()).add(value)

    seen_values: Set[Value] = set()
    components: List[Tuple[List[Value], List[str]]] = []
    for start in value_nodes:
        if start in seen_values:
            continue
        comp_values: Set[Value] = set()
        comp_killers: Set[str] = set()
        stack: List[object] = [start]
        while stack:
            item = stack.pop()
            if isinstance(item, Value):
                if item in comp_values:
                    continue
                comp_values.add(item)
                for killer in pk[item]:
                    if killer not in comp_killers:
                        stack.append(killer)
            else:
                killer = str(item)
                if killer in comp_killers:
                    continue
                comp_killers.add(killer)
                for value in killer_of.get(killer, ()):
                    if value not in comp_values:
                        stack.append(value)
        seen_values |= comp_values
        components.append((sorted(comp_values), sorted(comp_killers)))
    return components


def _descendant_values(
    desc: Mapping[str, Set[str]], killer: str, value_nodes: Set[str]
) -> FrozenSet[str]:
    """Values (by producing node) reachable from *killer*, i.e. ordered after it."""

    return frozenset(desc[killer] & value_nodes)


def _cover_cost(
    killers: Sequence[str],
    desc_values: Mapping[str, FrozenSet[str]],
) -> int:
    union: Set[str] = set()
    for killer in killers:
        union |= desc_values[killer]
    return len(union)


def _choose_killing_set(
    comp_values: Sequence[Value],
    comp_killers: Sequence[str],
    pk: Mapping[Value, List[str]],
    desc_values: Mapping[str, FrozenSet[str]],
) -> List[str]:
    """Choose killers covering every value of the component with minimal drag.

    Exhaustive when the killer side is small, greedy (max newly covered
    values per newly dragged descendant) otherwise.
    """

    needed = list(comp_values)
    if len(comp_killers) <= _EXHAUSTIVE_COMPONENT_LIMIT:
        best: Optional[List[str]] = None
        best_cost = None
        for size in range(1, len(comp_killers) + 1):
            for subset in itertools.combinations(comp_killers, size):
                chosen = set(subset)
                if all(any(k in chosen for k in pk[v]) for v in needed):
                    cost = (_cover_cost(subset, desc_values), size)
                    if best_cost is None or cost < best_cost:
                        best_cost = cost
                        best = list(subset)
        assert best is not None  # every value has at least one potential killer
        return best

    uncovered = set(needed)
    chosen: List[str] = []
    dragged: Set[str] = set()
    while uncovered:
        def score(killer: str) -> Tuple[float, str]:
            newly_covered = sum(1 for v in uncovered if killer in pk[v])
            if newly_covered == 0:
                return (float("inf"), killer)
            newly_dragged = len(desc_values[killer] - dragged)
            return (newly_dragged / newly_covered, killer)

        best_killer = min(comp_killers, key=score)
        chosen.append(best_killer)
        dragged |= desc_values[best_killer]
        uncovered = {v for v in uncovered if best_killer not in pk[v]}
    return chosen


def _component_signature(
    comp_values: Sequence[Value],
    comp_killers: Sequence[str],
    pk: Mapping[Value, List[str]],
    desc_values: Mapping[str, FrozenSet[str]],
) -> Tuple:
    """A hashable fingerprint of everything `_choose_killing_set` reads.

    Two components with equal signatures provably receive the same killing
    set (the choice is a pure function of these inputs), which is what lets
    the reduction session reuse choices across iterations: serial arcs only
    perturb components near their endpoints, so most signatures repeat.
    """

    return (
        tuple(comp_values),
        tuple(comp_killers),
        tuple(tuple(pk[v]) for v in comp_values),
        tuple(desc_values[k] for k in comp_killers),
    )


def _signature_entry_matches(
    entry: Tuple,
    comp_values: Sequence[Value],
    comp_killers: Sequence[str],
    pk: Mapping[Value, List[str]],
    desc_values: Mapping[str, FrozenSet[str]],
) -> bool:
    """Identity-validated equality of a component against a cached entry.

    The incremental engine maintains ``pk`` and the killer-descendant sets
    copy-on-write: an untouched component keeps the *same* row/set objects
    across iterations (and gets the old objects back on pop), so object
    identity of those inputs -- plus list equality of the component's
    values, which CPython resolves by pointer comparison for the shared
    ``Value`` objects -- proves the full signature would be equal without
    rebuilding and hashing it.  Only components in the push's dirty region
    fail here and pay the `_component_signature` hash.  An identity miss on
    equal content is merely a slow path, never an error.
    """

    cached_values, cached_pk, cached_desc, _ = entry
    if cached_values != comp_values:
        return False
    for v, row in zip(comp_values, cached_pk):
        if pk[v] is not row:
            return False
    # comp_killers equality is implied by the cache key (the killer tuple).
    for k, d in zip(comp_killers, cached_desc):
        if desc_values[k] is not d:
            return False
    return True


def greedy_killing_function(
    ddg: DDG,
    rtype: RegisterType | str,
    ctx: Optional[AnalysisContext] = None,
    killing_set_cache: Optional[MutableMapping] = None,
    signature_cache: Optional[MutableMapping] = None,
) -> KillingFunction:
    """The killing function selected by the Greedy-k heuristic (before fallback).

    *killing_set_cache* is an optional mapping from component signatures to
    chosen killing sets; it never changes the result (the choice is a pure
    function of the signature) but lets the incremental reduction engine
    skip the exhaustive subset search for components untouched by the last
    serialization.  *signature_cache* is an optional identity-validated
    front cache over it (see :func:`_signature_entry_matches`) that also
    skips building and hashing the signature tuples for clean components --
    hashing work then scales with the push's dirty region instead of with
    the component count.

    The bipartite components are memoized on *ctx* under
    ``("bipartite_components", rtype)``, the hook through which the
    incremental engine supplies its stage-timed decomposition.
    """

    rtype = canonical_type(rtype)
    ctx = ctx if ctx is not None else context_for(ddg)
    pk = potential_killers_map(ddg, rtype, ctx)
    desc = ctx.descendants_map(include_self=False)
    value_nodes = {v.node for v in pk}

    def compute_desc_values() -> Dict[str, FrozenSet[str]]:
        return {
            killer: _descendant_values(desc, killer, value_nodes)
            for killers in pk.values()
            for killer in killers
        }

    # Memoized on the context so the incremental engine can inject the
    # dirty-region-patched sets instead of rebuilding every frozenset.
    desc_values = ctx.memo(("killer_desc_values", rtype), compute_desc_values)

    components = ctx.memo(
        ("bipartite_components", rtype), lambda: _bipartite_components(pk)
    )
    mapping: Dict[Value, str] = {}
    for comp_values, comp_killers in components:
        killing_set = None
        ckey: Optional[Tuple[str, ...]] = None
        if signature_cache is not None:
            ckey = tuple(comp_killers)
            entry = signature_cache.get(ckey)
            if entry is not None and _signature_entry_matches(
                entry, comp_values, comp_killers, pk, desc_values
            ):
                killing_set = entry[3]
        if killing_set is None:
            if killing_set_cache is not None:
                signature = _component_signature(
                    comp_values, comp_killers, pk, desc_values
                )
                killing_set = killing_set_cache.get(signature)
                if killing_set is None:
                    killing_set = _choose_killing_set(
                        comp_values, comp_killers, pk, desc_values
                    )
                    killing_set_cache[signature] = killing_set
            else:
                killing_set = _choose_killing_set(
                    comp_values, comp_killers, pk, desc_values
                )
            if signature_cache is not None:
                signature_cache[ckey] = (
                    comp_values,
                    [pk[v] for v in comp_values],
                    [desc_values[k] for k in comp_killers],
                    killing_set,
                )
        killing_set_set = set(killing_set)
        for value in comp_values:
            candidates = [k for k in pk[value] if k in killing_set_set]
            # Among the chosen killers able to kill this value, prefer the one
            # dragging the fewest descendants (ties broken by name).
            mapping[value] = min(candidates, key=lambda k: (len(desc_values[k]), k))
    return KillingFunction(rtype, mapping)


# --------------------------------------------------------------------------- #
# Candidate killing functions and the public entry point
# --------------------------------------------------------------------------- #
def _keep_alive_schedule(
    ddg: DDG, rtype: RegisterType, ctx: Optional[AnalysisContext] = None
) -> Schedule:
    """A schedule biased towards keeping many values of *rtype* alive.

    Producers of values are issued as early as possible (high priority) and
    their consumers as late as possible (low priority), which tends to
    stretch lifetimes and exhibit large register needs -- a cheap witness
    generator for the heuristic.

    The result is memoized on the graph's context under
    ``("keep_alive_schedule", rtype)``, which is the hook the incremental
    reduction engine uses to inject its repaired warm schedule (see
    :class:`~repro.scheduling.list_scheduler.IncrementalListSchedule`)
    instead of paying this from-scratch list scheduling every iteration.
    """

    ctx = ctx if ctx is not None else context_for(ddg)
    return ctx.memo(
        ("keep_alive_schedule", rtype),
        lambda: _keep_alive_schedule_uncached(ddg, rtype, ctx),
    )


def _keep_alive_schedule_uncached(
    ddg: DDG, rtype: RegisterType, ctx: AnalysisContext
) -> Schedule:
    """The from-scratch keep-alive list scheduling (the reference path)."""

    asap = ctx.asap_times()
    horizon = ctx.critical_path_length() + 1

    def priority(node: str) -> float:
        op = ddg.operation(node)
        producing = 1.0 if op.defines(rtype) else 0.0
        consuming = 1.0 if any(
            e.is_flow and e.rtype == rtype for e in ddg.in_edges(node)
        ) else 0.0
        return producing * horizon - consuming * horizon - asap[node]

    return list_schedule_priority(ddg, priority)


def greedy_saturation(
    ddg: DDG,
    rtype: RegisterType | str,
    extra_candidates: bool = True,
    ctx: Optional[AnalysisContext] = None,
    killing_set_cache: Optional[MutableMapping] = None,
    candidate_evaluator=None,
    signature_cache: Optional[MutableMapping] = None,
) -> SaturationResult:
    """Approximate the register saturation ``RS_t(G)`` with the Greedy-k heuristic.

    Parameters
    ----------
    ddg:
        The data dependence graph.  It is normalised with the bottom node
        internally so exit values get a killer.
    rtype:
        Register type to analyse.
    extra_candidates:
        Also evaluate schedule-induced killing functions (ASAP and a
        keep-alive biased schedule) and keep the best antichain.  This is a
        cheap polish that never invalidates the lower-bound property.
    ctx:
        Optional shared :class:`~repro.analysis.context.AnalysisContext` of
        *ddg*.  The final result is memoized on it, so the pipeline stages
        and the reduction pass asking for the same saturation pay for one
        computation.
    killing_set_cache:
        Optional cross-iteration cache of killing-set choices keyed by
        bipartite-component signature (see
        :class:`~repro.saturation.incremental.IncrementalSaturation`).  It
        only affects speed, never the result.
    candidate_evaluator:
        Optional ``(label, killing_function) -> antichain | None`` hook that
        replaces the killed-graph construction + DV-DAG + antichain per
        candidate; ``None`` means the killing function is invalid (cyclic
        killed graph).  The incremental reduction engine supplies its warm
        per-candidate DV states here; the hook must return exactly what the
        built-in path would.
    signature_cache:
        Optional identity-validated front cache over *killing_set_cache*
        (see :func:`greedy_killing_function`); speed only, never the result.

    Returns
    -------
    SaturationResult
        ``rs`` is the heuristic value RS*; ``saturating_values`` the
        corresponding antichain; ``killing_function`` the winning killing
        function.  ``optimal`` is always False here even when the value
        happens to be exact.
    """

    rtype = canonical_type(rtype)
    ctx = ctx if ctx is not None else context_for(ddg)
    return ctx.memo(
        ("greedy_saturation", rtype, extra_candidates),
        lambda: _greedy_saturation_uncached(
            ddg,
            rtype,
            extra_candidates,
            ctx,
            killing_set_cache,
            candidate_evaluator,
            signature_cache,
        ),
        # Cross-run tier (inert unless a result store is active): the result
        # is a deterministic function of graph content + these parameters --
        # the caches/evaluator hooks only affect speed, never the result.
        persist=(
            "saturation.greedy",
            {"rtype": rtype.name, "extra_candidates": extra_candidates},
        ),
    )


def _greedy_saturation_uncached(
    ddg: DDG,
    rtype: RegisterType,
    extra_candidates: bool,
    ctx: AnalysisContext,
    killing_set_cache: Optional[MutableMapping] = None,
    candidate_evaluator=None,
    signature_cache: Optional[MutableMapping] = None,
) -> SaturationResult:
    start = time.perf_counter()
    bottom_ctx = ctx.bottom()
    g = bottom_ctx.ddg
    values = g.values(rtype)
    if not values:
        return SaturationResult(rtype, 0, method="greedy-k", wall_time=time.perf_counter() - start)

    candidates: List[Tuple[str, KillingFunction]] = []
    greedy_kf = greedy_killing_function(
        g,
        rtype,
        ctx=bottom_ctx,
        killing_set_cache=killing_set_cache,
        signature_cache=signature_cache,
    )
    candidates.append(("greedy-k", greedy_kf))
    if extra_candidates:
        candidates.append(
            ("canonical", canonical_killing_function(g, rtype))
        )
        candidates.append(
            ("asap-induced", killing_function_from_schedule(g, asap_schedule(g), rtype))
        )
        candidates.append(
            (
                "keep-alive-induced",
                killing_function_from_schedule(
                    g, _keep_alive_schedule(g, rtype, ctx=bottom_ctx), rtype
                ),
            )
        )

    best_rs = -1
    best_antichain: List[Value] = []
    best_kf: Optional[KillingFunction] = None
    best_label = "greedy-k"
    fallback_used = False
    pk_map = potential_killers_map(g, rtype, bottom_ctx)
    for label, kf in candidates:
        antichain: Optional[List[Value]]
        if candidate_evaluator is not None:
            antichain = candidate_evaluator(label, kf)
        else:
            killed = killed_graph(g, kf, pk=pk_map)
            # Through the killed graph's context the acyclicity check shares
            # its topological sort with the disjoint-value DAG construction.
            if not context_for(killed).is_acyclic():
                antichain = None
            else:
                antichain, _ = saturating_antichain(g, kf, killed)
        if antichain is None:
            fallback_used = True
            continue
        if len(antichain) > best_rs:
            best_rs = len(antichain)
            best_antichain = antichain
            best_kf = kf
            best_label = label

    if best_kf is None:
        # Should not happen (schedule-induced functions are always valid) but
        # stay safe: fall back to the register need of the ASAP schedule.
        schedule = asap_schedule(g)
        rn = register_need(g, schedule, rtype)
        return SaturationResult(
            rtype,
            rn,
            method="greedy-k/fallback-asap",
            witness_schedule=schedule,
            wall_time=time.perf_counter() - start,
            details={"fallback": "no valid killing function"},
        )

    return SaturationResult(
        rtype=rtype,
        rs=best_rs,
        saturating_values=tuple(sorted(best_antichain)),
        method="greedy-k",
        killing_function=dict(best_kf.items()),
        optimal=False,
        wall_time=time.perf_counter() - start,
        details={
            "winning_candidate": best_label,
            "candidates_evaluated": len(candidates),
            "invalid_candidates_skipped": fallback_used,
            "num_values": len(values),
        },
    )
