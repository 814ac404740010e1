"""Output oracle: checks a workload's outputs after timing has stopped.

The checks never go through the code path they judge.  Register saturation
is recomputed by killing-function enumeration (the brute-force
characterisation, on a fresh copy of the graph so no cached analysis of the
run is reused), acyclicity and arc preservation are checked here from the
raw edge lists, and Greedy-k is recomputed from scratch where a workload
reports it.

Two kinds of finding are kept apart:

* a *failure* is an instance that raised, hit a solver limit, or whose
  ``success`` claim is refuted (true RS above the budget).  The heuristic
  estimates RS with Greedy-k, a lower bound, so such claims are a known
  limitation of the method; they count in ``failed``.
* a *violation* is an output that is wrong whatever the method: a cyclic or
  arc-dropping extended graph, an exact RS that disagrees with enumeration,
  Greedy-k above the exact value, a reported number that a re-derivation
  does not reproduce.  Any violation makes the run's ``correct`` false.

Run ``python3 perfbench/oracle.py`` (from the repository root) for the
planted-case self-test alone.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import List, Optional

#: Valid killing functions enumerated before a graph counts as too large to
#: check; such instances are reported as unchecked, never as passed.
KILLING_LIMIT = 20000
#: Graphs above this many operations are not enumerated at all: one killing
#: function costs a disjoint-value DAG antichain, too slow at superblock size.
ENUM_MAX_NODES = 48


@dataclass
class Verdict:
    attempted: int = 0
    checked: int = 0
    unchecked: int = 0
    #: Success claims that enumeration refuted (also listed in failures).
    refuted: int = 0
    failures: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "checked_by_enumeration": self.checked,
            "too_large_to_enumerate": self.unchecked,
            "refuted_success_claims": self.refuted,
            "violations": len(self.violations),
            "failures": self.failures,
            "violation_details": self.violations,
        }


def is_acyclic(ddg) -> bool:
    """Kahn's algorithm over the raw edge list."""

    indegree = {name: 0 for name in ddg.nodes()}
    succ = collections.defaultdict(list)
    for e in ddg.edges():
        indegree[e.dst] += 1
        succ[e.src].append(e.dst)
    ready = [n for n, d in indegree.items() if d == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for nxt in succ[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return seen == len(indegree)


def _arc_key(e):
    return (e.src, e.dst, e.latency, e.kind.value, None if e.rtype is None else e.rtype.name)


def _longest_path(ddg, src: str, dst: str) -> Optional[int]:
    """Largest latency sum over the paths src -> dst of an acyclic graph."""

    succ = collections.defaultdict(list)
    for e in ddg.edges():
        succ[e.src].append(e)
    best = {src: 0}
    order, seen, stack = [], {src}, [(src, iter(succ[src]))]
    while stack:  # reverse post-order of the part reachable from src
        node, edges = stack[-1]
        for e in edges:
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append((e.dst, iter(succ[e.dst])))
                break
        else:
            stack.pop()
            order.append(node)
    for node in reversed(order):
        for e in succ[node]:
            cand = best[node] + e.latency
            if cand > best.get(e.dst, cand - 1):
                best[e.dst] = cand
    return best.get(dst)


def keeps_arcs(original, extended) -> bool:
    """Every original arc is in *extended*, except serial arcs the extended
    graph still implies (a path at least as long: the same constraint)."""

    have = collections.Counter(_arc_key(e) for e in extended.edges())
    for e in original.edges():
        key = _arc_key(e)
        if have[key] > 0:
            have[key] -= 1
            continue
        if not e.is_serial:
            return False
        implied = _longest_path(extended, e.src, e.dst)
        if implied is None or implied < e.latency:
            return False
    return True


def enumerated_rs(ddg, rtype) -> Optional[int]:
    """RS by killing enumeration on a fresh copy, or None when too large."""

    from repro.saturation import saturation_by_killing_enumeration

    if ddg.n > ENUM_MAX_NODES:
        return None
    result = saturation_by_killing_enumeration(ddg.copy(), rtype, limit=KILLING_LIMIT)
    return result.rs if result.optimal else None


def check_success_claim(verdict: Verdict, label: str, ddg, rtype, budget: int) -> None:
    """A reported success must mean the true RS of *ddg* is within *budget*."""

    rs = enumerated_rs(ddg, rtype)
    if rs is None:
        verdict.unchecked += 1
        return
    verdict.checked += 1
    if rs > budget:
        verdict.refuted += 1
        verdict.failures.append(f"{label}: success claimed but RS={rs} > budget {budget}")


def check_reduction(verdict: Verdict, label: str, original, result, budget: int) -> bool:
    """Structural checks of one reduction, plus its success claim.

    Returns False when the extended graph is unusable (a violation).
    """

    extended = result.extended_ddg
    if not is_acyclic(extended):
        verdict.violations.append(f"{label}: extended DDG is cyclic")
        return False
    if not keeps_arcs(original, extended):
        verdict.violations.append(f"{label}: extended DDG drops an original arc")
        return False
    if result.success:
        check_success_claim(verdict, label, extended, result.rtype, budget)
    return True


def self_test() -> List[str]:
    """The oracle must refute a planted bad claim and pass a correct one.

    ``layered_random_ddg(nodes=8, seed=1)`` at int budget 3: the heuristic
    claims success at Greedy-k 3, killing enumeration gives RS 4.  At budget
    4 the claim is true.  Returns the list of problems (empty when sound).
    """

    from repro.codes.generator import layered_random_ddg
    from repro.reduction import reduce_saturation_heuristic

    ddg = layered_random_ddg(nodes=8, seed=1)
    problems = []
    for budget, expect_failed in ((3, 1), (4, 0)):
        verdict = Verdict(attempted=1)
        result = reduce_saturation_heuristic(ddg, "int", budget)
        check_reduction(verdict, f"planted/int/{budget}", ddg, result, budget)
        if verdict.failed != expect_failed or verdict.violations:
            problems.append(
                f"budget {budget}: expected {expect_failed} failure(s), got "
                f"{verdict.failures + verdict.violations}"
            )
    return problems


if __name__ == "__main__":
    import os
    import sys

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    found = self_test()
    print("oracle self-test:", "ok" if not found else found)
    sys.exit(1 if found else 0)
