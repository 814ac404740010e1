"""Maximal antichains and minimum chain covers of a DAG (Dilworth's theorem).

The Greedy-k register-saturation heuristic reduces "how many values can be
simultaneously alive under a killing function k" to a *maximum antichain*
problem on the disjoint-value DAG ``DV_k(G)``.  By Dilworth's theorem, the
maximum antichain of a finite poset equals its minimum chain cover, which on
the transitive closure of a DAG is a minimum path cover and is computed with
a maximum bipartite matching (Hopcroft--Karp).

The antichain itself is extracted with the constructive Koenig/Dilworth
argument: take a minimum vertex cover of the bipartite "split" graph of the
strict order; the elements whose both copies avoid the cover form a maximum
antichain.

The matching runs on integer indices over plain lists rather than a general
graph library: the heuristic solves one instance per candidate killing
function, making this the hottest kernel of the whole pipeline, and the
hashing/view overhead of a generic graph structure dominated its runtime.

:class:`PersistentAntichain` is the incremental counterpart used by the
reduction loop: the DV-DAG of an unchanged killing function only *gains*
edges as serial arcs are pushed, so the transitive closure is maintained as
a running family of bitsets and the matching is kept alive across updates --
edge additions never invalidate a matching, so each update costs a handful
of augmenting-path phases instead of a full solve.  The extracted antichain
is nevertheless byte-identical to the from-scratch path: by the uniqueness
of the Dulmage--Mendelsohn decomposition, the Koenig sets ``Z_L``/``Z_R``
(alternating-path reachability from the unmatched left vertices) are the
same for *every* maximum matching of the split graph, so the repaired
matching and the from-scratch Hopcroft--Karp matching yield the same
antichain even when the matchings themselves differ.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from . import flatbuf

__all__ = [
    "maximum_antichain",
    "maximum_antichain_from_adjacency",
    "maximum_antichain_size",
    "minimum_chain_cover_size",
    "is_antichain",
    "brute_force_maximum_antichain",
    "antichain_indices_from_rows",
    "PersistentAntichain",
]


def _split_adjacency(
    elements: Sequence[Hashable], pairs: Set[Tuple[Hashable, Hashable]]
) -> List[List[int]]:
    """Adjacency of the bipartite split graph, left copy ``i`` -> right copies.

    Rows are sorted so the matching (and hence the extracted antichain) is
    deterministic for a fixed element ordering.
    """

    index = {e: i for i, e in enumerate(elements)}
    adj: List[List[int]] = [[] for _ in elements]
    for u, v in pairs:
        adj[index[u]].append(index[v])
    for row in adj:
        row.sort()
    return adj


def _hopcroft_karp(adj: Sequence[List[int]], n: int) -> Tuple[List[int], List[int]]:
    """Maximum matching of the split graph; returns (match_left, match_right).

    The layered distances are plain ints with ``n + 1`` as the unreachable
    sentinel (no float infinities), and the augmenting-path walk is an
    explicit stack instead of recursion: the split graph of a deep chain
    yields augmenting paths as long as the poset itself, which blows the
    interpreter's recursion limit around the 240-operation scale tier.
    """

    match_l = [-1] * n
    match_r = [-1] * n
    infinity = n + 1
    dist = [0] * n

    def bfs() -> bool:
        queue = deque()
        for u in range(n):
            if match_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = infinity
        found = False
        while queue:
            u = queue.popleft()
            next_dist = dist[u] + 1
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == infinity:
                    dist[w] = next_dist
                    queue.append(w)
        return found

    def dfs(root: int) -> bool:
        # Each frame is [left vertex, edge cursor, edge descended through];
        # identical traversal order to the recursive formulation.
        frames = [[root, 0, -1]]
        while frames:
            frame = frames[-1]
            u, cursor = frame[0], frame[1]
            row = adj[u]
            descended = False
            while cursor < len(row):
                v = row[cursor]
                cursor += 1
                w = match_r[v]
                if w == -1:
                    # Free right vertex: flip the matching along the path.
                    match_l[u] = v
                    match_r[v] = u
                    for fu, _, fv in frames[:-1]:
                        match_l[fu] = fv
                        match_r[fv] = fu
                    return True
                if dist[w] == dist[u] + 1:
                    frame[1], frame[2] = cursor, v
                    frames.append([w, 0, -1])
                    descended = True
                    break
            if not descended:
                dist[u] = infinity
                frames.pop()
        return False

    while bfs():
        for u in range(n):
            if match_l[u] == -1:
                dfs(u)
    return match_l, match_r


def _koenig_free_sets(
    adj: Sequence[List[int]], match_l: List[int], match_r: List[int], n: int
) -> Tuple[Set[int], Set[int]]:
    """Koenig's construction: (Z_L, Z_R), the sets of left/right vertices
    reachable by alternating paths from the unmatched left vertices.

    The minimum vertex cover is ``(L - Z_L) | Z_R``; an element belongs to
    the maximum antichain iff its left copy is in ``Z_L`` and its right copy
    is not in ``Z_R``.
    """

    z_left: Set[int] = {u for u in range(n) if match_l[u] == -1}
    z_right: Set[int] = set()
    queue = deque(sorted(z_left))
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v in z_right:
                continue
            z_right.add(v)
            w = match_r[v]
            if w != -1 and w not in z_left:
                z_left.add(w)
                queue.append(w)
    return z_left, z_right


def maximum_antichain(
    elements: Sequence[Hashable],
    order_pairs: Iterable[Tuple[Hashable, Hashable]],
) -> List[Hashable]:
    """A maximum antichain of the poset ``(elements, <)``.

    Parameters
    ----------
    elements:
        The ground set.
    order_pairs:
        The *strict* order relation given as ordered pairs ``(u, v)`` meaning
        ``u < v``.  The relation must be transitively closed by the caller
        (use :func:`repro.analysis.graphalgo.transitive_closure_pairs`);
        otherwise the result is an antichain of the given relation, not of
        its closure.

    Returns
    -------
    list
        A maximum antichain; deterministic for a fixed input ordering.
    """

    elements = list(elements)
    if not elements:
        return []
    pairs = {(u, v) for (u, v) in order_pairs if u != v}
    adj = _split_adjacency(elements, pairs)
    return maximum_antichain_from_adjacency(elements, adj)


def maximum_antichain_from_adjacency(
    elements: Sequence[Hashable],
    adj: Sequence[List[int]],
) -> List[Hashable]:
    """A maximum antichain from an already-built split-graph adjacency.

    ``adj[i]`` must list, in ascending order, the indices ``j`` with
    ``elements[i] < elements[j]`` under the transitively-closed strict
    order.  This is the same matching/Koenig pipeline as
    :func:`maximum_antichain` -- callers that already hold the order as
    per-element bitsets (the incremental saturation engine) use it to skip
    materialising the pair set; identical adjacency yields an identical
    antichain.
    """

    elements = list(elements)
    if not elements:
        return []
    n = len(elements)
    match_l, match_r = _hopcroft_karp(adj, n)
    z_left, z_right = _koenig_free_sets(adj, match_l, match_r, n)
    antichain = [
        e for i, e in enumerate(elements) if i in z_left and i not in z_right
    ]
    # Koenig guarantees |antichain| = n - |matching| = maximum antichain size
    # (Dilworth / Mirsky duality on the split graph).
    expected = n - sum(1 for v in match_l if v != -1)
    if len(antichain) != expected:  # pragma: no cover - defensive
        # Fall back to greedy completion; should not happen but we never
        # want to return a wrong size silently.
        pairs = {
            (elements[i], elements[j]) for i, row in enumerate(adj) for j in row
        }
        antichain = _greedy_antichain(elements, pairs, expected)
    return antichain


def _greedy_antichain(
    elements: Sequence[Hashable],
    pairs: Set[Tuple[Hashable, Hashable]],
    target: int,
) -> List[Hashable]:
    comparable: Dict[Hashable, Set[Hashable]] = {e: set() for e in elements}
    for u, v in pairs:
        comparable[u].add(v)
        comparable[v].add(u)
    chosen: List[Hashable] = []
    for e in sorted(elements, key=lambda x: len(comparable[x])):
        if all(e not in comparable[c] for c in chosen):
            chosen.append(e)
        if len(chosen) == target:
            break
    return chosen


def maximum_antichain_size(
    elements: Sequence[Hashable],
    order_pairs: Iterable[Tuple[Hashable, Hashable]],
) -> int:
    """Size of a maximum antichain (Dilworth number) of the poset."""

    return len(maximum_antichain(elements, order_pairs))


def minimum_chain_cover_size(
    elements: Sequence[Hashable],
    order_pairs: Iterable[Tuple[Hashable, Hashable]],
) -> int:
    """Minimum number of chains covering the poset.

    By Dilworth's theorem this equals the maximum antichain size; it is
    computed directly from the matching size so the test-suite can check the
    duality explicitly.
    """

    elements = list(elements)
    if not elements:
        return 0
    pairs = {(u, v) for (u, v) in order_pairs if u != v}
    adj = _split_adjacency(elements, pairs)
    match_l, _ = _hopcroft_karp(adj, len(elements))
    matched = sum(1 for v in match_l if v != -1)
    return len(elements) - matched


def is_antichain(
    candidate: Iterable[Hashable],
    order_pairs: Iterable[Tuple[Hashable, Hashable]],
) -> bool:
    """True when no two elements of *candidate* are comparable under the strict order."""

    members = set(candidate)
    for u, v in order_pairs:
        if u in members and v in members and u != v:
            return False
    return True


def _closure_from_rows(rows: Sequence[int]) -> Optional[List[int]]:
    """Transitive-closure bitsets of a bit relation, or None on a cycle.

    Shared by the from-scratch reference path and the persistent engine's
    seeding, so the two can never diverge.  The word-op kernel itself lives
    in :mod:`repro.analysis.flatbuf` (big-int Kahn + reverse-topological
    accumulation).
    """

    return flatbuf.closure_from_rows(rows)


def antichain_indices_from_rows(rows: Sequence[int]) -> Optional[List[int]]:
    """Maximum-antichain indices of a relation given as successor bitsets.

    ``rows[i]`` is the bitset of direct successors of vertex ``i`` (bit ``j``
    set means ``i < j``); the relation need not be transitively closed.  The
    from-scratch pipeline is the one the incremental saturation engine ran
    per candidate per iteration before :class:`PersistentAntichain` existed:
    closure bitsets via :func:`_closure_from_rows`, ascending adjacency
    lists, then the shared matching/Koenig path.  Returns None when the
    relation has a cycle (the caller falls back to the generic antichain
    machinery).  This is the reference implementation the persistent engine
    is property-tested and benchmarked against.
    """

    n = len(rows)
    if n == 0:
        return []
    closure = _closure_from_rows(rows)
    if closure is None:
        return None
    adj: List[List[int]] = []
    for mask in closure:
        row_list: List[int] = []
        while mask:
            low = mask & -mask
            row_list.append(low.bit_length() - 1)
            mask ^= low
        adj.append(row_list)
    return maximum_antichain_from_adjacency(list(range(n)), adj)


class _Frame:
    """One undo frame of a :class:`PersistentAntichain`.

    Stores the first pre-change value of every closure row / matching entry
    touched while the frame was on top of the stack, plus the scalar state
    at push time; :meth:`PersistentAntichain.pop` replays them.
    """

    __slots__ = ("closure_log", "left_log", "right_log", "cyclic", "stale", "matched", "cached")

    def __init__(self, cyclic: bool, stale: bool, matched: int, cached) -> None:
        self.closure_log: Dict[int, int] = {}
        self.left_log: Dict[int, int] = {}
        self.right_log: Dict[int, int] = {}
        self.cyclic = cyclic
        self.stale = stale
        self.matched = matched
        self.cached = cached


class PersistentAntichain:
    """Maximum-antichain maintenance under monotone edge insertion.

    The ground set is ``range(n)``; the strict order lives as one closure
    bitset per vertex (bit ``j`` of ``closure[i]`` means ``i < j`` in the
    transitive closure).  Three facts make the maintenance cheap and exact:

    * **closure**: inserting ``u < v`` adds ``{v} | closure[v]`` to ``u``
      and to every current ancestor of ``u`` -- one bitset OR per dirty
      vertex instead of the full Kahn + reverse-topological rebuild;
    * **matching**: an edge *addition* never invalidates a matching of the
      split graph, so the previous ``match_l``/``match_r`` stay a valid
      (near-maximum) starting point and only augmenting paths from the
      still-free left vertices must be searched -- usually a single BFS
      phase that finds nothing, instead of a from-scratch Hopcroft--Karp;
    * **extraction**: the Koenig sets are the same for every maximum
      matching (Dulmage--Mendelsohn uniqueness), so the repaired matching
      extracts the *byte-identical* antichain to the from-scratch path
      (:func:`antichain_indices_from_rows`); the property tests pin that.

    :meth:`push`/:meth:`pop` bracket a group of insertions with an undo log
    (pre-change closure rows and matching entries), which is what lets the
    reduction session's candidate DV states survive its own push/pop
    protocol instead of being rebuilt after every undo.
    """

    __slots__ = ("_n", "_closure", "_match_l", "_match_r", "_matched",
                 "_stale", "cyclic", "_frames", "_cached")

    def __init__(self, n: int, rows: Optional[Sequence[int]] = None) -> None:
        self._n = n
        self._closure = [0] * n
        self._match_l = [-1] * n
        self._match_r = [-1] * n
        self._matched = 0
        self._stale = n > 0
        self.cyclic = False
        self._frames: List[_Frame] = []
        self._cached: Optional[List[int]] = None
        if rows is not None:
            self._seed(rows)

    # ------------------------------------------------------------------ #
    # Construction / mutation
    # ------------------------------------------------------------------ #
    def _seed(self, rows: Sequence[int]) -> None:
        """Bulk-build the closure from raw successor bitsets."""

        closure = _closure_from_rows(rows)
        if closure is None:
            self.cyclic = True
            return
        self._closure = closure

    def insert(self, u: int, v: int) -> bool:
        """Insert the strict-order pair ``u < v``; False when it closes a cycle.

        A cycle marks the whole state cyclic (callers fall back to their
        generic path); the flag is undone by :meth:`pop` like every other
        mutation of the bracketing frame.
        """

        if self.cyclic:
            return False
        closure = self._closure
        if u == v or (closure[v] >> u) & 1:
            self.cyclic = True
            return False
        addition = (1 << v) | closure[v]
        if not (addition & ~closure[u]):
            return True  # already implied by the running closure
        self._cached = None
        self._stale = True
        log = self._frames[-1].closure_log if self._frames else None
        for x in range(self._n):
            cx = closure[x]
            if x == u or (cx >> u) & 1:
                merged = cx | addition
                if merged != cx:
                    if log is not None and x not in log:
                        log[x] = cx
                    closure[x] = merged
        return True

    def insert_mask(self, u: int, mask: int) -> bool:
        """Insert ``u < j`` for every bit ``j`` of *mask*, ascending.

        The bulk form of :meth:`insert` for callers whose new successors
        arrive as a bitset (the flat-array DV sync/patch path); stops and
        returns False as soon as one pair closes a cycle, exactly like the
        per-pair loop it replaces (later inserts on a cyclic state are
        no-ops anyway).
        """

        while mask:
            low = mask & -mask
            if not self.insert(u, low.bit_length() - 1):
                return False
            mask ^= low
        return True

    def push(self) -> None:
        """Open an undo frame covering every subsequent insert/repair."""

        self._frames.append(
            _Frame(self.cyclic, self._stale, self._matched, self._cached)
        )

    def pop(self) -> None:
        """Revert to the state at the matching :meth:`push`."""

        frame = self._frames.pop()
        closure, match_l, match_r = self._closure, self._match_l, self._match_r
        for x, old in frame.closure_log.items():
            closure[x] = old
        for u, old in frame.left_log.items():
            match_l[u] = old
        for v, old in frame.right_log.items():
            match_r[v] = old
        self.cyclic = frame.cyclic
        self._stale = frame.stale
        self._matched = frame.matched
        self._cached = frame.cached

    def clear_frames(self) -> None:
        """Drop the undo stack, making the current state the new baseline.

        The incremental candidate engine calls this when it *patches* a DV
        state onto a new killing function: the patch invalidates the sync
        history the frames belong to (they can never be popped again), but
        the running closure and the repaired matching stay valid and warm.
        Without this, monotone patches would leave unpoppable frames
        accumulating pre-change closure rows forever.
        """

        self._frames.clear()

    # ------------------------------------------------------------------ #
    # Matching repair + extraction
    # ------------------------------------------------------------------ #
    def _set_match(self, u: int, v: int) -> None:
        if self._frames:
            frame = self._frames[-1]
            if u not in frame.left_log:
                frame.left_log[u] = self._match_l[u]
            if v not in frame.right_log:
                frame.right_log[v] = self._match_r[v]
        self._match_l[u] = v
        self._match_r[v] = u

    def _repair(self) -> None:
        """Hopcroft--Karp phases from the current matching until maximum.

        Starting from a valid matching, every augmenting path begins at a
        free left vertex, so the standard phase structure applies verbatim;
        when the matching is already maximum (the common case after a batch
        of implied or already-covered insertions) a single BFS proves it.
        """

        if not self._stale or self.cyclic:
            return
        n, closure = self._n, self._closure
        match_l, match_r = self._match_l, self._match_r
        infinity = n + 1
        dist = [0] * n
        while True:
            queue = deque()
            for u in range(n):
                if match_l[u] == -1:
                    dist[u] = 0
                    queue.append(u)
                else:
                    dist[u] = infinity
            found = False
            # Each right vertex needs distancing (or the free-vertex check)
            # at most once per phase, so track the already-visited rights in
            # one bitmask and strip them from every subsequent closure row.
            seen = 0
            while queue:
                u = queue.popleft()
                next_dist = dist[u] + 1
                mask = closure[u] & ~seen
                seen |= mask
                while mask:
                    low = mask & -mask
                    v = low.bit_length() - 1
                    mask ^= low
                    w = match_r[v]
                    if w == -1:
                        found = True
                    elif dist[w] == infinity:
                        dist[w] = next_dist
                        queue.append(w)
            if not found:
                break
            for u in range(n):
                if match_l[u] == -1:
                    self._augment(u, dist, infinity)
        self._stale = False

    def _augment(self, root: int, dist: List[int], infinity: int) -> bool:
        """One iterative augmenting-path walk (bitset edges, undo-logged flips)."""

        closure, match_r = self._closure, self._match_r
        frames = [[root, closure[root], -1]]
        while frames:
            frame = frames[-1]
            u, mask = frame[0], frame[1]
            descended = False
            while mask:
                low = mask & -mask
                v = low.bit_length() - 1
                mask ^= low
                w = match_r[v]
                if w == -1:
                    frame[1], frame[2] = mask, v
                    for fu, _, fv in frames:
                        self._set_match(fu, fv)
                    self._matched += 1
                    return True
                if dist[w] == dist[u] + 1:
                    frame[1], frame[2] = mask, v
                    frames.append([w, closure[w], -1])
                    descended = True
                    break
            if not descended:
                frame[1] = 0
                dist[u] = infinity
                frames.pop()
        return False

    def antichain_indices(self) -> Optional[List[int]]:
        """Indices of the maximum antichain, or None when the state is cyclic.

        Byte-identical to :func:`antichain_indices_from_rows` on any raw
        relation whose closure equals the running closure; cached until the
        next insert or pop actually changes the state.
        """

        if self.cyclic:
            return None
        if self._cached is None:
            self._repair()
            self._cached = self._koenig()
        # A copy: the cache is also aliased by the undo frames, so handing
        # out the internal list would let a mutating caller corrupt both.
        return list(self._cached)

    def _koenig(self) -> List[int]:
        n, closure = self._n, self._closure
        match_l, match_r = self._match_l, self._match_r
        z_left = 0
        queue = [u for u in range(n) if match_l[u] == -1]
        for u in queue:
            z_left |= 1 << u
        z_right = 0
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            fresh = closure[u] & ~z_right
            z_right |= fresh
            while fresh:
                low = fresh & -fresh
                v = low.bit_length() - 1
                fresh ^= low
                w = match_r[v]
                if w != -1 and not (z_left >> w) & 1:
                    z_left |= 1 << w
                    queue.append(w)
        free = z_left & ~z_right
        return [i for i in range(n) if (free >> i) & 1]

    # ------------------------------------------------------------------ #
    # Introspection (tests, Dilworth-duality checks)
    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        return len(self._frames)

    def closure_row(self, i: int) -> int:
        return self._closure[i]

    def matching(self) -> Tuple[List[int], List[int]]:
        """A snapshot of (match_left, match_right) after repair."""

        self._repair()
        return list(self._match_l), list(self._match_r)

    def matching_size(self) -> int:
        self._repair()
        return self._matched

    def cardinality(self) -> Optional[int]:
        """``n - |maximum matching|`` (the Dilworth width), None when cyclic."""

        if self.cyclic:
            return None
        self._repair()
        return self._n - self._matched


def brute_force_maximum_antichain(
    elements: Sequence[Hashable],
    order_pairs: Iterable[Tuple[Hashable, Hashable]],
) -> int:
    """Exponential reference implementation used by the tests (|elements| <= ~16)."""

    elements = list(elements)
    pairs = {(u, v) for (u, v) in order_pairs}
    best = 0
    n = len(elements)
    for mask in range(1 << n):
        subset = [elements[i] for i in range(n) if mask >> i & 1]
        if len(subset) <= best:
            continue
        if is_antichain(subset, pairs):
            best = len(subset)
    return best
