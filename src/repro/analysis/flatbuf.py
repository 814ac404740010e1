"""Scalar kernels for the reduction engine's flat hot core.

The incremental reduction engine keeps its hot state on flat integer-indexed
structures: longest-path rows are plain ``List[float]`` buffers indexed by op
id, killer/DV state is int bitsets, verdicts are keyed by flat pair ints.
The inner loops over that state live here as small pure-Python kernels:

* :func:`finite_entries` / :func:`max_merge` -- the whole-row longest-path
  max-merge a pushed arc applies to every warm row it reaches;
* :func:`prepare_values` / :func:`threshold_mask` -- the DV threshold scan
  that turns a killer's longest-path row into its DV bitset;
* :func:`closure_from_rows` -- the big-int transitive closure that seeds
  :class:`~repro.analysis.antichain.PersistentAntichain`.

Every kernel is exact (the same IEEE-754 double operations in the same
order as the from-scratch analyses), which is what keeps the incremental
engine byte-identical to the from-scratch reduction driver.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = [
    "NEG_INF",
    "backend",
    "closure_from_rows",
    "finite_entries",
    "max_merge",
    "prepare_values",
    "threshold_mask",
]

NEG_INF = float("-inf")


def backend() -> str:
    """Name of the kernel implementation (recorded by benchmark runs)."""

    return "python"


# --------------------------------------------------------------------- #
# Kernel 1: whole-row longest-path max-merge
# --------------------------------------------------------------------- #
def finite_entries(row_dst: Sequence[float]) -> List[Tuple[int, float]]:
    """Hoisted finite continuation entries of an arc's destination row.

    The per-arc precomputation of the push patch loop: the ``(y, lp(dst,
    y))`` pairs with a finite longest path, in ascending ``y``.
    """

    return [(y, dv) for y, dv in enumerate(row_dst) if dv != NEG_INF]


def max_merge(row: List[float], shift: float, finite):
    """``row'[y] = max(row[y], shift + lp(dst, y))`` over the finite entries.

    Returns ``(patched_row, changed_indices)`` -- a fresh copy-on-write
    row and the ascending indices that grew -- or ``(None, None)`` when
    nothing improved (*row* itself is never mutated).  The changed-index
    list feeds the DV dirty-region recheck, so its order is part of the
    contract.
    """

    patched = None
    changed: Optional[List[int]] = None
    for y, dv in finite:
        cand = shift + dv
        if patched is None:
            if cand > row[y]:
                patched = row[:]
                patched[y] = cand
                changed = [y]
        elif cand > patched[y]:
            patched[y] = cand
            changed.append(y)  # type: ignore[union-attr]
    return patched, changed


# --------------------------------------------------------------------- #
# Kernel 2: DV threshold scan (killer bitset from a longest-path row)
# --------------------------------------------------------------------- #
def prepare_values(
    value_opids: Sequence[int], delta_w: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """The value-id / delta_w tables of one DV state, for :func:`threshold_mask`."""

    return (list(value_opids), list(delta_w))


def threshold_mask(row: Sequence[float], prep, read: int) -> int:
    """The killer's DV bitset: bit ``j`` set iff ``lp(k, v_j) >= read - dw_j``."""

    vids, dw = prep
    mask = 0
    for j, vid in enumerate(vids):
        dist = row[vid]
        if dist != NEG_INF and dist >= read - dw[j]:
            mask |= 1 << j
    return mask


# --------------------------------------------------------------------- #
# Kernel 3: bitset transitive closure (PersistentAntichain seeding)
# --------------------------------------------------------------------- #
def closure_from_rows(rows: Sequence[int]) -> Optional[List[int]]:
    """Transitive-closure bitsets of a bit relation, or None on a cycle.

    Kahn over the bit relation, then closure accumulation in reverse
    topological order.  Python's big-int ``|`` is already a word loop in C,
    so each accumulation step is one machine-word OR per 64 values.
    """

    n = len(rows)
    indeg = [0] * n
    for mask in rows:
        while mask:
            low = mask & -mask
            indeg[low.bit_length() - 1] += 1
            mask ^= low
    stack = [i for i in range(n) if indeg[i] == 0]
    order: List[int] = []
    while stack:
        i = stack.pop()
        order.append(i)
        mask = rows[i]
        while mask:
            low = mask & -mask
            j = low.bit_length() - 1
            mask ^= low
            indeg[j] -= 1
            if indeg[j] == 0:
                stack.append(j)
    if len(order) != n:
        return None
    closure = [0] * n
    for i in reversed(order):
        acc = 0
        mask = rows[i]
        while mask:
            low = mask & -mask
            acc |= low | closure[low.bit_length() - 1]
            mask ^= low
        closure[i] = acc
    return closure
