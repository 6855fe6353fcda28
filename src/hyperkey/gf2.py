"""Tiny exact linear algebra over GF(2) on int bitmasks.

A row is a Python int whose bit j is the coefficient of column j.  Payload
variants carry an extra int per row (an opaque bit block) that is XOR-combined
alongside the mask, which is all Gaussian elimination needs here.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import RankDefect

__all__ = ["rank", "rank_with", "solve_with_payload"]


def rank(rows: Iterable[int]) -> int:
    """Rank of the span of the given bitmask rows."""
    pivots: list[int] = []
    for row in rows:
        cur = row
        for p in pivots:
            if cur & (p & -p):
                cur ^= p
        if cur:
            pivots.append(cur)
    return len(pivots)


def rank_with(rows: Sequence[int], extra: int) -> int:
    """Rank of rows plus one extra row."""
    return rank(list(rows) + [extra])


def solve_with_payload(
    rows: Sequence[tuple[int, int]], ncols: int
) -> tuple[list[int], bool]:
    """Solve a linear system whose right-hand sides are opaque bit blocks.

    rows are (mask, payload) pairs.  Returns (values, unique): values[j] is
    the payload assigned to column j, with free columns forced to zero, and
    unique is True exactly when there were no free columns.  Raises
    RankDefect on an inconsistent system.
    """
    work = [list(r) for r in rows]
    used = [False] * len(work)
    pivot_of: dict[int, int] = {}
    for col in range(ncols):
        pivot = None
        for i, (mask, _) in enumerate(work):
            if not used[i] and mask >> col & 1:
                pivot = i
                break
        if pivot is None:
            continue
        used[pivot] = True
        pivot_of[col] = pivot
        pmask, ppay = work[pivot]
        for i, (mask, pay) in enumerate(work):
            if i != pivot and mask >> col & 1:
                work[i][0] = mask ^ pmask
                work[i][1] = pay ^ ppay
    for mask, pay in work:
        if mask == 0 and pay != 0:
            raise RankDefect("inconsistent linear system")
    values = [0] * ncols
    for col, i in pivot_of.items():
        # remaining non-pivot bits in the row belong to free columns (zeroed)
        values[col] = work[i][1]
    return values, len(pivot_of) == ncols
