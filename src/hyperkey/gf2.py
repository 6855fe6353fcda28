"""Exact linear algebra over GF(2) on int bitmasks: one reduction.

A row is a (mask, payload) pair: bit j of the int mask is the coefficient of
column j, and the payload is an opaque bit block (a right-hand side) that is
XOR-combined alongside the mask.  Every question the package asks of a row
set (its rank, whether a unit vector lies in its span, the solution of a
system) is read off the reduced basis that `eliminate` returns.
"""

from __future__ import annotations

from typing import Iterable

from .errors import RankDefect

__all__ = ["eliminate"]


def eliminate(rows: Iterable[tuple[int, int]]) -> dict[int, tuple[int, int]]:
    """Reduced row echelon basis of the rows: {pivot column: (mask, payload)}.

    Incremental Gauss-Jordan with the lowest set bit as pivot.  Each basis
    mask has its pivot as lowest bit and no other pivot bit, so the basis is
    the unique reduced form of the row span: its size is the rank, the unit
    vector of column i lies in the span iff basis[i] has mask 1 << i, and a
    system's solution with free columns set to zero gives column i the
    payload of basis[i] (zero off the pivots).  A row that reduces to mask 0
    with a nonzero payload makes the system inconsistent: RankDefect.
    """
    basis: dict[int, tuple[int, int]] = {}
    pivots = 0  # bit j set iff column j is a pivot
    for mask, payload in rows:
        # basis masks carry no pivot bit but their own, so one pass over the
        # row's pivot bits clears them all
        hit = mask & pivots
        while hit:
            low = hit & -hit
            bmask, bpay = basis[low.bit_length() - 1]
            mask ^= bmask
            payload ^= bpay
            hit ^= low
        if not mask:
            if payload:
                raise RankDefect("inconsistent linear system")
            continue
        low = mask & -mask
        col = low.bit_length() - 1
        for p, (bmask, bpay) in basis.items():
            if bmask & low:
                basis[p] = (bmask ^ mask, bpay ^ payload)
        basis[col] = (mask, payload)
        pivots |= low
    return basis
