"""Exact linear algebra over GF(2) on int bitmasks: one reduction.

A row is an int mask: bit j is the coefficient of column j.  `eliminate`
reduces a row set to its unique reduced basis, from which its rank and
whether a unit vector lies in its span are read.  The library reduces only
row sets that are not column pairs (scheme._verification; pair rows take a
union-find), after scheme._row_mask has turned each row into its mask.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["eliminate"]


def eliminate(masks: Iterable[int]) -> dict[int, int]:
    """Reduced row echelon basis of the rows: {pivot column: mask}.

    Incremental Gauss-Jordan with the lowest set bit as pivot.  Each basis
    mask has its pivot as lowest bit and no other pivot bit, so the basis is
    the unique reduced form of the row span: its size is the rank, and the
    unit vector of column i lies in the span iff basis[i] is 1 << i.
    """
    basis: dict[int, int] = {}
    pivots = 0  # bit j set iff column j is a pivot
    for mask in masks:
        # basis masks carry no pivot bit but their own, so one pass over the
        # row's pivot bits clears them all
        hit = mask & pivots
        while hit:
            low = hit & -hit
            mask ^= basis[low.bit_length() - 1]
            hit ^= low
        if not mask:
            continue
        low = mask & -mask
        for p, bmask in basis.items():
            if bmask & low:
                basis[p] = bmask ^ mask
        basis[low.bit_length() - 1] = mask
        pivots |= low
    return basis
