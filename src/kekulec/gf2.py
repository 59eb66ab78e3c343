"""Linear algebra over the two-element field on bit-packed vectors: one
solution of an affine system, rank and independence, and span enumeration.

Vectors are Python ints (bit i = coordinate i), so XOR is word-level and
elimination is branch-light.  Pivoting always picks the lowest set bit,
which makes every result deterministic.
"""

from __future__ import annotations

from typing import Iterator, Sequence


def solve_affine(rows: Sequence[int], rhs: Sequence[int]) -> int | None:
    """One solution of ``A x = b`` over GF(2), by Gauss-Jordan elimination.

    ``rows[i]`` is the coefficient mask of equation i, ``rhs[i]`` its
    parity bit.  Returns the solution with every free variable 0, or None
    when the system is inconsistent.  No kernel basis is built: the
    semi-Kekulé kernel is spanned by cycles
    (:func:`~kekulec.semikekule.hsk_basis`).
    """
    # invariant: every pivot row holds its own column plus free columns only,
    # so one pass over the pivots fully reduces an incoming row
    pivots: dict[int, tuple[int, int]] = {}  # column -> (row, rhs bit)
    for row, b in zip(rows, rhs):
        for col, (prow, pb) in pivots.items():
            if row >> col & 1:
                row ^= prow
                b ^= pb
        if row == 0:
            if b:
                return None
            continue
        col = (row & -row).bit_length() - 1
        for c2, (prow, pb) in pivots.items():
            if prow >> col & 1:
                pivots[c2] = (prow ^ row, pb ^ b)
        pivots[col] = (row, b)

    particular = 0
    for col, (_, b) in pivots.items():
        if b:
            particular |= 1 << col
    return particular


def rank(vectors: Sequence[int]) -> int:
    """Rank of a list of bit vectors."""
    pivots: dict[int, int] = {}
    r = 0
    for v in vectors:
        while v:
            col = (v & -v).bit_length() - 1
            if col not in pivots:
                pivots[col] = v
                r += 1
                break
            v ^= pivots[col]
    return r


def independent(vectors: Sequence[int]) -> bool:
    return rank(vectors) == len(vectors)


def span(basis: Sequence[int]) -> Iterator[int]:
    """All ``2**len(basis)`` subset XOR-sums, walked in Gray-code order."""
    current = 0
    yield current
    for i in range(1, 1 << len(basis)):
        current ^= basis[(i & -i).bit_length() - 1]
        yield current
