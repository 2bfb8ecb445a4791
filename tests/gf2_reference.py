"""The earlier gf2.kernel_basis and gf2.quotient_basis, kept as references.

kernel_basis read the kernel off row_reduce's full reduced matrix (zero
rows included), and quotient_basis tried every unit vector e_0, e_1, ...
against the ambient span.  The library versions read the echelon pivots
directly and scan only the unit rows of the reduced ambient echelon;
they must return exactly the same lists.
"""

from __future__ import annotations

from typing import Sequence

from etass.gf2 import (
    Echelon,
    F2Matrix,
    F2Vector,
    GF2Error,
    SubspaceNotContained,
    row_reduce,
)


def reference_kernel_basis(m: F2Matrix) -> list[F2Vector]:
    reduced, r, pivot_cols = row_reduce(m)
    pivot_set = set(pivot_cols)
    free = {f: 1 << f for f in range(m.cols) if f not in pivot_set}
    # a reduced row is its pivot plus free columns only
    for row, p in zip(reduced.rows, pivot_cols):
        rest = row.bits ^ (1 << p)
        while rest:
            low = rest & -rest
            free[low.bit_length() - 1] |= 1 << p
            rest ^= low
    basis = [F2Vector(m.cols, bits) for bits in free.values()]
    if len(basis) != m.cols - r:
        raise GF2Error(f"kernel has {len(basis)} vectors, expected {m.cols - r}")
    return basis


def reference_quotient_basis(
    subspace: Sequence[F2Vector], ambient: Sequence[F2Vector]
) -> list[F2Vector]:
    if not ambient:
        if any(not v.is_zero() for v in subspace):
            raise SubspaceNotContained("nonzero subspace with empty ambient")
        return []
    length = ambient[0].length
    amb = Echelon()
    for v in ambient:
        if v.length != length:
            raise ValueError("length mismatch in ambient")
        amb.insert(v.bits)
    acc = Echelon()
    for v in subspace:
        if v.length != length:
            raise ValueError("length mismatch in subspace")
        if not amb.contains(v.bits):
            raise SubspaceNotContained(f"vector {v.support()} outside ambient span")
        acc.insert(v.bits)
    want = amb.rank - acc.rank
    reps: list[F2Vector] = []
    for i in range(length):
        if len(reps) == want:
            return reps
        unit = 1 << i
        if amb.contains(unit) and acc.insert(unit):
            reps.append(F2Vector(length, unit))
    for v in ambient:
        if len(reps) == want:
            return reps
        if acc.insert(v.bits):
            reps.append(v)
    if len(reps) != want:
        raise GF2Error(f"found {len(reps)} coset representatives, expected {want}")
    return reps
