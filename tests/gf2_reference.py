"""The earlier gf2.kernel_basis and gf2.quotient_basis, kept as references,
and the vector and matrix helpers that only the tests use.

kernel_basis read the kernel off row_reduce's full reduced matrix (zero
rows included), and quotient_basis tried every unit vector e_0, e_1, ...
against the ambient span.  The library versions read the echelon pivots
directly and scan only the unit rows of the reduced ambient echelon;
they must return exactly the same lists.  reference_insert and
reference_reduce are Echelon.insert and Echelon.reduce on a plain pivot
dict, without the shortcuts for a vector outside the stored support and
for a unit vector.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from etass.gf2 import (
    Echelon,
    F2Matrix,
    F2Vector,
    GF2Error,
    SubspaceNotContained,
    _echelon_of,
)


def from_coeffs(coeffs: Iterable[int]) -> F2Vector:
    coeffs = list(coeffs)
    bits = 0
    for i, x in enumerate(coeffs):
        if x & 1:
            bits |= 1 << i
    return F2Vector(len(coeffs), bits)


def unit(length: int, index: int) -> F2Vector:
    if not 0 <= index < length:
        raise ValueError("unit index out of range")
    return F2Vector(length, 1 << index)


def add(v: F2Vector, w: F2Vector) -> F2Vector:
    if v.length != w.length:
        raise ValueError("length mismatch")
    return F2Vector(v.length, v.bits ^ w.bits)


def coeff(v: F2Vector, i: int) -> int:
    if not 0 <= i < v.length:
        raise IndexError(i)
    return (v.bits >> i) & 1


def nrows(m: F2Matrix) -> int:
    return len(m.rows)


def from_rows(rows: Iterable[Sequence[int] | F2Vector], cols: int | None = None) -> F2Matrix:
    vecs = [r if isinstance(r, F2Vector) else from_coeffs(r) for r in rows]
    if cols is None:
        if not vecs:
            raise ValueError("cols required for an empty matrix")
        cols = vecs[0].length
    return F2Matrix(cols, tuple(vecs))


def is_zero(v: F2Vector) -> bool:
    return v.bits == 0


def zero_matrix(nrows: int, cols: int) -> F2Matrix:
    return F2Matrix(cols, tuple(F2Vector(cols) for _ in range(nrows)))


def identity(n: int) -> F2Matrix:
    return F2Matrix(n, tuple(unit(n, i) for i in range(n)))


def transpose(m: F2Matrix) -> F2Matrix:
    columns = []
    for j in range(m.cols):
        bits = 0
        for i, row in enumerate(m.rows):
            if (row.bits >> j) & 1:
                bits |= 1 << i
        columns.append(F2Vector(nrows(m), bits))
    return F2Matrix(nrows(m), tuple(columns))


def apply(m: F2Matrix, v: F2Vector) -> F2Vector:
    """Matrix-vector product; v has length cols, result length nrows."""
    if v.length != m.cols:
        raise ValueError("length mismatch")
    bits = 0
    for i, row in enumerate(m.rows):
        if (row.bits & v.bits).bit_count() & 1:
            bits |= 1 << i
    return F2Vector(nrows(m), bits)


def row_reduce(m: F2Matrix) -> tuple[F2Matrix, int, list[int]]:
    """Reduced row-echelon form over GF(2).

    Returns (reduced, rank, pivot_cols).  The reduced matrix has the
    nonzero rows first, ordered by strictly increasing pivot column,
    each pivot column containing a single 1; zero rows follow.
    """
    ech = _echelon_of(m)
    pivot_cols = sorted(ech.pivots)
    out_rows = [F2Vector(m.cols, ech.pivots[p]) for p in pivot_cols]
    out_rows.extend(F2Vector(m.cols) for _ in range(nrows(m) - len(out_rows)))
    return F2Matrix(m.cols, tuple(out_rows)), len(pivot_cols), pivot_cols


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
        if any(not is_zero(v) for v in subspace):
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


def reference_reduce(pivots: dict[int, int], bits: int) -> int:
    """bits reduced against the fully reduced rows {pivot: row}."""
    for p, row in pivots.items():
        if (bits >> p) & 1:
            bits ^= row
    return bits


def reference_insert(pivots: dict[int, int], bits: int) -> bool:
    """Add bits to the span of the fully reduced rows {pivot: row}, in
    place, by reduction and back-substitution; True if the rank grew."""
    bits = reference_reduce(pivots, bits)
    if not bits:
        return False
    p = (bits & -bits).bit_length() - 1
    for q, row in pivots.items():
        if (row >> p) & 1:
            pivots[q] = row ^ bits
    pivots[p] = bits
    return True
