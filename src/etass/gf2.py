"""Exact linear algebra over the two-element field.

Vectors pack their coefficients into a single Python integer (bit ``i``
is coordinate ``i``), so a row operation is one XOR regardless of width.
Everything is immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class GF2Error(Exception):
    """An elimination broke one of its own invariants."""


class SubspaceNotContained(GF2Error):
    """A vector of the claimed subspace is outside the ambient span."""


def _low_bit(bits: int) -> int:
    """Index of the lowest set bit (bits must be nonzero)."""
    return (bits & -bits).bit_length() - 1


@dataclass(frozen=True, slots=True)
class F2Vector:
    """A fixed-length vector over GF(2); addition is bitwise XOR."""

    length: int
    bits: int = 0

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("negative length")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("coefficient index out of range")

    def support(self) -> list[int]:
        """Indices of the nonzero coordinates, ascending."""
        out, b = [], self.bits
        while b:
            i = _low_bit(b)
            out.append(i)
            b &= b - 1
        return out

    def coeffs(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.length)]


@dataclass(frozen=True)
class F2Matrix:
    """A matrix over GF(2), stored as a tuple of rows of equal length."""

    cols: int
    rows: tuple[F2Vector, ...]

    def __post_init__(self):
        for row in self.rows:
            if row.length != self.cols:
                raise ValueError("row length != cols")


class Echelon:
    """Mutable reduced-echelon accumulator keyed by pivot column.

    Internal helper for rank/membership bookkeeping; rows are raw ints.
    """

    def __init__(self):
        self.pivots: dict[int, int] = {}
        # a superset of the bits set in any stored row
        self.support = 0

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def __len__(self) -> int:
        """The rank: an Echelon stands for the list of its rows."""
        return len(self.pivots)

    def copy(self) -> "Echelon":
        out = Echelon()
        out.pivots = dict(self.pivots)
        out.support = self.support
        return out

    def reduce(self, bits: int) -> int:
        """Reduce bits against the stored rows; zero iff in the span.

        Stored rows are mutually reduced (0 in every other pivot
        column), so adding the row of pivot p changes no other pivot
        column: the pivots to clear are exactly the pivot columns set in
        the input, and walking its set bits costs O(popcount), not
        O(rank).
        """
        pivots = self.pivots
        todo = bits
        while todo:
            low = todo & -todo
            row = pivots.get(low.bit_length() - 1)
            if row is not None:
                bits ^= row
            todo ^= low
        return bits

    def insert(self, bits: int) -> bool:
        """Add a vector to the span.  Returns True if the rank grew."""
        pivots = self.pivots
        if bits and not bits & self.support:  # a new pivot row as it stands
            pivots[(bits & -bits).bit_length() - 1] = bits
            self.support |= bits
            return True
        todo = bits
        while todo:  # reduce, inlined
            low = todo & -todo
            row = pivots.get(low.bit_length() - 1)
            if row is not None:
                bits ^= row
            todo ^= low
        if not bits:
            return False
        p = _low_bit(bits)
        if (self.support >> p) & 1:
            for q, row in pivots.items():
                if (row >> p) & 1:
                    pivots[q] = row ^ bits
        pivots[p] = bits
        self.support |= bits
        return True

    def contains(self, bits: int) -> bool:
        if bits and not bits & (bits - 1):
            return self.pivots.get(bits.bit_length() - 1) == bits
        return self.reduce(bits) == 0

    def units(self) -> list[int]:
        """The i with e_i in the span: fully reduced, its row i is e_i."""
        return [p for p, row in self.pivots.items() if row == 1 << p]


def _echelon_of(m: F2Matrix) -> Echelon:
    ech = Echelon()
    for row in m.rows:
        ech.insert(row.bits)
    return ech


def rank(m: F2Matrix) -> int:
    return _echelon_of(m).rank


def kernel_basis(m: F2Matrix) -> list[F2Vector]:
    """Basis of {v : m v = 0}, one vector per free column.

    The basis vector for free column f has coordinate f equal to 1 and
    support otherwise only on pivot columns, so the output is linearly
    independent and deterministic.  It is read off the reduced echelon
    rows directly: each is its pivot plus free columns only.
    """
    pivots = _echelon_of(m).pivots
    free = {f: 1 << f for f in range(m.cols) if f not in pivots}
    for p, row in pivots.items():
        rest = row ^ (1 << p)
        while rest:
            low = rest & -rest
            free[low.bit_length() - 1] |= 1 << p
            rest ^= low
    if len(free) != m.cols - len(pivots):
        raise GF2Error(f"kernel has {len(free)} vectors, expected {m.cols - len(pivots)}")
    return [F2Vector(m.cols, bits) for bits in free.values()]


def quotient_basis(
    subspace: Sequence[F2Vector] | Echelon, ambient: Sequence[F2Vector]
) -> list[F2Vector]:
    """Coset representatives for span(ambient) / span(subspace).

    The subspace is given by spanning vectors, or as an Echelon of its
    span, which is copied, not changed.  The subspace must lie in the
    ambient span, else SubspaceNotContained.  Representatives are
    chosen greedily, preferring standard basis vectors in index order
    (then ambient vectors in the given order), so the output is
    deterministic and a single-coordinate coset is always represented by
    its standard vector.
    """
    if isinstance(subspace, Echelon):
        acc = subspace.copy()
    else:
        acc = Echelon()
        for v in subspace:
            if ambient and v.length != ambient[0].length:
                raise ValueError("length mismatch in subspace")
            acc.insert(v.bits)
    if not ambient:
        if acc.rank:
            raise SubspaceNotContained("nonzero subspace with empty ambient")
        return []
    length = ambient[0].length
    amb = Echelon()
    for v in ambient:
        if v.length != length:
            raise ValueError("length mismatch in ambient")
        amb.insert(v.bits)
    for bits in acc.pivots.values():
        if bits >> length:
            raise ValueError("length mismatch in subspace")
        if not amb.contains(bits):
            support = F2Vector(length, bits).support()
            raise SubspaceNotContained(f"vector {support} outside ambient span")
    want = amb.rank - acc.rank
    reps: list[F2Vector] = []
    for i in sorted(amb.units()):
        if len(reps) == want:
            return reps
        unit = 1 << i
        if acc.insert(unit):
            reps.append(F2Vector(length, unit))
    for v in ambient:
        if len(reps) == want:
            return reps
        if acc.insert(v.bits):
            reps.append(v)
    if len(reps) != want:
        raise GF2Error(f"found {len(reps)} coset representatives, expected {want}")
    return reps
