"""The homology of one bidegree with the generic gf2 routines, kept as the
reference that the one-elimination column routine
(bockstein.Homology.column_homology) is compared against.

reference_at reads the same integer matrices (Homology.column's bases
and the maps of the column tables, Homology._fill) but computes the
homology of one bidegree with the generic gf2 routines:
the outgoing matrix transposed into F2Vector rows for kernel_basis, a
fresh boundary Echelon, and quotient_basis of the boundaries in the
kernel, whose single-class representatives are the reps.  reference_unit_representatives
is the earlier unit_representatives, which inserted every cycle's unit
vector into a copy of the boundary echelon, and dense_bidegrees the
earlier bockstein.dense_bidegrees, which gathered the Chow degrees with
classes from the page's alive intervals instead of the homology's
sweep.  reference_positions lists the classes at one bidegree by a scan
of each family's interval, the reference for the sweep that fills every
class list.  reference_map_columns builds one bidegree's matrix class by
class, the reference for the map table that a column fills in one pass
(Homology._fill_maps).
"""

from __future__ import annotations

from etass.algebra import family_monomial
from etass.bockstein import EngineError, RepresentativeNotMonomial
from etass.gf2 import Echelon, F2Matrix, F2Vector, kernel_basis, quotient_basis
from gf2_reference import reference_insert


def reference_at(homology, mw: int, c: int, sums_allowed: bool = False):
    """(basis, reps, boundaries) at (mw, c), as Homology.column_homology
    yields them after c."""
    mid = homology.column(mw).bases[c]
    if not mid:
        return mid, [], Echelon()
    shift = homology.shift
    n = len(mid)
    rows_bits = [0] * len(homology.column(mw + shift.mw).bases[c + shift.c])
    for j, bits in enumerate(homology._fill(mw).maps[c]):
        while bits:
            low = bits & -bits
            rows_bits[low.bit_length() - 1] |= 1 << j
            bits ^= low
    kernel = kernel_basis(F2Matrix(n, tuple(F2Vector(n, b) for b in rows_bits)))
    boundaries = Echelon()
    for b in homology._fill(mw - shift.mw).maps.get(c - shift.c, ()):
        if b:
            boundaries.insert(b)
    reps: list[int] = []
    for v in quotient_basis(boundaries, kernel):
        sup = v.support()
        if len(sup) == 1:
            reps.append(sup[0])
        elif not sums_allowed:
            raise RepresentativeNotMonomial(
                f"no single-monomial representative at mw={mw}, c={c}: {v.coeffs()}"
            )
    return mid, reps, boundaries


def reference_unit_representatives(out: list[int], boundaries: dict[int, int], want: int):
    """unit_representatives on the boundary rows {pivot: row}, by
    generic insertion of each cycle's unit vector into a copy."""
    reps: list[int] = []
    if want > 0:
        acc = dict(boundaries)
        for i, bits in enumerate(out):
            if not bits and reference_insert(acc, 1 << i):
                reps.append(i)
                if len(reps) == want:
                    break
    return reps


def reference_positions(page, mw: int, c: int) -> list[int]:
    """The ascending positions in page._column_alive(mw) of the classes
    at (mw, c): the families whose interval holds the rho exponent c - c0."""
    column = page._column_alive(mw)
    return [pos for pos, (_, c0, (lo, hi)) in enumerate(column) if lo <= c - c0 < hi]


def dense_bidegrees(page, mw: int) -> list[int]:
    """Every Chow degree c <= c_max at which column mw has a class."""
    out: set[int] = set()
    for _, c0, (lo, hi) in page._column_alive(mw):
        out.update(range(c0 + lo, min(c0 + hi, page.c_max + 1)))
    return sorted(out)


def reference_map_columns(homology, mw: int, c: int) -> list[int]:
    """The maps of column mw at degree c, class by class: each class of
    the basis asks the page for its family's image, and each term is
    either looked up in the target basis or must be zero by
    class_status."""
    page, shift = homology.page, homology.shift
    column, tmw = homology.column(mw), mw + shift.mw
    target = homology.column(tmw)
    basis = target.bases[c + shift.c]
    index = dict(zip(basis, range(len(basis))))
    out = []
    for pos in column.bases[c]:
        fam, c0, _ = column.alive[pos]
        terms, threshold = page.family_image(fam)
        bits = 0
        for tfam, delta in terms if c - c0 >= threshold else ():
            tpos = target.pos_of.get(tfam)
            if tpos is not None and target.alive[tpos][1] + delta != c0 + shift.c:
                tpos = None  # at another Chow degree: never in the target basis
            i = index.get(tpos)
            if i is not None:
                bits ^= 1 << i
            elif page.class_status(tmw, tfam, c - c0 + delta) != "zero":
                term = family_monomial(tfam, c - c0 + delta)
                raise EngineError(f"image term {term} is neither alive nor hit")
        out.append(bits)
    return out
