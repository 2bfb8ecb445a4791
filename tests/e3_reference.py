"""The Adams page-2 to page-3 step computed class by class from monomials.

This is the reference that etass.adams._e3_from_e2 is compared against.
Bases come from Page.basis_at and every class's image from the page-2
Derivation (adams.d2_derivation) applied to it by leibniz_apply, through
dump_reference.apply_rule, so none of it shares the step's integer
family images (adams.d2_rule) or its homology routine.
"""

from __future__ import annotations

from dump_reference import apply_rule
from etass.bockstein import EngineError, RepresentativeNotMonomial
from etass.algebra import Monomial, family_of
from etass.gf2 import Echelon, F2Matrix, F2Vector, kernel_basis, quotient_basis


def interval(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """The one rho-interval (lo, hi) that the single classes (b, b + 1)
    of pairs fill; they must leave no gap."""
    bs = sorted(b for b, _ in pairs)
    assert bs == list(range(bs[0], bs[-1] + 1)), f"classes {bs} are not one interval"
    return bs[0], bs[-1] + 1


def reference_e3_from_e2(e2):
    """(new_alive, new_zero) of the page-2 differential, with full gf2
    matrices at every bidegree and the single-monomial representative
    check; sum classes are dropped only in the margin column."""
    shift = e2.diff_shift()

    def column_cs(mw: int) -> list[int]:
        cs: set[int] = set()
        for fam, c0, (lo, hi) in e2._column_alive(mw):
            cs.update(range(c0 + lo, min(c0 + hi, e2.c_max + 1)))
        return sorted(cs)

    def expand_bits(m: Monomial, index) -> int:
        bits = 0
        for term in apply_rule(e2, m):
            st = e2.status(term)
            if st == "alive":
                bits ^= 1 << index[term]
            elif st != "zero":
                raise EngineError(f"d2 image term {term} unresolved")
        return bits

    def do_column(mw: int):
        # keyed by packed family, like the pages
        alive_col: dict[int, list[tuple[int, int]]] = {}
        zero_col: dict[int, list[tuple[int, int]]] = {}
        for c in column_cs(mw):
            mid = e2.basis_at(mw, c)
            if not mid:
                continue
            src = e2.basis_at(mw + 1, c - shift.c)
            tgt = e2.basis_at(mw - 1, c + shift.c)
            tgt_index = {m: i for i, m in enumerate(tgt)}
            mid_index = {m: i for i, m in enumerate(mid)}
            rows_bits = [0] * len(tgt)
            for j, m in enumerate(mid):
                col_bits = expand_bits(m, tgt_index)
                while col_bits:
                    i = (col_bits & -col_bits).bit_length() - 1
                    rows_bits[i] |= 1 << j
                    col_bits &= col_bits - 1
            m_out = F2Matrix(len(mid), tuple(F2Vector(len(mid), b) for b in rows_bits))
            kernel = kernel_basis(m_out)
            boundaries = [
                F2Vector(len(mid), b)
                for b in (expand_bits(m, mid_index) for m in src)
                if b
            ]
            for vvec in quotient_basis(boundaries, kernel):
                sup = vvec.support()
                if len(sup) != 1:
                    if mw > e2.max_mw:
                        continue
                    raise RepresentativeNotMonomial(
                        f"page-3 class at mw={mw}, c={c} needs a sum representative"
                    )
                m = mid[sup[0]]
                alive_col.setdefault(family_of(m), []).append((m.rho_exp, m.rho_exp + 1))
            ech = Echelon()
            for vvec in boundaries:
                ech.insert(vvec.bits)
            for i, m in enumerate(mid):
                if ech.contains(1 << i):
                    zero_col.setdefault(family_of(m), []).append((m.rho_exp, m.rho_exp + 1))
        return alive_col, zero_col

    new_alive = {}
    new_zero = {}
    for mw in sorted(e2.alive):
        alive_col, zero_col = do_column(mw)
        new_alive[mw] = {fam: interval(pairs) for fam, pairs in alive_col.items()}
        new_zero[mw] = {fam: interval(pairs) for fam, pairs in zero_col.items()}
    return new_alive, new_zero
