"""Monomial references for the engine's page differentials.

The engine's rules (bockstein.bockstein_rule, adams.d2_rule and
adams.adams_rule) move packed families.  The references here state the
same differentials on Monomials, by generator: each Bockstein page as a
Derivation that algebra.leibniz_apply applies, the Adams page 2 as
adams.d2_derivation, and each Adams page from 3 on as its list of
rho-linear rules (dr_rule), one per source tower.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from brute_force import times_rho
from etass.adams import d2_derivation
from etass.algebra import (
    Bidegree,
    Derivation,
    Monomial,
    family_monomial,
    family_of,
    leibniz_apply,
)
from etass.bockstein import Differential


def bockstein_derivation(n: int) -> Derivation:
    """Page 2^n - 1: the block generator P^(2^(n-2)) maps to
    rho^(2^n - 1) v_n; every v generator is a cycle, and P powers
    attached to a v family of index below n ride along."""
    return Derivation(
        shift=Bidegree(-1, 0),
        all_v_cycles=True,
        p_rule=(2 ** (n - 2), Monomial.make(2 ** n - 1, 0, {n: 1})),
        p_attach_min=n,
    )


@dataclass(frozen=True)
class AdamsDiffRule:
    """One rho-linear differential instance: every rho multiple of
    `source` maps to the matching rho multiple of `target`."""

    r: int
    source: Monomial
    target: Monomial

    def __post_init__(self):
        want = Bidegree(-1, self.r - 1)
        if self.target.bidegree - self.source.bidegree != want:
            raise ValueError(f"rule degree shift is not {want}")


def dr_rule(r: int, mw_max: int) -> list[AdamsDiffRule]:
    """Page-r rules (r >= 3): the tower of P^(2^(n-1)k) v_n in rho
    exponents >= 2^n - 2^(n-r+2) - r + 2 maps onto the tower of
    P^(2^(n-1)k + 2^(n-2) - 2^(n-r)) v_{n-r+1}^2, for n >= r + 1."""
    if r < 3:
        raise ValueError("r >= 3")
    out = []
    n = r + 1
    while 2 ** n - 1 <= mw_max + 1:
        base = 2 ** n - 2 ** (n - r + 2) - r + 2
        k = 0
        while 2 ** n - 1 + 2 ** (n + 1) * k <= mw_max + 1:
            e = 2 ** (n - 1) * k
            src = Monomial.make(base, e, {n: 1})
            tgt = Monomial.make(0, e + 2 ** (n - 2) - 2 ** (n - r), {n - r + 1: 2})
            out.append(AdamsDiffRule(r, src, tgt))
            k += 1
        n += 1
    return out


def dr_table(rules: list[AdamsDiffRule]) -> dict[int, AdamsDiffRule]:
    """The rules by packed source family."""
    return {family_of(rule.source): rule for rule in rules}


def apply_dr_table(table: dict[int, AdamsDiffRule], m: Monomial) -> list[Monomial]:
    """The rules on one class: its rule's target, shifted by the class's
    rho exponent above the rule's source, or nothing below the source or
    without a rule."""
    rule = table.get(family_of(m))
    if rule is None or m.rho_exp < rule.source.rho_exp:
        return []
    a = m.rho_exp - rule.source.rho_exp
    return [times_rho(rule.target, a) if a else rule.target]


@cache
def page_reference(kind: str, r: int, mw_max: int) -> Derivation | dict[int, AdamsDiffRule]:
    """The reference of page r of a run: the Bockstein page 2^n - 1 and
    the Adams page 2 as Derivations, an Adams page from 3 on as the
    dr_table of its rules."""
    if kind == "bockstein":
        return bockstein_derivation(r.bit_length())
    if r == 2:
        return d2_derivation(mw_max)
    return dr_table(dr_rule(r, mw_max))


def as_differential(d: Derivation) -> Differential:
    """A Derivation as a page differential: each family's image is
    leibniz_apply on the family's rho-free Monomial, at threshold 0."""

    def family_image(fam: int) -> tuple[list[tuple[int, int]], int]:
        return [(family_of(t), t.rho_exp) for t in leibniz_apply(d, family_monomial(fam))], 0

    return Differential(d.shift, family_image)
