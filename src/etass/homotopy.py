"""Stem groups read off the stable Adams page.

Multiplication by rho detects multiplication by 2, so the rho-tower
length of the one generator family in a stem is the 2-order exponent of
that stem's group.  Positive stems are nonzero exactly in degrees
3 mod 4, where the order matches 2^(v + 1) with v the 2-adic valuation
of stem + 1; the 0-stem carries the unit tower.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import family_monomial, family_p, family_v_exps, two_adic_valuation
from .bockstein import Page
from .report import Report


class MultipleTowers(Exception):
    """A stem carries more than one generator family."""


class WrongStem(Exception):
    """The order formula applies only in stems 3 mod 4."""


def generator_name(n: int, k: int) -> str:
    power = 2 ** (n - 1) * k
    return f"lambda{n}" if power == 0 else f"P^{power}lambda{n}"


@dataclass(frozen=True)
class HomotopyGroup:
    """One Milnor-Witt stem: Z/2^order_exponent on generator_name, the
    full 2-adic tower when order_exponent is None (stem 0), trivial when
    order_exponent is 0."""

    mw: int
    order_exponent: int | None
    generator_name: str

    @property
    def is_trivial(self) -> bool:
        return self.order_exponent == 0

    def describe(self) -> str:
        if self.order_exponent is None:
            return f"mw={self.mw} Z2[eta^+-1] gen={self.generator_name}"
        if self.order_exponent == 0:
            return f"mw={self.mw} 0"
        return f"mw={self.mw} Z/2^{self.order_exponent} gen={self.generator_name}"


def extract_groups(einfty: Page) -> list[HomotopyGroup]:
    """One group per stem of the window from the stable page's towers."""
    by_stem: dict[int, list[tuple[int, int, int, bool]]] = {}
    for mw, *tower in einfty.window_towers():
        by_stem.setdefault(mw, []).append(tower)
    groups = []
    for mw in range(einfty.max_mw + 1):
        towers = by_stem.get(mw, [])
        if not towers:
            groups.append(HomotopyGroup(mw, 0, ""))
            continue
        if len(towers) > 1:
            raise MultipleTowers(
                f"stem {mw} has towers {[str(family_monomial(f, lo)) for f, lo, *_ in towers]}"
            )
        ((fam, lo, hi, truncated),) = towers
        if mw == 0:
            groups.append(HomotopyGroup(0, None, "1"))
            continue
        v_exps = family_v_exps(fam)
        if len(v_exps) != 1 or v_exps[0][1] != 1 or truncated:
            gen = family_monomial(fam, lo)
            raise MultipleTowers(f"stem {mw} detector {gen} is not a tower family")
        n = v_exps[0][0]
        k = family_p(fam) // 2 ** (n - 1)
        groups.append(HomotopyGroup(mw, hi - lo, generator_name(n, k)))
    return groups


def imj_order(mw: int) -> int:
    """Order exponent in stem mw = 4k - 1: one more than the 2-adic
    valuation of mw + 1."""
    if mw < 3 or mw % 4 != 3:
        raise WrongStem(f"stem {mw} is not 3 mod 4")
    return two_adic_valuation(mw + 1) + 1


def groups_vs_order_formula(groups: list[HomotopyGroup]) -> Report:
    """The extracted orders against the valuation formula, and triviality
    everywhere else."""
    rep = Report()
    bad_formula = []
    bad_zero = []
    for g in groups:
        if g.mw == 0:
            rep.add("group-orders", "mw=0 infinite", g.order_exponent is None)
        elif g.mw % 4 == 3:
            if g.order_exponent != imj_order(g.mw):
                bad_formula.append((g.mw, g.order_exponent, imj_order(g.mw)))
        elif not g.is_trivial:
            bad_zero.append(g.mw)
    rep.add(
        "group-orders",
        f"stems 3 mod 4 up to {groups[-1].mw}",
        not bad_formula,
        "" if not bad_formula else f"wrong orders: {bad_formula}",
    )
    rep.add(
        "group-orders",
        "all other positive stems trivial",
        not bad_zero,
        "" if not bad_zero else f"nonzero at {bad_zero}",
    )
    return rep


def ring_structure_report(groups: list[HomotopyGroup]) -> Report:
    """Product triviality: generators live in stems 3 mod 4, any product
    of two lands in a stem 2 mod 4, and those groups vanish."""
    rep = Report()
    gens = [g for g in groups if g.mw > 0 and not g.is_trivial]
    by_stem = {g.mw: g for g in groups}
    bad = []
    table = []
    for i, a in enumerate(gens):
        for b in gens[i:]:
            stem = a.mw + b.mw
            if stem % 4 != 2:
                bad.append((a.mw, b.mw, "stem not 2 mod 4"))
                continue
            target = by_stem.get(stem)
            if target is not None and not target.is_trivial:
                bad.append((a.mw, b.mw, "target group nonzero"))
            table.append(f"{a.generator_name} * {b.generator_name} = 0 (mw {stem})")
    rep.add(
        "ring-structure",
        f"{len(table)} generator products",
        not bad,
        "" if not bad else f"violations: {bad[:5]}",
    )
    return rep
