"""Brute-force references that the engine's fast paths are tested against.

Nothing here is used by etass itself:

- the generator symbols and the monomial enumeration of one bidegree,
  the oracle for page bases (`enumerate_monomials`,
  `enumerate_normal_monomials`);
- the rho-free families enumerated as `Monomial`s and sorted by the
  column key of `column_key`, the reference for the packed-int
  enumerator `etass.bockstein.families`;
- multiplication by rho: of one monomial (`times_rho`), and between two
  bidegrees of a page (`rho_matrix_at`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from etass.algebra import Bidegree, Monomial, NormalizationFailure, NormalMonomial, normalize
from etass.bockstein import EngineError
from etass.gf2 import F2Matrix, F2Vector


@dataclass(frozen=True)
class GeneratorSymbol:
    """One of rho, P, or v_n (n >= 2)."""

    kind: str  # "rho" | "P" | "v"
    index: int | None = None

    def __post_init__(self):
        if self.kind not in ("rho", "P", "v"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if (self.kind == "v") != (self.index is not None):
            raise ValueError("index is for v generators only")
        if self.kind == "v" and self.index < 2:
            raise ValueError("v generators start at index 2")

    @property
    def degree(self) -> Bidegree:
        if self.kind == "rho":
            return Bidegree(0, 1)
        if self.kind == "P":
            return Bidegree(4, 4)
        return Bidegree(2 ** self.index - 1, 1)


RHO = GeneratorSymbol("rho")
P = GeneratorSymbol("P")


def v(n: int) -> GeneratorSymbol:
    return GeneratorSymbol("v", n)


def default_generators(mw_max: int) -> list[GeneratorSymbol]:
    """rho, P and every v_n that fits the window (2^n - 1 <= mw_max + 1)."""
    gens = [RHO, P]
    n = 2
    while 2 ** n - 1 <= mw_max + 1:
        gens.append(v(n))
        n += 1
    return gens


def enumerate_monomials(deg: Bidegree, generators: Sequence[GeneratorSymbol]) -> list[Monomial]:
    """All monomials of exactly this bidegree, in canonical order.

    Finite because every generator has Chow degree >= 1.
    """
    if deg.mw < 0 or deg.c < 0:
        raise ValueError("bidegree must be nonnegative")
    vs = sorted(g.index for g in generators if g.kind == "v")
    has_rho = any(g.kind == "rho" for g in generators)
    has_p = any(g.kind == "P" for g in generators)
    out: list[Monomial] = []

    def close(mw: int, c: int, acc: dict[int, int], p_exp: int):
        if mw != 0:
            return
        if c == 0:
            out.append(Monomial.make(0, p_exp, acc))
        elif has_rho:
            out.append(Monomial.make(c, p_exp, acc))

    def rec(i: int, mw: int, c: int, acc: dict[int, int], p_exp: int):
        if mw < 0 or c < 0:
            return
        if i == len(vs):
            close(mw, c, acc, p_exp)
            return
        n = vs[i]
        dmw = 2 ** n - 1
        a = 0
        while a * dmw <= mw and a <= c:
            if a:
                acc[n] = a
            rec(i + 1, mw - a * dmw, c - a, acc, p_exp)
            acc.pop(n, None)
            a += 1

    e = 0
    while 4 * e <= deg.mw and 4 * e <= deg.c:
        rec(0, deg.mw - 4 * e, deg.c - 4 * e, {}, e)
        if not has_p:
            break
        e += 1
    out.sort(key=Monomial.sort_key)
    return out


def enumerate_normal_monomials(deg: Bidegree, mw_max: int) -> list[NormalMonomial]:
    """All normal monomials of this bidegree over default_generators."""
    out = []
    for m in enumerate_monomials(deg, default_generators(mw_max)):
        try:
            nm = normalize(m)
        except NormalizationFailure:
            continue
        if nm is not None:
            out.append(nm)
    return out


def column_key(fam: Monomial):
    """The documented order of a column's rho-free families: more P
    first, then fewer v factors, then more v_2, more v_3, ..."""
    top = fam.v_exps[-1][0] if fam.v_exps else 1
    exps = fam.v_dict
    return (-fam.p_exp, sum(exps.values())) + tuple(-exps.get(n, 0) for n in range(2, top + 1))


def monomial_families(mw_max: int, normal: bool) -> dict[int, list[Monomial]]:
    """Every rho-free family with mw <= mw_max + 1 (with normal, only
    those admitting the normal form), by column, sorted by column_key:
    a search over all exponents, filtered through algebra.normalize."""
    top = mw_max + 1
    vs = [n for n in range(2, 64) if 2 ** n - 1 <= top]
    out: dict[int, list[Monomial]] = {mw: [] for mw in range(top + 1)}

    def rec(i: int, mw: int, acc: dict[int, int]):
        if i == len(vs):
            for p in range((top - mw) // 4 + 1):
                m = Monomial.make(0, p, acc)
                if normal:
                    try:
                        NormalMonomial(m.rho_exp, m.p_exp, m.v_exps)
                    except NormalizationFailure:
                        continue
                out[m.bidegree.mw].append(m)
            return
        n = vs[i]
        a = 0
        while mw + a * (2 ** n - 1) <= top:
            acc[n] = a
            rec(i + 1, mw + a * (2 ** n - 1), acc)
            a += 1
        del acc[n]

    rec(0, 0, {})
    for fams in out.values():
        fams.sort(key=column_key)
    return out


def times_rho(m: Monomial, k: int = 1) -> Monomial:
    """m times rho^k."""
    return Monomial(m.rho_exp + k, m.p_exp, m.v_exps)


def rho_matrix_at(page, mw: int, c: int) -> F2Matrix:
    """Multiplication by rho from (mw, c) to (mw, c+1) in the page
    bases."""
    src = page.basis_at(mw, c)
    tgt = page.basis_at(mw, c + 1)
    index = {m: i for i, m in enumerate(tgt)}
    rows_bits = [0] * len(tgt)
    for j, m in enumerate(src):
        up = times_rho(m)
        st = page.status(up)
        if st == "alive":
            rows_bits[index[up]] |= 1 << j
        elif st != "zero":
            raise EngineError(f"rho multiple {up} is neither alive nor hit")
    return F2Matrix(len(src), tuple(F2Vector(len(src), b) for b in rows_bits))
