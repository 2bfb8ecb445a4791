"""The multiplicative model of the stable Ext ring and its scans.

The module basis consists of the normal monomials: rho powers, and
P^(2^(n-1) k) v_n v_{m1} ... v_{ma} with n <= m1 <= ... <= ma and
rho exponent below 2^n - 1, enumerated as packed families
(bockstein.families with normal=True).  This is the input to the Adams
spectral sequence.  The scans check the structural facts the rest of the
pipeline depends on: generators of the two distinguished shapes share
no bidegree with rho-divisible elements, the ring vanishes on the
diagonal (2i, 2i), the three-fold product formulas hold with the right
degree bookkeeping, and products satisfy the shift relation with no
hidden corrections.
"""

from __future__ import annotations

import random

from .algebra import (
    Bidegree,
    Monomial,
    NormalMonomial,
    family_c0,
    family_monomial,
    family_v_exps,
    normalize,
    multiply,
    torsion_bound,
)
from .bockstein import (
    EMPTY,
    Column,
    Page,
    Runs,
    c_max_for,
    families,
    tower_page,
)
from .report import Report


def enumerate_ext_families(mw_max: int) -> dict[int, Column]:
    """Normal rho-free families per Milnor-Witt column, in column order."""
    return families(mw_max, normal=True)


def ext_model_page(mw_max: int) -> Page:
    """The Ext model as a page: rho towers cut by the torsion bounds.

    Same class data as the stable Bockstein page, reindexed over the
    normal families only.
    """
    c_max = c_max_for(mw_max)
    columns = enumerate_ext_families(mw_max)
    towers = [((0, hi),) for hi in range(c_max + 2)]  # shared

    def tower(fam: int) -> Runs:
        t = torsion_bound(fam)
        hi = c_max - family_c0(fam) + 1 if t is None else t
        return towers[hi] if hi > 0 else EMPTY

    return tower_page("adams", "adams-E2", 2, mw_max, columns, tower)


def _families_up_to(mw_max: int) -> list[int]:
    out = []
    for mw, col in enumerate_ext_families(mw_max).items():
        if mw <= mw_max:
            out.extend(col.fams)
    return out


def _collisions_at(mw: int, fam: int, columns: dict[int, Column]) -> list[Monomial]:
    """rho-divisible normal monomials sharing the bidegree of the
    family fam of column mw."""
    c = family_c0(fam)
    out = []
    for other in columns[mw].fams:
        b = c - family_c0(other)
        t = torsion_bound(other)
        if b > 0 and (t is None or b < t):
            out.append(family_monomial(other, b))
    return out


def unique_detection_scan(mw_max: int) -> Report:
    """No rho-divisible basis element shares a bidegree with any
    P^(2^(n-1)k) v_n or P^(2^(n-1)k) v_n^2 basis element."""
    rep = Report()
    columns = enumerate_ext_families(mw_max)
    bad = []
    count = 0
    for mw in range(mw_max + 1):
        for fam in columns[mw].fams:
            vd = family_v_exps(fam)
            if len(vd) != 1 or vd[0][1] not in (1, 2):
                continue
            count += 1
            hits = _collisions_at(mw, fam, columns)
            if hits:
                bad.append((str(family_monomial(fam)), [str(h) for h in hits]))
    rep.add(
        "unique-detection",
        f"{count} generators scanned, mw <= {mw_max}",
        not bad,
        "" if not bad else f"collisions: {bad[:5]}",
    )
    return rep


def vanishing_scan(page: Page) -> Report:
    """Dimension zero at every bidegree (2i, 2i), 1 <= i <= max_mw / 2,
    of a stable page."""
    mw_max = page.max_mw
    rep = Report()
    bad = []
    for i in range(1, mw_max // 2 + 1):
        d = page.dim_at(2 * i, 2 * i)
        if d:
            bad.append((2 * i, d))
    rep.add(
        "diagonal-vanishing",
        f"(2i, 2i) for 1 <= i <= {mw_max // 2}",
        not bad,
        "" if not bad else f"nonzero at {bad}",
    )
    return rep


def _nm(rho=0, p=0, vs=None) -> NormalMonomial | None:
    return normalize(Monomial.make(rho, p, vs or {}), torsion=True)


def massey_index_check(n: int, k: int, m: int) -> Report:
    """Index and degree arithmetic for the two three-fold product
    expressions with target P^(2^(n-1)k + 2^(m-2)) v_n.

    Checks, for each expression: the stated target index, bidegree
    additivity with the (1, 0) triple-product shift, nonzero entries,
    and the vanishing of both adjacent products.
    """
    if not (m > n >= 2 and k >= 0):
        raise ValueError("need m > n >= 2 and k >= 0")
    rep = Report()
    target = _nm(p=2 ** (n - 1) * k + 2 ** (m - 2), vs={n: 1})
    shift = Bidegree(1, 0)

    def check_form(tag: str, entries: list[NormalMonomial | None], middle_pairs):
        inst = f"n={n},k={k},m={m}"
        ok_entries = target is not None and all(e is not None for e in entries)
        rep.add(tag, f"{inst} entries nonzero", ok_entries)
        if not ok_entries:
            return
        total = Bidegree(0, 0)
        for e in entries:
            total = total + e.bidegree
        rep.add(
            tag,
            f"{inst} degree additivity",
            target.bidegree == total + shift,
            f"target {target.bidegree}, entries+shift {total + shift}",
        )
        for a, b in middle_pairs:
            rep.add(
                tag,
                f"{inst} product {a} * {b} vanishes",
                multiply(a, b) is None,
            )

    first = _nm(rho=2 ** m - 2 ** n, vs={m: 1})
    mid = _nm(rho=2 ** n - 1)
    last = _nm(p=2 ** (n - 1) * k, vs={n: 1})
    check_form("massey-left", [first, mid, last], [(first, mid), (mid, last)])

    a3 = _nm(p=2 ** (n - 1) * k, vs={n: 1})
    b3 = _nm(rho=2 ** m - 2, vs={m: 1})
    c3 = _nm(rho=1)
    check_form("massey-right", [a3, b3, c3], [(a3, b3), (b3, c3)])
    return rep


def massey_instances(mw_max: int) -> list[tuple[int, int, int]]:
    """All (n, k, m) whose target P^(2^(n-1)k + 2^(m-2)) v_n has
    mw <= mw_max."""
    out = []
    n = 2
    while 2 ** n - 1 <= mw_max:
        m = n + 1
        while 2 ** n - 1 + 2 ** m <= mw_max:
            k = 0
            while 2 ** n - 1 + 2 ** (n + 1) * k + 2 ** m <= mw_max:
                out.append((n, k, m))
                k += 1
            m += 1
        n += 1
    return out


def massey_scan(mw_max: int) -> Report:
    rep = Report()
    for n, k, m in massey_instances(mw_max):
        rep.extend(massey_index_check(n, k, m))
    return rep


def product_consistency(mw_max: int, trials: int = 500, seed: int = 0) -> Report:
    """Random products: associativity, commutativity, and the shift
    relation P^(2^(n-1)k) v_n * P^(2^(m-1)j) v_m =
    P^(2^(n-1)(k + 2^(m-n) j)) v_n v_m."""
    rng = random.Random(seed)
    fams = [f for f in _families_up_to(mw_max) if f]  # all but the unit
    rep = Report()
    bad_assoc = bad_comm = 0
    # windows below mw 3 hold no family to pick from
    trials = trials if fams else 0
    for _ in range(trials):
        picks = []
        for _ in range(3):
            fam = rng.choice(fams)
            t = torsion_bound(fam)
            b = rng.randrange(t) if t is not None else rng.randrange(8)
            picks.append(normalize(family_monomial(fam, b), torsion=True))
        a, b, c = picks
        ab, bc = multiply(a, b), multiply(b, c)
        left = multiply(ab, c) if ab is not None else None
        right = multiply(a, bc) if bc is not None else None
        if left != right:
            bad_assoc += 1
        if multiply(a, b) != multiply(b, a):
            bad_comm += 1
    rep.add("product-associativity", f"{trials} random triples", bad_assoc == 0)
    rep.add("product-commutativity", f"{trials} random triples", bad_comm == 0)

    bad_shift = []
    gens = [
        (n, k)
        for n in range(2, 7)
        for k in range(0, 8)
        if 2 ** n - 1 + 2 ** (n + 1) * k <= mw_max
    ]
    for n, k in gens:
        for m, j in gens:
            if m < n:
                continue
            lhs = multiply(
                _nm(p=2 ** (n - 1) * k, vs={n: 1}), _nm(p=2 ** (m - 1) * j, vs={m: 1})
            )
            rhs = _nm(
                p=2 ** (n - 1) * (k + 2 ** (m - n) * j),
                vs={n: 1, m: 1} if m != n else {n: 2},
            )
            if lhs != rhs:
                bad_shift.append(((n, k), (m, j)))
    rep.add(
        "product-shift-relation",
        f"{len(gens) ** 2} generator pairs",
        not bad_shift,
        "" if not bad_shift else f"failing pairs {bad_shift[:5]}",
    )
    return rep


def stem_finiteness_scan(einfty: Page) -> Report:
    """On the stable Adams page every positive stem holds finitely many
    classes, all of Chow degree at most the stem."""
    rep = Report()
    bad = []
    for t in einfty.towers():
        if t.mw == 0:
            continue
        top = t.generator.bidegree.c + t.length - 1
        if t.truncated or top > t.mw:
            bad.append(str(t.generator))
    rep.add(
        "stem-finiteness",
        f"stems 1..{einfty.max_mw}",
        not bad,
        "" if not bad else f"violations at {bad[:5]}",
    )
    return rep
