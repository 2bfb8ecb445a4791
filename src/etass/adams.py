"""The h1-inverted Adams spectral sequence on top of the Ext model.

The second page is the Ext model; its differential (d2_rule) is
v_n -> v_{n-1}^2 (n >= 3) extended by Leibniz, applied to packed
families by exponent arithmetic.  It is rho-linear too: each family's
image is computed once, on the rho-free family, and shifted by the rho
exponent, and a shifted term that torsion kills is zero in the model.
That transition has genuinely multi-term images, so the third page is
computed per bidegree with full gf2 matrices on integer class
positions, through the same homology routine that replays the tower
transitions (bockstein.Homology), no shortcuts.  From the third page
on, the differential of page r (adams_rule) maps single towers onto
single towers from a fixed rho exponent on, and the transitions run on
the shared tower engine, replayed like the Bockstein ones.
A page-r differential shifts (mw, c) by (-1, r-1).  Each page holds its
differential (Page.differential, a bockstein.Differential) and each
page from 3 on is one tower rule (adams_tower); every page of kind
"adams" applies the Ext model's ring torsion (algebra.torsion_bound).
The runtime oracle (oracle_spot_check) applies its own page-2
Derivation (d2_derivation) to Monomials, not the engine's rule.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from typing import Callable

from .algebra import (
    P_STEP,
    V_STEP,
    V_TOP,
    Bidegree,
    Derivation,
    MissingRule,
    Monomial,
    family_monomial,
    family_p,
    family_v_exps,
    leibniz_apply,
    max_v_index,
    normalize,
    two_adic_valuation,
)
from .bockstein import (
    Column,
    Differential,
    EngineError,
    Homology,
    Page,
    _advance,
    c_max_for,
    replay_mode,
    tower_page,
    verify_transition,
)
from .ext import ext_model_page
from .gf2 import F2Matrix, F2Vector, rank
# read nowhere here: perfbench/tracer.py wraps these names on this module
# (bockstein.Homology calls bockstein's kernel_basis and quotient_basis)
from .ext import enumerate_ext_families  # noqa: F401
from .gf2 import kernel_basis, quotient_basis  # noqa: F401
from .report import Report


def d2_derivation(mw_max: int) -> Derivation:
    """The page-2 differential as a Derivation on Monomials, the
    reference of d2_rule: v_n -> v_{n-1}^2 for n >= 3; rho, P and v2 are
    cycles.  Terms are renormalized, so torsion may kill them."""
    top = max_v_index(mw_max)
    rules = {
        n: (Monomial.make(0, 0, {n - 1: 2}),) for n in range(3, top + 1)
    }
    return Derivation(
        shift=Bidegree(-1, 1),
        v_rules=rules,
        v_cycles=frozenset({2}),
        normalize_terms=True,
    )


def d2_rule(mw_max: int) -> Differential:
    """Page 2: d(v_n) = v_{n-1}^2 for n >= 3, extended by Leibniz; rho,
    P and v2 are cycles.  On P^p v_2^a_2 ... each v_n, n >= 3, with odd
    a_n gives the term fam - V_STEP[n] + 2 V_STEP[n-1] (even a_n cancel),
    sorted by family; distinct n give distinct terms.  They lie at rho^0,
    where torsion kills none, and rho is a cycle: the threshold is 0.  A
    normal family has normal terms (the least v index drops by one at
    most).  A v index above max_v_index(mw_max) raises MissingRule."""
    top = max_v_index(mw_max)

    def family_image(fam: int) -> tuple[list[tuple[int, int]], int]:
        terms = []
        for n, a in family_v_exps(fam):
            if n > top:
                raise MissingRule(f"no rule or cycle declaration for v{n}")
            if n > 2 and a % 2:
                terms.append((fam - V_STEP[n] + 2 * V_STEP[n - 1], 0))
        return sorted(terms), 0

    return Differential(Bidegree(-1, 1), family_image)


def build_e2(mw_max: int) -> Page:
    """The Ext model armed with the page-2 differential."""
    return replace(ext_model_page(mw_max), differential=d2_rule(mw_max))


def adams_rule(r: int) -> Differential:
    """Page r >= 3, the explicit d_r: for n > r and 2^(n-1) | p, the
    tower of P^p v_n maps from rho^base on, base = 2^n - 2^(n-r+2) - r + 2,
    onto the tower of P^p' v_(n-r+1)^2, p' = p + 2^(n-2) - 2^(n-r): rho
    delta -base, threshold base.  Every other family gives ([], 0).  The
    source rho^base P^p v_n lies at (4p + 2^n - 1, 4p + 1 + base), the
    target at (4p' + 2^(n-r+2) - 2, 4p' + 2): the shift is (-1, r - 1).
    A family is P^p v_n exactly when fam - P_STEP p is V_STEP[n]."""
    if r < 3:
        raise ValueError("r >= 3")
    rules = {}
    for n in range(r + 1, V_TOP + 1):
        base = 2 ** n - 2 ** (n - r + 2) - r + 2
        move = 2 * V_STEP[n - r + 1] - V_STEP[n] + P_STEP * (2 ** (n - 2) - 2 ** (n - r))
        rules[V_STEP[n]] = (2 ** (n - 1), move, base)

    def family_image(fam: int) -> tuple[list[tuple[int, int]], int]:
        p = family_p(fam)
        rule = rules.get(fam - P_STEP * p)
        if rule is None or p % rule[0]:
            return [], 0
        _, move, base = rule
        return [(fam + move, -base)], base

    return Differential(Bidegree(-1, r - 1), family_image)


def adams_r_max(mw_max: int) -> int:
    """Last page with a rule whose source fits the window."""
    return max(2, max_v_index(mw_max) - 1)


def _e3_from_e2(e2: Page) -> tuple[dict[int, dict[int, tuple[int, int]]], ...]:
    """Homology of the page-2 differential, column by column.

    Images here are genuine sums, so no tower shortcut applies: every
    column goes through the replay's integer homology routine
    (Homology.column_homology), in ascending mw, and at each of its
    degrees with classes the coset representatives must each be a
    single class and become the page-3 classes.  The classes inside the
    boundary span are the zero classes later pages may ask about;
    multi-term boundaries (sums of non-cycles) kill no single class.
    Only the unreported margin column may carry sum classes (their
    would-be killers start outside the window); they can neither source
    nor receive any later rule, so they are dropped there.  The degrees
    ascend, so each family's classes arrive in rho order; in one column
    its page-3 classes, and its zero classes, must each be one interval,
    else EngineError naming the page, the column and the family.
    """
    homology = Homology(e2)
    new_alive: dict[int, dict[int, tuple[int, int]]] = {}
    new_zero: dict[int, dict[int, tuple[int, int]]] = {}
    for mw in sorted(e2.alive):
        alive_col = new_alive[mw] = {}
        zero_col = new_zero[mw] = {}
        column = homology.column(mw).alive
        for c, mid, reps, boundaries in homology.column_homology(mw, sums_allowed=mw > e2.max_mw):
            units = boundaries.units()
            for col, what, found in ((alive_col, "alive", reps), (zero_col, "zero", units)):
                for i in found:
                    fam, c0, _ = column[mid[i]]
                    lo, hi = col.get(fam, (c - c0, c - c0))
                    if hi != c - c0:
                        raise EngineError(
                            f"{e2.label}: the page-3 {what} classes of {family_monomial(fam)} "
                            f"at mw={mw} are not one rho-interval: {(lo, hi)} and rho^{c - c0}"
                        )
                    col[fam] = (lo, hi + 1)
    return new_alive, new_zero


def adams_tower(r: float, c_max: int) -> Callable[[int], tuple[int, int] | None]:
    """The tower rule, for tower_page, of page r >= 3 over the normal
    families (r = math.inf: the stable page): the unit keeps its full
    tower; P^(2^(n-1)k) v_n keeps (2^n - 1 - L, 2^n - 1), L = n + 1 if
    r >= n, else 2^(n-r+2) + r - 3; P^(2^(n-1)k) v_n^2, k odd, keeps
    (0, 2^n - 1) while r <= 3 + nu2((k + 1)/2); the rest are dead
    (None).  d2 leaves the top 2^(n-1) classes of v_n, n >= 3, and the
    v_n^2 it does not hit (k odd); d_r (adams_rule) maps the bottom
    2^(n-r+1) - 1 classes of v_n, n > r, onto the v_(n-r+1)^2 tower with
    nu2((k + 1)/2) = r - 3, which dies.  Interval tuples are shared, by
    n."""
    lengths = {n: n + 1 if r >= n else 2 ** (n - r + 2) + r - 3 for n in range(2, V_TOP + 1)}
    singles = {n: (2 ** n - 1 - length, 2 ** n - 1) for n, length in lengths.items()}
    squares = {n: (0, 2 ** n - 1) for n in lengths}

    def tower(fam: int) -> tuple[int, int] | None:
        if not fam:  # the unit
            return (0, c_max + 1)
        v_exps = family_v_exps(fam)
        if len(v_exps) != 1:
            return None
        n, a = v_exps[0]
        if a == 1:
            return singles[n]
        k = family_p(fam) // 2 ** (n - 1)
        if a == 2 and k % 2 and r <= 3 + two_adic_valuation((k + 1) // 2):
            return squares[n]
        return None

    return tower


def closed_form_e3(mw_max: int, columns: dict[int, Column]) -> Page:
    """Predicted page 3: adams_tower at r = 3."""
    tower = adams_tower(3, c_max_for(mw_max))
    return tower_page("adams", "adams-E3-closed-form", 0, mw_max, columns, tower)


def closed_form_einfty(mw_max: int, columns: dict[int, Column]) -> Page:
    """Predicted stable page: adams_tower at r = infinity."""
    tower = adams_tower(math.inf, c_max_for(mw_max))
    return tower_page("adams", "adams-Einf-closed-form", 0, mw_max, columns, tower)


def run_adams(mw_max: int, *, verify: str = "auto", seed: int = 0) -> tuple[list[Page], Page]:
    """Run from the Ext model through every rule page to the stable
    page.  Returns ([E2, E3, ..., E_rmax], Einf); below mw 14 no rule
    page fits, and Einf is page 3.  verify is as in
    bockstein.replay_mode; seed no longer reaches the replay, which
    draws nothing at random.  The page-2 step (_e3_from_e2) is the
    class-at-a-time homology itself, so no mode replays it."""
    verify = replay_mode(verify, mw_max)
    page = build_e2(mw_max)
    pages = [page]
    alive, zero = _e3_from_e2(page)
    for r in range(3, adams_r_max(mw_max) + 1):
        rule = adams_rule(r)
        page = replace(page, label=f"adams-E{r}", r=r, alive=alive, zero=zero, differential=rule)
        alive, zero = _advance(page)
        verify_transition(page, alive, zero, verify, seed)
        pages.append(page)
    einfty = replace(
        page, label="adams-Einf", r=page.r + 1, alive=alive, zero=zero, differential=None
    )
    return pages, einfty


def check_e3_products(e3: Page) -> Report:
    """Products of page-3 tower generators up to the page's window,
    computed in the Ext model and projected back to the page.

    The even/odd P-multiple products inside one v_n family land on the
    v_n^2 towers; everything else projects to zero.
    """
    mw_max = e3.max_mw
    rep = Report()

    def project(m: Monomial | None) -> Monomial | None:
        if m is None:
            return None
        st = e3.status(m)
        if st == "alive":
            return m
        if st == "zero":
            return None
        raise EngineError(f"product {m} unresolved on page 3")

    gens = [
        family_monomial(fam, lo)
        for _, fam, lo, _, _ in e3.window_towers()
        if len(v := family_v_exps(fam)) == 1 and v[0][1] == 1
    ]
    bad = []
    checked = 0
    for i, g in enumerate(gens):
        for h in gens[i:]:
            prod = g.raw_product(h)
            if prod.bidegree.mw > mw_max:
                continue
            checked += 1
            got = project(normalize(prod))
            want = _predicted_e3_product(g, h)
            if got != want:
                bad.append((str(g), str(h), str(got), str(want)))
    rep.add(
        "e3-products",
        f"{checked} generator pairs, mw <= {mw_max}",
        not bad,
        "" if not bad else f"mismatches: {bad[:5]}",
    )
    return rep


def _predicted_e3_product(g: Monomial, h: Monomial) -> Monomial | None:
    """The stated product table: within the v2 family an even and an odd
    P-multiple meet in the v2^2 tower; within a v_n family (n >= 3) the
    two rho^(2^(n-1)-1)-shifted generators with opposite multiplier
    parity meet in rho^(2^n-2) P^(...) v_n^2; all else is zero."""
    (n, _), (m, _) = g.v_exps[0], h.v_exps[0]
    if n != m:
        return None
    step = 2 ** (n - 1)
    k, j = g.p_exp // step, h.p_exp // step
    if (k + j) % 2 == 0:
        return None
    if n == 2:
        return Monomial.make(0, g.p_exp + h.p_exp, {2: 2})
    return Monomial.make(2 ** n - 2, g.p_exp + h.p_exp, {n: 2})


def mod4_vanishing_scan(einfty: Page) -> Report:
    """The stable page is empty in positive stems congruent to 1 or 2
    mod 4."""
    rep = Report()
    bad = [
        str(family_monomial(fam, lo))
        for mw, fam, lo, _, _ in einfty.window_towers()
        if mw > 0 and mw % 4 in (1, 2)
    ]
    rep.add(
        "einfty-mod4-vanishing",
        f"stems 1..{einfty.max_mw}",
        not bad,
        "" if not bad else f"classes at {bad[:5]}",
    )
    return rep


def exhaustive_hit_scan(e3: Page, einfty: Page) -> Report:
    """Every page-3 class in a positive stem congruent to 2 mod 4 up to
    the page's window is hit under the rule pages, exactly once: the
    accumulated hit intervals tile the page-3 towers."""
    mw_max = e3.max_mw
    rep = Report()
    bad = []
    for mw in range(1, mw_max + 1):
        if mw % 4 != 2:
            continue
        hit, hit_before = einfty.zero.get(mw, {}), e3.zero.get(mw, {})
        for fam, _, (lo, hi) in e3._column_alive(mw):
            new_hits = set(range(*hit.get(fam, (0, 0)))) - set(range(*hit_before.get(fam, (0, 0))))
            if new_hits != set(range(lo, hi)):
                bad.append((mw, str(family_monomial(fam))))
    rep.add(
        "exhaustive-differentials",
        f"stems = 2 mod 4 up to {mw_max}",
        not bad,
        "" if not bad else f"not exactly covered: {bad[:5]}",
    )
    return rep


# ---------------------------------------------------------------------------
# the generic homology oracle

def dga_homology_oracle(num_gens: int, degree_bound: int) -> Report:
    """Brute-force homology of the polynomial algebra on w_1..w_N with
    the differential w_n -> w_{n-1}^2, truncated by total degree
    (deg w_n = 2^n, so the differential is degree-preserving).

    Compares against the two-class answer {1, w_1}; degrees below
    2^(N+1) are unaffected by the generator cutoff.
    """
    if num_gens < 2:
        raise ValueError("num_gens >= 2")
    degs = {n: 2 ** n for n in range(1, num_gens + 1)}

    monos_by_degree: dict[int, list[tuple[int, ...]]] = {}

    def rec(n: int, acc: list[int], total: int):
        if n > num_gens:
            monos_by_degree.setdefault(total, []).append(tuple(acc))
            return
        a = 0
        while total + a * degs[n] <= degree_bound:
            rec(n + 1, acc + [a], total + a * degs[n])
            a += 1

    rec(1, [], 0)

    def boundary(mono: tuple[int, ...]) -> list[tuple[int, ...]]:
        terms = []
        for n in range(2, num_gens + 1):
            if mono[n - 1] % 2:
                img = list(mono)
                img[n - 1] -= 1
                img[n - 2] += 2
                terms.append(tuple(img))
        keep = [t for t in terms if terms.count(t) % 2]
        return keep

    rep = Report()
    faithful = min(degree_bound, 2 ** (num_gens + 1) - 1)
    expected = {0: 1, 2: 1}
    bad = []
    for d in sorted(monos_by_degree):
        basis = sorted(monos_by_degree[d])
        index = {m: i for i, m in enumerate(basis)}
        rows = []
        for m in basis:
            bits = 0
            for t in boundary(m):
                bits ^= 1 << index[t]
            rows.append(bits)
        # rows of the boundary matrix: its rank is the rank of the map
        r = rank(F2Matrix(len(basis), tuple(F2Vector(len(basis), bits) for bits in rows)))
        dim_h = len(basis) - 2 * r  # ker - im = (n - r) - r
        if d <= faithful and dim_h != expected.get(d, 0):
            bad.append((d, dim_h, expected.get(d, 0)))
    rep.add(
        "dga-homology",
        f"N={num_gens}, degree bound {degree_bound}",
        not bad,
        "" if not bad else f"wrong dimensions at {bad[:6]}",
    )
    return rep


def oracle_spot_check(e2: Page, e3: Page, count: int = 20, seed: int = 0) -> Report:
    """Recompute page-3 dimensions at random bidegrees with a direct
    kernel-minus-image count on the Ext model, no page machinery.

    e2 and e3 are pages 2 and 3 of run_adams; the window is e2's
    max_mw.  A window without page-2 classes gives one passing item that
    names it, so the skipped check still shows."""
    mw_max = e2.max_mw
    # draw class indices in the order (mw, family, rho exponent) of the
    # page-2 classes and map each to its bidegree through the tower lengths
    rng = random.Random(seed)
    window = [(mw, e2.alive.get(mw, {})) for mw in range(1, mw_max + 1)]
    total = sum(hi - lo for _, per in window for lo, hi in per.values())
    wanted = sorted(rng.sample(range(total), min(count, total)), reverse=True)
    chosen = set()
    start = 0  # the index of the tower's first class
    for mw, _ in window:
        for _, c0, (lo, hi) in e2._column_alive(mw):
            while wanted and wanted[-1] < start + hi - lo:
                chosen.add((mw, c0 + lo + wanted.pop() - start))
            start += hi - lo
    rep = Report()
    if not total:
        rep.add("oracle-e3-dimension", f"no page-2 class at 1 <= mw <= {mw_max}", True)
    d2 = d2_derivation(mw_max)
    for mw, c in sorted(chosen):
        mid = e2.basis_at(mw, c)
        src = e2.basis_at(mw + 1, c - d2.shift.c)
        tgt = e2.basis_at(mw - 1, c + d2.shift.c)

        def matrix(sources, targets) -> F2Matrix:
            index = {m: i for i, m in enumerate(targets)}
            rows_bits = [0] * len(targets)
            for j, m in enumerate(sources):
                for term in leibniz_apply(d2, m):  # renormalized: no torsion-killed term
                    rows_bits[index[term]] ^= 1 << j
            return F2Matrix(len(sources), tuple(F2Vector(len(sources), b) for b in rows_bits))

        out_rank = rank(matrix(mid, tgt))
        in_rank = rank(matrix(src, mid))
        dim = len(mid) - out_rank - in_rank
        got = e3.dim_at(mw, c)
        rep.add(
            "oracle-e3-dimension",
            f"(mw={mw}, c={c})",
            dim == got,
            f"oracle {dim}, page {got}",
        )
    return rep
