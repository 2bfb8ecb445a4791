"""The h1-inverted Adams spectral sequence on top of the Ext model.

The second page is the Ext model; its differential is the derivation
v_n -> v_{n-1}^2 (n >= 3) extended by Leibniz with torsion
renormalization, applied to packed families by exponent arithmetic
(algebra.derivation_image).  It is rho-linear too: each family's image
is computed once, on the rho-free family, and shifted by the rho
exponent, and a shifted term that torsion kills is zero in the model.
That transition has genuinely multi-term images, so the third page is
computed per bidegree with full gf2 matrices on integer class
positions, through the same homology routine that replays the tower
transitions (bockstein.Homology), no shortcuts.  From the third page
on, the differentials are explicit rho-linear rule lists on single
tower classes, tabled by packed source family (RuleTable), and the
transitions run on the shared tower engine, replayed through gf2 like
the Bockstein ones.  A page-r differential shifts (mw, c) by (-1, r-1).
Each page holds its differential (Page.differential: the d2 Derivation
on page 2, a RuleTable from page 3 on), and every page of kind "adams"
applies the Ext model's ring torsion (algebra.torsion_bound).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .algebra import (
    Bidegree,
    Derivation,
    Monomial,
    family_monomial,
    family_of,
    family_p,
    family_v_exps,
    leibniz_apply,
    max_v_index,
    normalize,
)
from .bockstein import (
    EMPTY,
    Column,
    EngineError,
    Homology,
    Page,
    Runs,
    _advance,
    _alive_column,
    c_max_for,
    replay_mode,
    runs_make,
    runs_subset,
    runs_subtract,
    tower_page,
    verify_transition,
)
# enumerate_ext_families, kernel_basis and quotient_basis stay importable
# from here because perfbench/tracer.py wraps them by module; the closed
# forms take their columns from the computed page, and the page-2 step's
# bockstein.Homology calls the last two only to report a sum representative
from .ext import enumerate_ext_families, ext_model_page  # noqa: F401
from .gf2 import F2Matrix, F2Vector, kernel_basis, quotient_basis, rank  # noqa: F401
from .report import Report


def d2_rule(mw_max: int) -> Derivation:
    """v_n -> v_{n-1}^2 for n >= 3; rho, P and v2 are cycles.  Terms are
    renormalized, so torsion may kill them."""
    top = max_v_index(mw_max)
    rules = {
        n: (Monomial.make(0, 0, {n - 1: 2}),) for n in range(3, top + 1)
    }
    return Derivation(
        r=2,
        shift=Bidegree(-1, 1),
        v_rules=rules,
        v_cycles=frozenset({2}),
        normalize_terms=True,
    )


def build_e2(mw_max: int) -> Page:
    """The Ext model armed with the page-2 differential."""
    return replace(ext_model_page(mw_max), differential=d2_rule(mw_max))


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


class RuleTable:
    """Page r's differential (Page.differential) for r >= 3: the
    AdamsDiffRule of each source family, by packed family, applied to
    whole towers (family_image), shifting (mw, c) by (-1, r - 1)."""

    def __init__(self, r: int, rules: list[AdamsDiffRule]):
        self.shift = Bidegree(-1, r - 1)
        self.rules = {family_of(rule.source): rule for rule in rules}

    def family_image(self, fam: int) -> tuple[list[tuple[int, int]], int]:
        """(terms, threshold) in the form of Page.family_image: from
        rho exponent source.rho_exp on, the tower maps onto the target's
        tower shifted by target.rho_exp - source.rho_exp."""
        rule = self.rules.get(fam)
        if rule is None:
            return [], 0
        src, tgt = rule.source, rule.target
        return [(family_of(tgt), tgt.rho_exp - src.rho_exp)], src.rho_exp

    def sources(self, alive: dict[int, dict[int, Runs]]) -> list[int]:
        """The families that may have an image: the alive rule sources."""
        return [f for f, rule in self.rules.items() if f in alive.get(rule.source.bidegree.mw, {})]


def adams_r_max(mw_max: int) -> int:
    """Last page with a rule whose source fits the window."""
    return max(2, max_v_index(mw_max) - 1)


def _e3_from_e2(e2: Page) -> tuple[dict[int, dict[int, Runs]], dict[int, dict[int, Runs]]]:
    """Homology of the page-2 differential, bidegree by bidegree.

    Images here are genuine sums, so no tower shortcut applies: every
    bidegree with classes goes through the replay's integer homology
    routine (Homology.at), whose coset representatives must each be a
    single class and become the page-3 classes.  The classes inside the
    boundary span are the zero classes later pages may ask about;
    multi-term boundaries (sums of non-cycles) kill no single class.
    Only the unreported margin column may carry sum classes (their
    would-be killers start outside the window); they can neither source
    nor receive any later rule, so they are dropped there.
    """
    homology = Homology(e2)
    new_alive: dict[int, dict[int, Runs]] = {}
    new_zero: dict[int, dict[int, Runs]] = {}
    for mw in sorted(e2.alive):
        alive_col: dict[int, list[tuple[int, int]]] = {}
        zero_col: dict[int, list[tuple[int, int]]] = {}
        for c in homology.bidegrees(mw):
            mid, reps, boundaries = homology.at(mw, c, sums_allowed=mw > e2.max_mw)
            column = homology.column(mw).alive
            for i in reps:
                fam, c0, _ = column[mid[i]]
                alive_col.setdefault(fam, []).append((c - c0, c - c0 + 1))
            for i in boundaries.units():
                fam, c0, _ = column[mid[i]]
                zero_col.setdefault(fam, []).append((c - c0, c - c0 + 1))
        new_alive[mw] = {fam: runs_make(pairs) for fam, pairs in alive_col.items()}
        new_zero[mw] = {fam: runs_make(pairs) for fam, pairs in zero_col.items()}
    return new_alive, new_zero


def closed_form_e3(mw_max: int, columns: dict[int, Column]) -> Page:
    """Predicted page 3: towers rho^(2^(n-1)-1) P^(2^(n-1)k) v_n of
    length 2^(n-1) (full length 3 for n = 2), towers
    P^(2^(n-1)(2j+1)) v_n^2 of length 2^n - 1, and the rho tower on 1."""
    c_max = c_max_for(mw_max)

    def tower(fam: int) -> Runs:
        if not fam:  # the unit
            return ((0, c_max + 1),)
        v_exps = family_v_exps(fam)
        if len(v_exps) != 1:
            return EMPTY
        n, a = v_exps[0]
        step = 2 ** (n - 1)
        k = family_p(fam) // step
        if a == 1:
            return ((step - 1, 2 ** n - 1),) if n >= 3 else ((0, 3),)
        if a == 2 and k % 2 == 1:
            return ((0, 2 ** n - 1),)
        return EMPTY

    return tower_page("adams", "adams-E3-closed-form", 0, mw_max, columns, tower)


def closed_form_einfty(mw_max: int, columns: dict[int, Column]) -> Page:
    """Predicted stable page: for n >= 2 the tower
    rho^(2^n - n - 2) P^(2^(n-1)k) v_n of length n + 1, plus the rho
    tower on 1."""
    c_max = c_max_for(mw_max)

    def tower(fam: int) -> Runs:
        if not fam:  # the unit
            return ((0, c_max + 1),)
        v_exps = family_v_exps(fam)
        if len(v_exps) != 1 or v_exps[0][1] != 1:
            return EMPTY
        n = v_exps[0][0]
        return ((2 ** n - n - 2, 2 ** n - 1),)

    return tower_page("adams", "adams-Einf-closed-form", 0, mw_max, columns, tower)


def run_adams(
    mw_max: int,
    *,
    verify: str = "auto",
    seed: int = 0,
) -> tuple[list[Page], Page]:
    """Run from the Ext model through every rule page to the stable
    page.  Returns ([E2, E3, ..., E_rmax], Einf); below mw 14 no rule
    page fits, and Einf is page 3.  verify is as in
    bockstein.replay_mode."""
    verify = replay_mode(verify, mw_max)
    page = build_e2(mw_max)
    pages = [page]
    alive, zero = _e3_from_e2(page)
    for r in range(3, adams_r_max(mw_max) + 1):
        table = RuleTable(r, dr_rule(r, mw_max))
        page = replace(page, label=f"adams-E{r}", r=r, alive=alive, zero=zero, differential=table)
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
        t.generator
        for t in e3.towers()
        if len(t.generator.v_exps) == 1 and t.generator.v_exps[0][1] == 1
    ]
    bad = []
    checked = 0
    for i, g in enumerate(gens):
        for h in gens[i:]:
            prod = g.raw_product(h)
            if prod.bidegree.mw > mw_max:
                continue
            checked += 1
            got = project(normalize(prod, torsion=True))
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
        t
        for t in einfty.towers()
        if t.mw > 0 and t.mw % 4 in (1, 2)
    ]
    rep.add(
        "einfty-mod4-vanishing",
        f"stems 1..{einfty.max_mw}",
        not bad,
        "" if not bad else f"classes at {[str(t.generator) for t in bad[:5]]}",
    )
    return rep


def exhaustive_hit_scan(e3: Page, einfty: Page, mw_max: int) -> Report:
    """Every page-3 class in a positive stem congruent to 2 mod 4 is
    hit under the rule pages, exactly once: the accumulated hit
    intervals tile the page-3 towers."""
    rep = Report()
    bad = []
    for mw in range(1, mw_max + 1):
        if mw % 4 != 2:
            continue
        for fam, _, runs in e3._column_alive(mw):
            hit = einfty.zero.get(mw, {}).get(fam, EMPTY)
            hit_before = e3.zero.get(mw, {}).get(fam, EMPTY)
            new_hits = runs_subtract(hit, hit_before)
            if runs_subtract(runs, new_hits) != EMPTY or not runs_subset(
                new_hits, runs
            ):
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
    max_mw."""
    mw_max = e2.max_mw
    # draw class indices in the order (mw, family, rho exponent) of the
    # page-2 classes and map each to its bidegree through the run lengths
    rng = random.Random(seed)
    window = [(mw, e2.alive.get(mw, {})) for mw in range(1, mw_max + 1)]
    total = sum(hi - lo for _, per in window for runs in per.values() for lo, hi in runs)
    wanted = sorted(rng.sample(range(total), min(count, total)), reverse=True)
    picks = set()
    start = 0  # the index of the run's first class
    for mw, per in window:
        for _, c0, runs in _alive_column(per):
            for lo, hi in runs:
                while wanted and wanted[-1] < start + hi - lo:
                    picks.add((mw, c0 + lo + wanted.pop() - start))
                start += hi - lo
    rep = Report()
    shift = e2.diff_shift()
    for mw, c in sorted(picks):
        mid = e2.basis_at(mw, c)
        src = e2.basis_at(mw + 1, c - shift.c)
        tgt = e2.basis_at(mw - 1, c + shift.c)

        def matrix(sources, targets) -> F2Matrix:
            index = {m: i for i, m in enumerate(targets)}
            rows_bits = [0] * len(targets)
            for j, m in enumerate(sources):
                for term in leibniz_apply(e2.differential, m):
                    if normalize(term) is None:  # torsion kills it
                        continue
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
