"""The h1-inverted Adams spectral sequence on top of the Ext model.

The second page is the Ext model; its differential is the derivation
v_n -> v_{n-1}^2 (n >= 3) extended by Leibniz with torsion
renormalization.  That transition has genuinely multi-term images, so
the third page is computed per bidegree with full gf2 matrices, no
shortcuts.  From the third page on, the differentials are explicit
rho-linear rule lists on single tower classes and the transitions run
on the shared tower engine, replayed through gf2 like the Bockstein
ones.  A page-r differential shifts (mw, c) by (-1, r-1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .algebra import (
    Bidegree,
    Derivation,
    Monomial,
    leibniz_apply,
    max_v_index,
    normalize,
)
from .bockstein import (
    EMPTY,
    Column,
    EngineError,
    Page,
    RepresentativeNotMonomial,
    Runs,
    TorsionTower,
    _advance,
    _edges_from_rule,
    c_max_for,
    runs_contain,
    runs_make,
    runs_subset,
    runs_subtract,
    runs_union,
    verify_transition,
)
from .ext import enumerate_ext_families, ext_model_page, torsion_bound
from .gf2 import Echelon, F2Matrix, F2Vector, kernel_basis, quotient_basis, rank
from .report import Report


def _model_zero(m: Monomial) -> bool:
    n = m.min_v
    return n is not None and m.rho_exp >= 2 ** n - 1


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
    page = ext_model_page(mw_max)
    return replace(page, rule=d2_rule(mw_max), is_model_zero=_model_zero)


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
    """A rule page's differential: the AdamsDiffRule of each source
    family, applied to single classes (as Page.rule_fn) or to whole
    towers (family_image)."""

    def __init__(self, rules: list[AdamsDiffRule]):
        self.by_fam = {(rule.source.p_exp, rule.source.v_exps): rule for rule in rules}

    def __call__(self, m: Monomial) -> list[Monomial]:
        rule = self.by_fam.get((m.p_exp, m.v_exps))
        if rule is None or m.rho_exp < rule.source.rho_exp:
            return []
        a = m.rho_exp - rule.source.rho_exp
        return [rule.target.times_rho(a) if a else rule.target]

    def family_image(self, fam: Monomial) -> tuple[list[tuple[Monomial, int]], int]:
        """(terms, threshold) in the form of Page.family_image: from
        rho exponent source.rho_exp on, the tower maps onto the target's
        tower shifted by target.rho_exp - source.rho_exp."""
        rule = self.by_fam.get((fam.p_exp, fam.v_exps))
        if rule is None:
            return [], 0
        t, src_rho = rule.target, rule.source.rho_exp
        return [(Monomial(0, t.p_exp, t.v_exps), t.rho_exp - src_rho)], src_rho


def _edges_from_rules(rules: list[AdamsDiffRule]):
    edges: dict[int, dict[Monomial, tuple[Monomial, int, int]]] = {}
    for rule in rules:
        fam = Monomial(0, rule.source.p_exp, rule.source.v_exps)
        tfam = Monomial(0, rule.target.p_exp, rule.target.v_exps)
        mw = fam.bidegree.mw
        edges.setdefault(mw, {})[fam] = (
            tfam,
            -rule.source.rho_exp,
            rule.source.rho_exp,
        )
    return edges


def adams_r_max(mw_max: int) -> int:
    """Last page with a rule whose source fits the window."""
    return max(2, max_v_index(mw_max) - 1)


def _e3_from_e2(e2: Page) -> tuple[dict[int, dict[Monomial, Runs]], dict[int, dict[Monomial, Runs]]]:
    """Homology of the page-2 differential, bidegree by bidegree.

    Images here are genuine sums, so every bidegree gets the full
    treatment: Leibniz-expanded matrices, kernel_basis, quotient_basis,
    and the single-monomial representative assertion.
    """
    shift = e2.diff_shift()

    def column_cs(mw: int) -> list[int]:
        cs: set[int] = set()
        for fam, c0, runs in e2._column_alive(mw):
            for lo, hi in runs:
                cs.update(range(c0 + lo, min(c0 + hi, e2.c_internal + 1)))
        return sorted(cs)

    def do_column(mw: int):
        alive_col: dict[Monomial, list[tuple[int, int]]] = {}
        zero_col: dict[Monomial, list[tuple[int, int]]] = {}
        for c in column_cs(mw):
            mid = e2.basis_at(mw, c)
            if not mid:
                continue
            src = e2.basis_at(mw + 1, c - shift.c)
            tgt = e2.basis_at(mw - 1, c + shift.c)
            tgt_index = {m: i for i, m in enumerate(tgt)}
            mid_index = {m: i for i, m in enumerate(mid)}

            def expand_bits(m: Monomial, index) -> int:
                bits = 0
                for term in e2.apply_rule(m):
                    st = e2.status(term)
                    if st == "alive":
                        bits ^= 1 << index[term]
                    elif st != "zero":
                        raise EngineError(f"d2 image term {term} unresolved")
                return bits

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
            reps = quotient_basis(boundaries, kernel)
            for vvec in reps:
                sup = vvec.support()
                if len(sup) != 1:
                    # only the unreported margin column may carry sum
                    # classes (their would-be killers start outside the
                    # window); they can neither source nor receive any
                    # later rule, so they are dropped there
                    if mw > e2.max_mw:
                        continue
                    raise RepresentativeNotMonomial(
                        f"page-3 class at mw={mw}, c={c} needs a sum representative"
                    )
                m = mid[sup[0]]
                fam = Monomial(0, m.p_exp, m.v_exps)
                alive_col.setdefault(fam, []).append((m.rho_exp, m.rho_exp + 1))
            # single monomials inside the boundary span are the zero
            # classes later pages may ask about; multi-term boundaries
            # (sums of non-cycles) kill no individual monomial
            ech = Echelon()
            for vvec in boundaries:
                ech.insert(vvec.bits)
            for i, m in enumerate(mid):
                if ech.contains(1 << i):
                    fam = Monomial(0, m.p_exp, m.v_exps)
                    zero_col.setdefault(fam, []).append((m.rho_exp, m.rho_exp + 1))
        return alive_col, zero_col

    new_alive: dict[int, dict[Monomial, Runs]] = {}
    new_zero: dict[int, dict[Monomial, Runs]] = {}
    for mw in sorted(e2.alive):
        alive_col, zero_col = do_column(mw)
        new_alive[mw] = {fam: runs_make(pairs) for fam, pairs in alive_col.items()}
        new_zero[mw] = {fam: runs_make(pairs) for fam, pairs in zero_col.items()}
    return new_alive, new_zero


def compute_e3(mw_max: int, e2: Page | None = None) -> Page:
    """Degreewise homology of the page-2 differential."""
    if e2 is None:
        e2 = build_e2(mw_max)
    alive, zero = _e3_from_e2(e2)
    return Page(
        kind="adams",
        label="adams-E3",
        r=3,
        max_mw=e2.max_mw,
        c_max=e2.c_max,
        c_internal=e2.c_internal,
        columns=e2.columns,
        alive=alive,
        zero=zero,
        is_model_zero=_model_zero,
    )


def closed_form_e3(mw_max: int, columns: dict[int, Column] | None = None) -> Page:
    """Predicted page 3: towers rho^(2^(n-1)-1) P^(2^(n-1)k) v_n of
    length 2^(n-1) (full length 3 for n = 2), towers
    P^(2^(n-1)(2j+1)) v_n^2 of length 2^n - 1, and the rho tower on 1."""
    c_max = c_max_for(mw_max)
    if columns is None:
        columns = enumerate_ext_families(mw_max)
    alive: dict[int, dict[Monomial, Runs]] = {}
    for mw, col in columns.items():
        per: dict[Monomial, Runs] = {}
        for fam in col.fams:
            if fam.is_one():
                per[fam] = ((0, c_max - col.c0[fam] + 1),)
                continue
            if len(fam.v_exps) != 1:
                continue
            n, a = fam.v_exps[0]
            step = 2 ** (n - 1)
            k = fam.p_exp // step
            if a == 1:
                per[fam] = ((step - 1, 2 ** n - 1),) if n >= 3 else ((0, 3),)
            elif a == 2 and k % 2 == 1:
                per[fam] = ((0, 2 ** n - 1),)
        alive[mw] = per
    return Page(
        kind="adams",
        label="adams-E3-closed-form",
        r=0,
        max_mw=mw_max,
        c_max=c_max,
        c_internal=c_max,
        columns=columns,
        alive=alive,
        zero={mw: {} for mw in columns},
        is_model_zero=_model_zero,
    )


def closed_form_einfty(mw_max: int, columns: dict[int, Column] | None = None) -> Page:
    """Predicted stable page: for n >= 2 the tower
    rho^(2^n - n - 2) P^(2^(n-1)k) v_n of length n + 1, plus the rho
    tower on 1."""
    c_max = c_max_for(mw_max)
    if columns is None:
        columns = enumerate_ext_families(mw_max)
    alive: dict[int, dict[Monomial, Runs]] = {}
    for mw, col in columns.items():
        per: dict[Monomial, Runs] = {}
        for fam in col.fams:
            if fam.is_one():
                per[fam] = ((0, c_max - col.c0[fam] + 1),)
                continue
            if len(fam.v_exps) != 1 or fam.v_exps[0][1] != 1:
                continue
            n = fam.v_exps[0][0]
            per[fam] = ((2 ** n - n - 2, 2 ** n - 1),)
        alive[mw] = per
    return Page(
        kind="adams",
        label="adams-Einf-closed-form",
        r=0,
        max_mw=mw_max,
        c_max=c_max,
        c_internal=c_max,
        columns=columns,
        alive=alive,
        zero={mw: {} for mw in columns},
        is_model_zero=_model_zero,
    )


def run_adams(
    mw_max: int,
    *,
    verify: str = "auto",
    seed: int = 0,
) -> tuple[list[Page], Page]:
    """Run from the Ext model through every rule page to the stable
    page.  Returns ([E2, E3, ..., E_rmax], Einf)."""
    e2 = build_e2(mw_max)
    pages = [e2]
    alive, zero = _e3_from_e2(e2)
    r_max = adams_r_max(mw_max)
    last_r = 2
    for r in range(3, r_max + 1):
        rules = dr_rule(r, mw_max)
        page = Page(
            kind="adams",
            label=f"adams-E{r}",
            r=r,
            max_mw=mw_max,
            c_max=e2.c_max,
            c_internal=e2.c_internal,
            columns=e2.columns,
            alive=alive,
            zero=zero,
            rule_fn=RuleTable(rules),
            shift_override=Bidegree(-1, r - 1),
            edges=_edges_from_rules(rules),
            is_model_zero=_model_zero,
        )
        new_alive, new_zero = _advance(page)
        mode = verify
        if mode == "auto":
            from .bockstein import DENSE_VERIFY_LIMIT

            mode = "all" if mw_max <= DENSE_VERIFY_LIMIT else "sample"
        verify_transition(page, new_alive, new_zero, mode, seed)
        pages.append(page)
        alive, zero = new_alive, new_zero
        last_r = r
    einfty = Page(
        kind="adams",
        label="adams-Einf",
        r=last_r + 1,
        max_mw=mw_max,
        c_max=e2.c_max,
        c_internal=e2.c_internal,
        columns=e2.columns,
        alive=alive,
        zero=zero,
        is_model_zero=_model_zero,
    )
    return pages, einfty


def check_e3_products(mw_max: int = 64, e3: Page | None = None) -> Report:
    """Products of page-3 tower generators, computed in the Ext model
    and projected back to the page.

    The even/odd P-multiple products inside one v_n family land on the
    v_n^2 towers; everything else projects to zero.
    """
    if e3 is None:
        e3 = compute_e3(mw_max)
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

    gens = []
    for t in e3_first_family_towers(e3):
        gens.append(t.generator)
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


def e3_first_family_towers(e3: Page) -> list[TorsionTower]:
    out = []
    for t in e3.towers():
        if len(t.generator.v_exps) == 1 and t.generator.v_exps[0][1] == 1:
            out.append(t)
    return out


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
                bad.append((mw, str(fam)))
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
        # columns of the boundary matrix, as vectors
        mat = F2Matrix(
            len(basis),
            tuple(
                F2Vector(len(basis), sum(((rows[j] >> i) & 1) << j for j in range(len(basis))))
                for i in range(len(basis))
            ),
        )
        r = rank(mat)
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


def oracle_spot_check(mw_max: int, count: int = 20, seed: int = 0, e3: Page | None = None) -> Report:
    """Recompute page-3 dimensions at random bidegrees with a direct
    kernel-minus-image count on the Ext model, no page machinery."""
    e2 = build_e2(mw_max)
    if e3 is None:
        e3 = compute_e3(mw_max, e2=build_e2(mw_max))
    rng = random.Random(seed)
    candidates = []
    for mw in range(1, mw_max + 1):
        for fam, c0, runs in e2._column_alive(mw):
            for lo, hi in runs:
                for b in range(lo, hi):
                    candidates.append((mw, c0 + b))
    picks = sorted(set(rng.sample(candidates, min(count, len(candidates)))))
    rep = Report()
    shift = e2.diff_shift()
    for mw, c in picks:
        mid = e2.basis_at(mw, c)
        src = e2.basis_at(mw + 1, c - shift.c)
        tgt = e2.basis_at(mw - 1, c + shift.c)

        def matrix(sources, targets) -> F2Matrix:
            index = {m: i for i, m in enumerate(targets)}
            rows_bits = [0] * len(targets)
            for j, m in enumerate(sources):
                for term in leibniz_apply(e2.rule, m):
                    if _model_zero(term):
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
