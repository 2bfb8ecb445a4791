import random
from dataclasses import replace

import pytest

from etass import adams, bockstein
from etass.algebra import Bidegree, Monomial, family_c0, family_monomial, family_of, leibniz_apply
from etass.adams import (
    _e3_from_e2,
    adams_r_max,
    adams_rule,
    build_e2,
    check_e3_products,
    closed_form_e3,
    closed_form_einfty,
    d2_derivation,
    d2_rule,
    dga_homology_oracle,
    exhaustive_hit_scan,
    mod4_vanishing_scan,
    oracle_spot_check,
    run_adams,
)
from etass.bockstein import (
    Differential,
    EngineError,
    Homology,
    Page,
    RepresentativeNotMonomial,
    _advance,
    compare_pages,
    verify_transition,
)
from etass.cli import Session, verify_oracle
from etass.ext import ext_model_page
from e3_reference import reference_e3_from_e2
from replay_mutations import check_mutations_caught
from rule_reference import AdamsDiffRule, apply_dr_table, dr_rule, dr_table


def mono(rho=0, p=0, **vs):
    return Monomial.make(rho, p, {int(k[1:]): a for k, a in vs.items()})


def test_d2_examples():
    d2 = d2_derivation(64)
    assert leibniz_apply(d2, mono(v3=1)) == [mono(v2=2)]
    assert leibniz_apply(d2, mono(rho=4, p=4, v3=1)) == []  # torsion kills the image
    assert leibniz_apply(d2, mono(v3=1, v4=1)) == sorted(
        [mono(v2=2, v4=1), mono(v3=3)], key=Monomial.sort_key
    )
    # the family form: P^(2^(n-1)k) v_n -> P^(2^(n-1)k) v_{n-1}^2
    assert leibniz_apply(d2, mono(p=8, v4=1)) == [mono(p=8, v3=2)]
    # the engine rule on the same families: terms sorted by family, at rho^0
    rule = d2_rule(64)
    assert rule.family_image(family_of(mono(v3=1))) == ([(family_of(mono(v2=2)), 0)], 0)
    terms = sorted([(family_of(mono(v2=2, v4=1)), 0), (family_of(mono(v3=3)), 0)])
    assert rule.family_image(family_of(mono(v3=1, v4=1))) == (terms, 0)
    assert rule.family_image(family_of(mono(p=8, v4=1))) == ([(family_of(mono(p=8, v3=2)), 0)], 0)


def page_3(e2):
    """Page 3 built straight from page 2: the page-2 step's runs, no
    differential."""
    alive, zero = _e3_from_e2(e2)
    return replace(e2, label="adams-E3", r=3, alive=alive, zero=zero, differential=None)


@pytest.fixture(scope="module")
def adams_64():
    return run_adams(64, verify="all")


@pytest.fixture(scope="module")
def e3_64(adams_64):
    pages, _ = adams_64
    return pages[1]


def test_e3_matches_closed_form(e3_64):
    rep = compare_pages(e3_64, closed_form_e3(64, e3_64.columns), "e3")
    assert rep.ok, rep.to_json()


def test_e3_tower_examples(e3_64):
    towers = {
        (mw, family_c0(fam) + lo): (str(family_monomial(fam, lo)), hi - lo)
        for mw, fam, lo, hi, _ in e3_64.window_towers()
    }
    # rho^3 P^(4k) v3 at (7,4) + k(16,16), torsion 4
    assert towers[(7, 4)] == ("rho^3 v3", 4)
    assert towers[(23, 20)] == ("rho^3 P^4 v3", 4)
    # P^(2(2j+1)) v2^2 at (6,2) + (2j+1)(8,8), torsion 3
    assert towers[(14, 10)] == ("P^2 v2^2", 3)
    assert towers[(30, 26)] == ("P^6 v2^2", 3)
    # P^(2^(n-1)(2j+1)) v_n^2 at (2^(n+1)-2, 2) + (2j+1)(2^(n+1), ...)
    assert towers[(30, 18)] == ("P^4 v3^2", 7)
    assert towers[(62, 34)] == ("P^8 v4^2", 15)
    assert (6, 2) not in towers  # the even multiples are all hit


def test_e3_products(e3_64):
    assert check_e3_products(e3_64).ok
    # the stated examples, at page level
    assert e3_64.status(mono(p=2, v2=2)) == "alive"  # v2 * P^2 v2
    assert e3_64.status(mono(rho=6, p=12, v3=2)) == "alive"
    # cross-family product is torsion-killed before the page
    from etass.algebra import multiply, normalize

    a = normalize(mono(p=2, v2=1))
    b = normalize(mono(rho=3, p=4, v3=1))
    assert multiply(a, b) is None


def test_dr_rule_examples():
    d3 = {(r.source.v_exps, r.source.p_exp): r for r in dr_rule(3, 64)}
    rule = d3[(((4, 1),), 0)]
    assert rule.source == mono(rho=7, v4=1)
    assert rule.target == mono(p=2, v2=2)
    d4 = {(r.source.v_exps, r.source.p_exp): r for r in dr_rule(4, 64)}
    rule = d4[(((5, 1),), 0)]
    assert rule.source == mono(rho=22, v5=1)
    assert rule.target == mono(p=6, v2=2)
    # the engine rules: from the source's rho exponent on, onto the target
    image = adams_rule(3).family_image(family_of(mono(v4=1)))
    assert image == ([(family_of(mono(p=2, v2=2)), -7)], 7)
    image = adams_rule(4).family_image(family_of(mono(v5=1)))
    assert image == ([(family_of(mono(p=6, v2=2)), -22)], 22)
    assert adams_rule(4).family_image(family_of(mono(v4=1))) == ([], 0)


def test_dr_general_form_specializes_to_page3():
    # exponent identities: 2^n - 2^(n-1) - 1 = 2^(n-1) - 1 and
    # 2^(n-2) - 2^(n-3) = 2^(n-3)
    for n in range(4, 8):
        assert 2 ** n - 2 ** (n - 3 + 2) - 3 + 2 == 2 ** (n - 1) - 1
        assert 2 ** (n - 2) - 2 ** (n - 3) == 2 ** (n - 3)


def test_rule_degree_shift_validated():
    with pytest.raises(ValueError):
        AdamsDiffRule(3, mono(rho=7, v4=1), mono(p=3, v2=2))


def test_r_max():
    assert adams_r_max(64) == 5
    assert adams_r_max(256) == 7


def test_einfty_matches_closed_form(adams_64):
    _, einf = adams_64
    rep = compare_pages(einf, closed_form_einfty(64, einf.columns), "einf")
    assert rep.ok, rep.to_json()


def test_einfty_spot_towers(adams_64):
    _, einf = adams_64
    towers = {
        mw: (family_c0(fam) + lo, str(family_monomial(fam, lo)), hi - lo)
        for mw, fam, lo, hi, _ in einf.window_towers()
        if mw in (15, 31, 63)
    }
    assert towers[15] == (11, "rho^10 v4", 5)
    assert towers[31] == (26, "rho^25 v5", 6)
    assert towers[63] == (57, "rho^56 v6", 7)


def test_tower_bookkeeping_mw63(adams_64):
    # the 32-class tower loses 15, then 7, then 3 classes
    pages, einf = adams_64
    fam = family_of(mono(v6=1))
    runs = {p.r: p.alive[63].get(fam) for p in pages if 63 in p.alive}
    assert runs[3] == (31, 63)
    assert runs[4] == (46, 63)
    assert runs[5] == (53, 63)
    assert einf.alive[63][fam] == (56, 63)


def test_scans(adams_64, e3_64):
    pages, einf = adams_64
    assert mod4_vanishing_scan(einf).ok
    assert exhaustive_hit_scan(pages[1], einf).ok


def test_window_independence():
    # enlarging the window does not change reported columns
    _, small = run_adams(32, verify="off")
    _, large = run_adams(64, verify="off")
    for mw in range(33):
        assert small.dims_column(mw) == {
            c: d for c, d in large.dims_column(mw).items() if c <= small.c_max
        }


def test_dga_oracle_small_degrees():
    rep = dga_homology_oracle(4, 12)
    assert rep.ok, rep.to_json()


def test_dga_oracle_full():
    assert dga_homology_oracle(6, 40).ok


def test_oracle_spot_check(e3_64):
    e2 = build_e2(64)
    assert oracle_spot_check(e2, e3_64, count=20, seed=0).ok
    assert oracle_spot_check(e2, e3_64, count=20, seed=99).ok


@pytest.mark.parametrize("mw_max, bidegrees", [(64, 1280), (96, 3138)])
def test_oracle_checks_every_bidegree(mw_max, bidegrees):
    """With count set to the page-2 class total over mw 1..mw_max the
    spot check draws every class, so the oracle re-derives page 3 at
    every bidegree of the window that holds a page-2 class."""
    pages, _ = run_adams(mw_max, verify="off")
    e2 = pages[0]
    total = sum(hi - lo for mw in range(1, mw_max + 1) for lo, hi in e2.alive.get(mw, {}).values())
    rep = oracle_spot_check(e2, pages[1], count=total)
    assert len(rep.items) == bidegrees
    assert rep.ok, [item.instance for item in rep.failures()[:5]]


def _listed_oracle_picks(mw_max: int, count: int, seed: int) -> list[tuple[int, int]]:
    """The spot check's picks drawn from a list of every page-2 class's
    bidegree, window column by column, as they were drawn before the
    picks were mapped from run lengths."""
    e2 = build_e2(mw_max)
    candidates = []
    for mw in range(1, mw_max + 1):
        for fam, c0, (lo, hi) in e2._column_alive(mw):
            for b in range(lo, hi):
                candidates.append((mw, c0 + b))
    return sorted(set(random.Random(seed).sample(candidates, min(count, len(candidates)))))


@pytest.mark.parametrize("mw_max, count", [(64, 20), (24, 50), (6, 20), (2, 20)])
def test_oracle_spot_check_picks_match_listed_classes(mw_max, count):
    """Drawing class indices and mapping them through the run lengths
    picks the same bidegrees as drawing from the list of classes."""
    e2 = build_e2(mw_max)
    e3 = page_3(e2)
    for seed in (0, 1, 7, 99, 2024):
        rep = oracle_spot_check(e2, e3, count=count, seed=seed)
        want = [f"(mw={mw}, c={c})" for mw, c in _listed_oracle_picks(mw_max, count, seed)]
        # a window without page-2 classes gives one item that names it
        empty = [f"no page-2 class at 1 <= mw <= {mw_max}"]
        assert [item.instance for item in rep.items] == (want or empty)
        assert rep.ok


def test_verify_oracle_reuses_the_session_page_2(monkeypatch):
    """The oracle suite spot-checks on the Session's page 2 and builds
    none of its own; its items are those of a spot check on a fresh one."""
    s = Session(24, seed=7)
    s.adams()
    built = []
    real = adams.build_e2
    monkeypatch.setattr(adams, "build_e2", lambda mw_max: built.append(mw_max) or real(mw_max))
    rep = verify_oracle(s)
    assert built == []
    e2 = build_e2(24)
    want = oracle_spot_check(e2, page_3(e2), count=20, seed=7)
    assert len(want.items) == 20 and rep.items[-20:] == want.items


@pytest.mark.parametrize("mw_max", [8, 13])
def test_session_page_3_below_the_rule_pages(mw_max, monkeypatch):
    """Below mw 14 run_adams has no rule page, and its stable page is
    page 3: the Session takes it, relabelled, and runs the page-2 step
    once.  It equals page 3 built straight from page 2."""
    want = page_3(build_e2(mw_max))
    calls = []
    real = adams._e3_from_e2
    monkeypatch.setattr(adams, "_e3_from_e2", lambda e2: calls.append(e2.max_mw) or real(e2))
    s = Session(mw_max)
    pages, _ = s.adams()
    got = s.e3()
    assert len(pages) == 1 and calls == [mw_max]
    fields = ("kind", "label", "r", "max_mw", "alive", "zero", "differential")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]


def test_e2_page_status():
    e2 = build_e2(16)
    assert e2.status(mono(v2=1)) == "alive"
    assert e2.status(mono(rho=3, v2=1)) == "zero"  # ring torsion
    assert ext_model_page(16).dim_at(3, 1) == 1


def test_replay_catches_corrupted_transitions():
    pages, _ = run_adams(24, verify="off")
    assert pages[1].label == "adams-E3" and isinstance(pages[1].differential, Differential)
    check_mutations_caught(pages[1])


def test_rule_table_family_image_is_rho_linear():
    """Each rule page's family image, shifted by the rho exponent, is the
    rule applied to every class of the tower, and nothing below the
    threshold."""
    e2 = build_e2(32)
    for r in range(3, adams_r_max(32) + 1):
        table = dr_table(dr_rule(r, 32))
        page = replace(e2, differential=adams_rule(r))
        below = moved = 0
        for mw in page.alive:
            for fam, _, (lo, hi) in page._column_alive(mw):
                terms, threshold = page.family_image(fam)
                for b in range(lo, hi):
                    got = apply_dr_table(table, family_monomial(fam, b))
                    if b < threshold:
                        assert got == []
                        below += bool(terms)
                    else:
                        assert got == [family_monomial(tfam, b + d) for tfam, d in terms]
                        moved += bool(terms)
        assert below and moved, f"page {r}: {below} classes below threshold, {moved} moved"


def test_replay_keeps_classes_below_rule_threshold():
    """On the page-2 towers the v4 tower starts at rho^0, below the
    rule's threshold rho^7: those classes are cycles, and the replay
    must not map them onto the target tower.  The v4 tower is cut to
    rho^0 .. rho^9, the classes the rule's three-class target reaches,
    so that its survivors are one interval."""
    rules = dr_rule(3, 24)
    e2 = build_e2(24)
    v4 = family_of(mono(v4=1))
    assert [rule.source for rule in rules] == [mono(rho=7, v4=1)]
    assert e2.alive[15][v4] == (0, 15)
    alive = {**e2.alive, 15: {**e2.alive[15], v4: (0, 10)}}
    page = replace(e2, r=3, alive=alive, differential=adams_rule(3))
    new_alive, new_zero = _advance(page)
    assert verify_transition(page, new_alive, new_zero, "all") > 0
    assert new_alive[15][v4] == (0, 7)


def test_tower_shortcut_rejects_shared_rule_image():
    """Two source families with one target family would make a 2x1
    block: rho^3 v2^5 -> P^2 v2^2 next to the page-3 rule
    rho^7 v4 -> P^2 v2^2."""
    rules = dr_rule(3, 24)
    assert [rule.target for rule in rules] == [mono(p=2, v2=2)]
    extra = AdamsDiffRule(3, mono(rho=3, v2=5), mono(p=2, v2=2))
    rule = adams_rule(3)

    def family_image(fam):
        if fam == family_of(extra.source):
            return [(family_of(extra.target), -extra.source.rho_exp)], extra.source.rho_exp
        return rule.family_image(fam)

    page = replace(build_e2(24), r=3, differential=Differential(rule.shift, family_image))
    with pytest.raises(EngineError, match="share image"):
        _advance(page)


@pytest.mark.parametrize("mw", [*range(41), 64])
def test_e3_step_matches_reference(mw):
    """The integer page-2 step gives exactly the alive and zero intervals of
    the class-by-class monomial step."""
    assert _e3_from_e2(build_e2(mw)) == reference_e3_from_e2(build_e2(mw))


def test_e3_step_rejects_page3_classes_in_two_intervals():
    """A page-2 image strictly inside its target tower, v3 rho^3 and
    rho^4 onto v2^2 rho^2 and rho^3, would leave v2^2 the page-3 classes
    rho^0, rho^1, rho^4 and rho^5: the step raises, naming the page, the
    column and the family."""
    v3, v2_squared = family_of(mono(v3=1)), family_of(mono(v2=2))

    def family_image(fam):
        return ([(v2_squared, -1)], 0) if fam == v3 else ([], 0)

    page = Page(
        kind="adams",
        label="adams-E2",
        r=2,
        max_mw=8,
        columns={},
        alive={6: {v2_squared: (0, 6)}, 7: {v3: (3, 5)}},
        differential=Differential(Bidegree(-1, 0), family_image),
    )
    with pytest.raises(EngineError, match=r"^adams-E2: the page-3 alive classes of v2\^2 at mw=6 "):
        _e3_from_e2(page)


def test_e3_step_rejects_image_term_neither_alive_nor_hit():
    e2 = build_e2(16)
    _e3_from_e2(e2)
    _, _, _, targets = e2.differentials()[0]
    tfam, _ = targets[0]
    tmw = family_monomial(tfam).bidegree.mw
    column = {fam: runs for fam, runs in e2.alive[tmw].items() if fam != tfam}
    mutant = replace(e2, alive={**e2.alive, tmw: column})
    with pytest.raises(EngineError, match="neither alive nor hit"):
        _e3_from_e2(mutant)


def sum_representatives(monkeypatch, columns):
    """Withhold the first unit representative at every bidegree of the
    given columns that has one and two or more classes, so that its
    class has only a sum representative; returns the list of (column,
    number of classes) so changed, one per bidegree."""
    real_column, real_units = Homology.column_homology, bockstein.unit_representatives
    where: list[int] = []
    changed: list[tuple[int, int]] = []

    def column_homology(self, mw, sums_allowed=False):
        where[:] = [mw]
        yield from real_column(self, mw, sums_allowed)

    def units(out, boundaries, want):
        reps = real_units(out, boundaries, want)
        if where[0] in columns and reps and len(out) >= 2:
            changed.append((where[0], len(out)))
            reps = reps[1:]
        return reps

    monkeypatch.setattr(Homology, "column_homology", column_homology)
    monkeypatch.setattr(bockstein, "unit_representatives", units)
    return changed


# at mw 32 only columns 31 and 33 hold a bidegree with two classes and
# a representative
def test_e3_step_sum_representative_raises_in_reported_column(monkeypatch):
    e2 = build_e2(32)
    changed = sum_representatives(monkeypatch, range(e2.max_mw + 1))
    with pytest.raises(RepresentativeNotMonomial):
        _e3_from_e2(e2)
    assert len(changed) == 1 and changed[0][0] <= e2.max_mw


def test_e3_step_drops_sum_representative_in_margin_column(monkeypatch):
    e2 = build_e2(32)
    margin = e2.max_mw + 1
    honest_alive, honest_zero = _e3_from_e2(e2)
    changed = sum_representatives(monkeypatch, [margin])
    alive, zero = _e3_from_e2(e2)
    assert changed and all(mw == margin for mw, _ in changed)
    assert zero == honest_zero
    assert {mw: runs for mw, runs in alive.items() if mw != margin} == {
        mw: runs for mw, runs in honest_alive.items() if mw != margin
    }
    dropped = sum(hi - lo for lo, hi in honest_alive[margin].values()) - sum(
        hi - lo for lo, hi in alive[margin].values()
    )
    assert dropped == len(changed)
